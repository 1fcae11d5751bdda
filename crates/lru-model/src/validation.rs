//! Monte-Carlo ground truth: run the real LRU from `cdn-cache` over a
//! synthetic stream and measure per-site hit ratios.
//!
//! Figure 6 of the paper compares the analytical model's predictions
//! against trace-driven simulation; this module is the self-contained
//! version of that comparison used by unit tests and `ablation_model`.

use cdn_cache::{Cache, LruCache, ObjectKey};
use cdn_workload::{InverseCdf, ZipfLike};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Result of a Monte-Carlo run.
#[derive(Debug, Clone)]
pub struct McResult {
    /// Hit ratio per site (requests after warm-up only).
    pub per_site: Vec<f64>,
    /// Overall hit ratio.
    pub aggregate: f64,
    /// Requests measured (excludes warm-up).
    pub measured_requests: u64,
}

/// Simulate an LRU of `buffer_objects` unit-size slots fed by requests whose
/// site follows `site_pops` (must sum to ~1) and whose object follows
/// `zipf`. The first `warmup` of the `total` requests are not measured.
///
/// # Panics
/// Panics if `warmup >= total` or `site_pops` is empty.
pub fn monte_carlo_hit_ratio(
    site_pops: &[f64],
    zipf: &ZipfLike,
    buffer_objects: usize,
    total: u64,
    warmup: u64,
    seed: u64,
) -> McResult {
    assert!(!site_pops.is_empty(), "need at least one site");
    assert!(
        warmup < total,
        "warm-up {warmup} must be below total {total}"
    );

    // Unit-size objects: capacity in "bytes" equals the object count.
    let mut cache = LruCache::new(buffer_objects as u64);
    let mut cdf = Vec::with_capacity(site_pops.len());
    let mut acc = 0.0;
    for &p in site_pops {
        acc += p;
        cdf.push(acc);
    }
    let norm = acc;
    for c in &mut cdf {
        *c /= norm;
    }
    *cdf.last_mut().expect("non-empty") = 1.0;
    let sites = InverseCdf::new(cdf.into());

    let mut rng = StdRng::seed_from_u64(seed);
    let mut hits = vec![0u64; site_pops.len()];
    let mut reqs = vec![0u64; site_pops.len()];

    for n in 0..total {
        let site = sites.sample(&mut rng) as u32;
        let object = (zipf.sample(&mut rng) - 1) as u32;
        let key = ObjectKey::new(site, object);
        let hit = cache.access(key, 1);
        if n >= warmup {
            reqs[site as usize] += 1;
            if hit {
                hits[site as usize] += 1;
            }
        }
    }

    let per_site: Vec<f64> = hits
        .iter()
        .zip(&reqs)
        .map(|(&h, &r)| if r == 0 { 0.0 } else { h as f64 / r as f64 })
        .collect();
    let total_hits: u64 = hits.iter().sum();
    let total_reqs: u64 = reqs.iter().sum();

    McResult {
        per_site,
        aggregate: if total_reqs == 0 {
            0.0
        } else {
            total_hits as f64 / total_reqs as f64
        },
        measured_requests: total_reqs,
    }
}

/// Convenience: the paper-model prediction for the same setup, enabling
/// side-by-side accuracy checks.
pub fn paper_model_prediction(
    site_pops: &[f64],
    model: &crate::LruModel,
    buffer_objects: usize,
) -> Vec<f64> {
    let p_b = model.top_b_mass(site_pops, buffer_objects);
    let k = model.eviction_horizon(buffer_objects, p_b);
    site_pops
        .iter()
        .map(|&p| model.site_hit_ratio(p, k))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LruModel;

    #[test]
    fn aggregate_is_request_weighted_mean() {
        let zipf = ZipfLike::new(50, 1.0);
        let res = monte_carlo_hit_ratio(&[0.7, 0.3], &zipf, 20, 30_000, 5_000, 3);
        assert!(res.aggregate > 0.0 && res.aggregate < 1.0);
        assert_eq!(res.measured_requests, 25_000);
    }

    #[test]
    fn bigger_buffer_gives_higher_hit_ratio() {
        let zipf = ZipfLike::new(100, 1.0);
        let small = monte_carlo_hit_ratio(&[1.0], &zipf, 5, 50_000, 10_000, 4).aggregate;
        let large = monte_carlo_hit_ratio(&[1.0], &zipf, 50, 50_000, 10_000, 4).aggregate;
        assert!(large > small, "large {large} <= small {small}");
    }

    #[test]
    fn buffer_covering_everything_hits_after_warmup() {
        let zipf = ZipfLike::new(20, 1.0);
        let res = monte_carlo_hit_ratio(&[1.0], &zipf, 20, 50_000, 20_000, 5);
        assert!(res.aggregate > 0.99, "aggregate {}", res.aggregate);
    }

    #[test]
    fn model_prediction_close_to_monte_carlo() {
        // The paper reports < 7% error on per-request cost; on raw hit
        // ratios we allow a few points of absolute error.
        let zipf = ZipfLike::new(200, 1.0);
        let model = LruModel::from_zipf(zipf.clone());
        let pops = [0.4, 0.35, 0.25];
        let b = 60;
        let mc = monte_carlo_hit_ratio(&pops, &zipf, b, 400_000, 100_000, 6);
        let predicted = paper_model_prediction(&pops, &model, b);
        for (j, (&sim, &pred)) in mc.per_site.iter().zip(&predicted).enumerate() {
            assert!(
                (sim - pred).abs() < 0.06,
                "site {j}: sim {sim:.4} vs model {pred:.4}"
            );
        }
    }

    #[test]
    fn more_popular_site_gets_higher_hit_ratio() {
        let zipf = ZipfLike::new(100, 1.0);
        let res = monte_carlo_hit_ratio(&[0.8, 0.2], &zipf, 40, 200_000, 50_000, 7);
        assert!(res.per_site[0] > res.per_site[1]);
    }

    #[test]
    #[should_panic]
    fn warmup_exceeding_total_panics() {
        let zipf = ZipfLike::new(10, 1.0);
        monte_carlo_hit_ratio(&[1.0], &zipf, 5, 100, 100, 0);
    }
}
