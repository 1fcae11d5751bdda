//! The site catalog: M hosted web sites, each a set of L objects with
//! SURGE-style sizes and a shared Zipf-like internal popularity.

use crate::config::WorkloadConfig;
use crate::dist::{BoundedPareto, LogNormal};
use crate::zipf::ZipfLike;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Popularity class of a site; determines its total request volume.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PopularityClass {
    Low,
    Medium,
    High,
}

/// One hosted web site.
#[derive(Debug, Clone)]
pub struct Site {
    /// Index in the catalog (also the site id used everywhere else).
    pub id: u32,
    pub class: PopularityClass,
    /// Per-object sizes in bytes, indexed by popularity rank − 1 (object 0
    /// is the most popular object of the site).
    pub object_sizes: Vec<u64>,
    /// Σ object_sizes — the storage cost of replicating the whole site
    /// (`o_j` in the paper).
    pub total_bytes: u64,
    /// Total requests this site receives across all servers (`Σ_i r_j^(i)`).
    pub total_requests: u64,
}

impl Site {
    /// Mean object size (unweighted).
    pub fn mean_object_bytes(&self) -> f64 {
        self.total_bytes as f64 / self.object_sizes.len() as f64
    }
}

/// The full catalog plus the shared per-site object-popularity law.
#[derive(Debug, Clone)]
pub struct SiteCatalog {
    pub sites: Vec<Site>,
    /// Zipf-like law over object ranks, shared by all sites (the paper uses
    /// the same θ and L for every site).
    pub object_zipf: ZipfLike,
}

impl SiteCatalog {
    /// Generate a catalog from `config` with the given `seed`.
    ///
    /// # Panics
    /// Panics with [`WorkloadConfig::validate`]'s message on an invalid
    /// config.
    pub fn generate(config: &WorkloadConfig, seed: u64) -> Self {
        if let Err(msg) = config.validate() {
            panic!("{msg}");
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let m = config.m_sites;

        // Class assignment: exact counts per the mix, then shuffled so class
        // does not correlate with site id (and hence with primary location).
        let n_low = (config.class_mix.low_frac * m as f64).round() as usize;
        let n_med = (config.class_mix.medium_frac * m as f64).round() as usize;
        let n_low = n_low.min(m);
        let n_med = n_med.min(m - n_low);
        let mut classes = Vec::with_capacity(m);
        classes.extend(std::iter::repeat_n(PopularityClass::Low, n_low));
        classes.extend(std::iter::repeat_n(PopularityClass::Medium, n_med));
        classes.extend(std::iter::repeat_n(
            PopularityClass::High,
            m - n_low - n_med,
        ));
        classes.shuffle(&mut rng);

        let body = LogNormal::new(config.size_model.body_mu, config.size_model.body_sigma);
        let tail = BoundedPareto::new(
            config.size_model.tail_alpha,
            config.size_model.tail_lo,
            config.size_model.tail_hi,
        );

        let sites = classes
            .into_iter()
            .enumerate()
            .map(|(id, class)| {
                let object_sizes: Vec<u64> = (0..config.objects_per_site)
                    .map(|_| {
                        let raw = if config.size_model.tail_prob > 0.0
                            && rng.gen_bool(config.size_model.tail_prob)
                        {
                            tail.sample(&mut rng)
                        } else {
                            body.sample(&mut rng)
                        };
                        (raw as u64).max(config.size_model.min_bytes)
                    })
                    .collect();
                let total_bytes = object_sizes.iter().sum();
                let weight = match class {
                    PopularityClass::Low => config.class_mix.low_weight,
                    PopularityClass::Medium => config.class_mix.medium_weight,
                    PopularityClass::High => config.class_mix.high_weight,
                };
                Site {
                    id: id as u32,
                    class,
                    object_sizes,
                    total_bytes,
                    total_requests: (config.base_requests as f64 * weight).round() as u64,
                }
            })
            .collect();

        Self {
            sites,
            object_zipf: ZipfLike::new(config.objects_per_site, config.theta),
        }
    }

    /// Number of sites.
    pub fn m(&self) -> usize {
        self.sites.len()
    }

    /// Cumulative size of all sites (the denominator when server capacity is
    /// expressed as a percentage, as in the paper's figures).
    pub fn total_bytes(&self) -> u64 {
        self.sites.iter().map(|s| s.total_bytes).sum()
    }

    /// Total requests across all sites.
    pub fn total_requests(&self) -> u64 {
        self.sites.iter().map(|s| s.total_requests).sum()
    }

    /// Request-weighted mean object size: `Σ_k pmf(k)·size_k`, averaged over
    /// sites weighted by their request volume. This is the `ō` the paper
    /// divides cache space by to obtain the buffer size `B`.
    pub fn mean_request_bytes(&self) -> f64 {
        let total_req: f64 = self.total_requests() as f64;
        if total_req == 0.0 {
            return 0.0;
        }
        self.sites
            .iter()
            .map(|s| {
                let site_mean = self
                    .object_zipf
                    .expectation(|k| s.object_sizes[k - 1] as f64);
                s.total_requests as f64 * site_mean
            })
            .sum::<f64>()
            / total_req
    }

    /// Count of sites per class, in (low, medium, high) order.
    pub fn class_counts(&self) -> (usize, usize, usize) {
        let mut c = (0, 0, 0);
        for s in &self.sites {
            match s.class {
                PopularityClass::Low => c.0 += 1,
                PopularityClass::Medium => c.1 += 1,
                PopularityClass::High => c.2 += 1,
            }
        }
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SizeModel;

    #[test]
    fn paper_default_counts() {
        let cat = SiteCatalog::generate(&WorkloadConfig::paper_default(), 1);
        assert_eq!(cat.m(), 200);
        assert_eq!(cat.class_counts(), (50, 100, 50));
        for s in &cat.sites {
            assert_eq!(s.object_sizes.len(), 1000);
        }
    }

    #[test]
    fn class_weights_drive_request_volume() {
        let cat = SiteCatalog::generate(&WorkloadConfig::small(), 2);
        let low = cat
            .sites
            .iter()
            .find(|s| s.class == PopularityClass::Low)
            .unwrap();
        let high = cat
            .sites
            .iter()
            .find(|s| s.class == PopularityClass::High)
            .unwrap();
        assert_eq!(high.total_requests, 16 * low.total_requests);
    }

    #[test]
    fn sizes_respect_floor() {
        let mut cfg = WorkloadConfig::small();
        cfg.size_model.min_bytes = 5000;
        let cat = SiteCatalog::generate(&cfg, 3);
        for s in &cat.sites {
            assert!(s.object_sizes.iter().all(|&b| b >= 5000));
        }
    }

    #[test]
    fn constant_size_model_is_constant() {
        let mut cfg = WorkloadConfig::small();
        cfg.size_model = SizeModel::constant(4096);
        let cat = SiteCatalog::generate(&cfg, 4);
        for s in &cat.sites {
            assert!(s.object_sizes.iter().all(|&b| b == 4096));
            assert_eq!(s.total_bytes, 4096 * cfg.objects_per_site as u64);
        }
        assert!((cat.mean_request_bytes() - 4096.0).abs() < 1e-6);
    }

    #[test]
    fn total_bytes_is_sum_of_sites() {
        let cat = SiteCatalog::generate(&WorkloadConfig::small(), 5);
        let sum: u64 = cat.sites.iter().map(|s| s.total_bytes).sum();
        assert_eq!(cat.total_bytes(), sum);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let cfg = WorkloadConfig::small();
        let a = SiteCatalog::generate(&cfg, 9);
        let b = SiteCatalog::generate(&cfg, 9);
        for (sa, sb) in a.sites.iter().zip(&b.sites) {
            assert_eq!(sa.object_sizes, sb.object_sizes);
            assert_eq!(sa.class, sb.class);
        }
    }

    #[test]
    fn different_seeds_differ() {
        let cfg = WorkloadConfig::small();
        let a = SiteCatalog::generate(&cfg, 1);
        let b = SiteCatalog::generate(&cfg, 2);
        assert_ne!(a.sites[0].object_sizes, b.sites[0].object_sizes);
    }

    #[test]
    fn mean_request_bytes_weighted_toward_popular_objects() {
        // Make object sizes increase with rank: the request-weighted mean
        // must fall below the unweighted mean because Zipf favours low ranks.
        let mut cfg = WorkloadConfig::small();
        cfg.size_model = SizeModel::constant(1000);
        let mut cat = SiteCatalog::generate(&cfg, 6);
        for s in &mut cat.sites {
            for (k, b) in s.object_sizes.iter_mut().enumerate() {
                *b = 1000 + 100 * k as u64;
            }
            s.total_bytes = s.object_sizes.iter().sum();
        }
        let unweighted: f64 = cat.sites[0]
            .object_sizes
            .iter()
            .map(|&b| b as f64)
            .sum::<f64>()
            / cfg.objects_per_site as f64;
        assert!(cat.mean_request_bytes() < unweighted);
    }
}
