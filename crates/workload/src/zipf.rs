//! The Zipf-like popularity law `P(rank k) = α / k^θ`.
//!
//! Both the workload generator (drawing objects inside a site) and the
//! analytical LRU model (which needs the pmf, the normalisation constant α,
//! and prefix masses) consume this type, so it precomputes the full CDF once
//! and shares it. The guide table that makes a draw O(1) is built on the
//! first draw, so the model, which never draws, never builds one.

use crate::dist::InverseCdf;
use rand::Rng;
use std::sync::{Arc, OnceLock};

/// A Zipf-like distribution over ranks `1..=n`.
///
/// ```
/// use cdn_workload::ZipfLike;
/// let z = ZipfLike::new(100, 1.0);
/// assert!(z.pmf(1) > z.pmf(2));                  // rank 1 is hottest
/// assert!((z.prefix_mass(100) - 1.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone)]
pub struct ZipfLike {
    n: usize,
    theta: f64,
    /// Normalisation constant α = 1 / Σ_{k=1..n} k^{-θ}.
    alpha: f64,
    /// cdf[k-1] = P(rank <= k); cdf[n-1] == 1 (up to rounding, forced).
    cdf: Arc<[f64]>,
    /// pmf[k-1] = P(rank == k), precomputed — the hit-ratio model iterates
    /// the full pmf millions of times and must not pay a powf per rank.
    pmf: Arc<[f64]>,
    /// The sampler over `cdf`, built on the first draw.
    sampler: OnceLock<InverseCdf>,
}

impl ZipfLike {
    /// Build the distribution. `O(n)` time and space.
    ///
    /// # Panics
    /// Panics if `n == 0`, or if `theta` is negative or not finite.
    pub fn new(n: usize, theta: f64) -> Self {
        assert!(n > 0, "Zipf needs at least one rank");
        assert!(theta >= 0.0 && theta.is_finite(), "invalid theta {theta}");
        let mut cdf = Vec::with_capacity(n);
        let mut pmf = Vec::with_capacity(n);
        let mut acc = 0.0f64;
        for k in 1..=n {
            let w = (k as f64).powf(-theta);
            pmf.push(w);
            acc += w;
            cdf.push(acc);
        }
        let total = acc;
        let alpha = 1.0 / total;
        for v in &mut cdf {
            *v /= total;
        }
        for v in &mut pmf {
            *v /= total;
        }
        // Guarantee the last entry is exactly 1 so sampling never falls off.
        *cdf.last_mut().expect("n > 0") = 1.0;
        Self {
            n,
            theta,
            alpha,
            cdf: cdf.into(),
            pmf: pmf.into(),
            sampler: OnceLock::new(),
        }
    }

    /// Number of ranks.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The exponent θ.
    pub fn theta(&self) -> f64 {
        self.theta
    }

    /// Normalisation constant α.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Probability of rank `k` (1-based).
    ///
    /// # Panics
    /// Panics if `k` is 0 or exceeds `n`.
    pub fn pmf(&self, k: usize) -> f64 {
        assert!((1..=self.n).contains(&k), "rank {k} out of 1..={}", self.n);
        self.pmf[k - 1]
    }

    /// The full pmf as a slice, `pmf_slice()[k-1] == pmf(k)` — for hot loops
    /// that iterate every rank.
    pub fn pmf_slice(&self) -> &[f64] {
        &self.pmf
    }

    /// Cumulative mass of the top `k` ranks, `P(rank <= k)`. `k = 0` gives 0;
    /// `k >= n` gives 1.
    pub fn prefix_mass(&self, k: usize) -> f64 {
        if k == 0 {
            0.0
        } else {
            self.cdf[k.min(self.n) - 1]
        }
    }

    /// The inverse-CDF sampler over the ranks (0-based indices), with one
    /// guide slot per rank rounded up to a power of two (32 KB at n = 5000).
    /// Built on the first call, `O(n)`, and shared by clones made after it.
    pub(crate) fn sampler(&self) -> &InverseCdf {
        self.sampler
            .get_or_init(|| InverseCdf::new(Arc::clone(&self.cdf)))
    }

    /// Draw a rank (1-based) by a guided inverse-CDF lookup: O(1) expected,
    /// and the same rank, for the same uniform, as a binary search of the
    /// CDF ([`InverseCdf`]).
    pub fn sample<R: Rng>(&self, rng: &mut R) -> usize {
        self.sampler().sample(rng) + 1
    }

    /// Expected value of `f(k)` weighted by the pmf — a convenience for the
    /// request-weighted mean object size.
    pub fn expectation(&self, mut f: impl FnMut(usize) -> f64) -> f64 {
        (1..=self.n).map(|k| self.pmf(k) * f(k)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn pmf_sums_to_one() {
        for theta in [0.0, 0.6, 1.0, 1.4] {
            let z = ZipfLike::new(500, theta);
            let sum: f64 = (1..=500).map(|k| z.pmf(k)).sum();
            assert!((sum - 1.0).abs() < 1e-12, "theta {theta}: sum {sum}");
        }
    }

    #[test]
    fn theta_zero_is_uniform() {
        let z = ZipfLike::new(10, 0.0);
        for k in 1..=10 {
            assert!((z.pmf(k) - 0.1).abs() < 1e-12);
        }
    }

    #[test]
    fn pmf_is_decreasing_in_rank() {
        let z = ZipfLike::new(100, 0.8);
        for k in 1..100 {
            assert!(z.pmf(k) > z.pmf(k + 1));
        }
    }

    #[test]
    fn prefix_mass_boundaries() {
        let z = ZipfLike::new(50, 1.0);
        assert_eq!(z.prefix_mass(0), 0.0);
        assert_eq!(z.prefix_mass(50), 1.0);
        assert_eq!(z.prefix_mass(999), 1.0);
        assert!((z.prefix_mass(1) - z.pmf(1)).abs() < 1e-12);
    }

    #[test]
    fn prefix_mass_monotone() {
        let z = ZipfLike::new(200, 1.0);
        for k in 0..200 {
            assert!(z.prefix_mass(k) <= z.prefix_mass(k + 1) + 1e-15);
        }
    }

    #[test]
    fn single_rank_always_samples_one() {
        let z = ZipfLike::new(1, 1.0);
        let mut rng = StdRng::seed_from_u64(0);
        for _ in 0..100 {
            assert_eq!(z.sample(&mut rng), 1);
        }
        assert_eq!(z.pmf(1), 1.0);
    }

    #[test]
    fn sampling_matches_pmf() {
        let z = ZipfLike::new(20, 1.0);
        let mut rng = StdRng::seed_from_u64(42);
        let n_samples = 400_000usize;
        let mut counts = [0usize; 21];
        for _ in 0..n_samples {
            counts[z.sample(&mut rng)] += 1;
        }
        for (k, &count) in counts.iter().enumerate().skip(1) {
            let empirical = count as f64 / n_samples as f64;
            let expected = z.pmf(k);
            assert!(
                (empirical - expected).abs() < 0.004,
                "rank {k}: {empirical} vs {expected}"
            );
        }
    }

    #[test]
    fn seeded_draws_equal_a_binary_search_sampler() {
        for (n, theta) in [(1, 1.0), (7, 0.0), (1000, 0.8), (1000, 1.0), (5000, 1.4)] {
            let z = ZipfLike::new(n, theta);
            let cdf: Vec<f64> = (1..=n).map(|k| z.prefix_mass(k)).collect();
            let mut guided = StdRng::seed_from_u64(n as u64);
            let mut reference = StdRng::seed_from_u64(n as u64);
            for _ in 0..20_000 {
                let u: f64 = reference.gen();
                assert_eq!(z.sample(&mut guided), cdf.partition_point(|&c| c < u) + 1);
            }
        }
    }

    #[test]
    fn the_guide_is_built_on_the_first_draw_only() {
        let z = ZipfLike::new(100, 1.0);
        assert!(z.sampler.get().is_none(), "no draw, no guide");
        z.sample(&mut StdRng::seed_from_u64(0));
        assert!(z.sampler.get().is_some());
    }

    #[test]
    fn higher_theta_concentrates_mass() {
        let low = ZipfLike::new(1000, 0.6);
        let high = ZipfLike::new(1000, 1.2);
        assert!(high.prefix_mass(10) > low.prefix_mass(10));
    }

    #[test]
    fn expectation_of_constant_is_constant() {
        let z = ZipfLike::new(37, 0.9);
        assert!((z.expectation(|_| 3.5) - 3.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic]
    fn zero_ranks_panics() {
        ZipfLike::new(0, 1.0);
    }

    #[test]
    #[should_panic]
    fn pmf_rank_zero_panics() {
        ZipfLike::new(5, 1.0).pmf(0);
    }
}
