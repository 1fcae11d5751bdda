//! Hand-rolled distributions on top of `rand`.
//!
//! The approved dependency set does not include `rand_distr`, and the three
//! continuous distributions the workload needs (normal, lognormal, bounded
//! Pareto) are a few lines each, so they live here with their own tests,
//! next to the one discrete sampler every request draw goes through
//! ([`InverseCdf`]).

use rand::Rng;
use std::sync::Arc;

/// Inverse-CDF draws from a discrete distribution in O(1) expected time,
/// through a guide table over the CDF (Chen & Asau's indexed search).
///
/// With `G` slots, the entry count rounded up to a power of two, `guide[b]`
/// counts the CDF entries below `b / G`. A draw `u ∈ [0, 1)` takes
/// `b = ⌊u·G⌋`, which is exact because scaling by a power of two only moves
/// the exponent, and scans forward from `guide[b]` while `cdf[i] < u`.
/// Every entry the guide skips is below
/// `b / G ≤ u`, so for any non-decreasing CDF ending at 1.0 the scan stops
/// at exactly `cdf.partition_point(|&c| c < u)`, the index a binary search
/// finds. A draw costs at most `1 + n / G ≤ 2` comparisons on average.
///
/// The CDF is shared, so tables over one CDF (each stream's site draw
/// over its server's row) cost only their guide, and clones share both.
#[derive(Debug, Clone)]
pub struct InverseCdf {
    cdf: Arc<[f64]>,
    guide: Arc<[u32]>,
}

impl InverseCdf {
    /// Guide `cdf` with one slot per entry, rounded up to a power of two.
    /// `O(n)`.
    ///
    /// # Panics
    /// Panics unless `cdf` is non-decreasing and ends at exactly 1.0, or if
    /// it has more than 2^32 entries.
    pub fn new(cdf: Arc<[f64]>) -> Self {
        assert_eq!(cdf.last(), Some(&1.0), "a CDF must end at 1.0");
        assert!(
            u32::try_from(cdf.len() - 1).is_ok(),
            "a guide indexes at most 2^32 entries"
        );
        assert!(
            cdf.windows(2).all(|w| w[0] <= w[1]),
            "a CDF must be non-decreasing"
        );
        let g = cdf.len().next_power_of_two();
        let mut below = 0;
        let guide = (0..g)
            .map(|b| {
                // Exact: b < g ≤ 2^53, and g is a power of two.
                let edge = b as f64 / g as f64;
                // Stops at the last entry, 1.0 > edge.
                while cdf[below] < edge {
                    below += 1;
                }
                below as u32
            })
            .collect();
        Self { cdf, guide }
    }

    /// The index `partition_point(|&c| c < u)` of `u ∈ [0, 1)`: the first
    /// entry at or above `u`.
    ///
    /// # Panics
    /// Panics if `u ≥ 1`.
    #[inline]
    pub fn index(&self, u: f64) -> usize {
        let mut i = self.guide[(u * self.guide.len() as f64) as usize] as usize;
        while self.cdf[i] < u {
            i += 1;
        }
        i
    }

    /// Draw an index: one uniform `f64` from `rng`, looked up by
    /// [`Self::index`].
    #[inline]
    pub fn sample<R: Rng>(&self, rng: &mut R) -> usize {
        self.index(rng.gen())
    }
}

/// Standard normal via the Box–Muller transform. Draws two uniforms per
/// sample; the spare is intentionally discarded to keep the sampler
/// stateless (the streams here are not hot enough to care).
pub fn standard_normal<R: Rng>(rng: &mut R) -> f64 {
    // Guard against ln(0).
    let u1: f64 = loop {
        let u: f64 = rng.gen();
        if u > f64::MIN_POSITIVE {
            break u;
        }
    };
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Normal distribution N(mu, sigma^2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Normal {
    pub mu: f64,
    pub sigma: f64,
}

impl Normal {
    /// # Panics
    /// Panics if `sigma` is negative or not finite.
    pub fn new(mu: f64, sigma: f64) -> Self {
        assert!(sigma >= 0.0 && sigma.is_finite(), "invalid sigma {sigma}");
        Self { mu, sigma }
    }

    pub fn sample<R: Rng>(&self, rng: &mut R) -> f64 {
        self.mu + self.sigma * standard_normal(rng)
    }
}

/// Normal truncated to `[lo, hi]` by rejection. The paper draws per-server
/// site popularity from N(1/N, 1/4N) "limited to the interval µ ± 3σ";
/// rejection is exact and cheap at that width (>99.7% acceptance).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TruncatedNormal {
    normal: Normal,
    lo: f64,
    hi: f64,
}

impl TruncatedNormal {
    /// # Panics
    /// Panics if `lo > hi`.
    pub fn new(mu: f64, sigma: f64, lo: f64, hi: f64) -> Self {
        assert!(lo <= hi, "empty truncation interval [{lo}, {hi}]");
        Self {
            normal: Normal::new(mu, sigma),
            lo,
            hi,
        }
    }

    /// The paper's site-demand distribution: µ = 1/n, σ = 1/(4n), truncated
    /// to µ ± 3σ.
    pub fn paper_site_demand(n_servers: usize) -> Self {
        let mu = 1.0 / n_servers as f64;
        let sigma = 1.0 / (4.0 * n_servers as f64);
        Self::new(mu, sigma, mu - 3.0 * sigma, mu + 3.0 * sigma)
    }

    pub fn sample<R: Rng>(&self, rng: &mut R) -> f64 {
        if self.normal.sigma == 0.0 {
            return self.normal.mu.clamp(self.lo, self.hi);
        }
        loop {
            let x = self.normal.sample(rng);
            if x >= self.lo && x <= self.hi {
                return x;
            }
        }
    }
}

/// Lognormal: exp(N(mu, sigma^2)). SURGE models the "body" of web object
/// sizes this way.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogNormal {
    normal: Normal,
}

impl LogNormal {
    pub fn new(mu: f64, sigma: f64) -> Self {
        Self {
            normal: Normal::new(mu, sigma),
        }
    }

    pub fn sample<R: Rng>(&self, rng: &mut R) -> f64 {
        self.normal.sample(rng).exp()
    }

    /// Analytical mean `exp(mu + sigma^2 / 2)`.
    pub fn mean(&self) -> f64 {
        (self.normal.mu + self.normal.sigma * self.normal.sigma / 2.0).exp()
    }
}

/// Pareto truncated to `[lo, hi]`, sampled by inverse CDF. SURGE models the
/// tail of web object sizes as Pareto with α ≈ 1.1; we bound it so a single
/// object cannot dwarf a whole site.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoundedPareto {
    pub alpha: f64,
    pub lo: f64,
    pub hi: f64,
}

impl BoundedPareto {
    /// # Panics
    /// Panics unless `0 < lo < hi` and `alpha > 0`.
    pub fn new(alpha: f64, lo: f64, hi: f64) -> Self {
        assert!(alpha > 0.0, "alpha must be positive");
        assert!(0.0 < lo && lo < hi, "need 0 < lo < hi, got [{lo}, {hi}]");
        Self { alpha, lo, hi }
    }

    pub fn sample<R: Rng>(&self, rng: &mut R) -> f64 {
        let u: f64 = rng.gen();
        let la = self.lo.powf(self.alpha);
        let ha = self.hi.powf(self.alpha);
        // Inverse CDF of the bounded Pareto.
        (-(u * ha - u * la - ha) / (ha * la)).powf(-1.0 / self.alpha)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn mean_of(samples: impl Iterator<Item = f64>) -> (f64, usize) {
        let v: Vec<f64> = samples.collect();
        (v.iter().sum::<f64>() / v.len() as f64, v.len())
    }

    #[test]
    fn standard_normal_moments() {
        let mut rng = StdRng::seed_from_u64(1);
        let n = 200_000;
        let samples: Vec<f64> = (0..n).map(|_| standard_normal(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.01, "mean {mean}");
        assert!((var - 1.0).abs() < 0.02, "var {var}");
    }

    #[test]
    fn normal_shift_and_scale() {
        let mut rng = StdRng::seed_from_u64(2);
        let d = Normal::new(10.0, 2.0);
        let (mean, _) = mean_of((0..100_000).map(|_| d.sample(&mut rng)));
        assert!((mean - 10.0).abs() < 0.05);
    }

    #[test]
    fn truncated_normal_respects_bounds() {
        let mut rng = StdRng::seed_from_u64(3);
        let d = TruncatedNormal::new(0.0, 1.0, -0.5, 0.5);
        for _ in 0..10_000 {
            let x = d.sample(&mut rng);
            assert!((-0.5..=0.5).contains(&x));
        }
    }

    #[test]
    fn truncated_normal_zero_sigma_returns_mu() {
        let mut rng = StdRng::seed_from_u64(4);
        let d = TruncatedNormal::new(0.3, 0.0, 0.0, 1.0);
        assert_eq!(d.sample(&mut rng), 0.3);
    }

    #[test]
    fn paper_site_demand_matches_spec() {
        let d = TruncatedNormal::paper_site_demand(50);
        let mu = 1.0 / 50.0;
        let sigma = 1.0 / 200.0;
        assert!((d.lo - (mu - 3.0 * sigma)).abs() < 1e-15);
        assert!((d.hi - (mu + 3.0 * sigma)).abs() < 1e-15);
        let mut rng = StdRng::seed_from_u64(5);
        let (mean, _) = mean_of((0..50_000).map(|_| d.sample(&mut rng)));
        assert!((mean - mu).abs() < 0.001);
    }

    #[test]
    fn lognormal_mean_matches_analytic() {
        let mut rng = StdRng::seed_from_u64(6);
        let d = LogNormal::new(2.0, 0.5);
        let (mean, _) = mean_of((0..200_000).map(|_| d.sample(&mut rng)));
        assert!(
            (mean - d.mean()).abs() / d.mean() < 0.02,
            "mean {mean} vs analytic {}",
            d.mean()
        );
    }

    #[test]
    fn bounded_pareto_respects_bounds() {
        let mut rng = StdRng::seed_from_u64(7);
        let d = BoundedPareto::new(1.1, 100.0, 1_000_000.0);
        for _ in 0..10_000 {
            let x = d.sample(&mut rng);
            assert!((100.0..=1_000_000.0).contains(&x), "x = {x}");
        }
    }

    #[test]
    fn bounded_pareto_is_heavy_tailed() {
        // Median should sit near the low bound while the mean is much larger.
        let mut rng = StdRng::seed_from_u64(8);
        let d = BoundedPareto::new(1.1, 100.0, 1e8);
        let mut v: Vec<f64> = (0..100_000).map(|_| d.sample(&mut rng)).collect();
        v.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = v[v.len() / 2];
        let mean = v.iter().sum::<f64>() / v.len() as f64;
        assert!(median < 250.0, "median {median}");
        // Theoretical ratio is ~4.4 but the sample mean of an alpha = 1.1
        // tail has huge variance even at n = 100k; 3.5x still cleanly
        // separates heavy tails (an exponential with this median gives ~1.4x).
        assert!(mean > 3.5 * median, "mean {mean}, median {median}");
    }

    #[test]
    #[should_panic]
    fn pareto_invalid_bounds_panic() {
        BoundedPareto::new(1.0, 10.0, 10.0);
    }

    #[test]
    #[should_panic]
    fn truncated_normal_empty_interval_panics() {
        TruncatedNormal::new(0.0, 1.0, 1.0, -1.0);
    }

    mod inverse_cdf {
        use super::*;
        use crate::ZipfLike;
        use proptest::prelude::*;

        /// A demand row's CDF, built as `TraceSpec` builds one: running
        /// sums over the total, the last entry forced to 1.0, and an
        /// all-1.0 row for a server with no demand.
        fn cdf_of(weights: &[u32]) -> Vec<f64> {
            let total: u64 = weights.iter().map(|&w| u64::from(w)).sum();
            let mut acc = 0u64;
            let mut cdf: Vec<f64> = weights
                .iter()
                .map(|&w| {
                    acc += u64::from(w);
                    if total > 0 {
                        acc as f64 / total as f64
                    } else {
                        1.0
                    }
                })
                .collect();
            *cdf.last_mut().unwrap() = 1.0;
            cdf
        }

        /// The largest uniform the RNG can draw, 1 − 2⁻⁵³.
        const MAX_U: f64 = 1.0 - f64::EPSILON / 2.0;

        /// Every probe that can sit on a boundary: 0, the largest draw,
        /// each entry below 1, and the float just below each positive
        /// entry.
        fn probes(cdf: &[f64]) -> Vec<f64> {
            let mut u = vec![0.0, MAX_U];
            for &c in cdf {
                if c < 1.0 {
                    u.push(c);
                }
                if c > 0.0 {
                    u.push(f64::from_bits(c.to_bits() - 1));
                }
            }
            u
        }

        fn assert_matches_binary_search(cdf: &[f64], extra: &[f64]) {
            let table = InverseCdf::new(cdf.to_vec().into());
            for &u in probes(cdf).iter().chain(extra) {
                assert_eq!(
                    table.index(u),
                    cdf.partition_point(|&c| c < u),
                    "u = {u:e}, cdf {cdf:?}"
                );
            }
        }

        proptest! {
            /// Random rows with repeated entries (zero-demand sites), at
            /// lengths both on and between powers of two.
            #[test]
            fn guided_lookup_equals_partition_point(
                weights in proptest::collection::vec(0u32..4, 1..80),
                draws in proptest::collection::vec(any::<u64>(), 0..64),
            ) {
                let cdf = cdf_of(&weights);
                let u: Vec<f64> = draws.iter().map(|&x| (x >> 11) as f64 / (1u64 << 53) as f64).collect();
                assert_matches_binary_search(&cdf, &u);
            }
        }

        #[test]
        fn edge_rows_equal_partition_point() {
            // A server with no demand, a single site, a single hot site.
            for weights in [&[0, 0, 0][..], &[5], &[0, 0, 7, 0]] {
                assert_matches_binary_search(&cdf_of(weights), &[]);
            }
            // The Zipf law's own CDF, θ = 0 (uniform) included.
            for (n, theta) in [(1, 1.0), (10, 0.0), (1000, 0.0), (1000, 0.8), (5000, 1.4)] {
                let z = ZipfLike::new(n, theta);
                let cdf: Vec<f64> = (1..=n).map(|k| z.prefix_mass(k)).collect();
                assert_matches_binary_search(&cdf, &[]);
            }
        }

        #[test]
        #[should_panic(expected = "a CDF must end at 1.0")]
        fn a_cdf_short_of_one_is_rejected() {
            InverseCdf::new(vec![0.5, 0.9].into());
        }

        #[test]
        #[should_panic(expected = "a CDF must be non-decreasing")]
        fn a_decreasing_cdf_is_rejected() {
            InverseCdf::new(vec![0.5, 0.4, 1.0].into());
        }
    }
}
