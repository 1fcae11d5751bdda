//! Equations (1) and (2) of the paper.

use cdn_telemetry as telemetry;
use cdn_workload::ZipfLike;
use std::collections::BinaryHeap;
use std::sync::{Arc, OnceLock};

/// Cached registry handles for the Eq. (1) hot loop. Handles survive
/// `telemetry::reset_metrics()` (values are zeroed in place), so caching
/// them once per process is safe and keeps the instrumented path at one
/// relaxed atomic add per evaluation.
struct SeriesCounters {
    terms: Arc<telemetry::Counter>,
    cutoffs: Arc<telemetry::Counter>,
    evals: Arc<telemetry::Counter>,
}

fn series_counters() -> &'static SeriesCounters {
    static COUNTERS: OnceLock<SeriesCounters> = OnceLock::new();
    COUNTERS.get_or_init(|| {
        let reg = telemetry::registry();
        SeriesCounters {
            terms: reg.counter("lru_model.series_terms"),
            cutoffs: reg.counter("lru_model.tail_cutoffs"),
            evals: reg.counter("lru_model.evaluations"),
        }
    })
}

/// The work of one Eq. (1) query, in the units of the `lru_model.*`
/// counters. A degenerate query (`K ≤ 0` or `p ≤ 0`) sums no series and
/// does no work.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct SeriesWork {
    evaluations: u64,
    terms: u64,
    cutoffs: u64,
}

impl SeriesWork {
    /// Flush into the registry as commutative atomic adds: totals are exact
    /// for any thread schedule.
    pub(crate) fn account(self) {
        if self.evaluations > 0 && telemetry::enabled() {
            let c = series_counters();
            c.evals.add(self.evaluations);
            c.terms.add(self.terms);
            c.cutoffs.add(self.cutoffs);
        }
    }
}

/// `1 − (1 − p)^K` for `p ∈ [0, 1]`, `K > 0`, evaluated as
/// `−expm1(K·ln_1p(−p))`: one log/exp pair instead of `powf`, and
/// better-conditioned where the Zipf tail lives (`p → 0` would round
/// inside the naive `1 − p`). The endpoints fall out exactly: `p = 0`
/// gives 0 and `p = 1` gives `−expm1(−∞) = 1`.
#[inline]
fn residency(p: f64, k: f64) -> f64 {
    -(k * (-p).ln_1p()).exp_m1()
}

/// The analytical LRU model for one population of sites that all share a
/// Zipf(θ) internal object popularity over `L` objects — the paper's setup.
///
/// ```
/// use cdn_lru_model::LruModel;
/// let model = LruModel::new(500, 1.0);
/// // A 100-object buffer whose front is filled by objects carrying 60% of
/// // the traffic survives untouched objects for K requests:
/// let k = model.eviction_horizon(100, 0.6);
/// assert!(k > 100.0);
/// // A site receiving 10% of this server's requests then hits at:
/// let h = model.site_hit_ratio(0.10, k);
/// assert!(h > 0.0 && h < 1.0);
/// ```
#[derive(Debug, Clone)]
pub struct LruModel {
    zipf: ZipfLike,
}

impl LruModel {
    /// Build the model for sites of `l` objects with Zipf exponent `theta`.
    pub fn new(l: usize, theta: f64) -> Self {
        Self {
            zipf: ZipfLike::new(l, theta),
        }
    }

    /// Build from an existing popularity law (shared with the workload).
    pub fn from_zipf(zipf: ZipfLike) -> Self {
        Self { zipf }
    }

    /// The object-popularity law the model assumes.
    pub fn zipf(&self) -> &ZipfLike {
        &self.zipf
    }

    /// Equation (2): the expected number of request slots an object that is
    /// never requested survives before eviction, for a buffer of `b`
    /// objects whose ahead-of-us occupants carry total popularity `p_b`.
    ///
    /// `K = Σ_{i=1..B} 1 / (1 − (i−1)·p_B/(B−1))`
    ///
    /// Degenerate cases: `b == 0` gives 0 (nothing fits), `b == 1` gives 1
    /// (evicted by the next distinct request).
    pub fn eviction_horizon(&self, b: usize, p_b: f64) -> f64 {
        if b == 0 {
            return 0.0;
        }
        if b == 1 {
            return 1.0;
        }
        // Clamp: p_B is a probability mass; a value of exactly 1 would make
        // the final term infinite (the buffer never drains), which the
        // bounded sum below avoids by capping each denominator.
        let p_b = p_b.clamp(0.0, 1.0);
        let q = p_b / (b as f64 - 1.0);
        let mut k = 0.0f64;
        for i in 0..b {
            let denom = (1.0 - i as f64 * q).max(1e-9);
            k += 1.0 / denom;
        }
        k
    }

    /// Closed-form approximation of [`Self::eviction_horizon`]: the sum
    /// `Σ_{i=0..B-1} 1/(1 − i·q)` is replaced by its Euler–Maclaurin
    /// expansion (integral + boundary + first derivative correction).
    /// Relative error is under 0.1% for every tested (B, p_B) with
    /// B > 4096 (smaller buffers use the exact O(B) sum, which is cheap
    /// there). The planner's inner loop needs this: the exact sum is O(B)
    /// per candidate with B in the tens of thousands.
    pub fn eviction_horizon_approx(&self, b: usize, p_b: f64) -> f64 {
        if b <= 4096 {
            return self.eviction_horizon(b, p_b);
        }
        let p_b = p_b.clamp(0.0, 1.0);
        if p_b == 0.0 {
            return b as f64;
        }
        if p_b >= 0.9999 {
            // Too close to the singularity for the smooth expansion.
            return self.eviction_horizon(b, p_b);
        }
        // Euler–Maclaurin for Σ_{i=0..N} f(i), f(x) = 1/(1 − qx), N = B−1:
        //   ∫_0^N f + (f(0) + f(N))/2 + (f'(N) − f'(0))/12
        let n = b as f64 - 1.0;
        let q = p_b / n;
        let tail = 1.0 / (1.0 - p_b);
        let integral = (1.0 / (1.0 - p_b)).ln() / q;
        let corr1 = (1.0 + tail) / 2.0;
        let corr2 = (q * tail * tail - q) / 12.0;
        integral + corr1 + corr2
    }

    /// Cumulative popularity of the `b` most popular objects across sites
    /// with the given popularities (`p_B` in the paper). Exact k-way merge
    /// of the per-site Zipf sequences, O(b log n_sites).
    ///
    /// Returns 1.0 when `b` covers every object.
    pub fn top_b_mass(&self, site_pops: &[f64], b: usize) -> f64 {
        let l = self.zipf.n();
        let total_objects = site_pops.len() * l;
        if b >= total_objects {
            return site_pops.iter().sum::<f64>().min(1.0);
        }
        if b == 0 || site_pops.is_empty() {
            return 0.0;
        }
        // Heap of (popularity, site, next-rank); pop b times.
        // f64 is not Ord, so order on a sortable u64 transmutation of the
        // (non-negative, finite) popularity.
        #[inline]
        fn ord_key(x: f64) -> u64 {
            debug_assert!(x >= 0.0 && x.is_finite());
            x.to_bits()
        }
        let mut heap: BinaryHeap<(u64, usize, usize)> = site_pops
            .iter()
            .enumerate()
            .filter(|(_, &p)| p > 0.0)
            .map(|(s, &p)| (ord_key(p * self.zipf.pmf(1)), s, 1))
            .collect();
        let mut mass = 0.0;
        for _ in 0..b {
            let Some((key, site, rank)) = heap.pop() else {
                break;
            };
            mass += f64::from_bits(key);
            if rank < l {
                heap.push((
                    ord_key(site_pops[site] * self.zipf.pmf(rank + 1)),
                    site,
                    rank + 1,
                ));
            }
        }
        mass.min(1.0)
    }

    /// Equation (1): the hit ratio a site with popularity `p_site` (at this
    /// server) achieves, given eviction horizon `k`:
    ///
    /// `h = Σ_{rank=1..L} [1 − (1 − p_site·α/rank^θ)^K] · α/rank^θ`
    pub fn site_hit_ratio(&self, p_site: f64, k: f64) -> f64 {
        let (h, work) = self.evaluate(p_site, k);
        work.account();
        h
    }

    /// [`Self::site_hit_ratio`] with its series work returned instead of
    /// accounted. A memo table evaluates with no lock held and accounts
    /// only the fill whose insert wins, so the counters count each cell
    /// once whatever the thread schedule.
    pub(crate) fn evaluate(&self, p_site: f64, k: f64) -> (f64, SeriesWork) {
        let mut work = SeriesWork::default();
        if k <= 0.0 || p_site <= 0.0 {
            return (0.0, work);
        }
        work.evaluations = 1;
        let mut h = 0.0;
        // Hot loop (memo-table fills): iterate the precomputed pmf directly,
        // with `residency` replacing the old per-entry `powf`.
        for &pmf in self.zipf.pmf_slice() {
            let p = (p_site * pmf).clamp(0.0, 1.0);
            // Tail cut-off. The pmf is non-increasing, so from here on every
            // term obeys 1 − (1−p)^K ≤ K·p/(1−p) ≤ 2·K·p (valid for any
            // K > 0 once p < ½), and the whole remaining tail sums to at
            // most Σ 2K·p_site·pmf² ≤ 2K·p_site·pmf·Σpmf ≤ 2K·p_site·pmf
            // < 1e-14 — two orders inside the 1e-12 accuracy the regression
            // test asserts against the naive sum.
            if p < 0.5 && 2.0 * k * p < 1e-14 {
                work.cutoffs = 1;
                break;
            }
            work.terms += 1;
            h += residency(p, k) * pmf;
        }
        (h.min(1.0), work)
    }

    /// Buffer size in objects for `cache_bytes` of space and mean request
    /// size `mean_request_bytes` — the paper's `B ≈ c / ō`.
    pub fn buffer_objects(&self, cache_bytes: u64, mean_request_bytes: f64) -> usize {
        if mean_request_bytes <= 0.0 {
            return 0;
        }
        (cache_bytes as f64 / mean_request_bytes).floor() as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> LruModel {
        LruModel::new(100, 1.0)
    }

    #[test]
    fn horizon_degenerate_cases() {
        let m = model();
        assert_eq!(m.eviction_horizon(0, 0.5), 0.0);
        assert_eq!(m.eviction_horizon(1, 0.5), 1.0);
    }

    #[test]
    fn horizon_at_least_buffer_size() {
        // Each term of Eq. (2) is >= 1, so K >= B.
        let m = model();
        for b in [2usize, 10, 100, 1000] {
            for p in [0.0, 0.3, 0.9] {
                assert!(m.eviction_horizon(b, p) >= b as f64, "b={b} p={p}");
            }
        }
    }

    #[test]
    fn horizon_zero_mass_equals_buffer_size() {
        // With p_B = 0 every term is exactly 1: K = B.
        let m = model();
        assert!((m.eviction_horizon(50, 0.0) - 50.0).abs() < 1e-9);
    }

    #[test]
    fn horizon_increases_with_popular_front() {
        let m = model();
        let k_low = m.eviction_horizon(100, 0.2);
        let k_high = m.eviction_horizon(100, 0.9);
        assert!(k_high > k_low);
    }

    #[test]
    fn horizon_monotone_in_buffer_size() {
        let m = model();
        let mut prev = 0.0;
        for b in [1usize, 2, 8, 64, 512] {
            let k = m.eviction_horizon(b, 0.7);
            assert!(k > prev);
            prev = k;
        }
    }

    #[test]
    fn horizon_survives_full_mass() {
        let m = model();
        let k = m.eviction_horizon(10, 1.0);
        assert!(k.is_finite() && k > 10.0);
    }

    #[test]
    fn horizon_approx_matches_exact() {
        let m = model();
        for b in [5_000usize, 20_000, 100_000] {
            for p in [0.0, 0.1, 0.5, 0.9, 0.99, 0.999] {
                let exact = m.eviction_horizon(b, p);
                let approx = m.eviction_horizon_approx(b, p);
                let rel = (exact - approx).abs() / exact;
                assert!(rel < 1e-3, "b={b} p={p}: exact {exact} approx {approx}");
            }
        }
    }

    #[test]
    fn horizon_approx_small_b_is_exact() {
        let m = model();
        for b in 0..=4096 {
            assert_eq!(
                m.eviction_horizon_approx(b, 0.7),
                m.eviction_horizon(b, 0.7)
            );
        }
    }

    #[test]
    fn top_b_mass_boundaries() {
        let m = model();
        let pops = [0.5, 0.3, 0.2];
        assert_eq!(m.top_b_mass(&pops, 0), 0.0);
        assert!((m.top_b_mass(&pops, 300) - 1.0).abs() < 1e-9);
        assert!((m.top_b_mass(&pops, 10_000) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn top_b_mass_is_monotone_and_picks_greedily() {
        let m = model();
        let pops = [0.6, 0.4];
        let mut prev = 0.0;
        for b in 1..=200 {
            let mass = m.top_b_mass(&pops, b);
            assert!(mass >= prev - 1e-12, "b={b}");
            prev = mass;
        }
        // The single most popular object overall is rank 1 of site 0.
        let expected = 0.6 * m.zipf().pmf(1);
        assert!((m.top_b_mass(&pops, 1) - expected).abs() < 1e-12);
    }

    #[test]
    fn top_b_mass_beats_any_fixed_prefix_allocation() {
        // Greedy top-B must be >= taking B/2 from each of two equal sites.
        let m = model();
        let pops = [0.5, 0.5];
        let b = 40;
        let split = 0.5 * m.zipf().prefix_mass(20) + 0.5 * m.zipf().prefix_mass(20);
        assert!(m.top_b_mass(&pops, b) >= split - 1e-12);
    }

    #[test]
    fn top_b_mass_ignores_zero_popularity_sites() {
        let m = model();
        let with_zero = m.top_b_mass(&[0.7, 0.0, 0.3], 25);
        let without = m.top_b_mass(&[0.7, 0.3], 25);
        assert!((with_zero - without).abs() < 1e-12);
    }

    #[test]
    fn object_hit_prob_bounds() {
        // `residency` is one object's steady-state hit probability,
        // `1 − (1 − p)^K`.
        assert_eq!(residency(0.5, 0.0), 0.0);
        assert_eq!(residency(0.0, 100.0), 0.0);
        assert!((residency(1.0, 5.0) - 1.0).abs() < 1e-12);
        let p = residency(0.01, 50.0);
        assert!(p > 0.0 && p < 1.0);
    }

    #[test]
    fn site_hit_ratio_in_unit_interval_and_monotone_in_k() {
        let m = model();
        let mut prev = 0.0;
        for k in [1.0, 10.0, 100.0, 1000.0, 100_000.0] {
            let h = m.site_hit_ratio(0.05, k);
            assert!((0.0..=1.0).contains(&h));
            assert!(h >= prev);
            prev = h;
        }
    }

    #[test]
    fn site_hit_ratio_monotone_in_popularity() {
        let m = model();
        let mut prev = 0.0;
        for p in [0.001, 0.01, 0.05, 0.2, 1.0] {
            let h = m.site_hit_ratio(p, 500.0);
            assert!(h >= prev, "p={p}");
            prev = h;
        }
    }

    #[test]
    fn huge_horizon_approaches_one() {
        let m = model();
        let h = m.site_hit_ratio(1.0, 1e9);
        assert!(h > 0.999, "h = {h}");
    }

    #[test]
    fn buffer_objects_division() {
        let m = model();
        assert_eq!(m.buffer_objects(10_000, 100.0), 100);
        assert_eq!(m.buffer_objects(10_050, 100.0), 100);
        assert_eq!(m.buffer_objects(0, 100.0), 0);
        assert_eq!(m.buffer_objects(100, 0.0), 0);
    }

    #[test]
    fn site_hit_ratio_matches_naive_powf_sum() {
        // The optimised path (expm1/ln_1p + tail cut-off) must agree with
        // the literal Equation (1) powf sum to 1e-12 across the whole
        // operating envelope: Zipf skews spanning the paper's range, site
        // popularities from negligible to total, and eviction horizons
        // from one request to effectively infinite.
        fn naive(m: &LruModel, p_site: f64, k: f64) -> f64 {
            if k <= 0.0 || p_site <= 0.0 {
                return 0.0;
            }
            let mut h = 0.0;
            for &pmf in m.zipf().pmf_slice() {
                let p = (p_site * pmf).clamp(0.0, 1.0);
                h += (1.0 - (1.0 - p).powf(k)) * pmf;
            }
            h.min(1.0)
        }
        for &theta in &[0.6, 0.8, 1.0, 1.2] {
            for &l in &[50usize, 500] {
                let m = LruModel::new(l, theta);
                for &p_site in &[1e-6, 1e-4, 0.01, 0.1, 0.5, 1.0] {
                    // 1e-12 agreement is asserted up to K = 1e4. Beyond
                    // that the *naive* sum is the inaccurate side: rounding
                    // p into `1 − p` perturbs the recovered exponent by
                    // ~K·2⁻⁵⁴, which powf amplifies past 1e-12 while the
                    // ln_1p path is unaffected — so huge horizons get a
                    // tolerance matching naive's own error bound instead.
                    for &k in &[1.0, 10.0, 1e3, 1e4] {
                        let fast = m.site_hit_ratio(p_site, k);
                        let slow = naive(&m, p_site, k);
                        assert!(
                            (fast - slow).abs() < 1e-12,
                            "theta={theta} L={l} p={p_site} k={k}: {fast} vs {slow}"
                        );
                    }
                    for &k in &[1e5, 1e7] {
                        let fast = m.site_hit_ratio(p_site, k);
                        let slow = naive(&m, p_site, k);
                        assert!(
                            (fast - slow).abs() < k * 3e-16,
                            "theta={theta} L={l} p={p_site} k={k}: {fast} vs {slow}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn higher_theta_gives_higher_hit_ratio() {
        // The paper's motivation: busy-server Zipf (high θ) caches better.
        let flat = LruModel::new(1000, 0.6);
        let skewed = LruModel::new(1000, 1.2);
        let k = 500.0;
        assert!(skewed.site_hit_ratio(0.1, k) > flat.site_hit_ratio(0.1, k));
    }
}
