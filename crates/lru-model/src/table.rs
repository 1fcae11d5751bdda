//! Memoised hit-ratio evaluation on a quantised `(p, K)` grid.
//!
//! The paper achieves O(1) hit-ratio queries inside the greedy loop by
//! pre-computing `h(p, K)` "under different values of p and K", with a
//! granularity of 1e-5 in `p` and 5 slots in `K`. We keep the same grid but
//! fill it lazily (the planner only ever visits a tiny corner of it) behind
//! a read-write lock so rayon workers can share one table. The lock is never
//! held across a model evaluation.

use crate::model::LruModel;
use parking_lot::RwLock;
use std::collections::hash_map::{Entry, HashMap};

/// How the eviction horizon `K` is snapped to the grid.
#[derive(Debug, Clone, Copy)]
pub enum KQuant {
    /// Fixed-width bins of the given size — the paper's scheme ("the
    /// granularity of K was set to 5 time slots").
    Absolute(f64),
    /// Geometric bins: `K` rounds to the nearest power of `1 + step`.
    /// `h(p, K)` varies smoothly (sub-linearly) in `K`, so a 1% relative
    /// grid keeps the hit-ratio error far below the model's own ~7% while
    /// collapsing the enormous absolute range of K (10⁰..10⁷ across buffer
    /// sizes) into a few hundred cells — essential for the planner's inner
    /// loop at paper scale.
    Relative(f64),
}

/// Lazily filled lookup table over quantised `(p, K)`.
///
/// Queries round to the nearest grid point (the paper's scheme), so results
/// differ from the exact model by at most the grid-cell variation; tests
/// bound that error.
#[derive(Debug)]
pub struct HitRatioTable {
    model: LruModel,
    p_step: f64,
    k_quant: KQuant,
    cells: RwLock<HashMap<(u64, u64), f64>>,
    hits: std::sync::atomic::AtomicU64,
    fills: std::sync::atomic::AtomicU64,
}

impl HitRatioTable {
    /// The paper's granularity: p quantised to 1e-5, K to 5 request slots.
    pub const PAPER_P_STEP: f64 = 1e-5;
    pub const PAPER_K_STEP: f64 = 5.0;

    /// Build a table with the paper's granularity.
    pub fn new(model: LruModel) -> Self {
        Self::with_granularity(model, Self::PAPER_P_STEP, Self::PAPER_K_STEP)
    }

    /// Build with explicit absolute granularity.
    ///
    /// # Panics
    /// Panics unless both steps are positive and finite.
    pub fn with_granularity(model: LruModel, p_step: f64, k_step: f64) -> Self {
        assert!(k_step > 0.0 && k_step.is_finite(), "invalid k_step");
        Self::with_quantisation(model, p_step, KQuant::Absolute(k_step))
    }

    /// Build with an explicit K-quantisation mode.
    pub fn with_quantisation(model: LruModel, p_step: f64, k_quant: KQuant) -> Self {
        assert!(p_step > 0.0 && p_step.is_finite(), "invalid p_step");
        if let KQuant::Relative(s) = k_quant {
            assert!(s > 0.0 && s.is_finite(), "invalid relative k step");
        }
        Self {
            model,
            p_step,
            k_quant,
            cells: RwLock::new(HashMap::new()),
            hits: std::sync::atomic::AtomicU64::new(0),
            fills: std::sync::atomic::AtomicU64::new(0),
        }
    }

    /// The planner's configuration: paper p-granularity, 1%-relative K.
    pub fn planner_default(model: LruModel) -> Self {
        Self::with_quantisation(model, Self::PAPER_P_STEP, KQuant::Relative(0.01))
    }

    /// The underlying exact model.
    pub fn model(&self) -> &LruModel {
        &self.model
    }

    fn quantise_k(&self, k: f64) -> (u64, f64) {
        match self.k_quant {
            KQuant::Absolute(step) => {
                let ki = (k / step).round() as u64;
                (ki, ki as f64 * step)
            }
            KQuant::Relative(step) => {
                if k < 1.0 {
                    // Sub-single-slot horizons all hit nothing; one cell.
                    return (0, 0.0);
                }
                let base = (1.0 + step).ln();
                let ki = (k.ln() / base).round();
                (ki as u64 + 1, (ki * base).exp())
            }
        }
    }

    /// The K-grid cell index [`Self::site_hit_ratio`] serves horizon `k`
    /// from — a stable fingerprint of the table column a query lands in.
    /// Two horizons with equal cells receive bit-identical hit ratios for
    /// every popularity `p`.
    pub fn k_cell(&self, k: f64) -> u64 {
        self.quantise_k(k.max(0.0)).0
    }

    /// Quantised, memoised `h(p, K)`.
    ///
    /// A miss evaluates the model with no lock held, so workers filling
    /// different cells run in parallel, then inserts unless a racing worker
    /// got there first. A cell's value is a pure function of its key, so the
    /// loser's copy is bit-identical and dropped; only the winning insert
    /// counts a fill and accounts its series work. `fills` and the model's
    /// work counters thus stay a pure function of the query set, as the
    /// telemetry determinism contract requires; `hits` also counts lost
    /// races and is a lookup statistic outside that contract.
    pub fn site_hit_ratio(&self, p: f64, k: f64) -> f64 {
        use std::sync::atomic::Ordering::Relaxed;
        let pi = (p.max(0.0) / self.p_step).round() as u64;
        let (ki, k_q) = self.quantise_k(k.max(0.0));
        let key = (pi, ki);
        if let Some(&h) = self.cells.read().get(&key) {
            self.hits.fetch_add(1, Relaxed);
            return h;
        }
        let (h, work) = self.model.evaluate(pi as f64 * self.p_step, k_q);
        match self.cells.write().entry(key) {
            Entry::Occupied(cell) => {
                self.hits.fetch_add(1, Relaxed);
                *cell.get()
            }
            Entry::Vacant(cell) => {
                cell.insert(h);
                self.fills.fetch_add(1, Relaxed);
                work.account();
                h
            }
        }
    }

    /// Quantised hit ratio with the λ adjustment.
    pub fn site_hit_ratio_with_lambda(&self, p: f64, k: f64, lambda: f64) -> f64 {
        self.site_hit_ratio(p, k) * (1.0 - lambda.clamp(0.0, 1.0))
    }

    /// (cache hits, fills) so far — lets benchmarks verify the O(1) claim
    /// empirically. Hits include lost fill races (see
    /// [`Self::site_hit_ratio`]); fills count each cell once.
    pub fn stats(&self) -> (u64, u64) {
        use std::sync::atomic::Ordering::Relaxed;
        (self.hits.load(Relaxed), self.fills.load(Relaxed))
    }

    /// Number of distinct grid cells materialised.
    pub fn cells_filled(&self) -> usize {
        self.cells.read().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> HitRatioTable {
        HitRatioTable::new(LruModel::new(200, 1.0))
    }

    #[test]
    fn repeated_queries_hit_the_cache() {
        let t = table();
        let a = t.site_hit_ratio(0.0123, 512.0);
        let b = t.site_hit_ratio(0.0123, 512.0);
        assert_eq!(a, b);
        let (hits, fills) = t.stats();
        assert_eq!(fills, 1);
        assert_eq!(hits, 1);
        assert_eq!(t.cells_filled(), 1);
    }

    #[test]
    fn nearby_queries_share_a_cell() {
        let t = table();
        // Within half a p-step and half a k-step of each other.
        let a = t.site_hit_ratio(0.010_000, 500.0);
        let b = t.site_hit_ratio(0.010_004, 501.0);
        assert_eq!(a, b);
        assert_eq!(t.cells_filled(), 1);
    }

    #[test]
    fn quantisation_error_is_bounded() {
        let t = table();
        let exact = t.model().site_hit_ratio(0.01234, 503.0);
        let quantised = t.site_hit_ratio(0.01234, 503.0);
        assert!(
            (exact - quantised).abs() < 0.01,
            "quantisation error {} too large",
            (exact - quantised).abs()
        );
    }

    #[test]
    fn lambda_adjustment_matches_model() {
        let t = table();
        let h = t.site_hit_ratio(0.02, 100.0);
        assert!((t.site_hit_ratio_with_lambda(0.02, 100.0, 0.25) - 0.75 * h).abs() < 1e-12);
    }

    #[test]
    fn negative_inputs_clamped_to_zero_cell() {
        let t = table();
        assert_eq!(t.site_hit_ratio(-0.5, -3.0), 0.0);
    }

    #[test]
    fn concurrent_queries_are_consistent() {
        use std::sync::Arc;
        let t = Arc::new(table());
        let mut handles = Vec::new();
        for i in 0..4 {
            let t = Arc::clone(&t);
            handles.push(std::thread::spawn(move || {
                let mut out = Vec::new();
                for j in 0..50 {
                    let p = 1e-4 * ((i * 50 + j) % 20 + 1) as f64;
                    out.push((p, t.site_hit_ratio(p, 250.0)));
                }
                out
            }));
        }
        let results: Vec<Vec<(f64, f64)>> =
            handles.into_iter().map(|h| h.join().unwrap()).collect();
        // Same p must give the same h across threads.
        let mut seen: HashMap<u64, f64> = HashMap::new();
        for (p, h) in results.into_iter().flatten() {
            let key = (p / HitRatioTable::PAPER_P_STEP).round() as u64;
            if let Some(&prev) = seen.get(&key) {
                assert_eq!(prev, h);
            } else {
                seen.insert(key, h);
            }
        }
    }

    #[test]
    fn racing_fills_of_one_cell_account_one_fill() {
        use std::sync::Barrier;
        const THREADS: usize = 8;
        // A long series (~10^5 terms per fill) so threads released together
        // all miss the read and evaluate concurrently.
        let t = HitRatioTable::new(LruModel::new(100_000, 1.0));
        let barrier = Barrier::new(THREADS);
        let bits: Vec<u64> = std::thread::scope(|s| {
            let workers: Vec<_> = (0..THREADS)
                .map(|_| {
                    s.spawn(|| {
                        barrier.wait();
                        t.site_hit_ratio(0.0123, 512.0).to_bits()
                    })
                })
                .collect();
            workers
                .into_iter()
                .map(|w| w.join().expect("query thread panicked"))
                .collect()
        });
        assert!(
            bits.iter().all(|&b| b == bits[0]),
            "values differ: {bits:?}"
        );
        let (hits, fills) = t.stats();
        assert_eq!(fills, 1);
        // Every other query is a read hit or a lost race.
        assert_eq!(hits, THREADS as u64 - 1);
        assert_eq!(t.cells_filled(), 1);
    }

    #[test]
    #[should_panic]
    fn zero_step_panics() {
        HitRatioTable::with_granularity(LruModel::new(10, 1.0), 0.0, 5.0);
    }

    #[test]
    fn relative_k_quantisation_error_is_bounded() {
        let t = HitRatioTable::planner_default(LruModel::new(500, 1.0));
        for k in [3.0, 57.0, 1234.0, 98_765.0, 5_000_000.0] {
            let exact = t.model().site_hit_ratio(0.02, k);
            let quantised = t.site_hit_ratio(0.02, k);
            assert!(
                (exact - quantised).abs() < 0.005,
                "K={k}: exact {exact} vs quantised {quantised}"
            );
        }
    }

    #[test]
    fn relative_k_collapses_nearby_horizons() {
        let t = HitRatioTable::planner_default(LruModel::new(100, 1.0));
        let a = t.site_hit_ratio(0.01, 10_000.0);
        let b = t.site_hit_ratio(0.01, 10_030.0); // within 1% of 10k
        assert_eq!(a, b);
        assert_eq!(t.cells_filled(), 1);
    }

    #[test]
    fn relative_k_tiny_horizons_share_zero_cell() {
        let t = HitRatioTable::planner_default(LruModel::new(100, 1.0));
        assert_eq!(t.site_hit_ratio(0.5, 0.2), 0.0);
        assert_eq!(t.site_hit_ratio(0.5, 0.9), 0.0);
        assert_eq!(t.cells_filled(), 1);
    }
}
