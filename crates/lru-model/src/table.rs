//! Memoised hit-ratio evaluation on a quantised `(p, K)` grid.
//!
//! The paper achieves O(1) hit-ratio queries inside the greedy loop by
//! pre-computing `h(p, K)` "under different values of p and K", with a
//! granularity of 1e-5 in `p` and 5 slots in `K`. We keep its `p` step but
//! snap `K` to a 1%-relative grid (see [`HitRatioTable::K_STEP`]), and fill
//! the grid lazily (the planner only ever visits a tiny corner of it)
//! behind a read-write lock so rayon workers can share one table. The lock
//! is never held across a model evaluation.
//!
//! A query names one popularity and any number of horizons: one row of the
//! grid ([`HitRatioTable::site_hit_ratios`]). Its missing cells are summed
//! together, sharing each rank's logarithm, so a caller that needs one
//! site at many buffer sizes (the hybrid planner's shrink memo) pays the
//! popularity's L logarithms once. A single-cell query is the one-horizon
//! row.

use crate::model::LruModel;
use cdn_cache::FxHashMap;
use parking_lot::RwLock;
use std::collections::hash_map::Entry;

/// Lazily filled lookup table over quantised `(p, K)`.
///
/// Queries round to the nearest grid point (the paper's scheme), so results
/// differ from the exact model by at most the grid-cell variation; tests
/// bound that error.
#[derive(Debug)]
pub struct HitRatioTable {
    model: LruModel,
    cells: RwLock<FxHashMap<(u64, u64), f64>>,
}

impl HitRatioTable {
    /// The paper's popularity granularity.
    pub const P_STEP: f64 = 1e-5;
    /// Relative width of a `K` cell: `K` rounds to the nearest power of
    /// `1 + K_STEP`. `h(p, K)` varies smoothly (sub-linearly) in `K`, so a
    /// 1% relative grid keeps the hit-ratio error far below the model's own
    /// ~7% while collapsing the enormous absolute range of K (10⁰..10⁷
    /// across buffer sizes) into a few hundred cells — essential for the
    /// planner's inner loop at paper scale, where the paper's absolute
    /// 5-slot grid would fill a cell per distinct horizon.
    pub const K_STEP: f64 = 0.01;

    /// An empty table over `model`.
    pub fn new(model: LruModel) -> Self {
        Self {
            model,
            cells: RwLock::new(FxHashMap::default()),
        }
    }

    /// The underlying exact model.
    pub fn model(&self) -> &LruModel {
        &self.model
    }

    fn quantise_k(k: f64) -> (u64, f64) {
        if k < 1.0 {
            // Sub-single-slot horizons all hit nothing; one cell.
            return (0, 0.0);
        }
        let base = (1.0 + Self::K_STEP).ln();
        let ki = (k.ln() / base).round();
        (ki as u64 + 1, (ki * base).exp())
    }

    /// Quantised, memoised `h(p, K)`: the one-horizon case of
    /// [`Self::site_hit_ratios`].
    pub fn site_hit_ratio(&self, p: f64, k: f64) -> f64 {
        let mut h = [0.0];
        self.site_hit_ratios(p, &[k], &mut h);
        h[0]
    }

    /// Quantised, memoised `h(p, K)` at every horizon of `ks`, into `out`.
    ///
    /// The row's cells are looked up under the read lock. The missing ones
    /// are evaluated with no lock held, each distinct cell once and all of
    /// them from one pass over the ranks, so workers filling different rows
    /// run in parallel. Each is then inserted unless a racing worker (or an
    /// earlier horizon of the same row in the same cell) got there first.
    /// A cell's value is a pure function of its key, so a loser's copy is
    /// bit-identical and dropped; only winning inserts account their series
    /// work. The model's work counters thus stay a pure function of the
    /// set of cells queried, as the telemetry determinism contract
    /// requires.
    pub fn site_hit_ratios(&self, p: f64, ks: &[f64], out: &mut [f64]) {
        let won = self.fill(p, ks, out);
        self.model.account_series(won);
    }

    /// [`Self::site_hit_ratios`] without the accounting: returns how many
    /// series its winning inserts evaluated, for the caller to account.
    fn fill(&self, p: f64, ks: &[f64], out: &mut [f64]) -> u64 {
        assert_eq!(ks.len(), out.len(), "one output per horizon");
        let pi = (p.max(0.0) / Self::P_STEP).round() as u64;
        // (position in `ks`, K cell, K grid point) of each missed horizon.
        let mut missed = Vec::new();
        {
            let cells = self.cells.read();
            for (x, (&k, h)) in ks.iter().zip(out.iter_mut()).enumerate() {
                let (ki, k_q) = Self::quantise_k(k.max(0.0));
                match cells.get(&(pi, ki)) {
                    Some(&v) => *h = v,
                    None => missed.push((x, ki, k_q)),
                }
            }
        }
        if missed.is_empty() {
            return 0;
        }
        // The distinct missed cells that sum a series: p cell 0 and K cell
        // 0 are identically 0.
        let mut live: Vec<(u64, f64)> = missed
            .iter()
            .filter(|&&(_, ki, _)| pi > 0 && ki > 0)
            .map(|&(_, ki, k_q)| (ki, k_q))
            .collect();
        live.sort_unstable_by_key(|&(ki, _)| ki);
        live.dedup_by_key(|&mut (ki, _)| ki);
        let mut values = vec![0.0; live.len()];
        if !live.is_empty() {
            let horizons: Vec<f64> = live.iter().map(|&(_, k_q)| k_q).collect();
            self.model
                .hit_ratios(pi as f64 * Self::P_STEP, &horizons, &mut values);
        }
        let mut won = 0;
        let mut cells = self.cells.write();
        for (x, ki, _) in missed {
            let (h, series) = match live.binary_search_by_key(&ki, |&(ki, _)| ki) {
                Ok(at) => (values[at], 1),
                Err(_) => (0.0, 0),
            };
            out[x] = match cells.entry((pi, ki)) {
                Entry::Occupied(cell) => *cell.get(),
                Entry::Vacant(cell) => {
                    won += series;
                    *cell.insert(h)
                }
            };
        }
        won
    }

    /// Number of distinct grid cells materialised.
    pub fn cells_filled(&self) -> usize {
        self.cells.read().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn table() -> HitRatioTable {
        HitRatioTable::new(LruModel::new(200, 1.0))
    }

    #[test]
    fn repeated_queries_hit_the_cache() {
        let t = table();
        let a = t.site_hit_ratio(0.0123, 512.0);
        let b = t.site_hit_ratio(0.0123, 512.0);
        assert_eq!(a, b);
        assert_eq!(t.cells_filled(), 1);
    }

    #[test]
    fn nearby_queries_share_a_cell() {
        let t = table();
        // Within half a p-step of each other, and K inside one 1% cell.
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
            let key = (p / HitRatioTable::P_STEP).round() as u64;
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
        assert_eq!(t.cells_filled(), 1);
    }

    #[test]
    fn row_query_matches_single_queries_bit_for_bit_and_counts_each_cell_once() {
        // K = 0.5 lands in the K ≈ 0 cell, p = 0 in the zero-popularity
        // cell, and 10,000 and 10,030 share one 1% cell, so the row query
        // meets its own earlier insert there.
        const KS: [f64; 8] = [
            0.5,
            1.0,
            57.0,
            1234.0,
            10_000.0,
            10_030.0,
            98_765.0,
            5_000_000.0,
        ];
        let model = LruModel::new(500, 1.0);
        for p in [0.0, HitRatioTable::P_STEP, 0.0123, 0.5, 1.0] {
            let rows = HitRatioTable::new(model.clone());
            let singles = HitRatioTable::new(model.clone());
            let mut row = [0.0; KS.len()];
            // `fill` returns the series each query accounts to the
            // `lru_model.*` counters (`evaluations` += n, `series_terms`
            // += n·L), compared here directly: the crate's other tests
            // evaluate the model concurrently, so registry deltas would
            // mix in their work.
            let row_series = rows.fill(p, &KS, &mut row);
            let mut single_series = 0;
            for (&k, &h) in KS.iter().zip(&row) {
                let mut one = [0.0];
                single_series += singles.fill(p, &[k], &mut one);
                assert_eq!(h.to_bits(), one[0].to_bits(), "p={p} K={k}");
                // Both equal Eq. (1) summed forward over the ranks at the
                // cell's grid point.
                let p_q = (p / HitRatioTable::P_STEP).round() as u64 as f64 * HitRatioTable::P_STEP;
                let (_, k_q) = HitRatioTable::quantise_k(k);
                let mut want = 0.0;
                if p_q > 0.0 && k_q > 0.0 {
                    for &pmf in model.zipf().pmf_slice() {
                        want += -(k_q * (-(p_q * pmf).clamp(0.0, 1.0)).ln_1p()).exp_m1() * pmf;
                    }
                }
                assert_eq!(h.to_bits(), want.min(1.0).to_bits(), "p={p} K={k}");
            }
            assert_eq!(row_series, single_series, "p={p}");
            assert_eq!(rows.cells_filled(), singles.cells_filled(), "p={p}");
        }
    }

    #[test]
    fn relative_k_quantisation_error_is_bounded() {
        let t = HitRatioTable::new(LruModel::new(500, 1.0));
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
        let t = HitRatioTable::new(LruModel::new(100, 1.0));
        let a = t.site_hit_ratio(0.01, 10_000.0);
        let b = t.site_hit_ratio(0.01, 10_030.0); // within 1% of 10k
        assert_eq!(a, b);
        assert_eq!(t.cells_filled(), 1);
    }

    #[test]
    fn relative_k_tiny_horizons_share_zero_cell() {
        let t = HitRatioTable::new(LruModel::new(100, 1.0));
        assert_eq!(t.site_hit_ratio(0.5, 0.2), 0.0);
        assert_eq!(t.site_hit_ratio(0.5, 0.9), 0.0);
        assert_eq!(t.cells_filled(), 1);
    }
}
