//! Hit-ratio oracles the hybrid planner consults.
//!
//! The planner only ever asks one question: *if server `i`'s cache holds
//! `b` objects, what hit ratio does a site with popularity `p` achieve
//! there?* [`PaperOracle`] answers with the paper's analytical model
//! (Equations 1–2, memoised per the paper's pre-computation scheme);
//! [`CheOracle`] answers with Che's approximation, for the model ablation;
//! [`ClosedFormOracle`] answers with the closed-form characteristic-rank
//! model — O(1) per query after a scalar solve per `(server, buffer)`.

use cdn_lru_model::{CheModel, ClosedFormLru, DemandScale, FxHashMap, HitRatioTable, LruModel};
use parking_lot::Mutex;
use rayon::prelude::*;
use std::hash::Hash;

/// A predictor of per-site LRU hit ratios.
pub trait HitRatioOracle: Sync + Send {
    /// Hit ratio of a site with popularity `p` (relative to all requests of
    /// server `server`) when that server's cache holds `b` objects.
    fn site_hit_ratio(&self, server: usize, p: f64, b: usize) -> f64;

    /// [`Self::site_hit_ratio`] of every popularity of `pops` (one row
    /// each) at every buffer size of `buffers` (one column each): one
    /// server's sites at the buffer sizes the hybrid planner's shrink memo
    /// is about to fill. Rows are evaluated in parallel. An oracle that can
    /// share work across the batch overrides this; every value must equal
    /// the single query's bit for bit.
    fn hit_ratio_rows(&self, server: usize, pops: &[f64], buffers: &[usize]) -> Vec<Vec<f64>> {
        pops.par_iter()
            .map(|&p| {
                buffers
                    .iter()
                    .map(|&b| self.site_hit_ratio(server, p, b))
                    .collect()
            })
            .collect()
    }
}

/// Look `key` up in `memo`; on a miss, run `compute` with no lock held,
/// insert its value unless a racing worker got there first, and return the
/// stored value. Planner memo values are pure functions of their keys, so a
/// racing loser's copy is bit-identical and dropped; work counted beneath
/// `compute` is accounted once per cell by the [`HitRatioTable`] itself.
pub(crate) fn memoised<K: Hash + Eq>(
    memo: &Mutex<FxHashMap<K, f64>>,
    key: K,
    compute: impl FnOnce() -> f64,
) -> f64 {
    if let Some(&v) = memo.lock().get(&key) {
        return v;
    }
    let v = compute();
    *memo.lock().entry(key).or_insert(v)
}

/// The paper's model. Per the paper's implementation notes:
///
/// * `p_B` — the cumulative popularity of the top-B objects — is computed
///   **once per server at initialisation** and treated as constant while
///   replicas are created ("calculating K during each iteration produced
///   the same result", §4);
/// * `h(p, K)` is memoised on the quantised grid of [`HitRatioTable`];
/// * `K(B, p_B)` uses the closed-form horizon for large buffers.
#[derive(Debug)]
pub struct PaperOracle {
    table: HitRatioTable,
    /// Fixed-at-init p_B per server.
    p_b: Vec<f64>,
    /// `K(B, p_B)` per `(server, buffer)`. The small-buffer horizon is an
    /// exact O(B) summation and every oracle query needs the horizon just
    /// to build its memo-table key, so planners re-probing the same
    /// buffers would otherwise pay the summation millions of times.
    /// Filled with no lock held across the summation (see [`memoised`]).
    horizons: Vec<Mutex<FxHashMap<usize, f64>>>,
}

impl PaperOracle {
    /// Build from the shared object law and, per server, the site
    /// popularities and the *initial* buffer size (full capacity devoted to
    /// caching — the hybrid algorithm's starting state).
    pub fn new(model: LruModel, per_server_pops: &[Vec<f64>], initial_buffers: &[usize]) -> Self {
        assert_eq!(per_server_pops.len(), initial_buffers.len());
        let p_b = per_server_pops
            .iter()
            .zip(initial_buffers)
            .map(|(pops, &b)| model.top_b_mass(pops, b))
            .collect();
        let horizons = (0..per_server_pops.len())
            .map(|_| Mutex::new(FxHashMap::default()))
            .collect();
        Self {
            table: HitRatioTable::new(model),
            p_b,
            horizons,
        }
    }

    fn horizon(&self, server: usize, b: usize) -> f64 {
        memoised(&self.horizons[server], b, || {
            self.table
                .model()
                .eviction_horizon_approx(b, self.p_b[server])
        })
    }

    /// The fixed `p_B` of a server.
    pub fn p_b(&self, server: usize) -> f64 {
        self.p_b[server]
    }

    /// The underlying memo table (for instrumentation).
    pub fn table(&self) -> &HitRatioTable {
        &self.table
    }
}

impl HitRatioOracle for PaperOracle {
    fn site_hit_ratio(&self, server: usize, p: f64, b: usize) -> f64 {
        if b == 0 || p <= 0.0 {
            return 0.0;
        }
        let k = self.horizon(server, b);
        self.table.site_hit_ratio(p, k)
    }

    /// One horizon per buffer for the whole batch, then one table row
    /// query per popularity, whose missing cells share the popularity's L
    /// logarithms. Entries at `b == 0`, and rows at `p ≤ 0`, are 0 without
    /// touching the table, as in [`Self::site_hit_ratio`].
    fn hit_ratio_rows(&self, server: usize, pops: &[f64], buffers: &[usize]) -> Vec<Vec<f64>> {
        let live: Vec<usize> = (0..buffers.len()).filter(|&x| buffers[x] > 0).collect();
        let horizons: Vec<f64> = live
            .iter()
            .map(|&x| self.horizon(server, buffers[x]))
            .collect();
        pops.par_iter()
            .map(|&p| {
                let mut row = vec![0.0; buffers.len()];
                if p > 0.0 {
                    let mut hits = vec![0.0; live.len()];
                    self.table.site_hit_ratios(p, &horizons, &mut hits);
                    for (&x, h) in live.iter().zip(hits) {
                        row[x] = h;
                    }
                }
                row
            })
            .collect()
    }
}

/// Che's approximation, memoising the characteristic time per
/// `(server, buffer)` pair, with no lock held across the solve. Solving
/// for `t_C` costs O(M·L) per distinct buffer size, so this oracle is
/// intended for small instances (the ablation) rather than paper-scale
/// planning.
pub struct CheOracle {
    model: CheModel,
    per_server_pops: Vec<Vec<f64>>,
    /// (server, b) → t_C.
    memo: Mutex<FxHashMap<(usize, usize), f64>>,
}

impl CheOracle {
    pub fn new(model: CheModel, per_server_pops: Vec<Vec<f64>>) -> Self {
        Self {
            model,
            per_server_pops,
            memo: Mutex::new(FxHashMap::default()),
        }
    }

    fn characteristic_time(&self, server: usize, b: usize) -> f64 {
        memoised(&self.memo, (server, b), || {
            self.model
                .characteristic_time(&self.per_server_pops[server], b)
        })
    }
}

impl HitRatioOracle for CheOracle {
    fn site_hit_ratio(&self, server: usize, p: f64, b: usize) -> f64 {
        if b == 0 || p <= 0.0 {
            return 0.0;
        }
        let t = self.characteristic_time(server, b);
        self.model.site_hit_ratio(p, t)
    }
}

/// The closed-form model: per-site hit ratios in O(1) arithmetic once the
/// shared characteristic scale `τ` of a `(server, buffer)` pair is known.
/// The `τ` bisection costs O(M·64) and is memoised per `(server, buffer)`,
/// with no lock held across the solve.
pub struct ClosedFormOracle {
    model: ClosedFormLru,
    /// Per-server demand geometry (site popularity mix).
    scales: Vec<DemandScale>,
    /// (server, b) → τ.
    memo: Mutex<FxHashMap<(usize, usize), f64>>,
}

impl ClosedFormOracle {
    pub fn new(model: ClosedFormLru, per_server_pops: &[Vec<f64>]) -> Self {
        let scales = per_server_pops
            .iter()
            .map(|pops| model.demand_scale(pops))
            .collect();
        Self {
            model,
            scales,
            memo: Mutex::new(FxHashMap::default()),
        }
    }

    /// The underlying model (for instrumentation and ablations).
    pub fn model(&self) -> &ClosedFormLru {
        &self.model
    }

    fn characteristic_scale(&self, server: usize, b: usize) -> f64 {
        memoised(&self.memo, (server, b), || {
            self.model.characteristic_scale(b, &self.scales[server])
        })
    }
}

impl HitRatioOracle for ClosedFormOracle {
    fn site_hit_ratio(&self, server: usize, p: f64, b: usize) -> f64 {
        if b == 0 || p <= 0.0 {
            return 0.0;
        }
        let tau = self.characteristic_scale(server, b);
        self.model.site_hit_ratio_at(p, tau)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pops() -> Vec<Vec<f64>> {
        vec![vec![0.5, 0.3, 0.2], vec![0.1, 0.1, 0.8]]
    }

    fn paper_oracle() -> PaperOracle {
        PaperOracle::new(LruModel::new(100, 1.0), &pops(), &[150, 80])
    }

    #[test]
    fn paper_oracle_zero_buffer_zero_hits() {
        let o = paper_oracle();
        assert_eq!(o.site_hit_ratio(0, 0.5, 0), 0.0);
        assert_eq!(o.site_hit_ratio(0, 0.0, 100), 0.0);
    }

    #[test]
    fn paper_oracle_monotone_in_buffer_and_popularity() {
        let o = paper_oracle();
        let small = o.site_hit_ratio(0, 0.3, 30);
        let large = o.site_hit_ratio(0, 0.3, 250);
        assert!(large > small, "large {large} <= small {small}");
        assert!(o.site_hit_ratio(0, 0.5, 100) > o.site_hit_ratio(0, 0.05, 100));
    }

    #[test]
    fn paper_oracle_p_b_reflects_initial_buffer() {
        let o = paper_oracle();
        // Server 0's initial buffer (150) covers half the 300 objects —
        // p_B must be well above one half given Zipf skew.
        assert!(o.p_b(0) > 0.5);
        assert!(o.p_b(0) <= 1.0);
        // Smaller buffer at server 1 → smaller p_B than a full-coverage one.
        assert!(o.p_b(1) < 1.0);
    }

    #[test]
    fn che_oracle_memoises() {
        let o = CheOracle::new(CheModel::new(100, 1.0), pops());
        let a = o.site_hit_ratio(1, 0.8, 60);
        let b = o.site_hit_ratio(1, 0.8, 60);
        assert_eq!(a, b);
        assert_eq!(o.memo.lock().len(), 1);
        let _ = o.site_hit_ratio(1, 0.8, 61);
        assert_eq!(o.memo.lock().len(), 2);
    }

    #[test]
    fn oracles_roughly_agree() {
        let paper = paper_oracle();
        let che = CheOracle::new(CheModel::new(100, 1.0), pops());
        let cf = ClosedFormOracle::new(ClosedFormLru::new(100, 1.0), &pops());
        for &(s, p, b) in &[(0usize, 0.3f64, 100usize), (1, 0.8, 60), (0, 0.2, 200)] {
            let hp = paper.site_hit_ratio(s, p, b);
            let hc = che.site_hit_ratio(s, p, b);
            let hf = cf.site_hit_ratio(s, p, b);
            assert!(
                (hp - hc).abs() < 0.12,
                "server {s} p {p} b {b}: paper {hp} vs che {hc}"
            );
            assert!(
                (hp - hf).abs() < 0.15,
                "server {s} p {p} b {b}: paper {hp} vs closed-form {hf}"
            );
        }
    }

    #[test]
    fn closed_form_oracle_memoises_and_degenerates() {
        let o = ClosedFormOracle::new(ClosedFormLru::new(100, 1.0), &pops());
        assert_eq!(o.site_hit_ratio(0, 0.5, 0), 0.0);
        assert_eq!(o.site_hit_ratio(0, 0.0, 100), 0.0);
        let a = o.site_hit_ratio(1, 0.8, 60);
        let b = o.site_hit_ratio(1, 0.8, 60);
        assert_eq!(a, b);
        assert_eq!(o.memo.lock().len(), 1);
        let bigger = o.site_hit_ratio(1, 0.8, 120);
        assert_eq!(o.memo.lock().len(), 2);
        assert!(bigger >= a, "more buffer can't hurt: {bigger} < {a}");
    }
}
