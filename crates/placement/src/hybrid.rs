//! The paper's hybrid replica-placement + storage-allocation algorithm
//! (its Figure 2), with an incremental lazy-greedy planner.
//!
//! Start from a network holding only primary copies — every byte of every
//! server is cache. Each iteration scores feasible (server, site) replica
//! candidates:
//!
//! ```text
//! benefit(i, j) =   (1 − h_j^(i)) · r_j^(i) · C(i, SN_j^(i))     // local gain
//!                 + Σ_{k≠i, X_kj=0} max(0, C(k,SN) − C(k,i))
//!                         · (1 − h_j^(k)) · r_j^(k)              // remote gain
//!                 − Σ_{k≠j, X_ik=0} (h_k^(i) − h'_k^(i))
//!                         · r_k^(i) · C(i, SN_k^(i))             // cache shrink
//! ```
//!
//! where `h'` is the predicted hit ratio after the candidate replica steals
//! `o_j` bytes from server `i`'s cache. The best positive candidate is
//! materialised; the algorithm stops when none remains.
//!
//! The naive loop rescans all N·M candidates every iteration (O(N²M) total
//! at paper scale, hopeless at internet scale). The default planner instead
//! keeps every candidate's last score in a max-heap and, after accepting a
//! replica, re-evaluates only the candidates whose inputs actually changed
//! (see `stale-set` comments below and DESIGN.md §9.2). Because benefits
//! here can *increase* after a placement (shrinking a cache raises other
//! candidates' remote-gain factors), stale scores are not upper bounds à la
//! CELF — so the planner eagerly refreshes the exact stale set instead of
//! lazily re-checking heap tops, and remains bit-identical to the dense
//! scan ([`HybridConfig::dense_scan`]) at any thread count.

use crate::cost::predicted_cost;
use crate::oracle::{memoised, CheOracle, ClosedFormOracle, HitRatioOracle, PaperOracle};
use crate::problem::PlacementProblem;
use crate::solution::Placement;
use crate::Hops;
use cdn_lru_model::{CheModel, ClosedFormLru, LruModel};
use cdn_telemetry::{self as telemetry, Value};
use rayon::prelude::*;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Reference paths of the hybrid run, which tests compare the default
/// planner against. The planner accepts a candidate only while its benefit
/// is positive, as the paper's Figure 2 does.
#[derive(Debug, Clone, Copy, Default)]
pub struct HybridConfig {
    /// Evaluate the cache-shrink penalty exactly per candidate (the
    /// literal Figure 2 inner loop, O(M) oracle queries per candidate)
    /// instead of the memoised decomposition. Slower by ~2 orders of
    /// magnitude at paper scale; kept as the reference implementation the
    /// fast path is tested against.
    pub exact_shrink_scan: bool,
    /// Re-evaluate every feasible candidate each iteration (the literal
    /// Figure 2 outer loop) instead of only the stale set. Kept as the
    /// reference implementation the lazy planner is tested against — the
    /// two must produce bit-identical replica traces.
    pub dense_scan: bool,
}

/// Bound on how far the incrementally tracked cost (initial − Σ benefits)
/// may drift from the exactly recomputed final cost, as a fraction of the
/// initial cost. Each accepted benefit is exact up to the oracle's
/// quantisation (1%-relative K cells, plus the `ShrinkMemo`'s 0.5%-relative
/// buffer buckets), and those per-step errors do not accumulate: the next
/// iteration re-derives its scores from the refreshed `hits` rows, so the
/// drift stays bounded by the quantisation error of the final
/// configuration's rows rather than the sum over steps. 5% is an order of
/// magnitude above anything observed (quick: <0.1%, large-ci: <1%).
pub const COST_DRIFT_TOLERANCE: f64 = 0.05;

/// Result of a hybrid (or pure-caching) run.
#[derive(Debug, Clone)]
pub struct HybridOutcome {
    pub placement: Placement,
    /// Predicted per-(server, site) hit ratio of the final configuration
    /// (λ-adjusted; 0 for locally replicated sites). Indexed `[i][j]`.
    pub hit_ratios: Vec<Vec<f64>>,
    /// Predicted cost before any replica was placed (pure caching).
    pub initial_cost: f64,
    /// Predicted cost of the final configuration.
    pub final_cost: f64,
    /// Benefit of each accepted replica, in order.
    pub benefits: Vec<f64>,
    /// The `(server, site)` of each accepted replica, in placement order —
    /// together with `benefits` this is the full greedy trace, which the
    /// lazy and dense planners must agree on bit-for-bit.
    pub replicas: Vec<(usize, usize)>,
}

impl HybridOutcome {
    /// Predicted hit ratio lookup usable with [`predicted_cost`].
    pub fn hit(&self, i: usize, j: usize) -> f64 {
        self.hit_ratios[i][j]
    }

    /// |(initial − Σ benefits) − final|: how far the incrementally tracked
    /// cost drifted from the exact recomputation (bounded by
    /// [`COST_DRIFT_TOLERANCE`] · initial).
    pub fn cost_drift(&self) -> f64 {
        let tracked = self.initial_cost - self.benefits.iter().sum::<f64>();
        (tracked - self.final_cost).abs()
    }
}

/// λ-adjusted hit ratio of site `j` at server `i` for buffer size `b`.
fn adjusted_hit(
    problem: &PlacementProblem,
    oracle: &dyn HitRatioOracle,
    i: usize,
    j: usize,
    b: usize,
) -> f64 {
    oracle.site_hit_ratio(i, problem.site_popularity(i, j), b) * (1.0 - problem.lambda[j])
}

/// Recompute server `i`'s full hit-ratio row for buffer size `b`
/// (0 for sites replicated at `i` — those never touch the cache).
fn hit_row(
    problem: &PlacementProblem,
    placement: &Placement,
    oracle: &dyn HitRatioOracle,
    i: usize,
    b: usize,
) -> Vec<f64> {
    (0..problem.m_sites())
        .map(|j| {
            if placement.is_replicated(i, j) {
                0.0
            } else {
                adjusted_hit(problem, oracle, i, j, b)
            }
        })
        .collect()
}

struct Candidate {
    benefit: f64,
    flat: usize,
}

/// Memoised cache-shrink bookkeeping for one server.
///
/// The naive evaluation of a candidate's shrink penalty is O(M) hit-ratio
/// queries; with N·M candidates per iteration that dominates paper-scale
/// planning. The penalty decomposes as
///
/// ```text
/// Σ_{k≠j} (h_k(B) − h_k(B'))·r_k·C_k
///   = [W(B) − S(B')] − (h_j(B) − h_j(B'))·r_j·C_j
/// ```
///
/// where `W(B) = Σ_k h_k(B)·r_k·C_k` is fixed until the server's state
/// changes and `S(B') = Σ_k h_k(B')·r_k·C_k` depends only on the shrunken
/// buffer size. `S` is memoised per 0.5%-relative buffer bucket (the hit
/// ratio varies smoothly in B, and the oracle already quantises K at 1%),
/// so each candidate costs O(1) amortised. When a replica lands, cached
/// entries are updated in place by the one term the placement changed
/// (see [`ShrinkMemo::apply_replica`]) rather than invalidated wholesale.
struct ShrinkMemo {
    /// `W` per server; `None` = needs recomputation.
    cur_w: Vec<Option<f64>>,
    /// `S(bucket)` per server, behind a lock for the parallel scan.
    s: Vec<parking_lot::Mutex<std::collections::HashMap<u32, f64>>>,
}

impl ShrinkMemo {
    fn new(n: usize) -> Self {
        Self {
            cur_w: vec![None; n],
            s: (0..n)
                .map(|_| parking_lot::Mutex::new(std::collections::HashMap::new()))
                .collect(),
        }
    }

    /// Geometric bucket of a buffer size (0.5% relative).
    fn bucket(b: usize) -> u32 {
        if b == 0 {
            0
        } else {
            ((b as f64).ln() / 0.005f64.ln_1p()).round() as u32 + 1
        }
    }

    /// Canonical buffer size of a bucket: the geometric grid point the
    /// bucket rounds around. `S` is always evaluated here rather than at
    /// whichever candidate's exact buffer size reaches the bucket first,
    /// making the cached value a pure function of its key — without this
    /// the memo's contents (and hence placements) would depend on scan
    /// scheduling once the scan runs on several threads.
    fn representative(bucket: u32) -> usize {
        if bucket == 0 {
            0
        } else {
            (f64::from(bucket - 1) * 0.005f64.ln_1p()).exp().round() as usize
        }
    }

    /// Exact incremental maintenance after replica `(i, j)` is placed.
    ///
    /// Wholesale invalidation here is what kept hybrid planning off the
    /// internet-scale tier: clearing a server's `S` map forces the next
    /// scan to rebuild every bucket with an O(M) weighted sum of oracle
    /// queries, and a single replica invalidates every server whose
    /// nearest-copy distance improved — at N = 2000 that is hundreds of
    /// millions of memo-table lookups per planning run, all through one
    /// lock. But one replica changes each sum in exactly one term:
    ///
    /// * the replicator `i` now holds site `j`, so `j`'s term leaves every
    ///   cached `S_i` bucket (`W_i` is rebuilt from the refreshed hits row
    ///   — `S` never depends on the live row, only on the oracle at the
    ///   bucket representative);
    /// * a server whose nearest copy of `j` moved from `c_old` to `c_new`
    ///   keeps every other term, so `W` and each cached `S` bucket shift
    ///   by `h_j · r · (c_new − c_old)`.
    ///
    /// Bucket updates are independent of one another, so the (seeded,
    /// per-process) `HashMap` iteration order cannot affect the resulting
    /// values, and the oracle work is one memoised query per cached bucket
    /// instead of M per rebuilt bucket.
    #[allow(clippy::too_many_arguments)] // internal update hook; mirrors evaluate_candidate
    fn apply_replica(
        &mut self,
        problem: &PlacementProblem,
        placement: &Placement,
        oracle: &dyn HitRatioOracle,
        hits: &[Vec<f64>],
        i: usize,
        j: usize,
        old_col: &[u32],
        improved: &[usize],
    ) {
        self.cur_w[i] = None;
        let r_ij = problem.requests(i, j) as f64;
        let c_old_i = old_col[i] as f64;
        if r_ij > 0.0 && c_old_i > 0.0 {
            for (&bucket, s) in self.s[i].get_mut().iter_mut() {
                let rep = Self::representative(bucket);
                *s -= adjusted_hit(problem, oracle, i, j, rep) * r_ij * c_old_i;
            }
        }
        for &k in improved {
            if k == i {
                continue;
            }
            let r = problem.requests(k, j) as f64;
            if r == 0.0 {
                continue;
            }
            let delta = placement.nearest_dist(problem, k, j) as f64 - old_col[k] as f64;
            if let Some(w) = self.cur_w[k] {
                self.cur_w[k] = Some(w + hits[k][j] * r * delta);
            }
            for (&bucket, s) in self.s[k].get_mut().iter_mut() {
                let rep = Self::representative(bucket);
                *s += adjusted_hit(problem, oracle, k, j, rep) * r * delta;
            }
        }
    }

    /// Recompute every stale `W` (sequential phase, between scans).
    #[allow(clippy::needless_range_loop)] // i indexes three parallel arrays
    fn refresh_w(&mut self, problem: &PlacementProblem, placement: &Placement, hits: &[Vec<f64>]) {
        for i in 0..problem.n_servers() {
            if self.cur_w[i].is_some() {
                continue;
            }
            self.cur_w[i] = Some(weighted_hit_sum(problem, placement, i, |k| hits[i][k]));
        }
    }

    /// `S_i(B')`, filling the bucket on first use.
    fn shrunken_sum(
        &self,
        problem: &PlacementProblem,
        placement: &Placement,
        oracle: &dyn HitRatioOracle,
        i: usize,
        new_buf: usize,
    ) -> f64 {
        // The sum is evaluated at the bucket's canonical representative and
        // the placement is fixed during a scan, so the value is a pure
        // function of the bucket and racing workers may both compute it.
        let bucket = Self::bucket(new_buf);
        memoised(&self.s[i], bucket, || {
            let rep = Self::representative(bucket);
            weighted_hit_sum(problem, placement, i, |k| {
                adjusted_hit(problem, oracle, i, k, rep)
            })
        })
    }
}

/// `Σ_{k: !x_ik} h(k)·r_ik·C(i, SN_ik)` for an arbitrary hit function.
fn weighted_hit_sum(
    problem: &PlacementProblem,
    placement: &Placement,
    i: usize,
    hit: impl Fn(usize) -> f64,
) -> f64 {
    let mut w = 0.0;
    for k in 0..problem.m_sites() {
        if placement.is_replicated(i, k) {
            continue;
        }
        let r = problem.requests(i, k) as f64;
        if r == 0.0 {
            continue;
        }
        let c = placement.nearest_dist(problem, i, k) as f64;
        if c == 0.0 {
            continue;
        }
        w += hit(k) * r * c;
    }
    w
}

/// Servers that can still profit from a new replica of site `j`: those
/// whose nearest copy is ≥ 2 hops away (a remote-gain term needs
/// `dist(k, i) < cur`, and distinct servers are ≥ 1 hop apart). Sorted by
/// descending current distance, ties to the lower index, so the remote-gain
/// summation order is a pure function of the placement state — shared by
/// the dense and lazy planners, independent of thread schedule. The list
/// shrinks as replicas accumulate, which is what makes late-phase
/// evaluations cheap at internet scale.
fn contrib_column(problem: &PlacementProblem, placement: &Placement, j: usize) -> Vec<u32> {
    let mut v: Vec<u32> = (0..problem.n_servers() as u32)
        .filter(|&k| placement.nearest_dist(problem, k as usize, j) >= 2)
        .collect();
    v.sort_unstable_by_key(|&k| (Reverse(placement.nearest_dist(problem, k as usize, j)), k));
    v
}

#[allow(clippy::needless_range_loop)] // k indexes hits alongside problem lookups
#[allow(clippy::too_many_arguments)] // internal scan helper; grouping would obscure the formula
fn evaluate_candidate(
    problem: &PlacementProblem,
    placement: &Placement,
    oracle: &dyn HitRatioOracle,
    hits: &[Vec<f64>],
    memo: &ShrinkMemo,
    contrib: &[Vec<u32>],
    exact: bool,
    cached_remote: Option<i64>,
    i: usize,
    j: usize,
) -> (f64, i64) {
    let c_ij = placement.nearest_dist(problem, i, j) as f64;
    let r_ij = problem.requests(i, j) as f64;
    // Local gain: site j's remote traffic from server i becomes free —
    // minus the consistency cost if the site receives updates.
    let mut b = (1.0 - hits[i][j]) * r_ij * c_ij - problem.replica_update_cost(i, j);

    // Cache-shrink penalty at server i.
    let new_buf = problem.buffer_objects(placement.free_bytes(i) - problem.site_bytes[j]);
    if exact {
        // Literal Figure 2, lines 10–13: recompute every remaining site's
        // hit ratio at the shrunken buffer.
        for k in 0..problem.m_sites() {
            if k == j || placement.is_replicated(i, k) {
                continue;
            }
            let c = placement.nearest_dist(problem, i, k) as f64;
            if c == 0.0 {
                continue;
            }
            let r = problem.requests(i, k) as f64;
            if r == 0.0 {
                continue;
            }
            let h_new = adjusted_hit(problem, oracle, i, k, new_buf);
            b -= (hits[i][k] - h_new) * r * c;
        }
    } else {
        // Memoised decomposition (see ShrinkMemo).
        let w_cur = memo.cur_w[i].expect("refresh_w ran before the scan");
        let s_new = memo.shrunken_sum(problem, placement, oracle, i, new_buf);
        let h_j_new = adjusted_hit(problem, oracle, i, j, new_buf);
        let j_term = (hits[i][j] - h_j_new) * r_ij * c_ij;
        b -= (w_cur - s_new) - j_term;
    }

    // Remote gain: servers that would reroute site j's traffic to i.
    // `contrib[j]` pre-filters to servers that can profit at all, in a
    // fixed order (see `contrib_column`). Each term is quantised to fixed
    // point and the sum kept in an integer, so it is a pure function of
    // site j's column state with *exactly reversible* addition — the lazy
    // planner caches the integer per candidate and applies exact deltas
    // when a single contributor's hit ratio moves, instead of re-walking
    // the whole contributor list (see `LazyPlanner::remote`).
    let remote_q = cached_remote.unwrap_or_else(|| {
        let mut r = 0i64;
        for &k in &contrib[j] {
            let k = k as usize;
            if k == i {
                continue;
            }
            let cur = placement.nearest_dist(problem, k, j) as f64;
            let via_i = problem.dist_servers(k, i) as f64;
            if via_i < cur {
                r += quantize_remote_term(
                    (cur - via_i) * (1.0 - hits[k][j]) * problem.requests(k, j) as f64,
                );
            }
        }
        r
    });
    (b + remote_q as f64 / REMOTE_SCALE, remote_q)
}

/// Fixed-point scale of the remote-gain accumulator: 2^20 ≈ 10^-6
/// absolute granularity per term, invisible next to benefit magnitudes
/// while keeping 2000-contributor sums far inside `i64` range.
const REMOTE_SCALE: f64 = (1u64 << 20) as f64;

/// One remote-gain term in fixed point. Deterministic rounding makes
/// integer addition exactly reversible: `sum + q(new) - q(old)` lands on
/// precisely the value a fresh summation with the new term produces,
/// which is what lets the lazy planner delta-update cached sums without
/// breaking bit-identity with the dense rescan.
fn quantize_remote_term(x: f64) -> i64 {
    (x * REMOTE_SCALE).round() as i64
}

/// Monotone map from (positive-or-negative, finite, non-NaN) `f64` to `u64`
/// so benefits can live in an integer max-heap with the same order the
/// dense scan's `(benefit, Reverse(flat))` comparison induces.
fn benefit_key(b: f64) -> u64 {
    let bits = b.to_bits();
    if bits >> 63 == 0 {
        bits | (1 << 63)
    } else {
        !bits
    }
}

/// Mutable state of the incremental lazy-greedy planner.
struct LazyPlanner {
    /// Last evaluated benefit per flat candidate (`NEG_INFINITY` when the
    /// candidate is infeasible or its benefit is not positive).
    benefit: Vec<f64>,
    /// Per-candidate staleness epoch: bumped every re-evaluation. Heap
    /// entries carry the epoch they were pushed under and entries whose
    /// epoch no longer matches are discarded on pop (lazy deletion).
    epoch: Vec<u32>,
    /// Max-heap of `(benefit key, Reverse(flat), epoch)` — larger benefit
    /// first, ties to the smaller flat index, exactly the dense reduce.
    heap: BinaryHeap<(u64, Reverse<u32>, u32)>,
    /// Inverted distance index: per server, all other servers sorted by
    /// `(dist_servers, index)` ascending. Used to enumerate the candidates
    /// whose remote-gain term routes traffic of a perturbed hits row.
    neighbors: Vec<Vec<u32>>,
    /// Flat candidate indices to (re-)evaluate next iteration.
    stale: Vec<u32>,
    /// Cached fixed-point remote-gain sum per flat candidate (`i64::MIN` =
    /// must recompute). The remote gain of `(i, j)` depends only on site
    /// `j`'s column state (its contributor set, their nearest distances,
    /// and their hit ratios at `j`), so a candidate staled for row-side
    /// reasons — replicator and improved-server rows, the bulk of every
    /// stale set — reuses the sum and re-evaluates in O(1) instead of
    /// O(|contrib[j]|). The two column-side events are handled without a
    /// full re-walk wherever possible: a placed replica voids exactly its
    /// own site's column, and a hits-row change delta-updates the affected
    /// sums in place (exact integer telescoping — the accumulator is
    /// quantised precisely so this reversal is lossless).
    remote: Vec<i64>,
    /// Oracle fingerprint backing each current `hits` row (see
    /// [`HitRatioOracle::buffer_signature`]).
    row_sig: Vec<Option<u64>>,
}

impl LazyPlanner {
    fn new(problem: &PlacementProblem, n: usize, m: usize) -> Self {
        let neighbors = (0..n)
            .map(|i| {
                let mut v: Vec<u32> = (0..n as u32).filter(|&k| k as usize != i).collect();
                v.sort_unstable_by_key(|&k| (problem.dist_servers(i, k as usize), k));
                v
            })
            .collect();
        Self {
            benefit: vec![f64::NEG_INFINITY; n * m],
            epoch: vec![0; n * m],
            heap: BinaryHeap::new(),
            neighbors,
            // First iteration: every candidate is unscored.
            stale: (0..(n * m) as u32).collect(),
            remote: vec![i64::MIN; n * m],
            row_sig: Vec::new(),
        }
    }

    /// Discard superseded heap entries once the backlog exceeds ~2 full
    /// candidate sets, bounding the heap at O(N·M) regardless of how many
    /// re-evaluations the run performs.
    fn compact(&mut self, nm: usize) {
        if self.heap.len() > 2 * nm + 1024 {
            let epoch = &self.epoch;
            let live: Vec<_> = std::mem::take(&mut self.heap)
                .into_iter()
                .filter(|&(_, Reverse(flat), e)| epoch[flat as usize] == e)
                .collect();
            self.heap = BinaryHeap::from(live);
        }
    }

    /// Best current-epoch candidate, discarding stale entries from the top.
    /// The returned candidate is removed from the heap (its row is about to
    /// be invalidated anyway).
    fn pop_best(&mut self) -> Option<Candidate> {
        while let Some(&(_, Reverse(flat), e)) = self.heap.peek() {
            if self.epoch[flat as usize] == e {
                self.heap.pop();
                return Some(Candidate {
                    benefit: self.benefit[flat as usize],
                    flat: flat as usize,
                });
            }
            self.heap.pop();
        }
        None
    }
}

/// Run the hybrid algorithm with an explicit oracle.
pub fn hybrid_greedy(
    problem: &PlacementProblem,
    oracle: &dyn HitRatioOracle,
    config: &HybridConfig,
) -> HybridOutcome {
    let n = problem.n_servers();
    let m = problem.m_sites();
    let mut placement = Placement::primaries_only(problem);

    // Lines 1–5 of Figure 2: all storage is cache; initial hit ratios and
    // initial cost.
    let (mut hits, initial_cost) = predict_fixed(problem, &placement, oracle);
    let mut cost = initial_cost;
    let mut benefits = Vec::new();
    let mut replicas: Vec<(usize, usize)> = Vec::new();
    let mut memo = ShrinkMemo::new(n);

    // Remote-gain contributor lists (shared by both planners); only the
    // placed site's column ever changes, so columns are rebuilt one at a
    // time. `contrib_column` assumes distinct servers are ≥ 1 hop apart.
    debug_assert!((0..n).all(|a| (0..n).all(|b| a == b || problem.dist_servers(a, b) >= 1)));
    let mut contrib: Vec<Vec<u32>> = (0..m)
        .map(|j| contrib_column(problem, &placement, j))
        .collect();

    let mut lazy = (!config.dense_scan).then(|| {
        let mut l = LazyPlanner::new(problem, n, m);
        l.row_sig = (0..n)
            .map(|i| oracle.buffer_signature(i, problem.buffer_objects(placement.free_bytes(i))))
            .collect();
        l
    });

    // How many candidates the dense scan would evaluate right now;
    // maintained incrementally (only the replicator's row ever changes).
    let mut feasible_now: u64 = (0..n * m)
        .filter(|&flat| placement.fits(problem, flat / m, flat % m))
        .count() as u64;

    // Telemetry: the candidate scan runs on the pool, but the evaluated
    // set (and hence every counter) is decided sequentially, keeping the
    // stream independent of the thread schedule.
    let obs = telemetry::enabled();
    let span = if obs {
        telemetry::with_trace(|t| t.enter("placement.hybrid"))
    } else {
        None
    };
    if obs {
        telemetry::registry()
            .gauge("placement.initial_cost")
            .set(initial_cost);
        telemetry::with_trace(|t| {
            t.event(
                "placement.start",
                vec![
                    ("servers", Value::from(n)),
                    ("sites", Value::from(m)),
                    ("initial_cost", Value::from(initial_cost)),
                ],
            );
        });
    }

    loop {
        memo.refresh_w(problem, &placement, &hits);

        let (best, evaluated) = if let Some(l) = &mut lazy {
            // Re-evaluate exactly the candidates whose inputs changed since
            // their cached score was computed. Evaluation runs on the pool;
            // the ordered collect + sequential merge keep the heap contents
            // (and all counters) bit-identical at any thread count.
            l.stale.sort_unstable();
            l.stale.dedup();
            let remote_cache: &[i64] = &l.remote;
            let scores: Vec<(u32, Option<(f64, i64)>)> = l
                .stale
                .par_iter()
                .map(|&flat| {
                    let (i, j) = (flat as usize / m, flat as usize % m);
                    if !placement.fits(problem, i, j) {
                        return (flat, None);
                    }
                    let cached = remote_cache[flat as usize];
                    let scored = evaluate_candidate(
                        problem,
                        &placement,
                        oracle,
                        &hits,
                        &memo,
                        &contrib,
                        config.exact_shrink_scan,
                        (cached != i64::MIN).then_some(cached),
                        i,
                        j,
                    );
                    (flat, Some(scored))
                })
                .collect();
            l.stale.clear();
            let mut evaluated = 0u64;
            let mut remote_reused = 0u64;
            for (flat, score) in scores {
                let f = flat as usize;
                l.epoch[f] = l.epoch[f].wrapping_add(1);
                l.benefit[f] = f64::NEG_INFINITY;
                if let Some((b, remote)) = score {
                    evaluated += 1;
                    if l.remote[f] != i64::MIN {
                        remote_reused += 1;
                    }
                    l.remote[f] = remote;
                    if b > 0.0 {
                        l.benefit[f] = b;
                        l.heap.push((benefit_key(b), Reverse(flat), l.epoch[f]));
                    }
                }
            }
            if obs && remote_reused > 0 {
                telemetry::registry()
                    .counter("placement.remote_gain_reused")
                    .add(remote_reused);
            }
            l.compact(n * m);
            (l.pop_best(), evaluated)
        } else {
            let best = (0..n * m)
                .into_par_iter()
                .filter_map(|flat| {
                    let (i, j) = (flat / m, flat % m);
                    if !placement.fits(problem, i, j) {
                        return None;
                    }
                    let (benefit, _) = evaluate_candidate(
                        problem,
                        &placement,
                        oracle,
                        &hits,
                        &memo,
                        &contrib,
                        config.exact_shrink_scan,
                        None,
                        i,
                        j,
                    );
                    (benefit > 0.0).then_some(Candidate { benefit, flat })
                })
                .reduce_with(|a, b| {
                    // Deterministic: larger benefit wins, ties to smaller index.
                    if (b.benefit, Reverse(b.flat)) > (a.benefit, Reverse(a.flat)) {
                        b
                    } else {
                        a
                    }
                });
            (best, feasible_now)
        };

        if obs {
            let reg = telemetry::registry();
            reg.counter("placement.candidates_evaluated").add(evaluated);
            if lazy.is_some() {
                reg.counter("placement.candidates_skipped_lazy")
                    .add(feasible_now - evaluated);
            }
            reg.counter("placement.iterations").inc();
        }
        let Some(Candidate { benefit, flat }) = best else {
            break;
        };
        let (i, j) = (flat / m, flat % m);
        let row_feasible = |placement: &Placement| -> u64 {
            (0..m).filter(|&k| placement.fits(problem, i, k)).count() as u64
        };
        feasible_now -= row_feasible(&placement);
        // Site j's nearest distances before the replica lands — the memo
        // update below needs the old terms it is replacing.
        let old_col: Vec<Hops> = (0..n)
            .map(|k| placement.nearest_dist(problem, k, j))
            .collect();
        let improved = placement.add_replica(problem, i, j);
        feasible_now += row_feasible(&placement);
        cost -= benefit;
        benefits.push(benefit);
        replicas.push((i, j));
        if obs {
            telemetry::registry()
                .counter("placement.replicas_placed")
                .inc();
            let capacity_remaining: u64 = (0..n).map(|s| placement.free_bytes(s)).sum();
            telemetry::with_trace(|t| {
                t.event(
                    "placement.iter",
                    vec![
                        ("iter", Value::from(benefits.len())),
                        ("candidates", Value::U64(evaluated)),
                        ("server", Value::from(i)),
                        ("site", Value::from(j)),
                        ("benefit", Value::from(benefit)),
                        ("capacity_remaining", Value::U64(capacity_remaining)),
                    ],
                );
            });
        }
        // Lines 22–23: refresh server i's hit ratios for its smaller cache,
        // and shift every memoised sum by the one term this placement
        // changed (replicator i and every server whose nearest distance to
        // site j improved). The lazy planner reuses the whole row when the
        // oracle fingerprints the shrunken buffer into the same
        // quantisation cell, and records which entries actually changed —
        // that set drives the hits-row part of the stale set below.
        let b = problem.buffer_objects(placement.free_bytes(i));
        let changed_sites: Vec<(usize, f64, f64)> = if let Some(l) = &mut lazy {
            let sig = oracle.buffer_signature(i, b);
            let reused = sig.is_some() && sig == l.row_sig[i];
            l.row_sig[i] = sig;
            if reused {
                if obs {
                    telemetry::registry()
                        .counter("placement.hit_rows_reused")
                        .inc();
                }
                hits[i][j] = 0.0;
                Vec::new()
            } else {
                let row = hit_row(problem, &placement, oracle, i, b);
                // (site, old hit, new hit) — the delta pair the remote-gain
                // cache update below needs to reverse the stale term exactly.
                let changed = (0..m)
                    .filter(|&k| k != j && row[k].to_bits() != hits[i][k].to_bits())
                    .map(|k| (k, hits[i][k], row[k]))
                    .collect();
                hits[i] = row;
                changed
            }
        } else {
            hits[i] = hit_row(problem, &placement, oracle, i, b);
            Vec::new()
        };
        memo.apply_replica(
            problem, &placement, oracle, &hits, i, j, &old_col, &improved,
        );
        contrib[j] = contrib_column(problem, &placement, j);

        if let Some(l) = &mut lazy {
            // Stale set of this placement — everything whose evaluation
            // inputs changed (and nothing else; see DESIGN.md §9.2 for the
            // case analysis):
            //  1. whole rows of the replicator and every improved server
            //     (buffer, W/S memo, or a nearest distance changed);
            //  2. the placed site's whole column (its nearest map and
            //     remote-gain contributor set changed);
            //  3. for each site whose hits[i][·] entry changed, the
            //     candidates whose remote gain routes that traffic: servers
            //     strictly closer to i than i's nearest copy of the site.
            // Row-side staleness (cases 1): the remote-gain cache stays
            // valid — nothing about those sites' columns changed.
            for &r in improved.iter().chain(std::iter::once(&i)) {
                let base = (r * m) as u32;
                l.stale.extend(base..base + m as u32);
            }
            // Case 2, the placed site's column: its contributor set and
            // nearest distances changed wholesale — void the remote-gain
            // cache, the next scan re-walks the rebuilt contributor list.
            for k in 0..n {
                l.remote[k * m + j] = i64::MIN;
                l.stale.push((k * m + j) as u32);
            }
            // Case 3, the hits-row fanout: exactly one contributor's hit
            // ratio moved, so shift each still-cached sum by the exact
            // fixed-point delta of that one term (same float expression as
            // the scan's walk, so the quantised values cancel losslessly)
            // instead of re-walking O(|contrib|) per candidate.
            for &(jc, h_old, h_new) in &changed_sites {
                let lim = placement.nearest_dist(problem, i, jc);
                let cur = lim as f64;
                let r_ijc = problem.requests(i, jc) as f64;
                for &k in &l.neighbors[i] {
                    let via = problem.dist_servers(i, k as usize);
                    if via >= lim {
                        break;
                    }
                    let f = k as usize * m + jc;
                    if l.remote[f] != i64::MIN {
                        let via = via as f64;
                        l.remote[f] += quantize_remote_term((cur - via) * (1.0 - h_new) * r_ijc)
                            - quantize_remote_term((cur - via) * (1.0 - h_old) * r_ijc);
                    }
                    l.stale.push(f as u32);
                }
            }
        }
    }

    // The tracked cost drifts from the exact recomputation by at most the
    // oracle's quantisation error; report the exactly recomputed value
    // (read cost plus any update-propagation cost of the placed replicas)
    // and fail loudly if the planner's bookkeeping ever diverges beyond
    // the documented bound.
    let final_cost = crate::cost::total_cost(problem, &placement, |i, j| hits[i][j]);
    if obs {
        telemetry::registry()
            .gauge("placement.final_cost")
            .set(final_cost);
        telemetry::with_trace(|t| {
            t.event(
                "placement.done",
                vec![
                    ("replicas", Value::from(placement.replica_count())),
                    ("final_cost", Value::from(final_cost)),
                ],
            );
        });
        if let Some(id) = span {
            telemetry::with_trace(|t| t.exit(id));
        }
    }
    assert!(
        (final_cost - cost).abs() <= COST_DRIFT_TOLERANCE * initial_cost.max(1.0),
        "tracked cost {cost} drifted from exact {final_cost} beyond \
         {COST_DRIFT_TOLERANCE} * {initial_cost}"
    );

    HybridOutcome {
        placement,
        hit_ratios: hits,
        initial_cost,
        final_cost,
        benefits,
        replicas,
    }
}

/// Build the paper's oracle for `problem` (per-server popularities and
/// full-capacity initial buffers) and run the hybrid algorithm.
pub fn hybrid_greedy_paper(problem: &PlacementProblem, config: &HybridConfig) -> HybridOutcome {
    let oracle = paper_oracle_for(problem);
    hybrid_greedy(problem, &oracle, config)
}

/// The paper oracle corresponding to `problem`'s workload parameters.
pub fn paper_oracle_for(problem: &PlacementProblem) -> PaperOracle {
    let model = LruModel::new(problem.objects_per_site, problem.theta);
    let pops: Vec<Vec<f64>> = (0..problem.n_servers())
        .map(|i| problem.popularity_row(i))
        .collect();
    let buffers: Vec<usize> = problem
        .capacities
        .iter()
        .map(|&c| problem.buffer_objects(c))
        .collect();
    PaperOracle::new(model, &pops, &buffers)
}

/// Che's-approximation oracle for `problem`'s workload parameters (the
/// model ablation's second backend).
pub fn che_oracle_for(problem: &PlacementProblem) -> CheOracle {
    let model = CheModel::new(problem.objects_per_site, problem.theta);
    let pops: Vec<Vec<f64>> = (0..problem.n_servers())
        .map(|i| problem.popularity_row(i))
        .collect();
    CheOracle::new(model, pops)
}

/// The closed-form characteristic-rank oracle for `problem`'s workload
/// parameters (the model ablation's third backend).
pub fn closed_form_oracle_for(problem: &PlacementProblem) -> ClosedFormOracle {
    let model = ClosedFormLru::new(problem.objects_per_site, problem.theta);
    let pops: Vec<Vec<f64>> = (0..problem.n_servers())
        .map(|i| problem.popularity_row(i))
        .collect();
    ClosedFormOracle::new(model, &pops)
}

/// Predict a fixed placement whose free space runs an LRU: each server's
/// λ-adjusted hit-ratio row, evaluated by `oracle` at that server's buffer
/// size (0 for sites it replicates), and the placement's [`predicted_cost`].
///
/// Servers are independent, so the rows fan out over the rayon pool; the
/// ordered collect keeps them identical to a sequential evaluation, and
/// every oracle memo value is a pure function of its key, so the memo
/// contents and work counters are too.
pub fn predict_fixed(
    problem: &PlacementProblem,
    placement: &Placement,
    oracle: &dyn HitRatioOracle,
) -> (Vec<Vec<f64>>, f64) {
    let hits: Vec<Vec<f64>> = (0..problem.n_servers())
        .into_par_iter()
        .map(|i| {
            let b = problem.buffer_objects(placement.free_bytes(i));
            hit_row(problem, placement, oracle, i, b)
        })
        .collect();
    let cost = predicted_cost(problem, placement, |i, j| hits[i][j]);
    (hits, cost)
}

/// Pure caching: no replicas at all, every byte is cache. Included for the
/// paper's three-way comparison.
pub fn pure_caching(problem: &PlacementProblem, oracle: &dyn HitRatioOracle) -> HybridOutcome {
    let placement = Placement::primaries_only(problem);
    let (hits, cost) = predict_fixed(problem, &placement, oracle);
    HybridOutcome {
        placement,
        hit_ratios: hits,
        initial_cost: cost,
        final_cost: cost,
        benefits: Vec::new(),
        replicas: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::replication_only_cost;
    use crate::greedy_global::greedy_global;
    use crate::problem::testkit::*;

    fn run(problem: &PlacementProblem) -> HybridOutcome {
        hybrid_greedy_paper(problem, &HybridConfig::default())
    }

    fn run_dense(problem: &PlacementProblem) -> HybridOutcome {
        hybrid_greedy_paper(
            problem,
            &HybridConfig {
                dense_scan: true,
                ..Default::default()
            },
        )
    }

    #[test]
    fn outcome_invariants() {
        let p = line_problem(4, 6, 5000, 12_000, uniform_demand(4, 6, 50));
        let out = run(&p);
        out.placement.validate(&p);
        assert!(out.final_cost <= out.initial_cost + 1e-9);
        assert!(out.benefits.iter().all(|&b| b > 0.0));
        assert_eq!(out.benefits.len(), out.replicas.len());
        for &(i, j) in &out.replicas {
            assert!(out.placement.is_replicated(i, j));
        }
        for i in 0..4 {
            for j in 0..6 {
                let h = out.hit(i, j);
                assert!((0.0..=1.0).contains(&h));
                if out.placement.is_replicated(i, j) {
                    assert_eq!(h, 0.0);
                }
            }
        }
    }

    #[test]
    fn hybrid_beats_or_matches_pure_replication_and_pure_caching() {
        let p = line_problem(4, 6, 5000, 12_000, uniform_demand(4, 6, 50));
        let hybrid = run(&p);
        let oracle = paper_oracle_for(&p);
        let caching = pure_caching(&p, &oracle);
        let replication = greedy_global(&p);
        let repl_cost = replication_only_cost(&p, &replication.placement);
        assert!(
            hybrid.final_cost <= caching.final_cost + 1e-9,
            "hybrid {} > caching {}",
            hybrid.final_cost,
            caching.final_cost
        );
        assert!(
            hybrid.final_cost <= repl_cost + 1e-9,
            "hybrid {} > replication {}",
            hybrid.final_cost,
            repl_cost
        );
    }

    #[test]
    fn no_space_means_pure_caching() {
        let p = line_problem(3, 3, 10_000, 5_000, uniform_demand(3, 3, 10));
        let out = run(&p);
        assert_eq!(out.placement.replica_count(), 0);
        assert_eq!(out.initial_cost, out.final_cost);
    }

    #[test]
    fn benefits_counted_against_cost() {
        let p = line_problem(3, 4, 2000, 6000, uniform_demand(3, 4, 25));
        let out = run(&p);
        let claimed: f64 = out.benefits.iter().sum();
        let achieved = out.initial_cost - out.final_cost;
        // Tracked benefits match the exact recomputation up to the oracle's
        // quantisation error.
        assert!(
            (claimed - achieved).abs() <= 0.02 * out.initial_cost.max(1.0),
            "claimed {claimed} vs achieved {achieved}"
        );
    }

    #[test]
    fn cost_drift_stays_within_documented_tolerance() {
        // Regression for the cost-drift contract: the incrementally tracked
        // cost must stay within COST_DRIFT_TOLERANCE of the recomputation
        // on every instance, in both planner modes, including update-heavy
        // problems where benefits carry a consistency charge.
        for seed in 0..4u64 {
            let mut demand = uniform_demand(4, 7, 30 + seed);
            for (idx, d) in demand.iter_mut().enumerate() {
                *d += (idx as u64 * 5 + seed) % 11;
            }
            let mut p = line_problem(4, 7, 3000 + 500 * seed, 13_000, demand);
            if seed % 2 == 1 {
                p.set_update_rates(vec![3 + seed; 7]);
            }
            for dense in [false, true] {
                let out = hybrid_greedy_paper(
                    &p,
                    &HybridConfig {
                        dense_scan: dense,
                        ..Default::default()
                    },
                );
                let bound = COST_DRIFT_TOLERANCE * out.initial_cost.max(1.0);
                assert!(
                    out.cost_drift() <= bound,
                    "seed {seed} dense {dense}: drift {} > {bound}",
                    out.cost_drift()
                );
            }
        }
    }

    #[test]
    fn deterministic() {
        let p = line_problem(4, 5, 3000, 9000, uniform_demand(4, 5, 20));
        let a = run(&p);
        let b = run(&p);
        assert_eq!(a.benefits, b.benefits);
        for i in 0..4 {
            assert_eq!(a.placement.sites_at(i), b.placement.sites_at(i));
        }
        // Thread-count invariance: the candidate scan and the ShrinkMemo
        // fills must yield bit-identical outcomes at 1 and 4 threads.
        let pool = |n| {
            rayon::ThreadPoolBuilder::new()
                .num_threads(n)
                .build()
                .unwrap()
        };
        let one = pool(1).install(|| run(&p));
        let four = pool(4).install(|| run(&p));
        let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&one.benefits), bits(&four.benefits));
        assert_eq!(bits(&a.benefits), bits(&one.benefits));
        assert_eq!(one.final_cost.to_bits(), four.final_cost.to_bits());
        assert_eq!(one.initial_cost.to_bits(), four.initial_cost.to_bits());
        assert_eq!(one.replicas, four.replicas);
        for i in 0..4 {
            assert_eq!(one.placement.sites_at(i), four.placement.sites_at(i));
            assert_eq!(bits(&one.hit_ratios[i]), bits(&four.hit_ratios[i]));
        }
    }

    #[test]
    fn lazy_planner_matches_dense_scan_bit_for_bit() {
        // The correctness contract of the incremental planner: identical
        // (server, site, benefit) trace to the dense rescan, at 1 and 4
        // threads. (tests/differential.rs drives this on random problems.)
        let pool = |n: usize| {
            rayon::ThreadPoolBuilder::new()
                .num_threads(n)
                .build()
                .unwrap()
        };
        for seed in 0..3u64 {
            let mut demand = uniform_demand(5, 7, 35 + seed);
            for (idx, d) in demand.iter_mut().enumerate() {
                *d += (idx as u64 * 3 + seed) % 9;
            }
            let p = line_problem(5, 7, 2500 + 400 * seed, 12_000, demand);
            let dense = run_dense(&p);
            let lazy1 = pool(1).install(|| run(&p));
            let lazy4 = pool(4).install(|| run(&p));
            let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            for lazy in [&lazy1, &lazy4] {
                assert_eq!(dense.replicas, lazy.replicas, "seed {seed}");
                assert_eq!(bits(&dense.benefits), bits(&lazy.benefits), "seed {seed}");
                assert_eq!(dense.final_cost.to_bits(), lazy.final_cost.to_bits());
                for i in 0..5 {
                    assert_eq!(bits(&dense.hit_ratios[i]), bits(&lazy.hit_ratios[i]));
                }
            }
        }
    }

    #[test]
    fn replicates_less_than_pure_greedy_when_caching_is_strong() {
        // Tiny objects (mean request size 100 B) and highly skewed Zipf make
        // the cache very effective, so the hybrid should hold back replicas
        // relative to cache-blind greedy on at least some instances. At
        // minimum it must never replicate more than greedy fills.
        let p = line_problem(4, 8, 4000, 16_000, uniform_demand(4, 8, 10));
        let hybrid = run(&p);
        let greedy = greedy_global(&p);
        assert!(hybrid.placement.replica_count() <= greedy.placement.replica_count());
    }

    #[test]
    fn memoised_scan_matches_exact_scan() {
        // The ShrinkMemo decomposition is algebraically identical up to
        // the 0.5% buffer bucketing and floating-point associativity, so
        // on tie-free instances the two paths choose the same placement.
        // Demand is perturbed per (server, site) to break ties.
        for seed in 0..3u64 {
            let mut demand = uniform_demand(4, 6, 40 + seed);
            for (idx, d) in demand.iter_mut().enumerate() {
                *d += (idx as u64 * 7 + seed) % 13;
            }
            let p = line_problem(4, 6, 4000 + 300 * seed, 11_000, demand);
            let fast = hybrid_greedy_paper(&p, &HybridConfig::default());
            let exact = hybrid_greedy_paper(
                &p,
                &HybridConfig {
                    exact_shrink_scan: true,
                    ..Default::default()
                },
            );
            assert_eq!(
                fast.placement.replica_count(),
                exact.placement.replica_count(),
                "seed {seed}"
            );
            for i in 0..4 {
                assert_eq!(
                    fast.placement.sites_at(i),
                    exact.placement.sites_at(i),
                    "seed {seed}, server {i}"
                );
            }
            let rel = (fast.final_cost - exact.final_cost).abs() / exact.final_cost.max(1.0);
            assert!(
                rel < 1e-9,
                "seed {seed}: {} vs {}",
                fast.final_cost,
                exact.final_cost
            );
        }
    }

    #[test]
    fn update_rates_shift_hybrid_toward_caching() {
        let p = line_problem(4, 6, 5000, 12_000, uniform_demand(4, 6, 50));
        let baseline = run(&p);
        let mut hot = p.clone();
        hot.set_update_rates(vec![100; 6]);
        let shifted = hybrid_greedy_paper(&hot, &HybridConfig::default());
        assert!(shifted.placement.replica_count() <= baseline.placement.replica_count());
        shifted.placement.validate(&hot);
        // Final cost accounting still consistent: benefits were charged for
        // updates, and the exact recomputation includes them.
        let claimed: f64 = shifted.benefits.iter().sum();
        let achieved = shifted.initial_cost - shifted.final_cost;
        assert!((claimed - achieved).abs() <= 0.02 * shifted.initial_cost.max(1.0));
    }

    #[test]
    fn lambda_adjustment_scales_linearly() {
        // Every predicted row carries the paper's §3.3 correction h·(1 − λ).
        let mut p = line_problem(3, 4, 1000, 2500, uniform_demand(3, 4, 20));
        let placement = Placement::primaries_only(&p);
        let oracle = paper_oracle_for(&p);
        let (plain, _) = predict_fixed(&p, &placement, &oracle);
        assert!(plain.iter().flatten().any(|&h| h > 0.0));
        p.lambda = vec![0.1, 0.5, 1.0, 0.0];
        let (adjusted, _) = predict_fixed(&p, &placement, &oracle);
        for (row, plain_row) in adjusted.iter().zip(&plain) {
            for (j, (&h, &h0)) in row.iter().zip(plain_row).enumerate() {
                assert_eq!(h, h0 * (1.0 - p.lambda[j]), "site {j}");
            }
        }
    }

    #[test]
    fn pure_caching_outcome_consistent() {
        let p = line_problem(2, 3, 1000, 4000, uniform_demand(2, 3, 10));
        let oracle = paper_oracle_for(&p);
        let out = pure_caching(&p, &oracle);
        assert_eq!(out.placement.replica_count(), 0);
        let recomputed = predicted_cost(&p, &out.placement, |i, j| out.hit(i, j));
        assert_eq!(out.final_cost, recomputed);
        // Caching must beat a cache-less primaries-only system.
        let no_cache = replication_only_cost(&p, &out.placement);
        assert!(out.final_cost < no_cache);
    }

    #[test]
    fn benefit_key_is_monotone() {
        let xs = [
            f64::NEG_INFINITY,
            -1e300,
            -2.5,
            -1e-300,
            0.0,
            1e-300,
            1.0,
            2.5,
            1e300,
            f64::INFINITY,
        ];
        for w in xs.windows(2) {
            assert!(
                benefit_key(w[0]) < benefit_key(w[1]),
                "{} !< {}",
                w[0],
                w[1]
            );
        }
    }
}
