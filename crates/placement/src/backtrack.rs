//! Greedy-global with backtracking (drop/add interchange).
//!
//! The paper's related-work survey notes that among the k-median-style
//! heuristics, "a greedy one that performs back tracking offers the better
//! results" (Jamin et al., INFOCOM 2001). This module extends our
//! stand-alone greedy with that idea: after the constructive phase, a local
//! search repeatedly tries to *drop* one placed replica and *add* a better
//! one in the freed space, until no interchange improves the cost.
//!
//! Used by the extension benchmarks to quantify how much headroom the
//! constructive greedy leaves on the table (typically very little — which
//! is why the paper builds on plain greedy-global).

use crate::cost::replication_only_cost;
use crate::greedy_global::greedy_global;
use crate::problem::PlacementProblem;
use crate::solution::Placement;

/// Maximum full interchange passes over all placed replicas.
const MAX_PASSES: usize = 4;
/// Minimum cost improvement for a swap to be committed.
const MIN_GAIN: f64 = 1e-9;

/// Outcome of the backtracking search.
#[derive(Debug, Clone)]
pub struct BacktrackOutcome {
    pub placement: Placement,
    /// Cost after the constructive greedy phase.
    pub greedy_cost: f64,
    /// Cost after interchange converged.
    pub final_cost: f64,
    /// Number of committed swaps.
    pub swaps: usize,
}

/// Run greedy-global, then interchange replicas (same-server drop/add)
/// while it strictly improves the replication-only cost.
pub fn greedy_backtrack(problem: &PlacementProblem) -> BacktrackOutcome {
    let mut placement = greedy_global(problem).placement;
    let greedy_cost = replication_only_cost(problem, &placement);
    let mut cost = greedy_cost;
    let mut swaps = 0;

    for _ in 0..MAX_PASSES {
        let mut improved = false;
        for i in 0..problem.n_servers() {
            // Snapshot: sites_at allocates, but the pass is outside any hot
            // loop and placements mutate beneath us otherwise.
            for j in placement.sites_at(i) {
                placement.remove_replica(problem, i, j);
                let without = replication_only_cost(problem, &placement);

                // Best replacement at this server, which may be j itself.
                let mut best: Option<(f64, usize)> = None;
                for l in 0..problem.m_sites() {
                    if !placement.fits(problem, i, l) {
                        continue;
                    }
                    let mut trial = placement.clone();
                    trial.add_replica(problem, i, l);
                    let c = replication_only_cost(problem, &trial);
                    if best.map(|(bc, _)| c < bc).unwrap_or(true) {
                        best = Some((c, l));
                    }
                }

                match best {
                    Some((c, l)) if c + MIN_GAIN < cost => {
                        placement.add_replica(problem, i, l);
                        if l != j {
                            swaps += 1;
                            improved = true;
                        }
                        cost = c;
                    }
                    _ => {
                        // No strict improvement over the incumbent: put j
                        // back if it still helps, otherwise keep the drop
                        // (a pure drop can only help if j had become
                        // redundant through other replicas).
                        if without + MIN_GAIN < cost {
                            cost = without;
                            swaps += 1;
                            improved = true;
                        } else {
                            placement.add_replica(problem, i, j);
                        }
                    }
                }
            }
        }
        if !improved {
            break;
        }
    }

    let final_cost = replication_only_cost(problem, &placement);
    BacktrackOutcome {
        placement,
        greedy_cost,
        final_cost,
        swaps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::testkit::*;

    #[test]
    fn never_worse_than_constructive_greedy() {
        for seed_shift in 0..3u64 {
            let p = line_problem(
                4,
                6,
                1000,
                2000 + 500 * seed_shift,
                uniform_demand(4, 6, 10 + seed_shift),
            );
            let out = greedy_backtrack(&p);
            assert!(
                out.final_cost <= out.greedy_cost + 1e-9,
                "backtrack {} worse than greedy {}",
                out.final_cost,
                out.greedy_cost
            );
            out.placement.validate(&p);
        }
    }

    #[test]
    fn reported_cost_matches_placement() {
        let p = line_problem(3, 5, 800, 2400, uniform_demand(3, 5, 6));
        let out = greedy_backtrack(&p);
        assert!((replication_only_cost(&p, &out.placement) - out.final_cost).abs() < 1e-9);
    }
}
