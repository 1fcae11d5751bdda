//! Lower bounds on the replication-only objective.
//!
//! The stand-alone placement problem is NP-complete, so no heuristic here
//! comes with an optimality certificate. This module provides a cheap,
//! *valid* lower bound via per-server relaxation, letting tests and
//! benchmarks report how far greedy / backtracking can possibly be from
//! optimal instead of comparing heuristics only against each other.
//!
//! The relaxation: fix a server `i`. For any placement, a request from `i`
//! for a site `j` not replicated at `i` costs at least
//! `δ_ij = min( C(i, SP_j), min_{k≠i} C(i, k) )` per request — no holder
//! can be closer than the closest other server, and the primary is always
//! available. Replicating `j` at `i` zeroes that cost but consumes `o_j`
//! of `i`'s capacity. Allowing *fractional* replication (knapsack
//! relaxation) can only help, so
//!
//! ```text
//! OPT ≥ Σ_i [ Σ_j r_ij·δ_ij  −  FracKnapsack(values r_ij·δ_ij, weights o_j, cap s_i) ]
//! ```
//!
//! The bound is exact when capacity is zero (primaries-only) and degrades
//! gracefully as inter-server cooperation (which it ignores) matters more.

use crate::problem::PlacementProblem;

/// Per-request distance floor `δ_ij` for a non-local site.
fn distance_floor(problem: &PlacementProblem, i: usize, j: usize) -> f64 {
    let primary = problem.dist_primary(i, j);
    let nearest_other = (0..problem.n_servers())
        .filter(|&k| k != i)
        .map(|k| problem.dist_servers(i, k))
        .min()
        .unwrap_or(primary);
    primary.min(nearest_other) as f64
}

/// Fractional-knapsack maximum of `Σ value` subject to `Σ weight <= cap`.
fn fractional_knapsack(mut items: Vec<(f64, u64)>, cap: u64) -> f64 {
    // Sort by value density, descending; zero-weight items are free value.
    items.sort_by(|a, b| {
        let da = a.0 / a.1.max(1) as f64;
        let db = b.0 / b.1.max(1) as f64;
        db.partial_cmp(&da).expect("finite densities")
    });
    let mut remaining = cap as f64;
    let mut total = 0.0;
    for (value, weight) in items {
        if value <= 0.0 {
            continue;
        }
        let w = weight as f64;
        if w <= remaining {
            total += value;
            remaining -= w;
        } else {
            if remaining > 0.0 {
                total += value * remaining / w;
            }
            break;
        }
    }
    total
}

/// A valid lower bound on the replication-only cost of **any** placement
/// for `problem` (caching disabled, update rates ignored — both only
/// *raise* true cost relative to this bound... update costs raise it, and
/// caching lowers read cost, so the bound applies to the pure replication
/// objective the greedy baseline optimises).
pub fn replication_cost_lower_bound(problem: &PlacementProblem) -> f64 {
    let n = problem.n_servers();
    let m = problem.m_sites();
    let mut bound = 0.0;
    for i in 0..n {
        let mut base = 0.0;
        let mut items = Vec::with_capacity(m);
        for j in 0..m {
            let v = problem.requests(i, j) as f64 * distance_floor(problem, i, j);
            base += v;
            items.push((v, problem.site_bytes[j]));
        }
        let saved = fractional_knapsack(items, problem.capacities[i]);
        bound += (base - saved).max(0.0);
    }
    bound
}

/// Relative optimality gap of a heuristic cost against the lower bound:
/// `(cost − LB) / LB`, or 0 when the bound is 0 (trivially optimal).
pub fn optimality_gap(cost: f64, lower_bound: f64) -> f64 {
    if lower_bound <= 0.0 {
        0.0
    } else {
        (cost - lower_bound).max(0.0) / lower_bound
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backtrack::greedy_backtrack;
    use crate::cost::replication_only_cost;
    use crate::greedy_global::greedy_global;
    use crate::problem::testkit::*;
    use crate::solution::Placement;

    #[test]
    fn bound_is_below_greedy_and_backtrack() {
        for (cap, demand_level) in [(1000u64, 5u64), (2500, 10), (4000, 3)] {
            let p = line_problem(4, 5, 1000, cap, uniform_demand(4, 5, demand_level));
            let lb = replication_cost_lower_bound(&p);
            let greedy = replication_only_cost(&p, &greedy_global(&p).placement);
            let bt = greedy_backtrack(&p).final_cost;
            assert!(lb <= greedy + 1e-9, "LB {lb} > greedy {greedy}");
            assert!(lb <= bt + 1e-9, "LB {lb} > backtrack {bt}");
            assert!(lb >= 0.0);
        }
    }

    #[test]
    fn zero_capacity_bound_is_tight() {
        // Nothing can be replicated, but the bound may still assume the
        // (closer) neighbouring server holds a copy — which zero capacity
        // forbids — so it is a lower bound; for a single server there is no
        // neighbour and the bound must be exact.
        let p = line_problem(1, 3, 1000, 0, uniform_demand(1, 3, 10));
        let lb = replication_cost_lower_bound(&p);
        let actual = replication_only_cost(&p, &Placement::primaries_only(&p));
        assert!((lb - actual).abs() < 1e-9, "lb {lb} vs actual {actual}");
    }

    #[test]
    fn infinite_capacity_bound_is_zero() {
        let p = line_problem(3, 3, 1000, u64::MAX / 4, uniform_demand(3, 3, 10));
        assert_eq!(replication_cost_lower_bound(&p), 0.0);
    }

    #[test]
    fn bound_monotone_in_capacity() {
        let mut prev = f64::INFINITY;
        for cap in [0u64, 1000, 2000, 5000] {
            let p = line_problem(3, 5, 1000, cap, uniform_demand(3, 5, 10));
            let lb = replication_cost_lower_bound(&p);
            assert!(lb <= prev + 1e-9, "cap {cap}: {lb} > {prev}");
            prev = lb;
        }
    }

    #[test]
    fn greedy_gap_is_moderate_on_line_instances() {
        let p = line_problem(5, 8, 1000, 3000, uniform_demand(5, 8, 10));
        let lb = replication_cost_lower_bound(&p);
        let greedy = replication_only_cost(&p, &greedy_global(&p).placement);
        let gap = optimality_gap(greedy, lb);
        // The relaxation is loose (it lets every neighbour hold everything),
        // but greedy should still land within a small constant factor.
        assert!(gap < 20.0, "gap {gap}");
    }

    #[test]
    fn gap_of_zero_bound_is_zero() {
        assert_eq!(optimality_gap(123.0, 0.0), 0.0);
        assert_eq!(optimality_gap(50.0, 100.0), 0.0); // cost below bound clamps
        assert!((optimality_gap(150.0, 100.0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn fractional_knapsack_basics() {
        // cap 10: take all of (6, 5) then half of (4, 10) → 6 + 2 = 8.
        let items = vec![(6.0, 5u64), (4.0, 10u64)];
        assert!((fractional_knapsack(items, 10) - 8.0).abs() < 1e-12);
        // Zero-weight high-value items always taken.
        let items = vec![(3.0, 0u64), (1.0, 100u64)];
        assert!((fractional_knapsack(items, 0) - 3.0).abs() < 1e-12);
    }
}
