//! Property tests over random placement-problem instances.

use cdn_placement::{
    adhoc_split, greedy_global, hybrid::hybrid_greedy_paper, hybrid::paper_oracle_for,
    hybrid::pure_caching, predicted_cost, random_placement, replication_only_cost, HybridConfig,
    Nearest, Placement, PlacementProblem, RankedHolder,
};
use proptest::prelude::*;

/// Random but well-formed instance: symmetric server metric from random
/// coordinates on a line (guaranteeing the triangle inequality), random
/// primary distances beyond the servers, random demand/sizes/capacities.
fn arb_problem() -> impl Strategy<Value = PlacementProblem> {
    (2usize..6, 2usize..8, any::<u64>()).prop_map(|(n, m, seed)| {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let coords: Vec<i64> = (0..n).map(|_| rng.gen_range(0..30)).collect();
        let mut dist_ss = vec![0u32; n * n];
        for i in 0..n {
            for k in 0..n {
                if i != k {
                    // +1: servers are distinct nodes, so they are at least
                    // one hop apart (the metric stays triangle-respecting:
                    // both sides of the inequality gain at least as much).
                    dist_ss[i * n + k] = (coords[i] - coords[k]).unsigned_abs() as u32 + 1;
                }
            }
        }
        let mut dist_sp = vec![0u32; n * m];
        for i in 0..n {
            for j in 0..m {
                // Primaries at least as far as the whole server span.
                dist_sp[i * m + j] = 31 + rng.gen_range(0..20u32) + (coords[i] % 7) as u32;
            }
        }
        let site_bytes: Vec<u64> = (0..m).map(|_| rng.gen_range(500..3000)).collect();
        let capacities: Vec<u64> = (0..n).map(|_| rng.gen_range(0..8000)).collect();
        let demand: Vec<u64> = (0..n * m).map(|_| rng.gen_range(0..100)).collect();
        PlacementProblem::new(
            n,
            m,
            dist_ss,
            dist_sp,
            site_bytes,
            capacities,
            demand,
            vec![0.0; m],
            100.0,
            50,
            1.0,
        )
    })
}

/// Every holder of site `j` seen from server `i`, found by scanning column
/// `j` of the replica matrix: sorted by (distance, server index) with the
/// primary last among equals, then the SN pointer moved to the front.
fn column_scan_ranking(
    p: &PlacementProblem,
    pl: &Placement,
    i: usize,
    j: usize,
) -> Vec<RankedHolder> {
    let mut holders: Vec<RankedHolder> = (0..p.n_servers())
        .filter(|&k| pl.is_replicated(k, j))
        .map(|k| RankedHolder {
            holder: Nearest::Server(k as u32),
            dist: p.dist_servers(i, k),
        })
        .chain(std::iter::once(RankedHolder {
            holder: Nearest::Primary,
            dist: p.dist_primary(i, j),
        }))
        .collect();
    holders.sort_by_key(|h| {
        let index = match h.holder {
            Nearest::Server(k) => k,
            Nearest::Primary => u32::MAX,
        };
        (h.dist, index)
    });
    let head = holders
        .iter()
        .position(|h| h.holder == pl.nearest(i, j))
        .unwrap();
    holders[..=head].rotate_right(1);
    holders
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn holder_lists_match_a_column_scan_after_adds_and_removes(
        p in arb_problem(),
        ops in proptest::collection::vec((any::<usize>(), any::<usize>()), 0..40),
    ) {
        let mut pl = Placement::primaries_only(&p);
        for (i, j) in ops {
            let (i, j) = (i % p.n_servers(), j % p.m_sites());
            if pl.is_replicated(i, j) {
                pl.remove_replica(&p, i, j);
            } else if pl.fits(&p, i, j) {
                pl.add_replica(&p, i, j);
            }
        }
        pl.validate(&p);
        for j in 0..p.m_sites() {
            let column: Vec<usize> = (0..p.n_servers()).filter(|&k| pl.is_replicated(k, j)).collect();
            prop_assert_eq!(pl.replicators_of(j), column);
            for i in 0..p.n_servers() {
                prop_assert_eq!(pl.ranked_holders(&p, i, j), column_scan_ranking(&p, &pl, i, j));
            }
        }
    }

    #[test]
    fn greedy_placement_upholds_invariants(p in arb_problem()) {
        let out = greedy_global(&p);
        out.placement.validate(&p);
        prop_assert!(out.benefits.iter().all(|&b| b > 0.0));
        // Benefits are found greedily, so the trace is non-increasing.
        for w in out.benefits.windows(2) {
            prop_assert!(w[0] >= w[1] - 1e-9, "benefit increased: {:?}", w);
        }
    }

    #[test]
    fn greedy_cost_never_worse_than_primaries_only(p in arb_problem()) {
        let base = replication_only_cost(&p, &Placement::primaries_only(&p));
        let out = greedy_global(&p);
        prop_assert!(replication_only_cost(&p, &out.placement) <= base + 1e-9);
    }

    #[test]
    fn hybrid_upholds_invariants_and_beats_stand_alone(p in arb_problem()) {
        let hybrid = hybrid_greedy_paper(&p, &HybridConfig::default());
        hybrid.placement.validate(&p);
        prop_assert!(hybrid.final_cost <= hybrid.initial_cost + 1e-9);

        // Hybrid's predicted cost must not exceed pure caching (its start
        // state) nor pure replication evaluated under the same model
        // (greedy replicas, remaining space cached).
        let oracle = paper_oracle_for(&p);
        let caching = pure_caching(&p, &oracle);
        prop_assert!(hybrid.final_cost <= caching.final_cost + 1e-9,
            "hybrid {} > caching {}", hybrid.final_cost, caching.final_cost);
    }

    #[test]
    fn hybrid_hit_ratios_well_formed(p in arb_problem()) {
        let out = hybrid_greedy_paper(&p, &HybridConfig::default());
        for i in 0..p.n_servers() {
            for j in 0..p.m_sites() {
                let h = out.hit(i, j);
                prop_assert!((0.0..=1.0).contains(&h));
                if out.placement.is_replicated(i, j) {
                    prop_assert_eq!(h, 0.0);
                }
            }
        }
        let recomputed = predicted_cost(&p, &out.placement, |i, j| out.hit(i, j));
        prop_assert!((recomputed - out.final_cost).abs() < 1e-9);
    }

    #[test]
    fn adhoc_reserved_fraction_respected(p in arb_problem(), f in 0.0f64..1.0) {
        let pl = adhoc_split(&p, f);
        pl.validate(&p);
        for i in 0..p.n_servers() {
            let reserved = (p.capacities[i] as f64 * f).floor() as u64;
            prop_assert!(pl.free_bytes(i) >= reserved);
        }
    }

    #[test]
    fn random_placement_valid(p in arb_problem(), seed in any::<u64>()) {
        random_placement(&p, seed).validate(&p);
    }
}
