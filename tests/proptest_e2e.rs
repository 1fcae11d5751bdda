//! End-to-end property tests: random small scenarios through the whole
//! pipeline, checking the invariants the paper's conclusions rest on.

use cdn_core::sim::HOP_DELAY_US;
use cdn_core::{Scenario, ScenarioConfig, Strategy};
use proptest::prelude::*;
// `cdn_core::Strategy` shadows the prelude's trait of the same name; bring
// the trait's methods back into scope anonymously.
use proptest::strategy::Strategy as _;

/// Random small-but-valid scenario configurations.
fn arb_config() -> impl proptest::strategy::Strategy<Value = ScenarioConfig> {
    (
        2usize..5,    // servers
        4usize..10,   // sites
        20usize..80,  // objects per site
        0.05f64..0.5, // capacity fraction
        0.0f64..0.3,  // lambda
        any::<u64>(), // seed
        0.5f64..1.3,  // theta
    )
        .prop_map(|(n, m, l, capacity, lambda, seed, theta)| {
            let mut cfg = ScenarioConfig::small();
            cfg.hosts.n_servers = n;
            cfg.hosts.m_primaries = m;
            cfg.workload.m_sites = m;
            cfg.workload.objects_per_site = l;
            cfg.workload.base_requests = 1500;
            cfg.workload.theta = theta;
            cfg.capacity_fraction = capacity;
            cfg.lambda = lambda;
            cfg.seed = seed;
            cfg
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn hybrid_prediction_dominates_pure_strategies(cfg in arb_config()) {
        let s = Scenario::generate(&cfg);
        let hybrid = s.plan(Strategy::Hybrid).predicted_cost;
        let caching = s.plan(Strategy::Caching).predicted_cost;
        let replication = s.plan(Strategy::Replication).predicted_cost;
        // Guaranteed by construction: the hybrid starts from the pure-
        // caching state and only accepts strictly improving replicas.
        prop_assert!(hybrid <= caching + 1e-6,
            "hybrid {hybrid} > caching {caching}");
        // NOT guaranteed: the hybrid greedy is myopic. If every single
        // replica has negative marginal benefit against the predicted
        // cache value, it stops — even on instances where filling the
        // disks with replicas (ignoring the cache entirely) would have
        // been better. Property testing found such instances a few
        // percent apart (see EXPERIMENTS.md "greedy myopia"), so we only
        // assert the hybrid is never *catastrophically* behind.
        prop_assert!(hybrid <= replication * 1.25 + 1e-6,
            "hybrid {hybrid} far above replication {replication}");
    }

    #[test]
    fn simulation_identities_hold_for_random_scenarios(cfg in arb_config()) {
        let s = Scenario::generate(&cfg);
        for strategy in [Strategy::Caching, Strategy::Hybrid] {
            let plan = s.plan(strategy);
            plan.placement.validate(&s.problem);
            let report = s.simulate(&plan);
            prop_assert_eq!(report.total_requests, s.problem.grand_total());
            prop_assert_eq!(
                report.local_requests + report.peer_fetches + report.origin_fetches,
                report.measured_requests
            );
            prop_assert_eq!(report.histogram.count(), report.measured_requests);
            prop_assert!(report.mean_latency_ms >= HOP_DELAY_US as f64 / 1000.0 - 1e-9);
            prop_assert!(report.mean_cost_hops >= 0.0);
        }
    }

    #[test]
    fn predicted_cost_tracks_simulated_cost_loosely(cfg in arb_config()) {
        // The Figure-6 property at arbitrary small scale: the planner's
        // prediction and the simulation should be the same order of
        // magnitude (tight bounds are asserted at fixed scale elsewhere;
        // random tiny scenarios are noisy).
        let s = Scenario::generate(&cfg);
        let plan = s.plan(Strategy::Hybrid);
        let predicted = plan.predicted_mean_hops(&s.problem);
        let actual = s.simulate(&plan).mean_cost_hops;
        if actual > 0.5 {
            let ratio = predicted / actual;
            prop_assert!((0.5..=2.0).contains(&ratio),
                "predicted {predicted} vs actual {actual}");
        }
    }

    #[test]
    fn capacity_is_never_exceeded_by_any_strategy(cfg in arb_config()) {
        let s = Scenario::generate(&cfg);
        for strategy in [
            Strategy::Replication,
            Strategy::Hybrid,
            Strategy::AdHoc { cache_fraction: 0.4 },
            Strategy::GreedyLocal,
            Strategy::Popularity,
        ] {
            let plan = s.plan(strategy);
            // validate() checks byte accounting including capacity.
            plan.placement.validate(&s.problem);
        }
    }
}
