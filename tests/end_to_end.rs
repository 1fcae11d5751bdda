//! End-to-end integration: generate a scenario, plan all strategies,
//! simulate, and check the paper's headline ordering.

use cdn_core::sim::HOP_DELAY_US;
use cdn_core::{compare_strategies, Scenario, ScenarioConfig, Strategy};

/// The paper's 20 ms per hop, the latency floor of any served request.
const HOP_DELAY_MS: f64 = HOP_DELAY_US as f64 / 1000.0;

fn scenario() -> Scenario {
    Scenario::generate(&ScenarioConfig::small())
}

#[test]
fn hybrid_beats_pure_strategies_in_simulation() {
    let s = scenario();
    let cmp = compare_strategies(
        &s,
        &[Strategy::Replication, Strategy::Caching, Strategy::Hybrid],
    );
    let hybrid = cmp.row(Strategy::Hybrid).unwrap().report.mean_latency_ms;
    let caching = cmp.row(Strategy::Caching).unwrap().report.mean_latency_ms;
    let replication = cmp
        .row(Strategy::Replication)
        .unwrap()
        .report
        .mean_latency_ms;
    // The paper's core claim. Simulated with real caches, so allow a hair
    // of noise (2%) rather than strict dominance.
    assert!(
        hybrid <= caching * 1.02,
        "hybrid {hybrid} ms vs caching {caching} ms"
    );
    assert!(
        hybrid <= replication * 1.02,
        "hybrid {hybrid} ms vs replication {replication} ms"
    );
}

#[test]
fn simulation_accounting_is_consistent() {
    let s = scenario();
    for strategy in [Strategy::Replication, Strategy::Caching, Strategy::Hybrid] {
        let plan = s.plan(strategy);
        plan.placement.validate(&s.problem);
        let report = s.simulate(&plan);
        assert_eq!(
            report.total_requests,
            s.problem.grand_total(),
            "{}",
            strategy.name()
        );
        assert!(report.measured_requests > 0);
        assert_eq!(report.histogram.count(), report.measured_requests);
        assert_eq!(
            report.local_requests,
            report.cache_hits + report.replica_hits
        );
        if strategy == Strategy::Replication {
            assert_eq!(report.cache_hits, 0, "replication must not cache");
        }
        if strategy == Strategy::Caching {
            assert_eq!(report.replica_hits, 0, "caching must not replicate");
        }
        // All latencies are at least one hop (20 ms) and the mean sits
        // within the histogram's range.
        assert!(report.mean_latency_ms >= HOP_DELAY_MS);
        assert!(report.mean_latency_ms <= report.histogram.max());
    }
}

#[test]
fn latency_cdf_shapes_match_paper_description() {
    // "a large fraction of the requests are satisfied locally ... the CDF
    // curve of the hybrid scheme initially follows the caching curve."
    let s = scenario();
    let hop = HOP_DELAY_MS;
    let caching = s.simulate(&s.plan(Strategy::Caching));
    let replication = s.simulate(&s.plan(Strategy::Replication));
    let hybrid = s.simulate(&s.plan(Strategy::Hybrid));

    // At the first-hop latency, caching and hybrid have mass; replication
    // has only what's replicated (nothing at the first hop here unless a
    // replica landed in the same stub, which capacity makes rare but not
    // impossible — so compare against the cached systems instead).
    let c1 = caching.histogram.fraction_at_or_below(hop);
    let h1 = hybrid.histogram.fraction_at_or_below(hop);
    let r1 = replication.histogram.fraction_at_or_below(hop);
    assert!(c1 > 0.2, "caching first-hop mass {c1}");
    assert!(h1 > 0.2, "hybrid first-hop mass {h1}");
    assert!(
        h1 >= r1,
        "hybrid ({h1}) below replication ({r1}) at first hop"
    );

    // The hybrid tail must not be worse than caching's (replicas bound the
    // worst case).
    assert!(hybrid.histogram.percentile(0.99) <= caching.histogram.percentile(0.99));
}

#[test]
fn expired_scenario_still_favours_hybrid() {
    let mut config = ScenarioConfig::small();
    config.lambda = 0.10;
    config.lambda_mode = cdn_core::workload::LambdaMode::Expired;
    let s = Scenario::generate(&config);
    let cmp = compare_strategies(
        &s,
        &[Strategy::Replication, Strategy::Caching, Strategy::Hybrid],
    );
    let hybrid = cmp.row(Strategy::Hybrid).unwrap().report.mean_latency_ms;
    let caching = cmp.row(Strategy::Caching).unwrap().report.mean_latency_ms;
    let replication = cmp
        .row(Strategy::Replication)
        .unwrap()
        .report
        .mean_latency_ms;
    assert!(hybrid <= caching * 1.02);
    assert!(hybrid <= replication * 1.02);
}
