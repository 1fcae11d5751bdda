//! Flash crowd: what happens when one hosted site suddenly becomes an
//! order of magnitude hotter than planned?
//!
//! We plan placements against the *normal* demand, then replay a trace in
//! which site 0's request volume has exploded tenfold. Pure replication
//! cannot react (the replica set is static and site 0 may not be widely
//! replicated); the hybrid system's caches absorb the surge because LRU
//! adapts to the observed stream, not the planning-time statistics.
//!
//! ```text
//! cargo run --release --example flash_crowd
//! ```

use cdn_core::workload::{DemandMatrix, LambdaMode, TraceSpec};
use cdn_core::{Scenario, ScenarioConfig, Strategy};
use cdn_sim::simulate_system;

fn main() {
    let config = ScenarioConfig::small();
    let scenario = Scenario::generate(&config);
    let n = scenario.problem.n_servers();
    let m = scenario.problem.m_sites();

    // Plans are made against normal demand.
    let replication = scenario.plan(Strategy::Replication);
    let hybrid = scenario.plan(Strategy::Hybrid);

    // The flash crowd: site 0 becomes 10x hotter at every server.
    let hot_site = 0usize;
    let mut surged = Vec::with_capacity(n * m);
    for i in 0..n {
        for j in 0..m {
            let r = scenario.demand.requests(i, j);
            surged.push(if j == hot_site { r * 10 } else { r });
        }
    }
    let surged_demand = DemandMatrix::from_raw(n, m, surged);
    let surged_trace = TraceSpec::new(
        &surged_demand,
        scenario.catalog.object_zipf.clone(),
        config.lambda,
        LambdaMode::Uncacheable,
        config.seed ^ 0xf1a5,
    );

    println!(
        "flash crowd on site {hot_site}: {} -> {} requests",
        scenario.demand.site_total(hot_site),
        surged_demand.site_total(hot_site)
    );

    for (name, plan) in [("replication", &replication), ("hybrid", &hybrid)] {
        let factory = plan.strategy.cache_factory();
        let normal = simulate_system(
            &scenario.problem,
            &plan.placement,
            &scenario.catalog,
            &scenario.trace,
            &config.sim,
            factory,
        );
        let surge = simulate_system(
            &scenario.problem,
            &plan.placement,
            &scenario.catalog,
            &surged_trace,
            &config.sim,
            factory,
        );
        println!(
            "{name:<12} normal: {:>7.2} ms   flash crowd: {:>7.2} ms   degradation: {:>+6.1}%",
            normal.mean_latency_ms,
            surge.mean_latency_ms,
            100.0 * (surge.mean_latency_ms - normal.mean_latency_ms) / normal.mean_latency_ms,
        );
    }

    println!(
        "\nthe hybrid system's first-hop caches soak up the repeated hot-site\n\
         requests, so its latency degrades less (or even improves) under the\n\
         surge, while static replication pays the full redirect cost for\n\
         every unplanned request."
    );
}
