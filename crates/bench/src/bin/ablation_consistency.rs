//! Ablation H: strong vs weak cache consistency.
//!
//! The paper's §3.3 distinguishes strong consistency (accessed copies are
//! always fresh — its Figure 4 setting, where cached copies pay a refresh
//! round) from weak consistency (copies may be stale — typical proxy
//! behaviour). This ablation re-runs the λ = 10% experiment under both
//! regimes: weak consistency hands the caching mechanisms back most of what
//! staleness took away, while replication — consistent by push — is
//! unaffected. It quantifies what the CDN "pays" for its freshness
//! guarantee.
//!
//! Run with `cargo run -p cdn-bench --release --bin ablation_consistency -- --quick`;
//! `--help` lists the flags it accepts.

use cdn_bench::harness::{
    banner, flush, generate_scenario, record, write_csv, BenchArgs, SIMULATING,
};
use cdn_core::Strategy;
use cdn_sim::ConsistencyMode;
use cdn_workload::LambdaMode;

fn main() {
    let args = BenchArgs::parse("ablation_consistency", SIMULATING);
    let scale = args.scale;
    banner(
        "Ablation H: strong vs weak consistency (lambda = 10%)",
        scale,
    );
    let config = args.config(0.05, 0.10, LambdaMode::Expired);
    let scenario = generate_scenario(&config);

    let plans: Vec<_> = [Strategy::Replication, Strategy::Caching, Strategy::Hybrid]
        .iter()
        .map(|&s| (s, scenario.plan(s)))
        .collect();

    println!(
        "\n  {:<12} {:>14} {:>14} {:>14}",
        "consistency", "replication", "caching", "hybrid"
    );
    let mut rows = Vec::new();
    for (mode, label) in [
        (ConsistencyMode::Strong, "strong"),
        (ConsistencyMode::Weak, "weak"),
    ] {
        let mut cells = Vec::new();
        for (strategy, plan) in &plans {
            // Re-simulate under the given consistency regime.
            let mut scenario_cfg = scenario.config.clone();
            scenario_cfg.sim.consistency = mode;
            let report = cdn_sim::simulate_system(
                &scenario.problem,
                &plan.placement,
                &scenario.catalog,
                &scenario.trace,
                &scenario_cfg.sim,
                strategy.cache_factory(),
            );
            record(&format!("{label}:{}", strategy.name()), &report);
            cells.push(report.mean_latency_ms);
        }
        println!(
            "  {:<12} {:>14.2} {:>14.2} {:>14.2}",
            label, cells[0], cells[1], cells[2]
        );
        rows.push(format!(
            "{label},{:.3},{:.3},{:.3}",
            cells[0], cells[1], cells[2]
        ));
    }
    println!(
        "\n  replication is identical in both rows (replicas are always fresh);\n\
         \x20 the gap between the caching rows is the price of the freshness\n\
         \x20 guarantee — what a CDN pays to never serve a stale page."
    );
    write_csv(
        "ablation_consistency.csv",
        "consistency,replication_ms,caching_ms,hybrid_ms",
        &rows,
    );
    flush();
}
