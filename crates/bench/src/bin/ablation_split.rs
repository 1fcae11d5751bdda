//! Ablation B: the full cache-fraction sweep the paper mentions but does
//! not plot ("further experiments with 40% and 60% cache sizes ... confirm
//! this"). Sweeps the ad-hoc split from pure replication (0% cache) to
//! pure caching (100%) and overlays the hybrid algorithm's operating
//! point.
//!
//! Run with `cargo run -p cdn-bench --release --bin ablation_split -- --quick`;
//! `--help` lists the flags it accepts.

use cdn_bench::harness::{
    banner, flush, generate_scenario, run_strategies, BenchArgs, Table, SIMULATING,
};
use cdn_core::Strategy;
use cdn_workload::LambdaMode;

fn main() {
    let args = BenchArgs::parse("ablation_split", SIMULATING);
    banner(
        "Ablation B: cache-fraction sweep vs the hybrid optimum",
        args.scale,
    );
    let config = args.config(0.05, 0.0, LambdaMode::Uncacheable);
    let scenario = generate_scenario(&config);

    let mut strategies = vec![Strategy::Replication];
    for fraction in [0.2, 0.4, 0.6, 0.8] {
        strategies.push(Strategy::AdHoc {
            cache_fraction: fraction,
        });
    }
    strategies.push(Strategy::Caching);
    strategies.push(Strategy::Hybrid);

    let results = run_strategies(&scenario, &strategies);

    let mut table = Table::new(
        "ablation_split.csv",
        "strategy,mean_latency_ms,mean_cost_hops,replicas",
    );
    for r in &results.rows {
        table.row(format!(
            "{},{:.3},{:.4},{}",
            r.strategy.name(),
            r.report.mean_latency_ms,
            r.report.mean_cost_hops,
            r.plan.placement.replica_count()
        ));
    }
    table.finish();
    flush();
}
