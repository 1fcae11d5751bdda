//! Machine-readable simulator-scaling benchmark: `BENCH_parallel.json`.
//!
//! Asks one question: does the sharded trace-driven simulator scale with
//! threads and stay bit-identical? The scenario is generated once and
//! given one fixed placement, each server's own greedy knapsack
//! (`cdn_placement::greedy_local`, with no model cost prediction), so the
//! 1-thread and N-thread arms (`--threads <n>`, default all cores) time
//! only the simulation, and the `"work"` section holds only `sim.*`
//! counters. Planner time is `bench_placement`'s question.
//!
//! `bench_parallel --help` lists the flags it accepts.

use cdn_bench::harness::{banner, one_vs_n, progress, record, BenchArgs, SIMULATING};
use cdn_core::{Scenario, Strategy};
use cdn_placement::greedy_local;
use cdn_sim::simulate_system;
use cdn_workload::LambdaMode;
use std::fmt::Write as _;

fn main() {
    let args = BenchArgs::parse("bench_parallel", SIMULATING);
    let scale = args.scale;
    banner(
        "bench_parallel: simulation wall-clock, 1 thread vs N",
        scale,
    );

    let config = args.config(0.05, 0.0, LambdaMode::Uncacheable);
    progress("generating scenario");
    let scenario = Scenario::generate(&config);
    progress("placing replicas: greedy-local");
    let placement = greedy_local(&scenario.problem);
    let strategy = Strategy::GreedyLocal;
    println!(
        "  placement: {} ({} replicas)",
        strategy.name(),
        placement.replica_count()
    );

    one_vs_n(
        &args,
        "BENCH_parallel.json",
        |timings| {
            timings.time("simulation", || {
                simulate_system(
                    &scenario.problem,
                    &placement,
                    &scenario.catalog,
                    &scenario.trace,
                    &config.sim,
                    strategy.cache_factory(),
                )
            })
        },
        |a, b| a == b,
        |[(_, base, _), (multi_timings, multi, _)]| {
            record(&format!("t1:{}", strategy.name()), base);
            record(
                &format!("t{}:{}", multi_timings.threads, strategy.name()),
                multi,
            );
            let shards = config
                .sim
                .shards
                .unwrap_or_else(|| config.hosts.n_servers.min(cdn_sim::MAX_DEFAULT_SHARDS));
            let mut json = String::new();
            let _ = writeln!(json, "  \"scale\": \"{}\",", scale.label());
            let _ = writeln!(json, "  \"strategy\": \"{}\",", strategy.name());
            let _ = writeln!(json, "  \"replicas\": {},", placement.replica_count());
            let _ = writeln!(json, "  \"shards\": {shards},");
            json
        },
    );
}
