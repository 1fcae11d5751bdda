//! Ablation E: popularity drift.
//!
//! The paper's workload is stationary, which favours *both* techniques
//! equally at planning time but hides a structural difference: replicas
//! store whole sites (drift-proof), caches store the instantaneous hot set
//! (must re-learn after every change). We sweep the drift rate — one
//! rank-rotation every `period` requests — and measure how the three
//! mechanisms degrade. This quantifies the paper's §2.1 intuition that
//! caching is "inherently dynamic".
//!
//! Run with `cargo run -p cdn-bench --release --bin ablation_drift -- --quick`;
//! `--help` lists the flags it accepts.

use cdn_bench::harness::{
    banner, flush, generate_scenario, record, write_csv, BenchArgs, SIMULATING,
};
use cdn_core::Strategy;
use cdn_sim::simulate_system_streams;
use cdn_workload::{DriftConfig, Drifted, LambdaMode};

fn main() {
    let args = BenchArgs::parse("ablation_drift", SIMULATING);
    let scale = args.scale;
    banner("Ablation E: popularity drift vs delivery mechanism", scale);
    let config = args.config(0.05, 0.0, LambdaMode::Uncacheable);
    let scenario = generate_scenario(&config);
    let l = scenario.catalog.object_zipf.n() as u32;
    let lengths: Vec<u64> = (0..scenario.trace.n_servers())
        .map(|i| scenario.trace.len_for_server(i))
        .collect();

    let plans: Vec<_> = [Strategy::Replication, Strategy::Caching, Strategy::Hybrid]
        .iter()
        .map(|&s| (s, scenario.plan(s)))
        .collect();

    // Drift periods in requests-per-rotation; u64::MAX = stationary.
    let periods: &[(u64, &str)] = &[
        (u64::MAX, "stationary"),
        (100_000, "slow"),
        (10_000, "medium"),
        (1_000, "fast"),
    ];

    println!(
        "\n  {:<12} {:>14} {:>14} {:>14}",
        "drift", "replication", "caching", "hybrid"
    );
    let mut rows = Vec::new();
    for &(period, label) in periods {
        let mut cells = Vec::new();
        for (strategy, plan) in &plans {
            let factory: Option<&(dyn Fn(u64) -> Box<dyn cdn_core::cache::Cache> + Sync)> =
                if *strategy == Strategy::Replication {
                    Some(&|_| Box::new(cdn_core::cache::LruCache::new(0)))
                } else {
                    None
                };
            let report = simulate_system_streams(
                &scenario.problem,
                &plan.placement,
                &scenario.catalog,
                &scenario.config.sim,
                factory,
                &lengths,
                |server| {
                    Drifted::new(
                        scenario.trace.stream_for_server(server),
                        DriftConfig {
                            rotation_period: period,
                            objects_per_site: l,
                        },
                    )
                },
            );
            record(&format!("{label}:{}", strategy.name()), &report);
            cells.push(report.mean_latency_ms);
        }
        println!(
            "  {:<12} {:>14.2} {:>14.2} {:>14.2}",
            label, cells[0], cells[1], cells[2]
        );
        rows.push(format!(
            "{label},{period},{:.3},{:.3},{:.3}",
            cells[0], cells[1], cells[2]
        ));
    }
    println!(
        "\n  replication is flat by construction (whole-site replicas cover\n\
         \x20 every object); caching and the hybrid's cache component lose hits\n\
         \x20 as rotations outpace the LRU's re-learning, converging toward the\n\
         \x20 replication curve at extreme drift."
    );
    write_csv(
        "ablation_drift.csv",
        "drift,period_requests,replication_ms,caching_ms,hybrid_ms",
        &rows,
    );
    flush();
}
