//! Figure 4: the same three-way CDF comparison as Figure 3, but with 10%
//! of requests hitting *expired* objects under strong consistency
//! (λ = 0.1): replicas stay consistent for free, cached copies must be
//! refreshed from the nearest replica.
//!
//! Paper-reported shape: hybrid still wins; its edge over replication drops
//! to ~30% while its edge over caching grows to ~20%.
//!
//! Run with `cargo run -p cdn-bench --release --bin fig4 -- --quick`;
//! `--help` lists the flags it accepts.

use cdn_bench::harness::{
    assert_sane, banner, flush, generate_scenario, run_strategies, summary_block, write_cdf_csvs,
    BenchArgs, SIMULATING,
};
use cdn_core::Strategy;
use cdn_workload::LambdaMode;

fn main() {
    let args = BenchArgs::parse("fig4", SIMULATING);
    let scale = args.scale;
    banner(
        "Figure 4: CDFs with 10% expired requests, strong consistency",
        scale,
    );
    let strategies = [Strategy::Replication, Strategy::Caching, Strategy::Hybrid];

    for (panel, capacity) in [("a", 0.05), ("b", 0.10)] {
        println!(
            "\n-- Figure 4({panel}): capacity {:.0}%, lambda = 0.10 --",
            capacity * 100.0
        );
        let config = args.config(capacity, 0.10, LambdaMode::Expired);
        let scenario = generate_scenario(&config);
        let results = run_strategies(&scenario, &strategies);
        assert_sane(&results);
        println!("\n{}", summary_block(&results));
        let gain = |b| results.improvement(Strategy::Hybrid, b).map(|g| 100.0 * g);
        if let Some(gain) = gain(Strategy::Replication) {
            println!("  hybrid vs replication: {gain:+.1}% mean latency (paper: ~30%)");
        }
        if let Some(gain) = gain(Strategy::Caching) {
            println!("  hybrid vs caching:     {gain:+.1}% mean latency (paper: ~20%)");
        }
        write_cdf_csvs(&format!("fig4{panel}"), &results);
    }
    flush();
}
