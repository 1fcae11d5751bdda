//! Figure 3: response-time CDFs of Replication vs Caching vs Hybrid with
//! every object cacheable (λ = 0), at 5% and 10% server capacity.
//!
//! Paper-reported shape: replication's CDF is a tight normal-ish ramp;
//! caching has a big first-hop step then a heavy tail; hybrid follows the
//! caching curve early and the replication curve late, winning overall —
//! "the hybrid approach outperformed the pure replication policy by
//! approximately 40% on average, and the pure caching by 15% roughly."
//!
//! Run with `cargo run -p cdn-bench --release --bin fig3 -- --quick`;
//! `--help` lists the flags it accepts.

use cdn_bench::harness::{
    assert_sane, banner, flush, generate_scenario, run_strategies, summary_block, write_cdf_csvs,
    BenchArgs, SIMULATING,
};
use cdn_core::Strategy;
use cdn_workload::LambdaMode;

fn main() {
    let args = BenchArgs::parse("fig3", SIMULATING);
    let scale = args.scale;
    banner("Figure 3: CDFs, all objects cacheable (lambda = 0)", scale);
    let strategies = [Strategy::Replication, Strategy::Caching, Strategy::Hybrid];

    for (panel, capacity) in [("a", 0.05), ("b", 0.10)] {
        println!(
            "\n-- Figure 3({panel}): capacity {:.0}% --",
            capacity * 100.0
        );
        let config = args.config(capacity, 0.0, LambdaMode::Uncacheable);
        let scenario = generate_scenario(&config);
        let results = run_strategies(&scenario, &strategies);
        assert_sane(&results);
        println!("\n{}", summary_block(&results));
        let gain = |b| results.improvement(Strategy::Hybrid, b).map(|g| 100.0 * g);
        if let Some(gain) = gain(Strategy::Replication) {
            println!("  hybrid vs replication: {gain:+.1}% mean latency (paper: ~40%)");
        }
        if let Some(gain) = gain(Strategy::Caching) {
            println!("  hybrid vs caching:     {gain:+.1}% mean latency (paper: ~15%)");
        }
        write_cdf_csvs(&format!("fig3{panel}"), &results);
    }
    flush();
}
