//! Figure 5: the hybrid algorithm against ad-hoc fixed storage splits
//! (20% cache / 80% replication and 80% cache / 20% replication) at 5%
//! capacity, for λ = 0 and λ = 0.1.
//!
//! Paper-reported result: "ad-hoc approaches are not very effective. The
//! hybrid algorithm constantly outperforms both alternatives." (Further
//! splits — 40%, 60% — are covered by `ablation_split`.)
//!
//! Run with `cargo run -p cdn-bench --release --bin fig5 -- --quick`;
//! `--help` lists the flags it accepts.

use cdn_bench::harness::{
    assert_sane, banner, flush, generate_scenario, run_strategies, summary_block, write_cdf_csvs,
    BenchArgs, SIMULATING,
};
use cdn_core::Strategy;
use cdn_workload::LambdaMode;

fn main() {
    let args = BenchArgs::parse("fig5", SIMULATING);
    let scale = args.scale;
    banner("Figure 5: hybrid vs ad-hoc fixed splits", scale);
    let strategies = [
        Strategy::Hybrid,
        Strategy::AdHoc {
            cache_fraction: 0.2,
        },
        Strategy::AdHoc {
            cache_fraction: 0.8,
        },
    ];

    for (panel, lambda, mode) in [
        ("a", 0.0, LambdaMode::Uncacheable),
        ("b", 0.10, LambdaMode::Expired),
    ] {
        println!(
            "\n-- Figure 5({panel}): capacity 5%, lambda = {:.0}% --",
            lambda * 100.0
        );
        let config = args.config(0.05, lambda, mode);
        let scenario = generate_scenario(&config);
        let results = run_strategies(&scenario, &strategies);
        assert_sane(&results);
        println!("\n{}", summary_block(&results));
        for fraction in [0.2, 0.8] {
            let adhoc = Strategy::AdHoc {
                cache_fraction: fraction,
            };
            if let Some(gain) = results.improvement(Strategy::Hybrid, adhoc) {
                println!(
                    "  hybrid vs {:.0}%-cache ad-hoc: {:+.1}% mean latency",
                    fraction * 100.0,
                    gain * 100.0
                );
            }
        }
        write_cdf_csvs(&format!("fig5{panel}"), &results);
    }
    flush();
}
