//! Figure 3: response-time CDFs of Replication vs Caching vs Hybrid with
//! every object cacheable (λ = 0), at 5% and 10% server capacity.
//!
//! Paper-reported shape: replication's CDF is a tight normal-ish ramp;
//! caching has a big first-hop step then a heavy tail; hybrid follows the
//! caching curve early and the replication curve late, winning overall —
//! "the hybrid approach outperformed the pure replication policy by
//! approximately 40% on average, and the pure caching by 15% roughly."
//!
//! Writes the CDFs, `fig3_summary.csv` and `fig3_claims.csv`.
//!
//! Run with `cargo run -p cdn-bench --release --bin fig3 -- --quick`;
//! `--help` lists the flags it accepts.

use cdn_bench::harness::{banner, cdf_figure, BenchArgs, SIMULATING};
use cdn_core::Strategy;
use cdn_workload::LambdaMode;

fn main() {
    let args = BenchArgs::parse("fig3", SIMULATING);
    banner(
        "Figure 3: CDFs, all objects cacheable (lambda = 0)",
        args.scale,
    );
    let panels = [("a", 0.05), ("b", 0.10)].map(|(panel, capacity)| {
        let config = args.config(capacity, 0.0, LambdaMode::Uncacheable);
        let setting = format!("{:.0}% capacity", config.capacity_fraction * 100.0);
        (panel, setting, config)
    });
    cdf_figure(
        "fig3",
        &panels,
        &[Strategy::Replication, Strategy::Caching, Strategy::Hybrid],
        &[
            (Strategy::Replication, Some(40.0)),
            (Strategy::Caching, Some(15.0)),
        ],
    );
}
