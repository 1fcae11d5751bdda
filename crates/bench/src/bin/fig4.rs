//! Figure 4: the same three-way CDF comparison as Figure 3, but with 10%
//! of requests hitting *expired* objects under strong consistency
//! (λ = 0.1): replicas stay consistent for free, cached copies must be
//! refreshed from the nearest replica.
//!
//! Paper-reported shape: hybrid still wins; its edge over replication drops
//! to ~30% while its edge over caching grows to ~20%.
//!
//! Writes the CDFs, `fig4_summary.csv` and `fig4_claims.csv`.
//!
//! Run with `cargo run -p cdn-bench --release --bin fig4 -- --quick`;
//! `--help` lists the flags it accepts.

use cdn_bench::harness::{banner, cdf_figure, BenchArgs, SIMULATING};
use cdn_core::Strategy;
use cdn_workload::LambdaMode;

fn main() {
    let args = BenchArgs::parse("fig4", SIMULATING);
    banner(
        "Figure 4: CDFs with 10% expired requests, strong consistency",
        args.scale,
    );
    let panels = [("a", 0.05), ("b", 0.10)].map(|(panel, capacity)| {
        let config = args.config(capacity, 0.10, LambdaMode::Expired);
        let setting = format!("{:.0}% capacity", config.capacity_fraction * 100.0);
        (panel, setting, config)
    });
    cdf_figure(
        "fig4",
        &panels,
        &[Strategy::Replication, Strategy::Caching, Strategy::Hybrid],
        &[
            (Strategy::Replication, Some(30.0)),
            (Strategy::Caching, Some(20.0)),
        ],
    );
}
