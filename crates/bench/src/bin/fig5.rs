//! Figure 5: the hybrid algorithm against ad-hoc fixed storage splits
//! (20% cache / 80% replication and 80% cache / 20% replication) at 5%
//! capacity, for λ = 0 and λ = 0.1.
//!
//! Paper-reported result: "ad-hoc approaches are not very effective. The
//! hybrid algorithm constantly outperforms both alternatives." (Further
//! splits — 40%, 60% — are covered by `ablation_split`.)
//!
//! Writes the CDFs, `fig5_summary.csv` and `fig5_claims.csv`.
//!
//! Run with `cargo run -p cdn-bench --release --bin fig5 -- --quick`;
//! `--help` lists the flags it accepts.

use cdn_bench::harness::{banner, cdf_figure, BenchArgs, SIMULATING};
use cdn_core::Strategy;
use cdn_workload::LambdaMode;

fn main() {
    let args = BenchArgs::parse("fig5", SIMULATING);
    banner("Figure 5: hybrid vs ad-hoc fixed splits", args.scale);
    let [a20, a80] = [0.2, 0.8].map(|cache_fraction| Strategy::AdHoc { cache_fraction });
    let panels = [
        ("a", 0.0, LambdaMode::Uncacheable),
        ("b", 0.10, LambdaMode::Expired),
    ]
    .map(|(panel, lambda, mode)| {
        (
            panel,
            format!("lambda = {lambda}"),
            args.config(0.05, lambda, mode),
        )
    });
    cdf_figure(
        "fig5",
        &panels,
        &[Strategy::Hybrid, a20, a80],
        &[(a20, None), (a80, None)],
    );
}
