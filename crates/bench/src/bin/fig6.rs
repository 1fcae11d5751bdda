//! Figure 6: accuracy of the analytical LRU model — the average cost per
//! request (in hops) the greedy hybrid algorithm *predicts* versus what
//! trace-driven simulation *measures*, across six parameter settings:
//! (capacity%, uncacheable%) ∈ {5, 10, 20} × {0, 10}.
//!
//! Paper-reported result: the model "tends to slightly overestimate the
//! total cost, especially for large buffer sizes, but the overall error is
//! less than 7%."
//!
//! Writes `fig6_model_accuracy.csv` and `fig6_claims.csv`.
//!
//! Run with `cargo run -p cdn-bench --release --bin fig6 -- --quick`;
//! `--help` lists the flags it accepts.

use cdn_bench::harness::{
    banner, claims_table, flush, generate_scenario, record, BenchArgs, Table, SIMULATING,
};
use cdn_core::Strategy;
use cdn_workload::LambdaMode;

/// The settings as (capacity, uncacheable fraction).
const SETTINGS: [(f64, f64); 6] = [
    (0.05, 0.0),
    (0.10, 0.0),
    (0.20, 0.0),
    (0.05, 0.10),
    (0.10, 0.10),
    (0.20, 0.10),
];

fn main() {
    let args = BenchArgs::parse("fig6", SIMULATING);
    banner("Figure 6: predicted vs actual cost per request", args.scale);

    let mut accuracy = Table::new(
        "fig6_model_accuracy.csv",
        "capacity_pc,uncacheable_pc,actual_hops,predicted_hops,error_pc",
    );
    let mut claims = claims_table("fig6");
    let largest = SETTINGS.iter().map(|s| s.0).fold(0.0, f64::max);
    let mut worst_err: f64 = 0.0;
    let mut at_largest = Vec::new();
    for (capacity, lambda) in SETTINGS {
        let config = args.config(capacity, lambda, LambdaMode::Uncacheable);
        let scenario = generate_scenario(&config);
        let plan = scenario.plan(Strategy::Hybrid);
        let predicted = plan.predicted_mean_hops(&scenario.problem);
        let report = scenario.simulate(&plan);
        record(
            &format!("cap{:.0}:unc{:.0}", capacity * 100.0, lambda * 100.0),
            &report,
        );
        let actual = report.mean_cost_hops;
        let err = if actual > 0.0 {
            100.0 * (predicted - actual) / actual
        } else {
            0.0
        };
        worst_err = worst_err.max(err.abs());
        if capacity == largest {
            at_largest.push((lambda, err));
        }
        accuracy.row(format!(
            "{:.0},{:.0},{actual:.4},{predicted:.4},{err:.3}",
            capacity * 100.0,
            lambda * 100.0
        ));
    }
    claims.claim(
        "worst absolute error over the six settings",
        "< 7%",
        &format!("{worst_err:.2}%"),
        worst_err < 7.0,
    );
    for (lambda, err) in at_largest {
        claims.claim(
            &format!(
                "model over-estimates cost ({:.0}% capacity and {:.0}% uncacheable)",
                largest * 100.0,
                lambda * 100.0
            ),
            "over-estimates",
            &format!("{err:+.2}%"),
            err > 0.0,
        );
    }
    accuracy.finish();
    claims.finish();
    flush();
}
