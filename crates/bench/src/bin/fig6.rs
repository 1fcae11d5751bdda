//! Figure 6: accuracy of the analytical LRU model — the average cost per
//! request (in hops) the greedy hybrid algorithm *predicts* versus what
//! trace-driven simulation *measures*, across six parameter settings:
//! (capacity%, uncacheable%) ∈ {5, 10, 20} × {0, 10}.
//!
//! Paper-reported result: the model "tends to slightly overestimate the
//! total cost, especially for large buffer sizes, but the overall error is
//! less than 7%."
//!
//! Run with `cargo run -p cdn-bench --release --bin fig6 -- --quick`;
//! `--help` lists the flags it accepts.

use cdn_bench::harness::{
    banner, flush, generate_scenario, record, write_csv, BenchArgs, SIMULATING,
};
use cdn_core::Strategy;
use cdn_workload::LambdaMode;

fn main() {
    let args = BenchArgs::parse("fig6", SIMULATING);
    let scale = args.scale;
    banner("Figure 6: predicted vs actual cost per request", scale);

    println!(
        "\n  {:<22} {:>10} {:>10} {:>8}",
        "setting (cap%, unc%)", "actual", "predicted", "error%"
    );
    let mut rows = Vec::new();
    let mut worst_err: f64 = 0.0;
    for (capacity, lambda) in [
        (0.05, 0.0),
        (0.10, 0.0),
        (0.20, 0.0),
        (0.05, 0.10),
        (0.10, 0.10),
        (0.20, 0.10),
    ] {
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
        let label = format!("({:.0},{:.0})", capacity * 100.0, lambda * 100.0);
        println!("  {label:<22} {actual:>10.3} {predicted:>10.3} {err:>+8.2}");
        rows.push(format!(
            "{:.0},{:.0},{actual:.4},{predicted:.4},{err:.3}",
            capacity * 100.0,
            lambda * 100.0
        ));
    }
    println!("\n  worst |error|: {worst_err:.2}% (paper reports < 7%)");
    write_csv(
        "fig6_model_accuracy.csv",
        "capacity_pc,uncacheable_pc,actual_hops,predicted_hops,error_pc",
        &rows,
    );
    flush();
}
