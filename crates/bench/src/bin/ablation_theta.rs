//! Ablation A: sensitivity to the Zipf exponent θ.
//!
//! The paper claims (§5.2) that "ad-hoc approaches are sensitive to changes
//! in the Zipf parameter θ ... The hybrid algorithm, however, takes the
//! Zipf parameter as input and defines a cache size that leads to higher
//! performance." This sweep quantifies that: for each θ we compare the
//! hybrid against the two fixed splits and report who wins.
//!
//! Run with `cargo run -p cdn-bench --release --bin ablation_theta -- --quick`;
//! `--help` lists the flags it accepts.

use cdn_bench::harness::{
    banner, flush, generate_scenario, run_strategies, BenchArgs, Table, SIMULATING,
};
use cdn_core::Strategy;
use cdn_workload::LambdaMode;

fn main() {
    let args = BenchArgs::parse("ablation_theta", SIMULATING);
    banner("Ablation A: Zipf-theta sensitivity", args.scale);
    let [a20, a80] = [0.2, 0.8].map(|cache_fraction| Strategy::AdHoc { cache_fraction });
    let strategies = [Strategy::Hybrid, a20, a80];

    let mut table = Table::new(
        "ablation_theta.csv",
        "theta,hybrid_ms,adhoc20_ms,adhoc80_ms,hybrid_replicas",
    );
    for theta in [0.6, 0.8, 1.0, 1.2] {
        let mut config = args.config(0.05, 0.0, LambdaMode::Uncacheable);
        config.workload.theta = theta;
        let results = run_strategies(&generate_scenario(&config), &strategies);
        // Rows come in `strategies` order: hybrid, then the two splits.
        let [hybrid_ms, a20_ms, a80_ms] = [0, 1, 2].map(|i| results.rows[i].report.mean_latency_ms);
        let replicas = results.rows[0].plan.placement.replica_count();
        table.row(format!(
            "{theta},{hybrid_ms:.3},{a20_ms:.3},{a80_ms:.3},{replicas}"
        ));
    }
    table.finish();
    println!(
        "\n  as theta falls (flatter popularity) caching loses power and the\n\
         \x20 80%-cache split suffers; as theta rises the 20%-cache split wastes\n\
         \x20 space on replicas the cache would cover. The hybrid re-balances\n\
         \x20 its replica count with theta and should track the winner at both ends."
    );
    flush();
}
