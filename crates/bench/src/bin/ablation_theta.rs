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
    banner, flush, generate_scenario, run_strategies, write_csv, BenchArgs, SIMULATING,
};
use cdn_core::Strategy;
use cdn_workload::LambdaMode;

fn main() {
    let args = BenchArgs::parse("ablation_theta", SIMULATING);
    let scale = args.scale;
    banner("Ablation A: Zipf-theta sensitivity", scale);
    let strategies = [
        Strategy::Hybrid,
        Strategy::AdHoc {
            cache_fraction: 0.2,
        },
        Strategy::AdHoc {
            cache_fraction: 0.8,
        },
    ];

    let mut rows = Vec::new();
    println!(
        "\n  {:>5} {:>12} {:>12} {:>12} {:>16}",
        "theta", "hybrid_ms", "adhoc20_ms", "adhoc80_ms", "hybrid replicas"
    );
    for theta in [0.6, 0.8, 1.0, 1.2] {
        let mut config = args.config(0.05, 0.0, LambdaMode::Uncacheable);
        config.workload.theta = theta;
        let scenario = generate_scenario(&config);
        let results = run_strategies(&scenario, &strategies);
        let ms = |s: Strategy| {
            results
                .row(s)
                .map(|r| r.report.mean_latency_ms)
                .unwrap_or(f64::NAN)
        };
        let hybrid = ms(Strategy::Hybrid);
        let a20 = ms(Strategy::AdHoc {
            cache_fraction: 0.2,
        });
        let a80 = ms(Strategy::AdHoc {
            cache_fraction: 0.8,
        });
        let replicas = results
            .row(Strategy::Hybrid)
            .map(|r| r.plan.placement.replica_count())
            .unwrap_or(0);
        println!("  {theta:>5.1} {hybrid:>12.2} {a20:>12.2} {a80:>12.2} {replicas:>16}");
        rows.push(format!("{theta},{hybrid:.3},{a20:.3},{a80:.3},{replicas}"));
    }
    println!(
        "\n  as theta falls (flatter popularity) caching loses power and the\n\
         \x20 80%-cache split suffers; as theta rises the 20%-cache split wastes\n\
         \x20 space on replicas the cache would cover. The hybrid re-balances\n\
         \x20 its replica count with theta and should track the winner at both ends."
    );
    write_csv(
        "ablation_theta.csv",
        "theta,hybrid_ms,adhoc20_ms,adhoc80_ms,hybrid_replicas",
        &rows,
    );
    flush();
}
