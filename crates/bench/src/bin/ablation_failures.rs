//! Ablation I: availability under server crashes and origin outages.
//!
//! The paper evaluates the hybrid scheme on a fault-free network. This
//! ablation injects deterministic faults — exponential per-server
//! crash/recovery windows plus origin blackouts — and measures what each
//! strategy's storage layout buys in *availability*: replicated copies keep
//! serving through an origin outage and give misses somewhere to fail over
//! to, while pure caching must reach an unreachable origin on every miss.
//! Failovers pay a retry penalty per dead holder skipped, so the degraded
//! tail latency is reported alongside availability.
//!
//! Run with `cargo run -p cdn-bench --release --bin ablation_failures -- --quick`;
//! `--help` lists the flags it accepts.

use cdn_bench::harness::{
    banner, flush, generate_scenario, record, write_csv, BenchArgs, SIMULATING,
};
use cdn_core::Strategy;
use cdn_sim::{FaultParams, SimReport};
use cdn_workload::LambdaMode;

struct Intensity {
    label: &'static str,
    faults: Option<FaultParams>,
}

fn intensities(seed: u64) -> Vec<Intensity> {
    let base = FaultParams {
        retry_penalty_ms: 200.0,
        seed,
        ..Default::default()
    };
    vec![
        Intensity {
            label: "none",
            faults: None,
        },
        Intensity {
            label: "light",
            faults: Some(FaultParams {
                mttf: 2000.0,
                mttr: 200.0,
                origin_outage: 0.05,
                ..base
            }),
        },
        Intensity {
            label: "moderate",
            faults: Some(FaultParams {
                mttf: 800.0,
                mttr: 250.0,
                origin_outage: 0.15,
                ..base
            }),
        },
        Intensity {
            label: "severe",
            faults: Some(FaultParams {
                mttf: 300.0,
                mttr: 300.0,
                origin_outage: 0.30,
                ..base
            }),
        },
    ]
}

fn main() {
    let args = BenchArgs::parse("ablation_failures", SIMULATING);
    let scale = args.scale;
    banner("Ablation I: availability under failures", scale);
    let config = args.config(0.05, 0.0, LambdaMode::Uncacheable);
    let scenario = generate_scenario(&config);

    let strategies = [Strategy::Replication, Strategy::Caching, Strategy::Hybrid];
    let plans: Vec<_> = strategies.iter().map(|&s| (s, scenario.plan(s))).collect();

    println!(
        "\n  {:<10} {:<12} {:>8} {:>9} {:>10} {:>10} {:>17}",
        "intensity", "strategy", "avail%", "failed", "failover%", "mean_ms", "degraded_p95_ms"
    );
    let mut rows = Vec::new();
    let mut severe: Vec<(Strategy, f64)> = Vec::new();
    for intensity in intensities(config.seed) {
        for (strategy, plan) in &plans {
            let mut sim = scenario.config.sim;
            sim.faults = intensity.faults;
            let report: SimReport = cdn_sim::simulate_system(
                &scenario.problem,
                &plan.placement,
                &scenario.catalog,
                &scenario.trace,
                &sim,
                strategy.cache_factory(),
            );
            record(&format!("{}:{}", intensity.label, strategy.name()), &report);
            println!(
                "  {:<10} {:<12} {:>8.3} {:>9} {:>9.1}% {:>10.2} {:>17.1}",
                intensity.label,
                strategy.name(),
                100.0 * report.availability(),
                report.failed_requests,
                100.0 * report.failover_ratio(),
                report.mean_latency_ms,
                report.failover_histogram.percentile(0.95),
            );
            rows.push(format!(
                "{},{},{:.6},{},{:.6},{:.3},{:.1}",
                intensity.label,
                strategy.name(),
                report.availability(),
                report.failed_requests,
                report.failover_ratio(),
                report.mean_latency_ms,
                report.failover_histogram.percentile(0.95),
            ));
            if intensity.label == "severe" {
                severe.push((*strategy, report.availability()));
            }
        }
    }

    // The claim this ablation exists to check: replicas are what keep a CDN
    // serving through faults, so under heavy failures the strategies that
    // place them must beat pure caching on availability.
    let avail = |s: Strategy| severe.iter().find(|(x, _)| *x == s).expect("severe row").1;
    assert!(
        avail(Strategy::Replication) > avail(Strategy::Caching)
            && avail(Strategy::Hybrid) > avail(Strategy::Caching),
        "replication/hybrid availability must exceed pure caching under severe faults: \
         replication {:.4}, hybrid {:.4}, caching {:.4}",
        avail(Strategy::Replication),
        avail(Strategy::Hybrid),
        avail(Strategy::Caching),
    );
    println!(
        "\n  under severe faults: replication {:.2}%, hybrid {:.2}%, caching {:.2}% — \n\
         \x20 replicated copies ride out origin outages that strand every cache miss.",
        100.0 * avail(Strategy::Replication),
        100.0 * avail(Strategy::Hybrid),
        100.0 * avail(Strategy::Caching),
    );
    write_csv(
        "ablation_failures.csv",
        "intensity,strategy,availability,failed,failover_ratio,mean_ms,degraded_p95_ms",
        &rows,
    );
    flush();
}
