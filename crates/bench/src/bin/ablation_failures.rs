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

use cdn_bench::harness::{banner, flush, generate_scenario, record, BenchArgs, Table, SIMULATING};
use cdn_core::Strategy;
use cdn_sim::{FaultParams, SimReport};
use cdn_workload::LambdaMode;

/// MTTF, MTTR and origin-outage fraction.
type Faults = (f64, f64, f64);

/// The fault intensities, from no faults at all to severe.
const INTENSITIES: [(&str, Option<Faults>); 4] = [
    ("none", None),
    ("light", Some((2000.0, 200.0, 0.05))),
    ("moderate", Some((800.0, 250.0, 0.15))),
    ("severe", Some((300.0, 300.0, 0.30))),
];

fn main() {
    let args = BenchArgs::parse("ablation_failures", SIMULATING);
    banner("Ablation I: availability under failures", args.scale);
    let config = args.config(0.05, 0.0, LambdaMode::Uncacheable);
    let scenario = generate_scenario(&config);

    let strategies = [Strategy::Replication, Strategy::Caching, Strategy::Hybrid];
    let plans: Vec<_> = strategies.iter().map(|&s| (s, scenario.plan(s))).collect();

    let mut table = Table::new(
        "ablation_failures.csv",
        "intensity,strategy,availability,failed,failover_ratio,mean_ms,degraded_p95_ms",
    );
    let mut severe: Vec<(Strategy, f64)> = Vec::new();
    for (label, params) in INTENSITIES {
        let faults = params.map(|(mttf, mttr, origin_outage)| FaultParams {
            mttf,
            mttr,
            origin_outage,
            retry_penalty_ms: 200.0,
            seed: config.seed,
        });
        for (strategy, plan) in &plans {
            let mut sim = scenario.config.sim;
            sim.faults = faults;
            let report: SimReport = cdn_sim::simulate_system(
                &scenario.problem,
                &plan.placement,
                &scenario.catalog,
                &scenario.trace,
                &sim,
                strategy.cache_factory(),
            );
            record(&format!("{label}:{}", strategy.name()), &report);
            table.row(format!(
                "{label},{},{:.6},{},{:.6},{:.3},{:.1}",
                strategy.name(),
                report.availability(),
                report.failed_requests,
                report.failover_ratio(),
                report.mean_latency_ms,
                report.failover_histogram.percentile(0.95),
            ));
            if label == "severe" {
                severe.push((*strategy, report.availability()));
            }
        }
    }
    table.finish();

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
    println!("\n  replicated copies ride out origin outages that strand every cache miss.");
    flush();
}
