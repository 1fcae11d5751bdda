//! Ablation D: cache replacement policy inside the hybrid system.
//!
//! The paper uses plain LRU and cites Karlsson & Mahalingam's delayed-LRU
//! as the strongest pure-caching contender. This ablation keeps the hybrid
//! replica placement fixed and swaps the replacement policy of the leftover
//! cache space: LRU, delayed-LRU, LFU, FIFO, CLOCK.
//!
//! Run with `cargo run -p cdn-bench --release --bin ablation_policy -- --quick`;
//! `--help` lists the flags it accepts.

use cdn_bench::harness::{banner, flush, generate_scenario, record, BenchArgs, Table, SIMULATING};
use cdn_core::cache;
use cdn_core::Strategy;
use cdn_workload::LambdaMode;

fn main() {
    let args = BenchArgs::parse("ablation_policy", SIMULATING);
    banner(
        "Ablation D: replacement policy inside the hybrid scheme",
        args.scale,
    );
    let config = args.config(0.05, 0.0, LambdaMode::Uncacheable);
    let scenario = generate_scenario(&config);
    let plan = scenario.plan(Strategy::Hybrid);
    println!(
        "  hybrid placement fixed: {} replicas\n",
        plan.placement.replica_count()
    );

    let mut table = Table::new(
        "ablation_policy.csv",
        "policy,mean_latency_ms,p95_ms,local_ratio,cache_hit_ratio",
    );
    for policy in ["lru", "delayed-lru", "lfu", "gdsf", "fifo", "clock"] {
        let factory = move |bytes: u64| {
            cache::by_name(policy, bytes).unwrap_or_else(|e| {
                eprintln!("error: {e}");
                std::process::exit(1);
            })
        };
        let report = scenario.simulate_with_cache(&plan.placement, &factory);
        record(policy, &report);
        table.row(format!(
            "{policy},{:.3},{:.1},{:.4},{:.4}",
            report.mean_latency_ms,
            report.histogram.percentile(0.95),
            report.local_ratio(),
            report.cache_hit_ratio()
        ));
    }
    table.finish();
    println!(
        "\n  LRU and CLOCK should sit within noise of each other; FIFO gives up\n\
         \x20 a little; delayed-LRU trades first-touch misses for admission\n\
         \x20 filtering (it shines when one-hit wonders dominate); LFU can win\n\
         \x20 on static popularity but adapts worst to drift; GDSF exploits the\n\
         \x20 heavy-tailed size distribution that LRU ignores."
    );
    flush();
}
