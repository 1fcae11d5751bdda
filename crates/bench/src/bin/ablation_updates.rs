//! Ablation G: the read+update objective.
//!
//! The paper's objective is read-only; its related-work survey highlights
//! FAP formulations with "read and update cost" (Loukopoulos & Ahmad;
//! Wolfson et al.). This ablation turns on per-site update rates — every
//! update is pushed primary → replica — and sweeps the write intensity.
//! Replicas lose value as sites become mutable; caches are unaffected
//! (consistency for caches is the λ/refresh mechanism), so the hybrid
//! should glide from replica-heavy to cache-heavy as writes grow.
//!
//! Run with `cargo run -p cdn-bench --release --bin ablation_updates -- --quick`;
//! `--help` lists the flags it accepts.

use cdn_bench::harness::{banner, flush, generate_scenario, BenchArgs, Table, PLANNING};
use cdn_placement::{
    greedy_global, hybrid::hybrid_greedy_paper, mean_hops_per_request, total_cost, HybridConfig,
};
use cdn_workload::LambdaMode;

fn main() {
    let args = BenchArgs::parse("ablation_updates", PLANNING);
    banner(
        "Ablation G: update (write) intensity vs replica count",
        args.scale,
    );
    let config = args.config(0.05, 0.0, LambdaMode::Uncacheable);
    let scenario = generate_scenario(&config);

    // Express update intensity as a write:read ratio against each site's
    // mean per-server demand.
    let mean_site_requests =
        scenario.problem.grand_total() as f64 / scenario.problem.m_sites() as f64;

    let mut table = Table::new(
        "ablation_updates.csv",
        "write_read_ratio,updates_per_site,hybrid_replicas,hybrid_hops,greedy_replicas,greedy_hops",
    );
    for ratio in [0.0, 0.001, 0.01, 0.05, 0.2] {
        let mut problem = scenario.problem.clone();
        let rate = (mean_site_requests * ratio).round() as u64;
        problem.set_update_rates(vec![rate; problem.m_sites()]);

        let hybrid = hybrid_greedy_paper(&problem, &HybridConfig::default());
        let hybrid_hops = mean_hops_per_request(&problem, hybrid.final_cost);

        let greedy = greedy_global(&problem);
        let greedy_total = total_cost(&problem, &greedy.placement, |_, _| 0.0);
        let greedy_hops = mean_hops_per_request(&problem, greedy_total);

        table.row(format!(
            "{ratio},{rate},{},{hybrid_hops:.4},{},{greedy_hops:.4}",
            hybrid.placement.replica_count(),
            greedy.placement.replica_count()
        ));
    }
    table.finish();
    println!(
        "\n  both planners shed replicas as writes grow; the hybrid has a\n\
         \x20 second lever — it converts the freed space into cache, so its\n\
         \x20 effective cost rises far more slowly than pure replication's."
    );
    flush();
}
