//! Machine-readable planner benchmark: `BENCH_placement.json`.
//!
//! Isolates the **placement phase** (the lazy-greedy hybrid planner) the
//! way `bench_parallel` covers the whole pipeline: the scenario is built
//! once, then planned on 1 thread and on N threads in dedicated pools,
//! asserting the two plans are bit-identical (replica-by-replica, plus
//! the predicted-cost bits) with bit-identical work counters. The JSON
//! quarantines machine-dependent timings under `"wall_clock"` and keeps
//! the deterministic counters in `"work"`, so `perf_gate` can compare
//! the two sections with different strictness.
//!
//! Two derived numbers ride along:
//!
//! * `"lazy_ratio"` — (candidates evaluated + lazily skipped) / evaluated,
//!   i.e. how many times fewer score evaluations the stale-set planner
//!   performs than a dense whole-matrix rescan per iteration. This is the
//!   headline of the incremental planner; `perf_gate --min-lazy-ratio`
//!   gates it.
//! * `"models"` — a small ablation re-planning the same instance under
//!   each hit-ratio model backend (paper | closed-form, plus che at quick
//!   scale where its per-object fixed point is affordable), recording
//!   replica counts, predicted mean hops, and plan seconds side by side.
//!
//! `bench_placement --help` lists the flags it accepts.

use cdn_bench::harness::{
    banner, flush, progress, write_json, BenchArgs, PhaseTimings, Scale, PLANNING,
};
use cdn_core::{ModelBackend, PlanResult, Scenario, Strategy};
use cdn_telemetry as telemetry;
use cdn_workload::LambdaMode;
use std::fmt::Write as _;
use std::time::Instant;

/// Plan the scenario with the hybrid strategy on a dedicated pool of
/// `threads` threads, capturing the work counters the plan accumulated.
fn plan_at(threads: usize, scenario: &Scenario) -> (PhaseTimings, PlanResult, Vec<(String, u64)>) {
    telemetry::reset_metrics();
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("build thread pool");
    let (timings, plan) = pool.install(|| {
        let mut timings = PhaseTimings::new(threads);
        let plan = timings.time("placement", || scenario.plan(Strategy::Hybrid));
        (timings, plan)
    });
    (timings, plan, telemetry::registry().counter_values())
}

/// Replica-by-replica equality — stricter than comparing summary fields,
/// catching any pair of plans that happen to tie on count and cost.
fn plans_identical(scenario: &Scenario, a: &PlanResult, b: &PlanResult) -> bool {
    let (n, m) = (scenario.problem.n_servers(), scenario.problem.m_sites());
    a.predicted_cost.to_bits() == b.predicted_cost.to_bits()
        && (0..n).all(|i| {
            (0..m).all(|j| a.placement.is_replicated(i, j) == b.placement.is_replicated(i, j))
        })
}

/// The lazy planner's headline: how many times fewer candidate scores it
/// evaluates than a dense whole-matrix rescan of every greedy iteration.
fn lazy_ratio(work: &[(String, u64)]) -> Option<f64> {
    let get = |name: &str| work.iter().find(|(n, _)| n == name).map(|&(_, v)| v);
    let evaluated = get("placement.candidates_evaluated")?;
    let skipped = get("placement.candidates_skipped_lazy").unwrap_or(0);
    (evaluated > 0).then(|| (evaluated + skipped) as f64 / evaluated as f64)
}

fn main() {
    let args = BenchArgs::parse("bench_placement", PLANNING);
    let scale = args.scale;
    banner(
        "bench_placement: lazy-greedy hybrid planner, 1 thread vs N",
        scale,
    );

    let n_threads = args.threads;

    let config = args.config(0.05, 0.0, LambdaMode::Uncacheable);
    progress("generating scenario");
    let scenario = Scenario::generate(&config);

    // Untimed warm-up: first-touch page faults and allocator growth land
    // here instead of skewing the 1-thread arm (always planned first).
    // Only worth its cost where runs are short enough for those one-off
    // effects to matter — at the large tiers a plan takes minutes and
    // the warm-up would nearly double the benchmark's wall-clock.
    if matches!(scale, Scale::Quick | Scale::Paper) {
        println!("  warm-up: untimed plan on {n_threads} thread(s)");
        progress("warm-up plan (untimed)");
        let _ = plan_at(n_threads, &scenario);
    }

    println!("  run 1/2: 1 thread");
    progress("run 1/2: 1 thread");
    let base = plan_at(1, &scenario);
    println!("  run 2/2: {n_threads} thread(s)");
    progress(&format!("run 2/2: {n_threads} thread(s)"));
    let multi = plan_at(n_threads, &scenario);

    let identical = plans_identical(&scenario, &base.1, &multi.1);
    let work_identical = base.2 == multi.2;
    let speedup = base.0.total_seconds() / multi.0.total_seconds().max(1e-12);
    let ratio = lazy_ratio(&base.2);

    println!(
        "  plan: {} replicas, predicted {:.4} mean hops",
        base.1.placement.replica_count(),
        base.1.predicted_mean_hops(&scenario.problem),
    );
    println!(
        "  1 thread {:.3}s | {n_threads} thread(s) {:.3}s | speedup {speedup:.2}x",
        base.0.total_seconds(),
        multi.0.total_seconds(),
    );
    match ratio {
        Some(r) => println!("  lazy ratio: {r:.1}x fewer candidate evaluations than dense"),
        None => println!("  lazy ratio: unavailable (no planner counters)"),
    }
    println!("  bit-identical plans:         {identical}");
    println!("  bit-identical work counters: {work_identical}");
    if !work_identical {
        let names: std::collections::BTreeSet<&str> = base
            .2
            .iter()
            .chain(multi.2.iter())
            .map(|(n, _)| n.as_str())
            .collect();
        for name in names {
            let get = |w: &[(String, u64)]| w.iter().find(|(n, _)| n == name).map(|(_, v)| *v);
            let (a, b) = (get(&base.2), get(&multi.2));
            if a != b {
                println!("      {name}: 1-thread {a:?} vs N-thread {b:?}");
            }
        }
    }

    // Model-backend ablation on the same instance (N threads). The paper
    // backend's entry reuses the N-thread arm above (same plan, same
    // pool) instead of re-planning; Che's per-object fixed point is only
    // affordable at quick scale.
    let mut models: Vec<(ModelBackend, usize, f64, f64)> = vec![(
        ModelBackend::Paper,
        multi.1.placement.replica_count(),
        multi.1.predicted_mean_hops(&scenario.problem),
        multi.0.total_seconds(),
    )];
    println!(
        "  model {:<12} {:>5} replicas  predicted {:.4} hops  plan {:.3}s (reused run 2/2)",
        ModelBackend::Paper.name(),
        models[0].1,
        models[0].2,
        models[0].3,
    );
    let mut backends = vec![ModelBackend::ClosedForm];
    if scale == Scale::Quick {
        backends.push(ModelBackend::Che);
    }
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(n_threads)
        .build()
        .expect("build thread pool");
    for backend in backends {
        progress(&format!("model ablation: {}", backend.name()));
        let t0 = Instant::now();
        let plan = pool.install(|| scenario.plan_with_model(Strategy::Hybrid, backend));
        let secs = t0.elapsed().as_secs_f64();
        println!(
            "  model {:<12} {:>5} replicas  predicted {:.4} hops  plan {:.3}s",
            backend.name(),
            plan.placement.replica_count(),
            plan.predicted_mean_hops(&scenario.problem),
            secs,
        );
        models.push((
            backend,
            plan.placement.replica_count(),
            plan.predicted_mean_hops(&scenario.problem),
            secs,
        ));
    }

    // The cheap per-server knapsack the large tiers used to default to,
    // for a strategy dimension next to the model one: what the hybrid's
    // extra plan time buys in predicted cost.
    progress("baseline strategy: greedy-local");
    let t0 = Instant::now();
    let greedy = pool.install(|| scenario.plan(Strategy::GreedyLocal));
    let greedy_secs = t0.elapsed().as_secs_f64();
    println!(
        "  strategy greedy-local {:>5} replicas  predicted {:.4} hops  plan {:.3}s",
        greedy.placement.replica_count(),
        greedy.predicted_mean_hops(&scenario.problem),
        greedy_secs,
    );

    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"scale\": \"{}\",", scale.label());
    let _ = writeln!(json, "  \"strategy\": \"hybrid\",");
    let _ = writeln!(
        json,
        "  \"replicas\": {},",
        base.1.placement.replica_count()
    );
    let _ = writeln!(json, "  \"work\": {{");
    for (idx, (name, value)) in base.2.iter().enumerate() {
        let comma = if idx + 1 < base.2.len() { "," } else { "" };
        let _ = writeln!(json, "    \"{name}\": {value}{comma}");
    }
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"work_identical\": {work_identical},");
    let _ = writeln!(json, "  \"bit_identical\": {identical},");
    if let Some(r) = ratio {
        let _ = writeln!(json, "  \"lazy_ratio\": {r:.4},");
    }
    let _ = writeln!(json, "  \"models\": [");
    for (idx, (backend, replicas, hops, secs)) in models.iter().enumerate() {
        let comma = if idx + 1 < models.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    {{\"model\": \"{}\", \"replicas\": {replicas}, \
             \"predicted_mean_hops\": {hops:.6}, \"plan_s\": {secs:.6}}}{comma}",
            backend.name(),
        );
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(json, "  \"strategies\": [");
    let _ = writeln!(
        json,
        "    {{\"strategy\": \"hybrid\", \"replicas\": {}, \
         \"predicted_mean_hops\": {:.6}, \"plan_s\": {:.6}}},",
        multi.1.placement.replica_count(),
        multi.1.predicted_mean_hops(&scenario.problem),
        multi.0.total_seconds(),
    );
    let _ = writeln!(
        json,
        "    {{\"strategy\": \"greedy-local\", \"replicas\": {}, \
         \"predicted_mean_hops\": {:.6}, \"plan_s\": {greedy_secs:.6}}}",
        greedy.placement.replica_count(),
        greedy.predicted_mean_hops(&scenario.problem),
    );
    let _ = writeln!(json, "  ],");
    let _ = writeln!(json, "  \"wall_clock\": {{");
    let _ = writeln!(json, "    \"baseline_threads\": 1,");
    let _ = writeln!(json, "    \"parallel_threads\": {n_threads},");
    let _ = writeln!(
        json,
        "    \"runs\": [{}, {}],",
        base.0.to_json(),
        multi.0.to_json()
    );
    let _ = writeln!(json, "    \"speedup_total\": {speedup:.4}");
    let _ = writeln!(json, "  }}");
    json.push_str("}\n");
    write_json("BENCH_placement.json", &json);
    flush();

    assert!(
        identical,
        "multi-threaded plan diverged from single-threaded plan"
    );
    assert!(
        work_identical,
        "deterministic work counters diverged between thread counts"
    );
}
