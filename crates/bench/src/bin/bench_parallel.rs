//! Machine-readable parallel-timing benchmark: `BENCH_parallel.json`.
//!
//! Runs the standard hybrid scenario once on 1 thread and once on N
//! threads (default: all available; override with `--threads <n>`),
//! recording per-phase wall-clock — topology build, placement,
//! simulation — and asserting the two runs produce bit-identical
//! results *and* bit-identical deterministic work counters (series terms
//! evaluated, placement candidates scanned, cache events, ...). Emits
//! `BENCH_parallel.json` under the results directory with the
//! deterministic counters in a `"work"` section and everything
//! machine-dependent quarantined under `"wall_clock"` — the perf gate
//! (`perf_gate`) compares the two sections with different strictness.
//!
//! `bench_parallel --help` lists the flags it accepts.

use cdn_bench::harness::{
    banner, flush, progress, record, write_json, BenchArgs, PhaseTimings, Scale, SIMULATING,
};
use cdn_core::{PlanResult, Scenario, ScenarioConfig, Strategy};
use cdn_sim::SimReport;
use cdn_telemetry as telemetry;
use cdn_workload::LambdaMode;
use std::fmt::Write as _;

/// The strategy each tier benchmarks: the paper's hybrid everywhere. The
/// internet-scale tiers used to fall back to the per-server greedy
/// knapsack because a dense hybrid rescan was intractable at N = 2000;
/// the lazy-greedy planner (stale-set invalidation + incremental memo
/// maintenance, see DESIGN.md §9.2) made the hybrid strategy fit the CI
/// budget, so every tier now plans what the paper proposes.
fn strategy_for(scale: Scale) -> Strategy {
    match scale {
        Scale::Paper | Scale::Quick | Scale::Large | Scale::LargeCi => Strategy::Hybrid,
    }
}

/// One full scenario pass on a pool of `threads` threads, timing each
/// phase and capturing the deterministic work counters it accumulated.
fn run_at(
    threads: usize,
    config: &ScenarioConfig,
    strategy: Strategy,
) -> (PhaseTimings, PlanResult, SimReport, Vec<(String, u64)>) {
    // Fresh counters per run so the 1-thread and N-thread tallies are
    // directly comparable (handles cached elsewhere stay valid — values
    // are zeroed in place).
    telemetry::reset_metrics();
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("build thread pool");
    let (timings, plan, report) = pool.install(|| {
        let mut timings = PhaseTimings::new(threads);
        let scenario = timings.time("topology", || Scenario::generate(config));
        let plan = timings.time("placement", || scenario.plan(strategy));
        let report = timings.time("simulation", || scenario.simulate(&plan));
        (timings, plan, report)
    });
    let work = telemetry::registry().counter_values();
    (timings, plan, report, work)
}

/// Equality of the plan summary and the whole simulation report; any
/// scheduling nondeterminism would show up here first.
fn reports_identical(
    a: &(PhaseTimings, PlanResult, SimReport, Vec<(String, u64)>),
    b: &(PhaseTimings, PlanResult, SimReport, Vec<(String, u64)>),
) -> bool {
    let (pa, pb) = (&a.1, &b.1);
    pa.placement.replica_count() == pb.placement.replica_count()
        && pa.predicted_cost.to_bits() == pb.predicted_cost.to_bits()
        && a.2 == b.2
}

fn main() {
    let args = BenchArgs::parse("bench_parallel", SIMULATING);
    let scale = args.scale;
    banner("bench_parallel: per-phase wall-clock, 1 thread vs N", scale);

    let n_threads = args.threads;

    let config = args.config(0.05, 0.0, LambdaMode::Uncacheable);
    let strategy = strategy_for(scale);
    println!("  strategy: {}", strategy.name());

    // Untimed warm-up pass: the first run through a fresh address space
    // pays first-touch page faults and allocator growth that the later
    // runs do not, which skewed the 1-thread arm (always run first) by
    // double-digit percentages at quick scale. One full pass on the wide
    // pool touches everything before either timed arm starts. Only worth
    // its cost where runs are short enough for those one-off effects to
    // matter — at the large tiers (minutes per run, dominated by the
    // hybrid planner) the warm-up would add a third full pass for a
    // sub-percent correction.
    if matches!(scale, Scale::Quick | Scale::Paper) {
        println!("  warm-up: untimed pass on {n_threads} thread(s)");
        progress("warm-up pass (untimed)");
        let _ = run_at(n_threads, &config, strategy);
    }

    println!("  run 1/2: 1 thread");
    progress("run 1/2: 1 thread");
    let base = run_at(1, &config, strategy);
    println!("  run 2/2: {n_threads} thread(s)");
    progress(&format!("run 2/2: {n_threads} thread(s)"));
    let multi = run_at(n_threads, &config, strategy);
    record(&format!("t1:{}", strategy.name()), &base.2);
    record(&format!("t{n_threads}:{}", strategy.name()), &multi.2);

    let identical = reports_identical(&base, &multi);
    let work_identical = base.3 == multi.3;
    let speedup = base.0.total_seconds() / multi.0.total_seconds().max(1e-12);

    for (t, lbl) in [(&base.0, "1 thread"), (&multi.0, "N threads")] {
        println!("  [{lbl}] total {:.3}s", t.total_seconds());
        for (name, secs) in &t.phases {
            println!("      {name:<12} {secs:.3}s");
        }
    }
    println!("  speedup (total): {speedup:.2}x at {n_threads} thread(s)");
    println!("  bit-identical reports:       {identical}");
    println!("  bit-identical work counters: {work_identical}");
    if !work_identical {
        // Show exactly which counter drifted — that is the debugging lead.
        let names: std::collections::BTreeSet<&str> = base
            .3
            .iter()
            .chain(multi.3.iter())
            .map(|(n, _)| n.as_str())
            .collect();
        for name in names {
            let get = |w: &[(String, u64)]| w.iter().find(|(n, _)| n == name).map(|(_, v)| *v);
            let (a, b) = (get(&base.3), get(&multi.3));
            if a != b {
                println!("      {name}: 1-thread {a:?} vs N-thread {b:?}");
            }
        }
    }

    // `"work"` holds only deterministic counters — pure functions of the
    // scenario parameters, identical across machines and thread counts.
    // Everything timing-related lives under `"wall_clock"`, which the perf
    // gate treats with a wide tolerance band instead of exact equality.
    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"scale\": \"{}\",", scale.label());
    let _ = writeln!(json, "  \"strategy\": \"{}\",", strategy.name());
    let _ = writeln!(
        json,
        "  \"shards\": {},",
        config
            .sim
            .shards
            .unwrap_or_else(|| config.hosts.n_servers.min(cdn_sim::MAX_DEFAULT_SHARDS))
    );
    let _ = writeln!(json, "  \"work\": {{");
    for (idx, (name, value)) in base.3.iter().enumerate() {
        let comma = if idx + 1 < base.3.len() { "," } else { "" };
        let _ = writeln!(json, "    \"{name}\": {value}{comma}");
    }
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"work_identical\": {work_identical},");
    let _ = writeln!(json, "  \"bit_identical\": {identical},");
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
    write_json("BENCH_parallel.json", &json);
    flush();

    assert!(
        identical,
        "multi-threaded run diverged from single-threaded run"
    );
    assert!(
        work_identical,
        "deterministic work counters diverged between thread counts"
    );
}
