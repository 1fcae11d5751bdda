//! Machine-readable planner benchmark: `BENCH_placement.json`.
//!
//! Asks one question: what does the lazy-greedy hybrid planner cost, and
//! does it stay bit-identical across thread counts? The scenario is built
//! once, then planned on 1 thread and on N threads
//! (`cdn_bench::harness::one_vs_n`), asserting the two plans are
//! bit-identical (replica-by-replica, plus the predicted-cost bits) with
//! bit-identical work counters. Simulator scaling is `bench_parallel`'s
//! question.
//!
//! Three derived results ride along:
//!
//! * `"lazy_ratio"` — (candidates evaluated + lazily skipped) / evaluated,
//!   i.e. how many times fewer score evaluations the stale-set planner
//!   performs than a dense whole-matrix rescan per iteration. This is the
//!   headline of the incremental planner.
//! * `"models"` — a small ablation re-planning the same instance under
//!   each hit-ratio model backend (paper, plus closed-form at quick and
//!   paper scale and che at quick scale, where their re-plans are
//!   affordable), recording replica counts and predicted mean hops side
//!   by side; `"strategies"` does the same for greedy-local. Their plan
//!   seconds go under `"wall_clock"` as `"plan_s"`.
//!
//! `bench_placement --help` lists the flags it accepts, among them the
//! `--baseline` tier file the run gates itself against
//! (`cdn_bench::harness::Gate`).

use cdn_bench::harness::{banner, one_vs_n, progress, BenchArgs, Scale, GATED_PLANNING};
use cdn_core::{ModelBackend, PlanResult, Scenario, Strategy};
use cdn_workload::LambdaMode;
use std::fmt::Write as _;
use std::time::Instant;

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
    let args = BenchArgs::parse("bench_placement", GATED_PLANNING);
    let scale = args.scale;
    banner(
        "bench_placement: lazy-greedy hybrid planner, 1 thread vs N",
        scale,
    );

    let n_threads = args.threads;

    let config = args.config(0.05, 0.0, LambdaMode::Uncacheable);
    progress("generating scenario");
    let scenario = Scenario::generate(&config);

    one_vs_n(
        &args,
        "BENCH_placement.json",
        |timings| timings.time("placement", || scenario.plan(Strategy::Hybrid)),
        |a, b| plans_identical(&scenario, a, b),
        |[(_, base, work), (multi_timings, multi, _)]| {
            let ratio = lazy_ratio(work);
            println!(
                "  plan: {} replicas, predicted {:.4} mean hops",
                base.placement.replica_count(),
                base.predicted_mean_hops(&scenario.problem),
            );
            match ratio {
                Some(r) => println!("  lazy ratio: {r:.1}x fewer candidate evaluations than dense"),
                None => println!("  lazy ratio: unavailable (no planner counters)"),
            }

            // One row per plan: printed with its seconds, and rendered for
            // the file without them. A re-plan's seconds go under
            // `"wall_clock"` as `"plan_s"`; the paper model's are the arm's.
            let mut plan_s = Vec::new();
            let mut row = |key: &str, name: &str, plan: &PlanResult, secs: f64, replan: bool| {
                let replicas = plan.placement.replica_count();
                let hops = plan.predicted_mean_hops(&scenario.problem);
                let note = if replan { "" } else { " (the N-thread arm's)" };
                let label = format!("{key} {name}");
                println!(
                    "  {label:<21} {replicas:>5} replicas  predicted {hops:.4} hops  plan {secs:.3}s{note}"
                );
                if replan {
                    plan_s.push(format!("\"{name}\": {secs:.6}"));
                }
                format!(
                    "    {{\"{key}\": \"{name}\", \"replicas\": {replicas}, \
                     \"predicted_mean_hops\": {hops:.6}}}"
                )
            };

            // Model-backend ablation on the same instance (N threads). The
            // paper backend's entry reuses the N-thread arm instead of
            // re-planning. Each other backend re-plans the whole instance:
            // a closed-form re-plan of `large-ci` ran for over 35 min on 2
            // cores, longer than the gated plan itself, so only the quick
            // and paper tiers run it; Che's per-object fixed point is only
            // affordable at quick scale.
            let mut models = vec![row(
                "model",
                ModelBackend::Paper.name(),
                multi,
                multi_timings.total_seconds(),
                false,
            )];
            let backends = match scale {
                Scale::Quick => vec![ModelBackend::ClosedForm, ModelBackend::Che],
                Scale::Paper => vec![ModelBackend::ClosedForm],
                Scale::Large | Scale::LargeCi => Vec::new(),
            };
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(n_threads)
                .build()
                .expect("build thread pool");
            for backend in backends {
                progress(&format!("model ablation: {}", backend.name()));
                let t0 = Instant::now();
                let plan = pool.install(|| scenario.plan_with_model(Strategy::Hybrid, backend));
                let secs = t0.elapsed().as_secs_f64();
                models.push(row("model", backend.name(), &plan, secs, true));
            }

            // The cheap per-server knapsack, for a strategy dimension next
            // to the model one: what the hybrid's extra plan time buys in
            // predicted cost.
            progress("baseline strategy: greedy-local");
            let t0 = Instant::now();
            let greedy = pool.install(|| scenario.plan(Strategy::GreedyLocal));
            let secs = t0.elapsed().as_secs_f64();
            let local = Strategy::GreedyLocal.name();
            let strategies = [row("strategy", &local, &greedy, secs, true)];

            let mut json = String::new();
            let _ = writeln!(json, "  \"scale\": \"{}\",", scale.label());
            let _ = writeln!(json, "  \"strategy\": \"hybrid\",");
            let _ = writeln!(json, "  \"replicas\": {},", base.placement.replica_count());
            if let Some(r) = ratio {
                let _ = writeln!(json, "  \"lazy_ratio\": {r:.4},");
            }
            let _ = writeln!(json, "  \"models\": [\n{}\n  ],", models.join(",\n"));
            let _ = writeln!(
                json,
                "  \"strategies\": [\n{}\n  ],",
                strategies.join(",\n")
            );
            (json, vec![format!("\"plan_s\": {{{}}}", plan_s.join(", "))])
        },
    );
}
