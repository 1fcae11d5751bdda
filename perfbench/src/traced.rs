//! The traced run: one pass through a workload's pipeline with a span
//! around every public call into each layer, then single-layer probes, the
//! thread arm and the cache-policy sweep. Produces the per-layer metrics.
//!
//! The simulate phase is driven here server by server, as the sharded
//! runner drives it (shards in parallel; plan build → stream → cache →
//! engine per server), so each layer's share is timed from outside. The
//! per-server integer counters must sum to the system report of the same
//! inputs.

use crate::check::{self, Counts};
use crate::pipeline::{self, Inputs, Measured, Scale, Workload, MB};
use crate::spans::{self, Clock, Recorder, Span, SpanId};
use crate::Metric;
use cdn_core::cache::{self, Cache, LruCache, ObjectKey, POLICY_NAMES};
use cdn_core::placement::hybrid::paper_oracle_for;
use cdn_core::placement::{
    greedy_local, hybrid_greedy, HitRatioOracle, HybridConfig, Placement, PlacementProblem,
};
use cdn_core::sim::{shard_ranges, simulate_server_faulted, FaultSchedule, ServerPlan, SimReport};
use cdn_core::topology::{DistanceMatrix, HostPlacement, TransitStubTopology};
use cdn_core::workload::{read_events_file, DemandMatrix, Flavor, Request, SiteCatalog, TraceSpec};
use cdn_core::{PlanResult, ReplayStreams, ScenarioConfig, Strategy};
use cdn_telemetry as telemetry;
use rayon::prelude::*;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Requests the cache sweep replays: whole streams of evenly spaced
/// servers until about this many.
const SWEEP_REQUESTS: u64 = 1_000_000;

/// What the traced pass leaves for the probes and the metrics.
struct Pass {
    inputs: Inputs,
    total_s: f64,
    /// The per-server counters, summed.
    counts: Counts,
    captured: Vec<Captured>,
    decoded_bytes: u64,
    resident_events: u64,
}

/// The requests one sampled server sent to its cache, with their sizes.
struct Captured {
    cache_bytes: u64,
    expected_objects: usize,
    accesses: Vec<(ObjectKey, u64)>,
}

#[derive(Default)]
struct ShardOut {
    spans: Vec<Span>,
    counts: Counts,
    captured: Vec<Captured>,
}

/// Where the per-server request streams come from.
enum Source<'a> {
    Synthetic(&'a TraceSpec),
    Replay(&'a ReplayStreams),
}

impl Source<'_> {
    fn stream(&self, server: usize) -> Vec<Request> {
        match self {
            Source::Synthetic(t) => t.stream_for_server(server).collect(),
            Source::Replay(r) => r.stream_for_server(server).collect(),
        }
    }

    fn lengths(&self) -> Vec<u64> {
        match self {
            Source::Synthetic(t) => (0..t.n_servers()).map(|s| t.len_for_server(s)).collect(),
            Source::Replay(r) => r.lengths(),
        }
    }
}

/// One plan-and-simulate pass at a fixed thread count.
struct Arm {
    plan_s: f64,
    sim_s: f64,
    report: SimReport,
    digest: u64,
}

pub fn run(
    workload: Workload,
    scale: Scale,
    seed: u64,
    untraced: &Measured,
    out_dir: &Path,
) -> Result<Vec<Metric>, String> {
    let untraced_digest = untraced
        .samples
        .last()
        .ok_or("no untraced iteration succeeded")?
        .digest;
    let untraced_total_s = pipeline::median(untraced.samples.iter().map(|s| s.total_s).collect());
    let cfg = workload.config(scale);
    let mut rec = Recorder::new();

    telemetry::reset_metrics();
    telemetry::set_enabled(true);
    let pass = traced_pass(workload, &cfg, seed, out_dir, &mut rec);
    telemetry::set_enabled(false);
    let pass = pass?;
    let counter = |name: &str| telemetry::registry().counter(name).get();
    let evaluated = counter("placement.candidates_evaluated");
    let skipped = counter("placement.candidates_skipped_lazy");

    // Single-layer probes, outside the pipeline.
    let problem = &pass.inputs.scenario.problem;
    probe_substrates(&mut rec, &cfg);
    let drained = rec.time("workload.stream_drain", None, || {
        drain(&pass.inputs.scenario.trace)
    });
    let lru_model_ns = if workload == Workload::PaperHybrid {
        rec.time("lru_model.grid", None, || lru_model_ns_per_eval(problem))
    } else {
        0.0
    };
    let lru = rec.time("cache.sweep", None, || {
        sweep(&pass.captured, |c| {
            Box::new(LruCache::with_expected_objects(
                c.cache_bytes,
                c.expected_objects,
            ))
        })
    });
    let policies: Vec<(&str, (f64, f64))> = POLICY_NAMES
        .iter()
        .map(|&name| {
            let result = rec.time("cache.sweep", None, || {
                sweep(&pass.captured, |c| {
                    cache::by_name(name, c.cache_bytes).expect("every listed policy constructs")
                })
            });
            (name, result)
        })
        .collect();

    // The thread arm: plan and simulate on one thread and on all of them.
    let threads = rayon::current_num_threads();
    let all = rec.time("arm.all_threads", None, || {
        thread_arm(&pass.inputs, threads)
    })?;
    let one = match threads {
        1 => None,
        _ => Some(rec.time("arm.one_thread", None, || thread_arm(&pass.inputs, 1))?),
    };
    for arm in std::iter::once(&all).chain(&one) {
        if arm.digest != untraced_digest {
            return Err(format!(
                "thread-arm report digest {:#018x} differs from the untraced {untraced_digest:#018x}",
                arm.digest
            ));
        }
    }
    let system = Counts::of_report(&all.report);
    if pass.counts != system {
        return Err(format!(
            "per-server counters {:?} (+{} latency bins) differ from the system report's \
             {:?} (+{} latency bins)",
            pass.counts.scalars(),
            pass.counts.latency_bins.iter().sum::<u64>(),
            system.scalars(),
            system.latency_bins.iter().sum::<u64>()
        ));
    }
    if one.is_none() {
        println!("placement.speedup, sim.speedup: not measured (1 core available)");
    }

    spans::check_nesting(rec.spans())?;
    let path = out_dir.join(format!("{}-{seed}-spans.json", workload.name()));
    spans::write_chrome_trace(rec.spans(), &path)
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!("spans: {} (self time by span name)", path.display());
    for (name, count, total, self_s) in spans::summary(rec.spans()) {
        println!("  {name:<26} {count:>6}x  total {total:>9.4} s  self {self_s:>9.4} s");
    }

    // Per-server engine times: median and the highest percentile with at
    // least ten servers beyond it.
    let mut engine = rec.durations("sim.engine");
    engine.sort_by(f64::total_cmp);
    let servers = engine.len();
    let (tail_pct, tail_s) = match servers {
        n if n > 10 => (100.0 * (n - 10) as f64 / n as f64, engine[n - 11]),
        n => (100.0, engine[n - 1]),
    };
    let stream_span = match workload {
        Workload::ReplayDelayed => "replay.stream",
        _ => "workload.stream",
    };
    // Fan-out efficiency: the per-server work over the capacity of the
    // threads for as long as the per-server loop ran.
    let per_server_s: f64 = ["sim.plan_build", stream_span, "cache.build", "sim.engine"]
        .iter()
        .map(|name| rec.total(name))
        .sum();
    let report = &all.report;
    let measured = report.measured_requests.max(1) as f64;
    let hybrid_s = rec.total("placement.hybrid");
    let decode_s = rec.total("workload.decode");

    let mut m = vec![
        Metric::new("topology.generate_s", rec.total("topology.generate"), "s"),
        Metric::new("topology.distances_s", rec.total("topology.distances"), "s"),
        Metric::new("workload.catalog_s", rec.total("workload.catalog"), "s"),
        Metric::new(
            "workload.stream_ns_per_request",
            rec.total("workload.stream_drain") * 1e9 / drained.max(1) as f64,
            "ns",
        ),
        Metric::new("workload.export_s", rec.total("workload.export"), "s"),
        Metric::new(
            "workload.decode_mb_per_s",
            if decode_s > 0.0 {
                pass.decoded_bytes as f64 / MB / decode_s
            } else {
                0.0
            },
            "MB/s",
        ),
        Metric::new("cache.ns_per_access", lru.0, "ns"),
        Metric::new("cache.hit_ratio", lru.1, "ratio"),
    ];
    for (name, (ns, hit)) in &policies {
        m.push(Metric::new(
            format!("cache.ns_per_access.{name}"),
            *ns,
            "ns",
        ));
        m.push(Metric::new(
            format!("cache.hit_ratio.{name}"),
            *hit,
            "ratio",
        ));
    }
    m.extend([
        Metric::new(
            "lru_model.evaluations",
            counter("lru_model.evaluations") as f64,
            "count",
        ),
        Metric::new(
            "lru_model.series_terms",
            counter("lru_model.series_terms") as f64,
            "count",
        ),
        Metric::new("lru_model.ns_per_eval", lru_model_ns, "ns"),
        Metric::new("plan_s", rec.total("plan"), "s"),
        Metric::new(
            "placement.oracle_build_s",
            rec.total("placement.oracle_build"),
            "s",
        ),
        Metric::new("placement.hybrid_s", hybrid_s, "s"),
        Metric::new(
            "placement.iterations",
            counter("placement.iterations") as f64,
            "count",
        ),
        Metric::new("placement.candidates_evaluated", evaluated as f64, "count"),
        Metric::new(
            "placement.lazy_skip_ratio",
            skipped as f64 / (evaluated + skipped).max(1) as f64,
            "ratio",
        ),
        Metric::new(
            "placement.candidates_per_s",
            if hybrid_s > 0.0 {
                evaluated as f64 / hybrid_s
            } else {
                0.0
            },
            "1/s",
        ),
        Metric::new(
            "placement.greedy_local_s",
            rec.total("placement.greedy_local"),
            "s",
        ),
    ]);
    if let Some(one) = &one {
        m.push(Metric::new(
            "placement.speedup",
            one.plan_s / all.plan_s,
            "x",
        ));
    }
    m.extend([
        Metric::new("sim.plan_build_s", rec.total("sim.plan_build"), "s"),
        Metric::new(
            "sim.engine_ns_per_request",
            rec.total("sim.engine") * 1e9 / report.total_requests.max(1) as f64,
            "ns",
        ),
        Metric::new("sim.server_s_p50", pipeline::median(engine), "s"),
        Metric::new("sim.server_s_tail", tail_s, "s"),
        Metric::new("sim.server_s_tail_pct", tail_pct, "%"),
        Metric::new("sim.servers", servers as f64, "count"),
        Metric::new("sim.fault_schedule_s", rec.total("sim.fault_schedule"), "s"),
        Metric::new(
            "sim.fanout_efficiency",
            per_server_s / (rec.total("sim.servers") * threads as f64),
            "ratio",
        ),
        Metric::new("sim.local_ratio", report.local_ratio(), "ratio"),
        Metric::new(
            "sim.delayed_hit_ratio",
            report.delayed_hits as f64 / measured,
            "ratio",
        ),
        Metric::new("sim.failover_ratio", report.failover_ratio(), "ratio"),
    ]);
    if let Some(one) = &one {
        m.push(Metric::new("sim.speedup", one.sim_s / all.sim_s, "x"));
    }
    m.extend([
        Metric::new("core.generate_s", rec.total("core.generate"), "s"),
        Metric::new("replay.partition_s", rec.total("replay.partition"), "s"),
        Metric::new(
            "replay.resident_events",
            pass.resident_events as f64,
            "count",
        ),
        Metric::new(
            "telemetry.overhead_pct",
            (pass.total_s - untraced_total_s) / untraced_total_s * 100.0,
            "%",
        ),
    ]);
    Ok(m)
}

/// Setup → plan → simulate → check with a span around every layer call,
/// registry counters on. The simulate phase runs server by server.
fn traced_pass(
    workload: Workload,
    cfg: &ScenarioConfig,
    seed: u64,
    out_dir: &Path,
    rec: &mut Recorder,
) -> Result<Pass, String> {
    let root = rec.open("iteration", None);

    let setup = rec.open("setup", Some(root));
    let mut inputs = rec.time("core.generate", Some(setup), || {
        Inputs::generate(workload, cfg, seed)
    });
    if workload == Workload::ReplayDelayed {
        rec.time("workload.export", Some(setup), || inputs.export(out_dir))?;
    }
    rec.close(setup);

    // `Scenario::plan(Strategy::Hybrid)` split into its two layer calls.
    let plan_span = rec.open("plan", Some(root));
    let problem = &inputs.scenario.problem;
    let plan = match workload {
        Workload::PaperHybrid => {
            let oracle = rec.time("placement.oracle_build", Some(plan_span), || {
                paper_oracle_for(problem)
            });
            let out = rec.time("placement.hybrid", Some(plan_span), || {
                hybrid_greedy(problem, &oracle, &HybridConfig::default())
            });
            PlanResult {
                strategy: Strategy::Hybrid,
                predicted_cost: out.final_cost,
                hit_ratios: Some(out.hit_ratios),
                placement: out.placement,
            }
        }
        Workload::FleetFaults => {
            let placement = rec.time("placement.greedy_local", Some(plan_span), || {
                greedy_local(problem)
            });
            pipeline::fixed_plan(Strategy::GreedyLocal, problem, placement)
        }
        Workload::ReplayDelayed => {
            let placement = rec.time("placement.primaries_only", Some(plan_span), || {
                Placement::primaries_only(problem)
            });
            pipeline::fixed_plan(Strategy::Caching, problem, placement)
        }
    };
    rec.close(plan_span);

    let sim_span = rec.open("simulate", Some(root));
    let (mut decoded_bytes, mut resident_events) = (0, 0);
    let replay = match &inputs.trace_file {
        None => None,
        Some(path) => {
            let events = rec
                .time("workload.decode", Some(sim_span), || read_events_file(path))
                .map_err(|e| format!("reading {}: {e}", path.display()))?;
            decoded_bytes = std::fs::metadata(path).map_err(|e| e.to_string())?.len();
            let decoded = events.len() as u64;
            let streams = rec.time("replay.partition", Some(sim_span), || {
                ReplayStreams::from_events(
                    events,
                    problem.n_servers(),
                    problem.m_sites(),
                    inputs.scenario.config.workload.objects_per_site,
                )
            });
            // Peak residency: the decoded events are still held while the
            // partition fills the per-server streams.
            resident_events = decoded + streams.total_events();
            Some(streams)
        }
    };
    let source = match &replay {
        Some(streams) => Source::Replay(streams),
        None => Source::Synthetic(&inputs.scenario.trace),
    };
    let lengths = source.lengths();
    let schedule = inputs.scenario.config.sim.faults.map(|f| {
        let horizon = lengths.iter().copied().max().unwrap_or(0);
        rec.time("sim.fault_schedule", Some(sim_span), || {
            FaultSchedule::generate(&f, problem.n_servers(), horizon)
        })
    });
    let sample = sweep_sample(&lengths);
    let servers = rec.open("sim.servers", Some(sim_span));
    let shards = run_servers(
        rec.clock(),
        servers,
        &inputs,
        &plan,
        &source,
        schedule.as_ref(),
        &sample,
    );
    rec.close(servers);
    drop(replay);
    rec.close(sim_span);

    let mut counts = Counts::default();
    let mut captured = Vec::new();
    for shard in shards {
        rec.extend(shard.spans);
        counts.merge(&shard.counts);
        captured.extend(shard.captured);
    }
    let check_span = rec.open("check", Some(root));
    counts.check_buckets()?;
    if counts.total != inputs.requests {
        return Err(format!(
            "simulated {} requests; the workload has {}",
            counts.total, inputs.requests
        ));
    }
    check::exercised(workload, &counts)?;
    rec.close(check_span);
    rec.close(root);
    Ok(Pass {
        total_s: rec.spans()[root].secs(),
        inputs,
        counts,
        captured,
        decoded_bytes,
        resident_events,
    })
}

/// The runner's per-server loop, driven from outside: shards in parallel,
/// servers in order within a shard, each server as plan build → stream →
/// cache → engine with the runner's warm-up and cache sizing, and a span
/// around each step.
fn run_servers(
    clock: &Clock,
    parent: SpanId,
    inputs: &Inputs,
    plan: &PlanResult,
    source: &Source,
    schedule: Option<&FaultSchedule>,
    sample: &[usize],
) -> Vec<ShardOut> {
    let scenario = &inputs.scenario;
    let (problem, catalog, sim) = (&scenario.problem, &scenario.catalog, &scenario.config.sim);
    let objects: usize = catalog.sites.iter().map(|s| s.object_sizes.len()).sum();
    let mean_object_bytes = match objects {
        0 => 0.0,
        n => catalog.total_bytes() as f64 / n as f64,
    };
    let size = |site: u32, object: u32| catalog.sites[site as usize].object_sizes[object as usize];
    let stream_span = match source {
        Source::Synthetic(_) => "workload.stream",
        Source::Replay(_) => "replay.stream",
    };
    let ranges = shard_ranges(problem.n_servers(), sim.shards);
    ranges
        .par_iter()
        .map(|range| {
            let mut out = ShardOut::default();
            for server in range.clone() {
                let splan = clock.time(&mut out.spans, "sim.plan_build", parent, || {
                    ServerPlan::from_placement(problem, &plan.placement, server)
                });
                let stream = clock.time(&mut out.spans, stream_span, parent, || {
                    source.stream(server)
                });
                let expected = if mean_object_bytes > 0.0 {
                    (splan.cache_bytes as f64 / mean_object_bytes).ceil() as usize
                } else {
                    0
                };
                let cache: Box<dyn Cache> =
                    clock.time(&mut out.spans, "cache.build", parent, || {
                        Box::new(LruCache::with_expected_objects(splan.cache_bytes, expected))
                    });
                let warmup = (stream.len() as f64 * sim.warmup_fraction) as u64;
                let report = clock.time(&mut out.spans, "sim.engine", parent, || {
                    simulate_server_faulted(
                        &splan,
                        sim,
                        stream.iter().copied(),
                        warmup,
                        size,
                        cache,
                        schedule,
                    )
                });
                out.counts.add_server(&report);
                if sample.binary_search(&server).is_ok() {
                    out.captured.push(Captured {
                        cache_bytes: splan.cache_bytes,
                        expected_objects: expected,
                        accesses: cache_accesses(&splan, &stream, size),
                    });
                }
            }
            out
        })
        .collect()
}

/// Evenly spaced servers whose streams add up to about [`SWEEP_REQUESTS`].
fn sweep_sample(lengths: &[u64]) -> Vec<usize> {
    let n = lengths.len();
    let mean = (lengths.iter().sum::<u64>() / n.max(1) as u64).max(1);
    let k = (SWEEP_REQUESTS.div_ceil(mean) as usize).clamp(1, n.max(1));
    (0..k).map(|i| i * n / k).collect()
}

/// The requests the engine sends to `plan`'s cache in a fault-free run:
/// cacheable requests for sites the server does not replicate.
fn cache_accesses(
    plan: &ServerPlan,
    stream: &[Request],
    size: impl Fn(u32, u32) -> u64,
) -> Vec<(ObjectKey, u64)> {
    stream
        .iter()
        .filter(|r| !plan.replicated[r.site as usize] && r.flavor != Flavor::Uncacheable)
        .map(|r| (ObjectKey::new(r.site, r.object), size(r.site, r.object)))
        .collect()
}

/// Replay the captured accesses through a fresh cache per server, timing
/// the accesses only. Returns (ns per access, hit ratio).
fn sweep(captured: &[Captured], make: impl Fn(&Captured) -> Box<dyn Cache>) -> (f64, f64) {
    let (mut secs, mut accesses, mut hits) = (0.0, 0u64, 0u64);
    for c in captured {
        let mut cache = make(c);
        let start = Instant::now();
        for &(key, bytes) in &c.accesses {
            hits += u64::from(cache.access(key, bytes));
        }
        secs += start.elapsed().as_secs_f64();
        accesses += c.accesses.len() as u64;
        black_box(&cache);
    }
    let per = accesses.max(1) as f64;
    (secs * 1e9 / per, hits as f64 / per)
}

/// Time the substrate calls `Scenario::generate` makes, with its seeds.
fn probe_substrates(rec: &mut Recorder, cfg: &ScenarioConfig) {
    let topology = rec.time("topology.generate", None, || {
        TransitStubTopology::generate(&cfg.topology, cfg.seed)
    });
    black_box(rec.time("topology.distances", None, || {
        let hosts = HostPlacement::place(&topology, &cfg.hosts, cfg.seed ^ 0x517c_c1b7_2722_0a95);
        DistanceMatrix::compute(&topology.graph, &hosts.host_rows())
    }));
    black_box(rec.time("workload.catalog", None, || {
        let catalog = SiteCatalog::generate(&cfg.workload, cfg.seed ^ 0x2545_f491_4f6c_dd1d);
        DemandMatrix::generate(
            &catalog,
            cfg.hosts.n_servers,
            cfg.seed ^ 0x9e37_79b9_7f4a_7c15,
        )
    }));
}

/// Generate every server's synthetic stream without simulating it; returns
/// the request count.
fn drain(trace: &TraceSpec) -> u64 {
    (0..trace.n_servers())
        .map(|s| trace.stream_for_server(s).map(black_box).count() as u64)
        .sum()
}

/// `site_hit_ratio` on a fresh paper oracle over a fixed grid of up to 10
/// servers × 40 sites × 10 buffer sizes (tenths of each server's full
/// cache). Returns ns per evaluation, oracle construction excluded.
fn lru_model_ns_per_eval(problem: &PlacementProblem) -> f64 {
    let oracle = paper_oracle_for(problem);
    let spaced = |n: usize, k: usize| -> Vec<usize> {
        let k = k.min(n);
        (0..k).map(|i| i * n / k).collect()
    };
    let (servers, sites) = (
        spaced(problem.n_servers(), 10),
        spaced(problem.m_sites(), 40),
    );
    let start = Instant::now();
    let (mut evals, mut sum) = (0u64, 0.0);
    for &i in &servers {
        let full = problem.buffer_objects(problem.capacities[i]);
        for tenth in 1..=10 {
            for &j in &sites {
                sum += oracle.site_hit_ratio(i, problem.site_popularity(i, j), full * tenth / 10);
                evals += 1;
            }
        }
    }
    black_box(sum);
    start.elapsed().as_secs_f64() * 1e9 / evals.max(1) as f64
}

/// Plan and simulate with telemetry off on a pool of `threads` threads.
fn thread_arm(inputs: &Inputs, threads: usize) -> Result<Arm, String> {
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .map_err(|e| e.to_string())?;
    pool.install(|| {
        let t = Instant::now();
        let plan = pipeline::plan(inputs);
        let plan_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let report = pipeline::simulate(inputs, &plan)?;
        let sim_s = t.elapsed().as_secs_f64();
        Ok(Arm {
            plan_s,
            sim_s,
            digest: check::digest(&report, &plan),
            report,
        })
    })
}
