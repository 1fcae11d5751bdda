//! The CLI subcommands.

use crate::args::Args;
use cdn_core::{
    compare_strategies_with_options, export_events, parse_csv_trace, replay_events, ModelBackend,
    Scenario, ScenarioConfig, Strategy,
};
use cdn_telemetry as telemetry;
use cdn_topology::metrics::compute_metrics;
use cdn_topology::{export, TransitStubConfig, TransitStubTopology};
use cdn_workload::{
    analysis::TraceStats, DemandMatrix, LambdaMode, SiteCatalog, TraceSpec, WorkloadConfig,
};

pub const USAGE: &str = "hybrid-cdn — replication + caching for CDNs (IPDPS 2005 reproduction)

USAGE:
  hybrid-cdn compare  [--capacity 0.05] [--lambda 0] [--mode uncacheable|expired]
                      [--scale small|paper|large|large-ci] [--seed N] [--threads N]
                      [--cache-policy lru|delayed-lru|fifo|lfu|clock|gdsf]
                      [--model paper|che|closed-form] [--trace-in FILE.events]
                      [fault options]
  hybrid-cdn plan     [--strategy hybrid] [--model paper|che|closed-form]
                      [--capacity 0.05] [--lambda 0] [--mode uncacheable|expired]
                      [--scale small|paper|large|large-ci] [--seed N]
                      [--threads N] [fault options]
  hybrid-cdn topology [--scale small|paper|large] [--seed N] [--dot FILE] [--csv FILE]
  hybrid-cdn workload [--theta 1.0] [--sites 15] [--objects 200] [--seed N]
  hybrid-cdn ingest   --out FILE.events [--csv FILE] [scenario flags]
  hybrid-cdn report   [--metrics FILE] [--profile FILE] [--samples FILE]
                      [--trace FILE] [--timeline FILE] [--top N]
                      [--format text|json|openmetrics]
  hybrid-cdn help

TRACES (the versioned binary .events format: (key, timestamp_us) pairs):
  `hybrid-cdn ingest --csv trace.csv --out trace.events` converts a text
  trace (rows `timestamp_us,key` or `timestamp_us,site,object`; a header
  row is skipped) to .events; without --csv it exports the synthetic
  workload of the selected scenario instead. `compare --trace-in
  trace.events` then replays the file through every strategy: requests
  are partitioned across servers by a deterministic key hash and clamped
  into the scenario's catalog, so any trace replays against any scale.

DELAYED HITS (compare, plan, and trace replay):
  --fetch-latency N     remote fetches complete N ticks after the miss
                        that started them; requests for the same object
                        arriving earlier coalesce onto the pending fetch
                        as `delayed_hit`s instead of separate fetches
                        (0 = instant fetches, the off switch)

FAULT OPTIONS (enable fault injection / failover routing in the simulator):
  --mttf TICKS          mean requests between server crashes (default: never)
  --mttr TICKS          mean requests to repair a crashed server (default 500)
  --origin-outage F     long-run fraction of time origins are down, [0, 1)
  --retry-penalty-ms MS latency per dead holder skipped (default 200)

OBSERVABILITY (compare and plan; deterministic — no timestamps, identical
bytes at any --threads value):
  --trace-out FILE      write the JSONL span/event trace to FILE
  --metrics-out FILE    write the counters/gauges/histograms snapshot to FILE
  --sample-every N      sample every Nth request per server stream
  --samples-out FILE    write sampled request paths (JSONL) to FILE
  --window N            bucket measured requests into N-tick virtual-time
                        windows (0 = off); timelines are byte-identical at
                        any --threads value and any shard count
  --timeline-out FILE   write the windowed timeline JSON to FILE
  --profile-out FILE    write a WALL-CLOCK Chrome trace profile to FILE
                        (load in chrome://tracing or Perfetto; timed data
                        lives only here — the files above stay byte-identical)

`hybrid-cdn report` renders these artifacts: a latency-attribution table
plus percentile ladder from --metrics, per-phase self-time from --profile,
cause mix and slowest requests from --samples, span tallies from --trace,
per-window sparklines and a per-server hotspot table from --timeline.
`--format json` emits the report machine-readable; `--format openmetrics`
re-exports the --metrics snapshot in OpenMetrics text format.

STRATEGIES (for --strategy):
  hybrid | replication | caching | popularity | greedy-local | backtrack
  | hybrid-che | random:<seed> | adhoc:<cache-fraction>";

/// The `--key`s shared by every scenario-driven subcommand.
pub const SCENARIO_KEYS: &[&str] = &[
    "capacity",
    "lambda",
    "mode",
    "scale",
    "seed",
    "threads",
    "mttf",
    "mttr",
    "origin-outage",
    "retry-penalty-ms",
    "trace-out",
    "metrics-out",
    "profile-out",
    "sample-every",
    "samples-out",
    "window",
    "timeline-out",
    "fetch-latency",
];

/// Observability outputs requested on the command line. Constructing it
/// (via [`Observability::setup`]) switches the telemetry layer on when any
/// output is wanted; [`Observability::flush`] writes the files after the
/// command's work is done.
struct Observability {
    trace_out: Option<String>,
    metrics_out: Option<String>,
    /// Wall-clock profile destination — strictly separate from the
    /// deterministic outputs above, which stay byte-identical whether or
    /// not profiling is on.
    profile_out: Option<String>,
    samples_out: Option<String>,
    /// Rendered sampled-request JSONL, accumulated via [`Self::record_samples`].
    samples: String,
    timeline_out: Option<String>,
    /// Windowed timelines buffered via [`Self::record_timeline`], rendered
    /// to JSON at flush time.
    timelines: Vec<(String, cdn_core::sim::Timeline)>,
}

impl Observability {
    fn setup(a: &Args) -> Self {
        let obs = Self {
            trace_out: a.get("trace-out").map(str::to_string),
            metrics_out: a.get("metrics-out").map(str::to_string),
            profile_out: a.get("profile-out").map(str::to_string),
            samples_out: a.get("samples-out").map(str::to_string),
            samples: String::new(),
            timeline_out: a.get("timeline-out").map(str::to_string),
            timelines: Vec::new(),
        };
        if obs.trace_out.is_some() || obs.metrics_out.is_some() {
            telemetry::reset_metrics();
            telemetry::set_enabled(true);
            if obs.trace_out.is_some() {
                telemetry::install_trace();
            }
        }
        if obs.profile_out.is_some() {
            telemetry::profile::install();
        }
        obs
    }

    /// Buffer one simulation's sampled request paths under `run`.
    fn record_samples(&mut self, run: &str, report: &cdn_core::sim::SimReport) {
        if self.samples_out.is_some() && !report.samples.is_empty() {
            cdn_core::sim::render_samples_jsonl(run, report, &mut self.samples);
        }
    }

    /// Buffer one simulation's windowed timeline under `run`.
    fn record_timeline(&mut self, run: &str, report: &cdn_core::sim::SimReport) {
        if self.timeline_out.is_some() {
            if let Some(tl) = &report.timeline {
                self.timelines.push((run.to_string(), tl.clone()));
            }
        }
    }

    fn flush(&self) -> Result<(), String> {
        if let Some(path) = &self.metrics_out {
            std::fs::write(path, telemetry::registry().snapshot_json())
                .map_err(|e| format!("writing {path}: {e}"))?;
            println!("wrote metrics snapshot to {path}");
        }
        if let Some(path) = &self.trace_out {
            let jsonl = telemetry::drain_trace().unwrap_or_default();
            std::fs::write(path, jsonl).map_err(|e| format!("writing {path}: {e}"))?;
            println!("wrote event trace to {path}");
        }
        if let Some(path) = &self.samples_out {
            std::fs::write(path, &self.samples).map_err(|e| format!("writing {path}: {e}"))?;
            println!("wrote sampled requests to {path}");
        }
        if let Some(path) = &self.timeline_out {
            let body = cdn_core::sim::render_timeline_json(&self.timelines);
            std::fs::write(path, body).map_err(|e| format!("writing {path}: {e}"))?;
            println!("wrote windowed timeline to {path}");
        }
        if let Some(path) = &self.profile_out {
            let profile = telemetry::profile::drain_chrome_trace().unwrap_or_default();
            std::fs::write(path, profile).map_err(|e| format!("writing {path}: {e}"))?;
            println!("wrote wall-clock profile to {path} (chrome://tracing, Perfetto)");
        }
        Ok(())
    }
}

/// Apply `--threads N` (configure the global rayon pool before any parallel
/// region runs) and return the effective worker count. Results are
/// bit-identical at any thread count, so this is purely a speed knob.
fn configure_threads(a: &Args) -> Result<usize, String> {
    if a.has("threads") {
        let n = a.get_u64("threads", 0)?;
        if n == 0 {
            return Err("--threads must be at least 1".into());
        }
        rayon::ThreadPoolBuilder::new()
            .num_threads(n as usize)
            .build_global()
            .map_err(|e| format!("--threads: {e}"))?;
    }
    Ok(rayon::current_num_threads())
}

/// Fault parameters from `--mttf`/`--mttr`/`--origin-outage`/
/// `--retry-penalty-ms`; `None` when no fault flag was given (nothing is
/// ever down, and no `fault.*` telemetry is emitted). The schedule seed
/// follows the scenario seed so `--seed` varies faults and workload
/// together.
fn fault_params(
    a: &Args,
    scenario_seed: u64,
) -> Result<Option<cdn_core::sim::FaultParams>, String> {
    if !["mttf", "mttr", "origin-outage", "retry-penalty-ms"]
        .iter()
        .any(|k| a.has(k))
    {
        return Ok(None);
    }
    let defaults = cdn_core::sim::FaultParams::default();
    let params = cdn_core::sim::FaultParams {
        mttf: a.get_f64("mttf", f64::INFINITY)?,
        mttr: a.get_f64("mttr", defaults.mttr)?,
        origin_outage: a.get_f64("origin-outage", 0.0)?,
        retry_penalty_ms: a.get_f64("retry-penalty-ms", defaults.retry_penalty_ms)?,
        seed: scenario_seed,
    };
    if params.mttf <= 0.0 {
        return Err(format!("--mttf must be positive, got {}", params.mttf));
    }
    if !(params.mttr > 0.0 && params.mttr.is_finite()) {
        return Err(format!(
            "--mttr must be positive and finite, got {}",
            params.mttr
        ));
    }
    if !(0.0..1.0).contains(&params.origin_outage) {
        return Err(format!(
            "--origin-outage must be in [0, 1), got {}",
            params.origin_outage
        ));
    }
    if !(0.0..=cdn_core::sim::MAX_RETRY_PENALTY_MS).contains(&params.retry_penalty_ms) {
        return Err(format!(
            "--retry-penalty-ms must be in [0, {}], got {}",
            cdn_core::sim::MAX_RETRY_PENALTY_MS,
            params.retry_penalty_ms
        ));
    }
    Ok(Some(params))
}

fn scenario_config(a: &Args) -> Result<ScenarioConfig, String> {
    let mode = match a.get("mode").unwrap_or("uncacheable") {
        "uncacheable" => LambdaMode::Uncacheable,
        "expired" => LambdaMode::Expired,
        other => return Err(format!("unknown --mode '{other}'")),
    };
    let capacity = a.get_f64("capacity", 0.05)?;
    if !(0.0..=1.0).contains(&capacity) || capacity == 0.0 {
        return Err(format!("--capacity must be in (0, 1], got {capacity}"));
    }
    let lambda = a.get_f64("lambda", 0.0)?;
    if !(0.0..=1.0).contains(&lambda) {
        return Err(format!("--lambda must be in [0, 1], got {lambda}"));
    }
    let mut cfg = match a.get("scale").unwrap_or("small") {
        "paper" => ScenarioConfig::paper(capacity, lambda, mode),
        "large" => ScenarioConfig::large(capacity, lambda, mode),
        "large-ci" => ScenarioConfig::large_ci(capacity, lambda, mode),
        "small" => {
            let mut c = ScenarioConfig::small();
            // Below 5% of the small corpus no site fits anywhere and every
            // strategy degenerates to pure caching; clamp, but say so.
            if capacity < 0.05 {
                eprintln!(
                    "note: --capacity {capacity} raised to 0.05 at small scale (sites are ~7% of the corpus each)"
                );
            }
            c.capacity_fraction = capacity.max(0.05);
            c.lambda = lambda;
            c.lambda_mode = mode;
            c
        }
        other => return Err(format!("unknown --scale '{other}'")),
    };
    if a.has("seed") {
        cfg.seed = a.get_u64("seed", cfg.seed)?;
    }
    cfg.sim.faults = fault_params(a, cfg.seed)?;
    if a.has("sample-every") {
        let n = a.get_u64("sample-every", 0)?;
        if n == 0 {
            return Err("--sample-every must be at least 1".into());
        }
        cfg.sim.sample_every = Some(n);
    }
    if a.has("window") {
        // 0 is valid: it is the documented timeline off switch, and the
        // `Some(0)` path is bit-identical to `None`.
        cfg.sim.window = Some(a.get_u64("window", 0)?);
    }
    if a.has("fetch-latency") {
        // Same contract as --window: 0 is the documented off switch and
        // the `Some(0)` path is bit-identical to `None`.
        cfg.sim.fetch_latency = Some(a.get_u64("fetch-latency", 0)?);
    }
    Ok(cfg)
}

fn parse_strategy(spec: &str) -> Result<Strategy, String> {
    if let Some(frac) = spec.strip_prefix("adhoc:") {
        let f: f64 = frac
            .parse()
            .map_err(|_| format!("bad ad-hoc fraction '{frac}'"))?;
        if !(0.0..=1.0).contains(&f) {
            return Err(format!("ad-hoc cache fraction must be in [0, 1], got {f}"));
        }
        return Ok(Strategy::AdHoc { cache_fraction: f });
    }
    if let Some(seed) = spec.strip_prefix("random:") {
        let s: u64 = seed.parse().map_err(|_| format!("bad seed '{seed}'"))?;
        return Ok(Strategy::Random { seed: s });
    }
    Ok(match spec {
        "hybrid" => Strategy::Hybrid,
        "replication" => Strategy::Replication,
        "caching" => Strategy::Caching,
        "popularity" => Strategy::Popularity,
        "greedy-local" => Strategy::GreedyLocal,
        "backtrack" => Strategy::Backtrack,
        "hybrid-che" => Strategy::HybridChe,
        other => return Err(format!("unknown strategy '{other}'")),
    })
}

/// Resolve `--model` through [`ModelBackend::by_name`] (same contract as
/// `--cache-policy` via `cdn_cache::by_name`: unknown names exit 1 with the
/// alternatives listed).
fn parse_model(a: &Args) -> Result<ModelBackend, String> {
    match a.get("model") {
        None => Ok(ModelBackend::Paper),
        Some(name) => ModelBackend::by_name(name).map_err(|e| format!("--model: {e}")),
    }
}

pub fn compare(a: &Args) -> Result<(), String> {
    let cfg = scenario_config(a)?;
    let threads = configure_threads(a)?;
    let obs = Observability::setup(a);
    println!(
        "scenario: {} servers, {} sites, capacity {:.1}%, lambda {:.0}%, seed {}, {threads} thread(s)",
        cfg.hosts.n_servers,
        cfg.workload.m_sites,
        cfg.capacity_fraction * 100.0,
        cfg.lambda * 100.0,
        cfg.seed
    );
    if let Some(f) = &cfg.sim.faults {
        println!(
            "faults: MTTF {} / MTTR {} requests, origin outage {:.0}%, retry penalty {} ms",
            f.mttf,
            f.mttr,
            f.origin_outage * 100.0,
            f.retry_penalty_ms
        );
    }
    let policy = a.get("cache-policy");
    if let Some(name) = policy {
        println!("cache policy: {name}");
    }
    let model = parse_model(a)?;
    if model != ModelBackend::Paper {
        println!("hit-ratio model: {}", model.name());
    }
    let scenario = Scenario::generate(&cfg);
    let strategies = [Strategy::Replication, Strategy::Caching, Strategy::Hybrid];
    let cmp = if let Some(path) = a.get("trace-in") {
        if policy.is_some() {
            return Err("--trace-in replays with each strategy's default cache; \
                        --cache-policy is not supported here"
                .into());
        }
        let events = cdn_workload::read_events_file(std::path::Path::new(path))
            .map_err(|e| format!("reading {path}: {e}"))?;
        println!("replaying {} events from {path}", events.len());
        let rows = strategies
            .iter()
            .map(|&strategy| {
                let plan = scenario.plan_with_model(strategy, model);
                let report = replay_events(&scenario, &plan, events.clone());
                cdn_core::ComparisonRow {
                    strategy,
                    plan,
                    report,
                }
            })
            .collect();
        cdn_core::StrategyComparison { rows }
    } else {
        compare_strategies_with_options(&scenario, &strategies, policy, model)
            .map_err(|e| format!("--cache-policy: {e}"))?
    };
    let mut obs = obs;
    for row in &cmp.rows {
        obs.record_samples(&row.strategy.name(), &row.report);
        obs.record_timeline(&row.strategy.name(), &row.report);
    }
    println!("\n{}", cmp.summary_table());
    if cfg.sim.faults.is_some() {
        println!("{}", cmp.fault_table());
    }
    if let Some(gain) = cmp.improvement(Strategy::Hybrid, Strategy::Replication) {
        println!("hybrid vs replication: {:+.1}%", gain * 100.0);
    }
    if let Some(gain) = cmp.improvement(Strategy::Hybrid, Strategy::Caching) {
        println!("hybrid vs caching:     {:+.1}%", gain * 100.0);
    }
    obs.flush()
}

pub fn plan(a: &Args) -> Result<(), String> {
    let cfg = scenario_config(a)?;
    let strategy = parse_strategy(a.get("strategy").unwrap_or("hybrid"))?;
    let model = parse_model(a)?;
    let threads = configure_threads(a)?;
    let obs = Observability::setup(a);
    let scenario = Scenario::generate(&cfg);
    let plan = scenario.plan_with_model(strategy, model);
    if model != ModelBackend::Paper {
        println!("hit-ratio model: {}", model.name());
    }
    println!(
        "strategy {}: {} replicas, predicted {:.3} hops/request ({threads} thread(s))",
        strategy.name(),
        plan.placement.replica_count(),
        plan.predicted_mean_hops(&scenario.problem)
    );
    println!("\nserver  replicas  cache_MB  sites");
    for i in 0..scenario.problem.n_servers() {
        let sites = plan.placement.sites_at(i);
        let listed = if sites.len() > 12 {
            format!("{:?} …", &sites[..12])
        } else {
            format!("{sites:?}")
        };
        println!(
            "{i:>6} {:>9} {:>9.1}  {listed}",
            sites.len(),
            plan.placement.free_bytes(i) as f64 / 1e6,
        );
    }
    obs.flush()
}

pub fn topology(a: &Args) -> Result<(), String> {
    let topo_cfg = match a.get("scale").unwrap_or("small") {
        "paper" => TransitStubConfig::paper_default(),
        "large" | "large-ci" => TransitStubConfig::large(),
        "small" => TransitStubConfig::small(),
        other => return Err(format!("unknown --scale '{other}'")),
    };
    let seed = a.get_u64("seed", 1)?;
    let topo = TransitStubTopology::generate(&topo_cfg, seed);
    let metrics = compute_metrics(&topo.graph, 4);
    println!(
        "transit-stub topology: {} nodes, {} edges, diameter {}, mean path {:.2} hops, \
         mean degree {:.2}",
        metrics.n_nodes,
        metrics.n_edges,
        metrics.diameter,
        metrics.mean_path_hops,
        metrics.mean_degree
    );
    if let Some(path) = a.get("dot") {
        std::fs::write(path, export::transit_stub_to_dot(&topo, "cdn"))
            .map_err(|e| format!("writing {path}: {e}"))?;
        println!("wrote DOT to {path}");
    }
    if let Some(path) = a.get("csv") {
        std::fs::write(path, export::to_edge_csv(&topo.graph))
            .map_err(|e| format!("writing {path}: {e}"))?;
        println!("wrote edge CSV to {path}");
    }
    Ok(())
}

pub fn workload(a: &Args) -> Result<(), String> {
    let mut cfg = WorkloadConfig::small();
    cfg.theta = a.get_f64("theta", 1.0)?;
    cfg.m_sites = a.get_u64("sites", 15)? as usize;
    cfg.objects_per_site = a.get_u64("objects", 200)? as usize;
    let seed = a.get_u64("seed", 1)?;
    let catalog = SiteCatalog::generate(&cfg, seed);
    let demand = DemandMatrix::generate(&catalog, 4, seed ^ 1);
    let spec = TraceSpec::new(
        &demand,
        catalog.object_zipf.clone(),
        0.0,
        LambdaMode::Uncacheable,
        seed ^ 2,
    );
    let stats = TraceStats::from_requests(spec.stream_for_server(0));
    let busiest = *stats
        .site_counts
        .iter()
        .max_by_key(|(_, &c)| c)
        .map(|(site, _)| site)
        .expect("non-empty trace");
    println!(
        "workload: {} sites x {} objects, theta {:.2}, corpus {:.1} MB",
        cfg.m_sites,
        cfg.objects_per_site,
        cfg.theta,
        catalog.total_bytes() as f64 / 1e6
    );
    println!(
        "trace (server 0): {} requests, {} distinct objects, entropy {:.2} bits",
        stats.total,
        stats.distinct_objects(),
        stats.entropy_bits()
    );
    println!(
        "top-1% objects carry {:.1}% of requests; top-10% carry {:.1}%",
        100.0 * stats.concentration(0.01),
        100.0 * stats.concentration(0.10)
    );
    if let Some(est) = stats.zipf_exponent_estimate_for_site(busiest, 30) {
        println!(
            "estimated site-internal Zipf exponent: {est:.2} (configured {:.2})",
            cfg.theta
        );
    }
    Ok(())
}

/// `hybrid-cdn ingest` — produce a binary `.events` trace file, either by
/// converting a CSV text trace (`--csv`) or by exporting the synthetic
/// workload of the selected scenario (no `--csv`).
pub fn ingest(a: &Args) -> Result<(), String> {
    let out = a
        .get("out")
        .ok_or("ingest needs --out FILE.events to know where to write")?;
    let (events, source) = match a.get("csv") {
        Some(csv) => {
            let text = std::fs::read_to_string(csv).map_err(|e| format!("reading {csv}: {e}"))?;
            (parse_csv_trace(&text)?, format!("csv {csv}"))
        }
        None => {
            let cfg = scenario_config(a)?;
            let scenario = Scenario::generate(&cfg);
            (
                export_events(&scenario),
                format!(
                    "synthetic scenario ({} servers, seed {})",
                    cfg.hosts.n_servers, cfg.seed
                ),
            )
        }
    };
    if events.is_empty() {
        return Err("trace is empty — nothing to write".into());
    }
    cdn_workload::write_events_file(std::path::Path::new(out), &events)
        .map_err(|e| format!("writing {out}: {e}"))?;
    let distinct: std::collections::HashSet<u64> = events.iter().map(|e| e.key).collect();
    let span_us = events.last().map(|e| e.timestamp_us).unwrap_or(0)
        - events.first().map(|e| e.timestamp_us).unwrap_or(0);
    println!(
        "wrote {} events ({} distinct keys, {:.3} s span) from {source} to {out}",
        events.len(),
        distinct.len(),
        span_us as f64 / 1e6
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strategy_parsing_round_trip() {
        assert_eq!(parse_strategy("hybrid").unwrap(), Strategy::Hybrid);
        assert_eq!(
            parse_strategy("adhoc:0.4").unwrap(),
            Strategy::AdHoc {
                cache_fraction: 0.4
            }
        );
        assert_eq!(
            parse_strategy("random:9").unwrap(),
            Strategy::Random { seed: 9 }
        );
        assert!(parse_strategy("bogus").is_err());
        assert!(parse_strategy("adhoc:x").is_err());
    }

    #[test]
    fn model_parsing_defaults_and_rejects_unknown() {
        let a = Args::parse(std::iter::empty::<String>(), &["model"]).unwrap();
        assert_eq!(parse_model(&a).unwrap(), ModelBackend::Paper);
        let a = Args::parse(
            ["--model", "closed-form"].iter().map(|s| s.to_string()),
            &["model"],
        )
        .unwrap();
        assert_eq!(parse_model(&a).unwrap(), ModelBackend::ClosedForm);
        let a = Args::parse(
            ["--model", "fagin"].iter().map(|s| s.to_string()),
            &["model"],
        )
        .unwrap();
        let err = parse_model(&a).unwrap_err();
        assert!(err.starts_with("--model:"), "{err}");
        assert!(err.contains("fagin"), "{err}");
        assert!(err.contains("closed-form"), "must list alternatives: {err}");
    }

    #[test]
    fn scenario_config_defaults_and_overrides() {
        let a = Args::parse(
            [
                "--capacity",
                "0.2",
                "--lambda",
                "0.1",
                "--mode",
                "expired",
                "--seed",
                "5",
            ]
            .iter()
            .map(|s| s.to_string()),
            &["capacity", "lambda", "mode", "scale", "seed"],
        )
        .unwrap();
        let cfg = scenario_config(&a).unwrap();
        assert!((cfg.capacity_fraction - 0.2).abs() < 1e-12);
        assert!((cfg.lambda - 0.1).abs() < 1e-12);
        assert_eq!(cfg.lambda_mode, LambdaMode::Expired);
        assert_eq!(cfg.seed, 5);
    }

    #[test]
    fn out_of_range_numbers_rejected_cleanly() {
        let a = Args::parse(
            ["--capacity", "2.0"].iter().map(|s| s.to_string()),
            &["capacity"],
        )
        .unwrap();
        assert!(scenario_config(&a).unwrap_err().contains("--capacity"));
        let a = Args::parse(
            ["--lambda", "-0.2"].iter().map(|s| s.to_string()),
            &["lambda"],
        )
        .unwrap();
        assert!(scenario_config(&a).unwrap_err().contains("--lambda"));
        assert!(parse_strategy("adhoc:1.5")
            .unwrap_err()
            .contains("fraction"));
    }

    fn parse_scenario(args: &[&str]) -> Result<ScenarioConfig, String> {
        let a = Args::parse(args.iter().map(|s| s.to_string()), SCENARIO_KEYS).unwrap();
        scenario_config(&a)
    }

    #[test]
    fn window_flag_populates_sim_config_and_accepts_zero() {
        let cfg = parse_scenario(&["--window", "512"]).unwrap();
        assert_eq!(cfg.sim.window, Some(512));
        // --window 0 is the documented off switch, never an error.
        let cfg = parse_scenario(&["--window", "0"]).unwrap();
        assert_eq!(cfg.sim.window, Some(0));
        let cfg = parse_scenario(&[]).unwrap();
        assert_eq!(cfg.sim.window, None);
        assert!(parse_scenario(&["--window", "wide"]).is_err());
    }

    #[test]
    fn fetch_latency_flag_populates_sim_config_and_accepts_zero() {
        let cfg = parse_scenario(&["--fetch-latency", "64"]).unwrap();
        assert_eq!(cfg.sim.fetch_latency, Some(64));
        // --fetch-latency 0 is the documented off switch, never an error.
        let cfg = parse_scenario(&["--fetch-latency", "0"]).unwrap();
        assert_eq!(cfg.sim.fetch_latency, Some(0));
        let cfg = parse_scenario(&[]).unwrap();
        assert_eq!(cfg.sim.fetch_latency, None);
        assert!(parse_scenario(&["--fetch-latency", "slow"]).is_err());
    }

    #[test]
    fn ingest_round_trips_csv_and_synthetic_traces() {
        let dir = std::env::temp_dir().join("cdn-cli-ingest-test");
        std::fs::create_dir_all(&dir).unwrap();
        let csv = dir.join("trace.csv");
        let out = dir.join("trace.events");
        std::fs::write(&csv, "timestamp_us,site,object\n20,1,3\n10,0,5\n").unwrap();
        let a = Args::parse(
            [
                "--csv",
                csv.to_str().unwrap(),
                "--out",
                out.to_str().unwrap(),
            ]
            .iter()
            .map(|s| s.to_string()),
            &["csv", "out"],
        )
        .unwrap();
        ingest(&a).unwrap();
        let events = cdn_workload::read_events_file(&out).unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].timestamp_us, 10, "sorted by timestamp");

        // Without --csv the selected scenario's synthetic workload exports.
        let synth = dir.join("synth.events");
        let mut keys = vec!["csv", "out"];
        keys.extend_from_slice(SCENARIO_KEYS);
        let a = Args::parse(
            ["--out", synth.to_str().unwrap(), "--seed", "7"]
                .iter()
                .map(|s| s.to_string()),
            &keys,
        )
        .unwrap();
        ingest(&a).unwrap();
        let events = cdn_workload::read_events_file(&synth).unwrap();
        assert!(!events.is_empty());

        // Missing --out is a contextful error, not a panic.
        let a = Args::parse(std::iter::empty::<String>(), &["csv", "out"]).unwrap();
        assert!(ingest(&a).unwrap_err().contains("--out"));
    }

    #[test]
    fn fault_flags_populate_sim_config() {
        let cfg =
            parse_scenario(&["--mttf", "300", "--origin-outage", "0.2", "--seed", "9"]).unwrap();
        let f = cfg.sim.faults.expect("faults enabled");
        assert_eq!(f.mttf, 300.0);
        assert_eq!(f.origin_outage, 0.2);
        assert_eq!(f.mttr, 500.0, "default MTTR");
        assert_eq!(f.retry_penalty_ms, 200.0, "default retry penalty");
        assert_eq!(f.seed, 9, "fault seed follows the scenario seed");
    }

    #[test]
    fn no_fault_flags_means_no_fault_injection() {
        let cfg = parse_scenario(&["--capacity", "0.2"]).unwrap();
        assert!(cfg.sim.faults.is_none());
        // A single fault flag is enough to switch the layer on.
        let cfg = parse_scenario(&["--retry-penalty-ms", "50"]).unwrap();
        let f = cfg.sim.faults.unwrap();
        assert!(f.is_zero_fault(), "penalty alone never fires a fault");
        assert_eq!(f.retry_penalty_ms, 50.0);
    }

    #[test]
    fn invalid_fault_flags_rejected() {
        assert!(parse_scenario(&["--mttf", "0"])
            .unwrap_err()
            .contains("--mttf"));
        assert!(parse_scenario(&["--mttr", "-3"])
            .unwrap_err()
            .contains("--mttr"));
        assert!(parse_scenario(&["--origin-outage", "1.0"])
            .unwrap_err()
            .contains("--origin-outage"));
        for penalty in ["-1", "1e300", "inf"] {
            assert!(parse_scenario(&["--retry-penalty-ms", penalty])
                .unwrap_err()
                .contains("--retry-penalty-ms"));
        }
    }

    #[test]
    fn threads_flag_configures_pool() {
        let a = Args::parse(
            ["--threads", "0"].iter().map(|s| s.to_string()),
            &["threads"],
        )
        .unwrap();
        assert!(configure_threads(&a).unwrap_err().contains("--threads"));
        let a = Args::parse(
            ["--threads", "3"].iter().map(|s| s.to_string()),
            &["threads"],
        )
        .unwrap();
        assert_eq!(configure_threads(&a).unwrap(), 3);
        // Without the flag the pool is left as-is.
        let a = Args::parse(std::iter::empty(), &["threads"]).unwrap();
        assert_eq!(configure_threads(&a).unwrap(), 3);
    }

    #[test]
    fn observability_keys_accepted_and_flushed() {
        let dir = std::env::temp_dir().join("cdn-cli-obs-test");
        std::fs::create_dir_all(&dir).unwrap();
        let trace = dir.join("trace.jsonl");
        let metrics = dir.join("metrics.json");
        let a = Args::parse(
            [
                "--trace-out",
                trace.to_str().unwrap(),
                "--metrics-out",
                metrics.to_str().unwrap(),
            ]
            .iter()
            .map(|s| s.to_string()),
            SCENARIO_KEYS,
        )
        .unwrap();
        let obs = Observability::setup(&a);
        assert!(telemetry::enabled());
        assert!(telemetry::trace_installed());
        obs.flush().unwrap();
        let snapshot = std::fs::read_to_string(&metrics).unwrap();
        assert!(snapshot.contains("\"counters\""));
        assert!(trace.exists());
        telemetry::uninstall_trace();
    }

    #[test]
    fn bad_mode_rejected() {
        let a = Args::parse(
            ["--mode", "sideways"].iter().map(|s| s.to_string()),
            &["mode"],
        )
        .unwrap();
        assert!(scenario_config(&a).is_err());
    }

    #[test]
    fn paper_scale_selected() {
        let a = Args::parse(
            ["--scale", "paper"].iter().map(|s| s.to_string()),
            &["scale"],
        )
        .unwrap();
        let cfg = scenario_config(&a).unwrap();
        assert_eq!(cfg.hosts.n_servers, 50);
    }

    #[test]
    fn large_scales_selected() {
        let parse_scale = |label: &str| {
            let a =
                Args::parse(["--scale", label].iter().map(|s| s.to_string()), &["scale"]).unwrap();
            scenario_config(&a).unwrap()
        };
        let large = parse_scale("large");
        assert_eq!(large.hosts.n_servers, 2000);
        assert_eq!(large.workload.m_sites, 400);
        let ci = parse_scale("large-ci");
        assert_eq!(ci.hosts.n_servers, 2000);
        assert!(ci.workload.base_requests < large.workload.base_requests);
    }
}
