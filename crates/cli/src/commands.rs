//! The CLI subcommands.

use cdn_cli::args::{
    Args, Flag, Table, METRICS_OUT, PROFILE_OUT, SAMPLE_EVERY, THREADS, TRACE_OUT, WINDOW,
};
use cdn_cli::sink::{self, Destinations, Sink};
use cdn_core::{
    compare_strategies_with_options, export_events, parse_csv_trace, replay_events, ModelBackend,
    Scenario, ScenarioConfig, Strategy,
};
use cdn_topology::metrics::compute_metrics;
use cdn_topology::{export, TransitStubConfig, TransitStubTopology};
use cdn_workload::{
    analysis::TraceStats, DemandMatrix, LambdaMode, SiteCatalog, TraceSpec, WorkloadConfig,
};
use std::path::Path;

pub const USAGE: &str = "hybrid-cdn — replication + caching for CDNs (IPDPS 2005 reproduction)

USAGE:
  hybrid-cdn compare  [scenario options] [--cache-policy lru|delayed-lru|fifo|lfu|clock|gdsf]
                      [--model paper|che|closed-form] [--trace-in FILE.events]
                      [--fetch-latency N] [fault options] [sampling options] [output options]
  hybrid-cdn plan     [scenario options] [--strategy hybrid] [--model paper|che|closed-form]
                      [output options]
  hybrid-cdn ingest   --out FILE.events [--csv FILE] [scenario options] [output options]
  hybrid-cdn topology [--scale small|paper|large|large-ci] [--seed N] [--dot FILE] [--csv FILE]
  hybrid-cdn workload [--theta 1.0] [--sites 15] [--objects 200] [--seed N]
  hybrid-cdn report   [--metrics FILE] [--profile FILE] [--samples FILE] [--trace FILE]
                      [--timeline FILE] [--top N] [--format text|json|openmetrics]
  hybrid-cdn help
  hybrid-cdn COMMAND --help    describe each flag COMMAND accepts

Every argument is a flag of its command: an unknown flag, a stray value or
a flag missing its value is an error.

SCENARIO OPTIONS: [--capacity 0.05] [--lambda 0] [--mode uncacheable|expired]
  [--scale small|paper|large|large-ci] [--seed N] [--threads N]
FAULT OPTIONS (any of them enables fault injection and failover routing):
  [--mttf TICKS] [--mttr TICKS] [--origin-outage F] [--retry-penalty-ms MS]
SAMPLING OPTIONS (each with the file it writes):
  [--sample-every N --samples-out FILE] [--window N --timeline-out FILE]
OUTPUT OPTIONS: [--trace-out FILE] [--metrics-out FILE] [--profile-out FILE]
  Every output but the WALL-CLOCK --profile-out Chrome trace (chrome://tracing,
  Perfetto) is deterministic: no timestamps, identical bytes at any --threads
  value and any shard count.

TRACES (the versioned binary .events format: (key, timestamp_us) pairs):
  `hybrid-cdn ingest --csv trace.csv --out trace.events` converts a text
  trace (rows `timestamp_us,key` or `timestamp_us,site,object`; a header
  row is skipped) to .events; without --csv it exports the synthetic
  workload of the selected scenario instead. `compare --trace-in
  trace.events` then replays the file through every strategy: requests
  are partitioned across servers by a deterministic key hash and clamped
  into the scenario's catalog, so any trace replays against any scale.

DELAYED HITS (compare): with --fetch-latency N, remote fetches complete N
  ticks after the miss that started them, and requests for the same object
  arriving earlier coalesce onto the pending fetch as `delayed_hit`s
  instead of separate fetches (0 = instant fetches, the off switch).

`hybrid-cdn report` renders these artifacts: a latency-attribution table
plus percentile ladder from --metrics, per-phase self-time from --profile,
cause mix and slowest requests from --samples, span tallies from --trace,
per-window sparklines and a per-server hotspot table from --timeline.
`--format json` emits the report machine-readable; `--format openmetrics`
re-exports the --metrics snapshot in OpenMetrics text format.

STRATEGIES (for --strategy):
  hybrid | replication | caching | popularity | greedy-local | backtrack
  | random:<seed> | adhoc:<cache-fraction>";

const SCALE: Flag = "--scale <tier>  small | paper | large | large-ci (default small)";
const MODEL: Flag = "--model <name>  hit-ratio model: paper | che | closed-form (default paper)";
const GENERATOR_SEED: Flag = "--seed <n>  generator seed (default 1)";

/// The flags of every command that builds a scenario.
const SCENARIO: &[Flag] = &[
    "--capacity <f>  storage per server, a fraction of the corpus in (0, 1] (default 0.05)",
    "--lambda <f>  share of requests for uncacheable or expired objects, [0, 1] (default 0)",
    "--mode <mode>  what those requests are: uncacheable | expired (default uncacheable)",
    SCALE,
    "--seed <n>  scenario seed",
    THREADS,
    TRACE_OUT,
    METRICS_OUT,
    PROFILE_OUT,
];

/// The flags that only a command that simulates reads.
const SIMULATION: &[Flag] = &[
    "--mttf <ticks>  mean requests between server crashes (default: never)",
    "--mttr <ticks>  mean requests to repair a crashed server (default 500)",
    "--origin-outage <f>  long-run fraction of time origins are down, [0, 1)",
    "--retry-penalty-ms <ms>  latency per dead holder skipped (default 200)",
    "--fetch-latency <n>  remote fetches complete n ticks after their miss (0 = instant)",
    SAMPLE_EVERY,
    "--samples-out <path>  write the sampled request paths (JSONL)",
    WINDOW,
    "--timeline-out <path>  write the windowed timeline JSON",
];

pub const COMPARE: Table = &[
    SCENARIO,
    SIMULATION,
    &[
        "--cache-policy <name>  lru | delayed-lru | fifo | lfu | clock | gdsf (default lru)",
        MODEL,
        "--trace-in <path>  replay this .events trace instead of the synthetic workload",
    ],
];
pub const PLAN: Table = &[
    SCENARIO,
    &[
        "--strategy <name>  the strategy to plan (default hybrid; see `hybrid-cdn help`)",
        MODEL,
    ],
];
pub const INGEST: Table = &[
    &[
        "--out <path>  write the .events trace here (required)",
        "--csv <path>  convert this CSV trace instead of exporting the synthetic workload",
    ],
    SCENARIO,
];
pub const TOPOLOGY: Table = &[&[
    SCALE,
    GENERATOR_SEED,
    "--dot <path>  write the topology as Graphviz DOT",
    "--csv <path>  write the edge list as CSV",
]];
pub const WORKLOAD: Table = &[&[
    "--theta <f>  Zipf exponent of object popularity (default 1.0)",
    "--sites <n>  number of sites (default 15)",
    "--objects <n>  objects per site (default 200)",
    GENERATOR_SEED,
]];

/// Fault parameters from `--mttf`/`--mttr`/`--origin-outage`/
/// `--retry-penalty-ms`; `None` when no fault flag was given (nothing is
/// ever down, and no `fault.*` telemetry is emitted). The schedule seed
/// follows the scenario seed so `--seed` varies faults and workload
/// together. [`FaultParams::validate`](cdn_core::sim::FaultParams::validate)
/// checks the values.
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
    Ok(Some(cdn_core::sim::FaultParams {
        mttf: a.get_f64("mttf", f64::INFINITY)?,
        mttr: a.get_positive("mttr")?.unwrap_or(defaults.mttr),
        origin_outage: a.get_f64("origin-outage", 0.0)?,
        retry_penalty_ms: a.get_f64("retry-penalty-ms", defaults.retry_penalty_ms)?,
        seed: scenario_seed,
    }))
}

/// The scenario the flags describe, checked by
/// [`ScenarioConfig::validate`].
fn scenario_config(a: &Args) -> Result<ScenarioConfig, String> {
    let mode = match a.get("mode").unwrap_or("uncacheable") {
        "uncacheable" => LambdaMode::Uncacheable,
        "expired" => LambdaMode::Expired,
        other => return Err(format!("unknown --mode '{other}'")),
    };
    let capacity = a.get_f64("capacity", 0.05)?;
    let lambda = a.get_f64("lambda", 0.0)?;
    let mut cfg = match a.get("scale").unwrap_or("small") {
        "paper" => ScenarioConfig::paper(capacity, lambda, mode),
        "large" => ScenarioConfig::large(capacity, lambda, mode),
        "large-ci" => ScenarioConfig::large_ci(capacity, lambda, mode),
        "small" => {
            let mut c = ScenarioConfig::small();
            // Below 5% of the small corpus no site fits anywhere and every
            // strategy degenerates to pure caching; clamp, but say so. Only
            // a valid capacity is raised: `validate` rejects the rest.
            c.capacity_fraction = capacity;
            if capacity > 0.0 && capacity < 0.05 {
                eprintln!(
                    "note: --capacity {capacity} raised to 0.05 at small scale (sites are ~7% of the corpus each)"
                );
                c.capacity_fraction = 0.05;
            }
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
    cfg.sim.sample_every = a.sample_every()?;
    cfg.sim.window = a.window()?;
    // As with --window, 0 is the documented off switch.
    let fetch_latency = a
        .get("fetch-latency")
        .map(|_| a.get_u64("fetch-latency", 0));
    cfg.sim.fetch_latency = fetch_latency.transpose()?;
    cfg.validate()?;
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

/// `compare`'s outputs. A sampler or a window with no file to write it to
/// is an error, not work computed and then dropped.
fn compare_outputs(a: &Args, sim: &cdn_core::sim::SimConfig) -> Result<Destinations, String> {
    if sim.sample_every > 0 && !a.has("samples-out") {
        return Err("--sample-every needs --samples-out FILE".into());
    }
    if sim.window > 0 && !a.has("timeline-out") {
        return Err("--window needs --timeline-out FILE (or --window 0 for no timeline)".into());
    }
    Ok(Destinations::from_args(a))
}

pub fn compare(a: &Args) -> Result<(), String> {
    let cfg = scenario_config(a)?;
    let outputs = compare_outputs(a, &cfg.sim)?;
    let threads = a.thread_pool()?;
    let mut sink = Sink::install(outputs)?;
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
        let events = cdn_workload::read_events_file(Path::new(path))
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
    for row in &cmp.rows {
        sink.record(&row.strategy.name(), &row.report);
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
    sink.flush()
}

pub fn plan(a: &Args) -> Result<(), String> {
    let cfg = scenario_config(a)?;
    let strategy = parse_strategy(a.get("strategy").unwrap_or("hybrid"))?;
    let model = parse_model(a)?;
    let threads = a.thread_pool()?;
    let sink = Sink::install(Destinations::from_args(a))?;
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
    sink.flush()
}

pub fn topology(a: &Args) -> Result<(), String> {
    let topo_cfg = match a.get("scale").unwrap_or("small") {
        "paper" => TransitStubConfig::paper_default(),
        "large" | "large-ci" => TransitStubConfig::large(),
        "small" => TransitStubConfig::small(),
        other => return Err(format!("unknown --scale '{other}'")),
    };
    let seed = a.get_u64("seed", 1)?;
    let (dot, csv) = (a.get("dot").map(Path::new), a.get("csv").map(Path::new));
    sink::check_writable(dot.into_iter().chain(csv))?;
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
    if let Some(path) = dot {
        let dot = export::transit_stub_to_dot(&topo, "cdn");
        sink::write(path, &dot, "DOT")?;
    }
    if let Some(path) = csv {
        sink::write(path, &export::to_edge_csv(&topo.graph), "edge CSV")?;
    }
    Ok(())
}

pub fn workload(a: &Args) -> Result<(), String> {
    let mut cfg = WorkloadConfig::small();
    cfg.theta = a.get_f64("theta", 1.0)?;
    cfg.m_sites = a.get_u64("sites", 15)? as usize;
    cfg.objects_per_site = a.get_u64("objects", 200)? as usize;
    cfg.validate()?;
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
    a.thread_pool()?;
    sink::check_writable([Path::new(out)])?;
    let sink = Sink::install(Destinations::from_args(a))?;
    let (events, source) = match a.get("csv") {
        Some(csv) => {
            let scenario_flags = ["capacity", "lambda", "mode", "scale", "seed"];
            if let Some(flag) = scenario_flags.into_iter().find(|f| a.has(f)) {
                return Err(format!(
                    "--{flag} shapes the synthetic scenario, which --csv replaces"
                ));
            }
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
    cdn_workload::write_events_file(Path::new(out), &events)
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
    sink.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdn_cli::args::ArgError;
    use cdn_telemetry as telemetry;

    /// Parse a whitespace-separated command line against a command's flag
    /// table.
    fn try_parse(command: Table, line: &str) -> Result<Args, ArgError> {
        Args::parse(line.split_whitespace().map(str::to_string), command)
    }

    fn parse(command: Table, line: &str) -> Args {
        try_parse(command, line).unwrap()
    }

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
        let a = parse(PLAN, "");
        assert_eq!(parse_model(&a).unwrap(), ModelBackend::Paper);
        let a = parse(PLAN, "--model closed-form");
        assert_eq!(parse_model(&a).unwrap(), ModelBackend::ClosedForm);
        let a = parse(COMPARE, "--model fagin");
        let err = parse_model(&a).unwrap_err();
        assert!(err.starts_with("--model:"), "{err}");
        assert!(err.contains("fagin"), "{err}");
        assert!(err.contains("closed-form"), "must list alternatives: {err}");
    }

    #[test]
    fn scenario_config_defaults_and_overrides() {
        let a = parse(PLAN, "--capacity 0.2 --lambda 0.1 --mode expired --seed 5");
        let cfg = scenario_config(&a).unwrap();
        assert!((cfg.capacity_fraction - 0.2).abs() < 1e-12);
        assert!((cfg.lambda - 0.1).abs() < 1e-12);
        assert_eq!(cfg.lambda_mode, LambdaMode::Expired);
        assert_eq!(cfg.seed, 5);
    }

    #[test]
    fn out_of_range_numbers_rejected_cleanly() {
        let a = parse(COMPARE, "--capacity 2.0");
        assert!(scenario_config(&a)
            .unwrap_err()
            .contains("capacity_fraction"));
        let a = parse(COMPARE, "--lambda -0.2");
        assert!(scenario_config(&a).unwrap_err().contains("lambda"));
        assert!(parse_strategy("adhoc:1.5")
            .unwrap_err()
            .contains("fraction"));
    }

    #[test]
    fn workload_rejects_invalid_sizes() {
        // Each of these once panicked inside `SiteCatalog::generate`.
        for line in ["--sites 0", "--objects 0", "--theta -1", "--theta nan"] {
            assert!(workload(&parse(WORKLOAD, line)).is_err(), "{line}");
        }
    }

    fn parse_scenario(line: &str) -> Result<ScenarioConfig, String> {
        scenario_config(&parse(COMPARE, line))
    }

    #[test]
    fn window_flag_populates_sim_config_and_accepts_zero() {
        let cfg = parse_scenario("--window 512").unwrap();
        assert_eq!(cfg.sim.window, 512);
        // --window 0 is the documented off switch, never an error.
        let cfg = parse_scenario("--window 0").unwrap();
        assert_eq!(cfg.sim.window, 0);
        let cfg = parse_scenario("").unwrap();
        assert_eq!(cfg.sim.window, 0);
        assert!(parse_scenario("--window wide").is_err());
    }

    #[test]
    fn fetch_latency_flag_populates_sim_config_and_accepts_zero() {
        let cfg = parse_scenario("--fetch-latency 64").unwrap();
        assert_eq!(cfg.sim.fetch_latency, Some(64));
        // --fetch-latency 0 is the documented off switch, never an error.
        let cfg = parse_scenario("--fetch-latency 0").unwrap();
        assert_eq!(cfg.sim.fetch_latency, Some(0));
        let cfg = parse_scenario("").unwrap();
        assert_eq!(cfg.sim.fetch_latency, None);
        assert!(parse_scenario("--fetch-latency slow").is_err());
    }

    #[test]
    fn ingest_round_trips_csv_and_synthetic_traces() {
        let dir = std::env::temp_dir().join("cdn-cli-ingest-test");
        std::fs::create_dir_all(&dir).unwrap();
        let csv = dir.join("trace.csv");
        let out = dir.join("trace.events");
        std::fs::write(&csv, "timestamp_us,site,object\n20,1,3\n10,0,5\n").unwrap();
        let line = format!("--csv {} --out {}", csv.display(), out.display());
        ingest(&parse(INGEST, &line)).unwrap();
        let events = cdn_workload::read_events_file(&out).unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].timestamp_us, 10, "sorted by timestamp");

        // Without --csv the selected scenario's synthetic workload exports.
        let synth = dir.join("synth.events");
        let line = format!("--out {} --seed 7", synth.display());
        ingest(&parse(INGEST, &line)).unwrap();
        let events = cdn_workload::read_events_file(&synth).unwrap();
        assert!(!events.is_empty());

        // Missing --out is a contextful error, not a panic.
        assert!(ingest(&parse(INGEST, "")).unwrap_err().contains("--out"));
    }

    #[test]
    fn ingest_rejects_scenario_flags_next_to_csv() {
        // `ingest --csv ... --capacity 0.5 --seed 9` once exited 0: a CSV
        // trace replaces the synthetic scenario these flags shape.
        let dir = std::env::temp_dir().join("cdn-cli-ingest-csv-flags-test");
        std::fs::create_dir_all(&dir).unwrap();
        let out = dir.join("never.events");
        for flag in [
            "--capacity 0.5",
            "--lambda 0.1",
            "--mode expired",
            "--scale quick",
            "--seed 9",
        ] {
            let line = format!("--csv x.csv --out {} {flag}", out.display());
            let err = ingest(&parse(INGEST, &line)).unwrap_err();
            assert!(err.contains(flag.split(' ').next().unwrap()), "{err}");
            assert!(!out.exists());
        }
    }

    #[test]
    fn fault_flags_populate_sim_config() {
        let cfg = parse_scenario("--mttf 300 --origin-outage 0.2 --seed 9").unwrap();
        let f = cfg.sim.faults.expect("faults enabled");
        assert_eq!(f.mttf, 300.0);
        assert_eq!(f.origin_outage, 0.2);
        assert_eq!(f.mttr, 500.0, "default MTTR");
        assert_eq!(f.retry_penalty_ms, 200.0, "default retry penalty");
        assert_eq!(f.seed, 9, "fault seed follows the scenario seed");
    }

    #[test]
    fn no_fault_flags_means_no_fault_injection() {
        let cfg = parse_scenario("--capacity 0.2").unwrap();
        assert!(cfg.sim.faults.is_none());
        // A single fault flag is enough to switch the layer on.
        let cfg = parse_scenario("--retry-penalty-ms 50").unwrap();
        let f = cfg.sim.faults.unwrap();
        assert!(f.is_zero_fault(), "penalty alone never fires a fault");
        assert_eq!(f.retry_penalty_ms, 50.0);
    }

    #[test]
    fn invalid_fault_flags_rejected() {
        for mttf in ["0", "nan", "NaN"] {
            assert!(parse_scenario(&format!("--mttf {mttf}"))
                .unwrap_err()
                .contains("mttf"));
        }
        // `inf` is the documented "never fails".
        assert!(parse_scenario("--mttf inf").is_ok());
        assert!(parse_scenario("--mttr -3").unwrap_err().contains("--mttr"));
        assert!(parse_scenario("--origin-outage 1.0")
            .unwrap_err()
            .contains("origin_outage"));
        for penalty in ["-1", "1e300", "inf"] {
            assert!(parse_scenario(&format!("--retry-penalty-ms {penalty}"))
                .unwrap_err()
                .contains("retry_penalty_ms"));
        }
    }

    #[test]
    fn threads_flag_configures_pool() {
        let a = parse(COMPARE, "--threads 0");
        assert!(a.thread_pool().unwrap_err().contains("--threads"));
        let a = parse(INGEST, "--threads 3");
        assert_eq!(a.thread_pool().unwrap(), 3);
        // Without the flag the pool is left as-is.
        assert_eq!(parse(PLAN, "").thread_pool().unwrap(), 3);
    }

    #[test]
    fn observability_keys_accepted_and_flushed() {
        let dir = std::env::temp_dir().join("cdn-cli-obs-test");
        std::fs::create_dir_all(&dir).unwrap();
        let trace = dir.join("trace.jsonl");
        let metrics = dir.join("metrics.json");
        let (t, m) = (trace.display(), metrics.display());
        let a = parse(PLAN, &format!("--trace-out {t} --metrics-out {m}"));
        let sink = Sink::install(Destinations::from_args(&a)).unwrap();
        assert!(telemetry::enabled());
        assert!(telemetry::trace_installed());
        sink.flush().unwrap();
        let snapshot = std::fs::read_to_string(&metrics).unwrap();
        assert!(snapshot.contains("\"counters\""));
        assert!(trace.exists());
        telemetry::uninstall_trace();
    }

    #[test]
    fn bad_mode_rejected() {
        assert!(scenario_config(&parse(PLAN, "--mode sideways")).is_err());
    }

    #[test]
    fn paper_scale_selected() {
        let cfg = scenario_config(&parse(PLAN, "--scale paper")).unwrap();
        assert_eq!(cfg.hosts.n_servers, 50);
    }

    #[test]
    fn large_scales_selected() {
        let parse_scale =
            |label: &str| scenario_config(&parse(PLAN, &format!("--scale {label}"))).unwrap();
        let large = parse_scale("large");
        assert_eq!(large.hosts.n_servers, 2000);
        assert_eq!(large.workload.m_sites, 400);
        let ci = parse_scale("large-ci");
        assert_eq!(ci.hosts.n_servers, 2000);
        assert!(ci.workload.base_requests < large.workload.base_requests);
    }

    const SIMULATOR_FLAGS: &[&str] = &[
        "--mttf 300",
        "--mttr 50",
        "--origin-outage 0.2",
        "--retry-penalty-ms 10",
        "--fetch-latency 4",
        "--sample-every 10",
        "--samples-out s.jsonl",
        "--window 4",
        "--timeline-out t.json",
    ];

    #[test]
    fn plan_rejects_simulator_flags() {
        // `plan` never simulates: it once accepted these, ignored them, and
        // wrote an empty samples file and `{"runs": []}`.
        for line in SIMULATOR_FLAGS {
            assert!(try_parse(PLAN, line).is_err(), "{line}");
            assert!(try_parse(COMPARE, line).is_ok(), "{line}");
        }
    }

    #[test]
    fn ingest_rejects_simulator_flags() {
        for line in SIMULATOR_FLAGS {
            assert!(try_parse(INGEST, line).is_err(), "{line}");
        }
    }

    #[test]
    fn compare_needs_a_file_for_samples_and_timeline() {
        let outputs = |line| {
            let a = parse(COMPARE, line);
            compare_outputs(&a, &scenario_config(&a).unwrap().sim)
        };
        // Both were computed and then dropped.
        let err = outputs("--sample-every 100").unwrap_err();
        assert!(err.contains("--samples-out"), "{err}");
        let err = outputs("--window 64").unwrap_err();
        assert!(err.contains("--timeline-out"), "{err}");
        assert!(outputs("--window 0").is_ok());
        let line = "--sample-every 100 --samples-out s.jsonl --window 64 --timeline-out t.json";
        let dest = outputs(line).unwrap();
        assert_eq!(dest.samples, Some("s.jsonl".into()));
        assert_eq!(dest.timeline_json, Some("t.json".into()));
    }

    #[test]
    fn ingest_writes_its_output_files() {
        // `ingest` once accepted these and wrote none of them.
        let dir = std::env::temp_dir().join("cdn-cli-ingest-outputs-test");
        std::fs::create_dir_all(&dir).unwrap();
        let outputs = ["m.json", "t.jsonl", "p.json"].map(|name| dir.join(name));
        for file in &outputs {
            let _ = std::fs::remove_file(file);
        }
        let [m, t, p] = outputs.each_ref().map(|file| file.display());
        let out = dir.join("synth.events");
        let line = format!(
            "--out {} --metrics-out {m} --trace-out {t} --profile-out {p}",
            out.display()
        );
        ingest(&parse(INGEST, &line)).unwrap();
        for file in &outputs {
            assert!(file.exists(), "{}", file.display());
        }
        let snapshot = std::fs::read_to_string(&outputs[0]).unwrap();
        assert!(snapshot.contains("\"counters\""), "{snapshot}");
    }
}
