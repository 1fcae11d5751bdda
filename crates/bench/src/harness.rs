//! Shared experiment plumbing: scale selection, argument parsing, CSV
//! output, observability wiring, timing, and the standard per-figure
//! runner.

use cdn_core::{Scenario, ScenarioConfig, Strategy};
use cdn_sim::SimReport;
use cdn_telemetry as telemetry;
use cdn_workload::LambdaMode;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Instant;

/// Experiment scale. `Paper` is the reconstructed evaluation setup
/// (N = 50, M = 200, 1560-node topology, ~12.5M requests); `Quick` is a
/// reduced instance for smoke-testing the harness (`--scale quick`, or the
/// `--quick` shorthand); `Large` is the internet-scale tier (N = 2000,
/// M = 400, 8256-node topology, ~10^8 requests) and `LargeCi` the same
/// fleet at ~10^7 requests, sized for a CI perf gate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Paper,
    Quick,
    Large,
    LargeCi,
}

impl Scale {
    /// The scenario configuration for this scale at the given capacity/λ.
    pub fn config(self, capacity: f64, lambda: f64, mode: LambdaMode) -> ScenarioConfig {
        match self {
            Scale::Paper => ScenarioConfig::paper(capacity, lambda, mode),
            Scale::Quick => {
                let mut cfg = ScenarioConfig::small();
                cfg.capacity_fraction = capacity.max(0.10);
                cfg.lambda = lambda;
                cfg.lambda_mode = mode;
                cfg
            }
            Scale::Large => ScenarioConfig::large(capacity, lambda, mode),
            Scale::LargeCi => ScenarioConfig::large_ci(capacity, lambda, mode),
        }
    }

    /// The `--scale` spelling of this tier (also used in result files).
    pub fn label(self) -> &'static str {
        match self {
            Scale::Paper => "paper",
            Scale::Quick => "quick",
            Scale::Large => "large",
            Scale::LargeCi => "large-ci",
        }
    }

    /// Parse a `--scale` value.
    pub fn from_label(s: &str) -> Option<Self> {
        match s {
            "paper" => Some(Scale::Paper),
            "quick" => Some(Scale::Quick),
            "large" => Some(Scale::Large),
            "large-ci" => Some(Scale::LargeCi),
            _ => None,
        }
    }
}

/// Parsed command line shared by every bench binary.
///
/// Every binary accepts the same flag set; anything else is rejected with
/// a usage message and exit code 2 (previously unknown flags were silently
/// ignored, so a typo like `--qiuck` ran the full paper scale).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BenchArgs {
    pub scale: Scale,
    /// Rayon pool size override (`--threads <n>`).
    pub threads: Option<usize>,
    /// Write the deterministic JSONL event trace here (`--trace-out`).
    pub trace_out: Option<PathBuf>,
    /// Write an extra metrics snapshot here (`--metrics-out`), in addition
    /// to the `results/<bin>_metrics.json` every binary emits.
    pub metrics_out: Option<PathBuf>,
    /// Write the wall-clock Chrome trace profile here (`--profile-out`).
    /// Timed data lives strictly in this file — enabling it never changes
    /// a byte of the deterministic outputs.
    pub profile_out: Option<PathBuf>,
    /// Sample every Nth simulated request into `results/<bin>_samples.jsonl`
    /// (`--sample-every <n>`). Deterministic: keyed on stream index.
    pub sample_every: Option<u64>,
    /// Virtual-time window width for the windowed timeline
    /// (`--window <n>`), written to `results/<bin>_timeline.json` and
    /// `.csv`. `--window 0` is the documented off switch, so unlike
    /// `--sample-every` a zero value parses cleanly.
    pub window: Option<u64>,
    /// Replay a binary `.events` trace file instead of the synthetic
    /// workload (`--trace-in <path>`). Only `bench_trace` consumes this;
    /// the figure binaries ignore it.
    pub trace_in: Option<PathBuf>,
    /// Suppress the stderr progress heartbeats (`--quiet`).
    pub quiet: bool,
}

/// Why [`BenchArgs::parse_from`] refused a command line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArgError {
    /// `--help` was passed: print usage, exit 0.
    Help,
    /// Bad flag or missing value: print message + usage, exit 2.
    Bad(String),
}

/// Usage text for the shared bench flag set.
pub fn usage(bin: &str) -> String {
    format!(
        "usage: {bin} [--scale <tier>] [--quick] [--threads <n>] [--trace-out <path>]\n\
         \x20          [--metrics-out <path>] [--profile-out <path>] [--sample-every <n>]\n\
         \x20          [--window <n>] [--trace-in <path>] [--quiet]\n\
         \n\
         \x20 --scale <tier>        quick | paper | large | large-ci (default: paper)\n\
         \x20 --quick               shorthand for --scale quick\n\
         \x20 --threads <n>         rayon thread-pool size (default: all cores)\n\
         \x20 --trace-out <path>    write the deterministic JSONL event trace to <path>\n\
         \x20 --metrics-out <path>  write the metrics snapshot JSON to <path>\n\
         \x20 --profile-out <path>  write a wall-clock Chrome trace profile to <path>\n\
         \x20                       (load in chrome://tracing or Perfetto)\n\
         \x20 --sample-every <n>    sample every Nth request into <bin>_samples.jsonl\n\
         \x20 --window <n>          bucket measured requests into n-tick virtual-time\n\
         \x20                       windows, written to <bin>_timeline.json/.csv (0 = off)\n\
         \x20 --trace-in <path>     replay a binary .events trace instead of the\n\
         \x20                       synthetic workload (bench_trace only)\n\
         \x20 --quiet               suppress stderr progress heartbeats\n\
         \x20 --help                print this message\n"
    )
}

impl BenchArgs {
    /// Parse an argument list (without the program name). Pure — no
    /// process exit, no global state — so tests can exercise every branch.
    pub fn parse_from<I>(args: I) -> Result<Self, ArgError>
    where
        I: IntoIterator<Item = String>,
    {
        let mut out = BenchArgs {
            scale: Scale::Paper,
            threads: None,
            trace_out: None,
            metrics_out: None,
            profile_out: None,
            sample_every: None,
            window: None,
            trace_in: None,
            quiet: false,
        };
        let mut it = args.into_iter();
        while let Some(a) = it.next() {
            match a.as_str() {
                "--scale" => {
                    let v = it
                        .next()
                        .ok_or_else(|| ArgError::Bad("--scale needs a value".into()))?;
                    out.scale = Scale::from_label(&v).ok_or_else(|| {
                        ArgError::Bad(format!(
                            "--scale: unknown tier `{v}` (quick | paper | large | large-ci)"
                        ))
                    })?;
                }
                "--quick" => out.scale = Scale::Quick,
                "--quiet" => out.quiet = true,
                "--sample-every" => {
                    let v = it
                        .next()
                        .ok_or_else(|| ArgError::Bad("--sample-every needs a value".into()))?;
                    let n: u64 = v
                        .parse()
                        .map_err(|_| ArgError::Bad(format!("--sample-every: bad value `{v}`")))?;
                    if n == 0 {
                        return Err(ArgError::Bad("--sample-every must be at least 1".into()));
                    }
                    out.sample_every = Some(n);
                }
                "--window" => {
                    let v = it
                        .next()
                        .ok_or_else(|| ArgError::Bad("--window needs a value".into()))?;
                    let n: u64 = v
                        .parse()
                        .map_err(|_| ArgError::Bad(format!("--window: bad value `{v}`")))?;
                    // 0 is valid: it is the documented timeline off switch.
                    out.window = Some(n);
                }
                "--profile-out" => {
                    let v = it
                        .next()
                        .ok_or_else(|| ArgError::Bad("--profile-out needs a path".into()))?;
                    out.profile_out = Some(PathBuf::from(v));
                }
                "--help" | "-h" => return Err(ArgError::Help),
                "--threads" => {
                    let v = it
                        .next()
                        .ok_or_else(|| ArgError::Bad("--threads needs a value".into()))?;
                    let n: usize = v
                        .parse()
                        .map_err(|_| ArgError::Bad(format!("--threads: bad value `{v}`")))?;
                    if n == 0 {
                        return Err(ArgError::Bad("--threads must be at least 1".into()));
                    }
                    out.threads = Some(n);
                }
                "--trace-in" => {
                    let v = it
                        .next()
                        .ok_or_else(|| ArgError::Bad("--trace-in needs a path".into()))?;
                    out.trace_in = Some(PathBuf::from(v));
                }
                "--trace-out" => {
                    let v = it
                        .next()
                        .ok_or_else(|| ArgError::Bad("--trace-out needs a path".into()))?;
                    out.trace_out = Some(PathBuf::from(v));
                }
                "--metrics-out" => {
                    let v = it
                        .next()
                        .ok_or_else(|| ArgError::Bad("--metrics-out needs a path".into()))?;
                    out.metrics_out = Some(PathBuf::from(v));
                }
                other => {
                    return Err(ArgError::Bad(format!("unrecognised argument `{other}`")));
                }
            }
        }
        Ok(out)
    }

    /// Parse the process command line, set up observability, and return.
    /// Unknown flags print the usage message and exit with status 2.
    pub fn parse(bin: &str) -> Self {
        match Self::parse_from(std::env::args().skip(1)) {
            Ok(args) => {
                args.apply(bin);
                args
            }
            Err(ArgError::Help) => {
                print!("{}", usage(bin));
                std::process::exit(0);
            }
            Err(ArgError::Bad(msg)) => {
                eprintln!("{bin}: {msg}\n\n{}", usage(bin));
                std::process::exit(2);
            }
        }
    }

    /// Configure the process for this run: size the global rayon pool,
    /// reset the metrics registry, enable telemetry counters (they are
    /// deterministic and cheap, so bench binaries always record them), and
    /// install a trace/profiler when requested.
    fn apply(&self, bin: &str) {
        start_instant(); // anchor the heartbeat clock at process setup
        QUIET.store(self.quiet, Ordering::Relaxed);
        if let Some(n) = self.threads {
            // Ignore "already built": tests and nested harnesses may have
            // initialised the global pool first.
            let _ = rayon::ThreadPoolBuilder::new()
                .num_threads(n)
                .build_global();
        }
        telemetry::reset_metrics();
        telemetry::set_enabled(true);
        if self.trace_out.is_some() {
            telemetry::install_trace();
        }
        if self.profile_out.is_some() {
            telemetry::profile::install();
        }
        let _ = bin;
    }

    /// The scenario configuration for this run: [`Scale::config`] plus the
    /// per-request sampler wired through to the simulator.
    pub fn config(&self, capacity: f64, lambda: f64, mode: LambdaMode) -> ScenarioConfig {
        let mut cfg = self.scale.config(capacity, lambda, mode);
        cfg.sim.sample_every = self.sample_every;
        cfg.sim.window = self.window;
        cfg
    }

    /// Flush observability outputs. Every binary writes
    /// `results/<bin>_metrics.json`; `--metrics-out` / `--trace-out` get
    /// extra copies at the requested paths. Wall-clock never enters these
    /// files — the snapshot holds only deterministic counters, gauges, and
    /// histograms, so it is byte-comparable across machines and thread
    /// counts. Wall-clock timings go **only** to `--profile-out`, and
    /// sampled request paths to `results/<bin>_samples.jsonl` — separate
    /// files, so the byte-diffed artifacts never see either.
    pub fn finish(&self, bin: &str) {
        let snapshot = telemetry::registry().snapshot_json();
        write_json(&format!("{bin}_metrics.json"), &snapshot);
        if let Some(path) = &self.metrics_out {
            write_file_or_exit(path, &snapshot, "metrics snapshot");
            println!("  wrote {}", path.display());
        }
        if let Some(path) = &self.trace_out {
            let jsonl = telemetry::drain_trace().unwrap_or_default();
            write_file_or_exit(path, &jsonl, "event trace");
            println!("  wrote {}", path.display());
        }
        let Recorded { samples, timelines } = std::mem::take(&mut *recorded());
        if !samples.is_empty() {
            write_json(&format!("{bin}_samples.jsonl"), &samples);
        }
        if !timelines.is_empty() {
            write_json(
                &format!("{bin}_timeline.json"),
                &cdn_sim::render_timeline_json(&timelines),
            );
            write_json(
                &format!("{bin}_timeline.csv"),
                &cdn_sim::render_timeline_csv(&timelines),
            );
        }
        if let Some(path) = &self.profile_out {
            let profile = telemetry::profile::drain_chrome_trace().unwrap_or_default();
            write_file_or_exit(path, &profile, "wall-clock profile");
            println!("  wrote {}", path.display());
        }
    }
}

static QUIET: AtomicBool = AtomicBool::new(false);

/// Wall-clock anchor for heartbeat lines, set once at argument parsing.
fn start_instant() -> Instant {
    static START: OnceLock<Instant> = OnceLock::new();
    *START.get_or_init(Instant::now)
}

/// Emit a progress heartbeat to stderr (stdout stays reserved for
/// results). Silenced by `--quiet`. Long paper-scale figures previously
/// ran for minutes with no output at all.
pub fn progress(msg: &str) {
    if !QUIET.load(Ordering::Relaxed) {
        eprintln!("[{:8.1}s] {msg}", start_instant().elapsed().as_secs_f64());
    }
}

/// What [`record`] collected from every run so far.
#[derive(Default)]
struct Recorded {
    /// Sampled request paths, as JSONL.
    samples: String,
    /// Windowed timelines, each tagged with its run.
    timelines: Vec<(String, cdn_sim::Timeline)>,
}

fn recorded() -> MutexGuard<'static, Recorded> {
    static SINK: Mutex<Recorded> = Mutex::new(Recorded {
        samples: String::new(),
        timelines: Vec::new(),
    });
    SINK.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Keep `report`'s sampled request paths and windowed timeline (when
/// `--sample-every` / `--window` enabled them), tagged with `run`, which
/// must tell this run apart from the binary's others;
/// [`BenchArgs::finish`] writes them to `results/<bin>_samples.jsonl` and
/// `results/<bin>_timeline.json`/`.csv`.
pub fn record(run: &str, report: &SimReport) {
    let mut sink = recorded();
    cdn_sim::render_samples_jsonl(run, report, &mut sink.samples);
    if let Some(tl) = &report.timeline {
        sink.timelines.push((run.to_string(), tl.clone()));
    }
}

/// Write `body` to `path`, exiting with a contextful message on failure
/// (e.g. a bad `--metrics-out` directory) instead of a panic backtrace.
fn write_file_or_exit(path: &Path, body: &str, what: &str) {
    if let Err(e) = std::fs::write(path, body) {
        eprintln!("error: writing {what} to {}: {e}", path.display());
        std::process::exit(1);
    }
}

/// Where result CSVs land.
pub fn results_dir() -> PathBuf {
    let dir = std::env::var("CDN_RESULTS_DIR").unwrap_or_else(|_| "results".into());
    let path = PathBuf::from(dir);
    if let Err(e) = std::fs::create_dir_all(&path) {
        eprintln!("error: creating results dir {}: {e}", path.display());
        std::process::exit(1);
    }
    path
}

/// Write a CSV file of `(header, rows)` under the results directory and
/// report the path on stdout.
pub fn write_csv(name: &str, header: &str, rows: &[String]) -> PathBuf {
    let path = results_dir().join(name);
    let mut body = String::with_capacity(rows.len() * 32 + header.len() + 1);
    body.push_str(header);
    body.push('\n');
    for r in rows {
        body.push_str(r);
        body.push('\n');
    }
    write_file_or_exit(&path, &body, "result CSV");
    println!("  wrote {}", path.display());
    path
}

/// Write a pre-rendered JSON body under the results directory and report
/// the path on stdout — machine-readable sibling of [`write_csv`].
pub fn write_json(name: &str, body: &str) -> PathBuf {
    let path = results_dir().join(name);
    write_file_or_exit(&path, body, "result file");
    println!("  wrote {}", path.display());
    path
}

/// Wall-clock timings of named phases at one thread count, rendering to a
/// JSON object. Used by the `bench_parallel` binary; figure binaries keep
/// their inline `Instant` pairs.
#[derive(Debug, Clone)]
pub struct PhaseTimings {
    pub threads: usize,
    pub phases: Vec<(String, f64)>,
}

impl PhaseTimings {
    pub fn new(threads: usize) -> Self {
        Self {
            threads,
            phases: Vec::new(),
        }
    }

    /// Run `f`, recording its wall-clock under `name`.
    pub fn time<R>(&mut self, name: &str, f: impl FnOnce() -> R) -> R {
        let t0 = Instant::now();
        let out = f();
        self.phases
            .push((name.to_string(), t0.elapsed().as_secs_f64()));
        out
    }

    /// Sum of all recorded phases.
    pub fn total_seconds(&self) -> f64 {
        self.phases.iter().map(|(_, s)| s).sum()
    }

    /// `{"threads": N, "phases": {"<name>_s": secs, ...}, "total_s": t}`.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(out, "{{\"threads\": {}, \"phases\": {{", self.threads);
        for (idx, (name, secs)) in self.phases.iter().enumerate() {
            if idx > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "\"{name}_s\": {secs:.6}");
        }
        let _ = write!(out, "}}, \"total_s\": {:.6}}}", self.total_seconds());
        out
    }
}

/// Format a CDF as CSV rows (`latency_ms,fraction`), downsampled to at most
/// `max_points` points to keep files plottable.
pub fn cdf_rows(report: &SimReport, max_points: usize) -> Vec<String> {
    let cdf = report.histogram.cdf();
    let stride = (cdf.len() / max_points.max(1)).max(1);
    let mut rows: Vec<String> = cdf
        .iter()
        .step_by(stride)
        .map(|(ms, frac)| format!("{ms:.1},{frac:.6}"))
        .collect();
    if let Some(last) = cdf.last() {
        let formatted = format!("{:.1},{:.6}", last.0, last.1);
        if rows.last() != Some(&formatted) {
            rows.push(formatted);
        }
    }
    rows
}

/// One strategy's results within a figure.
pub struct StrategyResult {
    pub strategy: Strategy,
    pub report: SimReport,
    pub predicted_mean_hops: f64,
    pub replicas: usize,
    pub plan_seconds: f64,
    pub sim_seconds: f64,
}

/// [`Scenario::generate`] with a heartbeat, so multi-scenario figures
/// show progress between panels as well as between strategies.
pub fn generate_scenario(config: &ScenarioConfig) -> Scenario {
    progress(&format!(
        "generating scenario (N={} M={} capacity {:.0}%)",
        config.hosts.n_servers,
        config.workload.m_sites,
        100.0 * config.capacity_fraction
    ));
    Scenario::generate(config)
}

/// Monotonic label for each [`run_strategies`] batch, so samples from
/// repeated batches (e.g. one per capacity point) stay distinguishable in
/// `results/<bin>_samples.jsonl`.
static RUN_SEQ: AtomicU64 = AtomicU64::new(0);

/// Plan + simulate each strategy against a scenario, logging progress.
pub fn run_strategies(scenario: &Scenario, strategies: &[Strategy]) -> Vec<StrategyResult> {
    let run = RUN_SEQ.fetch_add(1, Ordering::Relaxed);
    strategies
        .iter()
        .map(|&strategy| {
            progress(&format!("planning {}", strategy.name()));
            let t0 = Instant::now();
            let plan = {
                let _prof = telemetry::profile::span(&format!("plan:{}", strategy.name()));
                scenario.plan(strategy)
            };
            let plan_seconds = t0.elapsed().as_secs_f64();
            progress(&format!("simulating {}", strategy.name()));
            let t1 = Instant::now();
            let report = {
                let _prof = telemetry::profile::span(&format!("sim:{}", strategy.name()));
                scenario.simulate(&plan)
            };
            let sim_seconds = t1.elapsed().as_secs_f64();
            record(&format!("r{run}:{}", strategy.name()), &report);
            println!(
                "  {:<16} plan {:>6.1}s  sim {:>6.1}s  mean {:>8.2} ms  local {:>5.1}%  replicas {}",
                strategy.name(),
                plan_seconds,
                sim_seconds,
                report.mean_latency_ms,
                100.0 * report.local_ratio(),
                plan.placement.replica_count(),
            );
            StrategyResult {
                strategy,
                predicted_mean_hops: plan.predicted_mean_hops(&scenario.problem),
                replicas: plan.placement.replica_count(),
                report,
                plan_seconds,
                sim_seconds,
            }
        })
        .collect()
}

/// Render the standard per-figure summary block.
pub fn summary_block(results: &[StrategyResult]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "  {:<16} {:>9} {:>9} {:>9} {:>8} {:>9} {:>9}",
        "strategy", "mean_ms", "p50_ms", "p95_ms", "local%", "hops/req", "replicas"
    );
    for r in results {
        let _ = writeln!(
            out,
            "  {:<16} {:>9.2} {:>9.1} {:>9.1} {:>8.1} {:>9.3} {:>9}",
            r.strategy.name(),
            r.report.mean_latency_ms,
            r.report.histogram.percentile(0.5),
            r.report.histogram.percentile(0.95),
            100.0 * r.report.local_ratio(),
            r.report.mean_cost_hops,
            r.replicas,
        );
    }
    out
}

/// Mean-latency improvement of `a` over `b`, in percent.
pub fn improvement_pct(results: &[StrategyResult], a: Strategy, b: Strategy) -> Option<f64> {
    let la = results
        .iter()
        .find(|r| r.strategy == a)?
        .report
        .mean_latency_ms;
    let lb = results
        .iter()
        .find(|r| r.strategy == b)?
        .report
        .mean_latency_ms;
    (lb > 0.0).then(|| 100.0 * (lb - la) / lb)
}

/// Stamp a figure banner.
pub fn banner(title: &str, scale: Scale) {
    println!("==== {title} [{:?} scale] ====", scale);
}

/// Helper to append a labelled CSV for every strategy's CDF.
pub fn write_cdf_csvs(prefix: &str, results: &[StrategyResult]) {
    for r in results {
        let name = format!("{prefix}_{}.csv", r.strategy.name().replace('%', "pc"));
        write_csv(&name, "latency_ms,cdf", &cdf_rows(&r.report, 400));
    }
}

/// Sanity guard used by every figure binary: results must be non-trivial.
pub fn assert_sane(results: &[StrategyResult]) {
    for r in results {
        assert!(r.report.measured_requests > 0, "{}", r.strategy.name());
        assert!(r.report.mean_latency_ms > 0.0, "{}", r.strategy.name());
    }
}

/// Check whether `path`'s parent exists (used in tests).
pub fn parent_exists(path: &Path) -> bool {
    path.parent().map(|p| p.exists()).unwrap_or(false)
}

/// Build a placement problem + catalog + trace on an **arbitrary graph**
/// (rather than the transit-stub scenario pipeline): servers and primaries
/// are placed on randomly chosen distinct nodes. Used by the topology
/// ablation to re-run the headline comparison on non-hierarchical graphs.
pub fn scenario_on_graph(
    graph: &cdn_topology::Graph,
    cfg: &ScenarioConfig,
) -> (
    cdn_placement::PlacementProblem,
    cdn_workload::SiteCatalog,
    cdn_workload::TraceSpec,
) {
    use cdn_topology::DistanceMatrix;
    use cdn_workload::{DemandMatrix, SiteCatalog, TraceSpec};
    use rand::seq::SliceRandom;
    use rand::SeedableRng;

    let n = cfg.hosts.n_servers;
    let m = cfg.workload.m_sites;
    let mut rng = rand::rngs::StdRng::seed_from_u64(cfg.seed ^ 0xABCD_EF01);
    let mut nodes: Vec<u32> = (0..graph.n_nodes() as u32).collect();
    nodes.shuffle(&mut rng);
    assert!(nodes.len() >= n + m, "graph too small for hosts");
    let hosts: Vec<u32> = nodes[..n + m].to_vec();
    let distances = DistanceMatrix::compute(graph, &hosts);

    let catalog = SiteCatalog::generate(&cfg.workload, cfg.seed ^ 0x2545_F491);
    let demand = DemandMatrix::generate(&catalog, n, cfg.seed ^ 0x9E37_79B9);

    let mut dist_ss = vec![0u32; n * n];
    for i in 0..n {
        for k in 0..n {
            dist_ss[i * n + k] = distances.host_dist(i, k);
        }
    }
    let mut dist_sp = vec![0u32; n * m];
    for i in 0..n {
        for j in 0..m {
            dist_sp[i * m + j] = distances.host_dist(i, n + j);
        }
    }
    let site_bytes: Vec<u64> = catalog.sites.iter().map(|s| s.total_bytes).collect();
    let capacity = (catalog.total_bytes() as f64 * cfg.capacity_fraction) as u64;
    let raw: Vec<u64> = (0..n)
        .flat_map(|i| (0..m).map(move |j| (i, j)))
        .map(|(i, j)| demand.requests(i, j))
        .collect();
    let problem = cdn_placement::PlacementProblem::new(
        n,
        m,
        dist_ss,
        dist_sp,
        site_bytes,
        vec![capacity; n],
        raw,
        vec![cfg.lambda; m],
        catalog.mean_request_bytes(),
        cfg.workload.objects_per_site,
        cfg.workload.theta,
    );
    let trace = TraceSpec::new(
        &demand,
        catalog.object_zipf.clone(),
        cfg.lambda,
        cfg.lambda_mode,
        cfg.seed ^ 0xBF58_476D,
    );
    (problem, catalog, trace)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_scale_config_is_small() {
        let cfg = Scale::Quick.config(0.05, 0.1, LambdaMode::Expired);
        assert!(cfg.hosts.n_servers < 10);
        assert!((cfg.lambda - 0.1).abs() < 1e-12);
    }

    #[test]
    fn paper_scale_config_matches_paper() {
        let cfg = Scale::Paper.config(0.05, 0.0, LambdaMode::Uncacheable);
        assert_eq!(cfg.hosts.n_servers, 50);
        assert_eq!(cfg.workload.m_sites, 200);
        assert!((cfg.capacity_fraction - 0.05).abs() < 1e-12);
    }

    #[test]
    fn scenario_on_graph_builds_consistent_problem() {
        use cdn_topology::{barabasi_albert, BarabasiAlbertConfig};
        let g = barabasi_albert(
            &BarabasiAlbertConfig {
                n_nodes: 120,
                edges_per_node: 2,
            },
            3,
        );
        let cfg = Scale::Quick.config(0.15, 0.0, LambdaMode::Uncacheable);
        let (problem, catalog, trace) = scenario_on_graph(&g, &cfg);
        assert_eq!(problem.n_servers(), cfg.hosts.n_servers);
        assert_eq!(problem.m_sites(), cfg.workload.m_sites);
        assert_eq!(catalog.m(), problem.m_sites());
        assert_eq!(trace.n_servers(), problem.n_servers());
        // Distances embedded symmetrically with zero self-distance.
        for i in 0..problem.n_servers() {
            assert_eq!(problem.dist_servers(i, i), 0);
            for k in 0..problem.n_servers() {
                assert_eq!(problem.dist_servers(i, k), problem.dist_servers(k, i));
            }
        }
        assert_eq!(problem.grand_total(), catalog.total_requests());
    }

    fn parse(args: &[&str]) -> Result<BenchArgs, ArgError> {
        BenchArgs::parse_from(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn empty_args_select_paper_scale() {
        let a = parse(&[]).unwrap();
        assert_eq!(a.scale, Scale::Paper);
        assert_eq!(a.threads, None);
        assert_eq!(a.trace_out, None);
        assert_eq!(a.metrics_out, None);
        assert_eq!(a.profile_out, None);
        assert_eq!(a.sample_every, None);
        assert_eq!(a.window, None);
        assert_eq!(a.trace_in, None);
        assert!(!a.quiet);
    }

    #[test]
    fn all_flags_parse() {
        let a = parse(&[
            "--quick",
            "--threads",
            "4",
            "--trace-out",
            "/tmp/t.jsonl",
            "--metrics-out",
            "/tmp/m.json",
            "--profile-out",
            "/tmp/p.json",
            "--sample-every",
            "1000",
            "--window",
            "256",
            "--trace-in",
            "/tmp/t.events",
            "--quiet",
        ])
        .unwrap();
        assert_eq!(a.scale, Scale::Quick);
        assert_eq!(a.threads, Some(4));
        assert_eq!(a.trace_out.as_deref(), Some(Path::new("/tmp/t.jsonl")));
        assert_eq!(a.metrics_out.as_deref(), Some(Path::new("/tmp/m.json")));
        assert_eq!(a.profile_out.as_deref(), Some(Path::new("/tmp/p.json")));
        assert_eq!(a.sample_every, Some(1000));
        assert_eq!(a.window, Some(256));
        assert_eq!(a.trace_in.as_deref(), Some(Path::new("/tmp/t.events")));
        assert!(a.quiet);
    }

    #[test]
    fn window_zero_is_accepted_as_off_switch() {
        // Unlike --sample-every, --window 0 is a documented no-op.
        assert_eq!(parse(&["--window", "0"]).unwrap().window, Some(0));
        assert!(matches!(parse(&["--window"]), Err(ArgError::Bad(_))));
        assert!(matches!(
            parse(&["--window", "wide"]),
            Err(ArgError::Bad(_))
        ));
        assert!(usage("fig3").contains("--window"));
    }

    #[test]
    fn config_injects_sampler() {
        let mut a = parse(&["--quick"]).unwrap();
        assert_eq!(
            a.config(0.1, 0.0, LambdaMode::Uncacheable).sim.sample_every,
            None
        );
        a.sample_every = Some(64);
        a.window = Some(128);
        let cfg = a.config(0.1, 0.0, LambdaMode::Uncacheable);
        assert_eq!(cfg.sim.sample_every, Some(64));
        assert_eq!(cfg.sim.window, Some(128));
        // The sampler rides along without touching the scale parameters.
        assert_eq!(
            cfg.hosts.n_servers,
            Scale::Quick
                .config(0.1, 0.0, LambdaMode::Uncacheable)
                .hosts
                .n_servers
        );
    }

    #[test]
    fn scale_flag_selects_every_tier() {
        assert_eq!(parse(&["--scale", "quick"]).unwrap().scale, Scale::Quick);
        assert_eq!(parse(&["--scale", "paper"]).unwrap().scale, Scale::Paper);
        assert_eq!(parse(&["--scale", "large"]).unwrap().scale, Scale::Large);
        assert_eq!(
            parse(&["--scale", "large-ci"]).unwrap().scale,
            Scale::LargeCi
        );
        assert!(matches!(parse(&["--scale"]), Err(ArgError::Bad(_))));
        assert!(matches!(parse(&["--scale", "huge"]), Err(ArgError::Bad(_))));
        // Round-trip: every label parses back to its tier.
        for s in [Scale::Paper, Scale::Quick, Scale::Large, Scale::LargeCi] {
            assert_eq!(Scale::from_label(s.label()), Some(s));
        }
    }

    #[test]
    fn large_scale_config_is_internet_sized() {
        let cfg = Scale::Large.config(0.05, 0.0, LambdaMode::Uncacheable);
        assert_eq!(cfg.hosts.n_servers, 2000);
        assert_eq!(cfg.workload.m_sites, 400);
        // The CI tier keeps the fleet but shrinks the request volume.
        let ci = Scale::LargeCi.config(0.05, 0.0, LambdaMode::Uncacheable);
        assert_eq!(ci.hosts.n_servers, cfg.hosts.n_servers);
        assert_eq!(ci.workload.m_sites, cfg.workload.m_sites);
        assert!(ci.workload.base_requests * 5 < cfg.workload.base_requests);
    }

    #[test]
    fn unknown_flags_are_rejected_not_ignored() {
        // The old `Scale::from_args` scanned only for `--quick`, so a typo
        // silently ran the full paper scale. Now it is a hard error.
        match parse(&["--qiuck"]) {
            Err(ArgError::Bad(msg)) => assert!(msg.contains("--qiuck"), "{msg}"),
            other => panic!("expected Bad, got {other:?}"),
        }
        assert!(matches!(parse(&["extra"]), Err(ArgError::Bad(_))));
    }

    #[test]
    fn missing_or_bad_values_are_rejected() {
        assert!(matches!(parse(&["--threads"]), Err(ArgError::Bad(_))));
        assert!(matches!(
            parse(&["--threads", "zero"]),
            Err(ArgError::Bad(_))
        ));
        assert!(matches!(parse(&["--threads", "0"]), Err(ArgError::Bad(_))));
        assert!(matches!(parse(&["--trace-out"]), Err(ArgError::Bad(_))));
        assert!(matches!(parse(&["--trace-in"]), Err(ArgError::Bad(_))));
        assert!(matches!(parse(&["--metrics-out"]), Err(ArgError::Bad(_))));
        assert!(matches!(parse(&["--profile-out"]), Err(ArgError::Bad(_))));
        assert!(matches!(parse(&["--sample-every"]), Err(ArgError::Bad(_))));
        assert!(matches!(
            parse(&["--sample-every", "many"]),
            Err(ArgError::Bad(_))
        ));
        assert!(matches!(
            parse(&["--sample-every", "0"]),
            Err(ArgError::Bad(_))
        ));
    }

    #[test]
    fn help_is_distinguished_from_errors() {
        assert_eq!(parse(&["--help"]), Err(ArgError::Help));
        assert_eq!(parse(&["-h"]), Err(ArgError::Help));
        assert!(usage("fig3").contains("--trace-out"));
    }

    #[test]
    fn csv_written_and_readable() {
        std::env::set_var(
            "CDN_RESULTS_DIR",
            std::env::temp_dir().join("cdn-test-results"),
        );
        let path = write_csv("unit_test.csv", "a,b", &["1,2".into(), "3,4".into()]);
        let body = std::fs::read_to_string(&path).unwrap();
        assert_eq!(body, "a,b\n1,2\n3,4\n");
        assert!(parent_exists(&path));
        std::env::remove_var("CDN_RESULTS_DIR");
    }
}
