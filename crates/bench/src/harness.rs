//! Shared experiment plumbing: scale selection, the bench flag tables,
//! CSV output, the process-wide output sink, timing, and the standard
//! per-figure runner.

use cdn_cli::args::{
    usage, ArgError, Args, Flag, Table, METRICS_OUT, PROFILE_OUT, SAMPLE_EVERY, THREADS, TRACE_OUT,
    WINDOW,
};
use cdn_cli::sink::{self, Destinations, Sink};
use cdn_core::{ComparisonRow, Scenario, ScenarioConfig, Strategy, StrategyComparison};
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

const SCALE: Flag = "--scale <tier>  quick | paper | large | large-ci (default: paper)";
const QUICK: Flag = "--quick  shorthand for --scale quick";
const QUIET: Flag = "--quiet  suppress the stderr progress heartbeats";
const TRACE_IN: Flag =
    "--trace-in <path>  replay this binary .events trace, not the synthetic workload";

/// The flags every bench binary reads.
const COMMON: &[Flag] = &[
    SCALE,
    QUICK,
    THREADS,
    TRACE_OUT,
    METRICS_OUT,
    PROFILE_OUT,
    QUIET,
];

/// The flag table of a bench binary that never simulates.
pub const PLANNING: Table = &[COMMON];
/// The flag table of a bench binary that simulates: the request sampler
/// and the windowed timeline too.
pub const SIMULATING: Table = &[COMMON, &[SAMPLE_EVERY, WINDOW]];
/// The flag table of a bench binary that replays a trace file.
pub const REPLAYING: Table = &[COMMON, &[SAMPLE_EVERY, WINDOW, TRACE_IN]];

/// The bench binaries' view of their command line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BenchArgs {
    pub scale: Scale,
    /// Worker count of the global rayon pool (`--threads <n>`, default all
    /// cores).
    pub threads: usize,
    /// Sample every Nth simulated request (`--sample-every <n>`, 0 = off).
    /// Deterministic: keyed on stream index.
    pub sample_every: u64,
    /// Virtual-time window width for the windowed timeline (`--window <n>`,
    /// 0 = off).
    pub window: u64,
    /// Replay a binary `.events` trace file instead of the synthetic
    /// workload (`--trace-in <path>`).
    pub trace_in: Option<PathBuf>,
}

impl BenchArgs {
    /// Parse the process command line against `flags`, size the rayon pool
    /// and install the output sink that [`record`] feeds and [`flush`]
    /// writes. `--help` prints the usage generated from `flags` and exits 0;
    /// a bad command line prints why plus that usage and exits 2.
    pub fn parse(bin: &str, flags: Table) -> Self {
        start_instant(); // anchor the heartbeat clock at process setup
        let a = parse_or_exit(bin, flags);
        let args = Self::from_args(&a).unwrap_or_else(|msg| usage_error(bin, flags, &msg));
        HEARTBEATS_OFF.store(a.has("quiet"), Ordering::Relaxed);
        *sink() = Some(Sink::install(args.destinations(&a, &results_dir(), bin)));
        args
    }

    /// Read the bench's values from a parsed command line, sizing the rayon
    /// pool on the way.
    fn from_args(a: &Args) -> Result<Self, String> {
        if a.has("quick") && a.has("scale") {
            return Err("--quick is shorthand for --scale quick; give one of them".into());
        }
        let scale = match a.get("scale") {
            None if a.has("quick") => Scale::Quick,
            None => Scale::Paper,
            Some(label) => Scale::from_label(label).ok_or_else(|| {
                format!("--scale: unknown tier `{label}` (quick | paper | large | large-ci)")
            })?,
        };
        Ok(Self {
            scale,
            threads: a.thread_pool()?,
            sample_every: a.sample_every()?,
            window: a.window()?,
            trace_in: a.get("trace-in").map(PathBuf::from),
        })
    }

    /// Where `bin`'s outputs go: `<dir>/<bin>_metrics.json` always, plus a
    /// `--metrics-out` copy, `<dir>/<bin>_samples.jsonl` under
    /// `--sample-every`, `<dir>/<bin>_timeline.{json,csv}` under a nonzero
    /// `--window`, and the `--trace-out`/`--profile-out` files.
    fn destinations(&self, a: &Args, dir: &Path, bin: &str) -> Destinations {
        let mut dest = Destinations::from_args(a);
        dest.metrics
            .insert(0, dir.join(format!("{bin}_metrics.json")));
        if self.sample_every > 0 {
            dest.samples = Some(dir.join(format!("{bin}_samples.jsonl")));
        }
        if self.window > 0 {
            dest.timeline_json = Some(dir.join(format!("{bin}_timeline.json")));
            dest.timeline_csv = Some(dir.join(format!("{bin}_timeline.csv")));
        }
        dest
    }

    /// The scenario configuration for this run: [`Scale::config`] plus the
    /// per-request sampler and timeline window wired through to the
    /// simulator.
    pub fn config(&self, capacity: f64, lambda: f64, mode: LambdaMode) -> ScenarioConfig {
        let mut cfg = self.scale.config(capacity, lambda, mode);
        cfg.sim.sample_every = self.sample_every;
        cfg.sim.window = self.window;
        cfg
    }
}

/// Parse the process command line against `flags`, exiting 0 with the
/// generated usage on `--help` and 2 with the reason on a bad command line.
pub fn parse_or_exit(bin: &str, flags: Table) -> Args {
    match Args::parse(std::env::args().skip(1), flags) {
        Ok(a) => a,
        Err(ArgError::Help) => {
            print!("{}", usage(bin, flags));
            std::process::exit(0);
        }
        Err(ArgError::Bad(msg)) => usage_error(bin, flags, &msg),
    }
}

/// Print `msg` and the usage generated from `flags`, and exit 2.
pub fn usage_error(bin: &str, flags: Table, msg: &str) -> ! {
    eprintln!("{bin}: {msg}\n\n{}", usage(bin, flags));
    std::process::exit(2);
}

fn sink() -> MutexGuard<'static, Option<Sink>> {
    static SINK: Mutex<Option<Sink>> = Mutex::new(None);
    SINK.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Keep `report`'s sampled request paths and windowed timeline (when
/// `--sample-every` / `--window` enabled them), tagged with `run`, which
/// must tell this run apart from the binary's others; [`flush`] writes
/// them.
pub fn record(run: &str, report: &SimReport) {
    if let Some(sink) = sink().as_mut() {
        sink.record(run, report);
    }
}

/// Write every output of the run: the metrics snapshot, trace, samples,
/// timeline and profile. Exits 1 if a file cannot be written.
pub fn flush() {
    if let Some(Err(e)) = sink().take().map(Sink::flush) {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}

static HEARTBEATS_OFF: AtomicBool = AtomicBool::new(false);

/// Wall-clock anchor for heartbeat lines, set once at argument parsing.
fn start_instant() -> Instant {
    static START: OnceLock<Instant> = OnceLock::new();
    *START.get_or_init(Instant::now)
}

/// Emit a progress heartbeat to stderr (stdout stays reserved for
/// results). Silenced by `--quiet`. Long paper-scale figures previously
/// ran for minutes with no output at all.
pub fn progress(msg: &str) {
    if !HEARTBEATS_OFF.load(Ordering::Relaxed) {
        eprintln!("[{:8.1}s] {msg}", start_instant().elapsed().as_secs_f64());
    }
}

/// Write `body` to `path`, exiting with a contextful message on failure
/// (e.g. a bad `--metrics-out` directory) instead of a panic backtrace.
fn write_file_or_exit(path: &Path, body: &str, what: &str) {
    if let Err(e) = sink::write(path, body, what) {
        eprintln!("error: {e}");
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
    path
}

/// Write a pre-rendered JSON body under the results directory and report
/// the path on stdout — machine-readable sibling of [`write_csv`].
pub fn write_json(name: &str, body: &str) -> PathBuf {
    let path = results_dir().join(name);
    write_file_or_exit(&path, body, "result file");
    path
}

/// Wall-clock timings of named phases at one thread count, rendering to a
/// JSON object. Used by the arms of [`one_vs_n`] and by `bench_trace`;
/// figure binaries keep their inline `Instant` pairs.
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

/// Both arms of a [`one_vs_n`] run, the 1-thread arm first: each arm's
/// phase timings, its output and the work counters it accumulated.
pub type Arms<T> = [(PhaseTimings, T, Vec<(String, u64)>); 2];

/// Run `arm` on a 1-thread pool and on an `args.threads`-thread pool, with
/// the registry's counters reset before each, and write `file` under the
/// results directory: the lines `fields` renders from both arms (the
/// binary's own keys, each line `  "key": value,`), then the 1-thread
/// arm's deterministic `"work"` counters, `"work_identical"` and
/// `"bit_identical"` (`same` on the two outputs), and the
/// machine-dependent `"wall_clock"` section, which records
/// `available_parallelism` so a speedup is read against the cores that
/// produced it. Panics after writing the file when the arms disagree on
/// either, so a divergent run still leaves its evidence.
///
/// At quick and paper scale an untimed pass on the wide pool goes first:
/// the first run through a fresh address space pays first-touch page
/// faults and allocator growth that the later runs do not, which skewed
/// the 1-thread arm by double-digit percentages at quick scale. At the
/// large tiers that is a sub-percent correction, not worth another pass.
pub fn one_vs_n<T>(
    args: &BenchArgs,
    file: &str,
    arm: impl Fn(&mut PhaseTimings) -> T,
    same: impl Fn(&T, &T) -> bool,
    fields: impl FnOnce(&Arms<T>) -> String,
) {
    let n = args.threads;
    let run = |threads: usize| {
        telemetry::reset_metrics();
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("build thread pool");
        let mut timings = PhaseTimings::new(threads);
        let out = pool.install(|| arm(&mut timings));
        (timings, out, telemetry::registry().counter_values())
    };
    if matches!(args.scale, Scale::Quick | Scale::Paper) {
        println!("  warm-up: untimed pass on {n} thread(s)");
        progress("warm-up pass (untimed)");
        run(n);
    }
    println!("  run 1/2: 1 thread");
    progress("run 1/2: 1 thread");
    let base = run(1);
    println!("  run 2/2: {n} thread(s)");
    progress(&format!("run 2/2: {n} thread(s)"));
    let arms = [base, run(n)];

    let [(t1, out1, work1), (tn, outn, workn)] = &arms;
    let identical = same(out1, outn);
    let work_identical = work1 == workn;
    let speedup = t1.total_seconds() / tn.total_seconds().max(1e-12);
    let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
    for t in [t1, tn] {
        println!(
            "  [{} thread(s)] total {:.3}s",
            t.threads,
            t.total_seconds()
        );
        for (name, secs) in &t.phases {
            println!("      {name:<12} {secs:.3}s");
        }
    }
    println!("  speedup (total): {speedup:.2}x at {n} thread(s) on {cores} core(s)");
    println!("  bit-identical outputs:       {identical}");
    println!("  bit-identical work counters: {work_identical}");
    // Which counter drifted is the debugging lead. The registry only
    // gains names, so the N-thread arm's list covers the 1-thread arm's.
    for (name, b) in workn {
        let a = work1.iter().find(|(k, _)| k == name).map(|e| e.1);
        if a != Some(*b) {
            println!("      {name}: 1-thread {a:?} vs {n}-thread {b}");
        }
    }

    // `"work"` holds only deterministic counters, identical across
    // machines and thread counts; everything timing-related lives under
    // `"wall_clock"`, which `perf_gate` compares within a band.
    let mut json = String::from("{\n");
    json.push_str(&fields(&arms));
    json.push_str("  \"work\": {\n");
    for (idx, (name, value)) in work1.iter().enumerate() {
        let comma = if idx + 1 < work1.len() { "," } else { "" };
        let _ = writeln!(json, "    \"{name}\": {value}{comma}");
    }
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"work_identical\": {work_identical},");
    let _ = writeln!(json, "  \"bit_identical\": {identical},");
    let _ = writeln!(json, "  \"wall_clock\": {{");
    let _ = writeln!(json, "    \"baseline_threads\": 1,");
    let _ = writeln!(json, "    \"parallel_threads\": {n},");
    let _ = writeln!(json, "    \"available_parallelism\": {cores},");
    let _ = writeln!(json, "    \"runs\": [{}, {}],", t1.to_json(), tn.to_json());
    let _ = writeln!(json, "    \"speedup_total\": {speedup:.4}");
    json.push_str("  }\n}\n");
    write_json(file, &json);
    flush();

    assert!(
        identical,
        "the {n}-thread arm's output diverged from the 1-thread arm's"
    );
    assert!(
        work_identical,
        "deterministic work counters diverged between thread counts"
    );
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
pub fn run_strategies(scenario: &Scenario, strategies: &[Strategy]) -> StrategyComparison {
    let run = RUN_SEQ.fetch_add(1, Ordering::Relaxed);
    let rows = strategies
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
            ComparisonRow {
                strategy,
                plan,
                report,
            }
        })
        .collect();
    StrategyComparison { rows }
}

/// Render the standard per-figure summary block.
pub fn summary_block(results: &StrategyComparison) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "  {:<16} {:>9} {:>9} {:>9} {:>8} {:>9} {:>9}",
        "strategy", "mean_ms", "p50_ms", "p95_ms", "local%", "hops/req", "replicas"
    );
    for r in &results.rows {
        let _ = writeln!(
            out,
            "  {:<16} {:>9.2} {:>9.1} {:>9.1} {:>8.1} {:>9.3} {:>9}",
            r.strategy.name(),
            r.report.mean_latency_ms,
            r.report.histogram.percentile(0.5),
            r.report.histogram.percentile(0.95),
            100.0 * r.report.local_ratio(),
            r.report.mean_cost_hops,
            r.plan.placement.replica_count(),
        );
    }
    out
}

/// Stamp a figure banner.
pub fn banner(title: &str, scale: Scale) {
    println!("==== {title} [{:?} scale] ====", scale);
}

/// Helper to append a labelled CSV for every strategy's CDF.
pub fn write_cdf_csvs(prefix: &str, results: &StrategyComparison) {
    for r in &results.rows {
        let name = format!("{prefix}_{}.csv", r.strategy.name().replace('%', "pc"));
        write_csv(&name, "latency_ms,cdf", &cdf_rows(&r.report, 400));
    }
}

/// Sanity guard used by every figure binary: results must be non-trivial.
pub fn assert_sane(results: &StrategyComparison) {
    for r in &results.rows {
        assert!(r.report.measured_requests > 0, "{}", r.strategy.name());
        assert!(r.report.mean_latency_ms > 0.0, "{}", r.strategy.name());
    }
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

    /// Parse a whitespace-separated command line against `flags`.
    fn parse_with(flags: Table, line: &str) -> Result<(Args, BenchArgs), String> {
        let a = Args::parse(line.split_whitespace().map(str::to_string), flags)
            .map_err(|e| format!("{e:?}"))?;
        let bench = BenchArgs::from_args(&a)?;
        Ok((a, bench))
    }

    fn parse(line: &str) -> Result<BenchArgs, String> {
        parse_with(REPLAYING, line).map(|(_, bench)| bench)
    }

    #[test]
    fn empty_args_select_paper_scale() {
        let (a, bench) = parse_with(SIMULATING, "").unwrap();
        assert_eq!(bench.scale, Scale::Paper);
        assert_eq!(bench.sample_every, 0);
        assert_eq!(bench.window, 0);
        assert_eq!(bench.trace_in, None);
        assert!(!a.has("quiet"));
        // Only the metrics snapshot every binary writes.
        let dest = bench.destinations(&a, Path::new("out"), "fig3");
        assert_eq!(
            dest,
            Destinations {
                metrics: vec![PathBuf::from("out/fig3_metrics.json")],
                ..Destinations::default()
            }
        );
    }

    #[test]
    fn all_flags_parse() {
        let (a, bench) = parse_with(
            REPLAYING,
            "--quick --threads 4 --trace-out /tmp/t.jsonl --metrics-out /tmp/m.json \
             --profile-out /tmp/p.json --sample-every 1000 --window 256 \
             --trace-in /tmp/t.events --quiet",
        )
        .unwrap();
        assert_eq!(bench.scale, Scale::Quick);
        assert_eq!(bench.threads, 4);
        assert_eq!(bench.sample_every, 1000);
        assert_eq!(bench.window, 256);
        assert_eq!(bench.trace_in.as_deref(), Some(Path::new("/tmp/t.events")));
        assert!(a.has("quiet"));
        let dest = bench.destinations(&a, Path::new("out"), "bench_trace");
        assert_eq!(
            dest,
            Destinations {
                metrics: vec![
                    PathBuf::from("out/bench_trace_metrics.json"),
                    PathBuf::from("/tmp/m.json"),
                ],
                trace: Some(PathBuf::from("/tmp/t.jsonl")),
                profile: Some(PathBuf::from("/tmp/p.json")),
                samples: Some(PathBuf::from("out/bench_trace_samples.jsonl")),
                timeline_json: Some(PathBuf::from("out/bench_trace_timeline.json")),
                timeline_csv: Some(PathBuf::from("out/bench_trace_timeline.csv")),
            }
        );
    }

    #[test]
    fn window_zero_is_accepted_as_off_switch() {
        // Unlike --sample-every, --window 0 is a documented no-op: no
        // timeline files.
        let (a, bench) = parse_with(SIMULATING, "--window 0").unwrap();
        assert_eq!(bench.window, 0);
        let dest = bench.destinations(&a, Path::new("out"), "fig3");
        assert_eq!(dest.timeline_json, None);
        assert_eq!(dest.timeline_csv, None);
        assert!(parse("--window").is_err());
        assert!(parse("--window wide").is_err());
        assert!(usage("fig3", SIMULATING).contains("--window"));
    }

    #[test]
    fn trace_in_is_accepted_only_where_a_trace_replays() {
        // `fig6 --quick --trace-in /nonexistent.events` once exited 0: the
        // figure binaries accepted the flag and never read it.
        let args = "--quick --trace-in /nonexistent.events";
        for flags in [PLANNING, SIMULATING] {
            let err = parse_with(flags, args).unwrap_err();
            assert!(err.contains("--trace-in"), "{err}");
        }
        assert!(parse_with(REPLAYING, args).is_ok());
    }

    #[test]
    fn sampler_and_window_are_rejected_where_nothing_simulates() {
        // ablation_model, ablation_updates and bench_placement never
        // simulate; they once accepted both flags and ignored them.
        for line in ["--sample-every 10", "--window 64"] {
            let err = parse_with(PLANNING, line).unwrap_err();
            assert!(err.contains(&line[..line.find(' ').unwrap()]), "{err}");
            assert!(parse_with(SIMULATING, line).is_ok());
        }
    }

    #[test]
    fn config_injects_sampler() {
        let mut a = parse("--quick").unwrap();
        assert_eq!(
            a.config(0.1, 0.0, LambdaMode::Uncacheable).sim.sample_every,
            0
        );
        a.sample_every = 64;
        a.window = 128;
        let cfg = a.config(0.1, 0.0, LambdaMode::Uncacheable);
        assert_eq!(cfg.sim.sample_every, 64);
        assert_eq!(cfg.sim.window, 128);
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
        assert_eq!(parse("--scale quick").unwrap().scale, Scale::Quick);
        assert_eq!(parse("--scale paper").unwrap().scale, Scale::Paper);
        assert_eq!(parse("--scale large").unwrap().scale, Scale::Large);
        assert_eq!(parse("--scale large-ci").unwrap().scale, Scale::LargeCi);
        assert!(parse("--scale").is_err());
        assert!(parse("--scale huge").is_err());
        assert!(parse("--scale paper --quick").is_err());
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
    fn csv_written_and_readable() {
        std::env::set_var(
            "CDN_RESULTS_DIR",
            std::env::temp_dir().join("cdn-test-results"),
        );
        let path = write_csv("unit_test.csv", "a,b", &["1,2".into(), "3,4".into()]);
        let body = std::fs::read_to_string(&path).unwrap();
        assert_eq!(body, "a,b\n1,2\n3,4\n");
        std::env::remove_var("CDN_RESULTS_DIR");
    }
}
