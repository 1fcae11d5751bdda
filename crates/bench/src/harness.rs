//! Shared experiment plumbing: scale selection, the bench flag tables,
//! result tables, the process-wide output sink, timing, the 1-vs-N runner
//! and its gate, and the standard per-figure runner.

use cdn_cli::args::{
    self, usage, ArgError, Args, Flag, METRICS_OUT, PROFILE_OUT, SAMPLE_EVERY, THREADS, TRACE_OUT,
    WINDOW,
};
use cdn_cli::sink::{self, Destinations, Sink};
use cdn_core::{ComparisonRow, Scenario, ScenarioConfig, Strategy, StrategyComparison};
use cdn_sim::SimReport;
use cdn_telemetry as telemetry;
use cdn_telemetry::json::{self, Json};
use cdn_workload::LambdaMode;
use std::collections::BTreeSet;
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
/// The flags of a [`Gate`].
const GATE: &[Flag] = &[
    "--baseline <path>  tier file whose every field outside \"wall_clock\" the run must equal",
    "--min-speedup <x>  fail below this speedup (not measured above min(threads, cores))",
    "--max-seconds <x>  fail if the N-thread arm takes longer",
];

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
pub const PLANNING: args::Table = &[COMMON];
/// The flag table of a bench binary that simulates: the request sampler
/// and the windowed timeline too.
pub const SIMULATING: args::Table = &[COMMON, &[SAMPLE_EVERY, WINDOW]];
/// The flag table of a bench binary that replays a trace file.
pub const REPLAYING: args::Table = &[COMMON, &[SAMPLE_EVERY, WINDOW, TRACE_IN]];
/// [`PLANNING`] plus the [`Gate`] of a [`one_vs_n`] binary.
pub const GATED_PLANNING: args::Table = &[COMMON, GATE];
/// [`SIMULATING`] plus the [`Gate`] of a [`one_vs_n`] binary.
pub const GATED_SIMULATING: args::Table = &[COMMON, &[SAMPLE_EVERY, WINDOW], GATE];

/// The bench binaries' view of their command line.
#[derive(Debug, Clone, PartialEq)]
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
    /// What [`one_vs_n`] checks its run against.
    pub gate: Gate,
}

impl BenchArgs {
    /// Parse the process command line against `flags`, size the rayon pool
    /// and install the output sink that [`record`] feeds and [`flush`]
    /// writes. `--help` prints the usage generated from `flags` and exits 0;
    /// a bad command line prints why plus that usage and exits 2; an output
    /// path that cannot be written exits 1 before any work.
    pub fn parse(bin: &str, flags: args::Table) -> Self {
        start_instant(); // anchor the heartbeat clock at process setup
        let a = parse_or_exit(bin, flags);
        let args = Self::from_args(&a).unwrap_or_else(|msg| usage_error(bin, flags, &msg));
        HEARTBEATS_OFF.store(a.has("quiet"), Ordering::Relaxed);
        let outputs = args.destinations(&a, &results_dir(), bin);
        *sink() = Some(Sink::install(outputs).unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(1);
        }));
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
            gate: Gate::from_args(a)?,
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
fn parse_or_exit(bin: &str, flags: args::Table) -> Args {
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
fn usage_error(bin: &str, flags: args::Table, msg: &str) -> ! {
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

/// Write a CSV file of `(header, rows)` under the results directory.
fn write_csv(name: &str, header: &str, rows: &[String]) -> PathBuf {
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

/// Write a pre-rendered JSON body under the results directory.
pub fn write_json(name: &str, body: &str) -> PathBuf {
    let path = results_dir().join(name);
    write_file_or_exit(&path, body, "result file");
    path
}

/// One result file: its name, CSV header and rows, each row formatted
/// once as CSV. [`Table::finish`] writes the file and prints the same
/// cells to stdout, aligned.
#[derive(Debug)]
pub struct Table {
    name: String,
    header: String,
    rows: Vec<String>,
}

impl Table {
    pub fn new(name: impl Into<String>, header: &str) -> Self {
        Self {
            name: name.into(),
            header: header.to_string(),
            rows: Vec::new(),
        }
    }

    /// Append one CSV row.
    ///
    /// # Panics
    /// Panics when the row's cell count differs from the header's.
    pub fn row(&mut self, row: String) {
        assert_eq!(
            row.split(',').count(),
            self.header.split(',').count(),
            "{}: row `{row}` does not fit header `{}`",
            self.name,
            self.header
        );
        self.rows.push(row);
    }

    /// Append a row to a [`claims_table`]: the claim, the paper's value,
    /// the measured value and whether the claim holds.
    pub fn claim(&mut self, claim: &str, paper: &str, measured: &str, holds: bool) {
        let holds = if holds { "yes" } else { "no" };
        self.row(format!("{claim},{paper},{measured},{holds}"));
    }

    /// Print the table's name and cells, numeric columns right-aligned and
    /// the rest left-aligned, then write the CSV under the results
    /// directory.
    pub fn finish(self) -> PathBuf {
        let lines: Vec<Vec<&str>> = std::iter::once(&self.header)
            .chain(&self.rows)
            .map(|line| line.split(',').collect())
            .collect();
        let mut widths = vec![0; lines[0].len()];
        for cells in &lines {
            for (w, cell) in widths.iter_mut().zip(cells) {
                *w = (*w).max(cell.chars().count());
            }
        }
        let numeric: Vec<bool> = (0..widths.len())
            .map(|col| {
                lines[1..]
                    .iter()
                    .all(|cells| cells[col].trim_end_matches('%').parse::<f64>().is_ok())
            })
            .collect();
        println!("\n  {}", self.name);
        for cells in &lines {
            let mut out = String::from(" ");
            for ((cell, &w), &right) in cells.iter().zip(&widths).zip(&numeric) {
                let _ = if right {
                    write!(out, " {cell:>w$}")
                } else {
                    write!(out, " {cell:<w$}")
                };
            }
            println!("{}", out.trim_end());
        }
        write_csv(&self.name, &self.header, &self.rows)
    }
}

/// How close a measured gain must come to a paper's "≈X%" for the claim
/// to hold, relative to X: within ±25%. One tolerance for every such
/// claim, never tuned per claim.
pub const APPROX_TOLERANCE: f64 = 0.25;

/// `<bin>_claims.csv`: one row per paper claim the binary checks, with
/// the paper's value, the measured value and whether the claim holds.
pub fn claims_table(bin: &str) -> Table {
    Table::new(format!("{bin}_claims.csv"), "claim,paper,measured,holds")
}

/// One panel of a [`cdf_figure`]: its label, the setting its claims
/// name, and its scenario.
pub type Panel = (&'static str, String, ScenarioConfig);

/// Run a CDF figure (Figures 3–5). Per panel, plan and simulate every
/// strategy, write each one's CDF as `<bin><panel>_<strategy>.csv`, and
/// add a row per strategy to `<bin>_summary.csv`. Each `(baseline,
/// approx_pc)` in `claims` adds a row per panel to `<bin>_claims.csv`:
/// the hybrid beats `baseline` on mean latency, by the paper's "≈X%" when
/// `approx_pc` is X. Such a magnitude holds only when the hybrid wins and
/// its gain is within [`APPROX_TOLERANCE`] of X.
pub fn cdf_figure(
    bin: &str,
    panels: &[Panel],
    strategies: &[Strategy],
    claims: &[(Strategy, Option<f64>)],
) {
    let mut summary = Table::new(
        format!("{bin}_summary.csv"),
        "panel,strategy,mean_ms,p50_ms,p95_ms,local_pc,hops_per_req,replicas",
    );
    let mut claimed = claims_table(bin);
    for (panel, setting, config) in panels {
        let results = run_strategies(&generate_scenario(config), strategies);
        for r in &results.rows {
            let (name, report) = (r.strategy.name(), &r.report);
            assert!(report.measured_requests > 0, "{name}");
            assert!(report.mean_latency_ms > 0.0, "{name}");
            let cdf = format!("{bin}{panel}_{}.csv", name.replace('%', "pc"));
            write_csv(&cdf, "latency_ms,cdf", &cdf_rows(report, 400));
            summary.row(format!(
                "{panel},{name},{:.2},{:.1},{:.1},{:.1},{:.3},{}",
                report.mean_latency_ms,
                report.histogram.percentile(0.5),
                report.histogram.percentile(0.95),
                100.0 * report.local_ratio(),
                report.mean_cost_hops,
                r.plan.placement.replica_count(),
            ));
        }
        for &(baseline, approx_pc) in claims {
            let gain = 100.0
                * results
                    .improvement(Strategy::Hybrid, baseline)
                    .expect("both strategies ran");
            let (paper, near) = match approx_pc {
                Some(x) => (
                    format!("≈{x:.0}%"),
                    (gain - x).abs() <= APPROX_TOLERANCE * x,
                ),
                None => ("wins".to_string(), true),
            };
            claimed.claim(
                &format!("hybrid beats {} ({panel}: {setting})", baseline.name()),
                &paper,
                &format!("{gain:+.1}%"),
                gain > 0.0 && near,
            );
        }
    }
    summary.finish();
    claimed.finish();
    flush();
}

/// Wall-clock timings of named phases at one thread count, rendering to a
/// JSON object. Used by the arms of [`one_vs_n`] and by `bench_trace`.
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

/// The shortest 1-thread arm whose speedup [`one_vs_n`] records. Shorter
/// arms last a few scheduler quanta, so their ratio is noise: at quick
/// scale, arms of 10–20 ms read 1.93x and 0.90x for the same code on the
/// same 2-core host.
pub const MIN_TIMED_ARM_S: f64 = 0.5;

/// The 1-thread time [`one_vs_n`] totals over its passes before it stops
/// adding 1-thread/N-thread pass pairs. One busy neighbour can halve a
/// single ~1 s pass's speedup: seven `bench_parallel --scale large-ci`
/// runs of one pass each read 1.08–1.99x on a shared 2-core host.
pub const MIN_MEASURED_S: f64 = 3.0;

/// The most 1-thread/N-thread pass pairs [`one_vs_n`] runs.
pub const MAX_PASS_PAIRS: usize = 5;

/// The speedup of an N-thread arm of `tn` seconds over a 1-thread arm of
/// `t1` seconds on a host of `cores` cores, or why it is not measured.
fn speedup(t1: f64, tn: f64, cores: usize) -> Result<f64, String> {
    if cores < 2 {
        Err(format!("the host has {cores} core"))
    } else if t1 < MIN_TIMED_ARM_S {
        Err(format!(
            "the 1-thread arm took {t1:.3}s, under {MIN_TIMED_ARM_S}s"
        ))
    } else {
        Ok(t1 / tn.max(1e-12))
    }
}

/// Both arms of a [`one_vs_n`] run, the 1-thread arm first: each arm's
/// median pass's phase timings, its first pass's output and the work
/// counters that pass accumulated.
pub type Arms<T> = [(PhaseTimings, T, Vec<(String, u64)>); 2];

/// Whether [`one_vs_n`] runs another pass pair after the 1-thread passes
/// `ones`: while they total under [`MIN_MEASURED_S`], up to
/// [`MAX_PASS_PAIRS`] pairs.
fn another_pair(ones: &[PhaseTimings]) -> bool {
    let total: f64 = ones.iter().map(PhaseTimings::total_seconds).sum();
    total < MIN_MEASURED_S && ones.len() < MAX_PASS_PAIRS
}

/// The median of `passes` by total time; of an even count, the faster of
/// the middle two.
fn median_pass(mut passes: Vec<PhaseTimings>) -> PhaseTimings {
    passes.sort_by(|a, b| a.total_seconds().total_cmp(&b.total_seconds()));
    passes.swap_remove((passes.len() - 1) / 2)
}

/// Run `arm` on a 1-thread pool and on an `args.threads`-thread pool, with
/// the registry's counters reset before each, and write `file` under the
/// results directory: the binary's own deterministic keys, which `fields`
/// renders from both arms as lines `  "key": value,`, then the 1-thread
/// arm's deterministic `"work"` counters, `"work_identical"` and
/// `"bit_identical"` (`same` on the two outputs), and the
/// machine-dependent `"wall_clock"` section, which holds every timing
/// (ending with the binary's own entries `"key": value`, the second part
/// of `fields`) and records `available_parallelism` so a speedup is read
/// against the cores that produced it.
///
/// While the 1-thread passes total under [`MIN_MEASURED_S`], further
/// 1-thread/N-thread pass pairs run, alternating, up to
/// [`MAX_PASS_PAIRS`] pairs. Every pass must reproduce the first pass's
/// output and work counters. `"runs"` records each arm's median pass by
/// total time (of an even count, the faster of the middle two), and
/// `"passes"` how many each arm ran; the speedup is
/// the ratio of the two medians, and is `null`, not measured, on one core
/// or when the 1-thread median is under [`MIN_TIMED_ARM_S`]. Panics after
/// writing the file when a pass breaks either identity, so a divergent
/// run still leaves its evidence. Then checks the file against
/// `args.gate` and exits 1 when it fails.
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
    fields: impl FnOnce(&Arms<T>) -> (String, Vec<String>),
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
    let pass = |pair: usize, threads: usize| {
        progress(&format!("pair {pair}: {threads} thread(s)"));
        let out = run(threads);
        println!(
            "  pair {pair}: {threads} thread(s) {:.3}s",
            out.0.total_seconds()
        );
        out
    };
    let (t1, out1, work1) = pass(1, 1);
    let (tn, outn, workn) = pass(1, n);
    let mut identical = same(&out1, &outn);
    let mut work_identical = work1 == workn;
    let mut passes = [vec![t1], vec![tn]];
    while another_pair(&passes[0]) {
        let pair = passes[0].len() + 1;
        for (arm, threads) in [(0, 1), (1, n)] {
            let (t, out, work) = pass(pair, threads);
            identical &= same(&out1, &out);
            work_identical &= work == work1;
            passes[arm].push(t);
        }
    }
    let count = passes[0].len();
    let [ones, many] = passes;
    let arms = [
        (median_pass(ones), out1, work1),
        (median_pass(many), outn, workn),
    ];

    let [(t1, _, work1), (tn, _, workn)] = &arms;
    let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
    let measured = speedup(t1.total_seconds(), tn.total_seconds(), cores);
    for t in [t1, tn] {
        println!(
            "  [{} thread(s)] total {:.3}s, median of {count} pass(es)",
            t.threads,
            t.total_seconds()
        );
        for (name, secs) in &t.phases {
            println!("      {name:<12} {secs:.3}s");
        }
    }
    match &measured {
        Ok(x) => println!("  speedup (total): {x:.2}x at {n} thread(s) on {cores} core(s)"),
        Err(why) => println!("  speedup (total): not measured, {why}"),
    }
    println!("  bit-identical outputs:       {identical}");
    println!("  bit-identical work counters: {work_identical}");
    // Which counter drifted between the first two passes is the debugging
    // lead. The registry only gains names, so the N-thread arm's list
    // covers the 1-thread arm's.
    for (name, b) in workn {
        let a = work1.iter().find(|(k, _)| k == name).map(|e| e.1);
        if a != Some(*b) {
            println!("      {name}: 1-thread {a:?} vs {n}-thread {b}");
        }
    }

    // `"work"` and every key outside `"wall_clock"` are deterministic,
    // identical across machines and thread counts, so the gate compares
    // them exactly; everything timing-related lives under `"wall_clock"`.
    let (own, own_wall_clock) = fields(&arms);
    let mut json = String::from("{\n");
    json.push_str(&own);
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
    let _ = writeln!(json, "    \"passes\": {count},");
    let _ = writeln!(json, "    \"runs\": [{}, {}],", t1.to_json(), tn.to_json());
    let recorded = measured.map_or_else(|_| "null".into(), |x| format!("{x:.4}"));
    let _ = write!(json, "    \"speedup_total\": {recorded}");
    for entry in own_wall_clock {
        let _ = write!(json, ",\n    {entry}");
    }
    json.push_str("\n  }\n}\n");
    write_json(file, &json);
    flush();

    assert!(
        identical,
        "a pass's output diverged from the first 1-thread pass's"
    );
    assert!(
        work_identical,
        "deterministic work counters diverged between passes"
    );
    let verdict = args
        .gate
        .check(&json::parse(&json).expect("a BENCH file parses"));
    for (ok, line) in &verdict {
        println!("  gate: {} {line}", if *ok { "ok  " } else { "FAIL" });
    }
    if verdict.iter().any(|(ok, _)| !ok) {
        eprintln!("error: {file} fails its gate");
        std::process::exit(1);
    }
}

/// What [`one_vs_n`] checks its run against once the run's file is
/// written: the tier file, and two limits on the run's own wall clock.
#[derive(Debug, Clone, PartialEq)]
pub struct Gate {
    /// `--baseline`: the tier file's path and its parsed body, read before
    /// any work. Every field of the run outside `"wall_clock"` must equal
    /// the tier file's.
    tier: Option<(String, Json)>,
    /// `--min-speedup`: the least `wall_clock.speedup_total` the run may
    /// report. A `null` speedup was not measured, and a floor above
    /// min(`parallel_threads`, `available_parallelism`) cannot be reached
    /// on the run's host; both are reported as not measured instead.
    min_speedup: Option<f64>,
    /// `--max-seconds`: the most the N-thread arm may take.
    max_seconds: Option<f64>,
}

impl Gate {
    fn from_args(a: &Args) -> Result<Self, String> {
        let tier = match a.get("baseline") {
            None => None,
            Some(path) => {
                let body = std::fs::read_to_string(path)
                    .map_err(|e| format!("--baseline: reading {path}: {e}"))?;
                let doc =
                    json::parse(&body).map_err(|e| format!("--baseline: parsing {path}: {e}"))?;
                Some((path.to_string(), doc))
            }
        };
        Ok(Self {
            tier,
            min_speedup: a.get_positive("min-speedup")?,
            max_seconds: a.get_positive("max-seconds")?,
        })
    }

    /// Check `run`, a parsed `BENCH_*.json`: one line per finding, with
    /// whether the run passes it. A failing line names the field, work
    /// counter or limit the run broke; a wall-clock number the run lacks
    /// fails its limit.
    fn check(&self, run: &Json) -> Vec<(bool, String)> {
        let mut verdict = Vec::new();
        if let Some((path, tier)) = &self.tier {
            mismatches("", Some(tier), Some(run), &mut verdict);
            if verdict.is_empty() {
                verdict.push((
                    true,
                    format!("every field outside wall_clock equals {path}"),
                ));
            }
        }
        let wall = |key: &str| run.get("wall_clock").and_then(|w| w.get(key));
        let number = |key| wall(key).and_then(Json::as_f64).unwrap_or(f64::NAN);
        if let Some(min) = self.min_speedup {
            let (s, threads, cores) = (
                number("speedup_total"),
                number("parallel_threads"),
                number("available_parallelism"),
            );
            let at = format!("speedup {s:.2}x at {threads} thread(s) on {cores} core(s)");
            verdict.push(if wall("speedup_total") == Some(&Json::Null) {
                (
                    true,
                    format!("speedup not measured at {threads} thread(s) on {cores} core(s)"),
                )
            } else if min > threads.min(cores) {
                (
                    true,
                    format!("{at}: not measured, the {min:.2}x floor is out of reach"),
                )
            } else {
                (s >= min, format!("{at}, floor {min:.2}x"))
            });
        }
        if let Some(max) = self.max_seconds {
            let secs = wall("runs")
                .and_then(Json::as_arr)
                .and_then(<[Json]>::last)
                .and_then(|arm| arm.get("total_s"))
                .and_then(Json::as_f64)
                .unwrap_or(f64::NAN);
            verdict.push((
                secs <= max,
                format!("N-thread arm {secs:.1}s, ceiling {max:.1}s"),
            ));
        }
        verdict
    }
}

/// Push a failing line for each value where `run` differs from `tier`
/// below `path`, naming its path (`work.sim.cache_hits`,
/// `models[1].replicas`). At the top level, `"wall_clock"` is skipped.
fn mismatches(path: &str, tier: Option<&Json>, run: Option<&Json>, out: &mut Vec<(bool, String)>) {
    match (tier, run) {
        (Some(Json::Obj(a)), Some(Json::Obj(b))) => {
            for key in a.keys().chain(b.keys()).collect::<BTreeSet<_>>() {
                if !(path.is_empty() && key == "wall_clock") {
                    mismatches(&format!("{path}.{key}"), a.get(key), b.get(key), out);
                }
            }
        }
        (Some(Json::Arr(a)), Some(Json::Arr(b))) if a.len() == b.len() => {
            for (x, (a, b)) in a.iter().zip(b).enumerate() {
                mismatches(&format!("{path}[{x}]"), Some(a), Some(b), out);
            }
        }
        _ if tier != run => out.push((
            false,
            format!(
                "`{}`: {} in the tier file, {} in this run",
                path.trim_start_matches('.'),
                show(tier),
                show(run)
            ),
        )),
        _ => {}
    }
}

/// A value in a [`mismatches`] line: scalars as written, lists and objects
/// by their shape.
fn show(v: Option<&Json>) -> String {
    match v {
        None => "absent".into(),
        Some(Json::Null) => "null".into(),
        Some(Json::Bool(b)) => b.to_string(),
        Some(Json::Num(x)) => x.to_string(),
        Some(Json::Str(s)) => format!("{s:?}"),
        Some(Json::Arr(a)) => format!("a list of {}", a.len()),
        Some(Json::Obj(_)) => "an object".into(),
    }
}

/// Format a CDF as CSV rows (`latency_ms,fraction`), downsampled to at most
/// `max_points` points to keep files plottable.
fn cdf_rows(report: &SimReport, max_points: usize) -> Vec<String> {
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
            let plan = {
                let _prof = telemetry::profile::span(&format!("plan:{}", strategy.name()));
                scenario.plan(strategy)
            };
            progress(&format!("simulating {}", strategy.name()));
            let report = {
                let _prof = telemetry::profile::span(&format!("sim:{}", strategy.name()));
                scenario.simulate(&plan)
            };
            record(&format!("r{run}:{}", strategy.name()), &report);
            ComparisonRow {
                strategy,
                plan,
                report,
            }
        })
        .collect();
    StrategyComparison { rows }
}

/// Stamp a figure banner.
pub fn banner(title: &str, scale: Scale) {
    println!("==== {title} [{:?} scale] ====", scale);
}

/// Build a placement problem + catalog + trace on an **arbitrary graph**
/// (rather than the transit-stub scenario pipeline): servers and primaries
/// are placed on randomly chosen distinct nodes, and
/// [`ScenarioConfig::assemble`] builds the problem and trace as
/// `Scenario::generate` does, from this function's own seeds. Used by the
/// topology ablation to re-run the headline comparison on
/// non-hierarchical graphs.
pub fn scenario_on_graph(
    graph: &cdn_topology::Graph,
    cfg: &ScenarioConfig,
) -> (
    cdn_placement::PlacementProblem,
    cdn_workload::SiteCatalog,
    cdn_workload::TraceSpec,
) {
    use cdn_topology::DistanceMatrix;
    use cdn_workload::{DemandMatrix, SiteCatalog};
    use rand::seq::SliceRandom;
    use rand::SeedableRng;

    let n = cfg.hosts.n_servers;
    let m = cfg.workload.m_sites;
    let mut rng = rand::rngs::StdRng::seed_from_u64(cfg.seed ^ 0xABCD_EF01);
    let mut nodes: Vec<u32> = (0..graph.n_nodes() as u32).collect();
    nodes.shuffle(&mut rng);
    assert!(nodes.len() >= n + m, "graph too small for hosts");
    let distances = DistanceMatrix::compute(graph, &nodes[..n + m]);

    let catalog = SiteCatalog::generate(&cfg.workload, cfg.seed ^ 0x2545_F491);
    let demand = DemandMatrix::generate(&catalog, n, cfg.seed ^ 0x9E37_79B9);
    let (problem, trace) = cfg.assemble(&distances, &catalog, &demand, cfg.seed ^ 0xBF58_476D);
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
    fn parse_with(flags: args::Table, line: &str) -> Result<(Args, BenchArgs), String> {
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
        let mut table = Table::new("unit_test.csv", "a,b");
        table.row("1,2".into());
        table.row("3,4".into());
        let body = std::fs::read_to_string(table.finish()).unwrap();
        assert_eq!(body, "a,b\n1,2\n3,4\n");
        std::env::remove_var("CDN_RESULTS_DIR");
    }

    #[test]
    #[should_panic(expected = "does not fit header")]
    fn table_rejects_a_row_of_the_wrong_width() {
        // A comma inside a cell would shift every later column.
        Table::new("t.csv", "claim,holds").row("a, b,yes".into());
    }

    #[test]
    fn gate_flags_parse_into_the_gate() {
        let line = "--min-speedup 1.5 --max-seconds 60";
        assert_eq!(parse_with(GATED_SIMULATING, line).unwrap().1.gate, LIMITS);
        let err = parse_with(GATED_PLANNING, "--baseline /nonexistent/t.json").unwrap_err();
        assert!(
            err.contains("--baseline: reading /nonexistent/t.json"),
            "{err}"
        );
    }

    /// A well-formed run: 1 s single-thread simulation, 2x on 2 threads of
    /// 2 cores.
    const RUN: &str = r#"{
  "scale": "quick",
  "models": [
    {"model": "paper", "replicas": 14, "predicted_mean_hops": 3.000000},
    {"model": "closed-form", "replicas": 12, "predicted_mean_hops": 3.100000}
  ],
  "work": {
    "sim.cache_hits": 10,
    "sim.requests_total": 1000
  },
  "work_identical": true,
  "bit_identical": true,
  "wall_clock": {
    "baseline_threads": 1,
    "parallel_threads": 2,
    "available_parallelism": 2,
    "runs": [{"threads": 1, "phases": {"simulation_s": 1.000000}, "total_s": 1.000000}, {"threads": 2, "phases": {"simulation_s": 0.500000}, "total_s": 0.500000}],
    "speedup_total": 2.0000,
    "plan_s": {"closed-form": 0.100000}
  }
}
"#;

    const LIMITS: Gate = Gate {
        tier: None,
        min_speedup: Some(1.5),
        max_seconds: Some(60.0),
    };

    /// Every line of checking `RUN`, with each `(from, to)` replacement
    /// applied, against `RUN` as its tier file, under `LIMITS`.
    fn verdict(edits: &[(&str, &str)]) -> Vec<(bool, String)> {
        let mut run = RUN.to_string();
        for (from, to) in edits {
            assert!(run.contains(from), "{from}");
            run = run.replace(from, to);
        }
        let gate = Gate {
            tier: Some(("tier.json".into(), json::parse(RUN).unwrap())),
            ..LIMITS
        };
        gate.check(&json::parse(&run).unwrap())
    }

    /// The one failing line of [`verdict`].
    fn only_failure(edits: &[(&str, &str)]) -> String {
        let failures: Vec<String> = verdict(edits)
            .into_iter()
            .filter_map(|(ok, line)| (!ok).then_some(line))
            .collect();
        assert_eq!(failures.len(), 1, "{failures:?}");
        failures[0].clone()
    }

    #[test]
    fn a_well_formed_run_passes_against_itself() {
        let lines = verdict(&[]);
        assert_eq!(lines.len(), 3, "{lines:?}");
        assert!(lines.iter().all(|(ok, _)| *ok), "{lines:?}");
        // Nothing under "wall_clock" is compared with the tier file.
        let slower = [
            ("\"simulation_s\": 1.000000", "\"simulation_s\": 9.000000"),
            ("\"closed-form\": 0.100000", "\"closed-form\": 0.900000"),
        ];
        assert!(verdict(&slower).iter().all(|(ok, _)| *ok));
    }

    const TOTAL: &str = "\"sim.requests_total\": 1000";

    #[test]
    fn a_drifted_counter_fails() {
        let f = only_failure(&[(TOTAL, "\"sim.requests_total\": 999")]);
        assert_eq!(
            f,
            "`work.sim.requests_total`: 1000 in the tier file, 999 in this run"
        );
    }

    #[test]
    fn an_extra_counter_fails() {
        let extra = "\"sim.requests_total\": 1000, \"sim.new\": 0";
        let f = only_failure(&[(TOTAL, extra)]);
        assert!(f.starts_with("`work.sim.new`: absent"), "{f}");
    }

    #[test]
    fn a_missing_counter_fails() {
        let f = only_failure(&[(",\n    \"sim.requests_total\": 1000", "")]);
        assert!(f.starts_with("`work.sim.requests_total`: 1000"), "{f}");
    }

    #[test]
    fn a_drifted_model_row_fails() {
        let f = only_failure(&[("\"replicas\": 12", "\"replicas\": 13")]);
        assert!(f.starts_with("`models[1].replicas`: 12"), "{f}");
    }

    #[test]
    fn a_broken_identity_fails() {
        let f = only_failure(&[("\"bit_identical\": true", "\"bit_identical\": false")]);
        assert!(f.starts_with("`bit_identical`: true"), "{f}");
    }

    #[test]
    fn a_scale_mismatch_fails() {
        let f = only_failure(&[("\"scale\": \"quick\"", "\"scale\": \"paper\"")]);
        assert!(f.starts_with("`scale`: \"quick\""), "{f}");
    }

    #[test]
    fn a_speedup_under_a_measurable_floor_fails() {
        let slow = ("\"speedup_total\": 2.0000", "\"speedup_total\": 1.4000");
        let f = "speedup 1.40x at 2 thread(s) on 2 core(s), floor 1.50x";
        assert_eq!(only_failure(&[slow]), f);
        // Two threads on four cores can still reach 1.5x.
        let cores = (
            "\"available_parallelism\": 2",
            "\"available_parallelism\": 4",
        );
        assert!(only_failure(&[cores, slow]).ends_with("floor 1.50x"));
    }

    #[test]
    fn a_floor_above_the_usable_parallelism_is_not_measured() {
        // Four threads on one core: 1.5x is out of reach, so a 0.9x run
        // neither fails nor passes the floor.
        let lines = verdict(&[
            ("\"parallel_threads\": 2", "\"parallel_threads\": 4"),
            (
                "\"available_parallelism\": 2",
                "\"available_parallelism\": 1",
            ),
            ("\"speedup_total\": 2.0000", "\"speedup_total\": 0.9000"),
        ]);
        assert!(lines.iter().all(|(ok, _)| *ok), "{lines:?}");
        assert!(lines[1]
            .1
            .ends_with("not measured, the 1.50x floor is out of reach"));
    }

    #[test]
    fn short_passes_repeat_and_the_median_pass_is_recorded() {
        let pass = |secs: f64| PhaseTimings {
            threads: 1,
            phases: vec![("simulation".into(), secs)],
        };
        // Passes repeat until the 1-thread passes total 3 s, or five ran.
        assert!(another_pair(&[pass(1.1)]));
        assert!(another_pair(&[pass(1.1), pass(1.0)]));
        assert!(!another_pair(&[pass(1.1), pass(1.0), pass(0.9)]));
        assert!(!another_pair(&[pass(3.0)]));
        assert!(!another_pair(&vec![pass(0.01); MAX_PASS_PAIRS]));
        let median = |xs: &[f64]| median_pass(xs.iter().map(|&x| pass(x)).collect());
        assert_eq!(median(&[1.4]).total_seconds(), 1.4);
        assert_eq!(median(&[1.4, 0.9, 1.1]).total_seconds(), 1.1);
        assert_eq!(median(&[1.4, 0.9, 1.1, 1.0]).total_seconds(), 1.0);
    }

    #[test]
    fn a_short_arm_or_a_single_core_records_no_speedup() {
        assert_eq!(speedup(MIN_TIMED_ARM_S, 0.25, 2), Ok(2.0));
        let short = speedup(0.019, 0.010, 2).unwrap_err();
        assert_eq!(short, "the 1-thread arm took 0.019s, under 0.5s");
        assert_eq!(speedup(30.0, 30.0, 1).unwrap_err(), "the host has 1 core");
        // A run that recorded none passes a reachable floor as not measured.
        let lines = verdict(&[("\"speedup_total\": 2.0000", "\"speedup_total\": null")]);
        assert!(lines.iter().all(|(ok, _)| *ok), "{lines:?}");
        assert_eq!(
            lines[1].1,
            "speedup not measured at 2 thread(s) on 2 core(s)"
        );
    }

    #[test]
    fn a_parallel_arm_over_the_ceiling_fails() {
        let f = only_failure(&[("\"total_s\": 0.500000", "\"total_s\": 61.000000")]);
        assert_eq!(f, "N-thread arm 61.0s, ceiling 60.0s");
    }

    #[test]
    fn every_baseline_ci_names_exists_and_passes_its_own_gate() {
        // The CI workflow once gated against a tier its baseline lacked.
        // Every tier file a CI command line names must parse, be of the
        // command's scale, and pass its own gate under the command's limits.
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let ci = std::fs::read_to_string(root.join(".github/workflows/ci.yml")).unwrap();
        let mut named = BTreeSet::new();
        for line in ci
            .replace("\\\n", " ")
            .lines()
            .filter(|l| l.contains("--baseline"))
        {
            let (command, flags) = line.split_once(" -- ").expect("flags after --");
            let table = match command.rsplit_once("--bin ").map(|(_, bin)| bin) {
                Some("bench_parallel") => GATED_SIMULATING,
                Some("bench_placement") => GATED_PLANNING,
                _ => panic!("{line}: not a 1-vs-N binary"),
            };
            let mut words: Vec<String> = flags.split_whitespace().map(str::to_string).collect();
            let at = 1 + words.iter().position(|w| w == "--baseline").unwrap();
            named.insert(words[at].clone());
            words[at] = root.join(&words[at]).display().to_string();
            let a = Args::parse(words, table).unwrap_or_else(|e| panic!("{line}: {e:?}"));
            let bench = BenchArgs::from_args(&a).unwrap_or_else(|e| panic!("{line}: {e}"));
            let tier = &bench.gate.tier.as_ref().expect("--baseline").1;
            let scale = tier.get("scale").and_then(Json::as_str);
            assert_eq!(scale, Some(bench.scale.label()), "{line}");
            let lines = bench.gate.check(tier);
            assert!(lines.iter().all(|(ok, _)| *ok), "{line}: {lines:?}");
        }
        let tiers = ["quick", "hybrid-paper", "large-ci", "hybrid-large-ci"];
        assert_eq!(
            named,
            BTreeSet::from(tiers.map(|t| format!("results/baseline/{t}.json")))
        );
    }
}
