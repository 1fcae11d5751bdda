//! The three workloads and the phases every iteration goes through:
//! setup → plan → simulate → check.

use crate::check;
use cdn_core::placement::{greedy_local, replication_only_cost, Placement, PlacementProblem};
use cdn_core::sim::{FaultParams, SimReport};
use cdn_core::workload::{read_events_file, write_events_file, LambdaMode, TraceSpec};
use cdn_core::{export_events, replay_events, PlanResult, Scenario, ScenarioConfig, Strategy};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// The seed whose report digests [`crate::check`] records: the default
/// seed of `ScenarioConfig`.
pub const DEFAULT_SEED: u64 = 20050404;

/// Iterations a measurement makes however short its time budget, so every
/// reported median (set-up time included) is over several set-ups.
const MIN_ITERATIONS: u64 = 3;

/// Fault model of `fleet-faults`: MTTF 2000 and MTTR 200 ticks, origins
/// unreachable 2% of ticks, the default 200 ms retry penalty.
const FAULTS: FaultParams = FaultParams {
    mttf: 2000.0,
    mttr: 200.0,
    origin_outage: 0.02,
    retry_penalty_ms: 200.0,
    seed: 11,
};

/// Remote-fetch latency of `replay-delayed`, in per-server stream ticks.
const FETCH_LATENCY: u64 = 64;

/// Bytes per reported megabyte: sizes are reported in MB of 2^20 bytes.
pub const MB: f64 = (1u64 << 20) as f64;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The paper's evaluation: N=50, M=200, L=1000, 12.5M requests,
    /// generate → hybrid plan → simulate.
    PaperHybrid,
    /// A fixed greedy-local plan on the 2000-server `large-ci` fleet,
    /// simulated with fault injection and expired-object refreshes. Run by
    /// name; `BENCHMARK.json` leaves it out because on a 2-core host its
    /// run-to-run spread (up to 0.26 of the median) exceeded the bounds.
    FleetFaults,
    /// The `large-ci` workload exported to a `.events` file, read back and
    /// replayed with delayed hits against a primaries-only plan.
    ReplayDelayed,
}

/// Input size: `Full` is what the benchmark measures; `Small` runs the same
/// pipelines at `ScenarioConfig::small()` size for the harness self-test.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    Full,
    Small,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::PaperHybrid,
        Workload::FleetFaults,
        Workload::ReplayDelayed,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperHybrid => "paper-hybrid",
            Workload::FleetFaults => "fleet-faults",
            Workload::ReplayDelayed => "replay-delayed",
        }
    }

    pub fn by_name(name: &str) -> Result<Self, String> {
        Self::ALL
            .into_iter()
            .find(|w| w.name() == name)
            .ok_or_else(|| {
                let known: Vec<&str> = Self::ALL.iter().map(|w| w.name()).collect();
                format!("unknown workload '{name}' (known: {})", known.join(", "))
            })
    }

    /// The system this workload runs: topology, catalog, demand and fault
    /// model are fixed (generated from [`DEFAULT_SEED`]); the benchmark's
    /// seed drives only the request streams, so every seed asks the same
    /// planning and simulation work of statistically alike traffic.
    pub fn config(self, scale: Scale) -> ScenarioConfig {
        let (lambda, mode) = match self {
            Workload::FleetFaults => (0.1, LambdaMode::Expired),
            _ => (0.0, LambdaMode::Uncacheable),
        };
        let mut cfg = match (scale, self) {
            (Scale::Full, Workload::PaperHybrid) => ScenarioConfig::paper(0.05, lambda, mode),
            (Scale::Full, _) => ScenarioConfig::large_ci(0.05, lambda, mode),
            (Scale::Small, _) => ScenarioConfig {
                lambda,
                lambda_mode: mode,
                ..ScenarioConfig::small()
            },
        };
        cfg.seed = DEFAULT_SEED;
        match self {
            Workload::PaperHybrid => {}
            Workload::FleetFaults => cfg.sim.faults = Some(FAULTS),
            Workload::ReplayDelayed => cfg.sim.fetch_latency = Some(FETCH_LATENCY),
        }
        cfg
    }
}

/// What setup builds: the scenario and, for `replay-delayed`, the exported
/// trace file, which is removed when the inputs drop.
pub struct Inputs {
    pub workload: Workload,
    pub scenario: Scenario,
    pub trace_file: Option<PathBuf>,
    /// Requests the simulate phase must account for.
    pub requests: u64,
}

impl Inputs {
    /// Generate the workload's system and draw its request streams from
    /// `seed`, derived as `Scenario::generate` derives its own trace seed,
    /// so [`DEFAULT_SEED`] reproduces the scenario's own streams.
    pub fn generate(workload: Workload, cfg: &ScenarioConfig, seed: u64) -> Self {
        let mut scenario = Scenario::generate(cfg);
        scenario.trace = TraceSpec::with_per_site_lambda(
            &scenario.demand,
            scenario.catalog.object_zipf.clone(),
            scenario.problem.lambda.clone(),
            cfg.lambda_mode,
            seed ^ 0xbf58_476d_1ce4_e5b9,
        );
        let trace = &scenario.trace;
        let requests = (0..trace.n_servers())
            .map(|s| trace.len_for_server(s))
            .sum();
        Self {
            workload,
            scenario,
            trace_file: None,
            requests,
        }
    }

    /// Export the scenario's workload to a `.events` file in `out_dir`;
    /// the simulate phase then replays that file.
    pub fn export(&mut self, out_dir: &Path) -> Result<(), String> {
        let path = out_dir.join(format!(
            "{}-{}.events",
            self.workload.name(),
            std::process::id()
        ));
        let events = export_events(&self.scenario);
        self.trace_file = Some(path.clone());
        write_events_file(&path, &events)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        self.requests = events.len() as u64;
        Ok(())
    }
}

impl Drop for Inputs {
    fn drop(&mut self) {
        if let Some(path) = &self.trace_file {
            let _ = std::fs::remove_file(path);
        }
    }
}

pub fn setup(
    workload: Workload,
    cfg: &ScenarioConfig,
    seed: u64,
    out_dir: &Path,
) -> Result<Inputs, String> {
    let mut inputs = Inputs::generate(workload, cfg, seed);
    if workload == Workload::ReplayDelayed {
        inputs.export(out_dir)?;
    }
    Ok(inputs)
}

/// The placement the simulate phase runs on.
pub fn plan(inputs: &Inputs) -> PlanResult {
    let problem = &inputs.scenario.problem;
    match inputs.workload {
        Workload::PaperHybrid => inputs.scenario.plan(Strategy::Hybrid),
        Workload::FleetFaults => fixed_plan(Strategy::GreedyLocal, problem, greedy_local(problem)),
        Workload::ReplayDelayed => fixed_plan(
            Strategy::Caching,
            problem,
            Placement::primaries_only(problem),
        ),
    }
}

/// A planner-free placement, priced at its replication-only cost.
pub fn fixed_plan(
    strategy: Strategy,
    problem: &PlacementProblem,
    placement: Placement,
) -> PlanResult {
    PlanResult {
        strategy,
        predicted_cost: replication_only_cost(problem, &placement),
        hit_ratios: None,
        placement,
    }
}

/// Simulate `plan`: the synthetic streams, or the exported trace read back
/// from its file and replayed.
pub fn simulate(inputs: &Inputs, plan: &PlanResult) -> Result<SimReport, String> {
    match &inputs.trace_file {
        None => Ok(inputs.scenario.simulate(plan)),
        Some(path) => {
            let events =
                read_events_file(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
            Ok(replay_events(&inputs.scenario, plan, events))
        }
    }
}

/// One untraced iteration of a workload's pipeline.
#[derive(Debug, PartialEq)]
pub struct Sample {
    pub setup_s: f64,
    pub plan_s: f64,
    pub sim_s: f64,
    /// Setup through a checked report.
    pub total_s: f64,
    pub setup_rss_mb: f64,
    /// Peak RSS of the timed phases: plan, simulate and check.
    pub peak_rss_mb: f64,
    /// `SimReport::total_requests`.
    pub requests: u64,
    /// [`check::digest`] of the report.
    pub digest: u64,
}

impl Sample {
    pub fn requests_per_s(&self) -> f64 {
        self.requests as f64 / self.sim_s
    }

    /// The line an iteration process prints for the benchmark process.
    pub fn to_line(&self) -> String {
        format!(
            "sample {} {} {} {} {} {} {} {}",
            self.setup_s,
            self.plan_s,
            self.sim_s,
            self.total_s,
            self.setup_rss_mb,
            self.peak_rss_mb,
            self.requests,
            self.digest
        )
    }

    /// Inverse of [`Sample::to_line`].
    pub fn parse(line: &str) -> Result<Self, String> {
        let bad = || format!("malformed iteration result '{line}'");
        let fields: Vec<&str> = line.split_whitespace().collect();
        let &["sample", setup_s, plan_s, sim_s, total_s, setup_rss_mb, peak_rss_mb, requests, digest] =
            fields.as_slice()
        else {
            return Err(bad());
        };
        let secs = |s: &str| s.parse::<f64>().map_err(|_| bad());
        let count = |s: &str| s.parse::<u64>().map_err(|_| bad());
        Ok(Self {
            setup_s: secs(setup_s)?,
            plan_s: secs(plan_s)?,
            sim_s: secs(sim_s)?,
            total_s: secs(total_s)?,
            setup_rss_mb: secs(setup_rss_mb)?,
            peak_rss_mb: secs(peak_rss_mb)?,
            requests: count(requests)?,
            digest: count(digest)?,
        })
    }
}

pub fn run_once(
    workload: Workload,
    scale: Scale,
    seed: u64,
    out_dir: &Path,
) -> Result<Sample, String> {
    let cfg = workload.config(scale);
    reset_peak_rss();
    let start = Instant::now();
    let inputs = setup(workload, &cfg, seed, out_dir)?;
    let setup_s = start.elapsed().as_secs_f64();
    let setup_rss_mb = peak_rss_mb();
    reset_peak_rss();

    let t = Instant::now();
    let plan = plan(&inputs);
    let plan_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let report = simulate(&inputs, &plan)?;
    let sim_s = t.elapsed().as_secs_f64();
    let digest = check::check(&inputs, scale, seed, &plan, &report)?;
    let total_s = start.elapsed().as_secs_f64();
    let peak_rss_mb = peak_rss_mb();
    Ok(Sample {
        setup_s,
        plan_s,
        sim_s,
        total_s,
        setup_rss_mb,
        peak_rss_mb,
        requests: report.total_requests,
        digest,
    })
}

/// The untraced iterations of one measurement.
pub struct Measured {
    pub samples: Vec<Sample>,
    pub attempted: u64,
    pub failed: u64,
}

/// Run untraced iterations (`iteration(n)` runs the n-th) until `seconds`
/// have passed and at least [`MIN_ITERATIONS`] were attempted. An
/// iteration that errs or panics counts as failed.
pub fn measure(seconds: f64, mut iteration: impl FnMut(u64) -> Result<Sample, String>) -> Measured {
    let start = Instant::now();
    let mut m = Measured {
        samples: Vec::new(),
        attempted: 0,
        failed: 0,
    };
    while m.attempted < MIN_ITERATIONS || start.elapsed().as_secs_f64() < seconds {
        m.attempted += 1;
        match guarded(|| iteration(m.attempted)) {
            Ok(s) => {
                eprintln!(
                    "  iteration {}: setup {:.3} s, plan {:.3} s, simulate {:.3} s \
                     ({:.0} req/s), total {:.3} s, rss {:.1}/{:.1} MB",
                    m.attempted,
                    s.setup_s,
                    s.plan_s,
                    s.sim_s,
                    s.requests_per_s(),
                    s.total_s,
                    s.setup_rss_mb,
                    s.peak_rss_mb
                );
                m.samples.push(s);
            }
            Err(e) => {
                m.failed += 1;
                eprintln!("  iteration {} failed: {e}", m.attempted);
            }
        }
    }
    m
}

/// Run `f`, turning a panic into an error.
pub fn guarded<R>(f: impl FnOnce() -> Result<R, String>) -> Result<R, String> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).unwrap_or_else(|payload| {
        let msg = payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".into());
        Err(format!("panicked: {msg}"))
    })
}

/// Median of `values` (the mean of the middle two for an even count).
pub fn median(mut values: Vec<f64>) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => values[n / 2],
        _ => (values[n / 2 - 1] + values[n / 2]) / 2.0,
    }
}

/// Hand freed heap pages back to the kernel, then reset the kernel's
/// peak-RSS mark (`VmHWM`) to the current RSS by writing `5` to
/// `/proc/self/clear_refs`, so the next [`peak_rss_mb`] covers one phase
/// and not memory an earlier phase freed. Returns false when the kernel
/// refuses the reset; peaks then cover the whole process so far.
pub fn reset_peak_rss() -> bool {
    release_free_heap();
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// glibc keeps freed memory mapped for reuse, which would carry one
/// iteration's peak into the next one's baseline.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn release_free_heap() {
    extern "C" {
        fn malloc_trim(pad: usize) -> std::os::raw::c_int;
    }
    // SAFETY: `malloc_trim` takes no pointers and only releases free heap
    // pages; glibc allows calling it at any time from any thread.
    unsafe {
        malloc_trim(0);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn release_free_heap() {}

/// Peak resident memory since the last reset, in MB (0 without procfs).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kib| kib * 1024.0 / MB)
}
