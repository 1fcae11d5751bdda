//! Telemetry determinism across thread counts: with the same seed, the
//! JSONL event trace and the metrics snapshot must be **byte-identical**
//! whether the pipeline runs on one rayon worker or many. This is the
//! in-process counterpart of the CI step that diffs `--trace-out` /
//! `--metrics-out` files between `RAYON_NUM_THREADS=1` and `=4` runs.
//!
//! The same contract extends to the wall-clock profiler and the request
//! sampler: turning either on must not change a single byte of the
//! deterministic outputs (timed data goes only to its own file), and the
//! sampled set itself must be thread-count invariant.
//!
//! The telemetry layer is process-global (enabled flag, registry,
//! installed trace/profiler), and every simulation emits into it while a
//! trace is installed — so each test here holds [`TELEMETRY`] for its whole
//! run, and the telemetry checks share a single `#[test]`.

use cdn_core::{Scenario, ScenarioConfig, Strategy};
use cdn_telemetry as telemetry;
use std::sync::{Mutex, MutexGuard};

/// Serializes the tests of this file: a simulation running beside
/// [`run_observed`] would add its spans and counters to the trace and
/// registry that run installed.
static TELEMETRY: Mutex<()> = Mutex::new(());

/// Hold [`TELEMETRY`]; a test that panicked while holding it does not fail
/// the others.
fn telemetry_lock() -> MutexGuard<'static, ()> {
    TELEMETRY.lock().unwrap_or_else(|e| e.into_inner())
}

struct Observed {
    trace: String,
    metrics: String,
    /// Chrome trace JSON, when profiling was on.
    profile: Option<String>,
    /// Sampled request paths as JSONL, when sampling was on (else empty).
    samples: String,
}

/// Full pipeline pass on a dedicated pool with the requested observers.
fn run_observed(
    threads: usize,
    profiled: bool,
    sample_every: Option<u64>,
    window: Option<u64>,
) -> Observed {
    telemetry::reset_metrics();
    telemetry::install_trace();
    if profiled {
        telemetry::profile::install();
    }
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("build pool");
    let report = pool.install(|| {
        let mut cfg = ScenarioConfig::small();
        cfg.sim.sample_every = sample_every;
        cfg.sim.window = window;
        let scenario = Scenario::generate(&cfg);
        let plan = scenario.plan(Strategy::Hybrid);
        scenario.simulate(&plan)
    });
    let mut samples = String::new();
    cdn_core::sim::render_samples_jsonl("t", &report, &mut samples);
    let trace = telemetry::drain_trace().expect("trace installed");
    let metrics = telemetry::registry().snapshot_json();
    telemetry::uninstall_trace();
    let profile = if profiled {
        let json = telemetry::profile::drain_chrome_trace();
        telemetry::profile::uninstall();
        json
    } else {
        None
    };
    Observed {
        trace,
        metrics,
        profile,
        samples,
    }
}

#[test]
fn trace_and_metrics_bytes_are_thread_count_invariant() {
    let _telemetry = telemetry_lock();
    let base_1 = run_observed(1, false, None, None);
    let base_4 = run_observed(4, false, None, None);
    let (trace_1, metrics_1) = (&base_1.trace, &base_1.metrics);

    // The streams must be non-trivial before identical means anything.
    assert!(
        trace_1.lines().count() > 10,
        "trace suspiciously short:\n{trace_1}"
    );
    for needle in ["placement.hybrid", "sim.system", "sim.server"] {
        assert!(trace_1.contains(needle), "trace lacks `{needle}`");
    }
    for needle in [
        "lru_model.series_terms",
        "placement.candidates_evaluated",
        "sim.cache_hits",
        "sim.requests_total",
        "sim.cause.replica_hit",
        "sim.latency_ms",
    ] {
        assert!(metrics_1.contains(needle), "metrics lack `{needle}`");
    }

    assert_eq!(
        *trace_1, base_4.trace,
        "JSONL trace bytes differ between 1 and 4 threads"
    );
    assert_eq!(
        *metrics_1, base_4.metrics,
        "metrics snapshot bytes differ between 1 and 4 threads"
    );

    // Every line must be valid JSON with strictly increasing `seq`.
    let mut prev_seq = 0u64;
    for line in trace_1.lines() {
        let doc = telemetry::json::parse(line).expect("valid JSONL line");
        let seq = doc
            .get("seq")
            .and_then(telemetry::json::Json::as_u64)
            .expect("seq field");
        assert!(seq > prev_seq || prev_seq == 0, "seq not increasing");
        prev_seq = seq;
    }

    // And a re-run at the same thread count is reproducible outright.
    let base_1b = run_observed(1, false, None, None);
    assert_eq!(*trace_1, base_1b.trace);
    assert_eq!(*metrics_1, base_1b.metrics);

    // -- Profiling + sampling never perturb the deterministic artifacts. --
    assert!(base_1.samples.is_empty(), "sampling off must yield nothing");
    let probed = run_observed(4, true, Some(97), None);
    assert_eq!(
        *trace_1, probed.trace,
        "enabling the profiler/sampler changed the deterministic trace"
    );
    assert_eq!(
        *metrics_1, probed.metrics,
        "enabling the profiler/sampler changed the metrics snapshot"
    );

    // The sampled set is non-empty, valid JSONL, keyed on the stream index,
    // and identical at any thread count.
    assert!(!probed.samples.is_empty(), "sampler produced no samples");
    for line in probed.samples.lines() {
        let doc = telemetry::json::parse(line).expect("valid sample line");
        let index = doc
            .get("index")
            .and_then(telemetry::json::Json::as_u64)
            .expect("index field");
        assert_eq!(index % 97, 0, "sample off the 1-in-97 grid");
        assert!(doc.get("cause").is_some(), "sample without cause");
    }
    let probed_1 = run_observed(1, true, Some(97), None);
    assert_eq!(
        probed.samples, probed_1.samples,
        "sampled set differs between thread counts"
    );

    // The windowed timeline is purely observational too: with it on, the
    // trace and metrics snapshots stay byte-identical — it feeds nothing
    // into the registry or the event stream.
    let windowed = run_observed(4, false, None, Some(64));
    assert_eq!(
        *trace_1, windowed.trace,
        "enabling the timeline changed the deterministic trace"
    );
    assert_eq!(
        *metrics_1, windowed.metrics,
        "enabling the timeline changed the metrics snapshot"
    );

    // The wall-clock profile is valid Chrome trace JSON covering the
    // pipeline's phases (values are machine-dependent; shape is not).
    let profile = probed.profile.expect("profiler installed");
    let doc = telemetry::json::parse(&profile).expect("profile parses");
    let events = doc
        .get("traceEvents")
        .and_then(telemetry::json::Json::as_arr)
        .expect("traceEvents array");
    assert!(!events.is_empty(), "profile recorded no spans");
    for needle in ["scenario.generate", "scenario.plan", "sim.system"] {
        assert!(profile.contains(needle), "profile lacks `{needle}`");
    }
}

/// Full pipeline pass on a dedicated pool with a timeline configuration.
/// It installs no trace and resets no metrics, but its simulation still
/// emits into whatever trace and registry are live, so callers hold
/// [`TELEMETRY`].
fn run_timeline(
    threads: usize,
    shards: Option<usize>,
    window: Option<u64>,
) -> cdn_core::sim::SimReport {
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("build pool");
    pool.install(|| {
        let mut cfg = ScenarioConfig::small();
        cfg.sim.window = window;
        cfg.sim.shards = shards;
        let scenario = Scenario::generate(&cfg);
        let plan = scenario.plan(Strategy::Hybrid);
        scenario.simulate(&plan)
    })
}

/// The rendered timeline artifact — JSON *and* CSV — is byte-identical at
/// every shard count in {1, 2, 4, 8} crossed with every thread count in
/// {1, 4}. This is the artifact-level pin of the §9.1 extension: windows
/// are keyed on per-server stream ticks and merged in global server order,
/// so neither knob can move a byte.
#[test]
fn timeline_bytes_are_shard_and_thread_count_invariant() {
    let _telemetry = telemetry_lock();
    let reference = run_timeline(1, Some(1), Some(128));
    let tl = reference.timeline.as_ref().expect("timeline enabled");
    assert!(tl.windows.len() > 1, "scenario too small to window");
    assert!(!tl.per_server.is_empty(), "no per-server timelines");
    let runs = vec![("hybrid".to_string(), tl.clone())];
    let (json_ref, csv_ref) = (
        cdn_core::sim::render_timeline_json(&runs),
        cdn_core::sim::render_timeline_csv(&runs),
    );
    assert!(json_ref.contains("\"top_site\""), "{json_ref}");
    for shards in [1usize, 2, 4, 8] {
        for threads in [1usize, 4] {
            let r = run_timeline(threads, Some(shards), Some(128));
            let runs = vec![("hybrid".to_string(), r.timeline.expect("timeline enabled"))];
            assert_eq!(
                json_ref,
                cdn_core::sim::render_timeline_json(&runs),
                "timeline JSON differs at {shards} shard(s), {threads} thread(s)"
            );
            assert_eq!(
                csv_ref,
                cdn_core::sim::render_timeline_csv(&runs),
                "timeline CSV differs at {shards} shard(s), {threads} thread(s)"
            );
        }
    }
}

/// `--window 0` is the documented off switch: its report is bit-identical
/// to a run with no window configured at all.
#[test]
fn zero_window_is_bit_identical_to_no_window() {
    let _telemetry = telemetry_lock();
    let off = run_timeline(2, None, None);
    let zero = run_timeline(2, None, Some(0));
    assert!(off.timeline.is_none());
    assert!(zero.timeline.is_none());
    assert_eq!(
        off.mean_latency_ms.to_bits(),
        zero.mean_latency_ms.to_bits()
    );
    assert_eq!(off.histogram.cdf(), zero.histogram.cdf());
    assert_eq!(off.measured_requests, zero.measured_requests);
    assert_eq!(off.cache_hits, zero.cache_hits);
    assert_eq!(off.replica_hits, zero.replica_hits);
    assert_eq!(off.total_bytes, zero.total_bytes);
    assert_eq!(off.cause, zero.cause);
    assert_eq!(off.samples, zero.samples);
}
