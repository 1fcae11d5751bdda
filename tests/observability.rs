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
fn run_observed(threads: usize, profiled: bool, sample_every: u64, window: u64) -> Observed {
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
    let base_1 = run_observed(1, false, 0, 0);
    let base_4 = run_observed(4, false, 0, 0);
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
    let base_1b = run_observed(1, false, 0, 0);
    assert_eq!(*trace_1, base_1b.trace);
    assert_eq!(*metrics_1, base_1b.metrics);

    // -- Profiling + sampling never perturb the deterministic artifacts. --
    assert!(base_1.samples.is_empty(), "sampling off must yield nothing");
    let probed = run_observed(4, true, 97, 0);
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
    let probed_1 = run_observed(1, true, 97, 0);
    assert_eq!(
        probed.samples, probed_1.samples,
        "sampled set differs between thread counts"
    );

    // The windowed timeline is purely observational too: with it on, the
    // trace and metrics snapshots stay byte-identical — it feeds nothing
    // into the registry or the event stream.
    let windowed = run_observed(4, false, 0, 64);
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
fn run_timeline(threads: usize, shards: Option<usize>, window: u64) -> cdn_core::sim::SimReport {
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
    let reference = run_timeline(1, Some(1), 128);
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
            let r = run_timeline(threads, Some(shards), 128);
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

/// `sim.site` files every measured request under the bucket `sim.server`
/// does: with delayed hits in play, each server's per-site tallies sum to
/// its own buckets, delayed hits included and kept out of the local ones.
#[test]
fn site_events_sum_to_their_server_buckets() {
    use std::collections::BTreeMap;
    use telemetry::json::Json;
    const SITE_FIELDS: [&str; 5] = [
        "local_hits",
        "delayed_hits",
        "remote_fetches",
        "failovers",
        "failed",
    ];
    let _telemetry = telemetry_lock();
    telemetry::reset_metrics();
    telemetry::install_trace();
    let mut cfg = ScenarioConfig::small();
    cfg.sim.fetch_latency = Some(16);
    let scenario = Scenario::generate(&cfg);
    let report = scenario.simulate(&scenario.plan(Strategy::Hybrid));
    let trace = telemetry::drain_trace().expect("trace installed");
    telemetry::uninstall_trace();
    assert!(report.delayed_hits > 0, "no delayed hits to attribute");

    let field = |doc: &Json, name: &str| {
        doc.get("fields")
            .and_then(|f| f.get(name))
            .and_then(Json::as_u64)
            .unwrap_or_else(|| panic!("event lacks `{name}`: {doc:?}"))
    };
    // Keyed by span: a server's `sim.site` events share its span.
    let mut servers: BTreeMap<u64, [u64; 5]> = BTreeMap::new();
    let mut sites: BTreeMap<u64, [u64; 5]> = BTreeMap::new();
    for line in trace.lines() {
        let doc = telemetry::json::parse(line).expect("valid JSONL line");
        if doc.get("type").and_then(Json::as_str) != Some("event") {
            continue;
        }
        let span = doc.get("span").and_then(Json::as_u64).expect("span");
        match doc.get("name").and_then(Json::as_str) {
            Some("sim.server") => {
                let buckets = [
                    field(&doc, "local"),
                    field(&doc, "delayed_hits"),
                    field(&doc, "origin_fetches") + field(&doc, "peer_fetches"),
                    field(&doc, "failover_fetches"),
                    field(&doc, "failed"),
                ];
                servers.insert(span, buckets);
            }
            Some("sim.site") => {
                let sum = sites.entry(span).or_default();
                for (total, name) in sum.iter_mut().zip(SITE_FIELDS) {
                    *total += field(&doc, name);
                }
            }
            _ => {}
        }
    }
    assert_eq!(servers.len(), cfg.hosts.n_servers);
    for (span, buckets) in &servers {
        let summed = sites.get(span).copied().unwrap_or_default();
        assert_eq!(summed, *buckets, "server span {span}: {SITE_FIELDS:?}");
    }
}

/// The committed fig3 timeline reports exact window quantiles: in every
/// global and per-server window, p50 ≤ p90 ≤ p99 ≤ max.
#[test]
fn golden_timeline_quantiles_are_ordered_and_bounded_by_the_max() {
    use telemetry::json::Json;
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/golden/quick/fig3_timeline.json"
    );
    let text = std::fs::read_to_string(path).expect("read the fig3 timeline golden");
    let doc = telemetry::json::parse(&text).expect("the golden parses");
    let mut windows = 0;
    for run in doc.get("runs").and_then(Json::as_arr).expect("runs") {
        let servers = run.get("servers").and_then(Json::as_arr).expect("servers");
        for section in std::iter::once(run).chain(servers) {
            let [p50, p90, p99, max] = ["p50_ms", "p90_ms", "p99_ms", "max_ms"].map(|name| {
                let column = section.get(name).and_then(Json::as_arr).expect(name);
                column
                    .iter()
                    .map(|v| v.as_f64().expect(name))
                    .collect::<Vec<_>>()
            });
            for i in 0..max.len() {
                let q = [p50[i], p90[i], p99[i], max[i]];
                assert!(q.windows(2).all(|w| w[0] <= w[1]), "window {i}: {q:?}");
                windows += 1;
            }
        }
    }
    assert!(windows > 0, "the golden has no windows");
}
