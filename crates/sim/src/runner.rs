//! Whole-system simulation: the fleet is split into contiguous server
//! shards that run in parallel (servers are fully independent — separate
//! caches, separate streams); each shard folds its servers' results as it
//! goes, and the shard accumulators merge in fixed shard order into a
//! single [`SimReport`]. A shard's and the run's request counters are each
//! one [`Tally`], merged from the servers' tallies; the report's request
//! buckets are read off the run's tally once. See the [`crate::shard`]
//! module for the determinism contract.

use crate::engine::{simulate_server_faulted, ServerReport};
use crate::fault::FaultSchedule;
use crate::metrics::{Cause, LatencyHistogram, RequestSample, ServerSummary, SimReport, Tally};
use crate::plan::{ServerPlan, SimConfig};
use crate::shard::shard_ranges;
use crate::timeline::{ServerTimeline, Timeline};
use cdn_cache::{Cache, CacheStats, LruCache};
use cdn_placement::{Placement, PlacementProblem};
use cdn_telemetry::{self as telemetry, TraceBuffer, Value};
use cdn_workload::{Request, SiteCatalog, TraceSpec};
use rayon::prelude::*;

/// Simulate `placement` under the request streams of `trace`.
///
/// `make_cache` builds the replacement policy per server; it receives the
/// plan's cache size in bytes and its result is used as-is (so a factory
/// that ignores its argument models a cache-less CDN). Pass `None` for the
/// paper's plain LRU sized to the plan.
pub fn simulate_system(
    problem: &PlacementProblem,
    placement: &Placement,
    catalog: &SiteCatalog,
    trace: &TraceSpec,
    config: &SimConfig,
    make_cache: Option<&(dyn Fn(u64) -> Box<dyn Cache> + Sync)>,
) -> SimReport {
    assert_eq!(
        trace.n_servers(),
        problem.n_servers(),
        "trace/problem server count mismatch"
    );
    let lengths: Vec<u64> = (0..trace.n_servers())
        .map(|i| trace.len_for_server(i))
        .collect();
    simulate_system_streams(
        problem,
        placement,
        catalog,
        config,
        make_cache,
        &lengths,
        |server| trace.stream_for_server(server),
    )
}

/// Generalisation of [`simulate_system`] over arbitrary request streams —
/// the entry point for non-stationary workloads (e.g. popularity drift via
/// `cdn_workload::Drifted`). `lengths[i]` must be stream `i`'s length (used
/// to size the warm-up window).
///
/// # Panics
/// Panics with [`SimConfig::validate`]'s message on an invalid `config`.
pub fn simulate_system_streams<F, I>(
    problem: &PlacementProblem,
    placement: &Placement,
    catalog: &SiteCatalog,
    config: &SimConfig,
    make_cache: Option<&(dyn Fn(u64) -> Box<dyn Cache> + Sync)>,
    lengths: &[u64],
    streams: F,
) -> SimReport
where
    F: Fn(usize) -> I + Sync,
    I: Iterator<Item = Request>,
{
    config.validate().unwrap_or_else(|msg| panic!("{msg}"));
    assert_eq!(
        catalog.m(),
        problem.m_sites(),
        "catalog/problem site count mismatch"
    );
    assert_eq!(
        lengths.len(),
        problem.n_servers(),
        "lengths/problem server count mismatch"
    );

    // The fault schedule is fully precomputed before the parallel loop, so
    // runs stay deterministic regardless of thread scheduling.
    let schedule: Option<FaultSchedule> = config.faults.map(|f| {
        let horizon = lengths.iter().copied().max().unwrap_or(0);
        FaultSchedule::generate(&f, problem.n_servers(), horizon)
    });

    // Mean (unweighted) object size, for pre-sizing the default caches to
    // their expected resident count instead of growing through warm-up.
    let total_objects: usize = catalog.sites.iter().map(|s| s.object_sizes.len()).sum();
    let mean_object_bytes = if total_objects == 0 {
        0.0
    } else {
        catalog.total_bytes() as f64 / total_objects as f64
    };

    // Sharded fan-out: contiguous server ranges run as parallel units.
    // Each shard walks its servers sequentially in ascending server order,
    // building every plan lazily and folding each server's report into the
    // shard's accumulator as soon as it finishes — so a server's histograms
    // and per-site tallies do not outlive its fold. The shards then merge in
    // shard order. Every accumulator is an integer sum or an in-order list,
    // so the report is bit-identical at any thread and shard count (see the
    // `shard` module for the full contract).
    let ranges = shard_ranges(problem.n_servers(), config.shards);
    let _prof = telemetry::profile::span("sim.system");
    let trace_on = telemetry::trace_installed();
    let shards: Vec<RunAccum> = ranges
        .par_iter()
        .map(|range| {
            let mut acc = RunAccum::new(trace_on);
            for server in range.clone() {
                let _prof = telemetry::profile::span("sim.server");
                let plan = ServerPlan::from_placement(problem, placement, server);
                let warmup = (lengths[server] as f64 * config.warmup_fraction) as u64;
                let cache: Box<dyn Cache> = match make_cache {
                    Some(f) => f(plan.cache_bytes),
                    None => {
                        let expected = if mean_object_bytes > 0.0 {
                            (plan.cache_bytes as f64 / mean_object_bytes).ceil() as usize
                        } else {
                            0
                        };
                        Box::new(LruCache::with_expected_objects(plan.cache_bytes, expected))
                    }
                };
                let report = simulate_server_faulted(
                    &plan,
                    config,
                    streams(server),
                    warmup,
                    |site, object| catalog.sites[site as usize].object_sizes[object as usize],
                    cache,
                    schedule.as_ref(),
                );
                acc.merge(RunAccum::of_server(report, trace_on));
            }
            acc
        })
        .collect();

    let mut run = RunAccum::new(trace_on);
    for shard in shards {
        run.merge(shard);
    }
    let lane = run.lane.take();
    let cache = run.cache;
    let report = run.into_report(config);
    emit_observability(&report, &cache, lane, schedule.as_ref());
    report
}

/// A run's accumulated state: one per shard while its servers fold in,
/// then the shards merged in shard order. The tally, histogram counts and
/// cache counters are integers that merge by addition, and the per-server
/// lists concatenate in server order, so how the fleet is split into shards
/// cannot move a bit.
#[derive(Default)]
struct RunAccum {
    total_requests: u64,
    tally: Tally,
    histogram: LatencyHistogram,
    failover_histogram: LatencyHistogram,
    /// Whole-stream cache counters summed over servers (telemetry runs
    /// only).
    cache: CacheStats,
    per_server: Vec<ServerSummary>,
    timelines: Vec<ServerTimeline>,
    samples: Vec<RequestSample>,
    /// Trace lane: each server's buffer splices in after the previous
    /// server's, which is record-identical to merging every server's
    /// buffer into the trace directly.
    lane: Option<TraceBuffer>,
}

impl RunAccum {
    fn new(trace_on: bool) -> Self {
        Self {
            lane: trace_on.then(TraceBuffer::new),
            ..Self::default()
        }
    }

    /// One server's contribution: its summary and trace buffer are
    /// rendered here, and its per-site tallies dropped.
    fn of_server(report: ServerReport, trace_on: bool) -> Self {
        let summary = ServerSummary {
            server: report.server,
            measured_requests: report.measured_requests,
            mean_latency_ms: report.histogram.mean(),
            local_ratio: ratio(report.local_requests, report.measured_requests),
            cache_hit_ratio: ratio(report.cache_hits, report.measured_requests),
            origin_fetches: report.origin_fetches,
            failed_requests: report.failed_requests,
            availability: if report.measured_requests == 0 {
                1.0
            } else {
                1.0 - ratio(report.failed_requests, report.measured_requests)
            },
        };
        Self {
            lane: trace_on.then(|| server_trace_buffer(&report)),
            cache: report.obs.map(|o| o.cache).unwrap_or_default(),
            per_server: vec![summary],
            timelines: report.timeline.into_iter().collect(),
            total_requests: report.total_requests,
            tally: report.tally,
            histogram: report.histogram,
            failover_histogram: report.failover_histogram,
            samples: report.samples,
        }
    }

    /// Fold in the accumulator of the servers that follow this one's.
    fn merge(&mut self, other: Self) {
        if let (Some(lane), Some(other)) = (self.lane.as_mut(), other.lane) {
            lane.merge_child(other);
        }
        self.total_requests += other.total_requests;
        self.tally.merge(&other.tally);
        self.histogram.merge(&other.histogram);
        self.failover_histogram.merge(&other.failover_histogram);
        self.cache.evictions += other.cache.evictions;
        self.cache.insertions += other.cache.insertions;
        self.cache.rejections += other.cache.rejections;
        self.per_server.extend(other.per_server);
        self.timelines.extend(other.timelines);
        self.samples.extend(other.samples);
    }

    /// The report, its request buckets read off the run's tally.
    fn into_report(self, config: &SimConfig) -> SimReport {
        let timeline = match config.window {
            0 => None,
            width => Some(Timeline::from_per_server(width, self.timelines)),
        };
        let t = &self.tally;
        SimReport {
            mean_latency_ms: self.histogram.mean(),
            mean_cost_hops: ratio(t.cost_hops, t.requests()),
            histogram: self.histogram,
            total_requests: self.total_requests,
            measured_requests: t.requests(),
            local_requests: t.local_requests(),
            cache_hits: t.cause.cache_hit.requests,
            replica_hits: t.cause.replica_hit.requests,
            delayed_hits: t.cause.delayed_hit.requests,
            origin_fetches: t.cause.origin_fetch.requests,
            peer_fetches: t.cause.remote_replica.requests,
            failover_fetches: t.cause.failover.requests,
            failover_histogram: self.failover_histogram,
            failed_requests: t.cause.failed.requests,
            total_bytes: t.total_bytes,
            origin_bytes: t.origin_bytes,
            per_server: self.per_server,
            cause: t.cause,
            samples: self.samples,
            timeline,
        }
    }
}

/// `part / whole`, 0 when `whole` is 0.
fn ratio(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// Build one server's trace contribution (runs inside the parallel map).
fn server_trace_buffer(report: &ServerReport) -> TraceBuffer {
    let mut buf = TraceBuffer::new();
    let span = buf.enter("sim.server");
    let mut fields = vec![
        ("server", Value::from(report.server)),
        ("total", Value::U64(report.total_requests)),
        ("measured", Value::U64(report.measured_requests)),
        ("local", Value::U64(report.local_requests)),
        ("cache_hits", Value::U64(report.cache_hits)),
        ("replica_hits", Value::U64(report.replica_hits)),
        ("delayed_hits", Value::U64(report.delayed_hits)),
        ("origin_fetches", Value::U64(report.origin_fetches)),
        ("peer_fetches", Value::U64(report.peer_fetches)),
        ("failover_fetches", Value::U64(report.failover_fetches)),
        ("failed", Value::U64(report.failed_requests)),
        ("histogram_fills", Value::U64(report.histogram.count())),
    ];
    if let Some(obs) = &report.obs {
        fields.push(("cache_evictions", Value::U64(obs.cache.evictions)));
        fields.push(("cache_insertions", Value::U64(obs.cache.insertions)));
        fields.push(("cache_rejections", Value::U64(obs.cache.rejections)));
    }
    buf.event("sim.server", fields);
    if let Some(obs) = &report.obs {
        for (site, t) in obs.per_site.iter().enumerate() {
            if t.requests() == 0 {
                continue;
            }
            let c = &t.cause;
            buf.event(
                "sim.site",
                vec![
                    ("site", Value::from(site)),
                    ("local_hits", Value::U64(t.local_requests())),
                    ("delayed_hits", Value::U64(c.delayed_hit.requests)),
                    (
                        "remote_fetches",
                        Value::U64(c.remote_replica.requests + c.origin_fetch.requests),
                    ),
                    ("failovers", Value::U64(c.failover.requests)),
                    ("failed", Value::U64(c.failed.requests)),
                ],
            );
        }
    }
    buf.exit(span);
    buf
}

/// Flush counters and the (fixed-order) trace after the parallel fan-out.
fn emit_observability(
    report: &SimReport,
    cache: &CacheStats,
    lane: Option<TraceBuffer>,
    schedule: Option<&FaultSchedule>,
) {
    if !telemetry::enabled() {
        return;
    }
    let reg = telemetry::registry();
    reg.counter("sim.requests_total").add(report.total_requests);
    reg.counter("sim.requests_measured")
        .add(report.measured_requests);
    reg.counter("sim.local_requests").add(report.local_requests);
    reg.counter("sim.cache_hits").add(report.cache_hits);
    reg.counter("sim.replica_hits").add(report.replica_hits);
    reg.counter("sim.origin_fetches").add(report.origin_fetches);
    reg.counter("sim.peer_fetches").add(report.peer_fetches);
    reg.counter("sim.failover_fetches")
        .add(report.failover_fetches);
    reg.counter("sim.failed_requests")
        .add(report.failed_requests);
    reg.counter("sim.histogram_fills")
        .add(report.histogram.count() + report.failover_histogram.count());
    reg.counter("sim.cache_evictions").add(cache.evictions);
    reg.counter("sim.cache_insertions").add(cache.insertions);
    reg.counter("sim.cache_rejections").add(cache.rejections);
    // Per-server mean latency distribution (integer bin counts, so the
    // fill order does not matter).
    let latency_hist = reg.histogram("sim.server_mean_latency_ms", 5.0, 400);
    for s in &report.per_server {
        latency_hist.record(s.mean_latency_ms);
    }
    // Cause attribution: request counts plus latency totals in integer
    // microseconds, so accumulation across several sim runs stays exact.
    // Per-cause counts sum to `sim.requests_measured`; `cdn report`
    // renders the table from these.
    for c in Cause::ALL {
        let lat = report.cause.get(c);
        reg.counter(&format!("sim.cause.{}", c.label()))
            .add(lat.requests);
        reg.counter(&format!("sim.cause.{}_latency_us", c.label()))
            .add(lat.latency_us);
    }
    reg.counter("sim.cause.failover_surcharge_us")
        .add(report.cause.failover_surcharge_us);
    // Whole-run per-request latency distribution (1 ms bins, 4 s range +
    // overflow), recorded bin by bin from the merged histogram.
    let hist = &report.histogram;
    let bins = hist.bin_counts();
    let request_hist = reg.histogram("sim.latency_ms", hist.bin_ms(), bins.len());
    for (i, &n) in bins.iter().enumerate() {
        if n > 0 {
            request_hist.record_n((i as f64 + 0.5) * hist.bin_ms(), n);
        }
    }
    let overflow = hist.overflow_count();
    if overflow > 0 {
        request_hist.record_n(f64::MAX, overflow);
    }
    if let Some(s) = schedule {
        let server_windows: usize = (0..s.n_servers()).map(|i| s.server_windows(i).len()).sum();
        reg.counter("fault.server_down_windows")
            .add(server_windows as u64);
        reg.counter("fault.origin_down_windows")
            .add(s.origin_windows().len() as u64);
    }

    telemetry::with_trace(|t| {
        let span = t.enter("sim.system");
        if let Some(s) = schedule {
            for server in 0..s.n_servers() {
                for &(start, end) in s.server_windows(server) {
                    t.event(
                        "fault.server_down",
                        vec![
                            ("server", Value::from(server)),
                            ("start", Value::U64(start)),
                            ("end", Value::U64(end)),
                        ],
                    );
                }
            }
            for &(start, end) in s.origin_windows() {
                t.event(
                    "fault.origin_down",
                    vec![("start", Value::U64(start)), ("end", Value::U64(end))],
                );
            }
        }
        // The lane spliced in every server's buffer in server order, which
        // is record-identical to merging each one here directly.
        if let Some(lane) = lane {
            t.merge(lane);
        }
        t.exit(span);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::HOP_DELAY_US;
    use cdn_workload::{DemandMatrix, LambdaMode, WorkloadConfig};

    /// A small but fully wired scenario: real catalog/demand/trace over a
    /// hand-made metric.
    fn scenario(lambda: f64, mode: LambdaMode) -> (PlacementProblem, SiteCatalog, TraceSpec) {
        let mut cfg = WorkloadConfig::small();
        cfg.m_sites = 6;
        cfg.objects_per_site = 40;
        cfg.base_requests = 3_000;
        let catalog = SiteCatalog::generate(&cfg, 42);
        let n = 3;
        let demand = DemandMatrix::generate(&catalog, n, 43);
        let dist_ss = vec![0, 2, 4, 2, 0, 2, 4, 2, 0];
        let mut dist_sp = vec![0u32; n * cfg.m_sites];
        for i in 0..n {
            for j in 0..cfg.m_sites {
                dist_sp[i * cfg.m_sites + j] = 8 + (i as u32) + (j as u32 % 2);
            }
        }
        let site_bytes: Vec<u64> = catalog.sites.iter().map(|s| s.total_bytes).collect();
        // A third of the corpus per server: with 6 roughly equal sites this
        // fits ~2 replicas per server while leaving cache head-room.
        let capacity = catalog.total_bytes() / 3;
        let raw: Vec<u64> = (0..n)
            .flat_map(|i| (0..cfg.m_sites).map(move |j| (i, j)))
            .map(|(i, j)| demand.requests(i, j))
            .collect();
        let problem = PlacementProblem::new(
            n,
            cfg.m_sites,
            dist_ss,
            dist_sp,
            site_bytes,
            vec![capacity; n],
            raw,
            vec![lambda; cfg.m_sites],
            catalog.mean_request_bytes(),
            cfg.objects_per_site,
            cfg.theta,
        );
        let trace = TraceSpec::new(&demand, catalog.object_zipf.clone(), lambda, mode, 44);
        (problem, catalog, trace)
    }

    #[test]
    fn caching_beats_no_storage_at_all() {
        let (problem, catalog, trace) = scenario(0.0, LambdaMode::Uncacheable);
        let cfg = SimConfig::default();
        let caching = Placement::primaries_only(&problem);
        let report = simulate_system(&problem, &caching, &catalog, &trace, &cfg, None);
        assert!(report.cache_hits > 0);
        assert!(report.local_ratio() > 0.1, "local {}", report.local_ratio());
        // Mean latency must be below the worst case (primary fetch always).
        let worst = crate::metrics::us_to_ms(HOP_DELAY_US * (1 + 10));
        assert!(report.mean_latency_ms < worst);
    }

    #[test]
    fn replicas_reduce_latency_versus_nothing() {
        let (problem, catalog, trace) = scenario(0.0, LambdaMode::Uncacheable);
        let cfg = SimConfig::default();
        // Zero cache: compare primaries-only vs greedy replication.
        let no_cache: Option<&(dyn Fn(u64) -> Box<dyn Cache> + Sync)> =
            Some(&|_cap| Box::new(LruCache::new(0)) as Box<dyn Cache>);
        let base = simulate_system(
            &problem,
            &Placement::primaries_only(&problem),
            &catalog,
            &trace,
            &cfg,
            no_cache,
        );
        let greedy = cdn_placement::greedy_global(&problem).placement;
        let repl = simulate_system(&problem, &greedy, &catalog, &trace, &cfg, no_cache);
        assert!(repl.mean_latency_ms < base.mean_latency_ms);
        assert!(repl.replica_hits > 0);
        assert_eq!(repl.cache_hits, 0);
    }

    #[test]
    fn lambda_expired_increases_latency_of_pure_caching() {
        let (problem, catalog, trace0) = scenario(0.0, LambdaMode::Expired);
        let (_, _, trace10) = scenario(0.10, LambdaMode::Expired);
        let cfg = SimConfig::default();
        let pl = Placement::primaries_only(&problem);
        let clean = simulate_system(&problem, &pl, &catalog, &trace0, &cfg, None);
        let stale = simulate_system(&problem, &pl, &catalog, &trace10, &cfg, None);
        assert!(
            stale.mean_latency_ms > clean.mean_latency_ms,
            "stale {} <= clean {}",
            stale.mean_latency_ms,
            clean.mean_latency_ms
        );
    }

    #[test]
    fn report_identities() {
        let (problem, catalog, trace) = scenario(0.05, LambdaMode::Uncacheable);
        let cfg = SimConfig::default();
        let pl = Placement::primaries_only(&problem);
        let report = simulate_system(&problem, &pl, &catalog, &trace, &cfg, None);
        assert_eq!(report.total_requests, trace_len(&trace));
        assert!(report.measured_requests <= report.total_requests);
        assert_eq!(
            report.local_requests,
            report.cache_hits + report.replica_hits
        );
        assert_eq!(report.histogram.count(), report.measured_requests);
        // No replicas: replica hits impossible.
        assert_eq!(report.replica_hits, 0);
    }

    fn trace_len(trace: &TraceSpec) -> u64 {
        (0..trace.n_servers())
            .map(|i| trace.len_for_server(i))
            .sum()
    }

    #[test]
    fn byte_accounting_consistent() {
        let (problem, catalog, trace) = scenario(0.0, LambdaMode::Uncacheable);
        let cfg = SimConfig::default();
        let pl = Placement::primaries_only(&problem);
        let report = simulate_system(&problem, &pl, &catalog, &trace, &cfg, None);
        assert!(report.total_bytes > 0);
        assert!(report.origin_bytes <= report.total_bytes);
        let off = report.origin_offload_bytes();
        assert!((0.0..=1.0).contains(&off));
        // With no replicas every remote fetch is an origin fetch, so byte
        // offload equals the cache's byte hit share.
        assert!(report.origin_bytes > 0);
    }

    #[test]
    fn weak_consistency_outperforms_strong_under_staleness() {
        let (problem, catalog, trace) = scenario(0.15, LambdaMode::Expired);
        let strong_cfg = SimConfig::default();
        let weak_cfg = SimConfig {
            consistency: crate::plan::ConsistencyMode::Weak,
            ..Default::default()
        };
        let pl = Placement::primaries_only(&problem);
        let strong = simulate_system(&problem, &pl, &catalog, &trace, &strong_cfg, None);
        let weak = simulate_system(&problem, &pl, &catalog, &trace, &weak_cfg, None);
        assert!(
            weak.mean_latency_ms < strong.mean_latency_ms,
            "weak {} >= strong {}",
            weak.mean_latency_ms,
            strong.mean_latency_ms
        );
        // Weak consistency turns refreshes into local hits.
        assert!(weak.cache_hits > strong.cache_hits);
    }

    #[test]
    fn per_server_summaries_sum_to_totals() {
        let (problem, catalog, trace) = scenario(0.0, LambdaMode::Uncacheable);
        let cfg = SimConfig::default();
        let pl = Placement::primaries_only(&problem);
        let report = simulate_system(&problem, &pl, &catalog, &trace, &cfg, None);
        assert_eq!(report.per_server.len(), problem.n_servers());
        let sum: u64 = report.per_server.iter().map(|s| s.measured_requests).sum();
        assert_eq!(sum, report.measured_requests);
        let origin: u64 = report.per_server.iter().map(|s| s.origin_fetches).sum();
        assert_eq!(origin, report.origin_fetches);
        assert!(report.load_imbalance() >= 1.0);
        // Servers are ordered by id.
        for (i, s) in report.per_server.iter().enumerate() {
            assert_eq!(s.server, i);
        }
    }

    #[test]
    fn drifting_stream_degrades_pure_caching() {
        use cdn_workload::{DriftConfig, Drifted};
        let (problem, catalog, trace) = scenario(0.0, LambdaMode::Uncacheable);
        let cfg = SimConfig::default();
        let pl = Placement::primaries_only(&problem);
        let lengths: Vec<u64> = (0..trace.n_servers())
            .map(|i| trace.len_for_server(i))
            .collect();
        let l = catalog.object_zipf.n() as u32;
        let stationary = simulate_system(&problem, &pl, &catalog, &trace, &cfg, None);
        let fast_drift =
            simulate_system_streams(&problem, &pl, &catalog, &cfg, None, &lengths, |server| {
                Drifted::new(
                    trace.stream_for_server(server),
                    DriftConfig {
                        rotation_period: 50,
                        objects_per_site: l,
                    },
                )
            });
        assert!(
            fast_drift.cache_hits < stationary.cache_hits,
            "drift {} >= stationary {}",
            fast_drift.cache_hits,
            stationary.cache_hits
        );
        assert!(fast_drift.mean_latency_ms > stationary.mean_latency_ms);
    }

    #[test]
    fn deterministic_end_to_end() {
        let (problem, catalog, trace) = scenario(0.1, LambdaMode::Expired);
        let cfg = SimConfig::default();
        let pl = cdn_placement::greedy_global(&problem).placement;
        let a = simulate_system(&problem, &pl, &catalog, &trace, &cfg, None);
        let b = simulate_system(&problem, &pl, &catalog, &trace, &cfg, None);
        assert_eq!(a.mean_latency_ms, b.mean_latency_ms);
        assert_eq!(a.cache_hits, b.cache_hits);
        assert_eq!(a.cost_hops_identity(), b.cost_hops_identity());
        // Thread-count invariance: the per-server fan-out must produce
        // bit-identical reports on one thread and on several.
        let pool = |n| {
            rayon::ThreadPoolBuilder::new()
                .num_threads(n)
                .build()
                .unwrap()
        };
        let one = pool(1).install(|| simulate_system(&problem, &pl, &catalog, &trace, &cfg, None));
        let four = pool(4).install(|| simulate_system(&problem, &pl, &catalog, &trace, &cfg, None));
        assert_eq!(a, one);
        assert_eq!(one, four);
    }

    impl SimReport {
        fn cost_hops_identity(&self) -> u64 {
            (self.mean_cost_hops * self.measured_requests as f64).round() as u64
        }
    }

    use crate::fault::FaultParams;

    fn faulty_params() -> FaultParams {
        FaultParams {
            mttf: 400.0,
            mttr: 150.0,
            origin_outage: 0.25,
            retry_penalty_ms: 150.0,
            seed: 5,
        }
    }

    #[test]
    fn shard_count_does_not_change_a_single_bit() {
        // The core contract of the sharded runner: explicit shard counts of
        // 1/2/4/8 (and the default) all produce byte-identical reports —
        // histograms, float means, cause breakdown, samples, per-server
        // summaries — with faults and sampling active.
        let (problem, catalog, trace) = scenario(0.1, LambdaMode::Expired);
        let pl = cdn_placement::greedy_global(&problem).placement;
        let run = |shards: Option<usize>| {
            let cfg = SimConfig {
                faults: Some(faulty_params()),
                sample_every: 7,
                window: 64,
                shards,
                ..Default::default()
            };
            simulate_system(&problem, &pl, &catalog, &trace, &cfg, None)
        };
        let default = run(None);
        assert!(default.failover_fetches > 0, "faults never fired");
        assert!(!default.samples.is_empty());
        for shards in [1, 2, 4, 8] {
            let sharded = run(Some(shards));
            assert_eq!(default, sharded);
        }
        // And across thread counts at a fixed shard count.
        let pool = |n: usize| {
            rayon::ThreadPoolBuilder::new()
                .num_threads(n)
                .build()
                .unwrap()
        };
        let one = pool(1).install(|| run(Some(2)));
        let four = pool(4).install(|| run(Some(2)));
        assert_eq!(one, four);
        assert_eq!(default, one);
    }

    #[test]
    fn zero_fault_config_is_bit_identical_to_fault_free() {
        // The regression guard for the fault layer: enabling fault
        // injection with parameters that can never fire must not perturb a
        // single bit of the report.
        let (problem, catalog, trace) = scenario(0.1, LambdaMode::Expired);
        let pl = cdn_placement::greedy_global(&problem).placement;
        let plain = SimConfig::default();
        let zero_fault = SimConfig {
            faults: Some(FaultParams {
                seed: 123,
                retry_penalty_ms: 500.0, // multiplied by 0 skips: no effect
                ..Default::default()
            }),
            ..Default::default()
        };
        assert!(zero_fault.faults.unwrap().is_zero_fault());
        let a = simulate_system(&problem, &pl, &catalog, &trace, &plain, None);
        let b = simulate_system(&problem, &pl, &catalog, &trace, &zero_fault, None);
        assert_eq!(a, b);
    }

    #[test]
    fn deterministic_under_faults() {
        let (problem, catalog, trace) = scenario(0.1, LambdaMode::Expired);
        let cfg = SimConfig {
            faults: Some(faulty_params()),
            ..Default::default()
        };
        let pl = cdn_placement::greedy_global(&problem).placement;
        let a = simulate_system(&problem, &pl, &catalog, &trace, &cfg, None);
        let b = simulate_system(&problem, &pl, &catalog, &trace, &cfg, None);
        assert!(
            a.failed_requests > 0 || a.failover_fetches > 0,
            "faults never fired"
        );
        assert_eq!(a, b);
        // The precomputed fault schedule keeps multi-threaded runs
        // bit-identical too.
        let four = rayon::ThreadPoolBuilder::new()
            .num_threads(4)
            .build()
            .unwrap()
            .install(|| simulate_system(&problem, &pl, &catalog, &trace, &cfg, None));
        assert_eq!(a, four);
    }

    #[test]
    fn fault_accounting_identities() {
        let (problem, catalog, trace) = scenario(0.05, LambdaMode::Uncacheable);
        let cfg = SimConfig {
            faults: Some(faulty_params()),
            ..Default::default()
        };
        let pl = cdn_placement::greedy_global(&problem).placement;
        let report = simulate_system(&problem, &pl, &catalog, &trace, &cfg, None);
        // Every measured request lands in exactly one bucket.
        assert_eq!(
            report.local_requests
                + report.delayed_hits
                + report.failover_fetches
                + report.origin_fetches
                + report.peer_fetches
                + report.failed_requests,
            report.measured_requests,
        );
        // Failed requests record no latency; failover fetches all do.
        assert_eq!(
            report.histogram.count(),
            report.measured_requests - report.failed_requests
        );
        assert_eq!(report.failover_histogram.count(), report.failover_fetches);
        assert!(
            report.failover_fetches > 0,
            "server faults never forced a failover"
        );
        let avail = report.availability();
        assert!((0.0..=1.0).contains(&avail));
        let failed: u64 = report.per_server.iter().map(|s| s.failed_requests).sum();
        assert_eq!(failed, report.failed_requests);
    }

    #[test]
    fn replication_survives_faults_better_than_pure_caching() {
        // Under origin outages plus server crashes, replicated copies keep
        // serving while pure caching must reach unreachable origins on
        // every miss — availability separates them strictly.
        let (problem, catalog, trace) = scenario(0.0, LambdaMode::Uncacheable);
        let cfg = SimConfig {
            faults: Some(faulty_params()),
            ..Default::default()
        };
        let caching = simulate_system(
            &problem,
            &Placement::primaries_only(&problem),
            &catalog,
            &trace,
            &cfg,
            None,
        );
        let greedy = cdn_placement::greedy_global(&problem).placement;
        let replicated = simulate_system(&problem, &greedy, &catalog, &trace, &cfg, None);
        assert!(
            caching.failed_requests > 0,
            "origin outages must drop requests"
        );
        assert!(
            replicated.availability() > caching.availability(),
            "replication {} <= caching {}",
            replicated.availability(),
            caching.availability()
        );
    }

    #[test]
    fn cause_attribution_matches_report_buckets() {
        let (problem, catalog, trace) = scenario(0.1, LambdaMode::Expired);
        let cfg = SimConfig {
            faults: Some(faulty_params()),
            ..Default::default()
        };
        let pl = cdn_placement::greedy_global(&problem).placement;
        let report = simulate_system(&problem, &pl, &catalog, &trace, &cfg, None);
        // Every per-cause request count equals its SimReport bucket...
        assert_eq!(report.cause.replica_hit.requests, report.replica_hits);
        assert_eq!(report.cause.cache_hit.requests, report.cache_hits);
        assert_eq!(report.cause.delayed_hit.requests, report.delayed_hits);
        assert_eq!(report.cause.remote_replica.requests, report.peer_fetches);
        assert_eq!(report.cause.origin_fetch.requests, report.origin_fetches);
        assert_eq!(report.cause.failover.requests, report.failover_fetches);
        assert_eq!(report.cause.failed.requests, report.failed_requests);
        // ...and together they cover every measured request exactly once.
        assert_eq!(report.cause.total_requests(), report.measured_requests);
        // Attributed latency reconciles with the histogram (failed
        // requests contribute zero to both).
        assert_eq!(report.cause.total_latency_us(), report.histogram.sum_us());
        // The failover surcharge is a strict part of failover latency.
        assert!(report.cause.failover_surcharge_us > 0);
        assert!(report.cause.failover_surcharge_us < report.cause.failover.latency_us);
        // Local hits pay exactly one hop each.
        assert_eq!(
            report.cause.replica_hit.latency_us,
            HOP_DELAY_US * report.replica_hits
        );
    }

    #[test]
    fn sampler_is_deterministic_and_non_perturbing() {
        let (problem, catalog, trace) = scenario(0.1, LambdaMode::Expired);
        let pl = cdn_placement::greedy_global(&problem).placement;
        let plain = SimConfig {
            faults: Some(faulty_params()),
            ..Default::default()
        };
        let sampled_cfg = SimConfig {
            sample_every: 7,
            ..plain
        };
        let base = simulate_system(&problem, &pl, &catalog, &trace, &plain, None);
        let sampled = simulate_system(&problem, &pl, &catalog, &trace, &sampled_cfg, None);
        // Sampling observes; it must not change any measured quantity.
        assert!(base.samples.is_empty());
        assert_eq!(
            base.mean_latency_ms.to_bits(),
            sampled.mean_latency_ms.to_bits()
        );
        assert_eq!(base.cache_hits, sampled.cache_hits);
        assert_eq!(base.failed_requests, sampled.failed_requests);
        assert_eq!(base.cause, sampled.cause);
        // 1-in-7 of measured requests per server, keyed on stream index.
        assert!(!sampled.samples.is_empty());
        let expected: usize = (0..trace.n_servers())
            .map(|i| {
                let len = trace.len_for_server(i);
                let warmup = (len as f64 * sampled_cfg.warmup_fraction) as u64;
                (warmup..len).filter(|t| t % 7 == 0).count()
            })
            .sum();
        assert_eq!(sampled.samples.len(), expected);
        for s in &sampled.samples {
            assert_eq!(s.index % 7, 0);
        }
        // Samples arrive in (server, stream index) order.
        for w in sampled.samples.windows(2) {
            assert!(
                (w[0].server, w[0].index) < (w[1].server, w[1].index),
                "samples out of order"
            );
        }
        // Reproducible across thread counts, faults and all.
        let pool = |n: usize| {
            rayon::ThreadPoolBuilder::new()
                .num_threads(n)
                .build()
                .unwrap()
        };
        let one = pool(1)
            .install(|| simulate_system(&problem, &pl, &catalog, &trace, &sampled_cfg, None));
        let four = pool(4)
            .install(|| simulate_system(&problem, &pl, &catalog, &trace, &sampled_cfg, None));
        assert_eq!(one.samples, sampled.samples);
        assert_eq!(four.samples, sampled.samples);
        assert_eq!(one, four);
    }

    #[test]
    fn timeline_is_observational_and_sums_to_run_level() {
        let (problem, catalog, trace) = scenario(0.1, LambdaMode::Expired);
        let pl = cdn_placement::greedy_global(&problem).placement;
        let plain = SimConfig {
            faults: Some(faulty_params()),
            ..Default::default()
        };
        let windowed_cfg = SimConfig {
            window: 128,
            ..plain
        };
        let base = simulate_system(&problem, &pl, &catalog, &trace, &plain, None);
        let windowed = simulate_system(&problem, &pl, &catalog, &trace, &windowed_cfg, None);
        // Observational: enabling the timeline changes no other field.
        assert!(base.timeline.is_none());
        let unwindowed = SimReport {
            timeline: None,
            ..windowed.clone()
        };
        assert_eq!(unwindowed, base);
        // Windowed tallies sum to the run-level counters exactly, both
        // globally and per server.
        let tl = windowed.timeline.as_ref().expect("timeline enabled");
        assert_eq!(tl.width, 128);
        assert!(tl.windows.len() > 1, "scenario too small to window");
        let mut sum = Tally::default();
        let mut latency = LatencyHistogram::default();
        for (_, w) in &tl.windows {
            sum.merge(&w.tally);
            latency.merge(&w.latency);
        }
        assert_eq!(sum.cause, windowed.cause);
        assert_eq!(sum.requests(), windowed.measured_requests);
        assert_eq!(sum.local_requests(), windowed.local_requests);
        assert_eq!(sum.total_bytes, windowed.total_bytes);
        assert_eq!(sum.origin_bytes, windowed.origin_bytes);
        assert_eq!(latency, windowed.histogram);
        assert_eq!(tl.per_server.len(), problem.n_servers());
        for (i, st) in tl.per_server.iter().enumerate() {
            assert_eq!(st.server, i);
            let measured: u64 = st.windows.iter().map(|(_, w)| w.tally.requests()).sum();
            assert_eq!(measured, windowed.per_server[i].measured_requests);
        }
        // Every recorded window attributes a hottest site.
        assert!(tl.windows.iter().all(|(_, w)| w.top_site.is_some()));
        // Window quantiles are exact order statistics: ordered, and never
        // above the window's max.
        for (id, w) in &tl.windows {
            let [p50, p90, p99] = [0.50, 0.90, 0.99].map(|q| w.quantile_ms(q));
            assert!(
                p50 <= p90 && p90 <= p99 && p99 <= w.max_ms(),
                "window {id}: p50 {p50}, p90 {p90}, p99 {p99}, max {}",
                w.max_ms()
            );
        }
    }

    #[test]
    fn fetch_latency_zero_is_bit_identical_to_instant_fetch() {
        // Delayed-hit differential oracle: `fetch_latency` of `None` and
        // `Some(0)` must both run the instant-fetch path bit for bit.
        let (problem, catalog, trace) = scenario(0.1, LambdaMode::Expired);
        let pl = cdn_placement::greedy_global(&problem).placement;
        let run = |fetch_latency, shards| {
            let cfg = SimConfig {
                fetch_latency,
                sample_every: 7,
                window: 128,
                shards,
                ..Default::default()
            };
            simulate_system(&problem, &pl, &catalog, &trace, &cfg, None)
        };
        let off = run(None, None);
        let zero = run(Some(0), None);
        assert_eq!(off.delayed_hits, 0);
        assert_eq!(off, zero);

        // Positive latency: requests coalesce, yet every identity holds.
        let delayed = run(Some(64), None);
        assert!(delayed.delayed_hits > 0, "no request ever coalesced");
        assert_eq!(delayed.cause.delayed_hit.requests, delayed.delayed_hits);
        assert_eq!(delayed.cause.total_requests(), delayed.measured_requests);
        assert_eq!(
            delayed.local_requests
                + delayed.delayed_hits
                + delayed.origin_fetches
                + delayed.peer_fetches
                + delayed.failover_fetches
                + delayed.failed_requests,
            delayed.measured_requests
        );
        assert_eq!(
            delayed.local_requests,
            delayed.cache_hits + delayed.replica_hits,
            "delayed hits must stay out of the local buckets"
        );
        // Coalesced fetches travel no hops of their own.
        assert!(delayed.cost_hops_identity() < off.cost_hops_identity());
        // The windows count the delayed hits the run does.
        let tl = delayed.timeline.as_ref().unwrap();
        let win_delayed: u64 = tl
            .windows
            .iter()
            .map(|(_, w)| w.tally.cause.delayed_hit.requests)
            .sum();
        assert_eq!(win_delayed, delayed.delayed_hits);
        // Byte-identical at any shard count and thread count, feature on.
        for shards in [1, 2, 4, 8] {
            assert_eq!(delayed, run(Some(64), Some(shards)));
        }
        let pool = |n: usize| {
            rayon::ThreadPoolBuilder::new()
                .num_threads(n)
                .build()
                .unwrap()
        };
        let one = pool(1).install(|| run(Some(64), Some(2)));
        let four = pool(4).install(|| run(Some(64), Some(2)));
        assert_eq!(one, four);
        assert_eq!(delayed, one);
    }

    #[test]
    fn retry_penalty_inflates_failover_latency() {
        let (problem, catalog, trace) = scenario(0.0, LambdaMode::Uncacheable);
        let pl = cdn_placement::greedy_global(&problem).placement;
        let run = |penalty: f64| {
            let cfg = SimConfig {
                faults: Some(FaultParams {
                    retry_penalty_ms: penalty,
                    ..faulty_params()
                }),
                ..Default::default()
            };
            simulate_system(&problem, &pl, &catalog, &trace, &cfg, None)
        };
        let cheap = run(0.0);
        let dear = run(400.0);
        // Same schedule (same seed): identical routing, dearer retries.
        assert_eq!(cheap.failover_fetches, dear.failover_fetches);
        assert!(cheap.failover_fetches > 0);
        assert!(
            dear.failover_histogram.mean() > cheap.failover_histogram.mean() + 399.0,
            "penalty not reflected: {} vs {}",
            dear.failover_histogram.mean(),
            cheap.failover_histogram.mean()
        );
    }
}
