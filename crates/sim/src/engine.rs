//! The per-server request loop.

use crate::fault::FaultSchedule;
use crate::metrics::{us_to_ms, Cause, LatencyHistogram, Outcome, RequestSample, Tally};
use crate::plan::{ConsistencyMode, ServerPlan, SimConfig, HOP_DELAY_US};
use crate::timeline::{ServerTimeline, TimelineAcc};
use cdn_cache::{Cache, CacheStats, FxHashMap, ObjectKey};
use cdn_telemetry as telemetry;
use cdn_workload::{Flavor, Request};

/// In-flight fetch state for delayed-hit coalescing: the configured fetch
/// latency plus a map of object -> (tick the fetch completes, fetch hops).
type InflightTable = (u64, FxHashMap<ObjectKey, (u64, u32)>);

/// Per-site tallies over one server's *measured* requests, gathered only
/// when telemetry is enabled. Everything here is deterministic: the
/// request stream, routing, and fault schedule are all seed-derived.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SiteObs {
    /// Served locally: a replica hit or a cache hit.
    pub local_hits: u64,
    /// Coalesced onto a pending fetch of the same object; kept out of
    /// `local_hits`, as the run, server and window buckets keep them.
    pub delayed_hits: u64,
    /// Travelled to a holder with no dead copies skipped.
    pub remote_fetches: u64,
    /// Travelled to a holder after skipping at least one dead copy.
    pub failovers: u64,
    /// No live copy existed anywhere.
    pub failed: u64,
}

impl SiteObs {
    fn record(&mut self, cause: Cause) {
        match cause {
            Cause::ReplicaHit | Cause::CacheHit => self.local_hits += 1,
            Cause::DelayedHit => self.delayed_hits += 1,
            Cause::RemoteReplica | Cause::OriginFetch => self.remote_fetches += 1,
            Cause::Failover => self.failovers += 1,
            Cause::Failed => self.failed += 1,
        }
    }
}

/// Deterministic per-server observability: per-site tallies plus a
/// whole-stream (warm-up included) snapshot of the cache's own counters —
/// the eviction/insertion/rejection totals the trace reports.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineObs {
    pub per_site: Vec<SiteObs>,
    pub cache: CacheStats,
}

/// Per-server simulation outcome. The request buckets, `measured_requests`
/// and the byte counts are read off `tally` once, when the server finishes.
#[derive(Debug, PartialEq)]
pub struct ServerReport {
    pub server: usize,
    pub histogram: LatencyHistogram,
    pub total_requests: u64,
    /// Every measured request, counted once: per-cause requests and
    /// latency, hops travelled beyond the first hop, and bytes.
    pub tally: Tally,
    pub measured_requests: u64,
    pub local_requests: u64,
    pub cache_hits: u64,
    pub replica_hits: u64,
    /// Measured requests coalesced onto an in-flight fetch of the same
    /// object (delayed hits; zero unless [`SimConfig::fetch_latency`] is
    /// positive). Disjoint from every other bucket.
    pub delayed_hits: u64,
    /// Measured requests that travelled to a primary (origin) site.
    pub origin_fetches: u64,
    /// Measured requests served by another CDN server's replica.
    pub peer_fetches: u64,
    /// Measured remote fetches that skipped at least one dead holder
    /// before finding a live copy (disjoint from `origin_fetches` and
    /// `peer_fetches`).
    pub failover_fetches: u64,
    /// Measured requests for which no live copy existed anywhere.
    pub failed_requests: u64,
    /// Latency distribution of the failover fetches alone — the degraded
    /// tail that fault injection creates.
    pub failover_histogram: LatencyHistogram,
    /// Bytes of measured responses, total and the share fetched from
    /// origin — CDNs bill on egress, so byte-weighted offload matters as
    /// much as request-weighted.
    pub total_bytes: u64,
    pub origin_bytes: u64,
    /// Telemetry tallies; `None` when telemetry is disabled.
    pub obs: Option<EngineObs>,
    /// 1-in-N sampled request paths (empty unless
    /// [`SimConfig::sample_every`] is positive), in stream order.
    pub samples: Vec<RequestSample>,
    /// Windowed timeline of this server's measured requests (`None` unless
    /// [`SimConfig::window`] is a positive width). Purely observational:
    /// enabling it never perturbs any other report field.
    pub timeline: Option<ServerTimeline>,
}

/// Price one measured request and name its cause. A failed request
/// delivers nothing, so it is attributed zero latency. A coalesced request
/// (`delayed_fetch` holds the pending fetch's hops) rides that fetch: it
/// pays the fetch's transfer delay and no retry penalty of its own.
/// Anything else pays its hops plus one retry penalty per dead holder
/// skipped.
fn price(
    routed: &Routed,
    delayed_fetch: Option<u32>,
    bytes: u64,
    retry_penalty_us: u64,
) -> Outcome {
    let hop_latency_us = |hops: u32| HOP_DELAY_US * (1 + u64::from(hops));
    let (cause, latency_us, penalty_us) = match (routed.resolution, delayed_fetch) {
        (Resolution::Failed, _) => (Cause::Failed, 0, 0),
        (_, Some(fetch_hops)) => (Cause::DelayedHit, hop_latency_us(fetch_hops), 0),
        (resolution, None) => {
            let cause = match resolution {
                Resolution::Replica => Cause::ReplicaHit,
                Resolution::CacheHit => Cause::CacheHit,
                _ if routed.dead_skipped > 0 => Cause::Failover,
                _ if routed.from_origin => Cause::OriginFetch,
                _ => Cause::RemoteReplica,
            };
            let penalty_us = retry_penalty_us * u64::from(routed.dead_skipped);
            (cause, hop_latency_us(routed.hops) + penalty_us, penalty_us)
        }
    };
    Outcome {
        cause,
        latency_us,
        penalty_us,
        hops: routed.hops,
        bytes,
        from_origin: routed.from_origin,
    }
}

/// How a single request was resolved (exposed for fine-grained tests).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Resolution {
    /// Site replicated at the first-hop server.
    Replica,
    /// Fresh cache hit at the first-hop server.
    CacheHit,
    /// Cache hit on an expired object: refresh from the nearest copy.
    CacheRefresh,
    /// Cache miss: fetch from the nearest copy (and admit).
    CacheMiss,
    /// Uncacheable: fetch from the nearest copy, bypassing the cache.
    Bypass,
    /// No live copy anywhere: the request was dropped.
    Failed,
}

/// Outcome of resolving one request (see [`resolve`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Routed {
    pub resolution: Resolution,
    /// Hops to the holder that served the request (0 for local service or
    /// failure).
    pub hops: u32,
    /// Dead holders (and/or a dead first-hop server) skipped before the
    /// request completed — each one costs a retry penalty.
    pub dead_skipped: u32,
    /// The serving holder was the primary (origin) site. Only meaningful
    /// for remote resolutions.
    pub from_origin: bool,
}

/// Walk `plan.holders[site]` from `start_rank`, skipping dead holders.
/// Returns `(hops, from_origin, dead_skipped)` of the first live copy, or
/// `None` when every holder is down.
#[inline]
fn first_live_holder(
    plan: &ServerPlan,
    site: usize,
    schedule: &FaultSchedule,
    tick: u64,
    start_rank: usize,
    mut dead: u32,
) -> Option<(u32, bool, u32)> {
    for h in &plan.holders[site][start_rank..] {
        let alive = match h.server {
            None => !schedule.is_origin_down(tick),
            Some(k) => !schedule.is_server_down(k as usize, tick),
        };
        if alive {
            return Some((h.hops, h.server.is_none(), dead));
        }
        dead += 1;
    }
    None
}

/// Resolve one request against a server's plan, cache and fault schedule.
/// A site replicated here is served locally; otherwise a fresh cache hit is,
/// and everything else is fetched from the nearest *live* copy along the
/// distance-ranked holder list, skipping crashed servers (and, possibly, an
/// unreachable origin). Under an empty schedule every holder is live, so
/// the nearest copy `holders[site][0]` always serves.
///
/// Semantics under faults:
/// * A down first-hop server serves nothing locally and its cache is not
///   touched (the contents survive the crash); the client retries against
///   the holder list directly, paying one skip for the dead first hop.
/// * A cache miss admits the object only if some live copy supplied it —
///   a [`Resolution::Failed`] request leaves the cache unchanged.
/// * Under [`ConsistencyMode::Strong`] an expired cache hit whose refresh
///   finds no live copy fails; under weak consistency the stale copy is
///   served locally without needing any holder.
pub fn resolve(
    plan: &ServerPlan,
    cache: &mut dyn Cache,
    req: Request,
    object_bytes: u64,
    consistency: ConsistencyMode,
    schedule: &FaultSchedule,
    tick: u64,
) -> Routed {
    let site = req.site as usize;
    let local = |resolution| Routed {
        resolution,
        hops: 0,
        dead_skipped: 0,
        from_origin: false,
    };
    let remote = |resolution, (hops, from_origin, dead_skipped)| Routed {
        resolution,
        hops,
        dead_skipped,
        from_origin,
    };
    let failed = |dead_skipped| Routed {
        resolution: Resolution::Failed,
        hops: 0,
        dead_skipped,
        from_origin: false,
    };

    if schedule.is_server_down(plan.server, tick) {
        // First-hop down: no replica, no cache. If this server replicates
        // the site it heads its own holder list — skip that dead entry;
        // otherwise the failed first-hop attempt itself costs one skip.
        let start_rank = usize::from(plan.replicated[site]);
        return match first_live_holder(plan, site, schedule, tick, start_rank, 1) {
            Some(found) => remote(Resolution::Bypass, found),
            None => failed(1 + (plan.holders[site].len() - start_rank) as u32),
        };
    }
    if plan.replicated[site] {
        // Replicas are kept consistent by the CDN; even expired-flagged
        // requests are served locally.
        return local(Resolution::Replica);
    }
    let fetch = |resolution| match first_live_holder(plan, site, schedule, tick, 0, 0) {
        Some(found) => remote(resolution, found),
        None => failed(plan.holders[site].len() as u32),
    };
    if req.flavor == Flavor::Uncacheable {
        return fetch(Resolution::Bypass);
    }
    let key = ObjectKey::new(req.site, req.object);
    if !cache.lookup(key) {
        let routed = fetch(Resolution::CacheMiss);
        if routed.resolution != Resolution::Failed {
            cache.insert(key, object_bytes);
        }
        return routed;
    }
    match (req.flavor, consistency) {
        // Strong: the stale copy must be refreshed from the nearest live
        // copy before being served.
        (Flavor::Expired, ConsistencyMode::Strong) => fetch(Resolution::CacheRefresh),
        // A fresh hit, or (weak) the possibly stale copy served locally.
        _ => local(Resolution::CacheHit),
    }
}

/// Run one server's full stream. `object_bytes(site, object)` supplies
/// sizes; `warmup` requests are processed but not measured. The cache is
/// used exactly as given — size it from `plan.cache_bytes` (as
/// [`crate::runner::simulate_system`] does) unless deliberately diverging,
/// e.g. to model a cache-less server.
///
/// `schedule` says which servers and origins are down when; `None` is the
/// empty schedule, in which nothing ever is. The tick passed to the
/// schedule is the request's index in this server's stream, counted from
/// the stream start (warm-up included). Every latency is accounted in
/// whole microseconds: `HOP_DELAY_US × (1 + hops)` plus one retry penalty
/// per dead holder skipped.
pub fn simulate_server_faulted<I>(
    plan: &ServerPlan,
    config: &SimConfig,
    requests: I,
    warmup: u64,
    object_bytes: impl Fn(u32, u32) -> u64,
    mut cache: Box<dyn Cache>,
    schedule: Option<&FaultSchedule>,
) -> ServerReport
where
    I: Iterator<Item = Request>,
{
    config.validate();
    let no_faults = FaultSchedule::default();
    let schedule = schedule.unwrap_or(&no_faults);
    let retry_penalty_us = config.faults.map_or(0, |f| f.retry_penalty_us());
    let mut histogram = LatencyHistogram::default();
    let mut failover_histogram = LatencyHistogram::default();
    let mut tally = Tally::default();
    let mut total_requests = 0u64;
    let mut samples = Vec::new();
    let mut timeline: Option<TimelineAcc> =
        (config.window > 0).then(|| TimelineAcc::new(config.window));
    // Per-site tallies: local to this server's loop, so plain (non-atomic)
    // counts; gated once per run on the global telemetry flag.
    let mut site_obs: Option<Vec<SiteObs>> =
        telemetry::enabled().then(|| vec![SiteObs::default(); plan.replicated.len()]);
    // In-flight fetch table for delayed-hit coalescing: object -> (tick
    // the pending fetch completes, hops that fetch travels). Allocated
    // only for a positive fetch latency; `None` and `Some(0)` take the
    // exact instant-fetch code path, bit for bit. The table is keyed on
    // the deterministic per-server stream tick, so it is byte-identical
    // at any thread or shard count, and entries are retired lazily when
    // the object is next touched. It hashes with the Fx hasher the LRU
    // cache uses on the same keys; the loop only gets, inserts and
    // removes, never iterates, so the hasher cannot move a result.
    let mut inflight: Option<InflightTable> = config
        .fetch_latency
        .filter(|&l| l > 0)
        .map(|l| (l, FxHashMap::default()));

    for req in requests {
        let tick = total_requests;
        if let Some(tl) = timeline.as_mut() {
            // Roll windows *before* resolution mutates the cache, so a
            // closing window's occupancy/eviction snapshots exclude this
            // request. Only measured ticks open windows: they form a
            // contiguous suffix of the stream, so the lazy close is exact.
            if tick >= warmup {
                tl.roll(tick, cache.as_ref());
            }
        }
        let bytes = object_bytes(req.site, req.object);
        let routed = resolve(
            plan,
            cache.as_mut(),
            req,
            bytes,
            config.consistency,
            schedule,
            tick,
        );
        // Delayed-hit coalescing: any request for an object whose fetch is
        // still in flight rides that fetch — whether the cache already
        // admitted the object (a hit before the fetch landed) or declined
        // or evicted it (a miss re-requesting a pending object). A miss on
        // a non-pending object starts a new fetch; touching an object whose
        // fetch completed retires the table entry.
        let delayed_fetch = match inflight.as_mut() {
            Some((fetch_ticks, table))
                if matches!(
                    routed.resolution,
                    Resolution::CacheHit | Resolution::CacheMiss
                ) =>
            {
                let key = ObjectKey::new(req.site, req.object);
                match table.get(&key) {
                    Some(&(ready, fetch_hops)) if tick < ready => Some(fetch_hops),
                    _ => {
                        if routed.resolution == Resolution::CacheMiss {
                            table.insert(key, (tick + *fetch_ticks, routed.hops));
                        } else {
                            table.remove(&key);
                        }
                        None
                    }
                }
            }
            _ => None,
        };
        total_requests += 1;
        if total_requests <= warmup {
            continue;
        }
        let outcome = price(&routed, delayed_fetch, bytes, retry_penalty_us);
        let cause = outcome.cause;
        tally.record(&outcome);
        if let Some(tl) = timeline.as_mut() {
            tl.record(req.site, &outcome);
        }
        if let Some(obs) = site_obs.as_mut() {
            obs[req.site as usize].record(cause);
        }
        if cause != Cause::Failed {
            histogram.record(outcome.latency_us);
        }
        if cause == Cause::Failover {
            failover_histogram.record(outcome.latency_us);
        }
        if config.sample_every > 0 && tick % config.sample_every == 0 {
            samples.push(RequestSample {
                server: plan.server,
                index: tick,
                site: req.site,
                object: req.object,
                flavor: req.flavor,
                resolution: routed.resolution,
                cause,
                hops: routed.hops,
                dead_skipped: routed.dead_skipped,
                // `Routed::from_origin` is only meaningful for remote
                // resolutions; mask it for local/coalesced/failed ones.
                from_origin: routed.from_origin
                    && !matches!(
                        cause,
                        Cause::ReplicaHit | Cause::CacheHit | Cause::DelayedHit | Cause::Failed
                    ),
                latency_ms: us_to_ms(outcome.latency_us),
                penalty_ms: us_to_ms(outcome.penalty_us),
            });
        }
    }
    let c = &tally.cause;
    ServerReport {
        server: plan.server,
        histogram,
        total_requests,
        measured_requests: tally.requests(),
        local_requests: tally.local_requests(),
        cache_hits: c.cache_hit.requests,
        replica_hits: c.replica_hit.requests,
        delayed_hits: c.delayed_hit.requests,
        origin_fetches: c.origin_fetch.requests,
        peer_fetches: c.remote_replica.requests,
        failover_fetches: c.failover.requests,
        failed_requests: c.failed.requests,
        failover_histogram,
        total_bytes: tally.total_bytes,
        origin_bytes: tally.origin_bytes,
        tally,
        obs: site_obs.map(|per_site| EngineObs {
            per_site,
            cache: *cache.stats(),
        }),
        samples,
        timeline: timeline.map(|tl| tl.finish(plan.server, cache.as_ref())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultParams;
    use crate::plan::{ConsistencyMode as CM, Holder};
    use cdn_cache::LruCache as Lru;

    /// Minimal holder lists: the local replica when replicated, otherwise
    /// the primary `nearest[j]` hops away.
    fn plan(replicated: Vec<bool>, nearest: Vec<u32>, cache_bytes: u64) -> ServerPlan {
        let holders = replicated
            .iter()
            .zip(&nearest)
            .map(|(&r, &h)| {
                if r {
                    vec![Holder {
                        server: Some(0),
                        hops: 0,
                    }]
                } else {
                    vec![Holder {
                        server: None,
                        hops: h,
                    }]
                }
            })
            .collect();
        ServerPlan {
            server: 0,
            replicated,
            holders,
            cache_bytes,
        }
    }

    /// [`resolve`] at tick 0 under the empty schedule, where nothing is
    /// ever down: the resolution and the hops travelled.
    fn resolve_up(
        p: &ServerPlan,
        cache: &mut dyn Cache,
        r: Request,
        consistency: CM,
    ) -> (Resolution, u32) {
        let routed = resolve(p, cache, r, 10, consistency, &FaultSchedule::default(), 0);
        (routed.resolution, routed.hops)
    }

    fn req(site: u32, object: u32, flavor: Flavor) -> Request {
        Request {
            site,
            object,
            flavor,
        }
    }

    #[test]
    fn replica_requests_are_free() {
        let p = plan(vec![true], vec![0], 100);
        let mut cache = Lru::new(100);
        let (res, hops) = resolve_up(&p, &mut cache, req(0, 5, Flavor::Normal), CM::Strong);
        assert_eq!(res, Resolution::Replica);
        assert_eq!(hops, 0);
        // Even expired requests are local on replicas.
        let (res, hops) = resolve_up(&p, &mut cache, req(0, 5, Flavor::Expired), CM::Strong);
        assert_eq!(res, Resolution::Replica);
        assert_eq!(hops, 0);
    }

    #[test]
    fn miss_then_hit_sequence() {
        let p = plan(vec![false], vec![7], 100);
        let mut cache = Lru::new(100);
        let (res, hops) = resolve_up(&p, &mut cache, req(0, 1, Flavor::Normal), CM::Strong);
        assert_eq!((res, hops), (Resolution::CacheMiss, 7));
        let (res, hops) = resolve_up(&p, &mut cache, req(0, 1, Flavor::Normal), CM::Strong);
        assert_eq!((res, hops), (Resolution::CacheHit, 0));
    }

    #[test]
    fn expired_hit_pays_refresh() {
        let p = plan(vec![false], vec![4], 100);
        let mut cache = Lru::new(100);
        resolve_up(&p, &mut cache, req(0, 1, Flavor::Normal), CM::Strong);
        let (res, hops) = resolve_up(&p, &mut cache, req(0, 1, Flavor::Expired), CM::Strong);
        assert_eq!((res, hops), (Resolution::CacheRefresh, 4));
        // Refresh keeps the object cached: the next normal access hits.
        let (res, _) = resolve_up(&p, &mut cache, req(0, 1, Flavor::Normal), CM::Strong);
        assert_eq!(res, Resolution::CacheHit);
    }

    #[test]
    fn weak_consistency_serves_stale_locally() {
        let p = plan(vec![false], vec![4], 100);
        let mut cache = Lru::new(100);
        resolve_up(&p, &mut cache, req(0, 1, Flavor::Normal), CM::Weak);
        let (res, hops) = resolve_up(&p, &mut cache, req(0, 1, Flavor::Expired), CM::Weak);
        assert_eq!((res, hops), (Resolution::CacheHit, 0));
    }

    #[test]
    fn uncacheable_bypasses_cache() {
        let p = plan(vec![false], vec![5], 100);
        let mut cache = Lru::new(100);
        let (res, hops) = resolve_up(&p, &mut cache, req(0, 1, Flavor::Uncacheable), CM::Strong);
        assert_eq!((res, hops), (Resolution::Bypass, 5));
        // Not admitted: a subsequent normal request misses.
        let (res, _) = resolve_up(&p, &mut cache, req(0, 1, Flavor::Normal), CM::Strong);
        assert_eq!(res, Resolution::CacheMiss);
    }

    #[test]
    fn simulate_server_counts_and_latencies() {
        let p = plan(vec![true, false], vec![0, 3], 1000);
        let cfg = SimConfig::default();
        let stream = vec![
            req(0, 1, Flavor::Normal),      // replica: 20 ms
            req(1, 1, Flavor::Normal),      // miss: 80 ms
            req(1, 1, Flavor::Normal),      // hit: 20 ms
            req(1, 2, Flavor::Uncacheable), // bypass: 80 ms
        ];
        let report = simulate_server_faulted(
            &p,
            &cfg,
            stream.into_iter(),
            0,
            |_, _| 10,
            Box::new(Lru::new(p.cache_bytes)),
            None,
        );
        assert_eq!(report.total_requests, 4);
        assert_eq!(report.measured_requests, 4);
        assert_eq!(report.replica_hits, 1);
        assert_eq!(report.cache_hits, 1);
        assert_eq!(report.local_requests, 2);
        assert_eq!(report.tally.cost_hops, 6);
        assert!((report.histogram.mean() - (20.0 + 80.0 + 20.0 + 80.0) / 4.0).abs() < 1e-9);
    }

    #[test]
    fn warmup_excluded_from_measurement() {
        let p = plan(vec![false], vec![3], 1000);
        let cfg = SimConfig::default();
        let stream = vec![req(0, 1, Flavor::Normal), req(0, 1, Flavor::Normal)];
        let report = simulate_server_faulted(
            &p,
            &cfg,
            stream.into_iter(),
            1,
            |_, _| 10,
            Box::new(Lru::new(p.cache_bytes)),
            None,
        );
        assert_eq!(report.total_requests, 2);
        assert_eq!(report.measured_requests, 1);
        // The warm-up miss populated the cache; the measured request hits.
        assert_eq!(report.cache_hits, 1);
        assert_eq!(report.tally.cost_hops, 0);
    }

    #[test]
    fn windowed_timeline_mirrors_run_level_accounting() {
        let p = plan(vec![true, false], vec![0, 3], 1000);
        let cfg = SimConfig {
            window: 2,
            ..Default::default()
        };
        let stream = vec![
            req(0, 1, Flavor::Normal),      // tick 0: replica
            req(1, 1, Flavor::Normal),      // tick 1: miss
            req(1, 1, Flavor::Normal),      // tick 2: hit
            req(1, 2, Flavor::Uncacheable), // tick 3: bypass
            req(0, 2, Flavor::Normal),      // tick 4: replica
        ];
        let report = simulate_server_faulted(
            &p,
            &cfg,
            stream.into_iter(),
            0,
            |_, _| 10,
            Box::new(Lru::new(p.cache_bytes)),
            None,
        );
        let tl = report
            .timeline
            .as_ref()
            .expect("window>0 builds a timeline");
        assert_eq!(tl.server, 0);
        let ids: Vec<u64> = tl.windows.iter().map(|(id, _)| *id).collect();
        assert_eq!(ids, vec![0, 1, 2]);
        // Windowed tallies sum to the server's exactly.
        let mut sum = Tally::default();
        for (_, w) in &tl.windows {
            sum.merge(&w.tally);
        }
        assert_eq!(sum, report.tally);
        assert_eq!(sum.requests(), report.measured_requests);
        // Hot-site attribution: ties break toward the lower site id.
        assert_eq!(tl.windows[0].1.top_site, Some((0, 1)));
        assert_eq!(tl.windows[1].1.top_site, Some((1, 2)));
        assert_eq!(tl.windows[2].1.top_site, Some((0, 1)));
        // The cached object (10 bytes) is resident at every window close.
        assert!(tl.windows.iter().all(|(_, w)| w.cache_used_bytes == 10));
        // Window 0, the default, leaves the field empty.
        let r = simulate_server_faulted(
            &p,
            &SimConfig::default(),
            vec![req(0, 1, Flavor::Normal)].into_iter(),
            0,
            |_, _| 10,
            Box::new(Lru::new(p.cache_bytes)),
            None,
        );
        assert!(r.timeline.is_none());
    }

    #[test]
    fn timeline_windows_are_keyed_on_stream_ticks_not_measured_index() {
        // Warm-up ticks advance the window clock without recording: with
        // warmup 3 and width 2, the first measured tick (3) lands in
        // window 1, and window 0 never materialises.
        let p = plan(vec![false], vec![3], 1000);
        let cfg = SimConfig {
            window: 2,
            ..Default::default()
        };
        let stream: Vec<_> = (0..6).map(|o| req(0, o, Flavor::Normal)).collect();
        let report = simulate_server_faulted(
            &p,
            &cfg,
            stream.into_iter(),
            3,
            |_, _| 10,
            Box::new(Lru::new(p.cache_bytes)),
            None,
        );
        let tl = report.timeline.as_ref().unwrap();
        let ids: Vec<u64> = tl.windows.iter().map(|(id, _)| *id).collect();
        assert_eq!(ids, vec![1, 2]);
        assert_eq!(tl.windows[0].1.tally.requests(), 1); // tick 3
        assert_eq!(tl.windows[1].1.tally.requests(), 2); // ticks 4, 5
        assert_eq!(report.measured_requests, 3);
    }

    /// One server (0), one site with three holders: peer 1 at 2 hops, peer
    /// 2 at 5 hops, the primary at 9 hops.
    fn failover_plan() -> ServerPlan {
        ServerPlan {
            server: 0,
            replicated: vec![false],
            holders: vec![vec![
                Holder {
                    server: Some(1),
                    hops: 2,
                },
                Holder {
                    server: Some(2),
                    hops: 5,
                },
                Holder {
                    server: None,
                    hops: 9,
                },
            ]],
            cache_bytes: 100,
        }
    }

    /// Schedule where server `s` is down for ticks `[0, 100)`.
    fn down(servers: &[usize], origin: bool) -> crate::fault::FaultSchedule {
        let mut windows = vec![Vec::new(); 3];
        for &s in servers {
            windows[s] = vec![(0, 100)];
        }
        let origin_down = if origin { vec![(0, 100)] } else { Vec::new() };
        crate::fault::FaultSchedule::from_windows(windows, origin_down)
    }

    #[test]
    fn dead_nearest_holder_fails_over_to_next() {
        let p = failover_plan();
        let mut cache = Lru::new(100);
        let schedule = down(&[1], false);
        let routed = resolve(
            &p,
            &mut cache,
            req(0, 1, Flavor::Normal),
            10,
            CM::Strong,
            &schedule,
            5,
        );
        assert_eq!(routed.resolution, Resolution::CacheMiss);
        assert_eq!(routed.hops, 5, "should reach the second-nearest copy");
        assert_eq!(routed.dead_skipped, 1);
        assert!(!routed.from_origin);
        // Past the recovery window the nearest holder serves again.
        let routed = resolve(
            &p,
            &mut cache,
            req(0, 2, Flavor::Normal),
            10,
            CM::Strong,
            &schedule,
            100,
        );
        assert_eq!((routed.hops, routed.dead_skipped), (2, 0));
        // A schedule with rows for servers 0 and 1 only: server 2, which
        // has no row, is up, so it serves after the dead holder 1.
        let short = FaultSchedule::from_windows(vec![Vec::new(), vec![(0, 100)]], Vec::new());
        let routed = resolve(
            &p,
            &mut cache,
            req(0, 3, Flavor::Normal),
            10,
            CM::Strong,
            &short,
            5,
        );
        assert_eq!((routed.hops, routed.dead_skipped), (5, 1));
    }

    #[test]
    fn both_peers_dead_falls_back_to_origin() {
        let p = failover_plan();
        let mut cache = Lru::new(100);
        let schedule = down(&[1, 2], false);
        let routed = resolve(
            &p,
            &mut cache,
            req(0, 1, Flavor::Normal),
            10,
            CM::Strong,
            &schedule,
            0,
        );
        assert_eq!(routed.resolution, Resolution::CacheMiss);
        assert_eq!(routed.hops, 9);
        assert_eq!(routed.dead_skipped, 2);
        assert!(routed.from_origin);
    }

    #[test]
    fn no_live_copy_fails_without_polluting_cache() {
        let p = failover_plan();
        let mut cache = Lru::new(100);
        let schedule = down(&[1, 2], true);
        let routed = resolve(
            &p,
            &mut cache,
            req(0, 1, Flavor::Normal),
            10,
            CM::Strong,
            &schedule,
            0,
        );
        assert_eq!(routed.resolution, Resolution::Failed);
        assert_eq!(routed.dead_skipped, 3);
        assert!(cache.is_empty(), "failed fetch must not admit the object");
        // A cached copy still serves locally during the blackout.
        cache.insert(cdn_cache::ObjectKey::new(0, 1), 10);
        let routed = resolve(
            &p,
            &mut cache,
            req(0, 1, Flavor::Normal),
            10,
            CM::Strong,
            &schedule,
            1,
        );
        assert_eq!(routed.resolution, Resolution::CacheHit);
    }

    #[test]
    fn strong_refresh_fails_but_weak_serves_stale_during_blackout() {
        let p = failover_plan();
        let schedule = down(&[1, 2], true);
        let mut cache = Lru::new(100);
        cache.insert(cdn_cache::ObjectKey::new(0, 1), 10);
        let strong = resolve(
            &p,
            &mut cache,
            req(0, 1, Flavor::Expired),
            10,
            CM::Strong,
            &schedule,
            0,
        );
        assert_eq!(strong.resolution, Resolution::Failed);
        let weak = resolve(
            &p,
            &mut cache,
            req(0, 1, Flavor::Expired),
            10,
            CM::Weak,
            &schedule,
            0,
        );
        assert_eq!(weak.resolution, Resolution::CacheHit);
        assert_eq!(weak.dead_skipped, 0);
    }

    #[test]
    fn down_first_hop_skips_local_service_and_cache() {
        let p = failover_plan();
        let mut cache = Lru::new(100);
        cache.insert(cdn_cache::ObjectKey::new(0, 1), 10);
        let schedule = down(&[0], false);
        let routed = resolve(
            &p,
            &mut cache,
            req(0, 1, Flavor::Normal),
            10,
            CM::Strong,
            &schedule,
            0,
        );
        // The cached copy is unreachable: the client retries to the nearest
        // live holder, paying one skip for the dead first hop.
        assert_eq!(routed.resolution, Resolution::Bypass);
        assert_eq!(routed.hops, 2);
        assert_eq!(routed.dead_skipped, 1);
        assert_eq!(cache.len(), 1, "crashed server's cache must not change");
    }

    #[test]
    fn down_replicator_fails_over_off_its_own_replica() {
        // Server 0 replicates the site (it heads its own holder list) but
        // is down: the request must reach the next holder.
        let p = ServerPlan {
            server: 0,
            replicated: vec![true],
            holders: vec![vec![
                Holder {
                    server: Some(0),
                    hops: 0,
                },
                Holder {
                    server: None,
                    hops: 9,
                },
            ]],
            cache_bytes: 0,
        };
        let mut cache = Lru::new(0);
        let schedule = down(&[0], false);
        let routed = resolve(
            &p,
            &mut cache,
            req(0, 1, Flavor::Normal),
            10,
            CM::Strong,
            &schedule,
            0,
        );
        assert_eq!(routed.resolution, Resolution::Bypass);
        assert_eq!(routed.hops, 9);
        assert_eq!(routed.dead_skipped, 1);
        assert!(routed.from_origin);
        // Up again: served from the local replica.
        let routed = resolve(
            &p,
            &mut cache,
            req(0, 1, Flavor::Normal),
            10,
            CM::Strong,
            &schedule,
            200,
        );
        assert_eq!(routed.resolution, Resolution::Replica);
    }

    #[test]
    fn simulate_server_faulted_accounts_failures_and_failovers() {
        let p = failover_plan();
        let cfg = SimConfig {
            faults: Some(FaultParams {
                retry_penalty_ms: 100.0,
                ..Default::default()
            }),
            ..Default::default()
        };
        // Holder 1 down for ticks [0,2); everything down at tick 3.
        let schedule = crate::fault::FaultSchedule::from_windows(
            vec![Vec::new(), vec![(0, 2), (3, 4)], vec![(3, 4)]],
            vec![(3, 4)],
        );
        let stream = vec![
            req(0, 1, Flavor::Normal), // tick 0: failover to holder 2 (5 hops + 1 retry)
            req(0, 1, Flavor::Normal), // tick 1: cache hit
            req(0, 2, Flavor::Normal), // tick 2: miss to holder 1 (2 hops)
            req(0, 3, Flavor::Normal), // tick 3: everything down -> failed
        ];
        let report = simulate_server_faulted(
            &p,
            &cfg,
            stream.into_iter(),
            0,
            |_, _| 10,
            Box::new(Lru::new(p.cache_bytes)),
            Some(&schedule),
        );
        assert_eq!(report.measured_requests, 4);
        assert_eq!(report.failed_requests, 1);
        assert_eq!(report.failover_fetches, 1);
        assert_eq!(report.peer_fetches, 1);
        assert_eq!(report.cache_hits, 1);
        assert_eq!(
            report.histogram.count(),
            3,
            "failed requests record no latency"
        );
        assert_eq!(report.failover_histogram.count(), 1);
        // Failover latency: 20 * (1 + 5) + 100 * 1 = 220 ms.
        assert!((report.failover_histogram.mean() - 220.0).abs() < 1e-9);
        // Failed request delivered nothing.
        assert_eq!(report.total_bytes, 30);
        assert_eq!(report.tally.cost_hops, 5 + 2);
    }

    #[test]
    fn delayed_hits_coalesce_onto_pending_fetch() {
        // Non-replicated site 3 hops away, fetch takes 2 ticks: the miss at
        // tick 0 puts the fetch in flight until tick 2, so the hit at
        // tick 1 is a delayed hit and the hit at tick 2 is a plain one.
        let p = plan(vec![false], vec![3], 1000);
        let cfg = SimConfig {
            fetch_latency: Some(2),
            ..Default::default()
        };
        let stream = vec![
            req(0, 1, Flavor::Normal), // tick 0: miss, fetch ready at 2
            req(0, 1, Flavor::Normal), // tick 1: delayed hit (rides fetch)
            req(0, 1, Flavor::Normal), // tick 2: fetch landed -> cache hit
        ];
        let report = simulate_server_faulted(
            &p,
            &cfg,
            stream.into_iter(),
            0,
            |_, _| 10,
            Box::new(Lru::new(p.cache_bytes)),
            None,
        );
        assert_eq!(report.origin_fetches, 1);
        assert_eq!(report.delayed_hits, 1);
        assert_eq!(report.cache_hits, 1);
        assert_eq!(report.local_requests, 1, "delayed hits are not local");
        // The delayed hit pays the pending fetch's transfer delay but adds
        // no hops of its own.
        assert_eq!(report.tally.cost_hops, 3);
        assert_eq!(report.total_bytes, 30, "all three requests deliver");
        assert_eq!(report.tally.cause.delayed_hit.latency_us, 80_000);
        // Causes stay disjoint and sum to measured.
        assert_eq!(
            report.tally.cause.total_requests(),
            report.measured_requests
        );
        assert_eq!(
            report.delayed_hits + report.local_requests + report.origin_fetches,
            report.measured_requests
        );
    }

    #[test]
    fn zero_capacity_cache_still_coalesces_pending_fetches() {
        // With no cache at all, back-to-back requests for the same object
        // are all misses under instant fetch — but with a fetch in flight
        // the later ones coalesce, which is exactly the miss-reduction
        // delayed hits exist to model.
        let p = plan(vec![false], vec![2], 0);
        let cfg = SimConfig {
            fetch_latency: Some(3),
            ..Default::default()
        };
        let stream = vec![
            req(0, 1, Flavor::Normal), // tick 0: miss, ready at 3
            req(0, 1, Flavor::Normal), // tick 1: miss, but pending -> delayed
            req(0, 1, Flavor::Normal), // tick 2: delayed again
            req(0, 1, Flavor::Normal), // tick 3: fetch done -> fresh miss
        ];
        let report = simulate_server_faulted(
            &p,
            &cfg,
            stream.into_iter(),
            0,
            |_, _| 10,
            Box::new(Lru::new(p.cache_bytes)),
            None,
        );
        assert_eq!(report.origin_fetches, 2);
        assert_eq!(report.delayed_hits, 2);
        assert_eq!(report.cache_hits, 0);
        assert_eq!(
            report.tally.cost_hops, 4,
            "only the two real fetches travel"
        );
        assert_eq!(report.origin_bytes, 20, "coalesced bytes skip the origin");
    }

    #[test]
    fn fetch_latency_off_switches_are_equivalent() {
        // `None` and `Some(0)` must both run the instant-fetch path.
        let p = plan(vec![false], vec![3], 1000);
        let stream: Vec<_> = (0..20).map(|i| req(0, i % 4, Flavor::Normal)).collect();
        let run = |fetch_latency| {
            let cfg = SimConfig {
                fetch_latency,
                ..Default::default()
            };
            simulate_server_faulted(
                &p,
                &cfg,
                stream.clone().into_iter(),
                4,
                |_, _| 10,
                Box::new(Lru::new(p.cache_bytes)),
                None,
            )
        };
        let off = run(None);
        let zero = run(Some(0));
        assert_eq!(off.delayed_hits, 0);
        assert_eq!(zero.delayed_hits, 0);
        assert_eq!(off.cache_hits, zero.cache_hits);
        assert_eq!(off.histogram.bin_counts(), zero.histogram.bin_counts());
        assert_eq!(off.tally, zero.tally);
    }

    #[test]
    fn delayed_hits_appear_in_timeline_windows() {
        let p = plan(vec![false], vec![3], 1000);
        let cfg = SimConfig {
            fetch_latency: Some(2),
            window: 2,
            ..Default::default()
        };
        let stream = vec![
            req(0, 1, Flavor::Normal), // tick 0: miss
            req(0, 1, Flavor::Normal), // tick 1: delayed hit
            req(0, 1, Flavor::Normal), // tick 2: cache hit
            req(0, 2, Flavor::Normal), // tick 3: miss
        ];
        let report = simulate_server_faulted(
            &p,
            &cfg,
            stream.into_iter(),
            0,
            |_, _| 10,
            Box::new(Lru::new(p.cache_bytes)),
            None,
        );
        let tl = report.timeline.as_ref().unwrap();
        let delayed = |w: &crate::timeline::WindowStats| w.tally.cause.delayed_hit.requests;
        let sum: u64 = tl.windows.iter().map(|(_, w)| delayed(w)).sum();
        assert_eq!(sum, report.delayed_hits);
        assert_eq!(delayed(&tl.windows[0].1), 1);
        assert_eq!(delayed(&tl.windows[1].1), 0);
    }

    #[test]
    fn zero_capacity_cache_never_hits() {
        let p = plan(vec![false], vec![2], 0);
        let cfg = SimConfig::default();
        let stream = vec![req(0, 1, Flavor::Normal), req(0, 1, Flavor::Normal)];
        let report = simulate_server_faulted(
            &p,
            &cfg,
            stream.into_iter(),
            0,
            |_, _| 10,
            Box::new(Lru::new(p.cache_bytes)),
            None,
        );
        assert_eq!(report.cache_hits, 0);
        assert_eq!(report.tally.cost_hops, 4);
    }
}
