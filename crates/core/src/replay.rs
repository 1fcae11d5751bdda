//! Real-trace replay: drive the simulator from a `.events` trace file
//! instead of a generated stream, and export synthetic scenarios to the
//! same format.
//!
//! The binary format itself ([`cdn_workload::trace_file`]) stores
//! `(key, timestamp_us)` pairs; this module gives them simulation
//! semantics:
//!
//! * **Export** — [`export_events`] interleaves a synthetic scenario's
//!   per-server streams in (tick, server) order and packs each request as
//!   `key = (site << 32) | object` with timestamp `tick * 1000 + server`
//!   µs, so any scenario can be round-tripped through a trace file. Above
//!   1,000 servers these timestamps tie and step back (see
//!   [`export_events`]); replay sorts, so it does not depend on that
//!   order.
//! * **Ingest** — [`parse_csv_trace`] converts text traces (either
//!   `timestamp_us,key` or `timestamp_us,site,object` columns) into
//!   events, sorting stably by timestamp.
//! * **Replay** — [`ReplayStreams::from_events`] partitions events
//!   across servers by a deterministic key hash (all requests for an
//!   object land on one server, the regime where delayed-hit coalescing
//!   matters), consuming its input as it goes so the trace is held once,
//!   and sorts each server's events stably by timestamp;
//!   [`ReplayStreams::stream_for_server`] clamps sites/objects into the
//!   replaying scenario's catalog, so any trace replays against any
//!   scenario. The resulting per-server streams feed
//!   [`cdn_sim::simulate_system_streams`], which keeps replay
//!   byte-identical at any thread or shard count (DESIGN.md §9.1:
//!   per-server state is keyed on the deterministic stream tick).

use crate::scenario::Scenario;
use crate::strategy::PlanResult;
use cdn_sim::{simulate_system_streams, SimReport};
use cdn_workload::{pack_key, unpack_key, Flavor, Request, TraceEvent};
use rayon::prelude::*;

/// Ticks [`export_events`] draws from every server's stream per parallel
/// round before interleaving them.
const EXPORT_BLOCK_TICKS: usize = 1024;

/// Deterministic 64-bit mix (splitmix64 finaliser) for the key → server
/// partition. Not a security hash; just a stable spreader.
#[inline]
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Export a scenario's synthetic workload as a timestamped event list.
///
/// Events come in (tick, server) order — server 0's tick t, server 1's
/// tick t, …, then tick t+1 — and tick t of server s is stamped
/// `t * 1000 + server` microseconds, a virtual 1 ms between consecutive
/// ticks of one server. With at most 1,000 servers the timestamps are
/// unique and strictly increasing. Above that they are neither: tick t on
/// server 1000+k gets the same timestamp as tick t+1 on server k, and the
/// sequence steps back once per tick. Replay does not depend on the order
/// ([`ReplayStreams::from_events`] sorts each server's events).
///
/// Each server's stream is seeded on its own and reads no other stream's
/// state, so blocks of `EXPORT_BLOCK_TICKS` ticks are drawn from all
/// streams in parallel. Each block is then interleaved in parallel too:
/// its rows (one per tick offset) are split into runs of
/// `INTERLEAVE_RUN_TICKS` offsets, and each run writes its own contiguous
/// slice of the output, placed from the lanes' lengths alone. So the
/// output is identical at any thread count.
pub fn export_events(scenario: &Scenario) -> Vec<TraceEvent> {
    let _prof = cdn_telemetry::profile::span("workload.export");
    let trace = &scenario.trace;
    let n = trace.n_servers();
    let total: u64 = (0..n).map(|s| trace.len_for_server(s)).sum();
    let mut streams: Vec<_> = (0..n).map(|s| trace.stream_for_server(s)).collect();
    let mut lanes: Vec<Vec<u64>> = vec![Vec::new(); n];
    let mut events = Vec::with_capacity(total as usize);
    for first_tick in (0u64..).step_by(EXPORT_BLOCK_TICKS) {
        {
            let _prof = cdn_telemetry::profile::span("workload.export.draw");
            let jobs: Vec<_> = streams.iter_mut().zip(lanes.iter_mut()).collect();
            jobs.into_par_iter().for_each(|(stream, keys)| {
                keys.clear();
                keys.extend(
                    stream
                        .take(EXPORT_BLOCK_TICKS)
                        .map(|req| pack_key(req.site, req.object)),
                );
            });
        }
        let _prof = cdn_telemetry::profile::span("workload.export.interleave");
        interleave_block(&lanes, first_tick, &mut events);
        if lanes.iter().all(|keys| keys.len() < EXPORT_BLOCK_TICKS) {
            break;
        }
    }
    events
}

/// Tick offsets of one block that one [`interleave_block`] job writes.
const INTERLEAVE_RUN_TICKS: usize = 16;

/// Append one block to `events`: for each tick offset in turn, every lane
/// that reaches that offset, in server order, stamped as
/// [`export_events`] describes.
fn interleave_block(lanes: &[Vec<u64>], first_tick: u64, events: &mut Vec<TraceEvent>) {
    // rows[o] = lanes reaching offset o: count each lane at its last
    // offset, then sum from the end.
    let mut rows = vec![0usize; EXPORT_BLOCK_TICKS];
    for keys in lanes {
        if let Some(last) = keys.len().checked_sub(1) {
            rows[last] += 1;
        }
    }
    for o in (1..EXPORT_BLOCK_TICKS).rev() {
        rows[o - 1] += rows[o];
    }
    let start = events.len();
    let block_len: usize = rows.iter().sum();
    events.resize(
        start + block_len,
        TraceEvent {
            key: 0,
            timestamp_us: 0,
        },
    );
    let mut out = &mut events[start..];
    let mut jobs = Vec::new();
    for first in (0..EXPORT_BLOCK_TICKS).step_by(INTERLEAVE_RUN_TICKS) {
        let run = first..first + INTERLEAVE_RUN_TICKS;
        let (slots, rest) = out.split_at_mut(rows[run.clone()].iter().sum());
        out = rest;
        jobs.push((run, slots));
    }
    jobs.into_par_iter().for_each(|(run, slots)| {
        let mut slots = slots.iter_mut();
        for offset in run {
            let stamp = (first_tick + offset as u64) * 1000;
            for (server, keys) in lanes.iter().enumerate() {
                if let Some(&key) = keys.get(offset) {
                    *slots.next().expect("slots counted from the lane lengths") = TraceEvent {
                        key,
                        timestamp_us: stamp + server as u64,
                    };
                }
            }
        }
    });
}

/// Parse a CSV trace into events. Accepted row shapes (blank lines are
/// skipped, and so is the first non-blank row when it is a header, that
/// is, not numeric):
///
/// * `timestamp_us,key` — the key is used verbatim;
/// * `timestamp_us,site,object` — packed via [`pack_key`].
///
/// Events are sorted stably by timestamp, so out-of-order inputs ingest
/// deterministically.
pub fn parse_csv_trace(text: &str) -> Result<Vec<TraceEvent>, String> {
    let mut events = Vec::new();
    let mut first_row = true;
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let cols: Vec<&str> = line.split(',').map(str::trim).collect();
        let parse = |s: &str| s.parse::<u64>().ok();
        let event = match cols.as_slice() {
            [ts, key] => parse(ts)
                .zip(parse(key))
                .map(|(timestamp_us, key)| TraceEvent { key, timestamp_us }),
            [ts, site, object] => match (parse(ts), parse(site), parse(object)) {
                (Some(timestamp_us), Some(site), Some(object)) => {
                    if site > u64::from(u32::MAX) || object > u64::from(u32::MAX) {
                        return Err(format!(
                            "line {}: site/object out of u32 range: {line}",
                            lineno + 1
                        ));
                    }
                    Some(TraceEvent {
                        key: pack_key(site as u32, object as u32),
                        timestamp_us,
                    })
                }
                _ => None,
            },
            _ => {
                return Err(format!(
                    "line {}: expected 2 or 3 comma-separated columns, got {}: {line}",
                    lineno + 1,
                    cols.len()
                ))
            }
        };
        let header_allowed = std::mem::replace(&mut first_row, false);
        match event {
            Some(e) => events.push(e),
            // A non-numeric first row is a header; anywhere else it is data
            // corruption worth reporting.
            None if header_allowed => continue,
            None => return Err(format!("line {}: non-numeric field: {line}", lineno + 1)),
        }
    }
    events.sort_by_key(|e| e.timestamp_us);
    Ok(events)
}

/// Events [`ReplayStreams::from_events`] moves out of its input per round
/// before it shrinks the input: 2^20 events, 16 MiB. Its parallel count
/// takes the input in pieces of the same size.
const DRAIN_CHUNK_EVENTS: usize = 1 << 20;

/// Per-server request streams rebuilt from a trace, ready to feed
/// [`cdn_sim::simulate_system_streams`].
pub struct ReplayStreams {
    /// Each server's events, sorted stably by timestamp.
    streams: Vec<Vec<TraceEvent>>,
    m_sites: u32,
    objects_per_site: u32,
}

impl ReplayStreams {
    /// Partition `events` into per-server streams.
    ///
    /// * Server: `mix64(key) % n_servers` — all requests for one object
    ///   land on one server, deterministically.
    /// * Site/object: the packed halves of the key, clamped into the
    ///   replaying catalog (`site % m_sites`, `object % objects_per_site`),
    ///   so any trace replays against any scenario.
    /// * Order: stable by timestamp (ties keep input order), so replay is
    ///   independent of how the trace was produced or stored.
    ///
    /// The partition consumes its input, so the trace is held once plus
    /// one chunk. Three stages, each under its own profile span:
    ///
    /// * **count** — per-server counts of pieces of `DRAIN_CHUNK_EVENTS`
    ///   events, the pieces in parallel, size one buffer per server
    ///   exactly;
    /// * **scatter** — the events move out of `events` from its tail, in
    ///   chunks of `DRAIN_CHUNK_EVENTS`, and the input shrinks after each
    ///   chunk: a `Vec` returns memory only at its end. Each chunk's events
    ///   are pushed in reverse, on one thread, so each buffer holds its
    ///   server's events in reverse input order;
    /// * **sort** — each buffer, the servers in parallel, is reversed back
    ///   to input order and sorted stably by timestamp: an insertion sort,
    ///   since the streams are nearly sorted, that falls back to
    ///   `sort_by_key` once it has moved more than `4 * len + 64` events
    ///   (`sort_stream`).
    ///
    /// Filtering a stable sort by server gives the same order as
    /// stable-sorting each server's filtered events, so this equals one
    /// global sort followed by the partition.
    ///
    /// All requests replay as [`Flavor::Normal`]; the `.events` format
    /// carries no uncacheable/expired flags.
    pub fn from_events(
        mut events: Vec<TraceEvent>,
        n_servers: usize,
        m_sites: usize,
        objects_per_site: usize,
    ) -> Self {
        assert!(n_servers > 0, "need at least one server");
        assert!(m_sites > 0, "need at least one site");
        assert!(objects_per_site > 0, "need at least one object per site");
        let _prof = cdn_telemetry::profile::span("replay.partition");
        let server_of = |key: u64| (mix64(key) % n_servers as u64) as usize;
        let counts = {
            let _prof = cdn_telemetry::profile::span("replay.partition.count");
            let pieces: Vec<&[TraceEvent]> = events.chunks(DRAIN_CHUNK_EVENTS).collect();
            pieces
                .into_par_iter()
                .map(|piece| {
                    let mut counts = vec![0usize; n_servers];
                    for e in piece {
                        counts[server_of(e.key)] += 1;
                    }
                    counts
                })
                .reduce_with(|mut a, b| {
                    a.iter_mut().zip(b).for_each(|(a, b)| *a += b);
                    a
                })
                .unwrap_or_else(|| vec![0; n_servers])
        };
        let mut streams: Vec<Vec<TraceEvent>> =
            counts.into_iter().map(Vec::with_capacity).collect();
        {
            let _prof = cdn_telemetry::profile::span("replay.partition.scatter");
            while !events.is_empty() {
                let start = events.len().saturating_sub(DRAIN_CHUNK_EVENTS);
                for e in events.drain(start..).rev() {
                    streams[server_of(e.key)].push(e);
                }
                events.shrink_to_fit();
            }
        }
        let _prof = cdn_telemetry::profile::span("replay.partition.sort");
        streams.par_iter_mut().for_each(|server_events| {
            server_events.reverse();
            sort_stream(server_events);
        });
        Self {
            streams,
            m_sites: m_sites as u32,
            objects_per_site: objects_per_site as u32,
        }
    }

    /// Stream lengths per server (the warm-up sizing input).
    pub fn lengths(&self) -> Vec<u64> {
        self.streams.iter().map(|s| s.len() as u64).collect()
    }

    /// Total events across all servers.
    pub fn total_events(&self) -> u64 {
        self.streams.iter().map(|s| s.len() as u64).sum()
    }

    /// Iterate one server's stream. Each event is clamped into the
    /// replaying catalog as it is yielded, so no request list is built.
    pub fn stream_for_server(&self, server: usize) -> impl Iterator<Item = Request> + '_ {
        let (m_sites, objects_per_site) = (self.m_sites, self.objects_per_site);
        self.streams[server].iter().map(move |e| {
            let (site, object) = unpack_key(e.key);
            Request {
                site: site % m_sites,
                object: object % objects_per_site,
                flavor: Flavor::Normal,
            }
        })
    }
}

/// Sort one server's events stably by timestamp, in place, and say
/// whether the insertion sort gave up.
///
/// A stable insertion sort runs first, since replay's streams are nearly
/// sorted (the export's timestamps step back once per tick above 1,000
/// servers). Once it has moved more than `4 * len + 64` events, it gives
/// up and `sort_by_key` sorts the whole slice. That yields the same order:
/// the abandoned prefix is itself a stable sort of the events it holds, so
/// equal timestamps still stand in input order, and stable sorting keeps
/// them so.
fn sort_stream(events: &mut [TraceEvent]) -> bool {
    let budget = 4 * events.len() + 64;
    let mut moves = 0;
    for i in 1..events.len() {
        let event = events[i];
        let mut j = i;
        while j > 0 && events[j - 1].timestamp_us > event.timestamp_us {
            events[j] = events[j - 1];
            j -= 1;
        }
        events[j] = event;
        moves += i - j;
        if moves > budget {
            events.sort_by_key(|e| e.timestamp_us);
            return true;
        }
    }
    false
}

/// Replay a trace against a planned scenario: the placement and catalog
/// come from the scenario, the requests from the trace. The cache is the
/// one [`Scenario::simulate`] runs for the plan's strategy.
pub fn replay_events(scenario: &Scenario, plan: &PlanResult, events: Vec<TraceEvent>) -> SimReport {
    let streams = ReplayStreams::from_events(
        events,
        scenario.problem.n_servers(),
        scenario.problem.m_sites(),
        scenario.config.workload.objects_per_site,
    );
    let lengths = streams.lengths();
    simulate_system_streams(
        &scenario.problem,
        &plan.placement,
        &scenario.catalog,
        &scenario.config.sim,
        plan.strategy.cache_factory(),
        &lengths,
        |server| streams.stream_for_server(server),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::ScenarioConfig;
    use crate::Strategy;

    #[test]
    fn export_is_deterministic_and_timestamp_ordered() {
        let s = Scenario::generate(&ScenarioConfig::small());
        let a = export_events(&s);
        let b = export_events(&s);
        assert_eq!(a, b);
        assert!(!a.is_empty());
        let total: u64 = (0..s.trace.n_servers())
            .map(|i| s.trace.len_for_server(i))
            .sum();
        assert_eq!(a.len() as u64, total);
        for w in a.windows(2) {
            assert!(
                w[0].timestamp_us < w[1].timestamp_us || {
                    // Round-robin interleave: within a tick, server order.
                    w[0].timestamp_us / 1000 == w[1].timestamp_us / 1000
                }
            );
        }
        // Sorting by timestamp must be a no-op modulo stability.
        let mut sorted = a.clone();
        sorted.sort_by_key(|e| e.timestamp_us);
        assert_eq!(sorted, a);
    }

    #[test]
    fn export_equals_a_round_robin_over_the_streams_at_any_thread_count() {
        let s = Scenario::generate(&ScenarioConfig::small());
        let lengths: Vec<u64> = (0..s.trace.n_servers())
            .map(|i| s.trace.len_for_server(i))
            .collect();
        // The streams cross a block boundary and end at different ticks.
        assert!(lengths.iter().any(|&l| l > EXPORT_BLOCK_TICKS as u64));
        assert!(lengths.iter().any(|&l| l != lengths[0]));
        let mut streams: Vec<_> = (0..lengths.len())
            .map(|i| s.trace.stream_for_server(i))
            .collect();
        let mut naive = Vec::new();
        for tick in 0u64.. {
            let before = naive.len();
            for (server, stream) in streams.iter_mut().enumerate() {
                if let Some(req) = stream.next() {
                    naive.push(TraceEvent {
                        key: pack_key(req.site, req.object),
                        timestamp_us: tick * 1000 + server as u64,
                    });
                }
            }
            if naive.len() == before {
                break;
            }
        }
        let pool = |n: usize| {
            rayon::ThreadPoolBuilder::new()
                .num_threads(n)
                .build()
                .unwrap()
        };
        assert_eq!(pool(1).install(|| export_events(&s)), naive);
        assert_eq!(pool(4).install(|| export_events(&s)), naive);
    }

    #[test]
    fn replay_of_disordered_input_equals_a_global_stable_sort_then_partition() {
        // The export layout of 1,500 servers: tick t on server 1000+k ties
        // with tick t+1 on server k, and the sequence steps back once per
        // tick. Keys come from a small pool, so tied events share a replay
        // server and their input order decides the stream order.
        let events: Vec<TraceEvent> = (0..4u64)
            .flat_map(|tick| {
                (0..1500u64).map(move |server| TraceEvent {
                    key: pack_key((server % 7) as u32, (mix64(tick ^ server) % 40) as u32),
                    timestamp_us: tick * 1000 + server,
                })
            })
            .collect();
        assert!(events
            .windows(2)
            .any(|w| w[0].timestamp_us > w[1].timestamp_us));
        let (n, m, l) = (3, 5, 30);
        let mut sorted = events.clone();
        sorted.sort_by_key(|e| e.timestamp_us);
        let replay = ReplayStreams::from_events(events, n, m, l);
        for server in 0..n {
            let reference: Vec<Request> = sorted
                .iter()
                .filter(|e| (mix64(e.key) % n as u64) as usize == server)
                .map(|e| {
                    let (site, object) = unpack_key(e.key);
                    Request {
                        site: site % m as u32,
                        object: object % l as u32,
                        flavor: Flavor::Normal,
                    }
                })
                .collect();
            assert!(!reference.is_empty());
            assert_eq!(
                replay.stream_for_server(server).collect::<Vec<_>>(),
                reference,
                "server {server}"
            );
        }
    }

    #[test]
    fn csv_two_and_three_column_rows_parse() {
        let text = "timestamp_us,site,object\n30,2,7\n10,1,5\n20,0,0\n";
        let events = parse_csv_trace(text).unwrap();
        assert_eq!(events.len(), 3);
        // Sorted by timestamp.
        assert_eq!(
            events[0],
            TraceEvent {
                key: pack_key(1, 5),
                timestamp_us: 10
            }
        );
        assert_eq!(events[2].key, pack_key(2, 7));
        let packed = format!("ts,key\n5,{}\n", pack_key(3, 9));
        let events = parse_csv_trace(&packed).unwrap();
        assert_eq!(
            events,
            vec![TraceEvent {
                key: pack_key(3, 9),
                timestamp_us: 5
            }]
        );
    }

    #[test]
    fn csv_header_may_follow_blank_lines() {
        let one = vec![TraceEvent {
            key: pack_key(1, 5),
            timestamp_us: 10,
        }];
        for text in [
            "timestamp_us,site,object\n10,1,5\n",
            "\ntimestamp_us,site,object\n10,1,5\n",
            "\n \n\r\ntimestamp_us,site,object\n\n10,1,5\n",
        ] {
            assert_eq!(parse_csv_trace(text), Ok(one.clone()), "{text:?}");
        }
        // Only the first non-blank row may be a header.
        let err = parse_csv_trace("\n\nts,site,object\n10,1,5\nnope,2,3\n").unwrap_err();
        assert!(err.starts_with("line 5: non-numeric"), "{err}");
        let err = parse_csv_trace("\n10,1,5\nts,site,object\n").unwrap_err();
        assert!(err.starts_with("line 3: non-numeric"), "{err}");
    }

    #[test]
    fn export_bytes_are_pinned_at_1_and_4_threads() {
        // FNV-1a of the small scenario's encoded export, recorded before
        // the export's interleave ran in parallel.
        const EXPORT_FNV: u64 = 0x0a8e_f3ba_696c_2009;
        let s = Scenario::generate(&ScenarioConfig::small());
        let fnv = |bytes: Vec<u8>| {
            bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
                (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
            })
        };
        for threads in [1, 4] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            let bytes = pool.install(|| cdn_workload::encode_events(&export_events(&s)));
            assert_eq!(fnv(bytes), EXPORT_FNV, "{threads} thread(s)");
        }
    }

    #[test]
    fn csv_errors_are_contextful() {
        let err = parse_csv_trace("1,2,3\nnope,2,3\n").unwrap_err();
        assert!(err.contains("line 2"), "{err}");
        let err = parse_csv_trace("1,2,3,4\n").unwrap_err();
        assert!(err.contains("2 or 3"), "{err}");
        let err = parse_csv_trace(&format!("1,{},0\n", u64::from(u32::MAX) + 1)).unwrap_err();
        assert!(err.contains("u32 range"), "{err}");
    }

    #[test]
    fn replay_clamps_into_catalog_and_covers_every_event() {
        let s = Scenario::generate(&ScenarioConfig::small());
        let m = s.problem.m_sites() as u32;
        let l = s.config.workload.objects_per_site as u32;
        // Keys far outside the catalog must wrap, not panic.
        let events: Vec<TraceEvent> = (0..200u64)
            .map(|i| TraceEvent {
                key: pack_key(m * 3 + i as u32, l * 5 + i as u32),
                timestamp_us: i,
            })
            .collect();
        let streams =
            ReplayStreams::from_events(events, s.problem.n_servers(), m as usize, l as usize);
        assert_eq!(streams.total_events(), 200);
        for server in 0..s.problem.n_servers() {
            for req in streams.stream_for_server(server) {
                assert!(req.site < m);
                assert!(req.object < l);
            }
        }
        let plan = s.plan(Strategy::Hybrid);
        let report = replay_events(
            &s,
            &plan,
            (0..200u64)
                .map(|i| TraceEvent {
                    key: pack_key(i as u32 % (2 * m), i as u32 % (2 * l)),
                    timestamp_us: i,
                })
                .collect(),
        );
        assert_eq!(report.total_requests, 200);
    }

    #[test]
    fn replay_is_bit_identical_across_shards_and_threads() {
        // The ISSUE acceptance grid: shards {1,2,4,8} x threads {1,4}.
        let mut cfg = ScenarioConfig::small();
        cfg.sim.fetch_latency = Some(16);
        let s = Scenario::generate(&cfg);
        let plan = s.plan(Strategy::Hybrid);
        let events = export_events(&s);
        let run = |shards: Option<usize>| {
            let mut sc = s.config.clone();
            sc.sim.shards = shards;
            let mut scenario_shards = Scenario::generate(&sc);
            // Same generated instance; only the shard count differs.
            scenario_shards.config.sim.shards = shards;
            replay_events(&scenario_shards, &plan, events.clone())
        };
        let base = run(Some(1));
        assert!(base.measured_requests > 0);
        assert!(base.delayed_hits > 0, "replay never coalesced");
        for shards in [2, 4, 8] {
            let r = run(Some(shards));
            assert_eq!(base.mean_latency_ms.to_bits(), r.mean_latency_ms.to_bits());
            assert_eq!(base.cache_hits, r.cache_hits);
            assert_eq!(base.delayed_hits, r.delayed_hits);
            assert_eq!(base.histogram.cdf(), r.histogram.cdf());
            assert_eq!(base.cause, r.cause);
        }
        let pool = |n: usize| {
            rayon::ThreadPoolBuilder::new()
                .num_threads(n)
                .build()
                .unwrap()
        };
        let one = pool(1).install(|| run(Some(4)));
        let four = pool(4).install(|| run(Some(4)));
        assert_eq!(
            one.mean_latency_ms.to_bits(),
            four.mean_latency_ms.to_bits()
        );
        assert_eq!(one.cause, four.cause);
        assert_eq!(one.histogram.cdf(), four.histogram.cdf());
    }

    #[test]
    fn export_replay_round_trip_reuses_every_request() {
        let s = Scenario::generate(&ScenarioConfig::small());
        let plan = s.plan(Strategy::Hybrid);
        let events = export_events(&s);
        let report = replay_events(&s, &plan, events.clone());
        assert_eq!(report.total_requests, events.len() as u64);
        // Deterministic: same trace, same report.
        let again = replay_events(&s, &plan, events);
        assert_eq!(
            report.mean_latency_ms.to_bits(),
            again.mean_latency_ms.to_bits()
        );
        assert_eq!(report.cause, again.cause);
    }

    mod properties {
        use crate::replay::{mix64, parse_csv_trace, sort_stream, ReplayStreams};
        use cdn_workload::{pack_key, TraceEvent};
        use proptest::prelude::*;
        use rand::rngs::StdRng;
        use rand::seq::SliceRandom;
        use rand::SeedableRng;

        /// Each server's events, in the order of `events`.
        fn by_server(events: &[TraceEvent], n: usize) -> Vec<Vec<TraceEvent>> {
            let mut streams = vec![Vec::new(); n];
            for &e in events {
                streams[(mix64(e.key) % n as u64) as usize].push(e);
            }
            streams
        }

        /// Pieces of trace text, well-formed and not, that arbitrary text
        /// is built from, besides any char at all.
        const PIECES: [&str; 12] = [
            "0",
            "7",
            "4294967295",
            "4294967296",
            "18446744073709551615",
            "18446744073709551616",
            ",",
            "\n",
            "\r\n",
            " ",
            "-",
            "x",
        ];

        fn arb_text() -> impl proptest::strategy::Strategy<Value = String> {
            let part = (0..PIECES.len() + 1, any::<u32>());
            proptest::collection::vec(part, 0..64).prop_map(|parts| {
                let piece = |(i, c): (usize, u32)| match PIECES.get(i) {
                    Some(p) => p.to_string(),
                    None => char::from_u32(c).unwrap_or('\u{fffd}').to_string(),
                };
                parts.into_iter().map(piece).collect()
            })
        }

        proptest! {
            /// The partition equals a global stable sort by timestamp
            /// followed by a filter by server, on the export's layout above
            /// 1,000 servers (nearly sorted, timestamps tie and step back
            /// once per tick), on its reverse and on a shuffle. Keys come
            /// from a pool smaller than the server count, so tied events
            /// share a server and some servers stay empty. The reversed and
            /// shuffled inputs exhaust the insertion sort's budget.
            #[test]
            fn partition_equals_a_global_stable_sort_then_filter(
                extra in 1u64..64,
                ticks in 2u64..5,
                pool in 1u64..24,
                n in 24usize..64,
                seed in any::<u64>(),
            ) {
                let export: Vec<TraceEvent> = (0..ticks)
                    .flat_map(|tick| {
                        (0..1000 + extra).map(move |server| TraceEvent {
                            key: pack_key(3, (mix64(seed ^ (tick << 32) ^ server) % pool) as u32),
                            timestamp_us: tick * 1000 + server,
                        })
                    })
                    .collect();
                let reversed: Vec<TraceEvent> = export.iter().rev().copied().collect();
                let mut shuffled = export.clone();
                shuffled.shuffle(&mut StdRng::seed_from_u64(seed));
                for (shape, events, falls_back) in
                    [("export", export, false), ("reversed", reversed, true), ("shuffled", shuffled, true)]
                {
                    let fallbacks = by_server(&events, n)
                        .iter_mut()
                        .map(|s| sort_stream(s))
                        .filter(|&fell| fell)
                        .count();
                    prop_assert_eq!(fallbacks > 0, falls_back, "{}", shape);
                    let mut sorted = events.clone();
                    sorted.sort_by_key(|e| e.timestamp_us);
                    let reference = by_server(&sorted, n);
                    let replay = ReplayStreams::from_events(events, n, 5, 30);
                    prop_assert!(replay.streams.iter().any(Vec::is_empty), "{}", shape);
                    prop_assert!(replay.streams == reference, "{}", shape);
                }
            }

            /// Arbitrary text parses to timestamp-ordered events or to an
            /// error, never a panic.
            #[test]
            fn csv_reader_returns_ok_or_err_on_any_text(text in arb_text()) {
                if let Ok(events) = parse_csv_trace(&text) {
                    let ordered = events.windows(2).all(|w| w[0].timestamp_us <= w[1].timestamp_us);
                    prop_assert!(ordered, "{events:?}");
                }
            }
        }
    }
}
