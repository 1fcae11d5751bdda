//! Trace-driven simulation of the hybrid CDN.
//!
//! Reproduces the paper's evaluation loop: every client request arrives at
//! its *first-hop* CDN server; if the site is replicated there (or the
//! object is cached) the request is served locally, otherwise it is
//! redirected to the nearest holder `SN_j^(i)` and the response is cached
//! on the way back. Latency is `HOP_DELAY_US × (1 + hops to the serving
//! node)` — one access hop to the first-hop server plus the redirect — with
//! "propagation, queueing and processing delay inside the core network ...
//! 20 ms/hop". Every latency is accounted in whole microseconds, so all
//! sums and merges are exact integer arithmetic.
//!
//! Consistency follows the paper's second experiment: replicas are always
//! consistent (the CDN pushes invalidations), while a cache hit on an
//! *expired* object pays a refresh round to the nearest replica.
//!
//! Fault injection (see [`fault`]) layers crash/recovery windows and
//! origin outages on top: requests fail over along each server's
//! distance-ranked holder list to the next-nearest *live* copy, paying a
//! retry penalty per dead holder skipped, and are dropped
//! ([`engine::Resolution::Failed`]) when no live copy exists. There is one
//! routing path: a fault-free run resolves against the empty
//! [`FaultSchedule`], in which the nearest copy is always live.
//!
//! * [`metrics`] — latency histogram / CDF / mean, cost counters.
//! * [`plan`] — the per-server view of a placement (what is replicated,
//!   where every copy is, how much space the cache gets).
//! * [`engine`] — the per-server request loop.
//! * [`fault`] — deterministic crash/recovery and origin-outage schedules.
//! * [`shard`] — contiguous server shards and the determinism contract
//!   that keeps sharded runs bit-identical at any thread or shard count.
//! * [`runner`] — whole-system simulation, parallel across server shards.
//! * [`timeline`] — virtual-time windowed telemetry: per-window counters,
//!   latency quantile sketches, and per-server hotspot attribution, merged
//!   across shards in global server order so timelines are byte-identical
//!   at any thread or shard count.

pub mod engine;
pub mod fault;
pub mod metrics;
pub mod plan;
pub mod runner;
pub mod shard;
pub mod timeline;

pub use engine::{resolve, simulate_server_faulted, Routed, ServerReport};
pub use fault::{FaultParams, FaultSchedule, MAX_RETRY_PENALTY_MS};
pub use metrics::{
    render_samples_jsonl, Cause, CauseBreakdown, CauseLatency, LatencyHistogram, RequestSample,
    SimReport,
};
pub use plan::{ConsistencyMode, Holder, ServerPlan, SimConfig, HOP_DELAY_US};
pub use runner::{simulate_system, simulate_system_streams};
pub use shard::{shard_ranges, MAX_DEFAULT_SHARDS};
pub use timeline::{
    render_timeline_csv, render_timeline_json, ServerTimeline, Timeline, WindowStats,
};
