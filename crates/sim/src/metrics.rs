//! Latency and cost accounting.

use crate::engine::Resolution;
use cdn_cache::FxHashMap;
use cdn_workload::Flavor;
use std::fmt::Write as _;

/// Exact distribution of response times: one count per distinct
/// whole-microsecond latency, with the exact sum and max. Every latency the
/// simulator produces is one of a few values (20 ms per hop plus retry
/// penalties), so storage grows with those values, and sums, maxima and
/// merges are exact integer arithmetic. The paper's CDF plots are `cdf()`,
/// read through [`BIN_US`](Self::BIN_US)-wide bins plus an overflow bin;
/// the millisecond accessors convert on the way out.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LatencyHistogram {
    counts: FxHashMap<u64, u64>,
    sum_us: u64,
    n: u64,
    max_us: u64,
}

/// Microseconds to milliseconds, the unit every reported latency is in.
/// Exact when `us` is a whole number of milliseconds below 2^53 µs, as
/// every latency the paper's 20 ms hops produce is.
pub(crate) fn us_to_ms(us: u64) -> f64 {
    us as f64 / 1000.0
}

impl LatencyHistogram {
    /// Width of a bin of the binned views (`cdf`, `bin_counts`,
    /// `overflow_count`, `percentile`, `fraction_at_or_below`), µs: 1 ms.
    /// The counts themselves are exact.
    pub const BIN_US: u64 = 1_000;
    /// Number of bins, so the binned views cover `[0, 4.096 s)`.
    pub const N_BINS: usize = 4096;

    /// Record one response time, µs.
    pub fn record(&mut self, us: u64) {
        *self.counts.entry(us).or_insert(0) += 1;
        self.sum_us += us;
        self.n += 1;
        self.max_us = self.max_us.max(us);
    }

    /// Merge another histogram. Integer adds only, so merges commute.
    pub fn merge(&mut self, other: &Self) {
        for (&us, &c) in &other.counts {
            *self.counts.entry(us).or_insert(0) += c;
        }
        self.sum_us += other.sum_us;
        self.n += other.n;
        self.max_us = self.max_us.max(other.max_us);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Exact sum of every recorded value, µs.
    pub fn sum_us(&self) -> u64 {
        self.sum_us
    }

    /// Mean latency in ms (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            us_to_ms(self.sum_us) / self.n as f64
        }
    }

    /// Largest recorded value, ms.
    pub fn max(&self) -> f64 {
        us_to_ms(self.max_us)
    }

    /// The exact q-quantile, µs: the recorded value of rank `ceil(q·n)`
    /// clamped to `[1, n]` in ascending order, or 0 when empty.
    pub fn quantile_us(&self, q: f64) -> u64 {
        if self.n == 0 {
            return 0;
        }
        let rank = ((q * self.n as f64).ceil() as u64).clamp(1, self.n);
        let mut values: Vec<(u64, u64)> = self.counts.iter().map(|(&us, &c)| (us, c)).collect();
        values.sort_unstable();
        let mut seen = 0;
        values
            .into_iter()
            .find_map(|(us, c)| {
                seen += c;
                (seen >= rank).then_some(us)
            })
            .expect("the counts sum to n")
    }

    /// The q-quantile (`0 <= q <= 1`) at bin resolution: the upper edge of
    /// the bin holding [`Self::quantile_us`], or the max when that value
    /// lies past the last bin.
    pub fn percentile(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "quantile out of range");
        if self.n == 0 {
            return 0.0;
        }
        match self.bin_of(self.quantile_us(q)) {
            Some(i) => (i as f64 + 1.0) * self.bin_ms(),
            None => self.max(),
        }
    }

    /// CDF points `(upper bin edge ms, cumulative fraction)` for every bin
    /// up to the last non-empty one — the series plotted in the paper's
    /// figures — then `(max, 1)` when samples overflow the bins.
    pub fn cdf(&self) -> Vec<(f64, f64)> {
        if self.n == 0 {
            return Vec::new();
        }
        let bins = self.bin_counts();
        let last_used = bins.iter().rposition(|&c| c > 0).unwrap_or(0);
        let mut acc = 0u64;
        let mut out: Vec<(f64, f64)> = bins[..=last_used]
            .iter()
            .enumerate()
            .map(|(i, &c)| {
                acc += c;
                ((i as f64 + 1.0) * self.bin_ms(), acc as f64 / self.n as f64)
            })
            .collect();
        if acc < self.n {
            out.push((self.max(), 1.0));
        }
        out
    }

    /// Bin width in ms.
    pub fn bin_ms(&self) -> f64 {
        us_to_ms(Self::BIN_US)
    }

    /// The bin a value falls in, `None` past the last bin.
    fn bin_of(&self, us: u64) -> Option<usize> {
        let i = (us / Self::BIN_US) as usize;
        (i < Self::N_BINS).then_some(i)
    }

    /// Per-bin sample counts (bin `i` covers `[i*bin_ms, (i+1)*bin_ms)`).
    pub fn bin_counts(&self) -> Vec<u64> {
        let mut bins = vec![0; Self::N_BINS];
        for (&us, &c) in &self.counts {
            if let Some(i) = self.bin_of(us) {
                bins[i] += c;
            }
        }
        bins
    }

    /// Samples past the last bin.
    pub fn overflow_count(&self) -> u64 {
        self.counts
            .iter()
            .filter(|&(&us, _)| self.bin_of(us).is_none())
            .map(|(_, &c)| c)
            .sum()
    }

    /// Fraction of samples at or below `ms`, at bin resolution: a sample
    /// counts when its bin starts at or below `ms`.
    pub fn fraction_at_or_below(&self, ms: f64) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let idx = (ms / self.bin_ms()).floor() as usize;
        // Overflow samples lie somewhere in [bin range end, max]; they are
        // certainly at-or-below `ms` once `ms` reaches the recorded max.
        let overflow_in = idx >= Self::N_BINS && ms >= self.max();
        let acc: u64 = self
            .counts
            .iter()
            .filter(|&(&us, _)| self.bin_of(us).map_or(overflow_in, |i| i <= idx))
            .map(|(_, &c)| c)
            .sum();
        acc as f64 / self.n as f64
    }
}

/// Why a measured request cost what it did. Exactly one cause per
/// request: the disjoint [`SimReport`] buckets are the per-cause request
/// counts of a [`Tally`], so they always sum to `measured_requests`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cause {
    /// Served by a replica at the first-hop server (hop latency only).
    ReplicaHit,
    /// Served by the first-hop server's cache.
    CacheHit,
    /// Coalesced onto an in-flight fetch of the same object (the "delayed
    /// hit" of Atre et al.); pays the remaining fetch latency but adds no
    /// network traffic of its own. Only occurs with a positive
    /// [`crate::SimConfig::fetch_latency`].
    DelayedHit,
    /// Fetched from another CDN server's replica.
    RemoteReplica,
    /// Fetched from the primary (origin) site.
    OriginFetch,
    /// Completed only after skipping at least one dead holder; pays a
    /// retry surcharge per skip on top of hop latency.
    Failover,
    /// No live copy anywhere — dropped, delivering nothing.
    Failed,
}

impl Cause {
    /// Every cause, in reporting order.
    pub const ALL: [Cause; 7] = [
        Cause::ReplicaHit,
        Cause::CacheHit,
        Cause::DelayedHit,
        Cause::RemoteReplica,
        Cause::OriginFetch,
        Cause::Failover,
        Cause::Failed,
    ];

    /// Stable snake_case label used in metrics counters and sample JSONL.
    pub fn label(self) -> &'static str {
        match self {
            Cause::ReplicaHit => "replica_hit",
            Cause::CacheHit => "cache_hit",
            Cause::DelayedHit => "delayed_hit",
            Cause::RemoteReplica => "remote_replica",
            Cause::OriginFetch => "origin_fetch",
            Cause::Failover => "failover",
            Cause::Failed => "failed",
        }
    }
}

/// Requests attributed to one cause, with the total latency they paid.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CauseLatency {
    pub requests: u64,
    pub latency_us: u64,
}

/// Per-cause latency attribution over every measured request — the
/// "where is latency paid" rollup the sampled traces drill into.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CauseBreakdown {
    pub replica_hit: CauseLatency,
    pub cache_hit: CauseLatency,
    pub delayed_hit: CauseLatency,
    pub remote_replica: CauseLatency,
    pub origin_fetch: CauseLatency,
    pub failover: CauseLatency,
    pub failed: CauseLatency,
    /// Retry-penalty µs paid by failover requests on top of hop latency
    /// (already included in `failover.latency_us`).
    pub failover_surcharge_us: u64,
}

impl CauseBreakdown {
    pub fn get(&self, cause: Cause) -> CauseLatency {
        match cause {
            Cause::ReplicaHit => self.replica_hit,
            Cause::CacheHit => self.cache_hit,
            Cause::DelayedHit => self.delayed_hit,
            Cause::RemoteReplica => self.remote_replica,
            Cause::OriginFetch => self.origin_fetch,
            Cause::Failover => self.failover,
            Cause::Failed => self.failed,
        }
    }

    fn slot(&mut self, cause: Cause) -> &mut CauseLatency {
        match cause {
            Cause::ReplicaHit => &mut self.replica_hit,
            Cause::CacheHit => &mut self.cache_hit,
            Cause::DelayedHit => &mut self.delayed_hit,
            Cause::RemoteReplica => &mut self.remote_replica,
            Cause::OriginFetch => &mut self.origin_fetch,
            Cause::Failover => &mut self.failover,
            Cause::Failed => &mut self.failed,
        }
    }

    /// Attribute one request's latency (µs) to `cause`.
    pub fn record(&mut self, cause: Cause, latency_us: u64) {
        let slot = self.slot(cause);
        slot.requests += 1;
        slot.latency_us += latency_us;
    }

    /// Fold another breakdown in (field-wise integer sums, so merges
    /// commute).
    pub fn merge(&mut self, other: &Self) {
        for cause in Cause::ALL {
            let o = other.get(cause);
            let slot = self.slot(cause);
            slot.requests += o.requests;
            slot.latency_us += o.latency_us;
        }
        self.failover_surcharge_us += other.failover_surcharge_us;
    }

    /// Requests across every cause — equals `measured_requests`.
    pub fn total_requests(&self) -> u64 {
        Cause::ALL.iter().map(|&c| self.get(c).requests).sum()
    }

    /// Latency across every cause, µs — equals the histogram's sum.
    pub fn total_latency_us(&self) -> u64 {
        Cause::ALL.iter().map(|&c| self.get(c).latency_us).sum()
    }
}

/// One measured request as the engine priced it: the input to
/// [`Tally::record`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Outcome {
    pub cause: Cause,
    /// Latency paid, µs (0 for a failed request).
    pub latency_us: u64,
    /// Retry-penalty share of `latency_us`, µs.
    pub penalty_us: u64,
    /// Hops to the holder the request's route reached.
    pub hops: u32,
    /// Size of the requested object.
    pub bytes: u64,
    /// The route reached the primary (origin) site.
    pub from_origin: bool,
}

/// The counters of a set of measured requests. A server, a timeline window,
/// a shard and a whole run each keep one; [`Tally::record`] is the only
/// code that decides which counters a request moves, and tallies combine by
/// [`Tally::merge`], so every level counts the same request the same way.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Requests and latency by cause; the request counts are the disjoint
    /// report buckets.
    pub cause: CauseBreakdown,
    /// Hops travelled beyond the first hop — the paper's Figure 6 cost.
    pub cost_hops: u64,
    /// Bytes delivered, and the share the origin sites served.
    pub total_bytes: u64,
    pub origin_bytes: u64,
}

impl Tally {
    /// Count one measured request under its cause, with its latency, and:
    /// * a failed request delivered nothing: no latency, bytes or hops;
    /// * a delayed hit rides the pending fetch: its bytes reach the client,
    ///   but it adds no hops and no origin bytes of its own;
    /// * any other request adds its bytes and hops, and its bytes are
    ///   origin bytes when the origin served it — also when it failed over
    ///   there, which counts as a failover, not as an origin fetch;
    /// * a failover's retry penalty adds to the failover surcharge.
    pub fn record(&mut self, o: &Outcome) {
        match o.cause {
            Cause::Failed => self.cause.record(Cause::Failed, 0),
            Cause::DelayedHit => {
                self.cause.record(Cause::DelayedHit, o.latency_us);
                self.total_bytes += o.bytes;
            }
            cause => {
                self.cause.record(cause, o.latency_us);
                self.total_bytes += o.bytes;
                self.cost_hops += u64::from(o.hops);
                if o.from_origin {
                    self.origin_bytes += o.bytes;
                }
                if cause == Cause::Failover {
                    self.cause.failover_surcharge_us += o.penalty_us;
                }
            }
        }
    }

    /// Fold another tally in (integer sums, so merges commute).
    pub fn merge(&mut self, other: &Self) {
        self.cause.merge(&other.cause);
        self.cost_hops += other.cost_hops;
        self.total_bytes += other.total_bytes;
        self.origin_bytes += other.origin_bytes;
    }

    /// Every request counted.
    pub fn requests(&self) -> u64 {
        self.cause.total_requests()
    }

    /// Requests answered entirely at the first-hop server.
    pub fn local_requests(&self) -> u64 {
        self.cause.replica_hit.requests + self.cause.cache_hit.requests
    }

    /// The named counters, in the order the timeline exports list them.
    pub fn counters(&self) -> [(&'static str, u64); 12] {
        let c = &self.cause;
        [
            ("requests", self.requests()),
            ("local_requests", self.local_requests()),
            ("cache_hits", c.cache_hit.requests),
            ("replica_hits", c.replica_hit.requests),
            ("delayed_hits", c.delayed_hit.requests),
            ("origin_fetches", c.origin_fetch.requests),
            ("peer_fetches", c.remote_replica.requests),
            ("failover_fetches", c.failover.requests),
            ("failed_requests", c.failed.requests),
            ("cost_hops", self.cost_hops),
            ("total_bytes", self.total_bytes),
            ("origin_bytes", self.origin_bytes),
        ]
    }
}

/// Full path of one sampled request: what it asked for, how routing
/// resolved it, and what each leg of the resolution cost.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestSample {
    pub server: usize,
    /// Request index in the server's stream (warm-up included) — the
    /// sampler key, so samples are reproducible at any thread count.
    pub index: u64,
    pub site: u32,
    pub object: u32,
    pub flavor: Flavor,
    pub resolution: Resolution,
    pub cause: Cause,
    /// Hops beyond the first-hop server to whoever served the request.
    pub hops: u32,
    /// Dead holders skipped before completion (each one cost a retry).
    pub dead_skipped: u32,
    /// The serving holder was the primary (origin) site.
    pub from_origin: bool,
    /// Total latency paid (0 for failed requests — nothing delivered).
    pub latency_ms: f64,
    /// Retry-penalty share of `latency_ms`.
    pub penalty_ms: f64,
}

fn flavor_label(f: Flavor) -> &'static str {
    match f {
        Flavor::Normal => "normal",
        Flavor::Expired => "expired",
        Flavor::Uncacheable => "uncacheable",
    }
}

fn resolution_label(r: Resolution) -> &'static str {
    match r {
        Resolution::Replica => "replica",
        Resolution::CacheHit => "cache_hit",
        Resolution::CacheRefresh => "cache_refresh",
        Resolution::CacheMiss => "cache_miss",
        Resolution::Bypass => "bypass",
        Resolution::Failed => "failed",
    }
}

impl RequestSample {
    /// Append this sample as one JSONL line tagged with `run` (the figure
    /// panel / strategy that produced it). Every field is deterministic.
    pub fn render_jsonl_into(&self, out: &mut String, run: &str) {
        out.push_str("{\"run\":");
        cdn_telemetry::json::escape_into(out, run);
        let _ = write!(
            out,
            ",\"server\":{},\"index\":{},\"site\":{},\"object\":{},\"flavor\":\"{}\",\
             \"resolution\":\"{}\",\"cause\":\"{}\",\"hops\":{},\"dead_skipped\":{},\
             \"from_origin\":{},\"latency_ms\":{},\"penalty_ms\":{}}}",
            self.server,
            self.index,
            self.site,
            self.object,
            flavor_label(self.flavor),
            resolution_label(self.resolution),
            self.cause.label(),
            self.hops,
            self.dead_skipped,
            self.from_origin,
            self.latency_ms,
            self.penalty_ms,
        );
        out.push('\n');
    }
}

/// Render every sample in `report` as JSONL tagged with `run`.
pub fn render_samples_jsonl(run: &str, report: &SimReport, out: &mut String) {
    for s in &report.samples {
        s.render_jsonl_into(out, run);
    }
}

/// Per-server digest within a [`SimReport`] — the operator's per-POP view.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServerSummary {
    pub server: usize,
    pub measured_requests: u64,
    pub mean_latency_ms: f64,
    pub local_ratio: f64,
    pub cache_hit_ratio: f64,
    pub origin_fetches: u64,
    /// Measured requests this server's clients lost to faults.
    pub failed_requests: u64,
    /// Fraction of measured requests that completed (1.0 when nothing was
    /// measured — an idle server is not an unavailable one).
    pub availability: f64,
}

/// Whole-system simulation result.
#[derive(Debug, Clone, PartialEq)]
pub struct SimReport {
    /// Response-time distribution over measured (post-warm-up) requests.
    pub histogram: LatencyHistogram,
    /// Mean response time over measured requests, ms.
    pub mean_latency_ms: f64,
    /// Average network cost (hops travelled beyond the first-hop server)
    /// per measured request — the paper's Figure 6 metric.
    pub mean_cost_hops: f64,
    /// All requests processed, including warm-up.
    pub total_requests: u64,
    /// Requests measured (post-warm-up).
    pub measured_requests: u64,
    /// Measured requests answered entirely at the first-hop server
    /// (replica or fresh cache hit).
    pub local_requests: u64,
    /// Measured cache hits (fresh; excludes refresh-on-expired hits).
    pub cache_hits: u64,
    /// Measured requests served by a site replica at the first hop.
    pub replica_hits: u64,
    /// Measured requests coalesced onto an in-flight fetch of the same
    /// object (delayed hits). Disjoint from every other bucket: excluded
    /// from `local_requests`/`cache_hits`, and zero unless
    /// [`crate::SimConfig::fetch_latency`] is positive.
    pub delayed_hits: u64,
    /// Measured requests that had to travel to a primary (origin) site —
    /// the traffic a CDN exists to absorb.
    pub origin_fetches: u64,
    /// Measured requests served by another CDN server's replica.
    pub peer_fetches: u64,
    /// Measured remote fetches that skipped at least one dead holder before
    /// completing (disjoint from `origin_fetches`/`peer_fetches`), and the
    /// latency distribution of just those degraded requests.
    pub failover_fetches: u64,
    pub failover_histogram: LatencyHistogram,
    /// Measured requests with no live copy anywhere — dropped entirely.
    pub failed_requests: u64,
    /// Bytes of measured responses (total) and the share fetched from the
    /// origin sites.
    pub total_bytes: u64,
    pub origin_bytes: u64,
    /// Per-server digests, ordered by server id.
    pub per_server: Vec<ServerSummary>,
    /// Per-cause latency attribution over every measured request; the
    /// per-cause request counts sum to `measured_requests`.
    pub cause: CauseBreakdown,
    /// 1-in-N sampled request paths (empty unless
    /// [`crate::SimConfig::sample_every`] is set), in server order.
    pub samples: Vec<RequestSample>,
    /// Virtual-time windowed timeline (`None` unless
    /// [`crate::SimConfig::window`] is a positive width). Observational
    /// only — enabling it perturbs no other field.
    pub timeline: Option<crate::timeline::Timeline>,
}

impl SimReport {
    /// Load imbalance across servers: max/mean of measured requests
    /// handled at the first hop. 1.0 = perfectly even.
    pub fn load_imbalance(&self) -> f64 {
        if self.per_server.is_empty() {
            return 1.0;
        }
        let max = self
            .per_server
            .iter()
            .map(|s| s.measured_requests)
            .max()
            .unwrap_or(0) as f64;
        let mean = self.measured_requests as f64 / self.per_server.len() as f64;
        if mean == 0.0 {
            1.0
        } else {
            max / mean
        }
    }

    /// Fraction of measured requests answered locally.
    pub fn local_ratio(&self) -> f64 {
        if self.measured_requests == 0 {
            0.0
        } else {
            self.local_requests as f64 / self.measured_requests as f64
        }
    }

    /// Cache hit ratio over measured requests.
    pub fn cache_hit_ratio(&self) -> f64 {
        if self.measured_requests == 0 {
            0.0
        } else {
            self.cache_hits as f64 / self.measured_requests as f64
        }
    }

    /// Origin offload: the fraction of measured requests the CDN kept away
    /// from the primary sites.
    pub fn origin_offload(&self) -> f64 {
        if self.measured_requests == 0 {
            0.0
        } else {
            1.0 - self.origin_fetches as f64 / self.measured_requests as f64
        }
    }

    /// Byte-weighted origin offload: the fraction of response *bytes* the
    /// CDN kept off the origins (what egress billing sees).
    pub fn origin_offload_bytes(&self) -> f64 {
        if self.total_bytes == 0 {
            0.0
        } else {
            1.0 - self.origin_bytes as f64 / self.total_bytes as f64
        }
    }

    /// Fraction of measured requests that completed (were not dropped by
    /// faults). 1.0 for an empty run and for any fault-free run.
    pub fn availability(&self) -> f64 {
        if self.measured_requests == 0 {
            1.0
        } else {
            1.0 - self.failed_requests as f64 / self.measured_requests as f64
        }
    }

    /// Fraction of measured requests that completed only by failing over
    /// past at least one dead holder.
    pub fn failover_ratio(&self) -> f64 {
        if self.measured_requests == 0 {
            0.0
        } else {
            self.failover_fetches as f64 / self.measured_requests as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_mean() {
        let mut h = LatencyHistogram::default();
        h.record(10_000);
        h.record(20_000);
        h.record(30_500);
        assert_eq!(h.count(), 3);
        assert_eq!(h.sum_us(), 60_500);
        assert_eq!(h.mean(), 60.5 / 3.0);
        assert_eq!(h.max(), 30.5);
        // 30.5 ms lands in the [30, 31) ms bin.
        assert_eq!(h.bin_counts()[30], 1);
    }

    #[test]
    fn overflow_counted() {
        let mut h = LatencyHistogram::default();
        h.record(5_000);
        h.record(5_000_000);
        assert_eq!(h.count(), 2);
        let cdf = h.cdf();
        assert_eq!(cdf.last().unwrap().1, 1.0);
        assert_eq!(cdf.last().unwrap().0, 5_000.0);
    }

    #[test]
    fn cdf_is_monotone_and_ends_at_one() {
        let mut h = LatencyHistogram::default();
        for v in [1_000, 3_000, 3_500, 7_000, 20_000, 20_000] {
            h.record(v);
        }
        let cdf = h.cdf();
        for w in cdf.windows(2) {
            assert!(w[0].0 < w[1].0);
            assert!(w[0].1 <= w[1].1);
        }
        assert!((cdf.last().unwrap().1 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn percentile_bounds() {
        let mut h = LatencyHistogram::default();
        for i in 0..100 {
            h.record(i * 1_000 + 500);
        }
        assert!((h.percentile(0.5) - 50.0).abs() <= 1.0);
        assert!((h.percentile(0.99) - 99.0).abs() <= 1.0);
        assert!(h.percentile(0.0) >= 1.0);
    }

    #[test]
    fn quantile_us_is_the_exact_order_statistic() {
        let fed = |values: &[u64]| {
            let mut h = LatencyHistogram::default();
            for &v in values {
                h.record(v);
            }
            h
        };
        assert_eq!([0.0, 0.5, 1.0].map(|q| fed(&[]).quantile_us(q)), [0; 3]);
        // Rank ceil(q·n), clamped to [1, n], of 20, 20, 40, 60, 100 ms.
        let values = [60_000, 20_000, 100_000, 20_000, 40_000];
        let all = fed(&values);
        let ranked = [0.0, 0.4, 0.41, 0.8, 0.99, 1.0].map(|q| all.quantile_us(q));
        assert_eq!(ranked, [20_000, 20_000, 40_000, 60_000, 100_000, 100_000]);
        // Merging the parts in either order equals one feed.
        let (a, b) = (fed(&values[..2]), fed(&values[2..]));
        let (mut ab, mut ba) = (a.clone(), b.clone());
        ab.merge(&b);
        ba.merge(&a);
        assert_eq!(ab, all);
        assert_eq!(ba, all);
    }

    #[test]
    fn fraction_at_or_below_matches_cdf() {
        let mut h = LatencyHistogram::default();
        h.record(10_000);
        h.record(20_000);
        assert!((h.fraction_at_or_below(10.0) - 0.5).abs() < 1e-12);
        assert!((h.fraction_at_or_below(9.0) - 0.0).abs() < 1e-12);
        assert!((h.fraction_at_or_below(25.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn overflow_bin_accounting() {
        // 4,096 one-ms bins cover [0, 4096); half the samples land past
        // the end.
        let mut h = LatencyHistogram::default();
        for v in [2_000, 4_000, 5_000_000, 50_000_000] {
            h.record(v);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.max(), 50_000.0);
        // Below the bin range end, only binned samples count.
        assert!((h.fraction_at_or_below(4_000.0) - 0.5).abs() < 1e-12);
        // Between the range end and the max the overflow location is
        // unknown — the conservative answer still excludes it.
        assert!((h.fraction_at_or_below(10_000.0) - 0.5).abs() < 1e-12);
        // At or past the recorded max, every sample is accounted for.
        assert!((h.fraction_at_or_below(50_000.0) - 1.0).abs() < 1e-12);
        assert!((h.fraction_at_or_below(1e9) - 1.0).abs() < 1e-12);
        // The top quantile comes from the overflow's recorded max.
        assert_eq!(h.percentile(1.0), 50_000.0);
        assert_eq!(h.mean(), (2.0 + 4.0 + 5_000.0 + 50_000.0) / 4.0);
    }

    #[test]
    fn cdf_with_overflow_is_monotone_and_ends_at_one() {
        let mut h = LatencyHistogram::default();
        for v in [1_000, 3_000, 5_000, 4_095_900, 5_000_000, 7_700_000] {
            h.record(v);
        }
        let cdf = h.cdf();
        for w in cdf.windows(2) {
            assert!(w[0].0 < w[1].0, "x must be strictly increasing: {cdf:?}");
            assert!(w[0].1 <= w[1].1, "y must be non-decreasing: {cdf:?}");
        }
        let &(last_x, last_y) = cdf.last().unwrap();
        assert_eq!(last_y, 1.0, "CDF must end at exactly 1.0");
        assert_eq!(last_x, 7_700.0, "final point sits at the recorded max");
        // The pre-overflow prefix accounts for the four binned samples.
        assert!(cdf
            .iter()
            .any(|&(x, y)| x == 4_096.0 && (y - 4.0 / 6.0).abs() < 1e-12));
    }

    #[test]
    fn zero_request_histogram_is_well_defined() {
        let h = LatencyHistogram::default();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.max(), 0.0);
        assert!(h.cdf().is_empty());
        assert_eq!(h.percentile(0.0), 0.0);
        assert_eq!(h.percentile(0.5), 0.0);
        assert_eq!(h.percentile(1.0), 0.0);
        assert_eq!(h.fraction_at_or_below(0.0), 0.0);
        assert_eq!(h.fraction_at_or_below(1e6), 0.0);
    }

    #[test]
    fn merge_combines_everything() {
        let mut a = LatencyHistogram::default();
        let mut b = LatencyHistogram::default();
        a.record(1_000);
        b.record(2_000);
        b.record(10_000_000);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.sum_us(), 10_003_000);
        assert_eq!(a.max(), 10_000.0);
        assert_eq!(a.overflow_count(), 1);
        assert_eq!(a.mean(), (1.0 + 2.0 + 10_000.0) / 3.0);
    }

    #[test]
    fn cause_breakdown_records_and_merges() {
        let mut a = CauseBreakdown::default();
        a.record(Cause::CacheHit, 20_000);
        a.record(Cause::Failover, 220_000);
        a.failover_surcharge_us += 100_000;
        let mut b = CauseBreakdown::default();
        b.record(Cause::CacheHit, 20_000);
        b.record(Cause::Failed, 0);
        a.merge(&b);
        assert_eq!(a.cache_hit.requests, 2);
        assert_eq!(a.get(Cause::CacheHit).latency_us, 40_000);
        assert_eq!(a.failed.requests, 1);
        assert_eq!(a.total_requests(), 4);
        assert_eq!(a.total_latency_us(), 260_000);
        assert_eq!(a.failover_surcharge_us, 100_000);
        // Labels are stable — counters and JSONL key off them.
        let labels: Vec<&str> = Cause::ALL.iter().map(|c| c.label()).collect();
        assert_eq!(
            labels,
            [
                "replica_hit",
                "cache_hit",
                "delayed_hit",
                "remote_replica",
                "origin_fetch",
                "failover",
                "failed"
            ]
        );
    }

    #[test]
    fn tally_records_each_cause_by_the_bucket_rules() {
        let outcome = |cause, latency_us, penalty_us, hops, from_origin| Outcome {
            cause,
            latency_us,
            penalty_us,
            hops,
            bytes: 100,
            from_origin,
        };
        // One outcome per cause, in `Cause::ALL` order.
        let outcomes = [
            outcome(Cause::ReplicaHit, 20_000, 0, 0, false),
            outcome(Cause::CacheHit, 20_000, 0, 0, false),
            // A miss that rode a pending fetch from the origin, 4 hops away.
            outcome(Cause::DelayedHit, 100_000, 0, 4, true),
            outcome(Cause::RemoteReplica, 60_000, 0, 2, false),
            outcome(Cause::OriginFetch, 100_000, 0, 4, true),
            // Skipped one dead holder, then reached the origin.
            outcome(Cause::Failover, 250_000, 150_000, 4, true),
            // Fields the rules must ignore for a dropped request.
            outcome(Cause::Failed, 20_000, 150_000, 4, true),
        ];
        let tallies = outcomes.map(|o| {
            let mut t = Tally::default();
            t.record(&o);
            t
        });
        for (t, cause) in tallies.iter().zip(Cause::ALL) {
            assert_eq!((t.requests(), t.cause.get(cause).requests), (1, 1));
        }
        let [.., delayed, _, _, failover, failed] = tallies;
        // A failover served by the origin adds origin bytes but is not an
        // origin fetch.
        assert_eq!(failover.origin_bytes, 100);
        assert_eq!(failover.cause.origin_fetch.requests, 0);
        assert_eq!(failover.cause.failover_surcharge_us, 150_000);
        // A delayed hit adds bytes and latency but no hops and no origin
        // bytes.
        assert_eq!(delayed.total_bytes, 100);
        assert_eq!(delayed.cause.total_latency_us(), 100_000);
        assert_eq!((delayed.cost_hops, delayed.origin_bytes), (0, 0));
        // A failed request adds one count and nothing else.
        let mut one_failure = Tally::default();
        one_failure.cause.failed.requests = 1;
        assert_eq!(failed, one_failure);
        // Merging two tallies equals one tally that recorded both streams.
        let (mut a, mut b, mut both) = (Tally::default(), Tally::default(), Tally::default());
        for (i, o) in outcomes.iter().enumerate() {
            both.record(o);
            if i % 2 == 0 {
                a.record(o);
            } else {
                b.record(o);
            }
        }
        a.merge(&b);
        assert_eq!(a, both);
        assert_eq!(both.requests(), 7);
        assert_eq!(both.local_requests(), 2);
    }

    #[test]
    fn request_sample_renders_parseable_jsonl() {
        let sample = RequestSample {
            server: 3,
            index: 42,
            site: 7,
            object: 19,
            flavor: Flavor::Expired,
            resolution: Resolution::CacheRefresh,
            cause: Cause::Failover,
            hops: 5,
            dead_skipped: 1,
            from_origin: false,
            latency_ms: 270.0,
            penalty_ms: 150.0,
        };
        let mut out = String::new();
        sample.render_jsonl_into(&mut out, "fig3:\"hybrid\"");
        assert!(out.ends_with('\n'));
        let doc = cdn_telemetry::json::parse(out.trim_end()).expect("sample line parses");
        assert_eq!(doc.get("run").unwrap().as_str(), Some("fig3:\"hybrid\""));
        assert_eq!(doc.get("server").unwrap().as_u64(), Some(3));
        assert_eq!(doc.get("index").unwrap().as_u64(), Some(42));
        assert_eq!(doc.get("flavor").unwrap().as_str(), Some("expired"));
        assert_eq!(
            doc.get("resolution").unwrap().as_str(),
            Some("cache_refresh")
        );
        assert_eq!(doc.get("cause").unwrap().as_str(), Some("failover"));
        assert_eq!(doc.get("latency_ms").unwrap().as_f64(), Some(270.0));
        assert_eq!(doc.get("penalty_ms").unwrap().as_f64(), Some(150.0));
    }

    #[test]
    fn empty_report_ratios_are_zero() {
        let r = SimReport {
            histogram: LatencyHistogram::default(),
            mean_latency_ms: 0.0,
            mean_cost_hops: 0.0,
            total_requests: 0,
            measured_requests: 0,
            local_requests: 0,
            cache_hits: 0,
            replica_hits: 0,
            delayed_hits: 0,
            origin_fetches: 0,
            peer_fetches: 0,
            failover_fetches: 0,
            failover_histogram: LatencyHistogram::default(),
            failed_requests: 0,
            total_bytes: 0,
            origin_bytes: 0,
            per_server: Vec::new(),
            cause: CauseBreakdown::default(),
            samples: Vec::new(),
            timeline: None,
        };
        assert_eq!(r.local_ratio(), 0.0);
        assert_eq!(r.cache_hit_ratio(), 0.0);
        assert_eq!(r.origin_offload(), 0.0);
        assert_eq!(r.load_imbalance(), 1.0);
        assert_eq!(r.availability(), 1.0);
        assert_eq!(r.failover_ratio(), 0.0);
    }
}
