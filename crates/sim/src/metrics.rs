//! Latency and cost accounting.

use crate::engine::Resolution;
use cdn_workload::Flavor;
use std::fmt::Write as _;

/// Histogram of response times with fixed-width bins plus an overflow bin.
/// The paper's CDF plots are exactly `cdf()` of this structure. Samples
/// are whole microseconds, so the sum, the max and every merge are exact
/// integer arithmetic; the millisecond accessors convert on the way out.
#[derive(Debug, Clone)]
pub struct LatencyHistogram {
    bin_us: u64,
    counts: Vec<u64>,
    overflow: u64,
    sum_us: u64,
    n: u64,
    max_us: u64,
}

/// The simulator's sizing: 1 ms bins up to 4.096 s.
impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new(1_000, 4096)
    }
}

/// Microseconds to milliseconds, the unit every reported latency is in.
/// Exact when `us` is a whole number of milliseconds below 2^53 µs, as
/// every latency the paper's 20 ms hops produce is.
pub(crate) fn us_to_ms(us: u64) -> f64 {
    us as f64 / 1000.0
}

impl LatencyHistogram {
    /// `bin_us`-wide bins covering `[0, bin_us * n_bins)` µs.
    ///
    /// # Panics
    /// Panics unless `bin_us > 0` and `n_bins > 0`.
    pub fn new(bin_us: u64, n_bins: usize) -> Self {
        assert!(bin_us > 0, "invalid bin width");
        assert!(n_bins > 0, "need at least one bin");
        Self {
            bin_us,
            counts: vec![0; n_bins],
            overflow: 0,
            sum_us: 0,
            n: 0,
            max_us: 0,
        }
    }

    /// Record one response time, µs.
    pub fn record(&mut self, us: u64) {
        match self.counts.get_mut((us / self.bin_us) as usize) {
            Some(bin) => *bin += 1,
            None => self.overflow += 1,
        }
        self.sum_us += us;
        self.n += 1;
        self.max_us = self.max_us.max(us);
    }

    /// Merge another histogram (must have identical shape). Integer adds
    /// only, so merges commute.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn merge(&mut self, other: &Self) {
        assert_eq!(self.bin_us, other.bin_us, "bin width mismatch");
        assert_eq!(self.counts.len(), other.counts.len(), "bin count mismatch");
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.overflow += other.overflow;
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

    /// The q-quantile (`0 <= q <= 1`) via the histogram (upper bin edge).
    pub fn percentile(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "quantile out of range");
        if self.n == 0 {
            return 0.0;
        }
        let target = (q * self.n as f64).ceil().max(1.0) as u64;
        let mut acc = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            acc += c;
            if acc >= target {
                return (i as f64 + 1.0) * self.bin_ms();
            }
        }
        self.max()
    }

    /// CDF points `(upper bin edge ms, cumulative fraction)` for every
    /// non-empty prefix bin — the series plotted in the paper's figures.
    pub fn cdf(&self) -> Vec<(f64, f64)> {
        let mut out = Vec::new();
        if self.n == 0 {
            return out;
        }
        let mut acc = 0u64;
        let last_used = self.counts.iter().rposition(|&c| c > 0).unwrap_or(0);
        for (i, &c) in self.counts.iter().enumerate().take(last_used + 1) {
            acc += c;
            out.push(((i as f64 + 1.0) * self.bin_ms(), acc as f64 / self.n as f64));
        }
        if self.overflow > 0 {
            out.push((self.max(), 1.0));
        }
        out
    }

    /// Bin width in ms.
    pub fn bin_ms(&self) -> f64 {
        us_to_ms(self.bin_us)
    }

    /// Per-bin sample counts (bin `i` covers `[i*bin_ms, (i+1)*bin_ms)`).
    pub fn bin_counts(&self) -> &[u64] {
        &self.counts
    }

    /// Samples past the last bin.
    pub fn overflow_count(&self) -> u64 {
        self.overflow
    }

    /// Fraction of samples at or below `ms`.
    pub fn fraction_at_or_below(&self, ms: f64) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let idx = (ms / self.bin_ms()).floor() as usize;
        let mut acc: u64 = self.counts.iter().take(idx + 1).sum();
        // Overflow samples lie somewhere in [bin range end, max]; they are
        // certainly at-or-below `ms` once `ms` reaches the recorded max.
        if idx >= self.counts.len() && ms >= self.max() {
            acc += self.overflow;
        }
        acc as f64 / self.n as f64
    }
}

/// Why a measured request cost what it did. Exactly one cause per
/// request, mirroring the disjoint [`SimReport`] buckets: the per-cause
/// request counts always sum to `measured_requests`.
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
#[derive(Debug, Clone, Copy)]
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
#[derive(Debug, Clone)]
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
        let mut h = LatencyHistogram::new(1_000, 100);
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
        let mut h = LatencyHistogram::new(1_000, 10);
        h.record(5_000);
        h.record(500_000);
        assert_eq!(h.count(), 2);
        let cdf = h.cdf();
        assert_eq!(cdf.last().unwrap().1, 1.0);
        assert_eq!(cdf.last().unwrap().0, 500.0);
    }

    #[test]
    fn cdf_is_monotone_and_ends_at_one() {
        let mut h = LatencyHistogram::new(2_000, 50);
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
        let mut h = LatencyHistogram::new(1_000, 100);
        for i in 0..100 {
            h.record(i * 1_000 + 500);
        }
        assert!((h.percentile(0.5) - 50.0).abs() <= 1.0);
        assert!((h.percentile(0.99) - 99.0).abs() <= 1.0);
        assert!(h.percentile(0.0) >= 1.0);
    }

    #[test]
    fn fraction_at_or_below_matches_cdf() {
        let mut h = LatencyHistogram::new(1_000, 100);
        h.record(10_000);
        h.record(20_000);
        assert!((h.fraction_at_or_below(10.0) - 0.5).abs() < 1e-12);
        assert!((h.fraction_at_or_below(9.0) - 0.0).abs() < 1e-12);
        assert!((h.fraction_at_or_below(25.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn overflow_bin_accounting() {
        // 10 one-ms bins cover [0, 10); half the samples land past the end.
        let mut h = LatencyHistogram::new(1_000, 10);
        for v in [2_000, 4_000, 50_000, 500_000] {
            h.record(v);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.max(), 500.0);
        // Below the bin range end, only binned samples count.
        assert!((h.fraction_at_or_below(9.0) - 0.5).abs() < 1e-12);
        // Between the range end and the max the overflow location is
        // unknown — the conservative answer still excludes it.
        assert!((h.fraction_at_or_below(100.0) - 0.5).abs() < 1e-12);
        // At or past the recorded max, every sample is accounted for.
        assert!((h.fraction_at_or_below(500.0) - 1.0).abs() < 1e-12);
        assert!((h.fraction_at_or_below(1e9) - 1.0).abs() < 1e-12);
        // The top quantile comes from the overflow's recorded max.
        assert_eq!(h.percentile(1.0), 500.0);
        assert_eq!(h.mean(), (2.0 + 4.0 + 50.0 + 500.0) / 4.0);
    }

    #[test]
    fn cdf_with_overflow_is_monotone_and_ends_at_one() {
        let mut h = LatencyHistogram::new(2_000, 8);
        for v in [1_000, 3_000, 5_000, 15_900, 40_000, 77_000] {
            h.record(v);
        }
        let cdf = h.cdf();
        for w in cdf.windows(2) {
            assert!(w[0].0 < w[1].0, "x must be strictly increasing: {cdf:?}");
            assert!(w[0].1 <= w[1].1, "y must be non-decreasing: {cdf:?}");
        }
        let &(last_x, last_y) = cdf.last().unwrap();
        assert_eq!(last_y, 1.0, "CDF must end at exactly 1.0");
        assert_eq!(last_x, 77.0, "final point sits at the recorded max");
        // The pre-overflow prefix accounts for the four binned samples.
        assert!(cdf
            .iter()
            .any(|&(x, y)| x == 16.0 && (y - 4.0 / 6.0).abs() < 1e-12));
    }

    #[test]
    fn zero_request_histogram_is_well_defined() {
        let h = LatencyHistogram::new(1_000, 16);
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
        let mut a = LatencyHistogram::new(1_000, 10);
        let mut b = LatencyHistogram::new(1_000, 10);
        a.record(1_000);
        b.record(2_000);
        b.record(100_000);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.sum_us(), 103_000);
        assert_eq!(a.max(), 100.0);
        assert_eq!(a.overflow_count(), 1);
        assert_eq!(a.mean(), (1.0 + 2.0 + 100.0) / 3.0);
    }

    #[test]
    #[should_panic]
    fn merge_shape_mismatch_panics() {
        let mut a = LatencyHistogram::new(1_000, 10);
        let b = LatencyHistogram::new(2_000, 10);
        a.merge(&b);
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
            histogram: LatencyHistogram::new(1_000, 1),
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
            failover_histogram: LatencyHistogram::new(1_000, 1),
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
