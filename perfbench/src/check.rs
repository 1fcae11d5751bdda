//! The output check every iteration passes: the cause buckets account for
//! every measured request, the simulated request count is the workload's,
//! the workload's own mechanism fired, and at the default seed a digest of
//! the deterministic report fields equals the one recorded here.

use crate::pipeline::{Inputs, Scale, Workload, DEFAULT_SEED};
use cdn_core::sim::{ServerReport, SimReport};
use cdn_core::PlanResult;

/// Report digests at [`DEFAULT_SEED`]. A change that alters any simulated
/// output changes its workload's digest, and that iteration fails.
const RECORDED: [(Workload, Scale, u64); 6] = [
    (Workload::PaperHybrid, Scale::Full, 0x2fc0_07f5_5800_4c3a),
    (Workload::FleetFaults, Scale::Full, 0xdc48_3da9_d59d_1ce8),
    (Workload::ReplayDelayed, Scale::Full, 0x73e3_ae53_a1a6_3bc7),
    (Workload::PaperHybrid, Scale::Small, 0x4c76_692e_533f_850e),
    (Workload::FleetFaults, Scale::Small, 0x6aa3_5536_6625_9918),
    (Workload::ReplayDelayed, Scale::Small, 0x878c_da50_17d8_59de),
];

/// 64-bit FNV-1a.
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// The integer counters of a simulation: read from a system report, or
/// summed over per-server reports.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    pub total: u64,
    pub measured: u64,
    pub local: u64,
    pub cache_hits: u64,
    pub replica_hits: u64,
    pub delayed_hits: u64,
    pub origin_fetches: u64,
    pub peer_fetches: u64,
    pub failover_fetches: u64,
    pub failed: u64,
    pub total_bytes: u64,
    pub origin_bytes: u64,
    pub latency_bins: Vec<u64>,
    pub latency_overflow: u64,
}

/// `SimReport` and `ServerReport` name their counters alike.
macro_rules! counts_of {
    ($r:expr) => {
        Counts {
            total: $r.total_requests,
            measured: $r.measured_requests,
            local: $r.local_requests,
            cache_hits: $r.cache_hits,
            replica_hits: $r.replica_hits,
            delayed_hits: $r.delayed_hits,
            origin_fetches: $r.origin_fetches,
            peer_fetches: $r.peer_fetches,
            failover_fetches: $r.failover_fetches,
            failed: $r.failed_requests,
            total_bytes: $r.total_bytes,
            origin_bytes: $r.origin_bytes,
            latency_bins: $r.histogram.bin_counts().to_vec(),
            latency_overflow: $r.histogram.overflow_count(),
        }
    };
}

impl Counts {
    pub fn of_report(r: &SimReport) -> Self {
        counts_of!(r)
    }

    pub fn add_server(&mut self, r: &ServerReport) {
        self.merge(&counts_of!(r));
    }

    pub fn merge(&mut self, o: &Counts) {
        self.total += o.total;
        self.measured += o.measured;
        self.local += o.local;
        self.cache_hits += o.cache_hits;
        self.replica_hits += o.replica_hits;
        self.delayed_hits += o.delayed_hits;
        self.origin_fetches += o.origin_fetches;
        self.peer_fetches += o.peer_fetches;
        self.failover_fetches += o.failover_fetches;
        self.failed += o.failed;
        self.total_bytes += o.total_bytes;
        self.origin_bytes += o.origin_bytes;
        if self.latency_bins.len() < o.latency_bins.len() {
            self.latency_bins.resize(o.latency_bins.len(), 0);
        }
        for (a, b) in self.latency_bins.iter_mut().zip(&o.latency_bins) {
            *a += b;
        }
        self.latency_overflow += o.latency_overflow;
    }

    /// The scalar counters, in field order.
    pub fn scalars(&self) -> [u64; 13] {
        [
            self.total,
            self.measured,
            self.local,
            self.cache_hits,
            self.replica_hits,
            self.delayed_hits,
            self.origin_fetches,
            self.peer_fetches,
            self.failover_fetches,
            self.failed,
            self.total_bytes,
            self.origin_bytes,
            self.latency_overflow,
        ]
    }

    /// Every measured request lands in exactly one cause bucket, and local
    /// service is cache plus replica hits.
    pub fn check_buckets(&self) -> Result<(), String> {
        let buckets = self.local
            + self.delayed_hits
            + self.origin_fetches
            + self.peer_fetches
            + self.failover_fetches
            + self.failed;
        if buckets != self.measured {
            return Err(format!(
                "cause buckets sum to {buckets}, not to the {} measured requests",
                self.measured
            ));
        }
        if self.local != self.cache_hits + self.replica_hits {
            return Err(format!(
                "{} local requests are not {} cache hits plus {} replica hits",
                self.local, self.cache_hits, self.replica_hits
            ));
        }
        Ok(())
    }
}

/// FNV-1a over the deterministic report fields: bucket counts, the latency
/// CDF, the mean-latency bits, the replica count and the predicted-cost
/// bits.
pub fn digest(report: &SimReport, plan: &PlanResult) -> u64 {
    let mut h = Fnv::new();
    for n in Counts::of_report(report).scalars() {
        h.u64(n);
    }
    for (ms, share) in report.histogram.cdf() {
        h.u64(ms.to_bits());
        h.u64(share.to_bits());
    }
    h.u64(report.mean_latency_ms.to_bits());
    h.u64(plan.placement.replica_count() as u64);
    h.u64(plan.predicted_cost.to_bits());
    h.finish()
}

/// The workload's own mechanism must fire, or it measures something else.
pub fn exercised(workload: Workload, counts: &Counts) -> Result<(), String> {
    let (what, n) = match workload {
        Workload::PaperHybrid => ("cache hits", counts.cache_hits),
        Workload::FleetFaults => ("failovers", counts.failover_fetches),
        Workload::ReplayDelayed => ("delayed hits", counts.delayed_hits),
    };
    if n == 0 {
        return Err(format!("{} produced no {what}", workload.name()));
    }
    Ok(())
}

/// Check one iteration's report; returns its digest.
pub fn check(
    inputs: &Inputs,
    scale: Scale,
    seed: u64,
    plan: &PlanResult,
    report: &SimReport,
) -> Result<u64, String> {
    let counts = Counts::of_report(report);
    counts.check_buckets()?;
    if report.cause.total_requests() != report.measured_requests {
        return Err(format!(
            "cause attribution covers {} of {} measured requests",
            report.cause.total_requests(),
            report.measured_requests
        ));
    }
    if report.total_requests != inputs.requests {
        return Err(format!(
            "simulated {} requests; the workload has {}",
            report.total_requests, inputs.requests
        ));
    }
    exercised(inputs.workload, &counts)?;
    let digest = digest(report, plan);
    if seed == DEFAULT_SEED {
        let recorded = RECORDED
            .iter()
            .find(|r| r.0 == inputs.workload && r.1 == scale)
            .map_or(0, |r| r.2);
        if digest != recorded {
            return Err(format!(
                "report digest {digest:#018x} differs from {recorded:#018x}, recorded for {} \
                 ({scale:?} scale) at seed {DEFAULT_SEED}",
                inputs.workload.name()
            ));
        }
    }
    Ok(digest)
}
