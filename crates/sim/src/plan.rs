//! The per-server operational view of a placement, plus simulation
//! configuration.

use crate::fault::FaultParams;
use cdn_placement::{Nearest, Placement, PlacementProblem};

/// One copy holder of a site as seen from a plan's server — the failover
/// targets of [`crate::engine::resolve`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Holder {
    /// The CDN server holding the copy, or `None` for the primary (origin)
    /// site.
    pub server: Option<u32>,
    /// Hops from the plan's server to this holder.
    pub hops: u32,
}

/// What one CDN server needs to serve requests: which sites it replicates,
/// where every copy of each site is, and how many bytes its cache gets
/// (the capacity left over after replicas).
#[derive(Debug, Clone)]
pub struct ServerPlan {
    pub server: usize,
    /// `replicated[j]` — site j is fully replicated here.
    pub replicated: Vec<bool>,
    /// `holders[j]` — every copy holder of site j (replicators plus the
    /// primary) ranked by distance. `holders[j][0]` is the nearest copy
    /// (this server itself when it replicates j); later entries are the
    /// failover order when holders are down.
    pub holders: Vec<Vec<Holder>>,
    /// Bytes available to the LRU cache.
    pub cache_bytes: u64,
}

impl ServerPlan {
    /// Extract server `i`'s plan from a placement, in O(M + replicas).
    pub fn from_placement(problem: &PlacementProblem, placement: &Placement, i: usize) -> Self {
        let m = problem.m_sites();
        let replicated = (0..m).map(|j| placement.is_replicated(i, j)).collect();
        let holders = (0..m)
            .map(|j| {
                placement
                    .ranked_holders(problem, i, j)
                    .into_iter()
                    .map(|h| Holder {
                        server: match h.holder {
                            Nearest::Primary => None,
                            Nearest::Server(k) => Some(k),
                        },
                        hops: h.dist,
                    })
                    .collect()
            })
            .collect();
        Self {
            server: i,
            replicated,
            holders,
            cache_bytes: placement.free_bytes(i),
        }
    }
}

/// How stale cached copies are handled (paper §3.3). Replicas are always
/// push-invalidated by the CDN; this governs the *cache*.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ConsistencyMode {
    /// Accessed copies are always up to date: a cache hit on an expired
    /// object pays a refresh round to the nearest replica (the paper's
    /// second experiment).
    #[default]
    Strong,
    /// Accessed copies might be stale: expired objects are served from the
    /// cache at local latency (the client may see old content).
    Weak,
}

/// Per-hop network delay, µs: the paper's 20 ms/hop (propagation +
/// queueing + processing). A request served `h` hops beyond its first-hop
/// server takes `HOP_DELAY_US × (1 + h)`.
pub const HOP_DELAY_US: u64 = 20_000;

/// Simulation parameters.
#[derive(Debug, Clone, Copy)]
pub struct SimConfig {
    /// Fraction of each server's stream used to warm the cache before
    /// measurement starts ("we allowed an appropriate warm-up period").
    pub warmup_fraction: f64,
    /// Cache-consistency regime for expired objects.
    pub consistency: ConsistencyMode,
    /// Fault injection. `None` routes against the empty schedule, in which
    /// nothing is ever down, and emits no `fault.*` telemetry; zero-fault
    /// parameters give bit-identical reports.
    pub faults: Option<FaultParams>,
    /// Sample every Nth request of each server's stream into
    /// [`crate::RequestSample`]s (0 disables sampling). Keyed on the
    /// request's deterministic per-stream index, so the sampled set is
    /// identical at any thread count. Sampling never perturbs the
    /// simulation or its deterministic outputs.
    pub sample_every: u64,
    /// Virtual-time window width, in per-server stream ticks, for the
    /// windowed timeline ([`crate::timeline::Timeline`]); 0 disables the
    /// timeline. Windows are keyed by `tick / width` on the same
    /// deterministic per-stream index the sampler uses, so timelines are
    /// byte-identical at any thread or shard count.
    pub window: u64,
    /// Remote-fetch completion latency, in per-server stream ticks, for
    /// delayed-hit coalescing. With a positive value, a cache miss puts the
    /// object's fetch *in flight* for that many ticks; requests for the
    /// same object arriving before it completes coalesce onto the pending
    /// fetch as [`crate::Cause::DelayedHit`]s instead of counting as
    /// independent hits/misses. `None` *and* `Some(0)` both run the exact
    /// instant-fetch code path (bit-identical to a build without the
    /// feature) — `--fetch-latency 0` is the documented off switch. The
    /// table is per server and keyed on the deterministic stream tick, so
    /// results stay byte-identical at any thread or shard count.
    pub fetch_latency: Option<u64>,
    /// Number of engine shards (contiguous server ranges run as parallel
    /// units). `None` picks `min(n_servers, 64)`. The shard count is part
    /// of the configuration, never derived from the thread count, so
    /// results are bit-identical at any parallelism — and, because every
    /// accumulator merges by integer addition, at any shard count too.
    pub shards: Option<usize>,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            warmup_fraction: 0.2,
            consistency: ConsistencyMode::Strong,
            faults: None,
            sample_every: 0,
            window: 0,
            fetch_latency: None,
            shards: None,
        }
    }
}

impl SimConfig {
    pub(crate) fn validate(&self) {
        assert!(
            (0.0..1.0).contains(&self.warmup_fraction),
            "warm-up fraction must be in [0, 1)"
        );
        assert!(
            self.shards != Some(0),
            "shards must be at least 1 (or None for the default)"
        );
        if let Some(faults) = &self.faults {
            faults.validate();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdn_placement::PlacementProblem;

    fn tiny_problem() -> PlacementProblem {
        // 2 servers 3 hops apart, 2 sites with primaries 10/12 hops away.
        PlacementProblem::new(
            2,
            2,
            vec![0, 3, 3, 0],
            vec![10, 12, 11, 13],
            vec![1000, 1000],
            vec![1500, 1500],
            vec![5, 5, 5, 5],
            vec![0.0, 0.0],
            100.0,
            10,
            1.0,
        )
    }

    #[test]
    fn plan_reflects_placement() {
        let p = tiny_problem();
        let mut pl = Placement::primaries_only(&p);
        pl.add_replica(&p, 0, 1);
        let plans: Vec<ServerPlan> = (0..2)
            .map(|i| ServerPlan::from_placement(&p, &pl, i))
            .collect();
        assert!(plans[0].replicated[1]);
        assert_eq!(plans[0].cache_bytes, 500);
        assert!(!plans[1].replicated[1]);
        assert_eq!(plans[1].cache_bytes, 1500);

        // Holder lists: rank 0 is the nearest copy, and every copy
        // (replicas + primary) appears in distance order.
        for plan in &plans {
            for j in 0..2 {
                let h = &plan.holders[j];
                assert_eq!(h[0].hops, pl.nearest_dist(&p, plan.server, j));
                assert_eq!(
                    h[0].server.is_none(),
                    matches!(pl.nearest(plan.server, j), Nearest::Primary)
                );
                for w in h.windows(2) {
                    assert!(w[0].hops <= w[1].hops);
                }
            }
        }
        // Site 1 is replicated at server 0, which heads its own list.
        assert_eq!(
            plans[0].holders[1][0],
            Holder {
                server: Some(0),
                hops: 0
            }
        );
        // Server 1 can fail over from the replica at server 0 (3 hops,
        // closer than the primary) to the primary (13 hops).
        assert_eq!(
            plans[1].holders[1],
            vec![
                Holder {
                    server: Some(0),
                    hops: 3
                },
                Holder {
                    server: None,
                    hops: 13
                },
            ]
        );
        // Site 0 has no replicas: the primary (11 hops) is the only holder.
        assert_eq!(
            plans[1].holders[0],
            vec![Holder {
                server: None,
                hops: 11
            }]
        );
    }

    #[test]
    fn default_config_is_papers() {
        assert_eq!(HOP_DELAY_US, 20_000);
        SimConfig::default().validate();
    }

    #[test]
    fn zero_window_is_a_valid_off_switch() {
        // Unlike shards, `window: 0` is the timeline's off value and must
        // validate cleanly.
        let c = SimConfig {
            window: 0,
            ..Default::default()
        };
        c.validate();
    }

    #[test]
    fn zero_fetch_latency_is_a_valid_off_switch() {
        // `fetch_latency: Some(0)` disables delayed-hit coalescing exactly
        // like `None` — `--fetch-latency 0` must validate cleanly.
        let c = SimConfig {
            fetch_latency: Some(0),
            ..Default::default()
        };
        c.validate();
    }

    #[test]
    #[should_panic]
    fn full_warmup_rejected() {
        let c = SimConfig {
            warmup_fraction: 1.0,
            ..Default::default()
        };
        c.validate();
    }
}
