//! The per-server operational view of a placement, plus simulation
//! configuration.

use crate::fault::FaultParams;
use cdn_placement::{Nearest, Placement, PlacementProblem};
use std::cell::OnceCell;

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

impl Holder {
    fn new(holder: Nearest, hops: u32) -> Self {
        let server = match holder {
            Nearest::Primary => None,
            Nearest::Server(k) => Some(k),
        };
        Self { server, hops }
    }
}

/// What one CDN server needs to serve requests: which sites it replicates,
/// the nearest copy of each site, and how many bytes its cache gets (the
/// capacity left over after replicas). It borrows the placement it views,
/// from which it ranks a site's other copies only when a request has to
/// fail over past the nearest one.
///
/// Building a plan costs O(M): one nearest-copy lookup per site
/// ([`Placement::nearest`]). A fault-free run reads nothing else. A site's
/// ranked failover list, O(replicas of the site) to build, is built on the
/// first walk past its nearest copy and then kept for the plan's lifetime.
#[derive(Debug, Clone)]
pub struct ServerPlan<'a> {
    pub server: usize,
    /// `replicated[j]` — site j is fully replicated here.
    pub replicated: Vec<bool>,
    /// `nearest[j]` — the nearest copy of site j, rank 0 of its holder
    /// list: this server itself when it replicates j.
    pub nearest: Vec<Holder>,
    /// Bytes available to the LRU cache.
    pub cache_bytes: u64,
    problem: &'a PlacementProblem,
    placement: &'a Placement,
    /// `failover[j]` — every copy holder of site j (replicators plus the
    /// primary) ranked by distance, once a walk has needed it.
    failover: Vec<OnceCell<Box<[Holder]>>>,
}

impl<'a> ServerPlan<'a> {
    /// Extract server `i`'s plan from a placement, in O(M).
    pub fn from_placement(
        problem: &'a PlacementProblem,
        placement: &'a Placement,
        i: usize,
    ) -> Self {
        let m = problem.m_sites();
        Self {
            server: i,
            replicated: (0..m).map(|j| placement.is_replicated(i, j)).collect(),
            nearest: (0..m)
                .map(|j| {
                    Holder::new(
                        placement.nearest(i, j),
                        placement.nearest_dist(problem, i, j),
                    )
                })
                .collect(),
            cache_bytes: placement.free_bytes(i),
            problem,
            placement,
            failover: vec![OnceCell::new(); m],
        }
    }

    /// Every copy holder of site `j` ranked by distance, in
    /// [`Placement::ranked_holders`]'s order and tie rules: rank 0 is
    /// `nearest[j]`, and later ranks are the failover order when holders
    /// are down. Built on the first call for `j` and kept.
    pub fn failover(&self, j: usize) -> &[Holder] {
        self.failover[j].get_or_init(|| {
            self.placement
                .ranked_holders(self.problem, self.server, j)
                .into_iter()
                .map(|h| Holder::new(h.holder, h.dist))
                .collect()
        })
    }

    /// The failover lists built so far, as `(site, list)` in site order.
    pub fn failover_lists(&self) -> impl Iterator<Item = (usize, &[Holder])> {
        self.failover
            .iter()
            .enumerate()
            .filter_map(|(j, list)| list.get().map(|l| (j, &**l)))
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
    /// Check every rule of this configuration: a warm-up fraction in
    /// `[0, 1)`, a shard count of at least 1 when one is given, and valid
    /// fault parameters ([`FaultParams::validate`]). The error names the
    /// field and its value.
    pub fn validate(&self) -> Result<(), String> {
        if !(0.0..1.0).contains(&self.warmup_fraction) {
            return Err(format!(
                "warmup_fraction must be in [0, 1), got {}",
                self.warmup_fraction
            ));
        }
        if self.shards == Some(0) {
            return Err("shards must be at least 1 (or None for the default), got 0".into());
        }
        self.faults.as_ref().map_or(Ok(()), FaultParams::validate)
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
        // (replicas + primary) appears in distance order. Nothing is built
        // before a list is asked for.
        for plan in &plans {
            assert_eq!(plan.failover_lists().count(), 0);
            for j in 0..2 {
                let h = plan.failover(j);
                assert_eq!(h[0], plan.nearest[j]);
                assert_eq!(h[0].hops, pl.nearest_dist(&p, plan.server, j));
                assert_eq!(
                    h[0].server.is_none(),
                    matches!(pl.nearest(plan.server, j), Nearest::Primary)
                );
                for w in h.windows(2) {
                    assert!(w[0].hops <= w[1].hops);
                }
            }
            assert_eq!(plan.failover_lists().count(), 2);
        }
        // Site 1 is replicated at server 0, which heads its own list.
        assert_eq!(
            plans[0].nearest[1],
            Holder {
                server: Some(0),
                hops: 0
            }
        );
        // Server 1 can fail over from the replica at server 0 (3 hops,
        // closer than the primary) to the primary (13 hops).
        assert_eq!(
            plans[1].failover(1),
            [
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
            plans[1].failover(0),
            [Holder {
                server: None,
                hops: 11
            }]
        );
    }

    #[test]
    fn default_config_is_papers() {
        assert_eq!(HOP_DELAY_US, 20_000);
        assert_eq!(SimConfig::default().validate(), Ok(()));
    }

    // `validate` reports the error; the engine panics with the same
    // message.
    #[test]
    #[should_panic(expected = "warmup_fraction must be in [0, 1), got 1")]
    fn full_warmup_rejected() {
        let c = SimConfig {
            warmup_fraction: 1.0,
            ..Default::default()
        };
        assert!(c.validate().is_err());
        let p = tiny_problem();
        let placement = Placement::primaries_only(&p);
        let plan = ServerPlan::from_placement(&p, &placement, 0);
        let cache = Box::new(cdn_cache::LruCache::new(plan.cache_bytes));
        crate::simulate_server_faulted(&plan, &c, std::iter::empty(), 0, |_, _| 1, cache, None);
    }

    #[test]
    fn every_field_rule_names_its_field() {
        let err = |c: SimConfig| c.validate().unwrap_err();
        let shards = SimConfig {
            shards: Some(0),
            ..Default::default()
        };
        assert!(err(shards).starts_with("shards"));
        let warmup = SimConfig {
            warmup_fraction: f64::NAN,
            ..Default::default()
        };
        assert!(err(warmup).starts_with("warmup_fraction"));
        let faults = SimConfig {
            faults: Some(FaultParams {
                origin_outage: -0.5,
                ..Default::default()
            }),
            ..Default::default()
        };
        assert_eq!(err(faults), "origin_outage must be in [0, 1), got -0.5");
    }
}
