//! Differential correctness harness: independent implementations of the
//! same quantity must agree.
//!
//! Each property here cross-checks two or three code paths that were
//! written separately (analytical model vs. trace-driven simulation,
//! greedy heuristic vs. brute-force optimum, a generated never-failing
//! fault schedule vs. the empty one, eviction policies vs. their defining
//! invariants). A divergence is a bug in at least one of them — these
//! oracles need no hand-computed expected values, which is what lets them
//! run over *randomized* instances at full case count.
//!
//! Tolerances are documented in DESIGN.md ("Differential testing &
//! shrinking"); they were set empirically at ≥256 cases and hold with
//! margin. Keep the two in sync when tuning either.

use cdn_cache::{Cache, LruCache, ObjectKey};
use cdn_lru_model::{CheModel, ClosedFormLru, LruModel};
use cdn_placement::hybrid::hybrid_greedy_paper;
use cdn_placement::{
    exhaustive_optimal, greedy_global, replication_cost_lower_bound, replication_only_cost,
    update_cost, HybridConfig, PlacementProblem,
};
use cdn_sim::{
    simulate_server_faulted, FaultParams, FaultSchedule, Holder, LatencyHistogram, ServerPlan,
    SimConfig, Tally,
};
use cdn_workload::{Flavor, Request, ZipfLike};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

// ---------------------------------------------------------------------------
// Oracle 1: analytical LRU model vs. Che's approximation vs. a trace-driven
// LRU simulation, on the same randomized workload.
// ---------------------------------------------------------------------------

/// Drive an actual `LruCache` of `b` unit-sized objects with an IRM trace
/// (site by popularity CDF, object by per-site Zipf) and measure the hit
/// ratio after warm-up.
fn trace_lru_hit_ratio(site_pops: &[f64], zipf: &ZipfLike, b: usize, seed: u64) -> f64 {
    const REQUESTS: usize = 8_000;
    const WARMUP: usize = 3_000;
    let cdf: Vec<f64> = site_pops
        .iter()
        .scan(0.0, |acc, p| {
            *acc += p;
            Some(*acc)
        })
        .collect();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut cache = LruCache::new(b as u64);
    let mut hits = 0u64;
    for i in 0..REQUESTS {
        let u: f64 = rng.gen();
        let site = cdf.partition_point(|&c| c < u).min(site_pops.len() - 1);
        let rank = zipf.sample(&mut rng); // 1-based
        let hit = cache.access(ObjectKey::new(site as u32, (rank - 1) as u32), 1);
        if i >= WARMUP && hit {
            hits += 1;
        }
    }
    hits as f64 / (REQUESTS - WARMUP) as f64
}

/// The paper model's aggregate hit ratio: top-B mass → eviction horizon →
/// per-site hit ratios, weighted by site popularity.
fn paper_aggregate_hit_ratio(model: &LruModel, site_pops: &[f64], b: usize) -> f64 {
    let p_b = model.top_b_mass(site_pops, b);
    let k = model.eviction_horizon(b, p_b);
    site_pops
        .iter()
        .map(|&p| p * model.site_hit_ratio(p, k))
        .sum()
}

proptest! {
    #[test]
    fn lru_model_che_and_trace_simulation_agree(
        n_sites in 2usize..=5,
        l in 40usize..=120,
        theta in 0.6f64..1.2,
        b_frac in 0.08f64..0.5,
        seed in any::<u64>(),
    ) {
        // Random-but-normalised site popularities, never degenerate.
        let mut wrng = StdRng::seed_from_u64(seed ^ 0x5EED_5EED);
        let weights: Vec<f64> = (0..n_sites).map(|_| wrng.gen_range(0.5f64..2.0)).collect();
        let total_w: f64 = weights.iter().sum();
        let site_pops: Vec<f64> = weights.iter().map(|w| w / total_w).collect();

        let total_objects = n_sites * l;
        let b = ((b_frac * total_objects as f64) as usize).clamp(10, total_objects - 1);

        let zipf = ZipfLike::new(l, theta);
        let paper = LruModel::from_zipf(zipf.clone());
        let che = CheModel::from_zipf(zipf.clone());

        let closed = ClosedFormLru::from_zipf(zipf.clone());

        let h_paper = paper_aggregate_hit_ratio(&paper, &site_pops, b);
        let h_che = che.aggregate_hit_ratio(&site_pops, b);
        let h_closed = closed.aggregate_hit_ratio(&site_pops, b);
        let h_trace = trace_lru_hit_ratio(&site_pops, &zipf, b, seed);

        for h in [h_paper, h_che, h_closed, h_trace] {
            prop_assert!((0.0..=1.0).contains(&h), "hit ratio {h} out of [0,1]");
        }
        // Che's approximation is near-exact under IRM; the trace is the
        // ground truth it approximates.
        prop_assert!((h_che - h_trace).abs() <= 0.05,
            "che {h_che:.4} vs trace {h_trace:.4} (b={b}, θ={theta:.2}, sites={n_sites}, L={l})");
        // The paper's eviction-horizon model is cruder; hold it to the
        // same band the repo's fixed-point validation test uses.
        prop_assert!((h_paper - h_che).abs() <= 0.12,
            "paper {h_paper:.4} vs che {h_che:.4} (b={b}, θ={theta:.2}, sites={n_sites}, L={l})");
        prop_assert!((h_paper - h_trace).abs() <= 0.15,
            "paper {h_paper:.4} vs trace {h_trace:.4} (b={b}, θ={theta:.2}, sites={n_sites}, L={l})");
        // The closed-form model replaces the paper's tabulated series with
        // O(1) arithmetic; it must stay within the same band of the table
        // model it substitutes for (DESIGN.md documents the calibration).
        prop_assert!((h_closed - h_paper).abs() <= 0.15,
            "closed-form {h_closed:.4} vs paper {h_paper:.4} (b={b}, θ={theta:.2}, sites={n_sites}, L={l})");
        prop_assert!((h_closed - h_trace).abs() <= 0.15,
            "closed-form {h_closed:.4} vs trace {h_trace:.4} (b={b}, θ={theta:.2}, sites={n_sites}, L={l})");
    }
}

// ---------------------------------------------------------------------------
// Oracle 2: greedy placement vs. the exhaustive optimum on small instances.
// ---------------------------------------------------------------------------

/// A random tiny-but-valid placement instance (small enough for
/// `exhaustive_optimal`'s joint enumeration).
fn random_problem(n: usize, m: usize, seed: u64, with_updates: bool) -> PlacementProblem {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut dist_ss = vec![0u32; n * n];
    for i in 0..n {
        for k in (i + 1)..n {
            let d = rng.gen_range(1u32..=6);
            dist_ss[i * n + k] = d;
            dist_ss[k * n + i] = d;
        }
    }
    let dist_sp: Vec<u32> = (0..n * m).map(|_| rng.gen_range(3u32..15)).collect();
    let site_bytes: Vec<u64> = (0..m).map(|_| 100 * rng.gen_range(1u64..=4)).collect();
    let total_bytes: u64 = site_bytes.iter().sum();
    let capacities: Vec<u64> = (0..n).map(|_| rng.gen_range(0..=total_bytes)).collect();
    let demand: Vec<u64> = (0..n * m).map(|_| rng.gen_range(0u64..20)).collect();
    let mut problem = PlacementProblem::new(
        n,
        m,
        dist_ss,
        dist_sp,
        site_bytes,
        capacities,
        demand,
        vec![0.0; m],
        10.0,
        50,
        0.8,
    );
    if with_updates {
        problem.set_update_rates((0..m).map(|_| rng.gen_range(0u64..5)).collect());
    }
    problem
}

proptest! {
    #[test]
    fn greedy_never_beats_the_exhaustive_optimum(
        n in 2usize..=3,
        m in 3usize..=4,
        seed in any::<u64>(),
        with_updates in any::<bool>(),
    ) {
        let problem = random_problem(n, m, seed, with_updates);
        let optimal = exhaustive_optimal(&problem);
        optimal.placement.validate(&problem);

        let greedy = greedy_global(&problem);
        greedy.placement.validate(&problem);
        let greedy_cost = replication_only_cost(&problem, &greedy.placement)
            + update_cost(&problem, &greedy.placement);

        // The heuristic can never beat brute force on its own objective.
        prop_assert!(greedy_cost + 1e-9 >= optimal.cost,
            "greedy {greedy_cost} below exhaustive optimum {}", optimal.cost);
        // ... and the analytical lower bound can never exceed it.
        let lb = replication_cost_lower_bound(&problem);
        prop_assert!(lb <= optimal.cost + 1e-9,
            "lower bound {lb} above exhaustive optimum {}", optimal.cost);
        // Greedy accepts the best remaining candidate each round, and
        // placing a replica only shrinks other candidates' benefits, so
        // the accepted-benefit sequence is non-increasing.
        for w in greedy.benefits.windows(2) {
            prop_assert!(w[1] <= w[0] + 1e-9,
                "greedy benefits not monotone: {:?}", greedy.benefits);
        }

        // The hybrid planner optimises a different objective (it credits
        // the leftover cache space), but its output is still a feasible
        // placement, so the same replication-only floor applies.
        let hybrid = hybrid_greedy_paper(&problem, &HybridConfig::default());
        hybrid.placement.validate(&problem);
        let hybrid_cost = replication_only_cost(&problem, &hybrid.placement)
            + update_cost(&problem, &hybrid.placement);
        prop_assert!(hybrid_cost + 1e-9 >= optimal.cost,
            "hybrid {hybrid_cost} below exhaustive optimum {}", optimal.cost);
    }
}

// ---------------------------------------------------------------------------
// Oracle 2b: the incremental lazy-greedy hybrid planner vs. the dense
// Figure-2 rescan — same problem, same oracle, two independently written
// inner loops. The contract is bit-identicality of the full greedy trace,
// not approximate agreement: the lazy planner re-evaluates exactly the
// candidates whose inputs changed, so any divergence means its stale-set
// bookkeeping missed an invalidation.
// ---------------------------------------------------------------------------

proptest! {
    #[test]
    fn lazy_hybrid_matches_dense_hybrid_bit_for_bit(
        n in 2usize..=4,
        m in 3usize..=6,
        seed in any::<u64>(),
        with_updates in any::<bool>(),
    ) {
        let problem = random_problem(n, m, seed, with_updates);
        let lazy = hybrid_greedy_paper(&problem, &HybridConfig::default());
        let dense = hybrid_greedy_paper(&problem, &HybridConfig {
            dense_scan: true,
            ..HybridConfig::default()
        });
        prop_assert_eq!(&lazy.replicas, &dense.replicas);
        let (a, b): (Vec<u64>, Vec<u64>) = (
            lazy.benefits.iter().map(|x| x.to_bits()).collect(),
            dense.benefits.iter().map(|x| x.to_bits()).collect(),
        );
        prop_assert_eq!(a, b, "benefit traces diverge");
        prop_assert_eq!(lazy.initial_cost.to_bits(), dense.initial_cost.to_bits());
        prop_assert_eq!(lazy.final_cost.to_bits(), dense.final_cost.to_bits());
        for (ra, rb) in lazy.hit_ratios.iter().zip(&dense.hit_ratios) {
            for (ha, hb) in ra.iter().zip(rb) {
                prop_assert_eq!(ha.to_bits(), hb.to_bits(), "hit rows diverge");
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Oracle 3: a generated MTTF = ∞ fault schedule (one empty row per server)
// is bit-identical to no schedule at all (the empty schedule).
// ---------------------------------------------------------------------------

const FAULT_N_SERVERS: usize = 3;

/// A random single-server plan: per-site holder chains over 3 servers plus
/// the primary, with a random byte budget for the cache.
fn random_server_plan(m: usize, rng: &mut StdRng) -> ServerPlan {
    let mut replicated = Vec::with_capacity(m);
    let mut holders = Vec::with_capacity(m);
    for _ in 0..m {
        let local = rng.gen_bool(0.3);
        let mut chain = Vec::new();
        if local {
            chain.push(Holder {
                server: Some(0),
                hops: 0,
            });
        }
        if rng.gen_bool(0.5) {
            chain.push(Holder {
                server: Some(rng.gen_range(1u32..FAULT_N_SERVERS as u32)),
                hops: rng.gen_range(1u32..=4),
            });
        }
        chain.push(Holder {
            server: None,
            hops: rng.gen_range(4u32..=9),
        });
        replicated.push(local);
        holders.push(chain);
    }
    ServerPlan {
        server: 0,
        replicated,
        holders,
        cache_bytes: rng.gen_range(0u64..=4096),
    }
}

fn random_requests(m: usize, count: usize, rng: &mut StdRng) -> Vec<Request> {
    (0..count)
        .map(|_| {
            let u: f64 = rng.gen();
            Request {
                site: rng.gen_range(0u32..m as u32),
                object: rng.gen_range(0u32..50),
                flavor: if u < 0.7 {
                    Flavor::Normal
                } else if u < 0.85 {
                    Flavor::Expired
                } else {
                    Flavor::Uncacheable
                },
            }
        })
        .collect()
}

proptest! {
    #[test]
    fn infinite_mttf_schedule_is_bit_identical_to_fault_free(
        m in 2usize..=4,
        seed in any::<u64>(),
    ) {
        const REQUESTS: usize = 1_000;
        const WARMUP: u64 = 200;
        let mut rng = StdRng::seed_from_u64(seed);
        let plan = random_server_plan(m, &mut rng);
        let requests = random_requests(m, REQUESTS, &mut rng);
        let object_bytes = |site: u32, object: u32| 1 + (site as u64 * 131 + object as u64 * 17) % 64;
        let config = SimConfig::default();

        // MTTF defaults to ∞ with no origin outages: nothing can ever fire.
        let params = FaultParams::default();
        prop_assert!(params.is_zero_fault());
        let schedule = FaultSchedule::generate(&params, FAULT_N_SERVERS, REQUESTS as u64);

        let plain = simulate_server_faulted(
            &plan,
            &config,
            requests.iter().copied(),
            WARMUP,
            object_bytes,
            Box::new(LruCache::new(plan.cache_bytes)),
            None,
        );
        let faulted = simulate_server_faulted(
            &plan,
            &config,
            requests.iter().copied(),
            WARMUP,
            object_bytes,
            Box::new(LruCache::new(plan.cache_bytes)),
            Some(&schedule),
        );
        prop_assert_eq!(plain, faulted);
    }
}

// ---------------------------------------------------------------------------
// Oracle 3b: window keying. The engine records each measured request into
// its server's tally and, through the same `Tally::record`, into the tally
// of the window its stream tick falls in. Summing every window therefore
// reproduces the server's tally exactly unless the windows drop or
// double-count a measured tick — whatever eviction policy backs the cache.
// ---------------------------------------------------------------------------

proptest! {
    #[test]
    fn windowed_counters_sum_to_run_level_for_every_policy(
        m in 2usize..=4,
        width in 1u64..=64,
        seed in any::<u64>(),
    ) {
        const REQUESTS: usize = 1_000;
        const WARMUP: u64 = 200;
        let mut rng = StdRng::seed_from_u64(seed);
        let plan = random_server_plan(m, &mut rng);
        let requests = random_requests(m, REQUESTS, &mut rng);
        let object_bytes = |site: u32, object: u32| 1 + (site as u64 * 131 + object as u64 * 17) % 64;
        let config = SimConfig {
            window: width,
            ..Default::default()
        };
        for name in cdn_cache::POLICY_NAMES {
            let cache = cdn_cache::by_name(name, plan.cache_bytes)
                .unwrap_or_else(|e| panic!("{e}"));
            let r = simulate_server_faulted(
                &plan,
                &config,
                requests.iter().copied(),
                WARMUP,
                object_bytes,
                cache,
                None,
            );
            let tl = r.timeline.as_ref().expect("timeline enabled");
            let mut sum = Tally::default();
            let mut latency = LatencyHistogram::default();
            for (_, w) in &tl.windows {
                sum.merge(&w.tally);
                latency.merge(&w.latency);
            }
            prop_assert_eq!(sum, r.tally, "{}", name);
            // Every served (non-failed) request records its latency in its
            // window, so the windows' latencies merge to the server's.
            prop_assert_eq!(&latency, &r.histogram, "{}", name);
            // Window ids are strictly increasing and keyed on stream ticks.
            for w in tl.windows.windows(2) {
                prop_assert!(w[0].0 < w[1].0, "{}: window ids not increasing", name);
            }
        }
    }
}

/// System-level twin of the oracle above, at the thread counts CI exercises:
/// the full parallel runner, each eviction policy, 1 vs. 4 rayon threads.
/// The timeline must be identical at both thread counts and still sum to
/// the run-level counters.
#[test]
fn windowed_counters_survive_the_parallel_runner_at_1_and_4_threads() {
    use cdn_core::{Scenario, ScenarioConfig, Strategy};

    let mut cfg = ScenarioConfig::small();
    cfg.sim.window = 256;
    let scenario = Scenario::generate(&cfg);
    let plan = scenario.plan(Strategy::Hybrid);
    for name in cdn_cache::POLICY_NAMES {
        let run = |threads: usize| {
            rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap()
                .install(|| {
                    scenario.simulate_with_cache(&plan.placement, &|bytes| {
                        cdn_cache::by_name(name, bytes).unwrap_or_else(|e| panic!("{e}"))
                    })
                })
        };
        let (t1, t4) = (run(1), run(4));
        let tl = t1
            .timeline
            .as_ref()
            .unwrap_or_else(|| panic!("{name}: no timeline"));
        assert_eq!(
            Some(tl),
            t4.timeline.as_ref(),
            "{name}: thread-dependent timeline"
        );
        let mut sum = Tally::default();
        for (_, w) in &tl.windows {
            sum.merge(&w.tally);
        }
        assert_eq!(sum.cause, t1.cause, "{name}");
        assert_eq!(sum.requests(), t1.measured_requests, "{name}");
        assert_eq!(sum.total_bytes, t1.total_bytes, "{name}");
    }
}

// ---------------------------------------------------------------------------
// Oracle 3c: exact latency quantiles vs. the sorted recorded values — every
// quantile the histogram reports (and so every window's p50/p90/p99) must be
// the recorded value of rank `ceil(q·n)`, clamped to `[1, n]`. Values mix
// paper-like whole-hop latencies, which repeat, with arbitrary ones.
// ---------------------------------------------------------------------------

proptest! {
    #[test]
    fn quantile_us_is_the_exact_order_statistic(
        raw in proptest::collection::vec(
            prop_oneof![(0u64..12).prop_map(|hops| 20_000 * (1 + hops)), 0u64..50_000_000],
            1..400,
        ),
        qs in proptest::collection::vec(0.0f64..=1.0, 1..8),
    ) {
        let mut histogram = LatencyHistogram::default();
        for &v in &raw {
            histogram.record(v);
        }
        let mut sorted = raw.clone();
        sorted.sort_unstable();
        let n = sorted.len() as u64;
        for &q in &qs {
            let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
            let exact = sorted[(rank - 1) as usize];
            prop_assert_eq!(histogram.quantile_us(q), exact, "q={} n={}", q, n);
        }
    }
}

// ---------------------------------------------------------------------------
// Oracle 4: metamorphic eviction-policy invariants over random op sequences.
// ---------------------------------------------------------------------------

proptest! {
    #[test]
    fn eviction_policies_respect_capacity_and_keep_the_latest_access(
        ops in proptest::collection::vec((0u32..24, 1u64..80), 1..40),
    ) {
        const CAPACITY: u64 = 64;
        // delayed-lru filters first-touch admissions, so the residency
        // half of the invariant only applies to the other five policies;
        // the byte-accounting half applies to all six.
        for name in cdn_cache::POLICY_NAMES {
            let mut cache = cdn_cache::by_name(name, CAPACITY)
                .unwrap_or_else(|e| panic!("{e}"));
            for &(key, bytes) in &ops {
                let key = ObjectKey::new(key % 3, key);
                cache.access(key, bytes);
                prop_assert!(cache.used_bytes() <= cache.capacity_bytes(),
                    "{name}: {} bytes used of {}", cache.used_bytes(), cache.capacity_bytes());
                if bytes <= CAPACITY && name != "delayed-lru" {
                    prop_assert!(cache.contains(key),
                        "{name} evicted the object it just admitted ({key:?}, {bytes} bytes)");
                }
            }
        }
        // delayed-lru's own contract: an admissible object touched twice
        // in a row is resident.
        let mut dlru = cdn_cache::by_name("delayed-lru", CAPACITY).unwrap();
        let key = ObjectKey::new(0, 999);
        dlru.access(key, 8);
        dlru.access(key, 8);
        prop_assert!(dlru.contains(key), "delayed-lru dropped a twice-touched object");
    }
}
