//! End-to-end scenario assembly: topology → hosts → distances → workload →
//! placement problem → trace.

use crate::strategy::{PlanResult, Strategy};
use cdn_cache::Cache;
use cdn_placement::hybrid::paper_oracle_for;
use cdn_placement::{Placement, PlacementProblem};
use cdn_sim::{simulate_system, SimConfig, SimReport};
use cdn_topology::{
    DistanceMatrix, HostPlacement, HostPlacementConfig, TransitStubConfig, TransitStubTopology,
};
use cdn_workload::{DemandMatrix, LambdaMode, SiteCatalog, TraceSpec, WorkloadConfig};

/// How total storage is spread across servers. The paper assumes
/// homogeneous servers; `Skewed` models a fleet where a few big POPs hold
/// most of the disk (capacity of server i ∝ `ratio^(i/(N−1))`, normalised
/// so the fleet total matches the homogeneous case).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CapacityProfile {
    Uniform,
    Skewed {
        /// Largest-to-smallest server capacity ratio (> 1).
        ratio: f64,
    },
}

/// Everything that defines one experiment, with the paper's defaults.
#[derive(Debug, Clone)]
pub struct ScenarioConfig {
    pub topology: TransitStubConfig,
    pub hosts: HostPlacementConfig,
    pub workload: WorkloadConfig,
    /// Per-server storage as a fraction of the cumulative size of all web
    /// sites (the paper's x-axis parameter: 5%, 10%, 20%).
    pub capacity_fraction: f64,
    /// Distribution of that storage across the fleet.
    pub capacity_profile: CapacityProfile,
    /// Mean fraction of requests that are uncacheable / expired.
    pub lambda: f64,
    /// Half-width of the per-site λ spread: site j's λ is drawn uniformly
    /// from `lambda ± lambda_spread` (clamped to [0, 1]). The paper's §3.3
    /// has every site provide its own λ_j; 0 recovers the homogeneous
    /// setting used in its figures.
    pub lambda_spread: f64,
    /// Whether λ-requests bypass the cache (uncacheable) or force a refresh
    /// (expired under strong consistency).
    pub lambda_mode: LambdaMode,
    pub sim: SimConfig,
    /// Master seed; all derived generators use fixed offsets of it.
    pub seed: u64,
}

impl ScenarioConfig {
    /// The paper's evaluation setup at a given capacity and λ
    /// (Figures 3–6): N = 50 servers, M = 200 sites, 1560-node topology,
    /// θ = 1.0, 20 ms/hop.
    pub fn paper(capacity_fraction: f64, lambda: f64, lambda_mode: LambdaMode) -> Self {
        Self {
            topology: TransitStubConfig::paper_default(),
            hosts: HostPlacementConfig::paper_default(),
            workload: WorkloadConfig::paper_default(),
            capacity_fraction,
            capacity_profile: CapacityProfile::Uniform,
            lambda,
            lambda_spread: 0.0,
            lambda_mode,
            sim: SimConfig::default(),
            seed: 20050404, // IPDPS 2005 — any fixed value works
        }
    }

    /// The internet-scale tier: N = 2000 servers, M = 400 sites of 5000
    /// objects, 8256-node topology, 10^8 requests. This is the regime where
    /// the sharded parallel simulator earns its keep (`bench_parallel
    /// --scale large`).
    pub fn large(capacity_fraction: f64, lambda: f64, lambda_mode: LambdaMode) -> Self {
        Self {
            topology: TransitStubConfig::large(),
            hosts: HostPlacementConfig::large(),
            workload: WorkloadConfig::large(),
            capacity_fraction,
            capacity_profile: CapacityProfile::Uniform,
            lambda,
            lambda_spread: 0.0,
            lambda_mode,
            sim: SimConfig::default(),
            seed: 20050404,
        }
    }

    /// The CI-sized variant of [`ScenarioConfig::large`]: identical topology,
    /// fleet and catalog, but one tenth the trace (10^7 requests) so the
    /// gating `perf-large` job finishes in CI time budgets.
    pub fn large_ci(capacity_fraction: f64, lambda: f64, lambda_mode: LambdaMode) -> Self {
        let mut cfg = Self::large(capacity_fraction, lambda, lambda_mode);
        cfg.workload.base_requests = 4_000;
        cfg
    }

    /// A fast small-scale setup for tests, docs and examples.
    pub fn small() -> Self {
        Self {
            topology: TransitStubConfig::small(),
            hosts: HostPlacementConfig::small(),
            workload: WorkloadConfig::small(),
            capacity_fraction: 0.15,
            capacity_profile: CapacityProfile::Uniform,
            lambda: 0.0,
            lambda_spread: 0.0,
            lambda_mode: LambdaMode::Uncacheable,
            sim: SimConfig::default(),
            seed: 7,
        }
    }

    fn validate(&self) {
        assert!(
            self.capacity_fraction > 0.0 && self.capacity_fraction <= 1.0,
            "capacity fraction {} out of (0, 1]",
            self.capacity_fraction
        );
        assert!(
            (0.0..=1.0).contains(&self.lambda),
            "lambda {} out of [0, 1]",
            self.lambda
        );
        assert!(
            self.lambda_spread >= 0.0 && self.lambda_spread.is_finite(),
            "lambda spread must be non-negative"
        );
        if let CapacityProfile::Skewed { ratio } = self.capacity_profile {
            assert!(ratio >= 1.0 && ratio.is_finite(), "skew ratio must be >= 1");
        }
    }

    /// Per-server capacities implied by the profile, preserving the fleet
    /// total `n · capacity_fraction · corpus`.
    fn capacities(&self, n: usize, corpus_bytes: u64) -> Vec<u64> {
        let per_server = corpus_bytes as f64 * self.capacity_fraction;
        match self.capacity_profile {
            CapacityProfile::Uniform => vec![per_server as u64; n],
            CapacityProfile::Skewed { ratio } => {
                let weights: Vec<f64> = (0..n)
                    .map(|i| {
                        if n == 1 {
                            1.0
                        } else {
                            ratio.powf(i as f64 / (n as f64 - 1.0))
                        }
                    })
                    .collect();
                let total_weight: f64 = weights.iter().sum();
                weights
                    .iter()
                    .map(|w| (per_server * n as f64 * w / total_weight) as u64)
                    .collect()
            }
        }
    }
}

/// A fully generated experiment instance.
pub struct Scenario {
    pub config: ScenarioConfig,
    pub topology: TransitStubTopology,
    pub hosts: HostPlacement,
    pub catalog: SiteCatalog,
    pub demand: DemandMatrix,
    pub problem: PlacementProblem,
    pub trace: TraceSpec,
}

impl Scenario {
    /// Generate the whole instance deterministically from `config`.
    pub fn generate(config: &ScenarioConfig) -> Self {
        let _prof = cdn_telemetry::profile::span("scenario.generate");
        config.validate();
        let topology = TransitStubTopology::generate(&config.topology, config.seed);
        let hosts = HostPlacement::place(
            &topology,
            &config.hosts,
            config.seed ^ 0x517c_c1b7_2722_0a95,
        );
        let distances = DistanceMatrix::compute(&topology.graph, &hosts.host_rows());
        let catalog = SiteCatalog::generate(&config.workload, config.seed ^ 0x2545_f491_4f6c_dd1d);
        let n = config.hosts.n_servers;
        let m = config.workload.m_sites;
        assert_eq!(
            m, config.hosts.m_primaries,
            "workload sites must match primary count"
        );
        let demand = DemandMatrix::generate(&catalog, n, config.seed ^ 0x9e37_79b9_7f4a_7c15);

        // Per-site λ_j (paper §3.3): uniform around the configured mean.
        let lambdas: Vec<f64> = if config.lambda_spread == 0.0 {
            vec![config.lambda; m]
        } else {
            use rand::rngs::StdRng;
            use rand::{Rng, SeedableRng};
            let mut rng = StdRng::seed_from_u64(config.seed ^ 0x94d0_49bb_1331_11eb);
            (0..m)
                .map(|_| {
                    (config.lambda + rng.gen_range(-config.lambda_spread..=config.lambda_spread))
                        .clamp(0.0, 1.0)
                })
                .collect()
        };

        // Flatten host-to-host distances: servers are rows 0..n, primaries
        // rows n..n+m of the distance matrix.
        let mut dist_ss = vec![0u32; n * n];
        for i in 0..n {
            for k in 0..n {
                dist_ss[i * n + k] = distances.host_dist(i, k);
            }
        }
        let mut dist_sp = vec![0u32; n * m];
        for i in 0..n {
            for j in 0..m {
                dist_sp[i * m + j] = distances.host_dist(i, n + j);
            }
        }

        let site_bytes: Vec<u64> = catalog.sites.iter().map(|s| s.total_bytes).collect();
        let capacities = config.capacities(n, catalog.total_bytes());
        let raw_demand: Vec<u64> = (0..n)
            .flat_map(|i| (0..m).map(move |j| (i, j)))
            .map(|(i, j)| demand.requests(i, j))
            .collect();

        let problem = PlacementProblem::new(
            n,
            m,
            dist_ss,
            dist_sp,
            site_bytes,
            capacities,
            raw_demand,
            lambdas.clone(),
            catalog.mean_request_bytes(),
            config.workload.objects_per_site,
            config.workload.theta,
        );

        let trace = TraceSpec::with_per_site_lambda(
            &demand,
            catalog.object_zipf.clone(),
            lambdas,
            config.lambda_mode,
            config.seed ^ 0xbf58_476d_1ce4_e5b9,
        );

        Self {
            config: config.clone(),
            topology,
            hosts,
            catalog,
            demand,
            problem,
            trace,
        }
    }

    /// Run a placement strategy against this scenario.
    pub fn plan(&self, strategy: Strategy) -> PlanResult {
        self.plan_with_model(strategy, crate::ModelBackend::Paper)
    }

    /// Run a placement strategy with an explicit hit-ratio model backend.
    pub fn plan_with_model(&self, strategy: Strategy, model: crate::ModelBackend) -> PlanResult {
        let _prof = cdn_telemetry::profile::span("scenario.plan");
        strategy.run_with_model(&self.problem, model)
    }

    /// Simulate a plan with the trace-driven simulator. A strategy that runs
    /// no cache ([`Strategy::uses_cache`]: the stand-alone replication
    /// baselines) is simulated cache-less; every other strategy runs an LRU
    /// sized to each server's leftover space.
    pub fn simulate(&self, plan: &PlanResult) -> SimReport {
        simulate_system(
            &self.problem,
            &plan.placement,
            &self.catalog,
            &self.trace,
            &self.config.sim,
            plan.strategy.cache_factory(),
        )
    }

    /// Simulate with an explicit cache factory (policy ablations).
    pub fn simulate_with_cache(
        &self,
        placement: &Placement,
        make_cache: &(dyn Fn(u64) -> Box<dyn Cache> + Sync),
    ) -> SimReport {
        simulate_system(
            &self.problem,
            placement,
            &self.catalog,
            &self.trace,
            &self.config.sim,
            Some(make_cache),
        )
    }

    /// The paper's hit-ratio oracle for this scenario's problem.
    pub fn oracle(&self) -> cdn_placement::PaperOracle {
        paper_oracle_for(&self.problem)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_scenario_generates_consistently() {
        let s = Scenario::generate(&ScenarioConfig::small());
        let cfg = &s.config;
        assert_eq!(s.problem.n_servers(), cfg.hosts.n_servers);
        assert_eq!(s.problem.m_sites(), cfg.workload.m_sites);
        assert_eq!(s.trace.n_servers(), cfg.hosts.n_servers);
        // Capacity fraction respected.
        let expected = (s.catalog.total_bytes() as f64 * cfg.capacity_fraction) as u64;
        assert_eq!(s.problem.capacities[0], expected);
        assert!(s.problem.capacities.iter().all(|&c| c == expected));
        // Demand matches the demand matrix.
        assert_eq!(s.problem.grand_total(), s.demand.grand_total());
    }

    #[test]
    fn strategies_without_a_cache_simulate_no_cache_hits() {
        let s = Scenario::generate(&ScenarioConfig::small());
        for strategy in [Strategy::Replication, Strategy::Backtrack] {
            assert!(!strategy.uses_cache());
            let plan = s.plan(strategy);
            let simulated = s.simulate(&plan);
            let replayed = crate::replay_events(&s, &plan, crate::export_events(&s));
            let compared = crate::compare_strategies_with_options(
                &s,
                &[strategy],
                Some("lfu"),
                crate::ModelBackend::Paper,
            )
            .unwrap();
            for r in [&simulated, &replayed, &compared.rows[0].report] {
                assert_eq!(r.cache_hits, 0, "{}", strategy.name());
            }
        }
    }

    #[test]
    fn distances_embedded_correctly() {
        let s = Scenario::generate(&ScenarioConfig::small());
        let n = s.problem.n_servers();
        for i in 0..n {
            assert_eq!(s.problem.dist_servers(i, i), 0);
            for k in 0..n {
                assert_eq!(s.problem.dist_servers(i, k), s.problem.dist_servers(k, i));
            }
        }
        // Primaries are in stub domains ≥ 1 hop from any distinct server.
        let mut nonzero = 0;
        for i in 0..n {
            for j in 0..s.problem.m_sites() {
                if s.problem.dist_primary(i, j) > 0 {
                    nonzero += 1;
                }
            }
        }
        assert!(nonzero > 0);
    }

    #[test]
    fn generation_is_deterministic() {
        let a = Scenario::generate(&ScenarioConfig::small());
        let b = Scenario::generate(&ScenarioConfig::small());
        assert_eq!(a.problem.grand_total(), b.problem.grand_total());
        assert_eq!(a.catalog.total_bytes(), b.catalog.total_bytes());
        assert_eq!(a.problem.dist_primary(0, 0), b.problem.dist_primary(0, 0));
    }

    #[test]
    fn lambda_spread_produces_heterogeneous_sites() {
        let mut cfg = ScenarioConfig::small();
        cfg.lambda = 0.2;
        cfg.lambda_spread = 0.15;
        let s = Scenario::generate(&cfg);
        let lambdas = &s.problem.lambda;
        assert!(lambdas.iter().all(|l| (0.05..=0.35).contains(l)));
        let min = lambdas.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = lambdas.iter().cloned().fold(0.0f64, f64::max);
        assert!(max - min > 0.05, "spread too small: {min}..{max}");
        let mean = lambdas.iter().sum::<f64>() / lambdas.len() as f64;
        assert!((mean - 0.2).abs() < 0.07, "mean {mean}");
        // Trace carries the same per-site values.
        for (j, &l) in lambdas.iter().enumerate() {
            assert_eq!(s.trace.lambda_for_site(j), l);
        }
    }

    #[test]
    fn heterogeneous_lambda_prediction_still_tracks_simulation() {
        let mut cfg = ScenarioConfig::small();
        cfg.lambda = 0.15;
        cfg.lambda_spread = 0.15;
        let s = Scenario::generate(&cfg);
        let plan = s.plan(crate::Strategy::Hybrid);
        let predicted = plan.predicted_mean_hops(&s.problem);
        let actual = s.simulate(&plan).mean_cost_hops;
        let err = (predicted - actual).abs() / actual.max(1e-9);
        assert!(err < 0.2, "predicted {predicted} vs actual {actual}");
    }

    #[test]
    fn skewed_capacities_preserve_fleet_total() {
        let mut cfg = ScenarioConfig::small();
        cfg.capacity_profile = CapacityProfile::Skewed { ratio: 8.0 };
        let s = Scenario::generate(&cfg);
        let uniform_total = (s.catalog.total_bytes() as f64 * cfg.capacity_fraction) as u64
            * s.problem.n_servers() as u64;
        let skewed_total: u64 = s.problem.capacities.iter().sum();
        let rel = (skewed_total as f64 - uniform_total as f64).abs() / uniform_total as f64;
        assert!(rel < 0.001, "fleet total drifted by {rel}");
        // Monotone ramp with the configured extremes.
        let first = s.problem.capacities[0] as f64;
        let last = *s.problem.capacities.last().unwrap() as f64;
        assert!((last / first - 8.0).abs() < 0.1, "ratio {}", last / first);
        for w in s.problem.capacities.windows(2) {
            assert!(w[0] <= w[1]);
        }
    }

    #[test]
    fn hybrid_handles_heterogeneous_fleet() {
        let mut cfg = ScenarioConfig::small();
        cfg.capacity_profile = CapacityProfile::Skewed { ratio: 10.0 };
        let s = Scenario::generate(&cfg);
        let plan = s.plan(crate::Strategy::Hybrid);
        plan.placement.validate(&s.problem);
        let report = s.simulate(&plan);
        assert!(report.mean_latency_ms > 0.0);
    }

    #[test]
    #[should_panic]
    fn zero_capacity_rejected() {
        let mut cfg = ScenarioConfig::small();
        cfg.capacity_fraction = 0.0;
        Scenario::generate(&cfg);
    }

    #[test]
    #[should_panic]
    fn mismatched_sites_and_primaries_rejected() {
        let mut cfg = ScenarioConfig::small();
        cfg.hosts.m_primaries = cfg.workload.m_sites + 1;
        Scenario::generate(&cfg);
    }
}
