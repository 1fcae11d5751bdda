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

/// Everything that defines one experiment, with the paper's defaults.
#[derive(Debug, Clone)]
pub struct ScenarioConfig {
    pub topology: TransitStubConfig,
    pub hosts: HostPlacementConfig,
    pub workload: WorkloadConfig,
    /// Per-server storage as a fraction of the cumulative size of all web
    /// sites (the paper's x-axis parameter: 5%, 10%, 20%).
    pub capacity_fraction: f64,
    /// Fraction of requests that are uncacheable / expired, the same at
    /// every site as in the paper's figures.
    pub lambda: f64,
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
            lambda,
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
            lambda,
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
            lambda: 0.0,
            lambda_mode: LambdaMode::Uncacheable,
            sim: SimConfig::default(),
            seed: 7,
        }
    }

    /// Check every rule of this configuration: a capacity fraction in
    /// `(0, 1]`, a λ in `[0, 1]`, one primary per workload site, and then
    /// the workload ([`WorkloadConfig::validate`]) and simulator
    /// ([`SimConfig::validate`]) rules. The error names the field and its
    /// value.
    pub fn validate(&self) -> Result<(), String> {
        if !(self.capacity_fraction > 0.0 && self.capacity_fraction <= 1.0) {
            return Err(format!(
                "capacity_fraction must be in (0, 1], got {}",
                self.capacity_fraction
            ));
        }
        if !(0.0..=1.0).contains(&self.lambda) {
            return Err(format!("lambda must be in [0, 1], got {}", self.lambda));
        }
        if self.workload.m_sites != self.hosts.m_primaries {
            return Err(format!(
                "workload.m_sites must equal hosts.m_primaries ({}), got {}",
                self.hosts.m_primaries, self.workload.m_sites
            ));
        }
        self.workload.validate()?;
        self.sim.validate()
    }

    /// The placement problem and request trace of this configuration over
    /// `distances`, whose rows are the `n` servers and then the `m`
    /// primaries. Every server gets `capacity_fraction` of the corpus and
    /// every site the configured λ; the trace draws its streams from
    /// `trace_seed`.
    pub fn assemble(
        &self,
        distances: &DistanceMatrix,
        catalog: &SiteCatalog,
        demand: &DemandMatrix,
        trace_seed: u64,
    ) -> (PlacementProblem, TraceSpec) {
        let n = self.hosts.n_servers;
        let m = self.workload.m_sites;
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
        let site_bytes = catalog.sites.iter().map(|s| s.total_bytes).collect();
        let capacity = (catalog.total_bytes() as f64 * self.capacity_fraction) as u64;
        let raw_demand = (0..n)
            .flat_map(|i| (0..m).map(move |j| (i, j)))
            .map(|(i, j)| demand.requests(i, j))
            .collect();
        let problem = PlacementProblem::new(
            n,
            m,
            dist_ss,
            dist_sp,
            site_bytes,
            vec![capacity; n],
            raw_demand,
            vec![self.lambda; m],
            catalog.mean_request_bytes(),
            self.workload.objects_per_site,
            self.workload.theta,
        );
        let trace = TraceSpec::new(
            demand,
            catalog.object_zipf.clone(),
            self.lambda,
            self.lambda_mode,
            trace_seed,
        );
        (problem, trace)
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
    ///
    /// # Panics
    /// Panics with [`ScenarioConfig::validate`]'s message on an invalid
    /// config.
    pub fn generate(config: &ScenarioConfig) -> Self {
        let _prof = cdn_telemetry::profile::span("scenario.generate");
        config.validate().unwrap_or_else(|msg| panic!("{msg}"));
        let topology = TransitStubTopology::generate(&config.topology, config.seed);
        let hosts = HostPlacement::place(
            &topology,
            &config.hosts,
            config.seed ^ 0x517c_c1b7_2722_0a95,
        );
        let distances = DistanceMatrix::compute(&topology.graph, &hosts.host_rows());
        let catalog = SiteCatalog::generate(&config.workload, config.seed ^ 0x2545_f491_4f6c_dd1d);
        let demand = DemandMatrix::generate(
            &catalog,
            config.hosts.n_servers,
            config.seed ^ 0x9e37_79b9_7f4a_7c15,
        );
        let (problem, trace) = config.assemble(
            &distances,
            &catalog,
            &demand,
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

    /// `s` with per-site λs from 0 to 0.3, set on the problem and the
    /// trace directly (paper §3.3: every site has its own λ_j).
    fn with_site_lambdas(mut s: Scenario) -> Scenario {
        let m = s.problem.m_sites();
        let lambdas: Vec<f64> = (0..m).map(|j| 0.3 * j as f64 / (m - 1) as f64).collect();
        s.problem.lambda = lambdas.clone();
        s.trace = TraceSpec::with_per_site_lambda(
            &s.demand,
            s.catalog.object_zipf.clone(),
            lambdas,
            s.config.lambda_mode,
            s.config.seed ^ 0xbf58_476d_1ce4_e5b9,
        );
        s
    }

    #[test]
    fn heterogeneous_lambda_prediction_still_tracks_simulation() {
        let s = with_site_lambdas(Scenario::generate(&ScenarioConfig::small()));
        let plan = s.plan(crate::Strategy::Hybrid);
        let predicted = plan.predicted_mean_hops(&s.problem);
        let actual = s.simulate(&plan).mean_cost_hops;
        let err = (predicted - actual).abs() / actual.max(1e-9);
        assert!(err < 0.2, "predicted {predicted} vs actual {actual}");
    }

    #[test]
    fn hybrid_handles_heterogeneous_fleet() {
        // Server i gets a share of the fleet's storage growing tenfold from
        // the first server to the last.
        let mut s = Scenario::generate(&ScenarioConfig::small());
        let n = s.problem.n_servers();
        let total: u64 = s.problem.capacities.iter().sum();
        let weights: Vec<f64> = (0..n)
            .map(|i| 10f64.powf(i as f64 / (n - 1) as f64))
            .collect();
        let sum: f64 = weights.iter().sum();
        s.problem.capacities = weights
            .iter()
            .map(|w| (total as f64 * w / sum) as u64)
            .collect();
        let plan = s.plan(crate::Strategy::Hybrid);
        plan.placement.validate(&s.problem);
        let report = s.simulate(&plan);
        assert!(report.mean_latency_ms > 0.0);
    }

    #[test]
    fn every_field_rule_names_its_field() {
        let err = |edit: fn(&mut ScenarioConfig)| {
            let mut cfg = ScenarioConfig::small();
            edit(&mut cfg);
            cfg.validate().unwrap_err()
        };
        assert_eq!(
            err(|c| c.capacity_fraction = 2.0),
            "capacity_fraction must be in (0, 1], got 2"
        );
        assert!(err(|c| c.capacity_fraction = f64::NAN).starts_with("capacity_fraction"));
        assert_eq!(
            err(|c| c.lambda = -0.5),
            "lambda must be in [0, 1], got -0.5"
        );
        assert!(err(|c| c.hosts.m_primaries += 1).starts_with("workload.m_sites"));
        let no_sites = |c: &mut ScenarioConfig| {
            c.workload.m_sites = 0;
            c.hosts.m_primaries = 0;
        };
        assert_eq!(err(no_sites), "m_sites must be at least 1, got 0");
        assert!(err(|c| c.sim.warmup_fraction = 1.0).starts_with("warmup_fraction"));
        assert_eq!(ScenarioConfig::small().validate(), Ok(()));
    }

    // `validate` reports the error; `Scenario::generate` panics with the
    // same message.
    #[test]
    #[should_panic(expected = "capacity_fraction must be in (0, 1], got 0")]
    fn zero_capacity_rejected() {
        let mut cfg = ScenarioConfig::small();
        cfg.capacity_fraction = 0.0;
        Scenario::generate(&cfg);
    }

    #[test]
    #[should_panic(expected = "workload.m_sites must equal hosts.m_primaries")]
    fn mismatched_sites_and_primaries_rejected() {
        let mut cfg = ScenarioConfig::small();
        cfg.hosts.m_primaries = cfg.workload.m_sites + 1;
        Scenario::generate(&cfg);
    }
}
