//! The content-delivery strategies under comparison.

use cdn_cache::Cache;
use cdn_placement::hybrid::{
    che_oracle_for, closed_form_oracle_for, hybrid_greedy, paper_oracle_for, pure_caching,
};
use cdn_placement::{
    adhoc_split, greedy_backtrack, greedy_global, greedy_local, popularity_placement,
    predict_fixed, predicted_cost, random_placement, HitRatioOracle, HybridConfig, Placement,
    PlacementProblem,
};

/// Which analytical hit-ratio model the planner consults. Every model
/// answers the same oracle question; they differ in fidelity and cost (see
/// the `ablation_model` benchmark for the measured accuracy of each).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ModelBackend {
    /// The paper's Equations (1)–(2) on the quantised memo table.
    #[default]
    Paper,
    /// Che's approximation — O(objects-per-site) per characteristic time,
    /// intended for small instances and ablations.
    Che,
    /// The closed-form characteristic-rank model — O(1) per query after a
    /// scalar solve per `(server, buffer)`.
    ClosedForm,
}

/// Every model name [`ModelBackend::by_name`] recognises, in
/// documentation order.
pub const MODEL_NAMES: [&str; 3] = ["paper", "che", "closed-form"];

impl ModelBackend {
    /// Resolve a CLI/bench model name. Unknown names report the
    /// alternatives as an `Err` so arg parsing can surface it instead of
    /// panicking.
    pub fn by_name(name: &str) -> Result<Self, String> {
        Ok(match name {
            "paper" => ModelBackend::Paper,
            "che" => ModelBackend::Che,
            "closed-form" => ModelBackend::ClosedForm,
            _ => {
                return Err(format!(
                    "unknown hit-ratio model '{name}' (known models: {})",
                    MODEL_NAMES.join(", ")
                ))
            }
        })
    }

    /// The canonical name (inverse of [`Self::by_name`]).
    pub fn name(&self) -> &'static str {
        match self {
            ModelBackend::Paper => "paper",
            ModelBackend::Che => "che",
            ModelBackend::ClosedForm => "closed-form",
        }
    }

    /// Construct this backend's oracle for `problem`.
    pub fn oracle_for(&self, problem: &PlacementProblem) -> Box<dyn HitRatioOracle> {
        match self {
            ModelBackend::Paper => Box::new(paper_oracle_for(problem)),
            ModelBackend::Che => Box::new(che_oracle_for(problem)),
            ModelBackend::ClosedForm => Box::new(closed_form_oracle_for(problem)),
        }
    }
}

/// A placement strategy. The first three are the paper's comparison
/// (its Figures 3–4); `AdHoc` is its Figure 5; the rest are context
/// baselines.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Strategy {
    /// Stand-alone greedy-global replication, no caching at all.
    Replication,
    /// No replicas; all storage is LRU cache.
    Caching,
    /// The paper's hybrid algorithm (Figure 2).
    Hybrid,
    /// Fixed fraction of storage reserved for cache, greedy replication on
    /// the rest.
    AdHoc { cache_fraction: f64 },
    /// Random replicas until full, leftover space cached.
    Random { seed: u64 },
    /// Hottest sites replicated everywhere first, leftover space cached.
    Popularity,
    /// Per-server greedy knapsack (no coordination), leftover space cached.
    GreedyLocal,
    /// Greedy-global followed by drop/add interchange, no caching
    /// (replication-only refinement baseline).
    Backtrack,
}

impl Strategy {
    /// Short label used in CSV output and logs.
    pub fn name(&self) -> String {
        match self {
            Strategy::Replication => "replication".into(),
            Strategy::Caching => "caching".into(),
            Strategy::Hybrid => "hybrid".into(),
            Strategy::AdHoc { cache_fraction } => {
                format!("adhoc-{:.0}%cache", cache_fraction * 100.0)
            }
            Strategy::Random { .. } => "random".into(),
            Strategy::Popularity => "popularity".into(),
            Strategy::GreedyLocal => "greedy-local".into(),
            Strategy::Backtrack => "backtrack".into(),
        }
    }

    /// Does the simulated system run a cache for this strategy?
    pub fn uses_cache(&self) -> bool {
        !matches!(self, Strategy::Replication | Strategy::Backtrack)
    }

    /// The cache factory to simulate this strategy's placements with, as
    /// [`uses_cache`](Self::uses_cache) decides: a zero-byte cache when the
    /// strategy runs none, else `None`, the simulator's default LRU sized
    /// to each server's leftover space.
    pub fn cache_factory(&self) -> Option<&'static (dyn Fn(u64) -> Box<dyn Cache> + Sync)> {
        fn no_cache(_: u64) -> Box<dyn Cache> {
            Box::new(cdn_cache::LruCache::new(0))
        }
        (!self.uses_cache()).then_some(&no_cache)
    }

    /// Execute the strategy against `problem` with the paper's model.
    pub fn run(&self, problem: &PlacementProblem) -> PlanResult {
        self.run_with_model(problem, ModelBackend::Paper)
    }

    /// Execute the strategy against `problem`, consulting `model` wherever
    /// a hit-ratio oracle is needed. `Replication` and `Backtrack` never
    /// cache, so they ignore the backend.
    pub fn run_with_model(&self, problem: &PlacementProblem, model: ModelBackend) -> PlanResult {
        match *self {
            Strategy::Hybrid => {
                let oracle = model.oracle_for(problem);
                let out = hybrid_greedy(problem, oracle.as_ref(), &HybridConfig::default());
                PlanResult {
                    strategy: *self,
                    predicted_cost: out.final_cost,
                    hit_ratios: Some(out.hit_ratios),
                    placement: out.placement,
                }
            }
            Strategy::Caching => {
                let oracle = model.oracle_for(problem);
                let out = pure_caching(problem, oracle.as_ref());
                PlanResult {
                    strategy: *self,
                    predicted_cost: out.final_cost,
                    hit_ratios: Some(out.hit_ratios),
                    placement: out.placement,
                }
            }
            Strategy::Replication => {
                let out = greedy_global(problem);
                let cost = predicted_cost(problem, &out.placement, |_, _| 0.0);
                PlanResult {
                    strategy: *self,
                    placement: out.placement,
                    predicted_cost: cost,
                    hit_ratios: None,
                }
            }
            Strategy::AdHoc { cache_fraction } => {
                let placement = adhoc_split(problem, cache_fraction);
                predicted_with_oracle(*self, problem, placement, model)
            }
            Strategy::Random { seed } => {
                let placement = random_placement(problem, seed);
                predicted_with_oracle(*self, problem, placement, model)
            }
            Strategy::Popularity => {
                let placement = popularity_placement(problem);
                predicted_with_oracle(*self, problem, placement, model)
            }
            Strategy::GreedyLocal => {
                let placement = greedy_local(problem);
                predicted_with_oracle(*self, problem, placement, model)
            }
            Strategy::Backtrack => {
                let out = greedy_backtrack(problem);
                PlanResult {
                    strategy: *self,
                    predicted_cost: out.final_cost,
                    placement: out.placement,
                    hit_ratios: None,
                }
            }
        }
    }
}

/// Predict the cost of a fixed placement whose free space runs an LRU, by
/// evaluating `model`'s oracle at each server's final buffer size.
fn predicted_with_oracle(
    strategy: Strategy,
    problem: &PlacementProblem,
    placement: Placement,
    model: ModelBackend,
) -> PlanResult {
    let oracle = model.oracle_for(problem);
    let (hits, cost) = predict_fixed(problem, &placement, oracle.as_ref());
    PlanResult {
        strategy,
        placement,
        predicted_cost: cost,
        hit_ratios: Some(hits),
    }
}

/// The outcome of running a strategy: the placement plus the planner's own
/// cost prediction (in hop·requests; divide by total requests for the
/// Figure 6 metric).
#[derive(Debug, Clone)]
pub struct PlanResult {
    pub strategy: Strategy,
    pub placement: Placement,
    /// Predicted total transfer cost `D`.
    pub predicted_cost: f64,
    /// Predicted per-(server, site) hit ratios, when the strategy caches.
    pub hit_ratios: Option<Vec<Vec<f64>>>,
}

impl PlanResult {
    /// Predicted mean hops per request.
    pub fn predicted_mean_hops(&self, problem: &PlacementProblem) -> f64 {
        cdn_placement::mean_hops_per_request(problem, self.predicted_cost)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_problem() -> PlacementProblem {
        // 3 servers in a line, 4 sites, generous primary distances.
        let n = 3;
        let m = 4;
        let mut dist_ss = vec![0u32; n * n];
        for i in 0..n {
            for k in 0..n {
                dist_ss[i * n + k] = (i as i64 - k as i64).unsigned_abs() as u32;
            }
        }
        let dist_sp = vec![9u32; n * m];
        PlacementProblem::new(
            n,
            m,
            dist_ss,
            dist_sp,
            vec![1000; m],
            vec![2000; n],
            vec![25; n * m],
            vec![0.0; m],
            50.0,
            40,
            1.0,
        )
    }

    #[test]
    fn strategy_names_are_stable() {
        assert_eq!(Strategy::Hybrid.name(), "hybrid");
        assert_eq!(
            Strategy::AdHoc {
                cache_fraction: 0.2
            }
            .name(),
            "adhoc-20%cache"
        );
        assert!(!Strategy::Replication.uses_cache());
        assert!(Strategy::Caching.uses_cache());
    }

    #[test]
    fn all_strategies_produce_valid_placements() {
        let p = toy_problem();
        for s in [
            Strategy::Replication,
            Strategy::Caching,
            Strategy::Hybrid,
            Strategy::AdHoc {
                cache_fraction: 0.5,
            },
            Strategy::Random { seed: 1 },
            Strategy::Popularity,
            Strategy::GreedyLocal,
            Strategy::Backtrack,
        ] {
            let out = s.run(&p);
            out.placement.validate(&p);
            assert!(out.predicted_cost >= 0.0, "{}", s.name());
            assert!(out.predicted_cost.is_finite());
        }
    }

    #[test]
    fn caching_strategy_places_no_replicas() {
        let p = toy_problem();
        let out = Strategy::Caching.run(&p);
        assert_eq!(out.placement.replica_count(), 0);
        assert!(out.hit_ratios.is_some());
    }

    #[test]
    fn hybrid_prediction_no_worse_than_pure_strategies() {
        let p = toy_problem();
        let hybrid = Strategy::Hybrid.run(&p).predicted_cost;
        let caching = Strategy::Caching.run(&p).predicted_cost;
        let replication = Strategy::Replication.run(&p).predicted_cost;
        assert!(hybrid <= caching + 1e-9);
        assert!(hybrid <= replication + 1e-9);
    }

    #[test]
    fn backtrack_no_worse_than_replication() {
        let p = toy_problem();
        let greedy = Strategy::Replication.run(&p).predicted_cost;
        let backtrack = Strategy::Backtrack.run(&p).predicted_cost;
        assert!(backtrack <= greedy + 1e-9);
    }

    #[test]
    fn hybrid_che_close_to_hybrid_paper() {
        let p = toy_problem();
        let paper = Strategy::Hybrid.run(&p);
        let che = Strategy::Hybrid.run_with_model(&p, ModelBackend::Che);
        // Different oracles, same machinery: placements may differ but both
        // must beat the pure strategies and land in the same ballpark.
        let caching = Strategy::Caching.run(&p).predicted_cost;
        assert!(che.predicted_cost <= caching + 1e-9);
        let rel =
            (che.predicted_cost - paper.predicted_cost).abs() / paper.predicted_cost.max(1e-9);
        assert!(
            rel < 0.25,
            "paper {} vs che {}",
            paper.predicted_cost,
            che.predicted_cost
        );
    }

    #[test]
    fn greedy_local_replicates_something_useful() {
        let p = toy_problem();
        let out = Strategy::GreedyLocal.run(&p);
        assert!(out.placement.replica_count() > 0);
        assert!(out.hit_ratios.is_some());
    }

    #[test]
    fn predicted_mean_hops_normalised() {
        let p = toy_problem();
        let out = Strategy::Replication.run(&p);
        let mean = out.predicted_mean_hops(&p);
        assert!((0.0..=9.0).contains(&mean));
    }

    #[test]
    fn model_backend_names_round_trip() {
        for name in MODEL_NAMES {
            let m = ModelBackend::by_name(name).unwrap_or_else(|e| panic!("{e}"));
            assert_eq!(m.name(), name);
        }
        let err = ModelBackend::by_name("ttl").expect_err("must reject");
        assert!(err.contains("unknown hit-ratio model 'ttl'"), "{err}");
        assert!(err.contains("closed-form"), "{err}");
        assert_eq!(ModelBackend::default(), ModelBackend::Paper);
    }

    #[test]
    fn every_backend_plans_every_caching_strategy() {
        let p = toy_problem();
        let caching_paper = Strategy::Caching.run(&p).predicted_cost;
        for model in [
            ModelBackend::Paper,
            ModelBackend::Che,
            ModelBackend::ClosedForm,
        ] {
            for s in [Strategy::Hybrid, Strategy::Caching, Strategy::GreedyLocal] {
                let out = s.run_with_model(&p, model);
                out.placement.validate(&p);
                assert!(
                    out.predicted_cost.is_finite() && out.predicted_cost >= 0.0,
                    "{} × {}",
                    s.name(),
                    model.name()
                );
            }
            // The backends disagree in detail but not in the story: hybrid
            // beats pure caching under every one of them.
            let hybrid = Strategy::Hybrid.run_with_model(&p, model).predicted_cost;
            assert!(
                hybrid <= caching_paper * 1.05,
                "{}: hybrid {hybrid} vs paper-caching {caching_paper}",
                model.name()
            );
        }
    }

    #[test]
    fn paper_backend_matches_plain_run() {
        let p = toy_problem();
        for s in [Strategy::Hybrid, Strategy::Caching, Strategy::Popularity] {
            let a = s.run(&p);
            let b = s.run_with_model(&p, ModelBackend::Paper);
            assert_eq!(a.predicted_cost.to_bits(), b.predicted_cost.to_bits());
        }
    }
}
