//! Side-by-side strategy comparison and result formatting.

use crate::scenario::Scenario;
use crate::strategy::{PlanResult, Strategy};
use cdn_sim::SimReport;

/// One strategy's planned and simulated outcome.
pub struct ComparisonRow {
    pub strategy: Strategy,
    pub plan: PlanResult,
    pub report: SimReport,
}

/// The full comparison for one scenario.
pub struct StrategyComparison {
    pub rows: Vec<ComparisonRow>,
}

impl StrategyComparison {
    /// Find a strategy's row.
    pub fn row(&self, strategy: Strategy) -> Option<&ComparisonRow> {
        self.rows.iter().find(|r| r.strategy == strategy)
    }

    /// Mean-latency improvement of `a` over `b` as a fraction
    /// (0.4 = "a is 40% faster than b").
    pub fn improvement(&self, a: Strategy, b: Strategy) -> Option<f64> {
        let la = self.row(a)?.report.mean_latency_ms;
        let lb = self.row(b)?.report.mean_latency_ms;
        if lb == 0.0 {
            return None;
        }
        Some((lb - la) / lb)
    }

    /// Render a compact summary table.
    pub fn summary_table(&self) -> String {
        let mut out =
            String::from("strategy            mean_ms   p95_ms  local%   cache-hit%  replicas\n");
        for r in &self.rows {
            out.push_str(&format!(
                "{:<18} {:>8.2} {:>8.1} {:>7.1} {:>11.1} {:>9}\n",
                r.strategy.name(),
                r.report.mean_latency_ms,
                r.report.histogram.percentile(0.95),
                100.0 * r.report.local_ratio(),
                100.0 * r.report.cache_hit_ratio(),
                r.plan.placement.replica_count(),
            ));
        }
        out
    }

    /// Render the availability view — only meaningful for fault-injected
    /// runs (all-100% otherwise).
    pub fn fault_table(&self) -> String {
        let mut out =
            String::from("strategy            avail%   failed  failover  degraded_p95_ms\n");
        for r in &self.rows {
            out.push_str(&format!(
                "{:<18} {:>7.3} {:>8} {:>9} {:>16.1}\n",
                r.strategy.name(),
                100.0 * r.report.availability(),
                r.report.failed_requests,
                r.report.failover_fetches,
                r.report.failover_histogram.percentile(0.95),
            ));
        }
        out
    }
}

/// Plan and simulate each strategy against `scenario`.
pub fn compare_strategies(scenario: &Scenario, strategies: &[Strategy]) -> StrategyComparison {
    compare_strategies_with_options(scenario, strategies, None, crate::ModelBackend::Paper)
        .expect("None policy is always valid")
}

/// [`compare_strategies`] with an explicit replacement policy for each
/// server's leftover cache space (`None` = the paper's plain LRU) and an
/// explicit hit-ratio model backend for the planners. Strategies without a
/// cache stay cache-less either way. The policy name is resolved through
/// [`cdn_cache::by_name`], so an unknown policy surfaces as an `Err` for
/// the caller's arg parsing instead of a panic mid-run. The simulator
/// itself is model-free — it runs real caches — so `model` only changes
/// the plans being simulated.
pub fn compare_strategies_with_options(
    scenario: &Scenario,
    strategies: &[Strategy],
    policy: Option<&str>,
    model: crate::ModelBackend,
) -> Result<StrategyComparison, String> {
    if let Some(name) = policy {
        cdn_cache::by_name(name, 0)?;
    }
    let rows = strategies
        .iter()
        .map(|&s| {
            let plan = scenario.plan_with_model(s, model);
            let report = match policy {
                Some(name) if s.uses_cache() => {
                    let factory = |bytes: u64| {
                        cdn_cache::by_name(name, bytes).expect("policy validated above")
                    };
                    scenario.simulate_with_cache(&plan.placement, &factory)
                }
                _ => scenario.simulate(&plan),
            };
            ComparisonRow {
                strategy: s,
                plan,
                report,
            }
        })
        .collect();
    Ok(StrategyComparison { rows })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::ScenarioConfig;

    #[test]
    fn comparison_covers_requested_strategies() {
        let scenario = Scenario::generate(&ScenarioConfig::small());
        let cmp = compare_strategies(&scenario, &[Strategy::Caching, Strategy::Hybrid]);
        assert_eq!(cmp.rows.len(), 2);
        assert!(cmp.row(Strategy::Hybrid).is_some());
        assert!(cmp.row(Strategy::Replication).is_none());
        let table = cmp.summary_table();
        assert!(table.contains("hybrid"));
        assert!(table.contains("caching"));
    }

    #[test]
    fn unknown_policy_is_an_error_not_a_panic() {
        let scenario = Scenario::generate(&ScenarioConfig::small());
        let compare = |policy| {
            compare_strategies_with_options(
                &scenario,
                &[Strategy::Hybrid],
                Some(policy),
                crate::ModelBackend::Paper,
            )
        };
        let err = compare("arc")
            .err()
            .expect("unknown policy must be rejected");
        assert!(err.contains("arc"), "{err}");
        let ok = compare("gdsf");
        assert!(ok.is_ok());
    }

    #[test]
    fn improvement_is_antisymmetric_in_sign() {
        let scenario = Scenario::generate(&ScenarioConfig::small());
        let cmp = compare_strategies(&scenario, &[Strategy::Caching, Strategy::Hybrid]);
        let ab = cmp
            .improvement(Strategy::Hybrid, Strategy::Caching)
            .unwrap();
        let ba = cmp
            .improvement(Strategy::Caching, Strategy::Hybrid)
            .unwrap();
        assert!(ab * ba <= 0.0 || (ab == 0.0 && ba == 0.0));
        assert!(cmp
            .improvement(Strategy::Replication, Strategy::Hybrid)
            .is_none());
    }
}
