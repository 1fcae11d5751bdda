//! # hybrid-cdn — replication + caching for CDNs, reproduced
//!
//! A from-scratch Rust reproduction of *"Increasing the Performance of CDNs
//! Using Replication and Caching: A Hybrid Approach"* (Bakiras &
//! Loukopoulos, IPDPS 2005): a CDN whose servers devote their storage
//! jointly to whole-site replicas (placed by a greedy algorithm) and an LRU
//! page cache (sized by an analytical hit-ratio model), beating both pure
//! replication and pure caching.
//!
//! This crate is the front door. It re-exports the substrate crates and
//! adds the [`Scenario`] type, which wires a generated topology, workload,
//! placement problem and trace together so an experiment is three calls:
//!
//! ```
//! use cdn_core::{Scenario, ScenarioConfig, Strategy};
//!
//! let scenario = Scenario::generate(&ScenarioConfig::small());
//! let plan = scenario.plan(Strategy::Hybrid);
//! let report = scenario.simulate(&plan);
//! assert!(report.mean_latency_ms > 0.0);
//! ```
//!
//! Substrates (each usable stand-alone):
//!
//! * [`topology`] — transit-stub graphs, shortest paths ([`cdn_topology`]).
//! * [`workload`] — SURGE-like site catalog, demand, traces
//!   ([`cdn_workload`]).
//! * [`cache`] — LRU and baseline replacement policies ([`cdn_cache`]).
//! * [`lru_model`] — the paper's analytical hit-ratio model
//!   ([`cdn_lru_model`]).
//! * [`placement`] — greedy-global, the hybrid algorithm, ad-hoc splits
//!   ([`cdn_placement`]).
//! * [`sim`] — the trace-driven simulator ([`cdn_sim`]).

pub use cdn_cache as cache;
pub use cdn_lru_model as lru_model;
pub use cdn_placement as placement;
pub use cdn_sim as sim;
pub use cdn_topology as topology;
pub use cdn_workload as workload;

pub mod analysis;
pub mod replay;
pub mod scenario;
pub mod strategy;

pub use analysis::{
    compare_strategies, compare_strategies_with_options, ComparisonRow, StrategyComparison,
};
pub use replay::{export_events, parse_csv_trace, replay_events, ReplayStreams};
pub use scenario::{Scenario, ScenarioConfig};
pub use strategy::{ModelBackend, PlanResult, Strategy, MODEL_NAMES};
