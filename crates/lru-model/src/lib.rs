//! The paper's analytical LRU hit-ratio model, plus an alternative
//! (Che's approximation) and a Monte-Carlo validator.
//!
//! Section 3.2 of the paper derives, for a single CDN server:
//!
//! 1. the *eviction horizon* `K` — the expected number of request slots an
//!    object survives in an LRU buffer of `B` objects without being
//!    requested (Equation 2), from the cumulative popularity `p_B` of the
//!    `B` globally most popular cacheable objects;
//! 2. the steady-state probability that a given object is resident,
//!    `1 − (1 − p_k)^K`;
//! 3. the per-site hit ratio (Equation 1) by summing over the site's
//!    Zipf-distributed objects, and
//! 4. an adjustment `h · (1 − λ)` for uncacheable documents.
//!
//! The hybrid placement algorithm evaluates that hit ratio thousands of
//! times per iteration, so — exactly as the paper prescribes — we memoise it
//! on a quantised `(p, K)` grid ([`table::HitRatioTable`]), making each
//! evaluation O(1) after the first. The grid is filled a row at a time:
//! Equation 1's series for one popularity at many horizons computes each
//! object's `ln(1 − p_k)` once and shares it across the row, so a cell
//! costs L `exp_m1` calls and its row L `ln_1p` calls in all. A
//! single-cell query is the one-horizon row.
//!
//! [`che`] implements Che's approximation as an independent oracle for the
//! model-accuracy ablation, and [`validation`] measures ground truth by
//! running the real `cdn-cache` LRU over a synthetic stream.

pub mod che;
pub mod closed_form;
pub mod model;
pub mod table;
pub mod validation;

/// The Fx-hashed map of `cdn-cache`, which the memos here and the
/// planner's use: their keys are small internal integers, and none is ever
/// iterated into a result, so the hasher cannot move a value.
pub use cdn_cache::FxHashMap;
pub use che::CheModel;
pub use closed_form::{ClosedFormLru, DemandScale};
pub use model::LruModel;
pub use table::HitRatioTable;
