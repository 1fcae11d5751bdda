//! Synthetic web workload substrate for the hybrid CDN reproduction.
//!
//! The paper generates "a separate synthetic workload for each of the 200
//! web sites" with the SURGE model (Barford & Crovella): Zipf-like object
//! popularity inside each site, heavy-tailed object sizes, and per-server
//! site demand drawn from a truncated normal. SURGE itself is not available,
//! so this crate reproduces the marginals the evaluation depends on:
//!
//! * [`dist`] — normal / truncated-normal / lognormal / bounded-Pareto
//!   samplers built directly on `rand` (no external distribution crate).
//! * [`zipf`] — the Zipf-like law `P(rank k) = α / k^θ` with exact
//!   normalisation, inverse-CDF sampling, and prefix-mass queries (the
//!   analytical LRU model needs `p_B`, the mass of the top-B objects).
//! * [`site`] — the site catalog: M sites, L objects each, SURGE-style
//!   object sizes, popularity classes (low/medium/high).
//! * [`demand`] — the N×M demand matrix `r_j^(i)` (requests from the client
//!   population of server i for site j).
//! * [`trace`] — deterministic per-server request streams (site via the
//!   demand row, object via the site-internal Zipf, λ-flagged requests).
//! * [`trace_file`] — the binary `.events` trace format (real-trace
//!   ingestion and replay).
//!
//! Everything is seeded and deterministic.

pub mod analysis;
pub mod config;
pub mod demand;
pub mod dist;
pub mod site;
pub mod temporal;
pub mod trace;
pub mod trace_file;
pub mod zipf;

pub use analysis::TraceStats;
pub use config::WorkloadConfig;
pub use demand::DemandMatrix;
pub use site::{PopularityClass, Site, SiteCatalog};
pub use temporal::{DriftConfig, Drifted};
pub use trace::{Flavor, LambdaMode, Request, ServerStream, TraceSpec};
pub use trace_file::{
    decode_events, encode_events, open_events_file, pack_key, read_events_file, unpack_key,
    write_events_file, EventsReader, TraceEvent, TraceFileError,
};
pub use zipf::ZipfLike;
