//! Random topology generators.
//!
//! * [`flat`] — flat random graphs (random tree + uniform random extra
//!   edges), the building block for domains.
//! * [`transit_stub`] — the two-level transit-stub model of GT-ITM, which is
//!   what the paper generates its evaluation network with.

pub mod barabasi;
pub mod flat;
pub mod transit_stub;
