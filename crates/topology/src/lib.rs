//! Network topology substrate for the hybrid CDN reproduction.
//!
//! The paper (Bakiras & Loukopoulos, IPDPS 2005) evaluates its placement
//! algorithms on a random *transit-stub* graph produced by the GT-ITM
//! topology generator, collapsed to a hop-count distance matrix between the
//! CDN servers and the primary sites. GT-ITM is not available to us, so this
//! crate implements the same class of generator from scratch:
//!
//! * [`graph`] — a compact CSR-backed undirected graph.
//! * [`gen`] — random graph generators: the two-level transit-stub model and
//!   the flat random graphs it is built from.
//! * [`shortest_path`] — BFS hop counts and the [`DistanceMatrix`] consumed
//!   by the placement and simulation crates.
//! * [`placement`] — assignment of CDN servers and primary sites to stub
//!   domains, mirroring the paper's "placed each server and primary site
//!   inside a randomly selected stub domain".
//! * [`metrics`] — structural summaries (diameter, mean path length) used by
//!   tests and by the experiment logs.
//!
//! All randomness is driven by caller-supplied seeds; every function in this
//! crate is deterministic given its inputs.

pub mod export;
pub mod gen;
pub mod graph;
pub mod metrics;
pub mod placement;
pub mod shortest_path;

pub use gen::barabasi::{barabasi_albert, BarabasiAlbertConfig};
pub use gen::transit_stub::{TransitStubConfig, TransitStubTopology};
pub use graph::{Graph, GraphBuilder, NodeId};
pub use placement::{HostPlacement, HostPlacementConfig};
pub use shortest_path::{bfs_hops, DistanceMatrix};

/// Distance in hops between two nodes. The paper measures communication cost
/// as "the total number of hops" on the shortest path.
pub type Hops = u32;

/// Marker for "unreachable" in distance computations.
pub const UNREACHABLE: Hops = Hops::MAX;
