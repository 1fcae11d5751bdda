//! Shortest paths and the distance matrix consumed by the placement layer.
//!
//! The paper collapses the topology to `C(i, j)`, the hop count of the
//! shortest path between CDN hosts, computed once up front ("we assume that
//! the values of C(i, j) are known a priori"). [`DistanceMatrix::compute`]
//! reproduces that: one BFS per host node (every edge is one hop),
//! parallelised with rayon since the sources are independent.

use crate::graph::{Graph, NodeId};
use crate::{Hops, UNREACHABLE};
use rayon::prelude::*;

/// Single-source BFS hop counts. Returns a distance per node,
/// `UNREACHABLE` for nodes not connected to `source`.
pub fn bfs_hops(graph: &Graph, source: NodeId) -> Vec<Hops> {
    let mut dist = vec![UNREACHABLE; graph.n_nodes()];
    let mut queue = std::collections::VecDeque::new();
    dist[source as usize] = 0;
    queue.push_back(source);
    while let Some(v) = queue.pop_front() {
        let dv = dist[v as usize];
        for &w in graph.neighbors(v) {
            if dist[w as usize] == UNREACHABLE {
                dist[w as usize] = dv + 1;
                queue.push_back(w);
            }
        }
    }
    dist
}

/// Distances from a set of "host" nodes (CDN servers and primary sites) to
/// every node, stored row-major: `dist(h, v)` for host index `h`.
///
/// Placement algorithms only ever need host-to-host distances, but keeping
/// the full rows costs little at this scale and lets the simulator look up
/// arbitrary nodes.
#[derive(Debug, Clone)]
pub struct DistanceMatrix {
    n_nodes: usize,
    hosts: Vec<NodeId>,
    rows: Vec<Hops>,
}

impl DistanceMatrix {
    /// Run one BFS per host, in parallel across hosts.
    pub fn compute(graph: &Graph, hosts: &[NodeId]) -> Self {
        let rows: Vec<Hops> = hosts
            .par_iter()
            .flat_map_iter(|&h| bfs_hops(graph, h))
            .collect();
        Self {
            n_nodes: graph.n_nodes(),
            hosts: hosts.to_vec(),
            rows,
        }
    }

    /// The node ids of the hosts, in row order.
    pub fn hosts(&self) -> &[NodeId] {
        &self.hosts
    }

    /// Distance from host row `h` to node `v`.
    #[inline]
    pub fn dist(&self, h: usize, v: NodeId) -> Hops {
        self.rows[h * self.n_nodes + v as usize]
    }

    /// Distance between two host rows.
    #[inline]
    pub fn host_dist(&self, a: usize, b: usize) -> Hops {
        self.dist(a, self.hosts[b])
    }

    /// Full distance row of host `h`.
    pub fn row(&self, h: usize) -> &[Hops] {
        &self.rows[h * self.n_nodes..(h + 1) * self.n_nodes]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;

    fn path_graph(n: usize) -> Graph {
        let mut b = GraphBuilder::new(n);
        for i in 1..n {
            b.add_edge((i - 1) as NodeId, i as NodeId);
        }
        b.build()
    }

    fn cycle_graph(n: usize) -> Graph {
        let mut b = GraphBuilder::new(n);
        for i in 0..n {
            b.add_edge(i as NodeId, ((i + 1) % n) as NodeId);
        }
        b.build()
    }

    #[test]
    fn bfs_on_path() {
        let g = path_graph(5);
        let d = bfs_hops(&g, 0);
        assert_eq!(d, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn bfs_on_cycle_wraps() {
        let g = cycle_graph(6);
        let d = bfs_hops(&g, 0);
        assert_eq!(d, vec![0, 1, 2, 3, 2, 1]);
    }

    #[test]
    fn unreachable_nodes_marked() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1);
        let g = b.build();
        let d = bfs_hops(&g, 0);
        assert_eq!(d[2], UNREACHABLE);
    }

    #[test]
    fn distance_matrix_rows_match_single_source() {
        let g = cycle_graph(8);
        let hosts = vec![0u32, 3, 5];
        let m = DistanceMatrix::compute(&g, &hosts);
        for (h, &node) in hosts.iter().enumerate() {
            assert_eq!(m.row(h), &bfs_hops(&g, node)[..]);
        }
    }

    #[test]
    fn host_dist_is_symmetric_on_undirected_graph() {
        let g = cycle_graph(10);
        let hosts = vec![1u32, 4, 7, 9];
        let m = DistanceMatrix::compute(&g, &hosts);
        for a in 0..hosts.len() {
            for b in 0..hosts.len() {
                assert_eq!(m.host_dist(a, b), m.host_dist(b, a));
            }
        }
    }

    #[test]
    fn distance_matrix_is_thread_count_invariant() {
        // All-pairs rows must be laid out identically whether the
        // per-source searches run on one thread or several — ordered
        // collect is what guarantees the row-major concatenation.
        let mut b = GraphBuilder::new(300);
        for i in 1..300 {
            b.add_edge((i - 1) as NodeId, i as NodeId);
        }
        for i in (0..280).step_by(17) {
            b.add_edge(i as NodeId, (i + 20) as NodeId);
        }
        let g = b.build();
        let hosts: Vec<NodeId> = (0..300).step_by(9).collect();
        let pool = |n| {
            rayon::ThreadPoolBuilder::new()
                .num_threads(n)
                .build()
                .unwrap()
        };
        let one = pool(1).install(|| DistanceMatrix::compute(&g, &hosts));
        let four = pool(4).install(|| DistanceMatrix::compute(&g, &hosts));
        for h in 0..hosts.len() {
            assert_eq!(one.row(h), four.row(h), "host row {h}");
        }
    }

    #[test]
    fn self_distance_is_zero() {
        let g = path_graph(4);
        let m = DistanceMatrix::compute(&g, &[2]);
        assert_eq!(m.host_dist(0, 0), 0);
    }
}
