//! Property-based tests for the topology substrate.

use cdn_topology::gen::transit_stub::{TransitStubConfig, TransitStubTopology};
use cdn_topology::shortest_path::{bfs_hops, DistanceMatrix};
use cdn_topology::{Graph, GraphBuilder, Hops, NodeId, UNREACHABLE};
use proptest::prelude::*;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Single-source Dijkstra with every edge one hop: the independent
/// reference `bfs_hops` is checked against.
fn dijkstra(graph: &Graph, source: NodeId) -> Vec<Hops> {
    let mut dist = vec![UNREACHABLE; graph.n_nodes()];
    let mut heap = BinaryHeap::new();
    dist[source as usize] = 0;
    heap.push(Reverse((0 as Hops, source)));
    while let Some(Reverse((d, v))) = heap.pop() {
        if d > dist[v as usize] {
            continue; // stale entry
        }
        for &w in graph.neighbors(v) {
            let nd = d + 1;
            if nd < dist[w as usize] {
                dist[w as usize] = nd;
                heap.push(Reverse((nd, w)));
            }
        }
    }
    dist
}

/// Arbitrary connected graph: a random tree over `n` nodes plus extra edges.
fn connected_graph() -> impl Strategy<Value = Graph> {
    (2usize..40, any::<u64>()).prop_map(|(n, seed)| {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let mut b = GraphBuilder::new(n);
        for v in 1..n {
            let parent = rng.gen_range(0..v);
            b.add_edge(parent as NodeId, v as NodeId);
        }
        let extra = rng.gen_range(0..n);
        for _ in 0..extra {
            let a = rng.gen_range(0..n) as NodeId;
            let c = rng.gen_range(0..n) as NodeId;
            if a != c {
                b.add_edge(a, c);
            }
        }
        b.build()
    })
}

proptest! {
    #[test]
    fn bfs_distances_symmetric(g in connected_graph()) {
        let n = g.n_nodes();
        for s in 0..n {
            let ds = bfs_hops(&g, s as NodeId);
            for (t, &d_st) in ds.iter().enumerate() {
                let dt = bfs_hops(&g, t as NodeId);
                prop_assert_eq!(d_st, dt[s]);
            }
        }
    }

    #[test]
    fn bfs_satisfies_triangle_inequality(g in connected_graph()) {
        let n = g.n_nodes();
        let all: Vec<Vec<u32>> = (0..n).map(|s| bfs_hops(&g, s as NodeId)).collect();
        for a in 0..n {
            for b in 0..n {
                for c in 0..n {
                    prop_assert!(all[a][c] <= all[a][b] + all[b][c]);
                }
            }
        }
    }

    #[test]
    fn adjacent_nodes_distance_one(g in connected_graph()) {
        for v in 0..g.n_nodes() as NodeId {
            let d = bfs_hops(&g, v);
            for &w in g.neighbors(v) {
                prop_assert_eq!(d[w as usize], 1);
            }
        }
    }

    #[test]
    fn dijkstra_equals_bfs_on_unit_weights(g in connected_graph()) {
        for v in 0..g.n_nodes() as NodeId {
            prop_assert_eq!(bfs_hops(&g, v), dijkstra(&g, v));
        }
    }

    #[test]
    fn distance_matrix_consistent_with_bfs(g in connected_graph(), seed in any::<u64>()) {
        use rand::rngs::StdRng;
        use rand::{seq::SliceRandom, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let mut nodes: Vec<NodeId> = (0..g.n_nodes() as NodeId).collect();
        nodes.shuffle(&mut rng);
        let hosts = &nodes[..nodes.len().min(5)];
        let m = DistanceMatrix::compute(&g, hosts);
        for (h, &src) in hosts.iter().enumerate() {
            prop_assert_eq!(m.row(h), &bfs_hops(&g, src)[..]);
        }
    }

    #[test]
    fn transit_stub_generation_always_connected(seed in any::<u64>(),
                                                t in 1usize..3,
                                                nt in 1usize..4,
                                                s in 1usize..4,
                                                ns in 1usize..6) {
        let cfg = TransitStubConfig {
            transit_domains: t,
            transit_nodes_per_domain: nt,
            stubs_per_transit_node: s,
            stub_nodes_per_domain: ns,
            transit_edge_prob: 0.3,
            stub_edge_prob: 0.3,
            extra_transit_domain_edges: 1,
            multihome_prob: 0.1,
        };
        let topo = TransitStubTopology::generate(&cfg, seed);
        prop_assert!(topo.graph.is_connected());
        prop_assert_eq!(topo.graph.n_nodes(), cfg.total_nodes());
    }
}
