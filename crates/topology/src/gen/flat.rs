//! Flat random graphs over a contiguous range of node ids.
//!
//! GT-ITM builds each domain as a connected random graph; we reproduce that
//! with a random spanning tree (guaranteeing connectivity) plus extra edges
//! added uniformly with probability `p` (GT-ITM's pure random model).

use crate::graph::{GraphBuilder, NodeId};
use rand::Rng;

/// Connect `nodes` into a random spanning tree: each node after the first
/// attaches to a uniformly random earlier node. Produces trees with a
/// realistic mix of chains and fans.
pub fn connect_random_tree<R: Rng>(builder: &mut GraphBuilder, nodes: &[NodeId], rng: &mut R) {
    for (idx, &v) in nodes.iter().enumerate().skip(1) {
        let parent = nodes[rng.gen_range(0..idx)];
        builder.add_edge(parent, v);
    }
}

/// Add each absent pair edge independently with probability `p`.
pub fn add_uniform_edges<R: Rng>(
    builder: &mut GraphBuilder,
    nodes: &[NodeId],
    p: f64,
    rng: &mut R,
) -> usize {
    let mut added = 0;
    for (i, &a) in nodes.iter().enumerate() {
        for &b in &nodes[i + 1..] {
            if rng.gen_bool(p.clamp(0.0, 1.0)) && builder.add_edge(a, b) {
                added += 1;
            }
        }
    }
    added
}

/// Build a connected random domain: spanning tree plus uniform extra edges.
pub fn connected_random_domain<R: Rng>(
    builder: &mut GraphBuilder,
    nodes: &[NodeId],
    extra_edge_prob: f64,
    rng: &mut R,
) {
    connect_random_tree(builder, nodes, rng);
    add_uniform_edges(builder, nodes, extra_edge_prob, rng);
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn ids(n: usize) -> Vec<NodeId> {
        (0..n as NodeId).collect()
    }

    #[test]
    fn random_tree_is_connected_and_has_n_minus_one_edges() {
        let mut rng = StdRng::seed_from_u64(1);
        for n in [1usize, 2, 3, 10, 57] {
            let mut b = GraphBuilder::new(n);
            connect_random_tree(&mut b, &ids(n), &mut rng);
            assert_eq!(b.n_edges(), n.saturating_sub(1));
            assert!(b.build().is_connected(), "n = {n}");
        }
    }

    #[test]
    fn uniform_edges_probability_zero_adds_nothing() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut b = GraphBuilder::new(20);
        let added = add_uniform_edges(&mut b, &ids(20), 0.0, &mut rng);
        assert_eq!(added, 0);
    }

    #[test]
    fn uniform_edges_probability_one_completes_graph() {
        let mut rng = StdRng::seed_from_u64(3);
        let n = 12usize;
        let mut b = GraphBuilder::new(n);
        let added = add_uniform_edges(&mut b, &ids(n), 1.0, &mut rng);
        assert_eq!(added, n * (n - 1) / 2);
    }

    #[test]
    fn connected_domain_is_connected() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut b = GraphBuilder::new(30);
        connected_random_domain(&mut b, &ids(30), 0.15, &mut rng);
        assert!(b.build().is_connected());
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let build = || {
            let mut rng = StdRng::seed_from_u64(42);
            let mut b = GraphBuilder::new(25);
            connected_random_domain(&mut b, &ids(25), 0.2, &mut rng);
            b.n_edges()
        };
        assert_eq!(build(), build());
    }
}
