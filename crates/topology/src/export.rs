//! Graph export for visualisation and interchange.
//!
//! Generated topologies are easiest to sanity-check visually; this module
//! renders transit-stub graphs as Graphviz DOT with role-based styling, and
//! any graph as a simple edge-list CSV for downstream tools.

use crate::gen::transit_stub::TransitStubTopology;
use crate::graph::{Graph, NodeId};
use std::fmt::Write;

/// Render a transit-stub topology as DOT with transit nodes highlighted
/// and stub domains clustered.
pub fn transit_stub_to_dot(topo: &TransitStubTopology, name: &str) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "graph {name} {{");
    let _ = writeln!(out, "  node [shape=point];");
    for &t in &topo.transit_nodes {
        let _ = writeln!(
            out,
            "  n{t} [shape=circle, style=filled, fillcolor=black, width=0.15];"
        );
    }
    for (d, sd) in topo.stub_domains.iter().enumerate() {
        let _ = writeln!(out, "  subgraph cluster_stub{d} {{");
        let _ = writeln!(out, "    style=dotted;");
        for &v in &sd.nodes {
            let _ = writeln!(out, "    n{v};");
        }
        let _ = writeln!(out, "  }}");
    }
    for v in 0..topo.graph.n_nodes() as NodeId {
        for &w in topo.graph.neighbors(v) {
            if v < w {
                let _ = writeln!(out, "  n{v} -- n{w};");
            }
        }
    }
    out.push_str("}\n");
    out
}

/// Edge list as CSV (`a,b,weight` with a header row). Every edge is one
/// hop, so `weight` is always 1.
pub fn to_edge_csv(graph: &Graph) -> String {
    let mut out = String::from("a,b,weight\n");
    for v in 0..graph.n_nodes() as NodeId {
        for &w in graph.neighbors(v) {
            if v < w {
                let _ = writeln!(out, "{v},{w},1");
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::transit_stub::TransitStubConfig;
    use crate::graph::GraphBuilder;

    fn triangle() -> Graph {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1);
        b.add_edge(1, 2);
        b.add_edge(0, 2);
        b.build()
    }

    #[test]
    fn dot_contains_each_edge_once() {
        let topo = crate::TransitStubTopology::generate(&TransitStubConfig::small(), 3);
        let dot = transit_stub_to_dot(&topo, "t");
        assert!(dot.starts_with("graph t {"));
        assert!(dot.trim_end().ends_with('}'));
        for v in 0..topo.graph.n_nodes() as NodeId {
            for &w in topo.graph.neighbors(v) {
                let (lo, hi) = (v.min(w), v.max(w));
                assert!(dot.contains(&format!("n{lo} -- n{hi};")));
                assert!(
                    !dot.contains(&format!("n{hi} -- n{lo};")),
                    "edge duplicated"
                );
            }
        }
    }

    #[test]
    fn edge_csv_round_trips_counts() {
        let csv = to_edge_csv(&triangle());
        let lines: Vec<&str> = csv.trim().lines().collect();
        assert_eq!(lines[0], "a,b,weight");
        assert_eq!(lines.len(), 4);
        assert!(lines.contains(&"0,1,1"));
    }

    #[test]
    fn transit_stub_dot_clusters_and_highlights() {
        let topo = crate::TransitStubTopology::generate(&TransitStubConfig::small(), 3);
        let dot = transit_stub_to_dot(&topo, "ts");
        assert_eq!(
            dot.matches("subgraph cluster_stub").count(),
            topo.stub_domains.len()
        );
        assert_eq!(
            dot.matches("fillcolor=black").count(),
            topo.transit_nodes.len()
        );
        assert_eq!(dot.matches(" -- ").count(), topo.graph.n_edges());
    }

    #[test]
    fn empty_graph_exports_cleanly() {
        let g = GraphBuilder::new(0).build();
        assert_eq!(to_edge_csv(&g).trim(), "a,b,weight");
    }
}
