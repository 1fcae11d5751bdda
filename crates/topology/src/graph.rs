//! Compact undirected graph in compressed-sparse-row (CSR) form.
//!
//! The topology generators accumulate edges in a [`GraphBuilder`] and then
//! freeze them into a [`Graph`], whose adjacency is two flat arrays. All
//! shortest-path work in this workspace iterates neighbour lists in tight
//! loops, so the CSR layout (one indirection, cache-friendly) matters more
//! than mutation ergonomics. Every edge is one hop, the paper's cost unit.

/// Index of a node. Kept at 32 bits: the largest graphs in the reproduction
/// are a few thousand nodes, and halving the index size keeps the CSR arrays
/// and the distance matrices compact.
pub type NodeId = u32;

/// Incremental edge accumulator. Duplicate edges and self-loops are rejected
/// at insertion time so generators cannot silently double-connect domains.
#[derive(Debug, Clone, Default)]
pub struct GraphBuilder {
    n_nodes: usize,
    edges: Vec<(NodeId, NodeId)>,
    seen: std::collections::HashSet<(NodeId, NodeId)>,
}

impl GraphBuilder {
    /// Create a builder for a graph with `n_nodes` nodes and no edges.
    pub fn new(n_nodes: usize) -> Self {
        Self {
            n_nodes,
            edges: Vec::new(),
            seen: std::collections::HashSet::new(),
        }
    }

    /// Number of nodes the final graph will have.
    pub fn n_nodes(&self) -> usize {
        self.n_nodes
    }

    /// Number of distinct edges added so far.
    pub fn n_edges(&self) -> usize {
        self.edges.len()
    }

    /// Append `extra` fresh nodes, returning the id of the first new node.
    pub fn grow(&mut self, extra: usize) -> NodeId {
        let first = self.n_nodes as NodeId;
        self.n_nodes += extra;
        first
    }

    /// Add an undirected edge. Returns `false` (and adds nothing) if the
    /// edge is a self-loop or already present.
    ///
    /// # Panics
    /// Panics if either endpoint is out of range.
    pub fn add_edge(&mut self, a: NodeId, b: NodeId) -> bool {
        assert!(
            (a as usize) < self.n_nodes && (b as usize) < self.n_nodes,
            "edge ({a}, {b}) out of range for {} nodes",
            self.n_nodes
        );
        if a == b {
            return false;
        }
        let key = if a < b { (a, b) } else { (b, a) };
        if !self.seen.insert(key) {
            return false;
        }
        self.edges.push((a, b));
        true
    }

    /// True if the undirected edge `(a, b)` has already been added.
    pub fn has_edge(&self, a: NodeId, b: NodeId) -> bool {
        let key = if a < b { (a, b) } else { (b, a) };
        self.seen.contains(&key)
    }

    /// Freeze into CSR form.
    pub fn build(self) -> Graph {
        let n = self.n_nodes;
        let mut degree = vec![0usize; n];
        for &(a, b) in &self.edges {
            degree[a as usize] += 1;
            degree[b as usize] += 1;
        }
        let mut offsets = Vec::with_capacity(n + 1);
        let mut acc = 0usize;
        offsets.push(0);
        for d in &degree {
            acc += d;
            offsets.push(acc);
        }
        let mut cursor = offsets[..n].to_vec();
        let mut targets = vec![0 as NodeId; acc];
        for &(a, b) in &self.edges {
            targets[cursor[a as usize]] = b;
            cursor[a as usize] += 1;
            targets[cursor[b as usize]] = a;
            cursor[b as usize] += 1;
        }
        Graph {
            offsets,
            targets,
            n_edges: self.edges.len(),
        }
    }
}

/// Immutable undirected graph in CSR form.
#[derive(Debug, Clone)]
pub struct Graph {
    /// `offsets[v]..offsets[v+1]` indexes `targets` for node `v`.
    offsets: Vec<usize>,
    targets: Vec<NodeId>,
    n_edges: usize,
}

impl Graph {
    /// Number of nodes.
    pub fn n_nodes(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges.
    pub fn n_edges(&self) -> usize {
        self.n_edges
    }

    /// Degree of `v`.
    pub fn degree(&self, v: NodeId) -> usize {
        self.offsets[v as usize + 1] - self.offsets[v as usize]
    }

    /// Neighbours of `v` (targets only).
    pub fn neighbors(&self, v: NodeId) -> &[NodeId] {
        &self.targets[self.offsets[v as usize]..self.offsets[v as usize + 1]]
    }

    /// True if the graph is connected (trivially true for empty graphs).
    pub fn is_connected(&self) -> bool {
        let n = self.n_nodes();
        if n == 0 {
            return true;
        }
        let mut seen = vec![false; n];
        let mut stack = vec![0 as NodeId];
        seen[0] = true;
        let mut count = 1usize;
        while let Some(v) = stack.pop() {
            for &w in self.neighbors(v) {
                if !seen[w as usize] {
                    seen[w as usize] = true;
                    count += 1;
                    stack.push(w);
                }
            }
        }
        count == n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path_graph(n: usize) -> Graph {
        let mut b = GraphBuilder::new(n);
        for i in 1..n {
            b.add_edge((i - 1) as NodeId, i as NodeId);
        }
        b.build()
    }

    #[test]
    fn empty_graph_is_connected() {
        let g = GraphBuilder::new(0).build();
        assert_eq!(g.n_nodes(), 0);
        assert_eq!(g.n_edges(), 0);
        assert!(g.is_connected());
    }

    #[test]
    fn singleton_graph() {
        let g = GraphBuilder::new(1).build();
        assert_eq!(g.n_nodes(), 1);
        assert_eq!(g.degree(0), 0);
        assert!(g.is_connected());
    }

    #[test]
    fn path_graph_structure() {
        let g = path_graph(5);
        assert_eq!(g.n_nodes(), 5);
        assert_eq!(g.n_edges(), 4);
        assert_eq!(g.degree(0), 1);
        assert_eq!(g.degree(2), 2);
        assert!(g.is_connected());
    }

    #[test]
    fn disconnected_graph_detected() {
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1);
        b.add_edge(2, 3);
        let g = b.build();
        assert!(!g.is_connected());
    }

    #[test]
    fn self_loops_rejected() {
        let mut b = GraphBuilder::new(3);
        assert!(!b.add_edge(1, 1));
        assert_eq!(b.n_edges(), 0);
    }

    #[test]
    fn duplicate_edges_rejected_in_both_orientations() {
        let mut b = GraphBuilder::new(3);
        assert!(b.add_edge(0, 1));
        assert!(!b.add_edge(0, 1));
        assert!(!b.add_edge(1, 0));
        assert_eq!(b.n_edges(), 1);
        assert!(b.has_edge(1, 0));
    }

    #[test]
    fn neighbors_are_symmetric() {
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1);
        b.add_edge(0, 2);
        b.add_edge(2, 3);
        let g = b.build();
        for v in 0..4u32 {
            for &w in g.neighbors(v) {
                assert!(g.neighbors(w).contains(&v), "{v} -> {w} not symmetric");
            }
        }
    }

    #[test]
    fn grow_appends_nodes() {
        let mut b = GraphBuilder::new(2);
        let first = b.grow(3);
        assert_eq!(first, 2);
        assert_eq!(b.n_nodes(), 5);
        assert!(b.add_edge(0, 4));
    }

    #[test]
    #[should_panic]
    fn out_of_range_edge_panics() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 5);
    }
}
