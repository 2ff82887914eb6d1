//! The computational-graph DAG itself.

use crate::op::{node_activation_elems, node_flops, node_params, NodeAttrs, OpKind};
use pddl_telemetry::hash::Fnv1a;
use pddl_telemetry::json::{self, FromJson, JsonError, JsonValue, JsonWriter, ToJson};
use std::collections::VecDeque;
use std::fmt;

/// Index of a node within its [`CompGraph`].
pub type NodeId = usize;

/// One primitive operation in the graph.
#[derive(Clone, Debug, PartialEq)]
pub struct Node {
    pub kind: OpKind,
    pub attrs: NodeAttrs,
    /// Human-readable label for debugging/visualization (e.g. "layer3.conv2").
    pub label: String,
}

impl ToJson for Node {
    fn write_json(&self, w: &mut JsonWriter) {
        w.object()
            .field("kind", &self.kind)
            .field("attrs", &self.attrs)
            .field("label", &self.label)
            .end();
    }
}

impl FromJson for Node {
    fn read_json(v: &JsonValue) -> Result<Self, JsonError> {
        let o = v.fields()?;
        Ok(Self { kind: o.field("kind")?, attrs: o.field("attrs")?, label: o.field("label")? })
    }
}

/// Structural problems detected by [`CompGraph::validate`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GraphError {
    /// The graph contains a directed cycle.
    Cyclic,
    /// No `Input` node present.
    NoInput,
    /// No `Output` node present.
    NoOutput,
    /// Node unreachable from any input (dead subgraph).
    Unreachable(NodeId),
    /// Edge endpoint out of range.
    DanglingEdge(NodeId, NodeId),
    /// A non-input node with no predecessors.
    OrphanNode(NodeId),
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::Cyclic => write!(f, "graph contains a cycle"),
            GraphError::NoInput => write!(f, "graph has no Input node"),
            GraphError::NoOutput => write!(f, "graph has no Output node"),
            GraphError::Unreachable(v) => write!(f, "node {v} unreachable from input"),
            GraphError::DanglingEdge(u, v) => write!(f, "edge {u}->{v} out of range"),
            GraphError::OrphanNode(v) => write!(f, "non-input node {v} has no predecessors"),
        }
    }
}

impl std::error::Error for GraphError {}

/// A DNN architecture as a DAG of primitive operations.
///
/// Nodes are stored in insertion order; the model-zoo builders insert in a
/// valid topological order but nothing relies on that — [`topo_order`]
/// recomputes via Kahn's algorithm and [`validate`] rejects cycles.
///
/// [`topo_order`]: CompGraph::topo_order
/// [`validate`]: CompGraph::validate
#[derive(Clone, Debug)]
pub struct CompGraph {
    /// Architecture name, e.g. `"resnet18"`.
    pub name: String,
    nodes: Vec<Node>,
    /// Forward adjacency: `out_edges[u]` lists v with u → v.
    out_edges: Vec<Vec<NodeId>>,
    /// Reverse adjacency: `in_edges[v]` lists u with u → v.
    in_edges: Vec<Vec<NodeId>>,
}

impl ToJson for CompGraph {
    fn write_json(&self, w: &mut JsonWriter) {
        w.object()
            .field("name", &self.name)
            .field("nodes", &self.nodes)
            .field("out_edges", &self.out_edges)
            .field("in_edges", &self.in_edges)
            .end();
    }
}

impl FromJson for CompGraph {
    fn read_json(v: &JsonValue) -> Result<Self, JsonError> {
        let o = v.fields()?;
        let g = Self {
            name: o.field("name")?,
            nodes: o.field("nodes")?,
            out_edges: o.field("out_edges")?,
            in_edges: o.field("in_edges")?,
        };
        // The adjacency lists arrive from outside; every method indexes
        // them by node id, so a decoded graph must be as well-formed as
        // one built through `add_node` / `add_edge`.
        if g.adjacency_is_consistent() {
            Ok(g)
        } else {
            Err(JsonError::Shape("adjacency lists do not match the node list".into()))
        }
    }
}

impl CompGraph {
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            nodes: Vec::new(),
            out_edges: Vec::new(),
            in_edges: Vec::new(),
        }
    }

    /// Adds a node and returns its id.
    pub fn add_node(&mut self, kind: OpKind, attrs: NodeAttrs, label: impl Into<String>) -> NodeId {
        self.nodes.push(Node { kind, attrs, label: label.into() });
        self.out_edges.push(Vec::new());
        self.in_edges.push(Vec::new());
        self.nodes.len() - 1
    }

    /// Adds a directed data-flow edge `from → to`. Duplicate edges are
    /// ignored (the adjacency matrix is binary).
    pub fn add_edge(&mut self, from: NodeId, to: NodeId) {
        assert!(from < self.nodes.len() && to < self.nodes.len(), "edge endpoint out of range");
        assert_ne!(from, to, "self-loop is not a valid data flow");
        if !self.out_edges[from].contains(&to) {
            self.out_edges[from].push(to);
            self.in_edges[to].push(from);
        }
    }

    /// One adjacency row per node, every endpoint in range, and
    /// `in_edges` exactly the transpose of `out_edges`.
    fn adjacency_is_consistent(&self) -> bool {
        let n = self.nodes.len();
        let indexable =
            |adj: &[Vec<NodeId>]| adj.len() == n && adj.iter().flatten().all(|&v| v < n);
        if !indexable(&self.out_edges) || !indexable(&self.in_edges) {
            return false;
        }
        let mut transpose = vec![Vec::new(); n];
        for (u, outs) in self.out_edges.iter().enumerate() {
            for &v in outs {
                transpose[v].push(u);
            }
        }
        self.in_edges.iter().zip(&transpose).all(|(ins, expect)| {
            let mut ins = ins.clone();
            ins.sort_unstable();
            ins == *expect
        })
    }

    /// Convenience: adds a node wired from a single predecessor.
    pub fn chain(&mut self, prev: NodeId, kind: OpKind, attrs: NodeAttrs, label: impl Into<String>) -> NodeId {
        let id = self.add_node(kind, attrs, label);
        self.add_edge(prev, id);
        id
    }

    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id]
    }

    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    pub fn num_edges(&self) -> usize {
        self.out_edges.iter().map(|e| e.len()).sum()
    }

    /// Successors of `v` (forward-pass neighbors 𝒩ᵥ for π = bw).
    pub fn successors(&self, v: NodeId) -> &[NodeId] {
        &self.out_edges[v]
    }

    /// Predecessors of `v` (incoming neighbors 𝒩ᵥ for π = fw).
    pub fn predecessors(&self, v: NodeId) -> &[NodeId] {
        &self.in_edges[v]
    }

    /// Kahn's-algorithm topological order; `None` if the graph is cyclic.
    pub fn topo_order(&self) -> Option<Vec<NodeId>> {
        let n = self.nodes.len();
        let mut indegree: Vec<usize> = self.in_edges.iter().map(|e| e.len()).collect();
        let mut queue: VecDeque<NodeId> =
            (0..n).filter(|&v| indegree[v] == 0).collect();
        let mut order = Vec::with_capacity(n);
        while let Some(v) = queue.pop_front() {
            order.push(v);
            for &w in &self.out_edges[v] {
                indegree[w] -= 1;
                if indegree[w] == 0 {
                    queue.push_back(w);
                }
            }
        }
        (order.len() == n).then_some(order)
    }

    /// Binary adjacency matrix as a flat row-major `Vec` (1.0 where u → v).
    pub fn adjacency_flat(&self) -> Vec<f32> {
        let n = self.nodes.len();
        let mut a = vec![0.0f32; n * n];
        for (u, outs) in self.out_edges.iter().enumerate() {
            for &v in outs {
                a[u * n + v] = 1.0;
            }
        }
        a
    }

    /// Structural validation per the invariants the GHN relies on.
    pub fn validate(&self) -> Result<(), GraphError> {
        if !self.nodes.iter().any(|n| n.kind == OpKind::Input) {
            return Err(GraphError::NoInput);
        }
        if !self.nodes.iter().any(|n| n.kind == OpKind::Output) {
            return Err(GraphError::NoOutput);
        }
        for (v, node) in self.nodes.iter().enumerate() {
            if node.kind != OpKind::Input && self.in_edges[v].is_empty() {
                return Err(GraphError::OrphanNode(v));
            }
        }
        let order = self.topo_order().ok_or(GraphError::Cyclic)?;
        // Reachability from the set of inputs.
        let mut reach = vec![false; self.nodes.len()];
        for (v, node) in self.nodes.iter().enumerate() {
            if node.kind == OpKind::Input {
                reach[v] = true;
            }
        }
        for &v in &order {
            if reach[v] {
                for &w in &self.out_edges[v] {
                    reach[w] = true;
                }
            }
        }
        if let Some(v) = reach.iter().position(|&r| !r) {
            return Err(GraphError::Unreachable(v));
        }
        Ok(())
    }

    // ----- analytic cost aggregates (consumed by zoo/ddlsim/baselines) -----

    /// Forward-pass FLOPs for a single example.
    pub fn flops_per_example(&self) -> f64 {
        self.nodes
            .iter()
            .map(|n| node_flops(n.kind, &n.attrs))
            .sum()
    }

    /// Total trainable parameters.
    pub fn num_params(&self) -> u64 {
        self.nodes
            .iter()
            .map(|n| node_params(n.kind, &n.attrs))
            .sum()
    }

    /// Number of weight layers (conv + dense), the paper's `#layers` feature.
    pub fn num_layers(&self) -> usize {
        self.nodes.iter().filter(|n| n.kind.is_layer()).count()
    }

    /// Total activation elements for one example (memory-traffic proxy).
    pub fn activation_elems(&self) -> u64 {
        self.nodes
            .iter()
            .map(|n| node_activation_elems(&n.attrs))
            .sum()
    }

    /// Fraction of conv FLOPs performed by depthwise/grouped convolutions —
    /// a strong determinant of hardware efficiency (low arithmetic
    /// intensity), used by the simulator.
    pub fn grouped_flop_fraction(&self) -> f64 {
        let mut grouped = 0.0;
        let mut total = 0.0;
        for n in &self.nodes {
            if n.kind.is_conv() {
                let f = node_flops(n.kind, &n.attrs);
                total += f;
                if matches!(n.kind, OpKind::DepthwiseConv | OpKind::GroupConv) {
                    grouped += f;
                }
            }
        }
        if total == 0.0 {
            0.0
        } else {
            grouped / total
        }
    }

    /// Fraction of nodes that are branch joins (Sum/Concat/Mul) — a proxy
    /// for kernel-launch/fragmentation overhead in the efficiency model.
    pub fn branching_fraction(&self) -> f64 {
        if self.nodes.is_empty() {
            return 0.0;
        }
        let joins = self
            .nodes
            .iter()
            .filter(|n| matches!(n.kind, OpKind::Sum | OpKind::Concat | OpKind::Mul))
            .count();
        joins as f64 / self.nodes.len() as f64
    }

    /// Histogram of op kinds, normalized to sum to 1 (a decoder target for
    /// the surrogate GHN objective).
    pub fn op_histogram(&self) -> Vec<f32> {
        let mut h = vec![0.0f32; OpKind::COUNT];
        for n in &self.nodes {
            h[n.kind.index()] += 1.0;
        }
        let total: f32 = h.iter().sum();
        if total > 0.0 {
            for x in &mut h {
                *x /= total;
            }
        }
        h
    }

    /// Longest path length (in edges) from an input to an output — the
    /// "depth" target of the surrogate objective.
    pub fn depth(&self) -> usize {
        let order = match self.topo_order() {
            Some(o) => o,
            None => return 0,
        };
        let mut dist = vec![0usize; self.nodes.len()];
        let mut best = 0;
        for &v in &order {
            for &w in &self.out_edges[v] {
                dist[w] = dist[w].max(dist[v] + 1);
                best = best.max(dist[w]);
            }
        }
        best
    }

    /// A stable 64-bit structural fingerprint of the graph: FNV-1a over
    /// every node's op kind and attributes plus the full edge list, in
    /// storage order. Two graphs built the same way (e.g. the same zoo
    /// model resolved twice) hash identically regardless of `name` or node
    /// labels, which makes the fingerprint a usable cache key for derived
    /// artifacts such as GHN embeddings. Not a cryptographic hash; the
    /// value is stable across processes and platforms.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv1a::new();
        h.u64_le(self.nodes.len() as u64);
        for n in &self.nodes {
            h.u64_le(n.kind.index() as u64);
            h.u64_le(n.attrs.c_in as u64);
            h.u64_le(n.attrs.c_out as u64);
            h.u64_le(n.attrs.kernel as u64);
            h.u64_le(n.attrs.stride as u64);
            h.u64_le(n.attrs.groups as u64);
            h.u64_le(n.attrs.spatial as u64);
        }
        for (u, outs) in self.out_edges.iter().enumerate() {
            for &v in outs {
                h.u64_le(u as u64);
                h.u64_le(v as u64);
            }
        }
        h.finish()
    }

    /// JSON serialization (the on-disk format for traces and registries).
    pub fn to_json(&self) -> String {
        json::to_string(self).expect("a graph holds no floats")
    }

    pub fn from_json(s: &str) -> Result<Self, JsonError> {
        json::from_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// input → conv → relu → output, with a skip input → sum.
    fn small_graph() -> CompGraph {
        let mut g = CompGraph::new("tiny");
        let input = g.add_node(OpKind::Input, NodeAttrs::elementwise(3, 32), "in");
        let conv = g.chain(input, OpKind::Conv, NodeAttrs::conv(3, 16, 3, 1, 32), "c1");
        let relu = g.chain(conv, OpKind::Relu, NodeAttrs::elementwise(16, 32), "r1");
        let sum = g.add_node(OpKind::Sum, NodeAttrs::elementwise(16, 32), "s");
        g.add_edge(relu, sum);
        g.add_edge(input, sum);
        let _out = g.chain(sum, OpKind::Output, NodeAttrs::elementwise(16, 32), "out");
        g
    }

    #[test]
    fn fingerprint_ignores_names_but_sees_structure() {
        let a = small_graph();
        let mut b = small_graph();
        b.name = "renamed".into();
        assert_eq!(a.fingerprint(), b.fingerprint(), "name must not affect the hash");

        // A structural change (one extra edge) must change the hash.
        let mut c = small_graph();
        c.add_edge(0, 2);
        assert_ne!(a.fingerprint(), c.fingerprint());

        // An attribute change must change the hash.
        let mut d = CompGraph::new("tiny");
        let input = d.add_node(OpKind::Input, NodeAttrs::elementwise(3, 32), "in");
        let conv = d.chain(input, OpKind::Conv, NodeAttrs::conv(3, 32, 3, 1, 32), "c1");
        let relu = d.chain(conv, OpKind::Relu, NodeAttrs::elementwise(32, 32), "r1");
        let sum = d.add_node(OpKind::Sum, NodeAttrs::elementwise(32, 32), "s");
        d.add_edge(relu, sum);
        d.add_edge(input, sum);
        let _out = d.chain(sum, OpKind::Output, NodeAttrs::elementwise(32, 32), "out");
        assert_ne!(a.fingerprint(), d.fingerprint());
    }

    #[test]
    fn topo_order_respects_edges() {
        let g = small_graph();
        let order = g.topo_order().unwrap();
        let pos: Vec<usize> = {
            let mut p = vec![0; g.num_nodes()];
            for (i, &v) in order.iter().enumerate() {
                p[v] = i;
            }
            p
        };
        for u in 0..g.num_nodes() {
            for &v in g.successors(u) {
                assert!(pos[u] < pos[v], "edge {u}->{v} violated");
            }
        }
    }

    #[test]
    fn cycle_detected() {
        let mut g = CompGraph::new("cyclic");
        let a = g.add_node(OpKind::Input, NodeAttrs::default(), "a");
        let b = g.chain(a, OpKind::Relu, NodeAttrs::default(), "b");
        let c = g.chain(b, OpKind::Output, NodeAttrs::default(), "c");
        g.add_edge(c, b);
        assert!(g.topo_order().is_none());
        assert_eq!(g.validate(), Err(GraphError::Cyclic));
    }

    #[test]
    fn validate_accepts_small_graph() {
        assert_eq!(small_graph().validate(), Ok(()));
    }

    #[test]
    fn validate_rejects_missing_output() {
        let mut g = CompGraph::new("no-out");
        let _ = g.add_node(OpKind::Input, NodeAttrs::default(), "in");
        assert_eq!(g.validate(), Err(GraphError::NoOutput));
    }

    #[test]
    fn validate_rejects_orphan() {
        let mut g = small_graph();
        let _orphan = g.add_node(OpKind::Relu, NodeAttrs::default(), "orphan");
        assert_eq!(g.validate(), Err(GraphError::OrphanNode(5)));
    }

    #[test]
    fn duplicate_edges_collapse() {
        let mut g = CompGraph::new("dup");
        let a = g.add_node(OpKind::Input, NodeAttrs::default(), "a");
        let b = g.add_node(OpKind::Output, NodeAttrs::default(), "b");
        g.add_edge(a, b);
        g.add_edge(a, b);
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    fn adjacency_matches_edges() {
        let g = small_graph();
        let n = g.num_nodes();
        let a = g.adjacency_flat();
        for u in 0..n {
            for v in 0..n {
                let has = g.successors(u).contains(&v);
                assert_eq!(a[u * n + v] == 1.0, has);
            }
        }
    }

    #[test]
    fn depth_of_chain() {
        let g = small_graph();
        // in→conv→relu→sum→out = 4 edges.
        assert_eq!(g.depth(), 4);
    }

    #[test]
    fn aggregates_are_positive() {
        let g = small_graph();
        assert!(g.flops_per_example() > 0.0);
        assert!(g.num_params() > 0);
        assert_eq!(g.num_layers(), 1);
    }

    #[test]
    fn json_round_trip() {
        let g = small_graph();
        let s = g.to_json();
        let g2 = CompGraph::from_json(&s).unwrap();
        assert_eq!(g2.name, g.name);
        assert_eq!(g2.num_nodes(), g.num_nodes());
        assert_eq!(g2.num_edges(), g.num_edges());
        assert_eq!(g2.nodes(), g.nodes());
        assert_eq!(g2.fingerprint(), g.fingerprint());
        assert_eq!(g2.to_json(), s);
    }

    #[test]
    fn decode_rejects_adjacency_that_would_index_out_of_bounds() {
        let good = small_graph().to_json();
        assert!(good.contains(r#""in_edges":[[],[0],[1],[2,0],[3]]"#), "{good}");
        for (from, to) in [
            // a row missing, an endpoint past the node list, an edge
            // with no mirror, a mirror with no edge
            (r#""in_edges":[[],[0],[1],[2,0],[3]]"#, r#""in_edges":[[],[0],[1],[2,0]]"#),
            (r#""out_edges":[[1,3]"#, r#""out_edges":[[1,9]"#),
            (r#""out_edges":[[1,3]"#, r#""out_edges":[[1,3,4]"#),
            (r#""in_edges":[[]"#, r#""in_edges":[[4]"#),
        ] {
            assert!(good.contains(from));
            let err = CompGraph::from_json(&good.replace(from, to)).unwrap_err();
            assert!(err.to_string().contains("adjacency"), "{err}");
        }
    }

    #[test]
    fn op_histogram_sums_to_one() {
        let h = small_graph().op_histogram();
        let s: f32 = h.iter().sum();
        assert!((s - 1.0).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn self_loop_panics() {
        let mut g = CompGraph::new("x");
        let a = g.add_node(OpKind::Input, NodeAttrs::default(), "a");
        g.add_edge(a, a);
    }
}
