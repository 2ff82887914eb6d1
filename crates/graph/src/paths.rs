//! Shortest-path distances for GHN-2 virtual edges.
//!
//! Eq. (4) of the paper extends message passing with *virtual edges*: node
//! `v` additionally receives `MLP_sp(h_u)/s_vu` from every node `u` whose
//! shortest-path distance satisfies `1 < s_vu ≤ s_max`. Distances follow the
//! propagation direction: for the forward pass, `s_vu` is the length of the
//! shortest directed path `u → v`; the backward pass uses the reverse graph.

use crate::dag::{CompGraph, NodeId};
use std::collections::VecDeque;

/// Unreachable marker in the distance matrix.
pub const UNREACHABLE: u32 = u32::MAX;

/// Virtual-edge sources `(u, s)` of every node, ascending by `u`, as
/// `[forward, backward]`: one breadth-first search per node over the
/// forward edges, cut at depth `s_max`. A node `v` first reached from `u`
/// at depth `s > 1` is a forward pair `u → v` and, read the other way, a
/// backward pair over the reversed graph, so one traversal fills both
/// directions. Each list equals [`ShortestPaths::virtual_sources`] over
/// the table of its direction.
pub fn virtual_edges(g: &CompGraph, s_max: u32) -> [Vec<Vec<(NodeId, u32)>>; 2] {
    let n = g.num_nodes();
    let (mut fw, mut bw) = (vec![Vec::new(); n], vec![Vec::new(); n]);
    // `reached_from[v] == u`: the search from `u` has seen `v`.
    let mut reached_from = vec![usize::MAX; n];
    let (mut frontier, mut next) = (Vec::new(), Vec::new());
    for u in 0..n {
        reached_from[u] = u;
        frontier.clear();
        frontier.push(u);
        for depth in 1..=s_max {
            next.clear();
            for &x in &frontier {
                for &v in g.successors(x) {
                    if reached_from[v] != u {
                        reached_from[v] = u;
                        next.push(v);
                        if depth > 1 {
                            // `u` ascends, so `fw[v]` is filled in order.
                            fw[v].push((u, depth));
                            bw[u].push((v, depth));
                        }
                    }
                }
            }
            if next.is_empty() {
                break;
            }
            std::mem::swap(&mut frontier, &mut next);
        }
        bw[u].sort_unstable();
    }
    [fw, bw]
}

/// Dense all-pairs shortest-path table over a graph's directed edges: the
/// definition [`virtual_edges`] is tested against.
#[derive(Clone, Debug)]
pub struct ShortestPaths {
    n: usize,
    /// `dist[u * n + v]` = length of shortest directed path u → v.
    dist: Vec<u32>,
}

impl ShortestPaths {
    /// BFS from every node over the forward edges. O(V·(V+E)), fine for the
    /// ≤ a-few-hundred-node graphs in the zoo.
    pub fn forward(g: &CompGraph) -> Self {
        Self::build(g, false)
    }

    /// Same over the reversed edges (for the backward propagation pass).
    pub fn backward(g: &CompGraph) -> Self {
        Self::build(g, true)
    }

    fn build(g: &CompGraph, reversed: bool) -> Self {
        let n = g.num_nodes();
        let mut dist = vec![UNREACHABLE; n * n];
        let mut queue = VecDeque::new();
        for src in 0..n {
            let row = &mut dist[src * n..(src + 1) * n];
            row[src] = 0;
            queue.clear();
            queue.push_back(src);
            while let Some(u) = queue.pop_front() {
                let next = if reversed { g.predecessors(u) } else { g.successors(u) };
                for &v in next {
                    if row[v] == UNREACHABLE {
                        row[v] = row[u] + 1;
                        queue.push_back(v);
                    }
                }
            }
        }
        Self { n, dist }
    }

    /// Distance of the shortest directed path `u → v`, or `UNREACHABLE`.
    #[inline]
    pub fn dist(&self, u: NodeId, v: NodeId) -> u32 {
        self.dist[u * self.n + v]
    }

    /// Virtual-edge neighbor set of `v`: sources `u` with `1 < s(u→v) ≤ s_max`,
    /// returned with their distances. Direct neighbors (distance 1) are
    /// excluded — they already participate in regular message passing.
    pub fn virtual_sources(&self, v: NodeId, s_max: u32) -> Vec<(NodeId, u32)> {
        (0..self.n)
            .filter_map(|u| {
                let d = self.dist(u, v);
                (d > 1 && d <= s_max).then_some((u, d))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::{NodeAttrs, OpKind};

    /// in → a → b → c → out, plus skip in → c.
    fn chain_with_skip() -> CompGraph {
        let mut g = CompGraph::new("t");
        let input = g.add_node(OpKind::Input, NodeAttrs::default(), "in");
        let a = g.chain(input, OpKind::Conv, NodeAttrs::default(), "a");
        let b = g.chain(a, OpKind::Relu, NodeAttrs::default(), "b");
        let c = g.chain(b, OpKind::Sum, NodeAttrs::default(), "c");
        g.add_edge(input, c);
        let _ = g.chain(c, OpKind::Output, NodeAttrs::default(), "out");
        g
    }

    #[test]
    fn forward_distances() {
        let g = chain_with_skip();
        let sp = ShortestPaths::forward(&g);
        assert_eq!(sp.dist(0, 0), 0);
        assert_eq!(sp.dist(0, 1), 1);
        assert_eq!(sp.dist(0, 2), 2);
        assert_eq!(sp.dist(0, 3), 1, "skip edge shortens path to c");
        assert_eq!(sp.dist(0, 4), 2);
        assert_eq!(sp.dist(4, 0), UNREACHABLE, "no backward reachability forward");
    }

    #[test]
    fn backward_is_transpose_of_forward() {
        let g = chain_with_skip();
        let fw = ShortestPaths::forward(&g);
        let bw = ShortestPaths::backward(&g);
        for u in 0..g.num_nodes() {
            for v in 0..g.num_nodes() {
                assert_eq!(fw.dist(u, v), bw.dist(v, u));
            }
        }
    }

    #[test]
    fn virtual_sources_exclude_direct_neighbors() {
        let g = chain_with_skip();
        let sp = ShortestPaths::forward(&g);
        // Sources for node b (id 2) within s_max=3: only input at distance 2.
        let vs = sp.virtual_sources(2, 3);
        assert_eq!(vs, vec![(0, 2)]);
        // Node c (id 3): a at distance 2 (in is at distance 1 via skip).
        let vs = sp.virtual_sources(3, 3);
        assert_eq!(vs, vec![(1, 2)]);
        // The bounded search finds the same pairs, and their mirror images.
        let [fw, bw] = virtual_edges(&g, 3);
        assert_eq!(fw[2], [(0, 2)]);
        assert_eq!(fw[3], [(1, 2)]);
        assert_eq!(bw[0], [(2, 2), (4, 2)]);
    }

    #[test]
    fn s_max_truncates() {
        let g = chain_with_skip();
        let sp = ShortestPaths::forward(&g);
        // Output (id 4) has in at distance 2, a at 3, b at 2... check cap.
        let all = sp.virtual_sources(4, 10);
        let capped = sp.virtual_sources(4, 2);
        assert!(capped.len() <= all.len());
        assert!(capped.iter().all(|&(_, d)| d <= 2));
        assert_eq!(virtual_edges(&g, 10)[0][4], all);
        assert_eq!(virtual_edges(&g, 2)[0][4], capped);
    }
}
