//! Test oracles: definitions the optimised graph code is checked against.
//! Only tests use them.

use crate::dag::{CompGraph, NodeId};
use std::collections::VecDeque;

/// Unreachable marker in the distance matrix.
pub const UNREACHABLE: u32 = u32::MAX;

/// Dense all-pairs shortest-path table over a graph's directed edges: the
/// definition [`virtual_edges`](crate::virtual_edges) is tested against.
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
