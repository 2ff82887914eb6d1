//! `Schedule`'s hop-bounded search against the definition it replaced in
//! non-test code: the dense all-pairs table.

use pddl_ghn::Schedule;
use pddl_graph::testing::ShortestPaths;
use pddl_graph::{CompGraph, NodeAttrs, OpKind};
use pddl_tensor::rng::{for_each_case, Rng};

/// A random DAG whose node ids are not a topological order.
fn random_dag(rng: &mut Rng) -> CompGraph {
    let n = rng.range(1, 41);
    let mut id: Vec<usize> = (0..n).collect();
    rng.shuffle(&mut id);
    let density = rng.next_f64() * 0.3;
    let mut g = CompGraph::new("random");
    for v in 0..n {
        g.add_node(OpKind::Conv, NodeAttrs::default(), format!("n{v}"));
    }
    for i in 0..n {
        for j in i + 1..n {
            if j == i + 1 && rng.chance(0.7) || rng.chance(density) {
                g.add_edge(id[i], id[j]);
            }
        }
    }
    g
}

#[test]
fn schedule_equals_the_all_pairs_definition_on_random_dags() {
    for_each_case(200, |rng| {
        let g = random_dag(rng);
        let n = g.num_nodes();
        let (fw, bw) = (ShortestPaths::forward(&g), ShortestPaths::backward(&g));
        for s_max in [1, 2, 5, n as u32] {
            let sched = Schedule::new(&g, s_max);
            assert_eq!(sched.topo(), g.topo_order().expect("a DAG"));
            for v in 0..n {
                assert_eq!(sched.virtual_fw(v), fw.virtual_sources(v, s_max), "fw {v}, s_max {s_max}");
                assert_eq!(sched.virtual_bw(v), bw.virtual_sources(v, s_max), "bw {v}, s_max {s_max}");
                for list in [sched.virtual_fw(v), sched.virtual_bw(v)] {
                    assert!(list.windows(2).all(|w| w[0].0 < w[1].0), "sources not ascending: {list:?}");
                    assert!(s_max > 1 || list.is_empty(), "s_max = 1 leaves no virtual edge");
                }
            }
        }
    });
}
