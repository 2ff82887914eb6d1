//! What one embed leaves in the process-wide telemetry. Alone in this file
//! (one test, own process) so that nothing else embeds or touches the pool
//! while the counters are read.

use pddl_ghn::{Ghn, GhnConfig, Schedule};
use pddl_tensor::Rng;
use pddl_zoo::{resolve, CIFAR10};

#[test]
fn an_embed_records_one_sample_and_never_fans_out() {
    let ghn = Ghn::new(GhnConfig::default(), &mut Rng::new(5)).into_encoder();
    // 709 nodes: as one matmul, `feats · W` alone is above the pool threshold.
    let large = resolve("densenet201", &CIFAR10).expect("zoo model");
    let small = resolve("alexnet", &CIFAR10).expect("zoo model");
    let samples = || pddl_telemetry::snapshot().histogram("ghn.embed").map_or(0, |h| h.count);
    let scopes = pddl_telemetry::counter("par.scopes");

    let (samples_before, scopes_before) = (samples(), scopes.get());
    const N: u64 = 5;
    for _ in 0..N {
        ghn.embed_graph(&large.graph);
        ghn.embed_graph(&small.graph);
    }
    assert_eq!(samples() - samples_before, 2 * N, "one ghn.embed sample per embed_graph");
    assert_eq!(scopes.get(), scopes_before, "an embed spawned pool threads");

    let sched = Schedule::new(&small.graph, ghn.cfg.s_max);
    ghn.embed_with_schedule(&small.graph, &sched);
    assert_eq!(samples() - samples_before, 2 * N + 1, "one sample per embed_with_schedule");
}
