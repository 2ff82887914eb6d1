//! What one meta-training step asks of the allocator, how its backward
//! pass grows with the graph, and how many parameter leaves its tape
//! holds. Own file because of the counting allocator (as in
//! `embed_allocs.rs`).

use pddl_autodiff::Tape;
use pddl_ghn::model::{decoder_targets, TARGET_DIM};
use pddl_ghn::train::TrainConfig;
use pddl_ghn::{Ghn, GhnConfig, GhnTrainer, Schedule, SynthGenerator};
use pddl_tensor::{Matrix, Rng};
use pddl_zoo::{resolve, CIFAR10};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts the allocations this thread makes and the bytes they request;
/// everything else is the system allocator.
struct CountingAlloc;

thread_local! {
    static REQUESTED: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the only addition is a counter in a
// const-initialised, destructor-free thread-local, which never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        REQUESTED.with(|n| {
            let (calls, bytes) = n.get();
            n.set((calls + 1, bytes + layout.size() as u64));
        });
        // SAFETY: the caller's `layout` is passed through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` above with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// `(allocations, bytes)` that `f` asks of the allocator on this thread.
fn requested(f: impl FnOnce()) -> (u64, u64) {
    let (calls, bytes) = REQUESTED.with(Cell::get);
    f();
    let (calls_after, bytes_after) = REQUESTED.with(Cell::get);
    (calls_after - calls, bytes_after - bytes)
}

#[test]
fn one_step_on_the_benchmark_batch_stays_under_its_allocation_bounds() {
    // The batch `autodiff.train_step_ms` times in `benchmark/`.
    let mut ghn = Ghn::new(GhnConfig::default(), &mut Rng::new(1));
    let graphs = SynthGenerator::new(CIFAR10, 1).sample_many(8);
    let trainer = |epochs| {
        GhnTrainer::new(TrainConfig { epochs, batch_size: 8, ..TrainConfig::default() })
    };
    // Once so that first-use set-up (metrics, pack buffers) is not in the
    // count; then two steps against one, so that the schedules and targets
    // `train_on` prepares cancel.
    trainer(1).train_on(&mut ghn, &graphs);
    let run = |epochs| requested(|| drop(trainer(epochs).train_on(&mut ghn.clone(), &graphs)));
    let ((calls_two, bytes_two), (calls_one, bytes_one)) = (run(2), run(1));
    let (calls, bytes) = (calls_two - calls_one, bytes_two - bytes_one);
    // Measured: 167 allocations for 0.45 MB, since the tape writes values
    // and gradients into buffers it owns and the trainer hands them from
    // step to step (37,465 for 10.8 MB while every op allocated its value
    // and its gradients; 152.6 MB while every layer call also cloned its
    // weights into a fresh leaf and every edge recorded a message MLP of
    // its own).
    assert!(calls <= 200, "one step made {calls} allocations");
    assert!(bytes <= 560_000, "one step requested {bytes} bytes");
}

/// The backward pass of one graph's decoder loss: what the allocator is
/// asked for, and the graph's node count.
fn backward_requests(ghn: &Ghn, name: &str) -> (u64, usize) {
    let g = &resolve(name, &CIFAR10).expect("zoo model").graph;
    let sched = Schedule::new(g, ghn.encoder.cfg.s_max);
    let mut tape = Tape::new(&ghn.encoder.ps);
    let emb = ghn.embed_traced(&mut tape, g, &sched);
    let pred = ghn.decode_traced(&mut tape, emb);
    let target = tape.constant(Matrix::from_vec(1, TARGET_DIM, decoder_targets(g)));
    let loss = tape.mse_loss(pred, target);
    (requested(|| drop(tape.backward(loss))).1, g.num_nodes())
}

#[test]
fn backward_bytes_grow_linearly_in_the_node_count() {
    let ghn = Ghn::new(GhnConfig::default(), &mut Rng::new(5));
    let (small, small_nodes) = backward_requests(&ghn, "alexnet");
    let (large, large_nodes) = backward_requests(&ghn, "densenet201");
    assert!(large_nodes >= 20 * small_nodes, "{large_nodes} against {small_nodes} nodes");
    // Per node, the large graph's pass may not cost more than the small
    // one's, which also pays for the weight transposes and the returned
    // gradients: 1.5 KB per densenet201 node against 16.5 KB per alexnet
    // node. A zero-padded parent-sized gradient per row slice made it
    // quadratic: 102 KB per densenet201 node against 16 KB.
    let per_node = |bytes: u64, nodes: usize| bytes as f64 / nodes as f64;
    let (large_per_node, small_per_node) = (per_node(large, large_nodes), per_node(small, small_nodes));
    assert!(
        large_per_node <= small_per_node,
        "{large} bytes for {large_nodes} nodes against {small} for {small_nodes}"
    );
}

#[test]
fn a_tape_holds_one_leaf_per_parameter_whatever_the_graph() {
    let ghn = Ghn::new(GhnConfig::default(), &mut Rng::new(6));
    for name in ["alexnet", "densenet201"] {
        let g = &resolve(name, &CIFAR10).expect("zoo model").graph;
        let sched = Schedule::new(g, ghn.encoder.cfg.s_max);
        let mut tape = Tape::new(&ghn.encoder.ps);
        let emb = ghn.embed_traced(&mut tape, g, &sched);
        let pred = ghn.decode_traced(&mut tape, emb);
        let target = tape.constant(Matrix::from_vec(1, TARGET_DIM, decoder_targets(g)));
        tape.mse_loss(pred, target);
        assert_eq!(tape.param_leaves(), ghn.encoder.ps.len(), "{name}: {} tape nodes", tape.len());
    }
}
