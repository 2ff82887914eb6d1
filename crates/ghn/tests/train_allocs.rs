//! What one meta-training step asks of the allocator, and how many
//! parameter leaves its tape holds. Own file because of the counting
//! allocator (as in `embed_allocs.rs`).

use pddl_autodiff::Tape;
use pddl_ghn::model::{decoder_targets, TARGET_DIM};
use pddl_ghn::train::TrainConfig;
use pddl_ghn::{Ghn, GhnConfig, GhnTrainer, Schedule, SynthGenerator};
use pddl_tensor::{Matrix, Rng};
use pddl_zoo::{resolve, CIFAR10};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Sums the bytes this thread requests; everything else is the system
/// allocator.
struct CountingAlloc;

thread_local! {
    static REQUESTED: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the only addition is a counter in a
// const-initialised, destructor-free thread-local, which never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        REQUESTED.with(|n| n.set(n.get() + layout.size() as u64));
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

#[test]
fn one_step_on_the_benchmark_batch_requests_under_20_mb() {
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
    let requested = |epochs| {
        let before = REQUESTED.with(Cell::get);
        trainer(epochs).train_on(&mut ghn.clone(), &graphs);
        REQUESTED.with(Cell::get) - before
    };
    let step = requested(2) - requested(1);
    // 10.9 MB measured; 152.6 MB while every layer call cloned its weights
    // into a fresh leaf and every edge recorded a message MLP of its own.
    assert!(step <= 20_000_000, "one step requested {step} bytes");
}

#[test]
fn a_tape_holds_one_leaf_per_parameter_whatever_the_graph() {
    let ghn = Ghn::new(GhnConfig::default(), &mut Rng::new(6));
    for name in ["alexnet", "densenet201"] {
        let g = &resolve(name, &CIFAR10).expect("zoo model").graph;
        let sched = Schedule::new(g, ghn.cfg.s_max);
        let mut tape = Tape::new(&ghn.ps);
        let emb = ghn.embed_traced(&mut tape, g, &sched);
        let pred = ghn.decode_traced(&mut tape, emb);
        let target = tape.constant(Matrix::from_vec(1, TARGET_DIM, decoder_targets(g)));
        tape.mse_loss(pred, target);
        assert_eq!(tape.param_leaves(), ghn.ps.len(), "{name}: {} tape nodes", tape.len());
    }
}
