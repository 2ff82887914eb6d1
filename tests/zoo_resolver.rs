//! The zoo resolver's contract with the prediction path: `pddl_zoo::resolve`
//! memoises only (model, dataset) → (graph, fingerprint, spec), so a
//! prediction is bit-identical to the step-by-step pipeline over the public
//! functions whatever happens to the system around it, and a warm
//! prediction costs the same whatever the size of the model.

use pddl_cluster::{ClusterState, ServerClass};
use pddl_ddlsim::Workload;
use pddl_zoo::dataset::dataset_by_name;
use pddl_zoo::{build_model, model_names, CIFAR10};
use predictddl::{
    EmbeddingCache, LiveSystem, ModelRef, OfflineTrainer, PredictDdl, PredictionRequest,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

/// Counts this thread's allocations; everything else is the system
/// allocator. Per thread, so tests running beside each other do not count
/// each other's.
struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the only addition is a counter in a
// const-initialised, destructor-free thread-local, which never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
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

const DATASETS: [(&str, ServerClass); 2] =
    [("cifar10", ServerClass::GpuP100), ("tiny-imagenet", ServerClass::CpuE5_2630)];

/// A tiny system with a GHN for both built-in datasets.
fn train(seed: u64) -> PredictDdl {
    let mut trainer = OfflineTrainer::tiny();
    trainer.seed = seed;
    trainer.trace.dataset_clusters =
        DATASETS.iter().map(|(ds, class)| (ds.to_string(), *class)).collect();
    trainer.train_full()
}

/// Every zoo model on every trained dataset.
fn requests() -> Vec<PredictionRequest> {
    let mut out = Vec::new();
    for (dataset, class) in DATASETS {
        for name in model_names() {
            out.push(PredictionRequest::zoo(
                Workload::new(name, dataset, 128, 2),
                ClusterState::homogeneous(class, 4),
            ));
        }
    }
    out
}

type Answer = (u64, Option<(String, f32)>);

/// The reference: public functions only, a graph built for the occasion
/// and a cache of its own.
fn stepwise(system: &PredictDdl, req: &PredictionRequest) -> Answer {
    let ModelRef::Zoo(name) = &req.model else { unreachable!("zoo requests only") };
    let ds = dataset_by_name(&req.dataset).expect("built-in dataset");
    let graph = build_model(name, ds).expect("zoo model");
    let (embedding, hit) = EmbeddingCache::default()
        .get_or_embed_detailed(&system.registry, &req.dataset, &graph)
        .expect("trained dataset");
    assert!(!hit);
    let seconds =
        system.engine.predict(&embedding, &req.cluster, req.batch_size, req.epochs, &req.dataset);
    (seconds.to_bits(), system.embeddings.nearest(&req.dataset, &embedding))
}

/// Asserts `predict == stepwise` on every request; returns the answers.
fn assert_matches_stepwise(system: &PredictDdl, reqs: &[PredictionRequest]) -> Vec<Answer> {
    reqs.iter()
        .map(|req| {
            let p = system.predict(req).expect("valid request");
            let got = (p.seconds.to_bits(), p.nearest_architecture);
            assert_eq!(got, stepwise(system, req), "{} on {}", req.model_name(), req.dataset);
            got
        })
        .collect()
}

#[test]
fn predict_is_bit_identical_to_the_stepwise_pipeline_and_needs_no_invalidation() {
    let reqs = requests();
    let n = reqs.len() as u64;
    let mut system = train(7);

    // Cold, then warm: the memoised graph feeds the embedding cache, it
    // does not stand in for it.
    let first = assert_matches_stepwise(&system, &reqs);
    let s = system.cache.stats();
    assert_eq!((s.misses, s.hits, s.computes), (n, 0, n));
    assert_eq!(assert_matches_stepwise(&system, &reqs), first);
    let s = system.cache.stats();
    assert_eq!((s.misses, s.hits, s.computes), (n, n, n));

    // A replaced cache starts cold again.
    system.cache = EmbeddingCache::default();
    assert_eq!(assert_matches_stepwise(&system, &reqs), first);
    assert_eq!(system.cache.stats().computes, n);

    // A hot reload swaps the whole system under the same process-wide
    // table: requests pinned afterwards are answered by the new model.
    let live = LiveSystem::new(system, 0);
    assert_eq!(assert_matches_stepwise(&live.pin(), &reqs), first);
    live.swap(Arc::new(train(8)), 1);
    let swapped = assert_matches_stepwise(&live.pin(), &reqs);
    assert_ne!(swapped, first, "the swapped-in model must answer");

    // All of the above built each (model, dataset) pair at most once.
    let builds = pddl_telemetry::counter("zoo.resolve.builds").get();
    assert!(builds <= n, "{builds} zoo builds for {n} table slots");
}

fn allocations_of_one_warm_predict(system: &PredictDdl, model: &str) -> u64 {
    let req = PredictionRequest::zoo(
        Workload::new(model, "cifar10", 128, 2),
        ClusterState::homogeneous(ServerClass::GpuP100, 4),
    );
    for _ in 0..2 {
        system.predict(&req).expect("valid request");
    }
    let before = ALLOCS.with(Cell::get);
    system.predict(&req).expect("valid request");
    ALLOCS.with(Cell::get) - before
}

#[test]
fn a_warm_predict_allocates_the_same_for_the_smallest_and_the_largest_model() {
    let small = pddl_zoo::resolve("alexnet", &CIFAR10).expect("zoo model");
    let large = pddl_zoo::resolve("densenet201", &CIFAR10).expect("zoo model");
    assert!(large.graph.num_nodes() > 20 * small.graph.num_nodes());

    let system = train(7);
    let a = allocations_of_one_warm_predict(&system, "alexnet");
    let b = allocations_of_one_warm_predict(&system, "densenet201");
    // A count, not a timing: building or copying a graph allocates per
    // node, so any such work on the hit path makes these differ.
    assert_eq!(a, b, "alexnet {a} vs densenet201 {b} allocations");
}
