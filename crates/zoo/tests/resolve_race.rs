//! First-touch race on one table slot. Alone in this file so that no other
//! test in the process resolves a model while the counter is read.

use pddl_zoo::{resolve, TINY_IMAGENET};
use std::sync::{Arc, Barrier};

#[test]
fn racing_first_resolves_build_once_and_share_the_result() {
    const THREADS: usize = 8;
    let builds = pddl_telemetry::counter("zoo.resolve.builds");
    let before = builds.get();
    let barrier = Barrier::new(THREADS);
    let resolved: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                s.spawn(|| {
                    barrier.wait();
                    resolve("densenet201", &TINY_IMAGENET).expect("zoo model")
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("resolver thread")).collect()
    });
    for m in &resolved[1..] {
        assert!(Arc::ptr_eq(&resolved[0], m));
    }
    assert_eq!(builds.get() - before, 1);
    assert_eq!(pddl_telemetry::snapshot().counter("zoo.resolve.builds"), Some(before + 1));
}
