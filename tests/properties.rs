//! Property-based tests over cross-crate invariants: seeded loops on the
//! in-tree [`Rng`]. Every property draws its inputs from the generator
//! [`for_each_case`] hands it, and a failure names the seed that replays
//! the case.

use pddl_cluster::{ClusterState, ServerClass};
use pddl_ddlsim::{SimConfig, Simulator, Workload};
use pddl_faults::FaultPlan;
use pddl_ghn::{cosine_similarity, Ghn, GhnConfig};
use pddl_graph::{CompGraph, NodeAttrs, OpKind};
use pddl_par::{PushError, TaskQueue};
use pddl_regress::poly::PolyFeatures;
use pddl_regress::split::train_test_split;
use pddl_regress::{batch_ridge, OnlineRidge, PageHinkley};
use pddl_tensor::linalg::qr;
use pddl_tensor::rng::for_each_case;
use pddl_tensor::{Matrix, Rng};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Cases per property (the refit block below runs 32).
const CASES: u64 = 24;

/// Uniform `f64` in `[lo, hi)`.
fn f64_in(rng: &mut Rng, lo: f64, hi: f64) -> f64 {
    lo + (hi - lo) * rng.next_f64()
}

/// Random small DAG built layer-by-layer (always valid).
fn arb_graph(rng: &mut Rng) -> CompGraph {
    let layers = rng.range(2, 10);
    let mut g = CompGraph::new("prop");
    let mut prev = g.add_node(OpKind::Input, NodeAttrs::elementwise(3, 16), "in");
    let mut frontier = vec![prev];
    for i in 0..layers {
        let kind = *rng.pick(&[
            OpKind::Conv,
            OpKind::Relu,
            OpKind::BatchNorm,
            OpKind::MaxPool,
            OpKind::DepthwiseConv,
        ]);
        let c = 4 << rng.below(4);
        let attrs = match kind {
            OpKind::Conv => NodeAttrs::conv(c, c, 3, 1, 16),
            OpKind::DepthwiseConv => NodeAttrs::group_conv(c, c, 3, 1, c, 16),
            _ => NodeAttrs::elementwise(c, 16),
        };
        let src = frontier[rng.below(frontier.len())];
        prev = g.chain(src, kind, attrs, format!("n{i}"));
        frontier.push(prev);
    }
    let _ = g.chain(prev, OpKind::Output, NodeAttrs::elementwise(8, 16), "out");
    g
}

/// QR reconstruction holds for random matrices.
#[test]
fn qr_reconstructs_random_matrices() {
    for_each_case(CASES, |rng| {
        let m = rng.range(3, 12);
        let n = (m - 2).max(1);
        let a = Matrix::rand_normal(m, n, 1.0, rng);
        let (q, r) = qr(&a);
        let recon = q.matmul(&r);
        assert!((&recon - &a).max_abs() < 1e-3);
    });
}

/// Polynomial expansion always has the closed-form width.
#[test]
fn poly_dim_formula_holds() {
    for_each_case(CASES, |rng| {
        let (d, rows) = (rng.range(1, 8), rng.range(1, 5));
        let x = Matrix::rand_normal(rows, d, 1.0, rng);
        for degree in 1..=3usize {
            let p = PolyFeatures::new(degree, true);
            let t = p.transform(&x);
            assert_eq!(t.cols(), p.out_dim(d));
            assert_eq!(t.rows(), rows);
        }
    });
}

/// Random generated DAGs validate, topo-sort, and embed to finite
/// fixed-size vectors; cosine self-similarity is 1.
#[test]
fn random_graphs_embed_cleanly() {
    for_each_case(CASES, |rng| {
        let g = arb_graph(rng);
        assert_eq!(g.validate(), Ok(()));
        let order = g.topo_order().unwrap();
        assert_eq!(order.len(), g.num_nodes());
        let mut rng = Rng::new(1234);
        let ghn = Ghn::new(GhnConfig::tiny(), &mut rng).into_encoder();
        let e = ghn.embed_graph(&g);
        assert_eq!(e.len(), GhnConfig::tiny().hidden_dim);
        assert!(e.iter().all(|x| x.is_finite()));
        assert!((cosine_similarity(&e, &e) - 1.0).abs() < 1e-5);
    });
}

/// Train/test splits always partition the index set.
#[test]
fn splits_partition() {
    for_each_case(CASES, |rng| {
        let (n, frac, seed) = (rng.range(2, 500), f64_in(rng, 0.1, 0.9), rng.next_u64());
        let (tr, te) = train_test_split(n, frac, seed);
        assert!(!tr.is_empty() && !te.is_empty());
        let mut all: Vec<usize> = tr.iter().chain(&te).copied().collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), n);
    });
}

/// Simulator output is positive, finite, and monotone in epochs.
#[test]
fn simulator_monotone_in_epochs() {
    for_each_case(CASES, |rng| {
        let (epochs, servers) = (rng.range(1, 8), rng.range(1, 12));
        let models = ["resnet18", "vgg16", "squeezenet1_1", "alexnet", "mobilenet_v2"];
        let model = *rng.pick(&models);
        let sim = Simulator::new(SimConfig::default());
        let cluster = ClusterState::homogeneous(ServerClass::GpuP100, servers);
        let t1 = sim
            .expected_time(&Workload::new(model, "cifar10", 64, epochs), &cluster)
            .unwrap();
        let t2 = sim
            .expected_time(&Workload::new(model, "cifar10", 64, epochs + 1), &cluster)
            .unwrap();
        assert!(t1.is_finite() && t1 > 0.0);
        assert!(t2 > t1, "more epochs must take longer: {} vs {}", t1, t2);
    });
}

/// Cluster feature vectors are always finite and fixed-width.
#[test]
fn cluster_features_always_finite() {
    for_each_case(CASES, |rng| {
        let n = rng.range(1, 30);
        let class =
            *rng.pick(&[ServerClass::CpuE5_2630, ServerClass::CpuE5_2650, ServerClass::GpuP100]);
        let f = ClusterState::homogeneous(class, n).feature_vector();
        assert!(f.iter().all(|x| x.is_finite()));
    });
}

/// Fault-plan specs survive parse → to_spec → parse exactly, so a
/// schedule logged from a failing run can be replayed verbatim.
#[test]
fn fault_plan_spec_round_trips() {
    for_each_case(CASES, |rng| {
        let plan = FaultPlan {
            seed: rng.next_u64(),
            p_delay: f64_in(rng, 0.0, 0.2),
            max_delay_ms: rng.range(1, 50) as u64,
            p_reset: f64_in(rng, 0.0, 0.2),
            p_truncate: f64_in(rng, 0.0, 0.2),
            p_garbage: f64_in(rng, 0.0, 0.2),
            p_drop: f64_in(rng, 0.0, 0.2),
        };
        let round = FaultPlan::parse(&plan.to_spec()).unwrap();
        assert_eq!(plan, round);
    });
}

/// Bounded admission queue, N producers → 1 consumer, under seeded
/// interleavings: items from each producer are popped in push order
/// (sheds leave gaps, never reorderings), nothing is lost or
/// duplicated (`popped + shed == submitted`), and the queue never
/// holds more than its capacity.
#[test]
fn task_queue_preserves_fifo_per_producer() {
    for_each_case(CASES, |rng| {
        let seed = rng.next_u64();
        let (capacity, producers, per_producer) =
            (rng.range(1, 6), rng.range(1, 4), rng.range(1, 48));
        let q = Arc::new(TaskQueue::bounded(capacity));
        let shed = Arc::new(AtomicU64::new(0));
        let popped: Vec<(usize, usize)> = std::thread::scope(|s| {
            let consumer = {
                let q = Arc::clone(&q);
                s.spawn(move || {
                    let mut got = Vec::new();
                    while let Some(item) = q.pop() {
                        got.push(item);
                    }
                    got
                })
            };
            let handles: Vec<_> = (0..producers)
                .map(|p| {
                    let q = Arc::clone(&q);
                    let shed = Arc::clone(&shed);
                    s.spawn(move || {
                        let mut rng =
                            Rng::new(seed ^ (p as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
                        for i in 0..per_producer {
                            match q.try_push((p, i)) {
                                Ok(()) => {}
                                Err(PushError::Full(item)) => {
                                    assert_eq!(item, (p, i), "shed returned a different item");
                                    shed.fetch_add(1, Ordering::Relaxed);
                                }
                                Err(PushError::Closed(_)) => {
                                    panic!("queue closed while producers were live")
                                }
                            }
                            assert!(q.len() <= capacity, "queue over capacity");
                            if rng.below(3) == 0 {
                                std::thread::yield_now();
                            }
                        }
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
            q.close();
            consumer.join().unwrap()
        });

        assert_eq!(
            popped.len() as u64 + shed.load(Ordering::Relaxed),
            (producers * per_producer) as u64,
            "popped + shed must equal submitted"
        );
        assert!(q.peak() <= capacity, "high-water mark over capacity");
        assert_eq!(q.pop(), None, "closed + drained queue must report empty");
        // Per-producer order: the popped subsequence of each producer's
        // items must be strictly increasing in push index.
        for p in 0..producers {
            let seq: Vec<usize> =
                popped.iter().filter(|(q_p, _)| *q_p == p).map(|&(_, i)| i).collect();
            assert!(
                seq.windows(2).all(|w| w[0] < w[1]),
                "producer {} popped out of order: {:?}",
                p,
                seq
            );
        }
    });
}

/// The same conservation bound with competing consumers: every
/// admitted item is dispatched to exactly one consumer.
#[test]
fn task_queue_dispatches_exactly_once() {
    for_each_case(CASES, |rng| {
        let seed = rng.next_u64();
        let (capacity, producers, consumers, per_producer) =
            (rng.range(1, 6), rng.range(1, 4), rng.range(2, 4), rng.range(1, 48));
        let q = Arc::new(TaskQueue::bounded(capacity));
        let shed = Arc::new(AtomicU64::new(0));
        let popped: Vec<(usize, usize)> = std::thread::scope(|s| {
            let takers: Vec<_> = (0..consumers)
                .map(|_| {
                    let q = Arc::clone(&q);
                    s.spawn(move || {
                        let mut got = Vec::new();
                        while let Some(item) = q.pop() {
                            got.push(item);
                        }
                        got
                    })
                })
                .collect();
            let handles: Vec<_> = (0..producers)
                .map(|p| {
                    let q = Arc::clone(&q);
                    let shed = Arc::clone(&shed);
                    s.spawn(move || {
                        let mut rng =
                            Rng::new(seed ^ (p as u64).wrapping_mul(0xD134_2543_DE82_EF95));
                        for i in 0..per_producer {
                            match q.try_push((p, i)) {
                                Ok(()) => {}
                                Err(PushError::Full(_)) => {
                                    shed.fetch_add(1, Ordering::Relaxed);
                                }
                                Err(PushError::Closed(_)) => {
                                    panic!("queue closed while producers were live")
                                }
                            }
                            if rng.below(4) == 0 {
                                std::thread::yield_now();
                            }
                        }
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
            q.close();
            takers.into_iter().flat_map(|h| h.join().unwrap()).collect()
        });

        assert_eq!(
            popped.len() as u64 + shed.load(Ordering::Relaxed),
            (producers * per_producer) as u64,
            "popped + shed must equal submitted"
        );
        let mut unique = popped.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), popped.len(), "an item was dispatched twice");
        assert!(q.peak() <= capacity, "high-water mark over capacity");
    });
}

// ---------------------------------------------------------------------------
// Consistent-hash ring (pddl-router): the fleet's placement invariants.
// ---------------------------------------------------------------------------

use pddl_router::{HashRing, DEFAULT_VNODES};

/// Lookups are total (every key owned while any shard exists) and a
/// pure function of the membership *set* — the order shards were
/// added, and any interleaved add/remove churn that lands on the
/// same set, must not change a single placement.
#[test]
fn ring_lookup_total_and_order_independent() {
    for_each_case(CASES, |rng| {
        let seed = rng.next_u64();
        let mut shards: Vec<u64> = (0..rng.range(1, 8)).map(|_| rng.below(64) as u64).collect();
        shards.sort_unstable();
        shards.dedup();
        let built = HashRing::with_shards(DEFAULT_VNODES, &shards);

        // Same set, reversed insertion order, plus add/remove churn of a
        // shard that is not in the final set.
        let mut churned = HashRing::new(DEFAULT_VNODES);
        let stranger = 1000;
        churned.add_shard(stranger);
        for &s in shards.iter().rev() {
            churned.add_shard(s);
        }
        churned.remove_shard(stranger);

        let mut key = seed;
        for _ in 0..512 {
            key = key.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let owner = built.lookup(key);
            assert!(owner.is_some(), "key {key} unowned on a non-empty ring");
            assert!(
                shards.contains(&owner.unwrap()),
                "key {key} owned by a shard outside the membership"
            );
            assert_eq!(
                owner,
                churned.lookup(key),
                "placement depends on membership history, not just the set"
            );
        }
    });
}

/// Resizing N -> N+1 moves at most ~K/(N+1) keys (the consistent-
/// hashing bound, with slack for vnode share variance), every moved
/// key lands on the new shard, and nothing else changes owner.
#[test]
fn ring_resize_moves_bounded_and_only_onto_new_shard() {
    for_each_case(CASES, |rng| {
        let (seed, n) = (rng.next_u64(), rng.range(1, 8));
        let shards: Vec<u64> = (0..n as u64).collect();
        let before = HashRing::with_shards(DEFAULT_VNODES, &shards);
        let mut after = before.clone();
        let new_shard = n as u64;
        after.add_shard(new_shard);

        const K: usize = 4096;
        let mut key = seed;
        let mut moved = 0usize;
        for _ in 0..K {
            key = key.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let (a, b) = (before.lookup(key).unwrap(), after.lookup(key).unwrap());
            if a != b {
                assert_eq!(
                    b, new_shard,
                    "key {} moved {} -> {}: movement must only target the new shard",
                    key, a, b
                );
                moved += 1;
            }
        }
        // Expected movement is K * (new shard's ring share) ~= K/(n+1);
        // allow 50% slack for vnode share variance plus sampling noise.
        // A modulo rehash moves ~K*n/(n+1) and fails this immediately.
        let bound = K * 3 / (2 * (n + 1)) + 32;
        assert!(
            moved <= bound,
            "resize {} -> {} moved {}/{} keys, bound {}",
            n,
            n + 1,
            moved,
            K,
            bound
        );
    });
}

// ---------------------------------------------------------------------------
// Checkpoint registry (pddl-registry): the on-disk format and store
// invariants the reload path depends on.
// ---------------------------------------------------------------------------

use pddl_registry::{ArtifactEntry, Manifest, ProbeRecord, Registry, FORMAT_VERSION};
use std::path::PathBuf;

fn prop_root(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let d = std::env::temp_dir().join(format!(
        "pddl-prop-registry-{tag}-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// Up to `max_len` characters of the kinds a JSON string has to survive:
/// plain ASCII, quotes and backslashes, control characters, and non-ASCII
/// from two-byte up to astral-plane scalars.
fn arb_string(rng: &mut Rng, max_len: usize) -> String {
    const AWKWARD: [char; 12] =
        ['"', '\\', '/', '\n', '\r', '\t', '\u{0}', '\u{1f}', 'é', '世', '\u{ffff}', '😀'];
    (0..rng.below(max_len + 1))
        .map(|_| match rng.below(3) {
            0 => *rng.pick(&AWKWARD),
            _ => (0x20 + rng.below(0x5f) as u8) as char,
        })
        .collect()
}

fn arb_manifest(rng: &mut Rng) -> Manifest {
    let artifacts = (0..rng.below(5))
        .map(|_| ArtifactEntry {
            name: (0..rng.range(1, 25)).map(|_| *rng.pick(b"abcxyz._-") as char).collect(),
            len: rng.next_u64(),
            fnv1a: rng.next_u64(),
        })
        .collect();
    let probes = (0..rng.below(5))
        .map(|_| ProbeRecord { key: arb_string(rng, 32), seconds_bits: rng.next_u64() })
        .collect();
    Manifest {
        format: FORMAT_VERSION,
        version: rng.next_u64(),
        created_unix: rng.next_u64(),
        label: arb_string(rng, 40),
        artifacts,
        probes,
    }
}

/// The manifest renderer and parser are exact inverses for any
/// manifest — arbitrary labels (quotes, backslashes, control chars,
/// non-ASCII), full-range u64 hashes, and any f64 bit pattern in the
/// probes survive the JSON round trip bit-for-bit.
#[test]
fn manifest_json_round_trips_exactly() {
    for_each_case(CASES, |rng| {
        let manifest = arb_manifest(rng);
        let rendered = manifest.to_json();
        let parsed = Manifest::from_json(&rendered)
            .unwrap_or_else(|e| panic!("rendered manifest rejected: {e}"));
        assert_eq!(&parsed, &manifest);
        // Rendering is deterministic: parse → render is a fixed point.
        assert_eq!(parsed.to_json(), rendered);
    });
}

/// Retention keeps exactly the newest `retain` versions plus every
/// pinned one, and the survivors stay fully readable. The pinned
/// version is never collected no matter how many publishes follow.
#[test]
fn retention_never_collects_pinned_or_live() {
    for_each_case(CASES, |rng| {
        let (publishes, retain, pin_after) = (rng.range(1, 10), rng.range(1, 4), rng.below(4));
        let root = prop_root("retain");
        let (reg, _) = Registry::open(&root, retain).unwrap_or_else(|e| panic!("open: {e}"));
        let art = [("system.json".to_string(), b"{\"p\":1}".to_vec())];
        let mut published = Vec::new();
        let mut pinned = None;
        for i in 0..publishes {
            let v = reg
                .publish(&format!("p{i}"), &art, &[])
                .unwrap_or_else(|e| panic!("publish: {e}"));
            published.push(v);
            if i == pin_after.min(publishes - 1) {
                reg.pin(v).unwrap_or_else(|e| panic!("pin: {e}"));
                pinned = Some(v);
            }
        }
        let live = reg.versions();
        let pinned = pinned.expect("one version was pinned");
        assert!(live.contains(&pinned), "pinned version was collected");
        let newest: Vec<u64> = published.iter().rev().take(retain).copied().collect();
        for v in &newest {
            assert!(live.contains(v), "version {} in the retention window was collected", v);
        }
        // Nothing outside the window survives except the pinned version.
        for v in &live {
            assert!(
                newest.contains(v) || *v == pinned,
                "version {} survived outside the retention window unpinned",
                v
            );
        }
        // Survivors stay readable and content-verified.
        for v in &live {
            assert_eq!(
                reg.read_artifact(*v, "system.json").unwrap_or_else(|e| panic!("read: {e}")),
                art[0].1.clone()
            );
        }
        std::fs::remove_dir_all(&root).ok();
    });
}

/// Concurrent publishers over one root never collide: every publish
/// gets a unique version number, numbering is gapless across the
/// union, and each writer's own sequence is strictly monotonic.
#[test]
fn concurrent_publishes_are_unique_and_monotonic() {
    for_each_case(CASES, |rng| {
        let (writers, per_writer) = (rng.range(2, 5), rng.range(1, 5));
        let root = prop_root("concurrent");
        let (reg, _) = Registry::open(&root, 0).unwrap_or_else(|e| panic!("open: {e}"));
        let reg = Arc::new(reg);
        let handles: Vec<_> = (0..writers)
            .map(|w| {
                let reg = Arc::clone(&reg);
                std::thread::spawn(move || -> Vec<u64> {
                    (0..per_writer)
                        .map(|i| {
                            reg.publish(
                                &format!("w{w}-{i}"),
                                &[(format!("a{w}.json"), vec![w as u8; 64])],
                                &[],
                            )
                            .expect("publish")
                        })
                        .collect()
                })
            })
            .collect();
        let per_thread: Vec<Vec<u64>> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        for seq in &per_thread {
            assert!(seq.windows(2).all(|w| w[0] < w[1]), "a writer saw non-monotonic versions");
        }
        let mut all: Vec<u64> = per_thread.into_iter().flatten().collect();
        all.sort_unstable();
        let expected: Vec<u64> = (1..=(writers * per_writer) as u64).collect();
        assert_eq!(all, expected, "version numbers must be unique and gapless");
        std::fs::remove_dir_all(&root).ok();
    });
}

// ---------------------------------------------------------------------------
// Continual refit (pddl-regress): the online model and drift detector.
// ---------------------------------------------------------------------------

/// Cases per refit property.
const REFIT_CASES: u64 = 32;

/// Seeded regression dataset: `n` points of `d` standard-normal features
/// with a linear ground truth plus small noise.
fn refit_data(seed: u64, n: usize, d: usize) -> (Vec<Vec<f64>>, Vec<f64>) {
    let mut rng = Rng::new(seed);
    let mut xs = Vec::with_capacity(n);
    let mut ys = Vec::with_capacity(n);
    for _ in 0..n {
        let x: Vec<f64> = (0..d).map(|_| rng.normal() as f64).collect();
        let y = x.iter().enumerate().map(|(j, v)| (j as f64 + 1.0) * v).sum::<f64>()
            + 0.05 * rng.normal() as f64;
        xs.push(x);
        ys.push(y);
    }
    (xs, ys)
}

/// Seeded Fisher–Yates permutation of `0..n`.
fn shuffled_indices(n: usize, seed: u64) -> Vec<usize> {
    let mut rng = Rng::new(seed);
    let mut idx: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        idx.swap(i, rng.below(i + 1));
    }
    idx
}

/// The continual-refit loop's Sherman–Morrison chain IS the
/// closed-form ridge solve: feeding any permutation of a dataset
/// through `OnlineRidge` lands within 1e-8 of `batch_ridge` on the
/// same points — the incremental model is never an approximation.
#[test]
fn online_ridge_equals_batch_for_random_orders() {
    for_each_case(REFIT_CASES, |rng| {
        let (seed, order_seed) = (rng.next_u64(), rng.next_u64());
        let (n, d) = (rng.range(20, 80), rng.range(2, 5));
        let (xs, ys) = refit_data(seed, n, d);
        let idx = shuffled_indices(n, order_seed);
        let mut online = OnlineRidge::new(d, 1e-3, n + 1);
        let mut fed_xs = Vec::with_capacity(n);
        let mut fed_ys = Vec::with_capacity(n);
        for &i in &idx {
            online.observe(&xs[i], ys[i]);
            fed_xs.push(xs[i].clone());
            fed_ys.push(ys[i]);
        }
        let batch = batch_ridge(&fed_xs, &fed_ys, 1e-3);
        assert_eq!(online.coefficients().len(), batch.len());
        for (a, b) in online.coefficients().iter().zip(batch.iter()) {
            let scale = b.abs().max(1.0);
            assert!(
                (a - b).abs() / scale <= 1e-8,
                "SM {} vs batch {} after {} obs",
                a,
                b,
                n
            );
        }
    });
}

/// The canonical-order window refit erases feeding order entirely:
/// two models fed the same multiset in different orders refit to
/// bit-identical coefficients (the determinism contract behind the
/// sched tier's golden fixtures).
#[test]
fn window_refit_is_order_independent() {
    for_each_case(REFIT_CASES, |rng| {
        let (seed, order_seed) = (rng.next_u64(), rng.next_u64());
        let (n, d) = (rng.range(10, 60), rng.range(2, 5));
        let (xs, ys) = refit_data(seed, n, d);
        let mut forward = OnlineRidge::new(d, 1e-3, n + 1);
        for (x, y) in xs.iter().zip(&ys) {
            forward.observe(x, *y);
        }
        // dy = 0 translation is a pure canonical-order window refit.
        forward.translate_targets_and_refit(0.0, 0);
        let mut permuted = OnlineRidge::new(d, 1e-3, n + 1);
        for &i in &shuffled_indices(n, order_seed) {
            permuted.observe(&xs[i], ys[i]);
        }
        permuted.translate_targets_and_refit(0.0, 0);
        let fwd: Vec<u64> = forward.coefficients().iter().map(|c| c.to_bits()).collect();
        let per: Vec<u64> = permuted.coefficients().iter().map(|c| c.to_bits()).collect();
        assert_eq!(fwd, per, "refit must be bit-identical across orders");
    });
}

/// Page–Hinkley with default margins never false-fires on a
/// stationary standard-normal residual stream, whatever the seed —
/// drift events in the sched tier always mean a real shift.
#[test]
fn page_hinkley_never_fires_without_drift() {
    for_each_case(REFIT_CASES, |rng| {
        let mut ph = PageHinkley::new();
        for _ in 0..2000 {
            let z = rng.normal() as f64;
            assert!(
                ph.observe(z).is_none(),
                "false fire at obs {} (statistic {})",
                ph.observations(),
                ph.statistic()
            );
        }
    });
}
