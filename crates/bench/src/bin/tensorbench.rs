//! `pddl-tensorbench` — the GEMM-core benchmark behind `BENCH_tensor.json`.
//!
//! Measures the blocked packed GEMM ([`pddl_tensor::gemm`]) against the
//! reference transpose+dot kernel across shapes spanning the workloads
//! this repository actually runs — GHN message/GRU products from 1×32 row
//! vectors up to 128×128 hidden batches, and the regressor design-matrix
//! sizes — plus two end-to-end numbers: a real zoo architecture through
//! `embed_with_schedule` (scalar reference loops vs the inference path) and
//! the wall-clock of GHN meta-training epochs on the fused tape.
//!
//! Since the microkernel layer dispatches at runtime, every shape is also
//! timed with the kernel pinned to the portable scalar fallback
//! (`speedup_simd` is what the dispatched AVX2/NEON microkernel buys).
//! The backend the run dispatched to is stamped into `config.kernel`.
//!
//! Every measurement is the median of `--reps` timed calls after one
//! warmup; the kernels themselves are deterministic, so run-to-run noise
//! is scheduling, not math. The report schema is pinned by
//! `crates/bench/tests/bench_schema.rs` against
//! `tests/fixtures/bench_tensor_schema.json`.
//!
//! ```text
//! pddl-tensorbench [--quick] [--reps 7] [--out BENCH_tensor.json] [--compare]
//! ```
//!
//! `--quick` shrinks reps and drops the largest shapes — the CI smoke
//! mode; the committed baseline is produced by a full run. `--compare`
//! additionally prints a per-shape backend-comparison table (blocked vs
//! forced-scalar) to stdout.

use pddl_bench::report::{EmbedE2e, GemmCase, TensorReport, TrainE2e};
use pddl_ghn::{Ghn, GhnConfig, GhnTrainer, Schedule, SynthGenerator, TrainConfig};
use pddl_par::WorkPool;
use pddl_tensor::{Matrix, PackBuffer, Rng};
use pddl_zoo::{build_model, dataset::dataset_by_name};
use std::time::Instant;

/// Shapes spanning the repo's hot GEMMs: GHN row-vector gates (m=1),
/// message batches, meta-training batches, and regressor designs
/// (tall-skinny with a small feature count).
const SHAPES: &[(usize, usize, usize)] = &[
    (1, 32, 32),
    (1, 64, 64),
    (8, 32, 32),
    (16, 64, 64),
    (32, 32, 32),
    (64, 64, 64),
    (128, 128, 128),
    (300, 13, 13),
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let compare = args.iter().any(|a| a == "--compare");
    let reps: usize = flag_value(&args, "--reps").unwrap_or(if quick { 3 } else { 7 });
    let out = flag_value::<String>(&args, "--out").unwrap_or_else(|| "BENCH_tensor.json".into());

    let pool = WorkPool::global();
    let kernel = pddl_tensor::backend().name().to_string();
    let shapes: Vec<(usize, usize, usize)> = if quick {
        SHAPES.iter().copied().filter(|&(m, _, _)| m <= 64).collect()
    } else {
        SHAPES.to_vec()
    };

    let mut rng = Rng::new(0xBE7C);
    let mut gemm = Vec::with_capacity(shapes.len());
    for &(m, k, n) in &shapes {
        let a = Matrix::rand_normal(m, k, 1.0, &mut rng);
        let b = Matrix::rand_normal(k, n, 1.0, &mut rng);
        let mut pack = PackBuffer::new();

        let reference_us = median_us(reps, || {
            std::hint::black_box(a.matmul_reference(&b));
        });
        let blocked_us = median_us(reps, || {
            std::hint::black_box(a.matmul_with(&b, &mut pack));
        });
        let pooled_us = median_us(reps, || {
            std::hint::black_box(a.matmul_pooled(&b, &pool));
        });
        // Same blocked kernel, pinned to the portable scalar microkernel:
        // isolates the dispatched SIMD win from the blocking/packing win.
        pddl_tensor::set_force_scalar(true);
        let scalar_us = median_us(reps, || {
            std::hint::black_box(a.matmul_with(&b, &mut pack));
        });
        pddl_tensor::set_force_scalar(false);
        let flops = 2.0 * m as f64 * n as f64 * k as f64;
        eprintln!(
            "gemm {m}x{k}·{k}x{n}: ref {reference_us:.1}us blocked {blocked_us:.1}us \
             pooled {pooled_us:.1}us scalar {scalar_us:.1}us ({:.2}x)",
            reference_us / blocked_us
        );
        gemm.push(GemmCase {
            m,
            k,
            n,
            reference_us,
            blocked_us,
            pooled_us,
            scalar_us,
            speedup_blocked: reference_us / blocked_us,
            speedup_pooled: reference_us / pooled_us,
            speedup_simd: scalar_us / blocked_us,
            gflops_blocked: flops / blocked_us / 1e3,
        });
    }

    // End-to-end inference: a real architecture through the GatedGNN.
    let model = "resnet18";
    let ds = dataset_by_name("cifar10").expect("cifar10 registered");
    let graph = build_model(model, ds).expect("resnet18 in the zoo");
    let ghn = Ghn::new(GhnConfig::default(), &mut rng);
    let sched = Schedule::new(&graph, ghn.cfg.s_max);
    let embed_reps = if quick { 2 } else { reps.min(5) };
    let reference_us = median_us(embed_reps, || {
        std::hint::black_box(ghn.embed_with_schedule_reference(&graph, &sched));
    });
    let batched_us = median_us(embed_reps, || {
        std::hint::black_box(ghn.embed_with_schedule(&graph, &sched));
    });
    eprintln!(
        "embed_graph {model} ({} nodes): ref {reference_us:.0}us batched {batched_us:.0}us \
         ({:.2}x)",
        graph.num_nodes(),
        reference_us / batched_us
    );
    let embed_graph = EmbedE2e {
        model: model.to_string(),
        nodes: graph.num_nodes(),
        reference_us,
        batched_us,
        speedup: reference_us / batched_us,
    };

    // End-to-end meta-training on the fused tape (no slow-path twin
    // exists for the trainer; this is the trajectory number future PRs
    // diff against).
    let mut cfg = TrainConfig::tiny();
    cfg.epochs = if quick { 1 } else { 2 };
    let mut gen = SynthGenerator::new(ds.clone(), 0x7E57);
    let mut train_ghn = Ghn::new(GhnConfig::tiny(), &mut rng);
    let trainer = GhnTrainer::new(cfg);
    let start = Instant::now();
    let report = trainer.train(&mut train_ghn, &mut gen);
    let total_us = start.elapsed().as_secs_f64() * 1e6;
    eprintln!(
        "train {} graphs x {} epochs: {:.0}us (final loss {:.4})",
        report.num_graphs,
        cfg.epochs,
        total_us,
        report.final_loss
    );
    let train_epoch = TrainE2e {
        num_graphs: report.num_graphs,
        epochs: cfg.epochs,
        total_us,
        us_per_epoch: total_us / cfg.epochs as f64,
    };

    let snap = pddl_telemetry::snapshot();
    let telemetry: Vec<(String, u64)> = ["tensor.gemm_calls", "tensor.gemm_flops", "par.items"]
        .iter()
        .filter_map(|name| snap.counter(name).map(|v| (name.to_string(), v)))
        .collect();

    let report = TensorReport {
        threads: pool.threads(),
        reps,
        kernel,
        gemm,
        embed_graph,
        train_epoch,
        telemetry,
    };
    if compare {
        print_compare(&report);
    }
    std::fs::write(&out, report.render()).expect("write report");
    eprintln!("wrote {out}");
}

/// `--compare`: a per-shape table of the dispatched blocked kernel vs the
/// forced-scalar kernel, plus the embed e2e line.
fn print_compare(report: &TensorReport) {
    println!("kernel backend: {}", report.kernel);
    println!(
        "{:>14} {:>12} {:>12} {:>8}",
        "shape", "blocked_us", "scalar_us", "simd_x"
    );
    for c in &report.gemm {
        println!(
            "{:>14} {:>12.1} {:>12.1} {:>8.2}",
            format!("{}x{}x{}", c.m, c.k, c.n),
            c.blocked_us,
            c.scalar_us,
            c.speedup_simd
        );
    }
    let e = &report.embed_graph;
    println!(
        "embed {} ({} nodes): reference {:.0}us batched {:.0}us ({:.2}x)",
        e.model, e.nodes, e.reference_us, e.batched_us, e.speedup
    );
}

/// Median wall-clock of `reps` calls after one warmup, in microseconds.
fn median_us(reps: usize, mut f: impl FnMut()) -> f64 {
    f(); // warmup
    let mut samples: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    samples.sort_by(|a, b| a.total_cmp(b));
    samples[samples.len() / 2]
}

fn flag_value<T: std::str::FromStr>(args: &[String], name: &str) -> Option<T> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
}
