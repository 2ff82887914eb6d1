//! Equivalence, determinism, and allocation-reuse suite for the blocked
//! packed GEMM core.
//!
//! Randomized sweeps draw from the in-tree seeded `Rng`.
//!
//! Tolerance policy (see `crates/tensor/src/gemm.rs`): blocked results
//! are compared to `matmul_reference` at ≤ 1e-5 *relative* error — the
//! summation order differs, the math does not. Determinism is asserted
//! in exact bits: same inputs, any pool size, same output.

use pddl_par::WorkPool;
use pddl_tensor::matrix::dot;
use pddl_tensor::testing::{matmul_pooled, matmul_with, PackBuffer};
use pddl_tensor::{Activation, KernelBackend, Matrix, Rng};
use std::sync::Mutex;

/// The kernel this crate shipped before the blocked core — transpose
/// `b` once, then one dot product per output element: the oracle of the
/// equivalence tests.
fn matmul_reference(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(a.cols(), b.rows(), "inner dims");
    let (k, n) = (a.cols(), b.cols());
    let mut out = Matrix::zeros(a.rows(), n);
    if k == 0 {
        return out;
    }
    let bt = b.transpose();
    for (a_row, out_row) in a.as_slice().chunks_exact(k).zip(out.as_mut_slice().chunks_mut(n)) {
        for (o, b_col) in out_row.iter_mut().zip(bt.as_slice().chunks_exact(k)) {
            *o = dot(a_row, b_col);
        }
    }
    out
}

/// Serializes tests that flip the process-global kernel backend (or that
/// assert bit-identity across several products, which a concurrent flip
/// would break).
static BACKEND_LOCK: Mutex<()> = Mutex::new(());

/// RAII force-scalar override that restores the previous state even when
/// the assertion inside panics.
struct ScalarGuard(bool);

impl ScalarGuard {
    fn engage() -> Self {
        let prev = pddl_tensor::kernels::force_scalar();
        pddl_tensor::set_force_scalar(true);
        Self(prev)
    }
}

impl Drop for ScalarGuard {
    fn drop(&mut self) {
        pddl_tensor::set_force_scalar(self.0);
    }
}

/// max |a-b| / max(1, |a|, |b|), elementwise.
fn rel_err(a: &Matrix, b: &Matrix) -> f32 {
    assert_eq!(a.shape(), b.shape());
    a.as_slice()
        .iter()
        .zip(b.as_slice())
        .map(|(&x, &y)| (x - y).abs() / x.abs().max(y.abs()).max(1.0))
        .fold(0.0f32, f32::max)
}

fn random_pair(m: usize, k: usize, n: usize, rng: &mut Rng) -> (Matrix, Matrix) {
    (
        Matrix::rand_normal(m, k, 1.0, rng),
        Matrix::rand_normal(k, n, 1.0, rng),
    )
}

/// Shapes chosen to cross every dispatch boundary: tiny (direct
/// kernels), blocked-serial, blocked-pooled, plus degenerate m=1 / k=1 /
/// n=1 and non-multiple-of-tile edges.
const SHAPES: &[(usize, usize, usize)] = &[
    (1, 1, 1),
    (1, 32, 32),
    (1, 32, 64),
    (1, 1, 128),
    (7, 1, 5),
    (4, 32, 64),
    (13, 7, 5),
    (32, 32, 32),
    (33, 65, 17),
    (64, 64, 64),
    (67, 129, 66),
    (128, 128, 128),
    (1, 300, 300),
    (130, 1, 130),
];

#[test]
fn blocked_matches_reference_across_shapes() {
    let mut rng = Rng::new(0xB10C);
    for &(m, k, n) in SHAPES {
        let (a, b) = random_pair(m, k, n, &mut rng);
        let reference = matmul_reference(&a, &b);
        let blocked = a.matmul(&b);
        let err = rel_err(&blocked, &reference);
        assert!(err <= 1e-5, "{m}x{k}·{k}x{n}: rel err {err}");
    }
}

#[test]
fn blocked_matches_reference_on_random_shapes() {
    let mut rng = Rng::new(0x5EED);
    for _ in 0..60 {
        let m = 1 + (rng.next_u64() % 90) as usize;
        let k = 1 + (rng.next_u64() % 90) as usize;
        let n = 1 + (rng.next_u64() % 90) as usize;
        let (a, b) = random_pair(m, k, n, &mut rng);
        let err = rel_err(&a.matmul(&b), &matmul_reference(&a, &b));
        assert!(err <= 1e-5, "{m}x{k}·{k}x{n}: rel err {err}");
    }
}

#[test]
fn nt_and_tn_match_explicit_transposes() {
    let mut rng = Rng::new(0x7A);
    for &(m, k, n) in SHAPES {
        let a = Matrix::rand_normal(m, k, 1.0, &mut rng);
        let bt = Matrix::rand_normal(n, k, 1.0, &mut rng);
        let err = rel_err(&a.matmul_nt(&bt), &matmul_reference(&a, &bt.transpose()));
        assert!(err <= 1e-5, "NT {m}x{k}: rel err {err}");

        let at = Matrix::rand_normal(k, m, 1.0, &mut rng);
        let b = Matrix::rand_normal(k, n, 1.0, &mut rng);
        let err = rel_err(&at.t_matmul(&b), &matmul_reference(&at.transpose(), &b));
        assert!(err <= 1e-5, "TN {k}x{m}: rel err {err}");
    }
}

#[test]
fn fused_ops_equal_unfused_pipeline() {
    let mut rng = Rng::new(0xF00D);
    for &(m, k, n) in SHAPES {
        let (a, b) = random_pair(m, k, n, &mut rng);
        let bias = Matrix::rand_normal(1, n, 1.0, &mut rng);
        for act in [
            Activation::Identity,
            Activation::Relu,
            Activation::Tanh,
            Activation::Sigmoid,
        ] {
            let fused = a.matmul_bias_act(&b, &bias, act);
            let unfused = a.matmul(&b).add_row_broadcast(&bias).map(|x| act.apply(x));
            let err = rel_err(&fused, &unfused);
            assert!(err <= 1e-5, "{m}x{k}x{n} {act:?}: rel err {err}");
        }
    }
}

#[test]
fn accumulate_computes_two_operand_affine() {
    // act(x·W + h·U + b) via matmul_bias + matmul_acc_act, the GRU gate
    // form, against the naive pipeline.
    let mut rng = Rng::new(0xACC);
    for &(m, d) in &[(1usize, 8usize), (5, 32), (40, 64), (130, 33)] {
        let x = Matrix::rand_normal(m, d, 1.0, &mut rng);
        let h = Matrix::rand_normal(m, d, 1.0, &mut rng);
        let w = Matrix::rand_normal(d, d, 1.0, &mut rng);
        let u = Matrix::rand_normal(d, d, 1.0, &mut rng);
        let b = Matrix::rand_normal(1, d, 1.0, &mut rng);
        let mut fused = x.matmul_bias(&w, &b);
        h.matmul_acc_act(&u, &mut fused, Activation::Sigmoid);
        let unfused = (&x.matmul(&w).add_row_broadcast(&b) + &h.matmul(&u))
            .map(|v| Activation::Sigmoid.apply(v));
        let err = rel_err(&fused, &unfused);
        assert!(err <= 1e-5, "m={m} d={d}: rel err {err}");
    }
}

/// The dispatch matrix of the kernel layer: every backend available on
/// this host × every layout (`Nn`/`Nt`/`Tn`) × every fused epilogue.
/// Policy (see `crates/tensor/src/kernels.rs`): two runs on the *same*
/// backend are bit-identical; the SIMD backends match scalar at ≤ 1e-5
/// relative (FMA fuses the multiply-add rounding, so exact bits are not
/// promised across backends).
#[test]
fn dispatch_matrix_backends_agree_across_layouts_and_epilogues() {
    let _lock = BACKEND_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let native = pddl_tensor::backend();
    let mut rng = Rng::new(0xD15);
    for &(m, k, n) in &[(1usize, 32usize, 64usize), (13, 7, 5), (33, 65, 17), (128, 128, 128)] {
        let a = Matrix::rand_normal(m, k, 1.0, &mut rng);
        let b = Matrix::rand_normal(k, n, 1.0, &mut rng);
        let bt = b.transpose();
        let at = a.transpose();
        let bias = Matrix::rand_normal(1, n, 1.0, &mut rng);
        type Product<'a> = (&'a str, Box<dyn Fn() -> Matrix + 'a>);
        let products: Vec<Product> = vec![
            ("Nn", Box::new(|| a.matmul(&b))),
            ("Nt", Box::new(|| a.matmul_nt(&bt))),
            ("Tn", Box::new(|| at.t_matmul(&b))),
            ("Nn+bias+relu", Box::new(|| a.matmul_bias_act(&b, &bias, Activation::Relu))),
            ("Nn+bias+tanh", Box::new(|| a.matmul_bias_act(&b, &bias, Activation::Tanh))),
            ("Nn+bias+sigmoid", Box::new(|| a.matmul_bias_act(&b, &bias, Activation::Sigmoid))),
        ];
        for (label, run) in &products {
            let on_native = run();
            assert_eq!(
                bits(&on_native),
                bits(&run()),
                "{m}x{k}x{n} {label}: same backend must be deterministic"
            );
            let on_scalar = {
                let _guard = ScalarGuard::engage();
                assert_eq!(pddl_tensor::backend(), KernelBackend::Scalar);
                run()
            };
            if native == KernelBackend::Scalar {
                assert_eq!(
                    bits(&on_native),
                    bits(&on_scalar),
                    "{m}x{k}x{n} {label}: scalar fallback must be bit-exact"
                );
            } else {
                let err = rel_err(&on_native, &on_scalar);
                assert!(
                    err <= 1e-5,
                    "{m}x{k}x{n} {label}: {native:?} vs scalar rel err {err}"
                );
            }
        }
    }
}

#[test]
fn results_are_bit_identical_across_runs_and_pool_sizes() {
    let _lock = BACKEND_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let mut rng = Rng::new(0xD37);
    for &(m, k, n) in &[(1usize, 300usize, 300usize), (64, 64, 64), (128, 128, 128), (33, 65, 17)] {
        let (a, b) = random_pair(m, k, n, &mut rng);
        let baseline = matmul_pooled(&a, &b, &WorkPool::new(1));
        // Repeated runs: identical bits.
        for _ in 0..3 {
            let again = a.matmul(&b);
            assert_eq!(bits(&baseline), bits(&again), "{m}x{k}x{n} rerun drifted");
        }
        // Any worker count: identical bits (fixed macro-tile partition).
        for threads in [2, 3, 7, 16] {
            let pooled = matmul_pooled(&a, &b, &WorkPool::new(threads));
            assert_eq!(bits(&baseline), bits(&pooled), "{m}x{k}x{n} threads={threads}");
        }
        // Caller-owned pack buffer (serial path): same bits again.
        let mut pack = PackBuffer::new();
        assert_eq!(bits(&baseline), bits(&matmul_with(&a, &b, &mut pack)));
    }
}

fn bits(m: &Matrix) -> Vec<u32> {
    m.as_slice().iter().map(|x| x.to_bits()).collect()
}

#[test]
fn pack_buffer_reuse_stops_allocating() {
    let mut rng = Rng::new(0x9AC);
    let (a, b) = random_pair(96, 96, 96, &mut rng);
    let mut pack = PackBuffer::new();
    let _ = matmul_with(&a, &b, &mut pack);
    let after_first = pack.allocations();
    assert!(after_first >= 1, "first product must populate the workspace");
    for _ in 0..10 {
        let _ = matmul_with(&a, &b, &mut pack);
    }
    assert_eq!(
        pack.allocations(),
        after_first,
        "repeated same-shape products must not grow the workspace"
    );
    // Smaller products fit in the warm workspace too.
    let (c, d) = random_pair(40, 50, 60, &mut rng);
    let _ = matmul_with(&c, &d, &mut pack);
    assert_eq!(pack.allocations(), after_first, "smaller shapes reuse the buffers");
}

/// Regression test for the pack-workspace reuse fix: alternating between
/// *mismatched* shapes — none larger than the first in any packed
/// dimension — must never grow the workspace again, and every growth
/// event lands on the `tensor.pack_allocs` telemetry counter.
#[test]
fn mismatched_smaller_shapes_never_reallocate() {
    let mut rng = Rng::new(0x51A3);
    let before = pddl_telemetry::snapshot().counter("tensor.pack_allocs").unwrap_or(0);
    let mut pack = PackBuffer::new();
    // Largest shape first: warms both the A panel and the B slab.
    let (a, b) = random_pair(128, 128, 128, &mut rng);
    let _ = matmul_with(&a, &b, &mut pack);
    let warm = pack.allocations();
    assert!(warm >= 1);
    // Mismatched smaller shapes, cycling so consecutive calls never agree
    // on m, k, or n — the pre-fix behavior reallocated on every change.
    for &(m, k, n) in &[(96usize, 64usize, 32usize), (17, 128, 90), (128, 33, 65), (5, 100, 128)] {
        let (c, d) = random_pair(m, k, n, &mut rng);
        let _ = matmul_with(&c, &d, &mut pack);
        assert_eq!(
            pack.allocations(),
            warm,
            "{m}x{k}x{n}: smaller mismatched shape must reuse capacity"
        );
    }
    // A genuinely larger shape is allowed (and required) to grow.
    let (e, f) = random_pair(160, 160, 160, &mut rng);
    let _ = matmul_with(&e, &f, &mut pack);
    assert!(pack.allocations() > warm, "larger shape must grow the workspace");
    let after = pddl_telemetry::snapshot().counter("tensor.pack_allocs").unwrap_or(0);
    assert!(
        after >= before + pack.allocations() as u64,
        "every growth event must be counted on tensor.pack_allocs ({before} -> {after})"
    );
}

#[test]
fn add_row_broadcast_mut_matches_allocating_version() {
    let mut rng = Rng::new(0xB1A5);
    let m = Matrix::rand_normal(9, 17, 1.0, &mut rng);
    let bias = Matrix::rand_normal(1, 17, 1.0, &mut rng);
    let expect = m.add_row_broadcast(&bias);
    let mut inplace = m.clone();
    inplace.add_row_broadcast_mut(&bias);
    assert_eq!(bits(&expect), bits(&inplace));
}

#[test]
fn vecmat_acc_matches_row_vector_matmul() {
    let mut rng = Rng::new(0x7EC);
    let w = Matrix::rand_normal(37, 19, 1.0, &mut rng);
    let v: Vec<f32> = (0..37).map(|_| rng.normal()).collect();
    let mut out = vec![0.5f32; 19];
    let mut expect = out.clone();
    let prod = matmul_reference(&Matrix::row_vector(&v), &w);
    for (e, &p) in expect.iter_mut().zip(prod.as_slice()) {
        *e += p;
    }
    pddl_tensor::vecmat_acc(&v, w.as_slice(), &mut out);
    for (got, want) in out.iter().zip(&expect) {
        assert!((got - want).abs() <= 1e-5 * want.abs().max(1.0));
    }
}

#[test]
fn degenerate_dims_are_safe() {
    let a = Matrix::zeros(0, 5);
    let b = Matrix::zeros(5, 4);
    assert_eq!(a.matmul(&b).shape(), (0, 4));
    let a = Matrix::zeros(3, 0);
    let b = Matrix::zeros(0, 4);
    assert_eq!(a.matmul(&b), Matrix::zeros(3, 4));
    let a = Matrix::zeros(3, 5);
    let b = Matrix::zeros(5, 0);
    assert_eq!(a.matmul(&b).shape(), (3, 0));
}
