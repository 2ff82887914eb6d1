//! Property-based tests of the matrix kernels and decompositions: seeded
//! loops on the in-tree [`Rng`] (see [`for_each_case`] — a failure names
//! the seed that replays it).

use pddl_tensor::linalg::{cholesky, lstsq, qr, solve_spd};
use pddl_tensor::rng::for_each_case;
use pddl_tensor::{Matrix, Rng};

/// Cases per property.
const CASES: u64 = 32;

fn rand_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut rng = Rng::new(seed);
    Matrix::rand_normal(rows, cols, 1.0, &mut rng)
}

#[test]
fn matmul_associative() {
    for_each_case(CASES, |rng| {
        let seed = rng.next_u64();
        let m = rng.range(1, 6);
        let k = rng.range(1, 6);
        let n = rng.range(1, 6);
        let p = rng.range(1, 6);
        let a = rand_matrix(m, k, seed);
        let b = rand_matrix(k, n, seed ^ 1);
        let c = rand_matrix(n, p, seed ^ 2);
        let left = a.matmul(&b).matmul(&c);
        let right = a.matmul(&b.matmul(&c));
        assert!((&left - &right).max_abs() < 1e-3);
    });
}

#[test]
fn matmul_distributes_over_add() {
    for_each_case(CASES, |rng| {
        let seed = rng.next_u64();
        let m = rng.range(1, 6);
        let k = rng.range(1, 6);
        let n = rng.range(1, 6);
        let a = rand_matrix(m, k, seed);
        let b = rand_matrix(k, n, seed ^ 3);
        let c = rand_matrix(k, n, seed ^ 4);
        let left = a.matmul(&(&b + &c));
        let right = &a.matmul(&b) + &a.matmul(&c);
        assert!((&left - &right).max_abs() < 1e-3);
    });
}

#[test]
fn transpose_of_product() {
    for_each_case(CASES, |rng| {
        let seed = rng.next_u64();
        let m = rng.range(1, 6);
        let k = rng.range(1, 6);
        let n = rng.range(1, 6);
        let a = rand_matrix(m, k, seed);
        let b = rand_matrix(k, n, seed ^ 5);
        let left = a.matmul(&b).transpose();
        let right = b.transpose().matmul(&a.transpose());
        assert!((&left - &right).max_abs() < 1e-3);
    });
}

#[test]
fn hstack_vstack_shapes() {
    for_each_case(CASES, |rng| {
        let seed = rng.next_u64();
        let m = rng.range(1, 5);
        let n = rng.range(1, 5);
        let a = rand_matrix(m, n, seed);
        let b = rand_matrix(m, n, seed ^ 6);
        let h = Matrix::hstack(&[&a, &b]);
        assert_eq!(h.shape(), (m, 2 * n));
        let v = Matrix::vstack(&[&a, &b]);
        assert_eq!(v.shape(), (2 * m, n));
        // Slices recover the parts.
        assert_eq!(v.slice_rows(0, m), a.clone());
        assert_eq!(v.slice_rows(m, 2 * m), b);
    });
}

#[test]
fn qr_always_reconstructs() {
    for_each_case(CASES, |rng| {
        let seed = rng.next_u64();
        let n = rng.range(1, 6);
        let extra = rng.range(0, 5);
        let m = n + extra;
        let a = rand_matrix(m, n, seed);
        let (q, r) = qr(&a);
        assert!((&q.matmul(&r) - &a).max_abs() < 1e-3);
    });
}

#[test]
fn lstsq_residual_never_worse_than_zero_vector() {
    for_each_case(CASES, |rng| {
        let seed = rng.next_u64();
        let n = rng.range(1, 5);
        let extra = rng.range(1, 6);
        let m = n + extra;
        let a = rand_matrix(m, n, seed);
        let b: Vec<f32> = rand_matrix(m, 1, seed ^ 7).as_slice().to_vec();
        let x = lstsq(&a, &b);
        let pred = a.matvec(&x);
        let resid: f32 = pred.iter().zip(&b).map(|(p, t)| (p - t) * (p - t)).sum();
        let zero_resid: f32 = b.iter().map(|t| t * t).sum();
        assert!(resid <= zero_resid + 1e-3);
    });
}

#[test]
fn gram_matrices_are_spd() {
    for_each_case(CASES, |rng| {
        let seed = rng.next_u64();
        let m = rng.range(2, 8);
        let n = rng.range(1, 5);
        let a = rand_matrix(m, n, seed);
        let mut gram = a.t_matmul(&a);
        for i in 0..n {
            gram[(i, i)] += 0.1;
        }
        assert!(cholesky(&gram).is_some());
        // Solve and verify.
        let x_true: Vec<f32> = (0..n).map(|i| i as f32 - 1.0).collect();
        let rhs = gram.matvec(&x_true);
        let x = solve_spd(&gram, &rhs).unwrap();
        for (a, b) in x.iter().zip(&x_true) {
            assert!((a - b).abs() < 0.05, "{:?} vs {:?}", x, x_true);
        }
    });
}

#[test]
fn gather_rows_preserves_content() {
    for_each_case(CASES, |rng| {
        let seed = rng.next_u64();
        let m = rng.range(1, 8);
        let n = rng.range(1, 5);
        let a = rand_matrix(m, n, seed);
        let idx: Vec<usize> = (0..m).rev().collect();
        let g = a.gather_rows(&idx);
        for (i, &r) in idx.iter().enumerate() {
            assert_eq!(g.row(i), a.row(r));
        }
    });
}
