//! Property-based tests of the matrix kernels and decompositions.

use pddl_tensor::linalg::{cholesky, lstsq, qr, solve_spd};
use pddl_tensor::{Matrix, Rng};
use proptest::prelude::*;

fn rand_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut rng = Rng::new(seed);
    Matrix::rand_normal(rows, cols, 1.0, &mut rng)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn matmul_associative(seed in any::<u64>(), m in 1usize..6, k in 1usize..6, n in 1usize..6, p in 1usize..6) {
        let a = rand_matrix(m, k, seed);
        let b = rand_matrix(k, n, seed ^ 1);
        let c = rand_matrix(n, p, seed ^ 2);
        let left = a.matmul(&b).matmul(&c);
        let right = a.matmul(&b.matmul(&c));
        prop_assert!((&left - &right).max_abs() < 1e-3);
    }

    #[test]
    fn matmul_distributes_over_add(seed in any::<u64>(), m in 1usize..6, k in 1usize..6, n in 1usize..6) {
        let a = rand_matrix(m, k, seed);
        let b = rand_matrix(k, n, seed ^ 3);
        let c = rand_matrix(k, n, seed ^ 4);
        let left = a.matmul(&(&b + &c));
        let right = &a.matmul(&b) + &a.matmul(&c);
        prop_assert!((&left - &right).max_abs() < 1e-3);
    }

    #[test]
    fn transpose_of_product(seed in any::<u64>(), m in 1usize..6, k in 1usize..6, n in 1usize..6) {
        let a = rand_matrix(m, k, seed);
        let b = rand_matrix(k, n, seed ^ 5);
        let left = a.matmul(&b).transpose();
        let right = b.transpose().matmul(&a.transpose());
        prop_assert!((&left - &right).max_abs() < 1e-3);
    }

    #[test]
    fn hstack_vstack_shapes(seed in any::<u64>(), m in 1usize..5, n in 1usize..5) {
        let a = rand_matrix(m, n, seed);
        let b = rand_matrix(m, n, seed ^ 6);
        let h = Matrix::hstack(&[&a, &b]);
        prop_assert_eq!(h.shape(), (m, 2 * n));
        let v = Matrix::vstack(&[&a, &b]);
        prop_assert_eq!(v.shape(), (2 * m, n));
        // Slices recover the parts.
        prop_assert_eq!(v.slice_rows(0, m), a.clone());
        prop_assert_eq!(v.slice_rows(m, 2 * m), b);
    }

    #[test]
    fn qr_always_reconstructs(seed in any::<u64>(), n in 1usize..6, extra in 0usize..5) {
        let m = n + extra;
        let a = rand_matrix(m, n, seed);
        let (q, r) = qr(&a);
        prop_assert!((&q.matmul(&r) - &a).max_abs() < 1e-3);
    }

    #[test]
    fn lstsq_residual_never_worse_than_zero_vector(seed in any::<u64>(), n in 1usize..5, extra in 1usize..6) {
        let m = n + extra;
        let a = rand_matrix(m, n, seed);
        let b: Vec<f32> = rand_matrix(m, 1, seed ^ 7).as_slice().to_vec();
        let x = lstsq(&a, &b);
        let pred = a.matvec(&x);
        let resid: f32 = pred.iter().zip(&b).map(|(p, t)| (p - t) * (p - t)).sum();
        let zero_resid: f32 = b.iter().map(|t| t * t).sum();
        prop_assert!(resid <= zero_resid + 1e-3);
    }

    #[test]
    fn gram_matrices_are_spd(seed in any::<u64>(), m in 2usize..8, n in 1usize..5) {
        let a = rand_matrix(m, n, seed);
        let mut gram = a.t_matmul(&a);
        for i in 0..n {
            gram[(i, i)] += 0.1;
        }
        prop_assert!(cholesky(&gram).is_some());
        // Solve and verify.
        let x_true: Vec<f32> = (0..n).map(|i| i as f32 - 1.0).collect();
        let rhs = gram.matvec(&x_true);
        let x = solve_spd(&gram, &rhs).unwrap();
        for (a, b) in x.iter().zip(&x_true) {
            prop_assert!((a - b).abs() < 0.05, "{:?} vs {:?}", x, x_true);
        }
    }

    #[test]
    fn gather_rows_preserves_content(seed in any::<u64>(), m in 1usize..8, n in 1usize..5) {
        let a = rand_matrix(m, n, seed);
        let idx: Vec<usize> = (0..m).rev().collect();
        let g = a.gather_rows(&idx);
        for (i, &r) in idx.iter().enumerate() {
            prop_assert_eq!(g.row(i), a.row(r));
        }
    }
}
