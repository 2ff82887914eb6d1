//! Property test: gradients of *randomly composed* op chains always match
//! finite differences. This sweeps the op space far more broadly than the
//! hand-written unit tests. A seeded loop on the in-tree [`Rng`]: a failure
//! names the seed that replays it (see [`for_each_case`]).

use pddl_autodiff::{gradient_check, ParamStore, Tape, Var};
use pddl_tensor::rng::for_each_case;
use pddl_tensor::{Matrix, Rng};

/// One step in a random chain of shape-preserving ops.
#[derive(Clone, Copy, Debug)]
enum Step {
    Tanh,
    Sigmoid,
    Relu,
    Scale(i8),
    RowNorm,
    MatmulSquare, // multiply by a fixed random square matrix
    AddConst,
    MulConst,
    WeightedSum(i8), // the input twice and a fixed random matrix
}

fn apply(step: Step, tape: &mut Tape, x: Var, dim: usize, rng: &mut Rng) -> Var {
    match step {
        Step::Tanh => tape.tanh(x),
        Step::Sigmoid => tape.sigmoid(x),
        Step::Relu => tape.relu(x),
        Step::Scale(s) => tape.scale(x, s as f32 / 4.0 + 1.5),
        Step::RowNorm => tape.row_l2_norm(x),
        Step::MatmulSquare => {
            let m = tape.constant(Matrix::rand_normal(dim, dim, 0.5, rng));
            tape.matmul(x, m)
        }
        Step::AddConst => {
            let (r, c) = tape.shape(x);
            let m = tape.constant(Matrix::rand_normal(r, c, 0.5, rng));
            tape.add(x, m)
        }
        Step::MulConst => {
            let (r, c) = tape.shape(x);
            let m = tape.constant(Matrix::rand_normal(r, c, 0.5, rng));
            tape.mul(x, m)
        }
        Step::WeightedSum(s) => {
            let (r, c) = tape.shape(x);
            let m = tape.constant(Matrix::rand_normal(r, c, 0.5, rng));
            tape.weighted_sum(&[(x, s as f32 / 4.0 + 1.5), (m, 0.5), (x, -0.25)])
        }
    }
}

fn arb_step(rng: &mut Rng) -> Step {
    match rng.below(9) {
        0 => Step::Tanh,
        1 => Step::Sigmoid,
        2 => Step::Relu,
        3 => Step::Scale(rng.range(0, 8) as i8 - 4),
        4 => Step::RowNorm,
        5 => Step::MatmulSquare,
        6 => Step::AddConst,
        7 => Step::MulConst,
        _ => Step::WeightedSum(rng.range(0, 8) as i8 - 4),
    }
}

#[test]
fn random_chains_gradcheck() {
    for_each_case(20, |rng| {
        let steps: Vec<Step> = (0..rng.range(1, 6)).map(|_| arb_step(rng)).collect();
        let seed = rng.next_u64();
        let rows = rng.range(1, 4);
        let dim = rng.range(2, 5);
        let mut init_rng = Rng::new(seed);
        // Nudge values away from ReLU kinks so finite differences are clean.
        let mut init = Matrix::rand_normal(rows, dim, 0.8, &mut init_rng);
        init.map_inplace(|v| if v.abs() < 0.05 { 0.2 } else { v });
        let target = Matrix::rand_normal(rows, dim, 0.5, &mut init_rng);

        let mut ps = ParamStore::new();
        let w = ps.register("w", init);
        let err = gradient_check(
            &mut ps,
            |tape| {
                // Constants must be identical across re-evaluations: reseed.
                let mut rng = Rng::new(seed ^ 0xC0);
                let mut x = tape.param(w);
                for &s in &steps {
                    x = apply(s, tape, x, dim, &mut rng);
                }
                let t = tape.constant(target.clone());
                tape.mse_loss(x, t)
            },
            8,
        );
        assert!(err < 0.08, "chain {:?}: gradcheck err {}", steps, err);
    });
}
