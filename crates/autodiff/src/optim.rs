//! The first-order optimizer over a [`ParamStore`]: Adam.

use crate::tape::{Gradients, ParamId, ParamStore};
use pddl_tensor::Matrix;

/// Per-parameter optimizer state by [`ParamId`]: a slot is made, zero-filled
/// in the gradient's shape, the first time that parameter's gradient arrives.
type Slots = Vec<Option<Matrix>>;

fn slot<'a>(slots: &'a mut Slots, id: ParamId, like: &Matrix) -> &'a mut Matrix {
    if slots.len() <= id.0 {
        slots.resize(id.0 + 1, None);
    }
    slots[id.0].get_or_insert_with(|| Matrix::zeros(like.rows(), like.cols()))
}

/// Adam (Kingma & Ba) with bias correction; the optimizer used for GHN-2
/// meta-training and the MLP regressor.
#[derive(Clone, Debug)]
pub struct Adam {
    pub lr: f32,
    pub beta1: f32,
    pub beta2: f32,
    pub eps: f32,
    t: u64,
    m: Slots,
    v: Slots,
}

impl Adam {
    pub fn new(lr: f32) -> Self {
        Self {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
            m: Slots::new(),
            v: Slots::new(),
        }
    }

    /// Applies one step from `grads` to the parameters they were taken of.
    pub fn step(&mut self, params: &mut ParamStore, grads: &Gradients) {
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        for (id, g) in grads.iter() {
            let m = slot(&mut self.m, id, g);
            let v = slot(&mut self.v, id, g);
            let w = params.get_mut(id);
            let (b1, b2, eps, lr) = (self.beta1, self.beta2, self.eps, self.lr);
            let ws = w.as_mut_slice();
            let ms = m.as_mut_slice();
            let vs = v.as_mut_slice();
            let gs = g.as_slice();
            for i in 0..gs.len() {
                let gi = gs[i];
                ms[i] = b1 * ms[i] + (1.0 - b1) * gi;
                vs[i] = b2 * vs[i] + (1.0 - b2) * gi * gi;
                let mhat = ms[i] / bc1;
                let vhat = vs[i] / bc2;
                ws[i] -= lr * mhat / (vhat.sqrt() + eps);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tape::{ParamStore, Tape};

    /// Minimizes `mean((w - target)²)` and returns the final parameter.
    fn run_adam(opt: &mut Adam, steps: usize) -> f32 {
        let mut ps = ParamStore::new();
        let w = ps.register("w", Matrix::filled(1, 1, 5.0));
        for _ in 0..steps {
            let grads = {
                let mut tape = Tape::new(&ps);
                let wv = tape.param(w);
                let t = tape.constant(Matrix::filled(1, 1, 2.0));
                let loss = tape.mse_loss(wv, t);
                tape.backward(loss)
            };
            opt.step(&mut ps, &grads);
        }
        ps.get(w)[(0, 0)]
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let mut opt = Adam::new(0.1);
        let w = run_adam(&mut opt, 300);
        assert!((w - 2.0).abs() < 1e-2, "w={w}");
    }

    #[test]
    fn adam_handles_multiple_params() {
        let mut ps = ParamStore::new();
        let a = ps.register("a", Matrix::filled(1, 1, -3.0));
        let b = ps.register("b", Matrix::filled(1, 1, 7.0));
        let mut opt = Adam::new(0.2);
        for _ in 0..400 {
            let grads = {
                let mut tape = Tape::new(&ps);
                let av = tape.param(a);
                let bv = tape.param(b);
                let s = tape.add(av, bv); // minimize (a+b-1)² + small pull on each
                let t = tape.constant(Matrix::filled(1, 1, 1.0));
                let loss = tape.mse_loss(s, t);
                tape.backward(loss)
            };
            opt.step(&mut ps, &grads);
        }
        let sum = ps.get(a)[(0, 0)] + ps.get(b)[(0, 0)];
        assert!((sum - 1.0).abs() < 1e-2, "sum={sum}");
    }
}
