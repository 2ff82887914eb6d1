//! Neural-network building blocks used by GHN-2 and the MLP regressor.

use crate::tape::{ParamId, ParamStore, Tape, Var};
use pddl_telemetry::json::{self, FromJson, JsonError, JsonValue, JsonWriter, ToJson};
use pddl_tensor::Rng;

/// Affine layer `y = x·W + b`.
#[derive(Clone, Debug)]
pub struct Linear {
    pub w: ParamId,
    pub b: ParamId,
    pub in_dim: usize,
    pub out_dim: usize,
}

impl ToJson for Linear {
    fn write_json(&self, w: &mut JsonWriter) {
        w.object()
            .field("w", &self.w)
            .field("b", &self.b)
            .field("in_dim", &self.in_dim)
            .field("out_dim", &self.out_dim)
            .end();
    }
}

impl FromJson for Linear {
    fn read_json(v: &JsonValue) -> Result<Self, JsonError> {
        let o = v.fields()?;
        Ok(Self {
            w: o.field("w")?,
            b: o.field("b")?,
            in_dim: o.field("in_dim")?,
            out_dim: o.field("out_dim")?,
        })
    }
}

impl Linear {
    pub fn new(
        ps: &mut ParamStore,
        name: &str,
        in_dim: usize,
        out_dim: usize,
        rng: &mut Rng,
    ) -> Self {
        let w = ps.register_xavier(format!("{name}.w"), in_dim, out_dim, rng);
        let b = ps.register_bias(format!("{name}.b"), out_dim);
        Self { w, b, in_dim, out_dim }
    }

    pub fn forward(&self, tape: &mut Tape, x: Var) -> Var {
        let w = tape.param(self.w);
        let b = tape.param(self.b);
        tape.affine(x, w, b)
    }
}

/// Activation choices for [`Mlp`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Activation {
    Relu,
    Tanh,
    Sigmoid,
    /// No nonlinearity (used on output layers).
    Identity,
}

impl ToJson for Activation {
    fn write_json(&self, w: &mut JsonWriter) {
        w.unit_variant(self);
    }
}

impl FromJson for Activation {
    fn read_json(v: &JsonValue) -> Result<Self, JsonError> {
        json::read_unit_variant(
            v,
            &[Activation::Relu, Activation::Tanh, Activation::Sigmoid, Activation::Identity],
        )
    }
}

impl Activation {
    #[allow(dead_code)]
    fn apply(self, tape: &mut Tape, x: Var) -> Var {
        match self {
            Activation::Relu => tape.relu(x),
            Activation::Tanh => tape.tanh(x),
            Activation::Sigmoid => tape.sigmoid(x),
            Activation::Identity => x,
        }
    }

    /// The tensor-crate activation this maps to in fused GEMM epilogues.
    /// This enum stays the persisted config surface; the tensor enum is
    /// the compute-side type.
    pub fn fused(self) -> pddl_tensor::Activation {
        match self {
            Activation::Relu => pddl_tensor::Activation::Relu,
            Activation::Tanh => pddl_tensor::Activation::Tanh,
            Activation::Sigmoid => pddl_tensor::Activation::Sigmoid,
            Activation::Identity => pddl_tensor::Activation::Identity,
        }
    }
}

/// Multi-layer perceptron with a hidden activation and linear output.
///
/// The GHN message function MLP(·) from Eq. (3)/(4) of the paper and the
/// decoder heads are instances of this type.
#[derive(Clone, Debug)]
pub struct Mlp {
    pub layers: Vec<Linear>,
    pub hidden_act: Activation,
}

impl ToJson for Mlp {
    fn write_json(&self, w: &mut JsonWriter) {
        w.object()
            .field("layers", &self.layers)
            .field("hidden_act", &self.hidden_act)
            .end();
    }
}

impl FromJson for Mlp {
    fn read_json(v: &JsonValue) -> Result<Self, JsonError> {
        let o = v.fields()?;
        Ok(Self { layers: o.field("layers")?, hidden_act: o.field("hidden_act")? })
    }
}

impl Mlp {
    /// `dims = [in, h1, ..., out]`; requires at least one layer.
    pub fn new(
        ps: &mut ParamStore,
        name: &str,
        dims: &[usize],
        hidden_act: Activation,
        rng: &mut Rng,
    ) -> Self {
        assert!(dims.len() >= 2, "Mlp needs at least [in, out] dims");
        let layers = dims
            .windows(2)
            .enumerate()
            .map(|(i, w)| Linear::new(ps, &format!("{name}.l{i}"), w[0], w[1], rng))
            .collect();
        Self { layers, hidden_act }
    }

    pub fn forward(&self, tape: &mut Tape, mut x: Var) -> Var {
        let last = self.layers.len() - 1;
        for (i, layer) in self.layers.iter().enumerate() {
            // Hidden layers record one fused affine+activation node each;
            // the output layer stays linear.
            let act = if i < last { self.hidden_act.fused() } else { pddl_tensor::Activation::Identity };
            let w = tape.param(layer.w);
            let b = tape.param(layer.b);
            x = tape.affine_act(x, w, b, act);
        }
        x
    }

    pub fn in_dim(&self) -> usize {
        self.layers[0].in_dim
    }

    pub fn out_dim(&self) -> usize {
        self.layers[self.layers.len() - 1].out_dim
    }
}

/// Gated Recurrent Unit cell, the state-update function of the GatedGNN
/// (Eq. (3) of the paper: `h_v^{t+1} = GRU(h_v^t, m_v^t)`).
///
/// Convention: the *message* is the input `x`, the node state is `h`:
/// ```text
/// z  = σ(x·Wz + h·Uz + bz)        update gate
/// r  = σ(x·Wr + h·Ur + br)        reset gate
/// ĥ  = tanh(x·Wh + (r ⊙ h)·Uh + bh)
/// h' = (1 − z) ⊙ h + z ⊙ ĥ
/// ```
#[derive(Clone, Debug)]
pub struct GruCell {
    pub wz: ParamId,
    pub uz: ParamId,
    pub bz: ParamId,
    pub wr: ParamId,
    pub ur: ParamId,
    pub br: ParamId,
    pub wh: ParamId,
    pub uh: ParamId,
    pub bh: ParamId,
    pub input_dim: usize,
    pub state_dim: usize,
}

impl ToJson for GruCell {
    fn write_json(&self, w: &mut JsonWriter) {
        w.object()
            .field("wz", &self.wz)
            .field("uz", &self.uz)
            .field("bz", &self.bz)
            .field("wr", &self.wr)
            .field("ur", &self.ur)
            .field("br", &self.br)
            .field("wh", &self.wh)
            .field("uh", &self.uh)
            .field("bh", &self.bh)
            .field("input_dim", &self.input_dim)
            .field("state_dim", &self.state_dim)
            .end();
    }
}

impl FromJson for GruCell {
    fn read_json(v: &JsonValue) -> Result<Self, JsonError> {
        let o = v.fields()?;
        Ok(Self {
            wz: o.field("wz")?,
            uz: o.field("uz")?,
            bz: o.field("bz")?,
            wr: o.field("wr")?,
            ur: o.field("ur")?,
            br: o.field("br")?,
            wh: o.field("wh")?,
            uh: o.field("uh")?,
            bh: o.field("bh")?,
            input_dim: o.field("input_dim")?,
            state_dim: o.field("state_dim")?,
        })
    }
}

impl GruCell {
    pub fn new(
        ps: &mut ParamStore,
        name: &str,
        input_dim: usize,
        state_dim: usize,
        rng: &mut Rng,
    ) -> Self {
        let mut reg = |n: &str, i: usize, o: usize, rng: &mut Rng| {
            ps.register_xavier(format!("{name}.{n}"), i, o, rng)
        };
        let wz = reg("wz", input_dim, state_dim, rng);
        let uz = reg("uz", state_dim, state_dim, rng);
        let wr = reg("wr", input_dim, state_dim, rng);
        let ur = reg("ur", state_dim, state_dim, rng);
        let wh = reg("wh", input_dim, state_dim, rng);
        let uh = reg("uh", state_dim, state_dim, rng);
        let bz = ps.register_bias(format!("{name}.bz"), state_dim);
        let br = ps.register_bias(format!("{name}.br"), state_dim);
        let bh = ps.register_bias(format!("{name}.bh"), state_dim);
        Self { wz, uz, bz, wr, ur, br, wh, uh, bh, input_dim, state_dim }
    }

    /// One GRU step over a batch of rows: `x` is `n × input_dim`, `h` is
    /// `n × state_dim`; returns the new `n × state_dim` state.
    pub fn forward(&self, tape: &mut Tape, x: Var, h: Var) -> Var {
        use pddl_tensor::Activation as A;
        // Each gate is a single fused two-operand affine node:
        // act(x·W + h·U + b) with the second GEMM accumulating in place.
        let (wz, uz, bz) = (tape.param(self.wz), tape.param(self.uz), tape.param(self.bz));
        let z = tape.affine2(x, wz, h, uz, bz, A::Sigmoid);

        let (wr, ur, br) = (tape.param(self.wr), tape.param(self.ur), tape.param(self.br));
        let r = tape.affine2(x, wr, h, ur, br, A::Sigmoid);

        let (wh, uh, bh) = (tape.param(self.wh), tape.param(self.uh), tape.param(self.bh));
        let rh = tape.mul(r, h);
        let hhat = tape.affine2(x, wh, rh, uh, bh, A::Tanh);

        // h' = h + z ⊙ (ĥ − h)  (algebraically identical to the canonical
        // form, one fewer elementwise op)
        let diff = tape.sub(hhat, h);
        let zdiff = tape.mul(z, diff);
        tape.add(h, zdiff)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tape::gradient_check;
    use pddl_tensor::Matrix;

    #[test]
    fn linear_shapes() {
        let mut rng = Rng::new(1);
        let mut ps = ParamStore::new();
        let lin = Linear::new(&mut ps, "l", 4, 7, &mut rng);
        let mut tape = Tape::new(&ps);
        let x = tape.constant(Matrix::zeros(3, 4));
        let y = lin.forward(&mut tape, x);
        assert_eq!(tape.shape(y), (3, 7));
    }

    /// `uses` applications of one `Linear`, chained, against the same chain
    /// through `uses` copies of it in a second store: the shared leaf's
    /// gradient is the copies' gradients added last use first, bit for bit.
    fn shared_leaf_sums_single_use_gradients(rows: usize) {
        const USES: usize = 4;
        let mut rng = Rng::new(21);
        let mut shared = ParamStore::new();
        let lin = Linear::new(&mut shared, "l", 4, 4, &mut rng);
        *shared.get_mut(lin.b) = Matrix::rand_normal(1, 4, 0.3, &mut rng);
        let mut separate = ParamStore::new();
        let copies: Vec<Linear> = (0..USES)
            .map(|i| {
                let copy = Linear::new(&mut separate, &format!("c{i}"), 4, 4, &mut rng);
                *separate.get_mut(copy.w) = shared.get(lin.w).clone();
                *separate.get_mut(copy.b) = shared.get(lin.b).clone();
                copy
            })
            .collect();
        let x = Matrix::rand_normal(rows, 4, 1.0, &mut rng);
        let t = Matrix::rand_normal(rows, 4, 1.0, &mut rng);
        let run = |ps: &ParamStore, layers: Vec<&Linear>| {
            let mut tape = Tape::new(ps);
            let mut y = tape.constant(x.clone());
            for layer in layers {
                y = layer.forward(&mut tape, y);
                y = tape.tanh(y);
            }
            let tv = tape.constant(t.clone());
            let loss = tape.mse_loss(y, tv);
            (tape.param_leaves(), tape.backward(loss))
        };
        let (leaves, got) = run(&shared, vec![&lin; USES]);
        assert_eq!(leaves, 2, "one leaf for w, one for b");
        let (leaves, parts) = run(&separate, copies.iter().collect());
        assert_eq!(leaves, 2 * USES);
        let pick_w = |l: &Linear| l.w;
        let pick_b = |l: &Linear| l.b;
        for pick in [pick_w, pick_b] {
            let mut want = parts.get(pick(&copies[USES - 1])).unwrap().clone();
            for copy in copies[..USES - 1].iter().rev() {
                want.add_scaled(parts.get(pick(copy)).unwrap(), 1.0);
            }
            let got = got.get(pick(&lin)).unwrap();
            let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(got), bits(&want), "rows={rows}: shared {got:?} vs copies {want:?}");
        }
    }

    #[test]
    fn a_layer_used_k_times_is_two_leaves_and_the_sum_of_k_gradients() {
        // One row: the GHN's per-node shape. Three: the GEMM shape.
        shared_leaf_sums_single_use_gradients(1);
        shared_leaf_sums_single_use_gradients(3);
    }

    #[test]
    fn mlp_forward_and_dims() {
        let mut rng = Rng::new(2);
        let mut ps = ParamStore::new();
        let mlp = Mlp::new(&mut ps, "m", &[5, 8, 3], Activation::Relu, &mut rng);
        assert_eq!(mlp.in_dim(), 5);
        assert_eq!(mlp.out_dim(), 3);
        let mut tape = Tape::new(&ps);
        let x = tape.constant(Matrix::ones(2, 5));
        let y = mlp.forward(&mut tape, x);
        assert_eq!(tape.shape(y), (2, 3));
    }

    #[test]
    fn mlp_gradcheck() {
        let mut rng = Rng::new(3);
        let mut ps = ParamStore::new();
        let mlp = Mlp::new(&mut ps, "m", &[3, 5, 2], Activation::Tanh, &mut rng);
        let x = Matrix::rand_normal(4, 3, 1.0, &mut rng);
        let t = Matrix::rand_normal(4, 2, 1.0, &mut rng);
        let err = gradient_check(
            &mut ps,
            |tape| {
                let xv = tape.constant(x.clone());
                let y = mlp.forward(tape, xv);
                let tv = tape.constant(t.clone());
                tape.mse_loss(y, tv)
            },
            8,
        );
        assert!(err < 3e-2, "err={err}");
    }

    #[test]
    fn gru_state_shape_preserved() {
        let mut rng = Rng::new(4);
        let mut ps = ParamStore::new();
        let gru = GruCell::new(&mut ps, "g", 6, 10, &mut rng);
        let mut tape = Tape::new(&ps);
        let x = tape.constant(Matrix::ones(3, 6));
        let h = tape.constant(Matrix::zeros(3, 10));
        let h2 = gru.forward(&mut tape, x, h);
        assert_eq!(tape.shape(h2), (3, 10));
    }

    #[test]
    fn gru_gradcheck() {
        let mut rng = Rng::new(5);
        let mut ps = ParamStore::new();
        let gru = GruCell::new(&mut ps, "g", 3, 4, &mut rng);
        let x = Matrix::rand_normal(2, 3, 1.0, &mut rng);
        let h0 = Matrix::rand_normal(2, 4, 0.5, &mut rng);
        let t = Matrix::rand_normal(2, 4, 0.5, &mut rng);
        let err = gradient_check(
            &mut ps,
            |tape| {
                let xv = tape.constant(x.clone());
                let hv = tape.constant(h0.clone());
                let h1 = gru.forward(tape, xv, hv);
                // Two chained steps exercise reuse of the same parameters.
                let h2 = gru.forward(tape, xv, h1);
                let tv = tape.constant(t.clone());
                tape.mse_loss(h2, tv)
            },
            6,
        );
        assert!(err < 4e-2, "err={err}");
    }

    #[test]
    fn gru_zero_update_gate_keeps_state() {
        // With z≈0 (Wz,Uz,bz ≈ large negative), h' should stay close to h.
        let mut rng = Rng::new(6);
        let mut ps = ParamStore::new();
        let gru = GruCell::new(&mut ps, "g", 2, 3, &mut rng);
        // Force the update-gate bias very negative.
        ps.get_mut(gru.bz).map_inplace(|_| -20.0);
        let mut tape = Tape::new(&ps);
        let x = tape.constant(Matrix::ones(1, 2));
        let h = tape.constant(Matrix::from_rows(&[&[0.3, -0.7, 0.9]]));
        let h2 = gru.forward(&mut tape, x, h);
        let before = tape.value(h).clone();
        let after = tape.value(h2).clone();
        assert!((&after - &before).max_abs() < 1e-4);
    }
}
