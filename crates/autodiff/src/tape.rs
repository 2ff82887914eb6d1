//! The tape: parameter store, recorded operations, and the backward pass.

use pddl_tensor::{Activation, Matrix, Rng};

/// Handle to a persistent trainable parameter in a [`ParamStore`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ParamId(pub usize);

/// Handle to a value on a [`Tape`]. Valid only for the tape that produced it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Var(usize);

/// Owns the trainable parameters of a model across forward passes.
#[derive(Clone, Debug, Default)]
pub struct ParamStore {
    values: Vec<Matrix>,
    names: Vec<String>,
}

pddl_telemetry::json_struct!(ParamStore { values, names });

impl ParamStore {
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a parameter with an initial value; the name is for
    /// diagnostics only and need not be unique.
    pub fn register(&mut self, name: impl Into<String>, init: Matrix) -> ParamId {
        self.values.push(init);
        self.names.push(name.into());
        ParamId(self.values.len() - 1)
    }

    /// Xavier-initialized `fan_in × fan_out` weight.
    pub fn register_xavier(
        &mut self,
        name: impl Into<String>,
        fan_in: usize,
        fan_out: usize,
        rng: &mut Rng,
    ) -> ParamId {
        self.register(name, Matrix::xavier(fan_in, fan_out, rng))
    }

    /// Zero-initialized `1 × n` bias.
    pub fn register_bias(&mut self, name: impl Into<String>, n: usize) -> ParamId {
        self.register(name, Matrix::zeros(1, n))
    }

    pub fn get(&self, id: ParamId) -> &Matrix {
        &self.values[id.0]
    }

    pub fn get_mut(&mut self, id: ParamId) -> &mut Matrix {
        &mut self.values[id.0]
    }

    pub fn name(&self, id: ParamId) -> &str {
        &self.names[id.0]
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Fills this store with `stored`'s matrices, which must begin with
    /// this store's parameters: the same names in the same order, each the
    /// same shape. This is how a checkpointed model is filled: its
    /// constructor registers the parameters, `load` replaces every value
    /// (taking `stored`'s matrices, not copying them). `Err` names the
    /// first parameter that differs and leaves this store as it was; `Ok`
    /// holds the names `stored` has past this store's, whose matrices are
    /// dropped.
    pub fn load(&mut self, mut stored: ParamStore) -> Result<Vec<String>, String> {
        if stored.names.len() != stored.values.len() {
            return Err(format!("{} parameter names for {} values", stored.names.len(), stored.values.len()));
        }
        for (i, (name, value)) in self.names.iter().zip(&self.values).enumerate() {
            let Some(got) = stored.names.get(i) else {
                return Err(format!("parameter `{name}` is missing"));
            };
            if got != name {
                return Err(format!("parameter {i} is `{got}`, expected `{name}`"));
            }
            if stored.values[i].shape() != value.shape() {
                return Err(format!("parameter `{name}` is {:?}, expected {:?}", stored.values[i].shape(), value.shape()));
            }
        }
        let rest = stored.names.split_off(self.len());
        stored.values.truncate(self.len());
        *self = stored;
        Ok(rest)
    }

    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Iterator over all parameter ids.
    pub fn ids(&self) -> impl Iterator<Item = ParamId> {
        (0..self.values.len()).map(ParamId)
    }
}

/// Gradients of a scalar loss with respect to store parameters: one slot
/// per [`ParamId`], empty for a parameter the loss did not reach.
#[derive(Clone, Debug, Default)]
pub struct Gradients {
    by_param: Vec<Option<Matrix>>,
}

impl Gradients {
    pub fn get(&self, id: ParamId) -> Option<&Matrix> {
        self.by_param.get(id.0)?.as_ref()
    }

    /// The parameters that received a gradient, in id order.
    pub fn iter(&self) -> impl Iterator<Item = (ParamId, &Matrix)> {
        self.by_param
            .iter()
            .enumerate()
            .filter_map(|(i, g)| Some((ParamId(i), g.as_ref()?)))
    }

    /// Global L2 norm over all parameter gradients, summed in id order —
    /// the same bits on every run, so a clip that fires is reproducible.
    pub fn global_norm(&self) -> f32 {
        self.iter().map(|(_, g)| g.sq_norm()).sum::<f32>().sqrt()
    }

    /// Scales all gradients so the global norm is at most `max_norm`
    /// (gradient clipping — GHN-2 needs this to avoid explosion on deep
    /// graphs, mirroring the paper's normalization discussion).
    pub fn clip_global_norm(&mut self, max_norm: f32) {
        let norm = self.global_norm();
        if norm > max_norm && norm > 0.0 {
            let s = max_norm / norm;
            for g in self.by_param.iter_mut().flatten() {
                g.map_inplace(|x| x * s);
            }
        }
    }
}

/// Recorded operation; parents are tape indices.
#[derive(Clone, Debug)]
enum Op {
    /// Leaf constant (inputs, targets); receives no gradient.
    Const,
    /// Leaf bound to a store parameter; gradient is routed to the store.
    Param(ParamId),
    /// `a + b`, same shape.
    Add(usize, usize),
    /// `a - b`, same shape.
    Sub(usize, usize),
    /// Elementwise product.
    Mul(usize, usize),
    /// `a · b` matrix product.
    MatMul(usize, usize),
    /// Adds a `1×n` bias row to every row of `a`.
    AddBias(usize, usize),
    /// Fused `act(x·w + b)` — one node for the affine layer forward; the
    /// backward derives the activation gradient from the stored output.
    AffineAct(usize, usize, usize, Activation),
    /// Fused two-operand affine `act(x·w + h·u + b)` — the GRU gate form.
    Affine2 {
        x: usize,
        w: usize,
        h: usize,
        u: usize,
        b: usize,
        act: Activation,
    },
    /// `alpha * a`.
    Scale(usize, f32),
    /// `Σ alpha_k · a_k` over same-shaped parents, summed left to right.
    WeightedSum(Vec<(usize, f32)>),
    /// Sigmoid.
    Sigmoid(usize),
    /// Tanh.
    Tanh(usize),
    /// ReLU.
    Relu(usize),
    /// Column-wise concatenation; stores the inputs and their widths.
    ConcatCols(Vec<usize>),
    /// Row slice `[start, end)` of parent with original height `h`.
    SliceRows(usize, usize, usize, usize),
    /// Row-wise (vertical) concatenation; stores inputs and their heights.
    ConcatRows(Vec<usize>),
    /// Mean over all entries → 1×1.
    Mean(usize),
    /// Sum over all entries → 1×1.
    Sum(usize),
    /// Column-wise mean over rows → 1×n (graph readout / batch mean).
    MeanRows(usize),
    /// Mean squared error between parent 0 and parent 1 → 1×1.
    MseLoss(usize, usize),
    /// Row-wise L2 normalization: each row divided by its L2 norm (+eps).
    /// This is the "operation-dependent normalization" primitive GHN-2 uses
    /// to stabilize message passing.
    RowL2Norm(usize),
}

struct Node {
    op: Op,
    value: Matrix,
}

/// A single forward pass's computation record.
pub struct Tape<'p> {
    params: &'p ParamStore,
    nodes: Vec<Node>,
    /// The leaf already recorded for each parameter, by [`ParamId`].
    leaves: Vec<Option<Var>>,
}

impl<'p> Tape<'p> {
    pub fn new(params: &'p ParamStore) -> Self {
        Self { params, nodes: Vec::with_capacity(256), leaves: vec![None; params.len()] }
    }

    fn push(&mut self, op: Op, value: Matrix) -> Var {
        self.nodes.push(Node { op, value });
        Var(self.nodes.len() - 1)
    }

    /// Current value of a variable.
    pub fn value(&self, v: Var) -> &Matrix {
        &self.nodes[v.0].value
    }

    /// Shape of a variable.
    pub fn shape(&self, v: Var) -> (usize, usize) {
        self.nodes[v.0].value.shape()
    }

    /// Number of recorded nodes (for capacity diagnostics).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Records a constant leaf (no gradient).
    pub fn constant(&mut self, m: Matrix) -> Var {
        self.push(Op::Const, m)
    }

    /// The leaf bound to parameter `id`, recorded (one copy of the value)
    /// the first time it is asked for; its gradient lands in [`Gradients`].
    /// Every use of a parameter shares the leaf, so their gradients meet
    /// in its slot in reverse tape order.
    pub fn param(&mut self, id: ParamId) -> Var {
        if let Some(leaf) = self.leaves[id.0] {
            return leaf;
        }
        let value = self.params.get(id).clone();
        let leaf = self.push(Op::Param(id), value);
        self.leaves[id.0] = Some(leaf);
        leaf
    }

    /// Number of parameter leaves recorded: at most one per parameter.
    pub fn param_leaves(&self) -> usize {
        self.leaves.iter().flatten().count()
    }

    pub fn add(&mut self, a: Var, b: Var) -> Var {
        let v = &self.nodes[a.0].value + &self.nodes[b.0].value;
        self.push(Op::Add(a.0, b.0), v)
    }

    pub fn sub(&mut self, a: Var, b: Var) -> Var {
        let v = &self.nodes[a.0].value - &self.nodes[b.0].value;
        self.push(Op::Sub(a.0, b.0), v)
    }

    pub fn mul(&mut self, a: Var, b: Var) -> Var {
        let v = self.nodes[a.0].value.hadamard(&self.nodes[b.0].value);
        self.push(Op::Mul(a.0, b.0), v)
    }

    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        let v = self.nodes[a.0].value.matmul(&self.nodes[b.0].value);
        self.push(Op::MatMul(a.0, b.0), v)
    }

    /// `a` (m×n) plus bias row `b` (1×n) broadcast over rows.
    pub fn add_bias(&mut self, a: Var, b: Var) -> Var {
        let v = self.nodes[a.0].value.add_row_broadcast(&self.nodes[b.0].value);
        self.push(Op::AddBias(a.0, b.0), v)
    }

    pub fn scale(&mut self, a: Var, alpha: f32) -> Var {
        let v = self.nodes[a.0].value.scale(alpha);
        self.push(Op::Scale(a.0, alpha), v)
    }

    /// `Σ alpha_k · part_k` as one node: the value and the gradients of
    /// the [`Tape::scale`] / [`Tape::add`] chain it stands for, in the
    /// chain's order — the sum runs left to right, and the backward pass
    /// hands each part `g · alpha_k`, last part first.
    pub fn weighted_sum(&mut self, parts: &[(Var, f32)]) -> Var {
        let (&(first, alpha), rest) = parts.split_first().expect("weighted_sum of no parts");
        let mut v = self.nodes[first.0].value.scale(alpha);
        for &(part, alpha) in rest {
            v.add_scaled(&self.nodes[part.0].value, alpha);
        }
        self.push(Op::WeightedSum(parts.iter().map(|&(p, alpha)| (p.0, alpha)).collect()), v)
    }

    pub fn sigmoid(&mut self, a: Var) -> Var {
        let v = self.nodes[a.0].value.map(pddl_tensor::activation::sigmoid);
        self.push(Op::Sigmoid(a.0), v)
    }

    pub fn tanh(&mut self, a: Var) -> Var {
        let v = self.nodes[a.0].value.map(pddl_tensor::activation::tanh);
        self.push(Op::Tanh(a.0), v)
    }

    pub fn relu(&mut self, a: Var) -> Var {
        let v = self.nodes[a.0].value.map(|x| x.max(0.0));
        self.push(Op::Relu(a.0), v)
    }

    /// Column-wise concatenation of variables with equal row counts.
    pub fn concat_cols(&mut self, parts: &[Var]) -> Var {
        let mats: Vec<&Matrix> = parts.iter().map(|p| &self.nodes[p.0].value).collect();
        let v = Matrix::hstack(&mats);
        self.push(Op::ConcatCols(parts.iter().map(|p| p.0).collect()), v)
    }

    /// Extracts rows `[start, end)`.
    pub fn slice_rows(&mut self, a: Var, start: usize, end: usize) -> Var {
        let src = &self.nodes[a.0].value;
        let h = src.rows();
        assert!(start <= end && end <= h, "slice_rows out of range");
        let out = src.slice_rows(start, end);
        self.push(Op::SliceRows(a.0, start, end, h), out)
    }

    /// Row-wise (vertical) concatenation of variables with equal widths.
    pub fn concat_rows(&mut self, parts: &[Var]) -> Var {
        let mats: Vec<&Matrix> = parts.iter().map(|p| &self.nodes[p.0].value).collect();
        let v = Matrix::vstack(&mats);
        self.push(Op::ConcatRows(parts.iter().map(|p| p.0).collect()), v)
    }

    /// Mean over all entries → scalar (1×1).
    pub fn mean(&mut self, a: Var) -> Var {
        let v = Matrix::filled(1, 1, self.nodes[a.0].value.mean());
        self.push(Op::Mean(a.0), v)
    }

    /// Sum over all entries → scalar (1×1).
    pub fn sum(&mut self, a: Var) -> Var {
        let v = Matrix::filled(1, 1, self.nodes[a.0].value.sum());
        self.push(Op::Sum(a.0), v)
    }

    /// Column-wise mean over rows → 1×n. Used as the GHN graph readout.
    pub fn mean_rows(&mut self, a: Var) -> Var {
        let v = self.nodes[a.0].value.mean_rows();
        self.push(Op::MeanRows(a.0), v)
    }

    /// Mean-squared-error loss between prediction and target → scalar.
    pub fn mse_loss(&mut self, pred: Var, target: Var) -> Var {
        let p = &self.nodes[pred.0].value;
        let t = &self.nodes[target.0].value;
        assert_eq!(p.shape(), t.shape(), "mse shape mismatch");
        let diff = p - t;
        let v = Matrix::filled(1, 1, diff.sq_norm() / p.len() as f32);
        self.push(Op::MseLoss(pred.0, target.0), v)
    }

    /// Row-wise L2 normalization (each row scaled to unit norm, eps-guarded).
    pub fn row_l2_norm(&mut self, a: Var) -> Var {
        let src = &self.nodes[a.0].value;
        let mut out = src.clone();
        for r in 0..out.rows() {
            let norm = norm_eps(src.row(r));
            for x in out.row_mut(r) {
                *x /= norm;
            }
        }
        self.push(Op::RowL2Norm(a.0), out)
    }

    /// Affine layer `x · w + b` with `b` broadcast — recorded as one
    /// fused node riding the GEMM bias epilogue (no `x·w` intermediate).
    pub fn affine(&mut self, x: Var, w: Var, b: Var) -> Var {
        self.affine_act(x, w, b, Activation::Identity)
    }

    /// Fused `act(x · w + b)`: bias add and activation run in the GEMM
    /// epilogue, and the tape records a single node whose backward reuses
    /// the stored output for the activation derivative.
    pub fn affine_act(&mut self, x: Var, w: Var, b: Var, act: Activation) -> Var {
        let v = self.nodes[x.0].value.matmul_bias_act(
            &self.nodes[w.0].value,
            &self.nodes[b.0].value,
            act,
        );
        self.push(Op::AffineAct(x.0, w.0, b.0, act), v)
    }

    /// Fused two-operand affine `act(x·w + h·u + b)` — the recurrent gate
    /// form. One node replaces the five (two matmuls, two adds, one
    /// activation) the unfused construction records, with no intermediate
    /// matrices: the second GEMM accumulates into the first's output.
    pub fn affine2(&mut self, x: Var, w: Var, h: Var, u: Var, b: Var, act: Activation) -> Var {
        let mut v = self
            .nodes[x.0]
            .value
            .matmul_bias(&self.nodes[w.0].value, &self.nodes[b.0].value);
        self.nodes[h.0]
            .value
            .matmul_acc_act(&self.nodes[u.0].value, &mut v, act);
        self.push(Op::Affine2 { x: x.0, w: w.0, h: h.0, u: u.0, b: b.0, act }, v)
    }

    /// Scalar value of a 1×1 variable.
    pub fn scalar(&self, v: Var) -> f32 {
        let m = self.value(v);
        assert_eq!(m.shape(), (1, 1), "scalar() on non-scalar variable");
        m[(0, 0)]
    }

    /// Runs the backward pass from a scalar `loss` (must be 1×1), returning
    /// gradients for every parameter leaf that participated.
    pub fn backward(&self, loss: Var) -> Gradients {
        assert_eq!(
            self.nodes[loss.0].value.shape(),
            (1, 1),
            "backward() requires a scalar loss"
        );
        let mut grads: Vec<Option<Matrix>> = vec![None; self.nodes.len()];
        grads[loss.0] = Some(Matrix::ones(1, 1));
        let mut out = Gradients { by_param: vec![None; self.params.len()] };

        for i in (0..self.nodes.len()).rev() {
            let g = match grads[i].take() {
                Some(g) => g,
                None => continue,
            };
            match &self.nodes[i].op {
                Op::Const => {}
                // The parameter's only leaf: every use has added to `g`.
                Op::Param(id) => out.by_param[id.0] = Some(g),
                Op::Add(a, b) => {
                    accumulate(&mut grads, *a, g.clone());
                    accumulate(&mut grads, *b, g);
                }
                Op::Sub(a, b) => {
                    let neg = g.scale(-1.0);
                    accumulate(&mut grads, *a, g);
                    accumulate(&mut grads, *b, neg);
                }
                Op::Mul(a, b) => {
                    let ga = g.hadamard(&self.nodes[*b].value);
                    let gb = g.hadamard(&self.nodes[*a].value);
                    accumulate(&mut grads, *a, ga);
                    accumulate(&mut grads, *b, gb);
                }
                Op::MatMul(a, b) => {
                    // d/dA (A·B) = G · Bᵀ ; d/dB = Aᵀ · G. Both run on the
                    // packed kernel with the transpose absorbed in packing.
                    let ga = g.matmul_nt(&self.nodes[*b].value);
                    let gb = self.nodes[*a].value.t_matmul(&g);
                    accumulate(&mut grads, *a, ga);
                    accumulate(&mut grads, *b, gb);
                }
                Op::AddBias(a, b) => {
                    let gb = g.sum_rows();
                    accumulate(&mut grads, *a, g);
                    accumulate(&mut grads, *b, gb);
                }
                Op::AffineAct(x, w, b, act) => {
                    let dpre = if *act == Activation::Identity {
                        g
                    } else {
                        let y = &self.nodes[i].value;
                        g.zip(y, |gi, yi| gi * act.grad_from_output(yi))
                    };
                    let gx = dpre.matmul_nt(&self.nodes[*w].value);
                    let gb = dpre.sum_rows();
                    accumulate(&mut grads, *x, gx);
                    accumulate_t_matmul(&mut grads, *w, &self.nodes[*x].value, &dpre);
                    accumulate(&mut grads, *b, gb);
                }
                Op::Affine2 { x, w, h, u, b, act } => {
                    let dpre = if *act == Activation::Identity {
                        g
                    } else {
                        let y = &self.nodes[i].value;
                        g.zip(y, |gi, yi| gi * act.grad_from_output(yi))
                    };
                    let gx = dpre.matmul_nt(&self.nodes[*w].value);
                    let gh = dpre.matmul_nt(&self.nodes[*u].value);
                    let gb = dpre.sum_rows();
                    accumulate(&mut grads, *x, gx);
                    accumulate_t_matmul(&mut grads, *w, &self.nodes[*x].value, &dpre);
                    accumulate(&mut grads, *h, gh);
                    accumulate_t_matmul(&mut grads, *u, &self.nodes[*h].value, &dpre);
                    accumulate(&mut grads, *b, gb);
                }
                Op::Scale(a, alpha) => {
                    let ga = g.scale(*alpha);
                    accumulate(&mut grads, *a, ga);
                }
                Op::WeightedSum(parts) => {
                    for &(p, alpha) in parts.iter().rev() {
                        accumulate(&mut grads, p, g.scale(alpha));
                    }
                }
                Op::Sigmoid(a) => {
                    // y' = y (1 - y), using the stored output value.
                    let y = &self.nodes[i].value;
                    let ga = g.zip(y, |gi, yi| gi * yi * (1.0 - yi));
                    accumulate(&mut grads, *a, ga);
                }
                Op::Tanh(a) => {
                    let y = &self.nodes[i].value;
                    let ga = g.zip(y, |gi, yi| gi * (1.0 - yi * yi));
                    accumulate(&mut grads, *a, ga);
                }
                Op::Relu(a) => {
                    let x = &self.nodes[*a].value;
                    let ga = g.zip(x, |gi, xi| if xi > 0.0 { gi } else { 0.0 });
                    accumulate(&mut grads, *a, ga);
                }
                Op::ConcatCols(parts) => {
                    let mut offset = 0;
                    for &p in parts {
                        let w = self.nodes[p].value.cols();
                        let rows = self.nodes[p].value.rows();
                        let mut gp = Matrix::zeros(rows, w);
                        for r in 0..rows {
                            gp.row_mut(r)
                                .copy_from_slice(&g.row(r)[offset..offset + w]);
                        }
                        accumulate(&mut grads, p, gp);
                        offset += w;
                    }
                }
                Op::SliceRows(a, start, _end, h) => {
                    let cols = g.cols();
                    let mut ga = Matrix::zeros(*h, cols);
                    for r in 0..g.rows() {
                        ga.row_mut(start + r).copy_from_slice(g.row(r));
                    }
                    accumulate(&mut grads, *a, ga);
                }
                Op::ConcatRows(parts) => {
                    let mut offset = 0;
                    for &p in parts {
                        let h = self.nodes[p].value.rows();
                        let gp = g.slice_rows(offset, offset + h);
                        accumulate(&mut grads, p, gp);
                        offset += h;
                    }
                }
                Op::Mean(a) => {
                    let (r, c) = self.nodes[*a].value.shape();
                    let ga = Matrix::filled(r, c, g[(0, 0)] / (r * c) as f32);
                    accumulate(&mut grads, *a, ga);
                }
                Op::Sum(a) => {
                    let (r, c) = self.nodes[*a].value.shape();
                    let ga = Matrix::filled(r, c, g[(0, 0)]);
                    accumulate(&mut grads, *a, ga);
                }
                Op::MeanRows(a) => {
                    let (r, c) = self.nodes[*a].value.shape();
                    let mut ga = Matrix::zeros(r, c);
                    let scale = 1.0 / r as f32;
                    for row in 0..r {
                        for (x, &gv) in ga.row_mut(row).iter_mut().zip(g.row(0)) {
                            *x = gv * scale;
                        }
                    }
                    accumulate(&mut grads, *a, ga);
                }
                Op::MseLoss(p, t) => {
                    let pv = &self.nodes[*p].value;
                    let tv = &self.nodes[*t].value;
                    let scale = 2.0 * g[(0, 0)] / pv.len() as f32;
                    let gp = pv.zip(tv, |pi, ti| scale * (pi - ti));
                    let gt = gp.scale(-1.0);
                    accumulate(&mut grads, *p, gp);
                    accumulate(&mut grads, *t, gt);
                }
                Op::RowL2Norm(a) => {
                    // y = x / ||x||; dy/dx = (I - y yᵀ) / ||x|| per row.
                    let x = &self.nodes[*a].value;
                    let y = &self.nodes[i].value;
                    let (r, c) = x.shape();
                    let mut ga = Matrix::zeros(r, c);
                    for row in 0..r {
                        let norm = norm_eps(x.row(row));
                        let yr = y.row(row);
                        let gr = g.row(row);
                        let dot: f32 = yr.iter().zip(gr).map(|(a, b)| a * b).sum();
                        for (j, out) in ga.row_mut(row).iter_mut().enumerate() {
                            *out = (gr[j] - yr[j] * dot) / norm;
                        }
                    }
                    accumulate(&mut grads, *a, ga);
                }
            }
        }
        out
    }
}

fn norm_eps(row: &[f32]) -> f32 {
    (row.iter().map(|x| x * x).sum::<f32>().sqrt()).max(1e-6)
}

/// Routes a gradient to a node's slot, *moving* it into empty slots —
/// every backward arm hands over an owned matrix, so first-writer nodes
/// (the common case on tree-shaped tapes) reuse the buffer that was just
/// computed instead of cloning it.
fn accumulate(grads: &mut [Option<Matrix>], idx: usize, g: Matrix) {
    match &mut grads[idx] {
        Some(acc) => acc.add_scaled(&g, 1.0),
        slot @ None => *slot = Some(g),
    }
}

/// Routes the weight gradient `xᵀ·d` of an affine node to the weight's
/// slot. A one-row `x` against a slot that already holds a sum — every use
/// of a shared leaf after the first — is the rank-1 update
/// `acc[i][j] += x[i]·d[j]` in place: multiply, round, add, which is what
/// a depth-1 [`Matrix::t_matmul`] followed by [`accumulate`] computes on
/// every kernel backend, without the temporary.
fn accumulate_t_matmul(grads: &mut [Option<Matrix>], idx: usize, x: &Matrix, d: &Matrix) {
    match &mut grads[idx] {
        Some(acc) if x.rows() == 1 => {
            assert_eq!(acc.shape(), (x.cols(), d.cols()), "weight gradient shape mismatch");
            for (acc_row, &xi) in acc.as_mut_slice().chunks_exact_mut(d.cols()).zip(x.row(0)) {
                for (a, &dj) in acc_row.iter_mut().zip(d.row(0)) {
                    *a += xi * dj;
                }
            }
        }
        _ => accumulate(grads, idx, x.t_matmul(d)),
    }
}

/// Finite-difference gradient check for a scalar function of the parameter
/// store. Returns the relative L2 error between the analytic and numeric
/// gradient vectors over all probed coordinates:
/// `‖g_num − g_exact‖ / (‖g_num‖ + ‖g_exact‖ + ε)`.
///
/// Aggregating over coordinates makes the check robust to the f32
/// finite-difference noise that dominates individually tiny gradients; a
/// genuinely wrong VJP shows up as a large aggregate error.
///
/// `f` must rebuild the computation from scratch on each call (the usual
/// forward-pass closure). Only the first `max_coords` coordinates of each
/// parameter are probed to keep tests fast.
pub fn gradient_check(
    params: &mut ParamStore,
    f: impl Fn(&mut Tape) -> Var,
    max_coords: usize,
) -> f32 {
    gradient_check_with_step(params, f, max_coords, 1e-2)
}

/// [`gradient_check`] with the finite-difference step `eps` chosen by the
/// caller: a loss with strong curvature (row normalisation of small
/// states) needs a smaller one than the default `1e-2`.
pub fn gradient_check_with_step(
    params: &mut ParamStore,
    f: impl Fn(&mut Tape) -> Var,
    max_coords: usize,
    eps: f32,
) -> f32 {
    // Analytic gradients.
    let analytic = {
        let mut tape = Tape::new(params);
        let loss = f(&mut tape);
        tape.backward(loss)
    };
    let mut diff_sq = 0.0f64;
    let mut num_sq = 0.0f64;
    let mut exact_sq = 0.0f64;
    for id in params.ids().collect::<Vec<_>>() {
        let n = params.get(id).len().min(max_coords);
        for k in 0..n {
            let orig = params.get(id).as_slice()[k];
            params.get_mut(id).as_mut_slice()[k] = orig + eps;
            let lp = {
                let mut tape = Tape::new(params);
                let loss = f(&mut tape);
                tape.scalar(loss)
            };
            params.get_mut(id).as_mut_slice()[k] = orig - eps;
            let lm = {
                let mut tape = Tape::new(params);
                let loss = f(&mut tape);
                tape.scalar(loss)
            };
            params.get_mut(id).as_mut_slice()[k] = orig;
            let numeric = ((lp - lm) / (2.0 * eps)) as f64;
            let exact = analytic.get(id).map_or(0.0, |g| g.as_slice()[k]) as f64;
            diff_sq += (numeric - exact) * (numeric - exact);
            num_sq += numeric * numeric;
            exact_sq += exact * exact;
        }
    }
    (diff_sq.sqrt() / (num_sq.sqrt() + exact_sq.sqrt() + 1e-8)) as f32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_gradients_match_finite_differences() {
        let mut rng = Rng::new(1);
        let mut ps = ParamStore::new();
        let w = ps.register("w", Matrix::rand_normal(3, 4, 0.5, &mut rng));
        let x = Matrix::rand_normal(2, 3, 1.0, &mut rng);
        let t = Matrix::rand_normal(2, 4, 1.0, &mut rng);
        let err = gradient_check(
            &mut ps,
            |tape| {
                let xv = tape.constant(x.clone());
                let wv = tape.param(w);
                let y = tape.matmul(xv, wv);
                let tv = tape.constant(t.clone());
                tape.mse_loss(y, tv)
            },
            12,
        );
        assert!(err < 2e-2, "gradcheck err={err}");
    }

    #[test]
    fn affine_act_matches_unfused_graph_and_gradcheck() {
        let mut rng = Rng::new(11);
        let mut ps = ParamStore::new();
        let w = ps.register("w", Matrix::rand_normal(3, 5, 0.5, &mut rng));
        let b = ps.register("b", Matrix::rand_normal(1, 5, 0.5, &mut rng));
        let x = Matrix::rand_normal(4, 3, 1.0, &mut rng);
        let t = Matrix::rand_normal(4, 5, 1.0, &mut rng);
        for act in [
            Activation::Identity,
            Activation::Relu,
            Activation::Tanh,
            Activation::Sigmoid,
        ] {
            // Fused forward value equals the unfused construction.
            let fused = {
                let mut tape = Tape::new(&ps);
                let xv = tape.constant(x.clone());
                let (wv, bv) = (tape.param(w), tape.param(b));
                let y = tape.affine_act(xv, wv, bv, act);
                tape.value(y).clone()
            };
            let unfused = {
                let mut tape = Tape::new(&ps);
                let xv = tape.constant(x.clone());
                let (wv, bv) = (tape.param(w), tape.param(b));
                let pre = tape.matmul(xv, wv);
                let pre = tape.add_bias(pre, bv);
                let y = match act {
                    Activation::Identity => pre,
                    Activation::Relu => tape.relu(pre),
                    Activation::Tanh => tape.tanh(pre),
                    Activation::Sigmoid => tape.sigmoid(pre),
                };
                tape.value(y).clone()
            };
            for (f, u) in fused.as_slice().iter().zip(unfused.as_slice()) {
                assert!((f - u).abs() <= 1e-5 * u.abs().max(1.0), "{act:?}: {f} vs {u}");
            }
            let err = gradient_check(
                &mut ps,
                |tape| {
                    let xv = tape.constant(x.clone());
                    let (wv, bv) = (tape.param(w), tape.param(b));
                    let y = tape.affine_act(xv, wv, bv, act);
                    let tv = tape.constant(t.clone());
                    tape.mse_loss(y, tv)
                },
                12,
            );
            assert!(err < 2e-2, "{act:?}: gradcheck err={err}");
        }
    }

    #[test]
    fn affine2_matches_unfused_graph_and_gradcheck() {
        let mut rng = Rng::new(12);
        let mut ps = ParamStore::new();
        let w = ps.register("w", Matrix::rand_normal(3, 4, 0.5, &mut rng));
        let u = ps.register("u", Matrix::rand_normal(4, 4, 0.5, &mut rng));
        let b = ps.register("b", Matrix::rand_normal(1, 4, 0.5, &mut rng));
        let x = Matrix::rand_normal(2, 3, 1.0, &mut rng);
        let h = Matrix::rand_normal(2, 4, 1.0, &mut rng);
        let t = Matrix::rand_normal(2, 4, 1.0, &mut rng);
        for act in [Activation::Sigmoid, Activation::Tanh, Activation::Identity] {
            let fused = {
                let mut tape = Tape::new(&ps);
                let xv = tape.constant(x.clone());
                let hv = tape.constant(h.clone());
                let (wv, uv, bv) = (tape.param(w), tape.param(u), tape.param(b));
                let y = tape.affine2(xv, wv, hv, uv, bv, act);
                tape.value(y).clone()
            };
            let unfused = {
                let mut tape = Tape::new(&ps);
                let xv = tape.constant(x.clone());
                let hv = tape.constant(h.clone());
                let (wv, uv, bv) = (tape.param(w), tape.param(u), tape.param(b));
                let xw = tape.matmul(xv, wv);
                let hu = tape.matmul(hv, uv);
                let sum = tape.add(xw, hu);
                let pre = tape.add_bias(sum, bv);
                let y = match act {
                    Activation::Identity => pre,
                    Activation::Relu => tape.relu(pre),
                    Activation::Tanh => tape.tanh(pre),
                    Activation::Sigmoid => tape.sigmoid(pre),
                };
                tape.value(y).clone()
            };
            for (f, un) in fused.as_slice().iter().zip(unfused.as_slice()) {
                assert!((f - un).abs() <= 1e-5 * un.abs().max(1.0), "{act:?}: {f} vs {un}");
            }
            let err = gradient_check(
                &mut ps,
                |tape| {
                    let xv = tape.constant(x.clone());
                    let hv = tape.constant(h.clone());
                    let (wv, uv, bv) = (tape.param(w), tape.param(u), tape.param(b));
                    let y = tape.affine2(xv, wv, hv, uv, bv, act);
                    let tv = tape.constant(t.clone());
                    tape.mse_loss(y, tv)
                },
                12,
            );
            assert!(err < 2e-2, "{act:?}: gradcheck err={err}");
        }
    }

    #[test]
    fn deep_composite_gradients_match() {
        // Two-layer MLP with tanh + sigmoid + bias + concat: the hidden
        // layer is two separate products, side by side.
        let mut rng = Rng::new(2);
        let mut ps = ParamStore::new();
        let w1a = ps.register("w1a", Matrix::rand_normal(4, 3, 0.4, &mut rng));
        let w1b = ps.register("w1b", Matrix::rand_normal(4, 3, 0.4, &mut rng));
        let b1 = ps.register("b1", Matrix::rand_normal(1, 6, 0.1, &mut rng));
        let w2 = ps.register("w2", Matrix::rand_normal(6, 2, 0.4, &mut rng));
        let x = Matrix::rand_normal(5, 4, 1.0, &mut rng);
        let t = Matrix::rand_normal(5, 2, 1.0, &mut rng);
        let err = gradient_check(
            &mut ps,
            |tape| {
                let xv = tape.constant(x.clone());
                let left = tape.param(w1a);
                let left = tape.matmul(xv, left);
                let right = tape.param(w1b);
                let right = tape.matmul(xv, right);
                let h = tape.concat_cols(&[left, right]);
                let b1v = tape.param(b1);
                let h = tape.add_bias(h, b1v);
                let h = tape.tanh(h);
                let w2v = tape.param(w2);
                let y = tape.matmul(h, w2v);
                let y = tape.sigmoid(y);
                let tv = tape.constant(t.clone());
                tape.mse_loss(y, tv)
            },
            10,
        );
        assert!(err < 3e-2, "gradcheck err={err}");
    }

    #[test]
    fn row_l2_norm_gradients_match() {
        let mut rng = Rng::new(3);
        let mut ps = ParamStore::new();
        let w = ps.register("w", Matrix::rand_normal(3, 5, 0.8, &mut rng));
        let t = Matrix::rand_normal(3, 5, 0.5, &mut rng);
        let err = gradient_check(
            &mut ps,
            |tape| {
                let wv = tape.param(w);
                let y = tape.row_l2_norm(wv);
                let tv = tape.constant(t.clone());
                tape.mse_loss(y, tv)
            },
            15,
        );
        assert!(err < 3e-2, "gradcheck err={err}");
    }

    #[test]
    fn relu_mean_rows_gradients_match() {
        let mut rng = Rng::new(4);
        let mut ps = ParamStore::new();
        // Offset away from 0 so finite differences don't straddle the kink.
        let mut init = Matrix::rand_normal(4, 3, 1.0, &mut rng);
        init.map_inplace(|x| if x.abs() < 0.05 { 0.2 } else { x });
        let w = ps.register("w", init);
        let t = Matrix::rand_normal(1, 3, 0.5, &mut rng);
        let err = gradient_check(
            &mut ps,
            |tape| {
                let wv = tape.param(w);
                let y = tape.relu(wv);
                let y = tape.mean_rows(y);
                let tv = tape.constant(t.clone());
                tape.mse_loss(y, tv)
            },
            12,
        );
        assert!(err < 2e-2, "gradcheck err={err}");
    }

    #[test]
    fn parameter_used_twice_accumulates_gradient() {
        // loss = mean((w + w)²) → dloss/dw = 8w/len; reuse must sum branches.
        let mut ps = ParamStore::new();
        let w = ps.register("w", Matrix::from_rows(&[&[1.0, -2.0]]));
        let mut tape = Tape::new(&ps);
        let wv = tape.param(w);
        let s = tape.add(wv, wv);
        let sq = tape.mul(s, s);
        let loss = tape.mean(sq);
        let grads = tape.backward(loss);
        let g = grads.get(w).unwrap();
        assert!((g[(0, 0)] - 4.0).abs() < 1e-5, "{g:?}");
        assert!((g[(0, 1)] + 8.0).abs() < 1e-5, "{g:?}");
    }

    #[test]
    fn load_fills_by_name_and_names_the_first_parameter_that_differs() {
        let build = |seed: u64| {
            let mut ps = ParamStore::new();
            ps.register_xavier("a", 2, 3, &mut Rng::new(seed));
            ps.register_bias("b", 3);
            ps
        };
        let mut stored = build(1);
        stored.get_mut(ParamId(1)).map_inplace(|_| 0.5);
        stored.register("tail", Matrix::zeros(1, 1));
        let mut fresh = build(2);
        assert_eq!(fresh.load(stored.clone()).unwrap(), ["tail"]);
        assert_eq!(fresh.len(), 2);
        assert!(fresh.ids().all(|id| fresh.get(id) == stored.get(id) && fresh.name(id) == stored.name(id)));

        let mut renamed = ParamStore::new();
        renamed.register("b", Matrix::zeros(2, 3));
        assert_eq!(build(2).load(renamed), Err("parameter 0 is `b`, expected `a`".into()));
        let mut short = ParamStore::new();
        short.register("a", Matrix::zeros(3, 2));
        assert_eq!(build(2).load(short.clone()), Err("parameter `a` is (3, 2), expected (2, 3)".into()));
        short.get_mut(ParamId(0)).clone_from(stored.get(ParamId(0)));
        assert_eq!(build(2).load(short), Err("parameter `b` is missing".into()));
    }

    #[test]
    fn asking_for_a_parameter_twice_records_one_leaf() {
        let mut ps = ParamStore::new();
        let w = ps.register("w", Matrix::ones(2, 2));
        let b = ps.register("b", Matrix::ones(1, 2));
        let mut tape = Tape::new(&ps);
        let first = tape.param(w);
        assert_eq!((tape.len(), tape.param_leaves()), (1, 1));
        assert_eq!(tape.param(w), first);
        assert_eq!((tape.len(), tape.param_leaves()), (1, 1));
        assert_ne!(tape.param(b), first);
        assert_eq!((tape.len(), tape.param_leaves()), (2, 2));
    }

    fn bits(m: &Matrix) -> Vec<u32> {
        m.as_slice().iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn rank_one_update_in_place_equals_t_matmul_then_add() {
        let mut rng = Rng::new(51);
        let mut x = Matrix::rand_normal(1, 6, 1.0, &mut rng);
        x.as_mut_slice()[2] = 0.0; // a ReLU output: products of either zero sign
        let d = Matrix::rand_normal(1, 5, 1.0, &mut rng);
        let held = Matrix::rand_normal(6, 5, 1.0, &mut rng);
        let mut want = held.clone();
        want.add_scaled(&x.t_matmul(&d), 1.0);
        let mut grads = vec![Some(held), None];
        accumulate_t_matmul(&mut grads, 0, &x, &d);
        assert_eq!(bits(grads[0].as_ref().unwrap()), bits(&want));
        // An empty slot takes the product itself.
        accumulate_t_matmul(&mut grads, 1, &x, &d);
        assert_eq!(bits(grads[1].as_ref().unwrap()), bits(&x.t_matmul(&d)));
    }

    #[test]
    fn weighted_sum_equals_the_scale_add_chain_bit_for_bit() {
        let mut rng = Rng::new(52);
        let mut ps = ParamStore::new();
        let ids: Vec<ParamId> = (0..3)
            .map(|i| ps.register(format!("p{i}"), Matrix::rand_normal(2, 7, 1.0, &mut rng)))
            .collect();
        let t = Matrix::rand_normal(2, 7, 1.0, &mut rng);
        // The GHN's message sum: unit weights, then 1/s ones; p0 read twice.
        let third = 1.0 / 3.0;
        let run = |fused: bool| {
            let mut tape = Tape::new(&ps);
            let p: Vec<Var> = ids.iter().map(|&id| tape.param(id)).collect();
            let sum = if fused {
                tape.weighted_sum(&[(p[0], 1.0), (p[1], 1.0), (p[2], 0.5), (p[0], third)])
            } else {
                let (c, d) = (tape.scale(p[2], 0.5), tape.scale(p[0], third));
                let ab = tape.add(p[0], p[1]);
                let abc = tape.add(ab, c);
                tape.add(abc, d)
            };
            let y = tape.tanh(sum);
            let tv = tape.constant(t.clone());
            let loss = tape.mse_loss(y, tv);
            (bits(tape.value(sum)), tape.backward(loss))
        };
        let ((fused_value, fused), (chain_value, chain)) = (run(true), run(false));
        assert_eq!(fused_value, chain_value);
        for &id in &ids {
            let (fused, chain) = (fused.get(id).unwrap(), chain.get(id).unwrap());
            assert_eq!(bits(fused), bits(chain), "{}", ps.name(id));
        }
    }

    #[test]
    fn constants_receive_no_parameter_gradient() {
        let mut ps = ParamStore::new();
        let w = ps.register("w", Matrix::ones(1, 1));
        let mut tape = Tape::new(&ps);
        let c = tape.constant(Matrix::filled(1, 1, 3.0));
        let sq = tape.mul(c, c);
        let loss = tape.mean(sq);
        let grads = tape.backward(loss);
        assert!(grads.get(w).is_none());
    }

    #[test]
    fn clip_global_norm_bounds_gradients() {
        let mut ps = ParamStore::new();
        let w = ps.register("w", Matrix::filled(1, 2, 100.0));
        let mut tape = Tape::new(&ps);
        let wv = tape.param(w);
        let sq = tape.mul(wv, wv);
        let loss = tape.sum(sq);
        let mut grads = tape.backward(loss);
        assert!(grads.global_norm() > 1.0);
        grads.clip_global_norm(1.0);
        assert!((grads.global_norm() - 1.0).abs() < 1e-4);
    }

    #[test]
    fn gradients_iterate_in_id_order_and_skip_unreached_parameters() {
        let mut ps = ParamStore::new();
        let ids: Vec<ParamId> =
            (0..4).map(|i| ps.register(format!("p{i}"), Matrix::filled(1, 1, i as f32))).collect();
        let mut tape = Tape::new(&ps);
        // Recorded out of id order; p1 never reaches the loss.
        let (c, a, d) = (tape.param(ids[2]), tape.param(ids[0]), tape.param(ids[3]));
        let loss = tape.weighted_sum(&[(c, 1.0), (a, 2.0), (d, 3.0)]);
        let grads = tape.backward(loss);
        let seen: Vec<(ParamId, f32)> = grads.iter().map(|(id, g)| (id, g[(0, 0)])).collect();
        assert_eq!(seen, [(ids[0], 2.0), (ids[2], 1.0), (ids[3], 3.0)]);
        assert!(grads.get(ids[1]).is_none());
        assert_eq!(grads.global_norm(), 14.0f32.sqrt());
    }

    #[test]
    fn scalar_panics_on_matrix() {
        let ps = ParamStore::new();
        let mut tape = Tape::new(&ps);
        let c = tape.constant(Matrix::zeros(2, 2));
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            tape.scalar(c)
        }));
        assert!(result.is_err());
    }

    #[test]
    fn slice_and_concat_rows_gradcheck() {
        let mut rng = Rng::new(31);
        let mut ps = ParamStore::new();
        let w = ps.register("w", Matrix::rand_normal(4, 3, 0.7, &mut rng));
        let t = Matrix::rand_normal(4, 3, 0.5, &mut rng);
        let err = gradient_check(
            &mut ps,
            |tape| {
                let wv = tape.param(w);
                // Split into rows, transform one, and reassemble.
                let r0 = tape.slice_rows(wv, 0, 1);
                let r1 = tape.slice_rows(wv, 1, 3);
                let r2 = tape.slice_rows(wv, 3, 4);
                let r1t = tape.tanh(r1);
                let back = tape.concat_rows(&[r0, r1t, r2]);
                let tv = tape.constant(t.clone());
                tape.mse_loss(back, tv)
            },
            12,
        );
        assert!(err < 2e-2, "err={err}");
    }

    #[test]
    fn sub_and_scale_backward() {
        let mut ps = ParamStore::new();
        let a = ps.register("a", Matrix::filled(1, 1, 5.0));
        let b = ps.register("b", Matrix::filled(1, 1, 2.0));
        // loss = (3a - b)² → d/da = 6(3a-b) = 78, d/db = -2(3a-b) = -26
        let mut tape = Tape::new(&ps);
        let av = tape.param(a);
        let bv = tape.param(b);
        let a3 = tape.scale(av, 3.0);
        let d = tape.sub(a3, bv);
        let sq = tape.mul(d, d);
        let loss = tape.sum(sq);
        let grads = tape.backward(loss);
        assert!((grads.get(a).unwrap()[(0, 0)] - 78.0).abs() < 1e-3);
        assert!((grads.get(b).unwrap()[(0, 0)] + 26.0).abs() < 1e-3);
    }
}
