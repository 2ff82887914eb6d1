//! The tape: parameter store, recorded operations, and the backward pass.

use pddl_tensor::{dot_cols_acc, gemm_into, outer_acc, Activation, Layout, Matrix, Rng, SMALL_MADDS};
use std::cell::Cell;

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

/// Recorded operation; parents are node indices.
#[derive(Clone, Copy, Debug)]
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
    /// `Σ alpha_k · a_k` over the same-shaped parts `Tape::sums[start..end]`,
    /// summed left to right.
    WeightedSum(usize, usize),
    /// Sigmoid.
    Sigmoid(usize),
    /// Tanh.
    Tanh(usize),
    /// ReLU.
    Relu(usize),
    /// Column-wise concatenation of the parts `Tape::parts[start..end]`.
    ConcatCols(usize, usize),
    /// The node's rows of its parent, from row `start` on.
    SliceRows(usize, usize),
    /// Row-wise (vertical) concatenation of the parts `Tape::parts[start..end]`.
    ConcatRows(usize, usize),
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

/// Floats per chunk of [`Tape`]'s value buffer: 64 KB, which the system
/// allocator serves from its heap, where a freed chunk is reused, rather
/// than mapping and unmapping it (256 KB chunks left `warm_zoo`'s
/// `peak_rss_mb` 6–9 MB higher).
const CHUNK: usize = 1 << 14;

/// A recorded operation, the shape of its value, and where the value sits
/// in [`Tape`]'s chunks.
struct Node {
    op: Op,
    rows: usize,
    cols: usize,
    /// The value: `off..` in chunk `chunk`.
    chunk: u32,
    off: u32,
}

impl Node {
    fn len(&self) -> usize {
        self.rows * self.cols
    }
}

/// The recorded values, read by node index: whole chunks, and the filled
/// start of the one being written to.
#[derive(Clone, Copy)]
struct View<'a> {
    nodes: &'a [Node],
    chunks: &'a [Vec<f32>],
    last: &'a [f32],
}

impl<'a> View<'a> {
    fn get(self, i: usize) -> &'a [f32] {
        let node = &self.nodes[i];
        let chunk = self.chunks.get(node.chunk as usize).map_or(self.last, Vec::as_slice);
        &chunk[node.off as usize..][..node.len()]
    }

    fn shape(self, i: usize) -> (usize, usize) {
        (self.nodes[i].rows, self.nodes[i].cols)
    }
}

/// The buffers a [`Tape`] records into and its backward pass writes
/// into, passed from one finished tape to the next with
/// [`Tape::into_buffers`] and [`Tape::with_buffers`]: a training loop that
/// does so allocates them while its steps grow, and not again. Dropping
/// them frees them.
#[derive(Default)]
pub struct TapeBuffers {
    nodes: Vec<Node>,
    /// Empty value chunks.
    chunks: Vec<Vec<f32>>,
    sums: Vec<(usize, f32)>,
    parts: Vec<usize>,
    uses: Vec<Use>,
    grads: Vec<f32>,
    slots: Slots,
}

/// A single forward pass's computation record.
///
/// Every value lives in chunks the tape owns — appended, never moved, a
/// new chunk opened when a value does not fit in the last one's rest — and
/// [`Tape::backward`] writes every gradient into one buffer it keeps, sized
/// for the gradients live at once: recording an op allocates only when it
/// opens a chunk, routing a gradient never, and a tape made
/// [`Tape::with_buffers`] of the last one's opens no chunk the last one
/// had.
pub struct Tape<'p> {
    params: &'p ParamStore,
    nodes: Vec<Node>,
    values: Vec<Vec<f32>>,
    /// Empty chunks to open before allocating one.
    spare: Vec<Vec<f32>>,
    /// The `(part, alpha)` lists of `WeightedSum` nodes.
    sums: Vec<(usize, f32)>,
    /// The part lists of `ConcatCols` / `ConcatRows` nodes.
    parts: Vec<usize>,
    /// By node: its size and its last consumer so far.
    uses: Vec<Use>,
    /// The leaf already recorded for each parameter, by [`ParamId`].
    leaves: Vec<Option<Var>>,
    /// The backward pass's gradient buffer and its layout, kept between
    /// passes.
    grads: Cell<Vec<f32>>,
    slots: Cell<Slots>,
    /// `[calls, flops]` of the products run and not yet counted: they reach
    /// `tensor.gemm_calls` / `tensor.gemm_flops` in one
    /// [`pddl_tensor::record_products`] when the tape is dropped, not in two
    /// shared atomics per product.
    products: Cell<[u64; 2]>,
}

impl Drop for Tape<'_> {
    fn drop(&mut self) {
        let [calls, flops] = self.products.get();
        if calls > 0 {
            pddl_tensor::record_products(calls, flops);
        }
    }
}

impl<'p> Tape<'p> {
    pub fn new(params: &'p ParamStore) -> Self {
        Self::with_buffers(params, TapeBuffers::default())
    }

    /// An empty tape that records into `buffers`, which
    /// [`Tape::into_buffers`] took from an earlier one.
    pub fn with_buffers(params: &'p ParamStore, buffers: TapeBuffers) -> Self {
        let TapeBuffers { nodes, chunks, sums, parts, uses, grads, slots } = buffers;
        Self {
            params,
            nodes,
            values: Vec::new(),
            spare: chunks,
            sums,
            parts,
            uses,
            leaves: vec![None; params.len()],
            grads: Cell::new(grads),
            slots: Cell::new(slots),
            products: Cell::new([0; 2]),
        }
    }

    /// This tape's buffers, emptied, for [`Tape::with_buffers`].
    pub fn into_buffers(mut self) -> TapeBuffers {
        let mut chunks = std::mem::take(&mut self.spare);
        chunks.extend(self.values.drain(..).map(|mut chunk| {
            chunk.clear();
            chunk
        }));
        fn emptied<T>(v: &mut Vec<T>) -> Vec<T> {
            v.clear();
            std::mem::take(v)
        }
        TapeBuffers {
            nodes: emptied(&mut self.nodes),
            chunks,
            sums: emptied(&mut self.sums),
            parts: emptied(&mut self.parts),
            uses: emptied(&mut self.uses),
            grads: self.grads.take(),
            slots: self.slots.take(),
        }
    }

    /// Records `op` with a `rows × cols` value, which `fill` writes into a
    /// zeroed buffer given the values recorded before it.
    fn record(&mut self, op: Op, (rows, cols): (usize, usize), fill: impl FnOnce(View, &mut [f32])) -> Var {
        let len = rows * cols;
        if self.values.last().is_none_or(|c| c.capacity() - c.len() < len) {
            let chunk = match self.spare.pop() {
                Some(chunk) if chunk.capacity() >= len => chunk,
                _ => Vec::with_capacity(len.max(CHUNK)),
            };
            self.values.push(chunk);
        }
        let chunk = self.values.len() - 1;
        let (chunks, last) = self.values.split_at_mut(chunk);
        let last = &mut last[0];
        let off = last.len();
        last.resize(off + len, 0.0);
        let (done, out) = last.split_at_mut(off);
        fill(View { nodes: &self.nodes, chunks, last: done }, out);
        let (chunk, off) = (chunk as u32, off as u32);
        let i = self.nodes.len();
        self.nodes.push(Node { op, rows, cols, chunk, off });
        let Tape { nodes, sums, parts, uses, .. } = self;
        parents(op, sums, parts, |p| {
            if !matches!(nodes[p].op, Op::Const) {
                uses[p].last = i as u32;
            }
        });
        uses.push(Use { len: len as u32, last: UNUSED });
        Var(i)
    }

    fn view(&self) -> View<'_> {
        View { nodes: &self.nodes, chunks: &self.values, last: &[] }
    }

    /// Adds one `m×k · k×n` product to the count the tape hands over when
    /// dropped.
    fn count(&self, m: usize, n: usize, k: usize) {
        let [calls, flops] = self.products.get();
        self.products.set([calls + 1, flops + (2 * m * n * k) as u64]);
    }

    /// Current value of a variable, row-major.
    pub fn value(&self, v: Var) -> &[f32] {
        self.view().get(v.0)
    }

    /// Shape of a variable.
    pub fn shape(&self, v: Var) -> (usize, usize) {
        self.view().shape(v.0)
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
        self.record(Op::Const, m.shape(), |_, out| out.copy_from_slice(m.as_slice()))
    }

    /// The leaf bound to parameter `id`, recorded (one copy of the value)
    /// the first time it is asked for; its gradient lands in [`Gradients`].
    /// Every use of a parameter shares the leaf, so their gradients meet
    /// in its slot in reverse tape order.
    pub fn param(&mut self, id: ParamId) -> Var {
        if let Some(leaf) = self.leaves[id.0] {
            return leaf;
        }
        let value = self.params.get(id);
        let leaf = self.record(Op::Param(id), value.shape(), |_, out| out.copy_from_slice(value.as_slice()));
        self.leaves[id.0] = Some(leaf);
        leaf
    }

    /// Number of parameter leaves recorded: at most one per parameter.
    pub fn param_leaves(&self) -> usize {
        self.leaves.iter().flatten().count()
    }

    /// Elementwise `f(a, b)` over two same-shaped variables.
    fn zip(&mut self, op: Op, a: Var, b: Var, f: impl Fn(f32, f32) -> f32) -> Var {
        assert_eq!(self.shape(a), self.shape(b), "zip shape mismatch");
        self.record(op, self.shape(a), |v, out| {
            for ((o, &x), &y) in out.iter_mut().zip(v.get(a.0)).zip(v.get(b.0)) {
                *o = f(x, y);
            }
        })
    }

    /// Elementwise `f(a)`.
    fn map(&mut self, op: Op, a: Var, f: impl Fn(f32) -> f32) -> Var {
        self.record(op, self.shape(a), |v, out| {
            for (o, &x) in out.iter_mut().zip(v.get(a.0)) {
                *o = f(x);
            }
        })
    }

    pub fn add(&mut self, a: Var, b: Var) -> Var {
        self.zip(Op::Add(a.0, b.0), a, b, |x, y| x + y)
    }

    pub fn sub(&mut self, a: Var, b: Var) -> Var {
        self.zip(Op::Sub(a.0, b.0), a, b, |x, y| x - y)
    }

    pub fn mul(&mut self, a: Var, b: Var) -> Var {
        self.zip(Op::Mul(a.0, b.0), a, b, |x, y| x * y)
    }

    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        let ((m, k), (k2, n)) = (self.shape(a), self.shape(b));
        assert_eq!(k, k2, "matmul inner dims: {m}x{k} · {k2}x{n}");
        self.count(m, n, k);
        self.record(Op::MatMul(a.0, b.0), (m, n), |v, out| {
            gemm_into(Layout::Nn, (m, n, k), v.get(a.0), v.get(b.0), None, Activation::Identity, false, out);
        })
    }

    /// `a` (m×n) plus bias row `b` (1×n) broadcast over rows.
    pub fn add_bias(&mut self, a: Var, b: Var) -> Var {
        let (m, n) = self.shape(a);
        assert_eq!(self.shape(b), (1, n), "broadcast expects a row vector as wide as the matrix");
        self.record(Op::AddBias(a.0, b.0), (m, n), |v, out| {
            for (o_row, a_row) in out.chunks_exact_mut(n).zip(v.get(a.0).chunks_exact(n)) {
                for ((o, &x), &bias) in o_row.iter_mut().zip(a_row).zip(v.get(b.0)) {
                    *o = x + bias;
                }
            }
        })
    }

    pub fn scale(&mut self, a: Var, alpha: f32) -> Var {
        self.map(Op::Scale(a.0, alpha), a, |x| alpha * x)
    }

    /// `Σ alpha_k · part_k` as one node: the value and the gradients of
    /// the [`Tape::scale`] / [`Tape::add`] chain it stands for, in the
    /// chain's order — the sum runs left to right, and the backward pass
    /// hands each part `g · alpha_k`, last part first.
    pub fn weighted_sum(&mut self, parts: &[(Var, f32)]) -> Var {
        let (&(first, alpha), rest) = parts.split_first().expect("weighted_sum of no parts");
        let shape = self.shape(first);
        assert!(rest.iter().all(|&(p, _)| self.shape(p) == shape), "weighted_sum shape mismatch");
        let start = self.sums.len();
        self.sums.extend(parts.iter().map(|&(p, alpha)| (p.0, alpha)));
        self.record(Op::WeightedSum(start, self.sums.len()), shape, |v, out| {
            for (o, &x) in out.iter_mut().zip(v.get(first.0)) {
                *o = alpha * x;
            }
            for &(part, alpha) in rest {
                for (o, &x) in out.iter_mut().zip(v.get(part.0)) {
                    *o += alpha * x;
                }
            }
        })
    }

    pub fn sigmoid(&mut self, a: Var) -> Var {
        self.map(Op::Sigmoid(a.0), a, pddl_tensor::activation::sigmoid)
    }

    pub fn tanh(&mut self, a: Var) -> Var {
        self.map(Op::Tanh(a.0), a, pddl_tensor::activation::tanh)
    }

    pub fn relu(&mut self, a: Var) -> Var {
        self.map(Op::Relu(a.0), a, |x| x.max(0.0))
    }

    /// Records `parts` in the part list of a concatenation node.
    fn list(&mut self, parts: &[Var]) -> (usize, usize) {
        assert!(!parts.is_empty(), "concatenation of no parts");
        let start = self.parts.len();
        self.parts.extend(parts.iter().map(|p| p.0));
        (start, self.parts.len())
    }

    /// Column-wise concatenation of variables with equal row counts.
    pub fn concat_cols(&mut self, parts: &[Var]) -> Var {
        let rows = self.shape(parts[0]).0;
        assert!(parts.iter().all(|&p| self.shape(p).0 == rows), "hstack height mismatch");
        let cols = parts.iter().map(|&p| self.shape(p).1).sum();
        let (start, end) = self.list(parts);
        self.record(Op::ConcatCols(start, end), (rows, cols), |v, out| {
            let mut offset = 0;
            for &p in parts {
                let w = v.shape(p.0).1;
                for (r, src) in v.get(p.0).chunks_exact(w.max(1)).enumerate().take(rows) {
                    out[r * cols + offset..][..w].copy_from_slice(&src[..w]);
                }
                offset += w;
            }
        })
    }

    /// Extracts rows `[start, end)`.
    pub fn slice_rows(&mut self, a: Var, start: usize, end: usize) -> Var {
        let (h, cols) = self.shape(a);
        assert!(start <= end && end <= h, "slice_rows out of range");
        self.record(Op::SliceRows(a.0, start), (end - start, cols), |v, out| {
            out.copy_from_slice(&v.get(a.0)[start * cols..end * cols]);
        })
    }

    /// Row-wise (vertical) concatenation of variables with equal widths.
    pub fn concat_rows(&mut self, parts: &[Var]) -> Var {
        let cols = self.shape(parts[0]).1;
        assert!(parts.iter().all(|&p| self.shape(p).1 == cols), "vstack width mismatch");
        let rows = parts.iter().map(|&p| self.shape(p).0).sum();
        let (start, end) = self.list(parts);
        self.record(Op::ConcatRows(start, end), (rows, cols), |v, out| {
            let mut offset = 0;
            for &p in parts {
                let part = v.get(p.0);
                out[offset..offset + part.len()].copy_from_slice(part);
                offset += part.len();
            }
        })
    }

    /// Mean over all entries → scalar (1×1).
    pub fn mean(&mut self, a: Var) -> Var {
        self.record(Op::Mean(a.0), (1, 1), |v, out| {
            let x = v.get(a.0);
            out[0] = if x.is_empty() { 0.0 } else { x.iter().sum::<f32>() / x.len() as f32 };
        })
    }

    /// Sum over all entries → scalar (1×1).
    pub fn sum(&mut self, a: Var) -> Var {
        self.record(Op::Sum(a.0), (1, 1), |v, out| out[0] = v.get(a.0).iter().sum())
    }

    /// Column-wise mean over rows → 1×n. Used as the GHN graph readout.
    pub fn mean_rows(&mut self, a: Var) -> Var {
        let (rows, cols) = self.shape(a);
        self.record(Op::MeanRows(a.0), (1, cols), |v, out| {
            for row in v.get(a.0).chunks_exact(cols.max(1)) {
                for (o, &x) in out.iter_mut().zip(row) {
                    *o += x;
                }
            }
            if rows > 0 {
                let scale = 1.0 / rows as f32;
                out.iter_mut().for_each(|o| *o *= scale);
            }
        })
    }

    /// Mean-squared-error loss between prediction and target → scalar.
    pub fn mse_loss(&mut self, pred: Var, target: Var) -> Var {
        assert_eq!(self.shape(pred), self.shape(target), "mse shape mismatch");
        self.record(Op::MseLoss(pred.0, target.0), (1, 1), |v, out| {
            let (p, t) = (v.get(pred.0), v.get(target.0));
            let sq: f32 = p.iter().zip(t).map(|(p, t)| p - t).map(|d| d * d).sum();
            out[0] = sq / p.len() as f32;
        })
    }

    /// Row-wise L2 normalization (each row scaled to unit norm, eps-guarded).
    pub fn row_l2_norm(&mut self, a: Var) -> Var {
        let cols = self.shape(a).1;
        self.record(Op::RowL2Norm(a.0), self.shape(a), |v, out| {
            for (o_row, row) in out.chunks_exact_mut(cols.max(1)).zip(v.get(a.0).chunks_exact(cols.max(1))) {
                let norm = norm_eps(row);
                for (o, &x) in o_row.iter_mut().zip(row) {
                    *o = x / norm;
                }
            }
        })
    }

    /// Affine layer `x · w + b` with `b` broadcast — recorded as one
    /// fused node riding the GEMM bias epilogue (no `x·w` intermediate).
    pub fn affine(&mut self, x: Var, w: Var, b: Var) -> Var {
        self.affine_act(x, w, b, Activation::Identity)
    }

    /// `m×k · k×n` inner dimensions and a `1×n` bias, checked.
    fn affine_dims(&self, x: Var, w: Var, b: Var) -> (usize, usize, usize) {
        let ((m, k), (k2, n)) = (self.shape(x), self.shape(w));
        assert_eq!(k, k2, "matmul inner dims: {m}x{k} · {k2}x{n}");
        assert_eq!(self.shape(b), (1, n), "bias must be a 1x{n} row vector");
        (m, n, k)
    }

    /// Fused `act(x · w + b)`: bias add and activation run in the GEMM
    /// epilogue, and the tape records a single node whose backward reuses
    /// the stored output for the activation derivative.
    pub fn affine_act(&mut self, x: Var, w: Var, b: Var, act: Activation) -> Var {
        let (m, n, k) = self.affine_dims(x, w, b);
        self.count(m, n, k);
        self.record(Op::AffineAct(x.0, w.0, b.0, act), (m, n), |v, out| {
            gemm_into(Layout::Nn, (m, n, k), v.get(x.0), v.get(w.0), Some(v.get(b.0)), act, false, out);
        })
    }

    /// Fused two-operand affine `act(x·w + h·u + b)` — the recurrent gate
    /// form. One node replaces the five (two matmuls, two adds, one
    /// activation) the unfused construction records, with no intermediate
    /// matrices: the second GEMM accumulates into the first's output.
    pub fn affine2(&mut self, x: Var, w: Var, h: Var, u: Var, b: Var, act: Activation) -> Var {
        let (m, n, k) = self.affine_dims(x, w, b);
        let (hk, un) = (self.shape(h).1, self.shape(u).1);
        assert_eq!((self.shape(h).0, self.shape(u).0, un), (m, hk, n), "affine2 second operand shape mismatch");
        self.count(m, n, k);
        self.count(m, n, hk);
        let op = Op::Affine2 { x: x.0, w: w.0, h: h.0, u: u.0, b: b.0, act };
        self.record(op, (m, n), |v, out| {
            let id = Activation::Identity;
            gemm_into(Layout::Nn, (m, n, k), v.get(x.0), v.get(w.0), Some(v.get(b.0)), id, false, out);
            gemm_into(Layout::Nn, (m, n, hk), v.get(h.0), v.get(u.0), None, act, true, out);
        })
    }

    /// Scalar value of a 1×1 variable.
    pub fn scalar(&self, v: Var) -> f32 {
        assert_eq!(self.shape(v), (1, 1), "scalar() on non-scalar variable");
        self.value(v)[0]
    }

    /// Runs the backward pass from a scalar `loss` (must be 1×1), returning
    /// gradients for every parameter leaf that participated.
    ///
    /// A node's gradient is written by its first writer and added to by the
    /// later ones, in reverse tape order: for each element, the first
    /// contribution itself and then one rounded add per later one, so even
    /// the sign of a zero is that of the sum of the separate gradients. A
    /// constant receives nothing.
    pub fn backward(&self, loss: Var) -> Gradients {
        assert_eq!(self.shape(loss), (1, 1), "backward() requires a scalar loss");
        let v = self.view();
        let mut slots = self.slots.take();
        let size = self.lay_out(loss.0, &mut slots);
        let at = &slots.at;
        // Not zeroed: what an earlier pass or an earlier gradient left in a
        // slot is overwritten by the slot's first writer before anything
        // reads it.
        let mut grads = self.grads.take();
        if grads.capacity() < size {
            drop(grads);
            grads = Vec::with_capacity(size);
        }
        grads.resize(size, 0.0);
        let mut writes = vec![0u32; self.nodes.len()];
        let (mut sliced, mut scratch, mut dpre) = (Vec::new(), Vec::new(), Vec::new());
        let mut queues: Vec<Queue> = self.params.ids().map(|_| Queue::default()).collect();
        let mut transposed = Transposed { data: Vec::new(), at: vec![None; self.params.len()] };
        grads[at[loss.0]] = 1.0;
        writes[loss.0] = 1;
        let mut out = Gradients { by_param: vec![None; self.params.len()] };

        for (i, node) in self.nodes.iter().enumerate().rev() {
            if writes[i] == 0 {
                continue;
            }
            let (below, rest) = grads.split_at_mut(at[i]);
            let (g, above) = rest.split_at_mut(node.len());
            if writes[i] & SLICED != 0 {
                settle_rows(g, node.cols, writes[i] & !SLICED, &sliced_rows(&mut sliced, i)[..]);
            }
            if let Op::Param(id) = node.op {
                queues[id.0].flush(g);
            }
            let g = &*g;
            let (rows, cols) = (node.rows, node.cols);
            let grads = Around { below, above, above_at: at[i] + node.len() };
            let mut s = Sink { nodes: &self.nodes, at, grads, writes: &mut writes[..i], sliced: &mut sliced, queues: &mut queues };
            match node.op {
                Op::Const => {}
                // The parameter's only leaf: every use has added to `g`.
                Op::Param(id) => out.by_param[id.0] = Some(Matrix::from_vec(rows, cols, g.to_vec())),
                Op::Add(a, b) => {
                    s.put(a, g.iter().copied());
                    s.put(b, g.iter().copied());
                }
                Op::Sub(a, b) => {
                    s.put(a, g.iter().copied());
                    s.put(b, g.iter().map(|&x| -x));
                }
                Op::Mul(a, b) => {
                    s.put(a, g.iter().zip(v.get(b)).map(|(&g, &y)| g * y));
                    s.put(b, g.iter().zip(v.get(a)).map(|(&g, &x)| g * x));
                }
                Op::MatMul(a, b) => {
                    // d/dA (A·B) = G · Bᵀ ; d/dB = Aᵀ · G.
                    let (k, n) = v.shape(b);
                    if let Some((first, slot)) = s.slot(a) {
                        self.count(rows, k, n);
                        product(first, slot, &mut scratch, |o| {
                            gemm_into(Layout::Nt, (rows, k, n), g, v.get(b), None, Activation::Identity, false, o);
                        });
                    }
                    if let Some((first, slot)) = s.slot(b) {
                        self.weight_grad(first, slot, &mut scratch, v.get(a), g, (k, n, rows));
                    }
                }
                Op::AddBias(a, b) => {
                    s.put(a, g.iter().copied());
                    if let Some((first, slot)) = s.slot(b) {
                        product(first, slot, &mut scratch, |o| sum_rows(g, o));
                    }
                }
                Op::AffineAct(x, w, b, act) => {
                    let d = pre_activation(g, v.get(i), act, &mut dpre);
                    self.affine_backward(&mut s, [x, w], d, rows, &mut transposed, &mut scratch);
                    if let Some((first, slot)) = s.slot(b) {
                        product(first, slot, &mut scratch, |o| sum_rows(d, o));
                    }
                }
                Op::Affine2 { x, w, h, u, b, act } => {
                    let d = pre_activation(g, v.get(i), act, &mut dpre);
                    self.affine_backward(&mut s, [x, w], d, rows, &mut transposed, &mut scratch);
                    self.affine_backward(&mut s, [h, u], d, rows, &mut transposed, &mut scratch);
                    if let Some((first, slot)) = s.slot(b) {
                        product(first, slot, &mut scratch, |o| sum_rows(d, o));
                    }
                }
                Op::Scale(a, alpha) => s.put(a, g.iter().map(|&x| alpha * x)),
                Op::WeightedSum(start, end) => {
                    for &(p, alpha) in self.sums[start..end].iter().rev() {
                        s.put(p, g.iter().map(|&x| alpha * x));
                    }
                }
                Op::Sigmoid(a) => s.put(a, g.iter().zip(v.get(i)).map(|(&gi, &yi)| gi * yi * (1.0 - yi))),
                Op::Tanh(a) => s.put(a, g.iter().zip(v.get(i)).map(|(&gi, &yi)| gi * (1.0 - yi * yi))),
                Op::Relu(a) => s.put(a, g.iter().zip(v.get(a)).map(|(&gi, &xi)| if xi > 0.0 { gi } else { 0.0 })),
                Op::ConcatCols(start, end) => {
                    let mut offset = 0;
                    for &p in &self.parts[start..end] {
                        let w = v.shape(p).1;
                        s.put(p, (0..rows).flat_map(|r| &g[r * cols + offset..][..w]).copied());
                        offset += w;
                    }
                }
                // Only the parent's own rows: a zero-padded parent per
                // slice would make the GHN's per-node slices quadratic in
                // the node count.
                Op::SliceRows(a, start) => {
                    if let Some((first, slot)) = s.rows(a, start, start + rows) {
                        put(first, slot, g.iter().copied());
                    }
                }
                Op::ConcatRows(start, end) => {
                    let mut offset = 0;
                    for &p in &self.parts[start..end] {
                        let len = v.get(p).len();
                        s.put(p, g[offset..offset + len].iter().copied());
                        offset += len;
                    }
                }
                Op::Mean(a) => {
                    let len = v.get(a).len();
                    s.put(a, std::iter::repeat_n(g[0] / len as f32, len));
                }
                Op::Sum(a) => s.put(a, std::iter::repeat_n(g[0], v.get(a).len())),
                Op::MeanRows(a) => {
                    let r = v.shape(a).0;
                    let scale = 1.0 / r as f32;
                    s.put(a, (0..r).flat_map(|_| g.iter().map(move |&gv| gv * scale)));
                }
                Op::MseLoss(p, t) => {
                    let (pv, tv) = (v.get(p), v.get(t));
                    let scale = 2.0 * g[0] / pv.len() as f32;
                    let gp = pv.iter().zip(tv).map(move |(&pi, &ti)| scale * (pi - ti));
                    s.put(p, gp.clone());
                    s.put(t, gp.map(|x| -x));
                }
                Op::RowL2Norm(a) => {
                    // y = x / ||x||; dy/dx = (I - y yᵀ) / ||x|| per row.
                    if let Some((first, slot)) = s.slot(a) {
                        let rows = v.get(a).chunks_exact(cols).zip(v.get(i).chunks_exact(cols)).zip(g.chunks_exact(cols));
                        product(first, slot, &mut scratch, |o| {
                            for (((xr, yr), gr), or) in rows.zip(o.chunks_exact_mut(cols)) {
                                let norm = norm_eps(xr);
                                let dot: f32 = yr.iter().zip(gr).map(|(a, b)| a * b).sum();
                                for ((o, &gj), &yj) in or.iter_mut().zip(gr).zip(yr) {
                                    *o = (gj - yj * dot) / norm;
                                }
                            }
                        });
                    }
                }
            }
        }
        self.grads.set(grads);
        self.slots.set(slots);
        out
    }

    /// Lays out the gradient slots of a backward pass from `loss` in
    /// `slots` and returns the size of the buffer they need. The loss and
    /// every node with a consumer but a constant get one, taken when its
    /// last consumer runs — the first writer of its gradient, as the pass
    /// runs in reverse tape order — and given back once the node has passed
    /// its gradient on, for the next slot of its size: the buffer holds the
    /// gradients live at once, not one per value recorded. Where a gradient
    /// sits changes none of its bits.
    fn lay_out(&self, loss: usize, slots: &mut Slots) -> usize {
        let Slots { at, free, born, ends } = slots;
        let n = self.uses.len();
        // The nodes grouped by last consumer, `t`'s in
        // `born[ends[t - 1]..ends[t]]`: a counting sort.
        ends.clear();
        ends.resize(n, 0);
        for u in self.uses.iter().filter(|u| u.last != UNUSED) {
            ends[u.last as usize] += 1;
        }
        let mut sum = 0;
        for end in ends.iter_mut() {
            sum += *end;
            *end = sum - *end;
        }
        born.clear();
        born.resize(sum as usize, 0);
        for (p, u) in self.uses.iter().enumerate().filter(|(_, u)| u.last != UNUSED) {
            let end = &mut ends[u.last as usize];
            born[*end as usize] = p as u32;
            *end += 1;
        }
        at.clear();
        at.resize(n, NO_SLOT);
        free.clear();
        let mut size = 0;
        for t in (0..n).rev() {
            let first = if t == 0 { 0 } else { ends[t - 1] as usize };
            for &p in &born[first..ends[t] as usize] {
                at[p as usize] = free.take(self.uses[p as usize].len as usize, &mut size);
            }
            if t == loss && at[t] == NO_SLOT {
                at[t] = free.take(1, &mut size);
            }
            if at[t] != NO_SLOT {
                free.give(self.uses[t].len as usize, at[t]);
            }
        }
        size
    }

    /// The gradients of `x` and `w` through the product `x·w` of an affine
    /// node whose pre-activation gradient is `d` (`m × n`).
    ///
    /// `d · wᵀ` is the product `Matrix::matmul_nt` runs, with its bits:
    /// below [`SMALL_MADDS`] and for a parameter `w`, on the row kernel
    /// [`dot_cols_acc`] against `w` transposed once per pass (the small
    /// product's one `dot` per output, eight outputs at a time); else
    /// through [`gemm_into`].
    fn affine_backward(
        &self,
        s: &mut Sink,
        [x, w]: [usize; 2],
        d: &[f32],
        m: usize,
        transposed: &mut Transposed,
        scratch: &mut Vec<f32>,
    ) {
        let v = self.view();
        let (k, n) = v.shape(w);
        if let Some((first, slot)) = s.slot(x) {
            self.count(m, k, n);
            let small = m * k * n < SMALL_MADDS && k > 0;
            match if small { transposed.of(v, w) } else { None } {
                Some(wt) => product(first, slot, scratch, |o| {
                    for (d_row, o_row) in d.chunks_exact(n.max(1)).zip(o.chunks_exact_mut(k)) {
                        dot_cols_acc(&d_row[..n], wt, o_row);
                    }
                }),
                None => product(first, slot, scratch, |o| {
                    gemm_into(Layout::Nt, (m, k, n), d, v.get(w), None, Activation::Identity, false, o);
                }),
            }
        }
        if m == 1 && s.queue(w, v.get(x), d) {
            return;
        }
        if let Some((first, slot)) = s.slot(w) {
            self.weight_grad(first, slot, scratch, v.get(x), d, (k, n, m));
        }
    }

    /// Routes the weight gradient `xᵀ·d` (`k×n`, `x` is `m×k`) to the
    /// weight's slot. A one-row `x` against a slot that already holds a
    /// sum — every use of a shared leaf after the first — is the rank-1
    /// update `acc[i][j] += x[i]·d[j]` in place ([`outer_acc`]: multiply,
    /// round, add, which is what a depth-1 `Matrix::t_matmul` followed by
    /// an add computes on every kernel backend, without the temporary);
    /// otherwise the product is computed and routed.
    fn weight_grad(&self, first: bool, slot: &mut [f32], scratch: &mut Vec<f32>, x: &[f32], d: &[f32], (k, n, m): (usize, usize, usize)) {
        if first || m != 1 {
            self.count(k, n, m);
            product(first, slot, scratch, |o| gemm_into(Layout::Tn, (k, n, m), x, d, None, Activation::Identity, false, o));
        } else {
            outer_acc(1, x, d, slot);
        }
    }
}

/// Marks a node in the backward pass's write counts whose slot a row slice
/// wrote into, so that its rows are tracked one by one.
const SLICED: u32 = 1 << 31;

/// One-row weight-gradient terms a parameter queues before they are added
/// to its slot, which is then read and written once per this many uses
/// instead of once per use.
const QUEUED: usize = 32;

/// The one-row weight-gradient terms `x ⊗ d` waiting for a parameter's
/// slot, in the order they arrived.
#[derive(Default)]
struct Queue {
    terms: usize,
    xs: Vec<f32>,
    ds: Vec<f32>,
}

impl Queue {
    /// Queues `x ⊗ d`; true when the queue is full.
    fn push(&mut self, x: &[f32], d: &[f32]) -> bool {
        if self.terms == 0 {
            self.xs.reserve_exact(QUEUED * x.len());
            self.ds.reserve_exact(QUEUED * d.len());
        }
        self.xs.extend_from_slice(x);
        self.ds.extend_from_slice(d);
        self.terms += 1;
        self.terms == QUEUED
    }

    /// Adds the waiting terms to `slot`, one after another as if each had
    /// been added on arrival, and empties the queue.
    fn flush(&mut self, slot: &mut [f32]) {
        outer_acc(self.terms, &self.xs, &self.ds, slot);
        self.terms = 0;
        self.xs.clear();
        self.ds.clear();
    }
}

/// Marks a node without a gradient slot in [`Slots::at`].
const NO_SLOT: usize = usize::MAX;

/// Marks a node no consumer has read in [`Use::last`].
const UNUSED: u32 = u32::MAX;

/// A node's size, and the last node recorded that reads it and can pass it
/// a gradient: none for a constant.
struct Use {
    len: u32,
    last: u32,
}

/// Where [`Tape::backward`] keeps each node's gradient
/// ([`Tape::lay_out`]).
#[derive(Default)]
struct Slots {
    /// By node: where its slot starts, or [`NO_SLOT`].
    at: Vec<usize>,
    free: Free,
    /// The nodes, grouped by last consumer, and the end of each group.
    born: Vec<u32>,
    ends: Vec<u32>,
}

/// Calls `f` on each parent of a node recording `op`, whose part lists are
/// in `sums` and `parts`.
fn parents(op: Op, sums: &[(usize, f32)], parts: &[usize], mut f: impl FnMut(usize)) {
    match op {
        Op::Const | Op::Param(_) => {}
        Op::Add(a, b) | Op::Sub(a, b) | Op::Mul(a, b) | Op::MatMul(a, b) | Op::AddBias(a, b) | Op::MseLoss(a, b) => {
            f(a);
            f(b);
        }
        Op::AffineAct(x, w, b, _) => [x, w, b].into_iter().for_each(f),
        Op::Affine2 { x, w, h, u, b, .. } => [x, w, h, u, b].into_iter().for_each(f),
        Op::Scale(a, _)
        | Op::Sigmoid(a)
        | Op::Tanh(a)
        | Op::Relu(a)
        | Op::SliceRows(a, _)
        | Op::Mean(a)
        | Op::Sum(a)
        | Op::MeanRows(a)
        | Op::RowL2Norm(a) => f(a),
        Op::WeightedSum(start, end) => sums[start..end].iter().for_each(|&(p, _)| f(p)),
        Op::ConcatCols(start, end) | Op::ConcatRows(start, end) => parts[start..end].iter().copied().for_each(f),
    }
}

/// The slots given back during a layout, by size.
#[derive(Default)]
struct Free {
    /// A slot size and the starts of the free slots of that size.
    sizes: Vec<(usize, Vec<usize>)>,
    /// The index in `sizes` last found for a size, by size modulo its
    /// length: the pass meets a few sizes over and over.
    recent: [usize; 32],
}

impl Free {
    /// Empties every size's list, keeping the lists.
    fn clear(&mut self) {
        self.sizes.iter_mut().for_each(|(_, starts)| starts.clear());
    }

    /// The list of the free slots of `len` floats.
    fn of(&mut self, len: usize) -> &mut Vec<usize> {
        let hint = &mut self.recent[len % 31];
        if self.sizes.get(*hint).is_none_or(|s| s.0 != len) {
            *hint = match self.sizes.iter().position(|s| s.0 == len) {
                Some(b) => b,
                None => {
                    self.sizes.push((len, Vec::new()));
                    self.sizes.len() - 1
                }
            };
        }
        &mut self.sizes[*hint].1
    }

    /// The start of a free slot of `len` floats, or of a new one at the end
    /// of the buffer, which grows to `size`.
    fn take(&mut self, len: usize, size: &mut usize) -> usize {
        self.of(len).pop().unwrap_or_else(|| {
            *size += len;
            *size - len
        })
    }

    fn give(&mut self, len: usize, start: usize) {
        self.of(len).push(start);
    }
}

/// The backward pass's buffer around the slot being read: what lies below
/// it, and what lies above it, from `above_at` on.
struct Around<'a> {
    below: &'a mut [f32],
    above: &'a mut [f32],
    above_at: usize,
}

impl Around<'_> {
    /// The `len` floats at `at`, a slot other than the one being read.
    fn get(&mut self, at: usize, len: usize) -> &mut [f32] {
        match at.checked_sub(self.above_at) {
            Some(at) => &mut self.above[at..at + len],
            None => &mut self.below[at..at + len],
        }
    }
}

/// Where a backward step writes its parents' gradients: their slots, how
/// many writers each has had, the rows of the slots that slices wrote
/// into, and the terms the parameters' slots have queued.
struct Sink<'a> {
    nodes: &'a [Node],
    at: &'a [usize],
    grads: Around<'a>,
    writes: &'a mut [u32],
    /// Per sliced node, the writer that last touched each row (0: none).
    sliced: &'a mut Vec<(usize, Vec<u32>)>,
    /// By [`ParamId`].
    queues: &'a mut [Queue],
}

impl Sink<'_> {
    /// `p`'s whole slot for its next writer, and whether that writer is the
    /// first; `None` for a constant.
    fn slot(&mut self, p: usize) -> Option<(bool, &mut [f32])> {
        let rows = self.nodes[p].rows;
        self.rows(p, 0, rows)
    }

    /// Routes `values` into `p`'s slot: written by the first writer, added
    /// by the later ones.
    fn put(&mut self, p: usize, values: impl Iterator<Item = f32>) {
        if let Some((first, slot)) = self.slot(p) {
            put(first, slot, values);
        }
    }

    /// Rows `[r0, r1)` of `p`'s slot for its next writer.
    ///
    /// A row slice's gradient is its parent's, zero outside the slice, and
    /// is routed without the zeros. The first writer of a slice zeroes the
    /// whole slot. A later writer would add `+0.0` to the rows it passes
    /// over, which turns a `-0.0` into `+0.0` and changes nothing else; so
    /// a row that some writer passed over since it was last written is
    /// given that `+0.0` before it is written again, or when the slot is
    /// read (`settle_rows`). That is the zero-padded sum, bit for bit, in
    /// time linear in the rows written.
    fn rows(&mut self, p: usize, r0: usize, r1: usize) -> Option<(bool, &mut [f32])> {
        let node = &self.nodes[p];
        let slot = match node.op {
            Op::Const => return None,
            _ => self.grads.get(self.at[p], node.len()),
        };
        if let Op::Param(id) = node.op {
            self.queues[id.0].flush(slot);
        }
        let (cols, writer) = (node.cols, (self.writes[p] & !SLICED) + 1);
        let mut tracked = self.writes[p] & SLICED != 0;
        if !tracked && (r0, r1) != (0, node.rows) {
            if writer == 1 {
                slot.fill(0.0);
            }
            self.sliced.push((p, vec![writer - 1; node.rows]));
            tracked = true;
        }
        if tracked {
            let last = sliced_rows(self.sliced, p);
            for r in r0..r1 {
                if 0 < last[r] && last[r] + 1 < writer {
                    slot[r * cols..(r + 1) * cols].iter_mut().for_each(|x| *x += 0.0);
                }
                last[r] = writer;
            }
        }
        self.writes[p] = writer | if tracked { SLICED } else { 0 };
        Some((writer == 1, &mut slot[r0 * cols..r1 * cols]))
    }

    /// Queues the weight gradient `x ⊗ d` of a one-row `x` for parameter
    /// leaf `w` whose slot already holds a sum and was never sliced, and
    /// says whether it did; anything else goes through [`Sink::slot`].
    fn queue(&mut self, w: usize, x: &[f32], d: &[f32]) -> bool {
        let (node, writes) = (&self.nodes[w], self.writes[w]);
        let Op::Param(id) = node.op else { return false };
        if writes == 0 || writes & SLICED != 0 {
            return false;
        }
        self.writes[w] += 1;
        let queue = &mut self.queues[id.0];
        if queue.push(x, d) {
            queue.flush(self.grads.get(self.at[w], node.len()));
        }
        true
    }
}

/// The per-row writers of sliced node `p`.
fn sliced_rows(sliced: &mut [(usize, Vec<u32>)], p: usize) -> &mut Vec<u32> {
    &mut sliced.iter_mut().rev().find(|(q, _)| *q == p).expect("a sliced node has row writers").1
}

/// Gives `+0.0` to each row of a sliced slot that a writer passed over
/// after the row's last write (see `Sink::rows`), once all `writers` have
/// written.
fn settle_rows(slot: &mut [f32], cols: usize, writers: u32, last: &[u32]) {
    for (row, &l) in slot.chunks_exact_mut(cols.max(1)).zip(last) {
        if 0 < l && l < writers {
            row.iter_mut().for_each(|x| *x += 0.0);
        }
    }
}

/// Writes `values` into `slot` for its first writer, adds them for a later
/// one.
fn put(first: bool, slot: &mut [f32], values: impl Iterator<Item = f32>) {
    if first {
        slot.iter_mut().zip(values).for_each(|(s, x)| *s = x);
    } else {
        slot.iter_mut().zip(values).for_each(|(s, x)| *s += x);
    }
}

/// Routes what `fill` computes into a zeroed buffer: into `slot` itself for
/// its first writer, through `scratch` and an add for a later one.
fn product(first: bool, slot: &mut [f32], scratch: &mut Vec<f32>, fill: impl FnOnce(&mut [f32])) {
    if first {
        slot.fill(0.0);
        fill(slot);
    } else {
        scratch.clear();
        scratch.resize(slot.len(), 0.0);
        fill(scratch);
        put(false, slot, scratch.iter().copied());
    }
}

/// The gradient before the activation of an affine node with output `y`:
/// `g` itself for the identity, else `g ⊙ act'(y)` in `buf`.
fn pre_activation<'a>(g: &'a [f32], y: &[f32], act: Activation, buf: &'a mut Vec<f32>) -> &'a [f32] {
    if act == Activation::Identity {
        return g;
    }
    buf.clear();
    buf.extend(g.iter().zip(y).map(|(&gi, &yi)| gi * act.grad_from_output(yi)));
    buf
}

/// Column sums of the row-major rows of `d` into the zeroed `out`, row by
/// row (`Matrix::sum_rows`).
fn sum_rows(d: &[f32], out: &mut [f32]) {
    for row in d.chunks_exact(out.len().max(1)) {
        out.iter_mut().zip(row).for_each(|(o, &x)| *o += x);
    }
}

/// The parameters' transposes the backward pass multiplies by, each made
/// once per pass.
struct Transposed {
    data: Vec<f32>,
    /// Where each parameter's transpose starts in `data`, by [`ParamId`].
    at: Vec<Option<usize>>,
}

impl Transposed {
    /// `wᵀ` (`n×k` for a `k×n` `w`), row-major, if `w` is a parameter leaf.
    fn of(&mut self, v: View, w: usize) -> Option<&[f32]> {
        let Op::Param(id) = v.nodes[w].op else { return None };
        let ((k, n), src) = (v.shape(w), v.get(w));
        let at = *self.at[id.0].get_or_insert_with(|| {
            let at = self.data.len();
            self.data.resize(at + k * n, 0.0);
            for (q, row) in src.chunks_exact(n.max(1)).enumerate() {
                for (j, &x) in row.iter().enumerate() {
                    self.data[at + j * k + q] = x;
                }
            }
            at
        });
        Some(&self.data[at..at + k * n])
    }
}

fn norm_eps(row: &[f32]) -> f32 {
    (row.iter().map(|x| x * x).sum::<f32>().sqrt()).max(1e-6)
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
                tape.value(y).to_vec()
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
                tape.value(y).to_vec()
            };
            for (f, u) in fused.iter().zip(&unfused) {
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
                tape.value(y).to_vec()
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
                tape.value(y).to_vec()
            };
            for (f, un) in fused.iter().zip(&unfused) {
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

    fn bits(m: &[f32]) -> Vec<u32> {
        m.iter().map(|x| x.to_bits()).collect()
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
        let mut acc = held.clone();
        outer_acc(1, x.as_slice(), d.as_slice(), acc.as_mut_slice());
        assert_eq!(bits(acc.as_slice()), bits(want.as_slice()));
        // The first writer of a weight's slot takes the product itself.
        let mut slot = vec![f32::NAN; 30];
        let ps = ParamStore::default();
        let tape = Tape::new(&ps);
        tape.weight_grad(true, &mut slot, &mut Vec::new(), x.as_slice(), d.as_slice(), (6, 5, 1));
        assert_eq!(bits(&slot), bits(x.t_matmul(&d).as_slice()));
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
            assert_eq!(bits(fused.as_slice()), bits(chain.as_slice()), "{}", ps.name(id));
        }
    }

    #[test]
    fn a_chain_holds_only_its_live_gradients() {
        let mut ps = ParamStore::new();
        let w = ps.register("w", Matrix::filled(1, 16, 0.5));
        let mut tape = Tape::new(&ps);
        let mut y = tape.param(w);
        for _ in 0..100 {
            y = tape.tanh(y);
        }
        let loss = tape.sum(y);
        let grads = tape.backward(loss);
        assert!(grads.get(w).unwrap().as_slice().iter().all(|g| g.is_finite() && *g > 0.0));
        // The loss's slot and, at any time, the gradient being read and the
        // one being written: not one slot per value recorded.
        let held = tape.grads.take().len();
        assert!(held <= 1 + 2 * 16, "{held} floats for a 101-node chain");
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

    /// Row slices route their gradients to their own rows only, yet the
    /// parent's gradient has the bits of the zero-padded slices summed:
    /// a row that a later slice passes over is given that slice's `+0.0`,
    /// which turns a `-0.0` into `+0.0`.
    #[test]
    fn sliced_gradients_keep_the_zero_signs_of_zero_padded_ones() {
        let mut ps = ParamStore::new();
        let p = ps.register("p", Matrix::from_rows(&[&[1.0], &[2.0]]));
        // `signs[k]` scales slice `k`'s sum: its gradient is `signs[k]`.
        let run = |rows: &[usize], signs: &[f32]| {
            let mut tape = Tape::new(&ps);
            let pv = tape.param(p);
            let slices: Vec<Var> = rows.iter().map(|&r| tape.slice_rows(pv, r, r + 1)).collect();
            let parts: Vec<Var> = slices
                .iter()
                .zip(signs)
                .map(|(&sl, &sign)| {
                    let c = tape.constant(Matrix::filled(1, 1, sign));
                    let m = tape.mul(sl, c);
                    tape.sum(m)
                })
                .collect();
            let loss = parts[1..].iter().fold(parts[0], |acc, &part| tape.add(acc, part));
            bits(tape.backward(loss).get(p).unwrap().as_slice())
        };
        // Backward order is C, B, A: C writes row 0 first with -0.0, B
        // passes over it (+0.0), A adds -0.0: +0.0 + -0.0 = +0.0.
        assert_eq!(run(&[0, 1, 0], &[-0.0, 1.0, -0.0]), bits(&[0.0, 1.0]));
        // B writes row 1 first with -0.0, A passes over it (+0.0).
        assert_eq!(run(&[0, 1], &[1.0, -0.0]), bits(&[1.0, 0.0]));
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
