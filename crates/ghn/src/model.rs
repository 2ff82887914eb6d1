//! The GHN-2 network: embedding layer → GatedGNN → readout → decoder.
//!
//! Two execution paths share one set of weights:
//! * [`Ghn::embed_traced`] records onto an autodiff [`Tape`] for
//!   meta-training;
//! * [`Ghn::embed_graph`] is the allocation-lean inference path used by the
//!   PredictDDL Embeddings Generator (no tape, raw matrix math).
//!
//! A unit test asserts both paths produce identical embeddings.

use crate::config::GhnConfig;
use pddl_autodiff::{layers::Activation, GruCell, Linear, Mlp, ParamStore, Tape, Var};
use pddl_graph::{features, one_hot_features, CompGraph, OpKind, ShortestPaths};
use pddl_tensor::{vecmat_acc, Activation as TensorAct, Matrix, Rng};
use pddl_telemetry::json::{FromJson, JsonError, JsonValue, JsonWriter, ToJson};
use std::sync::OnceLock;

/// Cached telemetry handles (resolved once; recording is lock-free).
struct GhnMetrics {
    embed_latency: &'static pddl_telemetry::Histogram,
}

fn metrics() -> &'static GhnMetrics {
    static M: OnceLock<GhnMetrics> = OnceLock::new();
    M.get_or_init(|| GhnMetrics {
        embed_latency: pddl_telemetry::histogram("ghn.embed"),
    })
}

/// Decoder targets: [norm-log-FLOPs, norm-log-params, norm-depth, op-histogram…].
pub const TARGET_DIM: usize = 3 + OpKind::COUNT;

/// Computes the surrogate decoder targets for a graph (all O(1)-ranged).
pub fn decoder_targets(g: &CompGraph) -> Vec<f32> {
    let mut t = Vec::with_capacity(TARGET_DIM);
    t.push((((g.flops_per_example() + 1.0).log10() as f32) - 7.0) / 2.0);
    t.push((((g.num_params() as f64 + 1.0).log10() as f32) - 6.5) / 1.5);
    t.push(g.depth() as f32 / 100.0);
    t.extend(g.op_histogram());
    t
}

/// Per-graph propagation schedule, precomputed once per architecture:
/// topological order plus virtual-edge source lists in both directions.
pub struct Schedule {
    pub topo: Vec<usize>,
    /// `virtual_fw[v]` = (u, s_vu) with 1 < s(u→v) ≤ s_max.
    pub virtual_fw: Vec<Vec<(usize, u32)>>,
    /// `virtual_bw[v]` = (u, s_vu) over the reversed graph.
    pub virtual_bw: Vec<Vec<(usize, u32)>>,
}

impl Schedule {
    pub fn new(g: &CompGraph, s_max: u32) -> Self {
        let topo = g
            .topo_order()
            .expect("GHN requires an acyclic computational graph");
        let fw = ShortestPaths::forward(g);
        let bw = ShortestPaths::backward(g);
        let n = g.num_nodes();
        let virtual_fw = (0..n).map(|v| fw.virtual_sources(v, s_max)).collect();
        let virtual_bw = (0..n).map(|v| bw.virtual_sources(v, s_max)).collect();
        Self { topo, virtual_fw, virtual_bw }
    }
}

/// The GHN-2 model. All weights live in the owned [`ParamStore`].
#[derive(Clone)]
pub struct Ghn {
    pub cfg: GhnConfig,
    pub ps: ParamStore,
    embed: Linear,
    msg: Mlp,
    msg_sp: Mlp,
    gru: GruCell,
    decoder: Mlp,
}

impl ToJson for Ghn {
    fn write_json(&self, w: &mut JsonWriter) {
        w.object()
            .field("cfg", &self.cfg)
            .field("ps", &self.ps)
            .field("embed", &self.embed)
            .field("msg", &self.msg)
            .field("msg_sp", &self.msg_sp)
            .field("gru", &self.gru)
            .field("decoder", &self.decoder)
            .end();
    }
}

impl FromJson for Ghn {
    fn read_json(v: &JsonValue) -> Result<Self, JsonError> {
        let o = v.fields()?;
        Ok(Self {
            cfg: o.field("cfg")?,
            ps: o.field("ps")?,
            embed: o.field("embed")?,
            msg: o.field("msg")?,
            msg_sp: o.field("msg_sp")?,
            gru: o.field("gru")?,
            decoder: o.field("decoder")?,
        })
    }
}

impl Ghn {
    /// Fresh randomly-initialized GHN.
    pub fn new(cfg: GhnConfig, rng: &mut Rng) -> Self {
        let mut ps = ParamStore::new();
        let d = cfg.hidden_dim;
        let embed = Linear::new(&mut ps, "ghn.embed", features::FEATURE_DIM, d, rng);
        let msg = Mlp::new(&mut ps, "ghn.msg", &[d, cfg.mlp_hidden, d], Activation::Relu, rng);
        let msg_sp =
            Mlp::new(&mut ps, "ghn.msg_sp", &[d, cfg.mlp_hidden, d], Activation::Relu, rng);
        let gru = GruCell::new(&mut ps, "ghn.gru", d, d, rng);
        let decoder = Mlp::new(
            &mut ps,
            "ghn.decoder",
            &[d, cfg.decoder_hidden, TARGET_DIM],
            Activation::Relu,
            rng,
        );
        Self { cfg, ps, embed, msg, msg_sp, gru, decoder }
    }

    /// Embedding dimensionality.
    pub fn embed_dim(&self) -> usize {
        self.cfg.hidden_dim
    }

    /// Total scalar weights of the GHN itself.
    pub fn num_weights(&self) -> usize {
        self.ps.num_scalars()
    }

    // ------------------------------------------------------------------
    // Traced path (meta-training)
    // ------------------------------------------------------------------

    /// Runs the GatedGNN on the tape and returns the pooled 1×d embedding.
    pub fn embed_traced(&self, tape: &mut Tape, g: &CompGraph, sched: &Schedule) -> Var {
        let h = self.node_states_traced(tape, g, sched);
        let all = tape.concat_rows(&h);
        tape.mean_rows(all)
    }

    /// Runs the GatedGNN on the tape and returns the final per-node states
    /// `h_v^T` (each 1×d). The weight-decoding hypernetwork
    /// ([`crate::hypernet`]) conditions on these, as in the original GHN;
    /// PredictDDL instead pools them into the complexity embedding.
    pub fn node_states_traced(&self, tape: &mut Tape, g: &CompGraph, sched: &Schedule) -> Vec<Var> {
        let n = g.num_nodes();
        let feats = Matrix::from_vec(n, features::FEATURE_DIM, one_hot_features(g));
        let h0 = tape.constant(feats);
        let h1 = self.embed.forward(tape, h0);
        // Per-node 1×d state variables, updated sequentially.
        let mut h: Vec<Var> = (0..n).map(|v| tape.slice_rows(h1, v, v + 1)).collect();

        for _t in 0..self.cfg.t_passes {
            // π = fw: traverse topologically; neighbors = predecessors.
            for &v in &sched.topo {
                self.update_node(tape, g, &mut h, v, true, &sched.virtual_fw[v]);
            }
            // π = bw: reverse order; neighbors = successors.
            for &v in sched.topo.iter().rev() {
                self.update_node(tape, g, &mut h, v, false, &sched.virtual_bw[v]);
            }
            if self.cfg.normalize {
                for hv in h.iter_mut() {
                    *hv = tape.row_l2_norm(*hv);
                }
            }
        }
        h
    }

    /// One sequential node update: Eq. (4) message + GRU state transition.
    fn update_node(
        &self,
        tape: &mut Tape,
        g: &CompGraph,
        h: &mut [Var],
        v: usize,
        forward: bool,
        virtual_sources: &[(usize, u32)],
    ) {
        let neighbors: &[usize] = if forward { g.predecessors(v) } else { g.successors(v) };
        let mut parts: Vec<Var> = Vec::with_capacity(neighbors.len() + virtual_sources.len());
        for &u in neighbors {
            parts.push(self.msg.forward(tape, h[u]));
        }
        for &(u, s) in virtual_sources {
            let m = self.msg_sp.forward(tape, h[u]);
            parts.push(tape.scale(m, 1.0 / s as f32));
        }
        let m_v = match parts.len() {
            0 => tape.constant(Matrix::zeros(1, self.cfg.hidden_dim)),
            1 => parts[0],
            _ => {
                let mut acc = parts[0];
                for &p in &parts[1..] {
                    acc = tape.add(acc, p);
                }
                acc
            }
        };
        h[v] = self.gru.forward(tape, m_v, h[v]);
    }

    /// Traced decoder output (1×TARGET_DIM) for the meta-training loss.
    pub fn decode_traced(&self, tape: &mut Tape, embedding: Var) -> Var {
        self.decoder.forward(tape, embedding)
    }

    // ------------------------------------------------------------------
    // Fast path (inference)
    // ------------------------------------------------------------------

    /// Computes the architecture embedding without recording a tape.
    pub fn embed_graph(&self, g: &CompGraph) -> Vec<f32> {
        let _t = metrics().embed_latency.start_timer();
        let sched = Schedule::new(g, self.cfg.s_max);
        self.embed_with_schedule(g, &sched)
    }

    /// Fast-path embedding with a precomputed schedule. Per-node updates
    /// stay in the paper's sequential (Gauss–Seidel) order; within each
    /// update the neighbor/virtual message MLPs are batched into GEMMs.
    pub fn embed_with_schedule(&self, g: &CompGraph, sched: &Schedule) -> Vec<f32> {
        let _t = metrics().embed_latency.start_timer();
        let n = g.num_nodes();
        let d = self.cfg.hidden_dim;
        let feats = Matrix::from_vec(n, features::FEATURE_DIM, one_hot_features(g));
        // h1 = feats · W + b
        let h1 = feats
            .matmul(self.ps.get(self.embed.w))
            .add_row_broadcast(self.ps.get(self.embed.b));
        let mut h: Vec<Vec<f32>> = (0..n).map(|v| h1.row(v).to_vec()).collect();
        let mut m = vec![0.0f32; d];

        for _t in 0..self.cfg.t_passes {
            for &v in &sched.topo {
                self.fast_update(g, &mut h, &mut m, v, true, &sched.virtual_fw[v]);
            }
            for &v in sched.topo.iter().rev() {
                self.fast_update(g, &mut h, &mut m, v, false, &sched.virtual_bw[v]);
            }
            if self.cfg.normalize {
                for hv in h.iter_mut() {
                    l2_normalize(hv);
                }
            }
        }
        // Mean pooling over nodes.
        let mut pooled = vec![0.0f32; d];
        for hv in &h {
            for (p, &x) in pooled.iter_mut().zip(hv) {
                *p += x;
            }
        }
        for p in &mut pooled {
            *p /= n as f32;
        }
        pooled
    }

    /// Scalar (unbatched, unblocked) embedding used as the ground truth in
    /// equivalence tests and as the baseline in `pddl-tensorbench`. Follows
    /// the exact sequential schedule of [`Self::embed_with_schedule`] but
    /// pushes every row through the per-element `mlp_fast` loops.
    pub fn embed_with_schedule_reference(&self, g: &CompGraph, sched: &Schedule) -> Vec<f32> {
        let n = g.num_nodes();
        let d = self.cfg.hidden_dim;
        let feats = Matrix::from_vec(n, features::FEATURE_DIM, one_hot_features(g));
        let w = self.ps.get(self.embed.w);
        let b = self.ps.get(self.embed.b);
        let h1 = feats.matmul_reference(w).add_row_broadcast(b);
        let mut h: Vec<Vec<f32>> = (0..n).map(|v| h1.row(v).to_vec()).collect();
        let mut m = vec![0.0f32; d];
        for _t in 0..self.cfg.t_passes {
            for &v in &sched.topo {
                self.fast_update_reference(g, &mut h, &mut m, v, true, &sched.virtual_fw[v]);
            }
            for &v in sched.topo.iter().rev() {
                self.fast_update_reference(g, &mut h, &mut m, v, false, &sched.virtual_bw[v]);
            }
            if self.cfg.normalize {
                for hv in h.iter_mut() {
                    l2_normalize(hv);
                }
            }
        }
        let mut pooled = vec![0.0f32; d];
        for hv in &h {
            for (p, &x) in pooled.iter_mut().zip(hv) {
                *p += x;
            }
        }
        for p in &mut pooled {
            *p /= n as f32;
        }
        pooled
    }

    fn fast_update_reference(
        &self,
        g: &CompGraph,
        h: &mut [Vec<f32>],
        m: &mut [f32],
        v: usize,
        forward: bool,
        virtual_sources: &[(usize, u32)],
    ) {
        m.fill(0.0);
        let neighbors: &[usize] = if forward { g.predecessors(v) } else { g.successors(v) };
        for &u in neighbors {
            let out = self.mlp_fast(&self.msg, &h[u]);
            for (mi, o) in m.iter_mut().zip(&out) {
                *mi += o;
            }
        }
        for &(u, s) in virtual_sources {
            let out = self.mlp_fast(&self.msg_sp, &h[u]);
            let inv = 1.0 / s as f32;
            for (mi, o) in m.iter_mut().zip(&out) {
                *mi += inv * o;
            }
        }
        let hv = &h[v];
        let new = self.gru_fast_reference(m, hv);
        h[v] = new;
    }

    /// The pre-blocking scalar GRU step (zero-skip axpy loops), kept as
    /// the measured baseline for `pddl-tensorbench`.
    fn gru_fast_reference(&self, x: &[f32], h: &[f32]) -> Vec<f32> {
        let d = self.cfg.hidden_dim;
        let lin = |w: &Matrix, v: &[f32], acc: &mut [f32]| {
            for (r, &vi) in v.iter().enumerate() {
                if vi == 0.0 {
                    continue;
                }
                for (a, &wij) in acc.iter_mut().zip(w.row(r)) {
                    *a += vi * wij;
                }
            }
        };
        let sigmoid = |t: f32| 1.0 / (1.0 + (-t).exp());

        let mut z = self.ps.get(self.gru.bz).row(0).to_vec();
        lin(self.ps.get(self.gru.wz), x, &mut z);
        lin(self.ps.get(self.gru.uz), h, &mut z);
        for zi in &mut z {
            *zi = sigmoid(*zi);
        }

        let mut r = self.ps.get(self.gru.br).row(0).to_vec();
        lin(self.ps.get(self.gru.wr), x, &mut r);
        lin(self.ps.get(self.gru.ur), h, &mut r);
        for ri in &mut r {
            *ri = sigmoid(*ri);
        }

        let rh: Vec<f32> = r.iter().zip(h).map(|(ri, hi)| ri * hi).collect();
        let mut hh = self.ps.get(self.gru.bh).row(0).to_vec();
        lin(self.ps.get(self.gru.wh), x, &mut hh);
        lin(self.ps.get(self.gru.uh), &rh, &mut hh);
        for hi in &mut hh {
            *hi = hi.tanh();
        }

        (0..d).map(|i| h[i] + z[i] * (hh[i] - h[i])).collect()
    }

    fn fast_update(
        &self,
        g: &CompGraph,
        h: &mut [Vec<f32>],
        m: &mut [f32],
        v: usize,
        forward: bool,
        virtual_sources: &[(usize, u32)],
    ) {
        m.fill(0.0);
        let neighbors: &[usize] = if forward { g.predecessors(v) } else { g.successors(v) };
        // Batch all neighbors through the message MLP in one GEMM chain,
        // then row-sum; same for virtual sources with their 1/s weights.
        if !neighbors.is_empty() {
            let xs = stack_rows(h, neighbors.iter().copied());
            let out = self.mlp_batch(&self.msg, &xs);
            for r in 0..out.rows() {
                for (mi, &o) in m.iter_mut().zip(out.row(r)) {
                    *mi += o;
                }
            }
        }
        if !virtual_sources.is_empty() {
            let xs = stack_rows(h, virtual_sources.iter().map(|&(u, _)| u));
            let out = self.mlp_batch(&self.msg_sp, &xs);
            for (r, &(_, s)) in virtual_sources.iter().enumerate() {
                let inv = 1.0 / s as f32;
                for (mi, &o) in m.iter_mut().zip(out.row(r)) {
                    *mi += inv * o;
                }
            }
        }
        let hv = &h[v];
        let new = self.gru_fast(m, hv);
        h[v] = new;
    }

    /// Batched MLP forward through the fused GEMM epilogues (bias and the
    /// hidden ReLU ride the matmul; no intermediate `x·W` matrices).
    fn mlp_batch(&self, mlp: &Mlp, xs: &Matrix) -> Matrix {
        let last = mlp.layers.len() - 1;
        let mut cur = xs.clone();
        for (i, layer) in mlp.layers.iter().enumerate() {
            let b = self.ps.get(layer.b);
            let act = if i < last { mlp.hidden_act.fused() } else { TensorAct::Identity };
            cur = cur.matmul_bias_act(self.ps.get(layer.w), b, act);
        }
        cur
    }

    /// Raw-matrix MLP forward on a single row.
    fn mlp_fast(&self, mlp: &Mlp, x: &[f32]) -> Vec<f32> {
        let mut cur = x.to_vec();
        let last = mlp.layers.len() - 1;
        for (i, layer) in mlp.layers.iter().enumerate() {
            let w = self.ps.get(layer.w);
            let b = self.ps.get(layer.b);
            let mut out = b.row(0).to_vec();
            for (r, &xi) in cur.iter().enumerate() {
                if xi == 0.0 {
                    continue;
                }
                for (o, &wij) in out.iter_mut().zip(w.row(r)) {
                    *o += xi * wij;
                }
            }
            if i < last {
                for o in &mut out {
                    *o = o.max(0.0); // hidden activation is ReLU
                }
            }
            cur = out;
        }
        cur
    }

    /// Raw GRU step on single rows, mirroring `GruCell::forward`. The gate
    /// products run through [`vecmat_acc`] — unit-stride axpy rows, no
    /// data-dependent branch (the old `vi == 0.0` skip defeated
    /// vectorization and made latency depend on the input's sparsity).
    fn gru_fast(&self, x: &[f32], h: &[f32]) -> Vec<f32> {
        let d = self.cfg.hidden_dim;
        let sigmoid = |t: f32| 1.0 / (1.0 + (-t).exp());

        let mut z = self.ps.get(self.gru.bz).row(0).to_vec();
        vecmat_acc(x, self.ps.get(self.gru.wz), &mut z);
        vecmat_acc(h, self.ps.get(self.gru.uz), &mut z);
        for zi in &mut z {
            *zi = sigmoid(*zi);
        }

        let mut r = self.ps.get(self.gru.br).row(0).to_vec();
        vecmat_acc(x, self.ps.get(self.gru.wr), &mut r);
        vecmat_acc(h, self.ps.get(self.gru.ur), &mut r);
        for ri in &mut r {
            *ri = sigmoid(*ri);
        }

        let rh: Vec<f32> = r.iter().zip(h).map(|(ri, hi)| ri * hi).collect();
        let mut hh = self.ps.get(self.gru.bh).row(0).to_vec();
        vecmat_acc(x, self.ps.get(self.gru.wh), &mut hh);
        vecmat_acc(&rh, self.ps.get(self.gru.uh), &mut hh);
        for hi in &mut hh {
            *hi = hi.tanh();
        }

        (0..d).map(|i| h[i] + z[i] * (hh[i] - h[i])).collect()
    }

    /// Batched GRU step: `x` and `h` are `n×d`; one fused two-operand
    /// affine per gate for all rows at once.
    fn gru_batch(&self, x: &Matrix, h: &Matrix) -> Matrix {
        let mut z = x.matmul_bias(self.ps.get(self.gru.wz), self.ps.get(self.gru.bz));
        h.matmul_acc_act(self.ps.get(self.gru.uz), &mut z, TensorAct::Sigmoid);
        let mut r = x.matmul_bias(self.ps.get(self.gru.wr), self.ps.get(self.gru.br));
        h.matmul_acc_act(self.ps.get(self.gru.ur), &mut r, TensorAct::Sigmoid);
        let rh = r.hadamard(h);
        let mut hh = x.matmul_bias(self.ps.get(self.gru.wh), self.ps.get(self.gru.bh));
        rh.matmul_acc_act(self.ps.get(self.gru.uh), &mut hh, TensorAct::Tanh);

        let mut out = h.clone();
        for ((o, &zi), &hi) in out
            .as_mut_slice()
            .iter_mut()
            .zip(z.as_slice())
            .zip(hh.as_slice())
        {
            *o += zi * (hi - *o);
        }
        out
    }

    /// Fast decoder on a raw embedding (diagnostics / tests).
    pub fn decode_fast(&self, embedding: &[f32]) -> Vec<f32> {
        self.mlp_fast(&self.decoder, embedding)
    }

    /// **Synchronous** (Jacobi-style) embedding: all nodes read the
    /// *previous* sweep's states and update simultaneously, instead of the
    /// paper-faithful sequential (Gauss–Seidel) order that mimics forward/
    /// backward execution. Synchronous sweeps are embarrassingly parallel
    /// and make a useful ablation of how much the execution-order prior
    /// buys; they converge slower per sweep (information travels one hop
    /// per sweep instead of the whole graph).
    pub fn embed_graph_sync(&self, g: &CompGraph, sweeps: usize) -> Vec<f32> {
        let _t = metrics().embed_latency.start_timer();
        let n = g.num_nodes();
        let d = self.cfg.hidden_dim;
        let sched = Schedule::new(g, self.cfg.s_max);
        let feats = Matrix::from_vec(n, features::FEATURE_DIM, one_hot_features(g));
        let mut h = feats.matmul_bias(self.ps.get(self.embed.w), self.ps.get(self.embed.b));

        for sweep in 0..sweeps {
            // Alternate direction per sweep to mirror fw/bw coverage.
            let forward = sweep % 2 == 0;
            // Jacobi: every node reads the previous sweep's states, so each
            // state goes through the message MLPs exactly once per sweep —
            // two n×d batched forwards replace the old per-edge calls.
            let msg_all = self.mlp_batch(&self.msg, &h);
            let msg_sp_all = self.mlp_batch(&self.msg_sp, &h);
            let mut m = Matrix::zeros(n, d);
            for v in 0..n {
                let neighbors: &[usize] =
                    if forward { g.predecessors(v) } else { g.successors(v) };
                let row = m.row_mut(v);
                for &u in neighbors {
                    for (mi, &o) in row.iter_mut().zip(msg_all.row(u)) {
                        *mi += o;
                    }
                }
                let virtuals =
                    if forward { &sched.virtual_fw[v] } else { &sched.virtual_bw[v] };
                for &(u, s) in virtuals {
                    let inv = 1.0 / s as f32;
                    for (mi, &o) in row.iter_mut().zip(msg_sp_all.row(u)) {
                        *mi += inv * o;
                    }
                }
            }
            h = self.gru_batch(&m, &h);
            if self.cfg.normalize {
                for v in 0..n {
                    l2_normalize(h.row_mut(v));
                }
            }
        }
        let mut pooled = vec![0.0f32; d];
        for v in 0..n {
            for (p, &x) in pooled.iter_mut().zip(h.row(v)) {
                *p += x;
            }
        }
        for p in &mut pooled {
            *p /= n as f32;
        }
        pooled
    }
}

/// Stacks the selected state rows into a dense matrix (one GEMM operand).
fn stack_rows(h: &[Vec<f32>], idx: impl ExactSizeIterator<Item = usize>) -> Matrix {
    let rows = idx.len();
    let cols = h[0].len();
    let mut data = Vec::with_capacity(rows * cols);
    for u in idx {
        data.extend_from_slice(&h[u]);
    }
    Matrix::from_vec(rows, cols, data)
}

fn l2_normalize(v: &mut [f32]) {
    let norm = v.iter().map(|x| x * x).sum::<f32>().sqrt().max(1e-6);
    for x in v {
        *x /= norm;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pddl_graph::NodeAttrs;

    fn toy_graph() -> CompGraph {
        let mut g = CompGraph::new("toy");
        let input = g.add_node(OpKind::Input, NodeAttrs::elementwise(3, 16), "in");
        let c1 = g.chain(input, OpKind::Conv, NodeAttrs::conv(3, 8, 3, 1, 16), "c1");
        let r1 = g.chain(c1, OpKind::Relu, NodeAttrs::elementwise(8, 16), "r1");
        let c2 = g.chain(r1, OpKind::Conv, NodeAttrs::conv(8, 8, 3, 1, 16), "c2");
        let s = g.add_node(OpKind::Sum, NodeAttrs::elementwise(8, 16), "s");
        g.add_edge(c2, s);
        g.add_edge(c1, s);
        let _ = g.chain(s, OpKind::Output, NodeAttrs::elementwise(8, 16), "out");
        g
    }

    #[test]
    fn traced_and_fast_paths_agree() {
        let mut rng = Rng::new(7);
        let ghn = Ghn::new(GhnConfig::tiny(), &mut rng);
        let g = toy_graph();
        let sched = Schedule::new(&g, ghn.cfg.s_max);
        let fast = ghn.embed_with_schedule(&g, &sched);
        let mut tape = Tape::new(&ghn.ps);
        let traced = ghn.embed_traced(&mut tape, &g, &sched);
        let tv = tape.value(traced);
        assert_eq!(tv.cols(), fast.len());
        for (a, b) in tv.row(0).iter().zip(&fast) {
            assert!((a - b).abs() < 1e-4, "traced {a} vs fast {b}");
        }
    }

    #[test]
    fn batched_fast_path_matches_scalar_reference() {
        // The GEMM-batched inference path and the per-element scalar loops
        // sum in different orders; they must agree to fp tolerance on
        // every node state that reaches the pooled embedding.
        let mut rng = Rng::new(23);
        let mut cfg = GhnConfig::tiny();
        cfg.t_passes = 2;
        let ghn = Ghn::new(cfg, &mut rng);
        let g = toy_graph();
        let sched = Schedule::new(&g, ghn.cfg.s_max);
        let batched = ghn.embed_with_schedule(&g, &sched);
        let scalar = ghn.embed_with_schedule_reference(&g, &sched);
        assert_eq!(batched.len(), scalar.len());
        for (a, b) in batched.iter().zip(&scalar) {
            assert!((a - b).abs() <= 1e-4, "batched {a} vs scalar {b}");
        }
    }

    #[test]
    fn embed_records_latency_histogram() {
        let mut rng = Rng::new(24);
        let ghn = Ghn::new(GhnConfig::tiny(), &mut rng);
        let _ = ghn.embed_graph(&toy_graph());
        let snap = pddl_telemetry::snapshot();
        let h = snap.histogram("ghn.embed").expect("ghn.embed registered");
        assert!(h.count >= 1);
    }

    #[test]
    fn embedding_has_configured_dimension() {
        let mut rng = Rng::new(8);
        let ghn = Ghn::new(GhnConfig::default(), &mut rng);
        let e = ghn.embed_graph(&toy_graph());
        assert_eq!(e.len(), 32);
        assert!(e.iter().all(|x| x.is_finite()));
    }

    #[test]
    fn different_graphs_get_different_embeddings() {
        let mut rng = Rng::new(9);
        let ghn = Ghn::new(GhnConfig::tiny(), &mut rng);
        let g1 = toy_graph();
        let mut g2 = CompGraph::new("chain");
        let a = g2.add_node(OpKind::Input, NodeAttrs::elementwise(3, 16), "in");
        let b = g2.chain(a, OpKind::Dense, NodeAttrs::dense(768, 10), "fc");
        let _ = g2.chain(b, OpKind::Output, NodeAttrs::elementwise(10, 1), "out");
        let e1 = ghn.embed_graph(&g1);
        let e2 = ghn.embed_graph(&g2);
        let diff: f32 = e1.iter().zip(&e2).map(|(a, b)| (a - b).abs()).sum();
        assert!(diff > 1e-3, "embeddings identical: diff={diff}");
    }

    #[test]
    fn embedding_invariant_to_node_relabeling() {
        // Building the same architecture with different label strings must
        // give the same embedding (features depend on ops/shapes only).
        let mut rng = Rng::new(10);
        let ghn = Ghn::new(GhnConfig::tiny(), &mut rng);
        let g1 = toy_graph();
        let mut g2 = toy_graph();
        // Only labels differ.
        for _ in 0..1 {
            g2 = {
                let mut g = CompGraph::new("renamed");
                let input = g.add_node(OpKind::Input, NodeAttrs::elementwise(3, 16), "x");
                let c1 = g.chain(input, OpKind::Conv, NodeAttrs::conv(3, 8, 3, 1, 16), "y");
                let r1 = g.chain(c1, OpKind::Relu, NodeAttrs::elementwise(8, 16), "z");
                let c2 = g.chain(r1, OpKind::Conv, NodeAttrs::conv(8, 8, 3, 1, 16), "w");
                let s = g.add_node(OpKind::Sum, NodeAttrs::elementwise(8, 16), "v");
                g.add_edge(c2, s);
                g.add_edge(c1, s);
                let _ = g.chain(s, OpKind::Output, NodeAttrs::elementwise(8, 16), "u");
                g
            };
        }
        let e1 = ghn.embed_graph(&g1);
        let e2 = ghn.embed_graph(&g2);
        for (a, b) in e1.iter().zip(&e2) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn normalization_keeps_states_bounded_on_deep_chain() {
        let mut rng = Rng::new(11);
        let mut cfg = GhnConfig::tiny();
        cfg.t_passes = 3;
        let ghn = Ghn::new(cfg, &mut rng);
        // A 60-deep chain would explode without normalization.
        let mut g = CompGraph::new("deep");
        let mut prev = g.add_node(OpKind::Input, NodeAttrs::elementwise(3, 8), "in");
        for i in 0..60 {
            prev = g.chain(prev, OpKind::Conv, NodeAttrs::conv(8, 8, 3, 1, 8), format!("c{i}"));
        }
        let _ = g.chain(prev, OpKind::Output, NodeAttrs::elementwise(8, 8), "out");
        let e = ghn.embed_graph(&g);
        assert!(e.iter().all(|x| x.is_finite() && x.abs() < 10.0), "{e:?}");
    }

    #[test]
    fn synchronous_mode_produces_valid_embeddings() {
        let mut rng = Rng::new(21);
        let ghn = Ghn::new(GhnConfig::tiny(), &mut rng);
        let g = toy_graph();
        let e = ghn.embed_graph_sync(&g, 4);
        assert_eq!(e.len(), GhnConfig::tiny().hidden_dim);
        assert!(e.iter().all(|x| x.is_finite()));
        // Deterministic.
        assert_eq!(e, ghn.embed_graph_sync(&g, 4));
        // Distinguishes graphs.
        let mut g2 = CompGraph::new("other");
        let a = g2.add_node(OpKind::Input, NodeAttrs::elementwise(3, 16), "in");
        let b = g2.chain(a, OpKind::Dense, NodeAttrs::dense(768, 10), "fc");
        let _ = g2.chain(b, OpKind::Output, NodeAttrs::elementwise(10, 1), "out");
        let e2 = ghn.embed_graph_sync(&g2, 4);
        let diff: f32 = e.iter().zip(&e2).map(|(x, y)| (x - y).abs()).sum();
        assert!(diff > 1e-3);
    }

    #[test]
    fn sync_and_sequential_agree_in_direction() {
        // Same weights, different update schedules: embeddings differ but
        // should point the same way (high cosine) on a small graph once
        // enough sweeps have run.
        let mut rng = Rng::new(22);
        let ghn = Ghn::new(GhnConfig::tiny(), &mut rng);
        let g = toy_graph();
        let seq = ghn.embed_graph(&g);
        let syn = ghn.embed_graph_sync(&g, 6);
        let cos = crate::embed::cosine_similarity(&seq, &syn);
        assert!(cos > 0.5, "schedules diverged: cos {cos}");
    }

    #[test]
    fn decoder_targets_are_bounded() {
        let t = decoder_targets(&toy_graph());
        assert_eq!(t.len(), TARGET_DIM);
        assert!(t.iter().all(|x| x.abs() < 5.0), "{t:?}");
    }

    #[test]
    fn decode_fast_dimension() {
        let mut rng = Rng::new(12);
        let ghn = Ghn::new(GhnConfig::tiny(), &mut rng);
        let e = ghn.embed_graph(&toy_graph());
        let d = ghn.decode_fast(&e);
        assert_eq!(d.len(), TARGET_DIM);
    }
}
