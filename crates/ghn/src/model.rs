//! The GHN-2 network: embedding layer → GatedGNN → readout → decoder.
//!
//! Two execution paths share one set of weights:
//! * [`Ghn::embed_traced`] records onto an autodiff [`Tape`] for
//!   meta-training;
//! * [`Ghn::embed_graph`] is the inference path used by the PredictDDL
//!   Embeddings Generator (no tape, one message per node per sweep).
//!
//! Unit tests assert both paths produce the same embeddings.

use crate::config::GhnConfig;
use pddl_autodiff::{layers::Activation, GruCell, Linear, Mlp, ParamStore, Tape, Var};
use pddl_graph::{features, one_hot_features, virtual_edges, CompGraph, OpKind};
use pddl_tensor::{vecmat_acc, vecmat_bias_act, Activation as TensorAct, Matrix, Rng};
use pddl_telemetry::json::{FromJson, JsonError, JsonValue, JsonWriter, ToJson};
use std::sync::OnceLock;

/// The `ghn.embed` histogram, resolved once: a sample per inference embed.
fn embed_latency() -> &'static pddl_telemetry::Histogram {
    static H: OnceLock<&'static pddl_telemetry::Histogram> = OnceLock::new();
    H.get_or_init(|| pddl_telemetry::histogram("ghn.embed"))
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

/// Per-graph propagation schedule: topological order plus virtual-edge
/// source lists in both directions, each ascending by source id — the
/// order messages are summed in, and so part of the embedding's bits.
pub struct Schedule {
    topo: Vec<usize>,
    virtual_fw: Vec<Vec<(usize, u32)>>,
    virtual_bw: Vec<Vec<(usize, u32)>>,
}

impl Schedule {
    pub fn new(g: &CompGraph, s_max: u32) -> Self {
        let topo = g.topo_order().expect("GHN requires an acyclic computational graph");
        let [virtual_fw, virtual_bw] = virtual_edges(g, s_max);
        Self { topo, virtual_fw, virtual_bw }
    }

    /// Node ids in topological order: the forward sweep.
    pub fn topo(&self) -> &[usize] {
        &self.topo
    }

    /// `(u, s_vu)` with `1 < s(u→v) ≤ s_max`.
    pub fn virtual_fw(&self, v: usize) -> &[(usize, u32)] {
        &self.virtual_fw[v]
    }

    /// `(u, s_vu)` over the reversed graph.
    pub fn virtual_bw(&self, v: usize) -> &[(usize, u32)] {
        &self.virtual_bw[v]
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
        // Per node, its `msg` and `msg_sp` message of the current state.
        let mut messages: Vec<[Option<Var>; 2]> = vec![[None; 2]; n];

        for _t in 0..self.cfg.t_passes {
            // π = fw: traverse topologically; neighbors = predecessors.
            for &v in sched.topo() {
                let (neighbors, virtuals) = (g.predecessors(v), sched.virtual_fw(v));
                self.update_node(tape, &mut h, &mut messages, v, neighbors, virtuals);
            }
            // π = bw: reverse order; neighbors = successors.
            for &v in sched.topo().iter().rev() {
                let (neighbors, virtuals) = (g.successors(v), sched.virtual_bw(v));
                self.update_node(tape, &mut h, &mut messages, v, neighbors, virtuals);
            }
            if self.cfg.normalize {
                for hv in h.iter_mut() {
                    *hv = tape.row_l2_norm(*hv);
                }
                messages.fill([None; 2]);
            }
        }
        h
    }

    /// One sequential node update: Eq. (4) message + GRU state transition.
    /// A source's message is recorded once, by the first reader to ask
    /// after the source's state last changed, and shared by the readers
    /// that follow: the value each reads is the same function of the same
    /// `h[u]`, and their gradients meet in the shared `Var`'s slot before
    /// one backward pass through the MLP.
    fn update_node(
        &self,
        tape: &mut Tape,
        h: &mut [Var],
        messages: &mut [[Option<Var>; 2]],
        v: usize,
        neighbors: &[usize],
        virtual_sources: &[(usize, u32)],
    ) {
        let mut parts: Vec<(Var, f32)> =
            Vec::with_capacity(neighbors.len() + virtual_sources.len());
        for &u in neighbors {
            let m = *messages[u][0].get_or_insert_with(|| self.msg.forward(tape, h[u]));
            parts.push((m, 1.0));
        }
        for &(u, s) in virtual_sources {
            let m = *messages[u][1].get_or_insert_with(|| self.msg_sp.forward(tape, h[u]));
            parts.push((m, 1.0 / s as f32));
        }
        let m_v = if parts.is_empty() {
            tape.constant(Matrix::zeros(1, self.cfg.hidden_dim))
        } else {
            tape.weighted_sum(&parts)
        };
        h[v] = self.gru.forward(tape, m_v, h[v]);
        messages[v] = [None; 2];
    }

    /// Traced decoder output (1×TARGET_DIM) for the meta-training loss.
    pub fn decode_traced(&self, tape: &mut Tape, embedding: Var) -> Var {
        self.decoder.forward(tape, embedding)
    }

    // ------------------------------------------------------------------
    // Fast path (inference)
    // ------------------------------------------------------------------

    /// Computes the architecture embedding without recording a tape. One
    /// `ghn.embed` sample per call, schedule included.
    pub fn embed_graph(&self, g: &CompGraph) -> Vec<f32> {
        let _t = embed_latency().start_timer();
        self.embed(g, &Schedule::new(g, self.cfg.s_max))
    }

    /// [`Self::embed_graph`] with a precomputed schedule (one `ghn.embed`
    /// sample of its own).
    pub fn embed_with_schedule(&self, g: &CompGraph, sched: &Schedule) -> Vec<f32> {
        let _t = embed_latency().start_timer();
        self.embed(g, sched)
    }

    /// The inference embed. Node updates stay in the paper's sequential
    /// (Gauss–Seidel) order, and each node's two messages are computed
    /// once, right after its update: whoever reads them in the same sweep
    /// comes later in that sweep's order (predecessors and ≤ `s_max`-hop
    /// ancestors forward, successors and descendants backward), and the
    /// next sweep overwrites them before it reads them. A reader only sums
    /// rows — neighbours in adjacency order, then virtual sources by id.
    ///
    /// Weights that multiply the same row sit side by side in the
    /// workspace — `[Wz|Wr|Wh]`, `[Uz|Ur]` and the two message MLPs' first
    /// layers — so a node update is five wide row products, not ten narrow
    /// ones. A column's multiply-adds run in the same order wherever it
    /// sits, so the bits are those of the separate products (for widths
    /// that are a multiple of the SIMD lane count, as every shipped
    /// configuration's are). Packed per call: training mutates `ps`
    /// between calls, and a copy made here cannot go stale.
    fn embed(&self, g: &CompGraph, sched: &Schedule) -> Vec<f32> {
        let (n, d, mlp_hidden) = (g.num_nodes(), self.cfg.hidden_dim, self.cfg.mlp_hidden);
        let (ps, gru) = (&self.ps, &self.gru);
        let ([msg_in, msg_out], [sp_in, sp_out]) = (self.msg.layers.as_slice(), self.msg_sp.layers.as_slice())
        else {
            panic!("message MLPs are [d, mlp_hidden, d]");
        };
        assert_eq!(self.msg.hidden_act, self.msg_sp.hidden_act, "message MLPs share one hidden activation");
        let hidden_act = self.msg.hidden_act.fused();

        // All a call needs, in one buffer: the states and the two message
        // tables, the rows of one node update, the packed weights and biases.
        let (wide, hid2) = (3 * d, 2 * mlp_hidden);
        let sizes = [n * d, n * d, n * d, d, wide, hid2, d * wide, wide, d * 2 * d, d * hid2, hid2];
        let mut workspace = vec![0.0f32; sizes.iter().sum()];
        let mut rest = workspace.as_mut_slice();
        let [h, msg, msg_sp, m, gates, hid, wx, bx, uzr, w_in, b_in] = sizes.map(|len| {
            let (head, tail) = std::mem::take(&mut rest).split_at_mut(len);
            rest = tail;
            head
        });
        Matrix::hstack_into(&[ps.get(gru.wz), ps.get(gru.wr), ps.get(gru.wh)], wx);
        Matrix::hstack_into(&[ps.get(gru.bz), ps.get(gru.br), ps.get(gru.bh)], bx);
        Matrix::hstack_into(&[ps.get(gru.uz), ps.get(gru.ur)], uzr);
        Matrix::hstack_into(&[ps.get(msg_in.w), ps.get(sp_in.w)], w_in);
        Matrix::hstack_into(&[ps.get(msg_in.b), ps.get(sp_in.b)], b_in);
        let (wx, bx, uzr, w_in, b_in) = (&*wx, &*bx, &*uzr, &*w_in, &*b_in);
        let uh = ps.get(gru.uh).as_slice();
        let (msg_w, msg_b) = (ps.get(msg_out.w).as_slice(), ps.get(msg_out.b).as_slice());
        let (sp_w, sp_b) = (ps.get(sp_out.w).as_slice(), ps.get(sp_out.b).as_slice());

        // h1 = feats · W + b, row by row on this thread: a request never
        // fans out over the pool, whatever the size of its graph.
        let (w, b) = (ps.get(self.embed.w).as_slice(), ps.get(self.embed.b).as_slice());
        let feats = one_hot_features(g);
        for (x, hv) in feats.chunks_exact(features::FEATURE_DIM).zip(h.chunks_exact_mut(d)) {
            vecmat_bias_act(x, w, b, TensorAct::Identity, hv);
        }

        for _t in 0..self.cfg.t_passes {
            let mut update = |v: usize, neighbors: &[usize], virtuals: &[(usize, u32)]| {
                m.fill(0.0);
                for &u in neighbors {
                    for (mi, &o) in m.iter_mut().zip(&msg[u * d..(u + 1) * d]) {
                        *mi += o;
                    }
                }
                for &(u, s) in virtuals {
                    let inv = 1.0 / s as f32;
                    for (mi, &o) in m.iter_mut().zip(&msg_sp[u * d..(u + 1) * d]) {
                        *mi += inv * o;
                    }
                }
                // GRU step `h ← GRU(m, h)` in place, mirroring
                // `GruCell::forward`: each gate starts from its bias and
                // accumulates first its `m` product, then its state product.
                let hv = &mut h[v * d..(v + 1) * d];
                gates.copy_from_slice(bx);
                vecmat_acc(m, wx, gates);
                let (zr, hh) = gates.split_at_mut(2 * d);
                vecmat_acc(hv, uzr, zr);
                TensorAct::Sigmoid.apply_row(zr);
                let (z, r) = zr.split_at_mut(d);
                for (ri, &hi) in r.iter_mut().zip(hv.iter()) {
                    *ri *= hi;
                }
                vecmat_acc(r, uh, hh);
                TensorAct::Tanh.apply_row(hh);
                for ((hi, &zi), &hhi) in hv.iter_mut().zip(z.iter()).zip(hh.iter()) {
                    *hi += zi * (hhi - *hi);
                }
                // Both message MLPs on the new state.
                vecmat_bias_act(hv, w_in, b_in, hidden_act, hid);
                let (hid_msg, hid_sp) = hid.split_at(mlp_hidden);
                vecmat_bias_act(hid_msg, msg_w, msg_b, TensorAct::Identity, &mut msg[v * d..(v + 1) * d]);
                vecmat_bias_act(hid_sp, sp_w, sp_b, TensorAct::Identity, &mut msg_sp[v * d..(v + 1) * d]);
            };
            for &v in sched.topo() {
                update(v, g.predecessors(v), sched.virtual_fw(v));
            }
            for &v in sched.topo().iter().rev() {
                update(v, g.successors(v), sched.virtual_bw(v));
            }
            if self.cfg.normalize {
                h.chunks_exact_mut(d).for_each(l2_normalize);
            }
        }
        // The row products above, as `gemm` counts them: the embedding
        // layer once, then two MLPs of two layers per node update.
        let updates = 2 * self.cfg.t_passes * n;
        let flops = 2 * n * features::FEATURE_DIM * d + updates * 8 * d * mlp_hidden;
        pddl_tensor::gemm::record_products(1 + 4 * updates as u64, flops as u64);

        mean_pool(h.chunks_exact(d), d)
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

    /// Fast decoder on a raw embedding (diagnostics / tests).
    pub fn decode_fast(&self, embedding: &[f32]) -> Vec<f32> {
        self.mlp_fast(&self.decoder, embedding)
    }
}

/// Mean of the node states: the pooled embedding.
fn mean_pool<'a>(states: impl ExactSizeIterator<Item = &'a [f32]>, d: usize) -> Vec<f32> {
    let n = states.len();
    let mut pooled = vec![0.0f32; d];
    for hv in states {
        for (p, &x) in pooled.iter_mut().zip(hv) {
            *p += x;
        }
    }
    for p in &mut pooled {
        *p /= n as f32;
    }
    pooled
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

    /// The embed this core replaced, kept as its oracle: every message is
    /// recomputed for every edge from the current `h` (no memo to go
    /// stale), a node's sources stacked and pushed through the batched
    /// GEMM entry points — the blocked microkernel from 16 rows up.
    fn embed_per_edge(ghn: &Ghn, g: &CompGraph, sched: &Schedule) -> Vec<f32> {
        let (n, d) = (g.num_nodes(), ghn.cfg.hidden_dim);
        let feats = Matrix::from_vec(n, features::FEATURE_DIM, one_hot_features(g));
        let mut h = feats
            .matmul(ghn.ps.get(ghn.embed.w))
            .add_row_broadcast(ghn.ps.get(ghn.embed.b));
        let messages = |mlp: &Mlp, h: &Matrix, sources: Vec<usize>| {
            let last = mlp.layers.len() - 1;
            let mut cur = h.gather_rows(&sources);
            for (i, layer) in mlp.layers.iter().enumerate() {
                let act = if i < last { mlp.hidden_act.fused() } else { TensorAct::Identity };
                cur = cur.matmul_bias_act(ghn.ps.get(layer.w), ghn.ps.get(layer.b), act);
            }
            cur
        };
        let mut gates = vec![0.0f32; 3 * d];
        for _ in 0..ghn.cfg.t_passes {
            for forward in [true, false] {
                let mut order = sched.topo().to_vec();
                if !forward {
                    order.reverse();
                }
                for v in order {
                    let (neighbors, virtuals) = if forward {
                        (g.predecessors(v), sched.virtual_fw(v))
                    } else {
                        (g.successors(v), sched.virtual_bw(v))
                    };
                    let mut m = vec![0.0f32; d];
                    let out = messages(&ghn.msg, &h, neighbors.to_vec());
                    for r in 0..out.rows() {
                        for (mi, &o) in m.iter_mut().zip(out.row(r)) {
                            *mi += o;
                        }
                    }
                    let out = messages(&ghn.msg_sp, &h, virtuals.iter().map(|&(u, _)| u).collect());
                    for (r, &(_, s)) in virtuals.iter().enumerate() {
                        let inv = 1.0 / s as f32;
                        for (mi, &o) in m.iter_mut().zip(out.row(r)) {
                            *mi += inv * o;
                        }
                    }
                    ghn.gru_row(&m, h.row_mut(v), &mut gates);
                }
            }
            if ghn.cfg.normalize {
                for v in 0..n {
                    l2_normalize(h.row_mut(v));
                }
            }
        }
        mean_pool(h.as_slice().chunks_exact(d), d)
    }

    impl Ghn {
        /// The GRU step of [`Ghn::embed`] from the unpacked matrices, gate
        /// by gate, for the per-edge oracle. `gates` holds the three gate
        /// rows (3·d).
        fn gru_row(&self, x: &[f32], h: &mut [f32], gates: &mut [f32]) {
            let gru = &self.gru;
            let d = h.len();
            let (z, rest) = gates.split_at_mut(d);
            let (r, hh) = rest.split_at_mut(d);
            let gate = |out: &mut [f32], b, w, u, state: &[f32], act: TensorAct| {
                out.copy_from_slice(self.ps.get(b).row(0));
                vecmat_acc(x, self.ps.get(w).as_slice(), out);
                vecmat_acc(state, self.ps.get(u).as_slice(), out);
                for o in out {
                    *o = act.apply(*o);
                }
            };
            gate(z, gru.bz, gru.wz, gru.uz, h, TensorAct::Sigmoid);
            gate(r, gru.br, gru.wr, gru.ur, h, TensorAct::Sigmoid);
            for (ri, &hi) in r.iter_mut().zip(h.iter()) {
                *ri *= hi;
            }
            gate(hh, gru.bh, gru.wh, gru.uh, r, TensorAct::Tanh);
            for ((hi, &zi), &hhi) in h.iter_mut().zip(z.iter()).zip(hh.iter()) {
                *hi += zi * (hhi - *hi);
            }
        }

        /// Scalar (unbatched, unblocked) embedding, the ≤ 1e-4 oracle. Follows
        /// the exact sequential schedule of [`Ghn::embed_with_schedule`] but
        /// pushes every row through the per-element `mlp_fast` loops.
        fn embed_with_schedule_reference(&self, g: &CompGraph, sched: &Schedule) -> Vec<f32> {
            let n = g.num_nodes();
            let d = self.cfg.hidden_dim;
            let feats = Matrix::from_vec(n, features::FEATURE_DIM, one_hot_features(g));
            let w = self.ps.get(self.embed.w);
            let b = self.ps.get(self.embed.b);
            let h1 = feats.matmul_reference(w).add_row_broadcast(b);
            let mut h: Vec<Vec<f32>> = (0..n).map(|v| h1.row(v).to_vec()).collect();
            let mut m = vec![0.0f32; d];
            for _t in 0..self.cfg.t_passes {
                for &v in sched.topo() {
                    self.fast_update_reference(g, &mut h, &mut m, v, true, sched.virtual_fw(v));
                }
                for &v in sched.topo().iter().rev() {
                    self.fast_update_reference(g, &mut h, &mut m, v, false, sched.virtual_bw(v));
                }
                if self.cfg.normalize {
                    for hv in h.iter_mut() {
                        l2_normalize(hv);
                    }
                }
            }
            mean_pool(h.iter().map(Vec::as_slice), d)
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

        /// The pre-blocking scalar GRU step (zero-skip axpy loops).
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
    }

    /// Memo ≡ per-edge recompute by bits, and ≤ 1e-4 from the scalar
    /// reference. Returns the graph's largest virtual fan-in.
    fn check_against_oracles(ghn: &Ghn, g: &CompGraph) -> usize {
        let sched = Schedule::new(g, ghn.cfg.s_max);
        let memo = ghn.embed_with_schedule(g, &sched);
        let per_edge = embed_per_edge(ghn, g, &sched);
        assert!(
            memo.iter().map(|x| x.to_bits()).eq(per_edge.iter().map(|x| x.to_bits())),
            "{}: memoised {memo:?} vs per-edge {per_edge:?}",
            g.name
        );
        let scalar = ghn.embed_with_schedule_reference(g, &sched);
        for (a, b) in memo.iter().zip(&scalar) {
            assert!((a - b).abs() <= 1e-4, "{}: memoised {a} vs scalar {b}", g.name);
        }
        (0..g.num_nodes())
            .map(|v| sched.virtual_fw(v).len().max(sched.virtual_bw(v).len()))
            .max()
            .unwrap_or(0)
    }

    #[test]
    fn memoised_messages_equal_per_edge_recompute_bit_for_bit() {
        let synth = crate::SynthGenerator::new(pddl_zoo::CIFAR10, 3).sample_many(64);
        let ghn = Ghn::new(GhnConfig::default(), &mut Rng::new(31));
        let mut widest = 0;
        for ds in pddl_zoo::dataset::ALL_DATASETS {
            for name in pddl_zoo::model_names() {
                let g = pddl_zoo::build_model(name, ds).expect("zoo model");
                widest = widest.max(check_against_oracles(&ghn, &g));
            }
        }
        for g in &synth {
            check_against_oracles(&ghn, g);
        }
        // From 16 sources up the per-edge oracle's batch takes the blocked
        // microkernel, not the row kernel the memo was computed with.
        assert!(widest >= 16, "widest virtual fan-in in the zoo is {widest}");

        // Two rounds: the states are normalised between them, so a message
        // kept from the first round would be stale in the second.
        let cfg = GhnConfig { t_passes: 2, ..GhnConfig::default() };
        let ghn = Ghn::new(cfg, &mut Rng::new(32));
        let deep = pddl_zoo::build_model("densenet121", &pddl_zoo::CIFAR10).expect("zoo model");
        for g in synth.iter().chain([&deep]) {
            check_against_oracles(&ghn, g);
        }
    }

    /// The traced embed [`Ghn::embed_traced`] replaced, kept as its oracle:
    /// a message MLP recorded for every edge from the current `h` (nothing
    /// shared, so nothing to go stale), summed by a `scale` / `add` chain.
    fn embed_traced_per_edge(ghn: &Ghn, tape: &mut Tape, g: &CompGraph, sched: &Schedule) -> Var {
        let n = g.num_nodes();
        let feats = Matrix::from_vec(n, features::FEATURE_DIM, one_hot_features(g));
        let h0 = tape.constant(feats);
        let h1 = ghn.embed.forward(tape, h0);
        let mut h: Vec<Var> = (0..n).map(|v| tape.slice_rows(h1, v, v + 1)).collect();
        for _ in 0..ghn.cfg.t_passes {
            for forward in [true, false] {
                let mut order = sched.topo().to_vec();
                if !forward {
                    order.reverse();
                }
                for v in order {
                    let (neighbors, virtuals) = if forward {
                        (g.predecessors(v), sched.virtual_fw(v))
                    } else {
                        (g.successors(v), sched.virtual_bw(v))
                    };
                    let mut parts: Vec<Var> = Vec::new();
                    for &u in neighbors {
                        parts.push(ghn.msg.forward(tape, h[u]));
                    }
                    for &(u, s) in virtuals {
                        let m = ghn.msg_sp.forward(tape, h[u]);
                        parts.push(tape.scale(m, 1.0 / s as f32));
                    }
                    let m_v = match parts.split_first() {
                        None => tape.constant(Matrix::zeros(1, ghn.cfg.hidden_dim)),
                        Some((&first, rest)) => rest.iter().fold(first, |acc, &p| tape.add(acc, p)),
                    };
                    h[v] = ghn.gru.forward(tape, m_v, h[v]);
                }
            }
            if ghn.cfg.normalize {
                for hv in h.iter_mut() {
                    *hv = tape.row_l2_norm(*hv);
                }
            }
        }
        let all = tape.concat_rows(&h);
        tape.mean_rows(all)
    }

    /// The meta-training loss of one graph from its traced embedding.
    fn decoder_loss(ghn: &Ghn, tape: &mut Tape, g: &CompGraph, emb: Var) -> Var {
        let pred = ghn.decode_traced(tape, emb);
        let target = tape.constant(Matrix::from_vec(1, TARGET_DIM, decoder_targets(g)));
        tape.mse_loss(pred, target)
    }

    /// That loss and its gradients, through either embed.
    fn traced_loss(
        ghn: &Ghn,
        g: &CompGraph,
        embed: impl Fn(&mut Tape, &Schedule) -> Var,
    ) -> (f32, pddl_autodiff::Gradients) {
        let sched = Schedule::new(g, ghn.cfg.s_max);
        let mut tape = Tape::new(&ghn.ps);
        let emb = embed(&mut tape, &sched);
        let loss = decoder_loss(ghn, &mut tape, g, emb);
        (tape.scalar(loss), tape.backward(loss))
    }

    #[test]
    fn memoised_traced_messages_equal_per_edge_recording() {
        let mut graphs = crate::SynthGenerator::new(pddl_zoo::CIFAR10, 3).sample_many(64);
        for name in ["densenet121", "resnet18"] {
            graphs.push(pddl_zoo::build_model(name, &pddl_zoo::CIFAR10).expect("zoo model"));
        }
        let bits = |m: &Matrix| m.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        // Two rounds: the states are normalised between them, so a message
        // kept from the first round would be stale in the second.
        for t_passes in [1, 2] {
            let cfg = GhnConfig { t_passes, ..GhnConfig::default() };
            let ghn = Ghn::new(cfg, &mut Rng::new(33));
            let decoder: Vec<_> = ghn.decoder.layers.iter().flat_map(|l| [l.w, l.b]).collect();
            for g in &graphs {
                let (loss, memo) = traced_loss(&ghn, g, |tape, s| ghn.embed_traced(tape, g, s));
                let (want, per_edge) =
                    traced_loss(&ghn, g, |tape, s| embed_traced_per_edge(&ghn, tape, g, s));
                // The forward pass is the same function of the same bits …
                assert_eq!(loss.to_bits(), want.to_bits(), "{}: loss {loss} vs {want}", g.name);
                for id in ghn.ps.ids() {
                    let a = memo.get(id).expect("every parameter is reached");
                    let b = per_edge.get(id).expect("every parameter is reached");
                    if decoder.contains(&id) {
                        // … so what sits above the shared messages is too.
                        assert_eq!(bits(a), bits(b), "{}: {}", g.name, ghn.ps.name(id));
                    }
                    // Below them the readers' gradients are summed before
                    // the MLP's backward instead of after: same sum, other
                    // association.
                    let diff = (a - b).sq_norm().sqrt();
                    let rel = diff / b.sq_norm().sqrt().max(f32::MIN_POSITIVE);
                    let name = ghn.ps.name(id);
                    assert!(rel <= 1e-5, "{} T={t_passes}: {name} off by {rel}", g.name);
                }
            }
        }
    }

    #[test]
    fn whole_loss_gradient_matches_finite_differences_with_shared_sources() {
        // In the toy graph `in` is a virtual source of r1, c2, s and out,
        // and c1 feeds both r1 and s: every message is read more than once.
        let g = toy_graph();
        let cfg = GhnConfig { t_passes: 2, ..GhnConfig::tiny() };
        let ghn = Ghn::new(cfg, &mut Rng::new(34));
        let sched = Schedule::new(&g, cfg.s_max);
        let reads_input = |v: usize| sched.virtual_fw(v).iter().any(|&(u, _)| u == 0);
        assert!((0..g.num_nodes()).filter(|&v| reads_input(v)).count() >= 3);
        let mut ps = ghn.ps.clone();
        // The states are small at initialisation and normalised after every
        // round: too much curvature for the default step of 1e-2.
        let err = pddl_autodiff::gradient_check_with_step(
            &mut ps,
            |tape| {
                let emb = ghn.embed_traced(tape, &g, &sched);
                decoder_loss(&ghn, tape, &g, emb)
            },
            6,
            1e-3,
        );
        assert!(err < 2e-2, "gradcheck err={err}");
    }

    #[test]
    fn batched_fast_path_matches_scalar_reference() {
        // The inference path and the per-element scalar loops round
        // differently (FMA, zero-skip); they must agree to fp tolerance
        // on every node state that reaches the pooled embedding.
        let mut rng = Rng::new(23);
        let mut cfg = GhnConfig::tiny();
        cfg.t_passes = 2;
        let ghn = Ghn::new(cfg, &mut rng);
        check_against_oracles(&ghn, &toy_graph());
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
