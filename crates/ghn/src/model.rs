//! The GHN-2 network: embedding layer → GatedGNN → readout → decoder,
//! split where PredictDDL cuts it. [`GhnEncoder`] is everything up to the
//! readout, the pooled embedding a prediction reads; [`Ghn`] adds the
//! decoder head meta-training fits, and hands back its encoder to serve.
//!
//! The GatedGNN's message passing is written once, as one sweep generic
//! over a crate-private backend that holds the node states and runs the
//! three steps the sweep asks for: make a message, fold a node's messages
//! into its GRU update, normalise. Two backends share one set of weights:
//! * `Var` rows on an autodiff [`Tape`] — [`Ghn::embed_traced`], for
//!   meta-training;
//! * f32 rows in one per-call workspace — [`GhnEncoder::embed_graph`], the
//!   inference path used by the PredictDDL Embeddings Generator.
//!
//! The sweep alone decides the schedule, the message memo and the order
//! of every sum. Unit tests hold the two backends to 1e-4 of each other,
//! and each to the oracles it replaced.

use crate::config::GhnConfig;
use pddl_autodiff::{GruCell, Linear, Mlp, ParamStore, Tape, Var};
use pddl_graph::{features, one_hot_features, virtual_edges, CompGraph, OpKind};
use pddl_tensor::{vecmat_acc, vecmat_bias_act, Activation, Matrix, Rng};
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

/// The served GHN-2: the embedding layer and the GatedGNN's message MLPs
/// and GRU, all weights in the owned [`ParamStore`]. Everything a
/// prediction reads and nothing only meta-training needs: PredictDDL
/// serves the pooled pre-decoder state, so the decoder head stays on the
/// trainable [`Ghn`]. Checkpointed as `{"cfg","ps"}`: the layers are what
/// `GhnEncoder::new` builds for `cfg`.
#[derive(Clone)]
pub struct GhnEncoder {
    pub cfg: GhnConfig,
    pub ps: ParamStore,
    embed: Linear,
    msg: Mlp,
    msg_sp: Mlp,
    gru: GruCell,
}

impl std::fmt::Debug for GhnEncoder {
    /// The config, not the weights.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GhnEncoder").field("cfg", &self.cfg).finish_non_exhaustive()
    }
}

impl ToJson for GhnEncoder {
    fn write_json(&self, w: &mut JsonWriter) {
        w.object().field("cfg", &self.cfg).field("ps", &self.ps).end();
    }
}

impl FromJson for GhnEncoder {
    /// Reads format 3 and, through the same path, formats 1 and 2, whose
    /// `embed`/`msg`/`msg_sp`/`gru` members repeat what `cfg` and `ps`
    /// say and are ignored like any unknown member, as is format 1's
    /// `decoder`. What they could say differently is refused by name: a
    /// `cfg.normalize` other than `true` (the states are always
    /// normalised) and a message-MLP activation other than `Relu`.
    fn read_json(v: &JsonValue) -> Result<Self, JsonError> {
        let o = v.fields()?;
        let normalize = o.get("cfg").and_then(|cfg| cfg.get("normalize"));
        if let Some(off) = normalize.filter(|n| n.as_bool() != Some(true)).map(JsonValue::to_json) {
            return Err(JsonError::Shape(format!("cfg: normalize: {off} is not supported, states are always normalised")));
        }
        for key in ["msg", "msg_sp"] {
            let act = o.get(key).and_then(|mlp| mlp.get("hidden_act"));
            if let Some(act) = act.filter(|a| a.as_str() != Some("Relu")).map(JsonValue::to_json) {
                return Err(JsonError::Shape(format!("{key}: hidden_act: {act} is not supported, messages are Relu")));
            }
        }
        let (cfg, stored): (GhnConfig, ParamStore) = (o.field("cfg")?, o.field("ps")?);
        Self::restore(cfg, stored).map_err(|e| JsonError::Shape(format!("ps: {e}")))
    }
}

impl GhnEncoder {
    /// A fresh encoder: the embedding layer, the two message MLPs and the
    /// GRU, registered in that order under `ghn.*`.
    fn new(cfg: GhnConfig, rng: &mut Rng) -> Self {
        let mut ps = ParamStore::new();
        let d = cfg.hidden_dim;
        let embed = Linear::new(&mut ps, "ghn.embed", features::FEATURE_DIM, d, rng);
        let msg = Mlp::new(&mut ps, "ghn.msg", [d, cfg.mlp_hidden, d], Activation::Relu, rng);
        let msg_sp = Mlp::new(&mut ps, "ghn.msg_sp", [d, cfg.mlp_hidden, d], Activation::Relu, rng);
        let gru = GruCell::new(&mut ps, "ghn.gru", d, d, rng);
        Self { cfg, ps, embed, msg, msg_sp, gru }
    }

    /// The encoder `cfg` describes with its weights taken from `stored` by
    /// name — the one way a served encoder gets its weights, from a
    /// checkpoint or from [`Ghn::into_encoder`]. `stored` may go on past
    /// the encoder's parameters with the decoder's, which are dropped.
    fn restore(cfg: GhnConfig, stored: ParamStore) -> Result<Self, String> {
        // Any seed: `load` replaces every value the constructor draws.
        let mut enc = Self::new(cfg, &mut Rng::new(0));
        match enc.ps.load(stored)?.iter().find(|name| !name.starts_with("ghn.decoder.")) {
            Some(name) => Err(format!("parameter `{name}` follows the encoder's")),
            None => Ok(enc),
        }
    }

    /// Embedding dimensionality.
    pub fn embed_dim(&self) -> usize {
        self.cfg.hidden_dim
    }

    /// The GatedGNN (Eq. (3)/(4)) on backend `b`'s states: `t_passes`
    /// rounds of a forward sweep in topological order (neighbours are the
    /// predecessors, virtual sources `virtual_fw`) and a backward sweep in
    /// reverse (successors, `virtual_bw`), each followed by an
    /// L2-normalisation of every state. Node updates are sequential
    /// (Gauss–Seidel): a node's message sum is its neighbours' `msg` in
    /// adjacency order, then its virtual sources' `msg_sp` by id, weighted
    /// `1/s`; the GRU folds it into the state.
    ///
    /// The message memo: a source's message is made by the first reader
    /// after the source's state last changed and shared by the readers
    /// that follow, which read the same function of the same `h[u]`. Its
    /// GRU update and a normalisation drop it. On the tape the readers'
    /// gradients meet in the shared `Var`'s slot before one backward pass
    /// through the MLP.
    fn sweep<B: Backend>(&self, b: &mut B, g: &CompGraph, sched: &Schedule) {
        let mut memo: Vec<[Option<B::Msg>; 2]> = vec![[None; 2]; g.num_nodes()];
        for _t in 0..self.cfg.t_passes {
            let fw = sched.topo().iter().map(|&v| (v, g.predecessors(v), sched.virtual_fw(v)));
            let bw = sched.topo().iter().rev().map(|&v| (v, g.successors(v), sched.virtual_bw(v)));
            for (v, neighbors, virtuals) in fw.chain(bw) {
                let virtual_sources = virtuals.iter().map(|&(u, s)| (u, 1, 1.0 / s as f32));
                for (u, k, weight) in neighbors.iter().map(|&u| (u, 0, 1.0)).chain(virtual_sources) {
                    let m = memo[u][k].unwrap_or_else(|| b.message(k, u, &mut memo[u]));
                    b.gather(k, u, m, weight);
                }
                b.update(v);
                memo[v] = [None; 2];
            }
            b.normalize();
            memo.fill([None; 2]);
        }
    }

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

    /// The inference embed: the sweep over [`F32Rows`] — the states, the
    /// message table, the rows of one node update and the packed weights,
    /// carved from one per-call workspace — then the mean of the states.
    /// Packed per call: training mutates `ps` between calls, and a copy
    /// made here cannot go stale.
    fn embed(&self, g: &CompGraph, sched: &Schedule) -> Vec<f32> {
        let (n, d, hid2) = (g.num_nodes(), self.cfg.hidden_dim, 2 * self.cfg.mlp_hidden);
        let (ps, gru) = (&self.ps, &self.gru);
        let sizes = [n * d, 2 * n * d, d, 3 * d, hid2, d * 3 * d, 3 * d, d * 2 * d, d * hid2, hid2];
        let mut workspace = vec![0.0f32; sizes.iter().sum()];
        let mut rest = workspace.as_mut_slice();
        let [h, msgs, m, gates, hid, wx, bx, uzr, w_in, b_in] = sizes.map(|len| {
            let (head, tail) = std::mem::take(&mut rest).split_at_mut(len);
            rest = tail;
            head
        });
        let [msg, sp] = [&self.msg.layers, &self.msg_sp.layers];
        Matrix::hstack_into(&[ps.get(gru.wz), ps.get(gru.wr), ps.get(gru.wh)], wx);
        Matrix::hstack_into(&[ps.get(gru.bz), ps.get(gru.br), ps.get(gru.bh)], bx);
        Matrix::hstack_into(&[ps.get(gru.uz), ps.get(gru.ur)], uzr);
        Matrix::hstack_into(&[ps.get(msg[0].w), ps.get(sp[0].w)], w_in);
        Matrix::hstack_into(&[ps.get(msg[0].b), ps.get(sp[0].b)], b_in);

        // h1 = feats · W + b, row by row on this thread: a request never
        // fans out over the pool, whatever the size of its graph. A feature
        // row is a one-hot op kind, then the shape scalars. The one-hot
        // zeros add ±0 to a sum that is +0 before the hot entry and
        // non-zero or +0 after it, so starting at the hot weight row gives
        // the bits of the whole product for any finite `W`.
        let (w, b) = (ps.get(self.embed.w).as_slice(), ps.get(self.embed.b).as_slice());
        for (x, hv) in one_hot_features(g).chunks_exact(features::FEATURE_DIM).zip(h.chunks_exact_mut(d)) {
            let hot = x[..OpKind::COUNT].iter().position(|&xi| xi != 0.0).unwrap_or(0);
            vecmat_acc(&x[hot..=hot], &w[hot * d..(hot + 1) * d], hv);
            vecmat_acc(&x[OpKind::COUNT..], &w[OpKind::COUNT * d..], hv);
            hv.iter_mut().zip(b).for_each(|(o, &bi)| *o += bi);
        }

        let gru = [&*wx, bx, uzr, ps.get(gru.uh).as_slice()];
        let second = [&msg[1], &sp[1]].map(|l| [ps.get(l.w).as_slice(), ps.get(l.b).as_slice()]);
        let msg_layers = (self.msg.hidden_act, [&*w_in, b_in], second);
        let mut rows = F32Rows { h, msgs, m, gates, hid, gru, msg_layers, made: 0 };
        self.sweep(&mut rows, g, sched);
        // The row products that ran, as `gemm` counts them: the embedding
        // layer once (from each row's hot entry on), then two MLPs of two
        // layers per source made.
        let flops = 2 * n * (1 + features::FEATURE_DIM - OpKind::COUNT) * d + rows.made * 4 * d * hid2;
        pddl_tensor::record_products(1 + 4 * rows.made as u64, flops as u64);
        mean_pool(rows.h.chunks_exact(d), d)
    }
}

/// The GHN-2 as meta-training sees it: the [`GhnEncoder`] with a decoder
/// head on the pooled embedding, which the surrogate objective trains (see
/// `train`). One store holds both, the decoder's parameters last, and
/// [`Ghn::into_encoder`] serves the encoder's.
#[derive(Clone)]
pub struct Ghn {
    /// The served half; its store also holds the decoder's parameters,
    /// after the encoder's.
    pub encoder: GhnEncoder,
    decoder: Mlp,
}

impl Ghn {
    /// Fresh randomly-initialized GHN: the encoder's draws, then the
    /// decoder's into the same store. The decoder's hidden width is `3·d/2`.
    pub fn new(cfg: GhnConfig, rng: &mut Rng) -> Self {
        let mut encoder = GhnEncoder::new(cfg, rng);
        let d = cfg.hidden_dim;
        let decoder = Mlp::new(&mut encoder.ps, "ghn.decoder", [d, 3 * d / 2, TARGET_DIM], Activation::Relu, rng);
        Self { encoder, decoder }
    }

    /// The served encoder: rebuilt from its config and filled from this
    /// store, the decoder's parameters left behind. It runs on the pool
    /// worker that trained the GHN, so the encoder owns no allocation made
    /// here: its matrices are the ones `Ghn::new` made before training, and
    /// its layers hold only ids. One small allocation made after training
    /// would pin the worker's malloc arena at its training peak
    /// (`offline_train` `peak_rss_mb` 56 → 68–74 MB).
    pub fn into_encoder(self) -> GhnEncoder {
        GhnEncoder::restore(self.encoder.cfg, self.encoder.ps).expect("a GHN's store begins with its encoder's")
    }

    /// Runs the GatedGNN on the tape and returns the pooled 1×d embedding:
    /// the mean of the final per-node states `h_v^T`.
    pub fn embed_traced(&self, tape: &mut Tape, g: &CompGraph, sched: &Schedule) -> Var {
        let enc = &self.encoder;
        let n = g.num_nodes();
        let feats = Matrix::from_vec(n, features::FEATURE_DIM, one_hot_features(g));
        let h0 = tape.constant(feats);
        let h1 = enc.embed.forward(tape, h0);
        let h = (0..n).map(|v| tape.slice_rows(h1, v, v + 1)).collect();
        let mut rows = TapeRows { enc, tape, h, parts: Vec::new() };
        enc.sweep(&mut rows, g, sched);
        let all = rows.tape.concat_rows(&rows.h);
        tape.mean_rows(all)
    }

    /// Traced decoder output (1×TARGET_DIM) for the meta-training loss.
    pub fn decode_traced(&self, tape: &mut Tape, embedding: Var) -> Var {
        self.decoder.forward(tape, embedding)
    }

    /// Fast decoder on a raw embedding (diagnostics / tests): the row
    /// products of [`Self::decode_traced`], without a tape.
    pub fn decode_fast(&self, embedding: &[f32]) -> Vec<f32> {
        let ps = &self.encoder.ps;
        let [first, second] = self.decoder.layers.each_ref().map(|l| [ps.get(l.w).as_slice(), ps.get(l.b).as_slice()]);
        let (mut hid, mut out) = (vec![0.0; first[1].len()], vec![0.0; second[1].len()]);
        mlp_rows((self.decoder.hidden_act, first, [second]), embedding, &mut hid, &mut out);
        out
    }
}

/// What the sweep asks of the states it runs on. It decides what runs and
/// in which order; a backend only runs it.
trait Backend {
    /// What the memo keeps of a made message: the `Var` on the tape;
    /// nothing in f32 rows, where message `k` of `u` has a row of its own.
    type Msg: Copy;
    /// Makes message `k` of source `u` — MLP 0 `msg` (edges), 1 `msg_sp`
    /// (virtual edges) on `h[u]` — and keeps it in `u`'s memo `slots`,
    /// with whatever else was made alongside it.
    fn message(&mut self, k: usize, u: usize, slots: &mut [Option<Self::Msg>; 2]) -> Self::Msg;
    /// Adds `weight ·` message `k` of `u` (`msg`) to the pending sum `m_v`.
    fn gather(&mut self, k: usize, u: usize, msg: Self::Msg, weight: f32);
    /// `h[v] ← GRU(m_v, h[v])`; the next sum starts from zero.
    fn update(&mut self, v: usize);
    /// L2-normalises every state.
    fn normalize(&mut self);
}

/// The training backend: each state a 1×d `Var`, each step recorded on
/// the tape (`Mlp::forward`, `Tape::weighted_sum`, `GruCell::forward`,
/// `Tape::row_l2_norm`) for one backward pass.
struct TapeRows<'a, 'p> {
    enc: &'a GhnEncoder,
    tape: &'a mut Tape<'p>,
    h: Vec<Var>,
    parts: Vec<(Var, f32)>,
}

impl Backend for TapeRows<'_, '_> {
    type Msg = Var;

    fn message(&mut self, k: usize, u: usize, slots: &mut [Option<Var>; 2]) -> Var {
        *slots[k].insert([&self.enc.msg, &self.enc.msg_sp][k].forward(self.tape, self.h[u]))
    }

    fn gather(&mut self, _k: usize, _u: usize, msg: Var, weight: f32) {
        self.parts.push((msg, weight));
    }

    fn update(&mut self, v: usize) {
        let m_v = match self.parts.as_slice() {
            [] => self.tape.constant(Matrix::zeros(1, self.enc.cfg.hidden_dim)),
            parts => self.tape.weighted_sum(parts),
        };
        self.h[v] = self.enc.gru.forward(self.tape, m_v, self.h[v]);
        self.parts.clear();
    }

    fn normalize(&mut self) {
        self.h.iter_mut().for_each(|hv| *hv = self.tape.row_l2_norm(*hv));
    }
}

/// The inference backend: the states, a table of both messages per node
/// (message `k` of `u` is row `2u + k`, so the memo only marks it made) and
/// the rows of one node update. Weights that multiply the same row sit side
/// by side — `[Wz|Wr|Wh]`, `[Uz|Ur]` and the two message MLPs' first
/// layers — so a GRU step is three row products, not six, and a source's
/// two messages three, not four. A column's multiply-adds run in the same
/// order wherever it sits, so the bits are those of the separate products
/// (for widths that are a multiple of the SIMD lane count, as every
/// shipped configuration's are).
struct F32Rows<'a> {
    h: &'a mut [f32],
    msgs: &'a mut [f32],
    m: &'a mut [f32],
    gates: &'a mut [f32],
    hid: &'a mut [f32],
    /// `[Wz|Wr|Wh]`, `[bz|br|bh]`, `[Uz|Ur]`, `Uh`.
    gru: [&'a [f32]; 4],
    /// `msg` and `msg_sp`, first layers packed `[msg|msg_sp]`.
    msg_layers: RowMlps<'a, 2>,
    /// Sources whose messages were made.
    made: usize,
}

impl Backend for F32Rows<'_> {
    type Msg = ();

    /// Makes both of `u`'s messages, whichever was asked for: their first
    /// layers are one packed row product, which on the SIMD lanes takes
    /// about the time of one of them alone. Nearly every source has both
    /// read before its next update.
    fn message(&mut self, _k: usize, u: usize, slots: &mut [Option<()>; 2]) {
        let d = self.m.len();
        let (x, out) = (&self.h[u * d..(u + 1) * d], &mut self.msgs[2 * u * d..(2 * u + 2) * d]);
        mlp_rows(self.msg_layers, x, self.hid, out);
        *slots = [Some(()); 2];
        self.made += 1;
    }

    fn gather(&mut self, k: usize, u: usize, _: (), weight: f32) {
        let (d, row) = (self.m.len(), 2 * u + k);
        self.m.iter_mut().zip(&self.msgs[row * d..(row + 1) * d]).for_each(|(mi, &o)| *mi += weight * o);
    }

    /// The GRU step in place, mirroring `GruCell::forward`: each gate
    /// starts from its bias and accumulates first its `m` product, then
    /// its state product.
    fn update(&mut self, v: usize) {
        let (d, [wx, bx, uzr, uh]) = (self.m.len(), self.gru);
        let hv = &mut self.h[v * d..(v + 1) * d];
        self.gates.copy_from_slice(bx);
        vecmat_acc(self.m, wx, self.gates);
        let (zr, hh) = self.gates.split_at_mut(2 * d);
        vecmat_acc(hv, uzr, zr);
        Activation::Sigmoid.apply_row(zr);
        let (z, r) = zr.split_at_mut(d);
        for (ri, &hi) in r.iter_mut().zip(hv.iter()) {
            *ri *= hi;
        }
        vecmat_acc(r, uh, hh);
        Activation::Tanh.apply_row(hh);
        for ((hi, &zi), &hhi) in hv.iter_mut().zip(z.iter()).zip(hh.iter()) {
            *hi += zi * (hhi - *hi);
        }
        self.m.fill(0.0);
    }

    fn normalize(&mut self) {
        self.h.chunks_exact_mut(self.m.len()).for_each(l2_normalize);
    }
}

/// `N` two-layer MLPs of equal widths as [`mlp_rows`] runs them: their one
/// hidden activation, their first layers' weights and biases packed side
/// by side (one layer is its own packing), their output layers'.
type RowMlps<'a, const N: usize> = (Activation, [&'a [f32]; 2], [[&'a [f32]; 2]; N]);

/// `N` MLPs on one row `x`, side by side: the row products of
/// `Mlp::forward`. The first layers run as one product into `hid`, then
/// each output layer from its share of `hid` into its share of `out`.
fn mlp_rows<const N: usize>((act, [w, b], second): RowMlps<N>, x: &[f32], hid: &mut [f32], out: &mut [f32]) {
    vecmat_bias_act(x, w, b, act, hid);
    let shares = hid.chunks_exact(hid.len() / N).zip(out.chunks_exact_mut(out.len() / N));
    for ([w, b], (hid, out)) in second.into_iter().zip(shares) {
        vecmat_bias_act(hid, w, b, Activation::Identity, out);
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
    use pddl_telemetry::json;

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
        let agree = |ghn: &Ghn, g: &CompGraph| {
            let enc = &ghn.encoder;
            let sched = Schedule::new(g, enc.cfg.s_max);
            let fast = enc.embed_with_schedule(g, &sched);
            let mut tape = Tape::new(&enc.ps);
            let traced = ghn.embed_traced(&mut tape, g, &sched);
            let tv = tape.value(traced);
            assert_eq!(tape.shape(traced), (1, fast.len()));
            for (a, b) in tv.iter().zip(&fast) {
                let t = enc.cfg.t_passes;
                assert!((a - b).abs() < 1e-4, "{} T={t}: traced {a} vs fast {b}", g.name);
            }
        };
        agree(&Ghn::new(GhnConfig::tiny(), &mut Rng::new(7)), &toy_graph());
        let mut graphs = crate::SynthGenerator::new(pddl_zoo::CIFAR10, 7).sample_many(8);
        for name in ["alexnet", "resnet18", "densenet121", "mobilenet_v2"] {
            graphs.push(pddl_zoo::build_model(name, &pddl_zoo::CIFAR10).expect("zoo model"));
        }
        for t_passes in [1, 2] {
            let ghn = Ghn::new(GhnConfig { t_passes, ..GhnConfig::default() }, &mut Rng::new(7));
            for g in &graphs {
                agree(&ghn, g);
            }
        }
    }

    #[test]
    fn decode_fast_follows_the_decoders_hidden_activation() {
        let mut ghn = Ghn::new(GhnConfig::default(), &mut Rng::new(13));
        let e = ghn.encoder.embed_graph(&toy_graph());
        assert!(e.iter().any(|&x| x < 0.0), "an input the activations tell apart");
        for act in [Activation::Relu, Activation::Tanh, Activation::Sigmoid, Activation::Identity] {
            ghn.decoder.hidden_act = act;
            let fast = ghn.decode_fast(&e);
            let mut tape = Tape::new(&ghn.encoder.ps);
            let x = tape.constant(Matrix::from_vec(1, e.len(), e.clone()));
            let traced = ghn.decode_traced(&mut tape, x);
            for (a, b) in tape.value(traced).iter().zip(&fast) {
                assert!((a - b).abs() <= 1e-5, "{act:?}: traced {a} vs fast {b}");
            }
        }
    }

    /// The embed this core replaced, kept as its oracle: every message is
    /// recomputed for every edge from the current `h` (no memo to go
    /// stale), a node's sources stacked and pushed through the batched
    /// GEMM entry points — the blocked microkernel from 16 rows up.
    fn embed_per_edge(ghn: &GhnEncoder, g: &CompGraph, sched: &Schedule) -> Vec<f32> {
        let (n, d) = (g.num_nodes(), ghn.cfg.hidden_dim);
        let feats = Matrix::from_vec(n, features::FEATURE_DIM, one_hot_features(g));
        let mut h = feats
            .matmul(ghn.ps.get(ghn.embed.w))
            .add_row_broadcast(ghn.ps.get(ghn.embed.b));
        let messages = |mlp: &Mlp, h: &Matrix, sources: Vec<usize>| {
            let last = mlp.layers.len() - 1;
            let mut cur = h.gather_rows(&sources);
            for (i, layer) in mlp.layers.iter().enumerate() {
                let act = if i < last { mlp.hidden_act } else { Activation::Identity };
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
            for v in 0..n {
                l2_normalize(h.row_mut(v));
            }
        }
        mean_pool(h.as_slice().chunks_exact(d), d)
    }

    impl GhnEncoder {
        /// The GRU step of [`GhnEncoder::embed`] from the unpacked matrices, gate
        /// by gate, for the per-edge oracle. `gates` holds the three gate
        /// rows (3·d).
        fn gru_row(&self, x: &[f32], h: &mut [f32], gates: &mut [f32]) {
            let gru = &self.gru;
            let d = h.len();
            let (z, rest) = gates.split_at_mut(d);
            let (r, hh) = rest.split_at_mut(d);
            let gate = |out: &mut [f32], b, w, u, state: &[f32], act: Activation| {
                out.copy_from_slice(self.ps.get(b).row(0));
                vecmat_acc(x, self.ps.get(w).as_slice(), out);
                vecmat_acc(state, self.ps.get(u).as_slice(), out);
                for o in out {
                    *o = act.apply(*o);
                }
            };
            gate(z, gru.bz, gru.wz, gru.uz, h, Activation::Sigmoid);
            gate(r, gru.br, gru.wr, gru.ur, h, Activation::Sigmoid);
            for (ri, &hi) in r.iter_mut().zip(h.iter()) {
                *ri *= hi;
            }
            gate(hh, gru.bh, gru.wh, gru.uh, r, Activation::Tanh);
            for ((hi, &zi), &hhi) in h.iter_mut().zip(z.iter()).zip(hh.iter()) {
                *hi += zi * (hhi - *hi);
            }
        }

        /// Raw-matrix MLP forward on a single row: per-element zero-skip
        /// axpy loops, the scalar oracle of the row kernels.
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
                        *o = mlp.hidden_act.apply(*o);
                    }
                }
                cur = out;
            }
            cur
        }

        /// Scalar (unbatched, unblocked) embedding, the ≤ 1e-4 oracle. Follows
        /// the exact sequential schedule of [`GhnEncoder::embed_with_schedule`] but
        /// pushes every row through the per-element `mlp_fast` loops.
        fn embed_with_schedule_reference(&self, g: &CompGraph, sched: &Schedule) -> Vec<f32> {
            let d = self.cfg.hidden_dim;
            let (w, b) = (self.ps.get(self.embed.w), self.ps.get(self.embed.b));
            let feats = one_hot_features(g);
            let mut h: Vec<Vec<f32>> = feats
                .chunks_exact(features::FEATURE_DIM)
                .map(|x| {
                    let mut hv = vec![0.0f32; d];
                    for (&xi, w_row) in x.iter().zip(w.as_slice().chunks_exact(d)) {
                        hv.iter_mut().zip(w_row).for_each(|(o, &wij)| *o += xi * wij);
                    }
                    hv.iter_mut().zip(b.row(0)).for_each(|(o, &bi)| *o += bi);
                    hv
                })
                .collect();
            let mut m = vec![0.0f32; d];
            for _t in 0..self.cfg.t_passes {
                for &v in sched.topo() {
                    self.fast_update_reference(g, &mut h, &mut m, v, true, sched.virtual_fw(v));
                }
                for &v in sched.topo().iter().rev() {
                    self.fast_update_reference(g, &mut h, &mut m, v, false, sched.virtual_bw(v));
                }
                for hv in h.iter_mut() {
                    l2_normalize(hv);
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
    fn check_against_oracles(ghn: &GhnEncoder, g: &CompGraph) -> usize {
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
        let ghn = Ghn::new(GhnConfig::default(), &mut Rng::new(31)).into_encoder();
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
        let ghn = Ghn::new(cfg, &mut Rng::new(32)).into_encoder();
        let deep = pddl_zoo::build_model("densenet121", &pddl_zoo::CIFAR10).expect("zoo model");
        for g in synth.iter().chain([&deep]) {
            check_against_oracles(&ghn, g);
        }
    }

    /// The traced embed [`Ghn::embed_traced`] replaced, kept as its oracle:
    /// a message MLP recorded for every edge from the current `h` (nothing
    /// shared, so nothing to go stale), summed by a `scale` / `add` chain.
    fn embed_traced_per_edge(ghn: &Ghn, tape: &mut Tape, g: &CompGraph, sched: &Schedule) -> Var {
        let ghn = &ghn.encoder;
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
            for hv in h.iter_mut() {
                *hv = tape.row_l2_norm(*hv);
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
        let sched = Schedule::new(g, ghn.encoder.cfg.s_max);
        let mut tape = Tape::new(&ghn.encoder.ps);
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
                let ps = &ghn.encoder.ps;
                for id in ps.ids() {
                    let a = memo.get(id).expect("every parameter is reached");
                    let b = per_edge.get(id).expect("every parameter is reached");
                    if decoder.contains(&id) {
                        // … so what sits above the shared messages is too.
                        assert_eq!(bits(a), bits(b), "{}: {}", g.name, ps.name(id));
                    }
                    // Below them the readers' gradients are summed before
                    // the MLP's backward instead of after: same sum, other
                    // association.
                    let diff = (a - b).sq_norm().sqrt();
                    let rel = diff / b.sq_norm().sqrt().max(f32::MIN_POSITIVE);
                    let name = ps.name(id);
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
        let mut ps = ghn.encoder.ps.clone();
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
        let ghn = Ghn::new(cfg, &mut rng).into_encoder();
        check_against_oracles(&ghn, &toy_graph());
    }

    #[test]
    fn embed_records_latency_histogram() {
        let mut rng = Rng::new(24);
        let ghn = Ghn::new(GhnConfig::tiny(), &mut rng).into_encoder();
        let _ = ghn.embed_graph(&toy_graph());
        let snap = pddl_telemetry::snapshot();
        let h = snap.histogram("ghn.embed").expect("ghn.embed registered");
        assert!(h.count >= 1);
    }

    #[test]
    fn embedding_has_configured_dimension() {
        let mut rng = Rng::new(8);
        let ghn = Ghn::new(GhnConfig::default(), &mut rng).into_encoder();
        let e = ghn.embed_graph(&toy_graph());
        assert_eq!(e.len(), 32);
        assert!(e.iter().all(|x| x.is_finite()));
    }

    #[test]
    fn different_graphs_get_different_embeddings() {
        let mut rng = Rng::new(9);
        let ghn = Ghn::new(GhnConfig::tiny(), &mut rng).into_encoder();
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
        let ghn = Ghn::new(GhnConfig::tiny(), &mut rng).into_encoder();
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
        let ghn = Ghn::new(cfg, &mut rng).into_encoder();
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
        let e = ghn.encoder.embed_graph(&toy_graph());
        let d = ghn.decode_fast(&e);
        assert_eq!(d.len(), TARGET_DIM);
    }

    /// `enc` as format 2 wrote it: beside `cfg` and `ps`, each layer's
    /// parameter ids and widths.
    fn format_2(enc: &GhnEncoder) -> String {
        let linear = |l: &Linear| {
            let (i, o) = enc.ps.get(l.w).shape();
            format!(r#"{{"w":{},"b":{},"in_dim":{i},"out_dim":{o}}}"#, l.w.0, l.b.0)
        };
        let mlp = |m: &Mlp| {
            let layers: Vec<_> = m.layers.iter().map(linear).collect();
            format!(r#"{{"layers":[{}],"hidden_act":"Relu"}}"#, layers.join(","))
        };
        let g = &enc.gru;
        let ids = [("wz", g.wz), ("uz", g.uz), ("bz", g.bz), ("wr", g.wr), ("ur", g.ur)];
        let ids = ids.into_iter().chain([("br", g.br), ("wh", g.wh), ("uh", g.uh), ("bh", g.bh)]);
        let gates: Vec<_> = ids.map(|(key, id)| format!(r#""{key}":{}"#, id.0)).collect();
        let d = enc.cfg.hidden_dim;
        let gru = format!(r#"{{{},"input_dim":{d},"state_dim":{d}}}"#, gates.join(","));
        let [cfg, ps] = [json::to_string(&enc.cfg), json::to_string(&enc.ps)].map(Result::unwrap);
        let [embed, msg, msg_sp] = [linear(&enc.embed), mlp(&enc.msg), mlp(&enc.msg_sp)];
        format!(r#"{{"cfg":{cfg},"ps":{ps},"embed":{embed},"msg":{msg},"msg_sp":{msg_sp},"gru":{gru}}}"#)
    }

    /// A checkpoint whose store is not what `GhnEncoder::new` builds for
    /// its `cfg` would decode and then panic on the first embed (an index
    /// out of bounds in `ParamStore::get`, a length mismatch packing the
    /// weights); it is a decode error naming the first parameter that
    /// differs instead. What formats 1 and 2 wrote beside the store is read
    /// past, so corrupting it moves no bit, and what the one path cannot
    /// serve as written is refused by name.
    #[test]
    fn misshapen_checkpoints_are_decode_errors() {
        let ghn = Ghn::new(GhnConfig::tiny(), &mut Rng::new(14));
        // The trainer's store, decoder included, as format 1 wrote it.
        let (v1, last) = (json::to_string(&ghn.encoder).unwrap(), ghn.encoder.ps.len() - 1);
        let enc = ghn.into_encoder();
        let (text, v2) = (json::to_string(&enc).unwrap(), format_2(&enc));
        let bits = |g: &GhnEncoder| g.embed_graph(&toy_graph()).iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for doc in [&text, &v2, &v1] {
            let back: GhnEncoder = json::from_str(doc).unwrap();
            assert_eq!(json::to_string(&back).unwrap(), text);
            assert_eq!(bits(&back), bits(&enc));
        }

        fn member<'a>(v: &'a mut JsonValue, key: &str) -> &'a mut JsonValue {
            match v {
                JsonValue::Object(members) => members.entry(key.to_string()).or_insert(JsonValue::Null),
                JsonValue::Array(items) => &mut items[key.parse::<usize>().expect(key)],
                other => panic!("{key} in {other:?}"),
            }
        }
        /// Decodes `text` with each `(path, value)` of `edits` written in.
        fn corrupt<P: AsRef<str>>(text: &str, edits: &[(P, String)]) -> Result<GhnEncoder, JsonError> {
            let mut doc = json::parse(text).unwrap();
            for (path, value) in edits {
                *path.as_ref().split('.').fold(&mut doc, member) = json::parse(value).unwrap();
            }
            json::from_str::<GhnEncoder>(&doc.to_json())
        }
        let at = |text: &str, path: &str| path.split('.').fold(&mut json::parse(text).unwrap(), member).to_json();

        // Format 2's layer members repeat the store: corrupted, they
        // still decode to the same embedding bits.
        let redundant = [
            ("embed.w", "999".to_string()),
            ("embed.in_dim", "3".into()),
            ("embed.b", at(&v2, "gru.wz")),
            ("msg.layers.0", at(&v2, "embed")),
            ("gru.state_dim", "9".into()),
            ("gru.bh", at(&v2, "gru.uh")),
        ];
        assert_eq!(bits(&corrupt(&v2, &redundant).unwrap()), bits(&enc));

        let err = |text: &str, path: &str, value: &str| corrupt(text, &[(path, value.to_string())]).err();
        for doc in [&text, &v2] {
            let cases = [
                ("cfg.hidden_dim", "16"),
                ("ps.names", "[]"),
                ("ps.values.0", r#"{"rows":2,"cols":2,"data":[0.5,0.5,0.5,0.5]}"#),
            ];
            for (path, value) in cases {
                let err = err(doc, path, value);
                assert!(matches!(err, Some(JsonError::Shape(_))), "{path} = {value}: {err:?}");
            }
            let renamed = err(doc, "ps.names.3", r#""ghn.msg.l0.bias""#);
            let want = "ps: parameter 3 is `ghn.msg.l0.bias`, expected `ghn.msg.l0.b`";
            assert_eq!(renamed, Some(JsonError::Shape(want.into())));
            // `wz` and `uz` are both d×d: only the names tell them apart.
            let swap: Vec<_> = ["names", "values"]
                .into_iter()
                .flat_map(|m| [(10, 11), (11, 10)].map(|(i, j)| (format!("ps.{m}.{i}"), at(doc, &format!("ps.{m}.{j}")))))
                .collect();
            let swapped = corrupt(doc, &swap).err();
            let want = "ps: parameter 10 is `ghn.gru.uz`, expected `ghn.gru.wz`";
            assert_eq!(swapped, Some(JsonError::Shape(want.into())));
        }
        let err = err(&v2, "msg_sp.hidden_act", r#""Tanh""#);
        let want = r#"msg_sp: hidden_act: "Tanh" is not supported, messages are Relu"#;
        assert_eq!(err, Some(JsonError::Shape(want.into())));

        // Format 1: `normalize: true` is what every writer set, and is read
        // past; anything else is refused by name, never served normalised.
        assert!(corrupt(&v1, &[("cfg.normalize", "true".into())]).is_ok());
        for value in ["false", "null", "1"] {
            let err = corrupt(&v1, &[("cfg.normalize", value.into())]).err();
            let want = format!("cfg: normalize: {value} is not supported, states are always normalised");
            assert_eq!(err, Some(JsonError::Shape(want)));
        }
        // Only the decoder's parameters are dropped past the encoder's.
        let err = corrupt(&v1, &[(&format!("ps.names.{last}"), r#""ghn.head.b""#.into())]).err();
        assert_eq!(err, Some(JsonError::Shape("ps: parameter `ghn.head.b` follows the encoder's".into())));
    }
}
