//! Blocked, packed, fusion-aware GEMM core.
//!
//! Every compute-bound path in the workspace — GHN message passing,
//! autodiff training, regressor forwards — funnels through the product
//! kernels in this module. The design is the classic BLIS decomposition,
//! sized for the workspace's shapes (GHN node states are 1×32 … 128×128,
//! training batches a few hundred rows):
//!
//! * an `MR×NR` **microkernel** whose accumulator tile lives in registers,
//!   dispatched at runtime to an explicit AVX2/FMA implementation (scalar
//!   fallback otherwise) via [`crate::kernels`];
//! * `MC/KC` **cache blocking** with both operands packed into contiguous
//!   panels, so the microkernel streams unit-stride regardless of the
//!   logical orientation of the inputs;
//! * **layout-aware packing**: `A·B`, `A·Bᵀ` and `Aᵀ·B` share one kernel —
//!   the pack routines absorb the transpose, so no caller ever
//!   materializes a transposed matrix again;
//! * a reusable `PackBuffer` so repeated products (training loops,
//!   per-request embeddings) stop allocating per call — including the
//!   pool workers, which keep a thread-local tile workspace instead of
//!   allocating per macro-tile;
//! * parallel **macro-tiles** dispatched over the `pddl_par` work pool
//!   above [`PAR_MADDS`] multiply-adds, each worker writing a disjoint
//!   region of the output;
//! * a fused **epilogue** (`+ bias`, activation) applied while the output
//!   tile is still cache-warm, which is what [`Matrix::matmul_bias_act`]
//!   and the autodiff `affine` ops ride on.
//!
//! ## Determinism and tolerance policy
//!
//! For a given shape the kernel accumulates each output element over `k`
//! in a fixed order, and the parallel macro-tile partition depends only on
//! the shape (never the worker count), so results are **bit-identical
//! across runs and across `PDDL_THREADS` settings**. They are *not*
//! bit-identical to the transpose-then-dot kernel it replaced
//! (`matmul_reference` in the equivalence tests) — blocking changes the
//! f32 summation order — so equivalence tests assert relative error
//! ≤ 1e-5 against the reference kernel instead of exact bits
//! (`crates/tensor/tests/gemm_equivalence.rs`). Across *backends* the
//! same policy applies: the scalar backend reproduces the pre-dispatch
//! kernel bit-for-bit, while the FMA backends fuse each multiply-add
//! into a single rounding and are held to the same ≤ 1e-5 relative
//! bound by the dispatch-matrix tests.
//!
//! [`Matrix::matmul_bias_act`]: crate::Matrix::matmul_bias_act

use crate::activation;
use crate::kernels::{self, Kernels};
use pddl_par::WorkPool;
use std::cell::RefCell;
use std::sync::OnceLock;

/// Microkernel tile rows (accumulator tile is `MR×NR` registers).
pub const MR: usize = 4;
/// Microkernel tile columns; `MR×NR` f32 accumulators fit the SIMD
/// register file with room for the streamed `A`/`B` panel values.
pub const NR: usize = 16;
/// Rows of `A` packed per cache block (L2-resident panel height).
pub const MC: usize = 64;
/// Depth of one packed slab; `MC×KC` of `A` plus `KC×NR` slivers of `B`
/// stay L1/L2-resident while the microkernel sweeps.
pub const KC: usize = 256;
/// Below this many multiply-adds the blocked path's packing overhead
/// outweighs its locality wins; small products use direct unit-stride
/// kernels with no packing at all.
pub const SMALL_MADDS: usize = 16 * 1024;
/// At or above this many multiply-adds the macro-tile loop fans out over
/// the `pddl_par` pool (same threshold the pre-blocked kernel used).
pub const PAR_MADDS: usize = 64 * 64 * 64;
/// Rows per parallel macro-tile. Fixed — never derived from the worker
/// count — so the output partition (and thus every rounding sequence) is
/// identical for any pool size.
const PAR_MC: usize = 32;
/// Columns per parallel macro-tile when the row count is too small to
/// split (row-vector GEMMs parallelize over column blocks instead of not
/// at all). Multiple of `NR`.
const PAR_NC: usize = 128;

/// Elementwise activation fused into the GEMM epilogue.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Activation {
    /// No activation (plain affine output).
    Identity,
    /// `max(0, x)`.
    Relu,
    /// Hyperbolic tangent.
    Tanh,
    /// Logistic sigmoid.
    Sigmoid,
}

impl Activation {
    /// Applies the activation to one value.
    #[inline]
    pub fn apply(self, x: f32) -> f32 {
        match self {
            Activation::Identity => x,
            Activation::Relu => x.max(0.0),
            Activation::Tanh => activation::tanh(x),
            Activation::Sigmoid => activation::sigmoid(x),
        }
    }

    /// Applies the activation to a row in place through the dispatched
    /// row kernels: the bits of [`Activation::apply`] on each element,
    /// whichever backend is active.
    pub fn apply_row(self, row: &mut [f32]) {
        self.apply_row_with(kernels::active(), row);
    }

    fn apply_row_with(self, kern: &'static Kernels, row: &mut [f32]) {
        match self {
            Activation::Identity => {}
            Activation::Relu => (kern.relu)(row),
            Activation::Tanh => (kern.tanh)(row),
            Activation::Sigmoid => (kern.sigmoid)(row),
        }
    }

    /// Derivative expressed in terms of the activation *output* `y`
    /// (what reverse-mode backward passes have in hand).
    #[inline]
    pub fn grad_from_output(self, y: f32) -> f32 {
        match self {
            Activation::Identity => 1.0,
            Activation::Relu => {
                if y > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            Activation::Tanh => 1.0 - y * y,
            Activation::Sigmoid => y * (1.0 - y),
        }
    }
}

/// Reusable packing workspace for the blocked kernel.
///
/// Holds the packed `A` panel and packed `B` slabs between calls; the
/// buffers only grow (tracked by [`PackBuffer::allocations`]), so steady
/// shapes — a training loop, repeated embeddings, mixed batch sizes that
/// alternate between a large and a small slab — hit zero allocations
/// after the largest shape has been seen once. [`Matrix::matmul`] keeps
/// one per thread; [`matmul_with`] lets a test pin its own.
/// Pool workers reuse a thread-local tile workspace the same way, and
/// every growth event is counted on the `tensor.pack_allocs` telemetry
/// counter so reallocation churn is visible on a live shard.
///
/// [`Matrix::matmul`]: crate::Matrix::matmul
/// [`matmul_with`]: crate::testing::matmul_with
#[derive(Debug, Default)]
pub struct PackBuffer {
    a: Vec<f32>,
    b: Vec<f32>,
    allocations: usize,
}

impl PackBuffer {
    /// An empty workspace (first use allocates).
    pub fn new() -> Self {
        Self::default()
    }

    /// How many times the workspace had to grow. Stays flat across
    /// repeated products of the same (or smaller) shapes — the property
    /// the allocation-reuse unit tests pin.
    pub fn allocations(&self) -> usize {
        self.allocations
    }
}

fn ensure(buf: &mut Vec<f32>, len: usize, allocations: &mut usize) {
    if buf.len() < len {
        if buf.capacity() < len {
            *allocations += 1;
            gemm_metrics().pack_allocs.inc();
        }
        buf.resize(len, 0.0);
    }
}

thread_local! {
    static TL_PACK: RefCell<PackBuffer> = RefCell::new(PackBuffer::new());
    // Pool workers' per-macro-tile workspace. Separate from TL_PACK so a
    // caller thread that participates in its own fan-out never borrows
    // the same RefCell twice.
    static TL_TILE_PACK: RefCell<PackBuffer> = RefCell::new(PackBuffer::new());
}

/// Runs `f` with this thread's pack workspace (what the `Matrix`
/// convenience methods use so steady-state products never allocate).
pub(crate) fn with_thread_pack<R>(f: impl FnOnce(&mut PackBuffer) -> R) -> R {
    TL_PACK.with(|p| f(&mut p.borrow_mut()))
}

/// Logical orientation of the operands handed to [`gemm`]. The pack
/// routines absorb the transpose; the microkernel never knows.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Layout {
    /// `A (m×k) · B (k×n)`, both stored row-major as given.
    Nn,
    /// `A (m×k) · Bᵀ` where `B` is stored `n×k`.
    Nt,
    /// `Aᵀ · B (k×n)` where `A` is stored `k×m`.
    Tn,
}

struct GemmMetrics {
    calls: &'static pddl_telemetry::Counter,
    flops: &'static pddl_telemetry::Counter,
    pack_allocs: &'static pddl_telemetry::Counter,
}

fn gemm_metrics() -> &'static GemmMetrics {
    static METRICS: OnceLock<GemmMetrics> = OnceLock::new();
    METRICS.get_or_init(|| GemmMetrics {
        calls: pddl_telemetry::counter("tensor.gemm_calls"),
        flops: pddl_telemetry::counter("tensor.gemm_flops"),
        pack_allocs: pddl_telemetry::counter("tensor.pack_allocs"),
    })
}

/// Adds `calls` products totalling `flops` (`2·m·n·k` each) to
/// `tensor.gemm_calls` / `tensor.gemm_flops`. `gemm` counts itself; a
/// caller of the uncounted row products ([`crate::vecmat_bias_act`])
/// reports a whole batch of them here in one call.
pub fn record_products(calls: u64, flops: u64) {
    let metrics = gemm_metrics();
    metrics.calls.add(calls);
    metrics.flops.add(flops);
}

/// Core dispatch: `out (m×n) (+)= op(A)·op(B)`, then `+ bias`, then
/// `act`, choosing between the direct small-product kernels, the serial
/// blocked path, and pool-parallel macro-tiles. The kernel set (scalar /
/// AVX2+FMA) is resolved once per call and threaded through every
/// inner loop, so all macro-tiles of one product use the same backend.
///
/// `out` must hold exactly `m*n` elements. When `accumulate` is false the
/// output is overwritten; when true the products are added to the
/// existing contents (the epilogue still runs last, on the sum).
#[allow(clippy::too_many_arguments)]
pub(crate) fn gemm(
    layout: Layout,
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    b: &[f32],
    bias: Option<&[f32]>,
    act: Activation,
    accumulate: bool,
    out: &mut [f32],
    pack: &mut PackBuffer,
    pool: Option<&WorkPool>,
) {
    debug_assert_eq!(out.len(), m * n);
    record_products(1, (2 * m * n * k) as u64);
    if m == 0 || n == 0 {
        return;
    }
    let kern = kernels::active();
    if !accumulate {
        out.fill(0.0);
    }
    if k > 0 {
        let madds = m * n * k;
        if madds < SMALL_MADDS {
            small_product(kern, layout, m, n, k, a, b, out);
        } else {
            blocked_product(
                kern,
                layout,
                m,
                n,
                k,
                a,
                b,
                out,
                pack,
                pool.filter(|_| madds >= PAR_MADDS),
            );
        }
    }
    epilogue(kern, out, m, n, bias, act);
}

/// Fused `+bias` / activation pass over the finished output, through the
/// dispatched row kernels. Every one of them is exact or written without
/// FMA ([`crate::activation`]), so given the same sums every backend
/// produces identical bits.
pub(crate) fn epilogue(
    kern: &'static Kernels,
    out: &mut [f32],
    m: usize,
    n: usize,
    bias: Option<&[f32]>,
    act: Activation,
) {
    if bias.is_none() && act == Activation::Identity {
        return;
    }
    for row in out.chunks_mut(n).take(m) {
        if let Some(bias) = bias {
            (kern.bias_add)(row, bias);
        }
        act.apply_row_with(kern, row);
    }
}

/// Direct kernels for products too small to amortize packing. All three
/// run unit-stride in their inner loop without touching a transpose.
#[allow(clippy::too_many_arguments)]
fn small_product(
    kern: &'static Kernels,
    layout: Layout,
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
) {
    match layout {
        Layout::Nn => {
            for i in 0..m {
                // Whole row product in one dispatched call — the axpy
                // sweep runs inside the backend (see `Kernels::vecmat`).
                (kern.vecmat)(&a[i * k..(i + 1) * k], b, &mut out[i * n..(i + 1) * n]);
            }
        }
        Layout::Nt => {
            for i in 0..m {
                let a_row = &a[i * k..(i + 1) * k];
                let out_row = &mut out[i * n..(i + 1) * n];
                for (j, o) in out_row.iter_mut().enumerate() {
                    *o += (kern.dot)(a_row, &b[j * k..(j + 1) * k]);
                }
            }
        }
        Layout::Tn => {
            for p in 0..k {
                let a_col = &a[p * m..(p + 1) * m];
                let b_row = &b[p * n..(p + 1) * n];
                for (i, &av) in a_col.iter().enumerate() {
                    (kern.axpy)(av, b_row, &mut out[i * n..(i + 1) * n]);
                }
            }
        }
    }
}

/// Packed blocked path, optionally fanned out over the pool.
#[allow(clippy::too_many_arguments)]
fn blocked_product(
    kern: &'static Kernels,
    layout: Layout,
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    pack: &mut PackBuffer,
    pool: Option<&WorkPool>,
) {
    let npad = n.div_ceil(NR) * NR;
    let PackBuffer { a: pa, b: pb, allocations } = pack;
    ensure(pb, k * npad, allocations);
    pack_b(layout, n, k, b, &mut pb[..k * npad]);
    let pb = &pb[..k * npad];

    let row_tiles = m.div_ceil(PAR_MC);
    let col_tiles = n.div_ceil(PAR_NC);
    let workers = pool.map_or(1, WorkPool::threads);
    if workers > 1 && row_tiles >= col_tiles && row_tiles > 1 {
        // Row macro-tiles: each worker owns a disjoint block of output
        // rows (a contiguous chunk of the row-major buffer) and packs A
        // into its thread-local tile workspace, so steady-state fan-outs
        // allocate nothing.
        let pool = pool.expect("workers > 1 implies a pool");
        pool.for_each_chunk_mut(&mut out[..m * n], PAR_MC * n, |tile, chunk| {
            let r0 = tile * PAR_MC;
            let r1 = r0 + chunk.len() / n;
            TL_TILE_PACK.with(|p| {
                let local = &mut *p.borrow_mut();
                gemm_rows(
                    kern,
                    layout,
                    r0,
                    r1,
                    0,
                    n,
                    m,
                    k,
                    a,
                    pb,
                    npad,
                    chunk,
                    n,
                    &mut local.a,
                    &mut local.allocations,
                );
            });
        });
    } else if workers > 1 && col_tiles > 1 {
        // Column macro-tiles (row-vector GEMMs): workers compute disjoint
        // column stripes into local buffers, merged by column in a fixed
        // order afterwards. Each stripe holds only this call's products,
        // so the merge is an add on top of any accumulate base.
        let pool = pool.expect("workers > 1 implies a pool");
        let stripes: Vec<usize> = (0..col_tiles).collect();
        let results = pool.map(&stripes, |&tile| {
            let c0 = tile * PAR_NC;
            let c1 = (c0 + PAR_NC).min(n);
            let mut stripe = vec![0.0f32; m * (c1 - c0)];
            TL_TILE_PACK.with(|p| {
                let local = &mut *p.borrow_mut();
                gemm_rows(
                    kern,
                    layout,
                    0,
                    m,
                    c0,
                    c1,
                    m,
                    k,
                    a,
                    pb,
                    npad,
                    &mut stripe,
                    c1 - c0,
                    &mut local.a,
                    &mut local.allocations,
                );
            });
            stripe
        });
        for (tile, stripe) in results.iter().enumerate() {
            let c0 = tile * PAR_NC;
            let cw = stripe.len() / m;
            for r in 0..m {
                let dst = &mut out[r * n + c0..r * n + c0 + cw];
                for (o, &v) in dst.iter_mut().zip(&stripe[r * cw..(r + 1) * cw]) {
                    *o += v;
                }
            }
        }
    } else {
        gemm_rows(kern, layout, 0, m, 0, n, m, k, a, pb, npad, &mut out[..m * n], n, pa, allocations);
    }
}

/// Serial blocked compute for output rows `[r0, r1)` × columns
/// `[c0, c1)` (`c0` must be `NR`-aligned). `out` covers exactly that
/// window with row stride `ostride`; products are *added* into it.
#[allow(clippy::too_many_arguments)]
fn gemm_rows(
    kern: &'static Kernels,
    layout: Layout,
    r0: usize,
    r1: usize,
    c0: usize,
    c1: usize,
    m: usize,
    k: usize,
    a: &[f32],
    pb: &[f32],
    npad: usize,
    out: &mut [f32],
    ostride: usize,
    pa: &mut Vec<f32>,
    allocations: &mut usize,
) {
    debug_assert_eq!(c0 % NR, 0);
    for ic in (r0..r1).step_by(MC) {
        let mc = MC.min(r1 - ic);
        let mcpad = mc.div_ceil(MR) * MR;
        for pc in (0..k).step_by(KC) {
            let kc = KC.min(k - pc);
            ensure(pa, mcpad * kc, allocations);
            pack_a(layout, ic, mc, pc, kc, m, k, a, &mut pa[..mcpad * kc]);
            let slab = &pb[pc * npad..pc * npad + kc * npad];
            for js in (c0 / NR)..c1.div_ceil(NR) {
                let pbs = &slab[js * kc * NR..(js + 1) * kc * NR];
                let jcol = js * NR;
                let jlim = NR.min(c1 - jcol);
                for is in 0..mcpad / MR {
                    let pas = &pa[is * kc * MR..(is + 1) * kc * MR];
                    let acc = (kern.microkernel)(pas, pbs);
                    let ilim = MR.min(mc - is * MR);
                    let row0 = ic - r0 + is * MR;
                    for (i, acc_row) in acc.iter().enumerate().take(ilim) {
                        let dst = &mut out[(row0 + i) * ostride + (jcol - c0)..][..jlim];
                        for (o, &v) in dst.iter_mut().zip(acc_row) {
                            *o += v;
                        }
                    }
                }
            }
        }
    }
}

/// Packs logical `A[ic..ic+mc, pc..pc+kc]` into `MR`-row slivers, zero
/// padding the row remainder. Absorbs the `Tn` transpose.
#[allow(clippy::too_many_arguments)]
fn pack_a(layout: Layout, ic: usize, mc: usize, pc: usize, kc: usize, m: usize, k: usize, a: &[f32], pa: &mut [f32]) {
    let mcpad = mc.div_ceil(MR) * MR;
    for is in 0..mcpad / MR {
        let sliver = &mut pa[is * kc * MR..(is + 1) * kc * MR];
        for p in 0..kc {
            for i in 0..MR {
                let r = is * MR + i;
                sliver[p * MR + i] = if r < mc {
                    match layout {
                        Layout::Nn | Layout::Nt => a[(ic + r) * k + pc + p],
                        Layout::Tn => a[(pc + p) * m + ic + r],
                    }
                } else {
                    0.0
                };
            }
        }
    }
}

/// Packs all of logical `B` into per-`KC` slabs of `NR`-column slivers,
/// zero padding the column remainder. Absorbs the `Nt` transpose.
fn pack_b(layout: Layout, n: usize, k: usize, b: &[f32], pb: &mut [f32]) {
    let npad = n.div_ceil(NR) * NR;
    for pc in (0..k).step_by(KC) {
        let kc = KC.min(k - pc);
        let slab = &mut pb[pc * npad..pc * npad + kc * npad];
        for js in 0..npad / NR {
            let jcol = js * NR;
            let jlim = NR.min(n - jcol);
            let sliver = &mut slab[js * kc * NR..(js + 1) * kc * NR];
            for p in 0..kc {
                let dst = &mut sliver[p * NR..(p + 1) * NR];
                match layout {
                    Layout::Nn | Layout::Tn => {
                        let src = &b[(pc + p) * n + jcol..(pc + p) * n + jcol + jlim];
                        dst[..jlim].copy_from_slice(src);
                    }
                    Layout::Nt => {
                        for (j, d) in dst.iter_mut().enumerate().take(jlim) {
                            *d = b[(jcol + j) * k + pc + p];
                        }
                    }
                }
                for d in &mut dst[jlim..] {
                    *d = 0.0;
                }
            }
        }
    }
}
