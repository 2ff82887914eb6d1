//! Runtime-dispatched explicit SIMD kernels for the GEMM core.
//!
//! The blocked GEMM kernel previously relied on the
//! autovectorizer, which on the default x86-64 target (SSE2 baseline)
//! never emits AVX or FMA instructions. This module supplies explicit
//! implementations of the hot inner loops — the `MR×NR` microkernel, the
//! axpy/dot primitives behind the small-product kernels and
//! [`crate::vecmat_acc`], the training tape's row kernels
//! ([`crate::dot_cols_acc`], [`crate::outer_acc`]), and the epilogue ops
//! (bias, ReLU, and the `sigmoid` / `tanh` of [`crate::activation`]) —
//! for:
//!
//! * **AVX2 + FMA** (x86_64), selected when `is_x86_feature_detected!`
//!   confirms both features at first use;
//! * **scalar** — the original autovectorized loops, kept as the portable
//!   fallback (every other target runs it) and as the equivalence oracle
//!   for the dispatch-matrix tests.
//!
//! Selection happens once (cached in a [`OnceLock`]) and is exposed as a
//! vtable of plain `fn` pointers, so per-call dispatch is one relaxed
//! atomic load plus an indirect call that each kernel amortizes over
//! thousands of multiply-adds.
//!
//! ## Overrides and observability
//!
//! `PDDL_FORCE_SCALAR=1` in the environment pins the scalar backend at
//! startup; [`set_force_scalar`] flips it at runtime (how the
//! dispatch-matrix tests run both paths in one process). The active
//! backend is mirrored into the telemetry registry as the 0/1 info-gauges
//! `tensor.kernel.avx2_fma` and `tensor.kernel.scalar`, which flow into
//! the `{"op":"stats"}` snapshot unchanged.
//!
//! ## Numerics
//!
//! The scalar backend is bit-identical to the pre-dispatch kernels. The
//! AVX2 backend fuses each multiply-add into a single rounding, so its
//! results are *not* bit-identical to scalar — the dispatch-matrix tests
//! assert ≤ 1e-5 relative error for it and exact bits for scalar. Within one backend, results remain bit-identical across
//! runs and pool sizes (the macro-tile partition is shape-only). The
//! `sigmoid` / `tanh` row kernels are the exception that needs no
//! tolerance: [`crate::activation`] is written without FMA, so every
//! backend returns the bits of its scalar function; so is `outer_acc`,
//! a multiply and an add per element. `dot_cols` is held to its own
//! backend's `dot` by bits, whichever that is.

use crate::gemm::{MR, NR};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

/// Which explicit-SIMD implementation the dispatcher selected.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KernelBackend {
    /// AVX2 + FMA intrinsics (x86_64, runtime-detected).
    Avx2Fma,
    /// Portable autovectorized loops (fallback and equivalence oracle).
    Scalar,
}

impl KernelBackend {
    /// Human-readable backend name, as reported in benches and stats.
    pub fn name(self) -> &'static str {
        match self {
            KernelBackend::Avx2Fma => "avx2+fma",
            KernelBackend::Scalar => "scalar",
        }
    }
}

/// The dispatched kernel set: one function pointer per hot inner loop.
/// `&'static Kernels` is what [`active`] hands the GEMM core.
pub(crate) struct Kernels {
    /// Backend these pointers belong to.
    pub backend: KernelBackend,
    /// `MR×NR` register-tile microkernel over packed panels.
    pub microkernel: fn(&[f32], &[f32]) -> [[f32; NR]; MR],
    /// `y[i] += a * x[i]` over the common prefix.
    pub axpy: fn(f32, &[f32], &mut [f32]),
    /// Whole vector·matrix accumulate: `out[j] += Σ_p v[p]·w[p*n+j]`
    /// with `n = out.len()` and `w` row-major, bit for bit one `axpy` per
    /// weight row. The loop nest runs *inside* the backend so a tiny
    /// product (a GHN node update) pays one indirect call, not one per row.
    pub vecmat: fn(&[f32], &[f32], &mut [f32]),
    /// Dot product with the 8-lane partial-sum accumulation structure.
    pub dot: fn(&[f32], &[f32]) -> f32,
    /// `out[j] += dot(v, wt[.., j])` for a row-major `v.len() × n` `wt`
    /// (`n = out.len()`): per output the bits of `dot` against column `j`,
    /// eight outputs at a time. With `wt = Wᵀ` this is `v · Wᵀ` by the
    /// sums `dot` makes against the rows of `W`, without a horizontal sum
    /// per output.
    pub dot_cols: fn(&[f32], &[f32], &mut [f32]),
    /// Rank-1 updates `acc[i·n + j] += xs[q·k + i] · ds[q·n + j]` of a
    /// `k×n` `acc`, one term `q` after another: each a multiply, a rounding
    /// and an add — no FMA on any backend, so every backend returns the
    /// scalar loop's bits. The first argument is the number of terms.
    pub outer_acc: fn(usize, &[f32], &[f32], &mut [f32]),
    /// `row[i] += bias[i]` (exact regardless of backend).
    pub bias_add: fn(&mut [f32], &[f32]),
    /// `row[i] = max(row[i], 0)` (exact regardless of backend).
    pub relu: fn(&mut [f32]),
    /// `row[i] = sigmoid(row[i])`, the bits of [`crate::activation::sigmoid`]
    /// on every backend.
    pub sigmoid: fn(&mut [f32]),
    /// `row[i] = tanh(row[i])`, the bits of [`crate::activation::tanh`] on
    /// every backend.
    pub tanh: fn(&mut [f32]),
}

static FORCE_SCALAR: AtomicBool = AtomicBool::new(false);

fn native() -> &'static Kernels {
    static NATIVE: OnceLock<&'static Kernels> = OnceLock::new();
    NATIVE.get_or_init(|| {
        if std::env::var("PDDL_FORCE_SCALAR").is_ok_and(|v| v == "1") {
            FORCE_SCALAR.store(true, Ordering::Relaxed);
        }
        let k = detect();
        report_backend(if FORCE_SCALAR.load(Ordering::Relaxed) {
            KernelBackend::Scalar
        } else {
            k.backend
        });
        k
    })
}

#[cfg(target_arch = "x86_64")]
fn detect() -> &'static Kernels {
    if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma") {
        &avx2::KERNELS
    } else {
        &scalar::KERNELS
    }
}

#[cfg(not(target_arch = "x86_64"))]
fn detect() -> &'static Kernels {
    &scalar::KERNELS
}

/// The kernel set for the current call: the detected native backend, or
/// scalar while the force-scalar override is on.
pub(crate) fn active() -> &'static Kernels {
    let k = native();
    if FORCE_SCALAR.load(Ordering::Relaxed) {
        &scalar::KERNELS
    } else {
        k
    }
}

/// The backend the next kernel call will run on.
pub fn backend() -> KernelBackend {
    active().backend
}

/// Forces (or releases) the scalar fallback at runtime, overriding the
/// detected backend. Used by the dual-run CI legs and the
/// dispatch-matrix tests; `PDDL_FORCE_SCALAR=1` sets
/// the same override at startup. Updates the `tensor.kernel.*` gauges.
pub fn set_force_scalar(on: bool) {
    let _ = native(); // ensure detection ran so backend() below is the truth
    FORCE_SCALAR.store(on, Ordering::Relaxed);
    report_backend(backend());
}

/// Is the scalar override currently on?
pub fn force_scalar() -> bool {
    FORCE_SCALAR.load(Ordering::Relaxed)
}

/// Mirrors the selected backend into 0/1 info-gauges so a live shard's
/// stats show what it is actually running.
fn report_backend(active: KernelBackend) {
    let on = |b| i64::from(b == active);
    pddl_telemetry::gauge("tensor.kernel.avx2_fma").set(on(KernelBackend::Avx2Fma));
    pddl_telemetry::gauge("tensor.kernel.scalar").set(on(KernelBackend::Scalar));
}

// ----------------------------------------------------------------------
// Scalar backend: the original autovectorized loops, unchanged — the
// portable fallback and the bit-exactness oracle.
// ----------------------------------------------------------------------

pub(crate) mod scalar {
    use super::*;

    pub(crate) static KERNELS: Kernels = Kernels {
        backend: KernelBackend::Scalar,
        microkernel,
        axpy,
        vecmat,
        dot,
        dot_cols,
        outer_acc,
        bias_add,
        relu,
        sigmoid: crate::activation::sigmoid_row,
        tanh: crate::activation::tanh_row,
    };

    /// The register tile: `MR×NR` accumulators updated by `kc` rank-1
    /// steps. Both panels are packed contiguous, so every load is
    /// unit-stride and the inner `NR` loop autovectorizes.
    #[inline(always)]
    pub(crate) fn microkernel(pa: &[f32], pb: &[f32]) -> [[f32; NR]; MR] {
        let mut acc = [[0.0f32; NR]; MR];
        for (av, bv) in pa.chunks_exact(MR).zip(pb.chunks_exact(NR)) {
            for (i, acc_row) in acc.iter_mut().enumerate() {
                let ai = av[i];
                for (j, c) in acc_row.iter_mut().enumerate() {
                    *c += ai * bv[j];
                }
            }
        }
        acc
    }

    #[inline(always)]
    pub(crate) fn axpy(a: f32, x: &[f32], y: &mut [f32]) {
        for (o, &xv) in y.iter_mut().zip(x) {
            *o += a * xv;
        }
    }

    #[inline(always)]
    pub(crate) fn vecmat(v: &[f32], w: &[f32], out: &mut [f32]) {
        let n = out.len();
        for (p, &vp) in v.iter().enumerate() {
            axpy(vp, &w[p * n..(p + 1) * n], out);
        }
    }

    /// Unit-stride dot with 8 partial lanes (tames f32 cancellation on
    /// long rows); identical accumulation structure to the SIMD dots.
    #[inline(always)]
    pub(crate) fn dot(a: &[f32], b: &[f32]) -> f32 {
        debug_assert_eq!(a.len(), b.len());
        let mut acc = 0.0f32;
        let chunks = a.len() / 8 * 8;
        let mut partial = [0.0f32; 8];
        for i in (0..chunks).step_by(8) {
            for l in 0..8 {
                partial[l] += a[i + l] * b[i + l];
            }
        }
        for p in partial {
            acc += p;
        }
        for i in chunks..a.len() {
            acc += a[i] * b[i];
        }
        acc
    }

    /// [`dot`] against eight columns at once: lane `l` of column `c` is
    /// `partial[l][c]`, summed from zero in lane order, then the tail.
    pub(crate) fn dot_cols(v: &[f32], wt: &[f32], out: &mut [f32]) {
        let (k, n) = (v.len(), out.len());
        assert!(wt.len() >= k * n, "dot_cols weight slice too short");
        let chunks = k / 8 * 8;
        for (j, block) in out.chunks_mut(8).enumerate() {
            let j = 8 * j;
            let mut partial = [[0.0f32; 8]; 8];
            for i in (0..chunks).step_by(8) {
                for (l, lane) in partial.iter_mut().enumerate() {
                    let (vi, row) = (v[i + l], &wt[(i + l) * n + j..][..block.len()]);
                    for (p, &w) in lane.iter_mut().zip(row) {
                        *p += vi * w;
                    }
                }
            }
            let mut acc = [0.0f32; 8];
            for lane in &partial {
                for (a, &p) in acc.iter_mut().zip(lane) {
                    *a += p;
                }
            }
            for (i, &vi) in v.iter().enumerate().skip(chunks) {
                for (a, &w) in acc.iter_mut().zip(&wt[i * n + j..][..block.len()]) {
                    *a += vi * w;
                }
            }
            for (o, &a) in block.iter_mut().zip(&acc) {
                *o += a;
            }
        }
    }

    pub(crate) fn outer_acc(terms: usize, xs: &[f32], ds: &[f32], acc: &mut [f32]) {
        let (k, n) = (xs.len() / terms.max(1), ds.len() / terms.max(1));
        for (i, acc_row) in acc.chunks_exact_mut(n.max(1)).enumerate().take(k) {
            for (x, d) in xs.chunks_exact(k).zip(ds.chunks_exact(n)).take(terms) {
                for (a, &dj) in acc_row.iter_mut().zip(d) {
                    *a += x[i] * dj;
                }
            }
        }
    }

    #[inline(always)]
    pub(crate) fn bias_add(row: &mut [f32], bias: &[f32]) {
        for (x, &bv) in row.iter_mut().zip(bias) {
            *x += bv;
        }
    }

    #[inline(always)]
    pub(crate) fn relu(row: &mut [f32]) {
        for x in row.iter_mut() {
            *x = x.max(0.0);
        }
    }
}

// ----------------------------------------------------------------------
// AVX2 + FMA backend (x86_64, runtime-detected).
// ----------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::*;
    use std::arch::x86_64::*;

    pub(crate) static KERNELS: Kernels = Kernels {
        backend: KernelBackend::Avx2Fma,
        microkernel,
        axpy,
        vecmat,
        dot,
        dot_cols,
        outer_acc,
        bias_add,
        relu,
        sigmoid,
        tanh,
    };

    // Safe entry points: each wraps one `#[target_feature]` function.
    // SAFETY throughout: this vtable is only installed by `detect()`
    // after `is_x86_feature_detected!` confirmed avx2 and fma.

    fn microkernel(pa: &[f32], pb: &[f32]) -> [[f32; NR]; MR] {
        unsafe { microkernel_impl(pa, pb) }
    }

    fn axpy(a: f32, x: &[f32], y: &mut [f32]) {
        unsafe { axpy_impl(a, x, y) }
    }

    fn vecmat(v: &[f32], w: &[f32], out: &mut [f32]) {
        unsafe { vecmat_impl(v, w, out) }
    }

    fn dot(a: &[f32], b: &[f32]) -> f32 {
        unsafe { dot_impl(a, b) }
    }

    fn dot_cols(v: &[f32], wt: &[f32], out: &mut [f32]) {
        unsafe { dot_cols_impl(v, wt, out) }
    }

    fn outer_acc(terms: usize, xs: &[f32], ds: &[f32], acc: &mut [f32]) {
        unsafe { outer_acc_impl(terms, xs, ds, acc) }
    }

    fn bias_add(row: &mut [f32], bias: &[f32]) {
        unsafe { bias_add_impl(row, bias) }
    }

    fn relu(row: &mut [f32]) {
        unsafe { relu_impl(row) }
    }

    fn sigmoid(row: &mut [f32]) {
        unsafe { crate::activation::avx2::sigmoid_row(row) }
    }

    fn tanh(row: &mut [f32]) {
        unsafe { crate::activation::avx2::tanh_row(row) }
    }

    /// 4×16 tile as 8 `__m256` accumulators (4 rows × 2 half-rows): per
    /// depth step, two B loads and four broadcast-FMA pairs.
    #[target_feature(enable = "avx2,fma")]
    unsafe fn microkernel_impl(pa: &[f32], pb: &[f32]) -> [[f32; NR]; MR] {
        let kc = pa.len() / MR;
        debug_assert_eq!(pb.len(), kc * NR);
        let mut acc = [[_mm256_setzero_ps(); 2]; MR];
        let mut ap = pa.as_ptr();
        let mut bp = pb.as_ptr();
        for _ in 0..kc {
            let b0 = _mm256_loadu_ps(bp);
            let b1 = _mm256_loadu_ps(bp.add(8));
            // Unrolled over the MR rows so each accumulator stays pinned
            // to a register across the whole depth loop.
            for (i, acc_row) in acc.iter_mut().enumerate() {
                let a = _mm256_broadcast_ss(&*ap.add(i));
                acc_row[0] = _mm256_fmadd_ps(a, b0, acc_row[0]);
                acc_row[1] = _mm256_fmadd_ps(a, b1, acc_row[1]);
            }
            ap = ap.add(MR);
            bp = bp.add(NR);
        }
        let mut out = [[0.0f32; NR]; MR];
        for (o, a) in out.iter_mut().zip(&acc) {
            _mm256_storeu_ps(o.as_mut_ptr(), a[0]);
            _mm256_storeu_ps(o.as_mut_ptr().add(8), a[1]);
        }
        out
    }

    #[target_feature(enable = "avx2,fma")]
    unsafe fn axpy_impl(a: f32, x: &[f32], y: &mut [f32]) {
        let n = y.len().min(x.len());
        let va = _mm256_set1_ps(a);
        let xp = x.as_ptr();
        let yp = y.as_mut_ptr();
        let mut i = 0;
        while i + 8 <= n {
            let vy = _mm256_loadu_ps(yp.add(i));
            let vx = _mm256_loadu_ps(xp.add(i));
            _mm256_storeu_ps(yp.add(i), _mm256_fmadd_ps(va, vx, vy));
            i += 8;
        }
        while i < n {
            *yp.add(i) += a * *xp.add(i);
            i += 1;
        }
    }

    /// Whole product with the output held in registers across the depth
    /// loop, in blocks of 64, 32 or 8 columns: per element the FMA
    /// sequence of an [`axpy_impl`] sweep over the weight rows (so the same
    /// bits) without its load and store of `out` per row.
    #[target_feature(enable = "avx2,fma")]
    unsafe fn vecmat_impl(v: &[f32], w: &[f32], out: &mut [f32]) {
        let n = out.len();
        assert!(w.len() >= v.len() * n, "vecmat weight slice too short");
        let mut j = 0;
        while n - j >= 8 {
            j += match n - j {
                64.. => vecmat_block::<8>(v, w, j, out),
                32.. => vecmat_block::<4>(v, w, j, out),
                _ => vecmat_block::<1>(v, w, j, out),
            };
        }
        // Column remainder: multiply, then add, as in the axpy tail.
        for (c, o) in out.iter_mut().enumerate().skip(j) {
            for (p, &vp) in v.iter().enumerate() {
                *o += vp * w[p * n + c];
            }
        }
    }

    /// Columns `j .. j + 8·L` of [`vecmat_impl`], in `L` accumulators that
    /// the constant trip counts keep in registers; returns the `8·L` done.
    ///
    /// # Safety
    /// Needs avx2 + fma, `j + 8·L ≤ out.len()` and
    /// `w.len() ≥ v.len() · out.len()`.
    #[target_feature(enable = "avx2,fma")]
    unsafe fn vecmat_block<const L: usize>(v: &[f32], w: &[f32], j: usize, out: &mut [f32]) -> usize {
        let n = out.len();
        let op = out.as_mut_ptr().add(j);
        let mut acc = [_mm256_setzero_ps(); L];
        for (l, a) in acc.iter_mut().enumerate() {
            *a = _mm256_loadu_ps(op.add(8 * l));
        }
        for (p, &vp) in v.iter().enumerate() {
            let va = _mm256_set1_ps(vp);
            let wp = w.as_ptr().add(p * n + j);
            for (l, a) in acc.iter_mut().enumerate() {
                *a = _mm256_fmadd_ps(va, _mm256_loadu_ps(wp.add(8 * l)), *a);
            }
        }
        for (l, a) in acc.iter().enumerate() {
            _mm256_storeu_ps(op.add(8 * l), *a);
        }
        8 * L
    }

    #[target_feature(enable = "avx2,fma")]
    unsafe fn dot_impl(a: &[f32], b: &[f32]) -> f32 {
        debug_assert_eq!(a.len(), b.len());
        let n = a.len();
        let ap = a.as_ptr();
        let bp = b.as_ptr();
        let mut vacc = _mm256_setzero_ps();
        let chunks = n / 8 * 8;
        let mut i = 0;
        while i < chunks {
            let va = _mm256_loadu_ps(ap.add(i));
            let vb = _mm256_loadu_ps(bp.add(i));
            vacc = _mm256_fmadd_ps(va, vb, vacc);
            i += 8;
        }
        // Sum the 8 lanes sequentially, mirroring the scalar dot's
        // partial-lane reduction order.
        let mut partial = [0.0f32; 8];
        _mm256_storeu_ps(partial.as_mut_ptr(), vacc);
        let mut acc = 0.0f32;
        for p in partial {
            acc += p;
        }
        while i < n {
            acc += *ap.add(i) * *bp.add(i);
            i += 1;
        }
        acc
    }

    /// [`dot_impl`] against eight columns at once: register `l` holds lane
    /// `l` of eight outputs (`acc_l = fma(v[8c + l], wt[8c + l, j..j + 8],
    /// acc_l)`), the lanes are added from zero in order, then the tail by
    /// multiply and add; a column remainder takes `dot_impl`'s statements
    /// one column at a time.
    #[target_feature(enable = "avx2,fma")]
    unsafe fn dot_cols_impl(v: &[f32], wt: &[f32], out: &mut [f32]) {
        let (k, n) = (v.len(), out.len());
        assert!(wt.len() >= k * n, "dot_cols weight slice too short");
        let chunks = k / 8 * 8;
        let (vp, wp, op) = (v.as_ptr(), wt.as_ptr(), out.as_mut_ptr());
        let mut j = 0;
        while j + 8 <= n {
            let mut lanes = [_mm256_setzero_ps(); 8];
            for i in (0..chunks).step_by(8) {
                for (l, lane) in lanes.iter_mut().enumerate() {
                    let w = _mm256_loadu_ps(wp.add((i + l) * n + j));
                    *lane = _mm256_fmadd_ps(_mm256_set1_ps(*vp.add(i + l)), w, *lane);
                }
            }
            let mut acc = _mm256_setzero_ps();
            for lane in lanes {
                acc = _mm256_add_ps(acc, lane);
            }
            for i in chunks..k {
                let w = _mm256_loadu_ps(wp.add(i * n + j));
                acc = _mm256_add_ps(acc, _mm256_mul_ps(_mm256_set1_ps(*vp.add(i)), w));
            }
            _mm256_storeu_ps(op.add(j), _mm256_add_ps(_mm256_loadu_ps(op.add(j)), acc));
            j += 8;
        }
        for (c, o) in out.iter_mut().enumerate().skip(j) {
            let mut partial = [0.0f32; 8];
            for i in (0..chunks).step_by(8) {
                for (l, p) in partial.iter_mut().enumerate() {
                    *p = v[i + l].mul_add(wt[(i + l) * n + c], *p);
                }
            }
            let mut acc = 0.0f32;
            for p in partial {
                acc += p;
            }
            for (i, &vi) in v.iter().enumerate().skip(chunks) {
                acc += vi * wt[i * n + c];
            }
            *o += acc;
        }
    }

    /// The scalar loop with a row of `acc` held in registers across the
    /// terms, 32 or 8 columns at a time: a separate multiply and add per
    /// lane, the same two roundings as the scalar statement.
    #[target_feature(enable = "avx2,fma")]
    unsafe fn outer_acc_impl(terms: usize, xs: &[f32], ds: &[f32], acc: &mut [f32]) {
        let (k, n) = (xs.len() / terms.max(1), ds.len() / terms.max(1));
        assert!(xs.len() == terms * k && ds.len() == terms * n && acc.len() >= k * n, "outer_acc shape mismatch");
        for i in 0..k {
            let mut j = 0;
            while n - j >= 8 {
                j += match n - j {
                    32.. => outer_block::<4>(terms, xs, ds, acc, (i, j, k, n)),
                    _ => outer_block::<1>(terms, xs, ds, acc, (i, j, k, n)),
                };
            }
            for c in j..n {
                let a = &mut acc[i * n + c];
                for q in 0..terms {
                    *a += xs[q * k + i] * ds[q * n + c];
                }
            }
        }
    }

    /// Columns `j .. j + 8·L` of row `i` of [`outer_acc_impl`], in `L`
    /// registers across every term; returns the `8·L` done.
    ///
    /// # Safety
    /// Needs avx2 and the shapes [`outer_acc_impl`] checks, `i < k` and
    /// `j + 8·L ≤ n`.
    #[target_feature(enable = "avx2,fma")]
    unsafe fn outer_block<const L: usize>(
        terms: usize,
        xs: &[f32],
        ds: &[f32],
        acc: &mut [f32],
        (i, j, k, n): (usize, usize, usize, usize),
    ) -> usize {
        let row = acc.as_mut_ptr().add(i * n + j);
        let mut regs = [_mm256_setzero_ps(); L];
        for (l, r) in regs.iter_mut().enumerate() {
            *r = _mm256_loadu_ps(row.add(8 * l));
        }
        for q in 0..terms {
            let (x, d) = (_mm256_set1_ps(*xs.get_unchecked(q * k + i)), ds.as_ptr().add(q * n + j));
            for (l, r) in regs.iter_mut().enumerate() {
                *r = _mm256_add_ps(*r, _mm256_mul_ps(x, _mm256_loadu_ps(d.add(8 * l))));
            }
        }
        for (l, r) in regs.iter().enumerate() {
            _mm256_storeu_ps(row.add(8 * l), *r);
        }
        8 * L
    }

    #[target_feature(enable = "avx2,fma")]
    unsafe fn bias_add_impl(row: &mut [f32], bias: &[f32]) {
        let n = row.len().min(bias.len());
        let rp = row.as_mut_ptr();
        let bp = bias.as_ptr();
        let mut i = 0;
        while i + 8 <= n {
            let vr = _mm256_loadu_ps(rp.add(i));
            let vb = _mm256_loadu_ps(bp.add(i));
            _mm256_storeu_ps(rp.add(i), _mm256_add_ps(vr, vb));
            i += 8;
        }
        while i < n {
            *rp.add(i) += *bp.add(i);
            i += 1;
        }
    }

    #[target_feature(enable = "avx2,fma")]
    unsafe fn relu_impl(row: &mut [f32]) {
        let n = row.len();
        let rp = row.as_mut_ptr();
        let zero = _mm256_setzero_ps();
        let mut i = 0;
        while i + 8 <= n {
            let v = _mm256_loadu_ps(rp.add(i));
            _mm256_storeu_ps(rp.add(i), _mm256_max_ps(v, zero));
            i += 8;
        }
        while i < n {
            let v = *rp.add(i);
            *rp.add(i) = v.max(0.0);
            i += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_name_round_trips() {
        assert_eq!(KernelBackend::Avx2Fma.name(), "avx2+fma");
        assert_eq!(KernelBackend::Scalar.name(), "scalar");
    }

    #[test]
    fn force_scalar_overrides_and_releases() {
        let prior = force_scalar();
        set_force_scalar(true);
        assert_eq!(backend(), KernelBackend::Scalar);
        let snap = pddl_telemetry::snapshot();
        assert_eq!(snap.gauge("tensor.kernel.scalar"), Some(1));
        set_force_scalar(false);
        let k = backend();
        // Whatever the hardware offers, the override is off again.
        let snap = pddl_telemetry::snapshot();
        assert_eq!(snap.gauge("tensor.kernel.scalar"), Some(i64::from(k == KernelBackend::Scalar)));
        set_force_scalar(prior);
    }

    #[test]
    fn dispatched_axpy_matches_scalar_within_tolerance() {
        let x: Vec<f32> = (0..37).map(|i| (i as f32 * 0.37).sin()).collect();
        let mut y_simd = vec![0.25f32; 37];
        let mut y_ref = y_simd.clone();
        (active().axpy)(1.5, &x, &mut y_simd);
        scalar::axpy(1.5, &x, &mut y_ref);
        for (a, b) in y_simd.iter().zip(&y_ref) {
            assert!((a - b).abs() <= 1e-5 * b.abs().max(1.0), "{a} vs {b}");
        }
    }

    #[test]
    fn dispatched_vecmat_matches_scalar_within_tolerance() {
        let (k, n) = (13, 21);
        let v: Vec<f32> = (0..k).map(|i| (i as f32 * 0.29).cos()).collect();
        let w: Vec<f32> = (0..k * n).map(|i| (i as f32 * 0.13).sin()).collect();
        let mut out_simd = vec![0.5f32; n];
        let mut out_ref = out_simd.clone();
        (active().vecmat)(&v, &w, &mut out_simd);
        scalar::vecmat(&v, &w, &mut out_ref);
        for (a, b) in out_simd.iter().zip(&out_ref) {
            assert!((a - b).abs() <= 1e-5 * b.abs().max(1.0), "{a} vs {b}");
        }
    }

    #[test]
    fn vecmat_equals_the_axpy_sweep_bit_for_bit() {
        // Every block width of the register kernel (64, 32, 8 columns)
        // and its column remainder, on a non-zero initial `out`.
        let kern = active();
        for n in [7, 8, 24, 32, 33, 64, 72, 96] {
            for k in [1, 28, 32, 48] {
                let v: Vec<f32> = (0..k).map(|i| (i as f32 * 0.29).cos()).collect();
                let w: Vec<f32> = (0..k * n).map(|i| (i as f32 * 0.13).sin()).collect();
                let mut out: Vec<f32> = (0..n).map(|j| (j as f32 * 0.41).sin()).collect();
                let mut swept = out.clone();
                (kern.vecmat)(&v, &w, &mut out);
                for (p, &vp) in v.iter().enumerate() {
                    (kern.axpy)(vp, &w[p * n..(p + 1) * n], &mut swept);
                }
                let bits = |x: &[f32]| x.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&out), bits(&swept), "n = {n}, k = {k}");
            }
        }
    }

    #[test]
    fn dispatched_dot_matches_scalar_within_tolerance() {
        let a: Vec<f32> = (0..103).map(|i| (i as f32 * 0.11).cos()).collect();
        let b: Vec<f32> = (0..103).map(|i| (i as f32 * 0.07).sin()).collect();
        let d_simd = (active().dot)(&a, &b);
        let d_ref = scalar::dot(&a, &b);
        assert!((d_simd - d_ref).abs() <= 1e-4 * d_ref.abs().max(1.0));
    }
}
