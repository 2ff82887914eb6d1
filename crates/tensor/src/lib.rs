//! Dense `f32` matrix kernels for the PredictDDL reproduction.
//!
//! This crate is the numeric substrate under the autodiff engine
//! (`pddl-autodiff`), the GHN-2 implementation and the regression library.
//! It deliberately implements only what those layers need — row-major dense
//! matrices, a blocked packed GEMM core, a deterministic counter-free RNG,
//! and the decompositions (Householder QR, Cholesky) used by the
//! least-squares solvers — instead of pulling in a BLAS binding.
//!
//! Design notes (following the session's hpc-parallel guides):
//! * storage is a single contiguous `Vec<f32>` (cache-friendly, no per-row
//!   allocation);
//! * GEMM is a cache-blocked, register-tiled kernel with one-time operand
//!   packing ([`gemm`]): `A·B`, `A·Bᵀ` and `Aᵀ·B` share one microkernel,
//!   fused bias/activation epilogues serve the affine layers, and
//!   macro-tiles fan out over the `pddl_par` work pool above a size
//!   threshold — deterministic for any worker count because the tile
//!   partition never depends on it;
//! * the hot inner loops dispatch at runtime to explicit AVX2/FMA or
//!   NEON implementations ([`kernels`]), with the scalar loops kept as
//!   the portable fallback and equivalence oracle;
//! * all randomness goes through [`rng::Rng`], a seeded xoshiro256**, so every
//!   experiment in the workspace is reproducible bit-for-bit.

pub mod activation;
pub mod gemm;
pub mod kernels;
pub mod linalg;
pub mod matrix;
pub mod rng;

pub use gemm::{Activation, PackBuffer};
pub use kernels::{backend, set_force_scalar, KernelBackend};
pub use matrix::{vecmat_acc, vecmat_bias_act, Matrix};
pub use rng::Rng;
