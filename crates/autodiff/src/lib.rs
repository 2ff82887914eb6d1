//! Reverse-mode automatic differentiation for the PredictDDL reproduction.
//!
//! The GHN-2 implementation (`pddl-ghn`) and the MLP regressor
//! (`pddl-regress`) need gradients through compositions of matrix products,
//! broadcast bias additions, GRU cells and elementwise nonlinearities. This
//! crate provides a classic *tape* design:
//!
//! * a [`ParamStore`] owns the persistent, trainable parameter matrices;
//! * every forward pass records operations onto a fresh [`Tape`], producing
//!   [`Var`] handles — one leaf per parameter, however many layers' calls
//!   read it;
//! * [`Tape::backward`] replays the tape in reverse, producing a
//!   [`Gradients`] table with one slot per [`ParamId`];
//! * [`Adam`] consumes the gradients and updates the store;
//! * the layers ([`Linear`], [`Mlp`], [`GruCell`]) register their weights
//!   by name in a fixed order and keep only their ids, so a model is
//!   restored by running its constructors again and filling the new store
//!   from the stored one ([`ParamStore::load`]).
//!
//! Operations are an enum (not boxed closures), so the backward pass is one
//! `match`. Values and gradients live in buffers the tape owns, not one
//! matrix per op, and a training loop that hands each step's
//! [`TapeBuffers`] to the next stops allocating them once its largest step
//! has run. One-row products run on row kernels: `g·Wᵀ` on `W` transposed
//! once per pass, and the weights' rank-1 gradient terms queued and added
//! in blocks — each with the bits of the product it replaces.

pub mod layers;
pub mod optim;
pub mod tape;

pub use layers::{GruCell, Linear, Mlp};
pub use optim::Adam;
pub use tape::{
    gradient_check, gradient_check_with_step, Gradients, ParamId, ParamStore, Tape, TapeBuffers, Var,
};
