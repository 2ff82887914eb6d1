//! # pddl-faults
//!
//! Deterministic fault injection for the PredictDDL wire layer.
//!
//! A [`FaultPlan`] is a seed plus per-operation probabilities for five
//! fault classes — delays, connection resets, truncated writes,
//! garbage-byte corruption, and silently dropped writes. From a plan, each
//! connection derives an independent, fully deterministic [`FaultSchedule`]
//! per direction; [`FaultyRead`]/[`FaultyWrite`] apply that schedule to any
//! `Read`/`Write` transport.
//!
//! Determinism is the point: the same `(plan seed, connection number,
//! direction)` triple reproduces the same injected-fault sequence
//! byte-for-byte, so a soak-test failure log names everything needed to
//! replay it (see `TESTING.md`).
//!
//! The controller is handed a plan when it starts serving
//! (`ServeConfig::fault_plan`) and wraps every accepted connection in it;
//! the CLI gets its plan from `predictddl-cli serve --fault-plan`.
//! Integration tests and the CLI therefore run identical chaos schedules,
//! and nothing reads the environment.
//!
//! Every injected fault is counted in `pddl-telemetry`
//! (`faults.injected_delays`, `faults.injected_resets`,
//! `faults.truncated_writes`, `faults.garbage_injections`,
//! `faults.dropped_writes`) and is therefore visible in the controller's
//! `{"op":"stats"}` snapshot.
//!
//! Built on `std` plus `pddl-telemetry` only (whose `rng::Rng` drives every
//! schedule), so every transport crate in the workspace can wear it
//! without weight.

#![warn(missing_docs)]

mod plan;
mod stream;

pub use plan::FaultPlan;
pub use stream::{Direction, FaultEvent, FaultKind, FaultSchedule, FaultyRead, FaultyWrite};
