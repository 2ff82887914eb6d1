//! Cluster resource modeling for PredictDDL.
//!
//! Covers three pieces of the paper:
//! * **§IV-A1 testbed specs** — the three CloudLab server classes
//!   ([`spec::ServerSpec`] presets) used in every experiment;
//! * **§III-C Inference Engine inputs** — the cluster-description feature
//!   vector (number of servers, CPUs, GPUs, RAM, cores, FLOPS) and the
//!   partial-load transformations of Eq. (1)–(2) ([`equations`]). The
//!   paper's §III-F Cluster Resource Collector has no counterpart: each
//!   request describes its own cluster, live load included
//!   ([`ClusterState`]);
//! * **§III-D the listener** — the one connection core every TCP
//!   server and client in the workspace runs on ([`wire`]), and the
//!   backoff its clients retry transient failures with ([`retry`]; the
//!   typed replies a controller or router refuses with are
//!   `predictddl::protocol::ErrorReply`).

pub mod equations;
pub mod retry;
pub mod spec;
pub mod state;
pub mod wire;

pub use equations::{available_flops, available_ram, per_core};
pub use wire::{LinePoll, LineReader, WireError, MAX_FRAME_BYTES};
pub use retry::{is_transient, Backoff, RetryPolicy};
pub use spec::{ServerClass, ServerSpec};
pub use state::{ClusterState, ServerStatus, CLUSTER_FEATURE_DIM};
