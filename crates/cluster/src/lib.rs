//! Cluster resource modeling for PredictDDL.
//!
//! Covers four pieces of the paper:
//! * **§IV-A1 testbed specs** — the three CloudLab server classes
//!   ([`spec::ServerSpec`] presets) used in every experiment;
//! * **§III-C Inference Engine inputs** — the cluster-description feature
//!   vector (number of servers, CPUs, GPUs, RAM, cores, FLOPS) and the
//!   partial-load transformations of Eq. (1)–(2) ([`equations`]);
//! * **§III-F Cluster Resource Collector** — a real client/server inventory
//!   service over TCP ([`collector`]);
//! * **§III-D/III-F the listener** — the one connection core every TCP
//!   server and client in the workspace runs on ([`wire`]).

pub mod collector;
pub mod equations;
pub mod protocol;
pub mod retry;
pub mod spec;
pub mod state;
pub mod wire;

pub use collector::{CollectorClient, CollectorServer, DEFAULT_STALE_AFTER};
pub use equations::{available_flops, available_ram, per_core};
pub use protocol::{LinePoll, LineReader, WireError, MAX_FRAME_BYTES};
pub use retry::{
    is_transient, overload_reason, overload_retry_hint, overloaded_error,
    overloaded_error_with_reason, shard_moved_epoch, shard_moved_error,
    shard_moved_retry_hint, Backoff, Overloaded, RetryPolicy, ShardMoved, ShedReason,
};
pub use spec::{ServerClass, ServerSpec};
pub use state::{ClusterState, ServerStatus, CLUSTER_FEATURE_DIM};
