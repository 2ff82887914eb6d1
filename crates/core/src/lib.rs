//! # PredictDDL
//!
//! End-to-end reproduction of *“PredictDDL: Reusable Workload Performance
//! Prediction for Distributed Deep Learning”* (Assogba, Lima, Rafique, Kwon
//! — IEEE CLUSTER 2023), built entirely in Rust on the workspace substrates.
//!
//! PredictDDL predicts the training time of a deep-learning workload
//! (model × dataset × cluster) from:
//!
//! 1. a fixed-size **GHN-2 embedding** of the DNN's computational graph
//!    ([`pddl_ghn`]), trained **once per dataset** and reused across
//!    arbitrary architectures — no retraining when the workload changes;
//! 2. **cluster-description features** (servers, cores, FLOPS, RAM, GPUs,
//!    load) from the cluster each request describes ([`pddl_cluster`]);
//! 3. a pluggable **regression model** ([`pddl_regress`]), defaulting to the
//!    paper's second-order polynomial regression.
//!
//! ## Quick start
//!
//! ```no_run
//! use predictddl::{OfflineTrainer, PredictionRequest};
//! use pddl_cluster::{ClusterState, ServerClass};
//! use pddl_ddlsim::Workload;
//!
//! // One-time offline training (GHN + regressor) on the CIFAR-10 trace.
//! let system = OfflineTrainer::default().train_full();
//!
//! // Reusable predictions for any zoo model, no retraining:
//! let req = PredictionRequest::zoo(
//!     Workload::standard("resnet50", "cifar10"),
//!     ClusterState::homogeneous(ServerClass::GpuP100, 8),
//! );
//! let pred = system.predict(&req).unwrap();
//! println!("predicted training time: {:.1}s", pred.seconds);
//! ```
//!
//! The architecture mirrors Fig. 7 of the paper: a [`controller`] with a
//! Listener accepts requests, the [`task_checker`] validates them and routes
//! unknown datasets to the [`offline`] trainer, the [`embeddings`] generator
//! turns computational graphs into vectors, and the [`inference`] engine
//! regresses training time. See `ARCHITECTURE.md` at the repository root
//! for the full paper-section-to-module map.
//!
//! ## Wire protocol
//!
//! The controller speaks newline-delimited JSON over TCP. The wire
//! shapes live in the [`protocol`] module and are documented op-by-op,
//! with captured transcripts, in `PROTOCOL.md` at the repository root.
//! Nine request shapes share the stream:
//!
//! * a single [`PredictionRequest`] object → one [`Prediction`] (or error)
//!   response line;
//! * a [`RequestEnvelope`] (`{"client":…,"id":…,"req":{…}}`) → the same,
//!   wrapped in a [`ResponseEnvelope`] echoing the identity, so resilient
//!   clients match each reply to its call across retries, which are
//!   recomputed (see [`ControllerClient::connect_resilient`]); an optional
//!   `"trace"` member (a [`TraceHeader`] — `trace_id`/`span_id`/
//!   `parent_id`) propagates a client-minted trace context through every
//!   pipeline stage and is echoed back on the response;
//! * a JSON **array** of prediction requests → a batch, fanned out across
//!   the [`pddl_par`] work pool, answered as one JSON array in request
//!   order;
//! * `{"op":"stats"}` → a live snapshot of every telemetry counter, gauge,
//!   and histogram (including the `embed_cache.*` hit/miss/eviction
//!   counters), as `{"status":"stats","snapshot":{...}}`;
//! * `{"op":"trace"}` → the flight recorder's retained trace dump
//!   (`{"status":"trace","suppressed":…,"retained":[…]}`) — see
//!   [`pddl_telemetry::trace`] and `ARCHITECTURE.md`'s observability
//!   section for the span model;
//! * `{"op":"route_table"}` → the serving plane's membership as a
//!   [`RouteTable`] (`{"status":"route_table","epoch":…,"shards":[…]}`).
//!   A bare controller answers with its one-entry identity table; the
//!   `pddl-router` process answers with the live fleet membership;
//! * `{"op":"observe"}` (`{"op":"observe","req":{…},"actual_secs":…}`) →
//!   feed a completed job's measured runtime back into the controller's
//!   [`observe::ObservationSink`]: the live model re-predicts the request,
//!   the log-space residual drives Page–Hinkley drift detection and the
//!   online calibration model, and the reply
//!   (`{"status":"observe","observations":…,"drift_events":…,
//!   "residual_z":…,"drifted":…}`) reports the standardized residual and
//!   whether this observation fired a drift event. Non-finite or
//!   non-positive runtimes get the typed
//!   `{"error":"observe_rejected","reason":…}` line;
//! * `{"op":"reload"}` (optional `"version"`) → hot-swap the serving
//!   model to a checkpoint-registry version (latest when unspecified)
//!   after replaying the manifest's golden probes against the candidate.
//!   Success answers `{"status":"reload","version":…,"previous":…,
//!   "epoch":…}`; a refused candidate answers the typed
//!   `{"error":"reload_rejected","reason":…}` line and the old model
//!   keeps serving (see the [`reload`] and [`checkpoint`] modules and
//!   the `pddl-registry` crate).
//!
//! The `op` frames are answered inline by the connection reader — they
//! bypass the worker pool, so stats, traces, metrics, and the route
//! table stay observable while the service is overloaded or draining.
//!
//! When controllers serve as shards of a router-fronted fleet (see
//! `crates/router` and `ARCHITECTURE.md` §7), responses additionally
//! echo the computing shard's id, and the router may answer a request
//! whose shard died with the typed
//! `{"error":"shard_moved","epoch":…,"retry_after_ms":…}` line —
//! transient, like the overload shed, so resilient clients refresh their
//! route table and retry.
//!
//! Frames are bounded at [`pddl_cluster::MAX_FRAME_BYTES`]; malformed
//! frames get typed error replies; and under a
//! [`ServeConfig::fault_plan`] the listener injects deterministic wire
//! faults for chaos testing (see the [`pddl_faults`] crate and
//! `TESTING.md`).
//!
//! Logging verbosity is controlled by the `PDDL_LOG` environment variable
//! (see [`pddl_telemetry`] for the `level[,target=level]*` filter syntax,
//! e.g. `PDDL_LOG=info,controller=debug`).

#![warn(missing_docs)]

pub mod batch;
pub mod checkpoint;
pub mod cli;
pub mod controller;
pub mod embeddings;
pub mod inference;
pub mod observe;
pub mod offline;
pub mod protocol;
pub mod registry;
pub mod reload;
pub mod request;
pub mod serve;
pub mod task_checker;

pub use batch::{compare_batch, compare_batch_serial, BatchComparison, BatchJob};
pub use checkpoint::{
    load_checkpoint, probe_records, probe_requests, save_checkpoint, validate_probes,
    CheckpointError, CACHE_ARTIFACT, SYSTEM_ARTIFACT,
};
pub use controller::{Controller, ControllerClient};
pub use observe::ObservationSink;
pub use protocol::{
    parse_frame, ErrorReply, ObserveReply, ParsedFrame, ReloadReply, RequestEnvelope,
    ResponseEnvelope, RouteShard, RouteTable, ShedReason, StatsReply, TraceHeader, WireResponse,
    WIRE_OPS,
};
pub use reload::{spawn_watcher, LiveSystem, ReloadManager, ReloadOutcome, ReloadRejected};
pub use embeddings::{CacheStats, EmbeddingCache, EmbeddingsGenerator};
pub use inference::{InferenceEngine, InferenceConfig};
pub use offline::{OfflineTrainer, PredictDdl};
pub use registry::GhnRegistry;
pub use request::{ModelRef, Prediction, PredictionRequest, RequestError};
pub use serve::{JobOutcome, ServeConfig, ServePool, SubmitError};
pub use task_checker::{ResolvedGraph, TaskChecker, TaskDecision};
