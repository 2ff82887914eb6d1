//! DNN architectures as computational graphs.
//!
//! Mirrors Section II-B / Fig. 3 of the PredictDDL paper: a deep neural
//! network is a directed acyclic graph whose nodes are *primitive
//! operations* (convolution, group convolution, concatenation, summation,
//! averaging, pooling, bias addition, batch normalization, …) and whose
//! edges carry data flow. The GHN consumes exactly this structure:
//!
//! * the binary adjacency matrix `A ∈ {0,1}^{|V|×|V|}`,
//! * one-hot initial node features `H₀` over the operation vocabulary,
//! * the propagation orders `π ∈ {fw, bw}` (topological and reverse
//!   topological order),
//! * shortest-path distances for GHN-2's **virtual edges**.
//!
//! Each node also carries shape metadata ([`NodeAttrs`]) from which analytic
//! per-node FLOPs and parameter counts are derived; the model zoo
//! (`pddl-zoo`) and the training-time simulator (`pddl-ddlsim`) consume
//! those.

pub mod dag;
pub mod dot;
pub mod features;
pub mod op;
pub mod paths;

pub use dag::{CompGraph, GraphError, Node, NodeId};
pub use dot::to_dot;
pub use features::one_hot_features;
pub use op::{NodeAttrs, OpKind};
pub use paths::{virtual_edges, ShortestPaths};
