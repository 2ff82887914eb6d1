//! GHN-2 — the Graph HyperNetwork at the heart of PredictDDL.
//!
//! Implements Section III-E of the paper and the underlying machinery from
//! Knyazev et al. (NeurIPS 2021) / Zhang et al. (ICLR 2019):
//!
//! * an **embedding layer** mapping one-hot node features `H₀` to
//!   `d`-dimensional states `H₁`;
//! * a **GatedGNN** that mimics the forward and backward passes of DNN
//!   execution: nodes are updated *sequentially* in topological order
//!   (`π = fw`) and reverse order (`π = bw`), `T` times, via
//!   `m_v = Σ_{u∈𝒩ᵥ} MLP(h_u)` and `h_v = GRU(h_v, m_v)` (Eq. 3);
//! * GHN-2's **virtual edges**: `m_v += Σ_{u: 1<s_vu≤s_max} MLP_sp(h_u)/s_vu`
//!   (Eq. 4);
//! * **operation-dependent normalization** of node states to keep deep
//!   graphs stable (the paper's enhancement (2)), after every round;
//! * a **decoder**. The original GHN decodes per-node weights; PredictDDL
//!   "skips the last module ... and uses the intermediate complexity vector
//!   representation" — we keep a *graph-level* decoder as the meta-training
//!   objective and expose the pooled pre-decoder state as the embedding.
//!
//! The network is two types along that cut. [`GhnEncoder`] is what is
//! served and checkpointed: the weights up to the pooled embedding, the
//! sweep and [`GhnEncoder::embed_graph`]. Its checkpoint is its config and
//! its named parameter store; decoding builds the encoder for the config
//! and fills it by name. [`Ghn`] is what is trained: the encoder plus the
//! decoder head in one parameter store, the traced forward [`GhnTrainer`]
//! steps, and [`Ghn::into_encoder`], which hands back the encoder through
//! that same rebuild once meta-training is done.
//!
//! ## Meta-training substitution (see DESIGN.md)
//!
//! The real GHN-2 is trained by back-propagating CIFAR-10 classification
//! loss through predicted weights of 10⁶ DARTS architectures — GPU-scale
//! work that also requires pixel data. PredictDDL only consumes the
//! intermediate embedding as a *complexity representation*, so we train the
//! identical network on a synthetic DARTS-style architecture distribution
//! ([`synth`]) with a surrogate objective ([`train`]): decoder heads must
//! recover normalized log-FLOPs, log-params, depth and the op-kind
//! histogram of each graph from its pooled embedding. The result preserves
//! the property PredictDDL relies on (Fig. 5): architectures of similar
//! complexity land close in cosine distance.

pub mod config;
pub mod embed;
pub mod model;
pub mod synth;
pub mod train;

pub use config::GhnConfig;
pub use embed::{cosine_similarity, EmbeddingSet};
pub use model::{Ghn, GhnEncoder, Schedule};
pub use synth::SynthGenerator;
pub use train::{GhnTrainer, TrainConfig, TrainReport};
