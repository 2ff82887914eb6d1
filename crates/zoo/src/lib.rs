//! Model zoo: the 31 image-classification DNNs used to train and evaluate
//! PredictDDL (Section IV-A2 of the paper draws them from torchvision 0.8).
//!
//! Every architecture is built **from scratch** as a [`pddl_graph::CompGraph`]
//! of primitive operations with shape metadata, so FLOPs, parameter counts,
//! layer counts, and structural statistics all derive analytically from the
//! graph — exactly the information PyTorch's DAG export would provide.
//!
//! Architectures are parameterized by the input resolution and class count of
//! the target dataset ([`dataset::DatasetDesc`]), mirroring how the paper
//! trains the same torchvision models on CIFAR-10 (32×32, 10 classes) and
//! Tiny-ImageNet (64×64, 200 classes).

pub mod builder;
pub mod dataset;
pub mod families;
pub mod registry;

pub use builder::NetBuilder;
pub use dataset::{DatasetDesc, CIFAR10, TINY_IMAGENET};
pub use registry::{build_model, model_names, resolve, ModelSpec, ZooModel};
