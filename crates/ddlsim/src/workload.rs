//! The unit of prediction: "we define a DL workload as the training of any
//! DNN model in any computing cluster using any dataset" (§I).

use pddl_zoo::dataset::{dataset_by_name, DatasetDesc};
use pddl_zoo::{ModelSpec, ZooModel};
use pddl_graph::CompGraph;
use pddl_telemetry::json::{FromJson, JsonError, JsonValue, JsonWriter, ToJson};
use std::sync::Arc;

/// A deep-learning training workload.
#[derive(Clone, Debug, PartialEq)]
pub struct Workload {
    /// Model-zoo name (e.g. `"resnet18"`).
    pub model: String,
    /// Dataset name (e.g. `"cifar10"`).
    pub dataset: String,
    /// Per-worker mini-batch size (the PyTorch DDP convention: the global
    /// batch is `batch_size × num_workers`, so adding servers is weak
    /// scaling).
    pub batch_size: usize,
    /// Training epochs.
    pub epochs: usize,
}

impl ToJson for Workload {
    fn write_json(&self, w: &mut JsonWriter) {
        w.object()
            .field("model", &self.model)
            .field("dataset", &self.dataset)
            .field("batch_size", &self.batch_size)
            .field("epochs", &self.epochs)
            .end();
    }
}

impl FromJson for Workload {
    fn read_json(v: &JsonValue) -> Result<Self, JsonError> {
        let o = v.fields()?;
        Ok(Self {
            model: o.field("model")?,
            dataset: o.field("dataset")?,
            batch_size: o.field("batch_size")?,
            epochs: o.field("epochs")?,
        })
    }
}

impl Workload {
    pub fn new(model: &str, dataset: &str, batch_size: usize, epochs: usize) -> Self {
        Self { model: model.into(), dataset: dataset.into(), batch_size, epochs }
    }

    /// Standard evaluation workload shape used throughout the benches:
    /// per-worker batch 128, 10 epochs.
    pub fn standard(model: &str, dataset: &str) -> Self {
        Self::new(model, dataset, 128, 10)
    }

    /// Resolves the dataset descriptor.
    pub fn dataset_desc(&self) -> Option<&'static DatasetDesc> {
        dataset_by_name(&self.dataset)
    }

    /// Resolves the model for this workload's dataset through the zoo's
    /// per-process table ([`pddl_zoo::resolve`]): graph, fingerprint and
    /// spec, shared, not rebuilt. `None` for an unknown model or dataset.
    pub fn resolve(&self) -> Option<Arc<ZooModel>> {
        pddl_zoo::resolve(&self.model, self.dataset_desc()?)
    }

    /// An owned copy of the model's computational graph.
    pub fn build_graph(&self) -> Option<CompGraph> {
        self.resolve().map(|m| m.graph.clone())
    }

    /// The analytic model spec.
    pub fn model_spec(&self) -> Option<ModelSpec> {
        self.resolve().map(|m| m.spec.clone())
    }

    /// Stable identifier for registries and caches.
    pub fn key(&self) -> String {
        format!("{}@{}/b{}/e{}", self.model, self.dataset, self.batch_size, self.epochs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolves_known_workload() {
        let w = Workload::standard("resnet18", "cifar10");
        assert!(w.dataset_desc().is_some());
        let g = w.build_graph().unwrap();
        assert_eq!(g.name, "resnet18");
        let zoo = w.resolve().unwrap();
        assert_eq!(zoo.fingerprint, g.fingerprint());
        assert_eq!(w.model_spec().unwrap(), zoo.spec);
    }

    #[test]
    fn unknown_model_unresolvable() {
        let w = Workload::standard("nosuchnet", "cifar10");
        assert!(w.resolve().is_none());
        assert!(w.build_graph().is_none());
    }

    #[test]
    fn unknown_dataset_unresolvable() {
        let w = Workload::standard("resnet18", "imagenet21k");
        assert!(w.dataset_desc().is_none());
        assert!(w.resolve().is_none());
        assert!(w.build_graph().is_none());
    }

    #[test]
    fn key_distinguishes_configs() {
        let a = Workload::new("vgg16", "cifar10", 128, 10);
        let b = Workload::new("vgg16", "cifar10", 256, 10);
        assert_ne!(a.key(), b.key());
    }
}
