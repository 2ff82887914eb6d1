//! Registry of pretrained GHN models, keyed by dataset.
//!
//! §III-D: "a new GHN model needs to be trained to generate quality
//! embeddings if the dataset changes ... In contrast, a change in dataset
//! size or adding new samples does not require retraining." The registry is
//! exactly that policy: one GHN per dataset name, trained offline.

use pddl_ghn::{Ghn, GhnConfig, GhnTrainer, SynthGenerator, TrainReport};
use pddl_ghn::train::TrainConfig;
use pddl_tensor::Rng;
use pddl_zoo::dataset::dataset_by_name;
use pddl_telemetry::hash::fnv1a;
use pddl_telemetry::json::{FromJson, JsonError, JsonValue, JsonWriter, ToJson};
use std::collections::HashMap;

/// One GHN per dataset.
#[derive(Clone)]
pub struct GhnRegistry {
    ghns: HashMap<String, Ghn>,
    /// GHN architecture used for every dataset's model.
    pub ghn_config: GhnConfig,
    /// Meta-training schedule used for every dataset's model.
    pub train_config: TrainConfig,
    seed: u64,
}

impl ToJson for GhnRegistry {
    fn write_json(&self, w: &mut JsonWriter) {
        w.object()
            .field("ghns", &self.ghns)
            .field("ghn_config", &self.ghn_config)
            .field("train_config", &self.train_config)
            .field("seed", &self.seed)
            .end();
    }
}

impl FromJson for GhnRegistry {
    fn read_json(v: &JsonValue) -> Result<Self, JsonError> {
        let o = v.fields()?;
        Ok(Self {
            ghns: o.field("ghns")?,
            ghn_config: o.field("ghn_config")?,
            train_config: o.field("train_config")?,
            seed: o.field("seed")?,
        })
    }
}

impl GhnRegistry {
    /// Creates an empty registry; GHNs are added by [`Self::train_for_dataset`].
    pub fn new(ghn_config: GhnConfig, train_config: TrainConfig, seed: u64) -> Self {
        Self { ghns: HashMap::new(), ghn_config, train_config, seed }
    }

    /// Does a pretrained GHN exist for this dataset?
    pub fn has(&self, dataset: &str) -> bool {
        self.ghns.contains_key(&normalize(dataset))
    }

    /// The pretrained GHN for `dataset`, if one exists (case-insensitive).
    pub fn get(&self, dataset: &str) -> Option<&Ghn> {
        self.ghns.get(&normalize(dataset))
    }

    /// Names of every dataset with a pretrained GHN.
    pub fn datasets(&self) -> impl Iterator<Item = &str> {
        self.ghns.keys().map(|s| s.as_str())
    }

    /// Offline-trains a GHN for the dataset (step ④ of Fig. 7 / Fig. 8) and
    /// stores it. Returns the training report. Errors if the dataset has no
    /// descriptor (nothing to condition the synthetic generator on).
    pub fn train_for_dataset(&mut self, dataset: &str) -> Result<TrainReport, String> {
        let (key, ghn, report) =
            Self::train_one(self.ghn_config, self.train_config, self.seed, dataset)?;
        self.ghns.insert(key, ghn);
        Ok(report)
    }

    /// Trains one dataset's GHN without touching any registry state — the
    /// building block the parallel offline trainer fans out over datasets
    /// (each worker trains independently, results are [`Self::insert`]ed in
    /// deterministic order afterwards). The RNG seed is derived from
    /// `seed` and the normalized dataset name, so a pooled run produces
    /// bit-identical GHNs to a serial one.
    pub fn train_one(
        ghn_config: GhnConfig,
        train_config: TrainConfig,
        seed: u64,
        dataset: &str,
    ) -> Result<(String, Ghn, TrainReport), String> {
        let key = normalize(dataset);
        let desc = dataset_by_name(&key)
            .ok_or_else(|| format!("no descriptor for dataset '{dataset}'"))?;
        let stream = seed ^ fnv1a(key.as_bytes());
        let mut rng = Rng::new(stream);
        let mut ghn = Ghn::new(ghn_config, &mut rng);
        let mut gen = SynthGenerator::new(desc.clone(), stream ^ 0x6e6e);
        let report = GhnTrainer::new(train_config).train(&mut ghn, &mut gen);
        Ok((key, ghn, report))
    }

    /// Inserts an externally trained GHN (tests, persistence).
    pub fn insert(&mut self, dataset: &str, ghn: Ghn) {
        self.ghns.insert(normalize(dataset), ghn);
    }
}

fn normalize(dataset: &str) -> String {
    dataset.to_ascii_lowercase()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_registry() -> GhnRegistry {
        GhnRegistry::new(GhnConfig::tiny(), TrainConfig::tiny(), 1)
    }

    #[test]
    fn empty_registry_has_nothing() {
        let r = tiny_registry();
        assert!(!r.has("cifar10"));
        assert!(r.get("cifar10").is_none());
    }

    #[test]
    fn training_registers_dataset() {
        let mut r = tiny_registry();
        let report = r.train_for_dataset("cifar10").unwrap();
        assert!(report.final_loss <= report.initial_loss);
        assert!(r.has("cifar10"));
        assert!(r.has("CIFAR10") || r.has("cifar10")); // case-insensitive key
        assert!(!r.has("tiny-imagenet"));
    }

    #[test]
    fn unknown_dataset_errors() {
        let mut r = tiny_registry();
        assert!(r.train_for_dataset("mnist-3d").is_err());
    }

    #[test]
    fn case_insensitive_lookup() {
        let mut r = tiny_registry();
        r.train_for_dataset("CIFAR10").unwrap();
        assert!(r.has("cifar10"));
        assert!(r.get("Cifar10").is_some());
    }
}
