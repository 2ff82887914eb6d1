//! Registry of pretrained GHN models, keyed by dataset.
//!
//! §III-D: "a new GHN model needs to be trained to generate quality
//! embeddings if the dataset changes ... In contrast, a change in dataset
//! size or adding new samples does not require retraining." The registry is
//! exactly that policy: one GHN per dataset name, trained offline.

use pddl_ghn::{Ghn, GhnConfig, GhnEncoder, GhnTrainer, SynthGenerator, TrainReport};
use pddl_ghn::train::TrainConfig;
use pddl_tensor::Rng;
use pddl_zoo::dataset::dataset_by_name;
use pddl_telemetry::hash::fnv1a;
use std::borrow::Cow;
use std::collections::HashMap;

/// One GHN encoder per dataset: what serving reads of a meta-trained GHN.
/// Starts empty (`Default`); [`GhnRegistry::insert`] fills it.
#[derive(Clone, Default)]
pub struct GhnRegistry {
    ghns: HashMap<String, GhnEncoder>,
}

pddl_telemetry::json_struct!(GhnRegistry { ghns });

impl GhnRegistry {
    /// Does a pretrained GHN exist for this dataset?
    pub fn has(&self, dataset: &str) -> bool {
        self.ghns.contains_key(normalize(dataset).as_ref())
    }

    /// The pretrained GHN for `dataset`, if one exists (case-insensitive).
    pub fn get(&self, dataset: &str) -> Option<&GhnEncoder> {
        self.ghns.get(normalize(dataset).as_ref())
    }

    /// Names of every dataset with a pretrained GHN.
    pub fn datasets(&self) -> impl Iterator<Item = &str> {
        self.ghns.keys().map(|s| s.as_str())
    }

    /// Offline-trains one dataset's GHN (step ④ of Fig. 7 / Fig. 8) and
    /// returns its encoder, without touching any registry — the building
    /// block the parallel offline trainer fans out over datasets (each
    /// worker trains independently, results are [`Self::insert`]ed in
    /// deterministic order afterwards). The RNG seed is derived from
    /// `seed` and the normalized dataset name, so a pooled run produces
    /// bit-identical GHNs to a serial one. Errors if the dataset has no
    /// descriptor (nothing to condition the synthetic generator on).
    pub fn train_one(
        ghn_config: GhnConfig,
        train_config: TrainConfig,
        seed: u64,
        dataset: &str,
    ) -> Result<(String, GhnEncoder, TrainReport), String> {
        let key = normalize(dataset).into_owned();
        let desc = dataset_by_name(&key)
            .ok_or_else(|| format!("no descriptor for dataset '{dataset}'"))?;
        let stream = seed ^ fnv1a(key.as_bytes());
        let mut rng = Rng::new(stream);
        let mut ghn = Ghn::new(ghn_config, &mut rng);
        let mut gen = SynthGenerator::new(desc.clone(), stream ^ 0x6e6e);
        let report = GhnTrainer::new(train_config).train(&mut ghn, &mut gen);
        Ok((key, ghn.into_encoder(), report))
    }

    /// Inserts a trained GHN's encoder.
    pub fn insert(&mut self, dataset: &str, ghn: GhnEncoder) {
        self.ghns.insert(normalize(dataset).into_owned(), ghn);
    }
}

/// `dataset` in lowercase, the form every per-dataset map is keyed by;
/// borrowed, not copied, when it already is.
pub(crate) fn normalize(dataset: &str) -> Cow<'_, str> {
    if dataset.bytes().any(|b| b.is_ascii_uppercase()) {
        Cow::Owned(dataset.to_ascii_lowercase())
    } else {
        Cow::Borrowed(dataset)
    }
}

#[cfg(test)]
impl GhnRegistry {
    /// A registry of tiny GHNs trained for `datasets`.
    pub(crate) fn tiny(seed: u64, datasets: &[&str]) -> Self {
        let mut r = Self::default();
        for ds in datasets {
            let (key, ghn, _) = Self::train_one(GhnConfig::tiny(), TrainConfig::tiny(), seed, ds).unwrap();
            r.insert(&key, ghn);
        }
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_registry_has_nothing() {
        let r = GhnRegistry::default();
        assert!(!r.has("cifar10"));
        assert!(r.get("cifar10").is_none());
    }

    #[test]
    fn training_registers_dataset() {
        let (key, ghn, report) =
            GhnRegistry::train_one(GhnConfig::tiny(), TrainConfig::tiny(), 1, "cifar10").unwrap();
        assert!(report.final_loss <= report.initial_loss);
        let mut r = GhnRegistry::default();
        r.insert(&key, ghn);
        assert!(r.has("cifar10"));
        assert!(r.has("CIFAR10") || r.has("cifar10")); // case-insensitive key
        assert!(!r.has("tiny-imagenet"));
    }

    #[test]
    fn unknown_dataset_errors() {
        assert!(GhnRegistry::train_one(GhnConfig::tiny(), TrainConfig::tiny(), 1, "mnist-3d").is_err());
    }

    #[test]
    fn case_insensitive_lookup() {
        let r = GhnRegistry::tiny(1, &["CIFAR10"]);
        assert!(r.has("cifar10"));
        assert!(r.get("Cifar10").is_some());
    }
}
