//! Dataset descriptors.
//!
//! The predictor never touches pixels (see DESIGN.md substitution table);
//! what it needs is the metadata that drives model construction (resolution,
//! class count) and the simulator's data-loading cost (bytes on disk, number
//! of examples). Figures match Section IV-A3 of the paper.

/// Metadata for a training dataset.
#[derive(Clone, Debug, PartialEq)]
pub struct DatasetDesc {
    /// Canonical name used as the GHN-registry key ("cifar10", …).
    pub name: &'static str,
    /// Number of training examples.
    pub num_examples: usize,
    /// Number of classes (sets the classifier head width).
    pub num_classes: usize,
    /// Square input resolution (H = W).
    pub resolution: usize,
    /// Input channels.
    pub channels: usize,
    /// Size on disk in bytes (drives NFS loading cost).
    pub bytes_on_disk: u64,
}

/// CIFAR-10: 60,000 images, 10 classes, ≈163 MB (paper §IV-A3).
pub const CIFAR10: DatasetDesc = DatasetDesc {
    name: "cifar10",
    num_examples: 50_000, // training split of the 60k total
    num_classes: 10,
    resolution: 32,
    channels: 3,
    bytes_on_disk: 163 * 1024 * 1024,
};

/// Tiny-ImageNet: 100,000 images, 200 classes, ≈250 MB (paper §IV-A3).
pub const TINY_IMAGENET: DatasetDesc = DatasetDesc {
    name: "tiny-imagenet",
    num_examples: 100_000,
    num_classes: 200,
    resolution: 64,
    channels: 3,
    bytes_on_disk: 250 * 1024 * 1024,
};

/// All built-in datasets.
pub const ALL_DATASETS: [&DatasetDesc; 2] = [&CIFAR10, &TINY_IMAGENET];

/// Looks up a dataset descriptor by name, ignoring ASCII case and every
/// `-` (`"CIFAR10"`, `"tinyimagenet"` and `"tiny-imagenet"` all resolve).
/// Runs twice per prediction, so it compares in place and allocates nothing.
pub fn dataset_by_name(name: &str) -> Option<&'static DatasetDesc> {
    fn key(s: &str) -> impl Iterator<Item = u8> + '_ {
        s.bytes().filter(|&b| b != b'-').map(|b| b.to_ascii_lowercase())
    }
    ALL_DATASETS.into_iter().find(|d| key(d.name).eq(key(name)))
}

impl DatasetDesc {
    /// Average bytes of one encoded example (drives per-iteration IO).
    pub fn bytes_per_example(&self) -> f64 {
        self.bytes_on_disk as f64 / self.num_examples as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_by_name() {
        assert_eq!(dataset_by_name("cifar10").unwrap().num_classes, 10);
        assert_eq!(dataset_by_name("CIFAR10").unwrap().resolution, 32);
        assert_eq!(dataset_by_name("tiny-imagenet").unwrap().num_classes, 200);
        assert_eq!(dataset_by_name("tinyimagenet").unwrap().resolution, 64);
        assert!(dataset_by_name("imagenet21k").is_none());
    }

    #[test]
    fn lookup_ignores_every_dash_and_nothing_else() {
        // Pinned as found: the comparison has always dropped all dashes
        // from both sides, so doubled or stray ones are accepted too.
        assert_eq!(dataset_by_name("tiny--imagenet"), Some(&TINY_IMAGENET));
        assert_eq!(dataset_by_name("-Cifar-10-"), Some(&CIFAR10));
        for miss in ["", "-", "tiny_imagenet", "tiny imagenet", "cifar100", "cifar1", "cifar10 "] {
            assert!(dataset_by_name(miss).is_none(), "{miss:?}");
        }
    }

    #[test]
    fn bytes_per_example_sane() {
        // CIFAR-10 images are ~3 KB encoded.
        let b = CIFAR10.bytes_per_example();
        assert!(b > 1_000.0 && b < 10_000.0, "{b}");
    }
}
