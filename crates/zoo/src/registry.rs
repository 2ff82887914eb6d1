//! The 31-model registry (Section IV-A2: "31 image classification DL models
//! from the PyTorch Vision libraries").

use crate::dataset::{DatasetDesc, ALL_DATASETS};
use crate::families::*;
use pddl_graph::CompGraph;
use std::sync::{Arc, OnceLock};

/// The 31 model names in canonical order.
pub const MODEL_NAMES: [&str; 31] = [
    "alexnet",
    "vgg11",
    "vgg13",
    "vgg16",
    "vgg19",
    "resnet18",
    "resnet34",
    "resnet50",
    "resnet101",
    "resnet152",
    "resnext50_32x4d",
    "resnext101_32x8d",
    "wide_resnet50_2",
    "wide_resnet101_2",
    "squeezenet1_0",
    "squeezenet1_1",
    "densenet121",
    "densenet161",
    "densenet169",
    "densenet201",
    "mobilenet_v2",
    "mobilenet_v3_small",
    "mobilenet_v3_large",
    "efficientnet_b0",
    "efficientnet_b1",
    "efficientnet_b2",
    "efficientnet_b3",
    "shufflenet_v2_x0_5",
    "shufflenet_v2_x1_0",
    "googlenet",
    "mnasnet1_0",
];

/// Returns all model names.
pub fn model_names() -> &'static [&'static str] {
    &MODEL_NAMES
}

/// Builds the named model's computational graph for a dataset, or `None`
/// for an unknown name. This is the constructor behind [`resolve`]; callers
/// that resolve a model by name use [`resolve`], which builds each
/// (model, built-in dataset) pair once per process.
pub fn build_model(name: &str, ds: &DatasetDesc) -> Option<CompGraph> {
    let g = match name {
        "alexnet" => alexnet::alexnet(ds),
        "vgg11" => vgg::vgg(11, ds),
        "vgg13" => vgg::vgg(13, ds),
        "vgg16" => vgg::vgg(16, ds),
        "vgg19" => vgg::vgg(19, ds),
        "resnet18" | "resnet34" | "resnet50" | "resnet101" | "resnet152"
        | "resnext50_32x4d" | "resnext101_32x8d" | "wide_resnet50_2" | "wide_resnet101_2" => {
            resnet::resnet(name, ds)
        }
        "squeezenet1_0" => squeezenet::squeezenet("1_0", ds),
        "squeezenet1_1" => squeezenet::squeezenet("1_1", ds),
        "densenet121" | "densenet161" | "densenet169" | "densenet201" => {
            densenet::densenet(name, ds)
        }
        "mobilenet_v2" => mobilenet::mobilenet_v2(ds),
        "mobilenet_v3_small" => mobilenet::mobilenet_v3("small", ds),
        "mobilenet_v3_large" => mobilenet::mobilenet_v3("large", ds),
        "efficientnet_b0" => efficientnet::efficientnet(0, ds),
        "efficientnet_b1" => efficientnet::efficientnet(1, ds),
        "efficientnet_b2" => efficientnet::efficientnet(2, ds),
        "efficientnet_b3" => efficientnet::efficientnet(3, ds),
        "shufflenet_v2_x0_5" => shufflenet::shufflenet_v2("x0_5", ds),
        "shufflenet_v2_x1_0" => shufflenet::shufflenet_v2("x1_0", ds),
        "googlenet" => googlenet::googlenet(ds),
        "mnasnet1_0" => mnasnet::mnasnet_1_0(ds),
        _ => return None,
    };
    Some(g)
}

/// Everything that is a pure function of (model name, dataset): the graph,
/// its [`CompGraph::fingerprint`] and its [`ModelSpec`], computed together
/// so no caller derives them again.
#[derive(Debug)]
pub struct ZooModel {
    /// The model's computational graph, as [`build_model`] returns it.
    pub graph: CompGraph,
    /// `graph.fingerprint()`.
    pub fingerprint: u64,
    /// `ModelSpec::from_graph(&graph)`.
    pub spec: ModelSpec,
}

impl ZooModel {
    fn build(name: &str, ds: &DatasetDesc) -> Option<Self> {
        let graph = build_model(name, ds)?;
        // At most one per table slot unless callers pass descriptors that
        // are not built in: a value that keeps climbing means the table is
        // being bypassed.
        pddl_telemetry::counter("zoo.resolve.builds").inc();
        Some(Self { fingerprint: graph.fingerprint(), spec: ModelSpec::from_graph(&graph), graph })
    }
}

/// One slot per (model, built-in dataset), filled on first use and kept
/// for the life of the process: the table is bounded by the zoo itself,
/// so it has no capacity and never evicts.
static TABLE: [OnceLock<Arc<ZooModel>>; MODEL_NAMES.len() * ALL_DATASETS.len()] =
    [const { OnceLock::new() }; MODEL_NAMES.len() * ALL_DATASETS.len()];

/// Resolves the named model for a dataset, or `None` for an unknown name.
///
/// For the built-in datasets ([`ALL_DATASETS`]) the result is memoised:
/// the first call for a pair builds it (concurrent first calls build it
/// once and share the result), every later call is a table read and an
/// `Arc` clone. Any other descriptor is built afresh on each call.
pub fn resolve(name: &str, ds: &DatasetDesc) -> Option<Arc<ZooModel>> {
    let model = MODEL_NAMES.iter().position(|n| *n == name)?;
    let Some(dataset) = ALL_DATASETS.iter().position(|d| *d == ds) else {
        return ZooModel::build(name, ds).map(Arc::new);
    };
    let slot = &TABLE[model * ALL_DATASETS.len() + dataset];
    Some(Arc::clone(slot.get_or_init(|| {
        Arc::new(ZooModel::build(name, ds).expect("every name in MODEL_NAMES builds"))
    })))
}

/// Summary statistics for a model on a dataset; the "gray box" feature set
/// of the paper's baselines plus the structural statistics the simulator's
/// efficiency model consumes.
#[derive(Clone, Debug, PartialEq)]
pub struct ModelSpec {
    pub name: String,
    pub flops_per_example: f64,
    pub params: u64,
    pub layers: usize,
    pub nodes: usize,
    pub depth: usize,
    pub grouped_flop_fraction: f64,
    pub branching_fraction: f64,
    pub activation_elems: u64,
}

impl ModelSpec {
    /// Computes the spec from a built graph.
    pub fn from_graph(g: &CompGraph) -> Self {
        Self {
            name: g.name.clone(),
            flops_per_example: g.flops_per_example(),
            params: g.num_params(),
            layers: g.num_layers(),
            nodes: g.num_nodes(),
            depth: g.depth(),
            grouped_flop_fraction: g.grouped_flop_fraction(),
            branching_fraction: g.branching_fraction(),
            activation_elems: g.activation_elems(),
        }
    }

    /// Arithmetic intensity proxy: FLOPs per activation element moved.
    /// Dense GEMM-heavy nets score high; depthwise/concat nets score low.
    pub fn arithmetic_intensity(&self) -> f64 {
        self.flops_per_example / (self.activation_elems.max(1) as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{CIFAR10, TINY_IMAGENET};

    #[test]
    fn exactly_31_models() {
        assert_eq!(MODEL_NAMES.len(), 31);
    }

    #[test]
    fn every_model_builds_and_validates_on_both_datasets() {
        for name in MODEL_NAMES {
            for ds in [&CIFAR10, &TINY_IMAGENET] {
                let g = build_model(name, ds)
                    .unwrap_or_else(|| panic!("{name} missing from registry"));
                assert_eq!(g.validate(), Ok(()), "{name} on {}", ds.name);
                assert!(g.num_params() > 0, "{name} has no parameters");
                assert!(g.flops_per_example() > 0.0, "{name} has no FLOPs");
            }
        }
    }

    #[test]
    fn unknown_model_is_none() {
        assert!(build_model("resnet1001", &CIFAR10).is_none());
        assert!(resolve("resnet1001", &CIFAR10).is_none());
    }

    #[test]
    fn resolve_equals_build_model_for_every_slot() {
        for name in MODEL_NAMES {
            for ds in ALL_DATASETS {
                let built = build_model(name, ds).unwrap();
                let zoo = resolve(name, ds).unwrap();
                let g = &zoo.graph;
                assert_eq!(g.name, built.name);
                assert_eq!(g.nodes(), built.nodes(), "{name} on {}", ds.name);
                for v in 0..built.num_nodes() {
                    assert_eq!(g.successors(v), built.successors(v), "{name} node {v}");
                    assert_eq!(g.predecessors(v), built.predecessors(v), "{name} node {v}");
                }
                assert_eq!(zoo.fingerprint, built.fingerprint(), "{name} on {}", ds.name);
                assert_eq!(zoo.spec, ModelSpec::from_graph(&built), "{name} on {}", ds.name);
                // The second call is a table read, not a second build.
                assert!(Arc::ptr_eq(&zoo, &resolve(name, ds).unwrap()));
            }
        }
    }

    #[test]
    fn resolve_builds_afresh_for_a_dataset_that_is_not_built_in() {
        let ds = DatasetDesc { name: "imagenet1k", num_classes: 1000, resolution: 224, ..CIFAR10 };
        let a = resolve("resnet18", &ds).unwrap();
        let b = resolve("resnet18", &ds).unwrap();
        assert!(!Arc::ptr_eq(&a, &b));
        assert_eq!(a.fingerprint, build_model("resnet18", &ds).unwrap().fingerprint());
        assert_ne!(a.fingerprint, resolve("resnet18", &CIFAR10).unwrap().fingerprint);
    }

    #[test]
    fn model_names_are_unique() {
        let mut names: Vec<_> = MODEL_NAMES.to_vec();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 31);
    }

    #[test]
    fn tiny_imagenet_graphs_cost_more_than_cifar() {
        // 64×64 inputs quadruple the early-layer spatial work.
        for name in ["resnet18", "vgg16", "mobilenet_v3_large"] {
            let c = build_model(name, &CIFAR10).unwrap().flops_per_example();
            let t = build_model(name, &TINY_IMAGENET).unwrap().flops_per_example();
            assert!(t > 1.5 * c, "{name}: cifar={c:.2e} tiny={t:.2e}");
        }
    }

    #[test]
    fn flop_spread_spans_orders_of_magnitude() {
        // The zoo must be heterogeneous for the experiments to be meaningful:
        // VGG-16 vs SqueezeNet should differ by >20× in FLOPs.
        let vgg = build_model("vgg16", &CIFAR10).unwrap().flops_per_example();
        let sq = build_model("squeezenet1_1", &CIFAR10).unwrap().flops_per_example();
        assert!(vgg / sq > 20.0, "spread only {:.1}×", vgg / sq);
    }

    #[test]
    fn spec_snapshot_reasonable() {
        let g = build_model("resnet18", &CIFAR10).unwrap();
        let spec = ModelSpec::from_graph(&g);
        assert_eq!(spec.name, "resnet18");
        assert!(spec.params > 10_000_000); // 11.7M
        assert!(spec.depth >= 20);
        assert!(spec.arithmetic_intensity() > 1.0);
    }
}
