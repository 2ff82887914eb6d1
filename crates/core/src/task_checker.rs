//! The Task Checker (step ③ of Fig. 7): validates a request and decides
//! whether inference can proceed directly or offline GHN training is needed.

use crate::registry::GhnRegistry;
use crate::request::{ModelRef, PredictionRequest, RequestError};
use pddl_graph::CompGraph;
use pddl_zoo::{dataset::dataset_by_name, ZooModel};
use std::sync::Arc;

/// The graph a request stands for, without copying it: a zoo name resolves
/// to the process-wide shared [`ZooModel`], a submitted graph is borrowed
/// from the request.
#[derive(Debug)]
pub enum ResolvedGraph<'a> {
    /// A zoo model, with its fingerprint already known.
    Zoo(Arc<ZooModel>),
    /// The request's own, validated graph.
    Submitted(&'a CompGraph),
}

impl ResolvedGraph<'_> {
    /// The resolved computational graph.
    pub fn graph(&self) -> &CompGraph {
        match self {
            ResolvedGraph::Zoo(m) => &m.graph,
            ResolvedGraph::Submitted(g) => g,
        }
    }

    /// [`CompGraph::fingerprint`] of the graph: a field read for a zoo
    /// model, a hash over the graph for a submitted one.
    pub fn fingerprint(&self) -> u64 {
        match self {
            ResolvedGraph::Zoo(m) => m.fingerprint,
            ResolvedGraph::Submitted(g) => g.fingerprint(),
        }
    }
}

/// Outcome of validation.
#[derive(Debug)]
pub enum TaskDecision<'a> {
    /// Proceed to embedding + inference with this resolved graph.
    Proceed(ResolvedGraph<'a>),
    /// A GHN must be trained for the request's dataset first
    /// (step ④ of Fig. 7).
    OfflineTrainingRequired {
        /// The dataset needing a GHN.
        dataset: String,
    },
}

/// Stateless validator over a GHN registry.
pub struct TaskChecker;

impl TaskChecker {
    /// Validates the request; resolves the model to a graph; checks the GHN
    /// registry. "The Task Checker launches the inference procedure directly
    /// if a trained GHN model is available for a submitted workload" (§III-D).
    ///
    /// Nothing here is proportional to the size of a zoo model: the name is
    /// looked up in [`pddl_zoo::resolve`]'s table, which built and hashed
    /// the graph the first time the process saw it. A submitted graph is
    /// validated (linear in its size) and then borrowed, never cloned.
    pub fn check<'a>(
        req: &'a PredictionRequest,
        registry: &GhnRegistry,
    ) -> Result<TaskDecision<'a>, RequestError> {
        if req.batch_size == 0 || req.epochs == 0 {
            return Err(RequestError::InvalidParams(
                "batch_size and epochs must be positive".into(),
            ));
        }
        if req.cluster.num_servers() == 0 {
            return Err(RequestError::InvalidCluster("no servers in cluster".into()));
        }

        let graph = match &req.model {
            ModelRef::Zoo(name) => {
                // Resolve against the request's dataset when known, falling
                // back to CIFAR-10 geometry for datasets we lack a
                // descriptor for (the graph structure is what matters).
                let ds = dataset_by_name(&req.dataset).unwrap_or(&pddl_zoo::CIFAR10);
                ResolvedGraph::Zoo(
                    pddl_zoo::resolve(name, ds)
                        .ok_or_else(|| RequestError::UnknownModel(name.clone()))?,
                )
            }
            ModelRef::Graph(g) => {
                g.validate()
                    .map_err(|e| RequestError::InvalidGraph(e.to_string()))?;
                ResolvedGraph::Submitted(g)
            }
        };

        if registry.has(&req.dataset) {
            Ok(TaskDecision::Proceed(graph))
        } else {
            Ok(TaskDecision::OfflineTrainingRequired { dataset: req.dataset.clone() })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pddl_cluster::{ClusterState, ServerClass};
    use pddl_ddlsim::Workload;
    use pddl_ghn::GhnConfig;
    use pddl_ghn::train::TrainConfig;
    use pddl_graph::{NodeAttrs, OpKind};

    fn registry_with_cifar() -> GhnRegistry {
        let mut r = GhnRegistry::new(GhnConfig::tiny(), TrainConfig::tiny(), 3);
        r.train_for_dataset("cifar10").unwrap();
        r
    }

    fn cluster() -> ClusterState {
        ClusterState::homogeneous(ServerClass::GpuP100, 2)
    }

    #[test]
    fn known_model_and_dataset_proceeds() {
        let reg = registry_with_cifar();
        let req = PredictionRequest::zoo(Workload::standard("vgg16", "cifar10"), cluster());
        match TaskChecker::check(&req, &reg).unwrap() {
            TaskDecision::Proceed(g) => assert_eq!(g.graph().name, "vgg16"),
            other => panic!("expected Proceed, got {other:?}"),
        }
    }

    #[test]
    fn dataset_without_descriptor_resolves_with_cifar_geometry() {
        // A GHN can exist for a dataset the zoo has no descriptor for; the
        // zoo graph is then the CIFAR-10 one, under the same cache key.
        let mut reg = registry_with_cifar();
        let ghn = reg.get("cifar10").unwrap().clone();
        reg.insert("mnist", ghn);
        let req = PredictionRequest::zoo(Workload::standard("vgg16", "mnist"), cluster());
        match TaskChecker::check(&req, &reg).unwrap() {
            TaskDecision::Proceed(g) => {
                let cifar = pddl_zoo::build_model("vgg16", &pddl_zoo::CIFAR10).unwrap();
                assert_eq!(g.fingerprint(), cifar.fingerprint());
                assert_eq!(g.graph().nodes(), cifar.nodes());
            }
            other => panic!("expected Proceed, got {other:?}"),
        }
    }

    #[test]
    fn submitted_graph_is_borrowed_not_copied() {
        let reg = registry_with_cifar();
        let g = pddl_zoo::build_model("alexnet", &pddl_zoo::CIFAR10).unwrap();
        let req = PredictionRequest::graph(g, "cifar10", 64, 5, cluster());
        let ModelRef::Graph(sent) = &req.model else { unreachable!() };
        match TaskChecker::check(&req, &reg).unwrap() {
            TaskDecision::Proceed(ResolvedGraph::Submitted(got)) => {
                assert!(std::ptr::eq(got, sent));
            }
            other => panic!("expected the request's own graph, got {other:?}"),
        }
    }

    #[test]
    fn unknown_dataset_routes_to_offline_training() {
        let reg = registry_with_cifar();
        let req =
            PredictionRequest::zoo(Workload::standard("vgg16", "tiny-imagenet"), cluster());
        match TaskChecker::check(&req, &reg).unwrap() {
            TaskDecision::OfflineTrainingRequired { dataset } => {
                assert_eq!(dataset, "tiny-imagenet")
            }
            other => panic!("expected offline-training branch, got {other:?}"),
        }
    }

    #[test]
    fn unknown_model_rejected() {
        let reg = registry_with_cifar();
        let req = PredictionRequest::zoo(Workload::standard("transformer9b", "cifar10"), cluster());
        assert_eq!(
            TaskChecker::check(&req, &reg).unwrap_err(),
            RequestError::UnknownModel("transformer9b".into())
        );
    }

    #[test]
    fn invalid_graph_rejected() {
        let reg = registry_with_cifar();
        let mut g = CompGraph::new("broken");
        let _ = g.add_node(OpKind::Input, NodeAttrs::default(), "in"); // no output
        let req = PredictionRequest::graph(g, "cifar10", 64, 5, cluster());
        assert!(matches!(
            TaskChecker::check(&req, &reg).unwrap_err(),
            RequestError::InvalidGraph(_)
        ));
    }

    #[test]
    fn degenerate_params_rejected() {
        let reg = registry_with_cifar();
        let mut req = PredictionRequest::zoo(Workload::standard("vgg16", "cifar10"), cluster());
        req.batch_size = 0;
        assert!(matches!(
            TaskChecker::check(&req, &reg).unwrap_err(),
            RequestError::InvalidParams(_)
        ));
        let req2 = PredictionRequest::zoo(
            Workload::standard("vgg16", "cifar10"),
            ClusterState::default(),
        );
        assert!(matches!(
            TaskChecker::check(&req2, &reg).unwrap_err(),
            RequestError::InvalidCluster(_)
        ));
    }
}
