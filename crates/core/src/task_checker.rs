//! The Task Checker (step ③ of Fig. 7): validates a request and decides
//! whether inference can proceed directly or offline GHN training is needed.

use crate::registry::GhnRegistry;
use crate::request::{ModelRef, PredictionRequest, RequestError};
use pddl_ghn::GhnEncoder;
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
    /// Proceed to embedding + inference with this resolved graph and the
    /// dataset's GHN, looked up once here.
    Proceed(ResolvedGraph<'a>, &'a GhnEncoder),
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
        registry: &'a GhnRegistry,
    ) -> Result<TaskDecision<'a>, RequestError> {
        if req.batch_size == 0 || req.epochs == 0 {
            return Err(RequestError::InvalidParams(
                "batch_size and epochs must be positive".into(),
            ));
        }
        if req.cluster.num_servers() == 0 {
            return Err(RequestError::InvalidCluster("no servers in cluster".into()));
        }
        // The load figures come off the wire unchecked; Eq. (1)–(2) are
        // only defined for a busy fraction in [0,1] and at least one core.
        for (i, s) in req.cluster.servers.iter().enumerate() {
            if !(0.0..=1.0).contains(&s.cpu_util) {
                return Err(RequestError::InvalidCluster(format!(
                    "server {i}: cpu_util {} is outside [0,1]",
                    s.cpu_util
                )));
            }
            if s.spec.cpu_cores == 0 {
                return Err(RequestError::InvalidCluster(format!("server {i}: cpu_cores is 0")));
            }
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

        match registry.get(&req.dataset) {
            Some(ghn) => Ok(TaskDecision::Proceed(graph, ghn)),
            None => Ok(TaskDecision::OfflineTrainingRequired { dataset: req.dataset.clone() }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pddl_cluster::{ClusterState, ServerClass};
    use pddl_ddlsim::Workload;
    use pddl_graph::{NodeAttrs, OpKind};

    fn registry_with_cifar() -> GhnRegistry {
        GhnRegistry::tiny(3, &["cifar10"])
    }

    fn cluster() -> ClusterState {
        ClusterState::homogeneous(ServerClass::GpuP100, 2)
    }

    #[test]
    fn known_model_and_dataset_proceeds() {
        let reg = registry_with_cifar();
        let req = PredictionRequest::zoo(Workload::standard("vgg16", "cifar10"), cluster());
        match TaskChecker::check(&req, &reg).unwrap() {
            TaskDecision::Proceed(g, ghn) => {
                assert_eq!(g.graph().name, "vgg16");
                assert!(std::ptr::eq(ghn, reg.get("cifar10").unwrap()));
            }
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
            TaskDecision::Proceed(g, _) => {
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
            TaskDecision::Proceed(ResolvedGraph::Submitted(got), _) => {
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

    #[test]
    fn out_of_range_load_figures_name_the_server_and_field() {
        let reg = registry_with_cifar();
        let req = |edit: fn(&mut ClusterState)| {
            let mut c = cluster();
            edit(&mut c);
            PredictionRequest::zoo(Workload::standard("vgg16", "cifar10"), c)
        };
        let rejected = |r: &PredictionRequest| TaskChecker::check(r, &reg).unwrap_err();
        assert_eq!(
            rejected(&req(|c| c.servers[1].cpu_util = f64::NAN)),
            RequestError::InvalidCluster("server 1: cpu_util NaN is outside [0,1]".into())
        );
        assert_eq!(
            rejected(&req(|c| c.servers[0].cpu_util = 1.5)),
            RequestError::InvalidCluster("server 0: cpu_util 1.5 is outside [0,1]".into())
        );
        assert_eq!(
            rejected(&req(|c| c.servers[1].spec.cpu_cores = 0)),
            RequestError::InvalidCluster("server 1: cpu_cores is 0".into())
        );
        // The bounds themselves are valid loads.
        for util in [0.0, 1.0] {
            let mut ok = req(|_| {});
            ok.cluster.servers[0].cpu_util = util;
            assert!(TaskChecker::check(&ok, &reg).is_ok(), "cpu_util {util}");
        }
    }
}
