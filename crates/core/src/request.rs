//! Request/response types of the prediction service (step ① of Fig. 7).

use pddl_cluster::ClusterState;
use pddl_ddlsim::Workload;
use pddl_graph::CompGraph;
use pddl_telemetry::json::{FromJson, JsonError, JsonValue, JsonWriter, ToJson};

/// How the user supplies the DNN: a zoo name, or an explicit computational
/// graph ("Modern DL libraries automatically generate the DAG for the given
/// DL model" — the graph variant is what that export would submit).
#[derive(Clone, Debug)]
pub enum ModelRef {
    /// A model-zoo architecture by name.
    Zoo(String),
    /// An explicit computational graph for architectures outside the zoo
    /// (e.g. NAS candidates).
    Graph(CompGraph),
}

impl ToJson for ModelRef {
    fn write_json(&self, w: &mut JsonWriter) {
        match self {
            ModelRef::Zoo(name) => w.object().field("Zoo", name).end(),
            ModelRef::Graph(g) => w.object().field("Graph", g).end(),
        }
    }
}

impl FromJson for ModelRef {
    fn read_json(v: &JsonValue) -> Result<Self, JsonError> {
        match v.variant()? {
            ("Zoo", name) => Ok(ModelRef::Zoo(FromJson::read_json(name)?)),
            ("Graph", g) => Ok(ModelRef::Graph(FromJson::read_json(g)?)),
            (other, _) => Err(JsonError::unknown_variant(other)),
        }
    }
}

/// A prediction request: the user's workload description plus the target
/// cluster (steps ①–② of Fig. 7).
#[derive(Clone, Debug)]
pub struct PredictionRequest {
    /// The model to predict for (zoo name or explicit graph).
    pub model: ModelRef,
    /// Dataset name — the GHN-registry key.
    pub dataset: String,
    /// Per-worker batch size.
    pub batch_size: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Target cluster description, each server's live load included.
    pub cluster: ClusterState,
}

pddl_telemetry::json_struct!(PredictionRequest { model, dataset, batch_size, epochs, cluster });

impl PredictionRequest {
    /// Request for a zoo workload.
    pub fn zoo(w: Workload, cluster: ClusterState) -> Self {
        Self {
            model: ModelRef::Zoo(w.model),
            dataset: w.dataset,
            batch_size: w.batch_size,
            epochs: w.epochs,
            cluster,
        }
    }

    /// Request for a custom graph.
    pub fn graph(g: CompGraph, dataset: &str, batch_size: usize, epochs: usize, cluster: ClusterState) -> Self {
        Self {
            model: ModelRef::Graph(g),
            dataset: dataset.into(),
            batch_size,
            epochs,
            cluster,
        }
    }

    /// Model display name.
    pub fn model_name(&self) -> &str {
        match &self.model {
            ModelRef::Zoo(n) => n,
            ModelRef::Graph(g) => &g.name,
        }
    }
}

/// Prediction result (step ⑥ of Fig. 7).
#[derive(Clone, Debug)]
pub struct Prediction {
    /// Predicted training time, seconds.
    pub seconds: f64,
    /// Closest known architecture in embedding space and its cosine
    /// similarity (the Fig. 5 mechanism), when the embedding set is
    /// non-empty.
    pub nearest_architecture: Option<(String, f32)>,
    /// Embedding generation + inference wall time, seconds.
    pub inference_secs: f64,
}

pddl_telemetry::json_struct!(Prediction { seconds, nearest_architecture, inference_secs });

/// Failure modes of request handling. On the wire each is a one-key
/// object tagged in snake_case like every other wire tag
/// (`{"unknown_model":"…"}`, `{"needs_offline_training":{"dataset":"…"}}`).
#[derive(Clone, Debug, PartialEq)]
pub enum RequestError {
    /// Zoo name not found.
    UnknownModel(String),
    /// No GHN trained for this dataset → offline training required
    /// (step ④ of Fig. 7).
    NeedsOfflineTraining {
        /// The dataset with no pretrained GHN.
        dataset: String,
    },
    /// Structural validation of a submitted graph failed.
    InvalidGraph(String),
    /// Empty or malformed cluster description.
    InvalidCluster(String),
    /// Degenerate request parameters.
    InvalidParams(String),
}

impl ToJson for RequestError {
    fn write_json(&self, w: &mut JsonWriter) {
        let o = w.object();
        match self {
            RequestError::UnknownModel(m) => o.field("unknown_model", m),
            RequestError::NeedsOfflineTraining { dataset } => o
                .field_with("needs_offline_training", |w| {
                    w.object().field("dataset", dataset).end()
                }),
            RequestError::InvalidGraph(e) => o.field("invalid_graph", e),
            RequestError::InvalidCluster(e) => o.field("invalid_cluster", e),
            RequestError::InvalidParams(e) => o.field("invalid_params", e),
        }
        .end();
    }
}

impl FromJson for RequestError {
    fn read_json(v: &JsonValue) -> Result<Self, JsonError> {
        let (tag, payload) = v.variant()?;
        let detail = || String::read_json(payload);
        Ok(match tag {
            "unknown_model" => RequestError::UnknownModel(detail()?),
            "needs_offline_training" => {
                RequestError::NeedsOfflineTraining { dataset: payload.fields()?.field("dataset")? }
            }
            "invalid_graph" => RequestError::InvalidGraph(detail()?),
            "invalid_cluster" => RequestError::InvalidCluster(detail()?),
            "invalid_params" => RequestError::InvalidParams(detail()?),
            other => return Err(JsonError::unknown_variant(other)),
        })
    }
}

impl std::fmt::Display for RequestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RequestError::UnknownModel(m) => write!(f, "unknown model '{m}'"),
            RequestError::NeedsOfflineTraining { dataset } => {
                write!(f, "no pretrained GHN for dataset '{dataset}'; offline training required")
            }
            RequestError::InvalidGraph(e) => write!(f, "invalid computational graph: {e}"),
            RequestError::InvalidCluster(e) => write!(f, "invalid cluster: {e}"),
            RequestError::InvalidParams(e) => write!(f, "invalid parameters: {e}"),
        }
    }
}

impl std::error::Error for RequestError {}

#[cfg(test)]
mod tests {
    use super::*;
    use pddl_cluster::ServerClass;
    use pddl_telemetry::json;

    #[test]
    fn zoo_request_round_trips_json() {
        let req = PredictionRequest::zoo(
            Workload::standard("resnet18", "cifar10"),
            ClusterState::homogeneous(ServerClass::GpuP100, 4),
        );
        let s = json::to_string(&req).unwrap();
        let back: PredictionRequest = json::from_str(&s).unwrap();
        assert_eq!(back.model_name(), "resnet18");
        assert_eq!(back.cluster.num_servers(), 4);
    }

    /// A NAS-scale explicit graph (700 nodes, skip edges every 7th node)
    /// survives the wire whole: same fingerprint, same bytes again, and
    /// one frame well inside the 1 MiB bound.
    #[test]
    fn graph_request_with_700_nodes_round_trips() {
        use pddl_graph::{NodeAttrs, OpKind};
        let mut g = CompGraph::new("nas-700");
        let mut prev = g.add_node(OpKind::Input, NodeAttrs::elementwise(3, 32), "in");
        let mut skip = prev;
        for i in 1..699 {
            let kind = [OpKind::Conv, OpKind::BatchNorm, OpKind::Relu][i % 3];
            prev = g.chain(prev, kind, NodeAttrs::conv(16, 16, 3, 1, 32), format!("n{i}"));
            if i % 7 == 0 {
                let sum = g.add_node(OpKind::Sum, NodeAttrs::elementwise(16, 32), format!("s{i}"));
                g.add_edge(prev, sum);
                g.add_edge(skip, sum);
                prev = sum;
                skip = sum;
            }
        }
        g.chain(prev, OpKind::Output, NodeAttrs::elementwise(10, 1), "out");
        assert!(g.num_nodes() >= 700 && g.validate().is_ok());

        let cluster = ClusterState::homogeneous(ServerClass::GpuP100, 2);
        let req = PredictionRequest::graph(g.clone(), "cifar10", 64, 5, cluster);
        let line = json::to_string(&req).unwrap();
        assert!(line.len() < pddl_cluster::MAX_FRAME_BYTES / 4, "{} bytes", line.len());
        let Ok(crate::ParsedFrame::Single(back)) = crate::parse_frame(&line) else {
            panic!("graph request misclassified");
        };
        let ModelRef::Graph(g2) = &back.model else { panic!("graph variant lost") };
        assert_eq!(g2.fingerprint(), g.fingerprint());
        assert_eq!(g2.num_edges(), g.num_edges());
        assert_eq!(json::to_string(&*back).unwrap(), line);
    }

    #[test]
    fn model_name_for_graph_variant() {
        let g = CompGraph::new("custom-nas-42");
        let req = PredictionRequest::graph(
            g,
            "cifar10",
            64,
            5,
            ClusterState::homogeneous(ServerClass::CpuE5_2630, 2),
        );
        assert_eq!(req.model_name(), "custom-nas-42");
    }

    #[test]
    fn errors_display() {
        let e = RequestError::NeedsOfflineTraining { dataset: "mnist".into() };
        assert!(e.to_string().contains("mnist"));
    }
}
