//! The routing key: which ring position a prediction request hashes to.
//!
//! PredictDDL's reusability story keys the serving plane: a prediction
//! is a pure function of `(architecture, dataset, training params,
//! cluster spec)`, so routing on exactly that tuple sends every repeat
//! of a workload to the same shard — its embedding cache stays hot,
//! and bit-identical results come from one place. The
//! key deliberately ignores request identity (`client`/`id`) and trace
//! context: retries of the same workload land on the same shard.

use pddl_telemetry::hash::{fnv1a, Fnv1a};
use predictddl::{ParsedFrame, PredictionRequest};

/// The consistent-hash key of one prediction request: a stable 64-bit
/// hash of the architecture name, dataset, batch size, epochs, and the
/// cluster's feature vector (the paper's arch-hash × cluster-spec key).
/// Identical workloads hash identically across processes and runs.
pub fn routing_key(req: &PredictionRequest) -> u64 {
    let mut h = Fnv1a::new();
    h.bytes(req.model_name().as_bytes());
    h.bytes(&[0]); // field separator: "ab"+"c" != "a"+"bc"
    h.bytes(req.dataset.as_bytes());
    h.bytes(&[0]);
    h.u64_le(req.batch_size as u64);
    h.u64_le(req.epochs as u64);
    for f in req.cluster.feature_vector() {
        h.u64_le(f.to_bits());
    }
    h.finish()
}

/// The routing key of one classified wire frame, when it has one.
/// Control ops have no key (they are answered by whoever receives
/// them); batches route on their first request so a homogeneous batch
/// lands on its cache-warm shard. Observations route on the request
/// they report, so a workload's feedback reaches the same shard that
/// serves its predictions and that shard's calibration stays coherent.
pub fn frame_key(frame: &ParsedFrame) -> Option<u64> {
    match frame {
        ParsedFrame::Single(req) => Some(routing_key(req)),
        ParsedFrame::Enveloped(env) => Some(routing_key(&env.req)),
        ParsedFrame::Batch(reqs) => reqs.first().map(routing_key),
        ParsedFrame::Observe { req, .. } => Some(routing_key(req)),
        ParsedFrame::Stats
        | ParsedFrame::Trace
        | ParsedFrame::RouteTable
        | ParsedFrame::Reload { .. } => None,
    }
}

/// Best-effort routing key for a raw request line `parse_frame`
/// rejected: hash the raw bytes. The router forwards such lines anyway
/// (the shard answers with its typed malformed-frame error, exactly as
/// it would on a direct connection), and byte-hashing keeps the
/// placement deterministic.
pub fn line_key(line: &str) -> u64 {
    fnv1a(line.trim_end().as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use pddl_cluster::{ClusterState, ServerClass};
    use pddl_ddlsim::Workload;

    fn req(model: &str, servers: usize) -> PredictionRequest {
        PredictionRequest::zoo(
            Workload::standard(model, "cifar10"),
            ClusterState::homogeneous(ServerClass::CpuE5_2630, servers),
        )
    }

    #[test]
    fn key_is_stable_and_workload_sensitive() {
        assert_eq!(routing_key(&req("resnet50", 4)), routing_key(&req("resnet50", 4)));
        assert_ne!(routing_key(&req("resnet50", 4)), routing_key(&req("vgg16", 4)));
        assert_ne!(routing_key(&req("resnet50", 4)), routing_key(&req("resnet50", 8)));
    }

    #[test]
    fn key_ignores_identity_but_not_params() {
        let mut a = req("resnet50", 4);
        let b = req("resnet50", 4);
        assert_eq!(routing_key(&a), routing_key(&b));
        a.batch_size += 1;
        assert_ne!(routing_key(&a), routing_key(&b));
    }
}
