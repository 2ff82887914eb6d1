//! Execution-trace generation — the stand-in for the paper's 2,000 data
//! points collected "by training each DL model by using 1–20 high-end
//! servers" (§IV-A2).

use crate::simulate::{SimConfig, Simulator};
use crate::workload::Workload;
use pddl_cluster::{ClusterState, ServerClass};
use pddl_zoo::model_names;
use pddl_telemetry::json::{self, FromJson, JsonError, JsonValue, JsonWriter, ToJson};

/// One collected measurement.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceRecord {
    pub workload: Workload,
    /// Server class the cluster was built from.
    pub server_class: ServerClass,
    pub num_servers: usize,
    /// Measured wall-clock training time, seconds (noisy).
    pub time_secs: f64,
    /// Noise-free expectation (kept for diagnostics; predictors never see it).
    pub expected_secs: f64,
}

impl ToJson for TraceRecord {
    fn write_json(&self, w: &mut JsonWriter) {
        w.object()
            .field("workload", &self.workload)
            .field("server_class", &self.server_class)
            .field("num_servers", &self.num_servers)
            .field("time_secs", &self.time_secs)
            .field("expected_secs", &self.expected_secs)
            .end();
    }
}

impl FromJson for TraceRecord {
    fn read_json(v: &JsonValue) -> Result<Self, JsonError> {
        let o = v.fields()?;
        Ok(Self {
            workload: o.field("workload")?,
            server_class: o.field("server_class")?,
            num_servers: o.field("num_servers")?,
            time_secs: o.field("time_secs")?,
            expected_secs: o.field("expected_secs")?,
        })
    }
}

impl TraceRecord {
    /// Rebuilds the cluster this record was measured on.
    pub fn cluster(&self) -> ClusterState {
        ClusterState::homogeneous(self.server_class, self.num_servers)
    }
}

/// Trace-generation parameters.
#[derive(Clone, Debug)]
pub struct TraceConfig {
    /// Models to include (defaults to the full 31-model zoo).
    pub models: Vec<String>,
    /// (dataset, server class) pairs. The paper trains CIFAR-10 workloads on
    /// the GPU servers and Tiny-ImageNet on CPU servers (§IV-B2 discussion).
    pub dataset_clusters: Vec<(String, ServerClass)>,
    /// Cluster sizes to sweep.
    pub server_counts: Vec<usize>,
    /// Per-worker batch sizes to sweep.
    pub batch_sizes: Vec<usize>,
    /// Epochs per training run.
    pub epochs: usize,
    pub sim: SimConfig,
}

impl Default for TraceConfig {
    fn default() -> Self {
        Self {
            models: model_names().iter().map(|s| s.to_string()).collect(),
            dataset_clusters: vec![
                ("cifar10".into(), ServerClass::GpuP100),
                ("tiny-imagenet".into(), ServerClass::CpuE5_2630),
            ],
            server_counts: (1..=20).collect(),
            batch_sizes: vec![64, 128],
            epochs: 10,
            sim: SimConfig::default(),
        }
    }
}

impl TraceConfig {
    /// Smaller sweep for fast tests.
    pub fn small() -> Self {
        Self {
            models: vec!["resnet18".into(), "vgg16".into(), "squeezenet1_1".into()],
            dataset_clusters: vec![("cifar10".into(), ServerClass::GpuP100)],
            server_counts: vec![1, 2, 4, 8],
            batch_sizes: vec![128],
            epochs: 2,
            sim: SimConfig::default(),
        }
    }
}

/// Generates the full execution trace, fanning configurations out across
/// the [`pddl_par`] work pool (order-preserving, so the trace is identical
/// to a serial sweep). Configurations that fail (e.g. OOM at small cluster
/// sizes) are skipped, exactly as failed testbed runs would be.
pub fn generate_trace(cfg: &TraceConfig) -> Vec<TraceRecord> {
    let sim = Simulator::new(cfg.sim);
    // Whatever outlives the fan-out is allocated on this thread: the zoo's
    // per-process table entries (each pair resolved here, before its
    // configurations fan out) and the records' strings; a worker hands back
    // two numbers. Pool workers are short-lived threads, and what one leaves
    // in its allocator arena is inherited by whichever worker comes next —
    // the resident set of everything after (GHN training above all) would
    // differ by several MB between identical runs.
    let mut jobs = Vec::new();
    for model in &cfg.models {
        for (dataset, class) in &cfg.dataset_clusters {
            let _ = Workload::standard(model, dataset).resolve();
            for &n in &cfg.server_counts {
                for &b in &cfg.batch_sizes {
                    jobs.push((Workload::new(model, dataset, b, cfg.epochs), *class, n));
                }
            }
        }
    }
    let timed = pddl_par::par_map(&jobs, |(w, class, n)| {
        let cluster = ClusterState::homogeneous(*class, *n);
        let expected = sim.expected_time(w, &cluster).ok()?;
        let time = sim.measure(w, &cluster, 0).ok()?;
        Some((time, expected))
    });
    jobs.into_iter()
        .zip(timed)
        .filter_map(|((workload, server_class, num_servers), timed)| {
            let (time_secs, expected_secs) = timed?;
            Some(TraceRecord { workload, server_class, num_servers, time_secs, expected_secs })
        })
        .collect()
}

/// Serializes a trace to JSON lines.
pub fn trace_to_jsonl(records: &[TraceRecord]) -> String {
    records
        .iter()
        .map(|r| json::to_string(r).expect("simulated times are finite"))
        .collect::<Vec<_>>()
        .join("\n")
}

/// Parses a JSON-lines trace.
pub fn trace_from_jsonl(s: &str) -> Result<Vec<TraceRecord>, JsonError> {
    s.lines()
        .filter(|l| !l.trim().is_empty())
        .map(json::from_str)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_trace_generates_all_configs() {
        let t = generate_trace(&TraceConfig::small());
        // 3 models × 1 dataset × 4 sizes × 1 batch = 12.
        assert_eq!(t.len(), 12);
        assert!(t.iter().all(|r| r.time_secs > 0.0));
    }

    #[test]
    fn full_trace_matches_paper_scale() {
        // The paper's trace has 2,000 points from 31 models × 1–20 servers.
        let cfg = TraceConfig::default();
        let t = generate_trace(&cfg);
        assert!(
            (1800..=2600).contains(&t.len()),
            "expected a paper-scale trace, got {}",
            t.len()
        );
    }

    #[test]
    fn trace_round_trips_jsonl() {
        let t = generate_trace(&TraceConfig::small());
        let s = trace_to_jsonl(&t);
        let t2 = trace_from_jsonl(&s).unwrap();
        assert_eq!(t, t2);
    }

    #[test]
    fn records_rebuild_their_cluster() {
        let t = generate_trace(&TraceConfig::small());
        let r = &t[0];
        let c = r.cluster();
        assert_eq!(c.num_servers(), r.num_servers);
    }

    #[test]
    fn noise_keeps_measurements_near_expectation() {
        let t = generate_trace(&TraceConfig::small());
        for r in &t {
            let ratio = r.time_secs / r.expected_secs;
            assert!((0.8..1.25).contains(&ratio), "ratio {ratio}");
        }
    }
}
