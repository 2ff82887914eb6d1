//! Offline training (Fig. 8) and the assembled PredictDDL system.
//!
//! The offline path: train a GHN per dataset → embed every workload's
//! computational graph → join embeddings with cluster descriptions and
//! measured training times → fit the Inference Engine's regression model.
//! Afterwards the system predicts *any* architecture on the trained
//! datasets without retraining (the paper's headline reusability property).

use crate::embeddings::{EmbeddingCache, EmbeddingsGenerator};
use crate::inference::{EngineSample, InferenceConfig, InferenceEngine};
use crate::registry::GhnRegistry;
use crate::request::{Prediction, PredictionRequest, RequestError};
use crate::task_checker::{TaskChecker, TaskDecision};
use pddl_cluster::ClusterState;
use pddl_ddlsim::{generate_trace, TraceConfig, TraceRecord, Workload};
use pddl_ghn::GhnConfig;
use pddl_ghn::train::TrainConfig;
use pddl_regress::Regression;
use pddl_telemetry::{tlog, Counter, Level, SpanStatus, Stage, TraceContext};
use pddl_telemetry::json::{FromJson, JsonError, JsonValue, JsonWriter, ToJson};
use std::collections::HashMap;
use std::sync::OnceLock;
use std::time::Instant;

/// Predictions served, resolved once (the predict path stays lock-free).
fn predictions() -> &'static Counter {
    static PREDICTIONS: OnceLock<&'static Counter> = OnceLock::new();
    PREDICTIONS.get_or_init(|| pddl_telemetry::counter("inference.predictions"))
}

/// Offline-training configuration.
pub struct OfflineTrainer {
    /// GHN architecture hyperparameters.
    pub ghn_config: GhnConfig,
    /// GHN meta-training schedule.
    pub ghn_train: TrainConfig,
    /// Execution-trace sweep to train the regressor on.
    pub trace: TraceConfig,
    /// The (unfitted) regression model to fit on the trace; each
    /// training fits a clone of it.
    pub regression: Regression,
    /// Fit the regressor on `log(time)` instead of raw seconds.
    pub log_target: bool,
    /// Master RNG seed; every sub-seed derives deterministically from it.
    pub seed: u64,
}

impl Default for OfflineTrainer {
    fn default() -> Self {
        Self {
            ghn_config: GhnConfig::default(),
            ghn_train: TrainConfig::default(),
            trace: TraceConfig::default(),
            regression: Regression::polynomial(2, 1e-2),
            log_target: true,
            seed: 0xACC0,
        }
    }
}

impl OfflineTrainer {
    /// Fast configuration for tests: tiny GHN, tiny trace.
    pub fn tiny() -> Self {
        Self {
            ghn_config: GhnConfig::tiny(),
            ghn_train: TrainConfig::tiny(),
            trace: TraceConfig::small(),
            regression: Regression::polynomial(2, 1e-3),
            log_target: true,
            seed: 7,
        }
    }

    /// Full pipeline: generate the trace with the simulator, then train.
    pub fn train_full(&self) -> PredictDdl {
        let records = generate_trace(&self.trace);
        self.train_from_records(&records)
    }

    /// Trains GHNs (per dataset present in the records) and the inference
    /// engine from an explicit trace — the entry point for the experiment
    /// harness, which controls train/test splits itself.
    pub fn train_from_records(&self, records: &[TraceRecord]) -> PredictDdl {
        self.train_from_records_reusing(records, GhnRegistry::default())
    }

    /// Like [`Self::train_from_records`], but keeps the GHNs already in
    /// `registry` — only datasets without a pretrained GHN are trained.
    /// This is the §III-G policy: GHNs are per-dataset assets and never
    /// retrained for cluster or architecture changes.
    pub fn train_from_records_reusing(
        &self,
        records: &[TraceRecord],
        mut registry: GhnRegistry,
    ) -> PredictDdl {
        assert!(!records.is_empty(), "empty training trace");
        let t0 = Instant::now();
        let mut datasets: Vec<String> = records
            .iter()
            .map(|r| r.workload.dataset.to_ascii_lowercase())
            .collect();
        datasets.sort();
        datasets.dedup();
        // Per-dataset GHN trainings are independent (each derives its RNG
        // seed from the dataset name), so they fan out across the work
        // pool; results are inserted in sorted-dataset order, identical to
        // a serial run.
        let missing: Vec<String> =
            datasets.iter().filter(|ds| !registry.has(ds)).cloned().collect();
        let trained = pddl_par::par_map(&missing, |ds| {
            GhnRegistry::train_one(self.ghn_config, self.ghn_train, self.seed, ds)
                .unwrap_or_else(|e| panic!("GHN training failed for {ds}: {e}"))
        });
        for (key, ghn, _report) in trained {
            registry.insert(&key, ghn);
        }
        let ghn_secs = t0.elapsed().as_secs_f64();

        // Embed each distinct (model, dataset) once. The GHN forward
        // passes are independent, so they run on the work pool; the atlas
        // and the sample cache are then filled in first-appearance order,
        // keeping the result identical to the serial loop.
        let t1 = Instant::now();
        let mut embeddings = EmbeddingsGenerator::new();
        let mut distinct: Vec<((String, String), &Workload)> = Vec::new();
        for r in records {
            let key = (r.workload.model.clone(), r.workload.dataset.to_ascii_lowercase());
            if !distinct.iter().any(|(k, _)| *k == key) {
                distinct.push((key, &r.workload));
            }
        }
        let embedded = pddl_par::par_map(&distinct, |((model, ds), w)| {
            let zoo = w
                .resolve()
                .unwrap_or_else(|| panic!("trace references unknown model {model}"));
            let ghn = registry.get(ds).expect("GHN trained above");
            (zoo.graph.name.clone(), ghn.embed_graph(&zoo.graph))
        });
        let mut cache: HashMap<(String, String), Vec<f32>> = HashMap::new();
        for ((key, _), (graph_name, emb)) in distinct.into_iter().zip(embedded) {
            embeddings.record(&key.1, &graph_name, emb.clone());
            cache.insert(key, emb);
        }
        let embed_secs = t1.elapsed().as_secs_f64();

        // Assemble engine samples and fit the regression.
        let t2 = Instant::now();
        let samples: Vec<EngineSample> = records
            .iter()
            .map(|r| {
                let key = (r.workload.model.clone(), r.workload.dataset.to_ascii_lowercase());
                EngineSample {
                    embedding: cache[&key].clone(),
                    cluster: r.cluster(),
                    batch_size: r.workload.batch_size,
                    epochs: r.workload.epochs,
                    dataset: r.workload.dataset.clone(),
                    time_secs: r.time_secs,
                }
            })
            .collect();
        let mut engine = InferenceEngine::new(InferenceConfig {
            regression: self.regression.clone(),
            log_target: self.log_target,
        });
        engine.fit(&samples);
        let fit_secs = t2.elapsed().as_secs_f64();
        tlog!(
            Level::Info,
            "offline",
            "trained",
            datasets = datasets.len(),
            samples = samples.len(),
            ghn_secs = ghn_secs,
            embed_secs = embed_secs,
            fit_secs = fit_secs,
        );

        PredictDdl {
            registry,
            embeddings,
            engine,
            train_cost: TrainCost { ghn_secs, embed_secs, fit_secs },
            records: records.to_vec(),
            cache: EmbeddingCache::default(),
        }
    }

    /// Folds a **new dataset** into an existing system (the Fig. 8 offline
    /// retraining loop, triggered by the Task Checker's
    /// `OfflineTrainingRequired` branch): collects a trace for the dataset
    /// with the simulator, trains its GHN, and refits the regression on the
    /// union of old and new measurements. Existing GHNs are untouched —
    /// "the GHN-2 model ... will not require retraining when the same
    /// workload is executed on a different cluster" (§III-G).
    pub fn extend_with_dataset(&self, system: &mut PredictDdl, dataset: &str) -> Result<(), String> {
        let key = dataset.to_ascii_lowercase();
        if system.registry.has(&key) {
            return Ok(()); // nothing to do
        }
        // Collect the new dataset's trace (keep every other knob from the
        // trainer's trace config). Prefer this trainer's dataset→cluster
        // mapping; fall back to the default mapping for datasets the
        // trainer has never seen.
        let mut cfg = self.trace.clone();
        cfg.dataset_clusters
            .retain(|(d, _)| d.eq_ignore_ascii_case(&key));
        if cfg.dataset_clusters.is_empty() {
            cfg.dataset_clusters = TraceConfig::default()
                .dataset_clusters
                .into_iter()
                .filter(|(d, _)| d.eq_ignore_ascii_case(&key))
                .collect();
        }
        if cfg.dataset_clusters.is_empty() {
            return Err(format!("no cluster mapping for dataset '{dataset}'"));
        }
        let new_records = generate_trace(&cfg);
        if new_records.is_empty() {
            return Err(format!("trace collection produced nothing for '{dataset}'"));
        }
        let mut all = system.records.clone();
        all.extend(new_records);
        // Refit on the union, carrying the existing GHNs over so only the
        // new dataset's GHN is trained.
        let registry = std::mem::take(&mut system.registry);
        *system = self.train_from_records_reusing(&all, registry);
        Ok(())
    }
}

/// Wall-clock breakdown of offline training (reported in Fig. 13).
#[derive(Clone, Copy, Debug, Default)]
pub struct TrainCost {
    /// GHN meta-training wall-clock seconds (one GHN per dataset).
    pub ghn_secs: f64,
    /// Trace-embedding wall-clock seconds.
    pub embed_secs: f64,
    /// Regressor-fitting wall-clock seconds.
    pub fit_secs: f64,
}

pddl_telemetry::json_struct!(TrainCost { ghn_secs, embed_secs, fit_secs });

impl TrainCost {
    /// Total offline-training wall-clock seconds.
    pub fn total(&self) -> f64 {
        self.ghn_secs + self.embed_secs + self.fit_secs
    }
}

/// The assembled, trained PredictDDL system.
pub struct PredictDdl {
    /// Per-dataset GHNs (the paper's reusable offline assets).
    pub registry: GhnRegistry,
    /// Embedding atlas for nearest-architecture queries.
    pub embeddings: EmbeddingsGenerator,
    /// The fitted regression over the unified feature space.
    pub engine: InferenceEngine,
    /// Wall-clock breakdown of offline training (Fig. 13 accounting).
    pub train_cost: TrainCost,
    /// The trace the engine was fitted on, kept so a new dataset can be
    /// folded in later (§III-G: offline retraining "when a new dataset is
    /// introduced") without re-collecting the old measurements.
    pub records: Vec<TraceRecord>,
    /// Service-level embedding cache keyed by `(dataset, graph hash)`.
    /// Runtime state, not part of the trained model: never written, and
    /// rebuilt empty on decode.
    pub cache: EmbeddingCache,
}

impl ToJson for PredictDdl {
    fn write_json(&self, w: &mut JsonWriter) {
        w.object()
            .field("registry", &self.registry)
            .field("embeddings", &self.embeddings)
            .field("engine", &self.engine)
            .field("train_cost", &self.train_cost)
            .field("records", &self.records)
            .end();
    }
}

impl FromJson for PredictDdl {
    fn read_json(v: &JsonValue) -> Result<Self, JsonError> {
        let o = v.fields()?;
        Ok(Self {
            registry: o.field("registry")?,
            embeddings: o.field("embeddings")?,
            engine: o.field("engine")?,
            train_cost: o.field("train_cost")?,
            records: o.field("records")?,
            cache: EmbeddingCache::default(),
        })
    }
}

impl PredictDdl {
    /// Handles one prediction request end-to-end: Task Checker → Embeddings
    /// Generator → Inference Engine (steps ③–⑥ of Fig. 7).
    pub fn predict(&self, req: &PredictionRequest) -> Result<Prediction, RequestError> {
        self.predict_traced(req, None)
    }

    /// [`Self::predict`] with optional trace recording. Each inference
    /// stage — embedding-cache lookup (hit/miss distinguished), the GHN
    /// forward pass on a miss, and the regression — is timed once into
    /// its `trace.stage.<name>` histogram; when `trace` names a parent
    /// span (the controller's dispatch span), each also lands as a child
    /// span in the global flight recorder.
    pub fn predict_traced(
        &self,
        req: &PredictionRequest,
        trace: Option<TraceContext>,
    ) -> Result<Prediction, RequestError> {
        let (resolved, ghn) = match TaskChecker::check(req, &self.registry)? {
            TaskDecision::Proceed(g, ghn) => (g, ghn),
            TaskDecision::OfflineTrainingRequired { dataset } => {
                return Err(RequestError::NeedsOfflineTraining { dataset })
            }
        };
        let t0 = Instant::now();
        // Cached GHN embedding: repeated workloads (same dataset + same
        // graph structure) skip the forward pass entirely, and a zoo model
        // brings its fingerprint with it, so a hit never walks the graph.
        let (embedding, was_hit) = self.cache.get_or_embed_keyed(
            ghn,
            &req.dataset,
            resolved.fingerprint(),
            resolved.graph(),
        );
        let embed_elapsed = t0.elapsed();
        let status = if was_hit { SpanStatus::CacheHit } else { SpanStatus::CacheMiss };
        Stage::EmbedCache.record(trace, embed_elapsed, status);
        if !was_hit {
            // A miss is dominated by the GHN forward pass; attribute the
            // same window to it so waterfalls show where the time went
            // without a second clock read inside the cache.
            Stage::GhnEmbed.record(trace, embed_elapsed, SpanStatus::Ok);
        }
        let t1 = Instant::now();
        let seconds = self.engine.predict(
            &embedding,
            &req.cluster,
            req.batch_size,
            req.epochs,
            &req.dataset,
        );
        Stage::Regress.record(trace, t1.elapsed(), SpanStatus::Ok);
        predictions().inc();
        let nearest = self.embeddings.nearest(&req.dataset, &embedding);
        Ok(Prediction {
            seconds,
            nearest_architecture: nearest,
            inference_secs: t0.elapsed().as_secs_f64(),
        })
    }

    /// Handles a batch of prediction requests, fanning the per-request
    /// embed + regression work out across the global work pool
    /// ([`pddl_par`]). Results are returned in request order and are
    /// identical to calling [`Self::predict`] serially — repeated
    /// architectures additionally coalesce in the embedding cache, so a
    /// 32-workload batch of, say, 8 distinct models runs 8 GHN forward
    /// passes, not 32.
    pub fn predict_many(
        &self,
        reqs: &[PredictionRequest],
    ) -> Vec<Result<Prediction, RequestError>> {
        pddl_par::par_map(reqs, |r| self.predict(r))
    }

    /// Convenience: predict a zoo workload on a cluster.
    pub fn predict_workload(
        &self,
        w: &Workload,
        cluster: &ClusterState,
    ) -> Result<Prediction, RequestError> {
        self.predict(&PredictionRequest::zoo(w.clone(), cluster.clone()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pddl_cluster::ServerClass;
    use pddl_ddlsim::{SimConfig, Simulator};
    use pddl_telemetry::flight_recorder;

    #[test]
    fn tiny_pipeline_trains_and_predicts() {
        let system = OfflineTrainer::tiny().train_full();
        let cluster = ClusterState::homogeneous(ServerClass::GpuP100, 4);
        let w = Workload::new("resnet18", "cifar10", 128, 2);
        let pred = system.predict_workload(&w, &cluster).unwrap();
        assert!(pred.seconds > 0.0 && pred.seconds.is_finite());
        assert!(pred.nearest_architecture.is_some());
        assert!(pred.inference_secs < 5.0);
    }

    #[test]
    fn tiny_pipeline_accuracy_in_sample_family() {
        // Train on the small trace and check predictions for an in-trace
        // configuration are within a factor of 2 of the simulator.
        let trainer = OfflineTrainer::tiny();
        let system = trainer.train_full();
        let sim = Simulator::new(SimConfig::default());
        let cluster = ClusterState::homogeneous(ServerClass::GpuP100, 4);
        let w = Workload::new("vgg16", "cifar10", 128, 2);
        let actual = sim.expected_time(&w, &cluster).unwrap();
        let pred = system.predict_workload(&w, &cluster).unwrap().seconds;
        let ratio = pred / actual;
        assert!((0.5..2.0).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn unseen_dataset_requires_offline_training() {
        let system = OfflineTrainer::tiny().train_full(); // trace covers cifar10 only
        let cluster = ClusterState::homogeneous(ServerClass::CpuE5_2630, 2);
        let w = Workload::new("resnet18", "tiny-imagenet", 128, 2);
        assert!(matches!(
            system.predict_workload(&w, &cluster),
            Err(RequestError::NeedsOfflineTraining { .. })
        ));
    }

    #[test]
    fn traced_predict_distinguishes_cache_miss_from_hit() {
        let system = OfflineTrainer::tiny().train_full();
        let cluster = ClusterState::homogeneous(ServerClass::GpuP100, 4);
        let w = Workload::new("resnet18", "cifar10", 128, 2);
        let req = PredictionRequest::zoo(w, cluster);

        let cold = TraceContext::root(0x0FF1_0001);
        system.predict_traced(&req, Some(cold)).unwrap();
        let spans = flight_recorder().spans_for(cold.trace_id);
        let stage_status: Vec<(Stage, SpanStatus)> =
            spans.iter().map(|s| (s.stage, s.status)).collect();
        assert!(
            stage_status.contains(&(Stage::EmbedCache, SpanStatus::CacheMiss)),
            "cold lookup must record a miss: {stage_status:?}"
        );
        assert!(
            stage_status.contains(&(Stage::GhnEmbed, SpanStatus::Ok)),
            "miss must attribute the GHN forward pass: {stage_status:?}"
        );
        assert!(
            stage_status.contains(&(Stage::Regress, SpanStatus::Ok)),
            "regression stage missing: {stage_status:?}"
        );
        for s in &spans {
            assert_eq!(s.parent_id, cold.span_id, "stages parent to the dispatch span");
        }

        let warm = TraceContext::root(0x0FF1_0002);
        system.predict_traced(&req, Some(warm)).unwrap();
        let spans = flight_recorder().spans_for(warm.trace_id);
        let stage_status: Vec<(Stage, SpanStatus)> =
            spans.iter().map(|s| (s.stage, s.status)).collect();
        assert!(
            stage_status.contains(&(Stage::EmbedCache, SpanStatus::CacheHit)),
            "warm lookup must record a hit: {stage_status:?}"
        );
        assert!(
            !stage_status.iter().any(|(st, _)| *st == Stage::GhnEmbed),
            "a hit runs no GHN forward pass: {stage_status:?}"
        );
    }

    #[test]
    fn train_cost_breakdown_recorded() {
        let system = OfflineTrainer::tiny().train_full();
        assert!(system.train_cost.ghn_secs > 0.0);
        assert!(system.train_cost.total() >= system.train_cost.ghn_secs);
    }
}
