//! The system under test: how it is trained and warmed, and the oracle
//! that says what each request's answer must be.

use crate::stats::median;
use crate::workload::{Class, Fnv, Item, Mix, Plan, DATASETS};
use pddl_ddlsim::{generate_trace, TraceConfig, TraceRecord};
use pddl_ernest::model::{ErnestModel, ErnestSample};
use pddl_ghn::train::TrainConfig;
use pddl_graph::CompGraph;
use pddl_tensor::Rng;
use pddl_zoo::dataset::dataset_by_name;
use pddl_zoo::{build_model, CIFAR10};
use predictddl::{
    EmbeddingCache, ModelRef, OfflineTrainer, PredictDdl, Prediction, PredictionRequest,
};
use std::collections::{HashMap, HashSet};
use std::time::Instant;

/// Times set-up is repeated in a run; the median is reported.
pub const SETUP_REPEATS: usize = 5;

/// Throwaway entries put into the cache before cold traffic, a few more
/// than its capacity, so that every timed miss also evicts: the state of
/// a server that has been up for a while, not of one just started.
const PREFILL_ENTRIES: usize = 1100;

/// The serving system's trainer: the paper-size GHN (request cost depends
/// on weight shapes) with a short meta-training, the default regressor.
pub fn serving_trainer() -> OfflineTrainer {
    OfflineTrainer {
        ghn_train: TrainConfig {
            num_graphs: 16,
            epochs: 6,
            ..TrainConfig::default()
        },
        ..OfflineTrainer::default()
    }
}

/// A trained serving system and what building it cost, seconds.
pub struct Trained {
    pub system: PredictDdl,
    /// Trace generation plus training, median over the repeats.
    pub build_s: f64,
    /// `train_from_records` alone, median over the repeats.
    pub train_s: f64,
}

/// Generates the default trace and trains the serving system on it,
/// `repeats` times over; keeps the last system. Call it before the request
/// pool exists: on this kind of box a process that already holds several
/// hundred MB trains up to three times slower (fresh guest memory is
/// faulted in by the hypervisor), which says nothing about the trainer.
pub fn train_serving(repeats: usize) -> Trained {
    let mut builds = Vec::new();
    let mut trains = Vec::new();
    let mut system = None;
    for _ in 0..repeats {
        drop(system.take());
        let t0 = Instant::now();
        let records = generate_trace(&TraceConfig::default());
        let t1 = Instant::now();
        system = Some(serving_trainer().train_from_records(&records));
        trains.push(t1.elapsed().as_secs_f64());
        builds.push(t0.elapsed().as_secs_f64());
    }
    Trained {
        system: system.expect("at least one repeat"),
        build_s: median(&builds),
        train_s: median(&trains),
    }
}

/// Warms a fresh cache for `plan`, `repeats` times over; leaves the last
/// in the system and returns the median wall, seconds: the rest of set-up.
pub fn warm_serving(
    system: &mut PredictDdl,
    plan: &Plan,
    mix: Mix,
    seed: u64,
    repeats: usize,
) -> f64 {
    let mut walls = Vec::new();
    for _ in 0..repeats {
        system.cache = EmbeddingCache::default();
        let t0 = Instant::now();
        warm_up(system, &system.cache, plan, mix, seed);
        walls.push(t0.elapsed().as_secs_f64());
    }
    median(&walls)
}

/// Brings `cache` to the state timing starts from: for cold traffic a
/// full cache of unrelated entries, then every warm key resident.
pub fn warm_up(system: &PredictDdl, cache: &EmbeddingCache, plan: &Plan, mix: Mix, seed: u64) {
    if mix != Mix::WarmZoo {
        let mut rng = Rng::new(seed ^ 0xF111);
        let dim = system
            .registry
            .get(DATASETS[0].0.name)
            .expect("trained")
            .embed_dim();
        for i in 0..PREFILL_ENTRIES {
            cache.preload(DATASETS[i % 2].0.name, rng.next_u64(), vec![0.0; dim]);
        }
    }
    // One embed per warm key: the 2,480 warm requests share 62 of them.
    let mut resident = HashSet::new();
    for item in plan.table.iter().filter(|it| it.class == Class::Warm) {
        if resident.insert((&item.req.dataset, item.fingerprint)) {
            let graph = resolve(&item.req).expect("warm requests name zoo models");
            cache
                .get_or_embed(&system.registry, &item.req.dataset, &graph)
                .expect("both datasets are trained");
        }
    }
}

/// The graph a request stands for, resolved the way the task checker
/// resolves it, through the same public functions.
pub fn resolve(req: &PredictionRequest) -> Result<CompGraph, String> {
    match &req.model {
        ModelRef::Zoo(name) => {
            let ds = dataset_by_name(&req.dataset).unwrap_or(&CIFAR10);
            build_model(name, ds).ok_or_else(|| format!("unknown model {name}"))
        }
        ModelRef::Graph(g) => {
            g.validate().map_err(|e| e.to_string())?;
            Ok(g.clone())
        }
    }
}

/// What must match bit for bit between a served prediction and its
/// reference: the predicted seconds and the nearest-architecture answer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Digest {
    pub secs_bits: u64,
    pub nearest: u64,
}

impl Digest {
    pub fn new(seconds: f64, nearest: &Option<(String, f32)>) -> Self {
        let mut h = Fnv::default();
        if let Some((name, sim)) = nearest {
            h.bytes(name.as_bytes());
            h.word(u64::from(sim.to_bits()));
        }
        Self {
            secs_bits: seconds.to_bits(),
            nearest: h.0,
        }
    }

    pub fn of(p: &Prediction) -> Self {
        Self::new(p.seconds, &p.nearest_architecture)
    }

    pub fn seconds(&self) -> f64 {
        f64::from_bits(self.secs_bits)
    }
}

/// Computes reference answers serially on the same system, step by step
/// through the public functions and without touching the system's
/// embedding cache (a reference must not warm what the run measures
/// cold). Embeddings are kept per `(dataset, fingerprint)`.
pub struct Oracle<'a> {
    system: &'a PredictDdl,
    embeddings: HashMap<(String, u64), Vec<f32>>,
}

impl<'a> Oracle<'a> {
    pub fn new(system: &'a PredictDdl) -> Self {
        Self {
            system,
            embeddings: HashMap::new(),
        }
    }

    pub fn reference(&mut self, item: &Item) -> Digest {
        let req = &item.req;
        let key = (req.dataset.clone(), item.fingerprint);
        let system = self.system;
        let embedding = self.embeddings.entry(key).or_insert_with(|| {
            let graph = resolve(req).expect("generated requests are valid");
            system
                .registry
                .get(&req.dataset)
                .expect("trained dataset")
                .embed_graph(&graph)
        });
        let seconds = system.engine.predict(
            embedding,
            &req.cluster,
            req.batch_size,
            req.epochs,
            &req.dataset,
        );
        Digest::new(seconds, &system.embeddings.nearest(&req.dataset, embedding))
    }
}

/// Accuracy of a set of served predictions beside the black-box baseline
/// of the paper's Fig. 9: one Ernest model per dataset, pooled over the
/// training records.
pub struct Accuracy {
    /// Our [`mean_rel_err`].
    pub ours: f64,
    /// Pooled Ernest's, on the same requests.
    pub ernest: f64,
}

impl Accuracy {
    /// Scores `(request, seconds served)` pairs against each request's
    /// ground truth.
    pub fn score(train: &[TraceRecord], served: &[(&Item, f64)]) -> Self {
        let mut per_dataset: HashMap<String, Vec<ErnestSample>> = HashMap::new();
        for r in train {
            per_dataset
                .entry(r.workload.dataset.to_ascii_lowercase())
                .or_default()
                .push(ErnestSample {
                    scale: 1.0,
                    machines: r.num_servers,
                    time_secs: r.time_secs,
                });
        }
        let ernest: HashMap<String, ErnestModel> = per_dataset
            .into_iter()
            .map(|(ds, s)| (ds, ErnestModel::fit(&s)))
            .collect();
        Self {
            ours: mean_rel_err(served.iter().map(|(it, secs)| (*secs, it.truth_secs))),
            ernest: mean_rel_err(served.iter().map(|(it, _)| {
                (
                    ernest[&it.req.dataset].predict(1.0, it.req.cluster.num_servers()),
                    it.truth_secs,
                )
            })),
        }
    }

    /// How many times smaller our error is than Ernest's.
    pub fn ratio_vs_ernest(&self) -> f64 {
        self.ernest / self.ours
    }
}

/// Mean of `|predicted / actual − 1|`, the paper's error metric, with each
/// term capped at 1: a prediction off by more than a factor of two counts
/// as wholly wrong, and no more. Held-out zoo errors are far below the
/// cap; for never-seen architectures the regressor's extrapolation can be
/// off by orders of magnitude, and an uncapped mean would report only its
/// single worst request.
fn mean_rel_err(pairs: impl Iterator<Item = (f64, f64)>) -> f64 {
    let (sum, n) = pairs.fold((0.0, 0usize), |(s, n), (p, a)| {
        (s + (p / a - 1.0).abs().min(1.0), n + 1)
    });
    sum / n.max(1) as f64
}
