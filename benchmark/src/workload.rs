//! Seeded request generators. Everything the program under test receives
//! is drawn here, before timing starts, from `--seed` alone: the same seed
//! gives the same sequence (and the same printed `sequence_hash`).

use pddl_cluster::{ClusterState, ServerClass};
use pddl_ddlsim::{SimConfig, Simulator, Workload};
use pddl_ghn::SynthGenerator;
use pddl_tensor::Rng;
use pddl_zoo::{build_model, DatasetDesc, ModelSpec, CIFAR10, TINY_IMAGENET};
use predictddl::PredictionRequest;
use std::collections::{HashMap, HashSet};

/// The sweep the serving system was trained on (`TraceConfig::default()`):
/// each dataset on its server class, 1–20 servers, two batch sizes.
pub const DATASETS: [(&DatasetDesc, ServerClass); 2] = [
    (&CIFAR10, ServerClass::GpuP100),
    (&TINY_IMAGENET, ServerClass::CpuE5_2630),
];
pub const MAX_SERVERS: usize = 20;
pub const BATCH_SIZES: [usize; 2] = [64, 128];
pub const EPOCHS: usize = 10;

/// The zoo in descending popularity; requests draw a rank from a Zipf law
/// (exponent 1), so the first few names carry most of the traffic. The
/// order is fixed, not seeded: a seed changes which requests arrive, not
/// what the traffic looks like.
pub const ZOO_POPULARITY: [&str; 31] = [
    "resnet50",
    "resnet18",
    "vgg16",
    "mobilenet_v2",
    "efficientnet_b0",
    "densenet121",
    "resnet101",
    "resnet34",
    "googlenet",
    "alexnet",
    "vgg19",
    "mobilenet_v3_large",
    "resnet152",
    "squeezenet1_1",
    "efficientnet_b3",
    "densenet201",
    "resnext50_32x4d",
    "wide_resnet50_2",
    "shufflenet_v2_x1_0",
    "mnasnet1_0",
    "vgg11",
    "densenet169",
    "efficientnet_b1",
    "mobilenet_v3_small",
    "squeezenet1_0",
    "resnext101_32x8d",
    "densenet161",
    "vgg13",
    "efficientnet_b2",
    "wide_resnet101_2",
    "shufflenet_v2_x0_5",
];

/// Share of `cold_nas` draws that are NAS candidates; the rest are zoo
/// backbones rebuilt with a head width never used before.
pub const COLD_SYNTH_SHARE: f64 = 0.7;
/// Share of `mixed_observe` draws taken from the warm generator.
pub const MIXED_WARM_SHARE: f64 = 0.85;
/// Probability that a completed `mixed_observe` prediction is followed by
/// an observe job.
pub const OBSERVE_SHARE: f64 = 0.25;
/// First fresh head width; stock heads are 10 and 200 classes.
const FIRST_FRESH_HEAD: usize = 1000;

/// Which generator a request came from: a `Warm` request's embedding is
/// resident after warm-up (a cache hit), a `Cold` one has never been seen
/// (a miss).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Class {
    Warm,
    Cold,
}

/// The traffic mix of a serving workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mix {
    WarmZoo,
    ColdNas,
    MixedObserve,
}

/// One distinct request with what the benchmark knows about it.
pub struct Item {
    pub req: PredictionRequest,
    pub class: Class,
    /// The simulator's noise-free training time for this request: the
    /// ground truth accuracy is scored against and observe jobs report.
    pub truth_secs: f64,
    /// Structural fingerprint of the request's graph.
    pub fingerprint: u64,
}

/// A generated request sequence: `order[i]` indexes `table`, so a repeated
/// request is stored once.
pub struct Plan {
    pub table: Vec<Item>,
    pub order: Vec<u32>,
    /// Per position: is this prediction followed by an observe job?
    pub observe: Vec<bool>,
}

impl Plan {
    pub fn item(&self, position: usize) -> &Item {
        &self.table[self.order[position] as usize]
    }

    /// FNV-1a over the sequence's content, printed with every run so two
    /// runs can be seen to have received the same inputs.
    pub fn sequence_hash(&self) -> u64 {
        let mut h = Fnv::default();
        for (pos, &idx) in self.order.iter().enumerate() {
            let it = &self.table[idx as usize];
            h.bytes(it.req.dataset.as_bytes());
            h.word(it.fingerprint);
            h.word(it.req.batch_size as u64);
            h.word(it.req.cluster.num_servers() as u64);
            h.word(u64::from(it.class == Class::Cold) | u64::from(self.observe[pos]) << 1);
        }
        h.0
    }
}

/// FNV-1a, 64 bit.
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Self(0xcbf29ce484222325)
    }
}

impl Fnv {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x100000001b3);
        }
    }

    pub fn word(&mut self, w: u64) {
        self.bytes(&w.to_le_bytes());
    }
}

/// Cumulative Zipf(1) distribution over `n` ranks.
pub fn zipf_cdf(n: usize) -> Vec<f64> {
    let weights: Vec<f64> = (1..=n).map(|r| 1.0 / r as f64).collect();
    let total: f64 = weights.iter().sum();
    let mut acc = 0.0;
    weights
        .iter()
        .map(|w| {
            acc += w / total;
            acc
        })
        .collect()
}

/// Draws a rank from a cumulative distribution.
pub fn draw_rank(rng: &mut Rng, cdf: &[f64]) -> usize {
    let u = rng.next_f64();
    cdf.partition_point(|&c| c <= u).min(cdf.len() - 1)
}

/// Open-loop arrival times in nanoseconds: `n` Poisson arrivals at
/// `rate_rps`, from `seed` alone.
pub fn poisson_schedule(seed: u64, rate_rps: f64, n: usize) -> Vec<u64> {
    let mut rng = Rng::new(seed ^ 0xA221_7A15);
    let mut t = 0.0f64;
    (0..n)
        .map(|_| {
            t += -(1.0 - rng.next_f64()).ln() / rate_rps;
            (t * 1e9) as u64
        })
        .collect()
}

/// Draws requests of every class from one seed.
pub struct Generator {
    rng: Rng,
    sim: Simulator,
    zipf: Vec<f64>,
    synth: [SynthGenerator; 2],
    /// Fingerprints of every cold graph handed out: none repeats.
    seen: HashSet<u64>,
    next_head: usize,
    warm_index: HashMap<(usize, usize, usize, usize), u32>,
    table: Vec<Item>,
}

impl Generator {
    pub fn new(seed: u64) -> Self {
        let synth = [0, 1]
            .map(|i| SynthGenerator::new(DATASETS[i].0.clone(), seed.wrapping_add(i as u64 + 1)));
        Self {
            rng: Rng::new(seed),
            sim: Simulator::new(SimConfig::default()),
            zipf: zipf_cdf(ZOO_POPULARITY.len()),
            synth,
            seen: HashSet::new(),
            next_head: FIRST_FRESH_HEAD,
            warm_index: HashMap::new(),
            table: Vec::new(),
        }
    }

    /// `n` draws of `mix`.
    pub fn plan(mut self, mix: Mix, n: usize) -> Plan {
        let mut order = Vec::with_capacity(n);
        let mut observe = Vec::with_capacity(n);
        for _ in 0..n {
            let (idx, obs) = match mix {
                Mix::WarmZoo => (self.warm(), false),
                Mix::ColdNas => (self.cold(), false),
                Mix::MixedObserve => {
                    let idx = if self.rng.chance(MIXED_WARM_SHARE) {
                        self.warm()
                    } else {
                        self.cold()
                    };
                    (idx, self.rng.chance(OBSERVE_SHARE))
                }
            };
            order.push(idx);
            observe.push(obs);
        }
        Plan {
            table: self.table,
            order,
            observe,
        }
    }

    /// A zoo model by name (Zipf over models) on one of the trained
    /// datasets, 1–20 servers, batch 64 or 128.
    fn warm(&mut self) -> u32 {
        let rank = draw_rank(&mut self.rng, &self.zipf);
        let ds_i = self.rng.below(DATASETS.len());
        let servers = 1 + self.rng.below(MAX_SERVERS);
        let batch_i = self.rng.below(BATCH_SIZES.len());
        let key = (rank, ds_i, servers, batch_i);
        if let Some(&idx) = self.warm_index.get(&key) {
            return idx;
        }
        let (ds, class) = DATASETS[ds_i];
        let w = Workload::new(ZOO_POPULARITY[rank], ds.name, BATCH_SIZES[batch_i], EPOCHS);
        let cluster = ClusterState::homogeneous(class, servers);
        let truth_secs = self
            .sim
            .expected_time(&w, &cluster)
            .expect("every configuration of the training sweep simulates");
        let fingerprint = w.build_graph().expect("zoo model").fingerprint();
        let idx = self.push(Item {
            req: PredictionRequest::zoo(w, cluster),
            class: Class::Warm,
            truth_secs,
            fingerprint,
        });
        self.warm_index.insert(key, idx);
        idx
    }

    /// An architecture no request has carried before, as an explicit
    /// graph: a NAS candidate, or a zoo backbone with a fresh head width
    /// (the fingerprint covers `c_out`, so each is a new cache key).
    fn cold(&mut self) -> u32 {
        let ds_i = self.rng.below(DATASETS.len());
        let (ds, class) = DATASETS[ds_i];
        loop {
            let graph = if self.rng.chance(COLD_SYNTH_SHARE) {
                self.synth[ds_i].sample()
            } else {
                let name = ZOO_POPULARITY[draw_rank(&mut self.rng, &self.zipf)];
                self.next_head += 1;
                let fresh = DatasetDesc {
                    num_classes: self.next_head,
                    ..ds.clone()
                };
                build_model(name, &fresh).expect("zoo model")
            };
            let fingerprint = graph.fingerprint();
            if !self.seen.insert(fingerprint) {
                continue;
            }
            let servers = 1 + self.rng.below(MAX_SERVERS);
            let batch = BATCH_SIZES[self.rng.below(BATCH_SIZES.len())];
            let w = Workload::new(&graph.name, ds.name, batch, EPOCHS);
            let cluster = ClusterState::homogeneous(class, servers);
            // A candidate too large for device memory at this batch size
            // fails on every cluster; draw another one.
            let spec = ModelSpec::from_graph(&graph);
            let Ok(truth_secs) = self.sim.expected_time_with_spec(&w, &spec, ds, &cluster) else {
                continue;
            };
            return self.push(Item {
                req: PredictionRequest::graph(graph, ds.name, batch, EPOCHS, cluster),
                class: Class::Cold,
                truth_secs,
                fingerprint,
            });
        }
    }

    fn push(&mut self, item: Item) -> u32 {
        self.table.push(item);
        (self.table.len() - 1) as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn popularity_table_is_the_zoo() {
        let mut ours: Vec<&str> = ZOO_POPULARITY.to_vec();
        let mut zoo: Vec<&str> = pddl_zoo::model_names().to_vec();
        ours.sort_unstable();
        zoo.sort_unstable();
        assert_eq!(ours, zoo);
    }

    #[test]
    fn same_seed_same_sequence_other_seed_other_sequence() {
        for mix in [Mix::WarmZoo, Mix::ColdNas, Mix::MixedObserve] {
            let a = Generator::new(11).plan(mix, 300);
            let b = Generator::new(11).plan(mix, 300);
            let c = Generator::new(12).plan(mix, 300);
            assert_eq!(a.order, b.order);
            assert_eq!(a.observe, b.observe);
            assert_eq!(a.sequence_hash(), b.sequence_hash(), "{mix:?}");
            assert_ne!(a.sequence_hash(), c.sequence_hash(), "{mix:?}");
        }
        assert_eq!(
            poisson_schedule(5, 200.0, 50),
            poisson_schedule(5, 200.0, 50)
        );
        assert_ne!(
            poisson_schedule(5, 200.0, 50),
            poisson_schedule(6, 200.0, 50)
        );
    }

    #[test]
    fn cold_pool_never_repeats_a_fingerprint() {
        let plan = Generator::new(3).plan(Mix::ColdNas, 600);
        assert_eq!(
            plan.table.len(),
            600,
            "every cold draw is a new table entry"
        );
        let mut fps = HashSet::new();
        for it in &plan.table {
            assert_eq!(it.class, Class::Cold);
            let g = match &it.req.model {
                predictddl::ModelRef::Graph(g) => g,
                predictddl::ModelRef::Zoo(_) => panic!("cold requests carry explicit graphs"),
            };
            assert_eq!(g.fingerprint(), it.fingerprint);
            assert!(
                fps.insert((it.req.dataset.clone(), it.fingerprint)),
                "fingerprint repeats"
            );
            assert!(it.truth_secs.is_finite() && it.truth_secs > 0.0);
        }
        let synth = plan
            .table
            .iter()
            .filter(|it| it.req.model_name().starts_with("synth-"))
            .count();
        assert!(
            (360..=480).contains(&synth),
            "{synth} of 600 are NAS candidates, want about 70 %"
        );
    }

    /// Seed 28's 11,036th cold draw is a candidate the simulator rejects:
    /// it fits no device at its batch size, whatever the cluster. The
    /// generator must drop it for another, not redraw clusters for ever.
    #[test]
    fn rejected_candidate_is_replaced() {
        let plan = Generator::new(28).plan(Mix::ColdNas, 11_100);
        assert_eq!(plan.table.len(), 11_100);
    }

    #[test]
    fn warm_draws_repeat_and_follow_the_zipf_law() {
        let plan = Generator::new(9).plan(Mix::WarmZoo, 20_000);
        assert!(plan.table.len() <= 31 * 2 * 20 * 2);
        assert!(plan.table.iter().all(|it| it.class == Class::Warm));
        let top = plan
            .order
            .iter()
            .filter(|&&i| plan.table[i as usize].req.model_name() == ZOO_POPULARITY[0])
            .count() as f64
            / 20_000.0;
        let want = zipf_cdf(31)[0];
        assert!(
            (top - want).abs() < 0.02,
            "top model share {top}, Zipf says {want}"
        );
    }

    #[test]
    fn mixed_draws_both_classes_and_tosses_the_observe_coin() {
        let plan = Generator::new(4).plan(Mix::MixedObserve, 4000);
        let cold = (0..4000)
            .filter(|&p| plan.item(p).class == Class::Cold)
            .count() as f64
            / 4000.0;
        let obs = plan.observe.iter().filter(|&&o| o).count() as f64 / 4000.0;
        assert!(
            (cold - (1.0 - MIXED_WARM_SHARE)).abs() < 0.03,
            "cold share {cold}"
        );
        assert!((obs - OBSERVE_SHARE).abs() < 0.03, "observe share {obs}");
    }

    #[test]
    fn poisson_schedule_keeps_its_rate() {
        let due = poisson_schedule(1, 2000.0, 20_000);
        assert!(due.windows(2).all(|w| w[0] <= w[1]));
        let rate = 20_000.0 / (*due.last().unwrap() as f64 / 1e9);
        assert!((rate / 2000.0 - 1.0).abs() < 0.03, "rate {rate}");
    }
}
