//! `offline_train`: the once-per-dataset pipeline at reduced scale —
//! generate the trace, split it 80/20, meta-train the GHNs and fit the
//! regressor on the 80, score the 20 beside a pooled Ernest. The held-out
//! set is then served over and over starting from a cold cache, which is
//! what a deployment sees after (re)training: each zoo model embedded
//! once, everything after that a hit.

use crate::layers::{replay, write_trace};
use crate::report::{peak_rss_mb, Report};
use crate::stats::{median, slice_median, SLICES};
use crate::sut::{Accuracy, Digest, SETUP_REPEATS};
use crate::trace::Recorder;
use crate::workload::{Class, Item, Plan};
use pddl_ddlsim::{generate_trace, TraceConfig, TraceRecord};
use pddl_ernest::model::{ErnestModel, ErnestSample};
use pddl_ghn::train::TrainConfig;
use pddl_ghn::{Ghn, GhnConfig, GhnTrainer, SynthGenerator};
use pddl_regress::split::train_test_split;
use pddl_tensor::Rng;
use predictddl::{EmbeddingCache, GhnRegistry, OfflineTrainer, PredictionRequest};
use std::path::Path;
use std::time::Instant;

/// Meta-training size at the reference `--seconds 20`: 128 graphs × 20
/// epochs per dataset (the default trainer's 200 × 50 takes minutes).
const FULL_GRAPHS: usize = 128;
const EPOCHS: usize = 20;
const FULL_SECONDS: f64 = 20.0;
const TRAIN_FRACTION: f64 = 0.8;
/// Passes over the held-out set, ten per slice; the first starts cold.
/// (Fifteen all-cold passes were tried first: the 62 big-graph embeds per
/// pass made throughput spread 18–20 % over ten seeds.)
const EVAL_PASSES: usize = 10 * SLICES;

/// Accuracy gates at full size: the held-out error stays under 8 % and
/// at least the paper's 9.8× better than Ernest.
const MAX_REL_ERR: f64 = 0.08;
const MIN_ERNEST_RATIO: f64 = 9.8;

fn trainer(seconds: f64) -> OfflineTrainer {
    // `--seconds` scales the meta-training set; the gates hold at full size.
    let num_graphs = ((FULL_GRAPHS as f64 * seconds / FULL_SECONDS).round() as usize).max(8);
    OfflineTrainer {
        ghn_train: TrainConfig {
            num_graphs,
            epochs: EPOCHS,
            ..TrainConfig::default()
        },
        ..OfflineTrainer::default()
    }
}

fn split(seed: u64) -> (Vec<TraceRecord>, Vec<TraceRecord>) {
    let records = generate_trace(&TraceConfig::default());
    let (train, test) = train_test_split(records.len(), TRAIN_FRACTION, seed);
    let pick = |idx: &[usize]| idx.iter().map(|&i| records[i].clone()).collect();
    (pick(&train), pick(&test))
}

/// The held-out records as a request sequence.
fn held_out_plan(test: &[TraceRecord]) -> Plan {
    let table: Vec<Item> = test
        .iter()
        .map(|r| Item {
            req: PredictionRequest::zoo(r.workload.clone(), r.cluster()),
            class: Class::Warm,
            truth_secs: r.time_secs,
            fingerprint: r.workload.build_graph().expect("zoo model").fingerprint(),
        })
        .collect();
    let n = table.len();
    Plan {
        table,
        order: (0..n as u32).collect(),
        observe: vec![false; n],
    }
}

fn accuracy(train: &[TraceRecord], plan: &Plan, served: &[Digest]) -> Accuracy {
    let pairs: Vec<(&Item, f64)> = plan
        .table
        .iter()
        .zip(served)
        .map(|(it, d)| (it, d.seconds()))
        .collect();
    Accuracy::score(train, &pairs)
}

fn gate(report: &mut Report, acc: &Accuracy, served: &[Digest], full_size: bool) {
    if served.iter().any(|d| !d.seconds().is_finite()) {
        report.violation("a held-out prediction is not finite".into());
    }
    if full_size && acc.ours > MAX_REL_ERR {
        report.violation(format!("mean_rel_err {} above {MAX_REL_ERR}", acc.ours));
    }
    if full_size && acc.ratio_vs_ernest() < MIN_ERNEST_RATIO {
        report.violation(format!(
            "err_ratio_vs_ernest {} below {MIN_ERNEST_RATIO}",
            acc.ratio_vs_ernest()
        ));
    }
}

/// The untraced run: every end-to-end metric.
pub fn run(seed: u64, seconds: f64) -> Report {
    let mut report = Report::default();
    let mut setups = Vec::new();
    let mut parts = None;
    for _ in 0..SETUP_REPEATS {
        let t0 = Instant::now();
        parts = Some(split(seed));
        setups.push(t0.elapsed().as_secs_f64());
    }
    let (train, test) = parts.expect("at least one set-up");
    let plan = held_out_plan(&test);
    println!(
        "# train={} held_out={} sequence_hash={:016x}",
        train.len(),
        test.len(),
        plan.sequence_hash()
    );

    let t0 = Instant::now();
    let system = trainer(seconds).train_from_records(&train);
    report.set("train_s", t0.elapsed().as_secs_f64());

    let mut latencies = Vec::with_capacity(EVAL_PASSES * plan.order.len());
    let mut pass_rps = Vec::new();
    let mut first: Vec<Digest> = Vec::new();
    // A freshly trained system's cache is empty: pass 0 is the cold one.
    for pass in 0..EVAL_PASSES {
        let mut served = Vec::with_capacity(plan.order.len());
        let t0 = Instant::now();
        for item in &plan.table {
            let t = Instant::now();
            let p = system
                .predict(&item.req)
                .expect("held-out requests succeed");
            latencies.push(t.elapsed().as_nanos() as f64 / 1e3);
            served.push(Digest::of(&p));
        }
        pass_rps.push(plan.table.len() as f64 / t0.elapsed().as_secs_f64());
        if pass == 0 {
            first = served;
        } else if served != first {
            report.violation(format!(
                "pass {pass} answers differently from the cold pass"
            ));
        }
    }
    report.attempted = latencies.len() as u64;
    let acc = accuracy(&train, &plan, &first);
    gate(&mut report, &acc, &first, seconds >= FULL_SECONDS);

    let p50 = slice_median(&latencies, |s| crate::stats::percentile(s, 0.5))
        .expect("held-out set is not empty");
    report.set_n("latency_p50_us", p50, latencies.len());
    report.set_n("throughput_rps", median(&pass_rps), latencies.len());
    report.set_n("mean_rel_err", acc.ours, plan.table.len());
    report.set("err_ratio_vs_ernest", acc.ratio_vs_ernest());
    report.set_n("setup_s", median(&setups), SETUP_REPEATS);
    report.set("peak_rss_mb", peak_rss_mb());
    report
}

/// Wall of one pooled Ernest fit over a dataset's training records, ms.
fn ernest_fit_ms(train: &[TraceRecord]) -> f64 {
    let samples: Vec<ErnestSample> = train
        .iter()
        .filter(|r| r.workload.dataset == train[0].workload.dataset)
        .map(|r| ErnestSample {
            scale: 1.0,
            machines: r.num_servers,
            time_secs: r.time_secs,
        })
        .collect();
    let t0 = Instant::now();
    std::hint::black_box(ErnestModel::fit(&samples));
    t0.elapsed().as_secs_f64() * 1e3
}

/// Wall of one optimiser step over a fixed 8-graph batch, ms.
fn train_step_ms() -> f64 {
    const STEPS: usize = 10;
    let cfg = GhnConfig::default();
    let mut ghn = Ghn::new(cfg, &mut Rng::new(1));
    let graphs = SynthGenerator::new(pddl_zoo::CIFAR10.clone(), 1).sample_many(8);
    let trainer = GhnTrainer::new(TrainConfig {
        epochs: STEPS,
        batch_size: 8,
        ..TrainConfig::default()
    });
    let t0 = Instant::now();
    trainer.train_on(&mut ghn, &graphs);
    t0.elapsed().as_secs_f64() * 1e3 / STEPS as f64
}

/// Two datasets meta-trained one after the other against the trainer's
/// fan-out over the work pool, at a quarter of the size: serial wall over
/// twice the parallel wall (1.0 = both cores fully used).
fn train_parallel_efficiency(train: &[TraceRecord]) -> f64 {
    let small = TrainConfig {
        num_graphs: FULL_GRAPHS / 4,
        epochs: EPOCHS / 4,
        ..TrainConfig::default()
    };
    let t = OfflineTrainer {
        ghn_train: small,
        ..OfflineTrainer::default()
    };
    let t0 = Instant::now();
    for (ds, _) in crate::workload::DATASETS {
        GhnRegistry::train_one(t.ghn_config, small, t.seed, ds.name).expect("known dataset");
    }
    let serial = t0.elapsed().as_secs_f64();
    let parallel = t.train_from_records(train).train_cost.ghn_secs;
    serial / (2.0 * parallel)
}

/// The traced run: every per-layer metric this workload enters.
pub fn run_layers(seed: u64, seconds: f64, out_dir: &Path) -> Report {
    let mut report = Report::default();
    let t0 = Instant::now();
    let records = generate_trace(&TraceConfig::default());
    report.set_n(
        "ddlsim.trace_records_per_s",
        records.len() as f64 / t0.elapsed().as_secs_f64(),
        records.len(),
    );
    let (train, test) = split(seed);
    let plan = held_out_plan(&test);
    println!(
        "# train={} held_out={} sequence_hash={:016x}",
        train.len(),
        test.len(),
        plan.sequence_hash()
    );

    let tr = trainer(seconds);
    let system = tr.train_from_records(&train);
    let steps = 2 * tr.ghn_train.epochs * tr.ghn_train.num_graphs.div_ceil(tr.ghn_train.batch_size);
    report.set("ghn.train_s", system.train_cost.ghn_secs);
    report.set_n(
        "ghn.train_steps_per_s",
        steps as f64 / system.train_cost.ghn_secs,
        steps,
    );
    report.set("inference.fit_s", system.train_cost.fit_secs);
    report.set("autodiff.train_step_ms", train_step_ms());
    report.set(
        "par.train_parallel_efficiency",
        train_parallel_efficiency(&train),
    );
    report.set("ernest.fit_ms", ernest_fit_ms(&train));

    // One cold-cache pass over the held-out set, served and stepwise.
    let mut rec = Recorder::default();
    let cache = EmbeddingCache::default();
    let summary = replay(
        &system,
        &cache,
        &plan,
        0..plan.order.len(),
        &mut rec,
        &mut report,
    );
    let served: Vec<Digest> = plan
        .table
        .iter()
        .map(|it| Digest::of(&system.predict(&it.req).expect("held-out requests succeed")))
        .collect();
    let acc = accuracy(&train, &plan, &served);
    gate(&mut report, &acc, &served, seconds >= FULL_SECONDS);
    report.set_n("ernest.mean_rel_err", acc.ernest, plan.table.len());
    report.attempted = 3 * plan.order.len() as u64;

    write_trace(&rec, out_dir, "offline_train", seed, &summary);
    report
}
