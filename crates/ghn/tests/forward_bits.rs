//! The GHN forward and its training gradients pinned by their bits: every
//! inference embedding, every traced decoder loss and every parameter
//! gradient of a fixed set of graphs, once per kernel backend.
//! `fixtures/forward_bits.txt` holds the scalar kernels' bits, the same on
//! every platform; `fixtures/forward_bits_avx2_fma.txt` holds the AVX2+FMA
//! bits that production and the benchmark train with, and is checked only
//! where that backend is the native one. The native pin adds
//! `GhnConfig::tiny()`, whose widths 8 and 12 leave no full SIMD block
//! beside the remainder, to the default config's (whose decoder ends in a
//! `TARGET_DIM`-wide layer), and the weights after a few whole-batch
//! optimiser steps under both. A change to the forward or the backward that
//! is meant to move no bits must leave both fixtures as they are. Own
//! process: the scalar override is process-wide, and the two tests take
//! turns holding it. On an intentional change, regenerate with
//! `PDDL_REGEN_GOLDEN=1 cargo test --release -p pddl-ghn --test forward_bits`
//! (on an AVX2+FMA host, so both are written) and review the fixture diff
//! like any other code change.

use pddl_autodiff::Tape;
use pddl_ghn::model::{decoder_targets, TARGET_DIM};
use pddl_ghn::train::TrainConfig;
use pddl_ghn::{Ghn, GhnConfig, GhnTrainer, Schedule, SynthGenerator};
use pddl_telemetry::hash::Fnv1a;
use pddl_tensor::{KernelBackend, Matrix, Rng};
use pddl_zoo::CIFAR10;
use std::fmt::Write;
use std::path::PathBuf;
use std::sync::Mutex;

/// Held while a test computes its bits: the backend override is global.
static BACKEND: Mutex<()> = Mutex::new(());

/// One line per embedding, loss and gradient of `g` under `ghn`.
fn pin(out: &mut String, ghn: &Ghn, g: &pddl_graph::CompGraph) {
    let enc = &ghn.encoder;
    let (t, d) = (enc.cfg.t_passes, enc.cfg.hidden_dim);
    // The default config's lines keep the prefix they were pinned with.
    let tag = if d == GhnConfig::default().hidden_dim { format!("t{t}") } else { format!("d{d} t{t}") };
    let sched = Schedule::new(g, enc.cfg.s_max);
    let emb = enc.embed_with_schedule(g, &sched);
    let words: Vec<String> = emb.iter().map(|x| format!("{:08x}", x.to_bits())).collect();
    writeln!(out, "{tag} {} embed {}", g.name, words.join(" ")).unwrap();

    let mut tape = Tape::new(&enc.ps);
    let emb = ghn.embed_traced(&mut tape, g, &sched);
    let pred = ghn.decode_traced(&mut tape, emb);
    let target = tape.constant(Matrix::from_vec(1, TARGET_DIM, decoder_targets(g)));
    let loss = tape.mse_loss(pred, target);
    writeln!(out, "{tag} {} loss {:08x}", g.name, tape.scalar(loss).to_bits()).unwrap();
    let grads = tape.backward(loss);
    for id in enc.ps.ids() {
        let mut h = Fnv1a::new();
        for x in grads.get(id).expect("every parameter is reached").as_slice() {
            h.bytes(&x.to_bits().to_le_bytes());
        }
        writeln!(out, "{tag} {} grad {} {:016x}", g.name, enc.ps.name(id), h.finish()).unwrap();
    }
}

/// The lines of every graph under each config, on the active backend.
fn live(configs: &[GhnConfig]) -> String {
    let mut graphs: Vec<_> = ["alexnet", "resnet18", "densenet121", "googlenet"]
        .iter()
        .map(|name| pddl_zoo::build_model(name, &CIFAR10).expect("zoo model"))
        .collect();
    graphs.extend(SynthGenerator::new(CIFAR10, 26).sample_many(8));
    let mut out = String::new();
    for &cfg in configs {
        let ghn = Ghn::new(cfg, &mut Rng::new(26));
        for g in &graphs {
            pin(&mut out, &ghn, g);
        }
    }
    out
}

/// One line per parameter after a few optimiser steps on whole batches:
/// several graphs on one tape, their losses averaged, the clip and Adam.
fn trained(out: &mut String, cfg: GhnConfig) {
    let mut ghn = Ghn::new(cfg, &mut Rng::new(27));
    let graphs = SynthGenerator::new(CIFAR10, 27).sample_many(8);
    let train = TrainConfig { epochs: 2, batch_size: 4, ..TrainConfig::default() };
    GhnTrainer::new(train).train_on(&mut ghn, &graphs);
    let ps = &ghn.encoder.ps;
    for id in ps.ids() {
        let mut h = Fnv1a::new();
        ps.get(id).as_slice().iter().for_each(|x| h.bytes(&x.to_bits().to_le_bytes()));
        writeln!(out, "d{} trained {} {:016x}", cfg.hidden_dim, ps.name(id), h.finish()).unwrap();
    }
}

/// `GhnConfig::default()` and, with `tiny`, `GhnConfig::tiny()`, each at
/// `t_passes` 1 and 2.
fn configs(tiny: bool) -> Vec<GhnConfig> {
    let bases = if tiny { vec![GhnConfig::default(), GhnConfig::tiny()] } else { vec![GhnConfig::default()] };
    bases.into_iter().flat_map(|base| [1, 2].map(|t_passes| GhnConfig { t_passes, ..base })).collect()
}

/// Compares `live` with the fixture `name`, or writes it under
/// `PDDL_REGEN_GOLDEN=1`.
fn check(name: &str, live: &str) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(name);
    if std::env::var("PDDL_REGEN_GOLDEN").is_ok_and(|v| v == "1") {
        std::fs::create_dir_all(path.parent().expect("fixture dir")).unwrap();
        std::fs::write(&path, live).unwrap();
        eprintln!("{name} regenerated — commit the fixture diff");
        return;
    }
    let stored = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("missing fixture {} ({e}); regenerate with PDDL_REGEN_GOLDEN=1", path.display())
    });
    for (i, (want, got)) in stored.lines().zip(live.lines()).enumerate() {
        assert_eq!(got, want, "{name} line {} drifted", i + 1);
    }
    assert_eq!(stored.lines().count(), live.lines().count(), "{name} line count");
}

#[test]
fn embeddings_losses_and_gradients_keep_their_bits() {
    let _lock = BACKEND.lock().unwrap_or_else(|e| e.into_inner());
    pddl_tensor::backend(); // runs detection, so the override read next is the real one
    let prior = pddl_tensor::kernels::force_scalar();
    pddl_tensor::set_force_scalar(true);
    let live = live(&configs(false));
    pddl_tensor::set_force_scalar(prior);
    check("forward_bits.txt", &live);
}

#[test]
fn native_kernels_keep_their_training_bits() {
    let _lock = BACKEND.lock().unwrap_or_else(|e| e.into_inner());
    match pddl_tensor::backend() {
        KernelBackend::Avx2Fma => {
            let mut live = live(&configs(true));
            [GhnConfig::default(), GhnConfig::tiny()].into_iter().for_each(|cfg| trained(&mut live, cfg));
            check("forward_bits_avx2_fma.txt", &live);
        }
        // Pinned, the same on every platform, by the test above.
        KernelBackend::Scalar => eprintln!("native backend is scalar: no AVX2+FMA bits to check"),
    }
}
