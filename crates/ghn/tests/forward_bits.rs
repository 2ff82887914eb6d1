//! The GHN forward pinned by its bits: every inference embedding, every
//! traced decoder loss and every parameter gradient of a fixed set of
//! graphs, under the scalar kernels so the bits are the same on every
//! platform. A change to the forward that is meant to move no bits must
//! leave `fixtures/forward_bits.txt` as it is. Own process: the scalar
//! override is process-wide. On an intentional change, regenerate with
//! `PDDL_REGEN_GOLDEN=1 cargo test -p pddl-ghn --test forward_bits`
//! and review the fixture diff like any other code change.

use pddl_autodiff::Tape;
use pddl_ghn::model::{decoder_targets, TARGET_DIM};
use pddl_ghn::{Ghn, GhnConfig, Schedule, SynthGenerator};
use pddl_telemetry::hash::Fnv1a;
use pddl_tensor::{Matrix, Rng};
use pddl_zoo::CIFAR10;
use std::fmt::Write;
use std::path::PathBuf;

fn fixture() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/forward_bits.txt")
}

/// One line per embedding, loss and gradient of `g` under `ghn`.
fn pin(out: &mut String, ghn: &Ghn, g: &pddl_graph::CompGraph) {
    let enc = &ghn.encoder;
    let t = enc.cfg.t_passes;
    let sched = Schedule::new(g, enc.cfg.s_max);
    let emb = enc.embed_with_schedule(g, &sched);
    let words: Vec<String> = emb.iter().map(|x| format!("{:08x}", x.to_bits())).collect();
    writeln!(out, "t{t} {} embed {}", g.name, words.join(" ")).unwrap();

    let mut tape = Tape::new(&enc.ps);
    let emb = ghn.embed_traced(&mut tape, g, &sched);
    let pred = ghn.decode_traced(&mut tape, emb);
    let target = tape.constant(Matrix::from_vec(1, TARGET_DIM, decoder_targets(g)));
    let loss = tape.mse_loss(pred, target);
    writeln!(out, "t{t} {} loss {:08x}", g.name, tape.scalar(loss).to_bits()).unwrap();
    let grads = tape.backward(loss);
    for id in enc.ps.ids() {
        let mut h = Fnv1a::new();
        for x in grads.get(id).expect("every parameter is reached").as_slice() {
            h.bytes(&x.to_bits().to_le_bytes());
        }
        writeln!(out, "t{t} {} grad {} {:016x}", g.name, enc.ps.name(id), h.finish()).unwrap();
    }
}

#[test]
fn embeddings_losses_and_gradients_keep_their_bits() {
    pddl_tensor::set_force_scalar(true);
    let mut graphs: Vec<_> = ["alexnet", "resnet18", "densenet121", "googlenet"]
        .iter()
        .map(|name| pddl_zoo::build_model(name, &CIFAR10).expect("zoo model"))
        .collect();
    graphs.extend(SynthGenerator::new(CIFAR10, 26).sample_many(8));

    let mut live = String::new();
    for t_passes in [1, 2] {
        let cfg = GhnConfig { t_passes, ..GhnConfig::default() };
        let ghn = Ghn::new(cfg, &mut Rng::new(26));
        for g in &graphs {
            pin(&mut live, &ghn, g);
        }
    }

    let path = fixture();
    if std::env::var("PDDL_REGEN_GOLDEN").is_ok_and(|v| v == "1") {
        std::fs::create_dir_all(path.parent().expect("fixture dir")).unwrap();
        std::fs::write(&path, &live).unwrap();
        eprintln!("forward_bits.txt regenerated — commit the fixture diff");
        return;
    }
    let stored = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("missing fixture {} ({e}); regenerate with PDDL_REGEN_GOLDEN=1", path.display())
    });
    for (i, (want, got)) in stored.lines().zip(live.lines()).enumerate() {
        assert_eq!(got, want, "forward_bits.txt line {} drifted", i + 1);
    }
    assert_eq!(stored.lines().count(), live.lines().count(), "forward_bits.txt line count");
}
