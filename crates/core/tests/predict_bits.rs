//! The served answer pinned by its bits: a tiny system trained on both
//! built-in datasets answers every zoo model and a few synthetic graphs on
//! each dataset over 1, 4 and 20 servers at batch 64 and 128, and every
//! answer's `seconds` bits and nearest architecture (name and similarity
//! bits) are pinned, under the scalar kernels so the bits are the same on
//! every platform. The tiny trace records three architectures per dataset,
//! so the same answers are pinned once more after every zoo model is
//! recorded in the atlas, as the full trace does. A change to the regression or the nearest-match scan
//! that is meant to move no bits must leave `fixtures/predict_bits.txt` as
//! it is. Own process: the scalar override is process-wide. On an
//! intentional change, regenerate with
//! `PDDL_REGEN_GOLDEN=1 cargo test -p predictddl --test predict_bits` and
//! review the fixture diff like any other code change.

use pddl_cluster::{ClusterState, ServerClass};
use pddl_ddlsim::Workload;
use pddl_ghn::SynthGenerator;
use pddl_zoo::dataset::dataset_by_name;
use pddl_zoo::{build_model, model_names};
use predictddl::{OfflineTrainer, PredictDdl, PredictionRequest};
use std::fmt::Write;
use std::path::PathBuf;

fn fixture() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/predict_bits.txt")
}

const DATASETS: [(&str, ServerClass); 2] =
    [("cifar10", ServerClass::GpuP100), ("tiny-imagenet", ServerClass::CpuE5_2630)];

/// One line per answer to `req`.
fn pin(out: &mut String, atlas: &str, system: &PredictDdl, req: &PredictionRequest) {
    let p = system.predict(req).expect("valid request");
    let (near, sim) = p.nearest_architecture.expect("the atlas is not empty");
    writeln!(
        out,
        "{atlas} {} {} n{} b{} seconds {:016x} nearest {near} {:08x}",
        req.dataset,
        req.model_name(),
        req.cluster.num_servers(),
        req.batch_size,
        p.seconds.to_bits(),
        sim.to_bits()
    )
    .unwrap();
}

#[test]
fn served_predictions_keep_their_bits() {
    pddl_tensor::set_force_scalar(true);
    let mut trainer = OfflineTrainer::tiny();
    trainer.trace.dataset_clusters =
        DATASETS.iter().map(|(ds, class)| (ds.to_string(), *class)).collect();
    let mut system = trainer.train_full();

    let mut live = String::new();
    for atlas in ["trace", "zoo"] {
        for (dataset, class) in DATASETS {
            let ds = dataset_by_name(dataset).expect("built-in dataset");
            if atlas == "zoo" {
                for name in model_names() {
                    let g = build_model(name, ds).expect("zoo model");
                    let v = system.registry.get(dataset).expect("trained").embed_graph(&g);
                    system.embeddings.record(dataset, &g.name, v);
                }
            }
            let synth = SynthGenerator::new(ds.clone(), 42).sample_many(4);
            for servers in [1, 4, 20] {
                let cluster = ClusterState::homogeneous(class, servers);
                for batch in [64, 128] {
                    for name in model_names() {
                        let w = Workload::new(name, dataset, batch, 2);
                        let req = PredictionRequest::zoo(w, cluster.clone());
                        pin(&mut live, atlas, &system, &req);
                    }
                    for g in &synth {
                        let req =
                            PredictionRequest::graph(g.clone(), dataset, batch, 2, cluster.clone());
                        pin(&mut live, atlas, &system, &req);
                    }
                }
            }
        }
    }

    let path = fixture();
    if std::env::var("PDDL_REGEN_GOLDEN").is_ok_and(|v| v == "1") {
        std::fs::create_dir_all(path.parent().expect("fixture dir")).unwrap();
        std::fs::write(&path, &live).unwrap();
        eprintln!("predict_bits.txt regenerated — commit the fixture diff");
        return;
    }
    let stored = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("missing fixture {} ({e}); regenerate with PDDL_REGEN_GOLDEN=1", path.display())
    });
    for (i, (want, got)) in stored.lines().zip(live.lines()).enumerate() {
        assert_eq!(got, want, "predict_bits.txt line {} drifted", i + 1);
    }
    assert_eq!(stored.lines().count(), live.lines().count(), "predict_bits.txt line count");
}
