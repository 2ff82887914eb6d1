//! Embedding atlas — reproduces the Fig. 5 intuition: GHN embeddings place
//! similar architectures close together under cosine similarity.
//!
//! Prints the nearest neighbors of each zoo family member and a compact
//! similarity matrix across families.
//!
//! ```sh
//! cargo run --release -p predictddl --example embedding_atlas
//! ```

use pddl_ghn::train::TrainConfig;
use pddl_ghn::{cosine_similarity, EmbeddingSet, Ghn, GhnConfig, GhnTrainer, SynthGenerator};
use pddl_tensor::Rng;
use pddl_zoo::{build_model, CIFAR10};

fn main() {
    println!("=== GHN embedding atlas (Fig. 5 mechanism) ===");
    println!("meta-training a GHN on synthetic DARTS-style architectures ...\n");
    let mut rng = Rng::new(11);
    let mut ghn = Ghn::new(GhnConfig::default(), &mut rng);
    let mut gen = SynthGenerator::new(CIFAR10, 31);
    let report = GhnTrainer::new(TrainConfig { num_graphs: 96, epochs: 25, ..Default::default() })
        .train(&mut ghn, &mut gen);
    println!(
        "meta-training loss: {:.4} -> {:.4} over {} epochs\n",
        report.initial_loss,
        report.final_loss,
        report.epoch_losses.len()
    );
    let ghn = ghn.into_encoder();

    let models = [
        "resnet18",
        "resnet34",
        "resnet50",
        "vgg11",
        "vgg16",
        "vgg19",
        "squeezenet1_0",
        "squeezenet1_1",
        "mobilenet_v2",
        "mobilenet_v3_small",
        "densenet121",
        "densenet169",
        "efficientnet_b0",
        "alexnet",
    ];
    let mut atlas = EmbeddingSet::new();
    let mut vecs = Vec::new();
    for m in models {
        let g = build_model(m, &CIFAR10).expect("zoo model");
        let e = ghn.embed_graph(&g);
        atlas.insert(m, e.clone());
        vecs.push(e);
    }

    println!("nearest neighbor of each architecture (excluding itself):");
    for (i, m) in models.iter().enumerate() {
        let mut best: Option<(&str, f32)> = None;
        for (j, other) in models.iter().enumerate() {
            if i == j {
                continue;
            }
            let s = cosine_similarity(&vecs[i], &vecs[j]);
            if best.is_none_or(|(_, bs)| s > bs) {
                best = Some((other, s));
            }
        }
        let (n, s) = best.unwrap();
        println!("  {m:<20} -> {n:<20} (cos {s:.3})");
    }

    println!("\nfamily-block similarity matrix (mean cosine within/between):");
    let families: [(&str, &[usize]); 4] = [
        ("resnet", &[0, 1, 2]),
        ("vgg", &[3, 4, 5]),
        ("squeezenet", &[6, 7]),
        ("mobilenet", &[8, 9]),
    ];
    print!("{:<12}", "");
    for (name, _) in &families {
        print!("{name:>12}");
    }
    println!();
    for (na, ia) in &families {
        print!("{na:<12}");
        for (_, ib) in &families {
            let mut s = 0.0f32;
            let mut cnt = 0;
            for &i in *ia {
                for &j in *ib {
                    if i != j {
                        s += cosine_similarity(&vecs[i], &vecs[j]);
                        cnt += 1;
                    }
                }
            }
            print!("{:>12.3}", s / cnt as f32);
        }
        println!();
    }
    println!("\nDiagonal (within-family) similarities should dominate the rows.");
}
