//! GHN meta-training on the synthetic architecture distribution.
//!
//! The Offline GHN Trainer of the paper (§III-G, Fig. 8) trains a GHN per
//! dataset. Our surrogate objective (see crate docs and DESIGN.md): the
//! decoder head must reconstruct normalized log-FLOPs, log-params, depth and
//! the op-kind histogram of each architecture from its pooled embedding —
//! forcing the *intermediate* representation PredictDDL consumes to encode
//! exactly the complexity signal the regressor needs.

use crate::model::{decoder_targets, Ghn, Schedule, TARGET_DIM};
use crate::synth::SynthGenerator;
use pddl_autodiff::{Adam, Tape};
use pddl_graph::CompGraph;
use pddl_tensor::{Matrix, Rng};

/// Meta-training hyperparameters.
#[derive(Clone, Copy, Debug)]
pub struct TrainConfig {
    /// Number of synthetic architectures in the meta-training set.
    pub num_graphs: usize,
    /// Passes over the meta-training set.
    pub epochs: usize,
    /// Graphs per gradient step.
    pub batch_size: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// Global-norm gradient clip (GHN-2 stabilization).
    pub clip_norm: f32,
    /// RNG seed for shuffling.
    pub seed: u64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self {
            num_graphs: 200,
            epochs: 50,
            batch_size: 8,
            lr: 3e-3,
            clip_norm: 5.0,
            seed: 0xDD1,
        }
    }
}

impl TrainConfig {
    /// Small config for fast unit tests.
    pub fn tiny() -> Self {
        Self { num_graphs: 16, epochs: 6, batch_size: 4, lr: 5e-3, clip_norm: 5.0, seed: 1 }
    }
}

/// Outcome of a meta-training run.
#[derive(Clone, Debug)]
pub struct TrainReport {
    /// Mean decoder MSE on the first epoch.
    pub initial_loss: f32,
    /// Mean decoder MSE on the last epoch.
    pub final_loss: f32,
    /// Per-epoch mean losses.
    pub epoch_losses: Vec<f32>,
    /// Number of architectures trained over.
    pub num_graphs: usize,
}

/// Trains a GHN on architectures drawn from a [`SynthGenerator`].
pub struct GhnTrainer {
    pub cfg: TrainConfig,
}

impl GhnTrainer {
    pub fn new(cfg: TrainConfig) -> Self {
        Self { cfg }
    }

    /// Meta-trains `ghn` in place; the generator determines the dataset
    /// conditioning. Returns per-epoch losses.
    pub fn train(&self, ghn: &mut Ghn, gen: &mut SynthGenerator) -> TrainReport {
        let graphs = gen.sample_many(self.cfg.num_graphs);
        self.train_on(ghn, &graphs)
    }

    /// Meta-trains on an explicit graph set (used by tests and ablations).
    pub fn train_on(&self, ghn: &mut Ghn, graphs: &[CompGraph]) -> TrainReport {
        assert!(!graphs.is_empty(), "empty meta-training set");
        let schedules: Vec<Schedule> =
            graphs.iter().map(|g| Schedule::new(g, ghn.encoder.cfg.s_max)).collect();
        let targets: Vec<Vec<f32>> = graphs.iter().map(decoder_targets).collect();

        let mut order: Vec<usize> = (0..graphs.len()).collect();
        let mut rng = Rng::new(self.cfg.seed);
        let mut opt = Adam::new(self.cfg.lr);
        let mut epoch_losses = Vec::with_capacity(self.cfg.epochs);

        for _epoch in 0..self.cfg.epochs {
            rng.shuffle(&mut order);
            let mut epoch_loss = 0.0f64;
            let mut steps = 0usize;
            for batch in order.chunks(self.cfg.batch_size) {
                let (loss_value, mut grads) = {
                    let mut tape = Tape::new(&ghn.encoder.ps);
                    let mut losses = Vec::with_capacity(batch.len());
                    for &gi in batch {
                        let emb = ghn.embed_traced(&mut tape, &graphs[gi], &schedules[gi]);
                        let pred = ghn.decode_traced(&mut tape, emb);
                        let target = tape.constant(Matrix::from_vec(
                            1,
                            TARGET_DIM,
                            targets[gi].clone(),
                        ));
                        losses.push(tape.mse_loss(pred, target));
                    }
                    let stacked = tape.concat_cols(&losses);
                    let loss = tape.mean(stacked);
                    let value = tape.scalar(loss);
                    (value, tape.backward(loss))
                };
                grads.clip_global_norm(self.cfg.clip_norm);
                opt.step(&mut ghn.encoder.ps, &grads);
                epoch_loss += loss_value as f64;
                steps += 1;
            }
            epoch_losses.push((epoch_loss / steps.max(1) as f64) as f32);
        }

        TrainReport {
            initial_loss: epoch_losses[0],
            final_loss: *epoch_losses.last().unwrap(),
            epoch_losses,
            num_graphs: graphs.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GhnConfig;
    use crate::embed::cosine_similarity;
    use pddl_zoo::dataset::CIFAR10;

    /// Decoder MSE of a trained GHN on held-out graphs.
    fn heldout_mse(ghn: &Ghn, graphs: &[CompGraph]) -> f32 {
        let mut total = 0.0f64;
        for g in graphs {
            let pred = ghn.decode_fast(&ghn.encoder.embed_graph(g));
            let target = decoder_targets(g);
            let sq: f64 = pred.iter().zip(&target).map(|(p, t)| ((p - t) as f64).powi(2)).sum();
            total += sq / TARGET_DIM as f64;
        }
        (total / graphs.len() as f64) as f32
    }

    #[test]
    fn training_reduces_loss() {
        let mut rng = Rng::new(3);
        let mut ghn = Ghn::new(GhnConfig::tiny(), &mut rng);
        let mut gen = SynthGenerator::new(CIFAR10, 5);
        let trainer = GhnTrainer::new(TrainConfig::tiny());
        let report = trainer.train(&mut ghn, &mut gen);
        assert!(
            report.final_loss < report.initial_loss,
            "loss did not decrease: {:?}",
            report.epoch_losses
        );
    }

    #[test]
    fn clipped_training_is_reproducible() {
        // A clip that fires on every step: the bits of the global norm
        // reach every weight, so its summation order must not vary.
        let run = || {
            let mut ghn = Ghn::new(GhnConfig::tiny(), &mut Rng::new(3));
            let mut gen = SynthGenerator::new(CIFAR10, 5);
            let cfg = TrainConfig { clip_norm: 0.01, ..TrainConfig::tiny() };
            GhnTrainer::new(cfg).train(&mut ghn, &mut gen);
            let ps = &ghn.encoder.ps;
            ps.ids()
                .flat_map(|id| ps.get(id).as_slice().iter().map(|x| x.to_bits()))
                .collect::<Vec<u32>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn trained_ghn_generalizes_to_heldout() {
        let mut rng = Rng::new(4);
        let mut ghn = Ghn::new(GhnConfig::tiny(), &mut rng);
        let mut gen = SynthGenerator::new(CIFAR10, 6);
        let mut cfg = TrainConfig::tiny();
        cfg.num_graphs = 32;
        cfg.epochs = 12;
        let trainer = GhnTrainer::new(cfg);
        let report = trainer.train(&mut ghn, &mut gen);
        let heldout = gen.sample_many(8);
        let test_mse = heldout_mse(&ghn, &heldout);
        // Held-out error should be in the same ballpark as training error,
        // not catastrophically larger.
        assert!(
            test_mse < report.initial_loss,
            "test {test_mse} vs initial {}",
            report.initial_loss
        );
    }

    #[test]
    fn embeddings_cluster_by_scale_after_training() {
        // Two big VGG-ish chains should be more similar to each other than
        // to a tiny two-layer net, in cosine distance, after training.
        use pddl_zoo::builder::{Act, NetBuilder};
        let build_chain = |name: &str, width: usize, depth: usize| {
            let mut b = NetBuilder::new(name, 3, 32);
            for i in 0..depth {
                b.conv_bn_act(width, 3, 1, Act::Relu, &format!("c{i}"));
            }
            b.classifier(10);
            b.finish()
        };
        let big_a = build_chain("big_a", 128, 8);
        let big_b = build_chain("big_b", 160, 7);
        let tiny = build_chain("tiny", 8, 1);

        let mut rng = Rng::new(5);
        let mut ghn = Ghn::new(GhnConfig::tiny(), &mut rng);
        let mut gen = SynthGenerator::new(CIFAR10, 8);
        let mut cfg = TrainConfig::tiny();
        cfg.num_graphs = 48;
        cfg.epochs = 15;
        GhnTrainer::new(cfg).train(&mut ghn, &mut gen);

        let ghn = ghn.into_encoder();
        let ea = ghn.embed_graph(&big_a);
        let eb = ghn.embed_graph(&big_b);
        let et = ghn.embed_graph(&tiny);
        let sim_big = cosine_similarity(&ea, &eb);
        let sim_cross = cosine_similarity(&ea, &et);
        assert!(
            sim_big > sim_cross,
            "similar architectures not closer: big-big {sim_big} vs big-tiny {sim_cross}"
        );
    }
}
