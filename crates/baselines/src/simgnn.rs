//! SimGNN [Bai et al. 2019] and a GPN-style variant.
//!
//! SimGNN is the original GNN regressor for GED: node embeddings are pooled
//! into graph embeddings by attention, an NTN computes a pair interaction
//! vector, and an MLP regresses the normalized GED with an MSE loss. No
//! node matching is produced, so SimGNN cannot generate edit paths
//! (consistent with Tables 3/4 of the paper). The original's histogram of
//! pairwise node similarities is omitted, so the regressor sees a pair
//! only through the NTN over its pooled graph embeddings.
//!
//! The paper's "GPN" baseline is the graph path network of Noah used
//! standalone for GED regression; its architectural details are not given,
//! so we substitute a GCN-convolution variant of the same regressor
//! ([`SimgnnVariant::Gpn`]) — a second, independently-trained graph-level
//! regressor with a different convolution flavor.

use crate::encoder::{Encoder, EncoderConfig};
use ged_core::pairs::{ordered, GedPair};
use ged_graph::{max_edit_ops, Graph};
use ged_nn::layers::{Activation, AttentionPool, Mlp, Ntn};
use ged_nn::loss::mse_scalar;
use ged_nn::params::{Bindings, ParamStore};
use ged_nn::tape::{Tape, Var};
use ged_nn::Adam;
use rand::seq::SliceRandom;
use rand::Rng;

/// Which graph-level regressor to build.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SimgnnVariant {
    /// GIN convolutions (SimGNN).
    SimGnn,
    /// GCN convolutions (our GPN stand-in).
    Gpn,
}

/// Hyperparameters.
#[derive(Clone, Debug)]
pub struct SimgnnConfig {
    /// Encoder settings.
    pub encoder: EncoderConfig,
    /// NTN output dimension.
    pub ntn_dim: usize,
    /// Adam learning rate.
    pub learning_rate: f64,
    /// Adam weight decay.
    pub weight_decay: f64,
    /// Minibatch size.
    pub batch_size: usize,
}

impl SimgnnConfig {
    /// CPU-friendly defaults.
    #[must_use]
    pub fn small(num_labels: usize, variant: SimgnnVariant) -> Self {
        SimgnnConfig {
            encoder: EncoderConfig {
                use_gcn: variant == SimgnnVariant::Gpn,
                ..EncoderConfig::small(num_labels)
            },
            ntn_dim: 8,
            learning_rate: 1e-3,
            weight_decay: 5e-4,
            batch_size: 32,
        }
    }
}

/// The SimGNN/GPN graph-level GED regressor.
pub struct Simgnn {
    config: SimgnnConfig,
    store: ParamStore,
    encoder: Encoder,
    pool: AttentionPool,
    ntn: Ntn,
    head: Mlp,
    adam: Adam,
}

impl Simgnn {
    /// Builds a fresh model.
    pub fn new<R: Rng>(config: SimgnnConfig, rng: &mut R) -> Self {
        let mut store = ParamStore::new();
        let encoder = Encoder::new(&mut store, "enc", config.encoder.clone(), rng);
        let d = encoder.out_dim();
        let pool = AttentionPool::new(&mut store, "pool", d, rng);
        let ntn = Ntn::new(&mut store, "ntn", d, config.ntn_dim, rng);
        let head = Mlp::new(
            &mut store,
            "head",
            &[config.ntn_dim, 8, 4, 1],
            Activation::Relu,
            Activation::None,
            rng,
        );
        let adam = Adam::new(config.learning_rate, config.weight_decay);
        Simgnn {
            config,
            store,
            encoder,
            pool,
            ntn,
            head,
            adam,
        }
    }

    fn score(&self, tape: &Tape, binds: &Bindings<'_>, g1: &Graph, g2: &Graph) -> Var {
        let h1 = self.encoder.embed(tape, binds, g1);
        let h2 = self.encoder.embed(tape, binds, g2);
        let e1 = self.pool.forward(tape, binds, h1);
        let e2 = self.pool.forward(tape, binds, h2);
        let s = self.ntn.forward(tape, binds, e1, e2);
        let raw = self.head.forward(tape, binds, s);
        tape.sigmoid(raw)
    }

    /// Trains one epoch; returns the mean MSE loss.
    pub fn train_epoch<R: Rng>(&mut self, pairs: &[GedPair], rng: &mut R) -> f64 {
        let mut order: Vec<usize> = (0..pairs.len()).collect();
        order.shuffle(rng);
        let mut total = 0.0;
        for batch in order.chunks(self.config.batch_size.max(1)) {
            let mut acc: Option<Vec<ged_linalg::Matrix>> = None;
            for &i in batch {
                let pair = &pairs[i];
                let tape = Tape::new();
                let binds = self.store.bind(&tape);
                let score = self.score(&tape, &binds, &pair.g1, &pair.g2);
                let target = pair.normalized_ged().expect("supervised pair");
                let loss = mse_scalar(&tape, score, target);
                total += tape.scalar_value(loss);
                tape.backward(loss);
                let grads = self.store.gradients(&tape, &binds);
                match &mut acc {
                    Some(a) => {
                        for (x, g) in a.iter_mut().zip(&grads) {
                            x.add_scaled_assign(g, 1.0);
                        }
                    }
                    None => acc = Some(grads),
                }
            }
            if let Some(mut a) = acc {
                let s = 1.0 / batch.len() as f64;
                for g in &mut a {
                    *g = g.scale(s);
                }
                self.adam.step(&mut self.store, &a);
            }
        }
        total / pairs.len().max(1) as f64
    }

    /// Trains for several epochs.
    pub fn train<R: Rng>(&mut self, pairs: &[GedPair], epochs: usize, rng: &mut R) -> Vec<f64> {
        (0..epochs).map(|_| self.train_epoch(pairs, rng)).collect()
    }

    /// Predicts the (denormalized) GED of a pair.
    #[must_use]
    pub fn predict(&self, g1: &Graph, g2: &Graph) -> f64 {
        let (a, b, _) = ordered(g1, g2);
        let tape = Tape::new();
        let binds = self.store.bind(&tape);
        let score = self.score(&tape, &binds, a, b);
        tape.scalar_value(score) * max_edit_ops(a, b) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ged_graph::generate;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn pairs(rng: &mut SmallRng, n: usize) -> Vec<GedPair> {
        (0..n)
            .map(|i| {
                let g = generate::random_connected(5, 1, &[0.5, 0.5], rng);
                let p = generate::perturb_with_edits(&g, 1 + i % 4, 2, rng);
                GedPair::supervised(g, p.graph, p.applied as f64, p.mapping)
            })
            .collect()
    }

    #[test]
    fn training_reduces_loss_both_variants() {
        let mut rng = SmallRng::seed_from_u64(91);
        let data = pairs(&mut rng, 20);
        for variant in [SimgnnVariant::SimGnn, SimgnnVariant::Gpn] {
            let mut cfg = SimgnnConfig::small(2, variant);
            cfg.learning_rate = 5e-3;
            let mut model = Simgnn::new(cfg, &mut rng);
            let losses = model.train(&data, 6, &mut rng);
            assert!(
                losses.last().unwrap() < losses.first().unwrap(),
                "{variant:?}: {losses:?}"
            );
        }
    }

    #[test]
    fn prediction_is_order_insensitive_and_bounded() {
        let mut rng = SmallRng::seed_from_u64(92);
        let model = Simgnn::new(SimgnnConfig::small(2, SimgnnVariant::SimGnn), &mut rng);
        let g1 = generate::random_connected(4, 1, &[0.5, 0.5], &mut rng);
        let g2 = generate::random_connected(7, 2, &[0.5, 0.5], &mut rng);
        let a = model.predict(&g1, &g2);
        let b = model.predict(&g2, &g1);
        assert!((a - b).abs() < 1e-12);
        assert!(a >= 0.0 && a <= ged_graph::max_edit_ops(&g1, &g2) as f64);
    }
}
