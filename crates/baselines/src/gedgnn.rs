//! GEDGNN [Piao et al. 2023] — the state-of-the-art comparator.
//!
//! GEDGNN computes pairwise vertex scores exactly like GEDIOT, but fits the
//! matching matrix `Â = σ(H1 Wm H2ᵀ)` *directly* to the 0/1 ground-truth
//! node matching with BCE — no optimal transport, no global constraints
//! (the bottom branch of Figure 2(b) in the paper). A second bilinear
//! matrix produces the cost scores `Ĉ = tanh(H1 Wc H2ᵀ)`; the value head
//! combines `⟨Ĉ, Â⟩` with an NTN graph-level score. Edit paths come from
//! the same k-best matching framework, fed with `Â`.
//!
//! Implementing it this way makes the GEDIOT-vs-GEDGNN comparison an exact
//! ablation of the learnable-Sinkhorn layer, which is the paper's central
//! claim.

use crate::encoder::{Encoder, EncoderConfig};
use ged_core::kbest::{kbest_edit_path, KBestResult};
use ged_core::pairs::{ordered, GedPair};
use ged_graph::{max_edit_ops, Graph};
use ged_linalg::Matrix;
use ged_nn::layers::{Activation, AttentionPool, Mlp, Ntn};
use ged_nn::loss::{bce_matrix, mse_scalar};
use ged_nn::params::{Bindings, ParamId, ParamStore};
use ged_nn::tape::{Tape, Var};
use ged_nn::Adam;
use rand::seq::SliceRandom;
use rand::Rng;

/// Hyperparameters.
#[derive(Clone, Debug)]
pub struct GedgnnConfig {
    /// Encoder settings.
    pub encoder: EncoderConfig,
    /// NTN output dimension.
    pub ntn_dim: usize,
    /// Loss balance between value and matching losses (as in GEDIOT).
    pub lambda: f64,
    /// Adam learning rate.
    pub learning_rate: f64,
    /// Adam weight decay.
    pub weight_decay: f64,
    /// Minibatch size.
    pub batch_size: usize,
}

impl GedgnnConfig {
    /// CPU-friendly defaults.
    #[must_use]
    pub fn small(num_labels: usize) -> Self {
        GedgnnConfig {
            encoder: EncoderConfig::small(num_labels),
            ntn_dim: 8,
            lambda: 0.8,
            learning_rate: 1e-3,
            weight_decay: 5e-4,
            batch_size: 32,
        }
    }
}

/// A GEDGNN prediction.
#[derive(Clone, Debug)]
pub struct GedgnnPrediction {
    /// Denormalized GED estimate.
    pub ged: f64,
    /// Normalized score.
    pub nged: f64,
    /// The directly-fitted matching matrix (`n1 x n2`, ordered orientation).
    pub matching: Matrix,
    /// Whether the inputs were swapped.
    pub swapped: bool,
}

/// The GEDGNN model.
pub struct Gedgnn {
    config: GedgnnConfig,
    store: ParamStore,
    encoder: Encoder,
    cost_w: ParamId,
    match_w: ParamId,
    pool: AttentionPool,
    ntn: Ntn,
    head: Mlp,
    adam: Adam,
}

impl Gedgnn {
    /// Builds a fresh model.
    pub fn new<R: Rng>(config: GedgnnConfig, rng: &mut R) -> Self {
        let mut store = ParamStore::new();
        let encoder = Encoder::new(&mut store, "enc", config.encoder.clone(), rng);
        let d = encoder.out_dim();
        let cost_w = store.register("cost_w", ged_nn::init::xavier_uniform(d, d, rng));
        let match_w = store.register("match_w", ged_nn::init::xavier_uniform(d, d, rng));
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
        Gedgnn {
            config,
            store,
            encoder,
            cost_w,
            match_w,
            pool,
            ntn,
            head,
            adam,
        }
    }

    /// Returns `(matching Â, score)`.
    fn forward(&self, tape: &Tape, binds: &Bindings<'_>, g1: &Graph, g2: &Graph) -> (Var, Var) {
        let h1 = self.encoder.embed(tape, binds, g1);
        let h2 = self.encoder.embed(tape, binds, g2);
        let h2t = tape.transpose(h2);

        let cw = tape.matmul(h1, binds.var(self.cost_w));
        let cost = tape.tanh(tape.matmul(cw, h2t));
        let mw = tape.matmul(h1, binds.var(self.match_w));
        let matching = tape.sigmoid(tape.matmul(mw, h2t));

        let w1 = tape.dot(cost, matching);
        let e1 = self.pool.forward(tape, binds, h1);
        let e2 = self.pool.forward(tape, binds, h2);
        let s = self.ntn.forward(tape, binds, e1, e2);
        let w2 = self.head.forward(tape, binds, s);
        let score = tape.sigmoid(tape.add(w1, w2));
        (matching, score)
    }

    fn pair_loss(&self, tape: &Tape, binds: &Bindings<'_>, pair: &GedPair) -> Var {
        let (matching, score) = self.forward(tape, binds, &pair.g1, &pair.g2);
        let l_v = mse_scalar(tape, score, pair.normalized_ged().expect("supervised pair"));
        let mapping = pair.mapping.as_ref().expect("supervised pair");
        let target = Matrix::from_vec(
            pair.g1.num_nodes(),
            pair.g2.num_nodes(),
            mapping.coupling_matrix(pair.g2.num_nodes()),
        );
        let l_m = bce_matrix(tape, matching, &target);
        let lv = tape.scale(l_v, self.config.lambda);
        let lm = tape.scale(l_m, 1.0 - self.config.lambda);
        tape.add(lv, lm)
    }

    /// Trains one epoch; returns the mean loss.
    pub fn train_epoch<R: Rng>(&mut self, pairs: &[GedPair], rng: &mut R) -> f64 {
        let mut order: Vec<usize> = (0..pairs.len()).collect();
        order.shuffle(rng);
        let mut total = 0.0;
        for batch in order.chunks(self.config.batch_size.max(1)) {
            let mut acc: Option<Vec<Matrix>> = None;
            for &i in batch {
                let tape = Tape::new();
                let binds = self.store.bind(&tape);
                let loss = self.pair_loss(&tape, &binds, &pairs[i]);
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

    /// Predicts GED and the matching matrix.
    #[must_use]
    pub fn predict(&self, g1: &Graph, g2: &Graph) -> GedgnnPrediction {
        let (a, b, swapped) = ordered(g1, g2);
        let tape = Tape::new();
        let binds = self.store.bind(&tape);
        let (matching, score) = self.forward(&tape, &binds, a, b);
        let nged = tape.scalar_value(score);
        GedgnnPrediction {
            ged: nged * max_edit_ops(a, b) as f64,
            nged,
            matching: tape.value(matching),
            swapped,
        }
    }

    /// Predicts and generates an edit path via k-best matching on `Â`.
    #[must_use]
    pub fn predict_with_path(
        &self,
        g1: &Graph,
        g2: &Graph,
        k: usize,
    ) -> (GedgnnPrediction, KBestResult) {
        let pred = self.predict(g1, g2);
        let (a, b, _) = ordered(g1, g2);
        let path = kbest_edit_path(a, b, &pred.matching, k);
        (pred, path)
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
                let p = generate::perturb_with_edits(&g, 1 + i % 3, 2, rng);
                GedPair::supervised(g, p.graph, p.applied as f64, p.mapping)
            })
            .collect()
    }

    #[test]
    fn training_reduces_loss() {
        let mut rng = SmallRng::seed_from_u64(101);
        let data = pairs(&mut rng, 20);
        let mut cfg = GedgnnConfig::small(2);
        cfg.learning_rate = 5e-3;
        let mut model = Gedgnn::new(cfg, &mut rng);
        let losses = model.train(&data, 6, &mut rng);
        assert!(
            losses.last().unwrap() < losses.first().unwrap(),
            "{losses:?}"
        );
    }

    #[test]
    fn matching_matrix_is_unconstrained_probabilities() {
        // The defining difference to GEDIOT: Â rows need not sum to 1.
        let mut rng = SmallRng::seed_from_u64(102);
        let model = Gedgnn::new(GedgnnConfig::small(2), &mut rng);
        let g1 = generate::random_connected(4, 1, &[0.5, 0.5], &mut rng);
        let g2 = generate::random_connected(6, 1, &[0.5, 0.5], &mut rng);
        let pred = model.predict(&g1, &g2);
        assert_eq!(pred.matching.shape(), (4, 6));
        for &v in pred.matching.as_slice() {
            assert!((0.0..=1.0).contains(&v));
        }
    }

    #[test]
    fn path_generation_is_feasible() {
        let mut rng = SmallRng::seed_from_u64(103);
        let model = Gedgnn::new(GedgnnConfig::small(2), &mut rng);
        let g1 = generate::random_connected(4, 1, &[0.5, 0.5], &mut rng);
        let g2 = generate::random_connected(6, 1, &[0.5, 0.5], &mut rng);
        let (_, path) = model.predict_with_path(&g1, &g2, 8);
        let out = path.path.apply(&g1).unwrap();
        assert!(ged_graph::isomorphism::are_isomorphic(&out, &g2));
    }
}
