//! TaGSim [Bai & Zhao 2021] — type-aware graph similarity.
//!
//! TaGSim's defining idea: instead of regressing one GED scalar, predict
//! the *count of edit operations per type* (node relabeling, node
//! insertion/deletion, edge insertion, edge deletion) and sum them. We keep
//! that idea on top of the shared encoder: graph embeddings are pooled and
//! combined into a pair feature `[e1 ‖ e2 ‖ |e1 − e2|]`, and four MLP heads
//! regress the four normalized type counts (each supervised by MSE against
//! the type counts induced by the ground-truth matching).

use crate::encoder::{Encoder, EncoderConfig};
use ged_core::pairs::{ordered, GedPair};
use ged_graph::{max_edit_ops, Graph, NodeMapping};
use ged_nn::layers::{Activation, AttentionPool, Mlp};
use ged_nn::loss::mse_scalar;
use ged_nn::params::{Bindings, ParamStore};
use ged_nn::tape::{Tape, Var};
use ged_nn::Adam;
use rand::seq::SliceRandom;
use rand::Rng;

/// Ground-truth edit-operation counts by type, induced by a node matching.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TypeCounts {
    /// Node relabelings.
    pub relabel: usize,
    /// Node insertions (`n2 - n1`).
    pub node_ins: usize,
    /// Edge deletions.
    pub edge_del: usize,
    /// Edge insertions.
    pub edge_ins: usize,
}

impl TypeCounts {
    /// Derives the per-type counts of a matching's induced edit path.
    ///
    /// # Panics
    /// Panics if the mapping does not cover `g1` or `n1 > n2`.
    #[must_use]
    pub fn from_mapping(g1: &Graph, g2: &Graph, mapping: &NodeMapping) -> Self {
        let n1 = g1.num_nodes();
        let n2 = g2.num_nodes();
        assert!(n1 <= n2 && mapping.len() == n1);
        let inv = mapping.inverse(n2);
        let relabel = (0..n1 as u32)
            .filter(|&u| g1.label(u) != g2.label(mapping.image(u)))
            .count();
        let edge_del = g1
            .edges()
            .filter(|&(u, v)| !g2.has_edge(mapping.image(u), mapping.image(v)))
            .count();
        let edge_ins = g2
            .edges()
            .filter(|&(v, w)| {
                !matches!(
                    (inv[v as usize], inv[w as usize]),
                    (Some(a), Some(b)) if g1.has_edge(a, b)
                )
            })
            .count();
        TypeCounts {
            relabel,
            node_ins: n2 - n1,
            edge_del,
            edge_ins,
        }
    }

    /// Total edit count.
    #[must_use]
    pub fn total(&self) -> usize {
        self.relabel + self.node_ins + self.edge_del + self.edge_ins
    }
}

/// Hyperparameters.
#[derive(Clone, Debug)]
pub struct TagSimConfig {
    /// Encoder settings.
    pub encoder: EncoderConfig,
    /// Adam learning rate.
    pub learning_rate: f64,
    /// Adam weight decay.
    pub weight_decay: f64,
    /// Minibatch size.
    pub batch_size: usize,
}

impl TagSimConfig {
    /// CPU-friendly defaults.
    #[must_use]
    pub fn small(num_labels: usize) -> Self {
        TagSimConfig {
            encoder: EncoderConfig::small(num_labels),
            learning_rate: 1e-3,
            weight_decay: 5e-4,
            batch_size: 32,
        }
    }
}

/// The TaGSim model: four type-count regression heads.
pub struct TagSim {
    config: TagSimConfig,
    store: ParamStore,
    encoder: Encoder,
    pool: AttentionPool,
    heads: Vec<Mlp>,
    adam: Adam,
}

impl TagSim {
    /// Builds a fresh model.
    pub fn new<R: Rng>(config: TagSimConfig, rng: &mut R) -> Self {
        let mut store = ParamStore::new();
        let encoder = Encoder::new(&mut store, "enc", config.encoder.clone(), rng);
        let d = encoder.out_dim();
        let pool = AttentionPool::new(&mut store, "pool", d, rng);
        let heads = ["relabel", "node_ins", "edge_del", "edge_ins"]
            .iter()
            .map(|name| {
                Mlp::new(
                    &mut store,
                    &format!("head_{name}"),
                    &[3 * d, 8, 1],
                    Activation::Relu,
                    Activation::Sigmoid,
                    rng,
                )
            })
            .collect();
        let adam = Adam::new(config.learning_rate, config.weight_decay);
        TagSim {
            config,
            store,
            encoder,
            pool,
            heads,
            adam,
        }
    }

    /// Returns the four normalized type scores.
    fn forward(&self, tape: &Tape, binds: &Bindings<'_>, g1: &Graph, g2: &Graph) -> Vec<Var> {
        let h1 = self.encoder.embed(tape, binds, g1);
        let h2 = self.encoder.embed(tape, binds, g2);
        let e1 = self.pool.forward(tape, binds, h1);
        let e2 = self.pool.forward(tape, binds, h2);
        let diff = tape.sub(e1, e2);
        let absdiff = tape.relu(tape.concat_cols(diff, tape.scale(diff, -1.0)));
        // |x| = relu(x) + relu(-x): merge the two halves back.
        let d = self.encoder.out_dim();
        let (pos, neg) = {
            let v = absdiff;
            // Split columns back apart via constant masks is costlier than
            // just summing the two relu halves with a matmul; build a
            // selection matrix once.
            let mut sel = ged_linalg::Matrix::zeros(2 * d, d);
            for i in 0..d {
                sel[(i, i)] = 1.0;
                sel[(d + i, i)] = 1.0;
            }
            (v, tape.constant(sel))
        };
        let abs = tape.matmul(pos, neg); // 1 x d
        let feat = tape.concat_cols(tape.concat_cols(e1, e2), abs); // 1 x 3d
        self.heads
            .iter()
            .map(|h| h.forward(tape, binds, feat))
            .collect()
    }

    fn pair_loss(&self, tape: &Tape, binds: &Bindings<'_>, pair: &GedPair) -> Var {
        let scores = self.forward(tape, binds, &pair.g1, &pair.g2);
        let mapping = pair.mapping.as_ref().expect("supervised pair");
        let counts = TypeCounts::from_mapping(&pair.g1, &pair.g2, mapping);
        let denom = max_edit_ops(&pair.g1, &pair.g2) as f64;
        let targets = [
            counts.relabel as f64 / denom,
            counts.node_ins as f64 / denom,
            counts.edge_del as f64 / denom,
            counts.edge_ins as f64 / denom,
        ];
        let mut loss = mse_scalar(tape, scores[0], targets[0]);
        for (s, t) in scores.iter().zip(targets.iter()).skip(1) {
            let l = mse_scalar(tape, *s, *t);
            loss = tape.add(loss, l);
        }
        loss
    }

    /// Trains one epoch; returns the mean loss.
    pub fn train_epoch<R: Rng>(&mut self, pairs: &[GedPair], rng: &mut R) -> f64 {
        let mut order: Vec<usize> = (0..pairs.len()).collect();
        order.shuffle(rng);
        let mut total = 0.0;
        for batch in order.chunks(self.config.batch_size.max(1)) {
            let mut acc: Option<Vec<ged_linalg::Matrix>> = None;
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

    /// Predicts the GED as the sum of the four denormalized type counts.
    #[must_use]
    pub fn predict(&self, g1: &Graph, g2: &Graph) -> f64 {
        let (a, b, _) = ordered(g1, g2);
        let tape = Tape::new();
        let binds = self.store.bind(&tape);
        let scores = self.forward(&tape, &binds, a, b);
        let denom = max_edit_ops(a, b) as f64;
        scores.iter().map(|&s| tape.scalar_value(s) * denom).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ged_graph::generate;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn type_counts_sum_to_induced_cost() {
        let mut rng = SmallRng::seed_from_u64(111);
        for _ in 0..25 {
            let g = generate::random_connected(6, 2, &[0.5, 0.3, 0.2], &mut rng);
            let p = generate::perturb_with_edits(&g, 3, 3, &mut rng);
            let counts = TypeCounts::from_mapping(&g, &p.graph, &p.mapping);
            assert_eq!(counts.total(), p.mapping.induced_cost(&g, &p.graph));
        }
    }

    #[test]
    fn training_reduces_loss() {
        let mut rng = SmallRng::seed_from_u64(112);
        let data: Vec<GedPair> = (0..20)
            .map(|i| {
                let g = generate::random_connected(5, 1, &[0.5, 0.5], &mut rng);
                let p = generate::perturb_with_edits(&g, 1 + i % 3, 2, &mut rng);
                GedPair::supervised(g, p.graph, p.applied as f64, p.mapping)
            })
            .collect();
        let mut cfg = TagSimConfig::small(2);
        cfg.learning_rate = 5e-3;
        let mut model = TagSim::new(cfg, &mut rng);
        let losses = model.train(&data, 6, &mut rng);
        assert!(
            losses.last().unwrap() < losses.first().unwrap(),
            "{losses:?}"
        );
    }

    #[test]
    fn prediction_bounded_by_max_ops() {
        let mut rng = SmallRng::seed_from_u64(113);
        let model = TagSim::new(TagSimConfig::small(2), &mut rng);
        let g1 = generate::random_connected(4, 1, &[0.5, 0.5], &mut rng);
        let g2 = generate::random_connected(7, 2, &[0.5, 0.5], &mut rng);
        let pred = model.predict(&g1, &g2);
        // Four sigmoid heads, each bounded by denom: total <= 4 * denom.
        assert!(pred >= 0.0 && pred <= 4.0 * max_edit_ops(&g1, &g2) as f64);
    }
}
