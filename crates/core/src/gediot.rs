//! GEDIOT: the supervised inverse-optimal-transport GED model (Section 4).
//!
//! Architecture (Figure 4 of the paper):
//!
//! 1. **Node embedding component** — a siamese stack of GIN convolutions
//!    (Eq. 8) over one-hot label features; the outputs of *all* layers are
//!    concatenated (to fight over-smoothing) and reduced by an MLP
//!    `[D, 2D, D, d]` (Eq. 9) to final node embeddings `H1, H2`.
//! 2. **Learnable OT component** — a cost-matrix layer
//!    `Ĉ = tanh(H1 W H2ᵀ)` (Eq. 10) followed by a learnable Sinkhorn layer:
//!    the cost matrix is extended with a zero dummy row (Section 4.2), and
//!    the Sinkhorn iterations (Eq. 12) are unrolled onto the autodiff tape
//!    with a *learnable* regularization coefficient `ε` (kept positive via
//!    softplus). The resulting coupling `π̂` both supervises the matching
//!    loss and produces the transport score `w1 = ⟨Ĉ, π̂⟩`.
//! 3. **Graph discrepancy component** — attention pooling (Eq. 13) and an
//!    NTN (Eq. 14) reduce the pair to a score `w2` that accounts for the
//!    `n2 - n1` unmatched nodes.
//!
//! The prediction is `score = σ(w1 + w2)` fitting the normalized GED, and
//! the loss is `λ·MSE + (1-λ)·BCE` (Eq. 15).
//!
//! Ablation switches reproduce Table 6: GCN instead of GIN, no MLP, plain
//! inner-product cost layer, and frozen (non-learnable) `ε`.
//!
//! # One forward pass, two schedules
//!
//! The forward pass is split in two: the siamese `embed` (component 1)
//! and a `pair_head` holding components 2 and 3. Training runs `embed`,
//! `embed`, `pair_head` on one tape, so gradients flow into the
//! embedding layers. Prediction ([`Gediot::predict_in`]) runs `embed` on
//! a tape of its own per graph and hands the embeddings to `pair_head`
//! as tape constants; the values are the same, bit for bit. Because a
//! graph's embedding does not depend on its partner, an
//! [`EmbeddingMemo`] (one per batch worker) keeps the last few: its key
//! is the full graph plus the model's id, an id drawn afresh whenever
//! the parameters change.

use crate::kbest::{kbest_edit_path, KBestResult};
use crate::pairs::{ordered, GedPair};
use ged_graph::{max_edit_ops, Graph};
use ged_linalg::Matrix;
use ged_nn::init::softplus_inverse;
use ged_nn::layers::{Activation, AttentionPool, GinLayer, Linear, Mlp, Ntn};
use ged_nn::loss::{bce_matrix, mse_scalar};
use ged_nn::params::{Bindings, ParamId, ParamStore};
use ged_nn::tape::{Tape, Var};
use ged_nn::Adam;
use rand::seq::SliceRandom;
use rand::Rng;
use std::sync::atomic::{AtomicU64, Ordering};

/// Graph convolution flavor (Table 6 ablation "w/ GCN").
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ConvKind {
    /// Graph Isomorphism Network (Eq. 8) — the paper's default.
    Gin,
    /// Symmetric-normalized GCN convolution `h' = ReLU(Â h W + b)`.
    Gcn,
}

/// Hyperparameters of GEDIOT.
#[derive(Clone, Debug)]
pub struct GediotConfig {
    /// Size of the label alphabet (one-hot input dimension; 1 = unlabeled).
    pub num_labels: usize,
    /// Output dimension of each graph-convolution layer (paper: 128/64/32;
    /// scaled down by default for CPU training).
    pub conv_dims: Vec<usize>,
    /// Final node-embedding dimension `d` (paper: 32).
    pub embed_dim: usize,
    /// NTN output dimension `L` (paper: 16).
    pub ntn_dim: usize,
    /// Unrolled Sinkhorn iterations (paper default: 5).
    pub sinkhorn_iters: usize,
    /// Initial regularization coefficient `ε0` (paper: 0.05).
    pub epsilon0: f64,
    /// Learn `ε` by gradient descent (Table 6 "w/o learnable ε" sets false).
    pub learnable_epsilon: bool,
    /// Loss balance `λ` between value loss and matching loss (paper: 0.8).
    pub lambda: f64,
    /// Keep the node-embedding MLP (Table 6 "w/o MLP" sets false).
    pub use_mlp: bool,
    /// Keep the learnable cost-matrix layer `tanh(H1 W H2ᵀ)`; when false the
    /// plain (parameter-free) `tanh(H1 H2ᵀ)` is used (Table 6 "w/o Cost").
    pub use_cost_layer: bool,
    /// Convolution flavor.
    pub conv: ConvKind,
    /// Adam learning rate (paper: 1e-3).
    pub learning_rate: f64,
    /// Adam weight decay (paper: 5e-4).
    pub weight_decay: f64,
    /// Minibatch size (paper: 128; scaled down by default).
    pub batch_size: usize,
}

impl GediotConfig {
    /// A CPU-friendly configuration preserving the paper's architecture
    /// shape at reduced width.
    #[must_use]
    pub fn small(num_labels: usize) -> Self {
        GediotConfig {
            num_labels: num_labels.max(1),
            conv_dims: vec![32, 16, 8],
            embed_dim: 8,
            ntn_dim: 8,
            sinkhorn_iters: 5,
            epsilon0: 0.05,
            learnable_epsilon: true,
            lambda: 0.8,
            use_mlp: true,
            use_cost_layer: true,
            conv: ConvKind::Gin,
            learning_rate: 1e-3,
            weight_decay: 5e-4,
            batch_size: 32,
        }
    }

    /// The paper's full-width configuration (GIN 128/64/32, d=32, L=16).
    #[must_use]
    pub fn paper(num_labels: usize) -> Self {
        GediotConfig {
            conv_dims: vec![128, 64, 32],
            embed_dim: 32,
            ntn_dim: 16,
            ..Self::small(num_labels)
        }
    }
}

/// A prediction for one graph pair.
#[derive(Clone, Debug)]
pub struct GediotPrediction {
    /// Denormalized GED estimate.
    pub ged: f64,
    /// Normalized score in `(0, 1)`.
    pub nged: f64,
    /// Node coupling matrix (`n1 x n2` in the ordered orientation).
    pub coupling: Matrix,
    /// Whether the inputs were swapped to enforce `n1 <= n2`.
    pub swapped: bool,
}

/// How many graphs an [`EmbeddingMemo`] keeps. Batched queries arrive
/// grouped by query graph, so the entry of the graph shared by a run of
/// pairs stays hot while partners come and go.
const MEMO_CAPACITY: usize = 4;

/// A least-recently-used memo of GEDIOT node embeddings for one worker
/// thread ([`Gediot::predict_in`]).
///
/// An entry is keyed by the full [`Graph`] (compared for equality, never
/// by hash alone) and by the id of the model that computed it, which
/// changes whenever the model's parameters do. A memo can therefore be
/// shared across models and training steps without ever answering with
/// a stale embedding.
#[derive(Debug, Default)]
pub struct EmbeddingMemo {
    /// `(model id, graph, embedding)`, least recently used first.
    entries: Vec<(u64, Graph, Matrix)>,
}

impl EmbeddingMemo {
    /// An empty memo.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// `model`'s node embeddings of `g`, from the memo or computed into it.
    fn embedding(&mut self, model: &Gediot, g: &Graph) -> Matrix {
        let hit = self
            .entries
            .iter()
            .position(|(id, graph, _)| *id == model.id && graph == g);
        match hit {
            Some(i) => self.entries[i..].rotate_left(1),
            None => {
                if self.entries.len() == MEMO_CAPACITY {
                    self.entries.remove(0);
                }
                self.entries.push((model.id, g.clone(), model.embedding(g)));
            }
        }
        let (_, _, h) = self.entries.last().expect("the entry just used or added");
        h.clone()
    }
}

enum Conv {
    Gin(GinLayer),
    Gcn(Linear),
}

/// Source of [`Gediot`] model ids. `Relaxed` suffices: an id publishes
/// no other data, and `fetch_add` alone makes every id unique.
static NEXT_MODEL_ID: AtomicU64 = AtomicU64::new(0);

fn fresh_model_id() -> u64 {
    NEXT_MODEL_ID.fetch_add(1, Ordering::Relaxed)
}

/// The GEDIOT model: owns all parameters and the optimizer state.
pub struct Gediot {
    /// Process-unique id of the current parameter values: drawn at
    /// construction and again by every method that changes a parameter,
    /// so an [`EmbeddingMemo`] entry can never outlive the weights it
    /// was computed with.
    id: u64,
    config: GediotConfig,
    store: ParamStore,
    convs: Vec<Conv>,
    mlp: Option<Mlp>,
    cost_w: Option<ParamId>,
    eps_param: ParamId,
    pool: AttentionPool,
    ntn: Ntn,
    head: Mlp,
    adam: Adam,
}

impl Gediot {
    /// Builds a model with freshly initialized parameters.
    pub fn new<R: Rng>(config: GediotConfig, rng: &mut R) -> Self {
        let mut store = ParamStore::new();
        let mut convs = Vec::new();
        let mut in_dim = config.num_labels.max(1);
        for (i, &out) in config.conv_dims.iter().enumerate() {
            let conv = match config.conv {
                ConvKind::Gin => Conv::Gin(GinLayer::new(
                    &mut store,
                    &format!("gin{i}"),
                    in_dim,
                    out,
                    rng,
                )),
                ConvKind::Gcn => Conv::Gcn(Linear::new(
                    &mut store,
                    &format!("gcn{i}"),
                    in_dim,
                    out,
                    rng,
                )),
            };
            convs.push(conv);
            in_dim = out;
        }
        // Concatenation of the input features and every conv output.
        let feat_dim = if config.num_labels <= 1 {
            1
        } else {
            config.num_labels
        };
        let concat_dim = feat_dim + config.conv_dims.iter().sum::<usize>();
        let (mlp, d_out) = if config.use_mlp {
            let mlp = Mlp::new(
                &mut store,
                "embed_mlp",
                &[concat_dim, 2 * concat_dim, concat_dim, config.embed_dim],
                Activation::Relu,
                Activation::None,
                rng,
            );
            (Some(mlp), config.embed_dim)
        } else {
            (None, concat_dim)
        };
        let cost_w = config
            .use_cost_layer
            .then(|| store.register("cost_w", ged_nn::init::xavier_uniform(d_out, d_out, rng)));
        // ε is stored pre-softplus so that softplus(param) = ε stays > 0.
        let eps_param = store.register(
            "epsilon_raw",
            Matrix::from_vec(1, 1, vec![softplus_inverse(config.epsilon0)]),
        );
        let pool = AttentionPool::new(&mut store, "pool", d_out, rng);
        let ntn = Ntn::new(&mut store, "ntn", d_out, config.ntn_dim, rng);
        let head = Mlp::new(
            &mut store,
            "head",
            &[config.ntn_dim, 8, 4, 1],
            Activation::Relu,
            Activation::None,
            rng,
        );
        let adam = Adam::new(config.learning_rate, config.weight_decay);
        Gediot {
            id: fresh_model_id(),
            config,
            store,
            convs,
            mlp,
            cost_w,
            eps_param,
            pool,
            ntn,
            head,
            adam,
        }
    }

    /// The model's hyperparameters.
    #[must_use]
    pub fn config(&self) -> &GediotConfig {
        &self.config
    }

    /// Total scalar parameter count.
    #[must_use]
    pub fn num_parameters(&self) -> usize {
        self.store.num_scalars()
    }

    /// The current (softplus-transformed) Sinkhorn ε.
    #[must_use]
    pub fn epsilon(&self) -> f64 {
        if !self.config.learnable_epsilon {
            return self.config.epsilon0;
        }
        let raw = self.store.value(self.eps_param).as_slice()[0];
        raw.max(0.0) + (-raw.abs()).exp().ln_1p()
    }

    fn one_hot_features(&self, g: &Graph) -> Matrix {
        let n = g.num_nodes();
        let k = self.config.num_labels;
        if k <= 1 {
            // Unlabeled graphs: constant feature (paper convention).
            return Matrix::filled(n, 1, 1.0);
        }
        let mut x = Matrix::zeros(n, k);
        for u in 0..n {
            let l = g.label(u as u32).0 as usize;
            assert!(l < k, "label {l} out of alphabet {k}");
            x[(u, l)] = 1.0;
        }
        x
    }

    fn normalized_adjacency(g: &Graph) -> Matrix {
        // GCN: Â = D^{-1/2} (A + I) D^{-1/2}.
        let n = g.num_nodes();
        let mut a = Matrix::from_vec(n, n, g.adjacency_matrix());
        for i in 0..n {
            a[(i, i)] = 1.0;
        }
        let deg: Vec<f64> = a.row_sums();
        Matrix::from_fn(n, n, |i, j| a[(i, j)] / (deg[i] * deg[j]).sqrt())
    }

    /// Embeds one graph into final node embeddings (`n x d_out`).
    fn embed(&self, tape: &Tape, binds: &Bindings<'_>, g: &Graph) -> Var {
        let x0 = tape.constant(self.one_hot_features(g));
        let adj = match self.config.conv {
            ConvKind::Gin => tape.constant(Matrix::from_vec(
                g.num_nodes(),
                g.num_nodes(),
                g.adjacency_matrix(),
            )),
            ConvKind::Gcn => tape.constant(Self::normalized_adjacency(g)),
        };
        let mut h = x0;
        let mut concat = x0;
        for conv in &self.convs {
            h = match conv {
                Conv::Gin(gin) => gin.forward(tape, binds, adj, h),
                Conv::Gcn(lin) => {
                    let ah = tape.matmul(adj, h);
                    tape.relu(lin.forward(tape, binds, ah))
                }
            };
            concat = tape.concat_cols(concat, h);
        }
        match &self.mlp {
            Some(mlp) => mlp.forward(tape, binds, concat),
            None => concat,
        }
    }

    /// Everything after the siamese embeddings of an ordered pair
    /// (`n1 <= n2`): the cost layer, the learnable Sinkhorn, pooling, the
    /// NTN and the head. `h1`, `h2` are `n1 x d` and `n2 x d` node
    /// embeddings — tape values of [`Self::embed`] when training, or
    /// constants from the [`EmbeddingMemo`] when predicting.
    /// Returns `(coupling π̂, score)`.
    fn pair_head(
        &self,
        tape: &Tape,
        binds: &Bindings<'_>,
        n1: usize,
        n2: usize,
        h1: Var,
        h2: Var,
    ) -> (Var, Var) {
        // Cost matrix layer (Eq. 10).
        let h2t = tape.transpose(h2);
        let cost = match self.cost_w {
            Some(w) => {
                let hw = tape.matmul(h1, binds.var(w));
                let raw = tape.matmul(hw, h2t);
                tape.tanh(raw)
            }
            // Ablation "w/o Cost": parameter-free pairwise scores. tanh keeps
            // exp(-C/ε) bounded, matching the learnable variant's range.
            None => {
                let raw = tape.matmul(h1, h2t);
                tape.tanh(raw)
            }
        };

        // Learnable Sinkhorn layer (Section 4.2) with the dummy row.
        let eps = if self.config.learnable_epsilon {
            tape.softplus(binds.var(self.eps_param))
        } else {
            tape.scalar(self.config.epsilon0)
        };
        let extended = tape.append_zero_row(cost);
        let neg = tape.scale(extended, -1.0);
        let scaled_cost = tape.div_scalar_var(neg, eps);
        let kernel = tape.exp(scaled_cost);
        let kernel_t = tape.transpose(kernel);
        let mut mu = vec![1.0; n1 + 1];
        mu[n1] = (n2 - n1) as f64;
        let mu = tape.constant(Matrix::col_vec(mu));
        let nu = tape.constant(Matrix::col_vec(vec![1.0; n2]));
        let mut phi = tape.constant(Matrix::col_vec(vec![1.0; n1 + 1]));
        let mut psi = tape.constant(Matrix::col_vec(vec![1.0; n2]));
        for _ in 0..self.config.sinkhorn_iters.max(1) {
            let denom_psi = tape.matmul(kernel_t, phi);
            psi = tape.div(nu, denom_psi);
            let denom_phi = tape.matmul(kernel, psi);
            phi = tape.div(mu, denom_phi);
        }
        let psi_row = tape.transpose(psi);
        let col_scaled = tape.mul_broadcast_col(kernel, phi);
        let pi_full = tape.mul_broadcast_row(col_scaled, psi_row);
        let pi = tape.remove_last_row(pi_full);

        // Transport score w1 = ⟨Ĉ, π̂⟩.
        let w1 = tape.dot(cost, pi);

        // Graph discrepancy component: attention pooling + NTN + head.
        let hg1 = self.pool.forward(tape, binds, h1);
        let hg2 = self.pool.forward(tape, binds, h2);
        let s = self.ntn.forward(tape, binds, hg1, hg2);
        let w2 = self.head.forward(tape, binds, s);

        let sum = tape.add(w1, w2);
        let score = tape.sigmoid(sum);
        (pi, score)
    }

    /// The node embeddings of `g` (`n x d_out`), computed on a tape of
    /// their own.
    fn embedding(&self, g: &Graph) -> Matrix {
        let tape = Tape::new();
        let binds = self.store.bind(&tape);
        let h = self.embed(&tape, &binds, g);
        tape.value(h)
    }

    /// Loss of one supervised pair (Eq. 15): both embeddings and the
    /// head on one tape, so gradients reach every layer.
    fn pair_loss(&self, tape: &Tape, binds: &Bindings<'_>, pair: &GedPair) -> Var {
        let h1 = self.embed(tape, binds, &pair.g1);
        let h2 = self.embed(tape, binds, &pair.g2);
        let (pi, score) = self.pair_head(
            tape,
            binds,
            pair.g1.num_nodes(),
            pair.g2.num_nodes(),
            h1,
            h2,
        );
        let nged = pair
            .normalized_ged()
            .expect("training pair needs ground-truth GED");
        let l_v = mse_scalar(tape, score, nged);
        let mapping = pair
            .mapping
            .as_ref()
            .expect("training pair needs ground-truth matching");
        let target = Matrix::from_vec(
            pair.g1.num_nodes(),
            pair.g2.num_nodes(),
            mapping.coupling_matrix(pair.g2.num_nodes()),
        );
        let l_m = bce_matrix(tape, pi, &target);
        let lv_scaled = tape.scale(l_v, self.config.lambda);
        let lm_scaled = tape.scale(l_m, 1.0 - self.config.lambda);
        tape.add(lv_scaled, lm_scaled)
    }

    /// Trains one epoch over `pairs` (shuffled); returns the mean loss.
    pub fn train_epoch<R: Rng>(&mut self, pairs: &[GedPair], rng: &mut R) -> f64 {
        self.id = fresh_model_id();
        let mut order: Vec<usize> = (0..pairs.len()).collect();
        order.shuffle(rng);
        let mut total_loss = 0.0;
        for batch in order.chunks(self.config.batch_size.max(1)) {
            let mut grad_acc: Option<Vec<Matrix>> = None;
            for &i in batch {
                let tape = Tape::new();
                let binds = self.store.bind(&tape);
                let loss = self.pair_loss(&tape, &binds, &pairs[i]);
                total_loss += tape.scalar_value(loss);
                tape.backward(loss);
                let grads = self.store.gradients(&tape, &binds);
                match &mut grad_acc {
                    Some(acc) => {
                        for (a, g) in acc.iter_mut().zip(&grads) {
                            a.add_scaled_assign(g, 1.0);
                        }
                    }
                    None => grad_acc = Some(grads),
                }
            }
            if let Some(mut acc) = grad_acc {
                let scale = 1.0 / batch.len() as f64;
                for g in &mut acc {
                    *g = g.scale(scale);
                }
                self.adam.step(&mut self.store, &acc);
            }
        }
        total_loss / pairs.len().max(1) as f64
    }

    /// Trains for `epochs` epochs; returns the per-epoch mean losses.
    pub fn train<R: Rng>(&mut self, pairs: &[GedPair], epochs: usize, rng: &mut R) -> Vec<f64> {
        (0..epochs).map(|_| self.train_epoch(pairs, rng)).collect()
    }

    /// Predicts the GED and coupling of a pair (order-insensitive).
    #[must_use]
    pub fn predict(&self, g1: &Graph, g2: &Graph) -> GediotPrediction {
        self.predict_in(g1, g2, &mut EmbeddingMemo::new())
    }

    /// [`Self::predict`] with each graph's node embeddings looked up in,
    /// or computed into, `memo`. The embedding component is siamese, so
    /// a graph's embedding does not depend on its partner: a worker that
    /// sees one query graph against many partners embeds it once. The
    /// result is bit-identical to [`Self::predict`] whatever `memo`
    /// holds, including entries of other models.
    #[must_use]
    pub fn predict_in(&self, g1: &Graph, g2: &Graph, memo: &mut EmbeddingMemo) -> GediotPrediction {
        let (a, b, swapped) = ordered(g1, g2);
        let tape = Tape::new();
        let binds = self.store.bind(&tape);
        let h1 = tape.constant(memo.embedding(self, a));
        let h2 = tape.constant(memo.embedding(self, b));
        let (pi, score) = self.pair_head(&tape, &binds, a.num_nodes(), b.num_nodes(), h1, h2);
        let nged = tape.scalar_value(score);
        let ged = nged * max_edit_ops(a, b) as f64;
        GediotPrediction {
            ged,
            nged,
            coupling: tape.value(pi),
            swapped,
        }
    }

    /// Predicts and additionally generates a feasible edit path via k-best
    /// matching (Section 4.5). The path is in the ordered orientation.
    #[must_use]
    pub fn predict_with_path(
        &self,
        g1: &Graph,
        g2: &Graph,
        k: usize,
    ) -> (GediotPrediction, KBestResult) {
        let pred = self.predict(g1, g2);
        let (a, b, _) = ordered(g1, g2);
        let path = kbest_edit_path(a, b, &pred.coupling, k);
        (pred, path)
    }

    /// Serializes all trained parameters to a text checkpoint.
    #[must_use]
    pub fn save_checkpoint(&self) -> String {
        self.store.checkpoint().to_text()
    }

    /// Restores parameters from a checkpoint produced by
    /// [`Gediot::save_checkpoint`] on an identically-configured model.
    ///
    /// # Errors
    /// Fails when the checkpoint does not match this architecture.
    pub fn load_checkpoint(&mut self, text: &str) -> Result<(), String> {
        // A failed restore may have overwritten some tensors already.
        self.id = fresh_model_id();
        let ckpt = ged_nn::params::Checkpoint::from_text(text)?;
        self.store.restore(&ckpt)
    }

    /// Validation loss (no parameter update).
    #[must_use]
    pub fn evaluate_loss(&self, pairs: &[GedPair]) -> f64 {
        let mut total = 0.0;
        for pair in pairs {
            let tape = Tape::new();
            let binds = self.store.bind(&tape);
            let loss = self.pair_loss(&tape, &binds, pair);
            total += tape.scalar_value(loss);
        }
        total / pairs.len().max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ged_graph::generate;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn tiny_config(num_labels: usize) -> GediotConfig {
        GediotConfig {
            conv_dims: vec![8, 8],
            embed_dim: 4,
            ntn_dim: 4,
            batch_size: 8,
            learning_rate: 5e-3,
            ..GediotConfig::small(num_labels)
        }
    }

    fn make_pairs(count: usize, rng: &mut SmallRng) -> Vec<GedPair> {
        (0..count)
            .map(|i| {
                let g = generate::random_connected(5 + i % 3, 1, &[0.5, 0.5], rng);
                let p = generate::perturb_with_edits(&g, 1 + i % 4, 2, rng);
                GedPair::supervised(g, p.graph, p.applied as f64, p.mapping)
            })
            .collect()
    }

    #[test]
    fn forward_shapes_and_ranges() {
        let mut rng = SmallRng::seed_from_u64(41);
        let model = Gediot::new(tiny_config(2), &mut rng);
        let g1 = generate::random_connected(4, 1, &[0.5, 0.5], &mut rng);
        let g2 = generate::random_connected(6, 2, &[0.5, 0.5], &mut rng);
        let pred = model.predict(&g1, &g2);
        assert_eq!(pred.coupling.shape(), (4, 6));
        assert!(pred.nged > 0.0 && pred.nged < 1.0);
        assert!(pred.ged >= 0.0);
        // Coupling rows sum to ~1 (each G1 node transports unit mass; the
        // last ψ/φ update leaves rows exactly normalized).
        for s in pred.coupling.row_sums() {
            assert!((s - 1.0).abs() < 0.05, "row sum {s}");
        }
        // Columns receive at most ~1.
        for s in pred.coupling.col_sums() {
            assert!(s <= 1.05, "col sum {s}");
        }
    }

    #[test]
    fn prediction_is_symmetric_in_input_order() {
        let mut rng = SmallRng::seed_from_u64(42);
        let model = Gediot::new(tiny_config(2), &mut rng);
        let g1 = generate::random_connected(4, 1, &[0.5, 0.5], &mut rng);
        let g2 = generate::random_connected(6, 2, &[0.5, 0.5], &mut rng);
        let a = model.predict(&g1, &g2);
        let b = model.predict(&g2, &g1);
        assert!((a.ged - b.ged).abs() < 1e-12);
        assert!(!a.swapped && b.swapped);
    }

    #[test]
    fn training_reduces_loss() {
        let mut rng = SmallRng::seed_from_u64(43);
        let pairs = make_pairs(24, &mut rng);
        let mut model = Gediot::new(tiny_config(2), &mut rng);
        let initial = model.evaluate_loss(&pairs);
        let losses = model.train(&pairs, 8, &mut rng);
        let final_loss = model.evaluate_loss(&pairs);
        assert!(
            final_loss < initial,
            "loss did not improve: {initial} -> {final_loss} ({losses:?})"
        );
    }

    #[test]
    fn learnable_epsilon_moves_during_training() {
        let mut rng = SmallRng::seed_from_u64(44);
        let pairs = make_pairs(16, &mut rng);
        let mut model = Gediot::new(tiny_config(2), &mut rng);
        let eps0 = model.epsilon();
        assert!((eps0 - 0.05).abs() < 1e-9, "initial epsilon {eps0}");
        model.train(&pairs, 5, &mut rng);
        assert!(
            (model.epsilon() - eps0).abs() > 1e-6,
            "epsilon never updated"
        );
    }

    #[test]
    fn frozen_epsilon_stays_fixed() {
        let mut rng = SmallRng::seed_from_u64(45);
        let pairs = make_pairs(8, &mut rng);
        let mut cfg = tiny_config(2);
        cfg.learnable_epsilon = false;
        let mut model = Gediot::new(cfg, &mut rng);
        model.train(&pairs, 3, &mut rng);
        assert!((model.epsilon() - 0.05).abs() < 1e-9);
    }

    #[test]
    fn ablation_variants_run() {
        let mut rng = SmallRng::seed_from_u64(46);
        let g1 = generate::random_connected(4, 1, &[0.5, 0.5], &mut rng);
        let g2 = generate::random_connected(5, 1, &[0.5, 0.5], &mut rng);
        for (gcn, mlp, cost) in [
            (true, true, true),
            (false, false, true),
            (false, true, false),
        ] {
            let mut cfg = tiny_config(2);
            cfg.conv = if gcn { ConvKind::Gcn } else { ConvKind::Gin };
            cfg.use_mlp = mlp;
            cfg.use_cost_layer = cost;
            let mut model = Gediot::new(cfg, &mut rng);
            let pairs = make_pairs(6, &mut rng);
            model.train(&pairs, 2, &mut rng);
            let pred = model.predict(&g1, &g2);
            assert!(pred.ged.is_finite());
        }
    }

    #[test]
    fn path_generation_is_feasible() {
        let mut rng = SmallRng::seed_from_u64(47);
        let model = Gediot::new(tiny_config(2), &mut rng);
        let g1 = generate::random_connected(4, 1, &[0.5, 0.5], &mut rng);
        let g2 = generate::random_connected(6, 1, &[0.5, 0.5], &mut rng);
        let (_, path) = model.predict_with_path(&g1, &g2, 10);
        let out = path.path.apply(&g1).unwrap();
        assert!(ged_graph::isomorphism::are_isomorphic(&out, &g2));
    }

    #[test]
    fn overfits_single_pair_matching() {
        // Supervising a single pair repeatedly should push the coupling
        // toward the ground-truth matching.
        let mut rng = SmallRng::seed_from_u64(48);
        let g = generate::random_connected(5, 1, &[0.5, 0.5], &mut rng);
        let p = generate::perturb_with_edits(&g, 2, 2, &mut rng);
        let mapping = p.mapping.clone();
        let pair = GedPair::supervised(g.clone(), p.graph.clone(), p.applied as f64, p.mapping);
        let mut cfg = tiny_config(2);
        cfg.lambda = 0.2; // emphasize the matching loss
        cfg.learning_rate = 2e-2;
        let mut model = Gediot::new(cfg, &mut rng);
        let pairs = vec![pair];
        model.train(&pairs, 150, &mut rng);
        let pred = model.predict(&g, &p.graph);
        // The ground-truth entries should now carry high confidence.
        let n2 = p.graph.num_nodes();
        let mut hits = 0;
        for (u, &v) in mapping.as_slice().iter().enumerate() {
            let row = pred.coupling.row(u);
            let best = (0..n2)
                .max_by(|&a, &b| row[a].partial_cmp(&row[b]).unwrap())
                .unwrap();
            if best == v as usize {
                hits += 1;
            }
        }
        assert!(
            hits * 2 >= mapping.len(),
            "only {hits}/{} rows match",
            mapping.len()
        );
    }

    fn assert_same_prediction(got: &GediotPrediction, want: &GediotPrediction, ctx: &str) {
        assert_eq!(got.ged.to_bits(), want.ged.to_bits(), "{ctx}: ged");
        assert_eq!(got.swapped, want.swapped, "{ctx}: orientation");
        let bits = |m: &Matrix| m.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&got.coupling), bits(&want.coupling), "{ctx}: coupling");
    }

    #[test]
    fn memo_keeps_the_most_recent_graphs() {
        let mut rng = SmallRng::seed_from_u64(51);
        let model = Gediot::new(tiny_config(2), &mut rng);
        let graphs: Vec<Graph> = (0..6)
            .map(|i| generate::random_connected(4 + i, 1, &[0.5, 0.5], &mut rng))
            .collect();
        let mut memo = EmbeddingMemo::new();
        // One query graph against a run of partners, as batches arrive.
        for partner in &graphs[1..] {
            let got = model.predict_in(&graphs[0], partner, &mut memo);
            assert_same_prediction(&got, &model.predict(&graphs[0], partner), "run");
            assert!(memo.entries.len() <= MEMO_CAPACITY);
            assert!(
                memo.entries.iter().any(|(_, g, _)| *g == graphs[0]),
                "the shared query graph stays memoized"
            );
        }
        // Least recently used first: the oldest partners were evicted.
        let kept: Vec<&Graph> = memo.entries.iter().map(|(_, g, _)| g).collect();
        assert_eq!(kept, [&graphs[3], &graphs[4], &graphs[0], &graphs[5]]);
    }

    #[test]
    fn memo_never_serves_embeddings_of_old_parameters() {
        let mut rng = SmallRng::seed_from_u64(52);
        let pairs = make_pairs(8, &mut rng);
        let mut model = Gediot::new(tiny_config(2), &mut rng);
        let mut other = Gediot::new(tiny_config(2), &mut rng);
        let g1 = generate::random_connected(4, 1, &[0.5, 0.5], &mut rng);
        let g2 = generate::random_connected(6, 1, &[0.5, 0.5], &mut rng);
        let mut memo = EmbeddingMemo::new();
        let mut check = |model: &Gediot, ctx: &str| {
            let got = model.predict_in(&g2, &g1, &mut memo);
            assert_same_prediction(&got, &model.predict(&g2, &g1), ctx);
        };
        check(&model, "fresh");
        check(&other, "second model, same memo");
        model.train_epoch(&pairs, &mut rng);
        check(&model, "after a training epoch");
        let ckpt = model.save_checkpoint();
        other.load_checkpoint(&ckpt).unwrap();
        check(&other, "after loading a checkpoint");
        // A restore that fails on its last tensor has already overwritten
        // the others: no entry of the old weights may survive it either.
        let third = Gediot::new(tiny_config(2), &mut rng).save_checkpoint();
        let mut lines: Vec<String> = third.lines().map(str::to_string).collect();
        let last = lines.last_mut().unwrap();
        *last = last.replacen("head", "renamed", 1);
        assert!(model.load_checkpoint(&lines.join("\n")).is_err());
        check(&model, "after a failed restore");
    }

    #[test]
    fn parameter_count_is_reported() {
        let mut rng = SmallRng::seed_from_u64(49);
        let model = Gediot::new(tiny_config(3), &mut rng);
        assert!(model.num_parameters() > 100);
    }

    #[test]
    fn checkpoint_roundtrip_preserves_predictions() {
        let mut rng = SmallRng::seed_from_u64(50);
        let pairs = make_pairs(8, &mut rng);
        let mut model = Gediot::new(tiny_config(2), &mut rng);
        model.train(&pairs, 2, &mut rng);
        let g1 = generate::random_connected(4, 1, &[0.5, 0.5], &mut rng);
        let g2 = generate::random_connected(6, 1, &[0.5, 0.5], &mut rng);
        let before = model.predict(&g1, &g2).ged;
        let ckpt = model.save_checkpoint();

        let mut fresh = Gediot::new(tiny_config(2), &mut rng);
        fresh.load_checkpoint(&ckpt).unwrap();
        assert!((fresh.predict(&g1, &g2).ged - before).abs() < 1e-12);

        // Wrong architecture is rejected.
        let mut wrong = Gediot::new(tiny_config(3), &mut rng);
        assert!(wrong.load_checkpoint(&ckpt).is_err());
    }
}
