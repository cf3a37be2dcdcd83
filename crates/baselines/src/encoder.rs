//! Shared siamese graph encoder for the neural baselines.
//!
//! SimGNN, GPN, TaGSim and GEDGNN all start from the same recipe GEDIOT
//! uses: a stack of graph convolutions over one-hot label features, with
//! all layer outputs concatenated and reduced by an MLP.

use ged_graph::Graph;
use ged_linalg::Matrix;
use ged_nn::layers::{Activation, GinLayer, Linear, Mlp};
use ged_nn::params::{Bindings, ParamStore};
use ged_nn::tape::{Tape, Var};
use rand::Rng;

/// Encoder hyperparameters.
#[derive(Clone, Debug)]
pub struct EncoderConfig {
    /// Label alphabet size (1 = unlabeled).
    pub num_labels: usize,
    /// Convolution output dimensions.
    pub conv_dims: Vec<usize>,
    /// Final embedding dimension.
    pub embed_dim: usize,
    /// Use GCN convolutions instead of GIN.
    pub use_gcn: bool,
}

impl EncoderConfig {
    /// A small CPU-friendly default.
    #[must_use]
    pub fn small(num_labels: usize) -> Self {
        EncoderConfig {
            num_labels: num_labels.max(1),
            conv_dims: vec![16, 8],
            embed_dim: 8,
            use_gcn: false,
        }
    }
}

enum Conv {
    Gin(GinLayer),
    Gcn(Linear),
}

/// A siamese node-embedding encoder.
pub struct Encoder {
    config: EncoderConfig,
    convs: Vec<Conv>,
    mlp: Mlp,
}

impl Encoder {
    /// Registers the encoder's parameters in `store`.
    pub fn new<R: Rng>(
        store: &mut ParamStore,
        name: &str,
        config: EncoderConfig,
        rng: &mut R,
    ) -> Self {
        let mut convs = Vec::new();
        let mut in_dim = if config.num_labels <= 1 {
            1
        } else {
            config.num_labels
        };
        let feat_dim = in_dim;
        for (i, &out) in config.conv_dims.iter().enumerate() {
            let conv = if config.use_gcn {
                Conv::Gcn(Linear::new(
                    store,
                    &format!("{name}.gcn{i}"),
                    in_dim,
                    out,
                    rng,
                ))
            } else {
                Conv::Gin(GinLayer::new(
                    store,
                    &format!("{name}.gin{i}"),
                    in_dim,
                    out,
                    rng,
                ))
            };
            convs.push(conv);
            in_dim = out;
        }
        let concat_dim = feat_dim + config.conv_dims.iter().sum::<usize>();
        let mlp = Mlp::new(
            store,
            &format!("{name}.mlp"),
            &[concat_dim, concat_dim, config.embed_dim],
            Activation::Relu,
            Activation::None,
            rng,
        );
        Encoder { config, convs, mlp }
    }

    /// Final embedding dimension.
    #[must_use]
    pub fn out_dim(&self) -> usize {
        self.config.embed_dim
    }

    fn features(&self, g: &Graph) -> Matrix {
        let n = g.num_nodes();
        let k = self.config.num_labels;
        if k <= 1 {
            return Matrix::filled(n, 1, 1.0);
        }
        let mut x = Matrix::zeros(n, k);
        for u in 0..n {
            let l = g.label(u as u32).0 as usize;
            assert!(l < k, "label {l} outside alphabet {k}");
            x[(u, l)] = 1.0;
        }
        x
    }

    fn adjacency(&self, g: &Graph) -> Matrix {
        let n = g.num_nodes();
        let mut a = Matrix::from_vec(n, n, g.adjacency_matrix());
        if self.config.use_gcn {
            for i in 0..n {
                a[(i, i)] = 1.0;
            }
            let deg = a.row_sums();
            a = Matrix::from_fn(n, n, |i, j| a[(i, j)] / (deg[i] * deg[j]).sqrt());
        }
        a
    }

    /// Embeds one graph into `n x embed_dim` node embeddings.
    pub fn embed(&self, tape: &Tape, binds: &Bindings<'_>, g: &Graph) -> Var {
        let x0 = tape.constant(self.features(g));
        let adj = tape.constant(self.adjacency(g));
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
        self.mlp.forward(tape, binds, concat)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ged_graph::generate;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn embed_shapes() {
        let mut rng = SmallRng::seed_from_u64(1);
        for use_gcn in [false, true] {
            let mut store = ParamStore::new();
            let cfg = EncoderConfig {
                use_gcn,
                ..EncoderConfig::small(3)
            };
            let enc = Encoder::new(&mut store, "e", cfg, &mut rng);
            let g = generate::random_connected(6, 2, &[0.5, 0.3, 0.2], &mut rng);
            let tape = Tape::new();
            let binds = store.bind(&tape);
            let h = enc.embed(&tape, &binds, &g);
            assert_eq!(tape.shape(h), (6, enc.out_dim()));
            assert!(tape.value(h).is_finite());
        }
    }
}
