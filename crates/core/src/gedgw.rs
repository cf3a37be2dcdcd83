//! GEDGW: unsupervised GED via optimal transport + Gromov–Wasserstein
//! discrepancy (Section 5 of the paper).
//!
//! The smaller graph is padded with `n2 - n1` label-less, edge-less dummy
//! nodes so that both graphs have `n` nodes, and GED computation becomes the
//! quadratic program of Eq. (17):
//!
//! ```text
//! min_{π ∈ Π(1_n, 1_n)}  ⟨π, M⟩ + ½ ⟨π, L(A1, A2) ⊗ π⟩
//! ```
//!
//! * the linear term (`M` = node-label mismatch costs, dummies always
//!   mismatch) prices node relabelings and insertions — an OT problem;
//! * the quadratic term prices edge insertions/deletions — a GW problem.
//!
//! For a binary permutation `π` the objective is *exactly* the edit cost of
//! the corresponding node matching (Invariant B, tested below);
//! relaxing to the Birkhoff polytope and running conditional gradient
//! (Algorithm 2) yields a fractional coupling whose objective approximates
//! GED and whose entries rank node-matching confidence for GEP generation.

use crate::kbest::{kbest_edit_path, KBestResult};
use crate::pairs::ordered;
use crate::workspace::GedWorkspace;
use ged_graph::Graph;
use ged_linalg::Matrix;
use ged_ot::cg::{conditional_gradient_in, CgOptions};

/// Options for the GEDGW solver.
#[derive(Clone, Copy, Debug)]
pub struct GedgwOptions {
    /// Maximum conditional-gradient iterations (paper's `K`).
    pub max_iter: usize,
    /// Convergence tolerance on the objective.
    pub tol: f64,
}

impl Default for GedgwOptions {
    fn default() -> Self {
        GedgwOptions {
            max_iter: 50,
            tol: 1e-9,
        }
    }
}

/// Result of a GEDGW solve.
#[derive(Clone, Debug)]
pub struct GedgwResult {
    /// The GED estimate (objective value at the final coupling; generally
    /// fractional).
    pub ged: f64,
    /// Coupling restricted to real nodes of the smaller graph
    /// (`n1 x n2`, rows = smaller graph in the *ordered* orientation).
    pub coupling: Matrix,
    /// Whether the input pair was swapped to enforce `n1 <= n2`.
    pub swapped: bool,
    /// Conditional-gradient iterations performed.
    pub iterations: usize,
}

/// The GEDGW solver for one graph pair.
pub struct Gedgw<'a> {
    g1: &'a Graph,
    g2: &'a Graph,
    swapped: bool,
    options: GedgwOptions,
}

impl<'a> Gedgw<'a> {
    /// Prepares a solver for `(g1, g2)` (order-insensitive).
    #[must_use]
    pub fn new(g1: &'a Graph, g2: &'a Graph) -> Self {
        let (a, b, swapped) = ordered(g1, g2);
        Gedgw {
            g1: a,
            g2: b,
            swapped,
            options: GedgwOptions::default(),
        }
    }

    /// Overrides the solver options.
    #[must_use]
    pub fn with_options(mut self, options: GedgwOptions) -> Self {
        self.options = options;
        self
    }

    /// Builds the node-cost matrix `M` (`n x n`, dummy rows cost 1 against
    /// every real node: matching them is a node insertion).
    #[must_use]
    pub fn node_cost_matrix(&self) -> Matrix {
        let n1 = self.g1.num_nodes();
        let n = self.g2.num_nodes();
        Matrix::from_fn(n, n, |i, k| {
            if i >= n1 {
                1.0 // dummy node of G1 matched to v_k: insertion of v_k
            } else if self.g1.label(i as u32) == self.g2.label(k as u32) {
                0.0
            } else {
                1.0 // relabel
            }
        })
    }

    /// Runs conditional gradient and returns the GED estimate and coupling.
    #[must_use]
    pub fn solve(&self) -> GedgwResult {
        self.solve_in(&mut GedWorkspace::new())
    }

    /// [`Self::solve`] with every problem matrix and solver buffer drawn
    /// from `ws`, so batched callers allocate per thread instead of per
    /// pair. Bit-identical to [`Self::solve`] for any (possibly dirty)
    /// workspace.
    #[must_use]
    pub fn solve_in(&self, ws: &mut GedWorkspace) -> GedgwResult {
        let n1 = self.g1.num_nodes();
        let n = self.g2.num_nodes();
        if n == 0 {
            return GedgwResult {
                ged: 0.0,
                coupling: Matrix::zeros(0, 0),
                swapped: self.swapped,
                iterations: 0,
            };
        }
        let GedWorkspace {
            ot,
            m,
            a1,
            a2,
            pi,
            csr1,
            csr2,
            ..
        } = ws;
        csr1.rebuild_from(self.g1);
        csr2.rebuild_from(self.g2);

        // Node-cost matrix M over the flat label arenas (dummy rows of the
        // padded G1 always mismatch: matching them is a node insertion).
        let (l1, l2) = (csr1.labels(), csr2.labels());
        m.resize_zeroed(n, n);
        for i in 0..n {
            let row = m.row_mut(i);
            let li = l1.get(i);
            for (k, lk) in l2.iter().enumerate() {
                row[k] = if li != Some(lk) { 1.0 } else { 0.0 };
            }
        }
        // Padded adjacencies straight from the flat neighbor arenas
        // (dummy nodes of G1 are edge-less, so their rows stay zero).
        a1.resize_zeroed(n, n);
        for u in 0..n1 {
            let row = a1.row_mut(u);
            for &v in csr1.neighbors(u as u32) {
                row[v as usize] = 1.0;
            }
        }
        a2.resize_zeroed(n, n);
        for u in 0..n {
            let row = a2.row_mut(u);
            for &v in csr2.neighbors(u as u32) {
                row[v as usize] = 1.0;
            }
        }

        // Uniform doubly-stochastic start (the barycenter of the polytope).
        pi.resize_zeroed(n, n);
        pi.as_mut_slice().fill(1.0 / n as f64);
        let opts = CgOptions {
            max_iter: self.options.max_iter,
            tol: self.options.tol,
            quad_weight: 1.0,
        };
        let run = conditional_gradient_in(m, a1, a2, pi, &opts, ot);

        // Keep only the real (non-dummy) rows for downstream GEP generation.
        let coupling = Matrix::from_fn(n1, n, |i, k| pi[(i, k)]);
        GedgwResult {
            ged: run.objective,
            coupling,
            swapped: self.swapped,
            iterations: run.iterations,
        }
    }

    /// Full objective value at an arbitrary padded coupling (exposed for
    /// tests and the ensemble).
    #[must_use]
    pub fn objective_at(&self, padded_coupling: &Matrix) -> f64 {
        let n = self.g2.num_nodes();
        let m = self.node_cost_matrix();
        let a1 = Matrix::from_vec(n, n, self.g1.adjacency_matrix_padded(n));
        let a2 = Matrix::from_vec(n, n, self.g2.adjacency_matrix());
        ged_ot::cg::qp_objective(&m, &a1, &a2, 1.0, padded_coupling)
    }

    /// Solves and generates a feasible edit path with the k-best matching
    /// framework. Returns the solve result plus the path result (path is in
    /// the ordered orientation: smaller graph -> larger graph).
    #[must_use]
    pub fn solve_with_path(&self, k: usize) -> (GedgwResult, KBestResult) {
        let res = self.solve();
        let path = kbest_edit_path(self.g1, self.g2, &res.coupling, k);
        (res, path)
    }

    /// The ordered graphs `(smaller, larger)` this solver works on.
    #[must_use]
    pub fn graphs(&self) -> (&Graph, &Graph) {
        (self.g1, self.g2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ged_graph::{generate, Label, NodeMapping};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn figure1() -> (Graph, Graph) {
        let g1 = Graph::from_edges(
            vec![Label(1), Label(1), Label(2)],
            &[(0, 1), (0, 2), (1, 2)],
        );
        let g2 = Graph::from_edges(
            vec![Label(1), Label(1), Label(3), Label(4)],
            &[(0, 1), (0, 2), (2, 3)],
        );
        (g1, g2)
    }

    /// Extends a mapping of `g1`'s real nodes into a full padded permutation
    /// (dummies take the remaining columns) and returns its binary coupling.
    fn padded_permutation(mapping: &NodeMapping, n: usize) -> Matrix {
        let mut used = vec![false; n];
        let mut pi = Matrix::zeros(n, n);
        for (u, &v) in mapping.as_slice().iter().enumerate() {
            pi[(u, v as usize)] = 1.0;
            used[v as usize] = true;
        }
        let mut next = mapping.len();
        for v in 0..n {
            if !used[v] {
                pi[(next, v)] = 1.0;
                next += 1;
            }
        }
        pi
    }

    #[test]
    fn invariant_b_objective_equals_edit_cost() {
        // For every injective mapping of the Figure 1 pair, the GEDGW
        // objective at the padded permutation equals the induced edit cost.
        let (g1, g2) = figure1();
        let solver = Gedgw::new(&g1, &g2);
        for a in 0..4u32 {
            for b in 0..4u32 {
                for c in 0..4u32 {
                    if a != b && a != c && b != c {
                        let m = NodeMapping::new(vec![a, b, c]);
                        let pi = padded_permutation(&m, 4);
                        let obj = solver.objective_at(&pi);
                        let cost = m.induced_cost(&g1, &g2) as f64;
                        assert!(
                            (obj - cost).abs() < 1e-9,
                            "mapping {m:?}: objective {obj} vs cost {cost}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn invariant_b_random_pairs() {
        let mut rng = SmallRng::seed_from_u64(31);
        for _ in 0..30 {
            let n1 = rng.gen_range(2..=5);
            let n2 = rng.gen_range(n1..=6);
            let g1 = generate::random_connected(n1, 1, &[0.4, 0.3, 0.3], &mut rng);
            let g2 = generate::random_connected(n2, 1, &[0.4, 0.3, 0.3], &mut rng);
            let solver = Gedgw::new(&g1, &g2);
            // Random injective mapping.
            let mut cols: Vec<u32> = (0..n2 as u32).collect();
            use rand::seq::SliceRandom;
            cols.shuffle(&mut rng);
            let m = NodeMapping::new(cols[..n1].to_vec());
            let pi = padded_permutation(&m, n2);
            let obj = solver.objective_at(&pi);
            assert!((obj - m.induced_cost(&g1, &g2) as f64).abs() < 1e-9);
        }
    }

    #[test]
    fn identical_graphs_yield_zero() {
        let (g1, _) = figure1();
        let res = Gedgw::new(&g1, &g1).solve();
        assert!(res.ged.abs() < 1e-9, "ged {}", res.ged);
    }

    #[test]
    fn figure1_estimate_close_to_exact() {
        let (g1, g2) = figure1();
        let res = Gedgw::new(&g1, &g2).solve();
        // Exact GED is 4; the CG local optimum lands at (or near) it.
        assert!(res.ged <= 6.0 && res.ged >= 2.0, "ged {}", res.ged);
        let (_, path) = Gedgw::new(&g1, &g2).solve_with_path(20);
        assert_eq!(path.ged, 4, "k-best rounding should recover the exact GED");
    }

    #[test]
    fn swap_is_detected_and_symmetric() {
        let (g1, g2) = figure1();
        let fwd = Gedgw::new(&g1, &g2).solve();
        let bwd = Gedgw::new(&g2, &g1).solve();
        assert!(!fwd.swapped);
        assert!(bwd.swapped);
        assert!((fwd.ged - bwd.ged).abs() < 1e-9);
    }

    #[test]
    fn coupling_shape_is_unpadded() {
        let (g1, g2) = figure1();
        let res = Gedgw::new(&g1, &g2).solve();
        assert_eq!(res.coupling.shape(), (3, 4));
    }

    #[test]
    fn perturbed_pairs_track_delta() {
        // GEDGW on (G, perturb(G, Δ)) should land near Δ for small Δ.
        let mut rng = SmallRng::seed_from_u64(32);
        let mut total_err = 0.0;
        let trials = 15;
        for _ in 0..trials {
            let g = generate::random_connected(7, 2, &[0.5, 0.3, 0.2], &mut rng);
            let p = generate::perturb_with_edits(&g, 3, 3, &mut rng);
            let (_, path) = Gedgw::new(&g, &p.graph).solve_with_path(20);
            // Feasible estimate: path length >= true GED, and true GED <= applied.
            assert!(
                path.ged <= p.applied + 4,
                "way off: {} vs {}",
                path.ged,
                p.applied
            );
            total_err += (path.ged as f64 - p.applied as f64).abs();
        }
        assert!(
            total_err / trials as f64 <= 1.5,
            "avg err {}",
            total_err / trials as f64
        );
    }
}
