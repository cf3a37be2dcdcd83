//! Property-based tests of the core invariants, spanning several crates.
//! Each property's doc comment names its invariant (A–F); unit tests in
//! the owning crate check the same letters in place (e.g. GEDGW's
//! `invariant_b_objective_equals_edit_cost`).
//!
//! The build environment is offline, so instead of `proptest` these use a
//! hand-rolled generator loop: each property runs over `CASES` seeded
//! random instances, and every assertion message carries the case seed so
//! a failure is exactly reproducible.

use ot_ged::baselines::astar::astar_exact;
use ot_ged::core::gedgw::Gedgw;
use ot_ged::core::kbest::kbest_edit_path;
use ot_ged::core::lower_bound::label_set_lower_bound;
use ot_ged::graph::isomorphism::are_isomorphic;
use ot_ged::linalg::{lsap_min, lsap_min_munkres, Matrix};
use ot_ged::ot::sinkhorn::sinkhorn_dummy_row;
use ot_ged::prelude::*;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Cases per property (mirrors the old `ProptestConfig::with_cases(48)`).
const CASES: u64 = 48;

/// A small connected labeled graph: random spanning tree plus a few extra
/// edges, labels drawn uniformly from `0..labels`.
fn small_graph(max_n: usize, labels: u32, rng: &mut SmallRng) -> Graph {
    let n = rng.gen_range(2..=max_n);
    let mut g = Graph::new();
    for _ in 0..n {
        g.add_node(Label(rng.gen_range(0..labels)));
    }
    for i in 1..n as u32 {
        let j = rng.gen_range(0..i);
        g.add_edge(i, j);
    }
    for _ in 0..n {
        let u = rng.gen_range(0..n as u32);
        let v = rng.gen_range(0..n as u32);
        if u != v && !g.has_edge(u, v) {
            g.add_edge(u, v);
        }
    }
    g
}

/// Invariant C/F: exact A* GED is symmetric, zero iff isomorphic, and
/// bounded below by the label-set lower bound.
#[test]
fn exact_ged_is_a_sane_metric() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0x5EED_0001 + case);
        let g1 = small_graph(5, 3, &mut rng);
        let g2 = small_graph(6, 3, &mut rng);
        let d12 = astar_exact(&g1, &g2).ged;
        let d21 = astar_exact(&g2, &g1).ged;
        assert_eq!(d12, d21, "case {case}: GED not symmetric");
        assert!(
            d12 >= label_set_lower_bound(&g1, &g2),
            "case {case}: GED below label-set lower bound"
        );
        assert_eq!(astar_exact(&g1, &g1).ged, 0, "case {case}: d(g,g) != 0");
        if d12 == 0 {
            assert!(
                are_isomorphic(&g1, &g2),
                "case {case}: GED 0 but not isomorphic"
            );
        }
    }
}

/// Invariant F: triangle inequality of the exact GED.
#[test]
fn exact_ged_triangle_inequality() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0x5EED_0002 + case);
        let a = small_graph(4, 2, &mut rng);
        let b = small_graph(4, 2, &mut rng);
        let c = small_graph(4, 2, &mut rng);
        let ab = astar_exact(&a, &b).ged;
        let bc = astar_exact(&b, &c).ged;
        let ac = astar_exact(&a, &c).ged;
        assert!(ac <= ab + bc, "case {case}: {ac} > {ab} + {bc}");
    }
}

/// Invariant A: every edit path produced by the k-best framework is
/// applicable and lands on the target graph.
#[test]
fn kbest_paths_always_verify() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0x5EED_0003 + case);
        let g1 = small_graph(5, 3, &mut rng);
        let g2 = small_graph(6, 3, &mut rng);
        let (a, b, _) = ot_ged::core::pairs::ordered(&g1, &g2);
        let pi = Matrix::from_fn(a.num_nodes(), b.num_nodes(), |_, _| rng.gen_range(0.0..1.0));
        let res = kbest_edit_path(a, b, &pi, 6);
        assert_eq!(
            res.path.len(),
            res.ged,
            "case {case}: path length != reported GED"
        );
        let rebuilt = res.path.apply(a).unwrap();
        assert!(
            are_isomorphic(&rebuilt, b),
            "case {case}: path does not land on target"
        );
        assert!(
            res.ged >= astar_exact(a, b).ged,
            "case {case}: heuristic path beats exact GED"
        );
    }
}

/// Invariant B (solver side): the GEDGW relaxed solve is finite,
/// non-negative, and its coupling has the ordered pair's shape.
#[test]
fn gedgw_solve_is_sane() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0x5EED_0004 + case);
        let g1 = small_graph(5, 3, &mut rng);
        let g2 = small_graph(5, 3, &mut rng);
        let res = Gedgw::new(&g1, &g2).solve();
        assert!(
            res.ged.is_finite(),
            "case {case}: non-finite GEDGW objective"
        );
        assert!(res.ged >= -1e-9, "case {case}: negative GEDGW objective");
        let (a, b, _) = ot_ged::core::pairs::ordered(&g1, &g2);
        assert_eq!(
            res.coupling.shape(),
            (a.num_nodes(), b.num_nodes()),
            "case {case}: coupling shape mismatch"
        );
    }
}

/// Invariant D: Sinkhorn's dummy-row coupling lies in the relaxed
/// node-matching polytope for arbitrary bounded cost matrices.
#[test]
fn sinkhorn_dummy_row_polytope() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0x5EED_0005 + case);
        let n1 = rng.gen_range(1usize..=5);
        let n2 = n1 + rng.gen_range(0usize..=3);
        let cost = Matrix::from_fn(n1, n2, |_, _| rng.gen_range(-1.0..1.0));
        let res = sinkhorn_dummy_row(&cost, 0.1, 1000);
        for s in res.coupling.row_sums() {
            assert!((s - 1.0).abs() < 1e-9, "case {case}: row sum {s}");
        }
        for s in res.coupling.col_sums() {
            // Rows are exact after the final φ-update; columns converge
            // geometrically and may retain a small residual.
            assert!(s <= 1.0 + 1e-3, "case {case}: col sum {s}");
        }
        assert!(
            res.coupling.min() >= 0.0,
            "case {case}: negative coupling entry"
        );
    }
}

/// The two independent LSAP solvers agree on arbitrary cost matrices.
#[test]
fn lsap_solvers_agree() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0x5EED_0006 + case);
        let n = rng.gen_range(1usize..=6);
        let m = n + rng.gen_range(0usize..=3);
        let cost = Matrix::from_fn(n, m, |_, _| rng.gen_range(-5.0..5.0));
        let a = lsap_min(&cost);
        let b = lsap_min_munkres(&cost);
        assert!(
            (a.cost - b.cost).abs() < 1e-9,
            "case {case}: {} vs {}",
            a.cost,
            b.cost
        );
    }
}

/// EPGen realizes exactly the induced cost for random mappings.
#[test]
fn epgen_cost_identity() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0x5EED_0007 + case);
        let g1 = small_graph(5, 3, &mut rng);
        let g2 = small_graph(6, 3, &mut rng);
        let (a, b, _) = ot_ged::core::pairs::ordered(&g1, &g2);
        let mut cols: Vec<u32> = (0..b.num_nodes() as u32).collect();
        cols.shuffle(&mut rng);
        let mapping = NodeMapping::new(cols[..a.num_nodes()].to_vec());
        let path = mapping.edit_path(a, b);
        assert_eq!(
            path.len(),
            mapping.induced_cost(a, b),
            "case {case}: EPGen length != induced cost"
        );
        let rebuilt = path.apply(a).unwrap();
        assert!(
            are_isomorphic(&rebuilt, b),
            "case {case}: EPGen path misses target"
        );
    }
}
