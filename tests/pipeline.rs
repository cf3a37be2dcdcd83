//! Cross-crate integration tests: the full pipeline from synthetic
//! datasets through training to evaluation, plus the feasibility and
//! ordering invariants that tie the methods together (the per-invariant
//! properties are in `tests/properties.rs`).

use ot_ged::baselines::astar::{astar_beam, astar_exact};
use ot_ged::baselines::classic::{classic_ged, hungarian_ged, vj_ged};
use ot_ged::baselines::noah::noah_like;
use ot_ged::core::pairs::GedPair;
use ot_ged::eval::metrics::{accuracy, mae, PairOutcome};
use ot_ged::graph::generate;
use ot_ged::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn training_pairs(count: usize, rng: &mut SmallRng) -> Vec<GedPair> {
    (0..count)
        .map(|i| {
            let g = generate::random_connected(5 + i % 4, 1, &[0.5, 0.3, 0.2], rng);
            let p = generate::perturb_with_edits(&g, 1 + i % 4, 3, rng);
            GedPair::supervised(g, p.graph, p.applied as f64, p.mapping)
        })
        .collect()
}

/// Every approximate method that realizes an edit path must upper-bound the
/// exact GED, and the exact GED must match brute force (via A* internal
/// agreement across methods).
#[test]
fn feasibility_hierarchy_across_methods() {
    let mut rng = SmallRng::seed_from_u64(1);
    for _ in 0..12 {
        let g1 = generate::random_connected(rng.gen_range(3..=6), 1, &[0.5, 0.5], &mut rng);
        let g2 = generate::random_connected(rng.gen_range(3..=7), 2, &[0.5, 0.5], &mut rng);
        let exact = astar_exact(&g1, &g2).ged;

        let beam = astar_beam(&g1, &g2, 20).ged;
        let hung = hungarian_ged(&g1, &g2).ged;
        let vj = vj_ged(&g1, &g2).ged;
        let classic = classic_ged(&g1, &g2).ged;
        let (_, gw_path) = Gedgw::new(&g1, &g2).solve_with_path(16);

        for (name, val) in [
            ("beam", beam),
            ("hungarian", hung),
            ("vj", vj),
            ("classic", classic),
            ("gedgw_path", gw_path.ged),
        ] {
            assert!(val >= exact, "{name} = {val} below exact {exact}");
        }
        assert!(classic <= hung.min(vj));
    }
}

/// GEDGW's fractional objective relaxes a minimization whose integral
/// optimum is the exact GED, so the k-best-rounded path squeezed between
/// them pins all three in order.
#[test]
fn gedgw_objective_vs_exact_vs_path() {
    let mut rng = SmallRng::seed_from_u64(2);
    for _ in 0..10 {
        let g1 = generate::random_connected(5, 1, &[0.4, 0.6], &mut rng);
        let g2 = generate::random_connected(6, 2, &[0.4, 0.6], &mut rng);
        let exact = astar_exact(&g1, &g2).ged as f64;
        let (solve, path) = Gedgw::new(&g1, &g2).solve_with_path(24);
        assert!(path.ged as f64 >= exact);
        // The CG local optimum is near the exact value on small graphs.
        assert!(
            (solve.ged - exact).abs() <= 4.0,
            "objective {} vs exact {exact}",
            solve.ged
        );
    }
}

/// The trained pipeline: GEDIOT learns, GEDHOT never does worse than the
/// better of its two members, and both produce verifiable edit paths.
#[test]
fn trained_ensemble_end_to_end() {
    let mut rng = SmallRng::seed_from_u64(3);
    let pairs = training_pairs(30, &mut rng);
    let mut model = Gediot::new(GediotConfig::small(3), &mut rng);
    let before = model.evaluate_loss(&pairs);
    model.train(&pairs, 6, &mut rng);
    assert!(
        model.evaluate_loss(&pairs) < before,
        "training must reduce loss"
    );

    let ensemble = Gedhot::new(&model);
    for pair in pairs.iter().take(6) {
        let pred = ensemble.predict(&pair.g1, &pair.g2);
        assert!((pred.ged - pred.gediot_ged.min(pred.gedgw_ged)).abs() < 1e-12);

        let (_, path, _) = ensemble.predict_with_path(&pair.g1, &pair.g2, 8);
        let rebuilt = path.path.apply(&pair.g1).unwrap();
        assert!(ot_ged::graph::isomorphism::are_isomorphic(
            &rebuilt, &pair.g2
        ));
    }
}

/// Noah-like guided beam and GEDGNN's k-best paths are feasible and agree
/// with the mapping-induced cost formula.
#[test]
fn guided_search_and_neural_paths_are_consistent() {
    use ot_ged::baselines::gedgnn::{Gedgnn, GedgnnConfig};
    let mut rng = SmallRng::seed_from_u64(4);
    let pairs = training_pairs(16, &mut rng);
    let mut gedgnn = Gedgnn::new(GedgnnConfig::small(3), &mut rng);
    gedgnn.train(&pairs, 3, &mut rng);

    for pair in pairs.iter().take(5) {
        let pred = gedgnn.predict(&pair.g1, &pair.g2);
        let noah = noah_like(&pair.g1, &pair.g2, &pred.matching, 6, 1.0);
        assert_eq!(noah.mapping.induced_cost(&pair.g1, &pair.g2), noah.ged);
        let exact = astar_exact(&pair.g1, &pair.g2).ged;
        assert!(noah.ged >= exact);

        let (_, path) = gedgnn.predict_with_path(&pair.g1, &pair.g2, 6);
        assert!(path.ged >= exact);
    }
}

/// Metric plumbing: evaluating a perfect oracle gives perfect scores;
/// evaluating a constant predictor does not.
#[test]
fn metrics_discriminate_oracle_from_constant() {
    let mut rng = SmallRng::seed_from_u64(5);
    let pairs = training_pairs(20, &mut rng);
    let oracle: Vec<PairOutcome> = pairs
        .iter()
        .map(|p| PairOutcome {
            pred: p.ged.unwrap(),
            gt: p.ged.unwrap(),
        })
        .collect();
    assert_eq!(mae(&oracle), 0.0);
    assert_eq!(accuracy(&oracle), 1.0);

    let constant: Vec<PairOutcome> = pairs
        .iter()
        .map(|p| PairOutcome {
            pred: 2.0,
            gt: p.ged.unwrap(),
        })
        .collect();
    assert!(mae(&constant) > 0.0);
    assert!(accuracy(&constant) < 1.0);
}

/// GED is symmetric through the whole public API.
#[test]
fn symmetry_through_public_api() {
    let mut rng = SmallRng::seed_from_u64(6);
    let g1 = generate::random_connected(4, 1, &[0.5, 0.5], &mut rng);
    let g2 = generate::random_connected(7, 2, &[0.5, 0.5], &mut rng);

    assert_eq!(astar_exact(&g1, &g2).ged, astar_exact(&g2, &g1).ged);
    assert_eq!(classic_ged(&g1, &g2).ged, classic_ged(&g2, &g1).ged);
    let a = Gedgw::new(&g1, &g2).solve().ged;
    let b = Gedgw::new(&g2, &g1).solve().ged;
    assert!((a - b).abs() < 1e-9);

    let model = Gediot::new(GediotConfig::small(2), &mut rng);
    let x = model.predict(&g1, &g2).ged;
    let y = model.predict(&g2, &g1).ged;
    assert!((x - y).abs() < 1e-12);
}

/// Dataset snapshot I/O round-trips through JSON.
#[test]
fn dataset_io_roundtrip() {
    let mut rng = SmallRng::seed_from_u64(7);
    let ds = GraphDataset::aids_like(12, &mut rng);
    let dir = std::env::temp_dir().join("ot_ged_integration");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("snapshot.json");
    ot_ged::graph::io::save_dataset(&ds, &path).unwrap();
    let loaded = ot_ged::graph::io::load_dataset(&path).unwrap();
    assert_eq!(ds.len(), loaded.len());
    assert!(
        ds.graphs().eq(loaded.graphs()),
        "graphs round-trip in order"
    );
    std::fs::remove_file(&path).ok();
}
