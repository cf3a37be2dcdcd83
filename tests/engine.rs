//! Integration tests for the `GedEngine` query API.
//!
//! The load-bearing contract: `GedQuery::TopK` over a `GraphStore` must
//! return exactly the ranking a brute-force per-pair evaluation produces
//! (on a ≥ 50-graph synthetic dataset) while invoking the solver on
//! strictly fewer candidates, and every documented error path must
//! surface as a typed `GedError` instead of a panic.

use ot_ged::core::pairs::GedPair;
use ot_ged::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// An engine over the training-free solvers (GEDGW default), so tests
/// need no model training.
fn engine() -> GedEngine {
    ged_testkit::engine_builder(&[MethodKind::Gedgw])
        .beam_width(8)
        .build()
        .expect("valid configuration")
}

/// The ranking the engine promises to reproduce exactly.
fn brute_force(store: &GraphStore, query: &Graph) -> Vec<Neighbor> {
    ged_testkit::brute_force_refined(store, query, &GedgwSolver, None)
}

#[test]
fn top_k_matches_brute_force_ranking_on_50_graph_store() {
    let mut rng = SmallRng::seed_from_u64(20_260_728);
    let dataset = GraphDataset::aids_like(50, &mut rng);
    assert!(dataset.len() >= 50);
    let query = GraphDataset::aids_like(1, &mut rng)
        .graphs()
        .next()
        .unwrap()
        .clone();
    let brute = brute_force(&dataset, &query);

    let engine = engine();
    for k in [1usize, 5, 10, 50] {
        let response = engine
            .query(GedQuery::TopK {
                query: &query,
                store: (&dataset).into(),
                k,
            })
            .expect("valid top-k query");
        let result = response.into_top_k().expect("TopK yields TopK");
        assert_eq!(result.neighbors.len(), k.min(dataset.len()));
        for (n, want) in result.neighbors.iter().zip(&brute) {
            assert_eq!(n.id, want.id, "k={k}: rank order differs");
            assert_eq!(
                n.ged.to_bits(),
                want.ged.to_bits(),
                "k={k}: distance differs at id {}",
                n.id
            );
        }
        // Filter–verify accounting always closes.
        assert_eq!(result.stats.candidates, dataset.len());
        assert_eq!(
            result.stats.pruned() + result.stats.verified,
            result.stats.candidates
        );
    }
    // For small k the lower bounds must save solver invocations.
    let result = engine.top_k(&query, &dataset, 5).expect("valid query");
    assert!(
        result.stats.verified < dataset.len(),
        "filter–verify must call the solver on strictly fewer pairs: {:?}",
        result.stats
    );
    assert!(result.stats.pruned() > 0, "stats: {:?}", result.stats);
}

#[test]
fn distance_matrix_agrees_with_per_pair_evaluation() {
    let mut rng = SmallRng::seed_from_u64(77);
    let dataset = GraphDataset::linux_like(8, &mut rng);
    let engine = engine();
    let m = engine
        .query(GedQuery::Matrix {
            store: (&dataset).into(),
        })
        .unwrap()
        .into_matrix()
        .unwrap();
    assert_eq!(m.size(), dataset.len());
    assert_eq!(m.ids(), dataset.ids().as_slice());
    let graphs: Vec<&Graph> = dataset.graphs().collect();
    for i in 0..dataset.len() {
        assert_eq!(m.get(i, i), 0.0, "diagonal must be zero");
        for j in (i + 1)..dataset.len() {
            let pair = GedPair::new(graphs[i].clone(), graphs[j].clone());
            let want = GedgwSolver.predict(&pair).ged;
            assert_eq!(m.get(i, j).to_bits(), want.to_bits(), "({i},{j})");
            assert_eq!(m.get(j, i).to_bits(), want.to_bits(), "symmetry ({j},{i})");
        }
    }
}

#[test]
fn unknown_method_string_is_a_typed_error() {
    let err = "NoSuchMethod".parse::<MethodKind>().unwrap_err();
    assert_eq!(err, GedError::UnknownMethod("NoSuchMethod".to_string()));
    // And the happy path a CLI would take:
    assert_eq!("gedgw".parse::<MethodKind>().unwrap(), MethodKind::Gedgw);
}

#[test]
fn unregistered_method_is_a_typed_error() {
    let engine = engine();
    let mut rng = SmallRng::seed_from_u64(3);
    let ds = GraphDataset::aids_like(2, &mut rng);
    let gs: Vec<&Graph> = ds.graphs().collect();
    let pair = GedPair::new(gs[0].clone(), gs[1].clone());
    let err = engine
        .query_as(MethodKind::Gediot, GedQuery::Value { pair: &pair })
        .unwrap_err();
    assert_eq!(err, GedError::MethodNotRegistered(MethodKind::Gediot));
}

#[test]
fn empty_graph_queries_error_instead_of_panicking() {
    let engine = engine();
    let mut rng = SmallRng::seed_from_u64(4);
    let ds = GraphDataset::aids_like(3, &mut rng);
    let empty = Graph::new();

    let err = engine.ged(&empty, ds.graphs().next().unwrap()).unwrap_err();
    assert_eq!(err, GedError::EmptyGraph("g1".to_string()));

    let err = engine
        .query(GedQuery::TopK {
            query: &empty,
            store: (&ds).into(),
            k: 2,
        })
        .unwrap_err();
    assert_eq!(err, GedError::EmptyGraph("query".to_string()));

    // A node-less graph *inside* the store is caught by the signature
    // scan and named by id.
    let mut ds = ds;
    let bad = ds.insert(Graph::new());
    let query = ds.graphs().next().unwrap().clone();
    let err = engine.top_k(&query, &ds, 2).unwrap_err();
    assert_eq!(err, GedError::EmptyGraph(format!("store graph {bad}")));
}

#[test]
fn zero_k_and_empty_stores_are_typed_errors() {
    let engine = engine();
    let mut rng = SmallRng::seed_from_u64(5);
    let ds = GraphDataset::aids_like(3, &mut rng);
    let gs: Vec<&Graph> = ds.graphs().collect();
    let pair = GedPair::new(gs[0].clone(), gs[1].clone());
    let query = gs[0].clone();

    let err = engine
        .query(GedQuery::TopK {
            query: &query,
            store: (&ds).into(),
            k: 0,
        })
        .unwrap_err();
    assert_eq!(err, GedError::InvalidK { what: "top-k" });

    let err = engine
        .query(GedQuery::Path {
            pair: &pair,
            k: Some(0),
        })
        .unwrap_err();
    assert_eq!(err, GedError::InvalidK { what: "beam width" });

    let empty = GraphStore::new();
    let err = engine
        .query(GedQuery::TopK {
            query: &query,
            store: (&empty).into(),
            k: 3,
        })
        .unwrap_err();
    assert_eq!(err, GedError::EmptyStore);
    let err = engine
        .query(GedQuery::Range {
            query: &query,
            store: (&empty).into(),
            tau: 3.0,
        })
        .unwrap_err();
    assert_eq!(err, GedError::EmptyStore);
    let err = engine
        .query(GedQuery::Matrix {
            store: (&empty).into(),
        })
        .unwrap_err();
    assert_eq!(err, GedError::EmptyStore);
}

#[test]
fn foreign_and_removed_ids_are_typed_errors() {
    let engine = engine();
    let mut rng = SmallRng::seed_from_u64(8);
    let mut ds = GraphDataset::aids_like(4, &mut rng);
    let other = GraphDataset::aids_like(2, &mut rng);
    let ids = ds.ids();

    // Foreign id: minted by a different store.
    let foreign = other.ids()[0];
    assert_eq!(
        StoreRef::from(&ds).get(foreign).unwrap_err(),
        GedError::UnknownGraphId(foreign)
    );

    // Removed id: was valid, is not anymore.
    ds.remove(ids[1]);
    assert_eq!(
        StoreRef::from(&ds).get(ids[1]).unwrap_err(),
        GedError::UnknownGraphId(ids[1])
    );
    // And the removed graph no longer appears in results.
    let query = StoreRef::from(&ds).get(ids[0]).unwrap();
    let result = engine.top_k(query, &ds, 10).unwrap();
    assert!(result.neighbors.iter().all(|n| n.id != ids[1]));
    assert_eq!(result.neighbors.len(), ds.len());
}

#[test]
fn top_k_larger_than_store_returns_all_graphs_ranked() {
    let engine = engine();
    let mut rng = SmallRng::seed_from_u64(6);
    let ds = GraphDataset::aids_like(7, &mut rng);
    let first = ds.ids()[0];
    let result = engine.top_k(&ds[first], &ds, 1000).expect("clamped");
    assert_eq!(
        result.neighbors.len(),
        ds.len(),
        "k is clamped to the store"
    );
    for w in result.neighbors.windows(2) {
        assert!(w[0].ged <= w[1].ged, "ascending ranking");
    }
    // The query itself is in the store: its self-distance ranks first.
    assert_eq!(result.neighbors[0].id, first);
}

/// `query_batch_as` threads one solver scratch through each worker's
/// queries (GEDGW buffers, GEDIOT's embedding memo). Its `Value` answers
/// must equal per-query `query_as` bit for bit at every thread count,
/// and a bad query in the middle of a batch must fail on its own, with
/// a typed error, while its neighbours are answered.
#[test]
fn value_batches_match_single_queries_bit_for_bit() {
    use ot_ged::core::solver::{GedhotSolver, GediotSolver};
    use std::sync::Arc;

    let mut rng = SmallRng::seed_from_u64(8);
    let ds = GraphDataset::aids_like(12, &mut rng);
    let graphs: Vec<&Graph> = ds.graphs().collect();
    let model = Arc::new(Gediot::new(
        GediotConfig::small(DatasetKind::Aids.num_labels() as usize),
        &mut rng,
    ));
    // Query-major, like a similarity search: each query graph meets
    // several partners in a row, so the memo sees repeats.
    let mut pairs: Vec<GedPair> = graphs[..4]
        .iter()
        .flat_map(|&q| {
            graphs[4..]
                .iter()
                .map(move |&p| GedPair::new(q.clone(), p.clone()))
        })
        .collect();
    let bad_at = pairs.len() / 2;
    pairs.insert(bad_at, GedPair::new(Graph::new(), graphs[0].clone()));
    let queries: Vec<GedQuery<'_>> = pairs.iter().map(|pair| GedQuery::Value { pair }).collect();

    for threads in [1, 2] {
        let mut registry = SolverRegistry::new();
        registry.register(MethodKind::Gedgw, Box::new(GedgwSolver));
        registry.register(
            MethodKind::Gediot,
            Box::new(GediotSolver::new(Arc::clone(&model))),
        );
        registry.register(
            MethodKind::Gedhot,
            Box::new(GedhotSolver::new(Arc::clone(&model))),
        );
        let engine = GedEngine::builder(registry)
            .threads(threads)
            .build()
            .expect("valid configuration");
        for method in [MethodKind::Gedgw, MethodKind::Gediot, MethodKind::Gedhot] {
            let batch = engine.query_batch_as(method, &queries);
            assert_eq!(batch.len(), queries.len());
            for (i, (got, q)) in batch.into_iter().zip(&queries).enumerate() {
                let ctx = format!("{method} at {threads} threads, query {i}");
                if i == bad_at {
                    assert_eq!(
                        got.unwrap_err(),
                        GedError::EmptyGraph("g1".to_string()),
                        "{ctx}"
                    );
                    continue;
                }
                let got = got.expect("valid query").into_value().expect("Value");
                let want = engine
                    .query_as(method, *q)
                    .expect("valid query")
                    .into_value()
                    .expect("Value");
                assert_eq!(got.ged.to_bits(), want.ged.to_bits(), "{ctx}");
            }
        }
    }
}

/// One `query_batch_as` batch mixing pair queries with store queries
/// over a flat store and a sharded copy of it answers each query exactly
/// like running it alone, at every thread count.
#[test]
fn mixed_store_batches_match_single_queries() {
    let mut rng = SmallRng::seed_from_u64(9);
    let flat = GraphDataset::aids_like(14, &mut rng).into_store();
    let (sharded, _) = ged_testkit::sharded_copy(&flat, 4);
    let query = flat.graphs().next().unwrap().clone();
    let gs: Vec<&Graph> = flat.graphs().collect();
    let pair = GedPair::new(gs[1].clone(), gs[2].clone());
    let mut queries = vec![GedQuery::Value { pair: &pair }];
    for store in [StoreRef::from(&flat), StoreRef::from(&sharded)] {
        let query = &query;
        queries.extend([
            GedQuery::TopK { query, store, k: 4 },
            GedQuery::Range {
                query,
                store,
                tau: 5.0,
            },
            GedQuery::RangeExact {
                query,
                store,
                tau: 3.0,
            },
            GedQuery::Matrix { store },
            GedQuery::SelfJoin { store, tau: 2.0 },
            GedQuery::Join {
                store: &flat,
                other: store,
                tau: 2.0,
            },
        ]);
    }
    for threads in [1, 3] {
        let engine = ged_testkit::gedgw_engine(threads);
        let batch = engine.query_batch_as(MethodKind::Gedgw, &queries);
        assert_eq!(batch.len(), queries.len());
        for (i, (got, q)) in batch.into_iter().zip(&queries).enumerate() {
            let want = engine.query_as(MethodKind::Gedgw, *q).expect("valid query");
            // `Debug` prints every f64 in its shortest round-trip form,
            // so equal renderings mean bit-identical answers.
            assert_eq!(
                format!("{:?}", got.expect("valid query")),
                format!("{want:?}"),
                "query {i} at {threads} threads"
            );
        }
    }
}
