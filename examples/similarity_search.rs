//! Top-k graph similarity search through the [`GedEngine`] query API —
//! the search workload the paper motivates: given a query graph, retrieve
//! the store graphs with the smallest GED, entirely training-free
//! (GEDGW), through the filter–verify plan (precomputed signatures feed
//! the label-set and degree-sequence lower bounds, only survivors reach
//! the solver), and cross-check the ranking against brute-force per-pair
//! evaluation.
//!
//! Run with: `cargo run --release --example similarity_search`

use ot_ged::core::lower_bound::{degree_sequence_lower_bound, label_set_lower_bound};
use ot_ged::core::pairs::GedPair;
use ot_ged::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn main() {
    let mut rng = SmallRng::seed_from_u64(2026);

    // A LINUX-like store of 60 unlabeled sparse graphs: every graph gets
    // a stable GraphId and a search signature at insert time.
    let database = GraphDataset::linux_like(60, &mut rng);
    println!(
        "store: {} graphs, stats: {:?}",
        database.len(),
        database.stats()
    );

    // Training-free engine: GEDGW behind the typed query API, parallel
    // over the store through the engine's batch runner.
    let mut registry = SolverRegistry::new();
    registry.register(MethodKind::Gedgw, Box::new(GedgwSolver));
    let engine = GedEngine::builder(registry)
        .prediction_cache(4096)
        .build()
        .expect("GEDGW is registered");

    // Query: a fresh graph from the same distribution.
    let query = GraphDataset::linux_like(1, &mut rng)
        .graphs()
        .next()
        .expect("one graph")
        .clone();
    println!(
        "query: {} nodes / {} edges",
        query.num_nodes(),
        query.num_edges()
    );

    // Top-10 most similar graphs, as a typed request/response round trip.
    let response = engine
        .query(GedQuery::TopK {
            query: &query,
            store: (&database).into(),
            k: 10,
        })
        .expect("valid query");
    let result = response.into_top_k().expect("TopK yields TopK");

    println!("\ntop-10 most similar graphs (estimated GED):");
    for (rank, n) in result.neighbors.iter().enumerate() {
        println!("  #{:<2} graph {:>4}: {:.3}", rank + 1, n.id, n.ged);
    }
    println!("filter–verify: {}", result.stats);

    // Cross-check: brute-force per-pair evaluation (with the same
    // admissible bound refinement) yields the same ranking while calling
    // the solver on every stored graph.
    let mut brute: Vec<Neighbor> = database
        .iter()
        .map(|(id, g)| {
            let pair = GedPair::new(query.clone(), g.clone());
            let lb = label_set_lower_bound(&query, g).max(degree_sequence_lower_bound(&query, g));
            Neighbor {
                id,
                ged: GedgwSolver.predict(&pair).ged.max(lb as f64),
            }
        })
        .collect();
    brute.sort_by(|a, b| a.ged.total_cmp(&b.ged).then(a.id.cmp(&b.id)));
    for (n, want) in result.neighbors.iter().zip(&brute) {
        assert_eq!(n.id, want.id);
        assert_eq!(n.ged.to_bits(), want.ged.to_bits());
    }
    println!(
        "\nranking verified against brute-force pairwise evaluation ✓ \
         ({} solver calls instead of {})",
        result.stats.verified,
        database.len()
    );

    // A pairwise distance matrix over a slice of the store — the
    // building block for clustering / kNN-graph workloads.
    let subset = GraphStore::from_graphs(database.graphs().take(8).cloned());
    let matrix = engine.distance_matrix(&subset).expect("non-empty subset");
    println!(
        "\npairwise distances over the first {} graphs:",
        matrix.size()
    );
    for i in 0..matrix.size() {
        let row: Vec<String> = matrix.row(i).iter().map(|d| format!("{d:5.1}")).collect();
        println!("  [{}]", row.join(" "));
    }
}
