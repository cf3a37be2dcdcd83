//! The adaptive query planner: stats-driven tier ordering and collapsed
//! verification, with answers bit-identical to the static plan.
//!
//! Every store query runs through one unified tier pipeline:
//!
//! ```text
//! shard → [label | degree | pivot_lb] → pivot_ub_accept → verify
//!          (commutative discards, planner-ordered)
//! ```
//!
//! The planner records per-tier hit rates (deterministic EWMAs, counts
//! only) and per query reorders the commutative discards, skips tiers
//! with ~0 observed yield, and collapses verification when the pivot
//! interval is already tight (`lb == ub` pins the answer without a
//! solver call). Every decision is result-invariant — this example
//! checks bit-identity against a static engine at each step.
//!
//! Run with: `cargo run --release --example planner_search`

use ot_ged::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn engine(adaptive: bool) -> GedEngine {
    let mut registry = SolverRegistry::new();
    registry.register(MethodKind::Gedgw, Box::new(GedgwSolver));
    GedEngine::builder(registry)
        .threads(2)
        .pivots(4)
        .adaptive_planner(adaptive)
        .build()
        .expect("GEDGW is registered")
}

fn show(tag: &str, e: &GedEngine, shape: QueryShape) {
    let plan = e.explain(shape);
    println!(
        "{tag} {:>11}: {}{}  (observations: {})",
        plan.shape.name(),
        plan.tiers.join(" → "),
        if plan.skipped.is_empty() {
            String::new()
        } else {
            format!("  [skipped: {}]", plan.skipped.join(", "))
        },
        plan.observations,
    );
}

fn main() {
    let mut rng = SmallRng::seed_from_u64(4091);
    let store = GraphDataset::aids_like(60, &mut rng).into_store();

    let static_e = engine(false);
    let adaptive_e = engine(true);
    println!("store: {} graphs; pivots: 4\n", store.len());

    println!("plans before any query (adaptive == static until warmed):");
    for shape in [QueryShape::TopK, QueryShape::Range, QueryShape::RangeExact] {
        show("  ", &adaptive_e, shape);
    }
    println!();

    // A mixed workload, every answer checked against the static engine.
    let queries: Vec<Graph> = store.graphs().take(6).cloned().collect();
    for q in &queries {
        let (a, s) = (
            adaptive_e.top_k(q, &store, 5).expect("valid"),
            static_e.top_k(q, &store, 5).expect("valid"),
        );
        assert_eq!(a.neighbors, s.neighbors, "top-k must be bit-identical");
        let (a, s) = (
            adaptive_e.range(q, &store, 6.0).expect("valid"),
            static_e.range(q, &store, 6.0).expect("valid"),
        );
        assert_eq!(a.neighbors, s.neighbors, "range must be bit-identical");
        let (a, s) = (
            adaptive_e.range_exact(q, &store, 3.0).expect("valid"),
            static_e.range_exact(q, &store, 3.0).expect("valid"),
        );
        assert_eq!(a.matches, s.matches, "exact range must be bit-identical");
    }
    println!(
        "mixed workload: {} queries × 3 shapes, all bit-identical ✓",
        queries.len()
    );

    // The skewed part: a query drawn from the engine's own pivot set has
    // a *tight* pivot interval (lb == ub == exact GED) to every stored
    // graph — the triangle inequality is exact through the pivot itself —
    // so collapsed verification answers without a single solver call.
    let pivot_id = adaptive_e.pivot_ids(&store)[0];
    let member = store.get(pivot_id).expect("pivot is stored").clone();
    let before = adaptive_e.planner_counters().expect("planner is on");
    let (a, s) = (
        adaptive_e.range(&member, &store, 6.0).expect("valid"),
        static_e.range(&member, &store, 6.0).expect("valid"),
    );
    assert_eq!(a.neighbors, s.neighbors, "collapse must not change answers");
    let after = adaptive_e.planner_counters().expect("planner is on");
    let saved = after.solver_calls_saved - before.solver_calls_saved;
    assert_eq!(
        saved, s.stats.verified as u64,
        "every verification the static plan ran is collapsed away"
    );
    println!(
        "pivot-member range query: {} solver calls (static) → 0 (adaptive), \
         same {} neighbors ✓",
        s.stats.verified,
        a.neighbors.len()
    );

    // Stored graphs can be queried by id, no clone of the graph needed.
    let stored = StoreRef::from(&store).get(pivot_id).expect("stored id");
    let by_id = adaptive_e.range(stored, &store, 6.0).expect("valid query");
    assert_eq!(
        by_id.neighbors, a.neighbors,
        "by-id resolves to the same query"
    );
    println!("range over StoreRef::get({pivot_id:?}): same answer as the inline query ✓\n");

    println!("plans after the workload (discards reordered by observed yield):");
    for shape in [QueryShape::TopK, QueryShape::Range, QueryShape::RangeExact] {
        show("  ", &adaptive_e, shape);
    }
    let c = adaptive_e.planner_counters().expect("planner is on");
    println!(
        "\nplanner savings: {} solver calls, {} bounded searches, {} pivot arms",
        c.solver_calls_saved, c.searches_saved, c.pivot_arms_saved
    );
}
