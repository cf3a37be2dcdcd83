//! Planner-on ≡ planner-off property suite: every decision the adaptive
//! [`QueryPlanner`] takes must be **result-invariant** — for any planner
//! state, any query shape, any store kind, and any thread count, the
//! adaptive engine's answers are bit-identical to the static engine's.
//!
//! * bit-identity across all four query shapes × flat/sharded × thread
//!   counts, with the adaptive planner warmed past its observation
//!   threshold first;
//! * adversarial stats priming: skewed warmup workloads (all-discard,
//!   no-discard, collapse-heavy) may steer the EWMAs anywhere — answers
//!   still match the static plan bit for bit;
//! * accounting regression: a planner-skipped pivot tier never breaks
//!   the `ExactSearchStats::total() == store.len()` /
//!   `SearchStats::pruned() + verified == candidates` closure;
//! * strictly-not-more work: with a call-counting solver, the adaptive
//!   engine never makes more solver calls than the static engine on the
//!   same workload, and collapsed (`lb == ub`) verification provably
//!   eliminates calls on pivot-tight workloads;
//! * the `*_by_id` range entry points resolve stored ids and reject
//!   foreign ones with [`GedError::UnknownGraphId`].

use ged_testkit::{
    aids_store, assert_same_neighbors as assert_same, counting_engine_builder, engine_builder,
    external_query, linux_store, sharded_copy,
};
use ot_ged::prelude::*;
use std::sync::atomic::Ordering;

/// Warmup queries to push the planner past its observation threshold.
const WARMUP: usize = 4;

/// A static/adaptive engine pair sharing every other knob.
fn engine_pair(threads: usize, pivots: usize) -> (GedEngine, GedEngine) {
    let build = |adaptive| {
        engine_builder(&[MethodKind::Gedgw])
            .threads(threads)
            .pivots(pivots)
            .adaptive_planner(adaptive)
            .build()
            .expect("valid configuration")
    };
    (build(false), build(true))
}

fn assert_same_exact(got: &RangeExactResult, want: &RangeExactResult, ctx: &str) {
    assert_eq!(got.matches, want.matches, "{ctx}: exact matches");
    assert_eq!(
        got.budget_exhausted, want.budget_exhausted,
        "{ctx}: undecided candidates"
    );
}

/// Runs all four query shapes on both engines and asserts bit-identical
/// answers plus closed accounting totals (per-tier *attribution* may
/// legitimately shift under a reordered plan, so it is not compared).
fn assert_engines_agree(
    stat: &GedEngine,
    adap: &GedEngine,
    query: &Graph,
    store: &GraphStore,
    tau: f64,
    ctx: &str,
) {
    let (s, a) = (
        stat.top_k(query, store, 5).expect("static top-k"),
        adap.top_k(query, store, 5).expect("adaptive top-k"),
    );
    assert_same(&a.neighbors, &s.neighbors, &format!("{ctx}/top-k"));
    assert_eq!(
        a.stats.pruned() + a.stats.verified,
        a.stats.candidates,
        "{ctx}/top-k: accounting closes"
    );

    let (s, a) = (
        stat.range(query, store, tau).expect("static range"),
        adap.range(query, store, tau).expect("adaptive range"),
    );
    assert_same(&a.neighbors, &s.neighbors, &format!("{ctx}/range"));
    assert_eq!(
        a.stats.pruned() + a.stats.verified,
        a.stats.candidates,
        "{ctx}/range: accounting closes"
    );

    let (s, a) = (
        stat.range_exact(query, store, tau).expect("static exact"),
        adap.range_exact(query, store, tau).expect("adaptive exact"),
    );
    assert_same_exact(&a, &s, &format!("{ctx}/range-exact"));
    assert_eq!(
        a.stats.total(),
        store.len(),
        "{ctx}/range-exact: accounting closes"
    );
}

/// The sharded twin of [`assert_engines_agree`].
fn assert_engines_agree_sharded(
    stat: &GedEngine,
    adap: &GedEngine,
    query: &Graph,
    store: &ShardedStore,
    tau: f64,
    ctx: &str,
) {
    let (s, a) = (
        stat.top_k_sharded(query, store, 5).expect("static top-k"),
        adap.top_k_sharded(query, store, 5).expect("adaptive top-k"),
    );
    assert_same(&a.neighbors, &s.neighbors, &format!("{ctx}/top-k"));

    let (s, a) = (
        stat.range_sharded(query, store, tau).expect("static range"),
        adap.range_sharded(query, store, tau)
            .expect("adaptive range"),
    );
    assert_same(&a.neighbors, &s.neighbors, &format!("{ctx}/range"));
    assert_eq!(
        a.stats.pruned() + a.stats.verified,
        a.stats.candidates,
        "{ctx}/range: accounting closes"
    );

    let (s, a) = (
        stat.range_exact_sharded(query, store, tau)
            .expect("static exact"),
        adap.range_exact_sharded(query, store, tau)
            .expect("adaptive exact"),
    );
    assert_same_exact(&a, &s, &format!("{ctx}/range-exact"));
    assert_eq!(
        a.stats.total(),
        store.len(),
        "{ctx}/range-exact: accounting closes"
    );
}

/// Matrix is the verify-only shape: nothing to plan, so one identity
/// check per store kind suffices (it is query- and τ-independent).
fn assert_matrices_agree(s: &DistanceMatrix, a: &DistanceMatrix, ctx: &str) {
    assert_eq!(s.ids(), a.ids(), "{ctx}: matrix ids");
    for i in 0..s.size() {
        for j in 0..s.size() {
            assert_eq!(
                s.get(i, j).to_bits(),
                a.get(i, j).to_bits(),
                "{ctx}: matrix value at ({i}, {j})"
            );
        }
    }
}

/// Warms the planner's per-shape EWMAs past the observation threshold
/// with an ordinary workload.
fn warm(adap: &GedEngine, query: &Graph, store: &GraphStore, tau: f64) {
    for _ in 0..WARMUP {
        adap.top_k(query, store, 3).expect("warmup top-k");
        adap.range(query, store, tau).expect("warmup range");
        adap.range_exact(query, store, tau).expect("warmup exact");
    }
}

#[test]
fn adaptive_plans_are_bit_identical_across_shapes_stores_and_threads() {
    for (store, tag) in [
        (aids_store(24, 9101), "AIDS"),
        (linux_store(20, 9102), "LINUX"),
    ] {
        let query = external_query(9103);
        let (sharded, _) = sharded_copy(&store, 4);
        for pivots in [0, 3] {
            for threads in [1, 4] {
                let (stat, adap) = engine_pair(threads, pivots);
                warm(&adap, &query, &store, 5.0);
                let ctx = format!("{tag}/pivots={pivots}/threads={threads}");
                for tau in [2.0, 6.0] {
                    assert_engines_agree(&stat, &adap, &query, &store, tau, &ctx);
                    assert_engines_agree_sharded(
                        &stat,
                        &adap,
                        &query,
                        &sharded,
                        tau,
                        &format!("{ctx}/sharded"),
                    );
                }
            }
        }
    }
}

#[test]
fn matrix_shape_is_unplanned_and_bit_identical() {
    let store = aids_store(10, 9151);
    let (sharded, _) = sharded_copy(&store, 4);
    let (stat, adap) = engine_pair(2, 2);
    // Steer the planner somewhere non-static first; matrix must not care.
    warm(&adap, &external_query(9152), &store, 3.0);
    assert_matrices_agree(
        &stat.distance_matrix(&store).expect("static flat"),
        &adap.distance_matrix(&store).expect("adaptive flat"),
        "flat",
    );
    assert_matrices_agree(
        &stat
            .distance_matrix_sharded(&sharded)
            .expect("static sharded"),
        &adap
            .distance_matrix_sharded(&sharded)
            .expect("adaptive sharded"),
        "sharded",
    );
}

#[test]
fn adversarial_stats_priming_cannot_change_answers() {
    let store = aids_store(22, 9201);
    let (mut sharded, _) = sharded_copy(&store, 4);
    let query = external_query(9203);
    let member = store.iter().next().expect("nonempty store").1.clone();

    // Each regime steers the EWMAs somewhere extreme before the check.
    #[allow(clippy::type_complexity)]
    let regimes: [(&str, &dyn Fn(&GedEngine)); 3] = [
        // Everything is discarded: the signature tiers soak up all the
        // credit, the pivot tier none.
        ("all-discard", &|e| {
            for _ in 0..WARMUP {
                e.range(&query, &store, 0.0).expect("prime");
                e.range_exact(&query, &store, 0.0).expect("prime");
                e.top_k(&query, &store, 1).expect("prime");
            }
        }),
        // Nothing is discarded: every share decays toward zero, arming
        // the pivot-skip for exact range.
        ("no-discard", &|e| {
            for _ in 0..WARMUP {
                e.range(&query, &store, f64::INFINITY).expect("prime");
                e.range_exact(&query, &store, f64::INFINITY).expect("prime");
                e.top_k(&query, &store, store.len()).expect("prime");
            }
        }),
        // A member query: zero self-distance, collapse-friendly tight
        // intervals wherever pivots bite.
        ("member-query", &|e| {
            for _ in 0..WARMUP {
                e.range(&member, &store, 1.0).expect("prime");
                e.range_exact(&member, &store, 1.0).expect("prime");
            }
        }),
    ];

    let (stat, _) = engine_pair(1, 3);
    stat.sync_sharded_pivots(&mut sharded);
    for (name, prime) in regimes {
        let (_, adap) = engine_pair(1, 3);
        prime(&adap);
        assert!(
            adap.explain(QueryShape::Range).observations >= WARMUP as u64,
            "{name}: priming was observed"
        );
        for tau in [0.0, 3.0, f64::INFINITY] {
            let ctx = format!("primed:{name}/tau={tau}");
            assert_engines_agree(&stat, &adap, &query, &store, tau, &ctx);
            assert_engines_agree_sharded(
                &stat,
                &adap,
                &query,
                &sharded,
                tau,
                &format!("{ctx}/sharded"),
            );
        }
    }
}

#[test]
fn skipped_pivot_tier_keeps_results_and_accounting_closed() {
    // An engine with a pivot target over a sharded store whose pivot
    // blocks were never synced: the armed tier is vacuous by
    // construction, so its EWMA yield is exactly zero and the planner
    // must withdraw the arming after warmup — without moving a single
    // answer or breaking the exact accounting closure.
    let store = aids_store(20, 9301);
    let (sharded, _) = sharded_copy(&store, 4);
    let query = external_query(9303);
    let (stat, adap) = engine_pair(1, 3);
    assert!(!sharded.pivots_ready(3), "deliberately left unsynced");

    for _ in 0..WARMUP {
        adap.range_exact_sharded(&query, &sharded, 4.0)
            .expect("warmup");
    }
    let explanation = adap.explain(QueryShape::RangeExact);
    assert_eq!(
        explanation.skipped,
        vec!["pivot_lb", "pivot_ub_accept"],
        "zero observed yield withdraws the pivot tier"
    );
    assert!(
        !explanation.tiers.contains(&"pivot_lb"),
        "the skipped tier leaves the executed order"
    );

    for tau in [0.0, 4.0, 9.0] {
        let s = stat
            .range_exact_sharded(&query, &sharded, tau)
            .expect("static");
        let a = adap
            .range_exact_sharded(&query, &sharded, tau)
            .expect("adaptive");
        assert_same_exact(&a, &s, &format!("skip/tau={tau}"));
        assert_eq!(
            a.stats.total(),
            sharded.len(),
            "skip/tau={tau}: every candidate still lands in exactly one tier"
        );
    }
}

#[test]
fn finite_verify_budget_never_unarms_the_pivot_tier() {
    // Under a finite budget, un-arming could shift candidates between
    // `matches` and `budget_exhausted` — the planner must refuse even
    // at provably zero pivot yield.
    let store = aids_store(16, 9401);
    let (sharded, _) = sharded_copy(&store, 4);
    let query = external_query(9403);
    let adap = engine_builder(&[MethodKind::Gedgw])
        .pivots(3)
        .verify_budget(50_000)
        .adaptive_planner(true)
        .build()
        .expect("valid configuration");
    for _ in 0..WARMUP {
        adap.range_exact_sharded(&query, &sharded, 4.0)
            .expect("warmup");
    }
    let explanation = adap.explain(QueryShape::RangeExact);
    assert!(
        explanation.skipped.is_empty(),
        "finite budget keeps the pivot tier armed: {explanation:?}"
    );
    assert!(explanation.tiers.contains(&"pivot_lb"));
}

#[test]
fn collapsed_verification_eliminates_solver_calls_on_tight_intervals() {
    // A query drawn from the engine's own pivot set has an exact pivot
    // distance to every stored graph: lb == ub everywhere, so collapsed
    // verification answers the whole candidate set without one solver
    // invocation — while the static engine pays one call per survivor.
    let store = aids_store(14, 9501);
    let (stat_builder, stat_calls) = counting_engine_builder();
    let stat = stat_builder.pivots(3).build().expect("static engine");
    let (adap_builder, adap_calls) = counting_engine_builder();
    let adap = adap_builder
        .pivots(3)
        .adaptive_planner(true)
        .build()
        .expect("adaptive engine");

    let pivots = stat.pivot_ids(&store);
    assert_eq!(pivots, adap.pivot_ids(&store), "deterministic pivot choice");
    let query = store.get(pivots[0]).expect("pivot is stored").clone();

    let s = stat.range(&query, &store, 6.0).expect("static range");
    let static_cost = stat_calls.load(Ordering::Relaxed);
    let a = adap.range(&query, &store, 6.0).expect("adaptive range");
    let adaptive_cost = adap_calls.load(Ordering::Relaxed);

    assert_same(&a.neighbors, &s.neighbors, "pivot-member range");
    assert_eq!(static_cost, s.stats.verified, "static pays per survivor");
    assert!(static_cost > 0, "the workload reaches the verify tier");
    assert_eq!(adaptive_cost, 0, "every interval is tight: all collapsed");
    let counters = adap.planner_counters().expect("planner is on");
    assert_eq!(
        counters.solver_calls_saved, static_cost as u64,
        "savings counter equals the static engine's bill"
    );

    // Top-k collapses the same way.
    let s = stat.top_k(&query, &store, 4).expect("static top-k");
    let a = adap.top_k(&query, &store, 4).expect("adaptive top-k");
    assert_same(&a.neighbors, &s.neighbors, "pivot-member top-k");
    assert_eq!(adap_calls.load(Ordering::Relaxed), 0, "top-k collapses too");
}

#[test]
fn adaptive_engine_never_makes_more_solver_calls() {
    let store = aids_store(18, 9601);
    let (sharded, _) = sharded_copy(&store, 4);
    let queries: Vec<Graph> = (0..3).map(|i| external_query(9610 + i)).collect();

    let (stat_builder, stat_calls) = counting_engine_builder();
    let stat = stat_builder.pivots(3).build().expect("static engine");
    let (adap_builder, adap_calls) = counting_engine_builder();
    let adap = adap_builder
        .pivots(3)
        .adaptive_planner(true)
        .build()
        .expect("adaptive engine");

    for query in &queries {
        for tau in [3.0, 7.0] {
            let s = stat.range(query, &store, tau).expect("static");
            let a = adap.range(query, &store, tau).expect("adaptive");
            assert_same(&a.neighbors, &s.neighbors, "workload range");
            let s = stat.range_sharded(query, &sharded, tau).expect("static");
            let a = adap.range_sharded(query, &sharded, tau).expect("adaptive");
            assert_same(&a.neighbors, &s.neighbors, "workload sharded range");
        }
        let s = stat.top_k(query, &store, 5).expect("static");
        let a = adap.top_k(query, &store, 5).expect("adaptive");
        assert_same(&a.neighbors, &s.neighbors, "workload top-k");
    }
    assert!(
        adap_calls.load(Ordering::Relaxed) <= stat_calls.load(Ordering::Relaxed),
        "adaptive must never exceed the static engine's solver bill: {} > {}",
        adap_calls.load(Ordering::Relaxed),
        stat_calls.load(Ordering::Relaxed)
    );
}

#[test]
fn explain_reports_static_and_adaptive_plans() {
    let (stat, adap) = engine_pair(1, 2);
    let e = stat.explain(QueryShape::Range);
    assert!(!e.adaptive);
    assert_eq!(e.observations, 0);
    assert_eq!(
        e.tiers,
        vec![
            "shard",
            "label",
            "degree",
            "pivot_lb",
            "pivot_ub_accept",
            "verify"
        ],
        "static range plan"
    );
    assert!(e.skipped.is_empty());
    assert!(stat.planner_counters().is_none(), "no planner, no counters");

    let store = aids_store(10, 9701);
    let query = external_query(9702);
    adap.range(&query, &store, 4.0).expect("one observation");
    let e = adap.explain(QueryShape::Range);
    assert!(e.adaptive);
    assert_eq!(e.observations, 1);
    assert_eq!(
        adap.explain(QueryShape::Matrix).tiers,
        vec!["verify"],
        "matrix has nothing to plan"
    );
}

#[test]
fn range_by_id_resolves_stored_ids_and_rejects_foreign_ones() {
    let store = aids_store(12, 9801);
    let (sharded, map) = sharded_copy(&store, 4);
    let engine = engine_builder(&[MethodKind::Gedgw])
        .build()
        .expect("valid configuration");

    let (id, query) = store.iter().next().expect("nonempty store");
    let stored = StoreRef::from(&store).get(id).expect("stored id");
    let by_id = engine.range(stored, &store, 5.0).expect("valid query");
    let direct = engine.range(query, &store, 5.0).expect("direct query");
    assert_same(&by_id.neighbors, &direct.neighbors, "flat by-id");
    assert!(
        by_id.neighbors.iter().any(|n| n.id == id && n.ged == 0.0),
        "the query graph matches itself at distance 0"
    );

    let sid = map[&id];
    let stored = StoreRef::from(&sharded).get(sid).expect("stored id");
    let by_id = engine
        .range_sharded(stored, &sharded, 5.0)
        .expect("valid query");
    let direct = engine
        .range_sharded(query, &sharded, 5.0)
        .expect("direct query");
    assert_same(&by_id.neighbors, &direct.neighbors, "sharded by-id");

    let foreign = external_query(9803);
    let mut scratch = GraphStore::new();
    let foreign_id = scratch.insert(foreign);
    assert_eq!(
        StoreRef::from(&store).get(foreign_id).unwrap_err(),
        GedError::UnknownGraphId(foreign_id)
    );
    assert_eq!(
        StoreRef::from(&sharded).get(foreign_id).unwrap_err(),
        GedError::UnknownGraphId(foreign_id)
    );
}
