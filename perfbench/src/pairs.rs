//! `pair_batch`, the second part of every run: the paper's pair solvers,
//! in process, on the workload's dataset.
//!
//! Set-up trains GEDIOT on the dataset with `ExpConfig::quick`, whose
//! training seed is fixed, so every workload seed scores the same model;
//! the workload seed draws the test pairs, which are labelled with
//! exact A*. The timed part predicts every pair with GEDGW, GEDIOT and GEDHOT
//! through `GedEngine::query_batch_as` at 2 threads; the predictions are
//! then scored with `ged_eval::metrics`. Traced runs add the solver,
//! kernel and training layers.

use crate::host::Pace;
use crate::script;
use crate::stats::{mean, median, Report};
use crate::Args;
use ged_baselines::astar::astar_exact_with_limit;
use ged_baselines::solvers::ClassicSolver;
use ged_core::gediot::{Gediot, GediotConfig};
use ged_core::method::MethodKind;
use ged_core::pairs::{ordered, GedPair};
use ged_core::solver::{BatchRunner, GedgwSolver, GedhotSolver, GediotSolver, SolverRegistry};
use ged_core::{GedEngine, GedQuery, Gedgw};
use ged_eval::metrics::{self, GroupedRanking, PairOutcome};
use ged_experiments::harness::{prepare, ExpConfig};
use ged_graph::{DatasetKind, Graph};
use ged_linalg::lsap::lsap_min;
use ged_linalg::Matrix;
use ged_ot::gw::gw_tensor_apply;
use ged_ot::sinkhorn::sinkhorn;
use std::sync::Arc;
use std::time::Instant;

/// Query graphs, each paired with partner graphs of its own (the
/// paper's similarity-search layout: one ranked group per query). No
/// graph is in two groups, so the pairs' errors are close to
/// independent and the seed-to-seed spread of `mae.*` stays small.
const PAIR_QUERIES: usize = 300;
/// Partner graphs per query.
const PAIR_PARTNERS: usize = 20;
/// A* node-expansion cap of the ground truth (the experiment harness's);
/// pairs it cannot settle are left out, deterministically.
const ASTAR_BUDGET: usize = 300_000;
/// Pairs the kernel layer is timed on.
const KERNEL_PAIRS: usize = 400;
/// The timed methods, with the laps over the pair set that make one of
/// their passes. Sized by the workload's nominal 2-thread pairs/s, each
/// method gets about a third of the part's seconds, as passes. A GEDGW
/// pass goes over the set 4 times, so every method's pass lasts a few
/// hundred ms and timer and scheduling noise stay small against it.
const METHODS: [(MethodKind, &str, usize); 3] = [
    (MethodKind::Gedgw, "gedgw", 4),
    (MethodKind::Gediot, "gediot", 1),
    (MethodKind::Gedhot, "gedhot", 1),
];

struct Setup {
    groups: Vec<Vec<GedPair>>,
    model: Arc<Gediot>,
    /// Seconds of the load phase, the ground-truth phase and each
    /// training epoch, in that order, each with the reading of the
    /// host's pace taken just before it.
    phases: Vec<(f64, usize)>,
}

fn label(g1: &Graph, g2: &Graph) -> Option<GedPair> {
    let (a, b, _) = ordered(g1, g2);
    let res = astar_exact_with_limit(a, b, ASTAR_BUDGET)?;
    Some(GedPair::supervised(
        a.clone(),
        b.clone(),
        res.ged as f64,
        res.mapping,
    ))
}

/// Runs `work` as one phase of a set-up: reads `pace` just before it
/// and records its seconds with that reading in `phases`.
fn phase<T>(pace: &mut Pace, phases: &mut Vec<(f64, usize)>, work: impl FnOnce() -> T) -> T {
    let reading = pace.read();
    let start = Instant::now();
    let out = work();
    phases.push((start.elapsed().as_secs_f64(), reading));
    out
}

/// Sets up `pair_batch` in phases (load, ground truth, one per training
/// epoch), so its seconds can be scaled phase by phase.
fn set_up(kind: DatasetKind, seed: u64, pace: &mut Pace) -> Setup {
    let mut phases = Vec::new();
    let cfg = ExpConfig::quick();
    let mut rng = cfg.rng();
    let (prep, queries, partners) = phase(pace, &mut phases, || {
        (
            prepare(kind, &cfg, false, &mut rng),
            script::graphs(kind, seed, 6, PAIR_QUERIES),
            script::graphs(kind, seed, 7, PAIR_QUERIES * PAIR_PARTNERS),
        )
    });

    let groups = phase(pace, &mut phases, || {
        let cells: Vec<(&Graph, &Graph)> = queries
            .iter()
            .zip(partners.chunks(PAIR_PARTNERS))
            .flat_map(|(q, own)| own.iter().map(move |p| (q, p)))
            .collect();
        let labelled = BatchRunner::new(2).map(&cells, |&(q, p)| label(q, p));
        labelled
            .chunks(PAIR_PARTNERS)
            .map(|g| g.iter().flatten().cloned().collect::<Vec<GedPair>>())
            .filter(|g| g.len() >= 2)
            .collect()
    });

    let num_labels = kind.num_labels() as usize;
    let mut model = Gediot::new(GediotConfig::small(num_labels), &mut rng);
    for _ in 0..cfg.epochs {
        phase(pace, &mut phases, || {
            model.train_epoch(&prep.train_pairs, &mut rng);
        });
    }
    Setup {
        groups,
        model: Arc::new(model),
        phases,
    }
}

fn engine(model: &Arc<Gediot>, threads: usize) -> GedEngine {
    let mut registry = SolverRegistry::new();
    registry.register(
        MethodKind::Gediot,
        Box::new(GediotSolver::new(Arc::clone(model))),
    );
    registry.register(MethodKind::Classic, Box::new(ClassicSolver));
    registry.register(MethodKind::Gedgw, Box::new(GedgwSolver));
    registry.register(
        MethodKind::Gedhot,
        Box::new(GedhotSolver::new(Arc::clone(model))),
    );
    GedEngine::builder(registry)
        .method(MethodKind::Gedhot)
        .threads(threads)
        .build()
        .expect("the pair-solver registry builds")
}

fn predict(
    engine: &GedEngine,
    method: MethodKind,
    queries: &[GedQuery<'_>],
) -> Result<Vec<f64>, String> {
    engine
        .query_batch_as(method, queries)
        .into_iter()
        .map(|r| {
            r.map_err(|e| e.to_string())?
                .into_value()
                .map(|v| v.ged)
                .ok_or_else(|| "a Value query answered with another shape".to_string())
        })
        .collect()
}

fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Per-method pass times (seconds per pass over the pair set, with the
/// reading of the host's pace taken just before the pass) and the first
/// pass's predictions.
struct Passes {
    times: Vec<Vec<(f64, usize)>>,
    first: Vec<Option<Vec<f64>>>,
}

/// The timed passes on `setup`'s pairs: whole passes, the three methods
/// interleaved so a slow stretch of the host slows all of them alike.
/// Every pass must reproduce the first pass bit for bit.
fn timed_passes(
    setup: &Setup,
    args: &Args,
    pace: &mut Pace,
    report: &mut Report,
) -> Result<Passes, String> {
    let mut passes = Passes {
        times: vec![Vec::new(); METHODS.len()],
        first: vec![None; METHODS.len()],
    };
    let queries: Vec<GedQuery<'_>> = setup
        .groups
        .iter()
        .flatten()
        .map(|p| GedQuery::Value { pair: p })
        .collect();
    let n = queries.len();
    let two = engine(&setup.model, 2);
    let rounds: Vec<usize> = METHODS
        .iter()
        .zip(args.workload.pairs_per_second)
        .map(|(&(.., laps), nominal)| {
            ((args.part_seconds() / 3.0 * nominal / (n * laps) as f64).round() as usize).max(3)
        })
        .collect();
    let batches: Vec<Vec<GedQuery<'_>>> = METHODS
        .iter()
        .map(|&(.., laps)| queries.iter().copied().cycle().take(n * laps).collect())
        .collect();
    for round in 0..rounds.iter().copied().max().unwrap_or(0) {
        for (m, &(method, name, ..)) in METHODS.iter().enumerate() {
            if round >= rounds[m] {
                continue;
            }
            let reading = pace.read();
            let start = Instant::now();
            let preds = predict(&two, method, &batches[m])?;
            // Per pass over the pair set, so every method reads alike.
            let pass_s = start.elapsed().as_secs_f64() / batches[m].len() as f64 * n as f64;
            passes.times[m].push((pass_s, reading));
            report.attempted += batches[m].len() as u64;
            match &passes.first[m] {
                None => passes.first[m] = Some(preds),
                Some(f) if !same_bits(f, &preds) => report.fail(format!("{name}: passes disagree")),
                Some(_) => {}
            }
        }
    }
    Ok(passes)
}

/// Runs `pair_batch` into `report` and returns its set-up seconds at the
/// host's nominal pace.
pub fn run(args: &Args, report: &mut Report) -> Result<f64, String> {
    let mut pace = Pace::default();
    let setup = set_up(args.workload.kind, args.seed, &mut pace);
    let passes = timed_passes(&setup, args, &mut pace, report)?;
    pace.read();
    let flat: Vec<&GedPair> = setup.groups.iter().flatten().collect();
    let n = flat.len();
    eprintln!(
        "perfbench: {n} labelled pairs in {} groups",
        setup.groups.len()
    );
    let queries: Vec<GedQuery<'_>> = flat.iter().map(|p| GedQuery::Value { pair: p }).collect();
    let truth: Vec<f64> = flat
        .iter()
        .map(|p| p.ged.expect("test pairs are labelled"))
        .collect();
    let one = engine(&setup.model, 1);
    let Passes { times, mut first } = passes;

    // Checks, outside the timed passes: finite, and bit-identical to a
    // 1-thread rerun.
    let mut results = Vec::new();
    for (m, &(method, name, ..)) in METHODS.iter().enumerate() {
        let mut preds = first[m].take().expect("at least one pass");
        if preds.chunks(n).any(|lap| !same_bits(lap, &preds[..n])) {
            report.fail(format!("{name}: laps of one pass disagree"));
        }
        preds.truncate(n);
        let bad = preds.iter().filter(|v| !v.is_finite()).count();
        if bad > 0 {
            report.failed += bad as u64;
            report.fail(format!("{name}: {bad} non-finite predictions"));
        }
        let start = Instant::now();
        let single = predict(&one, method, &queries)?;
        let single_s = start.elapsed().as_secs_f64();
        if !same_bits(&preds, &single) {
            report.fail(format!(
                "{name}: 2-thread predictions differ from the 1-thread rerun"
            ));
        }
        let measured: Vec<f64> = times[m].iter().map(|&(t, _)| t).collect();
        eprintln!(
            "perfbench: {name}: {} passes, mean {:.1} ms as measured",
            measured.len(),
            mean(&measured) * 1e3,
        );
        results.push((method, name, preds, mean(&measured), single_s));
    }

    if args.trace {
        let two = engine(&setup.model, 2);
        trace(&setup, &flat, &queries, &truth, &two, &results, report);
        return Ok(setup.phases.iter().map(|&(t, _)| t).sum());
    }
    // Every time at the host's nominal pace: each set-up and pass
    // scaled by the pace around it.
    let at_nominal =
        |xs: &[(f64, usize)]| -> Vec<f64> { xs.iter().map(|&(t, i)| t * pace.factor(i)).collect() };
    for (m, (_, name, ..)) in results.iter().enumerate() {
        let pass_s = mean(&at_nominal(&times[m]));
        report.add(&format!("pairs_s.{name}"), n as f64 / pass_s, "1/s");
    }
    for (_, name, preds, _, _) in &results {
        report.add(
            &format!("mae.{name}"),
            metrics::mae(&outcomes(preds, &truth)),
            "ged",
        );
    }
    Ok(at_nominal(&setup.phases).iter().sum())
}

fn outcomes(preds: &[f64], truth: &[f64]) -> Vec<PairOutcome> {
    preds
        .iter()
        .zip(truth)
        .map(|(&pred, &gt)| PairOutcome { pred, gt })
        .collect()
}

type MethodResult<'a> = (MethodKind, &'a str, Vec<f64>, f64, f64);

fn trace(
    setup: &Setup,
    flat: &[&GedPair],
    queries: &[GedQuery<'_>],
    truth: &[f64],
    two: &GedEngine,
    results: &[MethodResult<'_>],
    report: &mut Report,
) {
    let seconds: Vec<f64> = setup.phases.iter().map(|&(t, _)| t).collect();
    report.add("setup.prepare_s", seconds[0], "s");
    report.add("setup.ground_truth_s", seconds[1], "s");
    report.add("setup.train_s", seconds[2..].iter().sum(), "s");
    report.add("nn.train_epoch_s", median(&seconds[2..]), "s");

    // The same 2-thread passes with a span around every pair.
    let runner = BatchRunner::new(2);
    let (mut traced_s, mut untraced_s) = (0.0, 0.0);
    for &(method, _, _, pass_s, _) in results {
        let start = Instant::now();
        let spans = runner.map(queries, |q| {
            let t = Instant::now();
            let r = two.query_as(method, *q);
            (r.is_ok(), t.elapsed())
        });
        traced_s += start.elapsed().as_secs_f64();
        untraced_s += pass_s;
        assert!(
            spans.iter().all(|s| s.0),
            "traced pass failed after the untraced one passed"
        );
    }
    report.add("trace.overhead.pairs", traced_s / untraced_s, "ratio");

    // Solver layer: each solver alone, one thread, no engine.
    for (method, name) in [
        (MethodKind::Gedgw, "gedgw"),
        (MethodKind::Gediot, "gediot"),
        (MethodKind::Gedhot, "gedhot"),
        (MethodKind::Classic, "classic"),
    ] {
        let solver = two.solver(method).expect("registered");
        let start = Instant::now();
        for p in flat {
            std::hint::black_box(solver.predict(p));
        }
        report.add(
            &format!("solver.predict_us.{name}"),
            start.elapsed().as_secs_f64() * 1e6 / flat.len() as f64,
            "us",
        );
    }
    for (_, name, preds, pass_s, single_s) in results {
        report.add(
            &format!("solver.batch_speedup.{name}"),
            single_s / pass_s,
            "ratio",
        );
        let outs = outcomes(preds, truth);
        report.add(
            &format!("solver.accuracy.{name}"),
            metrics::accuracy(&outs),
            "ratio",
        );
        let mut ranking = GroupedRanking::new();
        let mut at = 0;
        for group in &setup.groups {
            let len = group.len();
            ranking.push_group(preds[at..at + len].to_vec(), truth[at..at + len].to_vec());
            at += len;
        }
        report.add(
            &format!("solver.rho.{name}"),
            ranking.mean_spearman(),
            "ratio",
        );
        report.add(
            &format!("solver.p_at_10.{name}"),
            ranking.mean_precision_at(10),
            "ratio",
        );
    }
    kernels(flat, report);
}

/// The kernels GEDGW and GEDIOT are built on, timed per call on the
/// workload's own pairs: Sinkhorn on the node-cost matrix (GEDIOT's
/// ε = 0.05 and 5 iterations), the GW tensor product at the uniform
/// coupling, and LSAP on the linearised objective there (what the first
/// conditional-gradient step solves). Bytes are computed from shapes:
/// every f64 matrix element read or written once per pass over it.
fn kernels(flat: &[&GedPair], report: &mut Report) {
    let (mut sk, mut gw, mut lsap) = (Vec::new(), Vec::new(), Vec::new());
    let (mut sk_b, mut gw_b, mut lsap_b) = (Vec::new(), Vec::new(), Vec::new());
    for p in flat.iter().take(KERNEL_PAIRS) {
        let cost = Gedgw::new(&p.g1, &p.g2).node_cost_matrix();
        let n = cost.rows();
        let n2 = (n * n) as f64;
        let uniform = vec![1.0 / n as f64; n];
        let start = Instant::now();
        let r = sinkhorn(&cost, &uniform, &uniform, 0.05, 5);
        sk.push(start.elapsed().as_secs_f64() * 1e6);
        // Cost read and kernel written once, kernel read twice per iteration.
        sk_b.push(8.0 * n2 * (2.0 + 2.0 * r.iterations as f64));

        let a1 = Matrix::from_vec(n, n, p.g1.adjacency_matrix_padded(n));
        let a2 = Matrix::from_vec(n, n, p.g2.adjacency_matrix_padded(n));
        let pi = Matrix::filled(n, n, 1.0 / n as f64);
        let start = Instant::now();
        let tensor = gw_tensor_apply(&a1, &a2, &pi);
        gw.push(start.elapsed().as_secs_f64() * 1e6);
        gw_b.push(8.0 * n2 * 4.0);

        let grad = cost.add(&tensor);
        let start = Instant::now();
        std::hint::black_box(lsap_min(&grad));
        lsap.push(start.elapsed().as_secs_f64() * 1e6);
        lsap_b.push(8.0 * n2);
    }
    report.add("kernel.sinkhorn_us", mean(&sk), "us");
    report.add("kernel.sinkhorn_bytes", mean(&sk_b), "bytes");
    report.add("kernel.gw_us", mean(&gw), "us");
    report.add("kernel.gw_bytes", mean(&gw_b), "bytes");
    report.add("kernel.lsap_us", mean(&lsap), "us");
    report.add("kernel.lsap_bytes", mean(&lsap_b), "bytes");
}
