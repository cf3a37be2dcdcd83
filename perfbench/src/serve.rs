//! `serve_read`, the first part of every run: `ged-served` over its Unix
//! socket, on the workload's dataset.
//!
//! Untraced runs report the end-to-end metrics. Traced runs time each
//! layer on the script's own request lines, unloaded: the socket round
//! trip against the idle daemon (wire), an in-process
//! `Server::handle_line` and the codec (server), the `GedEngine` sharded
//! call on a mirror store built from the same inserts (engine), and the
//! `ged_core` tier functions under it (filter); then they run the load
//! again to measure waiting.

use crate::host::Pace;
use crate::script::{self, Corpus, Op, OpKind, TOP_K};
use crate::stats::{self, geomean, mean, median, Report};
use crate::wire::{self, Daemon, Sample};
use crate::Args;
use ged_baselines::solvers::ClassicSolver;
use ged_core::lower_bound::{degree_sequence_lower_bound_sig, label_set_lower_bound_sig};
use ged_core::method::MethodKind;
use ged_core::search::bounded_exact_ged_with_budget;
use ged_core::solver::{GedgwSolver, SolverRegistry};
use ged_core::{GedEngine, RangeExactResult, SearchResult};
use ged_graph::{GraphId, GraphSignature, ShardedStore};
use ged_server::protocol::ResponseBody;
use ged_server::server::DEFAULT_BUCKET_WIDTH;
use ged_server::{encode_response, parse_request, parse_response};
use ged_server::{Server, ServerConfig};
use std::collections::{BTreeMap, BTreeSet};
use std::time::{Duration, Instant};

/// Set-ups per untraced run; `setup_s` is their median. A set-up takes
/// tens of ms.
const SETUPS: usize = 9;
/// The request kinds, in report order.
const OPS: [OpKind; 3] = [OpKind::TopK, OpKind::RangeExact, OpKind::Predict];

/// A daemon with the corpus's store inserted over the wire.
struct Served {
    daemon: Daemon,
    corpus: Corpus,
    /// Seconds of the whole set-up: corpus, process start, inserts.
    setup_s: f64,
    /// Wall time of the inserts alone.
    load: Duration,
}

fn set_up(args: &Args) -> Result<Served, String> {
    let start = Instant::now();
    let corpus = Corpus::new(args.workload.kind, args.seed, args.workload.tau);
    std::fs::create_dir_all(&args.run_dir).map_err(|e| format!("run dir: {e}"))?;
    let socket = args
        .run_dir
        .join(format!("served-{}.sock", std::process::id()));
    let daemon = Daemon::spawn(&args.served, &socket)?;
    let load_start = Instant::now();
    // Pipelined: the set-up measures inserting, not 700 socket round
    // trips, whose wake-ups cost what the host's scheduler decides.
    let replies = daemon.connect()?.pipeline(&corpus.setup_lines())?;
    for (i, reply) in replies.iter().enumerate() {
        let expected = format!("\"type\":\"inserted\",\"name\":\"g{i}\"");
        if !reply.contains(&expected) {
            return Err(format!("set-up insert {i} answered {reply}"));
        }
    }
    Ok(Served {
        daemon,
        corpus,
        setup_s: start.elapsed().as_secs_f64(),
        load: load_start.elapsed(),
    })
}

/// The script, run once: every answered request, in script order.
struct Load {
    samples: Vec<Sample>,
    stretches: Vec<Stretch>,
}

/// A stretch of the load: how many samples it holds, how long it took,
/// and the reading of the host's pace taken just before it.
struct Stretch {
    len: usize,
    wall_s: f64,
    reading: usize,
}

/// Runs the script once on two connections, requests alternating
/// between them, in stretches of [`STRETCH`] requests with a reading of
/// `pace` before each and after the last.
fn drive(
    served: &Served,
    lines: &[String],
    stretch: usize,
    pace: &mut Pace,
) -> Result<Load, String> {
    let mut conns = [served.daemon.connect()?, served.daemon.connect()?];
    let n = lines.len();
    let mut load = Load {
        samples: Vec::with_capacity(n),
        stretches: Vec::with_capacity(n.div_ceil(stretch)),
    };
    for first in (0..n).step_by(stretch) {
        let reading = pace.read();
        let start = Instant::now();
        let range = first..(first + stretch).min(n);
        let samples = wire::closed_loop(&mut conns, lines, range)?;
        load.stretches.push(Stretch {
            len: samples.len(),
            wall_s: start.elapsed().as_secs_f64(),
            reading,
        });
        load.samples.extend(samples);
    }
    pace.read();
    if load.samples.len() != n {
        return Err(format!("{} of {n} requests answered", load.samples.len()));
    }
    Ok(load)
}

fn lines(corpus: &Corpus, script: &[Op]) -> Vec<String> {
    script
        .iter()
        .enumerate()
        .map(|(i, &op)| corpus.line(op, i))
        .collect()
}

/// Per-kind lists of request latencies, ms.
fn latencies(script: &[Op], samples: &[Sample]) -> BTreeMap<OpKind, Vec<f64>> {
    let mut out: BTreeMap<OpKind, Vec<f64>> = BTreeMap::new();
    for s in samples {
        out.entry(script[s.index].kind())
            .or_default()
            .push(s.latency_ms());
    }
    out
}

/// Error code of a failed response, `None` when it is `ok`.
fn error_code(line: &str) -> Option<String> {
    match parse_response(line) {
        Ok(r) => match r.body {
            ResponseBody::Error { code, .. } => Some(code.as_str().to_string()),
            _ => None,
        },
        Err(e) => Some(format!("unparseable ({e})")),
    }
}

/// Runs `serve_read` into `report` and returns its set-up seconds at
/// the host's nominal pace.
///
/// The script holds the workload's requests per second times the
/// part's seconds, so on a 2-core host the closed loop runs for about
/// that long; it runs in stretches of about half a second, back to
/// back, with the host's pace read between them (see [`Pace`]).
pub fn run(args: &Args, report: &mut Report) -> Result<f64, String> {
    let rate = args.workload.requests_per_second;
    let requests = (rate as f64 * args.part_seconds()).round() as usize;
    let script = script::read_script(args.seed, requests);
    let stretch = rate / 2;
    report.attempted += script.len() as u64;

    let setups = if args.trace { 1 } else { SETUPS };
    let mut pace = Pace::default();
    let mut setup_s = Vec::with_capacity(setups);
    let mut reading = pace.read();
    let mut served = set_up(args)?;
    setup_s.push((served.setup_s, reading));
    for _ in 1..setups {
        served.daemon.shutdown()?;
        reading = pace.read();
        served = set_up(args)?;
        setup_s.push((served.setup_s, reading));
    }
    let lines = lines(&served.corpus, &script);
    eprintln!(
        "perfbench: script {:016x}, {} requests, store {:016x}",
        script::digest(&lines),
        lines.len(),
        script::digest(&served.corpus.setup_lines())
    );

    let Load { samples, stretches } = drive(&served, &lines, stretch, &mut pace)?;
    let failures: Vec<(usize, String)> = samples
        .iter()
        .filter_map(|s| error_code(&s.response).map(|c| (s.index, c)))
        .collect();
    report.failed += failures.len() as u64;
    for (i, code) in failures.iter().take(5) {
        report.fail(format!(
            "request {i} ({}) failed: {code}",
            script[*i].kind().name()
        ));
    }
    check_reads(&served.corpus, &script, &samples, report);

    let lat = latencies(&script, &samples);
    if args.trace {
        served.daemon.shutdown()?;
        let traced = set_up(args)?;
        trace(&traced, &script, &lines, stretch, &lat, &failures, report)?;
        traced.daemon.shutdown()?;
        return Ok(served.setup_s);
    }
    served.daemon.shutdown()?;

    // Every time at the host's nominal pace: each set-up, stretch and
    // request latency scaled by the pace around it.
    let wall_s: f64 = stretches.iter().map(|s| s.wall_s).sum();
    eprintln!(
        "perfbench: as measured: ops_s {:.1}, p50 ms {:?}",
        script.len() as f64 / wall_s,
        OPS.map(|k| median(&lat[&k]))
    );
    let setup_s: Vec<f64> = setup_s.iter().map(|&(s, i)| s * pace.factor(i)).collect();
    let nominal_s: f64 = stretches
        .iter()
        .map(|s| s.wall_s * pace.factor(s.reading))
        .sum();
    report.add("ops_s", script.len() as f64 / nominal_s, "1/s");
    let mut nominal: BTreeMap<OpKind, Vec<f64>> = BTreeMap::new();
    let mut rest = samples.as_slice();
    for s in &stretches {
        let (these, later) = rest.split_at(s.len);
        rest = later;
        for x in these {
            nominal
                .entry(script[x.index].kind())
                .or_default()
                .push(x.latency_ms() * pace.factor(s.reading));
        }
    }
    for kind in OPS {
        report.add(
            &format!("{}_ms", kind.name()),
            geomean(&nominal[&kind]),
            "ms",
        );
    }
    Ok(median(&setup_s))
}

/// The mirror: a `GedEngine` configured like the daemon's, over a
/// `ShardedStore` built from the same inserts in the same order, so its
/// ids map one-to-one onto the daemon's `g{i}` names.
struct Mirror {
    engine: GedEngine,
    store: ShardedStore,
    names: BTreeMap<GraphId, String>,
}

impl Mirror {
    fn new(corpus: &Corpus) -> Mirror {
        let mut registry = SolverRegistry::new();
        registry.register(MethodKind::Gedgw, Box::new(GedgwSolver));
        registry.register(MethodKind::Classic, Box::new(ClassicSolver));
        let engine = GedEngine::builder(registry)
            .method(MethodKind::Gedgw)
            .threads(2)
            .build()
            .expect("the daemon's engine configuration builds");
        let mut store = ShardedStore::new(DEFAULT_BUCKET_WIDTH);
        let mut names = BTreeMap::new();
        for (i, g) in corpus.store.iter().enumerate() {
            names.insert(store.insert(g.clone()), format!("g{i}"));
        }
        Mirror {
            engine,
            store,
            names,
        }
    }

    /// The engine's answer to a request, and how long the call took.
    fn answer(&self, corpus: &Corpus, op: Op) -> (Answer, Duration) {
        let start = Instant::now();
        let answer = match op {
            Op::TopK(q) => Answer::TopK(
                self.engine
                    .top_k_sharded(&corpus.queries[q], &self.store, TOP_K as usize)
                    .expect("top_k on a non-empty store"),
            ),
            Op::RangeExact(q) => Answer::Range(
                self.engine
                    .range_exact_sharded(&corpus.queries[q], &self.store, corpus.tau)
                    .expect("range_exact on a non-empty store"),
            ),
            Op::Predict(a, b) => Answer::Ged(
                self.engine
                    .ged(&corpus.queries[a], &corpus.queries[b])
                    .expect("predict on non-empty graphs")
                    .ged,
            ),
        };
        (answer, start.elapsed())
    }

    /// The wire body the daemon should send for `answer`.
    fn expected(&self, answer: &Answer) -> ResponseBody {
        use ged_server::protocol::{WireExactNeighbor, WireNeighbor};
        match answer {
            Answer::TopK(r) => ResponseBody::Neighbors {
                neighbors: r
                    .neighbors
                    .iter()
                    .map(|n| WireNeighbor {
                        name: self.names[&n.id].clone(),
                        ged: n.ged,
                    })
                    .collect(),
            },
            Answer::Range(r) => ResponseBody::ExactMatches {
                matches: r
                    .matches
                    .iter()
                    .map(|m| WireExactNeighbor {
                        name: self.names[&m.id].clone(),
                        ged: m.ged as u64,
                    })
                    .collect(),
                undecided: Vec::new(),
            },
            Answer::Ged(ged) => ResponseBody::Ged { ged: *ged },
        }
    }
}

enum Answer {
    TopK(SearchResult),
    Range(RangeExactResult),
    Ged(f64),
}

/// Every wire answer equals the mirror engine's answer to the same query
/// (f64s compared bit for bit by `PartialEq` on the parsed body; the
/// codec round-trips f64s exactly).
fn check_reads(corpus: &Corpus, script: &[Op], samples: &[Sample], report: &mut Report) {
    let mirror = Mirror::new(corpus);
    let mut expected: BTreeMap<Op, ResponseBody> = BTreeMap::new();
    let mut wrong = 0;
    for s in samples {
        let op = script[s.index];
        let want = expected
            .entry(op)
            .or_insert_with(|| mirror.expected(&mirror.answer(corpus, op).0));
        match parse_response(&s.response) {
            Ok(r) if r.body == *want => {}
            Ok(r) => {
                wrong += 1;
                if wrong <= 3 {
                    report.fail(format!(
                        "request {} ({op:?}): wire {:?} != engine {want:?}",
                        s.index, r.body
                    ));
                }
            }
            Err(e) => report.fail(format!("request {}: unparseable response: {e}", s.index)),
        }
    }
    if wrong > 0 {
        report.fail(format!(
            "{wrong} wire answers differ from the mirror engine"
        ));
    }
}

/// Unloaded timings of one request line, µs.
struct LineCost {
    rtt_us: f64,
    send_us: f64,
    handle_us: f64,
    codec_us: f64,
    engine_us: f64,
    bytes: f64,
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Repetitions of each unloaded per-line timing.
const REPS: usize = 3;
/// Most distinct lines of one kind a traced run probes.
const PROBES: usize = 120;

fn trace(
    served: &Served,
    script: &[Op],
    lines: &[String],
    stretch: usize,
    untraced: &BTreeMap<OpKind, Vec<f64>>,
    untraced_failures: &[(usize, String)],
    report: &mut Report,
) -> Result<(), String> {
    let corpus = &served.corpus;
    // Up to `PROBES` distinct lines of each kind are probed, evenly
    // spread over the kind's distinct lines in `Op` order: enough for
    // stable medians and a p90, in bounded probing time.
    let unique: BTreeSet<Op> = script.iter().copied().collect();
    let distinct: Vec<Op> = OPS
        .iter()
        .flat_map(|&kind| {
            let of_kind: Vec<Op> = unique
                .iter()
                .copied()
                .filter(|op| op.kind() == kind)
                .collect();
            let take = of_kind.len().min(PROBES);
            (0..take).map(move |i| of_kind[i * of_kind.len() / take])
        })
        .collect();

    // Server: an in-process `Server` in the daemon's set-up state.
    let config = ServerConfig {
        threads: Some(2),
        ..ServerConfig::default()
    };
    let server = Server::new(&config).map_err(|e| e.to_string())?;
    for g in &corpus.store {
        server.insert_local(g.clone());
    }
    let mirror = Mirror::new(corpus);

    // Every probed line, unloaded: the socket round trip against the
    // idle daemon, the in-process handle and codec, and the mirror's
    // engine call, interleaved. Each is the minimum over the
    // repetitions, which discards interruptions of the repeated
    // identical work.
    let mut conn = served.daemon.connect()?;
    let mut cost: BTreeMap<Op, LineCost> = BTreeMap::new();
    let mut stats = EngineStats::default();
    for &op in &distinct {
        let line = corpus.line(op, 0);
        let mut c = LineCost {
            rtt_us: f64::MAX,
            send_us: f64::MAX,
            handle_us: f64::MAX,
            codec_us: f64::MAX,
            engine_us: f64::MAX,
            bytes: 0.0,
        };
        for rep in 0..REPS {
            let start = Instant::now();
            conn.send(&line)?;
            let sent = Instant::now();
            let reply = conn.recv()?;
            c.rtt_us = c.rtt_us.min(us(start.elapsed()));
            c.send_us = c.send_us.min(us(sent - start));
            c.bytes = (reply.len() + 1) as f64;
            let (handle, codec) = handle_and_codec(&server, &line);
            c.handle_us = c.handle_us.min(handle);
            c.codec_us = c.codec_us.min(codec);
            let (answer, took) = mirror.answer(corpus, op);
            c.engine_us = c.engine_us.min(us(took));
            if rep == 0 {
                stats.record(&answer);
            }
        }
        cost.insert(op, c);
    }

    // The load again, on the traced set-up: its latencies
    // against the untraced run's give the tracing overhead, and the
    // waits below.
    let loaded = drive(served, lines, stretch, &mut Pace::default())?.samples;
    let traced_lat = latencies(script, &loaded);
    let p50 = |m: &BTreeMap<OpKind, Vec<f64>>| OPS.iter().map(|k| median(&m[k])).sum::<f64>();
    report.add(
        "trace.overhead.serve",
        p50(&traced_lat) / p50(untraced),
        "ratio",
    );
    let rejected = untraced_failures
        .iter()
        .filter(|(_, c)| c == "overloaded")
        .count();
    report.add("server.rejected", rejected as f64, "count");
    report.add(
        "server.failed",
        (untraced_failures.len() - rejected) as f64,
        "count",
    );
    report.add("setup.load_s", served.load.as_secs_f64(), "s");
    for kind in [OpKind::TopK, OpKind::RangeExact] {
        let name = format!("tail.{}_p90_ms", kind.name());
        report.add_tail(&name, &untraced[&kind], 90.0, "ms");
    }

    for kind in OPS {
        let name = kind.name();
        let costs: Vec<&LineCost> = cost
            .iter()
            .filter(|(op, _)| op.kind() == kind)
            .map(|(_, c)| c)
            .collect();
        let pick = |f: &dyn Fn(&LineCost) -> f64| costs.iter().map(|c| f(c)).collect::<Vec<f64>>();
        let codec = median(&pick(&|c| c.codec_us));
        let server_self = median(&pick(&|c| c.handle_us - c.codec_us - c.engine_us));
        let engine = pick(&|c| c.engine_us);
        report.add(&format!("server.codec_us.{name}"), codec, "us");
        report.add(
            &format!("server.handle_us.{name}"),
            median(&pick(&|c| c.handle_us)),
            "us",
        );
        report.add(&format!("server.self_us.{name}"), server_self, "us");
        report.add(
            &format!("engine.query_us.{name}.p50"),
            median(&engine),
            "us",
        );
        report.add_tail(&format!("engine.query_us.{name}.p90"), &engine, 90.0, "us");
        let wire_self = median(&pick(&|c| c.rtt_us - c.handle_us));
        report.add(&format!("wire.self_us.{name}"), wire_self, "us");
        report.add(
            &format!("wire.send_us.{name}"),
            median(&pick(&|c| c.send_us)),
            "us",
        );
        report.add(
            &format!("wire.resp_bytes.{name}"),
            median(&pick(&|c| c.bytes)),
            "bytes",
        );

        // Loaded latency minus the unloaded round trip of the same line:
        // time spent waiting for a core or in the queue.
        let wait: Vec<f64> = loaded
            .iter()
            .filter(|s| script[s.index].kind() == kind)
            .filter_map(|s| Some(s.latency_ms() - cost.get(&script[s.index])?.rtt_us / 1e3))
            .collect();
        report.add(&format!("server.wait_ms.{name}.p50"), median(&wait), "ms");
        report.add_tail(&format!("server.wait_ms.{name}.p90"), &wait, 90.0, "ms");

        // The share of the untraced end-to-end median the four unloaded
        // parts explain; the rest is waiting under load.
        let unloaded = [wire_self, codec, server_self, median(&engine)];
        report.add(
            &format!("trace.unloaded_share.{name}"),
            stats::closure(&unloaded, median(&untraced[&kind]) * 1e3),
            "ratio",
        );
    }
    stats.report(report);
    filter(corpus, &mirror, &distinct, report);
    Ok(())
}

/// In-process `handle_line` time and codec time (`parse_request` plus
/// `encode_response` of the same answer), µs.
fn handle_and_codec(server: &Server, line: &str) -> (f64, f64) {
    let start = Instant::now();
    let (out, _) = server.handle_line(line);
    let handle = us(start.elapsed());
    let start = Instant::now();
    let parsed = parse_request(line);
    let parse = start.elapsed();
    std::hint::black_box(parsed.is_ok());
    let resp = parse_response(&out).expect("the server's own response parses");
    let start = Instant::now();
    let encoded = encode_response(&resp);
    let encode = start.elapsed();
    std::hint::black_box(encoded.len());
    (handle, us(parse + encode))
}

/// Per-query means of the engine's returned plan statistics. The pivot
/// tiers and the verify budget are left out: the daemon runs pivot-free
/// with an unlimited budget, so they are always 0.
#[derive(Default)]
struct EngineStats {
    values: BTreeMap<String, (&'static str, Vec<f64>)>,
}

impl EngineStats {
    fn push(&mut self, name: String, unit: &'static str, v: f64) {
        self.values
            .entry(name)
            .or_insert((unit, Vec::new()))
            .1
            .push(v);
    }

    fn record(&mut self, answer: &Answer) {
        match answer {
            Answer::TopK(r) => {
                let s = r.stats;
                for (k, v) in [
                    ("candidates", s.candidates),
                    ("pruned_shard", s.pruned_shard),
                    ("pruned_label", s.pruned_label),
                    ("pruned_degree", s.pruned_degree),
                    ("verified", s.verified),
                ] {
                    self.push(format!("engine.{k}.top_k"), "count", v as f64);
                }
                if s.verified > 0 {
                    let y = r.neighbors.len() as f64 / s.verified as f64;
                    self.push("engine.verify_yield.top_k".to_string(), "ratio", y);
                }
            }
            Answer::Range(r) => {
                let s = r.stats;
                for (k, v) in [
                    ("candidates", s.total()),
                    ("pruned_shard", s.pruned_shard),
                    ("pruned_signature", s.filtered),
                    ("accepted_early", s.accepted_early),
                    ("verified", s.verified),
                ] {
                    self.push(format!("engine.{k}.range_exact"), "count", v as f64);
                }
                if s.verified > 0 {
                    let matched_by_search = r.matches.len().saturating_sub(s.accepted_early);
                    let y = matched_by_search as f64 / s.verified as f64;
                    self.push("engine.verify_yield.range_exact".to_string(), "ratio", y);
                }
            }
            Answer::Ged(_) => {}
        }
    }

    fn report(&self, report: &mut Report) {
        for (name, (unit, xs)) in &self.values {
            report.add(name, mean(xs), unit);
        }
    }
}

/// The filter tier functions the plans call, timed directly on the
/// mirror's graphs: the signature bounds per candidate and the
/// τ-bounded exact search on the candidates that survive them
/// (`range_exact` queries).
fn filter(corpus: &Corpus, mirror: &Mirror, distinct: &[Op], report: &mut Report) {
    let tau = corpus.tau as usize;
    let entries: Vec<(&ged_graph::Graph, &GraphSignature)> =
        mirror.store.entries().map(|(_, g, s)| (g, s)).collect();
    let (mut bound_ns, mut bounds) = (0.0, 0usize);
    let (mut exact_us, mut exact_calls, mut queries) = (Vec::new(), 0usize, 0usize);
    for op in distinct {
        let Op::RangeExact(q) = *op else { continue };
        let query = &corpus.queries[q];
        let qsig = GraphSignature::of(query);
        queries += 1;
        let start = Instant::now();
        let survivors: Vec<&ged_graph::Graph> = entries
            .iter()
            .filter(|(_, sig)| {
                label_set_lower_bound_sig(&qsig, sig)
                    .max(degree_sequence_lower_bound_sig(&qsig, sig))
                    <= tau
            })
            .map(|(g, _)| *g)
            .collect();
        bound_ns += start.elapsed().as_secs_f64() * 1e9;
        bounds += entries.len();
        for g in survivors {
            let start = Instant::now();
            std::hint::black_box(bounded_exact_ged_with_budget(query, g, tau, usize::MAX));
            exact_us.push(us(start.elapsed()));
            exact_calls += 1;
        }
    }
    if bounds > 0 {
        report.add("filter.bound_ns", bound_ns / bounds as f64, "ns");
    }
    if !exact_us.is_empty() {
        report.add("filter.exact_us", mean(&exact_us), "us");
        report.add(
            "filter.exact_calls",
            exact_calls as f64 / queries as f64,
            "count",
        );
    }
}
