//! Seeded inputs: the graph corpus and the request scripts.
//!
//! Everything here is a pure function of the workload seed, so the same
//! seed yields a byte-identical script (checked by [`digest`]) and runs
//! of the same code do identical work. Graphs come from the workload's
//! dataset generator (`GraphDataset::aids_like` or `linux_like`, the
//! paper's AIDS and LINUX stand-ins); query graphs are drawn from their
//! own stream and are never stored.

use ged_graph::{DatasetKind, Graph, GraphDataset};
use ged_server::encode_request;
use ged_server::protocol::{GraphRef, Request};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

/// Graphs inserted during set-up: the size of the paper's AIDS dataset
/// (100 of each size).
pub const STORE_GRAPHS: usize = 700;
/// Held-out query graphs the scripts cycle through (100 of each size).
pub const QUERY_POOL: usize = 700;
/// `k` of every `top_k` request.
pub const TOP_K: u64 = 5;

/// One scripted request. Indices point into [`Corpus`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Op {
    /// `top_k` of query graph `q`.
    TopK(usize),
    /// `range_exact` of query graph `q`.
    RangeExact(usize),
    /// `predict` between query graphs `a` and `b`.
    Predict(usize, usize),
}

/// The operation kinds, in report order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum OpKind {
    /// `top_k`.
    TopK,
    /// `range_exact`.
    RangeExact,
    /// `predict`.
    Predict,
}

impl OpKind {
    /// The metric-name fragment of this kind.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            OpKind::TopK => "top_k",
            OpKind::RangeExact => "range_exact",
            OpKind::Predict => "predict",
        }
    }
}

impl Op {
    /// This request's kind.
    #[must_use]
    pub fn kind(self) -> OpKind {
        match self {
            Op::TopK(_) => OpKind::TopK,
            Op::RangeExact(_) => OpKind::RangeExact,
            Op::Predict(..) => OpKind::Predict,
        }
    }
}

/// The seeded graphs of one run.
pub struct Corpus {
    /// Inserted during set-up, in order (names `g0..g699`).
    pub store: Vec<Graph>,
    /// Held-out query graphs.
    pub queries: Vec<Graph>,
    /// `τ` of every `range_exact` request.
    pub tau: f64,
}

/// A seeded RNG for one independent purpose (`stream`) of a run.
#[must_use]
pub fn rng(seed: u64, stream: u64) -> SmallRng {
    SmallRng::seed_from_u64(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Node counts `GraphDataset::aids_like` and `linux_like` draw,
/// uniformly.
const SIZES: std::ops::RangeInclusive<usize> = 4..=10;

/// Graphs the edge-count mix of each node count is estimated from.
const MIX_SAMPLE: usize = 10_000;

/// How many of `n` graphs of `kind` fall in each (node count, edge
/// count) cell: each node count in 4..=10 gets an equal share (the
/// smallest counts take the remainder), split over edge counts in
/// proportion to a sample of the generator drawn from a fixed stream,
/// the same for every seed, by largest remainder.
fn quotas(kind: DatasetKind, n: usize) -> BTreeMap<(usize, usize), usize> {
    let mut sample: BTreeMap<usize, BTreeMap<usize, usize>> = BTreeMap::new();
    for g in GraphDataset::build(kind, MIX_SAMPLE, &mut rng(0, 0))
        .store()
        .graphs()
    {
        *sample
            .entry(g.num_nodes())
            .or_default()
            .entry(g.num_edges())
            .or_default() += 1;
    }
    let sizes = SIZES.count();
    let mut out = BTreeMap::new();
    for (i, nodes) in SIZES.enumerate() {
        let want = n / sizes + usize::from(i < n % sizes);
        let edges = &sample[&nodes];
        let total: usize = edges.values().sum();
        let mut remainders = Vec::with_capacity(edges.len());
        let mut given = 0;
        for (&m, &count) in edges {
            out.insert((nodes, m), want * count / total);
            given += want * count / total;
            remainders.push((want * count % total, m));
        }
        remainders.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        for &(_, m) in remainders.iter().take(want - given) {
            *out.get_mut(&(nodes, m)).expect("a sampled cell") += 1;
        }
    }
    out
}

/// `n` graphs of dataset `kind` (AIDS or LINUX) from stream `stream` of
/// `seed`, stratified by node and edge count to [`quotas`], in
/// generation order. Per-query cost depends most on graph size, and on
/// LINUX's unlabelled graphs also on how many are trees, so fixing the
/// mix at its expected value removes that part of the seed-to-seed
/// spread; within a cell the graphs are the generator's own draws.
#[must_use]
pub fn graphs(kind: DatasetKind, seed: u64, stream: u64, n: usize) -> Vec<Graph> {
    assert!(
        kind != DatasetKind::Imdb,
        "IMDB-like graphs exceed 10 nodes"
    );
    let mut want = quotas(kind, n);
    let mut rng = rng(seed, stream);
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        for g in GraphDataset::build(kind, n, &mut rng).store().graphs() {
            if let Some(left) = want.get_mut(&(g.num_nodes(), g.num_edges())) {
                if *left > 0 {
                    *left -= 1;
                    out.push(g.clone());
                }
            }
        }
    }
    out
}

impl Corpus {
    /// The corpus of dataset `kind` and `seed`, queried in ranges of
    /// radius `tau`.
    #[must_use]
    pub fn new(kind: DatasetKind, seed: u64, tau: f64) -> Self {
        Corpus {
            store: graphs(kind, seed, 1, STORE_GRAPHS),
            queries: graphs(kind, seed, 2, QUERY_POOL),
            tau,
        }
    }

    /// The wire request line of `op`, with client id `id` and every
    /// graph argument inline. No trailing newline.
    #[must_use]
    pub fn line(&self, op: Op, id: usize) -> String {
        let id = id.to_string();
        let inline = |g: &Graph| GraphRef::Inline(g.clone());
        let req = match op {
            Op::TopK(q) => Request::TopK {
                id,
                query: inline(&self.queries[q]),
                k: TOP_K,
                deadline_ms: None,
            },
            Op::RangeExact(q) => Request::RangeExact {
                id,
                query: inline(&self.queries[q]),
                tau: self.tau,
                deadline_ms: None,
            },
            Op::Predict(a, b) => Request::Predict {
                id,
                g1: inline(&self.queries[a]),
                g2: inline(&self.queries[b]),
                deadline_ms: None,
            },
        };
        encode_request(&req)
    }

    /// The set-up request lines: one `insert_graph` per store graph.
    #[must_use]
    pub fn setup_lines(&self) -> Vec<String> {
        self.store
            .iter()
            .enumerate()
            .map(|(i, g)| {
                encode_request(&Request::InsertGraph {
                    id: format!("s{i}"),
                    graph: g.clone(),
                })
            })
            .collect()
    }
}

/// `n` kinds in exact proportions `shares` (the last kind takes the
/// rounding remainder), shuffled by `rng`.
fn mix(n: usize, shares: &[(OpKind, f64)], rng: &mut SmallRng) -> Vec<OpKind> {
    let mut kinds = Vec::with_capacity(n);
    for (i, &(kind, share)) in shares.iter().enumerate() {
        let count = if i + 1 == shares.len() {
            n - kinds.len()
        } else {
            (share * n as f64).round() as usize
        };
        kinds.extend(std::iter::repeat_n(kind, count));
    }
    kinds.shuffle(rng);
    kinds
}

/// Hands out query graphs per request kind in pool order, cycling, so
/// a run's queries are as close to the whole stratified pool as its
/// length allows.
#[derive(Default)]
struct Cycle(BTreeMap<OpKind, usize>);

impl Cycle {
    fn next(&mut self, kind: OpKind) -> usize {
        let i = self.0.entry(kind).or_default();
        *i += 1;
        (*i - 1) % QUERY_POOL
    }
}

/// The `serve_read` script: `n` requests, exactly 40 % `top_k`, 40 %
/// `range_exact` and 20 % `predict`, in seeded order.
#[must_use]
pub fn read_script(seed: u64, n: usize) -> Vec<Op> {
    let mut rng = rng(seed, 4);
    let mut cycle = Cycle::default();
    let shares = [
        (OpKind::TopK, 0.4),
        (OpKind::RangeExact, 0.4),
        (OpKind::Predict, 0.2),
    ];
    mix(n, &shares, &mut rng)
        .into_iter()
        .map(|kind| match kind {
            OpKind::TopK => Op::TopK(cycle.next(kind)),
            OpKind::RangeExact => Op::RangeExact(cycle.next(kind)),
            _ => {
                let a = cycle.next(kind);
                let b = (a + 1 + rng.gen_range(0..QUERY_POOL - 1)) % QUERY_POOL;
                Op::Predict(a, b)
            }
        })
        .collect()
}

/// FNV-1a digest of request lines: equal digests mean byte-identical
/// scripts.
#[must_use]
pub fn digest<'a>(lines: impl IntoIterator<Item = &'a String>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for line in lines {
        for b in line.bytes().chain(std::iter::once(b'\n')) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use DatasetKind::{Aids, Linux};

    fn lines(corpus: &Corpus, script: &[Op]) -> Vec<String> {
        script
            .iter()
            .enumerate()
            .map(|(i, &op)| corpus.line(op, i))
            .collect()
    }

    #[test]
    fn same_seed_same_bytes() {
        for (kind, seed) in [(Aids, 1), (Linux, 2)] {
            let (ca, cb) = (Corpus::new(kind, seed, 2.0), Corpus::new(kind, seed, 2.0));
            let (a, b) = (read_script(seed, 300), read_script(seed, 300));
            assert_eq!(lines(&ca, &a), lines(&cb, &b));
            assert_eq!(ca.setup_lines(), cb.setup_lines());
        }
        let c1 = Corpus::new(Aids, 1, 3.0);
        let c2 = Corpus::new(Aids, 2, 3.0);
        assert_ne!(
            digest(&lines(&c1, &read_script(1, 50))),
            digest(&lines(&c2, &read_script(2, 50)))
        );
        assert_ne!(digest(&c1.setup_lines()), digest(&c2.setup_lines()));
    }

    #[test]
    fn read_mix_is_exact() {
        let s = read_script(7, 1000);
        let count = |k: OpKind| s.iter().filter(|op| op.kind() == k).count();
        assert_eq!(count(OpKind::TopK), 400);
        assert_eq!(count(OpKind::RangeExact), 400);
        assert_eq!(count(OpKind::Predict), 200);
        assert!(s
            .iter()
            .all(|op| !matches!(op, Op::Predict(a, b) if a == b)));
    }

    #[test]
    fn sizes_are_stratified() {
        for kind in [Aids, Linux] {
            let gs = graphs(kind, 5, 1, 23);
            for n in SIZES {
                let count = gs.iter().filter(|g| g.num_nodes() == n).count();
                assert_eq!(count, if n < 6 { 4 } else { 3 }, "{kind:?} size {n}");
            }
            assert_eq!(gs, graphs(kind, 5, 1, 23));
        }
        assert_ne!(graphs(Aids, 5, 1, 23), graphs(Linux, 5, 1, 23));
    }

    #[test]
    fn edge_counts_follow_the_quotas() {
        for kind in [Aids, Linux] {
            let want = quotas(kind, 700);
            assert_eq!(want.values().sum::<usize>(), 700);
            for seed in [3, 4] {
                let mut got: BTreeMap<(usize, usize), usize> = BTreeMap::new();
                for g in graphs(kind, seed, 2, 700) {
                    *got.entry((g.num_nodes(), g.num_edges())).or_default() += 1;
                }
                got.retain(|_, c| *c > 0);
                let mut want = want.clone();
                want.retain(|_, c| *c > 0);
                assert_eq!(got, want, "{kind:?} seed {seed}");
            }
        }
    }

    #[test]
    fn queries_are_held_out() {
        let c = Corpus::new(Aids, 11, 3.0);
        for q in &c.queries {
            assert!(!c.store.contains(q) || q.num_nodes() <= 4);
        }
        assert_eq!(c.store.len(), STORE_GRAPHS);
        assert_eq!(c.queries.len(), QUERY_POOL);
    }
}
