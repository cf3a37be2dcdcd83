//! Threshold-based graph similarity search (the application of Section 2
//! of the paper).
//!
//! Given a query graph and a threshold `τ`, retrieve every database graph
//! whose GED to the query is `≤ τ`. The classical pipeline is
//! *filter-then-verify*:
//!
//! 1. **filter** — cheap lower bounds (label-set, degree-sequence) discard
//!    candidates whose bound already exceeds `τ`;
//! 2. **prune** — a fast feasible upper bound (best-matching rounding of a
//!    GEDGW coupling) *accepts* candidates whose upper bound is `≤ τ`;
//! 3. **verify** — the surviving candidates run a τ-bounded exact A\*
//!    that aborts as soon as the optimum provably exceeds `τ`.
//!
//! Setting `τ = ∞` degrades to exact GED computation, exactly as the paper
//! notes for Nass / AStar-BMao; the engine's
//! [`crate::engine::GedQuery::RangeExact`] accepts `τ = +∞` with exactly
//! that full-scan meaning.
//!
//! The tiers are exposed individually — [`label_set_lower_bound`] /
//! [`degree_sequence_lower_bound`] (re-exported from
//! [`crate::lower_bound`]), [`fast_upper_bound`], and
//! [`bounded_exact_ged_with_budget`] — and composed once, per candidate,
//! by [`prune_or_verify`]: the unit the store-level
//! [`crate::engine::GedQuery::RangeExact`] plan (and the joins) run after
//! their signature-fed filter tier. Its [`CandidateOutcome`]s always
//! carry exact distances: an upper-bound accept decides *membership*
//! without τ-bounded search, then recovers the exact distance with a
//! search bounded by the (tighter) feasible bound itself.
//!
//! # The exact A\* core
//!
//! Every exact GED in the workspace runs through one search,
//! [`exact_search_in`]: τ-bounded verification, the recovery searches of
//! upper-bound and pivot accepts, pivot-table distances
//! ([`pivot_distance`]), joins, and the ground-truth labelling of
//! `ged_baselines::astar::astar_exact_with_limit`. The search tree maps
//! node `u_d` of the smaller graph `G1` at depth `d` to a free node of
//! `G2`; a state's cost `g` is maintained incrementally and its `f`
//! adds the admissible label-multiset + remaining-edge-count bound (a
//! complete mapping adds its exact closing cost instead).
//!
//! * **State arena.** A state is `(parent, mapped node, g, depth)` plus
//!   the count of `G2` edges inside its image, kept in a flat arena in
//!   the [`GedWorkspace`]; no state owns a mapping. Expanding a state
//!   rebuilds its mapping by walking the parent links.
//! * **O(1) child bounds.** Labels are compressed once per search. Per
//!   expansion the label counts of the child depth's `G1` suffix and of
//!   the unused `G2` nodes give their overlap `∩`; mapping to `v` lowers
//!   it by one iff `c2(l_v) ≤ c1(l_v)`. The `G1` edges still uncharged
//!   are tabled per depth, the `G2` ones are `|E2|` minus the image's
//!   inner edges (the parent's count plus `v`'s used neighbours), and
//!   edge tests read a per-search `G2` adjacency matrix.
//! * **Traversal.** The open list is keyed `(f, n1 − depth, arena
//!   index)`: smallest `f`, deeper first, then creation order. Both
//!   pre-filter bounds (label-set, degree-sequence) run before the first
//!   pop. Each pop checks, in order: `f > τ` (the verdict is
//!   [`BoundedSearch::Exceeds`]), then the budget, then the goal test.
//!   These are the traversal and the bounds of the earlier per-state
//!   `Vec` implementation, computed incrementally, so every state is
//!   expanded in the same order and every verdict and expansion count is
//!   unchanged (`tests/exact_search_identity.rs` keeps the old loops as
//!   references).
//!
//! **Budget semantics.** `budget` caps the states *popped*, the goal's
//! pop included: the pop that finds `budget` states already expanded
//! returns [`BoundedSearch::BudgetExhausted`] instead (so `budget = 0`
//! decides only by the pre-filter bounds, and `usize::MAX` never runs
//! out). The ground-truth wrapper counts only non-goal expansions against
//! its `max_expanded` limit, so it runs the core with `τ = ∞` and
//! `budget = max_expanded + 1` and reports `expanded − 1`.
//!
//! [`label_set_lower_bound`]: crate::lower_bound::label_set_lower_bound
//! [`degree_sequence_lower_bound`]: crate::lower_bound::degree_sequence_lower_bound

use crate::gedgw::Gedgw;
use crate::lower_bound::{degree_sequence_lower_bound, label_set_lower_bound};
use crate::pairs::ordered;
use crate::workspace::{reset, GedWorkspace};
use ged_graph::{CsrView, Graph, Label, NodeMapping, PivotDistance};
use ged_linalg::lsap_min_in;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt;

/// Statistics of the τ-exact filter–prune–verify pipeline (how much work
/// each stage saved). Every candidate lands in exactly one tier, so
/// [`ExactSearchStats::total`] always equals the number of candidates
/// examined (for a store-level query, the store size). The engine's
/// approximate store search reports the analogous
/// [`crate::engine::SearchStats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ExactSearchStats {
    /// Candidates discarded wholesale at the shard tier: their entire
    /// shard's aggregate lower bound already exceeded `τ`, so no
    /// per-graph metadata was touched. Always zero for flat-store plans
    /// (see [`ged_graph::shard::ShardedStore`]).
    pub pruned_shard: usize,
    /// Candidates discarded by the pivot-table lower bound
    /// (`|d(q,p) − d(p,g)| > τ` for some pivot `p`) before the signature
    /// bounds were even consulted. Always zero when the engine has no
    /// pivot index ([`crate::engine::GedEngineBuilder::pivots`]).
    pub pruned_pivot: usize,
    /// Candidates discarded by the signature lower bounds.
    pub filtered: usize,
    /// Candidates whose membership the pivot-table upper bound
    /// (`d(q,p) + d(p,g) ≤ τ`) certified before the GEDGW upper bound ran
    /// (the exact distance is then recovered by a search bounded by that
    /// pivot bound). Always zero without a pivot index.
    pub accepted_pivot: usize,
    /// Candidates accepted by the GEDGW upper bound.
    pub accepted_early: usize,
    /// Candidates that required bounded exact verification.
    pub verified: usize,
    /// Candidates whose bounded search exhausted its node-expansion
    /// budget before reaching a decision (see
    /// [`crate::engine::GedEngineBuilder::verify_budget`]). Always zero
    /// when the budget is unlimited.
    pub budget_exceeded: usize,
}

impl ExactSearchStats {
    /// Total candidates accounted for — the per-tier counts always close
    /// to the number of candidates examined, whether or not the pivot
    /// tiers fired.
    #[must_use]
    pub fn total(&self) -> usize {
        self.pruned_shard
            + self.pruned_pivot
            + self.filtered
            + self.accepted_pivot
            + self.accepted_early
            + self.verified
            + self.budget_exceeded
    }

    /// Accounts one prune/verify-phase [`CandidateOutcome`] to its tier —
    /// the single outcome→tier mapping every store-level exact plan uses,
    /// so accounting cannot drift between plans. (`Rejected` still counts
    /// as `verified`: the candidate consumed a bounded exact search.)
    pub fn record(&mut self, outcome: &CandidateOutcome) {
        match outcome {
            CandidateOutcome::AcceptedByPivot { .. } => self.accepted_pivot += 1,
            CandidateOutcome::AcceptedEarly { .. } => self.accepted_early += 1,
            CandidateOutcome::Verified { .. } | CandidateOutcome::Rejected => self.verified += 1,
            CandidateOutcome::BudgetExhausted { .. } => self.budget_exceeded += 1,
        }
    }
}

impl fmt::Display for ExactSearchStats {
    /// One-line tier breakdown, filter order left to right:
    /// `shard=.. pivot=.. filtered=.. accept_pivot=.. accept_ub=..
    /// verified=.. budget=.. total=..`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "shard={} pivot={} filtered={} accept_pivot={} accept_ub={} verified={} budget={} total={}",
            self.pruned_shard,
            self.pruned_pivot,
            self.filtered,
            self.accepted_pivot,
            self.accepted_early,
            self.verified,
            self.budget_exceeded,
            self.total()
        )
    }
}

/// Statistics of one GED join ([`crate::engine::GedQuery::SelfJoin`] /
/// [`crate::engine::GedQuery::Join`]): which tier settled each candidate
/// pair. Every pair of the join's candidate matrix lands in exactly one
/// tier, so [`JoinStats::total`] always equals the exact pair count —
/// `n·(n−1)/2` for a self-join over `n` graphs, `n·m` for a cross-store
/// join — whatever the planner decided.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct JoinStats {
    /// Pairs discarded wholesale at the block tier: the aggregate bound
    /// between their two units (shard×shard, or flat-store size ranges)
    /// already exceeded `τ`, so the block's pairs were counted off
    /// without touching any per-graph metadata.
    pub pruned_block: usize,
    /// Pairs discarded wholesale at the band tier: candidates are
    /// generated in signature-sort (node-count) order, so once one
    /// pair's size difference exceeds `τ` the whole remaining
    /// contiguous band of larger partners is discarded by arithmetic.
    pub pruned_band: usize,
    /// Pairs discarded one-by-one by the signature lower bounds
    /// (label multiset, degree sequence). Negative-`τ` joins account
    /// every pair here (nothing can match).
    pub filtered: usize,
    /// Pairs discarded by the pivot-table triangle lower bound. Always
    /// zero without a pivot index.
    pub pruned_pivot: usize,
    /// Pairs answered from an already-verified structurally identical
    /// pair: symmetric/duplicate pairs canonicalize to the same
    /// representative (same orientation the prediction cache keys on),
    /// which is verified once and its outcome shared.
    pub cache_hits: usize,
    /// Pairs whose membership the pivot-table upper bound certified
    /// before exact verification (the exact distance is then recovered
    /// by a search bounded by that certificate).
    pub accepted_pivot: usize,
    /// Pairs accepted by the GEDGW feasible upper bound.
    pub accepted_early: usize,
    /// Pairs that required bounded exact verification (including pairs
    /// the verification rejected).
    pub verified: usize,
    /// Pairs whose bounded search exhausted its node-expansion budget
    /// undecided (surfaced in the join result, not silently dropped).
    /// Always zero when the budget is unlimited.
    pub budget_exceeded: usize,
}

impl JoinStats {
    /// Total pairs accounted for — always the join's exact candidate
    /// pair count (`n·(n−1)/2` resp. `n·m`), whichever tiers fired.
    #[must_use]
    pub fn total(&self) -> usize {
        self.pruned_block
            + self.pruned_band
            + self.filtered
            + self.pruned_pivot
            + self.cache_hits
            + self.accepted_pivot
            + self.accepted_early
            + self.verified
            + self.budget_exceeded
    }

    /// Accounts one verify-phase [`CandidateOutcome`] to its tier — the
    /// same outcome→tier mapping as [`ExactSearchStats::record`], so
    /// join and per-query accounting cannot drift. (`Rejected` still
    /// counts as `verified`: the pair consumed a bounded exact search.)
    pub fn record(&mut self, outcome: &CandidateOutcome) {
        match outcome {
            CandidateOutcome::AcceptedByPivot { .. } => self.accepted_pivot += 1,
            CandidateOutcome::AcceptedEarly { .. } => self.accepted_early += 1,
            CandidateOutcome::Verified { .. } | CandidateOutcome::Rejected => self.verified += 1,
            CandidateOutcome::BudgetExhausted { .. } => self.budget_exceeded += 1,
        }
    }
}

impl fmt::Display for JoinStats {
    /// One-line tier breakdown, filter order left to right:
    /// `block=.. band=.. filtered=.. pivot=.. cache=.. accept_pivot=..
    /// accept_ub=.. verified=.. budget=.. total=..`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "block={} band={} filtered={} pivot={} cache={} accept_pivot={} accept_ub={} \
             verified={} budget={} total={}",
            self.pruned_block,
            self.pruned_band,
            self.filtered,
            self.pruned_pivot,
            self.cache_hits,
            self.accepted_pivot,
            self.accepted_early,
            self.verified,
            self.budget_exceeded,
            self.total()
        )
    }
}

/// The result of a budgeted τ-bounded exact search
/// ([`bounded_exact_ged_with_budget`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BoundedSearch {
    /// `GED(g1, g2) = ged ≤ τ`, proven exactly.
    Within(
        /// The exact GED.
        usize,
    ),
    /// `GED(g1, g2) > τ`, proven exactly.
    Exceeds,
    /// The node-expansion budget ran out before either proof: the pair is
    /// undecided. Never produced by an (effectively) unlimited budget.
    BudgetExhausted,
}

/// τ-bounded exact GED: returns `Some(ged)` if `GED(g1,g2) <= tau`, `None`
/// otherwise. A* with the admissible heuristic, aborting any branch whose
/// `f`-value exceeds `tau` — far cheaper than unbounded exact search for
/// small thresholds. Candidate pairs are pre-filtered with *both*
/// admissible lower bounds (label-set and degree-sequence), so a provably
/// distant pair never starts a search at all.
#[must_use]
pub fn bounded_exact_ged(g1: &Graph, g2: &Graph, tau: usize) -> Option<usize> {
    match bounded_exact_ged_with_budget(g1, g2, tau, usize::MAX) {
        BoundedSearch::Within(ged) => Some(ged),
        // A `usize::MAX` expansion budget can never actually exhaust.
        BoundedSearch::Exceeds | BoundedSearch::BudgetExhausted => None,
    }
}

/// [`bounded_exact_ged`] with a node-expansion budget: the search gives up
/// with [`BoundedSearch::BudgetExhausted`] after popping `budget` states
/// from the open list, so one pathological pair cannot blow up a
/// store-level query. `budget = usize::MAX` is effectively unlimited and
/// recovers [`bounded_exact_ged`] exactly.
#[must_use]
pub fn bounded_exact_ged_with_budget(
    g1: &Graph,
    g2: &Graph,
    tau: usize,
    budget: usize,
) -> BoundedSearch {
    bounded_exact_ged_with_budget_in(g1, g2, tau, budget, &mut GedWorkspace::new())
}

/// [`bounded_exact_ged_with_budget`] running the [`exact_search_in`] core
/// out of `ws`. Results match the allocating version for any (possibly
/// dirty) workspace.
#[must_use]
pub fn bounded_exact_ged_with_budget_in(
    g1: &Graph,
    g2: &Graph,
    tau: usize,
    budget: usize,
    ws: &mut GedWorkspace,
) -> BoundedSearch {
    exact_search_in(g1, g2, tau, budget, ws).outcome
}

/// One run of the exact A\* core ([`exact_search_in`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ExactSearch<'ws> {
    /// The verdict.
    pub outcome: BoundedSearch,
    /// States popped and counted against the budget, the goal's pop
    /// included (0 when a pre-filter bound decided the pair).
    pub expanded: usize,
    /// For [`BoundedSearch::Within`], the goal's node mapping in the
    /// ordered orientation ([`ordered`]: smaller graph → larger graph);
    /// empty otherwise.
    pub mapping: &'ws [u32],
}

/// One state of the A\* arena: the partial mapping `u_i → node` of its
/// ancestors plus `u_{depth−1} → node`, stored as a parent link. `inner`
/// counts the `G2` edges with both ends in the mapping's image.
#[derive(Clone, Copy, Debug)]
struct ArenaState {
    parent: u32,
    node: u32,
    depth: u32,
    g: u32,
    inner: u32,
}

/// The A\* core's scratch inside [`GedWorkspace`]: the state arena and
/// open list plus the per-search tables the child bounds read.
#[derive(Clone, Debug, Default)]
pub(crate) struct SearchScratch {
    arena: Vec<ArenaState>,
    open: BinaryHeap<Reverse<(usize, usize, usize)>>,
    /// Distinct labels of both graphs, sorted (the compression table).
    labels: Vec<Label>,
    /// Compressed node labels of `G1` / `G2`.
    lab1: Vec<u32>,
    lab2: Vec<u32>,
    /// Per-label counts of the unmapped `G1` suffix / unused `G2` nodes.
    count1: Vec<u32>,
    count2: Vec<u32>,
    /// `G2` adjacency matrix, row-major `n2 × n2`.
    adj2: Vec<bool>,
    /// `e1_rest[d]`: `G1` edges with an endpoint at depth `≥ d`.
    e1_rest: Vec<usize>,
    /// The expanded state's mapping and its image marks in `G2`.
    mapping: Vec<u32>,
    used: Vec<bool>,
    /// Images of the expanded node's already-mapped `G1` neighbours.
    pre: Vec<u32>,
    /// Sorted zero-padded degree sequences (pre-filter).
    deg1: Vec<usize>,
    deg2: Vec<usize>,
}

impl SearchScratch {
    /// Rebuilds `mapping` and its `used` image marks (over `n2` nodes) of
    /// arena state `idx` by walking its parent links.
    fn rebuild(&mut self, idx: usize, n2: usize) {
        let depth = self.arena[idx].depth as usize;
        reset(&mut self.mapping, depth, 0);
        reset(&mut self.used, n2, false);
        let mut at = idx;
        for d in (0..depth).rev() {
            let state = self.arena[at];
            self.mapping[d] = state.node;
            self.used[state.node as usize] = true;
            at = state.parent as usize;
        }
    }
}

/// The exact A\* search every exact GED in the workspace runs through
/// (see the [module docs](self)): τ-bounded, with a node-expansion
/// `budget`, out of `ws`. `τ = usize::MAX` with `budget = usize::MAX` is
/// plain exact A\*.
///
/// # Panics
/// Panics if the search holds more than `u32::MAX` states.
#[must_use]
pub fn exact_search_in<'ws>(
    g1: &Graph,
    g2: &Graph,
    tau: usize,
    budget: usize,
    ws: &'ws mut GedWorkspace,
) -> ExactSearch<'ws> {
    let (a, b, _) = ordered(g1, g2);
    let GedWorkspace {
        csr1, csr2, search, ..
    } = ws;
    csr1.rebuild_from(a);
    csr2.rebuild_from(b);
    let (outcome, expanded) = search_core(csr1, csr2, tau, budget, search);
    let mapping = match outcome {
        BoundedSearch::Within(_) => &search.mapping[..],
        BoundedSearch::Exceeds | BoundedSearch::BudgetExhausted => &[],
    };
    ExactSearch {
        outcome,
        expanded,
        mapping,
    }
}

/// [`exact_search_in`] on the ordered pair's views: the verdict and the
/// expansion count. On `Within`, `s.mapping` holds the goal's mapping.
fn search_core(
    csr1: &CsrView,
    csr2: &CsrView,
    tau: usize,
    budget: usize,
    s: &mut SearchScratch,
) -> (BoundedSearch, usize) {
    let n1 = csr1.num_nodes();
    let n2 = csr2.num_nodes();
    let e2 = csr2.num_edges();

    // Labels are compressed once: every label multiset below is a count
    // vector over `0..labels.len()`.
    s.labels.clear();
    s.labels.extend_from_slice(csr1.labels());
    s.labels.extend_from_slice(csr2.labels());
    s.labels.sort_unstable();
    s.labels.dedup();
    let code = |l: &Label| s.labels.binary_search(l).expect("label was collected") as u32;
    s.lab1.clear();
    s.lab1.extend(csr1.labels().iter().map(code));
    s.lab2.clear();
    s.lab2.extend(csr2.labels().iter().map(code));
    let nl = s.labels.len();
    reset(&mut s.count1, nl, 0);
    reset(&mut s.count2, nl, 0);
    for &l in &s.lab1 {
        s.count1[l as usize] += 1;
    }
    for &l in &s.lab2 {
        s.count2[l as usize] += 1;
    }

    // Both admissible bounds: each can dominate the other, and a bound
    // above τ proves GED > τ without expanding a single state. The label
    // surplus is shared by both, so it is computed once.
    let common = overlap(&s.count1, &s.count2);
    let node_term = (n1 - common).max(n2 - common);
    if node_term + csr1.num_edges().abs_diff(e2) > tau {
        return (BoundedSearch::Exceeds, 0);
    }
    let n = n1.max(n2);
    s.deg1.clear();
    s.deg1.extend((0..n1 as u32).map(|u| csr1.degree(u)));
    s.deg1.resize(n, 0);
    s.deg1.sort_unstable();
    s.deg2.clear();
    s.deg2.extend((0..n2 as u32).map(|u| csr2.degree(u)));
    s.deg2.resize(n, 0);
    s.deg2.sort_unstable();
    let diff: usize = s
        .deg1
        .iter()
        .zip(&s.deg2)
        .map(|(&x, &y)| x.abs_diff(y))
        .sum();
    if node_term + diff.div_ceil(2) > tau {
        return (BoundedSearch::Exceeds, 0);
    }

    // Per-search tables: the G2 adjacency matrix and, per depth, the G1
    // edges not yet charged to `g` (at least one endpoint unmapped).
    reset(&mut s.adj2, n2 * n2, false);
    for (v, w) in csr2.edges() {
        s.adj2[v as usize * n2 + w as usize] = true;
        s.adj2[w as usize * n2 + v as usize] = true;
    }
    reset(&mut s.e1_rest, n1 + 1, csr1.num_edges());
    for d in 0..n1 {
        let below = csr1
            .neighbors(d as u32)
            .iter()
            .filter(|&&w| (w as usize) < d);
        s.e1_rest[d + 1] = s.e1_rest[d] - below.count();
    }

    s.arena.clear();
    s.open.clear();
    s.arena.push(ArenaState {
        parent: u32::MAX,
        node: u32::MAX,
        depth: 0,
        g: 0,
        inner: 0,
    });
    s.open.push(Reverse((0, n1, 0)));

    let mut expanded = 0usize;
    while let Some(Reverse((f, _, idx))) = s.open.pop() {
        if f > tau {
            // Smallest f exceeds τ ⇒ GED > τ.
            return (BoundedSearch::Exceeds, expanded);
        }
        if expanded >= budget {
            return (BoundedSearch::BudgetExhausted, expanded);
        }
        expanded += 1;
        let state = s.arena[idx];
        let depth = state.depth as usize;
        if depth == n1 {
            // Closing cost: insert the unmatched G2 nodes and every G2
            // edge with an unmatched endpoint.
            let total = state.g as usize + (n2 - n1) + (e2 - state.inner as usize);
            if total <= tau {
                s.rebuild(idx, n2);
                return (BoundedSearch::Within(total), expanded);
            }
            continue;
        }
        s.rebuild(idx, n2);

        // Label counts of the child depth's G1 suffix and of the unused
        // G2 nodes, and their overlap; mapping `u → v` lowers the overlap
        // by one iff `v`'s label is no more common among the unused G2
        // nodes than in the G1 suffix.
        let u = depth;
        let child = depth + 1;
        reset(&mut s.count1, nl, 0);
        reset(&mut s.count2, nl, 0);
        for &l in &s.lab1[child..] {
            s.count1[l as usize] += 1;
        }
        for (v, &l) in s.lab2.iter().enumerate() {
            if !s.used[v] {
                s.count2[l as usize] += 1;
            }
        }
        let common = overlap(&s.count1, &s.count2);

        // Edge `(u, w)` of G1 with `w < u` is preserved iff G2 has
        // `(v, mapping[w])`; every other G2 edge from `v` into the image
        // is an insertion.
        s.pre.clear();
        for &w in csr1.neighbors(u as u32) {
            if (w as usize) < u {
                s.pre.push(s.mapping[w as usize]);
            }
        }
        assert!(
            s.arena.len() + n2 <= u32::MAX as usize,
            "A* arena exceeds u32 state indices"
        );
        let label_u = s.lab1[u];
        for v in 0..n2 {
            if s.used[v] {
                continue;
            }
            let row = &s.adj2[v * n2..(v + 1) * n2];
            let linked = csr2
                .neighbors(v as u32)
                .iter()
                .filter(|&&w| s.used[w as usize])
                .count();
            let kept = s.pre.iter().filter(|&&x| row[x as usize]).count();
            let delta = usize::from(label_u != s.lab2[v]) + s.pre.len() + linked - 2 * kept;
            let g = state.g as usize + delta;
            let inner = state.inner as usize + linked;
            let e2_rest = e2 - inner;
            let f = if child == n1 {
                g + (n2 - n1) + e2_rest
            } else {
                let l = s.lab2[v] as usize;
                let common = common - usize::from(s.count2[l] <= s.count1[l]);
                let node_term = (n1 - child - common).max(n2 - child - common);
                g + node_term + s.e1_rest[child].abs_diff(e2_rest)
            };
            if f > tau {
                continue;
            }
            s.arena.push(ArenaState {
                parent: idx as u32,
                node: v as u32,
                depth: child as u32,
                g: g as u32,
                inner: inner as u32,
            });
            s.open.push(Reverse((f, n1 - child, s.arena.len() - 1)));
        }
    }
    (BoundedSearch::Exceeds, expanded)
}

/// `Σ_l min(a_l, b_l)`: the size of the multiset intersection of two
/// label count vectors.
fn overlap(a: &[u32], b: &[u32]) -> usize {
    a.iter().zip(b).map(|(&x, &y)| x.min(y) as usize).sum()
}

/// Fast feasible upper bound: round a (cheap) GEDGW coupling to a matching
/// and take the induced cost.
#[must_use]
pub fn fast_upper_bound(g1: &Graph, g2: &Graph) -> usize {
    fast_upper_bound_in(g1, g2, &mut GedWorkspace::new())
}

/// [`fast_upper_bound`] with the GEDGW solve and the rounding LSAP drawn
/// from `ws`. Bit-identical to the allocating version for any (possibly
/// dirty) workspace.
#[must_use]
pub fn fast_upper_bound_in(g1: &Graph, g2: &Graph, ws: &mut GedWorkspace) -> usize {
    let (a, b, _) = ordered(g1, g2);
    let solve = Gedgw::new(a, b)
        .with_options(crate::gedgw::GedgwOptions {
            max_iter: 15,
            tol: 1e-7,
        })
        .solve_in(ws);
    let (rows, cols) = solve.coupling.shape();
    ws.neg.resize_zeroed(rows, cols);
    for (o, &x) in ws
        .neg
        .as_mut_slice()
        .iter_mut()
        .zip(solve.coupling.as_slice())
    {
        // Sign flip, bit-identical to the `scale(-1.0)` of the allocating
        // path (IEEE-754 negation for every finite or zero value).
        *o = -x;
    }
    let assignment = lsap_min_in(&ws.neg, &mut ws.ot.lsap);
    let mapping = NodeMapping::new(assignment.row_to_col.iter().map(|&c| c as u32).collect());
    mapping.induced_cost(a, b)
}

/// Outcome of one candidate in the store-level exact pipeline
/// ([`prune_or_verify`]): matching outcomes always carry the **exact**
/// GED.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CandidateOutcome {
    /// The pivot-table upper bound proved membership (`ub_pivot ≤ τ`)
    /// before the GEDGW upper bound was even computed; the exact distance
    /// was then recovered by a search bounded by that pivot bound.
    AcceptedByPivot {
        /// The exact GED (`≤ τ`).
        ged: usize,
    },
    /// The feasible upper bound proved membership (`ub ≤ τ`) without any
    /// τ-bounded search; the exact distance was then recovered by a
    /// search bounded by the (tighter) upper bound itself.
    AcceptedEarly {
        /// The exact GED (`≤ τ`).
        ged: usize,
    },
    /// τ-bounded exact verification concluded `GED = ged ≤ τ`.
    Verified {
        /// The exact GED (`≤ τ`).
        ged: usize,
    },
    /// τ-bounded exact verification concluded `GED > τ`.
    Rejected,
    /// The node-expansion budget ran out before the candidate could be
    /// fully resolved. When the prune tier had already proven membership
    /// (`ub ≤ τ`) and only the exact-distance recovery was cut short,
    /// `accepted_ub` carries that feasible bound — the proof is
    /// preserved, not discarded; `None` means membership is genuinely
    /// unknown.
    BudgetExhausted {
        /// `Some(ub)` when `GED ≤ ub ≤ τ` is already proven (the
        /// candidate *is* a match, only its exact distance is unknown);
        /// `None` when the τ-bounded verification itself ran out.
        accepted_ub: Option<usize>,
    },
}

/// Tiers 2 + 3 of the exact pipeline for one filter survivor: the prune
/// tier computes the feasible [`fast_upper_bound`] and accepts when it is
/// `≤ tau` (recovering the exact distance with an `ub`-bounded search —
/// strictly cheaper than a τ-bounded one, and never wasted because
/// membership is already proven); otherwise the verify tier runs the
/// τ-bounded exact search. `budget` caps the node expansions of either
/// search (`usize::MAX` = unlimited).
///
/// This is the per-candidate unit [`crate::engine::GedQuery::RangeExact`]
/// parallelizes over a store; callers are expected to have already run
/// the lower-bound filter tier (the searches re-check the bounds, so
/// skipping the filter costs speed, never correctness).
#[must_use]
pub fn prune_or_verify(query: &Graph, cand: &Graph, tau: usize, budget: usize) -> CandidateOutcome {
    prune_or_verify_in(query, cand, tau, budget, &mut GedWorkspace::new())
}

/// [`prune_or_verify`] with both tiers running out of `ws` — the unit the
/// engine's store-level exact plan hands each worker thread.
#[must_use]
pub fn prune_or_verify_in(
    query: &Graph,
    cand: &Graph,
    tau: usize,
    budget: usize,
    ws: &mut GedWorkspace,
) -> CandidateOutcome {
    let ub = fast_upper_bound_in(query, cand, ws);
    if ub <= tau {
        // Membership is decided search-free; `GED ≤ ub` makes the
        // ub-bounded recovery search guaranteed to succeed (modulo budget).
        return match bounded_exact_ged_with_budget_in(query, cand, ub, budget, ws) {
            BoundedSearch::Within(ged) => CandidateOutcome::AcceptedEarly { ged },
            BoundedSearch::Exceeds => unreachable!("feasible bound: GED ≤ ub always holds"),
            BoundedSearch::BudgetExhausted => CandidateOutcome::BudgetExhausted {
                accepted_ub: Some(ub),
            },
        };
    }
    match bounded_exact_ged_with_budget_in(query, cand, tau, budget, ws) {
        BoundedSearch::Within(ged) => CandidateOutcome::Verified { ged },
        BoundedSearch::Exceeds => CandidateOutcome::Rejected,
        BoundedSearch::BudgetExhausted => CandidateOutcome::BudgetExhausted { accepted_ub: None },
    }
}

/// [`prune_or_verify`] with a triangle-inequality head start: when the
/// caller's pivot table already proved membership (`pivot_ub ≤ τ`,
/// [`ged_graph::PivotIndex::bounds`]), the GEDGW upper bound is skipped
/// entirely and the exact distance is recovered by a search bounded by
/// `pivot_ub` ([`CandidateOutcome::AcceptedByPivot`]); a budget
/// exhaustion during that recovery keeps the membership proof
/// (`accepted_ub = Some(pivot_ub)`). `pivot_ub = None` (or a bound above
/// τ, which the caller should not pass) falls back to [`prune_or_verify`]
/// unchanged.
#[must_use]
pub fn prune_or_verify_with_pivot(
    query: &Graph,
    cand: &Graph,
    tau: usize,
    budget: usize,
    pivot_ub: Option<usize>,
) -> CandidateOutcome {
    prune_or_verify_with_pivot_in(query, cand, tau, budget, pivot_ub, &mut GedWorkspace::new())
}

/// [`prune_or_verify_with_pivot`] running out of `ws` (see
/// [`prune_or_verify_in`]).
#[must_use]
pub fn prune_or_verify_with_pivot_in(
    query: &Graph,
    cand: &Graph,
    tau: usize,
    budget: usize,
    pivot_ub: Option<usize>,
    ws: &mut GedWorkspace,
) -> CandidateOutcome {
    if let Some(ub) = pivot_ub.filter(|&ub| ub <= tau) {
        return match bounded_exact_ged_with_budget_in(query, cand, ub, budget, ws) {
            BoundedSearch::Within(ged) => CandidateOutcome::AcceptedByPivot { ged },
            // A sound pivot table makes `GED ≤ ub` a theorem, so this arm
            // is unreachable; fall back to the regular tiers rather than
            // trusting a table the caller may have corrupted.
            BoundedSearch::Exceeds => prune_or_verify_in(query, cand, tau, budget, ws),
            BoundedSearch::BudgetExhausted => CandidateOutcome::BudgetExhausted {
                accepted_ub: Some(ub),
            },
        };
    }
    prune_or_verify_in(query, cand, tau, budget, ws)
}

/// The pivot-table distance oracle ([`ged_graph::PivotIndex`]): the exact
/// GED of the pair when an exact search fits the node-expansion `budget`,
/// otherwise the admissible `[lb, ub]` interval built from the signature
/// lower bounds and the feasible GEDGW upper bound.
///
/// The exact search is bounded by the feasible upper bound itself —
/// `GED ≤ ub` always holds, so the search can only return the optimum or
/// run out of budget; it is never cut off by a too-small threshold.
#[must_use]
pub fn pivot_distance(g1: &Graph, g2: &Graph, budget: usize) -> PivotDistance {
    pivot_distance_in(g1, g2, budget, &mut GedWorkspace::new())
}

/// [`pivot_distance`] running out of `ws`, so the engine's pivot-table
/// (re)builds reuse one workspace across every oracle call.
#[must_use]
pub fn pivot_distance_in(
    g1: &Graph,
    g2: &Graph,
    budget: usize,
    ws: &mut GedWorkspace,
) -> PivotDistance {
    let lb = label_set_lower_bound(g1, g2).max(degree_sequence_lower_bound(g1, g2));
    if lb == 0 && g1 == g2 {
        return PivotDistance::exact(0);
    }
    let ub = fast_upper_bound_in(g1, g2, ws);
    match bounded_exact_ged_with_budget_in(g1, g2, ub, budget, ws) {
        BoundedSearch::Within(ged) => PivotDistance::exact(ged),
        // `Exceeds` cannot happen for a feasible bound; treat it like an
        // exhausted budget instead of unwinding a store-level query.
        BoundedSearch::Exceeds | BoundedSearch::BudgetExhausted => PivotDistance::interval(lb, ub),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ged_graph::generate;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn exact(g1: &Graph, g2: &Graph) -> usize {
        // τ-bounded search with an infinite budget is plain exact A*.
        bounded_exact_ged(g1, g2, usize::MAX / 2).expect("unbounded always succeeds")
    }

    #[test]
    fn bounded_matches_exact_within_threshold() {
        let mut rng = SmallRng::seed_from_u64(201);
        for _ in 0..25 {
            let g1 = generate::random_connected(rng.gen_range(3..=6), 1, &[0.5, 0.5], &mut rng);
            let g2 = generate::random_connected(rng.gen_range(3..=6), 1, &[0.5, 0.5], &mut rng);
            let d = exact(&g1, &g2);
            assert_eq!(bounded_exact_ged(&g1, &g2, d), Some(d));
            if d > 0 {
                assert_eq!(bounded_exact_ged(&g1, &g2, d - 1), None);
            }
            assert_eq!(bounded_exact_ged(&g1, &g2, d + 3), Some(d));
        }
    }

    #[test]
    fn upper_bound_is_feasible() {
        let mut rng = SmallRng::seed_from_u64(202);
        for _ in 0..15 {
            let g1 = generate::random_connected(5, 1, &[0.5, 0.5], &mut rng);
            let g2 = generate::random_connected(6, 2, &[0.5, 0.5], &mut rng);
            assert!(fast_upper_bound(&g1, &g2) >= exact(&g1, &g2));
        }
    }

    #[test]
    fn budget_caps_expansions_and_unlimited_budget_matches_unbudgeted() {
        let mut rng = SmallRng::seed_from_u64(205);
        for _ in 0..10 {
            let g1 = generate::random_connected(rng.gen_range(4..=6), 1, &[0.5, 0.5], &mut rng);
            let g2 = generate::random_connected(rng.gen_range(4..=6), 1, &[0.5, 0.5], &mut rng);
            let d = exact(&g1, &g2);
            assert_eq!(
                bounded_exact_ged_with_budget(&g1, &g2, d, usize::MAX),
                BoundedSearch::Within(d)
            );
            if d > 0 {
                assert_eq!(
                    bounded_exact_ged_with_budget(&g1, &g2, d - 1, usize::MAX),
                    BoundedSearch::Exceeds
                );
                // A one-expansion budget cannot decide a nonzero-GED pair
                // whose bounds don't already settle it.
                let one = bounded_exact_ged_with_budget(&g1, &g2, d, 1);
                assert!(
                    matches!(one, BoundedSearch::BudgetExhausted | BoundedSearch::Exceeds),
                    "one expansion can at most prove Exceeds via bounds, got {one:?}"
                );
            }
        }
    }

    #[test]
    fn degree_bound_prefilters_without_search() {
        // Star vs path: label-set bound is 0, degree bound is ≥ 2 — the
        // pre-filter must prove Exceeds for τ = 1 with zero expansions
        // (observable through a zero budget still returning Exceeds).
        let star = Graph::unlabeled_from_edges(5, &[(0, 1), (0, 2), (0, 3), (0, 4)]);
        let path = Graph::unlabeled_from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        assert_eq!(
            crate::lower_bound::label_set_lower_bound(&star, &path),
            0,
            "label bound must be blind to this pair"
        );
        assert_eq!(
            bounded_exact_ged_with_budget(&star, &path, 1, 0),
            BoundedSearch::Exceeds,
            "degree bound must reject before any expansion"
        );
        assert_eq!(bounded_exact_ged(&star, &path, 1), None);
    }

    #[test]
    fn prune_or_verify_outcomes_carry_exact_distances() {
        let mut rng = SmallRng::seed_from_u64(206);
        for _ in 0..20 {
            let g1 =
                generate::random_connected(rng.gen_range(4..=6), 1, &[0.5, 0.3, 0.2], &mut rng);
            let g2 =
                generate::random_connected(rng.gen_range(4..=6), 1, &[0.5, 0.3, 0.2], &mut rng);
            let d = exact(&g1, &g2);
            for tau in [d.saturating_sub(1), d, d + 2] {
                match prune_or_verify(&g1, &g2, tau, usize::MAX) {
                    CandidateOutcome::AcceptedByPivot { .. } => {
                        unreachable!("no pivot certificate was supplied")
                    }
                    CandidateOutcome::AcceptedEarly { ged }
                    | CandidateOutcome::Verified { ged } => {
                        assert_eq!(ged, d, "matching outcomes must be exact");
                        assert!(d <= tau, "a match implies GED ≤ τ");
                    }
                    CandidateOutcome::Rejected => {
                        assert!(d > tau, "rejection implies GED > τ");
                    }
                    CandidateOutcome::BudgetExhausted { .. } => {
                        unreachable!("unlimited budget never exhausts")
                    }
                }
            }
        }
    }

    #[test]
    fn prune_or_verify_accepts_identical_graphs_early() {
        let mut rng = SmallRng::seed_from_u64(207);
        let g = generate::random_connected(6, 1, &[0.5, 0.5], &mut rng);
        // GED(g, g) = 0 and the rounded GEDGW bound of an identical pair
        // is 0, so the prune tier fires with the exact distance.
        assert_eq!(
            prune_or_verify(&g, &g, 3, usize::MAX),
            CandidateOutcome::AcceptedEarly { ged: 0 }
        );
        // A zero budget surfaces as BudgetExhausted — never a wrong
        // answer — and the prune tier's membership proof survives it.
        assert_eq!(
            prune_or_verify(&g, &g, 3, 0),
            CandidateOutcome::BudgetExhausted {
                accepted_ub: Some(0)
            }
        );
    }

    #[test]
    fn stats_total_closes() {
        let stats = ExactSearchStats {
            pruned_shard: 7,
            pruned_pivot: 5,
            filtered: 3,
            accepted_pivot: 6,
            accepted_early: 2,
            verified: 4,
            budget_exceeded: 1,
        };
        assert_eq!(stats.total(), 28, "every tier participates in total()");
        let line = stats.to_string();
        assert!(!line.contains('\n'), "one-line breakdown");
        for field in [
            "shard=7",
            "pivot=5",
            "filtered=3",
            "accept_pivot=6",
            "accept_ub=2",
            "verified=4",
            "budget=1",
            "total=28",
        ] {
            assert!(line.contains(field), "{line} is missing {field}");
        }
    }

    #[test]
    fn pivot_distance_is_exact_until_the_budget_bites() {
        let mut rng = SmallRng::seed_from_u64(208);
        for _ in 0..15 {
            let g1 =
                generate::random_connected(rng.gen_range(4..=6), 1, &[0.5, 0.3, 0.2], &mut rng);
            let g2 =
                generate::random_connected(rng.gen_range(4..=6), 1, &[0.5, 0.3, 0.2], &mut rng);
            let d = exact(&g1, &g2);

            let unlimited = pivot_distance(&g1, &g2, usize::MAX);
            assert!(unlimited.is_exact(), "unlimited budgets compute exactly");
            assert_eq!(unlimited.lb(), d);

            // A zero budget degrades to the admissible [lb, ub] interval.
            let strangled = pivot_distance(&g1, &g2, 0);
            assert!(
                strangled.lb() <= d && d <= strangled.ub(),
                "interval [{}, {}] must contain {d}",
                strangled.lb(),
                strangled.ub()
            );
        }
        // Identical graphs short-circuit to exact 0 at any budget.
        let g = generate::random_connected(5, 1, &[0.5, 0.5], &mut rng);
        assert_eq!(pivot_distance(&g, &g, 0), PivotDistance::exact(0));
    }

    #[test]
    fn pivot_accept_recovers_the_exact_distance() {
        let mut rng = SmallRng::seed_from_u64(209);
        for _ in 0..15 {
            let g1 =
                generate::random_connected(rng.gen_range(4..=6), 1, &[0.5, 0.3, 0.2], &mut rng);
            let g2 =
                generate::random_connected(rng.gen_range(4..=6), 1, &[0.5, 0.3, 0.2], &mut rng);
            let d = exact(&g1, &g2);
            let tau = d + 2;
            // A (sound) pivot certificate: any ub with d ≤ ub ≤ τ.
            match prune_or_verify_with_pivot(&g1, &g2, tau, usize::MAX, Some(d + 1)) {
                CandidateOutcome::AcceptedByPivot { ged } => {
                    assert_eq!(ged, d, "the recovery search must return the optimum");
                }
                other => panic!("a within-τ pivot ub must accept, got {other:?}"),
            }
            // Without a certificate the regular tiers decide, identically
            // to prune_or_verify.
            assert_eq!(
                prune_or_verify_with_pivot(&g1, &g2, tau, usize::MAX, None),
                prune_or_verify(&g1, &g2, tau, usize::MAX)
            );
            // A zero budget surfaces the preserved membership proof.
            assert_eq!(
                prune_or_verify_with_pivot(&g1, &g2, tau, 0, Some(d + 1)),
                CandidateOutcome::BudgetExhausted {
                    accepted_ub: Some(d + 1)
                }
            );
        }
    }
}
