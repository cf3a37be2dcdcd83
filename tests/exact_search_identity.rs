//! Traversal identity of the shared exact A\* core.
//!
//! `ged_core::search::exact_search_in` replaced two A\* loops: the
//! τ-bounded, budgeted verification search of `ged-core` and the exact
//! ground-truth search of `ged_baselines::astar`. Both loops are kept
//! here, unchanged except that they count their expansions, as reference
//! implementations. The properties below run each reference and the
//! corresponding new entry point on the same pairs and require the same
//! verdict, distance, mapping and expansion count: the new core must pop
//! and expand exactly the states the old loops did, in the same order.
//!
//! The pairs are seeded (hand-rolled generator loop, as in
//! `tests/properties.rs`); every assertion message names its pair.

use ot_ged::baselines::astar::{astar_exact_with_limit, AstarResult};
use ot_ged::core::pairs::ordered;
use ot_ged::core::search::{bounded_exact_ged_with_budget, exact_search_in, BoundedSearch};
use ot_ged::core::GedWorkspace;
use ot_ged::graph::{CsrView, GraphDataset};
use ot_ged::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

const TAUS: [usize; 4] = [0, 1, 3, usize::MAX];
const BUDGETS: [usize; 6] = [0, 1, 2, 5, 17, usize::MAX];
const LIMITS: [usize; 4] = [0, 1, 10, usize::MAX];

/// The reference bounded search: the τ-bounded, budgeted A\* loop of
/// `ged_core::search` before the shared core, with its workspace scratch
/// as local buffers. Returns the verdict and the expansion count.
mod bounded_reference {
    use super::*;

    fn reset<T: Copy>(buf: &mut Vec<T>, len: usize, value: T) {
        buf.clear();
        buf.resize(len, value);
    }

    fn sorted_multiset_surplus(a: &[Label], b: &[Label]) -> (usize, usize) {
        let (mut i, mut j) = (0usize, 0usize);
        let (mut only1, mut only2) = (0usize, 0usize);
        while i < a.len() && j < b.len() {
            match a[i].cmp(&b[j]) {
                std::cmp::Ordering::Less => {
                    only1 += 1;
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    only2 += 1;
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    i += 1;
                    j += 1;
                }
            }
        }
        (only1 + a.len() - i, only2 + b.len() - j)
    }

    pub fn search(g1: &Graph, g2: &Graph, tau: usize, budget: usize) -> (BoundedSearch, usize) {
        let (a, b, _) = ordered(g1, g2);
        let (mut used, mut matched) = (Vec::new(), Vec::new());
        let (mut rest1, mut rest2) = (Vec::new(), Vec::new());
        let (mut deg1, mut deg2) = (Vec::new(), Vec::new());
        let csr1 = CsrView::of(a);
        let csr2 = CsrView::of(b);
        let (csr1, csr2) = (&csr1, &csr2);
        let (used, matched, rest1, rest2, deg1, deg2) = (
            &mut used,
            &mut matched,
            &mut rest1,
            &mut rest2,
            &mut deg1,
            &mut deg2,
        );
        let n1 = csr1.num_nodes();
        let n2 = csr2.num_nodes();

        rest1.clear();
        rest1.extend_from_slice(csr1.labels());
        rest1.sort_unstable();
        rest2.clear();
        rest2.extend_from_slice(csr2.labels());
        rest2.sort_unstable();
        let (o1, o2) = sorted_multiset_surplus(rest1, rest2);
        let node_term = o1.max(o2);
        if node_term + csr1.num_edges().abs_diff(csr2.num_edges()) > tau {
            return (BoundedSearch::Exceeds, 0);
        }
        let n = n1.max(n2);
        deg1.clear();
        deg1.extend((0..n1 as u32).map(|u| csr1.degree(u)));
        deg1.resize(n, 0);
        deg1.sort_unstable();
        deg2.clear();
        deg2.extend((0..n2 as u32).map(|u| csr2.degree(u)));
        deg2.resize(n, 0);
        deg2.sort_unstable();
        let diff: usize = deg1.iter().zip(&*deg2).map(|(&x, &y)| x.abs_diff(y)).sum();
        if node_term + diff.div_ceil(2) > tau {
            return (BoundedSearch::Exceeds, 0);
        }

        #[derive(Clone)]
        struct State {
            mapping: Vec<u32>,
            g: usize,
        }
        let mut heap: BinaryHeap<Reverse<(usize, usize, usize)>> = BinaryHeap::new();
        let mut states = vec![State {
            mapping: Vec::new(),
            g: 0,
        }];
        heap.push(Reverse((0, n1, 0)));

        let mut expanded = 0usize;
        while let Some(Reverse((f, _, idx))) = heap.pop() {
            if f > tau {
                return (BoundedSearch::Exceeds, expanded);
            }
            if expanded >= budget {
                return (BoundedSearch::BudgetExhausted, expanded);
            }
            expanded += 1;
            let state = states[idx].clone();
            if state.mapping.len() == n1 {
                let total = state.g + closing_cost(csr2, &state.mapping, matched);
                if total <= tau {
                    return (BoundedSearch::Within(total), expanded);
                }
                continue;
            }
            reset(used, n2, false);
            for &v in &state.mapping {
                used[v as usize] = true;
            }
            let u = state.mapping.len() as u32;
            for v in 0..n2 as u32 {
                if used[v as usize] {
                    continue;
                }
                let mut delta = 0;
                if csr1.label(u) != csr2.label(v) {
                    delta += 1;
                }
                for (w, &mw) in state.mapping.iter().enumerate() {
                    if csr1.has_edge(u, w as u32) != csr2.has_edge(v, mw) {
                        delta += 1;
                    }
                }
                let mut mapping = state.mapping.clone();
                mapping.push(v);
                let g = state.g + delta;
                let f = if mapping.len() == n1 {
                    g + closing_cost(csr2, &mapping, matched)
                } else {
                    used[v as usize] = true;
                    let bound = remainder_bound(csr1, csr2, &mapping, used, rest1, rest2);
                    used[v as usize] = false;
                    g + bound
                };
                if f > tau {
                    continue;
                }
                let depth = mapping.len();
                states.push(State { mapping, g });
                heap.push(Reverse((f, n1 - depth, states.len() - 1)));
            }
        }
        (BoundedSearch::Exceeds, expanded)
    }

    fn closing_cost(csr2: &CsrView, mapping: &[u32], matched: &mut Vec<bool>) -> usize {
        reset(matched, csr2.num_nodes(), false);
        for &v in mapping {
            matched[v as usize] = true;
        }
        let mut cost = csr2.num_nodes() - mapping.len();
        for (v, w) in csr2.edges() {
            if !matched[v as usize] || !matched[w as usize] {
                cost += 1;
            }
        }
        cost
    }

    fn remainder_bound(
        csr1: &CsrView,
        csr2: &CsrView,
        mapping: &[u32],
        used: &[bool],
        rest1: &mut Vec<Label>,
        rest2: &mut Vec<Label>,
    ) -> usize {
        let depth = mapping.len();
        rest1.clear();
        rest1.extend_from_slice(&csr1.labels()[depth..]);
        rest2.clear();
        rest2.extend(
            csr2.labels()
                .iter()
                .enumerate()
                .filter(|&(v, _)| !used[v])
                .map(|(_, &l)| l),
        );
        rest1.sort_unstable();
        rest2.sort_unstable();
        let (o1, o2) = sorted_multiset_surplus(rest1, rest2);
        let e1 = csr1
            .edges()
            .filter(|&(x, y)| (x as usize) >= depth || (y as usize) >= depth)
            .count();
        let e2 = csr2
            .edges()
            .filter(|&(x, y)| !used[x as usize] || !used[y as usize])
            .count();
        o1.max(o2) + e1.abs_diff(e2)
    }
}

/// The reference exact search: `ged_baselines::astar::astar_exact_with_limit`
/// before the shared core, with its heuristic helpers.
mod astar_reference {
    use super::*;

    #[derive(Clone, PartialEq, Eq)]
    struct State {
        mapping: Vec<u32>,
        g: usize,
    }

    fn extension_cost(g1: &Graph, g2: &Graph, mapping: &[u32], v: u32) -> usize {
        let u = mapping.len() as u32;
        let mut cost = 0;
        if g1.label(u) != g2.label(v) {
            cost += 1;
        }
        for (w, &mw) in mapping.iter().enumerate() {
            let w = w as u32;
            let in_g1 = g1.has_edge(u, w);
            let in_g2 = g2.has_edge(v, mw);
            if in_g1 != in_g2 {
                cost += 1;
            }
        }
        cost
    }

    fn closing_cost(g2: &Graph, mapping: &[u32]) -> usize {
        let n2 = g2.num_nodes();
        let mut matched = vec![false; n2];
        for &v in mapping {
            matched[v as usize] = true;
        }
        let mut cost = n2 - mapping.len();
        for (v, w) in g2.edges() {
            if !matched[v as usize] || !matched[w as usize] {
                cost += 1;
            }
        }
        cost
    }

    fn heuristic(g1: &Graph, g2: &Graph, mapping: &[u32]) -> usize {
        let mut used = vec![false; g2.num_nodes()];
        for &v in mapping {
            used[v as usize] = true;
        }
        heuristic_in(g1, g2, mapping, &used, &mut Vec::new(), &mut Vec::new())
    }

    fn heuristic_in(
        g1: &Graph,
        g2: &Graph,
        mapping: &[u32],
        used: &[bool],
        rest1: &mut Vec<Label>,
        rest2: &mut Vec<Label>,
    ) -> usize {
        let depth = mapping.len();
        rest1.clear();
        rest1.extend((depth..g1.num_nodes()).map(|u| g1.label(u as u32)));
        rest2.clear();
        rest2.extend(
            (0..g2.num_nodes())
                .filter(|&v| !used[v])
                .map(|v| g2.label(v as u32)),
        );
        rest1.sort_unstable();
        rest2.sort_unstable();
        let (mut i, mut j, mut only1, mut only2) = (0, 0, 0usize, 0usize);
        while i < rest1.len() && j < rest2.len() {
            match rest1[i].cmp(&rest2[j]) {
                std::cmp::Ordering::Less => {
                    only1 += 1;
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    only2 += 1;
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    i += 1;
                    j += 1;
                }
            }
        }
        only1 += rest1.len() - i;
        only2 += rest2.len() - j;
        let node_term = only1.max(only2);
        let e1_rem = g1
            .edges()
            .filter(|&(a, b)| (a as usize) >= depth || (b as usize) >= depth)
            .count();
        let e2_rem = g2
            .edges()
            .filter(|&(a, b)| !used[a as usize] || !used[b as usize])
            .count();
        node_term + e1_rem.abs_diff(e2_rem)
    }

    pub fn astar_exact_with_limit(
        g1: &Graph,
        g2: &Graph,
        max_expanded: usize,
    ) -> Option<AstarResult> {
        let (a, b, swapped) = ordered(g1, g2);
        let n1 = a.num_nodes();

        let mut heap: BinaryHeap<Reverse<(usize, usize, usize)>> = BinaryHeap::new();
        let mut states: Vec<State> = vec![State {
            mapping: Vec::new(),
            g: 0,
        }];
        let h0 = heuristic(a, b, &[]);
        heap.push(Reverse((h0, n1, 0)));

        let mut expanded = 0usize;
        while let Some(Reverse((f, _, idx))) = heap.pop() {
            let state = states[idx].clone();
            if state.mapping.len() == n1 {
                let total = state.g + closing_cost(b, &state.mapping);
                debug_assert!(total <= f + closing_cost(b, &state.mapping));
                return Some(AstarResult {
                    ged: total,
                    mapping: NodeMapping::new(state.mapping),
                    swapped,
                    expanded,
                });
            }
            expanded += 1;
            if expanded > max_expanded {
                return None;
            }
            let mut used = vec![false; b.num_nodes()];
            for &v in &state.mapping {
                used[v as usize] = true;
            }
            for v in 0..b.num_nodes() as u32 {
                if used[v as usize] {
                    continue;
                }
                let mut mapping = state.mapping.clone();
                let delta = extension_cost(a, b, &mapping, v);
                mapping.push(v);
                let g = state.g + delta;
                let f = if mapping.len() == n1 {
                    g + closing_cost(b, &mapping)
                } else {
                    g + heuristic(a, b, &mapping)
                };
                let depth = mapping.len();
                states.push(State { mapping, g });
                heap.push(Reverse((f, n1 - depth, states.len() - 1)));
            }
        }
        unreachable!("A* always reaches a complete mapping");
    }
}

/// The seeded pairs: consecutive graphs of an AIDS-like and a LINUX-like
/// pool (both argument orders, so `n1 < n2`, `n1 > n2` and `n1 = n2` all
/// occur), each graph against itself, and the empty graph against a
/// non-empty one and against itself.
fn pairs() -> Vec<(String, Graph, Graph)> {
    let mut rng = SmallRng::seed_from_u64(0xA57A_0013);
    let mut out = Vec::new();
    for (name, pool) in [
        ("aids", GraphDataset::aids_like(24, &mut rng)),
        ("linux", GraphDataset::linux_like(24, &mut rng)),
    ] {
        let graphs: Vec<Graph> = pool.store().graphs().cloned().collect();
        for (i, w) in graphs.windows(2).enumerate() {
            out.push((format!("{name}[{i}]"), w[0].clone(), w[1].clone()));
            out.push((format!("{name}[{i}] swapped"), w[1].clone(), w[0].clone()));
        }
        out.push((format!("{name} self"), graphs[0].clone(), graphs[0].clone()));
        // A same-size pair, whatever the pool drew.
        let n = rng.gen_range(4..=8);
        let (x, y) = (
            ot_ged::graph::generate::random_connected_unlabeled(n, 1, &mut rng),
            ot_ged::graph::generate::random_connected_unlabeled(n, 2, &mut rng),
        );
        out.push((format!("{name} equal-size"), x, y));
        out.push((format!("{name} empty"), Graph::new(), graphs[1].clone()));
    }
    out.push(("empty self".to_string(), Graph::new(), Graph::new()));
    assert!(out.iter().any(|(_, a, b)| a.num_nodes() < b.num_nodes()));
    assert!(out.iter().any(|(_, a, b)| a.num_nodes() == b.num_nodes()));
    out
}

#[test]
fn bounded_search_expands_the_same_states() {
    let mut ws = GedWorkspace::new();
    // Verdicts seen (Within, Exceeds, BudgetExhausted) and the largest
    // expansion count: the sweep must exercise every exit of the loop.
    let (mut seen, mut most) = ([false; 3], 0);
    for (name, g1, g2) in pairs() {
        for tau in TAUS {
            for budget in BUDGETS {
                let (want, want_expanded) = bounded_reference::search(&g1, &g2, tau, budget);
                let got = exact_search_in(&g1, &g2, tau, budget, &mut ws);
                let ctx = format!("{name}: tau {tau}, budget {budget}");
                assert_eq!(got.outcome, want, "{ctx}: verdict");
                assert_eq!(got.expanded, want_expanded, "{ctx}: expansions");
                seen[match want {
                    BoundedSearch::Within(_) => 0,
                    BoundedSearch::Exceeds => 1,
                    BoundedSearch::BudgetExhausted => 2,
                }] = true;
                most = most.max(want_expanded);
                assert_eq!(
                    bounded_exact_ged_with_budget(&g1, &g2, tau, budget),
                    want,
                    "{ctx}: allocating entry point"
                );
            }
        }
    }
    assert_eq!(seen, [true; 3], "every verdict occurs");
    assert!(
        most > BUDGETS[4],
        "some search outlasts every finite budget"
    );
}

#[test]
fn astar_wrapper_matches_the_baseline_loop() {
    let (mut found, mut cut) = (false, false);
    for (name, g1, g2) in pairs() {
        for limit in LIMITS {
            let want = astar_reference::astar_exact_with_limit(&g1, &g2, limit);
            let got = astar_exact_with_limit(&g1, &g2, limit);
            let ctx = format!("{name}: limit {limit}");
            assert_eq!(got.is_none(), want.is_none(), "{ctx}: None-ness");
            found |= want.is_some() && limit < usize::MAX;
            cut |= want.is_none();
            if let (Some(got), Some(want)) = (got, want) {
                assert_eq!(got.ged, want.ged, "{ctx}: ged");
                assert_eq!(got.mapping, want.mapping, "{ctx}: mapping");
                assert_eq!(got.swapped, want.swapped, "{ctx}: swapped");
                assert_eq!(got.expanded, want.expanded, "{ctx}: expanded");
            }
        }
    }
    assert!(found && cut, "finite limits both complete and cut searches");
}
