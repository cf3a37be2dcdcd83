//! Exact GED via A* search, plus the A*-Beam approximation.
//!
//! The search space is the tree of partial injective mappings: at depth `i`
//! node `u_i` of `G1` (nodes processed in a fixed order) is mapped to one of
//! the still-free nodes of `G2`. With `n1 <= n2` and uniform costs, optimal
//! solutions never delete nodes (paper convention, Section 3.1), so leaves
//! are complete injective mappings.
//!
//! [`astar_exact_with_limit`] is a thin wrapper over the exact A\* core
//! every exact search in the workspace shares,
//! [`ged_core::search::exact_search_in`] (its module docs describe the
//! state arena, the bounds and the budget rule). The wrapper runs the core
//! with `τ = ∞` and maps its expansion limit onto the core's budget as
//! `budget = max_expanded + 1`: here the goal's pop never counts against
//! the limit, while the core counts every pop. It reports `expanded − 1`
//! (the goal's pop excluded).
//!
//! A*-Beam keeps only the best `beam` states per depth, trading optimality
//! for polynomial time [Neuhaus et al. 2006]; `g` is maintained
//! incrementally and `h` is the admissible label-multiset + edge-count
//! heuristic on the unmapped remainder.

use ged_core::pairs::ordered;
use ged_core::search::{exact_search_in, BoundedSearch};
use ged_core::GedWorkspace;
use ged_graph::{Graph, Label, NodeMapping};

/// Result of an A* (or beam) search.
#[derive(Clone, Debug)]
pub struct AstarResult {
    /// The edit distance achieved by `mapping` (exact GED for full A*).
    pub ged: usize,
    /// The optimal (or best-found) node matching, in the ordered
    /// orientation (smaller graph -> larger graph).
    pub mapping: NodeMapping,
    /// Whether the inputs were swapped to enforce `n1 <= n2`.
    pub swapped: bool,
    /// Number of states expanded.
    pub expanded: usize,
}

#[derive(Clone, PartialEq, Eq)]
struct State {
    mapping: Vec<u32>,
    g: usize,
}

/// Incremental cost of extending `state` by mapping `u = depth` to `v`.
fn extension_cost(g1: &Graph, g2: &Graph, mapping: &[u32], v: u32) -> usize {
    let u = mapping.len() as u32;
    let mut cost = 0;
    if g1.label(u) != g2.label(v) {
        cost += 1;
    }
    // Edges between u and already-mapped nodes.
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

/// Cost of closing a complete mapping: unmatched-node insertions plus the
/// `G2` edges with at least one unmatched endpoint.
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

/// Admissible heuristic: label-multiset bound on unmapped nodes plus the
/// remaining-edge-count gap, with the `G2` match marks precomputed by the
/// caller (`used[v]` iff `v` is in `mapping`'s image) and the label
/// multisets sorted into reusable buffers. Pure integer arithmetic, so
/// reuse is trivially result-identical.
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

    // Edges not yet accounted for by `g`: those with at least one endpoint
    // beyond the processed prefix (G1) / outside the matched set (G2).
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

/// Exact GED by A*. Suitable for small graphs (≤ ~10 nodes, as in the
/// paper's ground-truth generation).
///
/// # Panics
/// Panics if either graph is empty.
#[must_use]
pub fn astar_exact(g1: &Graph, g2: &Graph) -> AstarResult {
    astar_exact_with_limit(g1, g2, usize::MAX).expect("unlimited A* always completes")
}

/// Exact A* with a state-expansion budget; returns `None` if the budget is
/// exhausted before the optimum is proven (used by the Figure 15
/// scalability study where exact solvers are expected to blow up).
/// `expanded` counts the states expanded before the goal was popped; the
/// search is the shared core's (see the [module docs](self)).
#[must_use]
pub fn astar_exact_with_limit(g1: &Graph, g2: &Graph, max_expanded: usize) -> Option<AstarResult> {
    let (_, _, swapped) = ordered(g1, g2);
    let mut ws = GedWorkspace::new();
    let run = exact_search_in(g1, g2, usize::MAX, max_expanded.saturating_add(1), &mut ws);
    match run.outcome {
        BoundedSearch::Within(ged) => Some(AstarResult {
            ged,
            mapping: NodeMapping::new(run.mapping.to_vec()),
            swapped,
            expanded: run.expanded - 1,
        }),
        BoundedSearch::BudgetExhausted => None,
        BoundedSearch::Exceeds => unreachable!("A* always reaches a complete mapping"),
    }
}

/// Reusable scratch buffers for [`astar_beam_in`], letting batch callers
/// amortize the per-state mark vector and the heuristic's label-multiset
/// buffers across many searches.
#[derive(Clone, Debug, Default)]
pub struct BeamWorkspace {
    used: Vec<bool>,
    rest1: Vec<Label>,
    rest2: Vec<Label>,
}

impl BeamWorkspace {
    /// An empty workspace; buffers grow on first use.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

/// A*-Beam [Neuhaus et al. 2006]: level-synchronous beam search that keeps
/// only the `beam` most promising partial mappings per depth. Returns a
/// feasible (upper-bound) GED.
///
/// # Panics
/// Panics if `beam == 0`.
#[must_use]
pub fn astar_beam(g1: &Graph, g2: &Graph, beam: usize) -> AstarResult {
    astar_beam_in(g1, g2, beam, &mut BeamWorkspace::new())
}

/// [`astar_beam`] reusing caller-owned scratch buffers. The search is pure
/// integer arithmetic over freshly reset buffers, so the result is
/// identical to the allocating entry point.
///
/// # Panics
/// Panics if `beam == 0`.
#[must_use]
pub fn astar_beam_in(g1: &Graph, g2: &Graph, beam: usize, ws: &mut BeamWorkspace) -> AstarResult {
    assert!(beam >= 1, "beam width must be positive");
    let (a, b, swapped) = ordered(g1, g2);
    let n1 = a.num_nodes();
    let n2 = b.num_nodes();

    let mut frontier: Vec<State> = vec![State {
        mapping: Vec::new(),
        g: 0,
    }];
    let mut expanded = 0usize;
    for depth in 0..n1 {
        let mut next: Vec<(usize, State)> = Vec::with_capacity(frontier.len() * (n2 - depth));
        for state in &frontier {
            expanded += 1;
            ws.used.clear();
            ws.used.resize(n2, false);
            for &v in &state.mapping {
                ws.used[v as usize] = true;
            }
            for v in 0..n2 as u32 {
                if ws.used[v as usize] {
                    continue;
                }
                let delta = extension_cost(a, b, &state.mapping, v);
                let mut mapping = state.mapping.clone();
                mapping.push(v);
                let g = state.g + delta;
                // Mark v so `used` matches the extended mapping's image for
                // the heuristic, then restore it for the next sibling.
                ws.used[v as usize] = true;
                let f = g + heuristic_in(a, b, &mapping, &ws.used, &mut ws.rest1, &mut ws.rest2);
                ws.used[v as usize] = false;
                next.push((f, State { mapping, g }));
            }
        }
        next.sort_by_key(|&(f, _)| f);
        next.truncate(beam);
        frontier = next.into_iter().map(|(_, s)| s).collect();
    }

    let best = frontier
        .into_iter()
        .map(|s| {
            let total = s.g + closing_cost(b, &s.mapping);
            (total, s)
        })
        .min_by_key(|&(total, _)| total)
        .expect("beam always retains at least one state");
    AstarResult {
        ged: best.0,
        mapping: NodeMapping::new(best.1.mapping),
        swapped,
        expanded,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ged_graph::{generate, isomorphism::are_isomorphic, Label};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn figure1() -> (Graph, Graph) {
        let g1 = Graph::from_edges(
            vec![Label(1), Label(1), Label(2)],
            &[(0, 1), (0, 2), (1, 2)],
        );
        let g2 = Graph::from_edges(
            vec![Label(1), Label(1), Label(3), Label(4)],
            &[(0, 1), (0, 2), (2, 3)],
        );
        (g1, g2)
    }

    /// Brute-force exact GED over all injective mappings.
    fn brute_ged(g1: &Graph, g2: &Graph) -> usize {
        fn rec(
            g1: &Graph,
            g2: &Graph,
            u: usize,
            used: &mut Vec<bool>,
            map: &mut Vec<u32>,
            best: &mut usize,
        ) {
            if u == g1.num_nodes() {
                *best = (*best).min(NodeMapping::new(map.clone()).induced_cost(g1, g2));
                return;
            }
            for v in 0..g2.num_nodes() {
                if !used[v] {
                    used[v] = true;
                    map.push(v as u32);
                    rec(g1, g2, u + 1, used, map, best);
                    map.pop();
                    used[v] = false;
                }
            }
        }
        let mut best = usize::MAX;
        rec(
            g1,
            g2,
            0,
            &mut vec![false; g2.num_nodes()],
            &mut Vec::new(),
            &mut best,
        );
        best
    }

    #[test]
    fn figure1_ged_is_four() {
        let (g1, g2) = figure1();
        let res = astar_exact(&g1, &g2);
        assert_eq!(res.ged, 4);
        assert_eq!(res.mapping.induced_cost(&g1, &g2), 4);
        // The mapping realizes a valid path.
        let path = res.mapping.edit_path(&g1, &g2);
        assert!(are_isomorphic(&path.apply(&g1).unwrap(), &g2));
    }

    #[test]
    fn matches_brute_force_on_random_pairs() {
        let mut rng = SmallRng::seed_from_u64(71);
        for trial in 0..40 {
            let n1 = rng.gen_range(2..=5);
            let n2 = rng.gen_range(n1..=6);
            let g1 = generate::random_connected(n1, 1, &[0.5, 0.3, 0.2], &mut rng);
            let g2 = generate::random_connected(n2, 2, &[0.5, 0.3, 0.2], &mut rng);
            let exact = brute_ged(&g1, &g2);
            let res = astar_exact(&g1, &g2);
            assert_eq!(res.ged, exact, "trial {trial}");
        }
    }

    #[test]
    fn symmetry_and_identity() {
        let (g1, g2) = figure1();
        assert_eq!(astar_exact(&g1, &g2).ged, astar_exact(&g2, &g1).ged);
        assert_eq!(astar_exact(&g1, &g1).ged, 0);
    }

    #[test]
    fn triangle_inequality_on_small_graphs() {
        // Invariant F: GED is a metric.
        let mut rng = SmallRng::seed_from_u64(72);
        for _ in 0..15 {
            let a = generate::random_connected(4, 1, &[0.5, 0.5], &mut rng);
            let b = generate::random_connected(5, 1, &[0.5, 0.5], &mut rng);
            let c = generate::random_connected(4, 2, &[0.5, 0.5], &mut rng);
            let ab = astar_exact(&a, &b).ged;
            let bc = astar_exact(&b, &c).ged;
            let ac = astar_exact(&a, &c).ged;
            assert!(ac <= ab + bc, "triangle violated: {ac} > {ab} + {bc}");
        }
    }

    #[test]
    fn perturbation_is_upper_bounded_by_delta() {
        let mut rng = SmallRng::seed_from_u64(73);
        for _ in 0..20 {
            let g = generate::random_connected(6, 2, &[0.4, 0.3, 0.3], &mut rng);
            let p = generate::perturb_with_edits(&g, 3, 3, &mut rng);
            let exact = astar_exact(&g, &p.graph).ged;
            assert!(exact <= p.applied, "exact {exact} > applied {}", p.applied);
        }
    }

    #[test]
    fn beam_is_feasible_and_converges_to_exact() {
        let mut rng = SmallRng::seed_from_u64(74);
        for _ in 0..20 {
            let g1 = generate::random_connected(5, 1, &[0.5, 0.5], &mut rng);
            let g2 = generate::random_connected(6, 2, &[0.5, 0.5], &mut rng);
            let exact = astar_exact(&g1, &g2).ged;
            let narrow = astar_beam(&g1, &g2, 1).ged;
            let wide = astar_beam(&g1, &g2, 1000).ged;
            assert!(narrow >= exact);
            assert_eq!(wide, exact, "full-width beam must be exact");
        }
    }

    #[test]
    fn expansion_limit_reports_none() {
        let mut rng = SmallRng::seed_from_u64(75);
        let g1 = generate::random_connected(8, 3, &[1.0], &mut rng);
        let g2 = generate::random_connected(9, 3, &[1.0], &mut rng);
        assert!(astar_exact_with_limit(&g1, &g2, 1).is_none());
        assert!(astar_exact_with_limit(&g1, &g2, usize::MAX).is_some());
    }
}
