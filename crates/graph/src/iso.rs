//! Exact graph-isomorphism testing.
//!
//! Definition 2 of the paper says an execution *constructs* a graph `G` if
//! its output stabilizes to a graph isomorphic to `G`; Graph-Replication
//! (Protocol 9) must produce a replica isomorphic to its input. This module
//! provides the backtracking isomorphism test used to verify such results.
//! It refines candidates by degree and neighbour-degree multisets before
//! searching, which keeps it fast for the small-to-medium graphs the test
//! suites compare (n up to a few dozen).

use crate::EdgeSet;

/// Whether `a` and `b` are isomorphic.
///
/// # Example
///
/// ```
/// use netcon_graph::{iso::are_isomorphic, EdgeSet};
///
/// let p3 = EdgeSet::from_edges(3, [(0, 1), (1, 2)]);
/// let p3_relabeled = EdgeSet::from_edges(3, [(1, 0), (0, 2)]);
/// let k3 = EdgeSet::from_edges(3, [(0, 1), (1, 2), (2, 0)]);
/// assert!(are_isomorphic(&p3, &p3_relabeled));
/// assert!(!are_isomorphic(&p3, &k3));
/// ```
#[must_use]
pub fn are_isomorphic(a: &EdgeSet, b: &EdgeSet) -> bool {
    isomorphism(a, b).is_some()
}

/// Finds an isomorphism from `a` to `b`, i.e. a permutation `f` of node
/// indices with `{u, v}` active in `a` iff `{f(u), f(v)}` active in `b`.
///
/// Returns `None` if the graphs are not isomorphic (including when they
/// have different orders).
#[must_use]
pub fn isomorphism(a: &EdgeSet, b: &EdgeSet) -> Option<Vec<usize>> {
    if a.n() != b.n() || a.active_count() != b.active_count() {
        return None;
    }
    let n = a.n();
    if n == 0 {
        return Some(Vec::new());
    }
    if a.degree_sequence() != b.degree_sequence() {
        return None;
    }
    // Refinement signatures: (degree, sorted multiset of neighbour degrees).
    let sig = |es: &EdgeSet, u: usize| {
        let mut nd: Vec<u32> = es.neighbors(u).map(|v| es.degree(v)).collect();
        nd.sort_unstable();
        (es.degree(u), nd)
    };
    let sig_a: Vec<_> = (0..n).map(|u| sig(a, u)).collect();
    let sig_b: Vec<_> = (0..n).map(|u| sig(b, u)).collect();
    {
        let mut sa = sig_a.clone();
        let mut sb = sig_b.clone();
        sa.sort();
        sb.sort();
        if sa != sb {
            return None;
        }
    }

    // Order the search by most-constrained-first: rare signatures and high
    // degrees first.
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&u| std::cmp::Reverse(sig_a[u].0));

    let mut mapping = vec![usize::MAX; n];
    let mut used = vec![false; n];
    if assign(a, b, &sig_a, &sig_b, &order, 0, &mut mapping, &mut used) {
        Some(mapping)
    } else {
        None
    }
}

#[allow(clippy::too_many_arguments)]
fn assign(
    a: &EdgeSet,
    b: &EdgeSet,
    sig_a: &[(u32, Vec<u32>)],
    sig_b: &[(u32, Vec<u32>)],
    order: &[usize],
    depth: usize,
    mapping: &mut [usize],
    used: &mut [bool],
) -> bool {
    if depth == order.len() {
        return true;
    }
    let u = order[depth];
    for w in 0..b.n() {
        if used[w] || sig_a[u] != sig_b[w] {
            continue;
        }
        // Consistency with already-mapped nodes.
        let consistent = order[..depth]
            .iter()
            .all(|&x| a.is_active(u, x) == b.is_active(w, mapping[x]));
        if !consistent {
            continue;
        }
        mapping[u] = w;
        used[w] = true;
        if assign(a, b, sig_a, sig_b, order, depth + 1, mapping, used) {
            return true;
        }
        mapping[u] = usize::MAX;
        used[w] = false;
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::seq::SliceRandom;
    use rand::SeedableRng;

    /// Relabels `es` by a random permutation.
    fn shuffle(es: &EdgeSet, rng: &mut SmallRng) -> EdgeSet {
        let n = es.n();
        let mut perm: Vec<usize> = (0..n).collect();
        perm.shuffle(rng);
        let mut out = EdgeSet::new(n);
        for (u, v) in es.active_edges() {
            out.activate(perm[u], perm[v]);
        }
        out
    }

    #[test]
    fn identical_graphs_are_isomorphic() {
        let es = EdgeSet::from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)]);
        assert!(are_isomorphic(&es, &es));
    }

    #[test]
    fn random_relabelings_are_isomorphic() {
        let mut rng = SmallRng::seed_from_u64(11);
        for seed in 0..20 {
            let g = crate::gnp::gnp_half(10, &mut SmallRng::seed_from_u64(seed));
            let h = shuffle(&g, &mut rng);
            let f = isomorphism(&g, &h).expect("relabelling must be isomorphic");
            for (u, v) in g.active_edges() {
                assert!(h.is_active(f[u], f[v]));
            }
        }
    }

    #[test]
    fn distinguishes_line_from_star() {
        let line = EdgeSet::from_edges(4, [(0, 1), (1, 2), (2, 3)]);
        let star = EdgeSet::from_edges(4, [(0, 1), (0, 2), (0, 3)]);
        assert!(!are_isomorphic(&line, &star));
    }

    #[test]
    fn distinguishes_same_degree_sequence() {
        // C6 vs 2×C3: both 2-regular on 6 nodes.
        let c6 = EdgeSet::from_edges(6, (0..6).map(|i| (i, (i + 1) % 6)));
        let c3x2 = EdgeSet::from_edges(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]);
        assert!(!are_isomorphic(&c6, &c3x2));
    }

    #[test]
    fn different_orders_are_not_isomorphic() {
        assert!(!are_isomorphic(&EdgeSet::new(3), &EdgeSet::new(4)));
    }
}
