//! Graph languages and their deciders.
//!
//! A universal constructor (Theorems 14–17) repeatedly draws a random
//! graph and runs "the TM that decides `L`" on its adjacency-matrix
//! encoding. This module provides that decision layer:
//!
//! * [`GraphLanguage`] — the interface the constructors consume;
//! * [`TmLanguage`] — a language decided by a literal [`TuringMachine`]
//!   run on the adjacency-matrix bitstring;
//! * a library of programmatic languages (connectivity, edge counts,
//!   triangle-freeness, bipartiteness, regularity, Hamiltonicity) whose
//!   working memory is allocated through a metered [`Workspace`], so each
//!   decider's declared space bound is *checked at run time* rather than
//!   taken on faith.
//!
//! The paper's simulations allocate `Θ(n)`, `Θ(n²)` or `Θ(log n)` bits of
//! distributed memory; `DGS(f(l))` is the class of graph languages
//! decidable in space `f(l)` where `l = n²` is the input length. Each
//! language here declares its bound as a function of `n` and the
//! [`Workspace`] enforces it.

use netcon_graph::matrix::AdjMatrix;

use crate::machine::{Halt, Tape, TuringMachine};

/// A decidable graph language, as consumed by the universal constructors.
pub trait GraphLanguage {
    /// Display name of the language.
    fn name(&self) -> &str;

    /// The declared space bound, in bits, for inputs on `n` nodes.
    fn space_bound_bits(&self, n: usize) -> usize;

    /// Decides membership of the graph.
    fn accepts(&self, g: &AdjMatrix) -> bool;
}

/// A metered bit workspace: deciders allocate all working memory through
/// this and it panics if the declared bound is exceeded.
///
/// # Example
///
/// ```
/// use netcon_tm::decider::Workspace;
///
/// let mut ws = Workspace::with_budget(128);
/// let visited = ws.bits(64);
/// assert_eq!(visited.len(), 64);
/// assert_eq!(ws.used_bits(), 64);
/// ```
#[derive(Debug)]
pub struct Workspace {
    budget_bits: usize,
    used_bits: usize,
}

impl Workspace {
    /// Creates a workspace allowed to hand out at most `budget_bits` bits.
    #[must_use]
    pub fn with_budget(budget_bits: usize) -> Self {
        Self {
            budget_bits,
            used_bits: 0,
        }
    }

    /// Bits handed out so far.
    #[must_use]
    pub fn used_bits(&self) -> usize {
        self.used_bits
    }

    /// Allocates a zeroed bit vector.
    ///
    /// # Panics
    ///
    /// Panics if the allocation would exceed the budget — the decider's
    /// declared space bound is violated.
    pub fn bits(&mut self, count: usize) -> Vec<bool> {
        self.charge(count);
        vec![false; count]
    }

    /// Allocates a zeroed vector of `count` integers of `width` bits each
    /// (e.g. node indices need `⌈log₂ n⌉` bits).
    ///
    /// # Panics
    ///
    /// Panics if the allocation would exceed the budget.
    pub fn ints(&mut self, count: usize, width: u32) -> Vec<usize> {
        self.charge(count * width as usize);
        vec![0usize; count]
    }

    fn charge(&mut self, bits: usize) {
        self.used_bits += bits;
        assert!(
            self.used_bits <= self.budget_bits,
            "decider exceeded its declared space bound: {} > {} bits",
            self.used_bits,
            self.budget_bits
        );
    }
}

fn index_width(n: usize) -> u32 {
    usize::BITS - n.next_power_of_two().leading_zeros()
}

/// `L = {G : G is connected}` — decided by BFS in `O(n log n)` bits.
///
/// Connectivity is the paper's running example of a language whose
/// constructor runs in polynomial expected time, since `G(n, 1/2)` is
/// almost surely connected (Remark 1).
#[derive(Debug, Clone, Copy, Default)]
pub struct Connected;

impl GraphLanguage for Connected {
    fn name(&self) -> &str {
        "connected"
    }

    fn space_bound_bits(&self, n: usize) -> usize {
        // visited bits + an explicit queue of node indices.
        n + n * index_width(n) as usize + 64
    }

    fn accepts(&self, g: &AdjMatrix) -> bool {
        let n = g.n();
        if n <= 1 {
            return true;
        }
        let mut ws = Workspace::with_budget(self.space_bound_bits(n));
        let mut visited = ws.bits(n);
        let mut queue = ws.ints(n, index_width(n));
        let (mut head, mut tail) = (0usize, 0usize);
        visited[0] = true;
        queue[tail] = 0;
        tail += 1;
        let mut seen = 1usize;
        while head < tail {
            let u = queue[head];
            head += 1;
            for v in 0..n {
                if g.get(u, v) && !visited[v] {
                    visited[v] = true;
                    queue[tail] = v;
                    tail += 1;
                    seen += 1;
                }
            }
        }
        seen == n
    }
}

/// `L = {G : |E(G)| ≥ threshold(n)}` — a density threshold, decided by a
/// single counting pass in `O(log n)` bits (it is in `DGS(O(log l))`).
///
/// With `threshold(n)` above the `G(n, ½)` mean `n(n−1)/4`, this language
/// rejects roughly half of all draws, which makes the universal
/// constructor's repeat-until-accept loop (Fig. 3) visible in benchmarks.
pub struct MinEdges {
    threshold: Box<dyn Fn(usize) -> usize + Send + Sync>,
    name: String,
}

impl std::fmt::Debug for MinEdges {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MinEdges")
            .field("name", &self.name)
            .finish()
    }
}

impl MinEdges {
    /// A language of graphs with at least `threshold(n)` edges.
    #[must_use]
    pub fn new(
        name: impl Into<String>,
        threshold: impl Fn(usize) -> usize + Send + Sync + 'static,
    ) -> Self {
        Self {
            threshold: Box::new(threshold),
            name: name.into(),
        }
    }
}

impl GraphLanguage for MinEdges {
    fn name(&self) -> &str {
        &self.name
    }

    fn space_bound_bits(&self, n: usize) -> usize {
        // One edge counter of O(log n²) bits.
        2 * index_width(n * n.max(2)) as usize + 64
    }

    fn accepts(&self, g: &AdjMatrix) -> bool {
        let n = g.n();
        let mut count = 0usize;
        for u in 0..n {
            for v in (u + 1)..n {
                if g.get(u, v) {
                    count += 1;
                }
            }
        }
        count >= (self.threshold)(n)
    }
}

/// `L = {G : G is triangle-free}` — decided by scanning all triples with
/// `O(log n)` bits of counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct TriangleFree;

impl GraphLanguage for TriangleFree {
    fn name(&self) -> &str {
        "triangle-free"
    }

    fn space_bound_bits(&self, n: usize) -> usize {
        3 * index_width(n) as usize + 64
    }

    fn accepts(&self, g: &AdjMatrix) -> bool {
        let n = g.n();
        for a in 0..n {
            for b in (a + 1)..n {
                if !g.get(a, b) {
                    continue;
                }
                for c in (b + 1)..n {
                    if g.get(a, c) && g.get(b, c) {
                        return false;
                    }
                }
            }
        }
        true
    }
}

/// `L = {G : G is bipartite}` — decided by BFS 2-colouring in `O(n log n)`
/// bits.
#[derive(Debug, Clone, Copy, Default)]
pub struct Bipartite;

impl GraphLanguage for Bipartite {
    fn name(&self) -> &str {
        "bipartite"
    }

    fn space_bound_bits(&self, n: usize) -> usize {
        2 * n + n * index_width(n) as usize + 64
    }

    fn accepts(&self, g: &AdjMatrix) -> bool {
        let n = g.n();
        let mut ws = Workspace::with_budget(self.space_bound_bits(n));
        let mut colored = ws.bits(n);
        let mut color = ws.bits(n);
        let mut queue = ws.ints(n, index_width(n));
        for start in 0..n {
            if colored[start] {
                continue;
            }
            colored[start] = true;
            let (mut head, mut tail) = (0usize, 0usize);
            queue[tail] = start;
            tail += 1;
            while head < tail {
                let u = queue[head];
                head += 1;
                for v in 0..n {
                    if !g.get(u, v) {
                        continue;
                    }
                    if !colored[v] {
                        colored[v] = true;
                        color[v] = !color[u];
                        queue[tail] = v;
                        tail += 1;
                    } else if color[v] == color[u] {
                        return false;
                    }
                }
            }
        }
        true
    }
}

/// `L = {G : G is k-regular}` — decided by per-node degree counting in
/// `O(log n)` bits.
#[derive(Debug, Clone, Copy)]
pub struct Regular(
    /// The required degree `k`.
    pub usize,
);

impl GraphLanguage for Regular {
    fn name(&self) -> &str {
        "k-regular"
    }

    fn space_bound_bits(&self, n: usize) -> usize {
        2 * index_width(n) as usize + 64
    }

    fn accepts(&self, g: &AdjMatrix) -> bool {
        let n = g.n();
        (0..n).all(|u| (0..n).filter(|&v| g.get(u, v)).count() == self.0)
    }
}

/// `L = {G : G has a Hamiltonian cycle}` — decided by backtracking in
/// `O(n log n)` bits (the path stack). Exponential *time*, but the
/// constructors only bound space, and `G(n, ½)` is a.s. Hamiltonian
/// (Remark 1 names hamiltonicity as a polynomial-expected-time example).
#[derive(Debug, Clone, Copy, Default)]
pub struct Hamiltonian;

impl GraphLanguage for Hamiltonian {
    fn name(&self) -> &str {
        "hamiltonian"
    }

    fn space_bound_bits(&self, n: usize) -> usize {
        n + n * index_width(n) as usize + 64
    }

    fn accepts(&self, g: &AdjMatrix) -> bool {
        let n = g.n();
        if n < 3 {
            return false;
        }
        let mut ws = Workspace::with_budget(self.space_bound_bits(n));
        let mut used = ws.bits(n);
        let mut path = ws.ints(n, index_width(n));
        used[0] = true;
        path[0] = 0;
        fn extend(g: &AdjMatrix, used: &mut [bool], path: &mut [usize], depth: usize) -> bool {
            let n = g.n();
            if depth == n {
                return g.get(path[n - 1], path[0]);
            }
            let prev = path[depth - 1];
            for v in 0..n {
                if !used[v] && g.get(prev, v) {
                    used[v] = true;
                    path[depth] = v;
                    if extend(g, used, path, depth + 1) {
                        return true;
                    }
                    used[v] = false;
                }
            }
            false
        }
        extend(g, &mut used, &mut path, 1)
    }
}

/// A language decided by running a literal Turing machine on the
/// adjacency-matrix bitstring — the most faithful realization of the
/// paper's "execute on G₁ the TM that decides L" (Fig. 3).
pub struct TmLanguage {
    tm: TuringMachine,
    /// Tape cells allowed for inputs on `n` nodes.
    space: Box<dyn Fn(usize) -> usize + Send + Sync>,
    fuel: u64,
}

impl std::fmt::Debug for TmLanguage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TmLanguage")
            .field("tm", &self.tm.name())
            .finish()
    }
}

impl TmLanguage {
    /// Wraps `tm` with a tape-size function and a step budget.
    #[must_use]
    pub fn new(
        tm: TuringMachine,
        space: impl Fn(usize) -> usize + Send + Sync + 'static,
        fuel: u64,
    ) -> Self {
        Self {
            tm,
            space: Box::new(space),
            fuel,
        }
    }

    /// The wrapped machine.
    #[must_use]
    pub fn machine(&self) -> &TuringMachine {
        &self.tm
    }

    /// The tape length allocated for inputs on `n` nodes.
    #[must_use]
    pub fn tape_space(&self, n: usize) -> usize {
        (self.space)(n)
    }
}

impl GraphLanguage for TmLanguage {
    fn name(&self) -> &str {
        self.tm.name()
    }

    fn space_bound_bits(&self, n: usize) -> usize {
        // Each tape cell holds one symbol of ⌈log₂ symbols⌉ bits.
        self.tape_space(n) * (u8::BITS - (self.tm.symbol_count() - 1).leading_zeros()) as usize
    }

    fn accepts(&self, g: &AdjMatrix) -> bool {
        let mut tape = Tape::from_bits(&g.to_bits(), self.tape_space(g.n()));
        matches!(self.tm.run(&mut tape, self.fuel), Halt::Accept)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netcon_graph::gnp::gnp_half;
    use netcon_graph::EdgeSet;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn m(es: &EdgeSet) -> AdjMatrix {
        AdjMatrix::from(es)
    }

    #[test]
    fn connected_decider() {
        let path = EdgeSet::from_edges(4, [(0, 1), (1, 2), (2, 3)]);
        let split = EdgeSet::from_edges(4, [(0, 1), (2, 3)]);
        assert!(Connected.accepts(&m(&path)));
        assert!(!Connected.accepts(&m(&split)));
    }

    #[test]
    fn min_edges_decider() {
        let lang = MinEdges::new("dense", |n| n);
        let ring = EdgeSet::from_edges(5, (0..5).map(|i| (i, (i + 1) % 5)));
        assert!(lang.accepts(&m(&ring)), "5 edges >= 5");
        let sparse = EdgeSet::from_edges(5, [(0, 1)]);
        assert!(!lang.accepts(&m(&sparse)));
    }

    #[test]
    fn triangle_free_decider() {
        let square = EdgeSet::from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)]);
        assert!(TriangleFree.accepts(&m(&square)));
        let tri = EdgeSet::from_edges(3, [(0, 1), (1, 2), (2, 0)]);
        assert!(!TriangleFree.accepts(&m(&tri)));
    }

    #[test]
    fn bipartite_decider() {
        let square = EdgeSet::from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)]);
        assert!(Bipartite.accepts(&m(&square)));
        let penta = EdgeSet::from_edges(5, (0..5).map(|i| (i, (i + 1) % 5)));
        assert!(!Bipartite.accepts(&m(&penta)));
    }

    #[test]
    fn regular_decider() {
        let ring = EdgeSet::from_edges(6, (0..6).map(|i| (i, (i + 1) % 6)));
        assert!(Regular(2).accepts(&m(&ring)));
        assert!(!Regular(3).accepts(&m(&ring)));
    }

    #[test]
    fn hamiltonian_decider() {
        let ring = EdgeSet::from_edges(5, (0..5).map(|i| (i, (i + 1) % 5)));
        assert!(Hamiltonian.accepts(&m(&ring)));
        let star = EdgeSet::from_edges(5, (1..5).map(|v| (0, v)));
        assert!(!Hamiltonian.accepts(&m(&star)));
    }

    #[test]
    fn tm_language_parity_agrees_with_direct_count() {
        // Every adjacency matrix has an even number of 1s; the TM accepts
        // all graphs, including the empty one.
        let lang = TmLanguage::new(crate::machines::parity_machine(), |n| n * n + 2, 1 << 20);
        let mut rng = SmallRng::seed_from_u64(3);
        for _ in 0..10 {
            let g = gnp_half(6, &mut rng);
            assert!(lang.accepts(&m(&g)));
        }
    }

    #[test]
    fn random_graph_statistics_sanity() {
        // G(16, 1/2) is almost surely connected; over 50 seeded draws all
        // should be connected and non-bipartite.
        let mut rng = SmallRng::seed_from_u64(11);
        let mut connected = 0;
        for _ in 0..50 {
            let g = gnp_half(16, &mut rng);
            if Connected.accepts(&m(&g)) {
                connected += 1;
            }
        }
        assert!(connected >= 48, "{connected}/50 connected draws");
    }

    #[test]
    #[should_panic(expected = "space bound")]
    fn workspace_budget_is_enforced() {
        let mut ws = Workspace::with_budget(10);
        let _ = ws.bits(11);
    }
}
