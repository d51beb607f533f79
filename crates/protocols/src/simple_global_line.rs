//! Protocol 1: **Simple-Global-Line** — the paper's smallest spanning-line
//! constructor (5 states; expected time between Ω(n⁴) and O(n⁵),
//! Theorem 3).
//!
//! ```text
//! Q = {q0, q1, q2, l, w}
//! (q0, q0, 0) → (q1, l, 1)    // two isolated nodes start a line
//! (l,  q0, 0) → (q2, l, 1)    // a leader endpoint expands towards a q0
//! (l,  l,  0) → (q2, w, 1)    // two lines merge; a walking leader appears
//! (w,  q2, 1) → (q2, w, 1)    // the walk moves along the line
//! (w,  q1, 1) → (q2, l, 1)    // the walk reaches an endpoint: leader again
//! ```
//!
//! Every reachable configuration is a collection of disjoint lines — each
//! with exactly one leader (`l` on an endpoint or `w` walking internally)
//! — plus isolated `q0` nodes.

use netcon_core::{
    EngineView, EnumerableMachine, FaultState, Link, Population, ProtocolBuilder, RuleProtocol,
    SparsePop, StateId,
};
use netcon_graph::components::connected_components;
use netcon_graph::properties::is_spanning_line;

/// `q0` — initial, isolated.
pub const Q0: StateId = StateId::new(0);
/// `q1` — non-leader endpoint of a line.
pub const Q1: StateId = StateId::new(1);
/// `q2` — internal line node.
pub const Q2: StateId = StateId::new(2);
/// `l` — leader occupying an endpoint.
pub const L: StateId = StateId::new(3);
/// `w` — leader walking in the interior after a merge.
pub const W: StateId = StateId::new(4);

/// Builds Protocol 1.
#[must_use]
pub fn protocol() -> RuleProtocol {
    let mut b = ProtocolBuilder::new("Simple-Global-Line");
    let q0 = b.state("q0");
    let q1 = b.state("q1");
    let q2 = b.state("q2");
    let l = b.state("l");
    let w = b.state("w");
    b.rule((q0, q0, Link::Off), (q1, l, Link::On));
    b.rule((l, q0, Link::Off), (q2, l, Link::On));
    b.rule((l, l, Link::Off), (q2, w, Link::On));
    b.rule((w, q2, Link::On), (q2, w, Link::On));
    b.rule((w, q1, Link::On), (q2, l, Link::On));
    b.build().expect("Protocol 1 is well-formed")
}

/// Certifies output stability: the active graph is a spanning line.
///
/// Once the active graph spans all nodes as a single line there are no
/// `q0`s left and only one component (hence one leader), so none of the
/// three edge-activating rules can ever fire again (Theorem 3's
/// correctness argument).
#[must_use]
pub fn is_stable(pop: &Population<StateId>) -> bool {
    is_spanning_line(pop.edges())
}

/// [`is_stable`] for the sparse engine, in O(1): every reachable
/// configuration is a disjoint union of lines plus isolated `q0`s (the
/// [`census`] invariant), i.e. a forest — so the active graph is a
/// spanning line **iff** it has `n − 1` active edges. Fires at exactly
/// the same step as the dense predicate, with no Θ(n²) structure.
#[must_use]
pub fn is_stable_sparse(sp: &SparsePop) -> bool {
    sp.active_count() + 1 == sp.n()
}

/// [`is_stable_sparse`] over an engine-selection view
/// ([`Engine`](netcon_core::Engine)-driven sweeps), same O(1) argument.
#[must_use]
pub fn is_stable_view<M: EnumerableMachine>(v: &EngineView<'_, M>) -> bool {
    v.active_count() + 1 == v.n()
}

/// [`is_stable_view`] relative to the alive population of a faulted run:
/// the active graph spans the alive nodes as a single line **iff** it
/// has `alive − 1` active edges. Crashed and not-yet-arrived nodes keep
/// degree 0, and an arrival is a fresh isolated `q0` — so arrival-only
/// fault histories preserve the reachable-shape invariant and the O(1)
/// edge-count test stays exact. After a *crash* the invariant can break
/// (a leaderless line fragment), and since no rule mentions `q2` as a
/// merge partner the protocol never repairs it: the predicate is then
/// simply unreachable, which is the honest reading.
#[must_use]
pub fn is_stable_faulted<M: EnumerableMachine>(v: &EngineView<'_, M>, fs: &FaultState) -> bool {
    v.active_count() + 1 == fs.alive_count()
}

/// A census of one configuration, matching the picture in Fig. 2 of the
/// paper: coexisting lines led by an `l` endpoint or a `w` walker, plus
/// isolated `q0`s.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Census {
    /// Isolated nodes still in `q0`.
    pub isolated: usize,
    /// Line components whose leader is an endpoint `l`.
    pub lines_with_endpoint_leader: usize,
    /// Line components whose leader is a walking `w`.
    pub lines_with_walking_leader: usize,
    /// Lengths (in nodes) of all line components, sorted ascending.
    pub line_lengths: Vec<usize>,
}

/// Takes the census of a Simple-Global-Line configuration.
///
/// # Panics
///
/// Panics if the configuration violates the protocol's reachable-shape
/// invariant (each non-singleton component is a line with exactly one
/// leader) — which would indicate an engine or transcription bug.
#[must_use]
pub fn census(pop: &Population<StateId>) -> Census {
    let mut out = Census::default();
    for comp in connected_components(pop.edges()) {
        if comp.len() == 1 {
            let u = comp[0];
            assert_eq!(
                *pop.state(u),
                Q0,
                "singleton component must be q0 (node {u})"
            );
            out.isolated += 1;
            continue;
        }
        let leaders = comp
            .iter()
            .filter(|&&u| *pop.state(u) == L || *pop.state(u) == W)
            .count();
        assert_eq!(leaders, 1, "every line has exactly one leader: {comp:?}");
        let endpoints = comp.iter().filter(|&&u| pop.edges().degree(u) == 1).count();
        assert_eq!(endpoints, 2, "component is not a line: {comp:?}");
        if comp.iter().any(|&u| *pop.state(u) == W) {
            out.lines_with_walking_leader += 1;
        } else {
            out.lines_with_endpoint_leader += 1;
        }
        out.line_lengths.push(comp.len());
    }
    out.line_lengths.sort_unstable();
    out
}

/// Runs the protocol and counts how many *length-1 lines* (single active
/// edges created by `(q0, q0, 0) → (q1, l, 1)`) appear over the whole
/// execution — the quantity the Ω(n⁴) lower-bound proof of Theorem 3 shows
/// is Θ(n) w.h.p.
///
/// Runs on the event-driven engine ([`EventSim`](netcon_core::EventSim)),
/// which skips the ineffective draws that dominate this Θ(n⁴)-time
/// protocol; the count's distribution is identical to stepping naively.
#[must_use]
pub fn count_fresh_lines(n: usize, seed: u64, max_steps: u64) -> u64 {
    use netcon_core::{EventSim, EventStep, StepResult};
    let q0 = Q0;
    let mut sim = EventSim::new(protocol().compile(), n, seed);
    let mut fresh = 0u64;
    loop {
        // Detect (q0, q0) pairings by watching state counts around an
        // applied interaction (only rule 1 consumes two q0s at once).
        let before = sim.population().count_where(|s| *s == q0);
        match sim.advance(max_steps) {
            EventStep::Quiescent | EventStep::BudgetExhausted => break,
            EventStep::Candidate {
                result: StepResult::Effective { .. },
                ..
            } => {
                let after = sim.population().count_where(|s| *s == q0);
                if before - after == 2 {
                    fresh += 1;
                }
                if is_stable(sim.population()) {
                    break;
                }
            }
            EventStep::Candidate { .. } => {}
        }
    }
    fresh
}

#[cfg(test)]
mod tests {
    use super::*;
    use netcon_core::testing::{assert_stabilizes, assert_stabilizes_event};
    use netcon_core::{Machine, RoundRobin, Simulation};

    #[test]
    fn paper_metadata() {
        let p = protocol();
        assert_eq!(p.size(), 5, "Table 2: Simple-Global-Line uses 5 states");
        assert_eq!(p.rules().len(), 5);
        assert_eq!(p.initial_state(), Q0);
        for (name, id) in [("q0", Q0), ("q1", Q1), ("q2", Q2), ("l", L), ("w", W)] {
            assert_eq!(p.state(name), Some(id));
        }
    }

    #[test]
    fn constructs_spanning_line_small() {
        for n in [2, 3, 4, 5] {
            for seed in 0..3 {
                // Keep the naive engine on the smallest sizes: it is the
                // reference semantics the event engine is checked against.
                let sim = assert_stabilizes(protocol(), n, seed, is_stable, 80_000_000, 40_000);
                assert!(is_spanning_line(sim.population().edges()));
                assert!(sim.is_quiescent(), "final line configuration quiesces");
            }
        }
        for n in [8, 16, 24] {
            for seed in 0..5 {
                // The follow-up window must outlast the last walker's
                // O(n²)-move random walk (output-stable but not yet
                // quiescent); steps are nearly free on the event engine.
                let sim = assert_stabilizes_event(
                    protocol().compile(),
                    n,
                    seed,
                    is_stable,
                    80_000_000_000,
                    5_000_000,
                );
                assert!(is_spanning_line(sim.population().edges()));
                assert!(sim.is_quiescent(), "final line configuration quiesces");
            }
        }
    }

    #[test]
    fn constructs_spanning_line_medium() {
        let sim =
            assert_stabilizes_event(protocol().compile(), 48, 99, is_stable, u64::MAX, 50_000);
        // Exactly one leader endpoint remains.
        assert_eq!(sim.population().count_where(|s| *s == L), 1);
        assert_eq!(sim.population().count_where(|s| *s == Q1), 1);
        assert_eq!(sim.population().count_where(|s| *s == Q0), 0);
    }

    #[test]
    fn census_invariants_hold_throughout() {
        let mut sim = Simulation::new(protocol(), 20, 7);
        for _ in 0..200 {
            sim.run_for(500);
            let c = census(sim.population()); // asserts the shape invariant
            let nodes_in_lines: usize = c.line_lengths.iter().sum();
            assert_eq!(nodes_in_lines + c.isolated, 20, "nodes are conserved");
        }
    }

    #[test]
    fn works_under_round_robin_scheduler() {
        let sim = Simulation::with_scheduler(protocol(), 8, 3, RoundRobin::new());
        let sim = netcon_core::testing::assert_stabilizes_sim(sim, is_stable, 20_000_000, 10_000);
        assert!(is_spanning_line(sim.population().edges()));
    }

    #[test]
    fn absorbs_arrivals_into_the_line() {
        use netcon_core::{Engine, FaultEvent, FaultPlan};
        // Stabilize on 8 nodes, admit two fresh q0s, and check the line
        // re-spans the enlarged population: `(l, q0, 0) → (q2, l, 1)`
        // extends the line from its leader endpoint.
        let n = 8;
        let plan = FaultPlan::new(11)
            .at(u64::MAX, FaultEvent::Arrive)
            .at(u64::MAX, FaultEvent::Arrive);
        let mut eng = Engine::auto_faulted(protocol().compile(), n, 5, plan);
        let fs0 = eng.fault_state().expect("faulted").clone();
        eng.run_until(|v| is_stable_faulted(v, &fs0), 10_000_000_000)
            .converged_at()
            .expect("phase 1 stabilizes");
        eng.apply_faults_now();
        let fs1 = eng.fault_state().expect("faulted").clone();
        assert_eq!(fs1.alive_count(), n + 2);
        eng.run_until(|v| is_stable_faulted(v, &fs1), eng.steps() + 10_000_000_000)
            .converged_at()
            .expect("the line absorbs both arrivals");
        let pop = eng.to_population();
        assert!(is_spanning_line(pop.edges()), "line re-spans n + 2 nodes");
        assert_eq!(census(&pop).line_lengths, vec![n + 2]);
    }

    #[test]
    fn crashes_are_not_self_repaired() {
        use netcon_core::{Engine, FaultEvent, FaultPlan};
        // A crash splits the stable line; the fragment without the
        // leader is all q1/q2, which no rule can ever touch again. The
        // honest result is an immediately-quiescent damaged network.
        let n = 10;
        let plan = FaultPlan::new(3).at(u64::MAX, FaultEvent::CrashRandom);
        let mut eng = Engine::auto_faulted(protocol().compile(), n, 7, plan);
        let fs0 = eng.fault_state().expect("faulted").clone();
        eng.run_until(|v| is_stable_faulted(v, &fs0), 10_000_000_000)
            .converged_at()
            .expect("phase 1 stabilizes");
        // Output stability can precede quiescence: a walking leader may
        // still traverse the finished line (effective steps that change
        // no edge). Let the walk finish so the only activity that could
        // follow is a reaction to the crash.
        eng.run_faulted_to(eng.steps() + 5_000_000);
        let quiesced = eng.effective_steps();
        eng.run_faulted_to(eng.steps() + 1_000_000);
        assert_eq!(eng.effective_steps(), quiesced, "walker has parked");
        eng.apply_faults_now();
        assert_eq!(eng.fault_state().expect("faulted").alive_count(), n - 1);
        let eff = eng.effective_steps();
        let target = eng.steps() + 2_000_000;
        eng.run_faulted_to(target);
        assert_eq!(
            eng.effective_steps(),
            eff,
            "no Simple-Global-Line rule re-fires after a crash"
        );
    }

    #[test]
    fn fresh_line_count_is_linear() {
        // Theorem 3's w.h.p. bound: at least (n − 2√(cn ln n) − 2)/16.
        let n = 64;
        let fresh = count_fresh_lines(n, 5, 2_000_000_000);
        assert!(
            fresh as f64 >= (n as f64) / 16.0 - 2.0,
            "expected ≥ n/16 − 2 fresh length-1 lines, got {fresh}"
        );
        assert!(fresh <= (n / 2) as u64, "at most n/2 pairings are possible");
    }
}
