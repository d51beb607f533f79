//! **FT-Spanning-Line** — the restart/waste-based fault-tolerant
//! spanning-line constructor in the crash-notification model of "Fault
//! Tolerant Network Constructors" (arXiv 1903.05992), layered over the
//! paper's Protocol 1 (Simple-Global-Line).
//!
//! ```text
//! Q = {q0, q1, q2, l, w, r1},  q0 initial
//! (q0, q0, 0) → (q1, l, 1)    // two isolated nodes start a line
//! (l,  q0, 0) → (q2, l, 1)    // a leader endpoint expands towards a q0
//! (l,  l,  0) → (q2, w, 1)    // two lines merge; a walking leader appears
//! (w,  q2, 1) → (q2, w, 1)    // the walk moves along the line
//! (w,  q1, 1) → (q2, l, 1)    // the walk reaches an endpoint: leader again
//! (r1, q2, 1) → (q0, r1, 0)   // restart wave eats inward
//! (r1, w,  1) → (q0, r1, 0)   //   (a walker is interior, degree 2)
//! (r1, q1, 1) → (q0, q0, 0)   // wave reaches the far endpoint
//! (r1, l,  1) → (q0, q0, 0)   //   (leader endpoint likewise)
//! (r1, r1, 1) → (q0, q0, 0)   // two waves meet mid-fragment
//! notify: q1 → q0, l → q0, q2 → r1, w → r1, r1 → q0
//! ```
//!
//! PR 6's `crashes_are_not_self_repaired` regression proves plain
//! Simple-Global-Line freezes after any crash: the leaderless fragment
//! is all `q1`/`q2`, which no rule mentions. The restart technique of
//! 1903.05992 repairs this *wastefully*: a notified node does not try
//! to patch the break (a notified `q2` promoting itself to a fresh
//! leader could put two leaders in one component, whose `(l, l, 0)`
//! merge would close a cycle and trap the walker forever). Instead it
//! enters the restart state `r1` and dissolves its entire fragment back
//! to isolated `q0`s, one edge per interaction, and the ordinary rules
//! rebuild the line from scratch.
//!
//! The construction leans on Simple-Global-Line's *degree invariant*:
//! every state determines its node's active degree exactly (`q0`: 0,
//! `q1`: 1, `q2`: 2, `l`: 1, `w`: 2 — check each rule). Losing one
//! edge therefore tells a node exactly how many remain: `q1`/`l` are
//! isolated now (notify to `q0`), `q2`/`w` have exactly one left
//! (notify to `r1`, "restarting with one edge to consume"), and a
//! second notification on an `r1` means its last edge died with its
//! second neighbour (back to `q0`). The wave rules keep the invariant:
//! `r1` always holds exactly one active edge, and no rule ever gives
//! it a new one.

use netcon_core::{
    EngineView, EnumerableMachine, FaultState, Link, Population, ProtocolBuilder, RuleProtocol,
    SparsePop, StateId,
};

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
/// `r1` — restarting: exactly one active edge left to dissolve.
pub const R1: StateId = StateId::new(5);

/// Builds FT-Spanning-Line.
#[must_use]
pub fn protocol() -> RuleProtocol {
    let mut b = ProtocolBuilder::new("FT-Spanning-Line");
    let q0 = b.state("q0");
    let q1 = b.state("q1");
    let q2 = b.state("q2");
    let l = b.state("l");
    let w = b.state("w");
    let r1 = b.state("r1");
    b.rule((q0, q0, Link::Off), (q1, l, Link::On));
    b.rule((l, q0, Link::Off), (q2, l, Link::On));
    b.rule((l, l, Link::Off), (q2, w, Link::On));
    b.rule((w, q2, Link::On), (q2, w, Link::On));
    b.rule((w, q1, Link::On), (q2, l, Link::On));
    b.rule((r1, q2, Link::On), (q0, r1, Link::Off));
    b.rule((r1, w, Link::On), (q0, r1, Link::Off));
    b.rule((r1, q1, Link::On), (q0, q0, Link::Off));
    b.rule((r1, l, Link::On), (q0, q0, Link::Off));
    b.rule((r1, r1, Link::On), (q0, q0, Link::Off));
    b.on_crash(q1, q0);
    b.on_crash(l, q0);
    b.on_crash(q2, r1);
    b.on_crash(w, r1);
    b.on_crash(r1, q0);
    b.build().expect("FT-Spanning-Line is well-formed")
}

/// Certifies output stability of a fault-free run: the active graph is
/// a spanning line. Fault-free, `r1` is unreachable (only the notify
/// map creates it), so this coincides with Simple-Global-Line.
#[must_use]
pub fn is_stable(pop: &Population<StateId>) -> bool {
    netcon_graph::properties::is_spanning_line(pop.edges())
}

/// [`is_stable`] over an engine-selection view in O(1): reachable
/// configurations stay forests (restart waves only *remove* edges, and
/// the base rules only join distinct components), so spanning-line ⇔
/// `n − 1` active edges, exactly as for the baseline protocol.
#[must_use]
pub fn is_stable_view<M: EnumerableMachine>(v: &EngineView<'_, M>) -> bool {
    v.active_count() + 1 == v.n()
}

/// The fault-mode stability predicate, O(1): the active graph spans the
/// alive nodes as a single line iff it has `alive − 1` active edges
/// (crashed and not-yet-arrived nodes keep degree 0, and the forest
/// invariant holds through restarts). Where plain Simple-Global-Line's
/// faulted predicate becomes unreachable after any crash, the restart
/// wave makes this one re-entered after every burst.
#[must_use]
pub fn is_stable_faulted<M: EnumerableMachine>(v: &EngineView<'_, M>, fs: &FaultState) -> bool {
    v.active_count() + 1 == fs.alive_count()
}

/// [`is_stable_faulted`] over a dense population snapshot — the form
/// the naive and event engines' `run_faulted_until` consume.
#[must_use]
pub fn is_stable_faulted_pop(pop: &Population<StateId>, fs: &FaultState) -> bool {
    pop.edges().active_count() + 1 == fs.alive_count()
}

/// [`is_stable_faulted`] over the sparse view — the form
/// [`Driver::run_faulted_until`](netcon_core::Driver::run_faulted_until)
/// consumes on the sparse engines.
#[must_use]
pub fn is_stable_faulted_sparse(sp: &SparsePop, fs: &FaultState) -> bool {
    sp.active_count() + 1 == fs.alive_count()
}

/// The state-determined active degree of Simple-Global-Line's invariant,
/// extended to `r1` — what the notify map is derived from.
#[must_use]
pub fn invariant_degree(s: StateId) -> usize {
    match s {
        Q0 => 0,
        Q1 | L | R1 => 1,
        Q2 | W => 2,
        _ => unreachable!("not an FT-Spanning-Line state"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netcon_core::testing::assert_stabilizes_event;
    use netcon_core::{ChurnPlan, Engine, FaultEvent, FaultPlan, Simulation};
    use netcon_graph::properties::is_spanning_line;

    #[test]
    fn metadata_and_notify_map() {
        let p = protocol();
        assert_eq!(p.size(), 6);
        assert_eq!(p.rules().len(), 10);
        for (from, to) in [(Q1, Q0), (L, Q0), (Q2, R1), (W, R1), (R1, Q0)] {
            assert_eq!(p.crash_notify_target(from), Some(to));
        }
        assert_eq!(p.crash_notify_target(Q0), None);
    }

    #[test]
    fn degree_invariant_holds_throughout() {
        // The invariant the notify map is derived from: every state
        // pins its node's exact active degree, through faults included.
        let n = 14;
        let plan = FaultPlan::new(6)
            .at(300, FaultEvent::CrashRandom)
            .at(900, FaultEvent::CrashRandom)
            .at(1_500, FaultEvent::Arrive);
        let mut sim = Simulation::new_faulted(protocol(), n, 2, plan);
        for _ in 0..40 {
            sim.run_faulted_to(sim.steps() + 100);
            let fs = sim.fault_state().expect("faulted").clone();
            let pop = sim.population();
            for u in 0..fs.capacity() {
                if fs.is_alive(u) {
                    assert_eq!(
                        pop.edges().degree(u) as usize,
                        invariant_degree(*pop.state(u)),
                        "node {u} in {:?} at step {}",
                        pop.state(u),
                        sim.steps(),
                    );
                }
            }
        }
    }

    #[test]
    fn constructs_spanning_line_fault_free() {
        for (n, seed) in [(4, 0), (8, 1), (16, 2)] {
            let sim = assert_stabilizes_event(
                protocol().compile(),
                n,
                seed,
                is_stable,
                80_000_000_000,
                5_000_000,
            );
            assert!(is_spanning_line(sim.population().edges()));
            assert_eq!(sim.population().count_where(|s| *s == R1), 0);
        }
    }

    #[test]
    fn restart_wave_repairs_the_crash_simple_global_line_cannot() {
        // Same shape as simple_global_line's
        // `crashes_are_not_self_repaired` (which proves the baseline
        // freezes): stabilize, crash a random node — but here the
        // restart wave dissolves both fragments and the line re-spans
        // the survivors.
        let n = 10;
        let plan = FaultPlan::new(3).at(u64::MAX, FaultEvent::CrashRandom);
        let mut eng = Engine::auto_faulted(protocol().compile(), n, 7, plan);
        let fs0 = eng.fault_state().expect("faulted").clone();
        eng.run_until(|v| is_stable_faulted(v, &fs0), 10_000_000_000)
            .converged_at()
            .expect("phase 1 stabilizes");
        eng.apply_faults_now();
        let fs1 = eng.fault_state().expect("faulted").clone();
        assert_eq!(fs1.alive_count(), n - 1);
        eng.run_until(|v| is_stable_faulted(v, &fs1), u64::MAX)
            .converged_at()
            .expect("the restart wave rebuilds a line over the survivors");
        let pop = eng.to_population();
        let alive: Vec<usize> = (0..n).filter(|&u| fs1.is_alive(u)).collect();
        assert!(
            is_spanning_line(&pop.edges().induced(&alive)),
            "survivors form a line"
        );
    }

    #[test]
    fn cut_at_walker_is_outside_the_crash_model_and_strands_the_walk() {
        // The notify map repairs *crashes*: a lost neighbour tells a
        // node its new degree. Edge deletions carry no notification,
        // and an adaptive adversary that severs the line exactly at a
        // live walker exploits that: the walker keeps state `w` at
        // degree 0, no rule ever creates an edge at a `w` (every
        // edge-creating rule needs `q0` or `l`), and no notification
        // can reach a node with no neighbours — so the survivors can
        // never span. FT-line is fault-tolerant strictly within the
        // crash model of 1903.05992.
        use netcon_core::{AdversaryPlan, AdversaryPolicy, Cadence};
        let n = 12;
        let plan = FaultPlan::new(5).with_adversary(
            AdversaryPlan::new(Cadence::Periodic {
                start: 40,
                every: 40,
                count: 1500,
            })
            .policy(AdversaryPolicy::CutAtWalker(W.index())),
        );
        let mut eng = Engine::auto_faulted(protocol().compile(), n, 9, plan);
        eng.run_faulted_to(40 * 1500);
        let fs = eng.fault_state().expect("faulted").clone();
        assert_eq!(fs.next_at(), None, "all decisions taken");
        assert!(
            fs.adversary_spent() >= 2,
            "a strike caught a live walker (2 severed edges), spent {}",
            fs.adversary_spent()
        );
        assert_eq!(fs.alive_count(), n, "edge cuts crash nobody");
        let now = eng.steps();
        assert!(
            eng.run_faulted_until(|v, _| is_stable_faulted(v, &fs), now + 5_000_000)
                .converged_at()
                .is_none(),
            "the stranded walker keeps the line from ever spanning"
        );
        let pop = eng.to_population();
        let stranded: Vec<usize> = (0..n)
            .filter(|&u| *pop.state(u) == W && pop.edges().degree(u) == 0)
            .collect();
        assert!(
            !stranded.is_empty(),
            "a walker is stuck in `w` with no edges"
        );
    }

    #[test]
    fn rides_sustained_churn_to_a_line_over_the_survivors() {
        let n = 10;
        let plan = ChurnPlan::new(13)
            .arrival_rate(1e-4)
            .departure_rate(1e-4)
            .min_alive(5)
            .horizon(60_000)
            .compile(n);
        let mut eng = Engine::auto_faulted(protocol().compile(), n, 23, plan);
        let fs = eng.fault_state().expect("faulted").project_final();
        eng.run_faulted_until(|v, _| is_stable_faulted(v, &fs), u64::MAX)
            .converged_at()
            .expect("re-stabilizes once the churn stream ends");
        assert!(fs.alive_count() >= 5, "floor held");
    }
}
