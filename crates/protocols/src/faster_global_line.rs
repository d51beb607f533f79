//! Protocol 10: **Faster-Global-Line** — the conjectured improvement from
//! the paper's conclusions (§7, 6 states; open whether it asymptotically
//! beats Fast-Global-Line).
//!
//! When two leaders duel, the loser becomes a *dissolving follower* `f`
//! that releases its own line node by node; released nodes (state `q`)
//! are free for awake leaders to absorb. In contrast to Protocol 2, the
//! sleeping lines dismantle themselves in parallel with the winner's
//! growth.
//!
//! ```text
//! Q = {q0, q1, q2, q, l, f}
//! (q0, q0, 0) → (q1, l, 1)    // two isolated nodes start a line
//! (l,  q0, 0) → (q2, l, 1)    // expand towards a fresh node
//! (l,  q,  0) → (q2, l, 1)    // expand towards a released node
//! (l,  l,  0) → (l,  f, 0)    // duel: loser starts dissolving
//! (f,  q2, 1) → (q,  f, 0)    // release the endpoint, pass f inwards
//! (f,  q1, 1) → (q,  q, 0)    // last edge of the losing line dissolves
//! ```

use netcon_core::{Link, Population, ProtocolBuilder, RuleProtocol, StateId};
use netcon_graph::properties::is_spanning_line;

/// `q0` — initial, isolated.
pub const Q0: StateId = StateId::new(0);
/// `q1` — non-leader endpoint.
pub const Q1: StateId = StateId::new(1);
/// `q2` — internal line node.
pub const Q2: StateId = StateId::new(2);
/// `q` — released (free) node.
pub const Q: StateId = StateId::new(3);
/// `l` — leader endpoint of an awake line.
pub const L: StateId = StateId::new(4);
/// `f` — dissolving-follower mark travelling down a losing line.
pub const F: StateId = StateId::new(5);

/// Builds Protocol 10.
#[must_use]
pub fn protocol() -> RuleProtocol {
    let mut b = ProtocolBuilder::new("Faster-Global-Line");
    let q0 = b.state("q0");
    let q1 = b.state("q1");
    let q2 = b.state("q2");
    let q = b.state("q");
    let l = b.state("l");
    let f = b.state("f");
    b.rule((q0, q0, Link::Off), (q1, l, Link::On));
    b.rule((l, q0, Link::Off), (q2, l, Link::On));
    b.rule((l, q, Link::Off), (q2, l, Link::On));
    b.rule((l, l, Link::Off), (l, f, Link::Off));
    b.rule((f, q2, Link::On), (q, f, Link::Off));
    b.rule((f, q1, Link::On), (q, q, Link::Off));
    b.build().expect("Protocol 10 is well-formed")
}

/// Certifies output stability: spanning line with a unique leader and no
/// dissolving lines or free nodes left.
#[must_use]
pub fn is_stable(pop: &Population<StateId>) -> bool {
    let mut leaders = 0usize;
    for s in pop.states() {
        match *s {
            Q1 | Q2 => {}
            L => leaders += 1,
            _ => return false,
        }
    }
    leaders == 1 && is_spanning_line(pop.edges())
}

#[cfg(test)]
mod tests {
    use super::*;
    use netcon_core::testing::assert_stabilizes;

    #[test]
    fn paper_metadata() {
        let p = protocol();
        assert_eq!(p.size(), 6);
        assert_eq!(p.rules().len(), 6);
        for (name, id) in [
            ("q0", Q0),
            ("q1", Q1),
            ("q2", Q2),
            ("q", Q),
            ("l", L),
            ("f", F),
        ] {
            assert_eq!(p.state(name), Some(id));
        }
    }

    #[test]
    fn constructs_spanning_line() {
        for n in [2, 3, 4, 5, 8, 16, 24] {
            for seed in 0..3 {
                let sim = assert_stabilizes(protocol(), n, seed, is_stable, 80_000_000, 40_000);
                assert!(is_spanning_line(sim.population().edges()));
                assert!(sim.is_quiescent());
            }
        }
    }

    #[test]
    fn duel_dissolves_loser() {
        use netcon_core::Simulation;
        // Two 2-lines plus nothing else: after the duel one line dissolves
        // and the winner absorbs both released nodes.
        let mut pop = Population::new(4, Q0);
        pop.set_state(0, Q1);
        pop.set_state(1, L);
        pop.set_state(2, L);
        pop.set_state(3, Q1);
        pop.edges_mut().activate(0, 1);
        pop.edges_mut().activate(2, 3);
        let mut sim = Simulation::from_population(protocol(), pop, 2);
        let out = sim.run_until(is_stable, 5_000_000);
        assert!(out.stabilized());
        assert!(is_spanning_line(sim.population().edges()));
    }
}
