//! The §7 reference point: spanning-line construction **with a
//! pre-elected leader**.
//!
//! The conclusions observe that, given a unique pre-elected leader `l`
//! and all edges inactive, the single rule
//!
//! ```text
//! (l, q0, 0) → (q1, l, 1)
//! ```
//!
//! produces a stable spanning line in Θ(n² log n) expected time (a *meet
//! everybody* process: the moving leader must bump into every remaining
//! `q0`). This is almost optimal — the general lower bound for lines is
//! Ω(n²) — and the gap to the leaderless constructors (Ω(n⁴)/O(n⁵) for
//! Protocol 1, O(n³) for Protocol 2) quantifies the price of electing
//! the leader *while* building: the composition problem the paper leaves
//! open.
//!
//! The protocol cannot run from the model's uniform initial configuration
//! (it needs the leader pre-placed), so it comes with its own
//! [`initial_population`].

use netcon_core::{Link, Population, ProtocolBuilder, RuleProtocol, StateId};

/// `q0` — unrecruited node.
pub const Q0: StateId = StateId::new(0);
/// `q1` — line node (everyone the leader has passed through).
pub const Q1: StateId = StateId::new(1);
/// `l` — the unique pre-elected leader, always at the line's growing end.
pub const L: StateId = StateId::new(2);

/// Builds the pre-elected-leader line protocol.
#[must_use]
pub fn protocol() -> RuleProtocol {
    let mut b = ProtocolBuilder::new("Leader-Line");
    let q0 = b.state("q0");
    let q1 = b.state("q1");
    let l = b.state("l");
    b.rule((l, q0, Link::Off), (q1, l, Link::On));
    b.build().expect("the leader-line rule is well-formed")
}

/// The initial configuration: node 0 is the leader, everyone else `q0`.
#[must_use]
pub fn initial_population(n: usize) -> Population<StateId> {
    let mut pop = Population::new(n, Q0);
    pop.set_state(0, L);
    pop
}

/// Certifies output stability: no `q0` remains (the only rule needs one).
#[must_use]
pub fn is_stable(pop: &Population<StateId>) -> bool {
    pop.count_where(|s| *s == Q0) == 0
}

#[cfg(test)]
mod tests {
    use super::*;
    use netcon_core::testing::assert_stabilizes_sim;
    use netcon_core::Simulation;
    use netcon_graph::properties::is_spanning_line;

    #[test]
    fn builds_a_spanning_line() {
        for n in [2, 5, 16, 64] {
            for seed in 0..3 {
                let sim = Simulation::from_population(protocol(), initial_population(n), seed);
                let sim = assert_stabilizes_sim(sim, is_stable, u64::MAX, 20_000);
                assert!(is_spanning_line(sim.population().edges()));
                assert!(sim.is_quiescent());
            }
        }
    }

    #[test]
    fn leader_ends_at_an_endpoint() {
        let sim = Simulation::from_population(protocol(), initial_population(12), 9);
        let sim = assert_stabilizes_sim(sim, is_stable, u64::MAX, 5_000);
        let pop = sim.population();
        let leaders = pop.nodes_where(|s| *s == L);
        assert_eq!(leaders.len(), 1);
        assert_eq!(pop.edges().degree(leaders[0]), 1, "leader is an endpoint");
    }

    #[test]
    fn much_faster_than_leaderless_constructors() {
        // At n = 32 the Θ(n² log n) leader-line beats Protocol 1's Ω(n⁴)
        // comfortably on aggregate.
        let n = 32;
        let trials = 5;
        let leader: u64 = (0..trials)
            .map(|seed| {
                let mut sim = Simulation::from_population(protocol(), initial_population(n), seed);
                sim.run_until(is_stable, u64::MAX)
                    .converged_at()
                    .expect("stabilizes")
            })
            .sum();
        let simple: u64 = (0..trials)
            .map(|seed| {
                let mut sim = Simulation::new(crate::simple_global_line::protocol(), n, seed);
                sim.run_until(crate::simple_global_line::is_stable, u64::MAX)
                    .converged_at()
                    .expect("stabilizes")
            })
            .sum();
        assert!(
            leader * 2 < simple,
            "pre-elected leader ({leader}) should be at least 2x faster than \
             Simple-Global-Line ({simple}) at n={n}"
        );
    }
}
