//! Robustness suite: the constructors under fair deterministic
//! schedulers, invariants sampled along random executions, and
//! cross-protocol consistency checks.

use netcon_core::testing::{assert_stabilizes_sim, step_budget};
use netcon_core::{Machine, Population, RoundRobin, ShuffledRounds, Simulation, StateId};
use netcon_graph::components::connected_components;
use netcon_graph::properties::{
    is_cycle_cover_with_waste, is_spanning_line, is_spanning_ring, is_spanning_star,
};
use netcon_protocols::*;
use proptest::prelude::*;

#[test]
fn constructors_work_under_shuffled_rounds() {
    // The shuffled-rounds scheduler covers every pair once per round in a
    // fresh random order; protocols whose correctness needs only fairness
    // must still converge.
    let sim = Simulation::with_scheduler(global_star::protocol(), 16, 3, ShuffledRounds::new());
    let sim = assert_stabilizes_sim(sim, global_star::is_stable, step_budget(16), 10_000);
    assert!(is_spanning_star(sim.population().edges()));

    let sim = Simulation::with_scheduler(cycle_cover::protocol(), 15, 3, ShuffledRounds::new());
    let sim = assert_stabilizes_sim(sim, cycle_cover::is_stable, step_budget(15), 10_000);
    assert!(is_cycle_cover_with_waste(sim.population().edges(), 2));

    let sim =
        Simulation::with_scheduler(fast_global_line::protocol(), 10, 3, ShuffledRounds::new());
    let sim = assert_stabilizes_sim(sim, fast_global_line::is_stable, step_budget(10), 10_000);
    assert!(is_spanning_line(sim.population().edges()));
}

#[test]
fn constructors_work_under_round_robin() {
    let sim = Simulation::with_scheduler(spanning_net::protocol(), 14, 0, RoundRobin::new());
    let sim = assert_stabilizes_sim(sim, spanning_net::is_stable, step_budget(14), 10_000);
    assert!(netcon_graph::properties::is_spanning_net(
        sim.population().edges()
    ));

    let sim = Simulation::with_scheduler(krc::protocol(2), 8, 1, RoundRobin::new());
    let sim = assert_stabilizes_sim(sim, |p| krc::is_stable(p, 2), step_budget(8), 10_000);
    assert!(is_spanning_ring(sim.population().edges()));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Simple-Global-Line's reachable-shape invariant (each component is
    /// a line with exactly one leader; isolated nodes are q0) holds at
    /// arbitrary sample points of arbitrary executions — `census` panics
    /// if it ever breaks.
    #[test]
    fn line_shape_invariant_holds(n in 4usize..24, seed in any::<u64>(), probes in 1usize..20) {
        let mut sim = Simulation::new(simple_global_line::protocol(), n, seed);
        for _ in 0..probes {
            sim.run_for(500);
            let c = simple_global_line::census(sim.population());
            let in_lines: usize = c.line_lengths.iter().sum();
            prop_assert_eq!(in_lines + c.isolated, n);
        }
    }

    /// Cycle-Cover's state-records-degree invariant along executions.
    #[test]
    fn cycle_cover_degree_invariant(n in 4usize..24, seed in any::<u64>()) {
        let mut sim = Simulation::new(cycle_cover::protocol(), n, seed);
        for _ in 0..10 {
            sim.run_for(200);
            let pop = sim.population();
            for u in 0..n {
                prop_assert_eq!(
                    pop.state(u).index() as u32,
                    pop.edges().degree(u),
                    "cycle-cover states are degrees"
                );
            }
        }
    }

    /// kRC: the recorded degree matches the real degree, and every
    /// non-singleton component keeps at least one leader.
    #[test]
    fn krc_invariants(k in 2u32..4, n in 6usize..16, seed in any::<u64>()) {
        let st = krc::States { k };
        let mut sim = Simulation::new(krc::protocol(k), n, seed);
        for _ in 0..10 {
            sim.run_for(300);
            let pop = sim.population();
            for u in 0..n {
                prop_assert_eq!(st.degree_of(*pop.state(u)), pop.edges().degree(u));
            }
            for comp in connected_components(pop.edges()) {
                if comp.len() == 1 {
                    continue;
                }
                let leaders = comp
                    .iter()
                    .filter(|&&u| st.is_leader(*pop.state(u)))
                    .count();
                prop_assert!(leaders >= 1, "component without a leader");
            }
        }
    }

    /// Global-Star: once the centre count reaches 1 it stays 1, sampled
    /// along random executions.
    #[test]
    fn star_centre_monotone(n in 3usize..32, seed in any::<u64>()) {
        let mut sim = Simulation::new(global_star::protocol(), n, seed);
        let mut last = n;
        for _ in 0..20 {
            sim.run_for(100);
            let now = sim
                .population()
                .count_where(|s| *s == global_star::C);
            prop_assert!(now <= last && now >= 1);
            last = now;
        }
    }

    /// The doubling protocol never over-recruits, for random d and n.
    #[test]
    fn doubling_never_exceeds_target(d in 1u16..4, extra in 0usize..6, seed in any::<u64>()) {
        let n = (1usize << d) + 1 + extra;
        let pop = doubling::initial_population(n, d);
        let mut sim = Simulation::from_population(doubling::protocol(d), pop, seed);
        for _ in 0..20 {
            sim.run_for(200);
            prop_assert!(sim.population().edges().degree(0) as usize <= 1 << d);
        }
    }
}

#[test]
fn stability_predicates_reject_initial_configurations() {
    // No constructor may report the all-inactive initial configuration as
    // stable (n is chosen large enough that the empty graph is not the
    // target).
    let n = 8;
    assert!(!simple_global_line::is_stable(&Population::new(
        n,
        simple_global_line::Q0
    )));
    assert!(!fast_global_line::is_stable(&Population::new(
        n,
        fast_global_line::Q0
    )));
    assert!(!faster_global_line::is_stable(&Population::new(
        n,
        faster_global_line::Q0
    )));
    assert!(!global_star::is_stable(&Population::new(n, global_star::C)));
    assert!(!global_ring::is_stable(&Population::new(
        n,
        global_ring::Q0
    )));
    assert!(!cycle_cover::is_stable(&Population::new(
        n,
        cycle_cover::Q0
    )));
    let krc_init: Population<StateId> = Population::new(n, krc::States { k: 2 }.q(0));
    assert!(!krc::is_stable(&krc_init, 2));
}

#[test]
fn all_catalog_protocols_have_effective_initial_rules() {
    // From the uniform initial configuration, some pair must be able to
    // make progress (otherwise the protocol is trivially stuck).
    for e in catalog::table2() {
        if e.name == "Graph-Replication" {
            continue; // needs its two-sided initial configuration
        }
        let q0 = e.protocol.initial_state();
        assert!(
            e.protocol.can_affect(&q0, &q0, netcon_core::Link::Off),
            "{} cannot start from the initial configuration",
            e.name
        );
    }
}
