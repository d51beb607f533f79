//! Integration: the Theorem 14 pipeline end-to-end — partition the
//! population, build the line, then run the universal constructor — plus
//! the TM-on-line layer against the reference interpreter.

use netcon::core::testing::{assert_stabilizes, step_budget};
use netcon::core::Simulation;
use netcon::graph::components::is_connected;
use netcon::graph::properties::is_spanning_line;
use netcon::tm::decider::{Connected, GraphLanguage};
use netcon::tm::machine::{Halt, Tape};
use netcon::tm::machines::parity_machine;
use netcon::universal::constructor::{drawn_graph, leader_of, UniversalConstructor};
use netcon::universal::line_tm::{head_of, oriented_line, LineTm, Mode};
use netcon::universal::partition::{ud_census, ud_is_stable, ud_protocol};

/// Phase 1 (Fig. 4, bottom): the population splits into matched U–D
/// halves; Phase 2: a line self-assembles on a set of |U| nodes; Phase 3:
/// from the canonical Fig. 4 layout the constructor draws and accepts a
/// connected graph. The paper composes these with always-on
/// reinitialization; here each phase runs to stabilization first (see
/// DESIGN.md §6).
#[test]
fn theorem_14_pipeline() {
    let n = 12;
    let m = n / 2;

    // Phase 1: U–D partition.
    let sim = assert_stabilizes(ud_protocol(), n, 3, ud_is_stable, step_budget(n), 10_000);
    let census = ud_census(sim.population());
    assert_eq!(census.u, m);
    assert_eq!(census.d, m);
    assert!(census.matching_ok);

    // Phase 2: spanning line on the U half.
    let sim = assert_stabilizes(
        netcon::protocols::simple_global_line::protocol(),
        m,
        3,
        netcon::protocols::simple_global_line::is_stable,
        step_budget(m),
        10_000,
    );
    assert!(is_spanning_line(sim.population().edges()));

    // Phase 3: the constructor proper on the canonical layout.
    let pop = UniversalConstructor::initial_population(m);
    let mut sim =
        Simulation::from_population(UniversalConstructor::new(Box::new(Connected)), pop, 3);
    let outcome = sim.run_until(netcon::universal::constructor::is_stable, step_budget(m));
    assert!(outcome.stabilized());
    let g = drawn_graph(sim.population());
    assert!(Connected.accepts(&netcon::graph::matrix::AdjMatrix::from(&g)));
    assert!(is_connected(&g));
    let leader = leader_of(sim.population()).expect("leader");
    assert_eq!(leader.m as usize, m, "the waste learned its own size");
}

/// The TM layer: the population-line simulation agrees with the direct
/// interpreter on inputs driven through the public facade.
#[test]
fn line_tm_agrees_with_interpreter() {
    let tm = parity_machine();
    for bits in [vec![true, true, false], vec![true, false, false], vec![]] {
        let space = bits.len() + 2;
        let mut tape = Tape::from_bits(&bits, space);
        let want = tm.run(&mut tape, 1 << 20);

        let pop = oriented_line(&tm, &bits, space);
        let mut sim = Simulation::from_population(LineTm::new(tm.clone()), pop, 17);
        let halted = |p: &netcon::core::Population<netcon::universal::line_tm::NodeState>| {
            p.states().iter().any(|s| {
                s.head
                    .is_some_and(|h| matches!(h.mode, Mode::Accepted | Mode::Rejected))
            })
        };
        assert!(sim.run_until(halted, step_budget(space)).stabilized());
        let (_, head) = head_of(sim.population());
        let agrees = matches!(
            (want, head.mode),
            (Halt::Accept, Mode::Accepted) | (Halt::Reject, Mode::Rejected)
        );
        assert!(agrees, "bits {bits:?}: {want:?} vs {:?}", head.mode);
    }
}

/// The decider library and the universal constructor agree: whatever the
/// constructor outputs is in the language (checked independently).
#[test]
fn constructor_output_is_in_language() {
    for seed in 0..3 {
        let pop = UniversalConstructor::initial_population(4);
        let mut sim =
            Simulation::from_population(UniversalConstructor::new(Box::new(Connected)), pop, seed);
        assert!(sim
            .run_until(netcon::universal::constructor::is_stable, step_budget(4))
            .stabilized());
        let g = drawn_graph(sim.population());
        assert!(Connected.accepts(&netcon::graph::matrix::AdjMatrix::from(&g)));
    }
}
