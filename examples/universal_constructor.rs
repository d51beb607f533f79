//! The universal constructor of Theorem 14 (Fig. 3): half the population
//! organizes as a line-of-waste that repeatedly draws a random graph on
//! the other half and keeps it exactly when it belongs to the target
//! language.
//!
//! ```sh
//! cargo run --release --example universal_constructor
//! ```

use netcon::core::Simulation;
use netcon::graph::components::is_connected;
use netcon::tm::decider::{GraphLanguage, MinEdges};
use netcon::universal::constructor::{drawn_graph, is_stable, leader_of, UniversalConstructor};

fn main() {
    // Target language: connected AND at least 40% of all possible edges —
    // dense enough that G(m, 1/2) draws get rejected visibly often.
    struct DenseConnected(MinEdges);
    impl GraphLanguage for DenseConnected {
        fn name(&self) -> &str {
            "connected-and-dense"
        }
        fn space_bound_bits(&self, n: usize) -> usize {
            netcon::tm::decider::Connected.space_bound_bits(n) + self.0.space_bound_bits(n)
        }
        fn accepts(&self, g: &netcon::graph::matrix::AdjMatrix) -> bool {
            netcon::tm::decider::Connected.accepts(g) && self.0.accepts(g)
        }
    }

    let m = 6; // useful space: 6 nodes; waste: a 6-node line
    let lang = DenseConnected(MinEdges::new("dense-40", |n| n * (n - 1) * 2 / 10));
    println!("language: {}", lang.name());
    println!("population: {} nodes ({m} useful + {m} waste)\n", 2 * m);

    let pop = UniversalConstructor::initial_population(m);
    let mut sim = Simulation::from_population(UniversalConstructor::new(Box::new(lang)), pop, 5);
    let outcome = sim.run_until(is_stable, u64::MAX);

    let leader = leader_of(sim.population()).expect("leader exists");
    println!(
        "stabilized after {} interactions",
        outcome.converged_at().expect("constructor stabilizes")
    );
    println!(
        "rejected draws before the accepted one: {}",
        leader.rejections
    );

    let g = drawn_graph(sim.population());
    println!(
        "output graph: {} nodes, {} edges, connected = {}",
        g.n(),
        g.active_count(),
        is_connected(&g)
    );
    for (u, v) in g.active_edges() {
        print!("({u},{v}) ");
    }
    println!();
}
