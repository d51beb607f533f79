//! Graph-Replication (Protocol 9): copy an input graph, living on half
//! the population, onto the other half — with no waste.
//!
//! ```sh
//! cargo run --release --example replicate_graph
//! ```

use netcon::core::Simulation;
use netcon::graph::iso::are_isomorphic;
use netcon::graph::EdgeSet;
use netcon::protocols::replication;

fn main() {
    // The input G1: a 6-node wheel-ish graph on V1.
    let g1 = EdgeSet::from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 3)]);
    println!("input G1: {} nodes, {} edges", g1.n(), g1.active_count());

    // V2 gets two spare nodes; they must remain untouched.
    let pop = replication::initial_population(&g1, 8);
    let mut sim = Simulation::from_population(replication::protocol(), pop, 99);
    let outcome = sim.run_until(replication::is_stable, u64::MAX);
    println!(
        "stabilized after {} interactions (Θ(n⁴ log n) expected)",
        outcome.converged_at().expect("replication stabilizes")
    );

    let replica = replication::replica(sim.population());
    println!(
        "replica:  {} nodes, {} edges",
        replica.n(),
        replica.active_count()
    );
    println!("isomorphic to G1: {}", are_isomorphic(&replica, &g1));
    let spares = sim.population().count_where(|s| *s == replication::R0);
    println!("spare V2 nodes left untouched: {spares}");
}
