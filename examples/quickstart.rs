//! Quickstart: self-assemble a spanning star with the 2-state
//! Global-Star protocol (Protocol 4 of the paper).
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use netcon::core::Simulation;
use netcon::graph::properties::is_spanning_star;
use netcon::protocols::global_star;

fn main() {
    let n = 64;
    let seed = 7;
    let protocol = global_star::protocol();
    println!(
        "protocol: Global-Star ({} states, {} rules)",
        protocol.size(),
        protocol.rules().len()
    );

    let mut sim = Simulation::new(protocol, n, seed);
    let outcome = sim.run_until(global_star::is_stable, 100_000_000);

    let converged = outcome
        .converged_at()
        .expect("Global-Star always stabilizes");
    println!("population:  n = {n}, seed = {seed}");
    println!("converged:   {converged} interactions (sequential time)");
    println!(
        "normalized:  {:.2} × n² ln n   (Theorem 7: Θ(n² log n) expected)",
        converged as f64 / (n as f64 * n as f64 * (n as f64).ln())
    );
    println!(
        "output:      spanning star = {}",
        is_spanning_star(sim.population().edges())
    );
    let centre = sim.population().nodes_where(|s| *s == global_star::C);
    println!(
        "centre node: {:?} (degree {})",
        centre,
        sim.population().edges().degree(centre[0])
    );
}
