//! Race the paper's three spanning-line constructors (Protocols 1, 2 and
//! 10) across a ladder of population sizes — the §7 open question "is
//! Faster-Global-Line asymptotically faster?" made executable.
//!
//! ```sh
//! cargo run --release --example line_race
//! ```

use netcon::analysis::stats::Summary;
use netcon::analysis::table::TextTable;
use netcon::core::{Population, RuleProtocol, Simulation, StateId};
use netcon::protocols::{fast_global_line, faster_global_line, simple_global_line};

fn mean_steps(
    protocol: &RuleProtocol,
    stable: fn(&Population<StateId>) -> bool,
    n: usize,
    trials: u64,
) -> Summary {
    let samples: Vec<f64> = (0..trials)
        .map(|seed| {
            let mut sim = Simulation::new(protocol.clone(), n, seed);
            sim.run_until(stable, u64::MAX)
                .converged_at()
                .expect("line protocols stabilize") as f64
        })
        .collect();
    Summary::of(&samples)
}

type Entry = (&'static str, RuleProtocol, fn(&Population<StateId>) -> bool);

fn main() {
    let entries: [Entry; 3] = [
        (
            "Simple (5 states)",
            simple_global_line::protocol(),
            simple_global_line::is_stable,
        ),
        (
            "Fast (9 states)",
            fast_global_line::protocol(),
            fast_global_line::is_stable,
        ),
        (
            "Faster (6 states)",
            faster_global_line::protocol(),
            faster_global_line::is_stable,
        ),
    ];
    let trials = 10;
    println!("mean interactions to a stable spanning line ({trials} trials)\n");
    let mut t = TextTable::new(&[
        "n",
        "Simple-Global-Line",
        "Fast-Global-Line",
        "Faster-Global-Line",
    ]);
    for n in [8usize, 12, 16, 24, 32] {
        let mut row = vec![n.to_string()];
        for (_, p, stable) in &entries {
            let s = mean_steps(p, *stable, n, trials);
            row.push(format!("{:>9.0} ±{:>6.0}", s.mean, s.ci95()));
        }
        let cells: Vec<&str> = row.iter().map(String::as_str).collect();
        t.row(&cells);
    }
    println!("{}", t.render());
    println!("Theory: Simple is Ω(n⁴)/O(n⁵), Fast is O(n³); the paper conjectures");
    println!("Faster improves on Fast (open). The Table 2 bench fits the exponents.");
}
