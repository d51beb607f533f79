//! **Ablation** — scheduler sensitivity: the paper analyses expected time
//! under the uniform random scheduler only; correctness merely needs
//! fairness. This bench measures the same constructors under the
//! round-robin and shuffled-rounds fair schedulers to quantify how much
//! of the running time is coupon-collector slack that a "box" schedule
//! removes.

use netcon_analysis::stats::Summary;
use netcon_analysis::table::TextTable;
use netcon_bench::harness::scale;
use netcon_core::{
    Population, RoundRobin, RuleProtocol, Scheduler, ShuffledRounds, Simulation, StateId, Uniform,
};
use netcon_protocols::{cycle_cover, fast_global_line, global_star, spanning_net};

fn measure<S: Scheduler>(
    protocol: &RuleProtocol,
    stable: fn(&Population<StateId>) -> bool,
    n: usize,
    seed: u64,
    sched: S,
) -> f64 {
    let mut sim = Simulation::with_scheduler(protocol.clone(), n, seed, sched);
    sim.run_until(stable, u64::MAX)
        .converged_at()
        .expect("constructors stabilize under fair schedulers") as f64
}

type Entry = (&'static str, RuleProtocol, fn(&Population<StateId>) -> bool);

fn main() {
    let n = 48;
    let trials = scale(10) as u64;
    println!("=== Ablation: scheduler sensitivity (n = {n}, {trials} trials) ===\n");
    let entries: [Entry; 4] = [
        (
            "Global-Star",
            global_star::protocol(),
            global_star::is_stable,
        ),
        (
            "Cycle-Cover",
            cycle_cover::protocol(),
            cycle_cover::is_stable,
        ),
        (
            "Fast-Global-Line",
            fast_global_line::protocol(),
            fast_global_line::is_stable,
        ),
        (
            "Spanning-Net",
            spanning_net::protocol(),
            spanning_net::is_stable,
        ),
    ];
    let mut t = TextTable::new(&[
        "protocol",
        "uniform",
        "shuffled-rounds",
        "round-robin",
        "uniform/shuffled",
    ]);
    for (name, p, stable) in &entries {
        let mean = |f: &dyn Fn(u64) -> f64| {
            let xs: Vec<f64> = (0..trials).map(f).collect();
            Summary::of(&xs).mean
        };
        let uni = mean(&|s| measure(p, *stable, n, s, Uniform));
        let shuf = mean(&|s| measure(p, *stable, n, s, ShuffledRounds::new()));
        let rr = mean(&|s| measure(p, *stable, n, s, RoundRobin::new()));
        t.row(&[
            name,
            &format!("{uni:.0}"),
            &format!("{shuf:.0}"),
            &format!("{rr:.0}"),
            &format!("{:.2}", uni / shuf),
        ]);
    }
    println!("{}", t.render());
    println!("box schedules (every pair once per round) remove the uniform");
    println!("scheduler's coupon-collector tail; the ratio quantifies it.");
}
