//! **Perturbation frontier** — self-repair sweeps over the fault layer:
//! stabilize, injure with a seeded burst, and measure the steps back to
//! stability (`netcon_analysis::repair`).
//!
//! Two workloads, chosen for opposite honesty
//! ([`sections::perturbation_frontier`]; this prints the rows the perf
//! record carries):
//!
//! 1. *Maximum-Matching* under a mixed `1,1,1` burst — the matching
//!    process reconverges under **any** mix of damage (widowed partners
//!    are terminal, fresh nodes pair up).
//! 2. *Global-Star* under fixed spoke deletions (`0,0,2`) — the paper's
//!    introduction protocol genuinely self-repairs this damage
//!    (`(c, p, 0) → (c, p, 1)` re-fires per orphaned peripheral), giving
//!    a positive repair-time curve with a physical meaning.
//!
//! Trial counts ride `NETCON_BENCH_SCALE` like every other target.

use netcon_bench::sections;

fn main() {
    println!("=== Perturbation frontier: repair-time sweeps over the fault layer ===\n");
    let sweeps = sections::perturbation_frontier();
    println!("{}\n", sections::repair_json(&sweeps).render(0));
    // The star must actually repair: two deleted spokes re-fire at least
    // two attachment rules, so every trial's repair time is positive.
    let [_, star] = &sweeps;
    for row in &star.table.rows {
        assert!(
            row.samples.iter().all(|&r| r > 0.0),
            "global-star must regrow deleted spokes (n={})",
            row.n
        );
    }
    println!("star spoke-regrowth positive on every trial — self-repair confirmed");
}
