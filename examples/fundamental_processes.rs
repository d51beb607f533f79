//! The seven fundamental probabilistic processes of §3.3 (Table 1), run
//! live: measured convergence against the proven Θ bounds.
//!
//! ```sh
//! cargo run --release --example fundamental_processes
//! ```

use netcon::analysis::stats::Summary;
use netcon::analysis::table::TextTable;
use netcon::processes::Process;

fn main() {
    let n = 96;
    let trials = 10;
    println!("n = {n}, {trials} trials per process\n");
    let mut t = TextTable::new(&["process", "theory", "mean steps", "95% CI", "steps / n²"]);
    for p in Process::all() {
        let samples: Vec<f64> = (0..trials).map(|s| p.measure(n, s) as f64).collect();
        let s = Summary::of(&samples);
        t.row(&[
            p.name(),
            p.theory(),
            &format!("{:.0}", s.mean),
            &format!("±{:.0}", s.ci95()),
            &format!("{:.3}", s.mean / (n * n) as f64),
        ]);
    }
    println!("{}", t.render());
    println!("Θ(n log n) rows sit far below 1.0 in the last column; the");
    println!("Θ(n²)/Θ(n² log n) rows sit near or above it — Table 1's ordering.");
}
