//! **Churn frontier** — availability sweeps over the continuous-churn
//! layer: compile a seeded Poisson arrival/departure stream
//! ([`ChurnPlan`](netcon_core::ChurnPlan)) and measure the fraction of
//! draws on which the constructor's output was stable
//! (`netcon_analysis::availability`).
//!
//! Two workloads, the fault-tolerant constructors of arXiv 1903.05992
//! ([`sections::churn_frontier`]; this prints the rows the perf record
//! carries):
//!
//! 1. *FT-Global-Star* — crash notifications re-mint peripherals as
//!    centre candidates, so the star re-elects through **any** crash
//!    pattern; at gentle rates it is mostly up, giving a high-availability
//!    reference curve.
//! 2. *FT-Spanning-Line* — the restart/waste wave dissolves damaged
//!    fragments back to `q0` before rebuilding, so each crash costs a
//!    full reconstruction; its lower availability at the same rates is
//!    the measured price of the waste-based repair.
//!
//! Trial counts ride `NETCON_BENCH_SCALE` like every other target.

use netcon_bench::sections;

fn main() {
    println!("=== Churn frontier: availability under sustained Poisson churn ===\n");
    let sweeps = sections::churn_frontier();
    println!("{}\n", sections::churn_json(&sweeps).render(0));
    for s in &sweeps {
        for row in &s.table.rows {
            let bad = row.samples.iter().find(|f| !(0.0..=1.0).contains(*f));
            assert!(bad.is_none(), "{} n={}: fraction {bad:?}", s.key, row.n);
        }
    }

    // The star's notified re-election must beat the line's restart wave
    // at every common scale — that ordering is the section's physical
    // claim, so the bench enforces it on the means.
    let [star, line] = &sweeps;
    let star_mean = star.table.rows[0].summary.mean;
    let line_mean = line.table.rows.last().expect("line rows").summary.mean;
    assert!(
        star_mean >= line_mean,
        "FT-star (n=16 mean {star_mean:.3}) should be at least as available as \
         FT-line (n=14 mean {line_mean:.3}) at the same rates"
    );
    println!("star re-election at least as available as line restart wave — ordering confirmed");
}
