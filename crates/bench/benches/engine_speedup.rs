//! **Engine speedup** — the event-driven engine against the naive loop on
//! the spanning-line constructors, same seeds, release wall-clock.
//!
//! Two claims are checked and printed:
//!
//! 1. *Speed*: at n = 256, `EventSim` on Simple-Global-Line is orders of
//!    magnitude faster per trial than `Simulation` (the PR-2 acceptance
//!    bar is ≥ 50×) — the Θ(n⁴) running time is almost entirely skipped
//!    ineffective draws.
//! 2. *Exactness*: the two engines' mean `converged_at` agree within a
//!    few percent. The naive engine is too slow for a large trial count
//!    at n = 256, so the tight (≥ 100 ×100 trials) agreement check runs
//!    at n = 64 and the n = 256 check uses the naive trials available.
//!
//! The n = 256 pair is [`sections::engine_speedup`], the same rows the
//! perf record carries. `NETCON_BENCH_SCALE` (percent) shrinks trial
//! counts as usual; the naive n = 256 trials are capped separately
//! because each costs about a second.

use netcon_bench::harness::scale;
use netcon_bench::sections;
use netcon_bench::speedup::compare_engines;
use netcon_protocols::simple_global_line;

fn main() {
    println!("=== Engine speedup: EventSim vs Simulation (same seeds) ===\n");

    let report = |name: &str, c: &netcon_bench::speedup::Comparison| {
        println!("{name} @ n={}:", c.n);
        println!(
            "  event : {:>4} trials, mean converged_at {:>14.0}, mean effective {:>12.0} ({:.1}% of steps), {:>8.3} s total",
            c.event.trials,
            c.event.mean_converged,
            c.event.mean_effective,
            100.0 * c.event.mean_effective / c.event.mean_steps,
            c.event.wall_s
        );
        println!(
            "  naive : {:>4} trials, mean converged_at {:>14.0}, {:>8.3} s total",
            c.naive.trials, c.naive.mean_converged, c.naive.wall_s
        );
        println!(
            "  speedup {:>8.1}x   mean agreement {:>6.2}%\n",
            c.speedup,
            100.0 * c.mean_rel_diff
        );
    };

    // Tight agreement check: both engines at full trial count, n = 64.
    // converged_at is heavy-tailed (relative sd ≈ 70–100%), so the check
    // is a Welch z on the means, asserted only at meaningful trial counts.
    let trials = scale(600).max(8);
    let c64 = compare_engines(
        &simple_global_line::protocol(),
        simple_global_line::is_stable,
        64,
        trials,
        trials,
        9,
    );
    report("Simple-Global-Line", &c64);
    if trials >= 100 {
        let t = trials as f64;
        let z = (c64.event.mean_converged - c64.naive.mean_converged)
            / (c64.event.var_converged / t + c64.naive.var_converged / t).sqrt();
        assert!(
            z.abs() < 4.5,
            "engines disagree at n=64: {z:.1}σ (event {:.0} vs naive {:.0})",
            c64.event.mean_converged,
            c64.naive.mean_converged
        );
    }

    // Acceptance point: the record's n = 256 head-to-heads (≥ 100
    // event trials; naive trials capped, each ~10⁸ steps ≈ 1 s).
    let [(_, simple), (_, fast)] = sections::engine_speedup();
    report("Simple-Global-Line", &simple);
    assert!(
        simple.speedup >= 50.0,
        "event engine speedup {:.1}x below the 50x acceptance bar",
        simple.speedup
    );
    report("Fast-Global-Line", &fast);

    println!("(converged_at distributions are identical by construction; the");
    println!(" residual mean gaps above are sampling noise on the naive side —");
    println!(" the perf record's large_sample_agreement_n256 section holds the");
    println!(" large-sample agreement.)");
}
