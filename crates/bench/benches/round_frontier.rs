//! **Round frontier** — parallel time in ShuffledRounds rounds at sizes
//! the naive round-player cannot touch.
//!
//! The polylogarithmic-parallel-time line of work (Connor, Michail &
//! Spirakis, arXiv:2007.00625) measures constructors in *rounds* of a
//! box schedule rather than sequential draws. The naive loop pays
//! Θ(n²) per round (the shuffle alone), so round-denominated sweeps were
//! stuck at small n; [`RoundSim`](netcon_core::RoundSim) runs the same
//! distribution at event-driven cost. This bench:
//!
//! 1. cross-checks the scheduler-aware selector
//!    ([`Engine::auto_for`](netcon_core::Engine::auto_for)) against the
//!    round engine's memory estimate,
//! 2. head-to-heads `RoundSim` against the naive ShuffledRounds loop on
//!    Simple-Global-Line (mean rounds must agree — the exactness smoke
//!    check riding every CI bench run),
//! 3. drives a rounds-to-converge ladder via the
//!    `netcon_analysis::sweep::sweep_rounds_to_converge` fast path and
//!    fits the rounds-vs-n power law,
//! 4. prints the perf record's `RoundSim` ladder at n ∈ {256, 512, 1024}
//!    ([`sections::round_frontier`]),
//! 5. runs a round-denominated sweep at n = 100 000 on the sparse round
//!    engine ([`RoundBucketSim`](netcon_core::RoundBucketSim)) through
//!    the view-predicate path — the size the dense engine's 13n² bytes
//!    can never touch.
//!
//! `NETCON_BENCH_SCALE` (percent) scales trial counts as usual.

use std::time::Instant;

use netcon_analysis::sweep::{
    sweep_rounds_to_converge, sweep_rounds_to_converge_view, SweepConfig,
};
use netcon_analysis::table::TextTable;
use netcon_bench::harness::{fits, fmt_fit, scale, sweep_rows};
use netcon_bench::sections;
use netcon_bench::speedup::compare_round_engines;
use netcon_core::{CompiledTable, Engine, EnumerableMachine, RoundSim, SchedulerKind};
use netcon_protocols::{cycle_cover, simple_global_line};

fn main() {
    println!("=== Round frontier: event-driven ShuffledRounds (RoundSim) ===\n");

    // Selector cross-check: ShuffledRounds routes to the round engine
    // exactly when its (≈ 3× dense) estimate fits the budget.
    let n0 = 256;
    let eng = Engine::auto_for(
        simple_global_line::protocol().compile(),
        n0,
        1,
        SchedulerKind::ShuffledRounds,
    );
    let round_fits = RoundSim::<CompiledTable>::dense_mem_estimate(n0)
        <= Engine::<CompiledTable>::default_budget();
    assert_eq!(
        eng.kind() == "round-dense",
        round_fits,
        "selector disagrees with the round-engine budget"
    );
    println!(
        "Engine::auto_for(n = {n0}, ShuffledRounds) -> {}",
        eng.kind()
    );
    drop(eng);

    // And the sparse side of the same cross-check: beyond the dense
    // round-engine budget the selector must pick the sparse round
    // engine, never a fallback loop. A budget of one byte forces it at
    // any n; a frontier n forces it under the default budget.
    let eng = Engine::with_budget_for(
        simple_global_line::protocol().compile(),
        n0,
        1,
        1,
        SchedulerKind::ShuffledRounds,
    );
    assert_eq!(eng.kind(), "round-sparse", "tiny budget must go sparse");
    drop(eng);
    let n_big = 100_000;
    let eng = Engine::auto_for(
        simple_global_line::protocol().compile(),
        n_big,
        1,
        SchedulerKind::ShuffledRounds,
    );
    assert!(
        RoundSim::<CompiledTable>::dense_mem_estimate(n_big)
            > Engine::<CompiledTable>::default_budget(),
        "n = {n_big} should be beyond the dense round budget"
    );
    assert_eq!(eng.kind(), "round-sparse", "frontier n must go sparse");
    println!(
        "Engine::auto_for(n = {n_big}, ShuffledRounds) -> {}\n",
        eng.kind()
    );
    drop(eng);

    // Head-to-head on Simple-Global-Line at n = 64: RoundSim vs the
    // naive round-player, mean rounds-to-converge per engine. The means
    // must agree (the engines are distribution-identical); the wall gap
    // is the point of the engine.
    let c = compare_round_engines(
        &simple_global_line::protocol(),
        simple_global_line::is_stable,
        64,
        scale(20).max(2),
        scale(4).clamp(2, 8),
        7,
    );
    let mut t = TextTable::new(&["engine", "trials", "mean rounds", "wall/trial"]);
    for (engine, stats, rounds) in [
        ("RoundSim", c.round, c.round_mean_rounds),
        ("naive ShuffledRounds", c.naive, c.naive_mean_rounds),
    ] {
        t.row(&[
            engine,
            &stats.trials.to_string(),
            &format!("{rounds:.1}"),
            &format!("{:.4}s", stats.wall_s / stats.trials as f64),
        ]);
    }
    println!(
        "--- Simple-Global-Line n = 64: RoundSim vs naive ({:.0}x/trial) ---",
        c.speedup
    );
    println!("{}", t.render());
    let (round_rounds, naive_rounds) = (c.round_mean_rounds, c.naive_mean_rounds);
    let rel = (round_rounds - naive_rounds).abs() / naive_rounds.max(1.0);
    assert!(
        rel < 0.5,
        "mean rounds diverge: round {round_rounds:.1} vs naive {naive_rounds:.1} \
         ({rel:.2} relative at {}/{} trials)",
        c.round.trials,
        c.naive.trials
    );

    // Rounds-to-converge ladder on the analysis fast path.
    for (name, protocol, stable) in [
        (
            "Simple-Global-Line (Protocol 1)",
            simple_global_line::protocol(),
            simple_global_line::is_stable as fn(&_) -> bool,
        ),
        (
            "Cycle-Cover (Protocol 3)",
            cycle_cover::protocol(),
            cycle_cover::is_stable as fn(&_) -> bool,
        ),
    ] {
        let cfg = SweepConfig {
            sizes: vec![16, 24, 32, 48],
            trials: scale(30).max(3),
            base_seed: 2007,
        };
        let table = sweep_rounds_to_converge(&cfg, &protocol, stable, u64::MAX);
        let (fit, fit_log) = fits(&table);
        let mut t = TextTable::new(&["n", "mean rounds", "95% CI", "rounds/n²"]);
        for row in sweep_rows(&table) {
            t.row(&row.iter().map(String::as_str).collect::<Vec<_>>());
        }
        println!("--- {name}: rounds to converge ---");
        println!("{}", t.render());
        println!(
            "fitted rounds exponent: {} (log-corrected {})\n",
            fmt_fit(&fit),
            fmt_fit(&fit_log)
        );
    }

    // The record's RoundSim ladder at sizes the naive round-player
    // would take hours on.
    let ladder = sections::round_frontier();
    println!("{}\n", sections::round_frontier_json(&ladder).render(0));

    // Frontier round sweep: n = 100 000 on the sparse round engine via
    // the view-predicate path (a dense predicate would materialize a
    // Θ(n²) Population per stability check). Maximum matching finishes
    // within round 1 almost surely under any box schedule, so the
    // measurement doubles as an exactness assertion at frontier scale.
    let matching = sections::matching();
    let compiled = matching.compile();
    let ai = compiled.state_index(&compiled.state("a").expect("matching has state a"));
    let n_big = 100_000;
    let trials = scale(4).max(1);
    let cfg = SweepConfig {
        sizes: vec![n_big],
        trials,
        base_seed: 606,
    };
    let t0 = Instant::now();
    let table =
        sweep_rounds_to_converge_view(&cfg, &matching, |v| v.count_index(ai) <= 1, u64::MAX);
    let wall = t0.elapsed().as_secs_f64();
    assert!(
        table.rows[0].samples.iter().all(|&x| x == 1.0),
        "matching must finish in round 1 at n = {n_big}: {:?}",
        table.rows[0].samples
    );
    println!("--- Maximum-matching at n = {n_big}: sparse round engine ---");
    println!(
        "{trials} trial(s), all converged in round 1, {:.3}s/trial\n",
        wall / trials as f64
    );

    println!("round-denominated sweeps now run at event-driven cost;");
    println!("the naive loop pays Θ(n²) per round for the shuffle alone,");
    println!("and the sparse round engine lifts the 13n²-byte ceiling.");
}
