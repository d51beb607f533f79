//! Fast-vs-naive engine comparison: the measurement behind the
//! head-to-head sections of the perf record (`crate::sections`).

use std::time::Instant;

use netcon_core::seeds::derive2;
use netcon_core::{
    BucketSim, Driver, EventSim, Population, RoundSim, RuleProtocol, ShuffledRounds, Simulation,
    SparsePop, StateId,
};

/// Per-engine aggregates over a trial set.
#[derive(Debug, Clone, Copy)]
pub struct EngineStats {
    /// Trials run.
    pub trials: usize,
    /// Mean `converged_at` (the paper's sequential running time).
    pub mean_converged: f64,
    /// Sample variance of `converged_at`.
    pub var_converged: f64,
    /// Mean total steps at detection.
    pub mean_steps: f64,
    /// Mean effective interactions at detection.
    pub mean_effective: f64,
    /// Wall-clock for the whole trial set, seconds.
    pub wall_s: f64,
}

/// The head-to-head record for one protocol and population size.
#[derive(Debug, Clone, Copy)]
pub struct Comparison {
    /// Population size.
    pub n: usize,
    /// Event-driven engine aggregates.
    pub event: EngineStats,
    /// Naive engine aggregates (usually over a prefix of the same seeds —
    /// the naive loop is the reason this module exists).
    pub naive: EngineStats,
    /// Per-trial mean wall-clock ratio: naive / event.
    pub speedup: f64,
    /// `|mean_e − mean_n| / mean_n` on `converged_at`.
    pub mean_rel_diff: f64,
}

/// One trial's `(converged_at, steps, effective_steps)`.
type Sample = (f64, f64, f64);

fn stats_of(samples: &[Sample], wall_s: f64) -> EngineStats {
    let trials = samples.len();
    let tf = trials as f64;
    let mean = |i: usize| -> f64 { samples.iter().map(|s| [s.0, s.1, s.2][i]).sum::<f64>() / tf };
    let mean_converged = mean(0);
    let var_converged = if trials > 1 {
        samples
            .iter()
            .map(|s| (s.0 - mean_converged).powi(2))
            .sum::<f64>()
            / (tf - 1.0)
    } else {
        0.0
    };
    EngineStats {
        trials,
        mean_converged,
        var_converged,
        mean_steps: mean(1),
        mean_effective: mean(2),
        wall_s,
    }
}

/// Runs `trials` trials, timing the whole set: `trial(t)` runs trial
/// `t` and returns its `(converged_at, steps, effective_steps)`.
fn timed(trials: usize, trial: impl FnMut(usize) -> Sample) -> (Vec<Sample>, EngineStats) {
    let t0 = Instant::now();
    let samples: Vec<_> = (0..trials).map(trial).collect();
    let stats = stats_of(&samples, t0.elapsed().as_secs_f64());
    (samples, stats)
}

/// Runs `$sim` to `$stable` and samples its counters, as [`timed`] wants.
macro_rules! sample {
    ($sim:ident, $stable:expr) => {{
        let out = $sim.run_until($stable, u64::MAX);
        let converged = out.converged_at().expect("stabilizes") as f64;
        (
            converged,
            $sim.steps() as f64,
            $sim.effective_steps() as f64,
        )
    }};
}

/// Runs `event_trials` event-driven and `naive_trials` naive executions of
/// `protocol` to `stable` on `n` nodes, sharing the seed stream
/// (`derive2(base_seed, n, trial)`), and reports the head-to-head record.
///
/// # Panics
///
/// Panics if any trial fails to stabilize (the line constructors converge
/// with probability 1).
#[must_use]
pub fn compare_engines(
    protocol: &RuleProtocol,
    stable: fn(&Population<StateId>) -> bool,
    n: usize,
    event_trials: usize,
    naive_trials: usize,
    base_seed: u64,
) -> Comparison {
    let compiled = protocol.compile();
    let seed = |t: usize| derive2(base_seed, n as u64, t as u64);
    let (_, event) = timed(event_trials, |t| {
        let mut sim = EventSim::new(compiled.clone(), n, seed(t));
        sample!(sim, stable)
    });
    let (_, naive) = timed(naive_trials, |t| {
        let mut sim = Simulation::new(protocol.clone(), n, seed(t));
        sample!(sim, stable)
    });

    Comparison {
        n,
        speedup: (naive.wall_s / naive.trials as f64) / (event.wall_s / event.trials as f64),
        mean_rel_diff: (event.mean_converged - naive.mean_converged).abs() / naive.mean_converged,
        event,
        naive,
    }
}

/// The ShuffledRounds head-to-head record for one protocol and size:
/// the event-driven [`RoundSim`] against the naive round-playing loop,
/// with convergence read in draws *and* rounds.
#[derive(Debug, Clone, Copy)]
pub struct RoundComparison {
    /// Population size.
    pub n: usize,
    /// Event-driven round engine aggregates.
    pub round: EngineStats,
    /// Mean rounds to converge on the round engine.
    pub round_mean_rounds: f64,
    /// Naive ShuffledRounds aggregates.
    pub naive: EngineStats,
    /// Mean rounds to converge on the naive loop.
    pub naive_mean_rounds: f64,
    /// Per-trial mean wall-clock ratio: naive / round.
    pub speedup: f64,
}

/// Runs `round_trials` [`RoundSim`] and `naive_trials` naive
/// ShuffledRounds executions of `protocol` to `stable` on `n` nodes,
/// sharing the seed stream (`derive2(base_seed, n, trial)`), and reports
/// the head-to-head record — the ShuffledRounds counterpart of
/// [`compare_engines`].
///
/// # Panics
///
/// Panics if any trial fails to stabilize.
#[must_use]
pub fn compare_round_engines(
    protocol: &RuleProtocol,
    stable: fn(&Population<StateId>) -> bool,
    n: usize,
    round_trials: usize,
    naive_trials: usize,
    base_seed: u64,
) -> RoundComparison {
    let compiled = protocol.compile();
    let pairs_per_round = (n as u64) * (n as u64 - 1) / 2;
    let rounds_of = |converged: f64| (converged as u64).div_ceil(pairs_per_round) as f64;

    let mean_rounds = |samples: &[Sample]| {
        samples.iter().map(|s| rounds_of(s.0)).sum::<f64>() / samples.len() as f64
    };
    let seed = |t: usize| derive2(base_seed, n as u64, t as u64);
    let (round_samples, round) = timed(round_trials, |t| {
        let mut sim = RoundSim::new(compiled.clone(), n, seed(t));
        sample!(sim, stable)
    });
    let (naive_samples, naive) = timed(naive_trials, |t| {
        let mut sim =
            Simulation::with_scheduler(protocol.clone(), n, seed(t), ShuffledRounds::new());
        sample!(sim, stable)
    });

    RoundComparison {
        n,
        speedup: (naive.wall_s / naive.trials as f64) / (round.wall_s / round.trials as f64),
        round,
        round_mean_rounds: mean_rounds(&round_samples),
        naive,
        naive_mean_rounds: mean_rounds(&naive_samples),
    }
}

/// The sparse bucket engine's side of the record: per-trial aggregates
/// plus the engine's measured heap footprint
/// ([`BucketSim::approx_mem_bytes`]) after the last trial.
///
/// # Panics
///
/// Panics if any trial fails to stabilize.
#[must_use]
pub fn bucket_stats(
    protocol: &RuleProtocol,
    sparse_stable: fn(&SparsePop) -> bool,
    n: usize,
    trials: usize,
    base_seed: u64,
) -> (EngineStats, u64) {
    let compiled = protocol.compile();
    let mut mem = 0u64;
    let (_, stats) = timed(trials, |t| {
        let mut sim = BucketSim::new(compiled.clone(), n, derive2(base_seed, n as u64, t as u64));
        let sample = sample!(sim, sparse_stable);
        mem = sim.approx_mem_bytes();
        sample
    });
    (stats, mem)
}
