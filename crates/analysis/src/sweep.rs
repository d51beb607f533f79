//! Parallel trial sweeps over a ladder of population sizes.

use netcon_core::{
    CompiledTable, Engine, EngineView, Machine, Population, RuleProtocol, SchedulerKind, StateId,
};

use crate::stats::Summary;

/// Configuration of a sweep.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// Population sizes to measure.
    pub sizes: Vec<usize>,
    /// Trials per size.
    pub trials: usize,
    /// Base seed; trial `t` of size `n` uses a seed derived from
    /// `(base_seed, n, t)` so sweeps are reproducible.
    pub base_seed: u64,
}

/// Measurements for one population size.
#[derive(Debug, Clone)]
pub struct SizeResult {
    /// The population size.
    pub n: usize,
    /// Raw per-trial measurements.
    pub samples: Vec<f64>,
    /// Summary statistics of `samples`.
    pub summary: Summary,
}

/// The result of a sweep: one [`SizeResult`] per configured size.
#[derive(Debug, Clone)]
pub struct SweepTable {
    /// Results in the order of `SweepConfig::sizes`.
    pub rows: Vec<SizeResult>,
}

impl SweepTable {
    /// `(n, mean)` pairs for fitting.
    #[must_use]
    pub fn points(&self) -> Vec<(f64, f64)> {
        self.rows
            .iter()
            .map(|r| (r.n as f64, r.summary.mean))
            .collect()
    }
}

/// The canonical two-coordinate seed derivation from
/// [`netcon_core::seeds::derive2`], addressed by `(size, trial)`.
///
/// Until PR 2 this crate carried its own SplitMix64 variant; sweeps now
/// share the one derivation exported by the model crate. The documented
/// base-seed convention is therefore bumped: a sweep's per-trial seeds
/// changed once, and are stable again from here on.
fn derive_seed(base: u64, n: usize, trial: usize) -> u64 {
    netcon_core::seeds::derive2(base, n as u64, trial as u64)
}

/// Runs `workload(n, seed)` for every configured size and trial, spreading
/// trials over available CPU cores (scoped threads with an atomic
/// work-stealing counter). Returns the per-size summaries in configuration
/// order.
///
/// The workload must be deterministic given `(n, seed)` for the sweep to
/// be reproducible.
pub fn sweep<F>(cfg: &SweepConfig, workload: F) -> SweepTable
where
    F: Fn(usize, u64) -> f64 + Sync,
{
    // Flatten all (size, trial) jobs, run them on a simple work-stealing
    // index counter, then regroup.
    let jobs: Vec<(usize, usize)> = cfg
        .sizes
        .iter()
        .flat_map(|&n| (0..cfg.trials).map(move |t| (n, t)))
        .collect();
    let results = run_jobs(&jobs, |&(n, t)| {
        workload(n, derive_seed(cfg.base_seed, n, t))
    });

    let mut rows = Vec::with_capacity(cfg.sizes.len());
    for (i, &n) in cfg.sizes.iter().enumerate() {
        let samples: Vec<f64> = (0..cfg.trials)
            .map(|t| results[i * cfg.trials + t])
            .collect();
        let summary = Summary::of(&samples);
        rows.push(SizeResult {
            n,
            samples,
            summary,
        });
    }
    SweepTable { rows }
}

/// Sweeps a flat protocol's convergence time (`converged_at`, the paper's
/// sequential running time) on the **auto-selected event engine**: the
/// protocol is compiled once, each trial runs on
/// [`Engine::auto`](netcon_core::Engine::auto) — the dense event engine
/// within the memory budget, the sparse bucket engine beyond it — and
/// both arms' step counts are identical in distribution to the naive
/// loop at a fraction of the cost.
///
/// `stable` must certify output stability (as the per-protocol predicates
/// in `netcon-protocols` do). Trials that exhaust `max_steps` panic —
/// sweeps are measurements, and a censored sample would silently bias the
/// fit.
///
/// The dense predicate keeps this entry point source-compatible; when a
/// sweep size is large enough that the selector goes sparse, each
/// evaluation materializes a dense [`Population`] (Θ(n²)). Frontier-scale
/// sweeps should use [`sweep_converged_at_view`] with a sparse-clean
/// predicate instead.
///
/// # Panics
///
/// Panics if any trial fails to stabilize within `max_steps`.
pub fn sweep_converged_at<P>(
    cfg: &SweepConfig,
    protocol: &RuleProtocol,
    stable: P,
    max_steps: u64,
) -> SweepTable
where
    P: Fn(&Population<StateId>) -> bool + Sync,
{
    sweep_converged_at_view(
        cfg,
        protocol,
        |view| match view {
            EngineView::Dense { pop, .. } => stable(pop),
            sparse @ EngineView::Sparse { .. } => stable(&sparse.to_population()),
        },
        max_steps,
    )
}

/// [`sweep_converged_at`] with the predicate over the engine-selection
/// view, so sparse-clean predicates (e.g.
/// `simple_global_line::is_stable_view`) run at frontier sizes without
/// any Θ(n²) structure ever existing.
///
/// # Panics
///
/// Panics if any trial fails to stabilize within `max_steps`.
pub fn sweep_converged_at_view<P>(
    cfg: &SweepConfig,
    protocol: &RuleProtocol,
    stable: P,
    max_steps: u64,
) -> SweepTable
where
    P: Fn(&EngineView<'_, CompiledTable>) -> bool + Sync,
{
    let compiled = protocol.compile();
    let name = protocol.name().to_owned();
    sweep(cfg, |n, seed| {
        let mut eng = Engine::auto(compiled.clone(), n, seed);
        eng.run_until(|v| stable(v), max_steps)
            .converged_at()
            .unwrap_or_else(|| panic!("{name} did not stabilize on n={n} within {max_steps}"))
            as f64
    })
}

/// The number of ShuffledRounds rounds a single run needs to converge:
/// the smallest `ρ` such that the output graph never changes after round
/// `ρ` — the round-denominated (parallel-time) reading of the paper's
/// convergence time, measured on the **auto-selected round engine**
/// ([`Engine::auto_for`] with [`SchedulerKind::ShuffledRounds`]: the
/// event-driven [`netcon_core::RoundSim`] within the memory budget, the
/// sparse [`netcon_core::RoundBucketSim`] beyond it — identical
/// distribution either way).
///
/// `stable` must certify output stability, as the per-protocol
/// predicates in `netcon-protocols` do. When the selector goes sparse,
/// each evaluation of this dense predicate materializes a Θ(n²)
/// [`Population`]; frontier-scale round sweeps should use
/// [`rounds_to_converge_view`] with a sparse-clean predicate instead.
///
/// # Panics
///
/// Panics if the run fails to stabilize within `max_steps`.
#[must_use]
pub fn rounds_to_converge(
    protocol: &RuleProtocol,
    n: usize,
    seed: u64,
    stable: impl Fn(&Population<StateId>) -> bool,
    max_steps: u64,
) -> u64 {
    rounds_of_run(
        protocol.compile(),
        protocol.name(),
        n,
        seed,
        &stable,
        max_steps,
    )
}

/// [`rounds_to_converge`] with the predicate over the engine-selection
/// view, so sparse-clean predicates run at frontier sizes (the sparse
/// round engine holds O(n + |Q|²); nothing Θ(n²) ever exists).
///
/// # Panics
///
/// Panics if the run fails to stabilize within `max_steps`.
#[must_use]
pub fn rounds_to_converge_view(
    protocol: &RuleProtocol,
    n: usize,
    seed: u64,
    stable: impl Fn(&EngineView<'_, CompiledTable>) -> bool,
    max_steps: u64,
) -> u64 {
    rounds_of_run_view(
        protocol.compile(),
        protocol.name(),
        n,
        seed,
        &stable,
        max_steps,
    )
}

/// [`rounds_to_converge`] on an already-compiled table (so sweeps
/// compile once, not per trial), lowering the dense predicate onto the
/// view (Θ(n²) materialization per evaluation on the sparse arm).
fn rounds_of_run(
    compiled: CompiledTable,
    name: &str,
    n: usize,
    seed: u64,
    stable: &impl Fn(&Population<StateId>) -> bool,
    max_steps: u64,
) -> u64 {
    rounds_of_run_view(
        compiled,
        name,
        n,
        seed,
        &|view: &EngineView<'_, CompiledTable>| match view {
            EngineView::Dense { pop, .. } => stable(pop),
            sparse @ EngineView::Sparse { .. } => stable(&sparse.to_population()),
        },
        max_steps,
    )
}

/// The shared round-counting trial body: run the auto-selected round
/// engine to stability, convert `converged_at` to rounds.
fn rounds_of_run_view(
    compiled: CompiledTable,
    name: &str,
    n: usize,
    seed: u64,
    stable: &impl Fn(&EngineView<'_, CompiledTable>) -> bool,
    max_steps: u64,
) -> u64 {
    let mut eng = Engine::auto_for(compiled, n, seed, SchedulerKind::ShuffledRounds);
    let converged = eng
        .run_until(|view| stable(view), max_steps)
        .converged_at()
        .unwrap_or_else(|| panic!("{name} did not stabilize on n={n} within {max_steps}"));
    let pairs_per_round = (n as u64) * (n as u64 - 1) / 2;
    converged.div_ceil(pairs_per_round)
}

/// Sweeps a flat protocol's ShuffledRounds convergence time **in
/// rounds** over the configured sizes — the round-based fast path:
/// each trial runs [`rounds_to_converge`] on the auto-selected round
/// engine, at event-driven cost instead of Θ(n²) work per round.
///
/// # Panics
///
/// Panics if any trial fails to stabilize within `max_steps`.
pub fn sweep_rounds_to_converge<P>(
    cfg: &SweepConfig,
    protocol: &RuleProtocol,
    stable: P,
    max_steps: u64,
) -> SweepTable
where
    P: Fn(&Population<StateId>) -> bool + Sync,
{
    let compiled = protocol.compile();
    let name = protocol.name().to_owned();
    sweep(cfg, |n, seed| {
        rounds_of_run(compiled.clone(), &name, n, seed, &stable, max_steps) as f64
    })
}

/// [`sweep_rounds_to_converge`] with the predicate over the
/// engine-selection view — the frontier round-sweep path: at sizes where
/// the selector picks the sparse round engine (n ≳ 6 000 under the
/// default budget), a sparse-clean predicate keeps every trial
/// O(n + |Q|²), so round-denominated sweeps run at n = 100 000 and
/// beyond.
///
/// # Panics
///
/// Panics if any trial fails to stabilize within `max_steps`.
pub fn sweep_rounds_to_converge_view<P>(
    cfg: &SweepConfig,
    protocol: &RuleProtocol,
    stable: P,
    max_steps: u64,
) -> SweepTable
where
    P: Fn(&EngineView<'_, CompiledTable>) -> bool + Sync,
{
    let compiled = protocol.compile();
    let name = protocol.name().to_owned();
    sweep(cfg, |n, seed| {
        rounds_of_run_view(compiled.clone(), &name, n, seed, &stable, max_steps) as f64
    })
}

/// Runs `f` over `jobs` in parallel, preserving the order of results.
fn run_jobs<T: Sync, R: Send>(jobs: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    use std::sync::atomic::{AtomicUsize, Ordering};
    if jobs.is_empty() {
        return Vec::new();
    }
    let threads = std::thread::available_parallelism()
        .map(std::num::NonZero::get)
        .unwrap_or(1)
        .min(jobs.len());
    let next = AtomicUsize::new(0);
    let mut indexed: Vec<(usize, R)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                s.spawn(|| {
                    let mut local = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= jobs.len() {
                            break;
                        }
                        local.push((i, f(&jobs[i])));
                    }
                    local
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("worker threads do not panic"))
            .collect()
    });
    indexed.sort_by_key(|&(i, _)| i);
    indexed.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_preserves_order_and_counts() {
        let cfg = SweepConfig {
            sizes: vec![4, 8, 2],
            trials: 5,
            base_seed: 0,
        };
        let t = sweep(&cfg, |n, _| n as f64);
        assert_eq!(t.rows.len(), 3);
        assert_eq!(t.rows[0].n, 4);
        assert_eq!(t.rows[2].n, 2);
        assert!(t.rows.iter().all(|r| r.samples.len() == 5));
        assert_eq!(t.points()[1], (8.0, 8.0));
    }

    #[test]
    fn seeds_vary_per_trial_but_reproduce() {
        let cfg = SweepConfig {
            sizes: vec![10],
            trials: 6,
            base_seed: 42,
        };
        let a = sweep(&cfg, |_, seed| seed as f64);
        let b = sweep(&cfg, |_, seed| seed as f64);
        assert_eq!(a.rows[0].samples, b.rows[0].samples, "reproducible");
        let mut distinct = a.rows[0].samples.clone();
        distinct.sort_by(f64::total_cmp);
        distinct.dedup();
        assert_eq!(distinct.len(), 6, "per-trial seeds differ");
    }

    #[test]
    fn event_sweep_measures_convergence() {
        use netcon_core::{Link, ProtocolBuilder};
        // Maximum matching: Θ(n²) convergence, stable when no (a, a, 0)
        // pair remains — i.e. at most one node still in state a.
        let mut b = ProtocolBuilder::new("matching");
        let a = b.state("a");
        let m = b.state("b");
        b.rule((a, a, Link::Off), (m, m, Link::On));
        let p = b.build().expect("valid");
        let cfg = SweepConfig {
            sizes: vec![8, 16, 32],
            trials: 4,
            base_seed: 5,
        };
        let t = sweep_converged_at(&cfg, &p, |pop| pop.count_where(|s| *s == a) <= 1, u64::MAX);
        assert_eq!(t.rows.len(), 3);
        for r in &t.rows {
            assert!(r.summary.mean > 0.0, "n={} measured no steps", r.n);
            assert_eq!(r.samples.len(), 4);
        }
        // Reproducible: same config, same table.
        let t2 = sweep_converged_at(&cfg, &p, |pop| pop.count_where(|s| *s == a) <= 1, u64::MAX);
        assert_eq!(t.rows[1].samples, t2.rows[1].samples);
    }

    #[test]
    fn round_sweep_measures_rounds() {
        use netcon_core::{Link, ProtocolBuilder};
        // Maximum matching completes within round 1 under any box
        // schedule (every pair occurs once per round), so the sweep's
        // rounds column is deterministically 1 at every even size.
        let mut b = ProtocolBuilder::new("matching");
        let a = b.state("a");
        let m = b.state("b");
        b.rule((a, a, Link::Off), (m, m, Link::On));
        let p = b.build().expect("valid");
        let stable = move |pop: &Population<StateId>| pop.count_where(|s| *s == a) <= 1;
        let cfg = SweepConfig {
            sizes: vec![8, 16],
            trials: 3,
            base_seed: 11,
        };
        let t = sweep_rounds_to_converge(&cfg, &p, stable, u64::MAX);
        for r in &t.rows {
            assert!(
                r.samples.iter().all(|&x| x == 1.0),
                "n={}: rounds {:?}",
                r.n,
                r.samples
            );
        }
        // Single-run helper agrees.
        assert_eq!(rounds_to_converge(&p, 10, 3, stable, u64::MAX), 1);
    }

    #[test]
    fn round_sweep_view_runs_at_frontier_size() {
        use netcon_core::{EnumerableMachine, Link, ProtocolBuilder};
        // The view-predicate path never materializes a dense Population,
        // so a round-denominated sweep runs at n = 100 000 — far beyond
        // the dense round engine's memory budget, exercising the sparse
        // round engine end to end through `Engine::auto_for`.
        let mut b = ProtocolBuilder::new("matching");
        let a = b.state("a");
        let m = b.state("b");
        b.rule((a, a, Link::Off), (m, m, Link::On));
        let p = b.build().expect("valid");
        let ai = p.compile().state_index(&a);
        let cfg = SweepConfig {
            sizes: vec![100_000],
            trials: 1,
            base_seed: 23,
        };
        let t = sweep_rounds_to_converge_view(&cfg, &p, |v| v.count_index(ai) <= 1, u64::MAX);
        assert_eq!(t.rows[0].samples, vec![1.0], "matching finishes in round 1");
        // And the single-run view helper agrees at a small size with the
        // dense-predicate helper on the same seed.
        let dense = rounds_to_converge(
            &p,
            64,
            9,
            move |pop: &Population<StateId>| pop.count_where(|s| *s == a) <= 1,
            u64::MAX,
        );
        let view = rounds_to_converge_view(&p, 64, 9, |v| v.count_index(ai) <= 1, u64::MAX);
        assert_eq!(dense, view);
    }

    #[test]
    fn parallel_matches_serial_semantics() {
        let cfg = SweepConfig {
            sizes: (2..40).collect(),
            trials: 3,
            base_seed: 7,
        };
        let t = sweep(&cfg, |n, seed| (n as f64) * 1e6 + (seed % 1000) as f64);
        for (i, row) in t.rows.iter().enumerate() {
            assert_eq!(row.n, i + 2);
            for (t_idx, &v) in row.samples.iter().enumerate() {
                let expect = (row.n as f64) * 1e6 + (derive_seed(7, row.n, t_idx) % 1000) as f64;
                assert_eq!(v, expect);
            }
        }
    }
}
