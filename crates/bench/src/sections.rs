//! The sections of the perf record, each defined once.
//!
//! Every section `perf_smoke` writes is one typed function here that
//! owns the section's sizes, seeds, protocols and sweep call. The bench
//! target of the same name, where there is one, prints and asserts on
//! the returned rows; [`SECTIONS`] renders them into the record. Trial
//! counts ride `NETCON_BENCH_SCALE` (via [`scale`]); nothing else about
//! a section is configurable, so every record of a given scale measures
//! the same workload.

use std::time::Instant;

use netcon_analysis::availability::sweep_availability;
use netcon_analysis::knee::{
    detect_knee, periodic_adversary_plan, sweep_availability_vs_rate, RatePoint,
};
use netcon_analysis::repair::{sweep_repair_time, FaultSeverity};
use netcon_analysis::sweep::{SweepConfig, SweepTable};
use netcon_core::{
    AdversaryPolicy, BucketSim, ChurnPlan, CompiledTable, Driver, EngineView, EventSim, FaultState,
    Link, Population, ProtocolBuilder, RoundSim, RuleProtocol, Simulation, SparsePop, StateId,
};
use netcon_protocols::{
    cycle_cover, fast_global_line, ft_line, ft_star, global_star, simple_global_line,
};

use crate::harness::scale;
use crate::obj;
use crate::record::Json;
use crate::speedup::{bucket_stats, compare_engines, compare_round_engines, Comparison};

/// One section of the perf record.
pub struct Section {
    /// The section's top-level key in the record.
    pub name: &'static str,
    /// Runs only when named by `perf_smoke --regen`; carried forward
    /// from an earlier record otherwise. Other sections run every time.
    pub on_request: bool,
    /// Whether `benches/<name>.rs` prints and asserts on the same rows.
    pub bench_target: bool,
    /// Runs the section and renders it.
    pub record: fn() -> Json,
}

const fn live(name: &'static str, bench_target: bool, record: fn() -> Json) -> Section {
    Section {
        name,
        on_request: false,
        bench_target,
        record,
    }
}

const fn on_request(name: &'static str, bench_target: bool, record: fn() -> Json) -> Section {
    Section {
        name,
        on_request: true,
        bench_target,
        record,
    }
}

/// Every section, in record order (the `bool` is `bench_target`).
pub const SECTIONS: [Section; 11] = [
    live("engine_speedup", true, || {
        comparisons_json(SMOKE_NOTE, &engine_speedup(), false)
    }),
    live("engine_memory_bytes", false, engine_memory_bytes),
    live("bucket_engine", false, bucket_engine),
    live("round_engine", false, round_engine),
    live("perturbation_frontier", true, || {
        repair_json(&perturbation_frontier())
    }),
    live("churn_frontier", true, || churn_json(&churn_frontier())),
    live("adversary_frontier", true, || {
        adversary_json(&adversary_frontier())
    }),
    on_request("scaling_frontier", true, || {
        scaling_json(&scaling_frontier(100))
    }),
    live("round_frontier", true, || {
        round_frontier_json(&round_frontier())
    }),
    on_request("mega_frontier", false, mega_frontier),
    on_request(
        "large_sample_agreement_n256",
        false,
        large_sample_agreement_n256,
    ),
];

/// Parses `perf_smoke --regen`'s comma-separated list of on-request
/// sections.
///
/// # Errors
///
/// Names the first entry that is not an on-request section, with the
/// list of those that are.
pub fn parse_regen(list: &str) -> Result<Vec<&'static str>, String> {
    let known = || SECTIONS.iter().filter(|s| s.on_request).map(|s| s.name);
    list.split(',')
        .map(|name| {
            known().find(|&k| k == name).ok_or_else(|| {
                let known = known().collect::<Vec<_>>().join(", ");
                format!(
                    "unknown --regen section {name:?}; expected a comma-separated list of: {known}"
                )
            })
        })
        .collect()
}

/// Population size of the head-to-head engine records.
const HEAD_TO_HEAD_N: usize = 256;

/// Base seed of the head-to-head engine records.
const SEED: u64 = 9;

const SMOKE_NOTE: &str = "the record is speedup_per_trial; the naive side runs too few trials here for a mean comparison — tests/engine_equivalence.rs holds the engines to the naive distribution, and large_sample_agreement_n256 records the large-sample mean gap";

const LARGE_SAMPLE_NOTE: &str = "regenerate with cargo run --release -p netcon-bench --bin perf_smoke -- --regen large_sample_agreement_n256 (~25 min); other runs carry this section forward";

/// Simple- then Fast-Global-Line at n = 256: `event_trials` `EventSim`
/// runs against `naive[i]` naive ones, same seeds.
fn line_comparisons(event_trials: usize, naive: [usize; 2]) -> [Comparison; 2] {
    let protocols = [simple_global_line::protocol(), fast_global_line::protocol()];
    let stable: [fn(&Population<StateId>) -> bool; 2] =
        [simple_global_line::is_stable, fast_global_line::is_stable];
    [0, 1].map(|i| {
        compare_engines(
            &protocols[i],
            stable[i],
            HEAD_TO_HEAD_N,
            event_trials,
            naive[i],
            SEED,
        )
    })
}

/// The uniform-family head-to-head at n = 256: `EventSim` (≥ 100
/// trials) against the naive loop (a few trials, ~1 s each for
/// Simple-Global-Line), same seeds.
#[must_use]
pub fn engine_speedup() -> [(&'static str, Comparison); 2] {
    let naive = [scale(8).clamp(2, 16), scale(20).clamp(2, 40)];
    let [sgl, fgl] = line_comparisons(scale(200).max(100), naive);
    [
        ("simple_global_line_n256", sgl),
        ("fast_global_line_n256", fgl),
    ]
}

/// The large-sample mean-agreement record at n = 256: 2000 event trials
/// against 1000 naive ones (~25 min). Fast-Global-Line's `converged_at`
/// variance is ~50× smaller, so 400 naive trials already put its
/// standard error near 0.1%.
fn large_sample_agreement_n256() -> Json {
    let [sgl, fgl] = line_comparisons(2_000, [1_000, 400]);
    let rows = [("simple_global_line", sgl), ("fast_global_line", fgl)];
    comparisons_json(LARGE_SAMPLE_NOTE, &rows, true)
}

fn comparisons_json(note: &str, rows: &[(&'static str, Comparison)], rel_diff: bool) -> Json {
    obj! { "note": note }.with(rows.iter().map(|(key, c)| {
        let row = obj! {
            "n": c.n,
            "event_trials": c.event.trials,
            "event_mean_converged_at": Json::Fixed(c.event.mean_converged, 1),
            "event_mean_total_steps": Json::Fixed(c.event.mean_steps, 1),
            "event_mean_effective_steps": Json::Fixed(c.event.mean_effective, 1),
            "event_wall_s": Json::Fixed(c.event.wall_s, 4),
            "naive_trials": c.naive.trials,
            "naive_mean_converged_at": Json::Fixed(c.naive.mean_converged, 1),
            "naive_wall_s": Json::Fixed(c.naive.wall_s, 4),
            "speedup_per_trial": Json::Fixed(c.speedup, 1),
        };
        let gap = rel_diff.then_some(("mean_rel_diff", Json::Fixed(c.mean_rel_diff, 4)));
        (*key, row.with(gap))
    }))
}

/// The measured Θ(n²)-vs-O(n) memory ladder on Simple-Global-Line:
/// `approx_mem_bytes` of freshly constructed engines.
fn engine_memory_bytes() -> Json {
    let protocol = simple_global_line::protocol();
    let compiled = protocol.compile();
    let row = |n: usize| {
        obj! {
            "n": n,
            "naive": (n <= 20_000).then(|| Simulation::new(protocol.clone(), n, 1).approx_mem_bytes()),
            "event": (n <= 8_000).then(|| EventSim::new(compiled.clone(), n, 1).approx_mem_bytes()),
            "event_estimate": EventSim::<CompiledTable>::dense_mem_estimate(n),
            "bucket": BucketSim::new(compiled.clone(), n, 1).approx_mem_bytes(),
        }
    };
    obj! {
        "note": "approx_mem_bytes of freshly constructed engines, Simple-Global-Line; null = dense structures would not fit the CI box",
        "rows": Json::Arr([256, 2_000, 8_000, 20_000, 100_000].map(row).into()),
    }
}

/// The sparse bucket engine's own trials at n = 256 (its overhead
/// regime) on Simple-Global-Line and Cycle-Cover: aggregates plus the
/// measured memory after the last trial.
fn bucket_engine() -> Json {
    let run = |key, protocol: RuleProtocol, stable: fn(&SparsePop) -> bool| {
        let trials = scale(200).max(100);
        let (s, mem) = bucket_stats(&protocol, stable, HEAD_TO_HEAD_N, trials, SEED);
        let row = obj! {
            "n": HEAD_TO_HEAD_N,
            "trials": s.trials,
            "mean_converged_at": Json::Fixed(s.mean_converged, 1),
            "mean_effective_steps": Json::Fixed(s.mean_effective, 1),
            "wall_s": Json::Fixed(s.wall_s, 4),
            "approx_mem_bytes": mem,
        };
        (key, row)
    };
    let sgl = (
        simple_global_line::protocol(),
        simple_global_line::is_stable_sparse,
    );
    let cc = (cycle_cover::protocol(), cycle_cover::is_stable_sparse);
    Json::Obj(vec![
        run("simple_global_line_n256", sgl.0, sgl.1),
        run("cycle_cover_n256", cc.0, cc.1),
    ])
}

/// The ShuffledRounds head-to-head at n = 256: `RoundSim` against the
/// naive round-player on Simple-Global-Line, convergence in draws and
/// rounds. The naive side keeps ≥ 8 trials (~0.8 s each).
fn round_engine() -> Json {
    let c = compare_round_engines(
        &simple_global_line::protocol(),
        simple_global_line::is_stable,
        HEAD_TO_HEAD_N,
        scale(100).max(50),
        scale(16).clamp(8, 24),
        SEED,
    );
    let row = obj! {
        "n": c.n,
        "scheduler": "shuffled-rounds",
        "round_trials": c.round.trials,
        "round_mean_converged_at": Json::Fixed(c.round.mean_converged, 1),
        "round_mean_rounds": Json::Fixed(c.round_mean_rounds, 1),
        "round_mean_effective_steps": Json::Fixed(c.round.mean_effective, 1),
        "round_wall_s": Json::Fixed(c.round.wall_s, 4),
        "naive_trials": c.naive.trials,
        "naive_mean_converged_at": Json::Fixed(c.naive.mean_converged, 1),
        "naive_mean_rounds": Json::Fixed(c.naive_mean_rounds, 1),
        "naive_wall_s": Json::Fixed(c.naive.wall_s, 4),
        "speedup_per_trial": Json::Fixed(c.speedup, 1),
    };
    obj! { "note": SMOKE_NOTE, "simple_global_line_n256": row }
}

/// Maximum matching: `(a, a, 0) → (b, b, 1)`, which reconverges under
/// any mix of crashes, arrivals and edge deletions.
#[must_use]
pub fn matching() -> RuleProtocol {
    let mut b = ProtocolBuilder::new("matching");
    let a = b.state("a");
    let m = b.state("b");
    b.rule((a, a, Link::Off), (m, m, Link::On));
    b.build().expect("valid")
}

/// One sweep of a fault-layer section, with the parameter that shapes
/// it: a burst [`FaultSeverity`], or a churn horizon in draws.
pub struct Sweep<P> {
    /// Record key.
    pub key: &'static str,
    /// The burst or horizon.
    pub param: P,
    /// Trials per size.
    pub trials: usize,
    /// Repair steps or available fraction, per size.
    pub table: SweepTable,
}

/// A stability predicate under faults, as the fault-layer sweeps take it.
type FaultedStable = fn(&EngineView<'_, CompiledTable>, &FaultState) -> bool;

/// Self-repair sweeps over the fault layer: stabilize, injure with a
/// seeded burst, count the steps back to stability. Maximum-Matching
/// under a `1,1,1` crash/arrival/deletion burst (it absorbs any damage
/// mix), and Global-Star under two spoke deletions
/// (`(c, p, 0) → (c, p, 1)` regrows each).
#[must_use]
pub fn perturbation_frontier() -> [Sweep<FaultSeverity>; 2] {
    let trials = scale(40).max(4);
    // Odd sizes: a stabilized odd-n matching keeps one unmatched
    // survivor, so the burst's single arrival has a partner and the
    // repair column is non-degenerate.
    let cfg = SweepConfig {
        sizes: vec![25, 49],
        trials,
        base_seed: 41,
    };
    let sweep = |key, protocol: RuleProtocol, severity, stable: FaultedStable| {
        let table = sweep_repair_time(&cfg, &protocol, severity, stable, 1_000_000_000);
        Sweep {
            key,
            param: severity,
            trials,
            table,
        }
    };
    let burst = FaultSeverity {
        crashes: 1,
        arrivals: 1,
        edge_deletions: 1,
    };
    let spokes = FaultSeverity {
        crashes: 0,
        arrivals: 0,
        edge_deletions: 2,
    };
    let matched: FaultedStable = |v, fs| {
        (0..v.n())
            .filter(|&u| fs.is_alive(u) && v.state_index(u) == 0)
            .count()
            <= 1
    };
    [
        sweep("maximum_matching", matching(), burst, matched),
        sweep(
            "global_star_spokes",
            global_star::protocol(),
            spokes,
            global_star::is_stable_faulted,
        ),
    ]
}

/// Renders [`perturbation_frontier`]'s rows as the record's `perturbation_frontier` section.
#[must_use]
pub fn repair_json(sweeps: &[Sweep<FaultSeverity>]) -> Json {
    let note = "mean steps from a seeded fault burst back to stability (netcon_analysis::repair); regenerated live on every run";
    obj! { "note": note }.with(sweeps.iter().map(|s| {
        let rows = s.table.rows.iter().map(|r| {
            let m = &r.summary;
            obj! {
                "n": r.n,
                "mean_repair_steps": Json::Fixed(m.mean, 1),
                "sd": Json::Fixed(m.std_dev, 1),
                "median": Json::Fixed(m.median, 1),
                "max": Json::Fixed(m.max, 0),
            }
        });
        let sev = &s.param;
        let severity = format!("{},{},{}", sev.crashes, sev.arrivals, sev.edge_deletions);
        let rows = Json::Arr(rows.collect());
        (
            s.key,
            obj! { "severity": severity.as_str(), "trials": s.trials, "rows": rows },
        )
    }))
}

/// Symmetric per-draw arrival *and* departure rate of
/// [`churn_frontier`]'s Poisson stream.
pub const CHURN_RATE: f64 = 1e-4;

/// Availability under sustained Poisson churn at [`CHURN_RATE`] for the
/// two fault-tolerant constructors of arXiv 1903.05992: FT-Global-Star
/// re-elects through any crash (Θ(n² log n), so a 60k-draw horizon
/// holds many stable windows), FT-Spanning-Line pays a restart wave per
/// crash (so it runs smaller and longer). The sweep parameter is the
/// churn horizon.
#[must_use]
pub fn churn_frontier() -> [Sweep<u64>; 2] {
    let trials = scale(40).max(4);
    let sweep =
        |key, protocol: RuleProtocol, stable: FaultedStable, sizes, seed, floor, horizon| {
            let cfg = SweepConfig {
                sizes,
                trials,
                base_seed: seed,
            };
            let churn = ChurnPlan::new(0)
                .arrival_rate(CHURN_RATE)
                .departure_rate(CHURN_RATE);
            let churn = churn.min_alive(floor).horizon(horizon);
            let table = sweep_availability(&cfg, &protocol, churn, stable, u64::MAX);
            Sweep {
                key,
                param: horizon,
                trials,
                table,
            }
        };
    let (star, line) = (ft_star::is_stable_faulted, ft_line::is_stable_faulted);
    [
        sweep(
            "ft_global_star",
            ft_star::protocol(),
            star,
            vec![16, 32],
            83,
            8,
            60_000,
        ),
        sweep(
            "ft_spanning_line",
            ft_line::protocol(),
            line,
            vec![10, 14],
            89,
            5,
            150_000,
        ),
    ]
}

/// Renders [`churn_frontier`]'s rows as the record's `churn_frontier` section.
#[must_use]
pub fn churn_json(sweeps: &[Sweep<u64>]) -> Json {
    let note = "mean fraction of draws with a stable output under sustained Poisson churn (netcon_analysis::availability); regenerated live on every run";
    obj! { "note": note }.with(sweeps.iter().map(|s| {
        let rows = s.table.rows.iter().map(|r| {
            let m = &r.summary;
            obj! {
                "n": r.n,
                "mean_fraction_available": Json::Fixed(m.mean, 4),
                "sd": Json::Fixed(m.std_dev, 4),
                "min": Json::Fixed(m.min, 4),
            }
        });
        let sweep = obj! {
            "rate_per_draw_each_way": Json::Sci(CHURN_RATE),
            "horizon_draws": s.param,
            "trials": s.trials,
            "rows": Json::Arr(rows.collect()),
        };
        (s.key, sweep)
    }))
}

/// The strike-rate ladder of [`adversary_frontier`]: expected adversary
/// decisions per draw, one per 40k draws to one per 1250. (Higher rates
/// only shift *when* the floor-capped strike budget is spent, so the
/// ladder stops at the knee's far side.)
pub const ADVERSARY_RATES: [f64; 6] = [2.5e-5, 5e-5, 1e-4, 2e-4, 4e-4, 8e-4];

const ADVERSARY_N: usize = 16;
const ADVERSARY_MIN_ALIVE: usize = 8;
/// Draws per measurement; the strike cadence is sized to it.
const ADVERSARY_HORIZON: u64 = 40_000;

/// The availability-vs-strike-rate ladders of [`adversary_frontier`].
pub struct AdversaryFrontier {
    /// Trials per rung.
    pub trials: usize,
    /// `(record key, ladder)` for FT-Global-Star, then Global-Star.
    pub curves: [(&'static str, Vec<RatePoint>); 2],
}

/// Availability vs strike rate at n = 16 under the adaptive
/// `CrashMaxDegree` cadence (40k draws per measurement, `min_alive` 8):
/// Global-Star (one centre strike freezes it forever) against
/// FT-Global-Star (notified spokes re-elect after every strike). The
/// repair budget after the stream is generous for FT-star and finite so
/// frozen Global-Star remnants stop.
#[must_use]
pub fn adversary_frontier() -> AdversaryFrontier {
    let trials = scale(12).max(3);
    let plan = |rate: f64, seed: u64, _n: usize| {
        let policies = [AdversaryPolicy::CrashMaxDegree];
        periodic_adversary_plan(
            rate,
            seed,
            ADVERSARY_HORIZON,
            &policies,
            ADVERSARY_MIN_ALIVE,
        )
    };
    let ladder = |key, protocol: RuleProtocol, seed, stable: FaultedStable| {
        let (n, rates) = (ADVERSARY_N, &ADVERSARY_RATES);
        (
            key,
            sweep_availability_vs_rate(&protocol, n, rates, trials, seed, plan, stable, 400_000),
        )
    };
    let curves = [
        ladder(
            "ft_global_star",
            ft_star::protocol(),
            131,
            ft_star::is_stable_faulted,
        ),
        ladder(
            "global_star",
            global_star::protocol(),
            137,
            global_star::is_stable_faulted,
        ),
    ];
    AdversaryFrontier { trials, curves }
}

/// Renders [`adversary_frontier`]'s rows as the record's `adversary_frontier` section.
#[must_use]
pub fn adversary_json(a: &AdversaryFrontier) -> Json {
    let head = obj! {
        "note": "mean fraction of draws with a stable output under the adaptive CrashMaxDegree cadence, vs strike rate (netcon_analysis::knee); regenerated live on every run",
        "policy": "crash-max-degree",
        "n": ADVERSARY_N,
        "min_alive": ADVERSARY_MIN_ALIVE,
        "horizon_draws": ADVERSARY_HORIZON,
        "trials": a.trials,
    };
    head.with(a.curves.iter().map(|(key, curve)| {
        let rows = curve.iter().map(|p| {
            let available = Json::Fixed(p.availability, 4);
            obj! { "rate_per_draw": Json::Sci(p.rate), "mean_fraction_available": available }
        });
        let knee = detect_knee(curve).map(|k| {
            obj! {
                "rate_per_draw": Json::Sci(k.rate),
                "left_exponent": Json::Fixed(k.left.exponent, 3),
                "right_exponent": Json::Fixed(k.right.exponent, 3),
            }
        });
        (
            *key,
            obj! { "rows": Json::Arr(rows.collect()), "knee": knee },
        )
    }))
}

/// One engine run to stability in a frontier ladder.
pub struct Run {
    /// Population size.
    pub n: usize,
    /// The engine's `Engine::kind` name.
    pub engine: &'static str,
    /// Sequential draws to stability (the paper's running time).
    pub converged_at: u128,
    /// Effective interactions.
    pub effective_steps: u128,
    /// Wall-clock, seconds.
    pub wall_s: f64,
    /// The engine's measured heap footprint at the end.
    pub approx_mem_bytes: u64,
}

impl Run {
    fn json(&self, extra: Option<(&'static str, Json)>) -> Json {
        let row = obj! {
            "n": self.n,
            "engine": self.engine,
            "converged_at": self.converged_at,
            "effective_steps": self.effective_steps,
            "wall_s": Json::Fixed(self.wall_s, 2),
            "approx_mem_bytes": self.approx_mem_bytes,
        };
        row.with(extra)
    }
}

/// The bucket engine at n ∈ {20k, 50k, 100k} scaled by `pct` percent
/// (floor 64) on Simple-Global-Line and Cycle-Cover, seed `2014 + n`.
/// The record runs at 100 (~15 min on one core); the bench target
/// passes `NETCON_BENCH_SCALE`.
///
/// # Panics
///
/// If a run does not stabilize or uses 100 MB or more.
#[must_use]
pub fn scaling_frontier(pct: usize) -> [(&'static str, Vec<Run>); 2] {
    let sizes = [20_000usize, 50_000, 100_000].map(|n| (n * pct / 100).max(64));
    let ladder = |key: &'static str, protocol: RuleProtocol, stable: fn(&SparsePop) -> bool| {
        let compiled = protocol.compile();
        let run = |n: usize| {
            println!("==> scaling frontier: {key} n = {n} (bucket engine)");
            let t0 = Instant::now();
            let mut sim = BucketSim::new(compiled.clone(), n, 2014 + n as u64);
            let out = sim.run_until(stable, u64::MAX);
            let wall_s = t0.elapsed().as_secs_f64();
            let converged = out.converged_at();
            let converged = converged.unwrap_or_else(|| panic!("{key} did not stabilize at n={n}"));
            let mem = sim.approx_mem_bytes();
            assert!(
                mem < 100 << 20,
                "{key} n={n}: bucket engine used {mem} bytes (>= 100 MB)"
            );
            Run {
                n,
                engine: "bucket-sparse",
                converged_at: converged.into(),
                effective_steps: sim.effective_steps().into(),
                wall_s,
                approx_mem_bytes: mem,
            }
        };
        (key, sizes.map(run).into())
    };
    let sgl = ladder(
        "simple_global_line",
        simple_global_line::protocol(),
        simple_global_line::is_stable_sparse,
    );
    [
        sgl,
        ladder(
            "cycle_cover",
            cycle_cover::protocol(),
            cycle_cover::is_stable_sparse,
        ),
    ]
}

/// Renders [`scaling_frontier`]'s rows as the record's `scaling_frontier` section.
#[must_use]
pub fn scaling_json(ladders: &[(&'static str, Vec<Run>)]) -> Json {
    let note = "regenerate with cargo run --release -p netcon-bench --bin perf_smoke -- --regen scaling_frontier (~15 min); other runs carry this section forward";
    obj! { "note": note }.with(ladders.iter().map(|(key, runs)| {
        let rows = runs.iter().map(|r| {
            let estimate = EventSim::<CompiledTable>::dense_mem_estimate(r.n);
            r.json(Some(("event_mem_estimate_bytes", estimate.into())))
        });
        (*key, Json::Arr(rows.collect()))
    }))
}

/// `RoundSim` alone on Simple-Global-Line at n ∈ {256, 512, 1024}, seed
/// `2014 + n`: sizes whose naive round-player would take hours (well
/// under a second in total).
///
/// # Panics
///
/// If a run does not stabilize.
#[must_use]
pub fn round_frontier() -> Vec<Run> {
    let compiled = simple_global_line::protocol().compile();
    let run = |n: usize| {
        let t0 = Instant::now();
        let mut sim = RoundSim::new(compiled.clone(), n, 2014 + n as u64);
        let out = sim.run_until(simple_global_line::is_stable, u64::MAX);
        let wall_s = t0.elapsed().as_secs_f64();
        let converged = out.converged_at();
        let converged = converged.unwrap_or_else(|| panic!("SGL did not stabilize at n={n}"));
        Run {
            n,
            engine: "round-dense",
            converged_at: converged.into(),
            effective_steps: sim.effective_steps().into(),
            wall_s,
            approx_mem_bytes: sim.approx_mem_bytes(),
        }
    };
    [256, 512, 1024].map(run).into()
}

/// Renders [`round_frontier`]'s rows as the record's `round_frontier` section.
#[must_use]
pub fn round_frontier_json(runs: &[Run]) -> Json {
    let rows = runs.iter().map(|r| {
        let pairs = (r.n as u128) * (r.n as u128 - 1) / 2;
        r.json(Some((
            "converged_rounds",
            r.converged_at.div_ceil(pairs).into(),
        )))
    });
    obj! {
        "note": "RoundSim ladder on Simple-Global-Line; regenerated live on every run",
        "simple_global_line": Json::Arr(rows.collect()),
    }
}

/// Simple-Global-Line at n = 10⁶ on the bucket engine's batched-endgame
/// path, one serial run (~30 s; keep the box otherwise idle), with the
/// frontier acceptance gate asserted inline.
///
/// # Panics
///
/// If the run does not stabilize or takes more than 60 s.
fn mega_frontier() -> Json {
    let n = 1_000_000usize;
    println!("==> mega frontier: simple_global_line n = {n} (bucket engine, batched endgame)");
    let t0 = Instant::now();
    let mut sim = BucketSim::new(simple_global_line::protocol().compile(), n, 2014 + n as u64);
    // `run_until_edges`, not `run_until`: the edge-count predicate only
    // changes when an edge does, and that is the entry point where the
    // batched endgame engages (per-effective-step predicates cannot
    // batch — whole walker excursions would skip their evaluation
    // points, turning the last few walkers back into ~10¹¹ drawn
    // events and the 20 s record into minutes).
    let out = sim.run_until_edges(simple_global_line::is_stable_sparse, u64::MAX);
    let wall_s = t0.elapsed().as_secs_f64();
    assert!(
        out.stabilized(),
        "simple_global_line did not stabilize at n={n}"
    );
    assert!(
        wall_s <= 60.0,
        "mega frontier gate: SGL n={n} took {wall_s:.1}s (> 60 s)"
    );
    // `converged_at()` saturates at u64::MAX here (~10¹⁹ sequential
    // draws); the wide counters hold the exact counts.
    let run = Run {
        n,
        engine: "bucket-sparse",
        converged_at: sim.steps_wide(),
        effective_steps: sim.effective_steps_wide(),
        wall_s,
        approx_mem_bytes: sim.approx_mem_bytes(),
    };
    obj! {
        "note": "regenerate with cargo run --release -p netcon-bench --bin perf_smoke -- --regen mega_frontier (one serial run, ~30 s; keep the box otherwise idle); other runs carry this section forward",
        "gate": "wall_s <= 60 on one core",
        "simple_global_line": Json::Arr(vec![run.json(None)]),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn section_names_are_unique() {
        for (i, s) in SECTIONS.iter().enumerate() {
            assert!(
                SECTIONS[..i].iter().all(|t| t.name != s.name),
                "duplicate {}",
                s.name
            );
        }
    }

    #[test]
    fn bench_tied_sections_have_a_bench_target() {
        let benches = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("benches");
        for s in SECTIONS.iter().filter(|s| s.bench_target) {
            let path = benches.join(format!("{}.rs", s.name));
            assert!(path.is_file(), "{} is missing", path.display());
        }
    }

    #[test]
    fn regen_accepts_on_request_sections_only() {
        let both = parse_regen("mega_frontier,scaling_frontier");
        assert_eq!(both, Ok(vec!["mega_frontier", "scaling_frontier"]));
        for bad in ["mega", "bogus", "mega_frontier,", "round_frontier", ""] {
            let e = parse_regen(bad).unwrap_err();
            assert!(e.contains("unknown --regen section"), "{bad:?}: {e}");
            assert!(e.contains("large_sample_agreement_n256"), "{e}");
        }
    }
}
