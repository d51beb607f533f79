//! The four workloads: what one trial runs, what it returns, and how its
//! output is checked.
//!
//! Every trial goes through the public entry points a user calls —
//! [`Engine::auto_for`] for the line workloads, [`availability`] for
//! `star-churn` — so it runs on whichever engine arm the selector picks.

use netcon_analysis::availability::{availability, AvailabilityResult};
use netcon_core::{
    seeds, AdversaryPlan, AdversaryPolicy, Cadence, ChurnPlan, CompiledTable, Engine, EngineView,
    FaultPlan, RuleProtocol, RunOutcome, SchedulerKind,
};
use netcon_protocols::{ft_star, simple_global_line as sgl};

/// Churn rate per draw of both arrivals and departures on `star-churn`.
pub const CHURN_RATE: f64 = 1e-5;
/// Alive-count floor of the churn stream and of the adversary.
pub const MIN_ALIVE: usize = 64;
/// Draws between two `CrashMaxDegree` strikes.
pub const STRIKE_EVERY: u64 = 400_000;
/// Draws covered by the churn stream and the strike cadence.
pub const HORIZON: u64 = 8_000_000;
/// Draws the repair phase may take after the last churn event; FT-star
/// at n = 128 repairs in ~10⁵.
pub const REPAIR_BUDGET: u64 = 1 << 32;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Simple-Global-Line, uniform scheduler, n = 768 (dense event arm).
    LineUniform,
    /// Simple-Global-Line, uniform scheduler, n = 12288 (sparse bucket arm).
    LineWide,
    /// Simple-Global-Line, ShuffledRounds scheduler, n = 512 (dense round arm).
    LineRounds,
    /// FT-Global-Star, n = 128, churn plus a periodic adversary.
    StarChurn,
}

/// Reference mean and per-trial standard deviation of a workload's
/// result, from `--calibrate` on a seed the checks are not run on.
#[derive(Debug, Clone, Copy)]
pub struct Reference {
    /// Mean result over the calibration trials.
    pub mean: f64,
    /// Per-trial standard deviation over the calibration trials.
    pub sd: f64,
    /// Calibration trial count.
    pub trials: u32,
}

/// How many standard errors a run's mean result may sit from the
/// reference before the run is marked incorrect.
pub const BAND_Z: f64 = 5.0;

impl Workload {
    /// Every workload, in CLI order.
    pub const ALL: [Workload; 4] = [
        Workload::LineUniform,
        Workload::LineWide,
        Workload::LineRounds,
        Workload::StarChurn,
    ];

    /// The CLI name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::LineUniform => "line-uniform",
            Workload::LineWide => "line-wide",
            Workload::LineRounds => "line-rounds",
            Workload::StarChurn => "star-churn",
        }
    }

    /// Parses a CLI name.
    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Population size.
    pub fn n(self) -> usize {
        match self {
            Workload::LineUniform => 768,
            Workload::LineWide => 12_288,
            Workload::LineRounds => 512,
            Workload::StarChurn => 128,
        }
    }

    /// The scheduler family the trials reproduce.
    pub fn scheduler(self) -> SchedulerKind {
        match self {
            Workload::LineRounds => SchedulerKind::ShuffledRounds,
            _ => SchedulerKind::Uniform,
        }
    }

    /// What the mean-band check averages.
    pub fn result_name(self) -> &'static str {
        match self {
            Workload::LineUniform | Workload::LineWide => "converged_at",
            Workload::LineRounds => "rounds",
            Workload::StarChurn => "fraction_available",
        }
    }

    /// The reference the mean result is checked against. Produced by
    /// `--calibrate 2000` (400 on `line-wide`) with `--seed 1000003`.
    pub fn reference(self) -> Reference {
        let (mean, sd, trials) = match self {
            Workload::LineUniform => (1.135_387_404_945_35e10, 6.892_426_208_686_493e9, 2000),
            Workload::LineWide => (7.256_895_577_999_993e14, 4.120_781_411_380_765_6e14, 400),
            Workload::LineRounds => (7.274_801_5e3, 4.351_204_106_990_171e3, 2000),
            Workload::StarChurn => (1.409_136_290_625_000_2e-1, 5.703_883_917_448_987_5e-2, 2000),
        };
        Reference { mean, sd, trials }
    }
}

/// What a workload needs before its first trial: the compiled rule table.
pub struct Setup {
    /// The workload.
    pub workload: Workload,
    /// The rule protocol (`availability` compiles it per trial).
    pub protocol: RuleProtocol,
    /// The compiled rule table the line trials run.
    pub table: CompiledTable,
    /// The workload seed.
    pub seed: u64,
}

impl Setup {
    /// Compiles the workload's protocol.
    pub fn new(workload: Workload, seed: u64) -> Self {
        let protocol = match workload {
            Workload::StarChurn => ft_star::protocol(),
            _ => sgl::protocol(),
        };
        let table = protocol.compile();
        Self {
            workload,
            protocol,
            table,
            seed,
        }
    }

    /// The seed of trial `t`: `seeds::derive2(seed, n, t)`.
    pub fn trial_seed(&self, t: usize) -> u64 {
        seeds::derive2(self.seed, self.workload.n() as u64, t as u64)
    }
}

/// What a trial returned, compared bit for bit between the untraced and
/// the traced run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Outcome {
    /// A line trial's run outcome.
    Run(RunOutcome),
    /// A `star-churn` trial's availability measurement.
    Availability(AvailabilityResult),
}

/// One trial's results.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Record {
    /// The returned outcome.
    pub outcome: Outcome,
    /// Simulated draws: the final step count (filled by the post-pass
    /// on `star-churn`).
    pub draws: u128,
    /// Effective interactions (filled by the post-pass on `star-churn`).
    pub effective: u128,
    /// Rounds to convergence on the round workload, else 0.
    pub rounds: u64,
}

impl Record {
    /// The value the mean-band check averages.
    pub fn result(&self) -> f64 {
        match self.outcome {
            Outcome::Run(_) if self.rounds > 0 => self.rounds as f64,
            Outcome::Run(out) => out.converged_at().map_or(f64::NAN, |c| c as f64),
            Outcome::Availability(a) => a.fraction_available(),
        }
    }

    /// The words the fingerprint hashes.
    pub fn words(&self) -> [u64; 8] {
        let (a, b, c) = match self.outcome {
            Outcome::Run(RunOutcome::Stabilized {
                detected_at,
                converged_at,
                last_effective,
            }) => (detected_at, converged_at, last_effective),
            Outcome::Run(RunOutcome::MaxSteps { steps }) => (steps, u64::MAX, u64::MAX),
            Outcome::Availability(r) => (
                r.available_draws,
                r.total_draws,
                r.repair.unwrap_or(u64::MAX),
            ),
        };
        [
            a,
            b,
            c,
            self.draws as u64,
            (self.draws >> 64) as u64,
            self.effective as u64,
            (self.effective >> 64) as u64,
            self.rounds,
        ]
    }
}

/// The configuration view of any arm.
pub fn view_of(eng: &Engine<CompiledTable>) -> EngineView<'_, CompiledTable> {
    match eng {
        Engine::Dense { sim, machine } => EngineView::Dense {
            pop: sim.population(),
            machine,
        },
        Engine::Sparse { sim, machine } => EngineView::Sparse {
            sp: sim.view(),
            machine,
        },
        Engine::Round { sim, machine } => EngineView::Dense {
            pop: sim.population(),
            machine,
        },
        Engine::RoundSparse { sim, machine } => EngineView::Sparse {
            sp: sim.view(),
            machine,
        },
    }
}

/// Final step count, effective interactions — wide on the bucket arm,
/// whose counters are `u128` internally.
pub fn wide_counts(eng: &Engine<CompiledTable>) -> (u128, u128) {
    match eng {
        Engine::Sparse { sim, .. } => (sim.steps_wide(), sim.effective_steps_wide()),
        _ => (u128::from(eng.steps()), u128::from(eng.effective_steps())),
    }
}

/// Constructs the line engine a trial runs on — the selector's choice.
pub fn line_engine(setup: &Setup, trial_seed: u64) -> Engine<CompiledTable> {
    let w = setup.workload;
    Engine::auto_for(setup.table.clone(), w.n(), trial_seed, w.scheduler())
}

/// The record of a finished line run.
pub fn line_record(setup: &Setup, eng: &Engine<CompiledTable>, out: RunOutcome) -> Record {
    let (draws, effective) = wide_counts(eng);
    let rounds = match (setup.workload.scheduler(), out.converged_at()) {
        (SchedulerKind::ShuffledRounds, Some(c)) => {
            let n = setup.workload.n() as u64;
            c.div_ceil(n * (n - 1) / 2)
        }
        _ => 0,
    };
    Record {
        outcome: Outcome::Run(out),
        draws,
        effective,
        rounds,
    }
}

/// The `star-churn` fault plan of one trial: symmetric Poisson churn
/// plus a periodic `CrashMaxDegree` strike, both floored at
/// [`MIN_ALIVE`].
pub fn churn_plan(n: usize, trial_seed: u64) -> FaultPlan {
    let count = u32::try_from(HORIZON / STRIKE_EVERY).expect("strike count fits u32");
    ChurnPlan::new(trial_seed)
        .arrival_rate(CHURN_RATE)
        .departure_rate(CHURN_RATE)
        .min_alive(MIN_ALIVE)
        .horizon(HORIZON)
        .compile(n)
        .with_adversary(
            AdversaryPlan::new(Cadence::Periodic {
                start: STRIKE_EVERY,
                every: STRIKE_EVERY,
                count,
            })
            .policy(AdversaryPolicy::CrashMaxDegree)
            .min_alive(MIN_ALIVE),
        )
}

/// The result of one untraced trial, with the engine it left behind
/// (line workloads) for the output checks.
pub struct Finished {
    /// The trial's record.
    pub record: Record,
    /// Host nanoseconds of construction plus run.
    pub nanos: u64,
    /// The engine in its final configuration (line workloads only).
    pub engine: Option<Engine<CompiledTable>>,
}

/// Runs one trial with seed `s` untraced through the public API and
/// times it.
pub fn run_trial(setup: &Setup, s: u64) -> Finished {
    let w = setup.workload;
    match w {
        Workload::StarChurn => {
            let start = std::time::Instant::now();
            let plan = churn_plan(w.n(), s);
            let r = availability(
                &setup.protocol,
                w.n(),
                s,
                plan,
                ft_star::is_stable_faulted,
                REPAIR_BUDGET,
            );
            let nanos = elapsed_nanos(start);
            Finished {
                record: Record {
                    outcome: Outcome::Availability(r),
                    draws: 0,
                    effective: 0,
                    rounds: 0,
                },
                nanos,
                engine: None,
            }
        }
        _ => {
            let start = std::time::Instant::now();
            let mut eng = line_engine(setup, s);
            let out = eng.run_until_edges(sgl::is_stable_view, u64::MAX);
            let nanos = elapsed_nanos(start);
            let record = line_record(setup, &eng, out);
            Finished {
                record,
                nanos,
                engine: Some(eng),
            }
        }
    }
}

/// Nanoseconds since `start`, at least 1.
pub fn elapsed_nanos(start: std::time::Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos())
        .unwrap_or(u64::MAX)
        .max(1)
}

/// Checks a run outcome: stabilized, and no counter saturated into a
/// fake convergence time.
pub fn check_outcome(out: &RunOutcome, draws: u128) -> Result<(), String> {
    match *out {
        RunOutcome::MaxSteps { steps } => Err(format!("did not stabilize (steps {steps})")),
        RunOutcome::Stabilized {
            detected_at,
            converged_at,
            last_effective,
        } => {
            if [detected_at, converged_at, last_effective].contains(&u64::MAX)
                || draws >= u128::from(u64::MAX)
            {
                Err(format!("saturated step counter: {out:?}, draws {draws}"))
            } else {
                Ok(())
            }
        }
    }
}

/// Checks a line trial's final configuration with a shape test other
/// than the O(1) edge-count predicate the run stopped on: the dense
/// spanning-line test on dense arms, a structural walk along the line
/// on sparse arms.
pub fn check_line_shape(eng: &Engine<CompiledTable>) -> Result<(), String> {
    let ok = match view_of(eng) {
        EngineView::Dense { .. } => sgl::is_stable(&eng.to_population()),
        v @ EngineView::Sparse { sp, .. } => is_spanning_line_sparse(&v, sp),
    };
    if ok {
        Ok(())
    } else {
        Err(format!(
            "{}: final active graph is not a spanning line",
            eng.kind()
        ))
    }
}

/// Spanning line on the sparse view: two endpoints of degree 1, every
/// other node of degree 2, and a walk from one endpoint visits all `n`.
fn is_spanning_line_sparse(v: &EngineView<'_, CompiledTable>, sp: &netcon_core::SparsePop) -> bool {
    let n = v.n();
    if n < 2 || v.active_count() != n - 1 {
        return false;
    }
    let mut ends = Vec::new();
    for u in 0..n {
        match v.degree(u) {
            1 => ends.push(u),
            2 => {}
            _ => return false,
        }
    }
    if ends.len() != 2 {
        return false;
    }
    let (mut prev, mut cur, mut seen) = (usize::MAX, ends[0], 1usize);
    while cur != ends[1] {
        let Some(next) = sp.neighbors(cur).find(|&w| w != prev) else {
            return false;
        };
        prev = cur;
        cur = next;
        seen += 1;
        if seen > n {
            return false;
        }
    }
    seen == n
}

/// Checks a `star-churn` trial's measurement.
pub fn check_availability(r: &AvailabilityResult) -> Result<(), String> {
    if r.repair.is_none() {
        return Err(format!("FT-star did not repair after the stream: {r:?}"));
    }
    if r.total_draws == 0 || r.available_draws > r.total_draws {
        return Err(format!("inconsistent availability window: {r:?}"));
    }
    Ok(())
}
