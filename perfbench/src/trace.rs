//! The traced run: each trial of the untraced run is followed by a
//! traced twin, the same trial with a span around every call the
//! benchmark makes into a layer.
//!
//! Spans (name, start, end, parent, trial) are kept in memory and written
//! out at the end. Calls the engine makes back into the benchmark — the
//! stability predicate — are too many to keep one span each, so they are
//! kept as one aggregate span per calling span, with a call count and
//! the summed time of the calls. A span's self time is its busy time
//! minus its children's.
//!
//! Line trials are traced at the engine's `run_until_edges` boundary, so
//! the traced trial runs exactly the untraced program. On the dense arms
//! an untimed replay through the arm's public `advance` then counts
//! candidates, rejections and skipped draws; the bucket arm is never
//! replayed that way, since a finite budget or an `advance` loop would
//! bypass its batched endgame. `star-churn` trials are traced through a
//! call-for-call replica of `analysis::availability` ([`star_trial`]).

use std::fmt::Write as _;
use std::hint::black_box;
use std::io::Write as _;
use std::time::Instant;

use netcon_analysis::availability::AvailabilityResult;
use netcon_core::{
    CompiledTable, Engine, EngineView, EventSim, EventStep, FaultState, Population, RoundSim,
    RunOutcome, StateId, StepResult,
};
use netcon_protocols::{ft_star, simple_global_line as sgl};

use crate::micro;
use crate::report::Metrics;
use crate::workloads::{self, Outcome, Record, Setup, Workload};

/// One span. `busy_ns` is `end_ns − start_ns` for an ordinary span and
/// the summed call time for an aggregate one.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer boundary name.
    pub name: &'static str,
    /// Trial index.
    pub trial: u32,
    /// Index of the enclosing span in the span list.
    pub parent: Option<u32>,
    /// Start, ns since the run's epoch.
    pub start_ns: u64,
    /// End, ns since the run's epoch.
    pub end_ns: u64,
    /// Time spent inside the span's calls.
    pub busy_ns: u64,
    /// Calls the span covers (1 for an ordinary span).
    pub calls: u64,
}

/// The span list and its clock. A tracer that is off records nothing
/// and reads no clock.
pub struct Tracer {
    epoch: Instant,
    on: bool,
    spans: Vec<Span>,
}

impl Tracer {
    fn new(on: bool) -> Self {
        Self {
            epoch: Instant::now(),
            on,
            spans: Vec::new(),
        }
    }

    /// A tracer that records nothing (the `star-churn` post-pass).
    pub fn off() -> Self {
        Self::new(false)
    }

    fn now(&self) -> u64 {
        since(self.epoch)
    }

    fn open(&mut self, name: &'static str, trial: usize, parent: Option<u32>) -> u32 {
        if !self.on {
            return 0;
        }
        let id = u32::try_from(self.spans.len()).expect("span count fits u32");
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            trial: trial as u32,
            parent,
            start_ns,
            end_ns: start_ns,
            busy_ns: 0,
            calls: 1,
        });
        id
    }

    fn close(&mut self, id: u32) {
        if !self.on {
            return;
        }
        let end = self.now();
        let s = &mut self.spans[id as usize];
        s.end_ns = end;
        s.busy_ns = end - s.start_ns;
    }

    /// Times the callbacks made inside span `parent`.
    fn calls(&self) -> Calls {
        Calls {
            epoch: self.on.then_some(self.epoch),
            busy: 0,
            calls: 0,
            first: 0,
            last: 0,
        }
    }

    /// Records an aggregate span of the callbacks made inside `parent`.
    fn aggregate(&mut self, name: &'static str, trial: usize, parent: u32, agg: &Calls) {
        if !self.on || agg.calls == 0 {
            return;
        }
        self.spans.push(Span {
            name,
            trial: trial as u32,
            parent: Some(parent),
            start_ns: agg.first,
            end_ns: agg.last,
            busy_ns: agg.busy,
            calls: agg.calls,
        });
    }
}

fn since(epoch: Instant) -> u64 {
    u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Timing of repeated callbacks (the stability predicate); no clock is
/// read when the tracer is off.
struct Calls {
    epoch: Option<Instant>,
    busy: u64,
    calls: u64,
    first: u64,
    last: u64,
}

impl Calls {
    fn time(&mut self, f: impl FnOnce() -> bool) -> bool {
        let Some(epoch) = self.epoch else {
            return f();
        };
        let start = since(epoch);
        let r = f();
        let end = since(epoch);
        if self.calls == 0 {
            self.first = start;
        }
        self.last = end;
        self.busy += end - start;
        self.calls += 1;
        r
    }
}

/// Per-trial counts read at the layer boundaries.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counts {
    /// `Engine::approx_mem_bytes` right after construction.
    pub engine_bytes: u64,
    /// Effective interactions.
    pub effective: u128,
    /// Edge activations and deactivations.
    pub edge_events: u64,
    /// Candidate counters from the `advance` replay (dense arms only).
    pub arm: Option<ArmCounters>,
    /// Rounds to convergence (round workload).
    pub rounds: u64,
    /// Fault-plan boundaries (`star-churn`).
    pub boundaries: u64,
    /// Plan events applied (`star-churn`).
    pub applied: u64,
    /// Adversary decisions taken (`star-churn`).
    pub decisions: u64,
}

/// Candidate counters of one run, counted from the arm's `advance`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ArmCounters {
    /// Candidate interactions simulated.
    pub candidates: u64,
    /// Candidates whose coins made them ineffective.
    pub rejections: u64,
    /// Draws skipped by the skip law without being simulated.
    pub skipped: u128,
}

/// The traced run: its spans and per-trial results.
pub struct TraceOut {
    /// Workload traced.
    pub workload: Workload,
    /// Per-trial records, to compare with the untraced run.
    pub records: Vec<Record>,
    /// Per-trial traced time (the trial span).
    pub nanos: Vec<u64>,
    /// Per-trial boundary counts.
    pub counts: Vec<Counts>,
    /// The arm the trials ran on.
    pub arm: &'static str,
    /// Trials whose `advance` replay did not reproduce the run.
    pub replay_mismatches: usize,
    /// ns per stability-predicate call, from a batched microbench on the
    /// first traced trial's final configuration.
    pub predicate_ns: f64,
    /// The spans, in opening order.
    tracer: Tracer,
}

impl TraceOut {
    /// An empty traced run of `workload`.
    pub fn new(workload: Workload) -> Self {
        Self {
            workload,
            records: Vec::new(),
            nanos: Vec::new(),
            counts: Vec::new(),
            arm: "",
            replay_mismatches: 0,
            predicate_ns: 0.0,
            tracer: Tracer::new(true),
        }
    }

    /// The spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.tracer.spans
    }

    /// Runs trial `t` traced. The closed loop calls it right after the
    /// untraced run of the same trial, so both see the same host load and
    /// their time ratio is the tracing overhead.
    pub fn trial(&mut self, setup: &Setup, t: usize) {
        let tr = &mut self.tracer;
        let first = tr.spans.len();
        let (record, counts, arm, predicate_ns) = match setup.workload {
            Workload::StarChurn => {
                let star = star_trial(tr, setup, t);
                (star.record, star.counts, star.arm, star.predicate_ns)
            }
            _ => traced_line_trial(tr, setup, t),
        };
        if let Some(ns) = predicate_ns {
            self.predicate_ns = ns;
        }
        self.nanos.push(tr.spans[first].busy_ns.max(1));
        self.arm = arm;
        self.records.push(record);
        self.counts.push(counts);
    }

    /// Counts candidates, rejections and skipped draws of every line trial
    /// by the untimed `advance` replay (dense arms only).
    pub fn count_candidates(&mut self, setup: &Setup) {
        if self.workload == Workload::StarChurn {
            return;
        }
        for (t, (rec, c)) in self.records.iter().zip(&mut self.counts).enumerate() {
            c.arm = replay_counters(setup, setup.trial_seed(t), rec);
            if c.arm.is_none() && matches!(self.arm, "event-dense" | "round-dense") {
                self.replay_mismatches += 1;
            }
        }
    }
}

fn traced_line_trial(
    tr: &mut Tracer,
    setup: &Setup,
    t: usize,
) -> (Record, Counts, &'static str, Option<f64>) {
    let s = setup.trial_seed(t);
    let trial = tr.open("trial", t, None);
    let sel = tr.open("select", t, Some(trial));
    let mut eng = workloads::line_engine(setup, s);
    tr.close(sel);
    let engine_bytes = eng.approx_mem_bytes();
    let arm = tr.open("arm", t, Some(trial));
    let mut pred = tr.calls();
    let out = eng.run_until_edges(|v| pred.time(|| sgl::is_stable_view(v)), u64::MAX);
    tr.close(arm);
    tr.aggregate("protocols.predicate", t, arm, &pred);
    tr.close(trial);
    let view = workloads::view_of(&eng);
    let predicate_ns = (tr.on && t == 0)
        .then(|| micro::ns_per_call(|_| u64::from(sgl::is_stable_view(black_box(&view)))));
    let record = workloads::line_record(setup, &eng, out);
    let counts = Counts {
        engine_bytes,
        effective: record.effective,
        edge_events: eng.edge_events(),
        arm: None,
        rounds: record.rounds,
        ..Counts::default()
    };
    (record, counts, eng.kind(), predicate_ns)
}

/// A `star-churn` trial replayed through the calls `availability` makes.
pub struct StarTrial {
    /// The trial's record, equal to the library call's.
    pub record: Record,
    /// Counts read at the layer boundaries.
    pub counts: Counts,
    /// The arm `auto_faulted` picked.
    pub arm: &'static str,
    /// Whether the final configuration is a fault-mode star by the dense
    /// population test.
    pub star_shaped: bool,
    /// ns per stability-predicate call on the final configuration
    /// (first traced trial only).
    pub predicate_ns: Option<f64>,
}

/// `analysis::availability` for trial `t`, call for call, through the
/// public engine and fault API, with a span around each call when `tr`
/// is on. The untimed post-pass runs it with the tracer off: it must
/// match the library call bit for bit, and it supplies the draw and
/// effective-interaction counts and the final configuration the library
/// call does not return.
pub fn star_trial(tr: &mut Tracer, setup: &Setup, t: usize) -> StarTrial {
    let w = setup.workload;
    let s = setup.trial_seed(t);
    let trial = tr.open("trial", t, None);
    let span = tr.open("fault.plan_compile", t, Some(trial));
    let plan = workloads::churn_plan(w.n(), s);
    tr.close(span);
    let an = tr.open("analysis.availability", t, Some(trial));
    let times = plan.boundary_times();
    let total_draws = times.last().copied().unwrap_or(0);
    let span = tr.open("rules.compile", t, Some(an));
    let table = setup.protocol.compile();
    tr.close(span);
    let span = tr.open("select", t, Some(an));
    let mut eng = Engine::auto_faulted(table, w.n(), s, plan);
    tr.close(span);
    let engine_bytes = eng.approx_mem_bytes();
    let mut available = 0u64;
    let mut window_start = 0u64;
    for &at in &times {
        if at > window_start {
            let span = tr.open("arm", t, Some(an));
            eng.run_faulted_to(at - 1);
            tr.close(span);
            let fs = fault_state(&eng);
            let now = eng.steps();
            let span = tr.open("arm", t, Some(an));
            let mut pred = tr.calls();
            let stable = eng
                .run_until(|v| pred.time(|| ft_star::is_stable_faulted(v, &fs)), now)
                .converged_at()
                .is_some();
            tr.close(span);
            tr.aggregate("protocols.predicate", t, span, &pred);
            if stable {
                available += at - eng.last_output_change().max(window_start);
            }
        }
        let span = tr.open("fault.cross", t, Some(an));
        eng.run_faulted_to(at);
        tr.close(span);
        window_start = at;
    }
    let fs = fault_state(&eng);
    let end = eng.steps();
    let span = tr.open("arm", t, Some(an));
    let mut pred = tr.calls();
    let repair = eng
        .run_until(
            |v| pred.time(|| ft_star::is_stable_faulted(v, &fs)),
            end.saturating_add(workloads::REPAIR_BUDGET),
        )
        .converged_at()
        .map(|at| at.saturating_sub(end));
    tr.close(span);
    tr.aggregate("protocols.predicate", t, span, &pred);
    tr.close(an);
    tr.close(trial);
    let view = workloads::view_of(&eng);
    let predicate_ns = (tr.on && t == 0).then(|| {
        micro::ns_per_call(|_| u64::from(ft_star::is_stable_faulted(black_box(&view), &fs)))
    });
    let (draws, effective) = workloads::wide_counts(&eng);
    StarTrial {
        record: Record {
            outcome: Outcome::Availability(AvailabilityResult {
                available_draws: available,
                total_draws,
                repair,
            }),
            draws,
            effective,
            rounds: 0,
        },
        counts: Counts {
            engine_bytes,
            effective,
            edge_events: eng.edge_events(),
            arm: None,
            rounds: 0,
            boundaries: times.len() as u64,
            applied: fs.applied() as u64,
            decisions: u64::from(fs.decisions_taken()),
        },
        arm: eng.kind(),
        star_shaped: ft_star::is_stable_faulted_pop(&eng.to_population(), &fs),
        predicate_ns,
    }
}

fn fault_state(eng: &Engine<CompiledTable>) -> FaultState {
    eng.fault_state().expect("faulted engine").clone()
}

/// The dense arms' public `advance`, for the counting replay.
trait Advance {
    fn step(&mut self) -> EventStep;
    fn pop(&self) -> &Population<StateId>;
    /// The outcome `run_until_edges` reports when it stops here.
    fn stopped(&self) -> RunOutcome;
}

macro_rules! impl_advance {
    ($sim:ty) => {
        impl Advance for $sim {
            fn step(&mut self) -> EventStep {
                self.advance(u64::MAX)
            }
            fn pop(&self) -> &Population<StateId> {
                self.population()
            }
            fn stopped(&self) -> RunOutcome {
                RunOutcome::Stabilized {
                    detected_at: self.steps(),
                    converged_at: self.last_output_change(),
                    last_effective: self.last_effective(),
                }
            }
        }
    };
}

impl_advance!(EventSim<CompiledTable>);
impl_advance!(RoundSim<CompiledTable>);

/// Replays a line trial on a fresh engine of the same seed through the
/// dense arm's `advance` — the loop `run_until_edges` runs — counting
/// candidates. Returns `None` on a sparse arm, or when the replay does
/// not end where the traced run did.
fn replay_counters(setup: &Setup, seed: u64, rec: &Record) -> Option<ArmCounters> {
    let (counters, replayed) = match &mut workloads::line_engine(setup, seed) {
        Engine::Dense { sim, machine } => count_candidates(sim.as_mut(), machine),
        Engine::Round { sim, machine } => count_candidates(sim.as_mut(), machine),
        Engine::Sparse { .. } | Engine::RoundSparse { .. } => return None,
    };
    (rec.outcome == Outcome::Run(replayed?)).then_some(counters)
}

/// Counts candidates up to the stop `run_until_edges` makes; the outcome
/// is `None` if the run quiesced or ran out of budget instead.
fn count_candidates<S: Advance>(
    sim: &mut S,
    machine: &CompiledTable,
) -> (ArmCounters, Option<RunOutcome>) {
    let stable = |sim: &S| {
        sgl::is_stable_view(&EngineView::Dense {
            pop: sim.pop(),
            machine,
        })
    };
    let mut c = ArmCounters::default();
    if stable(sim) {
        return (c, Some(sim.stopped()));
    }
    loop {
        match sim.step() {
            EventStep::Quiescent | EventStep::BudgetExhausted => return (c, None),
            EventStep::Candidate { skipped, result } => {
                c.candidates += 1;
                c.skipped += u128::from(skipped);
                match result {
                    StepResult::Effective { edge_changed, .. } => {
                        if edge_changed && stable(sim) {
                            return (c, Some(sim.stopped()));
                        }
                    }
                    StepResult::Ineffective { .. } => c.rejections += 1,
                }
            }
        }
    }
}

/// Self time per span: busy time minus the children's busy time.
fn self_times(spans: &[Span]) -> Vec<i128> {
    let mut own: Vec<i128> = spans.iter().map(|s| i128::from(s.busy_ns)).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p as usize] -= i128::from(s.busy_ns);
        }
    }
    own
}

/// Fills the per-layer metrics from the traced run.
pub fn layer_metrics(m: &mut Metrics, tr: &TraceOut, compile_us: f64, overhead: f64) {
    let trials = tr.records.len().max(1) as f64;
    let own = self_times(tr.spans());
    let mut busy = std::collections::BTreeMap::<&str, (u128, u64, i128)>::new();
    for (s, &o) in tr.spans().iter().zip(&own) {
        let e = busy.entry(s.name).or_default();
        e.0 += u128::from(s.busy_ns);
        e.1 += s.calls;
        e.2 += o;
    }
    let get = |name: &str| busy.get(name).copied().unwrap_or_default();
    let mean_busy = |name: &str, scale: f64| {
        let (b, calls, _) = get(name);
        if calls == 0 {
            0.0
        } else {
            b as f64 / calls as f64 * scale
        }
    };
    let sum = |f: &dyn Fn(&Counts) -> u128| tr.counts.iter().map(f).sum::<u128>() as f64;
    let arm_self_ns = get("arm").2 as f64;
    let replayed: Vec<ArmCounters> = tr.counts.iter().filter_map(|c| c.arm).collect();
    let complete = replayed.len() == tr.counts.len();
    let cand: f64 = replayed.iter().map(|c| c.candidates as f64).sum();
    let effective = sum(&|c| c.effective);
    let rounds = sum(&|c| u128::from(c.rounds));

    m.add("rules.compile_us", compile_us, "us");
    m.add("select.construct_us", mean_busy("select", 1e-3), "us");
    m.add(
        "select.engine_bytes",
        sum(&|c| u128::from(c.engine_bytes)) / trials,
        "B",
    );
    m.add("arm.run_ms", arm_self_ns / trials * 1e-6, "ms");
    m.add("arm.effective", effective / trials, "count");
    m.add(
        "arm.edge_events",
        sum(&|c| u128::from(c.edge_events)) / trials,
        "count",
    );
    if complete && cand > 0.0 {
        let rej: f64 = replayed.iter().map(|c| c.rejections as f64).sum();
        let skipped: f64 = replayed.iter().map(|c| c.skipped as f64).sum();
        m.add("arm.candidates", cand / trials, "count");
        m.add("arm.rejections", rej / trials, "count");
        m.add("arm.accept_ratio", effective / cand, "ratio");
        m.add("arm.skipped_draws", skipped / trials, "count");
        m.add("arm.ns_per_candidate", arm_self_ns / cand, "ns");
    } else {
        for (name, unit) in [
            ("arm.candidates", "count"),
            ("arm.rejections", "count"),
            ("arm.accept_ratio", "ratio"),
            ("arm.skipped_draws", "count"),
            ("arm.ns_per_candidate", "ns"),
        ] {
            m.add(name, 0.0, unit);
        }
    }
    m.add("arm.rounds", rounds / trials, "count");
    m.add(
        "arm.ns_per_round",
        if rounds > 0.0 {
            arm_self_ns / rounds
        } else {
            0.0
        },
        "ns",
    );
    m.add(
        "fault.plan_compile_us",
        mean_busy("fault.plan_compile", 1e-3),
        "us",
    );
    m.add(
        "fault.boundaries",
        sum(&|c| u128::from(c.boundaries)) / trials,
        "count",
    );
    m.add(
        "fault.applied",
        sum(&|c| u128::from(c.applied)) / trials,
        "count",
    );
    m.add(
        "fault.decisions",
        sum(&|c| u128::from(c.decisions)) / trials,
        "count",
    );
    m.add("fault.cross_us", mean_busy("fault.cross", 1e-3), "us");
    let (_, pred_calls, _) = get("protocols.predicate");
    m.add(
        "protocols.predicate_calls",
        pred_calls as f64 / trials,
        "count",
    );
    m.add("protocols.predicate_ns", tr.predicate_ns, "ns");
    m.add(
        "analysis.availability_self_ms",
        get("analysis.availability").2 as f64 / trials * 1e-6,
        "ms",
    );
    m.add("trace.overhead", overhead, "ratio");
}

/// Writes the spans as tab-separated lines under `perfbench/out/`;
/// returns the path.
pub fn write_spans(tr: &TraceOut, seed: u64) -> std::io::Result<String> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
    std::fs::create_dir_all(dir)?;
    let path = format!("{dir}/spans-{}-seed{seed}.tsv", tr.workload.name());
    let mut f = std::io::BufWriter::new(std::fs::File::create(&path)?);
    writeln!(
        f,
        "id\tname\ttrial\tparent\tstart_ns\tend_ns\tbusy_ns\tcalls"
    )?;
    let mut line = String::new();
    for (id, s) in tr.spans().iter().enumerate() {
        line.clear();
        let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
        let _ = writeln!(
            line,
            "{id}\t{}\t{}\t{parent}\t{}\t{}\t{}\t{}",
            s.name, s.trial, s.start_ns, s.end_ns, s.busy_ns, s.calls
        );
        f.write_all(line.as_bytes())?;
    }
    f.flush()?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<u32>, busy_ns: u64) -> Span {
        Span {
            name,
            trial: 0,
            parent,
            start_ns: 0,
            end_ns: busy_ns,
            busy_ns,
            calls: 1,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = [
            span("trial", None, 100),
            span("select", Some(0), 10),
            span("arm", Some(0), 80),
            span("protocols.predicate", Some(2), 30),
        ];
        assert_eq!(self_times(&spans), vec![10, 10, 50, 30]);
    }
}
