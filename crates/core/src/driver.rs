//! The run/fault driver of the fast engines, written once over a narrow
//! engine kernel.
//!
//! [`EventSim`](crate::EventSim), [`BucketSim`](crate::BucketSim),
//! [`RoundSim`](crate::RoundSim) and
//! [`RoundBucketSim`](crate::RoundBucketSim) differ only in how they skip
//! to the next candidate interaction. Everything around that — predicate
//! evaluation points, budgets, quiescent jumps, stop/resume at fault
//! boundaries, adversary decisions — is one contract, so it is written
//! here once, over the crate-private [`Kernel`] hooks each engine
//! implements. Every engine gets its own monomorphized copy of the
//! driver, so the per-candidate loop stays statically dispatched.
//!
//! The naive [`Simulation`](crate::Simulation) keeps a driver of its own
//! on purpose: it is the independent reference the equivalence suite
//! compares the fast engines against, so a bug here must not reach both
//! sides.

use crate::compiled::EnumerableMachine;
use crate::engine::Bookkeeping;
use crate::event::EventStep;
use crate::fault::adversary::ConfigSnapshot;
use crate::fault::{sample_without_replacement, DueFault, FaultState, ResolvedFault};
use crate::sim::{RunOutcome, StepResult};

/// One event of an engine's batched mode, as seen by
/// [`Driver::run_until_edges`].
pub(crate) enum EndgameEvent {
    /// A batched event was applied; `edge_changed` reports whether the
    /// output graph moved (a predicate re-evaluation point).
    Applied { edge_changed: bool },
    /// Nothing is batchable right now: the driver falls back to the
    /// per-draw [`advance`](Kernel::advance).
    Idle,
}

/// The per-engine hooks the shared driver is written over.
pub(crate) trait Kernel: sealed::Sealed {
    /// The predicate view of the current configuration.
    fn view(&self) -> &Self::View;

    /// Skips to and simulates the next candidate interaction without
    /// letting the step counter pass `max_steps` (the engine's inherent
    /// `advance`).
    fn advance(&mut self, max_steps: u64) -> EventStep;

    /// The run counters.
    fn book(&self) -> &Bookkeeping;

    /// The run counters, for the quiescent jump.
    fn book_mut(&mut self) -> &mut Bookkeeping;

    /// Idles a certainly-quiescent engine forward to `target` total
    /// steps (never backwards). Under the uniform scheduler idle draws
    /// carry no state, so the counter just moves; the round engines
    /// override this to keep their round partition exact.
    fn idle_to(&mut self, target: u64) {
        let book = self.book_mut();
        book.steps = book.steps.max(u128::from(target));
    }

    /// The fault state, if the engine was built with a plan.
    fn faults(&self) -> Option<&FaultState>;

    /// The fault state, mutably.
    fn faults_mut(&mut self) -> Option<&mut FaultState>;

    /// The machine being executed (for crash-notify targets).
    fn machine(&self) -> &Self::Machine;

    /// The dense state index of node `u`.
    fn state_index(&self, u: usize) -> usize;

    /// The active edges in canonical order: lexicographic in
    /// `(min, max)`, the triangular-index order of the dense edge set.
    fn active_edges(&self) -> Vec<(usize, usize)>;

    /// Retires crashed node `x` (alive flag already cleared by the
    /// resolver) from the candidate structures and deactivates its
    /// incident edges. Returns the former neighbors in ascending order.
    fn detach(&mut self, x: usize) -> Vec<usize>;

    /// Admits arrived node `x` (alive flag already set; it holds the
    /// initial state and no edges) back into the candidate structures.
    fn admit(&mut self, x: usize);

    /// Deactivates edge `{u, v}` if it is active, reclassifying the
    /// affected pair. Returns whether it was active.
    fn cut_edge(&mut self, u: usize, v: usize) -> bool;

    /// Moves live node `w` to state index `new` (not its current one)
    /// without touching any edge.
    fn set_state(&mut self, w: usize, new: usize);

    /// Runs after every applied fault event that was not a no-op.
    fn fault_applied(&mut self) {}

    /// Processes one batched event, if the engine has a batched mode and
    /// the configuration admits it. Only called from
    /// [`Driver::run_until_edges`] with an unbounded budget and no
    /// pending fault.
    fn batch_step(&mut self) -> EndgameEvent {
        EndgameEvent::Idle
    }

    /// Closes an open batched session before a stable return.
    fn batch_finish(&mut self) {}

    /// Applies one resolved fault event: the damage policy every fast
    /// engine shares, over the reclassification primitives above. Edge
    /// deletions are output changes; crash notifications run in
    /// ascending node order; random deletions sample the canonical
    /// active-edge order, so the draw depends only on the configuration.
    fn apply_resolved(&mut self, resolved: ResolvedFault) {
        match resolved {
            ResolvedFault::Noop => return,
            ResolvedFault::Crash(x) => {
                let neighbors = self.detach(x);
                self.book_mut().record_fault_edges(neighbors.len());
                for w in neighbors {
                    let s = self.state_index(w);
                    if let Some(new) = self.machine().notify_indexed(s) {
                        if new != s {
                            self.set_state(w, new);
                        }
                    }
                }
            }
            ResolvedFault::Arrive(x) => self.admit(x),
            ResolvedFault::DeleteEdge(u, v) => {
                let cut = self.cut_edge(u, v);
                self.book_mut().record_fault_edges(usize::from(cut));
            }
            ResolvedFault::DeleteRandomEdges { count, mut rng } => {
                let edges = self.active_edges();
                for (u, v) in sample_without_replacement(&mut rng, edges, count) {
                    let cut = self.cut_edge(u, v);
                    self.book_mut().record_fault_edges(usize::from(cut));
                }
            }
        }
        self.fault_applied();
    }

    /// The configuration an adversary decision reads: dense state
    /// indices over the whole draw space plus the active edges.
    fn config_snapshot(&self) -> ConfigSnapshot {
        let capacity = self.faults().expect("decisions imply a plan").capacity();
        let states = (0..capacity).map(|u| self.state_index(u)).collect();
        ConfigSnapshot::new(states, self.active_edges())
    }

    /// Applies everything due at the current step counter: scheduled
    /// plan events in order, and adversary decisions resolved against a
    /// fresh configuration snapshot.
    fn apply_due_faults(&mut self) {
        let now = self.book().steps();
        loop {
            match self.faults().and_then(|fs| fs.due_fault(now)) {
                Some(DueFault::Event) => {
                    let resolved = self
                        .faults_mut()
                        .expect("due implies a plan")
                        .resolve_next()
                        .expect("due_fault implies a pending event");
                    self.apply_resolved(resolved);
                }
                Some(DueFault::Decision) => {
                    let snap = self.config_snapshot();
                    let damage = self
                        .faults_mut()
                        .expect("due implies a plan")
                        .resolve_due_decision(&snap);
                    for resolved in damage {
                        self.apply_resolved(resolved);
                    }
                }
                None => return,
            }
        }
    }
}

/// Implements the [`Kernel`] accessors every engine shares, over its
/// `machine`, `book` and `faults` fields, its inherent `advance`, and
/// the predicate view in field `$view`.
macro_rules! kernel_accessors {
    ($view:ident) => {
        fn view(&self) -> &Self::View {
            &self.$view
        }

        fn advance(&mut self, max_steps: u64) -> $crate::event::EventStep {
            Self::advance(self, max_steps)
        }

        fn book(&self) -> &$crate::engine::Bookkeeping {
            &self.book
        }

        fn book_mut(&mut self) -> &mut $crate::engine::Bookkeeping {
            &mut self.book
        }

        fn faults(&self) -> Option<&$crate::fault::FaultState> {
            self.faults.as_ref()
        }

        fn faults_mut(&mut self) -> Option<&mut $crate::fault::FaultState> {
            self.faults.as_mut()
        }

        fn machine(&self) -> &Self::Machine {
            &self.machine
        }
    };
}
pub(crate) use kernel_accessors;

pub(crate) mod sealed {
    /// Closes [`Driver`](super::Driver) to the crate's fast engines, and
    /// names what their stability predicates read.
    pub trait Sealed {
        /// The dense [`Population`](crate::Population) or the sparse
        /// [`SparsePop`](crate::SparsePop).
        type View;

        /// The machine the engine executes.
        type Machine: crate::EnumerableMachine;
    }
}

/// The run/fault driver every fast engine shares: run to a stability
/// predicate, run to a step count, and replay a fault plan with
/// coin-for-coin stop/resume.
///
/// Implemented by [`EventSim`](crate::EventSim) and
/// [`RoundSim`](crate::RoundSim), whose predicates read the dense
/// [`Population`](crate::Population), and by
/// [`BucketSim`](crate::BucketSim) and
/// [`RoundBucketSim`](crate::RoundBucketSim), whose predicates read the
/// [`SparsePop`](crate::SparsePop) view. Import it to run a concrete
/// engine; [`Engine`](crate::Engine) calls it for you.
///
/// # Example
///
/// ```
/// use netcon_core::{Driver, EventSim, Link, ProtocolBuilder};
///
/// let mut b = ProtocolBuilder::new("matching");
/// let a = b.state("a");
/// let m = b.state("b");
/// b.rule((a, a, Link::Off), (m, m, Link::On));
///
/// let mut sim = EventSim::new(b.build()?, 20, 7);
/// sim.run_to(100);
/// assert_eq!(sim.steps(), 100);
/// let out = sim.run_until_edges(|p| p.edges().active_count() == 10, u64::MAX);
/// assert!(out.stabilized());
/// # Ok::<(), netcon_core::ProtocolError>(())
/// ```
pub trait Driver: sealed::Sealed {
    /// Runs until `stable` holds or `max_steps` total steps have elapsed,
    /// with the predicate-evaluation points of
    /// [`Simulation::run_until`](crate::Simulation::run_until) (initially
    /// and after every effective interaction) and the same outcome
    /// distribution under the engine's scheduler.
    ///
    /// If the configuration quiesces while `stable` is false, the naive
    /// engine would idle through the rest of the budget; the fast engines
    /// jump to it and report the exhausted budget immediately.
    fn run_until(&mut self, stable: impl FnMut(&Self::View) -> bool, max_steps: u64) -> RunOutcome;

    /// Like [`run_until`](Self::run_until) but only re-evaluates the
    /// predicate when an edge changes. Correct (and faster) for
    /// predicates that depend only on the output graph.
    ///
    /// This is also where [`BucketSim`](crate::BucketSim)'s **batched
    /// endgame** engages: when every on-candidate is an edge of a
    /// lone-walker path (the merging-lines endgame of Simple Global Line
    /// and its kin), it absorbs whole walks from their exact
    /// first-passage laws instead of draw by draw. Batching is sound
    /// precisely here — walk moves never change edges, so no predicate
    /// evaluation point is skipped — and is gated to unbounded budgets (a
    /// session cannot stop at an interior step count) and to fault plans
    /// with no pending events (a session cannot be interrupted).
    fn run_until_edges(
        &mut self,
        stable: impl FnMut(&Self::View) -> bool,
        max_steps: u64,
    ) -> RunOutcome;

    /// Advances until the step counter reaches exactly `target` (the
    /// counterpart of [`Simulation::run_for`](crate::Simulation::run_for)
    /// with an absolute target). The skip laws are memoryless (geometric)
    /// or self-similar under truncation (negative hypergeometric), so
    /// stopping and resuming mid-skip is exact.
    fn run_to(&mut self, target: u64);

    /// The fault state, if the engine was built with a
    /// [`FaultPlan`](crate::FaultPlan).
    fn fault_state(&self) -> Option<&FaultState>;

    /// Applies every remaining plan event *now*, regardless of its
    /// scheduled time (see
    /// [`Simulation::apply_faults_now`](crate::Simulation::apply_faults_now)).
    /// Adversary decisions are *not* drained: they are tied to their
    /// decision draws.
    ///
    /// # Panics
    ///
    /// Panics if the engine has no fault plan.
    fn apply_faults_now(&mut self);

    /// Advances to exactly `target` total steps, applying plan events and
    /// adversary decisions at their scheduled times on the way. Stopping
    /// at a fault boundary (or any event time) and resuming is
    /// coin-for-coin identical to running through: `run_to` decomposes
    /// the run at event times either way, and event randomness never
    /// touches the engine RNG.
    ///
    /// # Panics
    ///
    /// Panics if the engine has no fault plan.
    fn run_faulted_to(&mut self, target: u64);

    /// Runs a faulted execution to stability: plan events at their
    /// scheduled times, then `stable` over (configuration, fault state)
    /// once the plan is exhausted. The predicate is not consulted while
    /// events are pending — a network that looks stable before its last
    /// fault is not stable.
    ///
    /// # Panics
    ///
    /// Panics if the engine has no fault plan.
    fn run_faulted_until(
        &mut self,
        stable: impl FnMut(&Self::View, &FaultState) -> bool,
        max_steps: u64,
    ) -> RunOutcome;
}

impl<K: Kernel> Driver for K {
    fn run_until(
        &mut self,
        mut stable: impl FnMut(&K::View) -> bool,
        max_steps: u64,
    ) -> RunOutcome {
        if stable(self.view()) {
            return self.book().stabilized_now();
        }
        loop {
            match self.advance(max_steps) {
                EventStep::Quiescent => {
                    self.idle_to(max_steps);
                    return out_of_budget(self);
                }
                EventStep::BudgetExhausted => return out_of_budget(self),
                EventStep::Candidate { result, .. } => {
                    if result.is_effective() && stable(self.view()) {
                        return self.book().stabilized_now();
                    }
                }
            }
        }
    }

    fn run_until_edges(
        &mut self,
        mut stable: impl FnMut(&K::View) -> bool,
        max_steps: u64,
    ) -> RunOutcome {
        if stable(self.view()) {
            return self.book().stabilized_now();
        }
        let batching =
            max_steps == u64::MAX && self.faults().is_none_or(|fs| fs.next_at().is_none());
        loop {
            if batching {
                match self.batch_step() {
                    EndgameEvent::Applied { edge_changed } => {
                        if edge_changed && stable(self.view()) {
                            self.batch_finish();
                            return self.book().stabilized_now();
                        }
                        continue;
                    }
                    EndgameEvent::Idle => {}
                }
            }
            match self.advance(max_steps) {
                EventStep::Quiescent => {
                    self.idle_to(max_steps);
                    return out_of_budget(self);
                }
                EventStep::BudgetExhausted => return out_of_budget(self),
                EventStep::Candidate {
                    result:
                        StepResult::Effective {
                            edge_changed: true, ..
                        },
                    ..
                } => {
                    if stable(self.view()) {
                        return self.book().stabilized_now();
                    }
                }
                EventStep::Candidate { .. } => {}
            }
        }
    }

    fn run_to(&mut self, target: u64) {
        while self.book().steps < u128::from(target) {
            match self.advance(target) {
                EventStep::Quiescent => {
                    self.idle_to(target);
                    return;
                }
                EventStep::BudgetExhausted => return,
                EventStep::Candidate { .. } => {}
            }
        }
    }

    fn fault_state(&self) -> Option<&FaultState> {
        self.faults()
    }

    fn apply_faults_now(&mut self) {
        assert!(
            self.faults().is_some(),
            "apply_faults_now needs a fault plan"
        );
        while let Some(resolved) = self.faults_mut().and_then(FaultState::resolve_next) {
            self.apply_resolved(resolved);
        }
    }

    fn run_faulted_to(&mut self, target: u64) {
        assert!(self.faults().is_some(), "run_faulted_to needs a fault plan");
        self.apply_due_faults();
        loop {
            match self.faults().and_then(FaultState::next_at) {
                Some(at) if at <= target => {
                    self.run_to(at);
                    self.apply_due_faults();
                }
                _ => {
                    self.run_to(target);
                    return;
                }
            }
        }
    }

    fn run_faulted_until(
        &mut self,
        mut stable: impl FnMut(&K::View, &FaultState) -> bool,
        max_steps: u64,
    ) -> RunOutcome {
        assert!(
            self.faults().is_some(),
            "run_faulted_until needs a fault plan"
        );
        self.apply_due_faults();
        loop {
            match self.faults().and_then(FaultState::next_at) {
                Some(at) if at <= max_steps => {
                    self.run_to(at);
                    self.apply_due_faults();
                }
                Some(_) => {
                    self.run_to(max_steps);
                    return out_of_budget(self);
                }
                None => break,
            }
        }
        if stable(self.view(), self.faults().expect("asserted above")) {
            return self.book().stabilized_now();
        }
        loop {
            match self.advance(max_steps) {
                EventStep::Quiescent => {
                    self.idle_to(max_steps);
                    return out_of_budget(self);
                }
                EventStep::BudgetExhausted => return out_of_budget(self),
                EventStep::Candidate { result, .. } => {
                    if result.is_effective()
                        && stable(self.view(), self.faults().expect("asserted above"))
                    {
                        return self.book().stabilized_now();
                    }
                }
            }
        }
    }
}

/// The outcome of a run that ended without the predicate holding.
fn out_of_budget<K: Kernel>(k: &K) -> RunOutcome {
    RunOutcome::MaxSteps {
        steps: k.book().steps(),
    }
}

#[cfg(test)]
pub(crate) mod contract {
    //! The driver contract, written once: each engine's test module
    //! instantiates these checks with its constructor.

    use super::{Driver, Kernel};
    use crate::event::EventStep;
    use crate::sim::RunOutcome;
    use crate::{CompiledTable, Link, ProtocolBuilder};

    /// An engine constructor: machine, `n`, seed.
    pub(crate) type New<K> = fn(CompiledTable, usize, u64) -> K;

    fn matching() -> CompiledTable {
        let mut b = ProtocolBuilder::new("matching");
        let a = b.state("a");
        let m = b.state("b");
        b.rule((a, a, Link::Off), (m, m, Link::On));
        b.build().expect("valid").compile()
    }

    /// Advances until the configuration quiesces; returns the step count.
    fn quiesce<K: Kernel>(sim: &mut K) -> u64 {
        while sim.advance(u64::MAX) != EventStep::Quiescent {}
        sim.book().steps()
    }

    /// An unstable run stops exactly at its budget, and a resumed run
    /// goes on from there.
    pub(crate) fn budget_is_respected_exactly_and_resumes<K: Kernel>(new: New<K>) -> K {
        let mut sim = new(matching(), 50, 3);
        let out = sim.run_until(|_| false, 1_000);
        assert_eq!(out, RunOutcome::MaxSteps { steps: 1_000 });
        assert_eq!(sim.book().steps(), 1_000);
        sim.run_to(2_000);
        assert_eq!(sim.book().steps(), 2_000);
        quiesce(&mut sim);
        assert_eq!(sim.book().effective_steps(), 25);
        sim
    }

    /// `run_to` lands exactly, and a quiescent configuration idles to
    /// the target at once.
    pub(crate) fn run_to_lands_exactly_and_quiescence_jumps<K: Kernel>(new: New<K>) -> K {
        let mut sim = new(matching(), 10, 5);
        sim.run_to(123);
        assert_eq!(sim.book().steps(), 123);
        let done = quiesce(&mut sim);
        sim.run_to(done + 1_000_000);
        assert_eq!(sim.book().steps(), done + 1_000_000);
        assert_eq!(sim.book().effective_steps(), 5);
        sim
    }

    /// A quiescent, never-stable configuration reports the whole budget
    /// immediately, where the naive engine would idle through it.
    pub(crate) fn quiescent_unstable_returns_budget_immediately<K: Kernel>(new: New<K>) -> K {
        let mut b = ProtocolBuilder::new("inert");
        let _ = b.state("a");
        let mut sim = new(b.build().expect("valid").compile(), 8, 0);
        let out = sim.run_until(|_| false, u64::MAX);
        assert_eq!(out, RunOutcome::MaxSteps { steps: u64::MAX });
        sim
    }

    /// A later run whose budget is below the step counter is a no-op on
    /// a quiescent configuration, not a rewind.
    pub(crate) fn quiescence_with_spent_budget_never_rewinds_steps<K: Kernel>(new: New<K>) -> K {
        let mut sim = new(matching(), 10, 5);
        let done = quiesce(&mut sim);
        let out = sim.run_until(|_| false, done / 2);
        assert_eq!(out, RunOutcome::MaxSteps { steps: done });
        assert_eq!(sim.book().steps(), done);
        sim
    }

    /// A predicate that already holds stabilizes at step 0.
    pub(crate) fn initial_configuration_can_be_stable<K: Kernel>(new: New<K>) -> K {
        let mut sim = new(matching(), 6, 2);
        let out = sim.run_until(|_| true, 10);
        let at_zero = RunOutcome::Stabilized {
            detected_at: 0,
            converged_at: 0,
            last_effective: 0,
        };
        assert_eq!(out, at_zero);
        sim
    }
}
