//! The fundamental probabilistic processes of §3.3 (Table 1 of the paper).
//!
//! These seven small protocols are the recurring building blocks of every
//! running-time analysis in the paper; each is an application of the
//! coupon-collector argument under the uniform random scheduler:
//!
//! | Process | Rules | Expected time |
//! |---------|-------|---------------|
//! | One-way epidemic | `(a,b) → (a,a)` | Θ(n log n) |
//! | One-to-one elimination | `(a,a) → (a,b)` | Θ(n²) |
//! | Maximum matching | `(a,a,0) → (b,b,1)` | Θ(n²) |
//! | One-to-all elimination | `(a,a) → (b,a)`, `(a,b) → (b,b)` | Θ(n log n) |
//! | Meet everybody | `(a,b) → (a,c)` | Θ(n² log n) |
//! | Node cover | `(a,a) → (b,b)`, `(a,b) → (b,b)` | Θ(n log n) |
//! | Edge cover | `(a,a,0) → (a,a,1)` | Θ(n² log n) |
//!
//! [`Process::measure`] runs one seeded trial and returns the exact
//! convergence step (the last effective interaction), which is what the
//! Table 1 bench sweeps and fits.
//!
//! # Example
//!
//! ```
//! use netcon_processes::Process;
//!
//! let steps = Process::OneWayEpidemic.measure(32, 7);
//! assert!(steps > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use netcon_core::{Link, Population, ProtocolBuilder, RuleProtocol, Simulation, StateId};
use netcon_graph::properties::is_maximum_matching;

const A: StateId = StateId::new(0);
const B: StateId = StateId::new(1);

/// One of the seven fundamental probabilistic processes of §3.3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Process {
    /// `(a, b) → (a, a)`; one initial `a`; ends when all nodes are `a`.
    OneWayEpidemic,
    /// `(a, a) → (a, b)`; all `a`; ends when a single `a` remains.
    OneToOneElimination,
    /// `(a, a, 0) → (b, b, 1)`; ends at a matching of cardinality ⌊n/2⌋.
    MaximumMatching,
    /// `(a, a) → (b, a)`, `(a, b) → (b, b)`; ends when no `a` remains.
    OneToAllElimination,
    /// `(a, b) → (a, c)`; one `a`; ends when `a` has met every node.
    MeetEverybody,
    /// `(a, a) → (b, b)`, `(a, b) → (b, b)`; ends when every node has
    /// interacted at least once.
    NodeCover,
    /// `(a, a, 0) → (a, a, 1)`; ends when every edge has been activated,
    /// i.e. all `n(n−1)/2` interactions have occurred.
    EdgeCover,
}

impl Process {
    /// All seven processes, in Table 1 order.
    #[must_use]
    pub fn all() -> [Process; 7] {
        [
            Process::OneWayEpidemic,
            Process::OneToOneElimination,
            Process::MaximumMatching,
            Process::OneToAllElimination,
            Process::MeetEverybody,
            Process::NodeCover,
            Process::EdgeCover,
        ]
    }

    /// The paper's name for the process.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Process::OneWayEpidemic => "One-way epidemic",
            Process::OneToOneElimination => "One-to-one elimination",
            Process::MaximumMatching => "Maximum matching",
            Process::OneToAllElimination => "One-to-all elimination",
            Process::MeetEverybody => "Meet everybody",
            Process::NodeCover => "Node cover",
            Process::EdgeCover => "Edge cover",
        }
    }

    /// The expected time proved in Table 1.
    #[must_use]
    pub fn theory(self) -> &'static str {
        match self {
            Process::OneWayEpidemic | Process::OneToAllElimination | Process::NodeCover => {
                "Θ(n log n)"
            }
            Process::OneToOneElimination | Process::MaximumMatching => "Θ(n²)",
            Process::MeetEverybody | Process::EdgeCover => "Θ(n² log n)",
        }
    }

    /// The polynomial exponent of the bound (the `k` in `Θ(n^k)` or
    /// `Θ(n^k log n)`).
    #[must_use]
    pub fn theory_exponent(self) -> f64 {
        match self {
            Process::OneWayEpidemic | Process::OneToAllElimination | Process::NodeCover => 1.0,
            Process::OneToOneElimination | Process::MaximumMatching => 2.0,
            Process::MeetEverybody | Process::EdgeCover => 2.0,
        }
    }

    /// Whether the bound carries a `log n` factor.
    #[must_use]
    pub fn theory_has_log(self) -> bool {
        matches!(
            self,
            Process::OneWayEpidemic
                | Process::OneToAllElimination
                | Process::NodeCover
                | Process::MeetEverybody
                | Process::EdgeCover
        )
    }

    /// Builds the process as a protocol.
    #[must_use]
    pub fn protocol(self) -> RuleProtocol {
        let mut b = ProtocolBuilder::new(self.name());
        let a = b.state("a");
        match self {
            Process::OneWayEpidemic => {
                let s = b.state("b");
                b.rule((a, s, Link::Off), (a, a, Link::Off));
            }
            Process::OneToOneElimination => {
                let s = b.state("b");
                b.rule((a, a, Link::Off), (a, s, Link::Off));
            }
            Process::MaximumMatching => {
                let s = b.state("b");
                b.rule((a, a, Link::Off), (s, s, Link::On));
            }
            Process::OneToAllElimination => {
                let s = b.state("b");
                b.rule((a, a, Link::Off), (s, a, Link::Off));
                b.rule((a, s, Link::Off), (s, s, Link::Off));
            }
            Process::MeetEverybody => {
                let s = b.state("b");
                let c = b.state("c");
                b.rule((a, s, Link::Off), (a, c, Link::Off));
            }
            Process::NodeCover => {
                let s = b.state("b");
                b.rule((a, a, Link::Off), (s, s, Link::Off));
                b.rule((a, s, Link::Off), (s, s, Link::Off));
            }
            Process::EdgeCover => {
                b.rule((a, a, Link::Off), (a, a, Link::On));
            }
        }
        b.build().expect("the §3.3 processes are well-formed")
    }

    /// The initial configuration on `n` nodes: all nodes in `a`, except
    /// the epidemic and meet-everybody processes which start with a single
    /// distinguished `a` (node 0) and everyone else in `b`.
    #[must_use]
    pub fn initial_population(self, n: usize) -> Population<StateId> {
        match self {
            Process::OneWayEpidemic | Process::MeetEverybody => {
                let mut pop = Population::new(n, B);
                pop.set_state(0, A);
                pop
            }
            _ => Population::new(n, A),
        }
    }

    /// Whether the process has converged in `pop`.
    #[must_use]
    pub fn is_done(self, pop: &Population<StateId>) -> bool {
        match self {
            Process::OneWayEpidemic => pop.count_where(|s| *s != A) == 0,
            Process::OneToOneElimination => pop.count_where(|s| *s == A) == 1,
            Process::MaximumMatching => is_maximum_matching(pop.edges()),
            Process::OneToAllElimination | Process::NodeCover => pop.count_where(|s| *s == A) == 0,
            Process::MeetEverybody => pop.count_where(|s| *s == B) == 0,
            Process::EdgeCover => pop.edges().active_count() == pop.edges().pair_count(),
        }
    }

    /// Runs one trial on `n` nodes under the uniform random scheduler and
    /// returns the convergence time in steps (the last effective
    /// interaction — the paper's sequential running time).
    ///
    /// # Panics
    ///
    /// Panics if the process somehow fails to converge within a generous
    /// `Θ(n² log² n)`-scaled safety budget (which would indicate an engine
    /// bug — all seven processes converge with probability 1).
    #[must_use]
    pub fn measure(self, n: usize, seed: u64) -> u64 {
        let pop = self.initial_population(n);
        let mut sim = Simulation::from_population(self.protocol(), pop, seed);
        let nf = n as f64;
        let budget = (200.0 * nf * nf * nf.ln().max(1.0).powi(2)) as u64 + 100_000;
        let outcome = sim.run_until(|p| self.is_done(p), budget);
        outcome.last_effective().unwrap_or_else(|| {
            panic!(
                "{} did not converge on n={n} within {budget} steps",
                self.name()
            )
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_processes_converge() {
        for p in Process::all() {
            for n in [2, 3, 8, 16] {
                let steps = p.measure(n, 42);
                assert!(
                    steps > 0 || n == 1,
                    "{} produced zero steps at n={n}",
                    p.name()
                );
            }
        }
    }

    #[test]
    fn epidemic_spreads_to_everyone() {
        let p = Process::OneWayEpidemic;
        let pop = p.initial_population(10);
        assert_eq!(pop.count_where(|s| *s == A), 1);
        let mut sim = Simulation::from_population(p.protocol(), pop, 3);
        assert!(sim.run_until(|pp| p.is_done(pp), 100_000).stabilized());
        assert_eq!(sim.population().count_where(|s| *s == A), 10);
    }

    #[test]
    fn one_to_one_keeps_exactly_one() {
        let p = Process::OneToOneElimination;
        let mut sim = Simulation::from_population(p.protocol(), p.initial_population(17), 5);
        assert!(sim.run_until(|pp| p.is_done(pp), 1_000_000).stabilized());
        assert_eq!(sim.population().count_where(|s| *s == A), 1);
        assert!(sim.is_quiescent(), "a single survivor cannot be eliminated");
    }

    #[test]
    fn matching_is_maximum() {
        let p = Process::MaximumMatching;
        for n in [6, 7] {
            let mut sim = Simulation::from_population(p.protocol(), p.initial_population(n), 1);
            assert!(sim.run_until(|pp| p.is_done(pp), 1_000_000).stabilized());
            assert_eq!(sim.population().edges().active_count(), n / 2);
        }
    }

    #[test]
    fn meet_everybody_touches_all() {
        let p = Process::MeetEverybody;
        let mut sim = Simulation::from_population(p.protocol(), p.initial_population(9), 8);
        assert!(sim.run_until(|pp| p.is_done(pp), 10_000_000).stabilized());
        // All non-distinguished nodes have been met (state c).
        assert_eq!(sim.population().count_where(|s| *s == B), 0);
    }

    #[test]
    fn edge_cover_activates_every_edge() {
        let p = Process::EdgeCover;
        let mut sim = Simulation::from_population(p.protocol(), p.initial_population(8), 2);
        assert!(sim.run_until(|pp| p.is_done(pp), 10_000_000).stabilized());
        assert_eq!(sim.population().edges().active_count(), 28);
    }

    #[test]
    fn measured_times_scale_with_theory_ordering() {
        // At a fixed n the Θ(n log n) processes must be far faster than
        // the Θ(n² log n) ones; aggregate over a few seeds for stability.
        let n = 64;
        let avg = |p: Process| -> f64 { (0..5).map(|s| p.measure(n, s) as f64).sum::<f64>() / 5.0 };
        let epidemic = avg(Process::OneWayEpidemic);
        let elim = avg(Process::OneToOneElimination);
        let edge_cover = avg(Process::EdgeCover);
        assert!(
            epidemic < elim && elim < edge_cover,
            "ordering violated: epidemic={epidemic}, elim={elim}, edge_cover={edge_cover}"
        );
    }

    #[test]
    fn deterministic_per_seed() {
        for p in Process::all() {
            assert_eq!(p.measure(12, 9), p.measure(12, 9), "{}", p.name());
        }
    }
}
