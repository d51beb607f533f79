//! The universal constructor of Theorem 14 (Figs. 3, 4 and 6).
//!
//! Starting from the U–D configuration of Fig. 4 — a line on the `U`
//! nodes, each matched to a distinct `D` node — the machine:
//!
//! 1. **measures** its line: a token walks from the leader endpoint to the
//!    far endpoint and back, counting columns (this is how the simulated
//!    TM learns its space);
//! 2. **draws** a random graph `G₂ ∈ G(m, ½)` on the `D` nodes: for every
//!    column pair `(i, j)` a token walks out and marks the two matched
//!    `D` nodes (Fig. 6); when the two marked `D` nodes meet they flip a
//!    fair coin, set their edge accordingly, and report the outcome back
//!    up through the token — so each `D` edge receives exactly one coin
//!    toss and all `2^(m choose 2)` graphs are equiprobable;
//! 3. **decides** `G₂ ∈ L` with the language's decider (the TM layer —
//!    validated separately on the population line in
//!    [`line_tm`](crate::line_tm));
//! 4. on reject, simply **redraws** (the next sweep overwrites every
//!    edge with a fresh coin — Fig. 3's loop); on accept, **releases**:
//!    a final sweep deactivates every matching edge and moves the `D`
//!    nodes into the output state, after which the machine freezes.
//!
//! ## Fidelity notes (see DESIGN.md §6)
//!
//! * The token walks use the same `l`-mark trail mechanics as the head
//!   movement of Fig. 5: outbound tokens avoid the marked neighbour and
//!   leave marks behind; inbound tokens follow and clear them. Every
//!   individual movement is a pairwise interaction between adjacent
//!   nodes, exactly as in the paper.
//! * The paper stores the column counters in the line's distributed
//!   binary memory; here tokens and the leader carry them in their own
//!   state (`O(log n)` bits each, so the state space is polynomial rather
//!   than constant — the interaction pattern, and hence the dynamics, are
//!   unchanged). Likewise the leader accumulates the drawn adjacency bits
//!   and invokes the decider directly instead of re-running the
//!   separately-validated line TM.
//! * Reinitialization-on-line-growth is replaced by starting from the
//!   completed partition + line (sequential composition); the
//!   interaction-level partition and line protocols are exercised by
//!   their own crates.

use netcon_core::{Link, Machine, Population};
use netcon_graph::matrix::AdjMatrix;
use netcon_graph::EdgeSet;
use netcon_tm::decider::GraphLanguage;
use rand::{Rng, RngExt};

/// Mark on a `D` node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DMark {
    /// Unmarked.
    None,
    /// First endpoint of the pair being drawn.
    DrawFirst,
    /// Second endpoint of the pair being drawn.
    DrawSecond,
    /// Holds the drawn coin value until the token collects it.
    Report(bool),
    /// Released into the output network.
    Released,
}

/// A `D` (useful-space) node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DNode {
    /// Current mark.
    pub mark: DMark,
}

/// The walking token's job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Job {
    /// Walk out to the far endpoint, counting columns.
    MeasureOut {
        /// Columns counted so far (the current position).
        count: u32,
    },
    /// Carry the measured column count home.
    MeasureBack {
        /// Total number of non-leader columns.
        count: u32,
    },
    /// Walk out to column `i` and mark its `D` partner as first.
    DrawOutFirst {
        /// Hops left to the first column.
        remaining: u32,
        /// Further hops from the first to the second column.
        gap: u32,
    },
    /// Walk on to column `j` and mark its `D` partner as second.
    DrawOutSecond {
        /// Hops left to the second column.
        remaining: u32,
    },
    /// Parked at the second column, waiting for the coin report.
    DrawWait,
    /// Carry the drawn bit home.
    DrawBack {
        /// The coin value for the current pair.
        bit: bool,
    },
    /// Walk out releasing every column's `D` partner.
    ReleaseOut {
        /// Whether this node's partner has been released yet.
        released_here: bool,
    },
    /// Walk home after the release sweep.
    ReleaseBack,
}

/// The leader's phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Measuring the line (learning `m`).
    Measure,
    /// Drawing and deciding random graphs.
    Draw,
    /// Releasing the accepted graph.
    Release,
    /// Frozen: the output is stable.
    Done,
}

/// The leader node's bookkeeping (the paper keeps this in the line's
/// distributed memory; see the module docs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Leader {
    /// Current phase.
    pub phase: Phase,
    /// Number of columns (`m` = |U| = |D|), known after measuring.
    pub m: u32,
    /// First column of the pair being drawn.
    pub i: u32,
    /// Second column of the pair being drawn.
    pub j: u32,
    /// Adjacency bits collected this sweep, in pair order.
    pub bits: Vec<bool>,
    /// Whether the token is away.
    pub token_out: bool,
    /// Whether the leader's own `D` partner is marked for the current
    /// pair (used when `i == 0`).
    pub self_marked: bool,
    /// Whether the leader's own `D` partner has been released.
    pub self_released: bool,
    /// Completed draw sweeps that ended in rejection (Fig. 3 loop count).
    pub rejections: u32,
}

/// A non-leader `U` node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Plain {
    /// Trail mark for token routing (the `l` marks of Fig. 5).
    pub trail: bool,
    /// The far (non-leader) endpoint of the line.
    pub is_far_end: bool,
    /// The token, when parked here.
    pub token: Option<Job>,
}

/// A node state of the universal constructor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UcState {
    /// The leader `U` endpoint.
    Leader(Leader),
    /// Any other `U` node.
    U(Plain),
    /// A useful-space node.
    D(DNode),
}

/// The universal-constructor machine for a target language.
pub struct UniversalConstructor {
    lang: Box<dyn GraphLanguage + Send + Sync>,
}

impl std::fmt::Debug for UniversalConstructor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("UniversalConstructor")
            .field("lang", &self.lang.name())
            .finish()
    }
}

enum Effect {
    None,
    Update(UcState, UcState),
    NeedsCoin,
}

impl UniversalConstructor {
    /// Creates the constructor for `lang`.
    #[must_use]
    pub fn new(lang: Box<dyn GraphLanguage + Send + Sync>) -> Self {
        Self { lang }
    }

    /// The target language.
    #[must_use]
    pub fn language(&self) -> &(dyn GraphLanguage + Send + Sync) {
        &*self.lang
    }

    /// The Fig. 4 starting configuration on `2m` nodes: `U` nodes
    /// `0..m` in a line (leader at node 0), `D` node `m + c` matched to
    /// `U` node `c`.
    ///
    /// # Panics
    ///
    /// Panics if `m < 2`.
    #[must_use]
    pub fn initial_population(m: usize) -> Population<UcState> {
        assert!(m >= 2, "the constructor needs at least two columns");
        let mut pop = Population::new(2 * m, UcState::D(DNode { mark: DMark::None }));
        pop.set_state(
            0,
            UcState::Leader(Leader {
                phase: Phase::Measure,
                m: 0,
                i: 0,
                j: 0,
                bits: Vec::new(),
                token_out: false,
                self_marked: false,
                self_released: false,
                rejections: 0,
            }),
        );
        for c in 1..m {
            pop.set_state(
                c,
                UcState::U(Plain {
                    trail: false,
                    is_far_end: c == m - 1,
                    token: None,
                }),
            );
        }
        for c in 0..m - 1 {
            pop.edges_mut().activate(c, c + 1);
        }
        for c in 0..m {
            pop.edges_mut().activate(c, m + c);
        }
        pop
    }

    /// The next job the leader launches, given its phase and pair.
    fn launch_job(leader: &Leader) -> Job {
        match leader.phase {
            Phase::Measure => Job::MeasureOut { count: 1 },
            Phase::Draw => {
                if leader.i == 0 {
                    Job::DrawOutSecond {
                        remaining: leader.j,
                    }
                } else {
                    Job::DrawOutFirst {
                        remaining: leader.i,
                        gap: leader.j - leader.i,
                    }
                }
            }
            Phase::Release => Job::ReleaseOut {
                released_here: false,
            },
            Phase::Done => unreachable!("no launches when done"),
        }
    }

    /// Handles token arrival bookkeeping at a plain node (far-end
    /// turnarounds, countdown-zero job switches).
    fn arrive(job: Job, node: &Plain) -> Job {
        match job {
            Job::MeasureOut { count } => {
                if node.is_far_end {
                    Job::MeasureBack { count }
                } else {
                    Job::MeasureOut { count }
                }
            }
            other => other,
        }
    }

    /// The leader absorbs a returning token.
    fn absorb(&self, leader: &Leader, job: &Job) -> Leader {
        let mut l = leader.clone();
        l.token_out = false;
        match job {
            Job::MeasureBack { count } => {
                l.m = count + 1;
                l.phase = Phase::Draw;
                l.i = 0;
                l.j = 1;
                l.bits.clear();
                l.self_marked = false;
            }
            Job::DrawBack { bit } => {
                l.bits.push(*bit);
                l.self_marked = false;
                // Advance the pair (i, j) in row-major upper-triangle
                // order; decide when the sweep completes.
                if l.j + 1 < l.m {
                    l.j += 1;
                } else if l.i + 2 < l.m {
                    l.i += 1;
                    l.j = l.i + 1;
                } else {
                    // Sweep complete: decide.
                    let m = l.m as usize;
                    let mut g = AdjMatrix::new(m);
                    let mut it = l.bits.iter();
                    for a in 0..m {
                        for b in (a + 1)..m {
                            if *it.next().expect("one bit per pair") {
                                g.set(a, b, true);
                            }
                        }
                    }
                    if self.lang.accepts(&g) {
                        l.phase = Phase::Release;
                        l.self_released = false;
                    } else {
                        l.rejections += 1;
                        l.i = 0;
                        l.j = 1;
                        l.bits.clear();
                    }
                }
            }
            Job::ReleaseBack => {
                l.phase = Phase::Done;
            }
            other => unreachable!("leader absorbed an outbound job {other:?}"),
        }
        l
    }

    /// Deterministic interaction logic. `coin` supplies the fair coin for
    /// the draw rule; when `None` and a coin is required, reports
    /// [`Effect::NeedsCoin`] (used by `can_affect`).
    #[allow(clippy::too_many_lines)]
    fn try_interact(&self, a: &UcState, b: &UcState, link: Link, coin: Option<bool>) -> Effect {
        use UcState as S;
        match (a, b) {
            // ---- Leader ↔ adjacent plain U node: launch / absorb ----
            (S::Leader(l), S::U(p)) | (S::U(p), S::Leader(l)) if link == Link::On => {
                let leader_first = matches!(a, S::Leader(_));
                // Absorb an inbound token parked next to the leader.
                if let Some(job) = &p.token {
                    // When the line has a single non-leader column, the
                    // far end is adjacent to the leader and the release
                    // sweep turns around at delivery.
                    let job = if p.is_far_end
                        && matches!(
                            job,
                            Job::ReleaseOut {
                                released_here: true
                            }
                        ) {
                        Job::ReleaseBack
                    } else {
                        job.clone()
                    };
                    let inbound = matches!(
                        job,
                        Job::MeasureBack { .. } | Job::DrawBack { .. } | Job::ReleaseBack
                    );
                    if inbound {
                        let l2 = self.absorb(l, &job);
                        let mut p2 = p.clone();
                        p2.token = None;
                        return pack(leader_first, S::Leader(l2), S::U(p2));
                    }
                    return Effect::None;
                }
                // Launch a token if the phase calls for one.
                let ready = match l.phase {
                    Phase::Measure => !l.token_out,
                    Phase::Draw => !l.token_out && (l.i != 0 || l.self_marked),
                    Phase::Release => !l.token_out && l.self_released,
                    Phase::Done => false,
                };
                if !ready {
                    return Effect::None;
                }
                let mut l2 = l.clone();
                l2.token_out = true;
                let mut p2 = p.clone();
                let job = Self::launch_job(l);
                // The launch is the hop onto column 1.
                let job = match job {
                    Job::MeasureOut { .. } => Job::MeasureOut { count: 1 },
                    Job::DrawOutFirst { remaining, gap } => Job::DrawOutFirst {
                        remaining: remaining - 1,
                        gap,
                    },
                    Job::DrawOutSecond { remaining } => Job::DrawOutSecond {
                        remaining: remaining - 1,
                    },
                    other => other,
                };
                p2.token = Some(Self::arrive(job, p));
                pack(leader_first, S::Leader(l2), S::U(p2))
            }
            // ---- Leader ↔ its D partner ----
            (S::Leader(l), S::D(d)) | (S::D(d), S::Leader(l)) if link == Link::On => {
                let leader_first = matches!(a, S::Leader(_));
                match l.phase {
                    Phase::Draw if l.i == 0 && !l.self_marked && d.mark == DMark::None => {
                        let mut l2 = l.clone();
                        l2.self_marked = true;
                        let d2 = DNode {
                            mark: DMark::DrawFirst,
                        };
                        pack(leader_first, S::Leader(l2), S::D(d2))
                    }
                    Phase::Release if !l.self_released => {
                        let mut l2 = l.clone();
                        l2.self_released = true;
                        let d2 = DNode {
                            mark: DMark::Released,
                        };
                        // The matching edge is dropped: the D node is free.
                        if leader_first {
                            Effect::Update(S::Leader(l2), S::D(d2))
                        } else {
                            Effect::Update(S::D(d2), S::Leader(l2))
                        }
                    }
                    _ => Effect::None,
                }
            }
            // ---- Token-holding U node ↔ its D partner ----
            (S::U(p), S::D(d)) | (S::D(d), S::U(p)) if link == Link::On => {
                let u_first = matches!(a, S::U(_));
                let Some(job) = &p.token else {
                    return Effect::None;
                };
                match job {
                    Job::DrawOutFirst { remaining: 0, gap } if d.mark == DMark::None => {
                        let mut p2 = p.clone();
                        p2.token = Some(Job::DrawOutSecond { remaining: *gap });
                        pack(
                            u_first,
                            S::U(p2),
                            S::D(DNode {
                                mark: DMark::DrawFirst,
                            }),
                        )
                    }
                    Job::DrawOutSecond { remaining: 0 } if d.mark == DMark::None => {
                        let mut p2 = p.clone();
                        p2.token = Some(Job::DrawWait);
                        pack(
                            u_first,
                            S::U(p2),
                            S::D(DNode {
                                mark: DMark::DrawSecond,
                            }),
                        )
                    }
                    Job::DrawWait => {
                        if let DMark::Report(bit) = d.mark {
                            let mut p2 = p.clone();
                            p2.token = Some(Job::DrawBack { bit });
                            pack(u_first, S::U(p2), S::D(DNode { mark: DMark::None }))
                        } else {
                            Effect::None
                        }
                    }
                    Job::ReleaseOut {
                        released_here: false,
                    } if d.mark != DMark::Released => {
                        let mut p2 = p.clone();
                        p2.token = Some(Job::ReleaseOut {
                            released_here: true,
                        });
                        pack(
                            u_first,
                            S::U(p2),
                            S::D(DNode {
                                mark: DMark::Released,
                            }),
                        )
                    }
                    _ => Effect::None,
                }
            }
            // ---- Two marked D nodes: the coin toss (Fig. 6) ----
            (S::D(d1), S::D(d2)) => {
                let pair = matches!(
                    (d1.mark, d2.mark),
                    (DMark::DrawFirst, DMark::DrawSecond) | (DMark::DrawSecond, DMark::DrawFirst)
                );
                if !pair {
                    return Effect::None;
                }
                let Some(bit) = coin else {
                    return Effect::NeedsCoin;
                };
                let mk = |mark: DMark| UcState::D(DNode { mark });
                let (first_a, report) = if d1.mark == DMark::DrawFirst {
                    (true, DMark::Report(bit))
                } else {
                    (false, DMark::Report(bit))
                };
                let (a2, b2) = if first_a {
                    (mk(DMark::None), mk(report))
                } else {
                    (mk(report), mk(DMark::None))
                };
                Effect::Update(a2, b2)
            }
            // ---- Token movement along the line ----
            (S::U(p1), S::U(p2)) if link == Link::On => match (&p1.token, &p2.token) {
                (Some(_), None) => self.move_token(p1, p2, true),
                (None, Some(_)) => self.move_token(p2, p1, false),
                _ => Effect::None,
            },
            _ => Effect::None,
        }
    }

    /// Moves (or refuses to move) the token from `from` to `to`;
    /// `from_first` preserves argument order in the returned effect.
    fn move_token(&self, from: &Plain, to: &Plain, from_first: bool) -> Effect {
        let job = from.token.clone().expect("token present");
        let outbound_job = |job: &Job| -> Option<Job> {
            match job {
                Job::MeasureOut { count } => Some(Job::MeasureOut { count: count + 1 }),
                Job::DrawOutFirst { remaining, gap } if *remaining > 0 => Some(Job::DrawOutFirst {
                    remaining: remaining - 1,
                    gap: *gap,
                }),
                Job::DrawOutSecond { remaining } if *remaining > 0 => Some(Job::DrawOutSecond {
                    remaining: remaining - 1,
                }),
                Job::ReleaseOut { released_here } if *released_here => Some(Job::ReleaseOut {
                    released_here: false,
                }),
                _ => None,
            }
        };
        // The far end turns a finished release sweep around.
        let (job, inbound) = if from.is_far_end
            && matches!(
                job,
                Job::ReleaseOut {
                    released_here: true
                }
            ) {
            (Job::ReleaseBack, true)
        } else {
            let inbound = matches!(
                job,
                Job::MeasureBack { .. } | Job::DrawBack { .. } | Job::ReleaseBack
            );
            (job, inbound)
        };
        if inbound {
            // Move towards the leader: follow the trail.
            if !to.trail {
                return Effect::None;
            }
            let mut f2 = from.clone();
            f2.token = None;
            let mut t2 = to.clone();
            t2.trail = false;
            t2.token = Some(job);
            return pack2(from_first, f2, t2);
        }
        if from.is_far_end {
            return Effect::None; // nowhere further out
        }
        // Outbound: avoid the trail (it leads back to the leader); a
        // token with local work pending (marking or releasing its D
        // partner, or waiting for a report) does not move.
        if to.trail || to.token.is_some() {
            return Effect::None;
        }
        let Some(job2) = outbound_job(&job) else {
            return Effect::None;
        };
        let mut f2 = from.clone();
        f2.token = None;
        f2.trail = true;
        let mut t2 = to.clone();
        t2.token = Some(Self::arrive(job2, to));
        pack2(from_first, f2, t2)
    }
}

/// Orders an update according to the original argument order.
fn pack(first_is_first: bool, x: UcState, y: UcState) -> Effect {
    if first_is_first {
        Effect::Update(x, y)
    } else {
        Effect::Update(y, x)
    }
}

fn pack2(from_first: bool, f: Plain, t: Plain) -> Effect {
    pack(from_first, UcState::U(f), UcState::U(t))
}

impl Machine for UniversalConstructor {
    type State = UcState;

    fn name(&self) -> &str {
        "Universal-Constructor"
    }

    fn initial_state(&self) -> UcState {
        UcState::D(DNode { mark: DMark::None })
    }

    fn is_output(&self, state: &UcState) -> bool {
        matches!(
            state,
            UcState::D(DNode {
                mark: DMark::Released
            })
        )
    }

    fn interact(
        &self,
        a: &UcState,
        b: &UcState,
        link: Link,
        rng: &mut dyn Rng,
    ) -> Option<(UcState, UcState, Link)> {
        // Determine whether a coin is needed without consuming randomness.
        let effect = match self.try_interact(a, b, link, None) {
            Effect::NeedsCoin => {
                let bit = rng.random_bool(0.5);
                self.try_interact(a, b, link, Some(bit))
            }
            e => e,
        };
        match effect {
            Effect::None | Effect::NeedsCoin => None,
            Effect::Update(a2, b2) => {
                let link2 = next_link(a, b, &a2, &b2, link);
                if a2 == *a && b2 == *b && link2 == link {
                    None
                } else {
                    Some((a2, b2, link2))
                }
            }
        }
    }

    fn can_affect(&self, a: &UcState, b: &UcState, link: Link) -> bool {
        !matches!(self.try_interact(a, b, link, None), Effect::None)
    }
}

/// Computes the new edge state from the transition's semantics: the
/// coin-toss rule sets the edge to the drawn bit, and release transitions
/// drop the matching edge; everything else preserves it.
fn next_link(a: &UcState, b: &UcState, a2: &UcState, b2: &UcState, link: Link) -> Link {
    use UcState as S;
    // Draw coin: one D transitions to Report(bit): edge becomes bit.
    for d in [a2, b2] {
        if let S::D(DNode {
            mark: DMark::Report(bit),
        }) = d
        {
            // Only when the *other* side also changed from a Draw mark.
            let was_pair = matches!(
                (a, b),
                (
                    S::D(DNode {
                        mark: DMark::DrawFirst
                    }),
                    S::D(_)
                ) | (
                    S::D(_),
                    S::D(DNode {
                        mark: DMark::DrawFirst
                    })
                )
            );
            if was_pair {
                return Link::from(*bit);
            }
        }
    }
    // Release: a D becomes Released while its partner edge was on.
    let released_now = |x: &UcState, x2: &UcState| {
        !matches!(
            x,
            S::D(DNode {
                mark: DMark::Released
            })
        ) && matches!(
            x2,
            S::D(DNode {
                mark: DMark::Released
            })
        )
    };
    if released_now(a, a2) || released_now(b, b2) {
        return Link::Off;
    }
    link
}

/// Extracts the graph currently drawn on the `D` nodes, relabelled to
/// `0..m` in column order (assumes the canonical initial layout of
/// [`UniversalConstructor::initial_population`]).
#[must_use]
pub fn drawn_graph(pop: &Population<UcState>) -> EdgeSet {
    let d: Vec<usize> = pop.nodes_where(|s| matches!(s, UcState::D(_)));
    pop.edges().induced(&d)
}

/// The leader's bookkeeping, for inspection in tests and benches.
#[must_use]
pub fn leader_of(pop: &Population<UcState>) -> Option<&Leader> {
    pop.states().iter().find_map(|s| match s {
        UcState::Leader(l) => Some(l),
        _ => None,
    })
}

/// Certifies output stability: the leader is done and every `D` node is
/// released (no rule touches edges or marks from here).
#[must_use]
pub fn is_stable(pop: &Population<UcState>) -> bool {
    leader_of(pop).is_some_and(|l| l.phase == Phase::Done)
        && pop.states().iter().all(|s| match s {
            UcState::D(d) => d.mark == DMark::Released,
            _ => true,
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use netcon_core::testing::assert_stabilizes_sim;
    use netcon_core::Simulation;
    use netcon_graph::components::is_connected;
    use netcon_graph::properties::degree_histogram;
    use netcon_tm::decider::{Connected, GraphLanguage, MinEdges, TriangleFree};

    fn run(m: usize, lang: Box<dyn GraphLanguage + Send + Sync>, seed: u64) -> Population<UcState> {
        let pop = UniversalConstructor::initial_population(m);
        let sim = Simulation::from_population(UniversalConstructor::new(lang), pop, seed);
        let sim = assert_stabilizes_sim(sim, is_stable, 2_000_000_000, 100_000);
        sim.population().clone()
    }

    #[test]
    fn constructs_a_connected_graph() {
        for m in [2, 4, 6] {
            for seed in 0..3 {
                let pop = run(m, Box::new(Connected), seed);
                let g = drawn_graph(&pop);
                assert_eq!(g.n(), m);
                assert!(is_connected(&g), "accepted graph must be connected");
                // All matching edges are gone: D nodes only connect to D.
                let hist = degree_histogram(pop.edges());
                let _ = hist;
                for u in pop.nodes_where(|s| matches!(s, UcState::D(_))) {
                    for v in pop.edges().neighbors(u) {
                        assert!(
                            matches!(pop.state(v), UcState::D(_)),
                            "released D nodes must not touch the waste"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn rejection_loop_redraws_until_accept() {
        // A language rejecting ~everything sparse: at least 60% of the
        // possible edges. For m = 4 (6 pairs) P[accept] per draw is small
        // enough that rejections are very likely across seeds.
        let mut any_rejections = false;
        for seed in 0..5 {
            let lang = MinEdges::new("dense-60", |n| n * (n - 1) * 3 / 10);
            let pop = run(4, Box::new(lang), seed);
            let l = leader_of(&pop).expect("leader exists");
            any_rejections |= l.rejections > 0;
            let g = drawn_graph(&pop);
            assert!(g.active_count() >= 4 * 3 * 3 / 10);
        }
        assert!(
            any_rejections,
            "a 60%-density threshold should force at least one redraw across 5 runs"
        );
    }

    #[test]
    fn accepts_triangle_free_graphs() {
        for seed in 0..3 {
            let pop = run(5, Box::new(TriangleFree), seed);
            let g = drawn_graph(&pop);
            assert!(TriangleFree.accepts(&netcon_graph::matrix::AdjMatrix::from(&g)));
        }
    }

    #[test]
    fn measure_phase_learns_the_line_length() {
        for m in [2, 3, 7] {
            let pop = UniversalConstructor::initial_population(m);
            let mut sim =
                Simulation::from_population(UniversalConstructor::new(Box::new(Connected)), pop, 1);
            let measured =
                |p: &Population<UcState>| leader_of(p).is_some_and(|l| l.phase != Phase::Measure);
            assert!(sim.run_until(measured, 50_000_000).stabilized());
            assert_eq!(
                leader_of(sim.population()).expect("leader").m,
                m as u32,
                "leader must learn m = {m}"
            );
        }
    }

    #[test]
    fn draws_are_equiprobable_ish() {
        // m = 2: a single pair; the drawn graph is one coin. Over many
        // seeds both outcomes must appear for the always-accepting
        // language.
        let lang_factory = || MinEdges::new("anything", |_| 0);
        let mut edge_on = 0;
        let trials = 24;
        for seed in 0..trials {
            let pop = run(2, Box::new(lang_factory()), seed);
            if drawn_graph(&pop).active_count() == 1 {
                edge_on += 1;
            }
        }
        assert!(
            edge_on > 3 && edge_on < trials - 3,
            "single-edge coin should be fair-ish: {edge_on}/{trials}"
        );
    }

    #[test]
    fn output_states_are_only_released_d_nodes() {
        let uc = UniversalConstructor::new(Box::new(Connected));
        assert!(uc.is_output(&UcState::D(DNode {
            mark: DMark::Released
        })));
        assert!(!uc.is_output(&UcState::D(DNode { mark: DMark::None })));
        assert!(!uc.is_output(&UcState::U(Plain {
            trail: false,
            is_far_end: false,
            token: None,
        })));
    }
}
