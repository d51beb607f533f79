//! Supernodes — Theorem 18: partitioning the population into `2^j` named
//! lines ("supernodes") of `j` nodes each, for the largest completed
//! phase `j`.
//!
//! A single leader (elected by pairwise duels; the loser *reverts* its
//! whole component back to free nodes, exactly as in the theorem's proof)
//! builds the structure in phases. During phase `j` it extends every
//! existing line to length `j` and then creates as many new length-`j`
//! lines, doubling the line count; every completed operation assigns the
//! line its fresh name, `cname` in binary, stored bitwise in the line's
//! members (member at position `p` holds bit `p`). When the free nodes
//! run out the structure stalls — necessarily with at most one recruiting
//! endpoint waiting forever — and the last completed phase leaves
//! `k = 2^j` uniquely-named supernodes of `⌈log k⌉ = j` nodes.
//!
//! All operations are pairwise: the leader is directly connected to the
//! left endpoint of every line (the paper's star-of-lines layout);
//! extension/creation orders travel down a line as member-to-member task
//! marks, recruits attach free nodes at the right endpoint, and
//! acknowledgements travel back rewriting the name bits (rewriting on the
//! acknowledgement pass keeps names consistent if an operation stalls).
//!
//! As with the universal constructor, counters that the paper keeps in
//! the leader's line-distributed memory live in the leader/task states
//! here (`O(log n)` bits each; see DESIGN.md §6).

use netcon_core::{Link, Machine, Population};
use rand::{Rng, RngExt};

/// A task mark travelling along a line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Task {
    /// Travel right to the current right endpoint (extension order).
    Extend {
        /// The name the line will take once extended.
        name: u32,
        /// The line's length after the extension.
        len: u16,
    },
    /// Wait at the right endpoint for a free node to attach.
    Recruit {
        /// The name being assigned.
        name: u32,
        /// The line's target length.
        len: u16,
    },
    /// Travel left rewriting name bits after a completed recruit.
    AckLeft {
        /// The name being assigned.
        name: u32,
        /// The line's new length.
        len: u16,
    },
    /// Parked at the left endpoint: completion report for the leader.
    Done {
        /// The line's new length.
        len: u16,
    },
    /// Reversion mark: travels right, then releases the line from the
    /// right end inwards.
    Revert,
}

/// A line member.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Member {
    /// Position within the line (0 = left endpoint, adjacent to the
    /// leader).
    pub pos: u16,
    /// This member's bit of the line's name (bit `pos`).
    pub bit: bool,
    /// Whether this member is currently the right endpoint.
    pub is_right_end: bool,
    /// The line's completed length (maintained at the left endpoint
    /// only).
    pub line_len: u16,
    /// An in-flight task mark, if any.
    pub task: Option<Task>,
}

/// The operation a busy leader is waiting on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// Extending an existing line.
    Extend,
    /// Creating a new line.
    Create,
}

/// The (candidate) leader's bookkeeping.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnLeader {
    /// Target line length of the current phase.
    pub target: u16,
    /// Next name to assign (reset to 0 each phase).
    pub cname: u32,
    /// Completed lines currently attached.
    pub lines: u32,
    /// Extensions still to perform this phase.
    pub extends_left: u32,
    /// Creations still to perform this phase.
    pub creates_left: u32,
    /// The in-flight operation, if any.
    pub busy: Option<OpKind>,
}

impl SnLeader {
    /// A fresh candidate leader (phase 1: create two lines of length 1).
    #[must_use]
    pub fn fresh() -> Self {
        Self {
            target: 1,
            cname: 0,
            lines: 0,
            extends_left: 0,
            creates_left: 2,
            busy: None,
        }
    }
}

/// A loser leader reverting its component.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Wrecker {
    /// Lines still to revert (including any partial line).
    pub lines_left: u32,
}

/// A node state of the supernode organizer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnState {
    /// A leader (every node starts as one, with an empty component).
    Leader(SnLeader),
    /// A line member.
    Member(Member),
    /// A loser reverting its component.
    Wrecker(Wrecker),
    /// A free (released or defeated) node, available for recruitment.
    Free,
}

/// The supernode organizer machine.
#[derive(Debug, Clone, Copy, Default)]
pub struct Supernodes;

enum Effect {
    None,
    Update(SnState, SnState, Link),
    NeedsCoin,
}

impl Supernodes {
    fn bit_of(name: u32, pos: u16) -> bool {
        name >> pos & 1 == 1
    }

    #[allow(clippy::too_many_lines)]
    fn try_interact(a: &SnState, b: &SnState, link: Link, coin: Option<bool>) -> Effect {
        use SnState as S;
        match (a, b) {
            // ---- Duels (over inactive edges) ----
            (S::Leader(x), S::Leader(y)) if link == Link::Off => {
                // The loser reverts; with identical bookkeeping the winner
                // is chosen by the model's symmetry coin.
                let (a_wins, need_coin) = if x == y {
                    match coin {
                        None => return Effect::NeedsCoin,
                        Some(c) => (c, true),
                    }
                } else {
                    // Deterministic tie-break: the more advanced leader
                    // wins, so progress is never reverted needlessly.
                    (
                        (x.target, x.lines, x.cname) >= (y.target, y.lines, y.cname),
                        false,
                    )
                };
                let _ = need_coin;
                let loser_to_state = |l: &SnLeader| {
                    let partial = u32::from(matches!(l.busy, Some(OpKind::Create)));
                    if l.lines + partial == 0 {
                        S::Free
                    } else {
                        S::Wrecker(Wrecker {
                            lines_left: l.lines + partial,
                        })
                    }
                };
                if a_wins {
                    Effect::Update(a.clone(), loser_to_state(x_or(x, y, false)), link)
                } else {
                    Effect::Update(loser_to_state(x_or(x, y, true)), b.clone(), link)
                }
            }
            // ---- Leader ↔ free node: start a creation ----
            (S::Leader(l), S::Free) | (S::Free, S::Leader(l)) if link == Link::Off => {
                let leader_first = matches!(a, S::Leader(_));
                if l.busy.is_some() || l.extends_left > 0 || l.creates_left == 0 {
                    return Effect::None;
                }
                let mut l2 = l.clone();
                l2.busy = Some(OpKind::Create);
                let name = l.cname;
                let len = l.target;
                let member = Member {
                    pos: 0,
                    bit: Self::bit_of(name, 0),
                    is_right_end: true,
                    line_len: if len == 1 { 1 } else { 0 },
                    task: if len == 1 {
                        Some(Task::Done { len: 1 })
                    } else {
                        Some(Task::Recruit { name, len })
                    },
                };
                pack(leader_first, S::Leader(l2), S::Member(member), Link::On)
            }
            // ---- Leader ↔ left endpoint over the star edge ----
            (S::Leader(l), S::Member(m)) | (S::Member(m), S::Leader(l))
                if link == Link::On && m.pos == 0 =>
            {
                let leader_first = matches!(a, S::Leader(_));
                match &m.task {
                    // Completion report.
                    Some(Task::Done { len }) => {
                        let Some(op) = l.busy else {
                            return Effect::None;
                        };
                        let mut l2 = l.clone();
                        let mut m2 = m.clone();
                        m2.task = None;
                        l2.busy = None;
                        l2.cname += 1;
                        match op {
                            OpKind::Extend => l2.extends_left -= 1,
                            OpKind::Create => {
                                l2.creates_left -= 1;
                                l2.lines += 1;
                            }
                        }
                        debug_assert_eq!(*len, l2.target);
                        if l2.extends_left == 0 && l2.creates_left == 0 {
                            // Phase complete: double up.
                            l2.target += 1;
                            l2.cname = 0;
                            l2.extends_left = l2.lines;
                            l2.creates_left = l2.lines;
                        }
                        pack(leader_first, S::Leader(l2), S::Member(m2), link)
                    }
                    // Issue an extension order to an unextended line.
                    None if l.busy.is_none()
                        && l.extends_left > 0
                        && m.line_len + 1 == l.target =>
                    {
                        let mut l2 = l.clone();
                        l2.busy = Some(OpKind::Extend);
                        let mut m2 = m.clone();
                        let name = l.cname;
                        let len = l.target;
                        m2.task = Some(if m.is_right_end {
                            // Length-1 line: the left endpoint recruits
                            // directly.
                            Task::Recruit { name, len }
                        } else {
                            Task::Extend { name, len }
                        });
                        pack(leader_first, S::Leader(l2), S::Member(m2), link)
                    }
                    _ => Effect::None,
                }
            }
            // ---- Wrecker ↔ its left endpoints ----
            (S::Wrecker(w), S::Member(m)) | (S::Member(m), S::Wrecker(w))
                if link == Link::On && m.pos == 0 =>
            {
                let wrecker_first = matches!(a, S::Wrecker(_));
                if m.is_right_end {
                    // Single-member line: release it directly.
                    let w2 = if w.lines_left == 1 {
                        S::Free
                    } else {
                        S::Wrecker(Wrecker {
                            lines_left: w.lines_left - 1,
                        })
                    };
                    return pack(wrecker_first, w2, S::Free, Link::Off);
                }
                if m.task == Some(Task::Revert) {
                    return Effect::None;
                }
                let mut m2 = m.clone();
                m2.task = Some(Task::Revert);
                pack(wrecker_first, S::Wrecker(*w), S::Member(m2), link)
            }
            // ---- Member ↔ member along a line ----
            (S::Member(x), S::Member(y)) if link == Link::On => {
                let x_first = true;
                let _ = x_first;
                // Normalize: handle task movement from either side.
                if let Some(e) = Self::member_step(x, y, true) {
                    return e;
                }
                if let Some(e) = Self::member_step(y, x, false) {
                    return e;
                }
                Effect::None
            }
            // ---- Recruiting endpoint ↔ free node ----
            (S::Member(m), S::Free) | (S::Free, S::Member(m)) if link == Link::Off => {
                let member_first = matches!(a, S::Member(_));
                let Some(Task::Recruit { name, len }) = &m.task else {
                    return Effect::None;
                };
                debug_assert!(m.is_right_end);
                let new_pos = m.pos + 1;
                let mut m2 = m.clone();
                m2.is_right_end = false;
                let recruit_done = new_pos + 1 == *len;
                let new_member = Member {
                    pos: new_pos,
                    bit: Self::bit_of(*name, new_pos),
                    is_right_end: true,
                    line_len: 0,
                    task: if recruit_done {
                        None
                    } else {
                        Some(Task::Recruit {
                            name: *name,
                            len: *len,
                        })
                    },
                };
                m2.task = if recruit_done {
                    if m2.pos == 0 {
                        m2.line_len = *len;
                        Some(Task::Done { len: *len })
                    } else {
                        Some(Task::AckLeft {
                            name: *name,
                            len: *len,
                        })
                    }
                } else {
                    None
                };
                pack(member_first, S::Member(m2), S::Member(new_member), Link::On)
            }
            _ => Effect::None,
        }
    }

    /// Task movement between adjacent members `from → to` (returns `None`
    /// if this ordered direction has nothing to do).
    fn member_step(from: &Member, to: &Member, from_first: bool) -> Option<Effect> {
        let task = from.task.as_ref()?;
        match task {
            Task::Extend { name, len } if to.pos == from.pos + 1 && to.task.is_none() => {
                let mut f2 = from.clone();
                f2.task = None;
                let mut t2 = to.clone();
                t2.task = Some(if to.is_right_end {
                    Task::Recruit {
                        name: *name,
                        len: *len,
                    }
                } else {
                    Task::Extend {
                        name: *name,
                        len: *len,
                    }
                });
                Some(pack(
                    from_first,
                    SnState::Member(f2),
                    SnState::Member(t2),
                    Link::On,
                ))
            }
            Task::AckLeft { name, len } if to.pos + 1 == from.pos => {
                let mut f2 = from.clone();
                f2.task = None;
                f2.bit = Self::bit_of(*name, f2.pos);
                let mut t2 = to.clone();
                t2.bit = Self::bit_of(*name, t2.pos);
                t2.task = Some(if t2.pos == 0 {
                    t2.line_len = *len;
                    Task::Done { len: *len }
                } else {
                    Task::AckLeft {
                        name: *name,
                        len: *len,
                    }
                });
                Some(pack(
                    from_first,
                    SnState::Member(f2),
                    SnState::Member(t2),
                    Link::On,
                ))
            }
            Task::Revert => {
                if from.is_right_end {
                    // Release the right endpoint, passing the mark inwards.
                    if to.pos + 1 != from.pos {
                        return None;
                    }
                    let mut t2 = to.clone();
                    t2.is_right_end = true;
                    t2.task = Some(Task::Revert);
                    Some(pack(
                        from_first,
                        SnState::Free,
                        SnState::Member(t2),
                        Link::Off,
                    ))
                } else {
                    // Still travelling right.
                    if to.pos != from.pos + 1 {
                        return None;
                    }
                    let mut f2 = from.clone();
                    f2.task = None;
                    let mut t2 = to.clone();
                    t2.task = Some(Task::Revert);
                    Some(pack(
                        from_first,
                        SnState::Member(f2),
                        SnState::Member(t2),
                        Link::On,
                    ))
                }
            }
            _ => None,
        }
    }
}

/// Returns the loser reference (helper for the duel rule).
fn x_or<'a>(x: &'a SnLeader, y: &'a SnLeader, a_loses: bool) -> &'a SnLeader {
    if a_loses {
        x
    } else {
        y
    }
}

fn pack(first_stays_first: bool, x: SnState, y: SnState, link: Link) -> Effect {
    if first_stays_first {
        Effect::Update(x, y, link)
    } else {
        Effect::Update(y, x, link)
    }
}

impl Machine for Supernodes {
    type State = SnState;

    fn name(&self) -> &str {
        "Supernodes"
    }

    fn initial_state(&self) -> SnState {
        SnState::Leader(SnLeader::fresh())
    }

    fn interact(
        &self,
        a: &SnState,
        b: &SnState,
        link: Link,
        rng: &mut dyn Rng,
    ) -> Option<(SnState, SnState, Link)> {
        let effect = match Self::try_interact(a, b, link, None) {
            Effect::NeedsCoin => {
                let c = rng.random_bool(0.5);
                Self::try_interact(a, b, link, Some(c))
            }
            e => e,
        };
        match effect {
            Effect::None | Effect::NeedsCoin => None,
            Effect::Update(a2, b2, l2) => {
                if a2 == *a && b2 == *b && l2 == link {
                    None
                } else {
                    Some((a2, b2, l2))
                }
            }
        }
    }

    fn can_affect(&self, a: &SnState, b: &SnState, link: Link) -> bool {
        !matches!(Self::try_interact(a, b, link, None), Effect::None)
    }
}

/// A reconstructed supernode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Supernode {
    /// The line's name, assembled from its members' bits (member at
    /// position `p` holds bit `p`).
    pub name: u32,
    /// Member node indices in position order.
    pub members: Vec<usize>,
}

/// Reconstructs all lines attached to the (unique) leader, in arbitrary
/// order; `completed_len` filters to lines of exactly that length.
#[must_use]
pub fn supernodes_of(pop: &Population<SnState>, completed_len: u16) -> Vec<Supernode> {
    let mut out = Vec::new();
    let lefts = pop.nodes_where(|s| matches!(s, SnState::Member(m) if m.pos == 0));
    for left in lefts {
        // Walk rightwards by positions.
        let mut members = vec![left];
        let mut cur = left;
        loop {
            let pos = match pop.state(cur) {
                SnState::Member(m) => m.pos,
                _ => unreachable!("line walk stays on members"),
            };
            let next = pop
                .edges()
                .neighbors(cur)
                .find(|&v| matches!(pop.state(v), SnState::Member(m) if m.pos == pos + 1));
            match next {
                Some(v) => {
                    members.push(v);
                    cur = v;
                }
                None => break,
            }
        }
        if members.len() != completed_len as usize {
            continue;
        }
        let mut name = 0u32;
        for (p, &u) in members.iter().enumerate() {
            if let SnState::Member(m) = pop.state(u) {
                if m.bit {
                    name |= 1 << p;
                }
            }
        }
        out.push(Supernode { name, members });
    }
    out
}

/// Certifies output stability: a unique leader, no wreckers, no free
/// nodes, and no task in flight other than a single waiting recruit.
#[must_use]
pub fn is_stable(pop: &Population<SnState>) -> bool {
    let mut leaders = 0usize;
    let mut recruits = 0usize;
    for s in pop.states() {
        match s {
            SnState::Leader(_) => leaders += 1,
            SnState::Wrecker(_) | SnState::Free => return false,
            SnState::Member(m) => match &m.task {
                None => {}
                Some(Task::Recruit { .. }) => recruits += 1,
                Some(_) => return false,
            },
        }
    }
    leaders == 1 && recruits <= 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use netcon_core::testing::assert_stabilizes;
    use netcon_core::Simulation;

    /// n = 1 + j·2^j completes phase j exactly.
    fn exact_n(j: u32) -> usize {
        1 + (j as usize) * (1usize << j)
    }

    #[test]
    fn builds_named_supernodes_for_exact_sizes() {
        for (j, seeds) in [(1u32, 0..4u64), (2, 0..4), (3, 0..2)] {
            let n = exact_n(j);
            for seed in seeds {
                let sim = assert_stabilizes(Supernodes, n, seed, is_stable, 2_000_000_000, 60_000);
                let pop = sim.population();
                let sns = supernodes_of(pop, j as u16);
                assert_eq!(
                    sns.len(),
                    1 << j,
                    "phase {j} must complete with 2^{j} lines (n={n}, seed={seed})"
                );
                let mut names: Vec<u32> = sns.iter().map(|s| s.name).collect();
                names.sort_unstable();
                let expect: Vec<u32> = (0..1u32 << j).collect();
                assert_eq!(names, expect, "names must be exactly 0..2^{j}");
                // Every line has j members with positions 0..j.
                for sn in &sns {
                    assert_eq!(sn.members.len(), j as usize);
                }
            }
        }
    }

    #[test]
    fn leftover_nodes_do_not_break_naming() {
        // n = exact(2) + 2: phase 2 completes; phase 3 stalls.
        let n = exact_n(2) + 2;
        let sim = assert_stabilizes(Supernodes, n, 3, is_stable, 2_000_000_000, 60_000);
        let sns = supernodes_of(sim.population(), 2);
        // Lines still at length 2 keep their phase-2 names; at most two
        // were already extended to length 3.
        let extended = supernodes_of(sim.population(), 3);
        assert_eq!(sns.len() + extended.len(), 4);
    }

    #[test]
    fn node_conservation_throughout() {
        let mut sim = Simulation::new(Supernodes, exact_n(2), 8);
        for _ in 0..200 {
            sim.run_for(300);
            assert_eq!(sim.population().n(), exact_n(2));
        }
    }

    #[test]
    fn reversion_frees_losers() {
        // Two built-up leaders: force a duel by construction. Build a
        // small scenario: one leader with one length-1 line, another the
        // same; let them fight and verify the loser's component reverts.
        let mut pop = Population::new(6, SnState::Free);
        let leader = |lines: u32| {
            SnState::Leader(SnLeader {
                target: 2,
                cname: 0,
                lines,
                extends_left: lines,
                creates_left: lines,
                busy: None,
            })
        };
        let member = || {
            SnState::Member(Member {
                pos: 0,
                bit: false,
                is_right_end: true,
                line_len: 1,
                task: None,
            })
        };
        pop.set_state(0, leader(1));
        pop.set_state(1, member());
        pop.edges_mut().activate(0, 1);
        pop.set_state(2, leader(1));
        pop.set_state(3, member());
        pop.edges_mut().activate(2, 3);
        // Nodes 4, 5 free.
        let sim = Simulation::from_population(Supernodes, pop, 5);
        let sim = netcon_core::testing::assert_stabilizes_sim(sim, is_stable, 500_000_000, 50_000);
        // A single leader, and 6 = 1 + ... nodes: phase 2 needs 1+2·4=9,
        // so the survivor stalls mid-phase; everyone else is a member.
        let pop = sim.population();
        assert_eq!(pop.count_where(|s| matches!(s, SnState::Leader(_))), 1);
        assert_eq!(pop.count_where(|s| matches!(s, SnState::Free)), 0);
    }

    #[test]
    fn stable_configuration_has_at_most_one_recruiter() {
        let sim = assert_stabilizes(Supernodes, 12, 1, is_stable, 2_000_000_000, 60_000);
        let recruiting = sim.population().count_where(
            |s| matches!(s, SnState::Member(m) if matches!(m.task, Some(Task::Recruit { .. }))),
        );
        assert!(recruiting <= 1);
    }
}
