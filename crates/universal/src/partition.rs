//! The population partitions used by the generic constructors of §6.1.
//!
//! * [`ud_protocol`] — the U–D partition of Theorem 14 (Fig. 4): the
//!   single rule `(q0, q0, 0) → (qu, qd, 1)` matches every `U`-node to a
//!   distinct `D`-node.
//! * [`udm_protocol`] — the (U, D, M) partition of Theorem 15 (Figs. 7–8),
//!   with the paper's four rules verbatim: unsatisfied `U`-nodes (`q'u`)
//!   either grab an isolated node as their `M`-partner or take another
//!   unsatisfied `U`-node (whose own `D`-partner is then released back to
//!   `q0`).

use netcon_core::{Link, Population, ProtocolBuilder, RuleProtocol, StateId};

/// U–D partition: `q0`.
pub const UD_Q0: StateId = StateId::new(0);
/// U–D partition: `qu` (upper row of Fig. 4).
pub const UD_QU: StateId = StateId::new(1);
/// U–D partition: `qd` (lower row of Fig. 4).
pub const UD_QD: StateId = StateId::new(2);

/// Builds the U–D partition NET of Theorem 14.
#[must_use]
pub fn ud_protocol() -> RuleProtocol {
    let mut b = ProtocolBuilder::new("UD-Partition");
    let q0 = b.state("q0");
    let qu = b.state("qu");
    let qd = b.state("qd");
    b.rule((q0, q0, Link::Off), (qu, qd, Link::On));
    b.build().expect("the U-D partition rule is well-formed")
}

/// Certifies stability of the U–D partition: at most one `q0` remains
/// (two `q0`s would still have an applicable rule).
#[must_use]
pub fn ud_is_stable(pop: &Population<StateId>) -> bool {
    pop.count_where(|s| *s == UD_Q0) <= 1
}

/// Census of a U–D partition configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UdCensus {
    /// Nodes in `qu`.
    pub u: usize,
    /// Nodes in `qd`.
    pub d: usize,
    /// Unpartitioned nodes still in `q0`.
    pub unmatched: usize,
    /// Whether every `qu` has exactly one active edge, to a `qd` (a
    /// perfect matching between U and D).
    pub matching_ok: bool,
}

/// Takes the census of a U–D partition configuration.
#[must_use]
pub fn ud_census(pop: &Population<StateId>) -> UdCensus {
    let u = pop.count_where(|s| *s == UD_QU);
    let d = pop.count_where(|s| *s == UD_QD);
    let unmatched = pop.count_where(|s| *s == UD_Q0);
    let matching_ok = pop.nodes_where(|s| *s == UD_QU).iter().all(|&x| {
        pop.edges().degree(x) == 1
            && pop
                .edges()
                .neighbors(x)
                .all(|y| *pop.state(y) == UD_QD && pop.edges().degree(y) == 1)
    });
    UdCensus {
        u,
        d,
        unmatched,
        matching_ok,
    }
}

/// U–D–M partition: `q0`.
pub const UDM_Q0: StateId = StateId::new(0);
/// U–D–M partition: `q'u` (unsatisfied U-node: has a D-partner but no
/// M-partner yet).
pub const UDM_QUP: StateId = StateId::new(1);
/// U–D–M partition: `qd`.
pub const UDM_QD: StateId = StateId::new(2);
/// U–D–M partition: `qu` (satisfied U-node).
pub const UDM_QU: StateId = StateId::new(3);
/// U–D–M partition: `qm`.
pub const UDM_QM: StateId = StateId::new(4);
/// U–D–M partition: `q'm` (an ex-`q'u` grabbed as an M-partner, still
/// holding its own D-partner, which it must release).
pub const UDM_QMP: StateId = StateId::new(5);

/// Builds the (U, D, M) partition NET of Theorem 15:
///
/// ```text
/// (q0,  q0, 0) → (q'u, qd, 1)
/// (q'u, q0, 0) → (qu,  qm, 1)
/// (q'u, q'u, 0) → (qu, q'm, 1)
/// (q'm, qd, 1) → (qm,  q0, 0)
/// ```
#[must_use]
pub fn udm_protocol() -> RuleProtocol {
    let mut b = ProtocolBuilder::new("UDM-Partition");
    let q0 = b.state("q0");
    let qup = b.state("q'u");
    let qd = b.state("qd");
    let qu = b.state("qu");
    let qm = b.state("qm");
    let qmp = b.state("q'm");
    b.rule((q0, q0, Link::Off), (qup, qd, Link::On));
    b.rule((qup, q0, Link::Off), (qu, qm, Link::On));
    b.rule((qup, qup, Link::Off), (qu, qmp, Link::On));
    b.rule((qmp, qd, Link::On), (qm, q0, Link::Off));
    b.build().expect("the Theorem 15 rules are well-formed")
}

/// Certifies stability of the U–D–M partition: every node settled into a
/// `(qu, qd, qm)` triple, except the residue the rules cannot touch —
/// one isolated `q0` (n ≡ 1 mod 3) or one matched `(q'u, qd)` pair
/// (n ≡ 2 mod 3).
#[must_use]
pub fn udm_is_stable(pop: &Population<StateId>) -> bool {
    let q0 = pop.count_where(|s| *s == UDM_Q0);
    let qup = pop.count_where(|s| *s == UDM_QUP);
    let qmp = pop.count_where(|s| *s == UDM_QMP);
    if qmp != 0 {
        return false; // a q'm still has a qd to release
    }
    match pop.n() % 3 {
        0 => q0 == 0 && qup == 0,
        1 => q0 == 1 && qup == 0,
        _ => q0 == 0 && qup == 1,
    }
}

/// Census of a U–D–M partition configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UdmCensus {
    /// Satisfied `qu` nodes.
    pub u: usize,
    /// `qd` nodes.
    pub d: usize,
    /// `qm` nodes.
    pub m: usize,
    /// Residue: `q0` plus unsatisfied/partial nodes.
    pub residue: usize,
    /// Whether every `qu` is connected to exactly one `qd` and one `qm`
    /// (the shape of Fig. 7).
    pub triples_ok: bool,
}

/// Takes the census of a U–D–M configuration.
#[must_use]
pub fn udm_census(pop: &Population<StateId>) -> UdmCensus {
    let u = pop.count_where(|s| *s == UDM_QU);
    let d = pop.count_where(|s| *s == UDM_QD);
    let m = pop.count_where(|s| *s == UDM_QM);
    let residue = pop.n() - u - d - m;
    let triples_ok = pop.nodes_where(|s| *s == UDM_QU).iter().all(|&x| {
        let mut qd_nbrs = 0;
        let mut qm_nbrs = 0;
        for y in pop.edges().neighbors(x) {
            match *pop.state(y) {
                s if s == UDM_QD => qd_nbrs += 1,
                s if s == UDM_QM || s == UDM_QMP => qm_nbrs += 1,
                _ => return false,
            }
        }
        qd_nbrs == 1 && qm_nbrs == 1
    });
    UdmCensus {
        u,
        d,
        m,
        residue,
        triples_ok,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netcon_core::testing::assert_stabilizes;
    use netcon_core::{Machine, Simulation};

    #[test]
    fn ud_partition_halves_the_population() {
        for n in [2, 3, 8, 17, 64] {
            let sim = assert_stabilizes(ud_protocol(), n, 7, ud_is_stable, 10_000_000, 20_000);
            let c = ud_census(sim.population());
            assert_eq!(c.u, n / 2, "|U| = ⌊n/2⌋");
            assert_eq!(c.d, n / 2, "|D| = ⌊n/2⌋");
            assert_eq!(c.unmatched, n % 2);
            assert!(c.matching_ok, "U–D matching must be perfect (Fig. 4)");
        }
    }

    #[test]
    fn udm_partition_thirds_the_population() {
        for n in [3, 4, 5, 6, 24, 48] {
            let sim = assert_stabilizes(udm_protocol(), n, 5, udm_is_stable, 100_000_000, 40_000);
            let c = udm_census(sim.population());
            assert_eq!(c.u, n / 3, "|U| = ⌊n/3⌋ (n={n})");
            assert_eq!(c.d, n / 3 + usize::from(n % 3 == 2), "qd count (n={n})");
            assert_eq!(c.m, n / 3, "|M| = ⌊n/3⌋ (n={n})");
            assert!(c.triples_ok, "every qu must own one qd and one qm (Fig. 7)");
        }
    }

    #[test]
    fn udm_fig8_walkthrough() {
        // The exact sequence of Fig. 8: three (q'u, qd) pairs resolve into
        // two complete triples by stealing.
        let p = udm_protocol();
        let mut pop = Population::new(6, UDM_Q0);
        // (i) three unsatisfied pairs: (0,1), (2,3), (4,5).
        for (u, d) in [(0, 1), (2, 3), (4, 5)] {
            pop.set_state(u, UDM_QUP);
            pop.set_state(d, UDM_QD);
            pop.edges_mut().activate(u, d);
        }
        let mut rng = rand::rngs::SmallRng::seed_from_u64(1);
        use rand::SeedableRng;
        // (ii)–(iii): q'u(0) meets q'u(2): 0 satisfied, 2 becomes q'm.
        let (a, b, l) = p
            .interact(&UDM_QUP, &UDM_QUP, Link::Off, &mut rng)
            .expect("rule applies");
        assert_eq!(l, Link::On);
        assert!(
            (a == UDM_QU && b == UDM_QMP) || (a == UDM_QMP && b == UDM_QU),
            "one satisfied, one grabbed"
        );
        // (iv): q'm releases its qd back to q0.
        let (a, b, l) = p
            .interact(&UDM_QMP, &UDM_QD, Link::On, &mut rng)
            .expect("release applies");
        assert_eq!((a, b, l), (UDM_QM, UDM_Q0, Link::Off));
        // (v): the remaining q'u takes the released q0 as its qm.
        let (a, b, l) = p
            .interact(&UDM_QUP, &UDM_Q0, Link::Off, &mut rng)
            .expect("grab applies");
        assert_eq!((a, b, l), (UDM_QU, UDM_QM, Link::On));
    }

    #[test]
    fn ud_census_counts_are_conserved() {
        let mut sim = Simulation::new(ud_protocol(), 20, 3);
        for _ in 0..50 {
            sim.run_for(20);
            let c = ud_census(sim.population());
            assert_eq!(c.u + c.d + c.unmatched, 20);
            assert_eq!(c.u, c.d, "U and D grow in lockstep");
        }
    }
}
