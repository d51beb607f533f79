//! Property-based tests of the rule-table layer against the model's
//! definition of δ (§3.1): random well-formed protocols must behave as
//! symmetric partial functions, `can_affect` must agree with `interact`,
//! and executions must be reproducible.

use netcon_core::{Link, Machine, ProtocolBuilder, RuleProtocol, Simulation, StateId};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// A random protocol over `size` states with rules on distinct unordered
/// triples (so it is always well-formed).
fn arb_protocol() -> impl Strategy<Value = RuleProtocol> {
    (2u16..6, any::<u64>(), 1usize..10).prop_map(|(size, seed, rules)| {
        use rand::RngExt;
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut b = ProtocolBuilder::new("random");
        let states: Vec<StateId> = (0..size).map(|i| b.state(format!("s{i}"))).collect();
        let mut used = std::collections::HashSet::new();
        for _ in 0..rules {
            let a = states[rng.random_range(0..states.len())];
            let c = states[rng.random_range(0..states.len())];
            let link = Link::from(rng.random_bool(0.5));
            let key = (a.min(c), a.max(c), link);
            if !used.insert(key) {
                continue;
            }
            let rhs = (
                states[rng.random_range(0..states.len())],
                states[rng.random_range(0..states.len())],
                Link::from(rng.random_bool(0.5)),
            );
            b.rule((a, c, link), rhs);
        }
        b.build()
            .expect("distinct unordered triples are always valid")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// δ symmetry: querying (a, b) and (b, a) gives mirrored results.
    #[test]
    fn interact_is_symmetric(p in arb_protocol(), a in 0u16..6, b in 0u16..6, on in any::<bool>()) {
        let (a, b) = (
            StateId::new(a % p.size() as u16),
            StateId::new(b % p.size() as u16),
        );
        prop_assume!(a != b);
        let link = Link::from(on);
        let mut r1 = SmallRng::seed_from_u64(0);
        let mut r2 = SmallRng::seed_from_u64(0);
        let fwd = p.interact(&a, &b, link, &mut r1);
        let bwd = p.interact(&b, &a, link, &mut r2);
        match (fwd, bwd) {
            (None, None) => {}
            (Some((x, y, l)), Some((y2, x2, l2))) => {
                prop_assert_eq!((x, y, l), (x2, y2, l2));
            }
            other => prop_assert!(false, "asymmetric: {other:?}"),
        }
    }

    /// `can_affect` is exactly "interact returns Some" for deterministic
    /// protocols.
    #[test]
    fn can_affect_matches_interact(p in arb_protocol(), a in 0u16..6, b in 0u16..6, on in any::<bool>()) {
        let (a, b) = (
            StateId::new(a % p.size() as u16),
            StateId::new(b % p.size() as u16),
        );
        let link = Link::from(on);
        let mut rng = SmallRng::seed_from_u64(0);
        let effective = p.interact(&a, &b, link, &mut rng).is_some();
        prop_assert_eq!(p.can_affect(&a, &b, link), effective);
    }

    /// Effective interactions always change something.
    #[test]
    fn effective_means_changed(p in arb_protocol(), a in 0u16..6, b in 0u16..6, on in any::<bool>()) {
        let (a, b) = (
            StateId::new(a % p.size() as u16),
            StateId::new(b % p.size() as u16),
        );
        let link = Link::from(on);
        let mut rng = SmallRng::seed_from_u64(1);
        if let Some((x, y, l)) = p.interact(&a, &b, link, &mut rng) {
            prop_assert!((x, y, l) != (a, b, link), "identity reported effective");
        }
    }

    /// Whole executions are reproducible from the seed, step for step.
    #[test]
    fn runs_reproduce(p in arb_protocol(), n in 2usize..12, seed in any::<u64>(), steps in 1u64..300) {
        let mut s1 = Simulation::new(p.clone(), n, seed);
        let mut s2 = Simulation::new(p, n, seed);
        for _ in 0..steps {
            prop_assert_eq!(s1.step(), s2.step());
        }
        prop_assert_eq!(s1.population(), s2.population());
        prop_assert_eq!(s1.effective_steps(), s2.effective_steps());
    }

    /// Quiescent configurations stay quiescent forever.
    #[test]
    fn quiescence_is_permanent(p in arb_protocol(), n in 2usize..8, seed in any::<u64>()) {
        let mut sim = Simulation::new(p, n, seed);
        sim.run_for(2_000);
        if sim.is_quiescent() {
            let before = sim.population().clone();
            sim.run_for(2_000);
            prop_assert_eq!(sim.population(), &before);
        }
    }
}

// --- Scheduler fairness invariants -----------------------------------------

use netcon_core::{RoundRobin, Scheduler, ShuffledRounds, Uniform};

/// Collects `steps` pairs, asserting each is valid for population size `n`.
fn collect_valid_pairs<S: Scheduler>(
    mut s: S,
    n: usize,
    steps: usize,
    seed: u64,
) -> Result<Vec<(usize, usize)>, proptest::TestCaseError> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut pairs = Vec::with_capacity(steps);
    for _ in 0..steps {
        let (u, v) = s.next_pair(n, &mut rng);
        prop_assert!(u != v, "{}: self-interaction ({u}, {u})", s.name());
        prop_assert!(
            u < n && v < n,
            "{}: pair ({u}, {v}) out of range n={n}",
            s.name()
        );
        pairs.push((u.min(v), u.max(v)));
    }
    Ok(pairs)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The uniform random scheduler only emits valid pairs, and within a
    /// coupon-collector window it visits *every* pair (fairness holds with
    /// probability 1; at 64·m draws a miss has probability ≈ m·e⁻⁶⁴).
    #[test]
    fn uniform_scheduler_is_fair(n in 2usize..10, seed in any::<u64>()) {
        let m = n * (n - 1) / 2;
        let pairs = collect_valid_pairs(Uniform, n, 64 * m, seed)?;
        let distinct: std::collections::HashSet<_> = pairs.into_iter().collect();
        prop_assert_eq!(distinct.len(), m, "some pair never scheduled within 64·m draws");
    }

    /// Round-robin is fair by construction: every window of m consecutive
    /// steps from the start covers every pair exactly once. (No seed input:
    /// the scheduler is deterministic and ignores its RNG.)
    #[test]
    fn round_robin_rounds_cover_all_pairs(n in 2usize..12) {
        let m = n * (n - 1) / 2;
        let pairs = collect_valid_pairs(RoundRobin::new(), n, 3 * m, 0)?;
        for round in pairs.chunks(m) {
            let distinct: std::collections::HashSet<_> = round.iter().copied().collect();
            prop_assert_eq!(distinct.len(), m, "a round-robin round repeated a pair");
        }
    }

    /// Shuffled-rounds is fair per round: each round of m steps is a
    /// permutation of the full pair set, for any RNG seed.
    #[test]
    fn shuffled_rounds_cover_all_pairs(n in 2usize..10, seed in any::<u64>()) {
        let m = n * (n - 1) / 2;
        let pairs = collect_valid_pairs(ShuffledRounds::new(), n, 4 * m, seed)?;
        for round in pairs.chunks(m) {
            let distinct: std::collections::HashSet<_> = round.iter().copied().collect();
            prop_assert_eq!(distinct.len(), m, "a shuffled round repeated a pair");
        }
    }

    /// Fair schedulers really drive progress: starting from one infected
    /// node, the one-way epidemic (a, b) → (a, a) must reach everybody
    /// under round-robin within n rounds — a scheduler that starves any
    /// pair would leave susceptible nodes behind.
    #[test]
    fn fair_schedulers_drive_one_way_epidemic_to_quiescence(n in 2usize..10, source in any::<u64>()) {
        let mut b = ProtocolBuilder::new("epidemic");
        let a = b.state("a");
        let q = b.state("b");
        b.initial(q);
        b.rule((a, q, Link::Off), (a, a, Link::Off));
        let p = b.build().expect("well-formed");
        // All susceptible except one random source.
        let mut pop = netcon_core::Population::new(n, q);
        pop.set_state((source % n as u64) as usize, a);
        let mut sim =
            Simulation::from_population_with_scheduler(p, pop, 0, RoundRobin::new());
        prop_assert!(!sim.is_quiescent(), "source node must have work to do");
        // Each round-robin round infects at least one node; n rounds suffice.
        let m = (n * (n - 1) / 2) as u64;
        sim.run_for(m * n as u64);
        prop_assert!(sim.is_quiescent(), "epidemic not done after n rounds");
        prop_assert_eq!(
            sim.population().count_where(|s| *s == a), n,
            "a fair scheduler must infect every node"
        );
    }
}
