//! Property tests: the compiled lowering is observationally identical to
//! the interpreted rule table — on every `(a, b, link)` triple, for every
//! coin outcome, including the exact randomness consumption — and the
//! event-driven engine built on it reproduces the naive engine's
//! supporting invariants.

use netcon_core::{
    EnumerableMachine, EventSim, EventStep, Link, Machine, ProtocolBuilder, RuleProtocol,
    Simulation, StateId,
};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// A random well-formed protocol over ≤ 6 states mixing deterministic and
/// weighted randomized rules (distinct unordered triples only).
fn arb_protocol() -> impl Strategy<Value = RuleProtocol> {
    (2u16..7, any::<u64>(), 1usize..12).prop_map(|(size, seed, rules)| {
        use rand::RngExt;
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut b = ProtocolBuilder::new("random");
        let states: Vec<StateId> = (0..size).map(|i| b.state(format!("s{i}"))).collect();
        let mut used = std::collections::HashSet::new();
        for _ in 0..rules {
            let a = states[rng.random_range(0..states.len())];
            let c = states[rng.random_range(0..states.len())];
            let link = Link::from(rng.random_bool(0.5));
            if !used.insert((a.min(c), a.max(c), link)) {
                continue;
            }
            let triple = |rng: &mut SmallRng| {
                (
                    states[rng.random_range(0..states.len())],
                    states[rng.random_range(0..states.len())],
                    Link::from(rng.random_bool(0.5)),
                )
            };
            if rng.random_bool(0.5) {
                let t = triple(&mut rng);
                b.rule((a, c, link), t);
            } else {
                let alts: Vec<(u32, (StateId, StateId, Link))> = (0..rng.random_range(1..4usize))
                    .map(|_| (rng.random_range(1..4u32), triple(&mut rng)))
                    .collect();
                b.rule_random((a, c, link), alts);
            }
        }
        b.build()
            .expect("distinct unordered triples are always valid")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Compiled δ equals interpreted δ on the full domain, coin for coin:
    /// identically-seeded generators must produce identical outcomes AND
    /// end in identical generator states.
    #[test]
    fn compiled_table_agrees_on_every_triple_and_coin(p in arb_protocol(), seed in any::<u64>()) {
        let c = p.compile();
        for a in 0..p.size() {
            for b in 0..p.size() {
                for link in [Link::Off, Link::On] {
                    let (sa, sb) = (StateId::new(a as u16), StateId::new(b as u16));
                    for round in 0..4u64 {
                        let mut r1 = SmallRng::seed_from_u64(seed.wrapping_add(round));
                        let mut r2 = r1.clone();
                        prop_assert_eq!(
                            p.interact(&sa, &sb, link, &mut r1),
                            c.interact(&sa, &sb, link, &mut r2),
                            "δ disagrees at ({a}, {b}, {link})"
                        );
                        prop_assert_eq!(&r1, &r2, "coin consumption diverged at ({a}, {b}, {link})");
                    }
                    prop_assert_eq!(
                        p.can_affect(&sa, &sb, link),
                        c.can_affect(&sa, &sb, link)
                    );
                    prop_assert_eq!(
                        p.can_affect_edge(&sa, &sb, link),
                        c.can_affect_edge(&sa, &sb, link)
                    );
                }
            }
        }
        prop_assert_eq!(p.size(), c.num_states());
        prop_assert_eq!(p.initial_state(), c.initial_state());
    }

    /// `interact_indexed` (the engine's monomorphic entry point) agrees
    /// with the boxed-generator `interact` path on both representations.
    #[test]
    fn interact_indexed_agrees_with_interact(p in arb_protocol(), seed in any::<u64>()) {
        let c = p.compile();
        for a in 0..p.size() {
            for b in 0..p.size() {
                for link in [Link::Off, Link::On] {
                    let (sa, sb) = (StateId::new(a as u16), StateId::new(b as u16));
                    let mut r1 = SmallRng::seed_from_u64(seed);
                    let mut r2 = r1.clone();
                    let via_interact = p
                        .interact(&sa, &sb, link, &mut r1)
                        .map(|(x, y, l)| (x.index(), y.index(), l));
                    prop_assert_eq!(
                        via_interact,
                        c.interact_indexed(a, b, link, &mut r2)
                    );
                }
            }
        }
    }

    /// The event engine is internally consistent on random protocols: the
    /// possibly-effective set it maintains incrementally always equals
    /// what a fresh O(n²) scan of the configuration would produce.
    #[test]
    fn event_sim_pair_set_matches_fresh_scan(p in arb_protocol(), n in 2usize..10, seed in any::<u64>()) {
        let compiled = p.compile();
        let mut sim = EventSim::new(compiled.clone(), n, seed);
        for _ in 0..40 {
            if sim.advance(u64::MAX) == EventStep::Quiescent {
                break;
            }
            let fresh = EventSim::from_population(compiled.clone(), sim.population().clone(), 0);
            prop_assert_eq!(sim.effective_pairs(), fresh.effective_pairs());
            prop_assert_eq!(sim.is_quiescent(), fresh.is_quiescent());
            prop_assert_eq!(sim.is_edge_quiescent(), fresh.is_edge_quiescent());
        }
    }

    /// Naive runs over the compiled table are step-for-step identical to
    /// naive runs over the interpreted table under the same seed.
    #[test]
    fn compiled_simulation_reproduces_interpreted(p in arb_protocol(), n in 2usize..10, seed in any::<u64>()) {
        let mut s1 = Simulation::new(p.clone(), n, seed);
        let mut s2 = Simulation::new(p.compile(), n, seed);
        for _ in 0..300 {
            prop_assert_eq!(s1.step(), s2.step());
        }
        prop_assert_eq!(s1.population().edges(), s2.population().edges());
        prop_assert_eq!(s1.effective_steps(), s2.effective_steps());
    }
}
