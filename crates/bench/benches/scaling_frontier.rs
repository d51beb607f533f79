//! **Scaling frontier** — the population sizes the paper's asymptotics
//! are about, reachable only by the sparse bucket engine.
//!
//! Drives Simple-Global-Line (Θ(n⁴)–O(n⁵) sequential steps) and
//! Cycle-Cover (Θ(n²), optimal) to n ∈ {20 000, 50 000, 100 000} on
//! [`BucketSim`](netcon_core::BucketSim) ([`sections::scaling_frontier`];
//! this prints the ladder the perf record carries), reporting sequential
//! steps, effective interactions, wall-clock, and the engine's measured
//! heap footprint against the dense engine's a-priori estimate. The dense
//! pair map alone would need ~1.7 GB at n = 20 000 and ~43 GB at
//! n = 100 000; the bucket engine stays in single-digit megabytes.
//!
//! `NETCON_BENCH_SCALE` (percent) scales the *sizes* here, not trial
//! counts: CI smoke (1%) runs n ∈ {200, 500, 1000}, where the run also
//! cross-checks the engine selector (`Engine::auto` picks the dense
//! engine at smoke sizes, the sparse one at frontier sizes).

use netcon_bench::harness::scale_pct;
use netcon_bench::sections;
use netcon_core::{CompiledTable, Engine, EventSim};
use netcon_protocols::simple_global_line;

fn main() {
    println!("=== Scaling frontier: sparse bucket engine at n up to 100k ===\n");
    let ladders = sections::scaling_frontier(scale_pct());

    // Selector cross-check at the first size: auto must pick the sparse
    // engine exactly when the dense estimate exceeds the budget.
    let n0 = ladders[0].1[0].n;
    let eng = Engine::auto(simple_global_line::protocol().compile(), n0, 1);
    let dense_fits = n0 <= usize::from(u16::MAX)
        && EventSim::<CompiledTable>::dense_mem_estimate(n0)
            <= Engine::<CompiledTable>::default_budget();
    assert_eq!(
        !eng.is_sparse(),
        dense_fits,
        "selector disagrees with budget"
    );
    println!("Engine::auto(n = {n0}) -> {}\n", eng.kind());
    drop(eng);

    println!("{}\n", sections::scaling_json(&ladders).render(0));
    println!("the Θ(n²) memory wall is gone: the frontier engine is O(n + |Q|²)");
}
