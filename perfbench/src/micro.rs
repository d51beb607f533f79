//! Microbenches of the shared samplers (`engine`) and the batched-endgame
//! laws (`walk`), with parameters taken from the workload:
//!
//! * geometric skips at `p = 2/(n−1)` — about `n` candidate pairs among
//!   the `n(n−1)/2`, the mid-run regime of a line at the workload's `n`;
//! * hypergeometric laws at the round size of n = 512 (`line-rounds`);
//! * walks on a path of length `n`, the longest line segment at that `n`.
//!
//! Each figure is the median over `REPS` batches of the per-call time;
//! a batch makes at least 8 calls and lasts at least `BATCH`, which
//! dwarfs the clock's resolution.

use std::hint::black_box;
use std::time::{Duration, Instant};

use netcon_core::{
    geometric_skip, hypergeometric_count, hypergeometric_count_large, hypergeometric_skip,
    unit_open01, walk, GeoSkipCache,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::report::{median, Metrics};
use crate::workloads::Workload;

const REPS: usize = 11;
const BATCH: Duration = Duration::from_millis(2);
/// Inputs per sampler, cycled through by the batches.
const INPUTS: usize = 4096;
/// Population size of the round workload, whose round size the
/// hypergeometric benches use.
const ROUND_N: u64 = 512;

/// Median ns per call of `f(i)` for `i = 0, 1, 2, …`.
pub fn ns_per_call(mut f: impl FnMut(usize) -> u64) -> f64 {
    let mut batch = |calls: usize| {
        let start = Instant::now();
        let mut acc = 0u64;
        for i in 0..calls {
            acc ^= f(black_box(i));
        }
        black_box(acc);
        start.elapsed()
    };
    let mut calls = 8;
    while batch(calls) < BATCH && calls < 1 << 24 {
        calls *= 2;
    }
    let mut per_call: Vec<f64> = (0..REPS)
        .map(|_| batch(calls).as_nanos() as f64 / calls as f64)
        .collect();
    median(&mut per_call)
}

/// Runs every microbench for `w` and adds its metrics. Fails if a
/// `GeoSkipCache` hit differs from the direct `geometric_skip` on the
/// same draw.
pub fn run(m: &mut Metrics, w: Workload) -> Result<(), String> {
    let n = w.n();
    let mut rng = SmallRng::seed_from_u64(0x6d69_6372_6f00 ^ n as u64);

    let p = 2.0 / (n as f64 - 1.0);
    let raws: Vec<u64> = (0..INPUTS).map(|_| rng.next_u64()).collect();
    let direct = |raw: u64| geometric_skip(unit_open01(raw), p);
    m.add(
        "engine.geometric_skip_ns",
        ns_per_call(|i| direct(raws[i % INPUTS]).to_bits()),
        "ns",
    );
    let cache = GeoSkipCache::build(p);
    let (mut hits, mut misses) = (Vec::new(), Vec::new());
    for _ in 0..1 << 26 {
        if hits.len() >= INPUTS && misses.len() >= INPUTS {
            break;
        }
        let raw = rng.next_u64();
        match cache.lookup(raw) {
            Some(g) => {
                if g.to_bits() != direct(raw).to_bits() {
                    return Err(format!(
                        "GeoSkipCache hit {g} differs from geometric_skip {} (p {p}, raw {raw:#x})",
                        direct(raw)
                    ));
                }
                if hits.len() < INPUTS {
                    hits.push(raw);
                }
            }
            None if misses.len() < INPUTS => misses.push(raw),
            None => {}
        }
    }
    if hits.is_empty() || misses.is_empty() {
        return Err(format!("no GeoSkipCache hits or misses drawn at p {p}"));
    }
    m.add(
        "engine.geo_cache_hit_ns",
        ns_per_call(|i| cache.lookup(hits[i % hits.len()]).map_or(0, f64::to_bits)),
        "ns",
    );
    m.add(
        "engine.geo_cache_miss_ns",
        ns_per_call(|i| {
            let raw = misses[i % misses.len()];
            cache.lookup(raw).unwrap_or_else(|| direct(raw)).to_bits()
        }),
        "ns",
    );

    let round = ROUND_N * (ROUND_N - 1) / 2;
    let us: Vec<f64> = raws.iter().map(|&r| unit_open01(r)).collect();
    // The endgame of a round: a few walker pairs among half a round.
    m.add(
        "engine.hypergeometric_skip_ns",
        ns_per_call(|i| hypergeometric_skip(us[i % INPUTS], round / 2, 4)),
        "ns",
    );
    // Splitting a skip batch of n/2 draws between n resolved pairs and
    // the unresolved rest of half a round.
    m.add(
        "engine.hypergeometric_count_ns",
        ns_per_call(|i| hypergeometric_count(us[i % INPUTS], ROUND_N, round / 2, ROUND_N / 2)),
        "ns",
    );
    // Splitting a whole round between two halves (the windowed law).
    m.add(
        "engine.hypergeometric_count_large_ns",
        ns_per_call(|i| hypergeometric_count_large(us[i % INPUTS], round / 2, round, round / 2)),
        "ns",
    );

    let starts: Vec<usize> = (0..INPUTS)
        .map(|_| 1 + (rng.next_u64() as usize) % (n - 1))
        .collect();
    let mut walk_rng = SmallRng::seed_from_u64(0x77_616c6b ^ n as u64);
    m.add(
        "walk.sample_absorption_ns",
        ns_per_call(|i| walk::sample_absorption(&mut walk_rng, starts[i % INPUTS], n).1),
        "ns",
    );
    // Three walkers racing, with absorption times of length-n segments.
    let races: Vec<[u64; 3]> = (0..64)
        .map(|_| [0; 3].map(|_| walk::sample_absorption(&mut walk_rng, n / 2, n).1.max(1)))
        .collect();
    m.add(
        "walk.race_ns",
        ns_per_call(|i| walk::race(&mut walk_rng, &races[i % races.len()]).0 as u64),
        "ns",
    );
    // The rejected draws among n walker moves at one walker pair per draw.
    let p_move = 2.0 / (n as f64 * (n as f64 - 1.0));
    m.add(
        "walk.sample_gap_total_ns",
        ns_per_call(|_| walk::sample_gap_total(&mut walk_rng, n as u64, p_move) as u64),
        "ns",
    );
    Ok(())
}
