//! Criterion micro-benchmarks of the simulation engines' hot paths:
//! naive interaction throughput (interpreted vs compiled rule tables),
//! event-driven candidate throughput, predicate-check cost, and a full
//! run on each engine.

use criterion::{criterion_group, criterion_main, Criterion};
use netcon_core::{Driver, EventSim, Simulation};
use netcon_graph::properties::is_spanning_star;
use netcon_protocols::{global_star, simple_global_line};
use std::hint::black_box;

fn engine_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine");

    group.bench_function("step_flat_star_n256", |b| {
        let mut sim = Simulation::new(global_star::protocol(), 256, 1);
        b.iter(|| black_box(sim.step()));
    });

    group.bench_function("step_compiled_star_n256", |b| {
        let mut sim = Simulation::new(global_star::protocol().compile(), 256, 1);
        b.iter(|| black_box(sim.step()));
    });

    group.bench_function("step_flat_line_n256", |b| {
        let mut sim = Simulation::new(simple_global_line::protocol(), 256, 1);
        b.iter(|| black_box(sim.step()));
    });

    group.bench_function("event_advance_line_n256", |b| {
        // Candidate interactions (each one covers a whole geometric run
        // of skipped draws); recreate the sim when it converges.
        let mut sim = EventSim::new(simple_global_line::protocol().compile(), 256, 1);
        let mut reseed = 2u64;
        b.iter(|| {
            if sim.is_quiescent() {
                sim = EventSim::new(simple_global_line::protocol().compile(), 256, reseed);
                reseed += 1;
            }
            black_box(sim.advance(u64::MAX))
        });
    });

    group.bench_function("event_advance_bucket_line_n4096", |b| {
        // The sparse engine's candidate throughput at a size the dense
        // pair map would already pay ~70 MB for.
        use netcon_core::BucketSim;
        let mut sim = BucketSim::new(simple_global_line::protocol().compile(), 4096, 1);
        let mut reseed = 2u64;
        b.iter(|| {
            if sim.is_quiescent() {
                sim = BucketSim::new(simple_global_line::protocol().compile(), 4096, reseed);
                reseed += 1;
            }
            black_box(sim.advance(u64::MAX))
        });
    });

    group.bench_function("star_predicate_n256", |b| {
        let mut sim = Simulation::new(global_star::protocol(), 256, 1);
        sim.run_for(100_000);
        b.iter(|| black_box(is_spanning_star(sim.population().edges())));
    });

    group.bench_function("full_star_run_n64", |b| {
        b.iter(|| {
            let mut sim = Simulation::new(global_star::protocol(), 64, 7);
            black_box(sim.run_until(global_star::is_stable, u64::MAX))
        });
    });

    group.bench_function("full_star_run_event_n64", |b| {
        b.iter(|| {
            let mut sim = EventSim::new(global_star::protocol().compile(), 64, 7);
            black_box(sim.run_until(global_star::is_stable, u64::MAX))
        });
    });

    group.finish();
}

criterion_group!(benches, engine_throughput);
criterion_main!(benches);
