//! Benchmark harness support: shared helpers for the table- and
//! figure-regeneration benches (see the `benches/` directory), the perf
//! record's sections (each defined once, shared by the bench targets and
//! `perf_smoke`), and the record file with its regression gate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod harness;
pub mod record;
pub mod sections;
pub mod speedup;
