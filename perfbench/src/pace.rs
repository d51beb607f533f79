//! The host's pace: a fixed reference kernel timed between trials.
//!
//! The benchmark runs on a shared host whose speed drifts, both from one
//! trial to the next and over minutes, by more than the bounds the
//! benchmark gates on. The trials are bound by random access to a working
//! set of a few MB, and the drift moves them together with a kernel of
//! the same kind: random read-modify-writes over a 2 MiB buffer. That
//! kernel is timed between every two trials. A trial's time is then
//! scaled by the kernel time around it, to the time it would take at the
//! kernel's [`NOMINAL_NS`]. The kernel is the benchmark's own code and
//! does not depend on the repository's crates, so a change to them moves
//! the scaled times exactly as it moves the host times.

use std::hint::black_box;
use std::time::Instant;

/// `u32` words in the kernel's buffer: 2 MiB.
const WORDS: usize = 1 << 19;
/// Random read-modify-writes in one timed kernel.
const STEPS: u64 = 1 << 20;
/// Untimed read-modify-writes before the timed ones, which bring the
/// buffer back into the caches whatever the trial before evicted.
const WARM_STEPS: u64 = STEPS / 4;
/// The time scaled trial times assume for one timed kernel: its median
/// on the host the bounds were set on (a 2-vCPU Sapphire Rapids KVM
/// guest).
pub const NOMINAL_NS: f64 = 5.0e6;

/// The reference kernel's buffer and random stream, and the host time
/// of every timed kernel.
pub struct Pace {
    buf: Vec<u32>,
    x: u64,
    samples_ns: Vec<f64>,
}

impl Pace {
    /// A kernel with its buffer allocated and touched once, and timed
    /// once.
    pub fn new() -> Self {
        let mut p = Self {
            buf: vec![0; WORDS],
            x: 0x9E37_79B9_7F4A_7C15,
            samples_ns: Vec::new(),
        };
        p.kernel(STEPS);
        p.mark();
        p
    }

    /// Times a kernel, which starts a new stretch of host time.
    pub fn mark(&mut self) {
        let ns = self.sample();
        self.samples_ns.push(ns);
    }

    /// Times a kernel and returns the factor that scales the host time
    /// since the previous kernel to the nominal pace: below 1 when the
    /// host ran slow.
    pub fn scale_since_mark(&mut self) -> f64 {
        let before = self.samples_ns[self.samples_ns.len() - 1];
        self.mark();
        let after = self.samples_ns[self.samples_ns.len() - 1];
        NOMINAL_NS / (0.5 * (before + after))
    }

    /// Host nanoseconds of every timed kernel so far.
    pub fn samples_ns(&self) -> &[f64] {
        &self.samples_ns
    }

    /// `steps` random read-modify-writes over the buffer.
    fn kernel(&mut self, steps: u64) {
        let mask = WORDS - 1;
        let mut x = self.x;
        let mut acc = 0u64;
        for _ in 0..steps {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let i = (x as usize) & mask;
            let v = self.buf[i];
            acc = acc.wrapping_add(u64::from(v));
            self.buf[i] = v.wrapping_add(x as u32);
        }
        self.x = x;
        black_box(acc);
    }

    /// Host nanoseconds of one timed kernel, after an untimed warm-up.
    fn sample(&mut self) -> f64 {
        self.kernel(WARM_STEPS);
        let start = Instant::now();
        self.kernel(STEPS);
        start.elapsed().as_nanos() as f64
    }
}
