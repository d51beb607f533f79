//! Closed-loop trial benchmark for the netcon workspace.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <line-uniform|line-wide|line-rounds|star-churn> \
//!     --seed <u64> --seconds <s> --trace <0|1>
//! ```
//!
//! One client, one thread: the next trial starts when the previous one
//! has finished. `--trace 0` prints the end-to-end metrics; `--trace 1`
//! repeats the same trials with spans around every call into a layer
//! and prints the per-layer metrics. The last stdout line is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`. See
//! `README.md` for the metric definitions.

mod micro;
mod pace;
mod report;
mod trace;
mod workloads;

use std::collections::BTreeSet;
use std::time::{Duration, Instant};

use report::{fnv1a, median, quantile, Metrics};
use workloads::{Finished, Outcome, Record, Setup, Workload};

/// Trials every run completes, so `trial_ms_p90` has ten samples beyond it.
const MIN_TRIALS: usize = 100;
/// Set-ups per timed batch. One batch is timed before every measured
/// trial of every pass, so the batches spread over the same stretch of
/// host time as the trials, and each is scaled like its trial.
const SETUP_BATCH: usize = 64;
/// The quantile of the batch times reported as `setup_s`: a low one, the
/// set-up time when the host is least disturbed.
const SETUP_QUANTILE: f64 = 0.1;
/// Timed batches of rule-table compiles for `rules.compile_us`.
const COMPILE_REPS: usize = 41;
/// Untimed warm-up trials before the measured loop.
const WARMUP_TRIALS: usize = 2;
/// Passes an untraced run makes over its trials. A trial's time is the
/// mean of its scaled times: what the scaling leaves of the host's noise
/// falls on either side, and two samples of a trial halve its weight.
const PASSES: usize = 2;
/// The first pass stops here even short of `MIN_TRIALS`, so that a run
/// ends within three minutes.
const MAX_PASS: Duration = Duration::from_secs(25);

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    calibrate: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut calibrate = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload =
                    Some(Workload::parse(&v).ok_or_else(|| format!("unknown workload {v:?}"))?);
            }
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                }
            }
            "--calibrate" => {
                calibrate = Some(value()?.parse().map_err(|e| format!("--calibrate: {e}"))?);
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    // `--calibrate` runs a fixed trial count, so it takes no `--seconds`.
    let seconds = match (seconds, calibrate) {
        (Some(s), _) => s,
        (None, Some(_)) => 0.0,
        (None, None) => return Err("--seconds is required".into()),
    };
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
        calibrate,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if let Some(trials) = args.calibrate {
        calibrate(args.workload, args.seed, trials);
        return;
    }
    let w = args.workload;
    println!("workload {} (n = {}, seed {})", w.name(), w.n(), args.seed);

    let setup = Setup::new(w, args.seed);
    let mut traced = args.trace.then(|| trace::TraceOut::new(w));
    let mut run = measure(&setup, args.seconds, traced.as_mut());
    let mut checks = Checks::default();
    for (t, f) in run.trials.iter().enumerate() {
        checks.note(t, f.check.clone());
    }
    let mut records: Vec<Record> = run.trials.iter().map(|f| f.record).collect();
    let mut arm = run.arm;
    if w == Workload::StarChurn {
        arm = star_post_pass(&setup, &mut records, &mut checks);
    }
    let nanos: Vec<u64> = run.trials.iter().map(|f| f.nanos).collect();
    println!("arm.kind {} {arm}", w.name());
    report_results(w, &records, &mut checks);

    let mut metrics = Metrics::default();
    if let Some(mut traced) = traced {
        traced.count_candidates(&setup);
        if let Some(bad) = (0..records.len()).find(|&t| traced.records.get(t) != records.get(t)) {
            checks.fail(format!(
                "traced run diverged from the untraced run at trial {bad}: {:?} vs {:?}",
                traced.records.get(bad),
                records.get(bad)
            ));
        }
        let overhead = traced.nanos.iter().sum::<u64>() as f64 / nanos.iter().sum::<u64>() as f64;
        trace::layer_metrics(&mut metrics, &traced, compile_us(&setup), overhead);
        if let Err(e) = micro::run(&mut metrics, w) {
            checks.fail(e);
        }
        if traced.replay_mismatches > 0 {
            checks.fail(format!(
                "the {} `advance` replay did not reproduce {} traced trials",
                traced.arm, traced.replay_mismatches
            ));
        }
        match trace::write_spans(&traced, args.seed) {
            Ok(path) => println!("spans: {} written to {path}", traced.spans().len()),
            Err(e) => checks.fail(format!("writing spans: {e}")),
        }
    } else {
        report_pace(&mut run.kernel_ns, &nanos);
        let scaled: Vec<f64> = run.trials.iter().map(|f| f.scaled_ns).collect();
        run.setup_s.sort_by(f64::total_cmp);
        end_to_end(
            &mut metrics,
            &records,
            &scaled,
            quantile(&run.setup_s, SETUP_QUANTILE),
        );
    }
    metrics.print_lines();
    let attempted = records.len();
    println!(
        "failed_frac {} ({} of {attempted} trials)",
        checks.failed() as f64 / attempted.max(1) as f64,
        checks.failed()
    );
    for e in &checks.messages {
        println!("check failed: {e}");
    }
    println!("{}", metrics.json(checks.ok(), attempted, checks.failed()));
}

/// Output-check bookkeeping: trial failures and run-level failures.
#[derive(Default)]
struct Checks {
    failed_trials: BTreeSet<usize>,
    run_failed: bool,
    messages: Vec<String>,
}

impl Checks {
    fn note(&mut self, t: usize, r: Result<(), String>) {
        if let Err(e) = r {
            self.failed_trials.insert(t);
            if self.messages.len() < 8 {
                self.messages.push(format!("trial {t}: {e}"));
            }
        }
    }

    fn fail(&mut self, e: String) {
        self.run_failed = true;
        self.messages.push(e);
    }

    fn failed(&self) -> usize {
        self.failed_trials.len()
    }

    fn ok(&self) -> bool {
        self.failed() == 0 && !self.run_failed
    }
}

/// What a run does before its first trial: compile the rule table and
/// derive the first trial seed.
fn set_up(w: Workload, seed: u64) -> (Setup, u64) {
    let setup = Setup::new(w, seed);
    let first = setup.trial_seed(0);
    (setup, first)
}

/// Seconds per set-up, timed over a batch of `SETUP_BATCH` set-ups. One
/// untimed set-up first brings back the code and data the trial before
/// it evicted from the caches.
fn time_setup_batch(w: Workload, seed: u64) -> f64 {
    std::hint::black_box(set_up(w, seed));
    let start = Instant::now();
    for _ in 0..SETUP_BATCH {
        std::hint::black_box(set_up(w, seed));
    }
    workloads::elapsed_nanos(start) as f64 * 1e-9 / SETUP_BATCH as f64
}

/// Median µs per rule-table compile, over `COMPILE_REPS` batches.
fn compile_us(setup: &Setup) -> f64 {
    let mut us: Vec<f64> = (0..COMPILE_REPS)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..SETUP_BATCH {
                std::hint::black_box(setup.protocol.compile());
            }
            workloads::elapsed_nanos(start) as f64 * 1e-3 / SETUP_BATCH as f64
        })
        .collect();
    median(&mut us)
}

/// One untraced trial with its output-check verdict.
struct Trial {
    record: Record,
    /// Host nanoseconds of the first pass.
    nanos: u64,
    /// Nanoseconds scaled to the nominal pace, the mean of the passes.
    scaled_ns: f64,
    check: Result<(), String>,
}

struct Run {
    trials: Vec<Trial>,
    /// Seconds per set-up, one batch timed before each trial, scaled
    /// like the trial.
    setup_s: Vec<f64>,
    /// Host nanoseconds of every timed reference kernel.
    kernel_ns: Vec<f64>,
    /// The arm the line trials ran on (empty on `star-churn`, whose
    /// engine `availability` keeps to itself).
    arm: &'static str,
}

/// The closed loop: warm up, then run trials back to back until
/// `seconds / PASSES` have passed and at least `MIN_TRIALS` ran. The
/// reference kernel of [`pace`] is timed between every two trials, and
/// each trial and its set-up batch are scaled by the kernel times on
/// either side. Untraced, the same trials then run again for the
/// remaining passes, and each keeps the mean of its scaled times; a pass
/// that returns another result fails the trial. Traced, each trial of the
/// single pass is followed by its traced twin.
fn measure(setup: &Setup, seconds: f64, mut traced: Option<&mut trace::TraceOut>) -> Run {
    for k in 0..WARMUP_TRIALS {
        let seed = netcon_core::seeds::derive2(!setup.seed, setup.workload.n() as u64, k as u64);
        std::hint::black_box(workloads::run_trial(setup, seed).record);
    }
    let mut pace = pace::Pace::new();
    let budget = Duration::from_secs_f64(seconds / PASSES as f64);
    let start = Instant::now();
    let mut trials: Vec<Trial> = Vec::new();
    let mut setup_s = Vec::new();
    let mut arm = "";
    while (start.elapsed() < budget || trials.len() < MIN_TRIALS) && start.elapsed() < MAX_PASS {
        let t = trials.len();
        let (f, scale) = timed_trial(setup, t, &mut pace, &mut setup_s);
        let check = check_trial(&f);
        if let Some(eng) = &f.engine {
            arm = eng.kind();
        }
        trials.push(Trial {
            record: f.record,
            nanos: f.nanos,
            scaled_ns: f.nanos as f64 * scale,
            check,
        });
        drop(f);
        if let Some(tr) = traced.as_deref_mut() {
            tr.trial(setup, t);
            // The traced twin ran between the two kernels: sample again so
            // the next trial is scaled by the kernels around it alone.
            pace.mark();
        }
    }
    let passes = if traced.is_some() { 1 } else { PASSES };
    for pass in 1..passes {
        for (t, trial) in trials.iter_mut().enumerate() {
            let (f, scale) = timed_trial(setup, t, &mut pace, &mut setup_s);
            trial.scaled_ns += (f.nanos as f64 * scale - trial.scaled_ns) / (pass + 1) as f64;
            if f.record != trial.record && trial.check.is_ok() {
                trial.check = Err(format!(
                    "pass {pass} returned {:?}, pass 0 {:?}",
                    f.record, trial.record
                ));
            }
        }
    }
    Run {
        trials,
        setup_s,
        kernel_ns: pace.samples_ns().to_vec(),
        arm,
    }
}

/// Times a set-up batch and then trial `t`, and returns the trial with
/// the factor that scales both to the nominal pace.
fn timed_trial(
    setup: &Setup,
    t: usize,
    pace: &mut pace::Pace,
    setup_s: &mut Vec<f64>,
) -> (Finished, f64) {
    let batch = time_setup_batch(setup.workload, setup.seed);
    let f = workloads::run_trial(setup, setup.trial_seed(t));
    let scale = pace.scale_since_mark();
    setup_s.push(batch * scale);
    (f, scale)
}

fn check_trial(f: &Finished) -> Result<(), String> {
    match (&f.record.outcome, &f.engine) {
        (Outcome::Run(out), Some(eng)) => {
            workloads::check_outcome(out, f.record.draws)?;
            workloads::check_line_shape(eng)
        }
        (Outcome::Availability(r), None) => workloads::check_availability(r),
        _ => Err("trial returned no engine to check".into()),
    }
}

/// `star-churn`: replays every measured trial through the calls
/// `availability` makes, untimed ([`trace::star_trial`]). The replay must
/// match the library's result bit for bit and end in a fault-mode star;
/// it supplies the draw and effective-interaction counts. Returns the
/// arm `availability` ran on.
fn star_post_pass(setup: &Setup, records: &mut [Record], checks: &mut Checks) -> &'static str {
    let mut arm = "";
    for (t, rec) in records.iter_mut().enumerate() {
        let replay = trace::star_trial(&mut trace::Tracer::off(), setup, t);
        if rec.outcome != replay.record.outcome {
            checks.note(
                t,
                Err(format!(
                    "replay {:?} differs from availability {:?}",
                    replay.record.outcome, rec.outcome
                )),
            );
        }
        if !replay.star_shaped {
            checks.note(
                t,
                Err("final configuration is not a fault-mode star".into()),
            );
        }
        *rec = replay.record;
        arm = replay.arm;
    }
    arm
}

/// Prints the result summary and fingerprint and applies the mean band.
fn report_results(w: Workload, records: &[Record], checks: &mut Checks) {
    let results: Vec<f64> = records.iter().map(Record::result).collect();
    let k = results.len() as f64;
    let mean = results.iter().sum::<f64>() / k;
    let r = w.reference();
    let half = workloads::BAND_Z * r.sd * (1.0 / k + 1.0 / f64::from(r.trials)).sqrt();
    println!(
        "result mean {} = {mean} over {} trials (reference {} ± {half}, sd {}, {} trials)",
        w.result_name(),
        records.len(),
        r.mean,
        r.sd,
        r.trials
    );
    // Written so that a NaN mean fails the band too.
    let inside = (mean - r.mean).abs() <= half;
    if !inside {
        checks.fail(format!(
            "mean {} {mean} outside the band {} ± {half}",
            w.result_name(),
            r.mean
        ));
    }
    let words = |recs: &[Record]| recs.iter().flat_map(Record::words).collect::<Vec<u64>>();
    // Every complete run has the first MIN_TRIALS trials, so this
    // fingerprint compares across runs of one seed.
    let first = &records[..records.len().min(MIN_TRIALS)];
    println!(
        "fingerprint first {} trials {:016x}, all {} trials {:016x}",
        first.len(),
        fnv1a(&words(first)),
        records.len(),
        fnv1a(&words(records))
    );
}

/// Prints the reference kernel's times and the unscaled trial times
/// beside the scaled metrics.
fn report_pace(kernel_ns: &mut [f64], nanos: &[u64]) {
    let k = kernel_ns.len();
    kernel_ns.sort_by(f64::total_cmp);
    let mut ms: Vec<f64> = nanos.iter().map(|&x| x as f64 * 1e-6).collect();
    println!(
        "pace: {k} reference kernels, ms p10 {} p50 {} p90 {} (nominal {}); host trial ms p50 {} unscaled",
        quantile(kernel_ns, 0.1) * 1e-6,
        quantile(kernel_ns, 0.5) * 1e-6,
        quantile(kernel_ns, 0.9) * 1e-6,
        pace::NOMINAL_NS * 1e-6,
        median(&mut ms)
    );
}

/// The end-to-end metrics of an untraced run, from trial times scaled
/// to the nominal pace.
fn end_to_end(m: &mut Metrics, records: &[Record], nanos: &[f64], setup_s: f64) {
    let busy_s = nanos.iter().sum::<f64>() * 1e-9;
    let mut ms: Vec<f64> = nanos.iter().map(|&x| x * 1e-6).collect();
    ms.sort_by(f64::total_cmp);
    let p90 = quantile(&ms, 0.9);
    let beyond = ms.iter().filter(|&&x| x > p90).count();
    println!(
        "trial time: {} samples, {beyond} beyond p90{}",
        ms.len(),
        if beyond < 10 {
            " (fewer than 10: p90 is not resolved)"
        } else {
            ""
        }
    );
    // The geometric mean of per-trial rates, not a ratio of sums: a few
    // trials with long skipped tails carry most of the draws at almost no
    // cost, so a ratio of sums (or a median) swings with the seed.
    let log_rates: f64 = records
        .iter()
        .zip(nanos)
        .map(|(r, &ns)| (r.draws as f64 / (ns * 1e-9)).ln())
        .sum();
    m.add("trials_per_s", records.len() as f64 / busy_s, "1/s");
    m.add("trial_ms_p50", quantile(&ms, 0.5), "ms");
    m.add("trial_ms_p90", p90, "ms");
    let effective: u128 = records.iter().map(|r| r.effective).sum();
    m.add("ns_per_effective", busy_s * 1e9 / effective as f64, "ns");
    m.add("draws_per_s", (log_rates / nanos.len() as f64).exp(), "1/s");
    m.add("peak_rss_mb", report::peak_rss_mb(), "MB");
    m.add("setup_s", setup_s, "s");
}

/// `--calibrate <trials>`: runs the trials untimed and prints the mean
/// and standard deviation of the workload's result, for
/// [`Workload::reference`].
fn calibrate(w: Workload, seed: u64, trials: usize) {
    let setup = Setup::new(w, seed);
    let mut records: Vec<Record> = (0..trials)
        .map(|t| {
            let f = workloads::run_trial(&setup, setup.trial_seed(t));
            if let Err(e) = check_trial(&f) {
                panic!("calibration trial {t} failed its check: {e}");
            }
            f.record
        })
        .collect();
    if w == Workload::StarChurn {
        let mut checks = Checks::default();
        star_post_pass(&setup, &mut records, &mut checks);
        assert!(
            checks.ok(),
            "calibration post-pass failed: {:?}",
            checks.messages
        );
    }
    let xs: Vec<f64> = records.iter().map(Record::result).collect();
    let k = xs.len() as f64;
    let mean = xs.iter().sum::<f64>() / k;
    let sd = (xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (k - 1.0)).sqrt();
    println!(
        "{} {}: mean {mean:e} sd {sd:e} over {trials} trials (seed {seed})",
        w.name(),
        w.result_name()
    );
}
