//! Common measurement helpers for the bench targets.

use netcon_analysis::fit::{fit_power_law, fit_power_law_log_corrected, PowerLawFit};
use netcon_analysis::sweep::SweepTable;

/// Formats a fitted exponent with its R².
#[must_use]
pub fn fmt_fit(fit: &PowerLawFit) -> String {
    format!("{:.2} (R²={:.3})", fit.exponent, fit.r_squared)
}

/// Renders the standard per-size block of a sweep: `n`, mean steps, 95%
/// CI, and mean/n² (a useful at-a-glance normalizer for the Θ(n²)-class
/// rows).
#[must_use]
pub fn sweep_rows(table: &SweepTable) -> Vec<Vec<String>> {
    table
        .rows
        .iter()
        .map(|r| {
            vec![
                r.n.to_string(),
                format!("{:.0}", r.summary.mean),
                format!("±{:.0}", r.summary.ci95()),
                format!("{:.2}", r.summary.mean / (r.n * r.n) as f64),
            ]
        })
        .collect()
}

/// Both fits (raw and log-corrected) for a sweep.
#[must_use]
pub fn fits(table: &SweepTable) -> (PowerLawFit, PowerLawFit) {
    let pts = table.points();
    (fit_power_law(&pts), fit_power_law_log_corrected(&pts))
}

/// `NETCON_BENCH_SCALE` (percent, default 100): CI runs the benches at 1
/// while full runs keep paper-grade sample counts.
///
/// # Panics
///
/// Panics if `NETCON_BENCH_SCALE` is set but not a whole number.
#[must_use]
pub fn scale_pct() -> usize {
    netcon_core::knob::read("NETCON_BENCH_SCALE").unwrap_or(100)
}

/// `trials` scaled by [`scale_pct`], floor 2.
#[must_use]
pub fn scale(trials: usize) -> usize {
    (trials * scale_pct() / 100).max(2)
}
