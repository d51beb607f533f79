//! Least-squares log–log fits for estimating time-complexity exponents.
//!
//! The paper's bounds have the form `Θ(n^k)` or `Θ(n^k log n)`. Taking
//! logs, `log T(n) = k·log n + c (+ log log n)`, so an ordinary
//! least-squares fit of `log T` against `log n` estimates `k` (a pure
//! `log n` factor inflates the fitted slope slightly at small `n`; the
//! harness therefore also fits after dividing the measurements by
//! `log n`).

/// Result of a power-law fit `T(n) ≈ a · n^k`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerLawFit {
    /// The fitted exponent `k`.
    pub exponent: f64,
    /// The fitted constant `a` (from the intercept).
    pub constant: f64,
    /// Coefficient of determination of the log–log regression.
    pub r_squared: f64,
}

/// Fits `T(n) = a · n^k` to `(n, T)` points by least squares in log–log
/// space.
///
/// # Panics
///
/// Panics if fewer than 2 points are given or any coordinate is
/// non-positive (logs would be undefined).
#[must_use]
pub fn fit_power_law(points: &[(f64, f64)]) -> PowerLawFit {
    assert!(points.len() >= 2, "need at least two points to fit");
    assert!(
        points.iter().all(|&(x, y)| x > 0.0 && y > 0.0),
        "power-law fit needs positive coordinates"
    );
    let logs: Vec<(f64, f64)> = points.iter().map(|&(x, y)| (x.ln(), y.ln())).collect();
    let n = logs.len() as f64;
    let sx: f64 = logs.iter().map(|p| p.0).sum();
    let sy: f64 = logs.iter().map(|p| p.1).sum();
    let sxx: f64 = logs.iter().map(|p| p.0 * p.0).sum();
    let sxy: f64 = logs.iter().map(|p| p.0 * p.1).sum();
    let slope = (n * sxy - sx * sy) / (n * sxx - sx * sx);
    let intercept = (sy - slope * sx) / n;

    let mean_y = sy / n;
    let ss_tot: f64 = logs.iter().map(|p| (p.1 - mean_y).powi(2)).sum();
    let ss_res: f64 = logs
        .iter()
        .map(|p| (p.1 - (slope * p.0 + intercept)).powi(2))
        .sum();
    let r_squared = if ss_tot == 0.0 {
        1.0
    } else {
        1.0 - ss_res / ss_tot
    };
    PowerLawFit {
        exponent: slope,
        constant: intercept.exp(),
        r_squared,
    }
}

/// Fits `T(n) = a · n^k · log n`: divides each measurement by `ln n`
/// before the power-law fit, returning the exponent of the polynomial
/// part.
///
/// # Panics
///
/// Panics under the same conditions as [`fit_power_law`], or if any
/// `n ≤ 1` (so that `ln n ≤ 0`).
#[must_use]
pub fn fit_power_law_log_corrected(points: &[(f64, f64)]) -> PowerLawFit {
    assert!(
        points.iter().all(|&(x, _)| x > 1.0),
        "log-corrected fit needs n > 1"
    );
    let corrected: Vec<(f64, f64)> = points.iter().map(|&(x, y)| (x, y / x.ln())).collect();
    fit_power_law(&corrected)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_quadratic() {
        let pts: Vec<(f64, f64)> = (2..20).map(|n| (n as f64, 3.0 * (n * n) as f64)).collect();
        let f = fit_power_law(&pts);
        assert!((f.exponent - 2.0).abs() < 1e-9);
        assert!((f.constant - 3.0).abs() < 1e-6);
        assert!((f.r_squared - 1.0).abs() < 1e-12);
    }

    #[test]
    fn log_corrected_recovers_linear_exponent() {
        // T(n) = 5 n log n → corrected fit exponent ≈ 1.
        let pts: Vec<(f64, f64)> = (4..64)
            .map(|n| (n as f64, 5.0 * n as f64 * (n as f64).ln()))
            .collect();
        let raw = fit_power_law(&pts);
        let corr = fit_power_law_log_corrected(&pts);
        assert!(raw.exponent > 1.05, "raw slope absorbs the log factor");
        assert!((corr.exponent - 1.0).abs() < 1e-9);
        assert!((corr.constant - 5.0).abs() < 1e-6);
    }

    #[test]
    fn noisy_fit_reports_imperfect_r2() {
        let pts = [(2.0, 4.1), (4.0, 15.5), (8.0, 66.0), (16.0, 250.0)];
        let f = fit_power_law(&pts);
        assert!((f.exponent - 2.0).abs() < 0.1);
        assert!(f.r_squared < 1.0 && f.r_squared > 0.99);
    }

    #[test]
    #[should_panic(expected = "at least two")]
    fn single_point_panics() {
        let _ = fit_power_law(&[(2.0, 4.0)]);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_measurement_panics() {
        let _ = fit_power_law(&[(2.0, 0.0), (4.0, 1.0)]);
    }
}
