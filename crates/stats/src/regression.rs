//! Least-squares fits used to check the *shape* of measured scaling curves.
//!
//! The paper's claims are asymptotic: cover time `O(log n)` on expanders, `Θ(n^{1/d})`-ish on
//! grids, `1/(1-λ)` factors on gap sweeps. The experiments therefore fit measured times
//! against `log n` (linear model `y = a + b·log n`) or against a power law (`y = a·x^b`, fitted
//! in log–log space) and report slopes and `R²` rather than chasing the paper's constants.

use serde::{Deserialize, Serialize};

/// A fitted univariate linear model `y = intercept + slope · x`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LinearFit {
    /// Intercept `a`.
    pub intercept: f64,
    /// Slope `b`.
    pub slope: f64,
    /// Coefficient of determination.
    pub r_squared: f64,
    /// Number of points fitted.
    pub points: usize,
}

/// Ordinary least squares for `y = a + b·x`.
///
/// Returns `None` if fewer than two points are supplied, the lengths differ, or all `x` are
/// identical (degenerate design matrix).
fn linear_fit(x: &[f64], y: &[f64]) -> Option<LinearFit> {
    if x.len() != y.len() || x.len() < 2 {
        return None;
    }
    let n = x.len() as f64;
    let mean_x = x.iter().sum::<f64>() / n;
    let mean_y = y.iter().sum::<f64>() / n;
    let mut sxx = 0.0;
    let mut sxy = 0.0;
    let mut syy = 0.0;
    for (&xi, &yi) in x.iter().zip(y.iter()) {
        let dx = xi - mean_x;
        let dy = yi - mean_y;
        sxx += dx * dx;
        sxy += dx * dy;
        syy += dy * dy;
    }
    if sxx == 0.0 {
        return None;
    }
    let slope = sxy / sxx;
    let intercept = mean_y - slope * mean_x;
    let r_squared = if syy == 0.0 { 1.0 } else { (sxy * sxy) / (sxx * syy) };
    Some(LinearFit { intercept, slope, r_squared, points: x.len() })
}

/// Fits `y = a + b·ln(x)` — the model behind every "is it `O(log n)`?" check.
///
/// Returns `None` if fewer than two points are supplied, the lengths differ, all `x` are
/// identical, or any `x ≤ 0`.
pub fn log_fit(x: &[f64], y: &[f64]) -> Option<LinearFit> {
    if x.iter().any(|&v| v <= 0.0) {
        return None;
    }
    let logs: Vec<f64> = x.iter().map(|&v| v.ln()).collect();
    linear_fit(&logs, y)
}

/// A fitted power law `y = coefficient · x^exponent`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PowerLawFit {
    /// Multiplicative coefficient `a`.
    pub coefficient: f64,
    /// Exponent `b`.
    pub exponent: f64,
    /// `R²` of the underlying log–log linear fit.
    pub r_squared: f64,
    /// Number of points fitted.
    pub points: usize,
}

/// Fits `y = a·x^b` by least squares in log–log space.
///
/// Returns `None` if any coordinate is non-positive or the fit is degenerate.
pub fn power_law_fit(x: &[f64], y: &[f64]) -> Option<PowerLawFit> {
    if x.len() != y.len()
        || x.len() < 2
        || x.iter().any(|&v| v <= 0.0)
        || y.iter().any(|&v| v <= 0.0)
    {
        return None;
    }
    let lx: Vec<f64> = x.iter().map(|&v| v.ln()).collect();
    let ly: Vec<f64> = y.iter().map(|&v| v.ln()).collect();
    let fit = linear_fit(&lx, &ly)?;
    Some(PowerLawFit {
        coefficient: fit.intercept.exp(),
        exponent: fit.slope,
        r_squared: fit.r_squared,
        points: fit.points,
    })
}

/// Pearson correlation coefficient of two samples, or `None` when undefined.
pub fn pearson_correlation(x: &[f64], y: &[f64]) -> Option<f64> {
    let fit = linear_fit(x, y)?;
    Some(fit.r_squared.sqrt() * fit.slope.signum())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() < tol, "{a} != {b}");
    }

    #[test]
    fn exact_linear_data_is_recovered() {
        let x: Vec<f64> = (1..=10).map(|i| i as f64).collect();
        let y: Vec<f64> = x.iter().map(|&v| 3.0 + 2.0 * v).collect();
        let fit = linear_fit(&x, &y).unwrap();
        assert_close(fit.intercept, 3.0, 1e-10);
        assert_close(fit.slope, 2.0, 1e-10);
        assert_close(fit.r_squared, 1.0, 1e-12);
        assert_eq!(fit.points, 10);
    }

    #[test]
    fn noisy_linear_data_has_high_r_squared() {
        let x: Vec<f64> = (1..=50).map(|i| i as f64).collect();
        let y: Vec<f64> = x
            .iter()
            .enumerate()
            .map(|(i, &v)| 1.0 + 0.5 * v + ((i * 7) % 3) as f64 * 0.1)
            .collect();
        let fit = linear_fit(&x, &y).unwrap();
        assert_close(fit.slope, 0.5, 0.01);
        assert!(fit.r_squared > 0.99);
    }

    #[test]
    fn degenerate_inputs_return_none() {
        assert!(linear_fit(&[1.0], &[2.0]).is_none());
        assert!(linear_fit(&[1.0, 2.0], &[2.0]).is_none());
        assert!(linear_fit(&[3.0, 3.0, 3.0], &[1.0, 2.0, 3.0]).is_none());
        assert!(log_fit(&[0.0, 1.0], &[1.0, 2.0]).is_none());
        assert!(power_law_fit(&[1.0, 2.0], &[0.0, 2.0]).is_none());
        assert!(power_law_fit(&[-1.0, 2.0], &[1.0, 2.0]).is_none());
    }

    #[test]
    fn log_fit_recovers_logarithmic_growth() {
        let x: Vec<f64> = (1..=12).map(|i| (1usize << i) as f64).collect();
        let y: Vec<f64> = x.iter().map(|&v| 4.0 + 2.5 * v.ln()).collect();
        let fit = log_fit(&x, &y).unwrap();
        assert_close(fit.intercept, 4.0, 1e-9);
        assert_close(fit.slope, 2.5, 1e-9);
        assert_close(fit.r_squared, 1.0, 1e-12);
    }

    #[test]
    fn power_law_fit_recovers_square_root_scaling() {
        let x: Vec<f64> = (1..=20).map(|i| (i * i * 100) as f64).collect();
        let y: Vec<f64> = x.iter().map(|&v| 3.0 * v.sqrt()).collect();
        let fit = power_law_fit(&x, &y).unwrap();
        assert_close(fit.exponent, 0.5, 1e-9);
        assert_close(fit.coefficient, 3.0, 1e-6);
    }

    #[test]
    fn constant_data_has_unit_r_squared_and_zero_slope() {
        let x: Vec<f64> = (1..=5).map(|i| i as f64).collect();
        let y = vec![7.0; 5];
        let fit = linear_fit(&x, &y).unwrap();
        assert_close(fit.slope, 0.0, 1e-12);
        assert_close(fit.r_squared, 1.0, 1e-12);
    }

    #[test]
    fn pearson_correlation_signs() {
        let x: Vec<f64> = (1..=10).map(|i| i as f64).collect();
        let up: Vec<f64> = x.iter().map(|&v| 2.0 * v).collect();
        let down: Vec<f64> = x.iter().map(|&v| -2.0 * v + 30.0).collect();
        assert_close(pearson_correlation(&x, &up).unwrap(), 1.0, 1e-9);
        assert_close(pearson_correlation(&x, &down).unwrap(), -1.0, 1e-9);
        assert!(pearson_correlation(&x, &[1.0]).is_none());
    }

    #[test]
    fn fits_serialize() {
        let x: Vec<f64> = (1..=5).map(|i| i as f64).collect();
        let y: Vec<f64> = x.iter().map(|&v| v * 2.0).collect();
        let fit = linear_fit(&x, &y).unwrap();
        let json = serde_json::to_string(&fit).unwrap();
        let back: LinearFit = serde_json::from_str(&json).unwrap();
        assert_eq!(fit, back);
    }
}
