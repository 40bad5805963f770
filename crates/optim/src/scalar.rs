//! One-dimensional minimization by golden-section search.
//!
//! Used to locate curve troughs when the analytic minimum is unavailable.

use crate::OptimError;

/// Result of a scalar minimization.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScalarMinimum {
    /// Abscissa of the minimum.
    pub x: f64,
    /// Function value at the minimum.
    pub f_x: f64,
    /// Iterations used.
    pub iterations: usize,
}

const GOLDEN_RATIO_CONJUGATE: f64 = 0.618_033_988_749_894_9;

/// Golden-section search on a unimodal function over `[lo, hi]`.
///
/// Linear convergence but completely derivative-free and robust.
///
/// # Errors
///
/// * [`OptimError::InvalidConfig`] for a bad interval/tolerance.
/// * [`OptimError::BudgetExhausted`] if `max_iter` is hit (the best point
///   so far is carried in the error).
///
/// # Examples
///
/// ```
/// use resilience_optim::scalar::golden_section;
/// let m = golden_section(|x| (x - 2.5) * (x - 2.5), 0.0, 10.0, 1e-10, 200)?;
/// assert!((m.x - 2.5).abs() < 1e-8);
/// # Ok::<(), resilience_optim::OptimError>(())
/// ```
pub fn golden_section<F: Fn(f64) -> f64>(
    f: F,
    lo: f64,
    hi: f64,
    tol: f64,
    max_iter: usize,
) -> Result<ScalarMinimum, OptimError> {
    if !(lo < hi) || !lo.is_finite() || !hi.is_finite() {
        return Err(OptimError::config(
            "golden_section",
            format!("need finite lo < hi, got [{lo}, {hi}]"),
        ));
    }
    if !(tol > 0.0) {
        return Err(OptimError::config(
            "golden_section",
            "tolerance must be positive",
        ));
    }
    let mut a = lo;
    let mut b = hi;
    let mut x1 = b - GOLDEN_RATIO_CONJUGATE * (b - a);
    let mut x2 = a + GOLDEN_RATIO_CONJUGATE * (b - a);
    let mut f1 = f(x1);
    let mut f2 = f(x2);
    for i in 1..=max_iter {
        if (b - a).abs() < tol * (1.0 + a.abs() + b.abs()) {
            let (x, f_x) = if f1 < f2 { (x1, f1) } else { (x2, f2) };
            return Ok(ScalarMinimum {
                x,
                f_x,
                iterations: i,
            });
        }
        if f1 < f2 {
            b = x2;
            x2 = x1;
            f2 = f1;
            x1 = b - GOLDEN_RATIO_CONJUGATE * (b - a);
            f1 = f(x1);
        } else {
            a = x1;
            x1 = x2;
            f1 = f2;
            x2 = a + GOLDEN_RATIO_CONJUGATE * (b - a);
            f2 = f(x2);
        }
    }
    let (x, f_x) = if f1 < f2 { (x1, f1) } else { (x2, f2) };
    Err(OptimError::BudgetExhausted {
        best_params: vec![x],
        best_value: f_x,
        evaluations: max_iter + 2,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn golden_finds_quadratic_minimum() {
        let m = golden_section(|x| (x - 3.0).powi(2) + 1.0, -10.0, 10.0, 1e-10, 200).unwrap();
        assert!((m.x - 3.0).abs() < 1e-7);
        assert!((m.f_x - 1.0).abs() < 1e-12);
    }

    #[test]
    fn golden_rejects_bad_interval() {
        assert!(golden_section(|x| x, 1.0, 0.0, 1e-8, 100).is_err());
        assert!(golden_section(|x| x, 0.0, 1.0, -1.0, 100).is_err());
    }

    #[test]
    fn golden_budget_carries_best() {
        let r = golden_section(|x| (x - 3.0).powi(2), -1e6, 1e6, 1e-15, 3);
        match r {
            Err(OptimError::BudgetExhausted { best_params, .. }) => {
                assert_eq!(best_params.len(), 1);
            }
            other => panic!("expected budget exhaustion, got {other:?}"),
        }
    }
}
