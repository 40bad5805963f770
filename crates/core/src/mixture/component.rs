//! Mixture component distributions.

use crate::CoreError;
use resilience_stats::{ContinuousDistribution, Exponential, Gamma, LogNormal, Weibull};

/// Which distribution family a mixture component uses.
///
/// The paper evaluates Exponential and Weibull (its Eq. 23); Gamma and
/// LogNormal are workspace extensions (DESIGN.md §5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ComponentKind {
    /// Exponential(rate) — 1 parameter.
    Exponential,
    /// Weibull(shape, scale) — 2 parameters.
    Weibull,
    /// Gamma(shape, rate) — 2 parameters (extension).
    Gamma,
    /// LogNormal(μ, σ) — 2 parameters (extension).
    LogNormal,
}

impl ComponentKind {
    /// Number of parameters for this component.
    #[must_use]
    pub fn n_params(&self) -> usize {
        match self {
            ComponentKind::Exponential => 1,
            ComponentKind::Weibull | ComponentKind::Gamma | ComponentKind::LogNormal => 2,
        }
    }

    /// Short label used in the paper's tables (`Exp`, `Wei`) and the
    /// extension labels (`Gam`, `LogN`).
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            ComponentKind::Exponential => "Exp",
            ComponentKind::Weibull => "Wei",
            ComponentKind::Gamma => "Gam",
            ComponentKind::LogNormal => "LogN",
        }
    }

    /// Builds the concrete distribution from its parameter slice.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameters`] for the wrong parameter
    /// count or infeasible values.
    pub fn build(&self, params: &[f64]) -> Result<BuiltComponent, CoreError> {
        if params.len() != self.n_params() {
            return Err(CoreError::params(
                "MixtureComponent",
                format!(
                    "{} takes {} parameters, got {}",
                    self.label(),
                    self.n_params(),
                    params.len()
                ),
            ));
        }
        let built = match self {
            ComponentKind::Exponential => BuiltComponent::Exponential(Exponential::new(params[0])?),
            ComponentKind::Weibull => BuiltComponent::Weibull(Weibull::new(params[0], params[1])?),
            ComponentKind::Gamma => BuiltComponent::Gamma(Gamma::new(params[0], params[1])?),
            ComponentKind::LogNormal => {
                BuiltComponent::LogNormal(LogNormal::new(params[0], params[1])?)
            }
        };
        Ok(built)
    }

    /// Allocation-free variant of [`ComponentKind::build`] for the
    /// fitting hot path: returns `None` instead of constructing an error
    /// for the wrong parameter count or infeasible values.
    #[must_use]
    pub fn try_build(&self, params: &[f64]) -> Option<BuiltComponent> {
        if params.len() != self.n_params() {
            return None;
        }
        // The distribution constructors carry static-str errors, so even
        // the failure path here allocates nothing.
        Some(match self {
            ComponentKind::Exponential => {
                BuiltComponent::Exponential(Exponential::new(params[0]).ok()?)
            }
            ComponentKind::Weibull => {
                BuiltComponent::Weibull(Weibull::new(params[0], params[1]).ok()?)
            }
            ComponentKind::Gamma => BuiltComponent::Gamma(Gamma::new(params[0], params[1]).ok()?),
            ComponentKind::LogNormal => {
                BuiltComponent::LogNormal(LogNormal::new(params[0], params[1]).ok()?)
            }
        })
    }

    /// Whether [`BuiltComponent::cdf_gradient`] has a closed form for
    /// this kind (the paper's Exponential and Weibull components; the
    /// Gamma and LogNormal extensions go through incomplete-function
    /// series and fall back to finite differences).
    #[must_use]
    pub fn has_cdf_gradient(&self) -> bool {
        matches!(self, ComponentKind::Exponential | ComponentKind::Weibull)
    }

    /// Whether parameter `i` must be positive (`true` for every parameter
    /// except LogNormal's location μ).
    #[must_use]
    pub fn param_positive(&self, i: usize) -> bool {
        !(matches!(self, ComponentKind::LogNormal) && i == 0)
    }

    /// Data-driven candidate parameter sets for a component expected to
    /// transition around time `t_scale`.
    #[must_use]
    pub fn candidate_params(&self, t_scale: f64) -> Vec<Vec<f64>> {
        let t = t_scale.max(1.0);
        match self {
            ComponentKind::Exponential => vec![vec![1.0 / t], vec![2.0 / t], vec![0.5 / t]],
            ComponentKind::Weibull => vec![vec![1.5, t], vec![2.5, t], vec![1.0, 2.0 * t]],
            ComponentKind::Gamma => vec![vec![2.0, 2.0 / t], vec![1.0, 1.0 / t]],
            ComponentKind::LogNormal => vec![vec![t.ln(), 0.5], vec![t.ln(), 1.0]],
        }
    }
}

impl std::fmt::Display for ComponentKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.label())
    }
}

/// A constructed mixture component, dispatching CDF evaluation to the
/// concrete distribution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BuiltComponent {
    /// Exponential component.
    Exponential(Exponential),
    /// Weibull component.
    Weibull(Weibull),
    /// Gamma component (extension).
    Gamma(Gamma),
    /// LogNormal component (extension).
    LogNormal(LogNormal),
}

impl BuiltComponent {
    /// CDF at `t`.
    #[must_use]
    pub fn cdf(&self, t: f64) -> f64 {
        match self {
            BuiltComponent::Exponential(d) => d.cdf(t),
            BuiltComponent::Weibull(d) => d.cdf(t),
            BuiltComponent::Gamma(d) => d.cdf(t),
            BuiltComponent::LogNormal(d) => d.cdf(t),
        }
    }

    /// Survival at `t`.
    #[must_use]
    pub fn survival(&self, t: f64) -> f64 {
        match self {
            BuiltComponent::Exponential(d) => d.survival(t),
            BuiltComponent::Weibull(d) => d.survival(t),
            BuiltComponent::Gamma(d) => d.survival(t),
            BuiltComponent::LogNormal(d) => d.survival(t),
        }
    }

    /// Partials of the CDF with respect to the component's *external*
    /// parameters, written into `out[..n_params]`; returns `false` for
    /// kinds without a closed form (see
    /// [`ComponentKind::has_cdf_gradient`]).
    ///
    /// Closed forms:
    ///
    /// * Exponential(λ): `F = 1 − e^{−λt}` on `t ≥ 0`, so
    ///   `∂F/∂λ = t·e^{−λt}` (0 for `t < 0`).
    /// * Weibull(k, λ): `F = 1 − e^{−z}` with `z = (t/λ)^k` on `t > 0`,
    ///   so `∂F/∂k = e^{−z}·z·ln(t/λ)` and `∂F/∂λ = −e^{−z}·k·z/λ`
    ///   (both 0 for `t ≤ 0`, guarding the `0·(−∞)` NaN at `t = 0`).
    pub fn cdf_gradient(&self, t: f64, out: &mut [f64]) -> bool {
        Prepared::new(*self).cdf_gradient(t, t.ln(), out)
    }
}

/// A component prepared for the mixture's per-point loops. The Weibull
/// term is evaluated in log space: with `ln λ` taken once here and the
/// caller's `ln t` shared with the trend, `z = (t/λ)^k` is
/// `exp(k·(ln t − ln λ))`, so a point costs no `powf` and no further
/// logarithm. Every other kind evaluates through its distribution, and
/// `stats::Weibull` stays the reference the log-space form is tested
/// against.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(super) enum Prepared {
    /// Weibull(k, λ) with `ln λ` precomputed.
    Weibull {
        shape: f64,
        scale: f64,
        ln_scale: f64,
    },
    /// Any other kind, evaluated by its distribution.
    Dist(BuiltComponent),
}

impl Prepared {
    pub(super) fn new(component: BuiltComponent) -> Self {
        match component {
            BuiltComponent::Weibull(d) => Prepared::Weibull {
                shape: d.shape(),
                scale: d.scale(),
                ln_scale: d.scale().ln(),
            },
            other => Prepared::Dist(other),
        }
    }

    /// The Weibull cumulative hazard `z = (t/λ)^k` for `t > 0`, from
    /// `ln t`.
    fn weibull_z(shape: f64, ln_scale: f64, ln_t: f64) -> f64 {
        (shape * (ln_t - ln_scale)).exp()
    }

    /// CDF at `t`, given `ln_t = t.ln()`.
    pub(super) fn cdf(&self, t: f64, ln_t: f64) -> f64 {
        match *self {
            Prepared::Weibull {
                shape, ln_scale, ..
            } => {
                if t <= 0.0 {
                    0.0
                } else {
                    -(-Self::weibull_z(shape, ln_scale, ln_t)).exp_m1()
                }
            }
            Prepared::Dist(d) => d.cdf(t),
        }
    }

    /// Survival at `t`, given `ln_t = t.ln()`.
    pub(super) fn survival(&self, t: f64, ln_t: f64) -> f64 {
        match *self {
            Prepared::Weibull {
                shape, ln_scale, ..
            } => {
                if t <= 0.0 {
                    1.0
                } else {
                    (-Self::weibull_z(shape, ln_scale, ln_t)).exp()
                }
            }
            Prepared::Dist(d) => d.survival(t),
        }
    }

    /// [`BuiltComponent::cdf_gradient`], given `ln_t = t.ln()`; the
    /// Weibull `ln(t/λ)` is `ln t − ln λ`.
    pub(super) fn cdf_gradient(&self, t: f64, ln_t: f64, out: &mut [f64]) -> bool {
        match *self {
            Prepared::Dist(BuiltComponent::Exponential(d)) => {
                out[0] = if t >= 0.0 {
                    t * (-d.rate() * t).exp()
                } else {
                    0.0
                };
                true
            }
            Prepared::Weibull {
                shape,
                scale,
                ln_scale,
            } => {
                if t > 0.0 {
                    let z = Self::weibull_z(shape, ln_scale, ln_t);
                    let damp = (-z).exp();
                    out[0] = damp * z * (ln_t - ln_scale);
                    out[1] = -damp * shape * z / scale;
                } else {
                    out[0] = 0.0;
                    out[1] = 0.0;
                }
                true
            }
            Prepared::Dist(_) => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn param_counts() {
        assert_eq!(ComponentKind::Exponential.n_params(), 1);
        assert_eq!(ComponentKind::Weibull.n_params(), 2);
        assert_eq!(ComponentKind::Gamma.n_params(), 2);
        assert_eq!(ComponentKind::LogNormal.n_params(), 2);
    }

    #[test]
    fn build_validates_count_and_values() {
        assert!(ComponentKind::Exponential.build(&[1.0, 2.0]).is_err());
        assert!(ComponentKind::Exponential.build(&[-1.0]).is_err());
        assert!(ComponentKind::Weibull.build(&[1.0]).is_err());
        assert!(ComponentKind::Weibull.build(&[2.0, 3.0]).is_ok());
    }

    #[test]
    fn built_cdf_dispatch() {
        let e = ComponentKind::Exponential.build(&[0.5]).unwrap();
        assert!((e.cdf(2.0) - (1.0 - (-1.0f64).exp())).abs() < 1e-14);
        let w = ComponentKind::Weibull.build(&[2.0, 5.0]).unwrap();
        assert!((w.cdf(5.0) - (1.0 - (-1.0f64).exp())).abs() < 1e-14);
        assert!((e.survival(2.0) + e.cdf(2.0) - 1.0).abs() < 1e-14);
    }

    #[test]
    fn try_build_agrees_with_build() {
        for kind in [
            ComponentKind::Exponential,
            ComponentKind::Weibull,
            ComponentKind::Gamma,
            ComponentKind::LogNormal,
        ] {
            for params in kind.candidate_params(8.0) {
                assert_eq!(kind.try_build(&params), Some(kind.build(&params).unwrap()));
            }
        }
        assert_eq!(ComponentKind::Exponential.try_build(&[1.0, 2.0]), None);
        assert_eq!(ComponentKind::Exponential.try_build(&[-1.0]), None);
        assert_eq!(ComponentKind::Weibull.try_build(&[f64::NAN, 1.0]), None);
    }

    #[test]
    fn positivity_flags() {
        assert!(ComponentKind::Exponential.param_positive(0));
        assert!(ComponentKind::Weibull.param_positive(0));
        assert!(ComponentKind::Weibull.param_positive(1));
        assert!(!ComponentKind::LogNormal.param_positive(0)); // μ unbounded
        assert!(ComponentKind::LogNormal.param_positive(1));
    }

    #[test]
    fn candidates_are_buildable() {
        for kind in [
            ComponentKind::Exponential,
            ComponentKind::Weibull,
            ComponentKind::Gamma,
            ComponentKind::LogNormal,
        ] {
            for params in kind.candidate_params(12.0) {
                assert!(kind.build(&params).is_ok(), "{kind}: {params:?}");
            }
        }
    }

    #[test]
    fn labels_match_paper() {
        assert_eq!(ComponentKind::Exponential.label(), "Exp");
        assert_eq!(ComponentKind::Weibull.label(), "Wei");
    }
}
