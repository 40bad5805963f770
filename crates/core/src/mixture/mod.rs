//! Mixture-distribution resilience models (paper §II-B, Eq. 7).
//!
//! The curve is a competition between a degradation process and a
//! recovery process:
//!
//! ```text
//! P(t) = a₁(t)·(1 − F₁(t)) + a₂(t)·F₂(t)
//! ```
//!
//! with `a₁(t) = 1` (the paper's simplification), `F₁` the degradation
//! CDF, `F₂` the recovery CDF, and `a₂(t)` an increasing recovery trend.
//! The paper's Table III evaluates the four pairings of Exponential and
//! Weibull components under `a₂(t) = β·ln t`; this module supports any
//! [`ComponentKind`] pairing under any [`Trend`].

mod component;
mod trend;

use component::Prepared;
pub use component::{BuiltComponent, ComponentKind};
pub use trend::Trend;

use crate::model::{sse_batch_kernel, ModelFamily, ResilienceModel};
use crate::CoreError;
use resilience_data::PerformanceSeries;
use resilience_math::linalg::Matrix;

/// A fitted mixture resilience model (paper Eq. 7 with `a₁ = 1`).
///
/// # Examples
///
/// ```
/// use resilience_core::mixture::{ComponentKind, MixtureModel, Trend};
/// use resilience_core::ResilienceModel;
///
/// // Wei-Exp with a logarithmic recovery trend, the paper's best
/// // performing combination on the 1990-93 data.
/// let m = MixtureModel::new(
///     ComponentKind::Weibull, vec![2.0, 15.0],
///     ComponentKind::Exponential, vec![0.08],
///     Trend::Logarithmic, 0.30,
/// )?;
/// assert!((m.predict(0.0) - 1.0).abs() < 1e-12); // starts at nominal
/// # Ok::<(), resilience_core::CoreError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct MixtureModel {
    f1_kind: ComponentKind,
    f1_params: Vec<f64>,
    f1: Prepared,
    f2_kind: ComponentKind,
    f2_params: Vec<f64>,
    f2: Prepared,
    trend: Trend,
    beta: f64,
    name: &'static str,
}

impl MixtureModel {
    /// Creates a mixture model from its components, trend, and trend
    /// coefficient `β`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameters`] for infeasible component
    /// parameters or a non-finite/non-positive `β`.
    pub fn new(
        f1_kind: ComponentKind,
        f1_params: Vec<f64>,
        f2_kind: ComponentKind,
        f2_params: Vec<f64>,
        trend: Trend,
        beta: f64,
    ) -> Result<Self, CoreError> {
        if !(beta > 0.0) || !beta.is_finite() {
            return Err(CoreError::params(
                "Mixture",
                format!("trend coefficient β must be positive and finite, got {beta}"),
            ));
        }
        let f1 = Prepared::new(f1_kind.build(&f1_params)?);
        let f2 = Prepared::new(f2_kind.build(&f2_params)?);
        Ok(MixtureModel {
            f1_kind,
            f1_params,
            f1,
            f2_kind,
            f2_params,
            f2,
            trend,
            beta,
            name: combo_name(f1_kind, f2_kind),
        })
    }

    /// The degradation component kind.
    #[must_use]
    pub fn degradation_kind(&self) -> ComponentKind {
        self.f1_kind
    }

    /// The recovery component kind.
    #[must_use]
    pub fn recovery_kind(&self) -> ComponentKind {
        self.f2_kind
    }

    /// The recovery trend.
    #[must_use]
    pub fn trend(&self) -> Trend {
        self.trend
    }

    /// The trend coefficient `β`.
    #[must_use]
    pub fn beta(&self) -> f64 {
        self.beta
    }

    /// The degradation term `1 − F₁(t)` alone.
    #[must_use]
    pub fn degradation_term(&self, t: f64) -> f64 {
        self.f1.survival(t, t.ln())
    }

    /// The recovery term `a₂(t)·F₂(t)` alone.
    #[must_use]
    pub fn recovery_term(&self, t: f64) -> f64 {
        let ln_t = t.ln();
        self.trend.eval_ln(self.beta, t, ln_t) * self.f2.cdf(t, ln_t)
    }
}

impl ResilienceModel for MixtureModel {
    fn name(&self) -> &'static str {
        self.name
    }

    fn params(&self) -> Vec<f64> {
        let mut p = self.f1_params.clone();
        p.extend_from_slice(&self.f2_params);
        p.push(self.beta);
        p
    }

    fn predict(&self, t: f64) -> f64 {
        curve(&self.f1, &self.f2, self.trend, self.beta, t)
    }
}

/// The mixture curve (paper Eq. 7 with `a₁ = 1`) from prepared
/// components: `(1 − F₁(t)) + a₂(β, t)·F₂(t)`. Fitted models and the
/// fitting hot path both evaluate through it. `ln t` is taken once and
/// shared by the trend and both components; it is `−∞` or NaN for
/// `t ≤ 0`, where every branch that reads it is clamped off.
fn curve(f1: &Prepared, f2: &Prepared, trend: Trend, beta: f64, t: f64) -> f64 {
    let ln_t = t.ln();
    f1.survival(t, ln_t) + trend.eval_ln(beta, t, ln_t) * f2.cdf(t, ln_t)
}

/// Table label for a component pairing (e.g. `"Wei-Exp"`).
#[must_use]
pub fn combo_name(f1: ComponentKind, f2: ComponentKind) -> &'static str {
    use ComponentKind as K;
    match (f1, f2) {
        (K::Exponential, K::Exponential) => "Exp-Exp",
        (K::Exponential, K::Weibull) => "Exp-Wei",
        (K::Exponential, K::Gamma) => "Exp-Gam",
        (K::Exponential, K::LogNormal) => "Exp-LogN",
        (K::Weibull, K::Exponential) => "Wei-Exp",
        (K::Weibull, K::Weibull) => "Wei-Wei",
        (K::Weibull, K::Gamma) => "Wei-Gam",
        (K::Weibull, K::LogNormal) => "Wei-LogN",
        (K::Gamma, K::Exponential) => "Gam-Exp",
        (K::Gamma, K::Weibull) => "Gam-Wei",
        (K::Gamma, K::Gamma) => "Gam-Gam",
        (K::Gamma, K::LogNormal) => "Gam-LogN",
        (K::LogNormal, K::Exponential) => "LogN-Exp",
        (K::LogNormal, K::Weibull) => "LogN-Wei",
        (K::LogNormal, K::Gamma) => "LogN-Gam",
        (K::LogNormal, K::LogNormal) => "LogN-LogN",
    }
}

/// The [`ModelFamily`] for mixture models with fixed component kinds and
/// trend.
///
/// Parameters are ordered `[F₁ params…, F₂ params…, β]`. The internal
/// space log-transforms every positive parameter (all but LogNormal's μ).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MixtureFamily {
    /// Degradation component kind.
    pub f1: ComponentKind,
    /// Recovery component kind.
    pub f2: ComponentKind,
    /// Recovery trend.
    pub trend: Trend,
}

impl MixtureFamily {
    /// The paper's four evaluated combinations (Exp/Wei pairings) under
    /// the logarithmic trend of its Table III.
    #[must_use]
    pub fn paper_combinations() -> Vec<MixtureFamily> {
        use ComponentKind as K;
        [
            (K::Exponential, K::Exponential),
            (K::Weibull, K::Exponential),
            (K::Exponential, K::Weibull),
            (K::Weibull, K::Weibull),
        ]
        .into_iter()
        .map(|(f1, f2)| MixtureFamily {
            f1,
            f2,
            trend: Trend::Logarithmic,
        })
        .collect()
    }

    fn split_params<'a>(&self, params: &'a [f64]) -> (&'a [f64], &'a [f64], f64) {
        let n1 = self.f1.n_params();
        let n2 = self.f2.n_params();
        (&params[..n1], &params[n1..n1 + n2], params[n1 + n2])
    }

    /// Checks `β` and both components of a full external parameter
    /// vector and prepares the components for the per-point loops:
    /// `None` where any of them is infeasible.
    fn prepare(&self, params: &[f64]) -> Option<(Prepared, Prepared, f64)> {
        let (p1, p2, beta) = self.split_params(params);
        if !(beta > 0.0) || !beta.is_finite() {
            return None;
        }
        let f1 = Prepared::new(self.f1.try_build(p1)?);
        let f2 = Prepared::new(self.f2.try_build(p2)?);
        Some((f1, f2, beta))
    }

    /// Whether external parameter `i` is constrained positive (and so
    /// log-transformed in the internal space).
    fn param_positive_at(&self, i: usize) -> bool {
        let n1 = self.f1.n_params();
        let n2 = self.f2.n_params();
        if i < n1 {
            self.f1.param_positive(i)
        } else if i < n1 + n2 {
            self.f2.param_positive(i - n1)
        } else {
            true // β > 0
        }
    }
}

impl ModelFamily for MixtureFamily {
    fn name(&self) -> &'static str {
        combo_name(self.f1, self.f2)
    }

    fn n_params(&self) -> usize {
        self.f1.n_params() + self.f2.n_params() + 1
    }

    fn internal_to_params_into(&self, internal: &[f64], out: &mut [f64]) {
        assert_eq!(
            internal.len(),
            self.n_params(),
            "internal dimension mismatch"
        );
        assert_eq!(out.len(), self.n_params(), "external dimension mismatch");
        for (i, (o, &v)) in out.iter_mut().zip(internal).enumerate() {
            *o = if self.param_positive_at(i) {
                v.exp()
            } else {
                v
            };
        }
    }

    fn predict_params_into(&self, params: &[f64], ts: &[f64], out: &mut [f64]) -> bool {
        assert_eq!(
            ts.len(),
            out.len(),
            "predict_params_into requires ts and out of equal length"
        );
        if params.len() != self.n_params() {
            return false;
        }
        let Some((f1, f2, beta)) = self.prepare(params) else {
            return false;
        };
        for (o, &t) in out.iter_mut().zip(ts) {
            *o = curve(&f1, &f2, self.trend, beta, t);
        }
        true
    }

    /// Hand-derived partials of `P(t) = (1 − F₁(t)) + a₂(β, t)·F₂(t)`,
    /// chain-ruled through the all-log internal map (`∂θ/∂u = θ`; every
    /// Exp/Wei parameter and β is positive):
    ///
    /// * degradation params: `∂P/∂u_j = −θ_j·∂F₁/∂θ_j`
    /// * recovery params: `∂P/∂u_j = a₂(β, t)·θ_j·∂F₂/∂θ_j`
    /// * trend coefficient: `∂P/∂u_β = β·(∂a₂/∂β)·F₂(t)`
    ///
    /// Only the paper's Exp/Wei pairings have closed-form component
    /// gradients; Gamma/LogNormal mixtures return `false` and the LM
    /// polish falls back to finite differences.
    fn predict_jacobian_into(
        &self,
        internal: &[f64],
        params: &[f64],
        ts: &[f64],
        out: &mut Matrix,
    ) -> bool {
        let n = self.n_params();
        if internal.len() != n
            || params.len() != n
            || !self.f1.has_cdf_gradient()
            || !self.f2.has_cdf_gradient()
        {
            return false;
        }
        let Some((f1, f2, beta)) = self.prepare(params) else {
            return false;
        };
        let (p1, p2, _) = self.split_params(params);
        let (n1, n2) = (self.f1.n_params(), self.f2.n_params());
        let mut g = [0.0_f64; 2]; // component gradient scratch (≤ 2 params)
        for (i, &t) in ts.iter().enumerate() {
            let ln_t = t.ln();
            let trend = self.trend.eval_ln(beta, t, ln_t);
            f1.cdf_gradient(t, ln_t, &mut g[..n1]);
            for (j, &gj) in g[..n1].iter().enumerate() {
                out[(i, j)] = -p1[j] * gj;
            }
            f2.cdf_gradient(t, ln_t, &mut g[..n2]);
            for (j, &gj) in g[..n2].iter().enumerate() {
                out[(i, n1 + j)] = trend * p2[j] * gj;
            }
            out[(i, n1 + n2)] = beta * self.trend.beta_gradient_ln(beta, t, ln_t) * f2.cdf(t, ln_t);
        }
        true
    }

    fn sse_batch_into(&self, internals: &[f64], ts: &[f64], ys: &[f64], out: &mut [f64]) -> bool {
        let n = self.n_params();
        sse_batch_kernel(
            n,
            internals,
            ts,
            ys,
            out,
            |u| {
                // The feasibility checks of `predict_params_into`.
                let mut p = [0.0_f64; 8];
                self.internal_to_params_into(u, &mut p[..n]);
                self.prepare(&p[..n])
            },
            |(f1, f2, beta), t| curve(f1, f2, self.trend, *beta, t),
        );
        true
    }

    fn params_to_internal(&self, params: &[f64]) -> Result<Vec<f64>, CoreError> {
        if params.len() != self.n_params() {
            return Err(CoreError::params(
                "Mixture",
                format!(
                    "expected {} parameters, got {}",
                    self.n_params(),
                    params.len()
                ),
            ));
        }
        params
            .iter()
            .enumerate()
            .map(|(i, &v)| {
                let positive = self.param_positive_at(i);
                if !v.is_finite() || (positive && !(v > 0.0)) {
                    Err(CoreError::params(
                        "Mixture",
                        format!(
                            "parameter {v} must be finite{}",
                            if positive { " and positive" } else { "" }
                        ),
                    ))
                } else if positive {
                    Ok(v.ln())
                } else {
                    Ok(v)
                }
            })
            .collect()
    }

    fn build(&self, params: &[f64]) -> Result<Box<dyn ResilienceModel>, CoreError> {
        if params.len() != self.n_params() {
            return Err(CoreError::params(
                "Mixture",
                format!(
                    "expected {} parameters, got {}",
                    self.n_params(),
                    params.len()
                ),
            ));
        }
        let (p1, p2, beta) = self.split_params(params);
        Ok(Box::new(MixtureModel::new(
            self.f1,
            p1.to_vec(),
            self.f2,
            p2.to_vec(),
            self.trend,
            beta,
        )?))
    }

    fn initial_guesses(&self, series: &PerformanceSeries) -> Vec<Vec<f64>> {
        let t_end = series.times()[series.len() - 1].max(2.0);
        let (t_d, _) = series.trough().unwrap_or((t_end / 3.0, series.nominal()));
        let t_d = t_d.max(1.0);
        let end_val = series.values()[series.len() - 1].max(0.1);
        // β scaled so a₂(t_end)·1 ≈ the end level.
        let beta_guess = match self.trend {
            Trend::Constant => end_val,
            Trend::Linear => end_val / t_end,
            Trend::Exponential => (end_val.ln() / t_end).abs().max(1e-4),
            Trend::Logarithmic => end_val / t_end.ln(),
        };
        let mut guesses = Vec::new();
        for p1 in self.f1.candidate_params(t_d) {
            for p2 in self.f2.candidate_params(0.5 * (t_d + t_end)) {
                for scale in [1.0, 0.5] {
                    let mut g = p1.clone();
                    g.extend_from_slice(&p2);
                    g.push(beta_guess * scale);
                    guesses.push(g);
                }
            }
        }
        guesses
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wei_exp() -> MixtureModel {
        MixtureModel::new(
            ComponentKind::Weibull,
            vec![2.0, 15.0],
            ComponentKind::Exponential,
            vec![0.08],
            Trend::Logarithmic,
            0.30,
        )
        .unwrap()
    }

    #[test]
    fn starts_at_nominal_one() {
        // a₁(0)(1 − F₁(0)) = 1, and the log trend is 0 at t = 0.
        assert!((wei_exp().predict(0.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn rejects_bad_beta_and_params() {
        assert!(MixtureModel::new(
            ComponentKind::Exponential,
            vec![1.0],
            ComponentKind::Exponential,
            vec![1.0],
            Trend::Logarithmic,
            0.0,
        )
        .is_err());
        assert!(MixtureModel::new(
            ComponentKind::Exponential,
            vec![-1.0],
            ComponentKind::Exponential,
            vec![1.0],
            Trend::Logarithmic,
            0.5,
        )
        .is_err());
    }

    #[test]
    fn dips_then_recovers() {
        let m = wei_exp();
        let early = m.predict(0.0);
        let trough_region: f64 = (5..25)
            .map(|i| m.predict(i as f64))
            .fold(f64::INFINITY, f64::min);
        let late = m.predict(47.0);
        assert!(trough_region < early, "curve must dip below nominal");
        assert!(late > trough_region, "curve must recover from the trough");
    }

    #[test]
    fn terms_decompose() {
        let m = wei_exp();
        for &t in &[0.0, 5.0, 20.0, 47.0] {
            let sum = m.degradation_term(t) + m.recovery_term(t);
            assert!((m.predict(t) - sum).abs() < 1e-14);
        }
    }

    #[test]
    fn params_order_and_count() {
        let m = wei_exp();
        assert_eq!(m.params(), vec![2.0, 15.0, 0.08, 0.30]);
        assert_eq!(m.n_params(), 4);
        assert_eq!(m.name(), "Wei-Exp");
    }

    #[test]
    fn family_dimensions() {
        for fam in MixtureFamily::paper_combinations() {
            let want = match fam.name() {
                "Exp-Exp" => 3,
                "Wei-Exp" | "Exp-Wei" => 4,
                "Wei-Wei" => 5,
                other => panic!("unexpected combo {other}"),
            };
            assert_eq!(fam.n_params(), want, "{}", fam.name());
        }
    }

    #[test]
    fn family_roundtrip() {
        let fam = MixtureFamily {
            f1: ComponentKind::Weibull,
            f2: ComponentKind::Exponential,
            trend: Trend::Logarithmic,
        };
        let params = vec![1.7, 12.0, 0.05, 0.25];
        let internal = fam.params_to_internal(&params).unwrap();
        let back = fam.internal_to_params(&internal);
        for (a, b) in params.iter().zip(&back) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn lognormal_mu_is_unbounded() {
        let fam = MixtureFamily {
            f1: ComponentKind::LogNormal,
            f2: ComponentKind::Exponential,
            trend: Trend::Linear,
        };
        // μ = −1 is feasible for LogNormal.
        let params = vec![-1.0, 0.5, 0.1, 0.01];
        let internal = fam.params_to_internal(&params).unwrap();
        let back = fam.internal_to_params(&internal);
        assert!((back[0] + 1.0).abs() < 1e-12);
    }

    #[test]
    fn family_build_validates() {
        let fam = MixtureFamily {
            f1: ComponentKind::Exponential,
            f2: ComponentKind::Exponential,
            trend: Trend::Logarithmic,
        };
        assert!(fam.build(&[1.0, 1.0, 0.5]).is_ok());
        assert!(fam.build(&[1.0, 1.0]).is_err());
        assert!(fam.build(&[1.0, -1.0, 0.5]).is_err());
    }

    #[test]
    fn initial_guesses_buildable() {
        let s = resilience_data::recessions::Recession::R1990_93.payroll_index();
        for fam in MixtureFamily::paper_combinations() {
            let guesses = fam.initial_guesses(&s);
            assert!(!guesses.is_empty(), "{}", fam.name());
            for g in &guesses {
                assert!(
                    fam.build(g).is_ok(),
                    "{}: infeasible guess {g:?}",
                    fam.name()
                );
            }
        }
    }

    #[test]
    fn into_variants_match_allocating_paths() {
        let fam = MixtureFamily {
            f1: ComponentKind::Weibull,
            f2: ComponentKind::Exponential,
            trend: Trend::Logarithmic,
        };
        let internal = fam.params_to_internal(&[1.7, 12.0, 0.05, 0.25]).unwrap();
        let mut params = [0.0; 4];
        fam.internal_to_params_into(&internal, &mut params);
        assert_eq!(params.to_vec(), fam.internal_to_params(&internal));

        let ts = [0.0, 4.0, 15.0, 40.0];
        let mut out = [f64::NAN; 4];
        assert!(fam.predict_params_into(&params, &ts, &mut out));
        let model = fam.build(&params).unwrap();
        assert_eq!(out.to_vec(), model.predict_many(&ts));

        // Infeasible: negative Weibull shape, and bad β.
        assert!(!fam.predict_params_into(&[-1.7, 12.0, 0.05, 0.25], &ts, &mut out));
        assert!(!fam.predict_params_into(&[1.7, 12.0, 0.05, 0.0], &ts, &mut out));
        assert!(!fam.predict_params_into(&[1.7, 12.0, 0.05], &ts, &mut out));
    }

    /// Internal point for any pairing: log of every positive parameter
    /// (rates in `[e^-4, 1]`, Weibull shapes in `[e^-0.5, e^1.2]` and
    /// scales in `[1, e^3.5]`, Gamma shapes in `[e^-0.5, e^1.5]` and rates
    /// in `[e^-3, 1]`, LogNormal σ in `[e^-1, e^0.5]`, β in `[e^-2, e]`);
    /// LogNormal's μ is drawn raw from `[0, 3.5]`.
    fn any_pairing_point(fam: &MixtureFamily, rng: &mut resilience_stats::XorShift64) -> Vec<f64> {
        let mut draw = |lo: f64, hi: f64| lo + (hi - lo) * rng.next_f64();
        let mut u = Vec::with_capacity(fam.n_params());
        for kind in [fam.f1, fam.f2] {
            match kind {
                ComponentKind::Exponential => u.push(draw(-4.0, 0.0)),
                ComponentKind::Weibull => u.extend([draw(-0.5, 1.2), draw(0.0, 3.5)]),
                ComponentKind::Gamma => u.extend([draw(-0.5, 1.5), draw(-3.0, 0.0)]),
                ComponentKind::LogNormal => u.extend([draw(0.0, 3.5), draw(-1.0, 0.5)]),
            }
        }
        u.push(draw(-2.0, 1.0));
        u
    }

    /// All 16 pairings under all four trends evaluate the one `curve`:
    /// the batched SSE matches the scalar objective (internal → params →
    /// `predict_params_into` → compensated sum, `+∞` when non-finite) bit
    /// for bit, and a built model's `predict_many` matches
    /// `predict_params_into` bit for bit, on a grid with negative,
    /// fractional and `t ≤ 1` times.
    #[test]
    fn every_pairing_and_trend_evaluates_bit_identically() {
        use resilience_math::sum::sum_squared_diff;
        const KINDS: [ComponentKind; 4] = [
            ComponentKind::Exponential,
            ComponentKind::Weibull,
            ComponentKind::Gamma,
            ComponentKind::LogNormal,
        ];
        const CASES: usize = 19; // two chunks of eight and a ragged tail
        let mut ts = vec![-1.0, 0.25, 0.5, 1.0, 1.5, 95.5];
        ts.extend((0..=36).map(f64::from));
        let ys: Vec<f64> = ts
            .iter()
            .map(|&t| 1.0 - 0.04 * (-((t - 10.0) / 6.0).powi(2)).exp())
            .collect();
        let mut rng = resilience_stats::XorShift64::new(0xB17E_0016);
        for f1 in KINDS {
            for f2 in KINDS {
                for trend in Trend::ALL {
                    let fam = MixtureFamily { f1, f2, trend };
                    let n = fam.n_params();
                    let points: Vec<Vec<f64>> = (0..CASES)
                        .map(|_| any_pairing_point(&fam, &mut rng))
                        .collect();
                    let internals: Vec<f64> = points.iter().flatten().copied().collect();
                    let mut batched = vec![0.0; CASES];
                    assert!(fam.sse_batch_into(&internals, &ts, &ys, &mut batched));

                    let mut params = vec![0.0; n];
                    let mut pred = vec![0.0; ts.len()];
                    for (case, u) in points.iter().enumerate() {
                        fam.internal_to_params_into(u, &mut params);
                        assert!(fam.predict_params_into(&params, &ts, &mut pred));
                        let scalar = if pred.iter().all(|v| v.is_finite()) {
                            sum_squared_diff(&ys, &pred)
                        } else {
                            f64::INFINITY
                        };
                        let label = format!("{} {trend} case {case} ({params:?})", fam.name());
                        assert_eq!(batched[case].to_bits(), scalar.to_bits(), "{label}");
                        let built = fam.build(&params).unwrap().predict_many(&ts);
                        for (i, (a, b)) in built.iter().zip(&pred).enumerate() {
                            assert_eq!(a.to_bits(), b.to_bits(), "{label} at t = {}", ts[i]);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn paper_combination_names() {
        let names: Vec<&str> = MixtureFamily::paper_combinations()
            .iter()
            .map(|f| f.name())
            .collect();
        assert_eq!(names, vec!["Exp-Exp", "Wei-Exp", "Exp-Wei", "Wei-Wei"]);
    }

    #[test]
    fn mixture_finite_and_continuous_across_t_one_for_all_trends() {
        // Regression for the log-trend t ≤ 1 clamp: the mixture P(t)
        // must stay finite everywhere and continuous across t = 1 for
        // every trend form (the clamp kinks the derivative, never the
        // value).
        for trend in Trend::ALL {
            let m = MixtureModel::new(
                ComponentKind::Weibull,
                vec![2.0, 15.0],
                ComponentKind::Exponential,
                vec![0.08],
                trend,
                0.30,
            )
            .unwrap();
            // Dense sweep over [0, 47] including fractional times.
            for i in 0..=470 {
                let t = i as f64 * 0.1;
                let v = m.predict(t);
                assert!(v.is_finite(), "{trend} at t = {t}: {v}");
            }
            // Continuity at t = 1: values an ε apart must be close.
            let eps = 1e-7;
            let below = m.predict(1.0 - eps);
            let at = m.predict(1.0);
            let above = m.predict(1.0 + eps);
            assert!(
                (at - below).abs() < 1e-5 && (above - at).abs() < 1e-5,
                "{trend}: P jumps across t = 1 ({below} / {at} / {above})"
            );
        }
    }

    #[test]
    fn exponential_trend_is_one_at_origin() {
        // With the exponential trend, P(0) = 1 + F₂(0) = 1 (F₂(0) = 0).
        let m = MixtureModel::new(
            ComponentKind::Exponential,
            vec![0.1],
            ComponentKind::Exponential,
            vec![0.05],
            Trend::Exponential,
            0.001,
        )
        .unwrap();
        assert!((m.predict(0.0) - 1.0).abs() < 1e-12);
    }
}
