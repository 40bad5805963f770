//! Property-style tests on the workspace's core invariants.
//!
//! Each property is exercised over many randomized cases drawn from a
//! seeded [`XorShift64`] stream, so failures are reproducible (the case
//! index and drawn values appear in the assertion message) and the suite
//! is hermetic — no proptest dependency.

use resilience_core::bathtub::{CompetingRisksModel, QuadraticFamily, QuadraticModel};
use resilience_core::metrics::{actual_metric, MetricContext, MetricKind};
use resilience_core::mixture::{ComponentKind, MixtureModel, Trend};
use resilience_core::model::{ModelFamily, ResilienceModel};
use resilience_data::csv::{read_series, write_series};
use resilience_data::PerformanceSeries;
use resilience_stats::{ContinuousDistribution, Exponential, Normal, Weibull, XorShift64};

const CASES: usize = 200;

/// Uniform draw in `[lo, hi)`.
fn uniform(rng: &mut XorShift64, lo: f64, hi: f64) -> f64 {
    lo + (hi - lo) * rng.next_f64()
}

/// Vector of uniform draws with a random length in `[min_len, max_len)`.
fn uniform_vec(rng: &mut XorShift64, lo: f64, hi: f64, min_len: usize, max_len: usize) -> Vec<f64> {
    let len = min_len + rng.next_index(max_len - min_len);
    (0..len).map(|_| uniform(rng, lo, hi)).collect()
}

/// Feasible quadratic bathtub parameters (α, β, γ) via the same
/// (α, s, γ) construction the family uses.
fn quadratic_params(rng: &mut XorShift64) -> (f64, f64, f64) {
    let alpha = uniform(rng, 0.1, 10.0);
    let s = uniform(rng, 0.05, 0.95);
    let gamma = uniform(rng, 1e-6, 0.1);
    let beta = -2.0 * (alpha * gamma).sqrt() * s;
    (alpha, beta, gamma)
}

/// The quadratic trough formula matches a numerical minimum.
#[test]
fn quadratic_trough_is_a_minimum() {
    let mut rng = XorShift64::new(0xA001);
    for case in 0..CASES {
        let (alpha, beta, gamma) = quadratic_params(&mut rng);
        let m = QuadraticModel::new(alpha, beta, gamma).unwrap();
        let t_d = m.trough();
        assert!(t_d > 0.0, "case {case}: ({alpha}, {beta}, {gamma})");
        let p_d = m.predict(t_d);
        assert!(m.predict(t_d - 0.1) >= p_d, "case {case}");
        assert!(m.predict(t_d + 0.1) >= p_d, "case {case}");
        assert!((m.minimum() - p_d).abs() < 1e-10, "case {case}");
    }
}

/// Eq. 2: the closed-form recovery time satisfies P(t_r) = level and
/// lies at/after the trough.
#[test]
fn quadratic_recovery_time_solves_curve() {
    let mut rng = XorShift64::new(0xA002);
    for case in 0..CASES {
        let (alpha, beta, gamma) = quadratic_params(&mut rng);
        let frac = uniform(&mut rng, 0.01, 0.99);
        let m = QuadraticModel::new(alpha, beta, gamma).unwrap();
        // A level strictly between the minimum and the initial value.
        let level = m.minimum() + frac * (alpha - m.minimum());
        if level > m.minimum() {
            let t_r = m.recovery_time(level).unwrap();
            assert!(t_r >= m.trough() - 1e-9, "case {case}");
            assert!(
                (m.predict(t_r) - level).abs() < 1e-6 * (1.0 + level.abs()),
                "case {case}: ({alpha}, {beta}, {gamma}), frac {frac}"
            );
        }
    }
}

/// Eq. 3: the closed-form area equals numerical quadrature.
#[test]
fn quadratic_area_matches_quadrature() {
    let mut rng = XorShift64::new(0xA003);
    for case in 0..CASES {
        let (alpha, beta, gamma) = quadratic_params(&mut rng);
        let span = uniform(&mut rng, 1.0, 100.0);
        let m = QuadraticModel::new(alpha, beta, gamma).unwrap();
        let analytic = m.area(0.0, span).unwrap();
        let numeric =
            resilience_math::quad::adaptive_simpson(|t| m.predict(t), 0.0, span, 1e-10, 40)
                .unwrap();
        assert!(
            (analytic - numeric).abs() < 1e-6 * (1.0 + analytic.abs()),
            "case {case}: analytic {analytic} vs numeric {numeric}"
        );
    }
}

/// Quadratic family: internal → external always lands in the bathtub
/// validity region, and the roundtrip is the identity.
#[test]
fn quadratic_family_transform_roundtrip() {
    let mut rng = XorShift64::new(0xA004);
    for case in 0..CASES {
        let a = uniform(&mut rng, -8.0, 4.0);
        let b = uniform(&mut rng, -12.0, 12.0);
        let c = uniform(&mut rng, -12.0, 2.0);
        let fam = QuadraticFamily;
        let params = fam.internal_to_params(&[a, b, c]);
        // Feasible by construction.
        assert!(
            QuadraticModel::new(params[0], params[1], params[2]).is_ok(),
            "case {case}: {params:?}"
        );
        let back = fam.params_to_internal(&params).unwrap();
        let again = fam.internal_to_params(&back);
        for (x, y) in params.iter().zip(&again) {
            assert!(
                (x - y).abs() < 1e-6 * (1.0 + x.abs()),
                "case {case}: {params:?} vs {again:?}"
            );
        }
    }
}

/// Eq. 5/6: competing-risks closed forms match numerics for random
/// positive parameters.
#[test]
fn competing_risks_closed_forms() {
    let mut rng = XorShift64::new(0xA005);
    for case in 0..CASES {
        let alpha = uniform(&mut rng, 0.2, 5.0);
        let beta = uniform(&mut rng, 0.01, 2.0);
        let gamma = uniform(&mut rng, 1e-5, 0.05);
        let m = CompetingRisksModel::new(alpha, beta, gamma).unwrap();
        // Area (Eq. 6).
        let analytic = m.area(0.0, 47.0).unwrap();
        let numeric =
            resilience_math::quad::adaptive_simpson(|t| m.predict(t), 0.0, 47.0, 1e-10, 40)
                .unwrap();
        assert!(
            (analytic - numeric).abs() < 1e-6 * (1.0 + analytic.abs()),
            "case {case}: analytic {analytic} vs numeric {numeric}"
        );
        // Recovery time (Eq. 5) for a reachable level.
        let level = m.minimum() + 0.5 * (alpha - m.minimum()).abs() + 1e-6;
        if let Ok(t_r) = m.recovery_time(level) {
            assert!(
                (m.predict(t_r) - level).abs() < 1e-6 * (1.0 + level),
                "case {case}"
            );
        }
    }
}

/// Mixture models always start at the nominal level 1 for trends that
/// vanish (or equal 1) at t = 0.
#[test]
fn mixture_starts_at_nominal() {
    let mut rng = XorShift64::new(0xA006);
    for case in 0..CASES {
        let rate1 = uniform(&mut rng, 0.01, 2.0);
        let rate2 = uniform(&mut rng, 0.01, 2.0);
        let beta = uniform(&mut rng, 0.01, 2.0);
        for trend in [Trend::Logarithmic, Trend::Linear] {
            let m = MixtureModel::new(
                ComponentKind::Exponential,
                vec![rate1],
                ComponentKind::Exponential,
                vec![rate2],
                trend,
                beta,
            )
            .unwrap();
            assert!((m.predict(0.0) - 1.0).abs() < 1e-12, "case {case}");
        }
    }
}

/// Metric identities hold for arbitrary observed curves: preserved +
/// lost = nominal rectangle; normalized pair sums to 1; averages are
/// consistent with totals.
#[test]
fn metric_identities() {
    let mut rng = XorShift64::new(0xA007);
    for case in 0..CASES {
        let values = uniform_vec(&mut rng, 0.5, 1.5, 12, 40);
        let series = PerformanceSeries::monthly("prop", values).unwrap();
        let n = series.len();
        let t_end = (n - 1) as f64;
        let (t_min, _) = series.trough().unwrap();
        // Keep t_min strictly interior for the weighted metric.
        let t_min = t_min.clamp(0.5, t_end - 0.5);
        let ctx = MetricContext {
            t_start: t_end - 4.0,
            t_end,
            nominal: series.value_at(t_end - 4.0).unwrap(),
            t_min,
            t_full_start: 0.0,
            weight: 0.5,
        }
        .validated()
        .unwrap();
        let preserved = actual_metric(&series, MetricKind::PerformancePreserved, &ctx).unwrap();
        let lost = actual_metric(&series, MetricKind::PerformanceLost, &ctx).unwrap();
        let rect = ctx.nominal * (ctx.t_end - ctx.t_start);
        assert!((preserved + lost - rect).abs() < 1e-9, "case {case}");
        let np = actual_metric(&series, MetricKind::NormalizedAveragePreserved, &ctx).unwrap();
        let nl = actual_metric(&series, MetricKind::NormalizedAverageLost, &ctx).unwrap();
        assert!((np + nl - 1.0).abs() < 1e-9, "case {case}");
        let avg = actual_metric(&series, MetricKind::AveragePreserved, &ctx).unwrap();
        assert!(
            (avg * (ctx.t_end - ctx.t_start) - preserved).abs() < 1e-9,
            "case {case}"
        );
    }
}

/// CSV round trips arbitrary finite series exactly enough to be
/// indistinguishable (shortest-roundtrip float formatting).
#[test]
fn csv_roundtrip() {
    let mut rng = XorShift64::new(0xA008);
    for case in 0..CASES {
        let values = uniform_vec(&mut rng, 0.0, 10.0, 2, 50);
        let series = PerformanceSeries::monthly("rt", values).unwrap();
        let mut buf = Vec::new();
        write_series(&mut buf, &series).unwrap();
        let back = read_series(buf.as_slice(), "rt").unwrap();
        assert_eq!(series.values(), back.values(), "case {case}");
        assert_eq!(series.times(), back.times(), "case {case}");
    }
}

/// Distribution sanity across random parameters: CDFs are monotone,
/// bounded, and inverse-consistent.
#[test]
fn distribution_quantile_roundtrip() {
    let mut rng = XorShift64::new(0xA009);
    for case in 0..CASES {
        let shape = uniform(&mut rng, 0.3, 5.0);
        let scale = uniform(&mut rng, 0.1, 20.0);
        let p = uniform(&mut rng, 0.01, 0.99);
        let w = Weibull::new(shape, scale).unwrap();
        let x = w.quantile(p).unwrap();
        assert!((w.cdf(x) - p).abs() < 1e-9, "case {case}");
        let e = Exponential::new(1.0 / scale).unwrap();
        let xe = e.quantile(p).unwrap();
        assert!((e.cdf(xe) - p).abs() < 1e-9, "case {case}");
        let n = Normal::new(shape, scale).unwrap();
        let xn = n.quantile(p).unwrap();
        assert!((n.cdf(xn) - p).abs() < 1e-9, "case {case}");
    }
}

/// Survival + CDF = 1 over the support for all stats distributions used
/// by the mixture layer.
#[test]
fn survival_complements_cdf() {
    let mut rng = XorShift64::new(0xA00A);
    for case in 0..CASES {
        let x = uniform(&mut rng, 0.0, 50.0);
        let k = uniform(&mut rng, 0.5, 4.0);
        let lam = uniform(&mut rng, 0.2, 10.0);
        let w = Weibull::new(k, lam).unwrap();
        assert!(
            (w.cdf(x) + w.survival(x) - 1.0).abs() < 1e-10,
            "case {case}"
        );
        let e = Exponential::new(1.0 / lam).unwrap();
        assert!(
            (e.cdf(x) + e.survival(x) - 1.0).abs() < 1e-10,
            "case {case}"
        );
    }
}

/// Crash-recovery closed forms: continuity at the kink, recovery-time
/// inversion, and area vs quadrature, across random parameters.
#[test]
fn crash_recovery_closed_forms() {
    use resilience_core::extended::CrashRecoveryModel;
    let mut rng = XorShift64::new(0xA00B);
    for case in 0..CASES {
        let t_c = uniform(&mut rng, 0.5, 10.0);
        let p_min_share = uniform(&mut rng, 0.3, 0.95);
        let p_inf = uniform(&mut rng, 0.5, 1.2);
        let rate = uniform(&mut rng, 0.01, 1.0);
        let sharpness = uniform(&mut rng, 1.0, 8.0);
        let p_min = p_inf * p_min_share;
        let m = CrashRecoveryModel::new(t_c, p_min, p_inf, rate, sharpness).unwrap();
        // Continuity at the crash time.
        assert!(
            (m.predict(t_c - 1e-9) - m.predict(t_c + 1e-9)).abs() < 1e-6,
            "case {case}"
        );
        // Recovery-time inversion for a mid-level.
        let level = p_min + 0.5 * (p_inf - p_min);
        let t_r = m.recovery_time(level).unwrap();
        assert!((m.predict(t_r) - level).abs() < 1e-9, "case {case}");
        // Area against quadrature across the kink.
        let analytic = m.area(0.0, t_c + 20.0).unwrap();
        let numeric =
            resilience_math::quad::adaptive_simpson(|t| m.predict(t), 0.0, t_c + 20.0, 1e-10, 44)
                .unwrap();
        assert!(
            (analytic - numeric).abs() < 1e-6 * (1.0 + analytic.abs()),
            "case {case}: analytic {analytic} vs numeric {numeric}"
        );
    }
}

/// Double-bathtub closed-form area matches quadrature for random
/// parameters, including windows straddling the second-episode onset.
#[test]
fn double_bathtub_area() {
    use resilience_core::extended::DoubleBathtubModel;
    let mut rng = XorShift64::new(0xA00C);
    for case in 0..CASES {
        let alpha = uniform(&mut rng, 0.3, 3.0);
        let beta = uniform(&mut rng, 0.02, 1.0);
        let gamma = uniform(&mut rng, 1e-5, 0.02);
        let depth = uniform(&mut rng, 0.005, 0.1);
        let onset = uniform(&mut rng, 5.0, 30.0);
        let width = uniform(&mut rng, 2.0, 15.0);
        let m = DoubleBathtubModel::new(alpha, beta, gamma, depth, onset, width).unwrap();
        let analytic = m.area(0.0, 47.0).unwrap();
        let numeric =
            resilience_math::quad::adaptive_simpson(|t| m.predict(t), 0.0, 47.0, 1e-10, 44)
                .unwrap();
        assert!(
            (analytic - numeric).abs() < 1e-6 * (1.0 + analytic.abs()),
            "case {case}: analytic {analytic} vs numeric {numeric}"
        );
    }
}

/// Hjorth distribution invariants across random parameters.
#[test]
fn hjorth_distribution_invariants() {
    use resilience_stats::Hjorth;
    let mut rng = XorShift64::new(0xA00D);
    for case in 0..CASES {
        let delta = uniform(&mut rng, 0.001, 0.5);
        let theta = uniform(&mut rng, 0.1, 3.0);
        let beta = uniform(&mut rng, 0.05, 2.0);
        let x = uniform(&mut rng, 0.1, 30.0);
        let h = Hjorth::new(delta, theta, beta).unwrap();
        // Survival = exp(−cumulative hazard).
        assert!(
            (h.survival(x) - (-h.cumulative_hazard(x)).exp()).abs() < 1e-10,
            "case {case}"
        );
        // Hazard is the sum of its two competing parts.
        let want = delta * x + theta / (1.0 + beta * x);
        assert!((h.hazard(x) - want).abs() < 1e-12, "case {case}");
        // CDF in [0, 1] and monotone over a step.
        let c = h.cdf(x);
        assert!((0.0..=1.0).contains(&c), "case {case}");
        assert!(h.cdf(x + 1.0) >= c, "case {case}");
    }
}

/// Nelder–Mead never returns a point worse than its starting point.
#[test]
fn nelder_mead_never_worsens() {
    use resilience_optim::nelder_mead::{NelderMead, NelderMeadConfig};
    use resilience_optim::Control;
    let mut rng = XorShift64::new(0xA00E);
    for case in 0..CASES {
        let x0 = uniform_vec(&mut rng, -5.0, 5.0, 1, 4);
        let shift = uniform(&mut rng, -3.0, 3.0);
        let f = move |p: &[f64]| p.iter().map(|x| (x - shift) * (x - shift)).sum::<f64>();
        let start_value = f(&x0);
        let report = NelderMead::new(NelderMeadConfig::default())
            .minimize(&f, &x0, &Control::unbounded())
            .unwrap();
        assert!(report.value <= start_value + 1e-12, "case {case}");
    }
}

/// Information criteria order models by SSE at fixed complexity.
#[test]
fn criteria_monotone_in_sse() {
    use resilience_core::selection::information_criteria;
    let mut rng = XorShift64::new(0xA00F);
    for case in 0..CASES {
        let sse1 = uniform(&mut rng, 1e-8, 1.0);
        let factor = uniform(&mut rng, 1.01, 100.0);
        let a = information_criteria(sse1, 48, 3).unwrap();
        let b = information_criteria(sse1 * factor, 48, 3).unwrap();
        assert!(a.aic < b.aic, "case {case}");
        assert!(a.aicc < b.aicc, "case {case}");
        assert!(a.bic < b.bic, "case {case}");
    }
}

/// Fitting noiseless quadratic data recovers parameters for random
/// feasible truths (an expensive case-count-limited property).
#[test]
fn fit_recovers_random_quadratic_truth() {
    let mut rng = XorShift64::new(0xA010);
    let mut tested = 0usize;
    for case in 0..64 {
        // Scale the curve into a plausible window so every truth is
        // identifiable from 40 monthly samples.
        let (alpha, beta, gamma) = quadratic_params(&mut rng);
        let m = QuadraticModel::new(alpha, beta, gamma).unwrap();
        let trough = m.trough();
        // Only test truths whose trough is inside the sampled window.
        if !(trough > 2.0 && trough < 35.0) {
            continue;
        }
        let values: Vec<f64> = (0..40).map(|i| m.predict(i as f64)).collect();
        if !values.iter().all(|v| *v > 0.0) {
            continue;
        }
        let series = PerformanceSeries::monthly("truth", values).unwrap();
        let fit = resilience_core::fit::fit_least_squares(
            &QuadraticFamily,
            &series,
            &resilience_core::fit::FitConfig::default(),
        )
        .unwrap();
        let ssy: f64 = series
            .values()
            .iter()
            .map(|v| (v - alpha) * (v - alpha))
            .sum();
        assert!(
            fit.sse < 1e-9 * (1.0 + ssy),
            "case {case}: sse = {}, truth ({alpha}, {beta}, {gamma})",
            fit.sse
        );
        tested += 1;
    }
    assert!(
        tested >= 10,
        "only {tested} feasible cases — widen the sampler"
    );
}

// ---------------------------------------------------------------------
// Closed-form oracles for the mixture's Weibull terms. The mixture
// evaluates `(t/η)^k` in log space from one shared `ln t`; these
// properties hold it to theory and to `stats::Weibull`, not to its own
// earlier output.
// ---------------------------------------------------------------------

/// A mixture with the given components under the constant trend `β = 1`,
/// so `degradation_term` is `S₁(t)` and `recovery_term` is `F₂(t)`.
fn unit_trend_mixture(
    f1: ComponentKind,
    p1: Vec<f64>,
    f2: ComponentKind,
    p2: Vec<f64>,
) -> MixtureModel {
    MixtureModel::new(f1, p1, f2, p2, Trend::Constant, 1.0).unwrap()
}

/// At `t = η` the Weibull CDF is `1 − e⁻¹` whatever the shape.
#[test]
fn weibull_term_at_its_scale_is_one_minus_inv_e() {
    let mut rng = XorShift64::new(0xA011);
    let want_s = (-1.0f64).exp();
    let want_f = 1.0 - want_s;
    for case in 0..CASES {
        let (k1, eta1) = (uniform(&mut rng, 0.3, 8.0), uniform(&mut rng, 0.5, 200.0));
        let (k2, eta2) = (uniform(&mut rng, 0.3, 8.0), uniform(&mut rng, 0.5, 200.0));
        let m = unit_trend_mixture(
            ComponentKind::Weibull,
            vec![k1, eta1],
            ComponentKind::Weibull,
            vec![k2, eta2],
        );
        let s = m.degradation_term(eta1);
        let f = m.recovery_term(eta2);
        assert!(
            (s - want_s).abs() < 1e-15,
            "case {case}: S(η) = {s} for k = {k1}, η = {eta1}"
        );
        assert!(
            (f - want_f).abs() < 1e-15,
            "case {case}: F(η) = {f} for k = {k2}, η = {eta2}"
        );
    }
}

/// With shape 1 the Weibull is the exponential of rate `1/η`, in either
/// slot, under every trend.
#[test]
fn weibull_shape_one_mixture_equals_exponential() {
    let mut rng = XorShift64::new(0xA012);
    for case in 0..CASES {
        let eta = uniform(&mut rng, 0.5, 200.0);
        let rate = uniform(&mut rng, 0.01, 2.0);
        let beta = uniform(&mut rng, 0.01, 1.0);
        let trend = Trend::ALL[case % 4];
        for slot in 0..2 {
            // The component under test in `slot`, an Exp(rate) in the other.
            let mixture = |kind: ComponentKind, params: Vec<f64>| {
                let (other, other_params) = (ComponentKind::Exponential, vec![rate]);
                let ((k1, p1), (k2, p2)) = if slot == 0 {
                    ((kind, params), (other, other_params))
                } else {
                    ((other, other_params), (kind, params))
                };
                MixtureModel::new(k1, p1, k2, p2, trend, beta).unwrap()
            };
            let w = mixture(ComponentKind::Weibull, vec![1.0, eta]);
            let e = mixture(ComponentKind::Exponential, vec![1.0 / eta]);
            for i in 0..=192 {
                let t = i as f64 * 0.5;
                let (pw, pe) = (w.predict(t), e.predict(t));
                assert!(
                    (pw - pe).abs() <= 1e-12 * (1.0 + pe.abs()),
                    "case {case} slot {slot} {trend} at t = {t}: Wei(1, {eta}) {pw} vs \
                     Exp({}) {pe}",
                    1.0 / eta
                );
            }
        }
    }
}

/// At and before the hazard onset every component has `F = 0` and
/// `S = 1` exactly, so the curve is exactly nominal under every trend.
#[test]
fn mixture_terms_are_exact_at_and_before_onset() {
    let mut rng = XorShift64::new(0xA013);
    let kinds = [
        (ComponentKind::Exponential, vec![0.3]),
        (ComponentKind::Weibull, vec![0.4, 12.0]),
        (ComponentKind::Weibull, vec![6.0, 0.7]),
        (ComponentKind::Gamma, vec![2.0, 0.2]),
        (ComponentKind::LogNormal, vec![1.5, 0.6]),
    ];
    for case in 0..CASES {
        let t = match case {
            0 => 0.0,
            1 => -0.0,
            _ => -uniform(&mut rng, 0.0, 50.0),
        };
        for (k1, p1) in &kinds {
            for (k2, p2) in &kinds {
                let unit = unit_trend_mixture(*k1, p1.clone(), *k2, p2.clone());
                assert_eq!(unit.degradation_term(t), 1.0, "case {case}: S₁({t})");
                assert_eq!(unit.recovery_term(t), 0.0, "case {case}: F₂({t})");
                for trend in Trend::ALL {
                    let m =
                        MixtureModel::new(*k1, p1.clone(), *k2, p2.clone(), trend, 0.7).unwrap();
                    assert_eq!(
                        m.predict(t),
                        1.0,
                        "case {case}: {} {trend} at {t}",
                        m.name()
                    );
                }
            }
        }
    }
}

/// The Wei-Wei curve stays within `1e-12` of one built from
/// `stats::Weibull::{cdf, survival}` over `t ∈ [0, 96]`, `k ∈ [0.3, 8]`,
/// `η ∈ [0.5, 200]`. The recovery term is scaled by `a₂(t)`, so the bound
/// is absolute on each term: `1e-12·max(1, a₂(t))` on the curve.
#[test]
fn weibull_mixture_matches_stats_oracle() {
    let mut rng = XorShift64::new(0xA014);
    for case in 0..CASES {
        let w1 = Weibull::new(uniform(&mut rng, 0.3, 8.0), uniform(&mut rng, 0.5, 200.0)).unwrap();
        let w2 = Weibull::new(uniform(&mut rng, 0.3, 8.0), uniform(&mut rng, 0.5, 200.0)).unwrap();
        let beta = uniform(&mut rng, 0.01, 1.0);
        let trend = Trend::ALL[case % 4];
        let m = MixtureModel::new(
            ComponentKind::Weibull,
            vec![w1.shape(), w1.scale()],
            ComponentKind::Weibull,
            vec![w2.shape(), w2.scale()],
            trend,
            beta,
        )
        .unwrap();
        for _ in 0..64 {
            let t = uniform(&mut rng, 0.0, 96.0);
            let a2 = trend.eval(beta, t);
            let oracle = w1.survival(t) + a2 * w2.cdf(t);
            assert!(
                (m.degradation_term(t) - w1.survival(t)).abs() <= 1e-12,
                "case {case}: S₁({t}) vs {w1:?}"
            );
            assert!(
                (m.predict(t) - oracle).abs() <= 1e-12 * a2.abs().max(1.0),
                "case {case} {trend}: P({t}) = {} vs oracle {oracle} ({w1:?}, {w2:?}, β {beta})",
                m.predict(t)
            );
        }
    }
}

/// Stochastic ordering (Panja, Kundu and Pradhan): a larger recovery
/// scale puts `F₂` lower in the usual order, so with `a₂ ≥ 0` it lowers
/// `a₂(t)·F₂(t)`, and the whole curve, at every point — for a Weibull
/// scale `η₂` and for an exponential scale `1/λ₂`, under every trend.
#[test]
fn larger_recovery_scale_lowers_recovery_term() {
    let mut rng = XorShift64::new(0xA015);
    for case in 0..CASES {
        let (k1, eta1) = (uniform(&mut rng, 0.3, 8.0), uniform(&mut rng, 0.5, 200.0));
        let (k2, eta2) = (uniform(&mut rng, 0.3, 8.0), uniform(&mut rng, 0.5, 200.0));
        let stretch = uniform(&mut rng, 1.01, 2.0);
        let beta = uniform(&mut rng, 0.01, 1.0);
        let trend = Trend::ALL[case % 4];
        let pairs = [
            (
                (ComponentKind::Weibull, vec![k2, eta2]),
                (ComponentKind::Weibull, vec![k2, eta2 * stretch]),
            ),
            (
                (ComponentKind::Exponential, vec![1.0 / eta2]),
                (ComponentKind::Exponential, vec![1.0 / (eta2 * stretch)]),
            ),
        ];
        for (near, far) in pairs {
            let mk = |(kind, p): (ComponentKind, Vec<f64>)| {
                MixtureModel::new(ComponentKind::Weibull, vec![k1, eta1], kind, p, trend, beta)
                    .unwrap()
            };
            let (near, far) = (mk(near), mk(far));
            for i in 0..=192 {
                let t = i as f64 * 0.5;
                assert!(
                    far.recovery_term(t) <= near.recovery_term(t),
                    "case {case} {trend} {} at t = {t}: {} > {}",
                    near.name(),
                    far.recovery_term(t),
                    near.recovery_term(t)
                );
                assert!(
                    far.predict(t) <= near.predict(t),
                    "case {case} {trend} at t = {t}"
                );
            }
            // Strictly lower wherever the trend is positive at the nearer
            // scale itself, where `F₂` is far from saturating.
            let t = eta2;
            if trend.eval(beta, t) > 0.0 {
                assert!(
                    far.recovery_term(t) < near.recovery_term(t),
                    "case {case} {trend} {}: not strictly lower at t = {t}",
                    near.name()
                );
            }
        }
    }
}
