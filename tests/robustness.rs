//! Failure-injection tests: pathological inputs must produce typed
//! errors (or degrade gracefully), never panics or silent garbage, at
//! every public entry point.

use resilience_core::analysis::evaluate_model;
use resilience_core::bathtub::{CompetingRisksFamily, QuadraticFamily, QuarticFamily};
use resilience_core::extended::{CrashRecoveryFamily, DoubleBathtubFamily};
use resilience_core::fit::{fit_least_squares, FitConfig, WarmStart};
use resilience_core::forecast::forecast;
use resilience_core::metrics::MetricContext;
use resilience_core::mixture::{ComponentKind, MixtureFamily, Trend};
use resilience_core::model::ModelFamily;
use resilience_data::csv::read_series;
use resilience_data::recessions::Recession;
use resilience_data::PerformanceSeries;
use resilience_optim::nelder_mead::NelderMeadConfig;
use resilience_optim::Parallelism;
use resilience_stats::XorShift64;

/// Series construction rejects every malformed input combination.
#[test]
fn series_construction_rejects_garbage() {
    // NaN / infinity in values.
    assert!(PerformanceSeries::monthly("x", vec![1.0, f64::NAN, 1.0]).is_err());
    assert!(PerformanceSeries::monthly("x", vec![1.0, f64::INFINITY]).is_err());
    // NaN in times.
    assert!(PerformanceSeries::new("x", vec![0.0, f64::NAN], vec![1.0, 1.0]).is_err());
    // Too short / mismatched / non-monotone.
    assert!(PerformanceSeries::monthly("x", vec![1.0]).is_err());
    assert!(PerformanceSeries::new("x", vec![0.0, 1.0, 2.0], vec![1.0, 1.0]).is_err());
    assert!(PerformanceSeries::new("x", vec![0.0, 2.0, 1.0], vec![1.0, 1.0, 1.0]).is_err());
}

/// Fitting a constant series: the bathtub families cannot represent a
/// flat line exactly (β < 0 strictly), but the pipeline must return a
/// finite fit or a typed error — not panic.
#[test]
fn fitting_constant_series_is_graceful() {
    let series = PerformanceSeries::monthly("flat", vec![1.0; 30]).unwrap();
    for fam in [&QuadraticFamily as &dyn ModelFamily, &CompetingRisksFamily] {
        match fit_least_squares(fam, &series, &FitConfig::default()) {
            Ok(fit) => {
                assert!(fit.sse.is_finite());
                assert!(fit.params.iter().all(|p| p.is_finite()));
            }
            Err(e) => {
                let _ = e.to_string();
            }
        }
    }
}

/// Fitting a two-point series: underdetermined for every family; must
/// error or return finite parameters.
#[test]
fn fitting_minimal_series_is_graceful() {
    let series = PerformanceSeries::monthly("tiny", vec![1.0, 0.9]).unwrap();
    for fam in [&QuadraticFamily as &dyn ModelFamily, &CompetingRisksFamily] {
        match fit_least_squares(fam, &series, &FitConfig::default()) {
            Ok(fit) => assert!(fit.params.iter().all(|p| p.is_finite())),
            Err(e) => {
                let _ = e.to_string();
            }
        }
    }
}

/// Extreme magnitudes: values around 1e6 (an unnormalized curve) must
/// not break the pipeline.
#[test]
fn fitting_unnormalized_series_works() {
    let values: Vec<f64> = (0..40)
        .map(|i| {
            let t = i as f64;
            1.0e6 * (1.0 - 0.012 * t + 0.0004 * t * t)
        })
        .collect();
    let series = PerformanceSeries::monthly("big", values).unwrap();
    let fit = fit_least_squares(&QuadraticFamily, &series, &FitConfig::default()).unwrap();
    // Relative fit quality: SSE small compared to the scale².
    assert!(fit.sse / 1.0e12 < 1e-6, "sse = {}", fit.sse);
}

/// A sawtooth (pure noise) series: fits succeed with poor quality and
/// every reported diagnostic stays finite.
#[test]
fn fitting_noise_reports_finite_diagnostics() {
    let values: Vec<f64> = (0..48)
        .map(|i| 1.0 + if i % 2 == 0 { 0.05 } else { -0.05 })
        .collect();
    let series = PerformanceSeries::monthly("saw", values).unwrap();
    for fam in [&QuadraticFamily as &dyn ModelFamily, &CompetingRisksFamily] {
        if let Ok(eval) = evaluate_model(fam, &series, 5, 0.05) {
            assert!(eval.gof.sse.is_finite());
            assert!(eval.gof.r2_adj.is_finite());
            assert!(eval.gof.r2_adj < 0.5, "noise must not look explained");
        }
    }
}

/// Metric context validation blocks every degenerate geometry.
#[test]
fn metric_context_rejects_degenerate_geometry() {
    let base = MetricContext {
        t_start: 40.0,
        t_end: 47.0,
        nominal: 1.0,
        t_min: 10.0,
        t_full_start: 0.0,
        weight: 0.5,
    };
    assert!(base.validated().is_ok());
    for ctx in [
        MetricContext {
            t_start: 47.0,
            ..base
        }, // empty window
        MetricContext {
            t_min: 47.5,
            ..base
        }, // min past end
        MetricContext {
            t_min: -1.0,
            ..base
        }, // min before start
        MetricContext {
            weight: 0.0,
            ..base
        }, // weight boundary
        MetricContext {
            weight: 1.5,
            ..base
        }, // weight out of range
    ] {
        assert!(ctx.validated().is_err(), "{ctx:?} should be rejected");
    }
}

/// CSV parser survives hostile input without panicking.
#[test]
fn csv_parser_handles_hostile_input() {
    let cases: &[&str] = &[
        "",               // empty
        "\n\n\n",         // only blank lines
        "a,b\nc,d\n",     // all header-ish
        "0,1\n0,1\n",     // duplicate times
        "0,1\n1,1e309\n", // overflow to infinity
        "0,1\n1",         // truncated row
        "0,1,2,3\n",      // too many fields
        "🦀,🦀\n",        // non-numeric unicode
    ];
    for case in cases {
        let r = read_series(case.as_bytes(), "hostile");
        assert!(
            r.is_err(),
            "case {case:?} should fail, got {:?}",
            r.map(|s| s.len())
        );
    }
}

/// Forecasting from a series that never dips (monotone growth): the fit
/// may be poor, but forecasting must not panic and intervals must be
/// ordered.
#[test]
fn forecast_on_monotone_series_is_graceful() {
    let values: Vec<f64> = (0..30).map(|i| 1.0 + 0.002 * i as f64).collect();
    let series = PerformanceSeries::monthly("growth", values).unwrap();
    if let Ok(fc) = forecast(&CompetingRisksFamily, &series, 6, 0.05) {
        for p in &fc.points {
            assert!(p.interval.lower() <= p.interval.upper());
            assert!(p.predicted.is_finite());
        }
    }
}

/// Mixture families reject malformed parameter vectors at every entry
/// point rather than producing NaN curves.
#[test]
fn mixture_api_rejects_malformed_parameters() {
    let fam = MixtureFamily {
        f1: ComponentKind::Weibull,
        f2: ComponentKind::Exponential,
        trend: Trend::Logarithmic,
    };
    // Wrong arity.
    assert!(fam.build(&[1.0, 2.0]).is_err());
    // Negative shape.
    assert!(fam.build(&[-1.0, 2.0, 0.5, 0.1]).is_err());
    // Zero trend coefficient.
    assert!(fam.build(&[1.0, 2.0, 0.5, 0.0]).is_err());
    assert!(fam.params_to_internal(&[1.0, 2.0, 0.5, -0.1]).is_err());
}

/// Holdout geometry is validated at the analysis boundary.
#[test]
fn evaluate_model_rejects_bad_holdouts() {
    let series =
        PerformanceSeries::monthly("s", (0..10).map(|i| 1.0 - 0.01 * i as f64).collect()).unwrap();
    assert!(evaluate_model(&QuadraticFamily, &series, 0, 0.05).is_err());
    assert!(evaluate_model(&QuadraticFamily, &series, 9, 0.05).is_err());
    assert!(evaluate_model(&QuadraticFamily, &series, 100, 0.05).is_err());
}

/// Every public error type renders a useful message (non-empty, contains
/// the offending routine's context).
#[test]
fn error_messages_are_informative() {
    let e = PerformanceSeries::monthly("x", vec![1.0]).unwrap_err();
    assert!(e.to_string().len() > 10);
    let e = read_series("".as_bytes(), "x").unwrap_err();
    assert!(e.to_string().len() > 10);
    let Err(e) = QuadraticFamily.build(&[1.0, 1.0, 1.0]) else {
        panic!("β > 0 must be rejected");
    };
    assert!(e.to_string().contains("Quadratic"));
}

/// Every shipped family: the five fixed-form ones plus all 16 mixture
/// pairings under all 4 recovery trends.
fn shipped_families() -> Vec<Box<dyn ModelFamily>> {
    use ComponentKind as K;
    let mut families: Vec<Box<dyn ModelFamily>> = vec![
        Box::new(QuadraticFamily),
        Box::new(CompetingRisksFamily),
        Box::new(QuarticFamily),
        Box::new(CrashRecoveryFamily),
        Box::new(DoubleBathtubFamily),
    ];
    let kinds = [K::Exponential, K::Weibull, K::Gamma, K::LogNormal];
    for f1 in kinds {
        for f2 in kinds {
            for trend in Trend::ALL {
                families.push(Box::new(MixtureFamily { f1, f2, trend }));
            }
        }
    }
    families
}

/// Boundary fuzzing of the family API with a seeded stream: parameter
/// vectors of the wrong length (0, 1, n−1, n+1) or with one slot set to a
/// hostile value never panic. Wrong lengths and non-finite values are
/// rejected with `Err`/`false`, and a warm start the family rejects
/// falls back to exactly the cold fit.
#[test]
fn family_boundaries_reject_hostile_parameters() {
    const HOSTILE: [f64; 8] = [
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        0.0,
        -0.0,
        -1.0,
        1e308,
        -1e308,
    ];
    let mut rng = XorShift64::new(0xB001);
    let series = Recession::R1990_93
        .payroll_index()
        .split_at(18)
        .unwrap()
        .train;
    let ts = series.times();
    let mut out = vec![0.0; ts.len()];
    // A short solver budget: the fallback must match whatever the cold
    // fit reaches, so the budget only sets the test's cost.
    let defaults = FitConfig::default();
    let config = FitConfig {
        nelder_mead: NelderMeadConfig {
            max_iterations: 60,
            ..defaults.nelder_mead.clone()
        },
        lm_polish: false,
        max_starts: 2,
        parallelism: Parallelism::Serial,
        ..defaults
    };
    for family in shipped_families() {
        let family = family.as_ref();
        let name = family.name();
        let n = family.n_params();
        let cold = fit_least_squares(family, &series, &config).map(|fit| fit.sse.to_bits());
        let base = family.initial_guesses(&series).swap_remove(0);
        let mut cases = Vec::new();
        for len in [0, 1, n - 1, n + 1] {
            let params: Vec<f64> = (0..len)
                .map(|_| HOSTILE[rng.next_index(HOSTILE.len())])
                .collect();
            cases.push((params, true));
        }
        for v in HOSTILE {
            let mut params = base.clone();
            params[rng.next_index(n)] = v;
            cases.push((params, !v.is_finite()));
        }
        for (params, must_reject) in cases {
            let internal = family.params_to_internal(&params);
            let built = family.build(&params).is_ok();
            let predicted = family.predict_params_into(&params, ts, &mut out);
            if must_reject {
                assert!(
                    internal.is_err() && !built && !predicted,
                    "{name}: accepted {params:?}"
                );
            }
            let warm = FitConfig {
                warm_start: Some(WarmStart::new(params.clone())),
                ..config.clone()
            };
            let fit = fit_least_squares(family, &series, &warm).map(|fit| fit.sse.to_bits());
            if internal.is_err() {
                assert_eq!(
                    fit.ok(),
                    cold.as_ref().ok().copied(),
                    "{name}: rejected warm start {params:?} must fall back to the cold fit"
                );
            }
        }
    }
}
