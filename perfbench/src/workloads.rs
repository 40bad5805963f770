//! The three workloads: inputs made from the seed, the families they fit,
//! and one *pass* (every answer of the workload once) through the
//! library's public API.

use crate::trace::{Layer, Tracer};
use resilience_bench::fleet::{fnv1a, full_grid};
use resilience_bench::{mixture_holdout, ALPHA, METRIC_WEIGHT};
use resilience_core::analysis::{evaluate_model_with, metrics_comparison};
use resilience_core::bathtub::{CompetingRisksFamily, QuadraticFamily, QuarticFamily};
use resilience_core::bootstrap::{bootstrap_band_with, BootstrapConfig};
use resilience_core::fit::FitConfig;
use resilience_core::mixture::MixtureFamily;
use resilience_core::model::ModelFamily;
use resilience_core::runtime::{
    rank_fleet_supervised, rank_models_supervised, CellOutcome, Control, ExecPolicy,
};
use resilience_core::selection::Ranking;
use resilience_data::noise::XorShift64;
use resilience_data::recessions::Recession;
use resilience_data::scenario::{ScenarioGrid, ScenarioSpec};
use resilience_data::PerformanceSeries;
use resilience_optim::Parallelism;

/// The seed the stored reference answers were made with.
pub const DEFAULT_SEED: u64 = 42;

/// Worker threads of every parallel pass.
pub const THREADS: usize = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Rank the six paper families on each recession's training prefix,
    /// refit the winner and predict the Eq. 14–21 metrics.
    PaperSelect,
    /// One 360-cell scenario grid through the supervised fleet ranking.
    BathtubFleet,
    /// One 200-replicate residual-bootstrap band for Wei-Wei on 1990-93.
    BootstrapBand,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::PaperSelect,
        Workload::BathtubFleet,
        Workload::BootstrapBand,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperSelect => "paper-select",
            Workload::BathtubFleet => "bathtub-fleet",
            Workload::BootstrapBand => "bootstrap-band",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// What one unit of work is.
    pub fn unit(self) -> &'static str {
        match self {
            Workload::PaperSelect => "curve",
            Workload::BathtubFleet => "cell",
            Workload::BootstrapBand => "replicate",
        }
    }

    /// The families this workload fits.
    pub fn families(self) -> Vec<Box<dyn ModelFamily>> {
        let mixtures = MixtureFamily::paper_combinations();
        match self {
            Workload::PaperSelect => {
                let mut fams: Vec<Box<dyn ModelFamily>> =
                    vec![Box::new(QuadraticFamily), Box::new(CompetingRisksFamily)];
                fams.extend(
                    mixtures
                        .into_iter()
                        .map(|m| Box::new(m) as Box<dyn ModelFamily>),
                );
                fams
            }
            Workload::BathtubFleet => vec![
                Box::new(QuadraticFamily),
                Box::new(CompetingRisksFamily),
                Box::new(QuarticFamily),
            ],
            Workload::BootstrapBand => vec![Box::new(mixtures[3])],
        }
    }

    /// The named scenario specs this workload's inputs come from, in the
    /// order the answers use them.
    fn specs(self, seed: u64) -> Vec<(String, ScenarioSpec)> {
        match self {
            Workload::PaperSelect => {
                // The seed permutes the curves (Fisher–Yates).
                let mut curves = Recession::ALL.to_vec();
                let mut rng = XorShift64::new(seed);
                for i in (1..curves.len()).rev() {
                    curves.swap(i, rng.next_index(i + 1));
                }
                curves
                    .into_iter()
                    .map(|r| (r.label().to_string(), r.scenario()))
                    .collect()
            }
            Workload::BathtubFleet => {
                let grid = ScenarioGrid {
                    seeds: (0..4).map(|i| seed.wrapping_add(i)).collect(),
                    ..full_grid()
                };
                grid.cells().map(|c| (c.series_name(), c.spec)).collect()
            }
            Workload::BootstrapBand => {
                let r = Recession::R1990_93;
                vec![(r.label().to_string(), r.scenario())]
            }
        }
    }

    /// Generates the inputs: every `ScenarioSpec::generate` call is a
    /// `data` span when `tracer` is on.
    ///
    /// # Errors
    ///
    /// Returns the name of a spec that failed to generate.
    pub fn inputs(self, seed: u64, tracer: &mut Tracer) -> Result<Vec<PerformanceSeries>, String> {
        self.specs(seed)
            .into_iter()
            .map(|(name, spec)| {
                tracer
                    .call("ScenarioSpec::generate", Layer::Data, || {
                        spec.generate(name.clone())
                    })
                    .map_err(|e| format!("{name}: {e}"))
            })
            .collect()
    }

    /// Runs every answer of the workload once.
    pub fn pass(
        self,
        seed: u64,
        series: &[PerformanceSeries],
        families: &[&dyn ModelFamily],
        parallelism: Parallelism,
        control: &Control,
        tracer: &mut Tracer,
    ) -> Pass {
        let config = FitConfig {
            parallelism,
            ..FitConfig::default()
        };
        let policy = ExecPolicy::default();
        let start = crate::trace::now_ns();
        let mut answers = Vec::new();
        let mut answer_ns = Vec::new();
        let mut timed = |answer: Answer, t0: u64| {
            answer_ns.push(crate::trace::now_ns() - t0);
            answers.push(answer);
        };
        match self {
            Workload::PaperSelect => {
                for s in series {
                    let t0 = crate::trace::now_ns();
                    tracer.next_answer();
                    let answer = paper_select(s, families, &config, &policy, control, tracer)
                        .unwrap_or_else(|e| Answer::error(s.name(), 1, e));
                    timed(answer, t0);
                }
            }
            Workload::BathtubFleet => {
                let t0 = crate::trace::now_ns();
                tracer.next_answer();
                let outcomes = tracer.call("rank_fleet_supervised", Layer::Runtime, || {
                    rank_fleet_supervised(families, series, &config, &policy, control)
                });
                timed(fleet_answer(series, families.len(), &outcomes), t0);
            }
            Workload::BootstrapBand => {
                let t0 = crate::trace::now_ns();
                tracer.next_answer();
                let boot = BootstrapConfig {
                    seed,
                    parallelism,
                    ..BootstrapConfig::default()
                };
                let s = &series[0];
                let band = tracer.call("bootstrap_band_with", Layer::Bootstrap, || {
                    bootstrap_band_with(families[0], s, &config, &boot, control)
                });
                let answer = match band {
                    Ok(band) => {
                        let mut bits = Vec::new();
                        for v in [&band.times, &band.center, &band.lower, &band.upper] {
                            bits.extend(v.iter().map(|x| x.to_bits()));
                        }
                        bits.extend([band.replicates as u64, band.failed as u64]);
                        Answer {
                            units: boot.replicates as u64,
                            failed: band.failed as u64,
                            quarantined: 0,
                            jobs: boot.replicates as u64,
                            failed_jobs: band.failed as u64,
                            bits,
                            summary: Summary::Band {
                                center: band.center,
                                lower: band.lower,
                                upper: band.upper,
                            },
                        }
                    }
                    Err(e) => Answer::error(s.name(), boot.replicates as u64, e.to_string()),
                };
                timed(answer, t0);
            }
        }
        Pass {
            wall_ns: crate::trace::now_ns() - start,
            answers,
            answer_ns,
        }
    }
}

/// Every answer of one pass, with how long the caller waited for each.
#[derive(Debug)]
pub struct Pass {
    pub answers: Vec<Answer>,
    pub answer_ns: Vec<u64>,
    pub wall_ns: u64,
}

impl Pass {
    pub fn units(&self) -> u64 {
        self.answers.iter().map(|a| a.units).sum()
    }

    pub fn sum(&self, f: impl Fn(&Answer) -> u64) -> u64 {
        self.answers.iter().map(f).sum()
    }
}

/// One answer: what the caller waits for (a curve, a sweep or a band).
#[derive(Debug)]
pub struct Answer {
    /// Units of work the answer covers.
    pub units: u64,
    /// Units the library reported as failed (errors, failed replicates,
    /// cells stopped or quarantined).
    pub failed: u64,
    /// Cells quarantined because no family could fit them.
    pub quarantined: u64,
    /// Jobs the runtime fanned out, and how many of them failed.
    pub jobs: u64,
    pub failed_jobs: u64,
    /// Every number the answer holds, as bits.
    pub bits: Vec<u64>,
    pub summary: Summary,
}

impl Answer {
    fn error(label: &str, units: u64, reason: impl Into<String>) -> Self {
        Answer {
            units,
            failed: units,
            quarantined: 0,
            jobs: 0,
            failed_jobs: 0,
            bits: Vec::new(),
            summary: Summary::Error(format!("{label}: {}", reason.into())),
        }
    }
}

/// What the correctness check compares against the stored reference.
#[derive(Debug)]
pub enum Summary {
    /// One ranked unit per entry (a curve, or each cell of a sweep).
    Ranked(Vec<Cell>),
    Band {
        center: Vec<f64>,
        lower: Vec<f64>,
        upper: Vec<f64>,
    },
    Error(String),
}

/// The outcome of one ranked unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Cell {
    pub label: String,
    pub outcome: CellResult,
}

#[derive(Debug, Clone, PartialEq)]
pub enum CellResult {
    /// Winner, its SSE, and the AICc gap to the runner-up (∞ without one).
    Ranked {
        winner: String,
        sse: f64,
        gap: f64,
    },
    /// Every family failed; `constant` records whether the series was
    /// constant, the one input that legitimately quarantines a cell.
    Quarantined {
        constant: bool,
    },
    Failed(String),
}

fn ranked(label: &str, ranking: &Ranking) -> Cell {
    let rows = &ranking.rows;
    let aicc = |i: usize| rows.get(i).and_then(|r| r.criteria).map(|c| c.aicc);
    let gap = match (aicc(0), aicc(1)) {
        (Some(a), Some(b)) => b - a,
        _ => f64::INFINITY,
    };
    Cell {
        label: label.to_string(),
        outcome: CellResult::Ranked {
            winner: rows[0].family_name.to_string(),
            sse: rows[0].sse,
            gap,
        },
    }
}

fn ranking_bits(ranking: &Ranking, bits: &mut Vec<u64>) {
    for row in &ranking.rows {
        bits.push(fnv1a(row.family_name.as_bytes()));
        bits.extend([row.sse.to_bits(), row.r2_adj.to_bits()]);
        if let Some(c) = row.criteria {
            bits.extend([c.aic.to_bits(), c.aicc.to_bits(), c.bic.to_bits()]);
        }
    }
    for f in &ranking.failures {
        bits.push(fnv1a(f.family_name.as_bytes()));
    }
}

fn paper_select(
    series: &PerformanceSeries,
    families: &[&dyn ModelFamily],
    config: &FitConfig,
    policy: &ExecPolicy,
    control: &Control,
    tracer: &mut Tracer,
) -> Result<Answer, String> {
    let holdout = mixture_holdout(series);
    let train = series
        .split_at(series.len() - holdout)
        .map_err(|e| e.to_string())?
        .train;
    let ranking = tracer
        .call("rank_models_supervised", Layer::Runtime, || {
            rank_models_supervised(families, &train, config, policy, control)
        })
        .map_err(|e| format!("rank: {e}"))?;
    // `Ranking` keeps no fitted model, so the winner is refit for its
    // predictive metrics.
    let winner = ranking.rows[0].family_name;
    let family = *families
        .iter()
        .find(|f| f.name() == winner)
        .ok_or("winner is not a ranked family")?;
    let eval = tracer
        .call("evaluate_model_with", Layer::Metrics, || {
            evaluate_model_with(family, series, holdout, ALPHA, config)
        })
        .map_err(|e| format!("evaluate: {e}"))?;
    let metrics = tracer
        .call("metrics_comparison", Layer::Metrics, || {
            metrics_comparison(std::slice::from_ref(&eval), series, METRIC_WEIGHT)
        })
        .map_err(|e| format!("metrics: {e}"))?;

    let mut bits = Vec::new();
    ranking_bits(&ranking, &mut bits);
    bits.extend(eval.fit.params.iter().map(|p| p.to_bits()));
    let g = &eval.gof;
    bits.extend([g.sse, g.pmse, g.r2_adj, g.ec, g.sigma].map(f64::to_bits));
    for row in &metrics {
        bits.push(row.actual.to_bits());
        for (_, predicted, delta) in &row.predictions {
            bits.extend([predicted.to_bits(), delta.to_bits()]);
        }
    }
    Ok(Answer {
        units: 1,
        failed: 0,
        quarantined: 0,
        jobs: (ranking.rows.len() + ranking.failures.len()) as u64,
        failed_jobs: ranking.failures.len() as u64,
        bits,
        summary: Summary::Ranked(vec![ranked(series.name(), &ranking)]),
    })
}

fn fleet_answer(
    series: &[PerformanceSeries],
    n_families: usize,
    outcomes: &[CellOutcome],
) -> Answer {
    let mut bits = Vec::new();
    let mut cells = Vec::with_capacity(outcomes.len());
    let (mut failed, mut quarantined, mut failed_jobs) = (0, 0, 0);
    for (s, outcome) in series.iter().zip(outcomes) {
        let label = s.name();
        let cell = match outcome {
            CellOutcome::Ranked(ranking) => {
                ranking_bits(ranking, &mut bits);
                failed_jobs += ranking.failures.len() as u64;
                ranked(label, ranking)
            }
            CellOutcome::Quarantined { failures } => {
                failed += 1;
                quarantined += 1;
                failed_jobs += failures.len() as u64;
                bits.push(u64::MAX - 1);
                let first = s.values()[0];
                Cell {
                    label: label.to_string(),
                    outcome: CellResult::Quarantined {
                        constant: s.values().iter().all(|v| v.to_bits() == first.to_bits()),
                    },
                }
            }
            CellOutcome::Stopped(e) => {
                failed += 1;
                failed_jobs += n_families as u64;
                bits.push(u64::MAX);
                Cell {
                    label: label.to_string(),
                    outcome: CellResult::Failed(e.to_string()),
                }
            }
        };
        cells.push(cell);
    }
    Answer {
        units: series.len() as u64,
        failed,
        quarantined,
        jobs: (series.len() * n_families) as u64,
        failed_jobs,
        bits,
        summary: Summary::Ranked(cells),
    }
}
