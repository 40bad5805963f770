//! Span-tree reconstruction: from a flat event log to the hierarchy
//! fleet → cell → family fit → attempt → solver.
//!
//! [`SpanTree::build`] folds a log (recorded in-process or parsed from
//! JSONL) into the nesting the runtime flattened away, keyed purely on
//! logical clocks — event order, job markers, attempt numbers, and
//! evaluation counters. No wall-clock values exist anywhere in the input
//! (the workspace clippy ban enforces this), so the tree built from a log
//! is a pure function of the log bytes: byte-identical logs yield
//! byte-identical [`SpanTree::render`] output regardless of the worker
//! count that produced them.
//!
//! The fold rule: an [`Event::Job`] opens a fit in its cell, and every
//! later event belongs to that fit until the next `job` — the job's
//! replayed buffer and the reduction's verdicts alike, so the last
//! terminal event wins. `retry_scheduled` opens a new attempt; work seen
//! before the first `job` is unattributed.

use crate::event::{ChaosKind, CounterId, Event, ExitReason, FailureCode, SolverKind, StopKind};
use crate::report::BootstrapProgress;
use std::collections::HashMap;
use std::fmt::Write as _;

/// Which work column a top-K query ranks by.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkMetric {
    /// Objective evaluations attributed to the span.
    Evaluations,
    /// Retry attempts beyond the first.
    Retries,
}

/// One solver activation inside an attempt (a multi-start probe or a
/// polish pass).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SolverSpan {
    /// Emitting solver, once an iteration or termination identified it.
    pub solver: Option<SolverKind>,
    /// Multi-start seed index when the span was opened by a `start` event.
    pub start_index: Option<u32>,
    /// Total iterations (cumulative clock from the last event seen).
    pub iterations: u64,
    /// Total objective evaluations reported by the solver's own events.
    pub evaluations: u64,
    /// Termination reason when the solver exited normally.
    pub exit: Option<ExitReason>,
    /// Final objective value at normal termination.
    pub value: Option<f64>,
}

/// One fit attempt (attempt 1 is the original try; retries follow).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AttemptSpan {
    /// 1-based attempt number.
    pub attempt: u32,
    /// Solver activations inside this attempt, in order.
    pub solvers: Vec<SolverSpan>,
    /// Objective evaluations charged to this attempt (counter deltas plus
    /// work carried by stop events).
    pub evaluations: u64,
    /// Deadline/cancellation observed during the attempt, if any.
    pub stopped: Option<StopKind>,
    /// Chaos faults injected into this attempt.
    pub chaos: Vec<ChaosKind>,
}

impl AttemptSpan {
    fn new(attempt: u32) -> Self {
        Self {
            attempt,
            ..Self::default()
        }
    }
}

/// How a family fit ended.
#[derive(Debug, Clone, Default, PartialEq)]
pub enum FitOutcome {
    /// A usable model came back.
    Completed {
        /// Final sum of squared errors.
        sse: f64,
        /// Evaluations the runtime charged to the winning solve.
        evaluations: u64,
        /// Whether the winning solve met its tolerance.
        converged: bool,
    },
    /// The fit terminated without a usable model.
    Failed(FailureCode),
    /// The log ended (or telemetry was lost) before a terminal event.
    #[default]
    Lost,
}

/// One family fit inside a cell: everything from its `job` event to the
/// next, with its retry attempts nested inside.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FitSpan {
    /// Family name.
    pub family: &'static str,
    /// Multi-start pool size (0 when the fit never started, e.g. skipped).
    pub starts: u32,
    /// Attempts in order; empty for fits that never ran (breaker skips).
    pub attempts: Vec<AttemptSpan>,
    /// Terminal state.
    pub outcome: FitOutcome,
    /// Whether a worker panic was attributed to this fit.
    pub panicked: bool,
}

impl FitSpan {
    /// The latest attempt, opening attempt 1 on first use.
    fn attempt_mut(&mut self) -> &mut AttemptSpan {
        if self.attempts.is_empty() {
            self.attempts.push(AttemptSpan::new(1));
        }
        self.attempts.last_mut().expect("attempt pushed above")
    }

    /// Objective evaluations attributed to the fit (sum over attempts).
    pub fn evaluations(&self) -> u64 {
        self.attempts.iter().map(|a| a.evaluations).sum()
    }

    /// Retry attempts beyond the first.
    pub fn retries(&self) -> u64 {
        (self.attempts.len() as u64).saturating_sub(1)
    }

    /// Solver iterations attributed to the fit.
    pub fn iterations(&self) -> u64 {
        self.attempts
            .iter()
            .flat_map(|a| &a.solvers)
            .map(|s| s.iterations)
            .sum()
    }
}

/// One fleet cell: the family fits of one series, plus supervision facts.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CellSpan {
    /// Fleet cell index (0 for single-series runs).
    pub cell: u32,
    /// Family fits in replay order.
    pub fits: Vec<FitSpan>,
    /// Failure count at quarantine, when the supervisor parked the cell.
    pub quarantined: Option<u32>,
    /// Circuit-breaker transitions replayed while this cell was current.
    pub breaker_transitions: u64,
}

impl CellSpan {
    /// Objective evaluations attributed to the cell.
    pub fn evaluations(&self) -> u64 {
        self.fits.iter().map(FitSpan::evaluations).sum()
    }

    /// Retry attempts attributed to the cell.
    pub fn retries(&self) -> u64 {
        self.fits.iter().map(FitSpan::retries).sum()
    }

    fn work(&self, metric: WorkMetric) -> u64 {
        match metric {
            WorkMetric::Evaluations => self.evaluations(),
            WorkMetric::Retries => self.retries(),
        }
    }
}

/// The reconstructed hierarchy of one event log.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SpanTree {
    /// Cells in the order of their first `job` event (replay order for a
    /// fleet log).
    pub cells: Vec<CellSpan>,
    /// Latest bootstrap progress seen in the log.
    pub bootstrap: Option<BootstrapProgress>,
    /// Evaluations observed before the first `job` event.
    pub unattributed_evaluations: u64,
    /// Total events consumed.
    pub events: u64,
}

/// Builder state while folding the log.
#[derive(Default)]
struct Builder {
    tree: SpanTree,
    /// Position in `tree.cells` of each cell index seen so far.
    cell_slots: HashMap<u32, usize>,
    /// `(cell slot, fit index)` of the job receiving events; `None`
    /// before the first `job` event.
    job: Option<(usize, usize)>,
}

impl Builder {
    /// Opens the span of the job a `job` event announces, creating its
    /// cell on first sight. Cells are keyed by index, never allocated up
    /// to it, so memory grows with the log rather than the index value.
    fn start_job(&mut self, cell: u32, family: &'static str) {
        let cells = &mut self.tree.cells;
        let slot = *self.cell_slots.entry(cell).or_insert_with(|| {
            cells.push(CellSpan {
                cell,
                ..CellSpan::default()
            });
            cells.len() - 1
        });
        let fits = &mut cells[slot].fits;
        fits.push(FitSpan {
            family,
            ..FitSpan::default()
        });
        self.job = Some((slot, fits.len() - 1));
    }

    fn cell_mut(&mut self) -> Option<&mut CellSpan> {
        let (c, _) = self.job?;
        Some(&mut self.tree.cells[c])
    }

    fn fit_mut(&mut self) -> Option<&mut FitSpan> {
        let (c, f) = self.job?;
        Some(&mut self.tree.cells[c].fits[f])
    }

    fn attempt_mut(&mut self) -> Option<&mut AttemptSpan> {
        self.fit_mut().map(FitSpan::attempt_mut)
    }

    /// Charges `delta` evaluations to the current attempt, or to the
    /// unattributed pool before the first job.
    fn charge_evaluations(&mut self, delta: u64) {
        match self.attempt_mut() {
            Some(attempt) => attempt.evaluations += delta,
            None => self.tree.unattributed_evaluations += delta,
        }
    }

    /// The current attempt's open solver span, opening one (and closing a
    /// mismatched predecessor) as needed.
    fn solver_mut(&mut self, solver: SolverKind) -> Option<&mut SolverSpan> {
        let attempt = self.attempt_mut()?;
        let reuse = attempt
            .solvers
            .last()
            .is_some_and(|s| s.exit.is_none() && s.solver.is_none_or(|k| k == solver));
        if !reuse {
            attempt.solvers.push(SolverSpan::default());
        }
        let span = attempt.solvers.last_mut().expect("span pushed above");
        span.solver = Some(solver);
        Some(span)
    }

    fn consume(&mut self, event: &Event) {
        self.tree.events += 1;
        match *event {
            Event::Job { cell, family } => self.start_job(cell, family),
            Event::FitStarted { starts, .. } => {
                if let Some(fit) = self.fit_mut() {
                    fit.attempt_mut();
                    fit.starts = starts;
                }
            }
            Event::FitFinished {
                sse,
                evaluations,
                converged,
                ..
            } => {
                if let Some(fit) = self.fit_mut() {
                    fit.outcome = FitOutcome::Completed {
                        sse,
                        evaluations,
                        converged,
                    };
                }
            }
            Event::FitFailed { kind, .. } => {
                if let Some(fit) = self.fit_mut() {
                    fit.outcome = FitOutcome::Failed(kind);
                }
            }
            Event::StartBegan { index } => {
                if let Some(attempt) = self.attempt_mut() {
                    attempt.solvers.push(SolverSpan {
                        start_index: Some(index),
                        ..SolverSpan::default()
                    });
                }
            }
            Event::Iteration {
                solver,
                iteration,
                evaluations,
                ..
            } => {
                if let Some(span) = self.solver_mut(solver) {
                    span.iterations = span.iterations.max(iteration);
                    span.evaluations = span.evaluations.max(evaluations);
                }
            }
            Event::Converged {
                solver,
                iterations,
                evaluations,
                value,
                reason,
            } => {
                if let Some(span) = self.solver_mut(solver) {
                    span.iterations = iterations;
                    span.evaluations = evaluations;
                    span.exit = Some(reason);
                    span.value = Some(value);
                }
            }
            Event::RetryScheduled { attempt, .. } => {
                if let Some(fit) = self.fit_mut() {
                    fit.attempt_mut();
                    fit.attempts.push(AttemptSpan::new(attempt));
                }
            }
            Event::Stop {
                kind, evaluations, ..
            } => {
                self.charge_evaluations(evaluations);
                if let Some(attempt) = self.attempt_mut() {
                    attempt.stopped = Some(kind);
                }
            }
            Event::WorkerPanic { .. } => {
                if let Some(fit) = self.fit_mut() {
                    fit.panicked = true;
                }
            }
            Event::BootstrapChunkDone {
                done,
                total,
                failed,
            } => {
                self.tree.bootstrap = Some(BootstrapProgress {
                    done,
                    total,
                    failed,
                });
            }
            Event::ChaosInjected { kind, .. } => {
                if let Some(attempt) = self.attempt_mut() {
                    attempt.chaos.push(kind);
                }
            }
            Event::BreakerOpened { .. }
            | Event::BreakerHalfOpen { .. }
            | Event::BreakerClosed { .. } => {
                if let Some(cell) = self.cell_mut() {
                    cell.breaker_transitions += 1;
                }
            }
            Event::CellQuarantined { failures, .. } => {
                if let Some(cell) = self.cell_mut() {
                    cell.quarantined = Some(failures);
                }
            }
            Event::Counter { id, delta } => {
                if id == CounterId::ObjectiveEvals {
                    self.charge_evaluations(delta);
                }
            }
            Event::Hist { .. } => {}
        }
    }
}

impl SpanTree {
    /// Rebuilds the hierarchy from an event stream.
    pub fn build<'a, I>(events: I) -> SpanTree
    where
        I: IntoIterator<Item = &'a Event>,
    {
        let mut builder = Builder::default();
        for event in events {
            builder.consume(event);
        }
        builder.tree
    }

    /// Total family fits across all cells.
    pub fn fits(&self) -> u64 {
        self.cells.iter().map(|c| c.fits.len() as u64).sum()
    }

    /// Total objective evaluations attributed anywhere in the tree.
    pub fn evaluations(&self) -> u64 {
        self.unattributed_evaluations + self.cells.iter().map(CellSpan::evaluations).sum::<u64>()
    }

    /// Total retry attempts.
    pub fn retries(&self) -> u64 {
        self.cells.iter().map(CellSpan::retries).sum()
    }

    /// The `k` hottest cells by `metric`, hottest first; ties break toward
    /// the lower cell index, so the order is deterministic.
    pub fn hottest_cells(&self, k: usize, metric: WorkMetric) -> Vec<(u32, u64)> {
        let mut v: Vec<(u32, u64)> = self
            .cells
            .iter()
            .map(|c| (c.cell, c.work(metric)))
            .collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        v.truncate(k);
        v
    }

    /// The `k` hottest families by `metric`, aggregated across cells,
    /// hottest first; ties break toward first-seen order.
    pub fn hottest_families(&self, k: usize, metric: WorkMetric) -> Vec<(&'static str, u64)> {
        let mut v: Vec<(&'static str, u64)> = Vec::new();
        for fit in self.cells.iter().flat_map(|c| &c.fits) {
            let work = match metric {
                WorkMetric::Evaluations => fit.evaluations(),
                WorkMetric::Retries => fit.retries(),
            };
            match v.iter_mut().find(|(name, _)| *name == fit.family) {
                Some((_, total)) => *total += work,
                None => v.push((fit.family, work)),
            }
        }
        v.sort_by_key(|&(_, work)| std::cmp::Reverse(work));
        v.truncate(k);
        v
    }

    /// Renders the tree as indented monospace text. `max_cells` bounds the
    /// number of cells printed (a trailer reports the omitted count);
    /// `max_depth` bounds nesting: 1 = cells, 2 = fits, 3 = attempts,
    /// 4 = solvers.
    pub fn render(&self, max_cells: usize, max_depth: usize) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "fleet: {} cells, {} fits, {} evals, {} retries, {} unattributed evals",
            self.cells.len(),
            self.fits(),
            self.evaluations(),
            self.retries(),
            self.unattributed_evaluations
        );
        for cell in self.cells.iter().take(max_cells) {
            let _ = write!(
                out,
                "cell {}: {} fits, {} evals, {} retries",
                cell.cell,
                cell.fits.len(),
                cell.evaluations(),
                cell.retries()
            );
            if let Some(failures) = cell.quarantined {
                let _ = write!(out, ", QUARANTINED ({failures} failures)");
            }
            if cell.breaker_transitions > 0 {
                let _ = write!(out, ", {} breaker transitions", cell.breaker_transitions);
            }
            out.push('\n');
            if max_depth < 2 {
                continue;
            }
            for fit in &cell.fits {
                let _ = write!(
                    out,
                    "  {}: evals={} attempts={}",
                    fit.family,
                    fit.evaluations(),
                    fit.attempts.len()
                );
                match &fit.outcome {
                    FitOutcome::Completed { sse, converged, .. } => {
                        let _ = write!(
                            out,
                            " ok sse={sse:.4e}{}",
                            if *converged { " converged" } else { "" }
                        );
                    }
                    FitOutcome::Failed(kind) => {
                        let _ = write!(out, " failed({})", kind.as_str());
                    }
                    FitOutcome::Lost => out.push_str(" lost"),
                }
                if fit.panicked {
                    out.push_str(" panicked");
                }
                out.push('\n');
                if max_depth < 3 {
                    continue;
                }
                for attempt in &fit.attempts {
                    let _ = write!(
                        out,
                        "    attempt {}: evals={}",
                        attempt.attempt, attempt.evaluations
                    );
                    if let Some(kind) = attempt.stopped {
                        let _ = write!(out, " stopped({})", kind.as_str());
                    }
                    for kind in &attempt.chaos {
                        let _ = write!(out, " chaos({})", kind.as_str());
                    }
                    out.push('\n');
                    if max_depth < 4 {
                        continue;
                    }
                    for span in &attempt.solvers {
                        let solver = span.solver.map_or("?", SolverKind::as_str);
                        let _ = write!(out, "      {solver}");
                        if let Some(i) = span.start_index {
                            let _ = write!(out, " start {i}");
                        }
                        let _ = write!(
                            out,
                            ": iters={} evals={}",
                            span.iterations, span.evaluations
                        );
                        if let Some(exit) = span.exit {
                            let _ = write!(out, " exit={}", exit.as_str());
                        }
                        out.push('\n');
                    }
                }
            }
        }
        if self.cells.len() > max_cells {
            let _ = writeln!(out, "... ({} more cells)", self.cells.len() - max_cells);
        }
        if let Some(b) = self.bootstrap {
            let _ = writeln!(
                out,
                "bootstrap: {}/{} replicates ({} failed)",
                b.done, b.total, b.failed
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::HistogramId;
    use crate::parse::intern;

    fn job(cell: u32, family: &'static str) -> Event {
        Event::Job { cell, family }
    }

    fn started(family: &'static str) -> Event {
        Event::FitStarted { family, starts: 4 }
    }

    fn evals(delta: u64) -> Event {
        Event::Counter {
            id: CounterId::ObjectiveEvals,
            delta,
        }
    }

    fn failed(family: &'static str, kind: FailureCode) -> Event {
        Event::FitFailed { family, kind }
    }

    fn chaos(kind: ChaosKind, cell: u32, family: &'static str) -> Event {
        Event::ChaosInjected { kind, cell, family }
    }

    fn deadline(evaluations: u64) -> Event {
        Event::Stop {
            scope: intern("nelder_mead"),
            kind: StopKind::Deadline,
            evaluations,
        }
    }

    fn finished(family: &'static str, evaluations: u64) -> Event {
        Event::FitFinished {
            family,
            sse: 1.0,
            evaluations,
            converged: true,
        }
    }

    #[test]
    fn selection_rejection_reterminates_the_completed_fit() {
        let q = intern("Quadratic");
        let g = intern("Glacial");
        let events = vec![
            job(0, q),
            started(q),
            evals(7),
            finished(q, 7),
            // The selection layer rejected the numerically-complete fit:
            // a trailing verdict for the same job, not a new one.
            failed(q, FailureCode::Error),
            job(0, g),
            started(g),
            evals(5),
            finished(g, 5),
            job(1, q),
            started(q),
            evals(3),
            finished(q, 3),
        ];
        let tree = SpanTree::build(&events);
        assert_eq!(tree.cells.len(), 2);
        assert_eq!(tree.cells[0].fits.len(), 2);
        let fit = &tree.cells[0].fits[0];
        assert_eq!(fit.outcome, FitOutcome::Failed(FailureCode::Error));
        assert_eq!(fit.evaluations(), 7, "rejected fit keeps its work");
        assert_eq!(tree.cells[1].fits.len(), 1);
    }

    #[test]
    fn job_events_place_fits_in_their_cells() {
        let q = intern("Quadratic");
        let g = intern("Glacial");
        // Two cells x two families, one job marker per fit.
        let events = vec![
            job(0, q),
            started(q),
            evals(10),
            finished(q, 10),
            job(0, g),
            started(g),
            evals(20),
            finished(g, 20),
            job(1, q),
            started(q),
            evals(30),
            finished(q, 30),
            job(1, g),
            started(g),
            evals(40),
            finished(g, 40),
        ];
        let tree = SpanTree::build(&events);
        assert_eq!(tree.cells.len(), 2);
        assert_eq!(tree.fits(), 4);
        assert_eq!(tree.cells[0].evaluations(), 30);
        assert_eq!(tree.cells[1].evaluations(), 70);
        assert_eq!(tree.evaluations(), 100);
        assert_eq!(tree.retries(), 0);
        assert_eq!(
            tree.hottest_cells(5, WorkMetric::Evaluations),
            vec![(1, 70), (0, 30)]
        );
        assert_eq!(
            tree.hottest_families(1, WorkMetric::Evaluations),
            vec![(g, 60)]
        );
    }

    #[test]
    fn retry_reemits_fit_started_within_the_same_fit() {
        let q = intern("Quadratic");
        let events = vec![
            job(0, q),
            started(q),
            deadline(7),
            Event::RetryScheduled {
                family: q,
                attempt: 2,
            },
            started(q), // re-emission for attempt 2, NOT a new cell
            evals(13),
            finished(q, 13),
        ];
        let tree = SpanTree::build(&events);
        assert_eq!(tree.cells.len(), 1);
        let fit = &tree.cells[0].fits[0];
        assert_eq!(fit.attempts.len(), 2);
        assert_eq!(fit.attempts[0].evaluations, 7);
        assert_eq!(fit.attempts[0].stopped, Some(StopKind::Deadline));
        assert_eq!(fit.attempts[1].evaluations, 13);
        assert_eq!(fit.evaluations(), 20);
        assert_eq!(fit.retries(), 1);
        assert!(matches!(fit.outcome, FitOutcome::Completed { .. }));
    }

    #[test]
    fn solver_spans_nest_inside_attempts() {
        let q = intern("Quadratic");
        let events = vec![
            job(0, q),
            started(q),
            Event::StartBegan { index: 0 },
            Event::Iteration {
                solver: SolverKind::NelderMead,
                iteration: 5,
                evaluations: 12,
                best: 2.0,
            },
            Event::Converged {
                solver: SolverKind::NelderMead,
                iterations: 9,
                evaluations: 20,
                value: 1.5,
                reason: ExitReason::Converged,
            },
            Event::Converged {
                solver: SolverKind::LevenbergMarquardt,
                iterations: 3,
                evaluations: 9,
                value: 1.0,
                reason: ExitReason::Converged,
            },
            evals(29),
            finished(q, 29),
        ];
        let tree = SpanTree::build(&events);
        let attempt = &tree.cells[0].fits[0].attempts[0];
        assert_eq!(attempt.solvers.len(), 2);
        assert_eq!(attempt.solvers[0].solver, Some(SolverKind::NelderMead));
        assert_eq!(attempt.solvers[0].start_index, Some(0));
        assert_eq!(attempt.solvers[0].iterations, 9);
        assert_eq!(attempt.solvers[0].exit, Some(ExitReason::Converged));
        assert_eq!(
            attempt.solvers[1].solver,
            Some(SolverKind::LevenbergMarquardt)
        );
        assert_eq!(attempt.solvers[1].start_index, None);
        assert_eq!(tree.cells[0].fits[0].iterations(), 12);
    }

    #[test]
    fn chaos_skip_and_quarantine_shapes() {
        let q = intern("Quadratic");
        let g = intern("Glacial");
        let events = vec![
            // Cell 0: retry-exhaustion chaos on Quadratic — no fit_started
            // at all, just chaos, a scheduled retry, and the verdict.
            job(0, q),
            chaos(ChaosKind::Exhaustion, 0, q),
            Event::Counter {
                id: CounterId::ChaosInjected,
                delta: 1,
            },
            Event::RetryScheduled {
                family: q,
                attempt: 2,
            },
            failed(q, FailureCode::Error),
            // Glacial was skipped by an open breaker: verdict only.
            job(0, g),
            failed(g, FailureCode::Skipped),
            Event::BreakerOpened {
                family: q,
                consecutive: 2,
                clock: 0,
            },
            Event::CellQuarantined {
                cell: 0,
                failures: 2,
            },
            // Cell 1 runs clean.
            job(1, q),
            started(q),
            evals(11),
            finished(q, 11),
            job(1, g),
            started(g),
            evals(5),
            finished(g, 5),
        ];
        let tree = SpanTree::build(&events);
        assert_eq!(tree.cells.len(), 2);
        let c0 = &tree.cells[0];
        assert_eq!(c0.quarantined, Some(2));
        assert_eq!(c0.breaker_transitions, 1);
        assert_eq!(c0.fits.len(), 2);
        let exhausted = &c0.fits[0];
        assert_eq!(exhausted.family, q);
        assert_eq!(exhausted.attempts.len(), 2);
        assert_eq!(exhausted.attempts[0].chaos, vec![ChaosKind::Exhaustion]);
        assert_eq!(exhausted.outcome, FitOutcome::Failed(FailureCode::Error));
        let skipped = &c0.fits[1];
        assert!(skipped.attempts.is_empty());
        assert_eq!(skipped.outcome, FitOutcome::Failed(FailureCode::Skipped));
        assert_eq!(tree.cells[1].evaluations(), 16);
        assert_eq!(tree.hottest_cells(1, WorkMetric::Retries), vec![(0, 1)]);
        let rendered = tree.render(10, 4);
        assert!(rendered.contains("QUARANTINED (2 failures)"), "{rendered}");
        assert!(rendered.contains("failed(skipped)"), "{rendered}");
        assert!(rendered.contains("chaos(exhaustion)"), "{rendered}");
    }

    #[test]
    fn observer_loss_leaves_a_lost_fit() {
        let q = intern("Quadratic");
        let events = vec![
            // Cell 0: the observer was dropped after chaos_injected; the
            // job's own telemetry never reached the log.
            job(0, q),
            chaos(ChaosKind::ObserverLoss, 0, q),
            // Cell 1 (single-family roster): same family again.
            job(1, q),
            chaos(ChaosKind::ObserverLoss, 1, q),
            // Cell 2 runs clean.
            job(2, q),
            started(q),
            evals(3),
            finished(q, 3),
        ];
        let tree = SpanTree::build(&events);
        assert_eq!(tree.cells.len(), 3);
        assert_eq!(tree.cells[0].fits[0].outcome, FitOutcome::Lost);
        assert_eq!(tree.cells[1].fits[0].outcome, FitOutcome::Lost);
        assert!(matches!(
            tree.cells[2].fits[0].outcome,
            FitOutcome::Completed { .. }
        ));
    }

    #[test]
    fn panic_verdicts_attach_to_the_failing_fit() {
        let q = intern("Quadratic");
        let events = vec![
            job(0, q),
            chaos(ChaosKind::Panic, 0, q),
            Event::WorkerPanic { scope: q, index: 0 },
            failed(q, FailureCode::Panicked),
        ];
        let tree = SpanTree::build(&events);
        let fit = &tree.cells[0].fits[0];
        assert!(fit.panicked);
        assert_eq!(fit.outcome, FitOutcome::Failed(FailureCode::Panicked));
        assert_eq!(fit.attempts[0].chaos, vec![ChaosKind::Panic]);
    }

    #[test]
    fn work_outside_any_cell_is_unattributed() {
        let events = vec![
            evals(9),
            Event::Hist {
                id: HistogramId::EvalsPerFit,
                value: 9,
            },
        ];
        let tree = SpanTree::build(&events);
        assert!(tree.cells.is_empty());
        assert_eq!(tree.unattributed_evaluations, 9);
        assert_eq!(tree.evaluations(), 9);
        assert_eq!(tree.events, 2);
        let rendered = tree.render(5, 4);
        assert!(rendered.contains("9 unattributed evals"), "{rendered}");

        // A log without job markers (as written before they existed):
        // fit events alone open no cells, and all work stays unattributed.
        let q = intern("Quadratic");
        let g = intern("Glacial");
        let legacy = vec![
            started(q),
            evals(10),
            finished(q, 10),
            started(g),
            deadline(4),
            Event::RetryScheduled {
                family: g,
                attempt: 2,
            },
            Event::WorkerPanic { scope: g, index: 1 },
            failed(g, FailureCode::Panicked),
            Event::CellQuarantined {
                cell: 0,
                failures: 1,
            },
        ];
        let tree = SpanTree::build(&legacy);
        assert!(tree.cells.is_empty());
        assert_eq!(tree.unattributed_evaluations, 14);
        assert_eq!(tree.evaluations(), 14);
        assert_eq!(tree.events, 9);
    }

    #[test]
    fn deadline_fault_stays_in_its_cell() {
        let q = intern("Quadratic");
        let cr = intern("Competing Risks");
        // A deadline blowout emits chaos_injected and then fit_started for
        // the same family; the job marker, not the repeated family, says
        // which cell the work belongs to.
        let events = vec![
            job(0, q),
            started(q),
            evals(5),
            finished(q, 5),
            job(0, cr),
            chaos(ChaosKind::Deadline, 0, cr),
            started(cr),
            deadline(8),
            failed(cr, FailureCode::TimedOut),
            job(1, q),
            started(q),
            evals(3),
            finished(q, 3),
        ];
        let tree = SpanTree::build(&events);
        assert_eq!(tree.cells.len(), 2);
        assert_eq!(tree.cells[0].evaluations(), 13);
        let timed_out = &tree.cells[0].fits[1];
        assert_eq!(timed_out.evaluations(), 8);
        assert_eq!(timed_out.outcome, FitOutcome::Failed(FailureCode::TimedOut));
        assert_eq!(tree.cells[1].fits.len(), 1);
        assert_eq!(tree.cells[1].evaluations(), 3);
    }

    #[test]
    fn a_huge_cell_index_builds_one_cell() {
        let log = "{\"ev\":\"job\",\"cell\":4294967295,\"family\":\"Quadratic\"}\n";
        let events = crate::parse::parse_log(log).unwrap();
        let tree = SpanTree::build(&events);
        assert_eq!(tree.cells.len(), 1);
        assert_eq!(tree.cells[0].cell, u32::MAX);
        assert_eq!(tree.cells[0].fits.len(), 1);
        assert!(tree.render(8, 4).starts_with("fleet: 1 cells, 1 fits"));
    }
}
