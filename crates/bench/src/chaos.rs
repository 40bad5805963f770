//! Chaos-smoke evaluator behind `bench fleet --chaos-smoke` (DESIGN.md
//! §14): the 64-cell CI grid run under a **fixed** [`ChaosPlan`] with the
//! circuit breaker armed, gated on the supervisor's whole contract at
//! once —
//!
//! 1. **no fleet abort**: every cell returns an outcome; chaos-injected
//!    panics, deadline blowouts and retry exhaustion never escape the
//!    supervisor;
//! 2. **well-formed survivors**: every non-quarantined cell carries a
//!    finite winning fit;
//! 3. **bit-identical chaos**: the store *and* the full event JSONL are
//!    byte-identical across two serial runs and a `Fixed(2)` run — fault
//!    injection is part of the determinism contract, not an exception to
//!    it;
//! 4. **bounded retries**: the `retries` counter never exceeds
//!    `(max_attempts − 1) × jobs`;
//! 5. **accounted injection**: the `chaos_injected` counter equals the
//!    number of `chaos_injected` events, and the plan actually fired
//!    (injections, breaker trips and quarantines are all non-zero — a
//!    chaos smoke that injects nothing proves nothing);
//! 6. **tree covered**: the span tree has one cell per grid cell and one
//!    fit per family in each, with all of the roll-up's evaluations
//!    attributed ([`tree_covers`]) — so the per-cell `evals` column is
//!    charged to the cells that did the work.
//!
//! The verdict is written to `BENCH_chaos.json` with no wall-clock and no
//! machine identifiers: regenerating it anywhere yields the same bytes.

use crate::fleet::{cell_work, tree_covers, FleetStore, QUARANTINED_BITS};
use resilience_core::chaos::ChaosPlan;
use resilience_core::fit::FitConfig;
use resilience_core::model::ModelFamily;
use resilience_core::runtime::{
    rank_fleet_supervised, BreakerPolicy, CellOutcome, Control, ExecPolicy, RetryPolicy,
};
use resilience_data::scenario::ScenarioGrid;
use resilience_data::PerformanceSeries;
use resilience_obs::{CounterId, RecordingObserver, RunReport, SpanTree};
use resilience_optim::Parallelism;
use std::sync::Arc;

/// The fixed chaos plan of the CI smoke. Rates are tuned so the 64-cell
/// grid exercises every supervisor path — forced panics, deadline
/// blowouts, retry exhaustion, observer loss, transient retry recovery,
/// breaker trips, and at least one quarantined cell — while most cells
/// still rank. Changing any constant changes `BENCH_chaos.json`
/// deliberately: the plan is part of the baseline.
#[must_use]
pub fn chaos_plan() -> ChaosPlan {
    ChaosPlan {
        seed: 0x0C4A_0511,
        panic_per_mille: 70,
        deadline_per_mille: 60,
        exhaustion_per_mille: 50,
        observer_loss_per_mille: 100,
        transient_per_mille: 150,
    }
}

/// The execution policy of the chaos smoke: a short retry schedule (so
/// the bounded-retry gate is non-trivial), a tight breaker (so trips
/// actually happen in 64 cells), and **no** wall-clock family budget —
/// chaos runs must stay pure functions of the plan.
#[must_use]
pub fn chaos_policy() -> ExecPolicy {
    ExecPolicy {
        family_budget: None,
        retry: Some(RetryPolicy {
            max_attempts: 2,
            ..RetryPolicy::default()
        }),
        breaker: Some(BreakerPolicy {
            threshold: 2,
            cooldown: 2,
            wave: 8,
        }),
        chaos: Some(chaos_plan()),
    }
}

/// One chaos fleet pass: the columnar store, the raw event log serialized
/// as JSONL (the second repeatability artifact), and the roll-up.
#[derive(Debug)]
pub struct ChaosRun {
    /// Per-cell results; quarantined cells sit in the sentinel column.
    pub store: FleetStore,
    /// Every event of the pass, one JSON object per line, in replay
    /// order. Byte-compared across reruns by the evaluator.
    pub events_jsonl: String,
    /// Aggregated counters/histograms (deterministic, no wall-clock).
    pub report: RunReport,
    /// Span tree of the pass; the store's work columns come from it.
    pub tree: SpanTree,
    /// Number of cells the supervisor quarantined.
    pub quarantined_cells: usize,
    /// Whether any cell came back [`CellOutcome::Stopped`] — a fleet
    /// abort, which the no-abort gate forbids.
    pub aborted: bool,
}

/// Runs one chaos fleet pass over `grid` under [`chaos_policy`].
///
/// # Panics
///
/// Panics when a grid cell's spec fails to generate (grid specs are valid
/// by construction) or when `families` is empty.
#[must_use]
pub fn run_fleet_chaos(
    grid: &ScenarioGrid,
    families: &[&dyn ModelFamily],
    parallelism: Parallelism,
) -> ChaosRun {
    assert!(
        !families.is_empty(),
        "chaos fleet needs at least one family"
    );
    let cells: Vec<_> = grid.cells().collect();
    let series: Vec<PerformanceSeries> = cells
        .iter()
        .map(|c| {
            c.generate()
                .unwrap_or_else(|e| panic!("grid cell {}: {e}", c.series_name()))
        })
        .collect();
    let config = FitConfig {
        parallelism,
        ..FitConfig::default()
    };
    let rec = Arc::new(RecordingObserver::new());
    let outcomes = rank_fleet_supervised(
        families,
        &series,
        &config,
        &chaos_policy(),
        &Control::unbounded().observe(rec.clone()),
    );
    let events = rec.take();
    let mut events_jsonl = String::new();
    for event in &events {
        event.write_json(&mut events_jsonl);
        events_jsonl.push('\n');
    }
    let tree = SpanTree::build(&events);
    let report = RunReport::from_events(events);

    let mut store = FleetStore::with_capacity(cells.len());
    let mut quarantined_cells = 0usize;
    let mut aborted = false;
    for (i, (cell, outcome)) in cells.iter().zip(&outcomes).enumerate() {
        let work = cell_work(&tree, i);
        match outcome {
            CellOutcome::Ranked(ranking) => store.push(cell, Some(ranking), work),
            CellOutcome::Quarantined { failures } => {
                quarantined_cells += 1;
                store.push_quarantined(cell, failures.len() as u32, work);
            }
            CellOutcome::Stopped(_) => {
                aborted = true;
                store.push(cell, None, work);
            }
        }
    }
    ChaosRun {
        store,
        events_jsonl,
        report,
        tree,
        quarantined_cells,
        aborted,
    }
}

/// The chaos-smoke verdict: gates plus the exercised-path counts that
/// make `BENCH_chaos.json` diffable.
#[derive(Debug)]
pub struct ChaosReport {
    /// Family names fitted in every cell.
    pub families: Vec<String>,
    /// The fixed plan the smoke ran under.
    pub plan: ChaosPlan,
    /// Canonical (first serial run) store.
    pub store: FleetStore,
    /// Gate: no cell aborted the fleet in any run.
    pub no_abort: bool,
    /// Gate: every non-quarantined cell has a finite winning fit.
    pub well_formed: bool,
    /// Gate: serial rerun store + JSONL byte-identical.
    pub identical_rerun: bool,
    /// Gate: `Fixed(2)` store + JSONL byte-identical to serial.
    pub identical_parallel: bool,
    /// Gate: `chaos_injected` counter == number of chaos events, and the
    /// plan actually fired (injections, trips, quarantines all > 0).
    pub chaos_accounted: bool,
    /// Gate: retries ≤ (max_attempts − 1) × jobs.
    pub retries_bounded: bool,
    /// Gate: the canonical run's span tree covers every job and all of
    /// its evaluations ([`tree_covers`]).
    pub tree_covered: bool,
    /// `chaos_injected` total of the canonical run.
    pub chaos_injected: u64,
    /// `breaker_opened` total of the canonical run.
    pub breaker_opened: u64,
    /// `breaker_half_open` total of the canonical run.
    pub breaker_half_open: u64,
    /// `cell_quarantined` total of the canonical run.
    pub cells_quarantined: u64,
    /// `retries` total of the canonical run.
    pub retries: u64,
    /// The retry ceiling the bounded gate compared against.
    pub retry_ceiling: u64,
    /// Work roll-up of the canonical run.
    pub rollup: RunReport,
    /// Number of passes the evaluation ran.
    pub runs: usize,
}

impl ChaosReport {
    /// Whether every chaos gate held.
    #[must_use]
    pub fn gates_pass(&self) -> bool {
        self.no_abort
            && self.well_formed
            && self.identical_rerun
            && self.identical_parallel
            && self.chaos_accounted
            && self.retries_bounded
            && self.tree_covered
    }

    /// The `BENCH_chaos.json` document: gates, exercised-path counts, the
    /// plan, and the canonical store. No wall-clock, no machine
    /// identifiers — a pure function of the grid and the plan.
    #[must_use]
    pub fn to_json(&self) -> String {
        let families: Vec<String> = self
            .families
            .iter()
            .map(|f| format!("\"{}\"", crate::harness::json_escape(f)))
            .collect();
        let p = &self.plan;
        format!(
            "{{\n  \"benchmark\": \"chaos-fleet\",\n  \"cells\": {},\n  \"families\": [{}],\n  \
             \"runs\": {},\n  \"no_abort\": {},\n  \"well_formed\": {},\n  \
             \"identical_rerun\": {},\n  \"identical_parallel\": {},\n  \
             \"chaos_accounted\": {},\n  \"retries_bounded\": {},\n  \
             \"tree_covered\": {},\n  \
             \"plan\": {{\"seed\": {}, \"panic_per_mille\": {}, \"deadline_per_mille\": {}, \
             \"exhaustion_per_mille\": {}, \"observer_loss_per_mille\": {}, \
             \"transient_per_mille\": {}}},\n  \
             \"chaos_injected\": {},\n  \"breaker_opened\": {},\n  \"breaker_half_open\": {},\n  \
             \"cells_quarantined\": {},\n  \"retries\": {},\n  \"retry_ceiling\": {},\n  \
             \"store_digest\": \"{:016x}\",\n  \"columns\": {},\n  \"rollup\": {}\n}}\n",
            self.store.len(),
            families.join(", "),
            self.runs,
            self.no_abort,
            self.well_formed,
            self.identical_rerun,
            self.identical_parallel,
            self.chaos_accounted,
            self.retries_bounded,
            self.tree_covered,
            p.seed,
            p.panic_per_mille,
            p.deadline_per_mille,
            p.exhaustion_per_mille,
            p.observer_loss_per_mille,
            p.transient_per_mille,
            self.chaos_injected,
            self.breaker_opened,
            self.breaker_half_open,
            self.cells_quarantined,
            self.retries,
            self.retry_ceiling,
            self.store.digest(),
            self.store.columns_json(),
            self.rollup.to_json(),
        )
    }
}

/// The chaos-smoke evaluator: three passes (serial ×2, `Fixed(2)` ×1)
/// over `grid` under [`chaos_policy`], gated as documented on the module.
///
/// # Panics
///
/// Panics when a grid cell fails to generate or `families` is empty (see
/// [`run_fleet_chaos`]).
#[must_use]
pub fn evaluate_chaos_fleet(grid: &ScenarioGrid, families: &[&dyn ModelFamily]) -> ChaosReport {
    let run1 = run_fleet_chaos(grid, families, Parallelism::Serial);
    let run2 = run_fleet_chaos(grid, families, Parallelism::Serial);
    let run3 = run_fleet_chaos(grid, families, Parallelism::Fixed(2));

    let bytes1 = run1.store.columns_json();
    let identical_rerun =
        bytes1 == run2.store.columns_json() && run1.events_jsonl == run2.events_jsonl;
    let identical_parallel =
        bytes1 == run3.store.columns_json() && run1.events_jsonl == run3.events_jsonl;

    let no_abort = !run1.aborted && !run2.aborted && !run3.aborted;
    let well_formed = (0..run1.store.len()).all(|i| {
        let bits = run1.store.sse_bits[i];
        if bits >= QUARANTINED_BITS {
            // Quarantined cells are parked, not ranked; a `(failed)`
            // sentinel would mean a non-quarantine hard failure, which
            // the no-abort + supervisor contract does not produce here.
            run1.store.winner[i] == "(quarantined)"
        } else {
            f64::from_bits(bits).is_finite()
                && f64::from_bits(run1.store.r2_bits[i]).is_finite()
                && run1.store.ranked[i] > 0
        }
    });

    let chaos_injected = run1.report.counter(CounterId::ChaosInjected);
    let injected_events = run1
        .events_jsonl
        .lines()
        .filter(|l| l.contains("\"ev\":\"chaos_injected\""))
        .count() as u64;
    let breaker_opened = run1.report.counter(CounterId::BreakerOpened);
    let breaker_half_open = run1.report.counter(CounterId::BreakerHalfOpen);
    let cells_quarantined = run1.report.counter(CounterId::CellsQuarantined);
    let chaos_accounted = chaos_injected == injected_events
        && chaos_injected > 0
        && breaker_opened > 0
        && cells_quarantined == run1.quarantined_cells as u64
        && cells_quarantined > 0;

    let retries = run1.report.counter(CounterId::Retries);
    let max_attempts = chaos_policy().retry.map_or(1, |r| r.max_attempts) as u64;
    let retry_ceiling = (max_attempts - 1) * (grid.len() * families.len()) as u64;
    let retries_bounded = retries <= retry_ceiling;
    let tree_covered = tree_covers(&run1.tree, grid.len(), families.len(), &run1.report);

    ChaosReport {
        families: families.iter().map(|f| f.name().to_string()).collect(),
        plan: chaos_plan(),
        store: run1.store,
        no_abort,
        well_formed,
        identical_rerun,
        identical_parallel,
        chaos_accounted,
        retries_bounded,
        tree_covered,
        chaos_injected,
        breaker_opened,
        breaker_half_open,
        cells_quarantined,
        retries,
        retry_ceiling,
        rollup: run1.report,
        runs: 3,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use resilience_core::bathtub::{CompetingRisksFamily, QuadraticFamily};
    use resilience_data::scenario::{GridScenario, NoiseLevel, ShapeKind};

    /// Small grid so the three-pass evaluation stays fast in debug
    /// builds; rates are high enough that chaos still fires on 16 cells.
    fn tiny_grid() -> ScenarioGrid {
        ScenarioGrid {
            scenarios: vec![GridScenario::Shape(ShapeKind::V), GridScenario::StepOutage],
            noises: vec![NoiseLevel::Gaussian { sd: 0.001 }],
            lengths: vec![32],
            seeds: vec![42, 43, 44, 45, 46, 47, 48, 49],
        }
    }

    fn families() -> Vec<&'static dyn ModelFamily> {
        vec![&QuadraticFamily, &CompetingRisksFamily]
    }

    #[test]
    fn chaos_passes_are_bit_identical_across_reruns_and_threads() {
        let grid = tiny_grid();
        let a = run_fleet_chaos(&grid, &families(), Parallelism::Serial);
        let b = run_fleet_chaos(&grid, &families(), Parallelism::Serial);
        let c = run_fleet_chaos(&grid, &families(), Parallelism::Fixed(2));
        assert_eq!(a.store.columns_json(), b.store.columns_json());
        assert_eq!(a.store.columns_json(), c.store.columns_json());
        assert_eq!(a.events_jsonl, b.events_jsonl);
        assert_eq!(a.events_jsonl, c.events_jsonl);
        assert!(!a.aborted);
        // The plan fired: chaos events exist in the log.
        assert!(a.events_jsonl.contains("chaos_injected"));
    }

    #[test]
    fn quarantined_cells_land_in_the_sentinel_column() {
        let grid = tiny_grid();
        let run = run_fleet_chaos(&grid, &families(), Parallelism::Serial);
        let from_store = run.store.quarantined.iter().filter(|&&q| q > 0).count();
        assert_eq!(from_store, run.quarantined_cells);
        for i in 0..run.store.len() {
            if run.store.quarantined[i] > 0 {
                assert_eq!(run.store.winner[i], "(quarantined)");
                assert_eq!(run.store.sse_bits[i], QUARANTINED_BITS);
            }
        }
    }

    #[test]
    fn report_json_is_wall_clock_free_and_reproducible() {
        let grid = tiny_grid();
        let report = evaluate_chaos_fleet(&grid, &families());
        assert!(report.no_abort);
        assert!(report.well_formed);
        assert!(report.identical_rerun);
        assert!(report.identical_parallel);
        assert!(report.retries_bounded);
        assert!(report.tree_covered);
        let json = report.to_json();
        for needle in [
            "\"benchmark\": \"chaos-fleet\"",
            "\"plan\"",
            "\"chaos_injected\"",
            "\"tree_covered\": true",
            "\"quarantined\": [",
            "\"rollup\"",
        ] {
            assert!(json.contains(needle), "missing {needle}");
        }
        assert!(
            !json.contains("wall"),
            "baseline must not record wall-clock"
        );
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json, evaluate_chaos_fleet(&grid, &families()).to_json());
    }
}
