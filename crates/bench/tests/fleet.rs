//! Fleet repeatability contract, end to end (DESIGN.md §13): the same
//! grid must produce byte-identical results stores across reruns and
//! across worker counts, and the batch entry point must agree bit for bit
//! with standalone per-series ranking.
//!
//! The grids here are deliberately tiny — the contract is about identity,
//! not scale, and these run in debug builds under `cargo test`. The
//! 64-cell CI grid runs in release via `scripts/verify.sh`
//! (`bench fleet --fleet-smoke`).

use resilience_bench::fleet::{
    evaluate_fleet, run_fleet, run_fleet_triple, smoke_grid, FleetStore,
};
use resilience_core::bathtub::{CompetingRisksFamily, QuadraticFamily};
use resilience_core::fit::FitConfig;
use resilience_core::model::ModelFamily;
use resilience_core::runtime::{rank_models_supervised, Control, ExecPolicy};
use resilience_data::scenario::{GridScenario, NoiseLevel, ScenarioGrid, ShapeKind};
use resilience_optim::Parallelism;

fn tiny_grid() -> ScenarioGrid {
    ScenarioGrid {
        scenarios: vec![
            GridScenario::Shape(ShapeKind::V),
            GridScenario::PoissonOutages,
        ],
        noises: vec![NoiseLevel::Gaussian { sd: 0.001 }],
        lengths: vec![32],
        seeds: vec![42, 43],
    }
}

fn families() -> Vec<&'static dyn ModelFamily> {
    vec![&QuadraticFamily, &CompetingRisksFamily]
}

#[test]
fn double_run_produces_byte_identical_stores_and_rollups() {
    let grid = tiny_grid();
    let a = run_fleet(&grid, &families(), Parallelism::Serial);
    let b = run_fleet(&grid, &families(), Parallelism::Serial);
    assert_eq!(
        a.store.columns_json().as_bytes(),
        b.store.columns_json().as_bytes()
    );
    assert_eq!(a.report.to_json().as_bytes(), b.report.to_json().as_bytes());
}

#[test]
fn serial_and_fixed2_stores_are_byte_identical() {
    let grid = tiny_grid();
    let serial = run_fleet(&grid, &families(), Parallelism::Serial);
    let fixed2 = run_fleet(&grid, &families(), Parallelism::Fixed(2));
    assert_eq!(
        serial.store.columns_json().as_bytes(),
        fixed2.store.columns_json().as_bytes()
    );
    assert_eq!(
        serial.report.to_json().as_bytes(),
        fixed2.report.to_json().as_bytes()
    );
    assert_eq!(serial.store.digest(), fixed2.store.digest());
}

#[test]
fn fleet_cells_match_standalone_supervised_ranking() {
    // The flattened series × family fan-out must not change any answer:
    // every cell's winner and SSE bits equal a standalone
    // rank_models_supervised call on the same generated series.
    let grid = tiny_grid();
    let fams = families();
    let fleet = run_fleet(&grid, &fams, Parallelism::Fixed(2));
    for cell in grid.cells() {
        let series = cell.generate().unwrap();
        let standalone = rank_models_supervised(
            &fams,
            &series,
            &FitConfig::default(),
            &ExecPolicy::default(),
            &Control::unbounded(),
        )
        .unwrap();
        let top = &standalone.rows[0];
        let i = cell.index;
        assert_eq!(fleet.store.winner[i], top.family_name, "cell {i}");
        assert_eq!(fleet.store.sse_bits[i], top.sse.to_bits(), "cell {i}");
        assert_eq!(fleet.store.r2_bits[i], top.r2_adj.to_bits(), "cell {i}");
        assert_eq!(fleet.store.ranked[i] as usize, standalone.rows.len());
    }
}

#[test]
fn evaluator_gates_hold_on_the_tiny_grid() {
    let report = evaluate_fleet(&families(), run_fleet_triple(&tiny_grid(), &families()));
    assert!(report.gates_pass());
    assert_eq!(report.max_delta.sse_rerun, 0.0);
    assert_eq!(report.max_delta.r2_rerun, 0.0);
    assert_eq!(report.max_delta.sse_parallel, 0.0);
    assert_eq!(report.max_delta.r2_parallel, 0.0);
    // The baseline document regenerates byte-identically.
    assert_eq!(
        report.to_json(),
        evaluate_fleet(&families(), run_fleet_triple(&tiny_grid(), &families())).to_json()
    );
}

#[test]
fn smoke_grid_meets_the_ci_floor() {
    let grid = smoke_grid();
    assert!(grid.len() >= 64, "CI grid must cover at least 64 cells");
    // Every cell decodes and generates (the release-mode gate fits them
    // all; here we only prove the grid is well-formed in debug time).
    let names: std::collections::BTreeSet<String> = grid.cells().map(|c| c.series_name()).collect();
    assert_eq!(names.len(), grid.len(), "cell names must be unique");
    for cell in grid.cells() {
        let series = cell.generate().unwrap();
        assert_eq!(series.len(), cell.n);
    }
}

#[test]
fn store_columns_stay_aligned() {
    let grid = tiny_grid();
    let store: FleetStore = run_fleet(&grid, &families(), Parallelism::Serial).store;
    assert_eq!(store.len(), grid.len());
    for col_len in [
        store.scenario.len(),
        store.noise.len(),
        store.n.len(),
        store.seed.len(),
        store.winner.len(),
        store.sse_bits.len(),
        store.r2_bits.len(),
        store.ranked.len(),
        store.failed.len(),
    ] {
        assert_eq!(col_len, store.len());
    }
}
