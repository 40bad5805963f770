//! Per-layer metrics from the traced run.
//!
//! Each traced iteration runs the workload four more times next to an
//! untraced baseline pass:
//!
//! * traced at `Fixed(2)` — the runtime's parallel behaviour (busy and
//!   idle worker time, critical path);
//! * traced serially, input generation included — the *ledger*: every
//!   span nests on one thread, so each layer's self time (span minus the
//!   child spans it covers) is exact, and the self times add up to the
//!   traced call spans; the rest of the pass is `trace.unattributed_pct`.
//!   The calibrated cost of the kernel spans themselves is taken out of
//!   the layers it lands in and reported as `trace.span_cost_ms`;
//! * observed with a `RecordingObserver` — the program's own solver and
//!   bootstrap counters — and with a `JsonlObserver` writing to
//!   `io::sink`, for the observer's cost per event.
//!
//! Every metric is the median over the iterations of one pass's value.

use crate::sys::{json_str, median};
use crate::trace::{CallSpan, FitSpan, Kind, Layer, SpanCost, ThreadLog};
use crate::workloads::{Pass, THREADS};
use resilience_obs::{CounterId, RunReport};
use std::collections::{BTreeMap, HashSet};
use std::fmt::Write as _;

/// Largest share of the traced wall time the spans may leave uncovered.
const MAX_UNATTRIBUTED_PCT: f64 = 5.0;

/// Per-layer metrics, printed by every `--trace 1` run, in this order.
pub const PER_LAYER: [(&str, &str); 38] = [
    ("model.sse_batch.calls", "count"),
    ("model.sse_batch.ns_per_point", "ns"),
    ("model.predict.calls", "count"),
    ("model.predict.ns_per_point", "ns"),
    ("model.jacobian.calls", "count"),
    ("model.jacobian.ns_per_point", "ns"),
    ("model.self_ms", "ms"),
    ("optim.objective_evals", "count"),
    ("optim.nm_steps", "count"),
    ("optim.lm_steps", "count"),
    ("optim.self_ms", "ms"),
    ("fit.calls", "count"),
    ("fit.evals_per_fit_p50", "count"),
    ("fit.converged_ratio", "ratio"),
    ("fit.duplicate_ratio", "ratio"),
    ("fit.self_ms", "ms"),
    ("runtime.jobs", "count"),
    ("runtime.failed_jobs", "count"),
    ("runtime.quarantined_cells", "count"),
    ("runtime.critical_path_ms", "ms"),
    ("runtime.worker_busy_ratio", "ratio"),
    ("runtime.idle_ms", "ms"),
    ("runtime.self_ms", "ms"),
    ("bootstrap.replicates_ok", "count"),
    ("bootstrap.replicates_failed", "count"),
    ("bootstrap.evals_per_replicate", "count"),
    ("bootstrap.self_ms", "ms"),
    ("metrics.calls", "count"),
    ("metrics.self_ms", "ms"),
    ("data.series", "count"),
    ("data.generate_ms", "ms"),
    ("obs.events", "count"),
    ("obs.ns_per_event", "ns"),
    ("obs.recording_ns_per_event", "ns"),
    ("trace.overhead_pct", "%"),
    ("trace.span_cost_ms", "ms"),
    ("trace.unattributed_pct", "%"),
    ("trace.serial_wall_ms", "ms"),
];

/// Everything one traced iteration recorded.
pub struct Iteration {
    pub base_wall_ns: u64,
    pub parallel: Pass,
    pub parallel_calls: Vec<CallSpan>,
    pub parallel_logs: Vec<ThreadLog>,
    pub serial_calls: Vec<CallSpan>,
    pub serial_logs: Vec<ThreadLog>,
    pub serial_wall_ns: u64,
    /// The program's own roll-up of the observed pass.
    pub report: RunReport,
    pub recorded_wall_ns: u64,
    pub logged_wall_ns: u64,
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn fits(logs: &[ThreadLog]) -> impl Iterator<Item = (bool, &FitSpan)> {
    logs.iter()
        .flat_map(|l| l.fits.iter().map(move |f| (l.main, f)))
}

/// Self time per layer from the serial traced pass.
struct Ledger {
    layers: BTreeMap<&'static str, u64>,
    unattributed_ns: u64,
}

fn ledger(calls: &[CallSpan], logs: &[ThreadLog], wall_ns: u64, cost: SpanCost) -> Ledger {
    let mut layers: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut add = |layer: &'static str, ns: u64| *layers.entry(layer).or_default() += ns;
    let mut covered = 0;
    for call in calls {
        covered += call.duration_ns();
        let fit_ns: u64 = fits(logs)
            .filter(|(_, f)| f.region == call.region)
            .map(|(_, f)| f.duration_ns())
            .sum();
        let (orphan_ns, orphan_spans) = logs
            .iter()
            .flat_map(|l| &l.regions)
            .filter(|r| r.region == call.region)
            .fold((0, 0), |(ns, n), r| {
                (ns + r.orphan_kernel_ns, n + r.orphan_spans)
            });
        let layer = match call.layer {
            Layer::Data => "data",
            Layer::Runtime => "runtime",
            Layer::Metrics => "metrics",
            Layer::Bootstrap => "bootstrap",
        };
        let own = call.duration_ns().saturating_sub(fit_ns + orphan_ns);
        let (own, own_trace) = cost.strip_outside(own, orphan_spans);
        let (kernel, kernel_trace) = cost.strip_inside(orphan_ns, orphan_spans);
        add(layer, own);
        add("model", kernel);
        add("trace", own_trace + kernel_trace);
    }
    for (_, f) in fits(logs) {
        let split = f.split(cost);
        add("model", split.model_ns);
        add("optim", split.optim_ns);
        add("fit", split.fit_ns);
        add("trace", split.trace_ns);
    }
    Ledger {
        layers,
        unattributed_ns: wall_ns.saturating_sub(covered),
    }
}

/// Runtime behaviour of the parallel traced pass: summed over the calls
/// that fan out, the capacity of the worker pool (threads × call time),
/// the part of it workers were active (first to last kernel of each pool
/// thread), and the critical path (the calling thread's own fits plus the
/// longest fit a worker ran).
fn runtime(calls: &[CallSpan], logs: &[ThreadLog]) -> (f64, f64, f64) {
    let (mut busy, mut capacity, mut critical) = (0u64, 0u64, 0u64);
    for call in calls
        .iter()
        .filter(|c| c.layer != Layer::Data && c.name != "metrics_comparison")
    {
        busy += logs
            .iter()
            .filter(|l| !l.main)
            .flat_map(|l| &l.regions)
            .filter(|r| r.region == call.region)
            .map(|r| r.last_ns - r.first_ns)
            .sum::<u64>();
        capacity += THREADS as u64 * call.duration_ns();
        let in_call = || fits(logs).filter(|(_, f)| f.region == call.region);
        let main: u64 = in_call()
            .filter(|(m, _)| *m)
            .map(|(_, f)| f.duration_ns())
            .sum();
        let worker = in_call()
            .filter(|(m, _)| !*m)
            .map(|(_, f)| f.duration_ns())
            .max()
            .unwrap_or(0);
        critical += main + worker;
    }
    let ratio = if capacity == 0 {
        0.0
    } else {
        busy as f64 / capacity as f64
    };
    (ratio, ms(capacity.saturating_sub(busy)), ms(critical))
}

/// Fits repeating an earlier fit of the same family on the same data
/// within one answer.
fn duplicates(logs: &[ThreadLog]) -> u64 {
    let mut seen = HashSet::new();
    let mut all: Vec<&FitSpan> = fits(logs).map(|(_, f)| f).collect();
    all.sort_by_key(|f| f.start_ns);
    all.iter()
        .filter(|f| {
            f.data
                .is_some_and(|d| !seen.insert((f.answer, f.family, d)))
        })
        .count() as u64
}

fn counter(report: &RunReport, ids: &[CounterId]) -> f64 {
    ids.iter().map(|id| report.counter(*id)).sum::<u64>() as f64
}

fn one(it: &Iteration, cost: SpanCost) -> (BTreeMap<&'static str, f64>, Vec<String>) {
    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut problems = Vec::new();
    let logs = &it.serial_logs;

    let total = |kind: Kind| {
        logs.iter().fold((0u64, 0u64, 0u64), |(c, n, p), l| {
            let t = l.total(kind);
            (c + t.calls, n + t.ns, p + t.points)
        })
    };
    for (kind, calls, per_point) in [
        (
            Kind::SseBatch,
            "model.sse_batch.calls",
            "model.sse_batch.ns_per_point",
        ),
        (
            Kind::Predict,
            "model.predict.calls",
            "model.predict.ns_per_point",
        ),
        (
            Kind::Jacobian,
            "model.jacobian.calls",
            "model.jacobian.ns_per_point",
        ),
    ] {
        let (c, ns, points) = total(kind);
        let (ns, _) = cost.strip_inside(ns, c);
        m.insert(calls, c as f64);
        m.insert(
            per_point,
            if points == 0 {
                0.0
            } else {
                ns as f64 / points as f64
            },
        );
    }

    let ledger = ledger(&it.serial_calls, logs, it.serial_wall_ns, cost);
    for (layer, name) in [
        ("model", "model.self_ms"),
        ("optim", "optim.self_ms"),
        ("fit", "fit.self_ms"),
        ("runtime", "runtime.self_ms"),
        ("bootstrap", "bootstrap.self_ms"),
        ("metrics", "metrics.self_ms"),
        ("data", "data.generate_ms"),
        ("trace", "trace.span_cost_ms"),
    ] {
        m.insert(name, ms(ledger.layers.get(layer).copied().unwrap_or(0)));
    }
    let attributed: u64 = ledger.layers.values().sum();
    let unattributed_pct = 100.0 * ledger.unattributed_ns as f64 / it.serial_wall_ns as f64;
    if attributed + ledger.unattributed_ns != it.serial_wall_ns {
        problems.push(format!(
            "layer self times ({attributed} ns) plus unattributed ({} ns) do not add up to the traced wall time ({} ns)",
            ledger.unattributed_ns, it.serial_wall_ns
        ));
    }
    if unattributed_pct > MAX_UNATTRIBUTED_PCT {
        problems.push(format!(
            "{unattributed_pct:.2}% of the traced wall time is outside every span (limit {MAX_UNATTRIBUTED_PCT}%)"
        ));
    }
    let unbalanced: u64 = logs.iter().map(|l| l.unbalanced).sum();
    if unbalanced > 0 {
        println!("note: {unbalanced} fit spans did not close; their kernels count as orphans");
    }
    m.insert("trace.unattributed_pct", unattributed_pct);
    m.insert("trace.serial_wall_ms", ms(it.serial_wall_ns));
    m.insert(
        "trace.overhead_pct",
        100.0 * (it.parallel.wall_ns as f64 - it.base_wall_ns as f64) / it.base_wall_ns as f64,
    );

    let all: Vec<&FitSpan> = fits(logs).map(|(_, f)| f).collect();
    m.insert("fit.calls", all.len() as f64);
    let evals: Vec<f64> = all.iter().map(|f| f.evals as f64).collect();
    m.insert(
        "fit.evals_per_fit_p50",
        if evals.is_empty() {
            0.0
        } else {
            median(&evals)
        },
    );
    m.insert(
        "fit.duplicate_ratio",
        if all.is_empty() {
            0.0
        } else {
            duplicates(logs) as f64 / all.len() as f64
        },
    );
    let families = &it.report.families;
    let converged: u64 = families.iter().map(|f| f.converged_fits).sum();
    let ended: u64 = families
        .iter()
        .map(|f| f.fits_completed + f.failures())
        .sum();
    m.insert(
        "fit.converged_ratio",
        if ended == 0 {
            0.0
        } else {
            converged as f64 / ended as f64
        },
    );

    m.insert(
        "optim.objective_evals",
        counter(&it.report, &[CounterId::ObjectiveEvals]),
    );
    m.insert(
        "optim.nm_steps",
        counter(
            &it.report,
            &[
                CounterId::NmReflections,
                CounterId::NmExpansions,
                CounterId::NmContractions,
                CounterId::NmShrinks,
            ],
        ),
    );
    m.insert(
        "optim.lm_steps",
        counter(
            &it.report,
            &[CounterId::LmDampingUp, CounterId::LmDampingDown],
        ),
    );

    let pass = &it.parallel;
    m.insert("runtime.jobs", pass.sum(|a| a.jobs) as f64);
    m.insert("runtime.failed_jobs", pass.sum(|a| a.failed_jobs) as f64);
    m.insert(
        "runtime.quarantined_cells",
        pass.sum(|a| a.quarantined) as f64,
    );
    let (busy_ratio, idle_ms, critical_ms) = runtime(&it.parallel_calls, &it.parallel_logs);
    m.insert("runtime.worker_busy_ratio", busy_ratio);
    m.insert("runtime.idle_ms", idle_ms);
    m.insert("runtime.critical_path_ms", critical_ms);

    m.insert(
        "bootstrap.replicates_ok",
        counter(&it.report, &[CounterId::BootstrapReplicatesOk]),
    );
    m.insert(
        "bootstrap.replicates_failed",
        counter(&it.report, &[CounterId::BootstrapReplicatesFailed]),
    );
    // Replicate refits: every fit of a bootstrap call after its first,
    // which is the base fit.
    let mut replicate_evals = Vec::new();
    for call in it
        .serial_calls
        .iter()
        .filter(|c| c.layer == Layer::Bootstrap)
    {
        let mut in_call: Vec<&FitSpan> = all
            .iter()
            .copied()
            .filter(|f| f.region == call.region)
            .collect();
        in_call.sort_by_key(|f| f.start_ns);
        replicate_evals.extend(in_call.iter().skip(1).map(|f| f.evals as f64));
    }
    m.insert(
        "bootstrap.evals_per_replicate",
        if replicate_evals.is_empty() {
            0.0
        } else {
            replicate_evals.iter().sum::<f64>() / replicate_evals.len() as f64
        },
    );

    let count = |layer: Layer| it.serial_calls.iter().filter(|c| c.layer == layer).count() as f64;
    m.insert("metrics.calls", count(Layer::Metrics));
    m.insert("data.series", count(Layer::Data));

    let events = it.report.events as f64;
    let per_event = |wall: u64| {
        if events == 0.0 {
            0.0
        } else {
            (wall as f64 - it.base_wall_ns as f64) / events
        }
    };
    m.insert("obs.events", events);
    m.insert("obs.ns_per_event", per_event(it.logged_wall_ns));
    m.insert("obs.recording_ns_per_event", per_event(it.recorded_wall_ns));
    (m, problems)
}

/// The per-layer metrics (medians over iterations, in [`PER_LAYER`]
/// order) and any ledger problems; `cost` is the calibrated cost of one
/// kernel span.
pub fn layer_metrics(
    iterations: &[Iteration],
    cost: SpanCost,
) -> (Vec<(&'static str, f64, &'static str)>, Vec<String>) {
    let mut values: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut problems = Vec::new();
    for it in iterations {
        let (m, p) = one(it, cost);
        for (k, v) in m {
            values.entry(k).or_default().push(v);
        }
        problems.extend(p);
    }
    let metrics = PER_LAYER
        .iter()
        .map(|(name, unit)| {
            let v = values
                .get(name)
                .expect("every per-layer metric is computed");
            (*name, median(v), *unit)
        })
        .collect();
    (metrics, problems)
}

/// The last iteration's serial spans as JSON lines: one per call span and
/// one per fit span, times in nanoseconds from the pass start; a fit's
/// layer times have the tracer's cost taken out.
pub fn spans_jsonl(it: &Iteration, cost: SpanCost) -> String {
    let origin = it.serial_calls.first().map_or(0, |c| c.start_ns);
    let mut out = String::new();
    for c in &it.serial_calls {
        let _ = writeln!(
            out,
            "{{\"span\": \"call\", \"name\": {}, \"region\": {}, \"answer\": {}, \"start_ns\": {}, \"end_ns\": {}}}",
            json_str(c.name),
            c.region,
            c.answer,
            c.start_ns - origin,
            c.end_ns - origin
        );
    }
    for (_, f) in fits(&it.serial_logs) {
        let split = f.split(cost);
        let _ = writeln!(
            out,
            "{{\"span\": \"fit\", \"family\": {}, \"region\": {}, \"answer\": {}, \"start_ns\": {}, \"end_ns\": {}, \"kernel_ns\": {}, \"optim_ns\": {}, \"fit_ns\": {}, \"trace_ns\": {}, \"evals\": {}}}",
            json_str(f.family),
            f.region,
            f.answer,
            f.start_ns.saturating_sub(origin),
            f.end_ns.saturating_sub(origin),
            split.model_ns,
            split.optim_ns,
            split.fit_ns,
            split.trace_ns,
            f.evals
        );
    }
    out
}
