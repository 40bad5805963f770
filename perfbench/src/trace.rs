//! Span recording for the traced run.
//!
//! Two kinds of span are recorded, both from this package's own code:
//!
//! * **Call spans** — the benchmark's calls into public library functions
//!   (`rank_models_supervised`, `evaluate_model_with`, …), timed on the
//!   calling thread by [`Tracer::call`]. Each call opens a new *region*;
//!   every kernel span any thread records while the call runs is tagged
//!   with it.
//! * **Kernel spans** — every [`ModelFamily`] method, timed by the
//!   forwarding [`Traced`] wrapper on whichever thread the library calls
//!   it from. Kernel spans are aggregated per thread as they happen (a
//!   full span list would run to hundreds of thousands of entries per
//!   pass); the aggregate keeps per-kind totals, per-region activity
//!   windows and one record per fit.
//!
//! A *fit span* runs from a fit's first family call
//! (`nm_iteration_scale`, which `fit_least_squares_with` reads before
//! anything else) to the return of its last (`build`, which turns the
//! winning parameters into the fitted model). Inside it, the interval
//! from the first to the last solver kernel (`sse_batch_into`,
//! `predict_params_into`, `predict_jacobian_into`) is solver time; the
//! rest is the fit's own set-up and bookkeeping time.
//!
//! Each thread appends to its own log behind an uncontended mutex that
//! the registry also holds, so the logs of pool threads that have already
//! exited are still readable when the call that spawned them returns.
//!
//! Every kernel span costs two clock reads and some bookkeeping. That
//! cost is measured on empty spans before the traced passes
//! ([`calibrate`]) and moved out of the layer it lands in, into the
//! tracer's own share ([`SpanCost`], [`FitSpan::split`]), so the layer
//! figures are the program's.

// Wall-clock spans are this benchmark's output; they never enter a
// library result.
#![allow(clippy::disallowed_types)]

use resilience_bench::fleet::fnv1a;
use resilience_core::model::{ModelFamily, ResilienceModel};
use resilience_core::CoreError;
use resilience_data::PerformanceSeries;
use resilience_math::linalg::Matrix;
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

fn epoch() -> &'static Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the first call in this process.
pub fn now_ns() -> u64 {
    u64::try_from(epoch().elapsed().as_nanos()).expect("benchmark runs for less than 584 years")
}

/// Region of the call span currently open on the benchmark thread (0 =
/// none). Set before the call starts its worker threads, so the spawn
/// publishes it to them.
static REGION: AtomicUsize = AtomicUsize::new(0);
/// Answer (unit of the workload) the open call span belongs to.
static ANSWER: AtomicUsize = AtomicUsize::new(0);
/// Bumped by [`take_logs`]: a thread whose log belongs to an older
/// generation starts a fresh one.
static GENERATION: AtomicU64 = AtomicU64::new(1);

fn registry() -> &'static Mutex<Vec<Arc<Mutex<ThreadLog>>>> {
    static REGISTRY: OnceLock<Mutex<Vec<Arc<Mutex<ThreadLog>>>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
}

fn main_thread() -> std::thread::ThreadId {
    static MAIN: OnceLock<std::thread::ThreadId> = OnceLock::new();
    *MAIN.get_or_init(|| std::thread::current().id())
}

/// Marks the calling thread as the benchmark's main thread. Call once at
/// start-up, before any pool thread exists.
pub fn init() {
    let _ = main_thread();
    let _ = epoch();
}

/// A thread's log: accumulated locally without locking, and merged into
/// the registered copy whenever a fit span closes and on every kernel
/// outside a fit span, so nothing is left behind when a pool thread
/// exits.
struct Local {
    generation: u64,
    shared: Arc<Mutex<ThreadLog>>,
    log: ThreadLog,
}

thread_local! {
    static LOG: RefCell<Option<Local>> = const { RefCell::new(None) };
}

/// Runs `f` on this thread's log; merges into the registered copy when
/// `f` returns `true`.
fn with_log(f: impl FnOnce(&mut ThreadLog) -> bool) {
    LOG.with(|slot| {
        let mut slot = slot.borrow_mut();
        let generation = GENERATION.load(Ordering::SeqCst);
        if slot.as_ref().is_none_or(|l| l.generation != generation) {
            let main = std::thread::current().id() == main_thread();
            let shared = Arc::new(Mutex::new(ThreadLog::new(main)));
            registry()
                .lock()
                .expect("span registry poisoned")
                .push(shared.clone());
            *slot = Some(Local {
                generation,
                shared,
                log: ThreadLog::new(main),
            });
        }
        let local = slot.as_mut().expect("log installed above");
        if f(&mut local.log) {
            local
                .shared
                .lock()
                .expect("thread span log poisoned")
                .absorb(&mut local.log);
        }
    });
}

/// Drains every thread's log recorded since the previous call. Call only
/// from the main thread, when no library call is running.
pub fn take_logs() -> Vec<ThreadLog> {
    with_log(|log| {
        log.abandon_open();
        true
    });
    GENERATION.fetch_add(1, Ordering::SeqCst);
    let logs = std::mem::take(&mut *registry().lock().expect("span registry poisoned"));
    logs.into_iter()
        .map(|log| std::mem::take(&mut *log.lock().expect("thread span log poisoned")))
        .collect()
}

/// Which family method a kernel span timed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `sse_batch_into`: SSE of a whole simplex in one pass.
    SseBatch,
    /// `predict_params_into`: one curve evaluation.
    Predict,
    /// `predict_jacobian_into`: analytic partials.
    Jacobian,
    /// Parameter maps, starting guesses and model construction.
    Setup,
}

impl Kind {
    fn index(self) -> usize {
        self as usize
    }

    fn is_solver(self) -> bool {
        self != Kind::Setup
    }
}

/// Call count, time and points evaluated for one [`Kind`].
#[derive(Debug, Clone, Copy, Default)]
pub struct KernelTotal {
    pub calls: u64,
    pub ns: u64,
    pub points: u64,
}

/// One thread's activity inside one region.
#[derive(Debug, Clone, Copy)]
pub struct RegionActivity {
    pub region: usize,
    /// Start of the first and end of the last kernel span.
    pub first_ns: u64,
    pub last_ns: u64,
    /// Kernel time, and kernel spans, outside any fit span on this
    /// thread.
    pub orphan_kernel_ns: u64,
    pub orphan_spans: u64,
}

/// Identifies the data a fit ran on: length and FNV-1a of the value bits.
pub type DataKey = (usize, u64);

fn data_key(values: &[f64]) -> DataKey {
    let bytes: Vec<u8> = values.iter().flat_map(|v| v.to_le_bytes()).collect();
    (values.len(), fnv1a(&bytes))
}

/// What one kernel span adds to the traced program, from [`calibrate`]:
/// `inside_ns` of clock overhead falls inside the measured kernel
/// interval, `outside_ns` (the rest of the clock reads and the log
/// bookkeeping) between one kernel and the next.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanCost {
    pub inside_ns: f64,
    pub outside_ns: f64,
}

impl SpanCost {
    fn inside(self, spans: u64) -> u64 {
        (self.inside_ns * spans as f64) as u64
    }

    fn outside(self, spans: u64) -> u64 {
        (self.outside_ns * spans as f64) as u64
    }

    /// Splits `ns` recorded around `spans` kernel spans' `outside` cost
    /// into (program time, tracer time).
    pub fn strip_outside(self, ns: u64, spans: u64) -> (u64, u64) {
        let cost = self.outside(spans).min(ns);
        (ns - cost, cost)
    }

    /// Splits `ns` measured inside `spans` kernel spans into (kernel
    /// time, tracer time).
    pub fn strip_inside(self, ns: u64, spans: u64) -> (u64, u64) {
        let cost = self.inside(spans).min(ns);
        (ns - cost, cost)
    }
}

/// Measures [`SpanCost`] on empty kernel spans inside a fit span, the
/// path every solver kernel takes; the median of several rounds. Call
/// from the main thread when no library call is running; it drains the
/// span logs.
pub fn calibrate() -> SpanCost {
    const SPANS: u64 = 20_000;
    const ROUNDS: usize = 9;
    let (mut inside, mut outside) = (Vec::new(), Vec::new());
    for _ in 0..ROUNDS {
        take_logs();
        with_log(|log| {
            log.open_fit("calibration", now_ns());
            false
        });
        let t0 = now_ns();
        for _ in 0..SPANS {
            timed(Kind::SseBatch, 0, |_| 0, None, || std::hint::black_box(()));
        }
        let full = (now_ns() - t0) as f64 / SPANS as f64;
        let kernel_ns: u64 = take_logs().iter().map(|l| l.total(Kind::SseBatch).ns).sum();
        let per_span = kernel_ns as f64 / SPANS as f64;
        inside.push(per_span);
        outside.push((full - per_span).max(0.0));
    }
    SpanCost {
        inside_ns: crate::sys::median(&inside),
        outside_ns: crate::sys::median(&outside),
    }
}

/// A fit span's time by layer; the parts add up to its duration.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Split {
    pub model_ns: u64,
    pub optim_ns: u64,
    pub fit_ns: u64,
    pub trace_ns: u64,
}

/// One completed fit span.
#[derive(Debug, Clone)]
pub struct FitSpan {
    pub region: usize,
    pub answer: usize,
    pub family: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// All kernel time inside the span.
    pub kernel_ns: u64,
    /// First solver kernel start and last solver kernel end (equal to
    /// `start_ns` when the fit ran no solver kernel on this thread).
    pub solver_start_ns: u64,
    pub solver_end_ns: u64,
    /// Set-up kernel time before the first and after the last solver
    /// kernel.
    pub setup_head_ns: u64,
    pub setup_tail_ns: u64,
    /// Kernel spans in the fit, and those before the first and after
    /// the last solver kernel.
    pub spans: u64,
    pub head_spans: u64,
    pub tail_spans: u64,
    /// Family evaluations: batched SSE points plus single predictions.
    pub evals: u64,
    pub data: Option<DataKey>,
}

impl FitSpan {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// Solver self time: the solver interval minus the kernels inside it.
    pub fn optim_ns(&self) -> u64 {
        let interval = self.solver_end_ns - self.solver_start_ns;
        let inside = self.kernel_ns - self.setup_head_ns - self.setup_tail_ns;
        interval.saturating_sub(inside)
    }

    /// The fit's own self time: the span outside the solver interval
    /// minus the set-up kernels there.
    pub fn fit_ns(&self) -> u64 {
        let outside = self.duration_ns() - (self.solver_end_ns - self.solver_start_ns);
        outside.saturating_sub(self.setup_head_ns + self.setup_tail_ns)
    }

    /// The span's time by layer with the tracer's own cost taken out:
    /// `inside` per kernel span from the kernels, `outside` per gap
    /// between solver kernels from the solver, and `outside` per set-up
    /// kernel around the solver interval from the fit.
    pub fn split(&self, cost: SpanCost) -> Split {
        let (model_ns, kernel_trace) = cost.strip_inside(self.kernel_ns, self.spans);
        let solver_spans = self.spans - self.head_spans - self.tail_spans;
        let (optim_ns, optim_trace) =
            cost.strip_outside(self.optim_ns(), solver_spans.saturating_sub(1));
        let (fit_ns, fit_trace) =
            cost.strip_outside(self.fit_ns(), self.head_spans + self.tail_spans);
        Split {
            model_ns,
            optim_ns,
            fit_ns,
            trace_ns: kernel_trace + optim_trace + fit_trace,
        }
    }
}

#[derive(Debug)]
struct OpenFit {
    region: usize,
    answer: usize,
    family: &'static str,
    start_ns: u64,
    kernel_ns: u64,
    solver: Option<(u64, u64)>,
    setup_head_ns: u64,
    setup_since_solver_ns: u64,
    spans: u64,
    head_spans: u64,
    spans_since_solver: u64,
    evals: u64,
    data: Option<DataKey>,
}

/// Everything one thread recorded in one generation.
#[derive(Debug, Default)]
pub struct ThreadLog {
    pub main: bool,
    pub totals: [KernelTotal; 4],
    pub regions: Vec<RegionActivity>,
    pub fits: Vec<FitSpan>,
    /// Fit spans that never closed (a fit that errored before `build`),
    /// or opened while another was open. Their kernel time counts as
    /// orphan kernel time.
    pub unbalanced: u64,
    open: Option<OpenFit>,
}

impl ThreadLog {
    fn new(main: bool) -> Self {
        ThreadLog {
            main,
            ..ThreadLog::default()
        }
    }

    pub fn total(&self, kind: Kind) -> KernelTotal {
        self.totals[kind.index()]
    }

    /// Moves everything recorded in `local` (except an open fit span)
    /// into `self`.
    fn absorb(&mut self, local: &mut ThreadLog) {
        for (mine, theirs) in self.totals.iter_mut().zip(&mut local.totals) {
            mine.calls += theirs.calls;
            mine.ns += theirs.ns;
            mine.points += theirs.points;
            *theirs = KernelTotal::default();
        }
        for r in local.regions.drain(..) {
            match self.regions.last_mut() {
                Some(last) if last.region == r.region => {
                    last.first_ns = last.first_ns.min(r.first_ns);
                    last.last_ns = last.last_ns.max(r.last_ns);
                    last.orphan_kernel_ns += r.orphan_kernel_ns;
                    last.orphan_spans += r.orphan_spans;
                }
                _ => self.regions.push(r),
            }
        }
        self.fits.append(&mut local.fits);
        self.unbalanced += std::mem::take(&mut local.unbalanced);
    }

    fn region_mut(&mut self, region: usize, t0: u64) -> &mut RegionActivity {
        if self.regions.last().is_none_or(|r| r.region != region) {
            self.regions.push(RegionActivity {
                region,
                first_ns: t0,
                last_ns: t0,
                orphan_kernel_ns: 0,
                orphan_spans: 0,
            });
        }
        self.regions.last_mut().expect("pushed above")
    }

    fn abandon_open(&mut self) {
        if let Some(open) = self.open.take() {
            self.unbalanced += 1;
            let region = self.region_mut(open.region, open.start_ns);
            region.orphan_kernel_ns += open.kernel_ns;
            region.orphan_spans += open.spans;
        }
    }

    /// Records one kernel span; returns whether it fell outside a fit
    /// span.
    fn kernel(
        &mut self,
        kind: Kind,
        t0: u64,
        t1: u64,
        points: u64,
        evals: u64,
        data: Option<DataKey>,
    ) -> bool {
        let ns = t1 - t0;
        let total = &mut self.totals[kind.index()];
        total.calls += 1;
        total.ns += ns;
        total.points += points;
        let region = REGION.load(Ordering::Relaxed);
        self.region_mut(region, t0).last_ns = t1;
        match &mut self.open {
            Some(open) => {
                open.kernel_ns += ns;
                open.spans += 1;
                open.evals += evals;
                if open.data.is_none() {
                    open.data = data;
                }
                if kind.is_solver() {
                    match &mut open.solver {
                        None => {
                            open.solver = Some((t0, t1));
                            open.setup_head_ns = open.setup_since_solver_ns;
                            open.head_spans = open.spans_since_solver;
                        }
                        Some((_, end)) => *end = t1,
                    }
                    open.setup_since_solver_ns = 0;
                    open.spans_since_solver = 0;
                } else {
                    open.setup_since_solver_ns += ns;
                    open.spans_since_solver += 1;
                }
                false
            }
            None => {
                let activity = self.region_mut(region, t0);
                activity.orphan_kernel_ns += ns;
                activity.orphan_spans += 1;
                true
            }
        }
    }

    fn open_fit(&mut self, family: &'static str, t: u64) {
        self.abandon_open();
        self.open = Some(OpenFit {
            region: REGION.load(Ordering::Relaxed),
            answer: ANSWER.load(Ordering::Relaxed),
            family,
            start_ns: t,
            kernel_ns: 0,
            solver: None,
            setup_head_ns: 0,
            setup_since_solver_ns: 0,
            spans: 0,
            head_spans: 0,
            spans_since_solver: 0,
            evals: 0,
            data: None,
        });
    }

    fn close_fit(&mut self, t: u64) {
        let Some(open) = self.open.take() else {
            return;
        };
        // (time, spans) of the set-up kernels before and after the solver.
        let (solver, head, tail) = match open.solver {
            Some(interval) => (
                interval,
                (open.setup_head_ns, open.head_spans),
                (open.setup_since_solver_ns, open.spans_since_solver),
            ),
            // No solver kernel: every kernel counts as head.
            None => (
                (open.start_ns, open.start_ns),
                (open.kernel_ns, open.spans),
                (0, 0),
            ),
        };
        self.fits.push(FitSpan {
            region: open.region,
            answer: open.answer,
            family: open.family,
            start_ns: open.start_ns,
            end_ns: t,
            kernel_ns: open.kernel_ns,
            solver_start_ns: solver.0,
            solver_end_ns: solver.1,
            setup_head_ns: head.0,
            setup_tail_ns: tail.0,
            spans: open.spans,
            head_spans: head.1,
            tail_spans: tail.1,
            evals: open.evals,
            data: open.data,
        });
    }
}

/// Whether this thread's open fit span still lacks its data key, so the
/// data is hashed once per fit rather than on every kernel.
fn needs_data() -> bool {
    LOG.with(|slot| {
        slot.borrow()
            .as_ref()
            .and_then(|l| l.log.open.as_ref())
            .is_some_and(|open| open.data.is_none())
    })
}

fn timed<T>(
    kind: Kind,
    points: u64,
    evals: impl FnOnce(&T) -> u64,
    data: Option<DataKey>,
    f: impl FnOnce() -> T,
) -> T {
    let t0 = now_ns();
    let out = f();
    let t1 = now_ns();
    let evals = evals(&out);
    with_log(|log| log.kernel(kind, t0, t1, points, evals, data));
    out
}

/// Forwarding [`ModelFamily`] that times every method. Each method calls
/// the same method of the wrapped family, so a traced fit does exactly
/// the work of an untraced one.
pub struct Traced {
    inner: Box<dyn ModelFamily>,
}

impl Traced {
    pub fn new(inner: Box<dyn ModelFamily>) -> Self {
        Traced { inner }
    }
}

impl ModelFamily for Traced {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn n_params(&self) -> usize {
        self.inner.n_params()
    }

    fn internal_to_params(&self, internal: &[f64]) -> Vec<f64> {
        timed(
            Kind::Setup,
            0,
            |_| 0,
            None,
            || self.inner.internal_to_params(internal),
        )
    }

    // Untimed: the map costs less than the two clock reads around it, so
    // timing it would mostly measure the clock. Its time counts as
    // solver time.
    fn internal_to_params_into(&self, internal: &[f64], out: &mut [f64]) {
        self.inner.internal_to_params_into(internal, out);
    }

    fn predict_params_into(&self, params: &[f64], ts: &[f64], out: &mut [f64]) -> bool {
        timed(
            Kind::Predict,
            ts.len() as u64,
            |_| 1,
            None,
            || self.inner.predict_params_into(params, ts, out),
        )
    }

    fn predict_jacobian_into(
        &self,
        internal: &[f64],
        params: &[f64],
        ts: &[f64],
        out: &mut Matrix,
    ) -> bool {
        timed(
            Kind::Jacobian,
            ts.len() as u64,
            |_| 0,
            None,
            || self.inner.predict_jacobian_into(internal, params, ts, out),
        )
    }

    fn sse_batch_into(&self, internals: &[f64], ts: &[f64], ys: &[f64], out: &mut [f64]) -> bool {
        let n = out.len() as u64;
        timed(
            Kind::SseBatch,
            n * ts.len() as u64,
            |done: &bool| if *done { n } else { 0 },
            needs_data().then(|| data_key(ys)),
            || self.inner.sse_batch_into(internals, ts, ys, out),
        )
    }

    fn nm_iteration_scale(&self) -> usize {
        let family = self.inner.name();
        with_log(|log| {
            log.open_fit(family, now_ns());
            false
        });
        self.inner.nm_iteration_scale()
    }

    fn params_to_internal(&self, params: &[f64]) -> Result<Vec<f64>, CoreError> {
        timed(
            Kind::Setup,
            0,
            |_| 0,
            None,
            || self.inner.params_to_internal(params),
        )
    }

    fn build(&self, params: &[f64]) -> Result<Box<dyn ResilienceModel>, CoreError> {
        let model = timed(Kind::Setup, 0, |_| 0, None, || self.inner.build(params));
        let t = now_ns();
        with_log(|log| {
            log.close_fit(t);
            true
        });
        model
    }

    fn initial_guesses(&self, series: &PerformanceSeries) -> Vec<Vec<f64>> {
        let data = needs_data().then(|| data_key(series.values()));
        timed(
            Kind::Setup,
            0,
            |_| 0,
            data,
            || self.inner.initial_guesses(series),
        )
    }
}

/// A call span recorded by [`Tracer`].
#[derive(Debug, Clone)]
pub struct CallSpan {
    pub name: &'static str,
    pub layer: Layer,
    pub region: usize,
    pub answer: usize,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl CallSpan {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The library layer a call span's own time belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `data`: scenario generation.
    Data,
    /// `core.runtime` with `selection` and `optim::parallel`.
    Runtime,
    /// `core.metrics` with `validate` and `analysis`.
    Metrics,
    /// `core.bootstrap`.
    Bootstrap,
}

/// Times the benchmark's calls into the library when enabled; a no-op
/// pass-through otherwise, so timed and traced passes share one code path.
#[derive(Debug, Default)]
pub struct Tracer {
    enabled: bool,
    next_region: usize,
    answer: usize,
    pub calls: Vec<CallSpan>,
}

impl Tracer {
    pub fn off() -> Self {
        Tracer::default()
    }

    pub fn on() -> Self {
        Tracer {
            enabled: true,
            ..Tracer::default()
        }
    }

    /// Starts the next answer: fit spans opened from now on belong to it.
    pub fn next_answer(&mut self) {
        self.answer += 1;
        ANSWER.store(self.answer, Ordering::Relaxed);
    }

    pub fn call<T>(&mut self, name: &'static str, layer: Layer, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        self.next_region += 1;
        REGION.store(self.next_region, Ordering::Relaxed);
        let start_ns = now_ns();
        let out = f();
        let end_ns = now_ns();
        REGION.store(0, Ordering::Relaxed);
        self.calls.push(CallSpan {
            name,
            layer,
            region: self.next_region,
            answer: self.answer,
            start_ns,
            end_ns,
        });
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(kernel_ns: u64, head: u64, tail: u64) -> FitSpan {
        FitSpan {
            region: 1,
            answer: 1,
            family: "f",
            start_ns: 0,
            end_ns: 100,
            kernel_ns,
            solver_start_ns: 10,
            solver_end_ns: 90,
            setup_head_ns: head,
            setup_tail_ns: tail,
            spans: 10,
            head_spans: 1,
            tail_spans: 2,
            evals: 0,
            data: None,
        }
    }

    #[test]
    fn fit_span_splits_into_kernel_solver_and_setup_time() {
        // 100 ns span; solver interval 10..90 holds 50 ns of kernels; the
        // set-up kernels outside it take 4 + 6 ns.
        let f = span(60, 4, 6);
        assert_eq!(f.optim_ns(), 80 - 50);
        assert_eq!(f.fit_ns(), 20 - 10);
        assert_eq!(f.kernel_ns + f.optim_ns() + f.fit_ns(), f.duration_ns());
        let raw = f.split(SpanCost::default());
        assert_eq!((raw.model_ns, raw.optim_ns, raw.fit_ns), (60, 30, 10));
        assert_eq!(raw.trace_ns, 0);
    }

    #[test]
    fn the_tracer_cost_moves_out_of_each_layer() {
        // 10 spans: 1 before the solver interval, 7 in it, 2 after. Each
        // costs 1 ns inside the kernel interval and 2 ns outside it.
        let f = span(60, 4, 6);
        let cost = SpanCost {
            inside_ns: 1.0,
            outside_ns: 2.0,
        };
        let s = f.split(cost);
        assert_eq!(s.model_ns, 60 - 10);
        assert_eq!(s.optim_ns, 30 - 2 * 6);
        assert_eq!(s.fit_ns, 10 - 2 * 3);
        assert_eq!(s.trace_ns, 10 + 12 + 6);
        assert_eq!(
            s.model_ns + s.optim_ns + s.fit_ns + s.trace_ns,
            f.duration_ns()
        );
        // A cost larger than the time it lands in takes all of it, no more.
        assert_eq!(cost.strip_outside(3, 5), (0, 3));
    }

    #[test]
    fn kernels_outside_a_fit_are_orphans_and_flush() {
        let mut log = ThreadLog::new(true);
        assert!(log.kernel(Kind::Predict, 0, 5, 3, 1, None));
        log.open_fit("f", 10);
        assert!(!log.kernel(Kind::Setup, 11, 12, 0, 0, Some((3, 7))));
        assert!(!log.kernel(Kind::SseBatch, 12, 20, 24, 8, None));
        assert!(!log.kernel(Kind::Setup, 21, 23, 0, 0, None));
        log.close_fit(25);
        let f = &log.fits[0];
        assert_eq!((f.kernel_ns, f.setup_head_ns, f.setup_tail_ns), (11, 1, 2));
        assert_eq!((f.spans, f.head_spans, f.tail_spans), (3, 1, 1));
        assert_eq!((f.evals, f.data), (8, Some((3, 7))));
        assert_eq!(f.kernel_ns + f.optim_ns() + f.fit_ns(), f.duration_ns());
        assert_eq!(log.regions[0].orphan_kernel_ns, 5);
        assert_eq!(log.regions[0].orphan_spans, 1);

        let mut shared = ThreadLog::new(true);
        shared.absorb(&mut log);
        assert_eq!(shared.fits.len(), 1);
        assert_eq!(shared.total(Kind::SseBatch).points, 24);
        assert!(log.fits.is_empty() && log.regions.is_empty());
    }

    #[test]
    fn an_unclosed_fit_counts_its_kernels_as_orphans() {
        let mut log = ThreadLog::new(false);
        log.open_fit("f", 0);
        log.kernel(Kind::Predict, 1, 4, 1, 1, None);
        log.open_fit("f", 5);
        assert_eq!(log.unbalanced, 1);
        assert_eq!(log.regions[0].orphan_kernel_ns, 3);
        assert_eq!(log.regions[0].orphan_spans, 1);
    }
}
