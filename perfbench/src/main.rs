//! The repository benchmark. See README.md for the workloads, the metrics
//! and what each layer metric is expected to move.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! perfbench --write-reference --workload <name>
//! perfbench compare <result.tsv> <result.tsv>
//! ```
//!
//! Run from the repository root (`cargo run --release --manifest-path
//! perfbench/Cargo.toml -- …`). The last line of standard output is the
//! result as one JSON object; the same result, with the machine
//! fingerprint and the raw timings, is written under `perfbench/out/`
//! (format in `compare.rs`).

mod compare;
mod ledger;
mod reference;
mod sys;
mod trace;
mod workloads;

use ledger::{layer_metrics, Iteration};
use reference::Reference;
use resilience_core::model::ModelFamily;
use resilience_core::runtime::Control;
use resilience_data::PerformanceSeries;
use resilience_obs::{JsonlObserver, RecordingObserver, RunReport};
use resilience_optim::Parallelism;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use sys::{json_str, median, Fingerprint};
use trace::{now_ns, take_logs, Traced, Tracer};
use workloads::{Pass, Workload, THREADS};

/// Set-ups per timed run; `setup_s` is their median.
const SETUPS: usize = 7;

/// End-to-end metrics, printed by every `--trace 0` run.
const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("answer_p50_ms", "ms"),
    ("answer_tail_ms", "ms"),
    ("throughput_per_s", "1/s"),
    ("serial_throughput_per_s", "1/s"),
    ("cpu_ms_per_unit", "ms"),
    ("peak_rss_mib", "MiB"),
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

enum Mode {
    Run(Args),
    WriteReference(Workload),
    Compare(PathBuf, PathBuf),
}

const USAGE: &str = "usage: perfbench --workload <paper-select|bathtub-fleet|bootstrap-band> \
--seed <n> --seconds <s> --trace <0|1>\n       perfbench --write-reference --workload <name>\n       \
perfbench compare <result.tsv> <result.tsv>";

fn parse_args(args: &[String]) -> Result<Mode, String> {
    if args.first().map(String::as_str) == Some("compare") {
        return match &args[1..] {
            [a, b] => Ok(Mode::Compare(a.into(), b.into())),
            _ => Err("compare takes two result files".into()),
        };
    }
    let mut flags: BTreeMap<&str, &str> = BTreeMap::new();
    let mut write_reference = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--write-reference" => write_reference = true,
            "--workload" | "--seed" | "--seconds" | "--trace" => {
                let value = it.next().ok_or(format!("{flag} needs a value"))?;
                flags.insert(flag, value);
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let name = flags.get("--workload").ok_or("--workload is required")?;
    let workload = Workload::parse(name).ok_or(format!("unknown workload {name}"))?;
    if write_reference {
        return Ok(Mode::WriteReference(workload));
    }
    let num = |flag: &str| -> Result<u64, String> {
        flags
            .get(flag)
            .ok_or(format!("{flag} is required"))?
            .parse()
            .map_err(|e| format!("{flag}: {e}"))
    };
    let trace = match num("--trace")? {
        0 => false,
        1 => true,
        t => return Err(format!("--trace must be 0 or 1, got {t}")),
    };
    let seconds = num("--seconds")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Mode::Run(Args {
        workload,
        seed: num("--seed")?,
        seconds,
        trace,
    }))
}

fn main() -> ExitCode {
    trace::init();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match parse_args(&args) {
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
        Ok(Mode::Compare(a, b)) => compare::run(&a, &b),
        Ok(Mode::WriteReference(w)) => write_reference(w),
        Ok(Mode::Run(args)) => run(&args),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn write_reference(workload: Workload) -> Result<(), String> {
    let seed = workloads::DEFAULT_SEED;
    let series = workload.inputs(seed, &mut Tracer::off())?;
    let families = workload.families();
    let refs: Vec<&dyn ModelFamily> = families.iter().map(AsRef::as_ref).collect();
    let pass = workload.pass(
        seed,
        &series,
        &refs,
        Parallelism::Serial,
        &Control::unbounded(),
        &mut Tracer::off(),
    );
    Reference::write(workload, &pass)?;
    println!("wrote the {} reference at seed {seed}", workload.name());
    Ok(())
}

/// What a run found: metrics in print order, units attempted, units
/// whose answer was wrong, and why.
#[derive(Default)]
struct Outcome {
    metrics: Vec<(&'static str, f64, &'static str)>,
    /// Raw timings behind the metrics, kept in the stored result.
    samples: Vec<(&'static str, Vec<f64>)>,
    attempted: u64,
    wrong: u64,
    problems: Vec<String>,
}

impl Outcome {
    fn check(&mut self, args: &Args, pass: &Pass, reference: &Reference) {
        let (wrong, messages) = reference::check(args.workload, args.seed, pass, reference);
        self.wrong += wrong;
        self.problems.extend(messages);
    }

    /// Every answer of `pass` must be bit-identical to `base`'s.
    fn identical(&mut self, what: &str, base: &Pass, pass: &Pass) {
        for (i, (a, b)) in base.answers.iter().zip(&pass.answers).enumerate() {
            if a.bits != b.bits {
                self.wrong += b.units;
                self.problems
                    .push(format!("answer {i}: {what} is not bit-identical"));
            }
        }
    }
}

fn run(args: &Args) -> Result<(), String> {
    let reference = Reference::load(args.workload)?;
    let fingerprint = Fingerprint::take();
    let cpu_before = sys::host_cpu();
    let outcome = if args.trace {
        run_traced(args, &reference)?
    } else {
        run_timed(args, &reference)?
    };
    // Context, not a metric: how much of the machine's CPU time other
    // guests took while the run lasted. Timings drift with it.
    let steal_pct = sys::steal_pct(cpu_before, sys::host_cpu());
    let correct = outcome.wrong == 0;
    // A unit can fail several checks; count it once.
    let failed = outcome.wrong.min(outcome.attempted);
    for p in outcome.problems.iter().take(20) {
        println!("check failed: {p}");
    }
    println!(
        "fingerprint: {} cores, {}, {}, commit {}, sources {}",
        fingerprint.cores,
        fingerprint.cpu_model,
        fingerprint.rustc,
        fingerprint.git_commit,
        fingerprint.source_digest
    );
    println!("host steal: {steal_pct:.2}% of CPU time while the run lasted");
    let mut metrics_json = String::new();
    for (i, (name, value, unit)) in outcome.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            metrics_json,
            "{sep}{}: {{\"value\": {}, \"unit\": {}}}",
            json_str(name),
            json_num(*value),
            json_str(unit)
        );
    }
    let result = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics_json}}}}}",
        outcome.attempted.max(1),
        failed
    );
    let dir = PathBuf::from("perfbench/out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let file = dir.join(format!(
        "{}-seed{}-trace{}.tsv",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    ));
    let header = [
        ("workload", args.workload.name().to_string()),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("trace", u8::from(args.trace).to_string()),
        ("correct", correct.to_string()),
        ("attempted", outcome.attempted.max(1).to_string()),
        ("failed", failed.to_string()),
        ("host_steal_pct", steal_pct.to_string()),
    ];
    let stored = compare::stored(&header, &fingerprint, &outcome.metrics, &outcome.samples);
    std::fs::write(&file, stored).map_err(|e| format!("{}: {e}", file.display()))?;
    println!("{result}");
    Ok(())
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn print_metric(name: &str, value: f64, unit: &str, note: &str) {
    println!("{name} = {value:.6} {unit}{note}");
}

fn fixed() -> Parallelism {
    Parallelism::Fixed(THREADS)
}

/// One set-up: input generation, family construction and a warm-up pass
/// at Fixed(2), with the seconds it took.
struct SetUp {
    series: Vec<PerformanceSeries>,
    families: Vec<Box<dyn ModelFamily>>,
    warm: Pass,
    seconds: f64,
}

fn set_up(args: &Args) -> Result<SetUp, String> {
    let w = args.workload;
    let t0 = now_ns();
    let series = w.inputs(args.seed, &mut Tracer::off())?;
    let families = w.families();
    let refs: Vec<&dyn ModelFamily> = families.iter().map(AsRef::as_ref).collect();
    let warm = w.pass(
        args.seed,
        &series,
        &refs,
        fixed(),
        &Control::unbounded(),
        &mut Tracer::off(),
    );
    drop(refs);
    Ok(SetUp {
        series,
        families,
        warm,
        seconds: (now_ns() - t0) as f64 / 1e9,
    })
}

fn run_timed(args: &Args, reference: &Reference) -> Result<Outcome, String> {
    let w = args.workload;
    let unbounded = Control::unbounded();
    let SetUp {
        series,
        families,
        warm,
        seconds: first,
    } = set_up(args)?;
    let mut setup_s = vec![first];
    let refs: Vec<&dyn ModelFamily> = families.iter().map(AsRef::as_ref).collect();

    let mut out = Outcome::default();
    out.check(args, &warm, reference);
    // The serial baseline every Fixed(2) answer must match bit for bit.
    let baseline = w.pass(
        args.seed,
        &series,
        &refs,
        Parallelism::Serial,
        &unbounded,
        &mut Tracer::off(),
    );
    out.identical("the serial answer", &warm, &baseline);
    // Fixed(2) and serial passes interleave so that serial passes take a
    // third of the measured time and both see the same machine state. The
    // other set-ups are spread over the measured time for the same reason.
    let (mut answer_ms, mut fixed_s, mut serial_s, mut cpu_ms) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut units, mut quarantined) = (0, 0);
    let total = |v: &[f64]| v.iter().sum::<f64>();
    let seconds = args.seconds as f64;
    loop {
        let measured = total(&fixed_s) + total(&serial_s);
        let setups = setup_s.len();
        if setups < SETUPS && (measured >= seconds * setups as f64 / SETUPS as f64) {
            let again = set_up(args)?;
            out.identical("a set-up's warm-up answer", &baseline, &again.warm);
            setup_s.push(again.seconds);
            continue;
        }
        if measured >= seconds && !fixed_s.is_empty() && !serial_s.is_empty() {
            break;
        }
        if total(&serial_s) * 2.0 < total(&fixed_s) {
            let serial = w.pass(
                args.seed,
                &series,
                &refs,
                Parallelism::Serial,
                &unbounded,
                &mut Tracer::off(),
            );
            out.identical("a serial answer", &baseline, &serial);
            serial_s.push(serial.wall_ns as f64 / 1e9);
            continue;
        }
        let c0 = sys::cpu_ms();
        let pass = w.pass(
            args.seed,
            &series,
            &refs,
            fixed(),
            &unbounded,
            &mut Tracer::off(),
        );
        cpu_ms.push(sys::cpu_ms() - c0);
        out.check(args, &pass, reference);
        out.identical("the serial answer", &baseline, &pass);
        answer_ms.extend(pass.answer_ns.iter().map(|ns| *ns as f64 / 1e6));
        fixed_s.push(pass.wall_ns as f64 / 1e9);
        units += pass.units();
        quarantined += pass.sum(|a| a.quarantined);
    }
    out.attempted = units;

    let unit = w.unit();
    print_metric(
        "setup_s",
        median(&setup_s),
        "s",
        &format!("  (median of {SETUPS} set-ups spread over the run)"),
    );
    let p50 = median(&answer_ms);
    print_metric(
        "answer_p50_ms",
        p50,
        "ms",
        &format!("  ({} answers)", answer_ms.len()),
    );
    // Every metric must be printed, so a run too short for a tail is an
    // error, not a result.
    let (tail, pct) = sys::tail(&answer_ms).ok_or(format!(
        "{} answers are too few for a tail (11 needed): raise --seconds",
        answer_ms.len()
    ))?;
    print_metric(
        "answer_tail_ms",
        tail,
        "ms",
        &format!("  (p{pct:.1} of {} answers, 10 beyond it)", answer_ms.len()),
    );
    // Summed pass times, not per-pass medians: a serial pass runs on one
    // CPU, and on a shared host its time can take two values, one per
    // CPU; a median flips between them, a mean weighs both.
    let units_per_pass = baseline.units() as f64;
    let throughput = units as f64 / total(&fixed_s);
    let serial_throughput = units_per_pass * serial_s.len() as f64 / total(&serial_s);
    print_metric(
        "throughput_per_s",
        throughput,
        "1/s",
        &format!(
            "  ({unit}s per second at Fixed({THREADS}), {} passes of {units_per_pass} {unit}s)",
            fixed_s.len()
        ),
    );
    print_metric(
        "serial_throughput_per_s",
        serial_throughput,
        "1/s",
        &format!(
            "  ({} serial passes; speed-up {:.3}x)",
            serial_s.len(),
            throughput / serial_throughput
        ),
    );
    let cpu = total(&cpu_ms) / units as f64;
    print_metric(
        "cpu_ms_per_unit",
        cpu,
        "ms",
        &format!("  (per {unit}, user + system)"),
    );
    let failed_ratio = (out.wrong + quarantined) as f64 / units as f64;
    print_metric(
        "failed_ratio",
        failed_ratio,
        "ratio",
        &format!(
            "  ({} wrong + {quarantined} quarantined of {units})",
            out.wrong
        ),
    );
    let rss = sys::peak_rss_mib();
    print_metric("peak_rss_mib", rss, "MiB", "");
    let values = [
        median(&setup_s),
        p50,
        tail,
        throughput,
        serial_throughput,
        cpu,
        rss,
    ];
    out.metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|((n, u), v)| (*n, v, *u))
        .collect();
    out.samples = vec![
        ("setup_s", setup_s),
        ("fixed_pass_s", fixed_s),
        ("serial_pass_s", serial_s),
        ("answer_ms", answer_ms),
        ("fixed_pass_cpu_ms", cpu_ms),
    ];
    Ok(out)
}

fn run_traced(args: &Args, reference: &Reference) -> Result<Outcome, String> {
    let w = args.workload;
    let unbounded = Control::unbounded();
    let series = w.inputs(args.seed, &mut Tracer::off())?;
    let families = w.families();
    let plain: Vec<&dyn ModelFamily> = families.iter().map(AsRef::as_ref).collect();
    let wrapped: Vec<Traced> = w.families().into_iter().map(Traced::new).collect();
    let traced: Vec<&dyn ModelFamily> = wrapped.iter().map(|f| f as &dyn ModelFamily).collect();
    let cost = trace::calibrate();
    println!(
        "kernel span cost: {:.1} ns inside the kernel interval, {:.1} ns outside it",
        cost.inside_ns, cost.outside_ns
    );
    // Warm-up, untimed.
    let _ = w.pass(
        args.seed,
        &series,
        &plain,
        fixed(),
        &unbounded,
        &mut Tracer::off(),
    );

    let mut out = Outcome::default();
    let mut iterations = Vec::new();
    let deadline = now_ns() + args.seconds * 1_000_000_000;
    while iterations.is_empty() || now_ns() < deadline {
        // Baseline: untraced and unobserved.
        let base = w.pass(
            args.seed,
            &series,
            &plain,
            fixed(),
            &unbounded,
            &mut Tracer::off(),
        );
        out.check(args, &base, reference);
        out.attempted += base.units();

        // Traced at Fixed(2): the runtime's parallel behaviour.
        take_logs();
        let mut tracer = Tracer::on();
        let parallel = w.pass(
            args.seed,
            &series,
            &traced,
            fixed(),
            &unbounded,
            &mut tracer,
        );
        let parallel_calls = tracer.calls;
        let parallel_logs = take_logs();
        out.identical("the traced answer", &base, &parallel);

        // Traced serially, input generation included: the layer ledger.
        let mut tracer = Tracer::on();
        let t0 = now_ns();
        let fresh = w.inputs(args.seed, &mut tracer)?;
        let serial = w.pass(
            args.seed,
            &fresh,
            &traced,
            Parallelism::Serial,
            &unbounded,
            &mut tracer,
        );
        let serial_wall_ns = now_ns() - t0;
        let serial_calls = tracer.calls;
        let serial_logs = take_logs();
        out.identical("the serial traced answer", &base, &serial);

        // Observed passes: the program's own counters, and what the
        // observer costs per event.
        let recorder = Arc::new(RecordingObserver::new());
        let recorded = w.pass(
            args.seed,
            &series,
            &plain,
            fixed(),
            &unbounded.clone().observe(recorder.clone()),
            &mut Tracer::off(),
        );
        out.identical("the observed answer", &base, &recorded);
        let jsonl = Arc::new(JsonlObserver::new(std::io::sink()));
        let logged = w.pass(
            args.seed,
            &series,
            &plain,
            fixed(),
            &unbounded.clone().observe(jsonl),
            &mut Tracer::off(),
        );
        out.identical("the JSONL-observed answer", &base, &logged);

        iterations.push(Iteration {
            base_wall_ns: base.wall_ns,
            parallel,
            parallel_calls,
            parallel_logs,
            serial_calls,
            serial_logs,
            serial_wall_ns,
            report: RunReport::from_events(recorder.take()),
            recorded_wall_ns: recorded.wall_ns,
            logged_wall_ns: logged.wall_ns,
        });
    }
    let spans = PathBuf::from(format!(
        "perfbench/out/{}-seed{}-spans.jsonl",
        w.name(),
        args.seed
    ));
    std::fs::create_dir_all("perfbench/out").map_err(|e| format!("perfbench/out: {e}"))?;
    let last = iterations.last().expect("at least one iteration");
    std::fs::write(&spans, ledger::spans_jsonl(last, cost))
        .map_err(|e| format!("{}: {e}", spans.display()))?;
    let (metrics, problems) = layer_metrics(&iterations, cost);
    for (name, value, unit) in &metrics {
        print_metric(name, *value, unit, "");
    }
    println!("traced iterations: {}", iterations.len());
    if !problems.is_empty() {
        out.wrong = out.wrong.max(1);
        out.problems.extend(problems);
    }
    out.metrics = metrics;
    Ok(out)
}
