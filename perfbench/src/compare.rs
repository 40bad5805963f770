//! Stored results and `perfbench compare A B`: metric-by-metric ratios
//! of two stored results, refused when they were measured on different
//! machines (cores, CPU model or compiler differ).
//!
//! A stored result is a flat tab-separated file, one record per line:
//!
//! ```text
//! workload        paper-select
//! fingerprint.cores       2
//! metric  setup_s 1.0123  s
//! sample  setup_s 1.01    0.98    …
//! ```

use crate::sys::Fingerprint;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

/// Fingerprint fields that must agree for two results to be compared.
const MACHINE: [&str; 3] = [
    "fingerprint.cores",
    "fingerprint.cpu_model",
    "fingerprint.rustc",
];

/// Fields that must agree besides the machine.
const SAME: [&str; 2] = ["workload", "trace"];

/// A field value on one line: tabs and line breaks become spaces.
fn field(value: &str) -> String {
    value.replace(['\t', '\n', '\r'], " ")
}

/// Writes a result as the flat record format above.
pub fn stored(
    header: &[(&str, String)],
    fingerprint: &Fingerprint,
    metrics: &[(&str, f64, &str)],
    samples: &[(&str, Vec<f64>)],
) -> String {
    let mut out = String::new();
    for (key, value) in header {
        let _ = writeln!(out, "{key}\t{}", field(value));
    }
    for (key, value) in fingerprint.fields() {
        let _ = writeln!(out, "fingerprint.{key}\t{}", field(&value));
    }
    for (name, value, unit) in metrics {
        let _ = writeln!(out, "metric\t{name}\t{value}\t{unit}");
    }
    for (name, values) in samples {
        let list: Vec<String> = values.iter().map(f64::to_string).collect();
        let _ = writeln!(out, "sample\t{name}\t{}", list.join("\t"));
    }
    out
}

/// A stored result read back: its fields and its metrics in file order.
#[derive(Debug, Default)]
struct Stored {
    fields: BTreeMap<String, String>,
    metrics: Vec<(String, f64, String)>,
}

fn parse(text: &str) -> Result<Stored, String> {
    let mut out = Stored::default();
    for (i, line) in text.lines().enumerate() {
        let parts: Vec<&str> = line.split('\t').collect();
        match parts[..] {
            ["metric", name, value, unit] => {
                let value = value
                    .parse()
                    .map_err(|e| format!("line {}: {value}: {e}", i + 1))?;
                out.metrics.push((name.into(), value, unit.into()));
            }
            ["sample", ..] => {}
            [key, value] => {
                out.fields.insert(key.into(), value.into());
            }
            _ => return Err(format!("line {}: malformed record", i + 1)),
        }
    }
    Ok(out)
}

fn load(path: &Path) -> Result<Stored, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

impl Stored {
    fn machine(&self) -> Vec<Option<&String>> {
        MACHINE.iter().map(|k| self.fields.get(*k)).collect()
    }

    fn describe(&self) -> String {
        MACHINE
            .iter()
            .zip(self.machine())
            .map(|(k, v)| format!("{k}={}", v.map_or("missing", String::as_str)))
            .collect::<Vec<_>>()
            .join(", ")
    }
}

/// Prints `B / A` for every metric both results hold.
///
/// # Errors
///
/// Refuses results from different machines or of different runs, and
/// reports unreadable files.
pub fn run(a: &Path, b: &Path) -> Result<(), String> {
    let (ra, rb) = (load(a)?, load(b)?);
    if ra.machine() != rb.machine() || ra.machine().contains(&None) {
        return Err(format!(
            "refusing to compare: machine fingerprints differ\n  {}: {}\n  {}: {}",
            a.display(),
            ra.describe(),
            b.display(),
            rb.describe()
        ));
    }
    for key in SAME {
        if ra.fields.get(key) != rb.fields.get(key) {
            return Err(format!("refusing to compare: {key} differs"));
        }
    }
    println!("{:<34} {:>14} {:>14} {:>8}", "metric", "A", "B", "B/A");
    for (name, x, unit) in &ra.metrics {
        if let Some((_, y, _)) = rb.metrics.iter().find(|(n, _, _)| n == name) {
            println!("{name:<34} {x:>14.4} {y:>14.4} {:>8.3}  {unit}", y / x);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_stored_result_reads_back() {
        let fp = Fingerprint {
            cores: 2,
            cpu_model: "X\tY".into(),
            rustc: "rustc 1".into(),
            git_commit: "none".into(),
            source_digest: "0".into(),
        };
        let text = stored(
            &[("workload", "paper-select".into())],
            &fp,
            &[("setup_s", 1.5, "s")],
            &[("setup_s", vec![1.0, 2.5])],
        );
        let r = parse(&text).expect("own format parses");
        assert_eq!(r.fields["workload"], "paper-select");
        assert_eq!(r.fields["fingerprint.cpu_model"], "X Y");
        assert_eq!(r.metrics, vec![("setup_s".into(), 1.5, "s".into())]);
        assert!(parse("metric\tx\tnot-a-number\ts").is_err());
        assert!(parse("just-one-field").is_err());
    }
}
