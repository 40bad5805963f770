//! Process and machine readings: CPU time, peak RSS, the machine
//! fingerprint, plus the order statistics the report uses.

use resilience_bench::fleet::fnv1a;
use std::fs;
use std::path::Path;
use std::process::Command;

/// Clock ticks per second of the `utime`/`stime` fields in
/// `/proc/self/stat` (`USER_HZ`, 100 on every mainstream Linux ABI).
const USER_HZ: f64 = 100.0;

/// User plus system CPU time of the whole process (all threads, live and
/// exited), in milliseconds.
///
/// # Panics
///
/// Panics when `/proc/self/stat` is unreadable: the benchmark needs Linux.
pub fn cpu_ms() -> f64 {
    let stat = fs::read_to_string("/proc/self/stat").expect("/proc/self/stat is readable");
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line, so 12 and 13 after it.
    let after = &stat[stat.rfind(')').expect("stat line has a command name") + 2..];
    let fields: Vec<&str> = after.split_whitespace().collect();
    let ticks = |i: usize| -> f64 { fields[i].parse::<u64>().expect("numeric tick field") as f64 };
    (ticks(11) + ticks(12)) * 1000.0 / USER_HZ
}

/// Jiffies the hypervisor ran other guests on this machine's CPUs
/// (`steal`) and all jiffies, summed over CPUs, from `/proc/stat`.
/// `(0, 0)` where the line is missing.
pub fn host_cpu() -> (u64, u64) {
    let stat = fs::read_to_string("/proc/stat").unwrap_or_default();
    let Some(line) = stat.lines().next().and_then(|l| l.strip_prefix("cpu ")) else {
        return (0, 0);
    };
    // user nice system idle iowait irq softirq steal; the guest fields
    // after them are already counted in user and nice.
    let fields: Vec<u64> = line
        .split_whitespace()
        .take(8)
        .filter_map(|f| f.parse().ok())
        .collect();
    (fields.get(7).copied().unwrap_or(0), fields.iter().sum())
}

/// Steal time between two [`host_cpu`] readings, as a percentage of all
/// CPU time between them.
pub fn steal_pct(before: (u64, u64), after: (u64, u64)) -> f64 {
    let total = after.1.saturating_sub(before.1);
    if total == 0 {
        0.0
    } else {
        100.0 * after.0.saturating_sub(before.0) as f64 / total as f64
    }
}

/// Peak resident set size of the process in MiB (`VmHWM`).
///
/// # Panics
///
/// Panics when `/proc/self/status` has no `VmHWM` line.
pub fn peak_rss_mib() -> f64 {
    let status = fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    let kib: u64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kib as f64 / 1024.0
}

/// Where and with what a result was measured. Two results are comparable
/// only when cores, CPU model and compiler agree; the code identity is
/// what a comparison is about.
#[derive(Debug, Clone, PartialEq)]
pub struct Fingerprint {
    pub cores: usize,
    pub cpu_model: String,
    pub rustc: String,
    pub git_commit: String,
    /// FNV-1a over the library sources, for checkouts without git.
    pub source_digest: String,
}

impl Fingerprint {
    pub fn take() -> Self {
        let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        let cpu_model = fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find_map(|l| l.strip_prefix("model name"))
                    .map(|v| v.trim_start_matches([' ', '\t', ':']).trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        let rustc = command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into());
        // Only ask git inside a repository root, so it never walks up into
        // an enclosing one.
        let git_commit = Path::new(".git")
            .exists()
            .then(|| command_line("git", &["rev-parse", "HEAD"]))
            .flatten()
            .unwrap_or_else(|| "none".into());
        Fingerprint {
            cores,
            cpu_model,
            rustc,
            git_commit,
            source_digest: format!("{:016x}", source_digest()),
        }
    }

    /// The fields by name, in a fixed order.
    pub fn fields(&self) -> [(&'static str, String); 5] {
        [
            ("cores", self.cores.to_string()),
            ("cpu_model", self.cpu_model.clone()),
            ("rustc", self.rustc.clone()),
            ("git_commit", self.git_commit.clone()),
            ("source_digest", self.source_digest.clone()),
        ]
    }
}

/// First line of a command's standard output; waits for it to exit.
fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status.success().then_some(())?;
    let text = String::from_utf8(out.stdout).ok()?;
    text.lines().next().map(|l| l.trim().to_string())
}

/// FNV-1a over the workspace manifest and every `.rs` file under
/// `crates/`, in sorted path order.
fn source_digest() -> u64 {
    fn walk(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, out);
            } else if path.extension().is_some_and(|e| e == "rs") {
                out.push(path);
            }
        }
    }
    let mut files = vec![Path::new("Cargo.toml").to_path_buf()];
    walk(Path::new("crates"), &mut files);
    files.sort();
    let mut bytes = Vec::new();
    for file in files {
        bytes.extend(file.to_string_lossy().bytes());
        bytes.extend(fs::read(&file).unwrap_or_default());
    }
    fnv1a(&bytes)
}

pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Median of `values` (mean of the middle pair for even counts).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The highest percentile with at least ten samples beyond it: the
/// eleventh-largest sample, with the percentile it sits at. `None` with
/// fewer than eleven samples.
pub fn tail(values: &[f64]) -> Option<(f64, f64)> {
    if values.len() < 11 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let i = v.len() - 11;
    Some((v[i], 100.0 * (i + 1) as f64 / v.len() as f64))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_averages_the_middle_pair() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn tail_leaves_ten_samples_beyond_it() {
        assert_eq!(tail(&[1.0; 10]), None);
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        // 90 is the 11th largest: 91..=100 lie beyond it.
        assert_eq!(tail(&values), Some((90.0, 90.0)));
    }

    #[test]
    fn steal_is_a_share_of_the_cpu_time_between_readings() {
        assert_eq!(steal_pct((10, 1000), (30, 1400)), 5.0);
        assert_eq!(steal_pct((10, 1000), (10, 1000)), 0.0);
    }

    #[test]
    fn json_strings_escape_quotes_and_controls() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}
