//! Correctness of every answer: invariants at any seed, and agreement
//! with the answers stored under `reference/` (made at
//! [`DEFAULT_SEED`] by `--write-reference`).
//!
//! The stored numbers are compared within [`REL_TOL`], so changes at
//! rounding level still pass while a different optimum does not. A
//! winner may differ only where the stored AICc gap to the runner-up is
//! below [`TIE_GAP`], i.e. where rounding alone can reorder the two.

use crate::workloads::{Answer, Cell, CellResult, Pass, Summary, Workload, DEFAULT_SEED};
use std::fmt::Write as _;
use std::fs;
use std::path::PathBuf;

/// Relative tolerance on a winner's SSE and on every band limit.
pub const REL_TOL: f64 = 1e-6;

/// AICc gaps below this are ties: either family may win.
pub const TIE_GAP: f64 = 1e-6;

fn path(workload: Workload) -> PathBuf {
    PathBuf::from(format!("perfbench/reference/{}.tsv", workload.name()))
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= REL_TOL * a.abs().max(b.abs()).max(f64::MIN_POSITIVE)
}

/// The stored answers of one workload.
#[derive(Debug)]
pub enum Reference {
    Cells(Vec<Cell>),
    Band {
        center: Vec<f64>,
        lower: Vec<f64>,
        upper: Vec<f64>,
    },
}

impl Reference {
    /// Loads the stored answers.
    ///
    /// # Errors
    ///
    /// Describes a missing or malformed file.
    pub fn load(workload: Workload) -> Result<Self, String> {
        let p = path(workload);
        let text = fs::read_to_string(&p).map_err(|e| format!("{}: {e}", p.display()))?;
        let num = |s: &str| {
            s.parse::<f64>()
                .map_err(|e| format!("{}: {s}: {e}", p.display()))
        };
        let rows: Vec<Vec<&str>> = text
            .lines()
            .filter(|l| !l.starts_with('#') && !l.is_empty())
            .map(|l| l.split('\t').collect())
            .collect();
        if workload == Workload::BootstrapBand {
            let (mut center, mut lower, mut upper) = (Vec::new(), Vec::new(), Vec::new());
            for r in &rows {
                let [c, l, u] = r[..] else {
                    return Err(format!("{}: expected 3 columns", p.display()));
                };
                center.push(num(c)?);
                lower.push(num(l)?);
                upper.push(num(u)?);
            }
            return Ok(Reference::Band {
                center,
                lower,
                upper,
            });
        }
        let mut cells = Vec::new();
        for r in &rows {
            let outcome = match r[..] {
                [_, "quarantined"] => CellResult::Quarantined { constant: true },
                [_, winner, sse, gap] => CellResult::Ranked {
                    winner: winner.to_string(),
                    sse: num(sse)?,
                    gap: num(gap)?,
                },
                _ => return Err(format!("{}: malformed row {r:?}", p.display())),
            };
            cells.push(Cell {
                label: r[0].to_string(),
                outcome,
            });
        }
        Ok(Reference::Cells(cells))
    }

    /// Writes the answers of `pass` as the stored reference.
    ///
    /// # Errors
    ///
    /// Describes an answer that cannot serve as a reference, or an I/O
    /// failure.
    pub fn write(workload: Workload, pass: &Pass) -> Result<(), String> {
        let mut out = format!(
            "# {} reference answers at seed {DEFAULT_SEED} (perfbench --write-reference)\n",
            workload.name()
        );
        for answer in &pass.answers {
            match &answer.summary {
                Summary::Ranked(cells) => {
                    for c in cells {
                        let _ = match &c.outcome {
                            CellResult::Ranked { winner, sse, gap } => {
                                writeln!(out, "{}\t{winner}\t{sse:e}\t{gap:e}", c.label)
                            }
                            CellResult::Quarantined { constant: true } => {
                                writeln!(out, "{}\tquarantined", c.label)
                            }
                            other => return Err(format!("{}: {other:?}", c.label)),
                        };
                    }
                }
                Summary::Band {
                    center,
                    lower,
                    upper,
                } => {
                    for i in 0..center.len() {
                        let _ = writeln!(out, "{:e}\t{:e}\t{:e}", center[i], lower[i], upper[i]);
                    }
                }
                Summary::Error(e) => return Err(e.clone()),
            }
        }
        let p = path(workload);
        fs::write(&p, out).map_err(|e| format!("{}: {e}", p.display()))
    }
}

/// Checks one pass; returns the number of units whose answer is wrong,
/// with a message for each wrong answer. Units the library itself
/// reported as failed count as wrong, except a quarantined constant
/// series, which no family can fit.
pub fn check(
    workload: Workload,
    seed: u64,
    pass: &Pass,
    reference: &Reference,
) -> (u64, Vec<String>) {
    let mut wrong = 0;
    let mut messages = Vec::new();
    for answer in &pass.answers {
        let (w, m) = check_answer(workload, seed, answer, reference);
        wrong += w;
        messages.extend(m);
    }
    // A truncated or stale reference must not weaken the check: at a
    // stored seed it covers every answered cell, no more and no less.
    if let Reference::Cells(refs) = reference {
        let cells: usize = pass
            .answers
            .iter()
            .map(|a| match &a.summary {
                Summary::Ranked(cells) => cells.len(),
                _ => 0,
            })
            .sum();
        if stored(workload, seed) && cells != refs.len() {
            wrong = pass.units();
            messages.push(format!(
                "{cells} cells answered, the reference holds {}",
                refs.len()
            ));
        }
    }
    (wrong, messages)
}

/// Whether the stored reference applies at `seed`. Paper-select's curves
/// do not depend on the seed (it only orders them), so its reference
/// holds at every seed.
fn stored(workload: Workload, seed: u64) -> bool {
    seed == DEFAULT_SEED || workload == Workload::PaperSelect
}

fn check_answer(
    workload: Workload,
    seed: u64,
    answer: &Answer,
    reference: &Reference,
) -> (u64, Vec<String>) {
    let stored = stored(workload, seed);
    match (&answer.summary, reference) {
        (Summary::Error(e), _) => (answer.units, vec![e.clone()]),
        (Summary::Ranked(cells), Reference::Cells(refs)) => {
            let mut messages = Vec::new();
            for cell in cells {
                let expected = if stored {
                    match refs.iter().find(|r| r.label == cell.label) {
                        Some(r) => Some(&r.outcome),
                        None => {
                            messages.push(format!("{}: no reference row", cell.label));
                            continue;
                        }
                    }
                } else {
                    None
                };
                if let Some(m) = check_cell(cell, expected) {
                    messages.push(format!("{}: {m}", cell.label));
                }
            }
            (messages.len() as u64, messages)
        }
        (
            Summary::Band {
                center,
                lower,
                upper,
            },
            Reference::Band {
                center: rc,
                lower: rl,
                upper: ru,
            },
        ) => {
            let mut m = Vec::new();
            if answer.failed > 0 {
                m.push(format!("{} replicates failed to refit", answer.failed));
            }
            if lower
                .iter()
                .zip(upper)
                .any(|(l, u)| !(l.is_finite() && u.is_finite() && l <= u))
            {
                m.push("band limits are not finite and ordered".into());
            }
            if stored {
                let same = |a: &[f64], b: &[f64]| {
                    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| close(*x, *y))
                };
                if !(same(center, rc) && same(lower, rl) && same(upper, ru)) {
                    m.push("band differs from the stored reference".into());
                }
            }
            if m.is_empty() {
                (0, m)
            } else {
                (answer.units, m)
            }
        }
        _ => (
            answer.units,
            vec!["answer and reference kinds differ".into()],
        ),
    }
}

fn check_cell(cell: &Cell, expected: Option<&CellResult>) -> Option<String> {
    match (&cell.outcome, expected) {
        (CellResult::Failed(e), _) => Some(format!("failed: {e}")),
        (CellResult::Quarantined { constant: false }, _) => {
            Some("quarantined although the series is not constant".into())
        }
        (CellResult::Quarantined { .. }, None | Some(CellResult::Quarantined { .. })) => None,
        (CellResult::Ranked { sse, .. }, _) if !(sse.is_finite() && *sse >= 0.0) => Some(format!(
            "winner SSE {sse} is not a finite non-negative number"
        )),
        (CellResult::Ranked { .. }, None) => None,
        (
            CellResult::Ranked { winner, sse, .. },
            Some(CellResult::Ranked {
                winner: rw,
                sse: rs,
                gap,
            }),
        ) => {
            if winner != rw {
                (*gap >= TIE_GAP).then(|| format!("winner {winner}, reference {rw}"))
            } else {
                (!close(*sse, *rs)).then(|| format!("winner SSE {sse:e}, reference {rs:e}"))
            }
        }
        (got, Some(want)) => Some(format!("answer {got:?}, reference {want:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ranked(winner: &str, sse: f64, gap: f64) -> CellResult {
        CellResult::Ranked {
            winner: winner.into(),
            sse,
            gap,
        }
    }

    fn cell(outcome: CellResult) -> Cell {
        Cell {
            label: "c".into(),
            outcome,
        }
    }

    #[test]
    fn rounding_passes_and_a_different_optimum_fails() {
        let want = ranked("Wei-Wei", 1e-3, 5.0);
        assert!(check_cell(
            &cell(ranked("Wei-Wei", 1e-3 * (1.0 + 1e-9), 5.0)),
            Some(&want)
        )
        .is_none());
        assert!(check_cell(&cell(ranked("Wei-Wei", 1.1e-3, 5.0)), Some(&want)).is_some());
        assert!(check_cell(&cell(ranked("Exp-Wei", 1e-3, 5.0)), Some(&want)).is_some());
    }

    #[test]
    fn a_tie_may_go_either_way() {
        let want = ranked("Quadratic", 1e-3, 1e-9);
        assert!(check_cell(&cell(ranked("Quartic", 2e-3, 0.0)), Some(&want)).is_none());
    }

    #[test]
    fn a_cell_the_reference_does_not_cover_is_wrong() {
        let refs = Reference::Cells(vec![Cell {
            label: "a".into(),
            outcome: ranked("Quadratic", 1e-3, 1.0),
        }]);
        let pass = |labels: &[&str]| Pass {
            answers: vec![Answer {
                units: labels.len() as u64,
                failed: 0,
                quarantined: 0,
                jobs: 0,
                failed_jobs: 0,
                bits: Vec::new(),
                summary: Summary::Ranked(
                    labels
                        .iter()
                        .map(|l| Cell {
                            label: (*l).into(),
                            outcome: ranked("Quadratic", 1e-3, 1.0),
                        })
                        .collect(),
                ),
            }],
            answer_ns: vec![0],
            wall_ns: 0,
        };
        let w = Workload::BathtubFleet;
        assert_eq!(check(w, DEFAULT_SEED, &pass(&["a"]), &refs).0, 0);
        assert_eq!(check(w, DEFAULT_SEED, &pass(&["b"]), &refs).0, 1);
        assert_eq!(check(w, DEFAULT_SEED, &pass(&["a", "b"]), &refs).0, 2);
        // Away from the stored seed only the invariants apply.
        assert_eq!(check(w, DEFAULT_SEED + 1, &pass(&["a", "b"]), &refs).0, 0);
    }

    #[test]
    fn only_a_constant_series_may_be_quarantined() {
        let constant = cell(CellResult::Quarantined { constant: true });
        let varying = cell(CellResult::Quarantined { constant: false });
        assert!(check_cell(&constant, None).is_none());
        assert!(check_cell(&varying, None).is_some());
        assert!(check_cell(&constant, Some(&ranked("Quadratic", 1e-3, 1.0))).is_some());
    }
}
