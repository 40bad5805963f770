//! Parsing JSONL event logs back into [`Event`] values.
//!
//! The encoder emits flat, single-line JSON objects with a fixed key order,
//! but the parser is a small general JSON-object reader: it tolerates
//! reordered keys and extra whitespace so hand-edited or externally produced
//! logs still load. String-typed event fields (`family`, `scope`) are
//! interned into `&'static str` so parsed events are the same `Copy` type
//! the pipeline emits.

use crate::event::{
    ChaosKind, CounterId, Event, ExitReason, FailureCode, HistogramId, SolverKind, StopKind,
};
use std::collections::HashSet;
use std::sync::{Mutex, OnceLock};

/// A parse failure, with the 1-based line number when known.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number in the log, or 0 for a standalone line.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.line > 0 {
            write!(f, "line {}: {}", self.line, self.message)
        } else {
            write!(f, "{}", self.message)
        }
    }
}

impl std::error::Error for ParseError {}

fn err<T>(message: impl Into<String>) -> Result<T, ParseError> {
    Err(ParseError {
        line: 0,
        message: message.into(),
    })
}

/// Interns `s`, returning a `&'static str` that lives for the process.
///
/// Event logs contain a handful of distinct family/scope names, so the
/// leaked set stays tiny; interning keeps parsed [`Event`]s `Copy` and
/// comparable by pointer-free equality with pipeline-emitted events.
pub fn intern(s: &str) -> &'static str {
    static POOL: OnceLock<Mutex<HashSet<&'static str>>> = OnceLock::new();
    let pool = POOL.get_or_init(|| Mutex::new(HashSet::new()));
    let mut guard = pool.lock().expect("intern pool poisoned");
    if let Some(existing) = guard.get(s) {
        return existing;
    }
    let leaked: &'static str = Box::leak(s.to_owned().into_boxed_str());
    guard.insert(leaked);
    leaked
}

/// One decoded JSON scalar.
#[derive(Debug, Clone, PartialEq)]
enum Val {
    Str(String),
    Num(f64),
    Bool(bool),
}

struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len() && self.bytes[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn parse_string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let Some(b) = self.peek() else {
                return err("unterminated string");
            };
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(esc) = self.peek() else {
                        return err("unterminated escape");
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            if self.pos + 4 > self.bytes.len() {
                                return err("truncated \\u escape");
                            }
                            let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
                                .map_err(|_| ParseError {
                                    line: 0,
                                    message: "non-utf8 \\u escape".into(),
                                })?;
                            let code = u32::from_str_radix(hex, 16).map_err(|_| ParseError {
                                line: 0,
                                message: format!("bad \\u escape {hex:?}"),
                            })?;
                            self.pos += 4;
                            match char::from_u32(code) {
                                Some(c) => out.push(c),
                                None => return err("invalid \\u code point"),
                            }
                        }
                        other => return err(format!("unknown escape '\\{}'", other as char)),
                    }
                }
                _ => {
                    // Multi-byte UTF-8: back up and take the whole char.
                    self.pos -= 1;
                    let rest =
                        std::str::from_utf8(&self.bytes[self.pos..]).map_err(|_| ParseError {
                            line: 0,
                            message: "invalid utf-8 in string".into(),
                        })?;
                    let c = rest.chars().next().expect("non-empty checked above");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn parse_value(&mut self) -> Result<Val, ParseError> {
        self.skip_ws();
        match self.peek() {
            Some(b'"') => Ok(Val::Str(self.parse_string()?)),
            Some(b't') => {
                if self.bytes[self.pos..].starts_with(b"true") {
                    self.pos += 4;
                    Ok(Val::Bool(true))
                } else {
                    err("bad literal")
                }
            }
            Some(b'f') => {
                if self.bytes[self.pos..].starts_with(b"false") {
                    self.pos += 5;
                    Ok(Val::Bool(false))
                } else {
                    err("bad literal")
                }
            }
            Some(b) if b == b'-' || b.is_ascii_digit() => {
                let start = self.pos;
                while let Some(b) = self.peek() {
                    if b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E') {
                        self.pos += 1;
                    } else {
                        break;
                    }
                }
                let token = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii slice");
                match token.parse::<f64>() {
                    Ok(x) => Ok(Val::Num(x)),
                    Err(_) => err(format!("bad number {token:?}")),
                }
            }
            _ => err("expected a string, number, or bool"),
        }
    }

    /// Parses a flat JSON object into key/value pairs.
    fn parse_object(&mut self) -> Result<Vec<(String, Val)>, ParseError> {
        self.skip_ws();
        self.expect(b'{')?;
        let mut fields = Vec::with_capacity(6);
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(fields);
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.parse_value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(fields);
                }
                _ => return err("expected ',' or '}'"),
            }
        }
    }
}

struct Fields(Vec<(String, Val)>);

impl Fields {
    fn get(&self, key: &str) -> Result<&Val, ParseError> {
        self.0
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .ok_or_else(|| ParseError {
                line: 0,
                message: format!("missing field {key:?}"),
            })
    }

    fn str(&self, key: &str) -> Result<&str, ParseError> {
        match self.get(key)? {
            Val::Str(s) => Ok(s),
            _ => err(format!("field {key:?} is not a string")),
        }
    }

    fn interned(&self, key: &str) -> Result<&'static str, ParseError> {
        Ok(intern(self.str(key)?))
    }

    fn f64(&self, key: &str) -> Result<f64, ParseError> {
        match self.get(key)? {
            Val::Num(x) => Ok(*x),
            // Non-finite floats are encoded as strings.
            Val::Str(s) => match s.as_str() {
                "inf" => Ok(f64::INFINITY),
                "-inf" => Ok(f64::NEG_INFINITY),
                "nan" => Ok(f64::NAN),
                _ => err(format!("field {key:?} is not a number")),
            },
            _ => err(format!("field {key:?} is not a number")),
        }
    }

    fn u64(&self, key: &str) -> Result<u64, ParseError> {
        match self.get(key)? {
            // The upper bound rejects values ≥ 2^64 (including overflow
            // artifacts like `1e300`), which a plain `as u64` cast would
            // silently saturate to `u64::MAX`; everything below it with a
            // zero fraction converts exactly.
            Val::Num(x) if *x >= 0.0 && x.fract() == 0.0 && *x < u64::MAX as f64 => Ok(*x as u64),
            _ => err(format!("field {key:?} is not a non-negative integer")),
        }
    }

    fn u32(&self, key: &str) -> Result<u32, ParseError> {
        let v = self.u64(key)?;
        u32::try_from(v).map_err(|_| ParseError {
            line: 0,
            message: format!("field {key:?} overflows u32"),
        })
    }

    fn bool(&self, key: &str) -> Result<bool, ParseError> {
        match self.get(key)? {
            Val::Bool(b) => Ok(*b),
            _ => err(format!("field {key:?} is not a bool")),
        }
    }
}

/// Parses one JSONL line into an [`Event`].
pub fn parse_line(line: &str) -> Result<Event, ParseError> {
    let mut cursor = Cursor {
        bytes: line.as_bytes(),
        pos: 0,
    };
    let fields = Fields(cursor.parse_object()?);
    cursor.skip_ws();
    if cursor.pos != line.len() {
        return err("trailing bytes after object");
    }
    let tag = fields.str("ev")?.to_owned();
    let event = match tag.as_str() {
        "job" => Event::Job {
            cell: fields.u32("cell")?,
            family: fields.interned("family")?,
        },
        "fit_started" => Event::FitStarted {
            family: fields.interned("family")?,
            starts: fields.u32("starts")?,
        },
        "fit_finished" => Event::FitFinished {
            family: fields.interned("family")?,
            sse: fields.f64("sse")?,
            evaluations: fields.u64("evals")?,
            converged: fields.bool("converged")?,
        },
        "fit_failed" => Event::FitFailed {
            family: fields.interned("family")?,
            kind: FailureCode::parse(fields.str("kind")?).ok_or_else(|| ParseError {
                line: 0,
                message: format!("unknown failure kind {:?}", fields.str("kind").unwrap()),
            })?,
        },
        "start" => Event::StartBegan {
            index: fields.u32("index")?,
        },
        "iteration" => Event::Iteration {
            solver: parse_solver(&fields)?,
            iteration: fields.u64("iter")?,
            evaluations: fields.u64("evals")?,
            best: fields.f64("best")?,
        },
        "converged" => Event::Converged {
            solver: parse_solver(&fields)?,
            iterations: fields.u64("iters")?,
            evaluations: fields.u64("evals")?,
            value: fields.f64("value")?,
            reason: ExitReason::parse(fields.str("reason")?).ok_or_else(|| ParseError {
                line: 0,
                message: format!("unknown exit reason {:?}", fields.str("reason").unwrap()),
            })?,
        },
        "retry_scheduled" => Event::RetryScheduled {
            family: fields.interned("family")?,
            attempt: fields.u32("attempt")?,
        },
        "deadline_exceeded" | "cancelled" => Event::Stop {
            scope: fields.interned("scope")?,
            kind: StopKind::parse(&tag).expect("tag matched above"),
            evaluations: fields.u64("evals")?,
        },
        "worker_panic" => Event::WorkerPanic {
            scope: fields.interned("scope")?,
            index: fields.u32("index")?,
        },
        "bootstrap_chunk_done" => Event::BootstrapChunkDone {
            done: fields.u32("done")?,
            total: fields.u32("total")?,
            failed: fields.u32("failed")?,
        },
        "chaos_injected" => Event::ChaosInjected {
            kind: ChaosKind::parse(fields.str("kind")?).ok_or_else(|| ParseError {
                line: 0,
                message: format!("unknown chaos kind {:?}", fields.str("kind").unwrap()),
            })?,
            cell: fields.u32("cell")?,
            family: fields.interned("family")?,
        },
        "breaker_opened" => Event::BreakerOpened {
            family: fields.interned("family")?,
            consecutive: fields.u32("consecutive")?,
            clock: fields.u64("clock")?,
        },
        "breaker_half_open" => Event::BreakerHalfOpen {
            family: fields.interned("family")?,
            clock: fields.u64("clock")?,
        },
        "breaker_closed" => Event::BreakerClosed {
            family: fields.interned("family")?,
            clock: fields.u64("clock")?,
        },
        "cell_quarantined" => Event::CellQuarantined {
            cell: fields.u32("cell")?,
            failures: fields.u32("failures")?,
        },
        "counter" => Event::Counter {
            id: CounterId::parse(fields.str("id")?).ok_or_else(|| ParseError {
                line: 0,
                message: format!("unknown counter id {:?}", fields.str("id").unwrap()),
            })?,
            delta: fields.u64("n")?,
        },
        "hist" => Event::Hist {
            id: HistogramId::parse(fields.str("id")?).ok_or_else(|| ParseError {
                line: 0,
                message: format!("unknown histogram id {:?}", fields.str("id").unwrap()),
            })?,
            value: fields.u64("value")?,
        },
        other => return err(format!("unknown event tag {other:?}")),
    };
    Ok(event)
}

fn parse_solver(fields: &Fields) -> Result<SolverKind, ParseError> {
    SolverKind::parse(fields.str("solver")?).ok_or_else(|| ParseError {
        line: 0,
        message: format!("unknown solver {:?}", fields.str("solver").unwrap()),
    })
}

/// Parses a whole JSONL log. Blank lines are skipped; any malformed line
/// aborts with its 1-based line number.
pub fn parse_log(text: &str) -> Result<Vec<Event>, ParseError> {
    let mut events = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        match parse_line(line) {
            Ok(e) => events.push(e),
            Err(mut e) => {
                e.line = i + 1;
                return Err(e);
            }
        }
    }
    Ok(events)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_returns_identical_pointers() {
        let a = intern("Quadratic");
        let b = intern("Quadratic");
        assert!(std::ptr::eq(a, b));
    }

    fn round_trip(e: Event) {
        let json = e.to_json();
        let parsed = parse_line(&json).unwrap_or_else(|err| panic!("{json}: {err}"));
        // NaN != NaN, so compare re-encodings for float-carrying events.
        assert_eq!(parsed.to_json(), json);
    }

    #[test]
    fn every_variant_round_trips() {
        round_trip(Event::FitStarted {
            family: intern("Quadratic"),
            starts: 4,
        });
        round_trip(Event::FitFinished {
            family: intern("CompetingRisks"),
            sse: 0.012345678901234567,
            evaluations: 987,
            converged: true,
        });
        round_trip(Event::FitFailed {
            family: intern("Glacial"),
            kind: FailureCode::TimedOut,
        });
        round_trip(Event::StartBegan { index: 3 });
        round_trip(Event::Iteration {
            solver: SolverKind::NelderMead,
            iteration: 17,
            evaluations: 120,
            best: -1.5e-7,
        });
        round_trip(Event::Iteration {
            solver: SolverKind::MultiStart,
            iteration: 2,
            evaluations: 60,
            best: f64::INFINITY,
        });
        round_trip(Event::Converged {
            solver: SolverKind::LevenbergMarquardt,
            iterations: 9,
            evaluations: 40,
            value: 2.0,
            reason: ExitReason::Converged,
        });
        round_trip(Event::RetryScheduled {
            family: intern("Buggy"),
            attempt: 2,
        });
        round_trip(Event::Stop {
            scope: intern("nelder_mead"),
            kind: StopKind::Deadline,
            evaluations: 55,
        });
        round_trip(Event::Stop {
            scope: intern("fit"),
            kind: StopKind::Cancelled,
            evaluations: 0,
        });
        round_trip(Event::WorkerPanic {
            scope: intern("ranking"),
            index: 1,
        });
        round_trip(Event::BootstrapChunkDone {
            done: 100,
            total: 400,
            failed: 3,
        });
        round_trip(Event::ChaosInjected {
            kind: ChaosKind::Deadline,
            cell: 17,
            family: intern("Hjorth"),
        });
        round_trip(Event::BreakerOpened {
            family: intern("Hjorth"),
            consecutive: 3,
            clock: 42,
        });
        round_trip(Event::BreakerHalfOpen {
            family: intern("Hjorth"),
            clock: 57,
        });
        round_trip(Event::BreakerClosed {
            family: intern("Hjorth"),
            clock: 61,
        });
        round_trip(Event::CellQuarantined {
            cell: 12,
            failures: 4,
        });
        round_trip(Event::Counter {
            id: CounterId::LmDampingUp,
            delta: 6,
        });
        round_trip(Event::Hist {
            id: HistogramId::EvalsPerStart,
            value: 231,
        });
    }

    #[test]
    fn parse_log_reports_line_numbers() {
        let text = "{\"ev\":\"start\",\"index\":0}\n\nnot json\n";
        let err = parse_log(text).unwrap_err();
        assert_eq!(err.line, 3);
    }

    #[test]
    fn parser_tolerates_reordered_keys_and_whitespace() {
        let e = parse_line(" { \"starts\" : 2 , \"family\" : \"Q\" , \"ev\" : \"fit_started\" } ")
            .unwrap();
        assert_eq!(
            e,
            Event::FitStarted {
                family: intern("Q"),
                starts: 2
            }
        );
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse_line("{}").is_err());
        assert!(parse_line("{\"ev\":\"nope\"}").is_err());
        assert!(parse_line("{\"ev\":\"start\",\"index\":-1}").is_err());
        assert!(parse_line("{\"ev\":\"start\",\"index\":0}x").is_err());
        // Tags of solvers and counters that left the vocabulary.
        let de = "{\"ev\":\"iteration\",\"solver\":\"de\",\"iter\":1,\"evals\":2,\"best\":0.5}";
        assert!(parse_line(de).is_err());
        assert!(parse_line("{\"ev\":\"counter\",\"id\":\"sa_accepted\",\"n\":1}").is_err());
        // Job markers without a cell, or with one outside u32, are typed
        // errors reported on their own line.
        for bad in [
            "{\"ev\":\"job\",\"family\":\"Q\"}",
            "{\"ev\":\"job\",\"cell\":4294967296,\"family\":\"Q\"}",
            "{\"ev\":\"job\",\"cell\":-1,\"family\":\"Q\"}",
        ] {
            let err = parse_log(&format!("{{\"ev\":\"start\",\"index\":0}}\n{bad}\n")).unwrap_err();
            assert_eq!(err.line, 2, "{bad}: {err}");
        }
    }

    #[test]
    fn rejects_integer_fields_that_overflow_u64() {
        // `1e300` has a zero fraction, so before the range guard it cast
        // (saturating) to u64::MAX and poisoned downstream aggregation.
        assert!(parse_line("{\"ev\":\"hist\",\"id\":\"evals_per_fit\",\"value\":1e300}").is_err());
        assert!(parse_line(
            "{\"ev\":\"counter\",\"id\":\"objective_evals\",\"n\":18446744073709551616}"
        )
        .is_err());
        // A large but in-range integer (2^53) still parses exactly.
        let e = parse_line("{\"ev\":\"hist\",\"id\":\"evals_per_fit\",\"value\":9007199254740992}")
            .unwrap();
        assert_eq!(
            e,
            Event::Hist {
                id: HistogramId::EvalsPerFit,
                value: 9007199254740992,
            }
        );
    }
}
