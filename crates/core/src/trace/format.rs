//! On-disk trace formats: CSV and JSON-lines keyed-op traces.
//!
//! Both formats carry the same record shape — an operation name, a key,
//! and optionally a write value, a scan length, and a timestamp in seconds
//! — and both round-trip: [`export_csv`] / [`export_jsonl`] emit a
//! *canonical* form (columns present iff any entry needs them, floats via
//! `{:?}`, no padding) that [`parse_csv`] / [`parse_jsonl`] read back
//! identically, so `import ∘ export = id` on canonical files.
//!
//! Every rejection is a positioned [`TraceError`] in the spec-parser
//! style: the 1-based line, the offending column or key, and the reason.

use super::{TResult, TraceError};
use crate::scenario::Choice;
use lsbench_workload::ops::Operation;
use lsbench_workload::trace::Trace;

/// One parsed trace record before phase assignment: the operation and its
/// absolute timestamp in seconds, if the trace carries timestamps.
#[derive(Debug, Clone, PartialEq)]
pub struct RawEntry {
    /// The keyed operation.
    pub op: Operation,
    /// Absolute timestamp in seconds (None for timestamp-less traces).
    pub ts: Option<f64>,
}

/// The wire format of a trace file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceFormat {
    /// Comma-separated values with a header line.
    Csv,
    /// One JSON object per line.
    Jsonl,
}

impl Choice for TraceFormat {
    const SPELLINGS: &'static [(&'static str, Self)] =
        &[("csv", TraceFormat::Csv), ("jsonl", TraceFormat::Jsonl)];
}

impl TraceFormat {
    /// Detects the format from a file extension (`.csv` / `.jsonl`).
    pub fn from_path(path: &str) -> Option<TraceFormat> {
        let lower = path.to_ascii_lowercase();
        let found = Self::SPELLINGS.iter().find(|(ext, _)| {
            lower
                .strip_suffix(ext)
                .is_some_and(|stem| stem.ends_with('.'))
        });
        found.map(|&(_, format)| format)
    }
}

const COLUMNS: &[&str] = &["op", "key", "value", "len", "ts"];

fn unknown_op(line: usize, name: &str) -> TraceError {
    TraceError::new(
        line,
        "op",
        format!("unknown operation '{name}' (expected read, insert, update, scan, delete)"),
    )
}

/// Enforces non-decreasing timestamps and uniform presence across entries.
struct TsChecker {
    prev: Option<f64>,
    had_ts: Option<bool>,
}

impl TsChecker {
    fn new() -> Self {
        TsChecker {
            prev: None,
            had_ts: None,
        }
    }

    fn check(&mut self, line: usize, ts: Option<f64>) -> TResult<()> {
        match (self.had_ts, ts.is_some()) {
            (Some(true), false) => {
                return Err(TraceError::new(
                    line,
                    "ts",
                    "missing timestamp (earlier lines have one)",
                ));
            }
            (Some(false), true) => {
                return Err(TraceError::new(
                    line,
                    "ts",
                    "timestamp appears here but earlier lines have none",
                ));
            }
            _ => self.had_ts = Some(ts.is_some()),
        }
        if let Some(t) = ts {
            if !(t.is_finite() && t >= 0.0) {
                return Err(TraceError::new(
                    line,
                    "ts",
                    format!("timestamp {t} must be finite and non-negative"),
                ));
            }
            if let Some(p) = self.prev {
                if t < p {
                    return Err(TraceError::new(
                        line,
                        "ts",
                        format!("timestamps must be non-decreasing (went from {p} to {t})"),
                    ));
                }
            }
            self.prev = Some(t);
        }
        Ok(())
    }
}

fn build_op(
    line: usize,
    name: &str,
    key: u64,
    value: Option<u64>,
    len: Option<u32>,
) -> TResult<Operation> {
    match name {
        "read" => Ok(Operation::Read { key }),
        "insert" => Ok(Operation::Insert {
            key,
            value: value.unwrap_or(0),
        }),
        "update" => Ok(Operation::Update {
            key,
            value: value.unwrap_or(0),
        }),
        "scan" => {
            let len =
                len.ok_or_else(|| TraceError::new(line, "len", "scan needs a positive len"))?;
            if len == 0 {
                return Err(TraceError::new(line, "len", "scan needs a positive len"));
            }
            Ok(Operation::Scan { start: key, len })
        }
        "delete" => Ok(Operation::Delete { key }),
        other => Err(unknown_op(line, other)),
    }
}

// ---------------------------------------------------------------------------
// CSV
// ---------------------------------------------------------------------------

/// Parses a CSV trace: a header line naming a subset of
/// `op,key,value,len,ts` (`op` and `key` required), then one record per
/// line. Cells for columns an operation doesn't use stay empty.
pub fn parse_csv(text: &str) -> TResult<Vec<RawEntry>> {
    let mut lines = text.lines().enumerate();
    let Some((_, header_line)) = lines.next() else {
        return Err(TraceError::new(0, "header", "empty trace file"));
    };
    let header: Vec<&str> = header_line.split(',').map(str::trim).collect();
    for col in &header {
        if !COLUMNS.contains(col) {
            return Err(TraceError::new(
                1,
                *col,
                format!(
                    "unknown column '{col}' (known columns: {})",
                    COLUMNS.join(", ")
                ),
            ));
        }
    }
    for (i, col) in header.iter().enumerate() {
        if header[..i].contains(col) {
            return Err(TraceError::new(
                1,
                *col,
                format!("duplicate column '{col}'"),
            ));
        }
    }
    for required in ["op", "key"] {
        if !header.contains(&required) {
            return Err(TraceError::new(
                1,
                required,
                format!("missing required column '{required}'"),
            ));
        }
    }

    let mut entries = Vec::new();
    let mut ts_check = TsChecker::new();
    for (i, raw) in lines {
        let line = i + 1;
        if raw.trim().is_empty() {
            continue;
        }
        let cells: Vec<&str> = raw.split(',').map(str::trim).collect();
        if cells.len() < header.len() {
            return Err(TraceError::new(
                line,
                header[cells.len()],
                format!("line truncated: missing column '{}'", header[cells.len()]),
            ));
        }
        if cells.len() > header.len() {
            return Err(TraceError::new(
                line,
                "row",
                format!("expected {} columns, got {}", header.len(), cells.len()),
            ));
        }
        let cell = |name: &str| -> Option<&str> {
            header
                .iter()
                .position(|c| *c == name)
                .map(|i| cells[i])
                .filter(|c| !c.is_empty())
        };
        let op_name = cell("op").ok_or_else(|| TraceError::new(line, "op", "missing operation"))?;
        let key_cell = cell("key").ok_or_else(|| TraceError::new(line, "key", "missing key"))?;
        let key: u64 = key_cell.parse().map_err(|_| {
            TraceError::new(
                line,
                "key",
                format!("expected an unsigned integer, got '{key_cell}'"),
            )
        })?;
        let value = match cell("value") {
            None => None,
            Some(c) => Some(c.parse::<u64>().map_err(|_| {
                TraceError::new(
                    line,
                    "value",
                    format!("expected an unsigned integer, got '{c}'"),
                )
            })?),
        };
        let len = match cell("len") {
            None => None,
            Some(c) => Some(c.parse::<u32>().map_err(|_| {
                TraceError::new(
                    line,
                    "len",
                    format!("expected an unsigned integer, got '{c}'"),
                )
            })?),
        };
        let ts = match cell("ts") {
            None => None,
            Some(c) => Some(c.parse::<f64>().map_err(|_| {
                TraceError::new(line, "ts", format!("expected a number, got '{c}'"))
            })?),
        };
        ts_check.check(line, ts)?;
        entries.push(RawEntry {
            op: build_op(line, op_name, key, value, len)?,
            ts,
        });
    }
    Ok(entries)
}

// ---------------------------------------------------------------------------
// JSON lines
// ---------------------------------------------------------------------------

fn json_u64(line: usize, field: &str, v: &serde::Value) -> TResult<u64> {
    match v {
        serde::Value::UInt(n) => Ok(*n),
        other => Err(TraceError::new(
            line,
            field,
            format!("expected an unsigned integer, got {other:?}"),
        )),
    }
}

/// Parses a JSON-lines trace: one object per line with keys `op`, `key`,
/// and optionally `value`, `len`, `ts`. Unknown keys are rejected.
pub fn parse_jsonl(text: &str) -> TResult<Vec<RawEntry>> {
    let mut entries = Vec::new();
    let mut ts_check = TsChecker::new();
    let mut any = false;
    for (i, raw) in text.lines().enumerate() {
        let line = i + 1;
        if raw.trim().is_empty() {
            continue;
        }
        any = true;
        let value: serde::Value = serde_json::from_str(raw)
            .map_err(|e| TraceError::new(line, "json", format!("malformed JSON: {e}")))?;
        let Some(obj) = value.as_object() else {
            return Err(TraceError::new(line, "json", "expected a JSON object"));
        };
        for (k, _) in obj {
            if !COLUMNS.contains(&k.as_str()) {
                return Err(TraceError::new(
                    line,
                    k.clone(),
                    format!("unknown key '{k}' (known keys: {})", COLUMNS.join(", ")),
                ));
            }
        }
        let op_name = match serde::Value::get(obj, "op") {
            serde::Value::Str(s) => s.clone(),
            serde::Value::Null => {
                return Err(TraceError::new(line, "op", "missing operation"));
            }
            other => {
                return Err(TraceError::new(
                    line,
                    "op",
                    format!("expected a string, got {other:?}"),
                ));
            }
        };
        let key = match serde::Value::get(obj, "key") {
            serde::Value::Null => {
                return Err(TraceError::new(line, "key", "missing key"));
            }
            v => json_u64(line, "key", v)?,
        };
        let value_field = match serde::Value::get(obj, "value") {
            serde::Value::Null => None,
            v => Some(json_u64(line, "value", v)?),
        };
        let len = match serde::Value::get(obj, "len") {
            serde::Value::Null => None,
            v => {
                let len = json_u64(line, "len", v)?;
                let too_long = |_| {
                    let reason = format!("scan length {len} exceeds {}", u32::MAX);
                    TraceError::new(line, "len", reason)
                };
                Some(u32::try_from(len).map_err(too_long)?)
            }
        };
        let ts = match serde::Value::get(obj, "ts") {
            serde::Value::Null => None,
            serde::Value::Float(t) => Some(*t),
            serde::Value::UInt(t) => Some(*t as f64),
            other => {
                return Err(TraceError::new(
                    line,
                    "ts",
                    format!("expected a number, got {other:?}"),
                ));
            }
        };
        ts_check.check(line, ts)?;
        entries.push(RawEntry {
            op: build_op(line, &op_name, key, value_field, len)?,
            ts,
        });
    }
    if !any {
        return Err(TraceError::new(0, "file", "empty trace file"));
    }
    Ok(entries)
}

// ---------------------------------------------------------------------------
// Canonical export
// ---------------------------------------------------------------------------

fn op_fields(op: &Operation) -> (&'static str, u64, Option<u64>, Option<u32>) {
    match op {
        Operation::Read { key } => ("read", *key, None, None),
        Operation::Insert { key, value } => ("insert", *key, Some(*value), None),
        Operation::Update { key, value } => ("update", *key, Some(*value), None),
        Operation::Scan { start, len } => ("scan", *start, None, Some(*len)),
        Operation::Delete { key } => ("delete", *key, None, None),
    }
}

fn has_timestamps(trace: &Trace) -> bool {
    trace.entries().iter().any(|e| e.arrival > 0.0)
}

/// Renders a trace in canonical CSV form: columns `op,key`, plus `value`
/// iff any entry writes, `len` iff any entry scans, `ts` iff any entry has
/// an open-loop arrival time. Floats render via `{:?}`.
pub fn export_csv(trace: &Trace) -> String {
    let with_value = trace
        .entries()
        .iter()
        .any(|e| matches!(e.op, Operation::Insert { .. } | Operation::Update { .. }));
    let with_len = trace
        .entries()
        .iter()
        .any(|e| matches!(e.op, Operation::Scan { .. }));
    let with_ts = has_timestamps(trace);
    let mut header = vec!["op", "key"];
    if with_value {
        header.push("value");
    }
    if with_len {
        header.push("len");
    }
    if with_ts {
        header.push("ts");
    }
    let mut out = header.join(",");
    out.push('\n');
    for entry in trace.entries() {
        let (name, key, value, len) = op_fields(&entry.op);
        out.push_str(name);
        out.push(',');
        out.push_str(&key.to_string());
        if with_value {
            out.push(',');
            if let Some(v) = value {
                out.push_str(&v.to_string());
            }
        }
        if with_len {
            out.push(',');
            if let Some(l) = len {
                out.push_str(&l.to_string());
            }
        }
        if with_ts {
            out.push(',');
            out.push_str(&format!("{:?}", entry.arrival));
        }
        out.push('\n');
    }
    out
}

/// Renders a trace in canonical JSON-lines form: one object per line with
/// only the keys the operation uses, in `op,key,value,len,ts` order.
pub fn export_jsonl(trace: &Trace) -> String {
    let with_ts = has_timestamps(trace);
    let mut out = String::new();
    for entry in trace.entries() {
        let (name, key, value, len) = op_fields(&entry.op);
        out.push_str(&format!("{{\"op\":\"{name}\",\"key\":{key}"));
        if let Some(v) = value {
            out.push_str(&format!(",\"value\":{v}"));
        }
        if let Some(l) = len {
            out.push_str(&format!(",\"len\":{l}"));
        }
        if with_ts {
            out.push_str(&format!(",\"ts\":{:?}", entry.arrival));
        }
        out.push_str("}\n");
    }
    out
}
