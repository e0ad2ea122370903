//! The scenario-spec parser and schema.
//!
//! The input language is a line-oriented TOML subset (see the README's
//! "Scenario files" section for the full grammar): top-level `key = value`
//! pairs, `[section]` headers for singletons (`[dataset]`, `[run]`,
//! `[sla]`, `[arrival]`, `[open_loop]`), and `[[block]]` headers for the
//! ordered phase chain: `[[phase]]`, `[[holdout]]`, the seven composer
//! blocks (the canonical table lives in the [`spec`](crate::spec) module
//! docs), and fault-injection `[[fault]]` blocks. `BLOCKS` is the one
//! list of header names.
//! Values are integers (decimal or `0x` hex), floats, `"strings"`,
//! booleans, and two-element integer arrays (`key_range = [lo, hi]`).
//!
//! The parser is hand-rolled — no external dependency — and compiles
//! straight to a validated [`Scenario`] through [`Scenario::builder`].
//! Every spec-style file goes through the same reading layer: `lex`
//! (scenarios) or `lex_flat` (fault plans, regression policies) turns
//! text into `Fields`, whose typed readers consume keys and remember
//! where each one stood, so any later check can still reject at the
//! offending line. Every rejection is a positioned [`SpecError`];
//! malformed input must never panic (property-tested in
//! `tests/scenario_spec.rs`), and `tests/spec_rejections.rs` pins the
//! line, field and wording of each one.

use super::compose::{self, Expansion};
use super::SpecError;
use crate::faults::{FaultPlan, FaultSpec, RetryPolicy};
use crate::metrics::sla::SlaPolicy;
use crate::scenario::{
    ArrivalSpec, ClockMode, DatasetSpec, ModePreference, OnlineTrainMode, Scenario, ScenarioBuilder,
};
use lsbench_workload::arrival::{ArrivalProcess, LoadModulation};
use lsbench_workload::families::{LedgerGrowth, Steps, TemplatedRepetition};
use lsbench_workload::keygen::{KeyDistribution, CANONICAL_DISTRIBUTIONS};
use lsbench_workload::ops::OperationMix;
use lsbench_workload::phases::{PhasedWorkload, TransitionKind, WorkloadPhase};

pub(crate) type SResult<T> = Result<T, SpecError>;

/// A zero-argument constructor for a preset [`OperationMix`].
pub type MixPreset = fn() -> OperationMix;

/// Operation-mix presets by spec name — `mix = "ycsb-c"` etc.
pub const MIX_PRESETS: &[(&str, MixPreset)] = &[
    ("ycsb-a", OperationMix::ycsb_a),
    ("ycsb-b", OperationMix::ycsb_b),
    ("ycsb-c", OperationMix::ycsb_c),
    ("ycsb-d", OperationMix::ycsb_d),
    ("ycsb-e", OperationMix::ycsb_e),
    ("range-heavy", OperationMix::range_heavy),
];

// ---------------------------------------------------------------------------
// Lexing: lines → sections of key/value entries.
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Value {
    Int(u64),
    Float(f64),
    Str(String),
    Bool(bool),
    Range(u64, u64),
}

impl Value {
    fn type_name(&self) -> &'static str {
        match self {
            Value::Int(_) => "integer",
            Value::Float(_) => "float",
            Value::Str(_) => "string",
            Value::Bool(_) => "boolean",
            Value::Range(..) => "range array",
        }
    }
}

/// The seven parse-time composer blocks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Composer {
    Diurnal,
    Burst,
    GradualShift,
    GrowingSkew,
    Drift,
    TemplatedRepetition,
    Ledger,
}

/// What a header introduces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Block {
    /// The keys before the first header.
    Root,
    Dataset,
    Run,
    Sla,
    Arrival,
    OpenLoop,
    Phase,
    Holdout,
    Composer(Composer),
    Fault,
}

/// The header vocabulary: `(name, block, repeats)`. A repeating block is
/// written `[[name]]`, a singleton `[name]`; both "known …" hints list the
/// names in this order.
const BLOCKS: &[(&str, Block, bool)] = &[
    ("dataset", Block::Dataset, false),
    ("run", Block::Run, false),
    ("sla", Block::Sla, false),
    ("arrival", Block::Arrival, false),
    ("open_loop", Block::OpenLoop, false),
    ("phase", Block::Phase, true),
    ("holdout", Block::Holdout, true),
    ("diurnal", Block::Composer(Composer::Diurnal), true),
    ("burst", Block::Composer(Composer::Burst), true),
    (
        "gradual_shift",
        Block::Composer(Composer::GradualShift),
        true,
    ),
    ("growing_skew", Block::Composer(Composer::GrowingSkew), true),
    ("drift", Block::Composer(Composer::Drift), true),
    (
        "templated_repetition",
        Block::Composer(Composer::TemplatedRepetition),
        true,
    ),
    ("ledger", Block::Composer(Composer::Ledger), true),
    ("fault", Block::Fault, true),
];

struct Entry {
    key: String,
    value: Value,
    line: usize,
    consumed: bool,
}

struct Section {
    block: Block,
    /// Header name without brackets; `""` for the implicit root section.
    name: &'static str,
    line: usize,
    entries: Vec<Entry>,
}

/// Strips a trailing comment (a `#` outside of double quotes).
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

fn is_ident(s: &str) -> bool {
    !s.is_empty()
        && s.chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphabetic() || c == '_')
        && s.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
}

fn parse_u64_token(tok: &str) -> Option<u64> {
    if let Some(hex) = tok.strip_prefix("0x").or_else(|| tok.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).ok()
    } else if tok.chars().all(|c| c.is_ascii_digit()) && !tok.is_empty() {
        tok.parse().ok()
    } else {
        None
    }
}

fn parse_value(raw: &str) -> Result<Value, String> {
    let raw = raw.trim();
    if raw.is_empty() {
        return Err("missing value after '='".to_string());
    }
    if let Some(rest) = raw.strip_prefix('"') {
        return match rest.strip_suffix('"') {
            Some(inner) if !inner.contains('"') => Ok(Value::Str(inner.to_string())),
            _ => Err("unterminated or malformed string".to_string()),
        };
    }
    if raw == "true" {
        return Ok(Value::Bool(true));
    }
    if raw == "false" {
        return Ok(Value::Bool(false));
    }
    if let Some(rest) = raw.strip_prefix('[') {
        let Some(inner) = rest.strip_suffix(']') else {
            return Err("unterminated array (missing ']')".to_string());
        };
        let ints: Option<Vec<u64>> = inner
            .split(',')
            .map(|p| parse_u64_token(p.trim()))
            .collect();
        return match ints.as_deref() {
            Some([lo, hi]) => Ok(Value::Range(*lo, *hi)),
            _ => Err("arrays must hold exactly two non-negative integers: [lo, hi]".to_string()),
        };
    }
    if let Some(v) = parse_u64_token(raw) {
        return Ok(Value::Int(v));
    }
    match raw.parse::<f64>() {
        Ok(v) if v.is_finite() => Ok(Value::Float(v)),
        Ok(_) => Err("non-finite numbers are not allowed".to_string()),
        Err(_) => Err(format!(
            "unrecognized value '{raw}' (expected number, \"string\", boolean, or [lo, hi])"
        )),
    }
}

/// Resolves a `[name]` or `[[name]]` header line against [`BLOCKS`].
fn parse_header(content: &str, line: usize) -> SResult<(&'static str, Block)> {
    let (open, close, repeats, what) = if content.starts_with("[[") {
        ("[[", "]]", true, "block")
    } else {
        ("[", "]", false, "section")
    };
    let inner = content
        .strip_prefix(open)
        .and_then(|rest| rest.strip_suffix(close));
    let Some(name) = inner.map(str::trim) else {
        let reason = format!("malformed {open}...{close} header");
        return Err(SpecError::new(line, content, reason));
    };
    let hint = match BLOCKS.iter().find(|(known, ..)| *known == name) {
        Some(&(known, block, r)) if r == repeats => return Ok((known, block)),
        Some(_) if repeats => format!("'{name}' is a singleton: write [{name}]"),
        Some(_) => format!("'{name}' repeats: write [[{name}]]"),
        None => {
            let known: Vec<&str> = BLOCKS
                .iter()
                .filter(|(.., r)| *r == repeats)
                .map(|(known, ..)| *known)
                .collect();
            format!("known {what}s: {}", known.join(", "))
        }
    };
    let reason = format!("unknown {what} {open}{name}{close} ({hint})");
    Err(SpecError::new(line, name, reason))
}

fn lex(text: &str) -> SResult<Vec<Section>> {
    let mut sections = vec![Section {
        block: Block::Root,
        name: "",
        line: 1,
        entries: Vec::new(),
    }];
    for (i, raw_line) in text.lines().enumerate() {
        let line = i + 1;
        let err = |field: &str, reason: &str| SpecError::new(line, field, reason);
        let content = strip_comment(raw_line).trim();
        if content.is_empty() {
            continue;
        }
        if content.starts_with('[') {
            let (name, block) = parse_header(content, line)?;
            if !content.starts_with("[[") && sections.iter().any(|s| s.block == block) {
                return Err(err(name, &format!("duplicate section [{name}]")));
            }
            sections.push(Section {
                block,
                name,
                line,
                entries: Vec::new(),
            });
        } else if let Some((key, raw)) = content.split_once('=') {
            let key = key.trim();
            if !is_ident(key) {
                let reason = "keys must be identifiers ([A-Za-z_][A-Za-z0-9_]*)";
                return Err(err(key, reason));
            }
            let value = parse_value(raw).map_err(|reason| err(key, &reason))?;
            let section = sections.last_mut().expect("root section always present");
            if section.entries.iter().any(|e| e.key == key) {
                let reason = format!("duplicate key '{key}' in this section");
                return Err(err(key, &reason));
            }
            section.entries.push(Entry {
                key: key.to_string(),
                value,
                line,
                consumed: false,
            });
        } else {
            let reason = "expected 'key = value', a [section] header, or a comment";
            return Err(err(content, reason));
        }
    }
    Ok(sections)
}

/// Lexes a *flat* spec-style file: root-level keys plus, at most, the
/// `allowed` blocks, each handed to `on_block` in file order. Any other
/// header is refused with `"{refusal}, not '{name}'"` at its line. Returns
/// the root keys.
pub(crate) fn lex_flat(
    text: &str,
    allowed: &[Block],
    refusal: &str,
    mut on_block: impl FnMut(Fields) -> SResult<()>,
) -> SResult<Fields> {
    let mut sections = lex(text)?.into_iter();
    let root = Fields::new(sections.next().expect("root section always present"));
    for section in sections {
        if !allowed.contains(&section.block) {
            let reason = format!("{refusal}, not '{}'", section.name);
            return Err(SpecError::new(section.line, section.name, reason));
        }
        on_block(Fields::new(section))?;
    }
    Ok(root)
}

// ---------------------------------------------------------------------------
// Field access with consumption tracking.
// ---------------------------------------------------------------------------

/// A value type a key can be read as.
pub(crate) trait Typed: Sized {
    /// Completes "expected …, got <type>".
    const EXPECTED: &'static str;
    fn from_value(value: &Value) -> Option<Self>;
}

impl Typed for u64 {
    const EXPECTED: &'static str = "a non-negative integer";
    fn from_value(value: &Value) -> Option<Self> {
        match value {
            Value::Int(v) => Some(*v),
            _ => None,
        }
    }
}

impl Typed for f64 {
    const EXPECTED: &'static str = "a number";
    fn from_value(value: &Value) -> Option<Self> {
        match value {
            Value::Float(v) => Some(*v),
            Value::Int(v) => Some(*v as f64),
            _ => None,
        }
    }
}

impl Typed for String {
    const EXPECTED: &'static str = "a \"string\"";
    fn from_value(value: &Value) -> Option<Self> {
        match value {
            Value::Str(v) => Some(v.clone()),
            _ => None,
        }
    }
}

impl Typed for (u64, u64) {
    const EXPECTED: &'static str = "[lo, hi]";
    fn from_value(value: &Value) -> Option<Self> {
        match value {
            Value::Range(lo, hi) => Some((*lo, *hi)),
            _ => None,
        }
    }
}

/// A section's fields: every read marks its key consumed, and
/// [`Fields::finish`] turns anything left over into a positioned "unknown
/// key" error — the schema is closed by construction. Consumed keys stay,
/// so a check made long after the read ([`Fields::bad`]) still points at
/// the key's own line.
pub(crate) struct Fields {
    /// Header name without brackets; `""` for the root section.
    name: &'static str,
    /// The header's line.
    line: usize,
    entries: Vec<Entry>,
}

impl Fields {
    fn new(section: Section) -> Self {
        Fields {
            name: section.name,
            line: section.line,
            entries: section.entries,
        }
    }

    /// How errors call the section: `[name]`, or `top level`.
    fn section(&self) -> String {
        match self.name {
            "" => "top level".to_string(),
            name => format!("[{name}]"),
        }
    }

    fn has(&self, key: &str) -> bool {
        self.entries.iter().any(|e| e.key == key)
    }

    /// The line `key` stands on; the header's line when it is absent.
    fn line_of(&self, key: &str) -> usize {
        let entry = self.entries.iter().find(|e| e.key == key);
        entry.map_or(self.line, |e| e.line)
    }

    /// An error about `key`, at [`line_of`](Fields::line_of) it.
    fn bad(&self, key: &str, reason: impl Into<String>) -> SpecError {
        SpecError::new(self.line_of(key), key, reason)
    }

    /// An error about the section as a whole, at its header.
    fn at_header(&self, field: &str, reason: impl Into<String>) -> SpecError {
        SpecError::new(self.line, field, reason)
    }

    fn missing(&self, key: &str) -> SpecError {
        self.at_header(key, format!("missing required key in {}", self.section()))
    }

    /// The one formatter of closed-enum misses:
    /// `unknown <what> '<got>' (expected "a", "b", or "c")`, at `key`.
    fn unknown(&self, key: &str, what: &str, got: &str, options: &[&str]) -> SpecError {
        let quoted: Vec<String> = options.iter().map(|o| format!("\"{o}\"")).collect();
        let (last, init) = quoted.split_last().expect("a closed enum has options");
        let list = match init {
            [only] => format!("{only} or {last}"),
            _ => format!("{}, or {last}", init.join(", ")),
        };
        self.bad(key, format!("unknown {what} '{got}' (expected {list})"))
    }

    /// Consumes `key` and hands out its raw value.
    fn take(&mut self, key: &str) -> Option<Value> {
        let entry = self.entries.iter_mut().find(|e| e.key == key)?;
        entry.consumed = true;
        Some(entry.value.clone())
    }

    /// Reads `key` as a `T`; a value of another type is rejected at its
    /// line as "expected `expected`, got <type>".
    fn opt_as<T: Typed>(&mut self, key: &str, expected: &str) -> SResult<Option<T>> {
        let Some(value) = self.take(key) else {
            return Ok(None);
        };
        match T::from_value(&value) {
            Some(v) => Ok(Some(v)),
            None => {
                let reason = format!("expected {expected}, got {}", value.type_name());
                Err(self.bad(key, reason))
            }
        }
    }

    fn opt<T: Typed>(&mut self, key: &str) -> SResult<Option<T>> {
        self.opt_as(key, T::EXPECTED)
    }

    fn req<T: Typed>(&mut self, key: &str) -> SResult<T> {
        self.opt(key)?.ok_or_else(|| self.missing(key))
    }

    /// [`opt`](Fields::opt) plus a range check: a value that fails `ok` is
    /// rejected with `reason` at the key's own line.
    pub(crate) fn opt_if<T: Typed>(
        &mut self,
        key: &str,
        ok: impl Fn(&T) -> bool,
        reason: &str,
    ) -> SResult<Option<T>> {
        match self.opt(key)? {
            Some(v) if !ok(&v) => Err(self.bad(key, reason)),
            v => Ok(v),
        }
    }

    fn req_if<T: Typed>(&mut self, key: &str, ok: impl Fn(&T) -> bool, reason: &str) -> SResult<T> {
        self.opt_if(key, ok, reason)?
            .ok_or_else(|| self.missing(key))
    }

    /// Errors on the first unconsumed key — closes the schema.
    pub(crate) fn finish(&self) -> SResult<()> {
        match self.entries.iter().find(|e| !e.consumed) {
            Some(e) => {
                let reason = format!("unknown key '{}' in {}", e.key, self.section());
                Err(SpecError::new(e.line, &e.key, reason))
            }
            None => Ok(()),
        }
    }
}

// ---------------------------------------------------------------------------
// Schema pieces.
// ---------------------------------------------------------------------------

/// The range checks several keys share, for [`Fields::opt_if`].
fn positive(v: &f64) -> bool {
    v.is_finite() && *v > 0.0
}

fn non_negative(v: &f64) -> bool {
    v.is_finite() && *v >= 0.0
}

/// A transition window: a fraction of the phase in `(0, 1]`.
fn in_window(w: &f64) -> bool {
    *w > 0.0 && *w <= 1.0
}

/// Parses a distribution from `f`: the shape name under `name_key` plus its
/// parameters under `{prefix}{param}` keys (prefixes serve the `from_*` /
/// `to_*` pairs of `[[gradual_shift]]` and `[[drift]]`).
fn take_distribution(f: &mut Fields, name_key: &str, prefix: &str) -> SResult<KeyDistribution> {
    let name: String = f.req(name_key)?;
    let num = |f: &mut Fields, param: &str| f.req::<f64>(&format!("{prefix}{param}"));
    let dist = match name.as_str() {
        "uniform" => KeyDistribution::Uniform,
        "zipf" => KeyDistribution::Zipf {
            theta: num(f, "theta")?,
        },
        "normal" => KeyDistribution::Normal {
            center: num(f, "center")?,
            std_frac: num(f, "std_frac")?,
        },
        "lognormal" => KeyDistribution::LogNormal {
            mu: num(f, "mu")?,
            sigma: num(f, "sigma")?,
        },
        "hotspot" => KeyDistribution::Hotspot {
            hot_span: num(f, "hot_span")?,
            hot_fraction: num(f, "hot_fraction")?,
        },
        "clustered" => KeyDistribution::Clustered {
            clusters: f.req::<u64>(&format!("{prefix}clusters"))? as usize,
            cluster_std_frac: num(f, "cluster_std_frac")?,
        },
        "seq" => KeyDistribution::SequentialNoise {
            noise_frac: num(f, "noise_frac")?,
        },
        other => {
            let known: Vec<&str> = CANONICAL_DISTRIBUTIONS.iter().map(|(n, _)| *n).collect();
            let known = known.join(", ");
            return Err(f.bad(
                name_key,
                format!("unknown distribution '{other}' (known: {known})"),
            ));
        }
    };
    dist.validate()
        .map_err(|e| f.bad(name_key, e.to_string()))?;
    Ok(dist)
}

/// Parses an operation mix: `mix = "<preset>"` or explicit weight keys.
fn take_mix(f: &mut Fields) -> SResult<OperationMix> {
    const WEIGHT_KEYS: &[&str] = &["read", "insert", "update", "scan", "delete", "max_scan_len"];
    if let Some(name) = f.opt_as::<String>("mix", "a preset \"string\"")? {
        if let Some(conflict) = WEIGHT_KEYS.iter().find(|k| f.has(k)) {
            let reason = format!("cannot combine the '{conflict}' weight key with a mix preset");
            return Err(f.bad("mix", reason));
        }
        return match MIX_PRESETS.iter().find(|(n, _)| *n == name) {
            Some((_, preset)) => Ok(preset()),
            None => {
                let known: Vec<&str> = MIX_PRESETS.iter().map(|(n, _)| *n).collect();
                let known = known.join(", ");
                Err(f.bad(
                    "mix",
                    format!("unknown mix preset '{name}' (known: {known})"),
                ))
            }
        };
    }
    let mut any = false;
    let mut weight = |f: &mut Fields, key: &str| -> SResult<f64> {
        let weight = f.opt::<f64>(key)?;
        any |= weight.is_some();
        Ok(weight.unwrap_or(0.0))
    };
    let mix = OperationMix {
        read: weight(f, "read")?,
        insert: weight(f, "insert")?,
        update: weight(f, "update")?,
        scan: weight(f, "scan")?,
        delete: weight(f, "delete")?,
        max_scan_len: f.opt::<u64>("max_scan_len")?.unwrap_or(0) as u32,
    };
    if !any {
        let reason = format!(
            "{} needs an operation mix: a preset (mix = \"ycsb-c\") or weight keys",
            f.section()
        );
        return Err(f.at_header("mix", reason));
    }
    mix.validate()
        .map_err(|e| f.at_header("mix", e.to_string()))?;
    Ok(mix)
}

/// Parses the optional `transition` (+ `window`) pair describing how the
/// previous phase hands over to this block.
fn take_transition(f: &mut Fields) -> SResult<Option<TransitionKind>> {
    let Some(kind) = f.opt_as::<String>("transition", "\"abrupt\" or \"gradual\"")? else {
        if f.has("window") {
            return Err(f.bad("window", "'window' requires transition = \"gradual\""));
        }
        return Ok(None);
    };
    match kind.as_str() {
        "abrupt" if f.has("window") => Err(f.bad(
            "window",
            "'window' only applies to transition = \"gradual\"",
        )),
        "abrupt" => Ok(Some(TransitionKind::Abrupt)),
        "gradual" if !f.has("window") => Err(SpecError::new(
            f.line_of("transition"),
            "window",
            "gradual transitions need a 'window'",
        )),
        "gradual" => {
            let window = f.req_if("window", in_window, "window must be in (0, 1]")?;
            Ok(Some(TransitionKind::Gradual { window }))
        }
        other => Err(f.unknown("transition", "transition", other, &["abrupt", "gradual"])),
    }
}

/// Reads `key_range`, which must be a non-empty `[lo, hi]`.
fn opt_key_range(f: &mut Fields) -> SResult<Option<(u64, u64)>> {
    f.opt_if("key_range", |&(lo, hi)| lo < hi, "range needs lo < hi")
}

fn take_key_range(f: &mut Fields, default_range: Option<(u64, u64)>) -> SResult<(u64, u64)> {
    match opt_key_range(f)?.or(default_range) {
        Some(range) => Ok(range),
        None => {
            let reason = format!(
                "{} needs a key_range (no [dataset] default available)",
                f.section()
            );
            Err(f.at_header("key_range", reason))
        }
    }
}

/// The workload under assembly: phases and the transitions between them.
#[derive(Default)]
struct Chain {
    phases: Vec<WorkloadPhase>,
    transitions: Vec<TransitionKind>,
}

impl Chain {
    /// Appends what block `f` compiled to, joined to the chain by `join`
    /// (abrupt when the block states no transition).
    fn push(
        &mut self,
        f: &Fields,
        (phases, internal): Expansion,
        join: Option<TransitionKind>,
    ) -> SResult<()> {
        if !self.phases.is_empty() {
            self.transitions
                .push(join.unwrap_or(TransitionKind::Abrupt));
        } else if join.is_some() {
            let reason = "the first block of a workload cannot have a transition";
            return Err(f.bad("transition", reason));
        }
        self.phases.extend(phases);
        self.transitions.extend(internal);
        Ok(())
    }

    fn into_workload(self, seed: u64, what: &str) -> SResult<PhasedWorkload> {
        PhasedWorkload::new(self.phases, self.transitions, seed)
            .map_err(|e| SpecError::new(0, what, e.to_string()))
    }
}

/// Compiles a `[[phase]]` / `[[holdout]]` block onto `chain`.
fn compile_phase(
    mut f: Fields,
    default_range: Option<(u64, u64)>,
    chain: &mut Chain,
) -> SResult<()> {
    let transition = take_transition(&mut f)?;
    let dist = take_distribution(&mut f, "distribution", "")?;
    let key_range = take_key_range(&mut f, default_range)?;
    let mix = take_mix(&mut f)?;
    let ops: u64 = f.req("ops")?;
    if ops == 0 {
        return Err(f.at_header("ops", "phase needs at least one operation"));
    }
    let name = f
        .opt::<String>("name")?
        .unwrap_or_else(|| dist.canonical_name().to_string());
    let mut phase = WorkloadPhase::new(name, dist, key_range, mix, ops);
    if let Some(burst) = f.opt_if("concurrency_burst", positive, "must be positive and finite")? {
        phase = phase.with_concurrency_burst(burst);
    }
    f.finish()?;
    chain.push(&f, (vec![phase], vec![]), transition)
}

fn opt_smooth(f: &mut Fields) -> SResult<Option<f64>> {
    f.opt_if("smooth", in_window, "smooth window must be in (0, 1]")
}

/// Compiles one composer block onto `chain`: the keys every composer
/// shares ([`Steps`]), then its own in declaration order. Every block but
/// the ledger — which derives its mix from `append_fraction` — reads a mix
/// first.
fn compile_composer(
    mut f: Fields,
    kind: Composer,
    default_range: Option<(u64, u64)>,
    chain: &mut Chain,
) -> SResult<()> {
    let join = take_transition(&mut f)?;
    let steps = Steps {
        name: f
            .opt::<String>("name")?
            .unwrap_or_else(|| f.name.to_string()),
        steps: f.req("steps")?,
        ops_per_step: f.req("ops_per_step")?,
        key_range: take_key_range(&mut f, default_range)?,
    };
    let expansion = match kind {
        Composer::Diurnal => compose::diurnal(
            &steps,
            take_mix(&mut f)?,
            f.req("period")?,
            f.req("amplitude")?,
            take_distribution(&mut f, "distribution", "")?,
        ),
        Composer::Burst => compose::burst(
            &steps,
            take_mix(&mut f)?,
            f.req("at")?,
            f.req("width")?,
            f.req("factor")?,
            take_distribution(&mut f, "distribution", "")?,
        ),
        Composer::GradualShift => compose::drift(
            &steps,
            take_mix(&mut f)?,
            take_distribution(&mut f, "from", "from_")?,
            take_distribution(&mut f, "to", "to_")?,
            1.0,
            opt_smooth(&mut f)?,
        ),
        Composer::Drift => compose::drift(
            &steps,
            take_mix(&mut f)?,
            take_distribution(&mut f, "from", "from_")?,
            take_distribution(&mut f, "to", "to_")?,
            f.req("alpha")?,
            opt_smooth(&mut f)?,
        ),
        Composer::GrowingSkew => compose::growing_skew(
            &steps,
            take_mix(&mut f)?,
            f.req("start_theta")?,
            f.req("end_theta")?,
            opt_smooth(&mut f)?,
        ),
        Composer::TemplatedRepetition => TemplatedRepetition {
            steps,
            mix: take_mix(&mut f)?,
            templates: f.req("templates")?,
            hot_templates: f.req("hot_templates")?,
            theta: f.req("theta")?,
            churn: f.opt("churn")?.unwrap_or(0.0),
        }
        .expand(),
        Composer::Ledger => LedgerGrowth {
            steps,
            start_frac: f.req("start_frac")?,
            append_fraction: f.req("append_fraction")?,
            recency: f.opt("recency")?.unwrap_or(0.1),
        }
        .expand(),
    };
    f.finish()?;
    let expansion = expansion.map_err(|reason| f.at_header(f.name, reason))?;
    chain.push(&f, expansion, join)
}

/// Compiles one `[[fault]]` block. Returns the fault with its fields, so
/// the window checks that need the fully assembled phase list
/// ([`FaultSpec::check`]) can still reject at the exact line and field.
fn compile_fault(mut f: Fields) -> SResult<(FaultSpec, Fields)> {
    let kind: String = f.req("kind")?;
    let phase = |f: &mut Fields| f.opt::<u64>("phase").map(|p| p.map(|p| p as usize));
    let spec = match kind.as_str() {
        "errors" => {
            let phase = phase(&mut f)?;
            let rate: f64 = f.req("rate")?;
            if !(0.0..=1.0).contains(&rate) {
                let reason = format!("error rate {rate} must be within [0, 1]");
                return Err(f.bad("rate", reason));
            }
            FaultSpec::TransientErrors { phase, rate }
        }
        "latency" => FaultSpec::LatencySpike {
            phase: phase(&mut f)?,
            add_work: f.opt("add_work")?.unwrap_or(0),
            factor: f
                .opt_if(
                    "factor",
                    non_negative,
                    "latency factor must be finite and non-negative",
                )?
                .unwrap_or(1.0),
        },
        "stall" => FaultSpec::Stall {
            phase: f.req::<u64>("phase")? as usize,
            from_op: f.req("from_op")?,
            ops: f.req("ops")?,
            duration: f.req_if(
                "duration",
                positive,
                "stall duration must be positive and finite",
            )?,
        },
        "crash" => FaultSpec::Crash {
            phase: f.req::<u64>("phase")? as usize,
            at_op: f.req("at_op")?,
        },
        other => {
            let kinds = ["errors", "latency", "stall", "crash"];
            return Err(f.unknown("kind", "fault kind", other, &kinds));
        }
    };
    f.finish()?;
    Ok((spec, f))
}

/// The retry-policy keys shared by `[run]` and standalone fault-plan
/// files — `timeout`, `max_retries`, `backoff_base`, `backoff_multiplier`
/// — each optional, each validated at its own line.
#[derive(Default)]
struct PolicyKeys {
    timeout: Option<f64>,
    max_retries: Option<u64>,
    backoff_base: Option<f64>,
    backoff_multiplier: Option<f64>,
}

impl PolicyKeys {
    fn take(f: &mut Fields) -> SResult<PolicyKeys> {
        Ok(PolicyKeys {
            timeout: f.opt_if(
                "timeout",
                positive,
                "per-query timeout must be positive and finite",
            )?,
            max_retries: f.opt_if(
                "max_retries",
                |v| *v <= u32::MAX as u64,
                "retry budget does not fit in 32 bits",
            )?,
            backoff_base: f.opt_if(
                "backoff_base",
                non_negative,
                "must be non-negative and finite",
            )?,
            backoff_multiplier: f.opt_if(
                "backoff_multiplier",
                non_negative,
                "must be non-negative and finite",
            )?,
        })
    }

    /// Whether any policy key appeared.
    fn any(&self) -> bool {
        self.timeout.is_some()
            || self.max_retries.is_some()
            || self.backoff_base.is_some()
            || self.backoff_multiplier.is_some()
    }

    /// The retry policy: the keys that appeared over the defaults.
    fn policy(&self) -> RetryPolicy {
        let d = RetryPolicy::default();
        RetryPolicy {
            timeout: self.timeout,
            max_retries: self.max_retries.map_or(d.max_retries, |v| v as u32),
            backoff_base: self.backoff_base.unwrap_or(d.backoff_base),
            backoff_multiplier: self.backoff_multiplier.unwrap_or(d.backoff_multiplier),
        }
    }
}

// ---------------------------------------------------------------------------
// Singleton sections.
// ---------------------------------------------------------------------------

fn compile_dataset(mut f: Fields) -> SResult<DatasetSpec> {
    let distribution = take_distribution(&mut f, "distribution", "")?;
    let key_range = opt_key_range(&mut f)?.ok_or_else(|| f.missing("key_range"))?;
    let size: u64 = f.req("size")?;
    if size == 0 {
        return Err(f.at_header("size", "dataset size must be positive"));
    }
    let seed = f.req("seed")?;
    f.finish()?;
    Ok(DatasetSpec {
        distribution,
        key_range,
        size: size as usize,
        seed,
    })
}

fn compile_sla(mut f: Fields) -> SResult<SlaPolicy> {
    let policy: String = f.req("policy")?;
    let sla = match policy.as_str() {
        "baseline-p99" => SlaPolicy::FromBaselineP99 {
            multiplier: f.opt("multiplier")?.unwrap_or(4.0),
        },
        "fixed" => SlaPolicy::Fixed {
            threshold: f.req_if("threshold", |t: &f64| *t > 0.0, "must be positive")?,
        },
        other => {
            let policies = ["baseline-p99", "fixed"];
            return Err(f.unknown("policy", "SLA policy", other, &policies));
        }
    };
    f.finish()?;
    Ok(sla)
}

fn compile_arrival(mut f: Fields) -> SResult<ArrivalSpec> {
    let process_name: String = f.req("process")?;
    let rate = f.req("rate")?;
    let process = match process_name.as_str() {
        "poisson" => ArrivalProcess::Poisson { rate },
        "uniform" => ArrivalProcess::Uniform { rate },
        "closed-loop" => {
            let reason = "closed loop is the default — omit the [arrival] section entirely";
            return Err(f.bad("process", reason));
        }
        other => {
            let processes = ["poisson", "uniform"];
            return Err(f.unknown("process", "arrival process", other, &processes));
        }
    };
    process
        .validate()
        .map_err(|e| f.bad("rate", e.to_string()))?;
    let mod_name: String = f.req("modulation")?;
    let modulation = match mod_name.as_str() {
        "constant" => LoadModulation::Constant,
        "diurnal" => LoadModulation::Diurnal {
            period: f.req("period")?,
            amplitude: f.req("amplitude")?,
        },
        "burst" => LoadModulation::Burst {
            period: f.req("period")?,
            burst_len: f.req("burst_len")?,
            multiplier: f.req("multiplier")?,
        },
        other => {
            let modulations = ["constant", "diurnal", "burst"];
            return Err(f.unknown("modulation", "modulation", other, &modulations));
        }
    };
    modulation
        .validate()
        .map_err(|e| f.bad("modulation", e.to_string()))?;
    let seed = f.req("seed")?;
    f.finish()?;
    Ok(ArrivalSpec {
        process,
        modulation,
        seed,
    })
}

/// The `[open_loop]` section: a client population, plus optional
/// `arrival = RATE` sugar for the common Poisson-at-constant-rate case
/// (the full `[arrival]` section remains available for everything else).
/// The sugar is resolved against the root seed and the `[arrival]` section
/// once both are known, so the section's fields come along.
struct OpenLoopSettings {
    clients: u64,
    arrival_rate: Option<f64>,
    fields: Fields,
}

fn compile_open_loop(mut f: Fields) -> SResult<OpenLoopSettings> {
    let clients = f.req("clients")?;
    let arrival_rate = f.opt("arrival")?;
    f.finish()?;
    Ok(OpenLoopSettings {
        clients,
        arrival_rate,
        fields: f,
    })
}

/// Everything `[run]` can set; whatever is absent keeps the builder's
/// default.
#[derive(Default)]
struct RunSettings {
    train_budget: Option<u64>,
    work_units_per_second: Option<f64>,
    maintenance_every: Option<u64>,
    online_train: Option<OnlineTrainMode>,
    mode: Option<ModePreference>,
    clock: Option<ClockMode>,
    holdout_seed: Option<u64>,
    fault_seed: Option<u64>,
    policy: PolicyKeys,
}

fn compile_run(mut f: Fields) -> SResult<RunSettings> {
    let train_budget = match f.take("train_budget") {
        None => None,
        Some(Value::Int(v)) => Some(v),
        Some(Value::Str(s)) if s == "unlimited" => Some(u64::MAX),
        Some(other) => {
            let got = match &other {
                Value::Str(s) => format!("\"{s}\""),
                other => other.type_name().to_string(),
            };
            let reason = format!("expected an integer or \"unlimited\", got {got}");
            return Err(f.bad("train_budget", reason));
        }
    };
    let in_unit = |v: &f64| 0.0 < *v && *v < 1.0;
    let online_train = match f.opt::<String>("online_train")?.as_deref() {
        None if f.has("train_fraction") => {
            let reason = "'train_fraction' requires online_train = \"background\"";
            return Err(f.bad("train_fraction", reason));
        }
        None => None,
        Some("foreground") if f.has("train_fraction") => {
            let reason = "'train_fraction' only applies to online_train = \"background\"";
            return Err(f.bad("train_fraction", reason));
        }
        Some("foreground") => Some(OnlineTrainMode::Foreground),
        Some("background") => Some(OnlineTrainMode::Background {
            fraction: f.req_if("train_fraction", in_unit, "must be in (0, 1)")?,
        }),
        Some(other) => {
            let modes = ["foreground", "background"];
            return Err(f.unknown("online_train", "mode", other, &modes));
        }
    };
    let mode = match f.opt::<String>("mode")? {
        None => None,
        Some(name) => Some(ModePreference::parse(&name).ok_or_else(|| {
            let modes = ["serial", "shared", "sharded", "open-loop"];
            f.unknown("mode", "mode", &name, &modes)
        })?),
    };
    let clock = match f.opt::<String>("clock")? {
        None => None,
        Some(name) => Some(
            ClockMode::parse(&name)
                .ok_or_else(|| f.unknown("clock", "clock", &name, &["sim", "wall"]))?,
        ),
    };
    let settings = RunSettings {
        train_budget,
        online_train,
        mode,
        clock,
        policy: PolicyKeys::take(&mut f)?,
        work_units_per_second: f.opt("work_units_per_second")?,
        maintenance_every: f.opt("maintenance_every")?,
        holdout_seed: f.opt("holdout_seed")?,
        fault_seed: f.opt("fault_seed")?,
    };
    f.finish()?;
    Ok(settings)
}

// ---------------------------------------------------------------------------
// Top-level assembly.
// ---------------------------------------------------------------------------

/// Applies a builder method when the spec set the value.
fn set<T>(
    builder: ScenarioBuilder,
    value: Option<T>,
    with: fn(ScenarioBuilder, T) -> ScenarioBuilder,
) -> ScenarioBuilder {
    match value {
        Some(value) => with(builder, value),
        None => builder,
    }
}

/// Parses spec text into a validated [`Scenario`].
///
/// The single public entry point of the parser layer; file handling lives
/// in [`ScenarioRegistry`](super::ScenarioRegistry).
pub fn parse_scenario(text: &str) -> Result<Scenario, SpecError> {
    let sections = lex(text)?;
    let mut root: Option<Fields> = None;
    let mut dataset: Option<DatasetSpec> = None;
    let mut sla: Option<SlaPolicy> = None;
    let mut arrival: Option<ArrivalSpec> = None;
    let mut open_loop: Option<OpenLoopSettings> = None;
    let mut run = RunSettings::default();
    let mut main_chain = Chain::default();
    let mut holdout_chain = Chain::default();
    let mut first_holdout_line: Option<usize> = None;
    let mut fault_blocks: Vec<(FaultSpec, Fields)> = Vec::new();

    // The dataset's key range is the default for phases; [dataset] nearly
    // always precedes the phase chain, so resolve it in a first pass.
    let default_range = sections
        .iter()
        .filter(|s| s.block == Block::Dataset)
        .flat_map(|s| &s.entries)
        .find(|e| e.key == "key_range")
        .and_then(|e| <(u64, u64)>::from_value(&e.value));

    for section in sections {
        let (block, line) = (section.block, section.line);
        let f = Fields::new(section);
        match block {
            Block::Root => root = Some(f),
            Block::Dataset => dataset = Some(compile_dataset(f)?),
            Block::Sla => sla = Some(compile_sla(f)?),
            Block::Arrival => arrival = Some(compile_arrival(f)?),
            Block::OpenLoop => open_loop = Some(compile_open_loop(f)?),
            Block::Run => run = compile_run(f)?,
            Block::Phase => compile_phase(f, default_range, &mut main_chain)?,
            Block::Holdout => {
                first_holdout_line.get_or_insert(line);
                compile_phase(f, default_range, &mut holdout_chain)?;
            }
            Block::Fault => fault_blocks.push(compile_fault(f)?),
            Block::Composer(kind) => compile_composer(f, kind, default_range, &mut main_chain)?,
        }
    }

    let mut root = root.expect("root section always present");
    let name: String = root.req("name")?;
    let seed = root.req("seed")?;
    root.finish()?;

    let whole_file = |field: &str, reason: &str| SpecError::new(0, field, reason);
    let Some(dataset) = dataset else {
        return Err(whole_file("dataset", "missing required [dataset] section"));
    };
    if main_chain.phases.is_empty() {
        let reason = "spec defines no workload ([[phase]] or composer blocks)";
        return Err(whole_file("phase", reason));
    }
    let workload = main_chain.into_workload(seed, "workload")?;

    // Policy keys alone (no `[[fault]]` blocks) still attach a plan — a
    // timeout/retry policy without injected faults is a valid robustness
    // configuration. Fault windows are validated against the assembled
    // phase list; an out-of-range window is rejected at the exact line of
    // the offending key, not at the end of the file.
    let mut fault_plan = None;
    if !fault_blocks.is_empty() || run.fault_seed.is_some() || run.policy.any() {
        let mut faults = Vec::with_capacity(fault_blocks.len());
        for (spec, f) in fault_blocks {
            spec.check(workload.phases())
                .map_err(|(field, reason)| f.bad(field, reason))?;
            faults.push(spec);
        }
        fault_plan = Some(FaultPlan {
            seed: run.fault_seed.unwrap_or(seed),
            policy: run.policy.policy(),
            faults,
        });
    }

    let mut builder = Scenario::builder(name)
        .dataset_spec(dataset)
        .workload(workload);
    if !holdout_chain.phases.is_empty() {
        let Some(holdout_seed) = run.holdout_seed else {
            return Err(SpecError::new(
                first_holdout_line.unwrap_or(0),
                "holdout_seed",
                "[[holdout]] blocks need 'holdout_seed' in [run]",
            ));
        };
        builder = builder.holdout(holdout_chain.into_workload(holdout_seed, "holdout")?);
    } else if run.holdout_seed.is_some() {
        let reason = "'holdout_seed' set but the spec has no [[holdout]] blocks";
        return Err(whole_file("holdout_seed", reason));
    }
    builder = set(builder, run.train_budget, ScenarioBuilder::train_budget);
    builder = set(
        builder,
        run.work_units_per_second,
        ScenarioBuilder::work_units_per_second,
    );
    builder = set(
        builder,
        run.maintenance_every,
        ScenarioBuilder::maintenance_every,
    );
    builder = set(builder, run.online_train, ScenarioBuilder::online_train);
    builder = set(builder, run.mode, ScenarioBuilder::mode);
    builder = set(builder, run.clock, ScenarioBuilder::clock);
    builder = set(builder, sla, ScenarioBuilder::sla);
    if let Some(settings) = open_loop {
        let f = &settings.fields;
        if let Some(rate) = settings.arrival_rate {
            if arrival.is_some() {
                let reason = "both an [arrival] section and [open_loop] arrival sugar given — \
                              keep one";
                return Err(f.bad("arrival", reason));
            }
            // The sugar normalizes to a full Poisson/constant arrival spec
            // seeded from the root seed, so `parse ∘ render = id` holds.
            let process = ArrivalProcess::Poisson { rate };
            process
                .validate()
                .map_err(|e| f.bad("arrival", e.to_string()))?;
            arrival = Some(ArrivalSpec {
                process,
                modulation: LoadModulation::Constant,
                seed,
            });
        } else if arrival.is_none() {
            let reason = "[open_loop] needs an arrival process: add an [arrival] section or \
                          the 'arrival = RATE' sugar key";
            return Err(f.at_header("open_loop", reason));
        }
        builder = builder.open_loop(settings.clients);
    }
    builder = set(builder, arrival, ScenarioBuilder::arrival);
    builder = set(builder, fault_plan, ScenarioBuilder::faults);
    builder
        .build()
        .map_err(|e| SpecError::new(0, "scenario", e.to_string()))
}

/// Parses a standalone fault-plan file: root-level `seed` (default 0)
/// plus the policy keys `timeout`, `max_retries`, `backoff_base`,
/// `backoff_multiplier`, and any number of `[[fault]]` blocks. Scenario
/// sections are rejected — a plan file describes *only* the perturbation,
/// so one plan composes with any scenario (`--faults FILE` on the CLI).
/// Phase-window validation happens when the plan attaches to a concrete
/// scenario ([`FaultPlan::validate`] via `Scenario::validate`).
pub fn parse_fault_plan(text: &str) -> Result<FaultPlan, SpecError> {
    let mut faults = Vec::new();
    let refusal = "a fault-plan file allows only root keys and [[fault]] blocks";
    let mut root = lex_flat(text, &[Block::Fault], refusal, |f| {
        faults.push(compile_fault(f)?.0);
        Ok(())
    })?;
    let seed = root.opt("seed")?.unwrap_or(0);
    let policy = PolicyKeys::take(&mut root)?.policy();
    root.finish()?;
    Ok(FaultPlan {
        seed,
        policy,
        faults,
    })
}
