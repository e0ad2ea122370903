//! The content-addressed, schema-versioned results store.
//!
//! A saved run is a [`RunArtifact`]: a schema version, a reproduction
//! [`RunManifest`], the manifest's stable digest, and the complete
//! [`RunRecord`]. Artifacts are JSON files under a store directory
//! (default `<workspace>/.lsbench/results/`) whose names embed the
//! manifest digest, so the same run configuration always lands in the
//! same file and two stores can be merged by copying files.
//!
//! Loading is strict by design: an artifact without a `schema_version`, or
//! with the wrong one, is refused with [`StoreError::Schema`]; an artifact
//! whose stored digest does not match its manifest is refused with
//! [`StoreError::ManifestMismatch`]. There is no best-effort parsing — a
//! benchmark result that cannot be trusted end-to-end is worse than no
//! result.
//!
//! Run, capacity and sweep artifacts are three concrete structs (their
//! fields are their JSON bytes) that share one envelope, the [`Artifact`]
//! trait: a schema version, a store subdirectory, a stored manifest digest
//! and a file name. Encoding, strict decoding, saving, loading and listing
//! are written once against that trait.

use super::SCHEMA_VERSION;
use crate::capacity::CapacityReport;
use crate::record::RunRecord;
use crate::report::{workspace_root, write_artifact_to};
use crate::runner::{EngineStats, WallStats};
use crate::scenario::{ClockMode, Scenario};
use crate::spec::render_scenario;
use crate::suite::SuiteResult;
use crate::sweep::curves::SweepCurve;
use crate::BenchError;
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};

/// Errors from the results store. Schema and digest drift get their own
/// variants so callers (and CI) can tell "this artifact is from another
/// era" apart from plain I/O trouble.
#[derive(Debug, Clone, PartialEq)]
pub enum StoreError {
    /// Filesystem operation failed.
    Io(String),
    /// The file is not valid artifact JSON.
    Parse(String),
    /// The artifact is unversioned or carries a different schema version.
    Schema {
        /// Version found in the file (`None` = no `schema_version` field).
        found: Option<u32>,
        /// Version this build reads and writes.
        expected: u32,
    },
    /// The stored digest does not match the digest recomputed from the
    /// stored manifest: the artifact was edited or corrupted after save.
    ManifestMismatch {
        /// Digest recorded in the artifact.
        stored: String,
        /// Digest recomputed from the manifest as loaded.
        computed: String,
    },
    /// No stored artifact matches the query.
    NotFound(String),
    /// More than one stored artifact matches the query.
    Ambiguous {
        /// The query that matched more than once.
        query: String,
        /// File names of all matches.
        matches: Vec<String>,
    },
    /// A store listing tripped over one artifact: `source` is what loading
    /// `file` returned.
    InFile {
        /// Path of the offending artifact file.
        file: String,
        /// The error loading it produced.
        source: Box<StoreError>,
    },
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(m) => write!(f, "store I/O error: {m}"),
            StoreError::Parse(m) => write!(f, "artifact parse error: {m}"),
            StoreError::Schema { found, expected } => match found {
                Some(v) => write!(
                    f,
                    "artifact schema version {v} (this build reads {expected}); refusing to parse"
                ),
                None => write!(
                    f,
                    "artifact has no schema_version field (this build reads {expected}); \
                     refusing unversioned artifacts"
                ),
            },
            StoreError::ManifestMismatch { stored, computed } => write!(
                f,
                "manifest digest mismatch: artifact says {stored} but its manifest hashes to \
                 {computed}; the artifact was modified after it was saved"
            ),
            StoreError::NotFound(q) => write!(f, "no stored artifact matches '{q}'"),
            StoreError::Ambiguous { query, matches } => write!(
                f,
                "'{query}' matches {} artifacts: {}",
                matches.len(),
                matches.join(", ")
            ),
            StoreError::InFile { file, source } => write!(f, "{file}: {source}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<StoreError> for BenchError {
    fn from(e: StoreError) -> Self {
        BenchError::Store(e.to_string())
    }
}

/// Where the run's SUT executed: in this process (the determinism
/// oracle) or behind a `lsbench serve` endpoint. Recorded in the
/// manifest so `lsbench compare` can never silently pair a remote run
/// against a local baseline — the transport surfaces in the report
/// header and in listings.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum Transport {
    /// In-process SUT on the virtual clock.
    #[default]
    Local,
    /// Out-of-process SUT over the wire protocol.
    Remote {
        /// The `host:port` the run connected to.
        endpoint: String,
    },
}

impl std::fmt::Display for Transport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Transport::Local => write!(f, "local"),
            Transport::Remote { endpoint } => write!(f, "remote({endpoint})"),
        }
    }
}

/// Everything needed to reproduce the run an artifact records: the SUT and
/// scenario names, the *rendered canonical spec text* of the scenario
/// (dataset seed, phases, transitions, arrival process, SLA policy, and
/// any attached fault plan all included — `parse ∘ render = id`), the
/// worker count, and the crate version that produced the record.
///
/// The manifest is what gets content-addressed: [`RunManifest::digest`] is
/// a stable hash over its canonical JSON encoding, and the artifact file
/// name embeds it.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RunManifest {
    /// SUT name as resolved by the registry.
    pub sut: String,
    /// Scenario name.
    pub scenario: String,
    /// Canonical spec text of the scenario ([`render_scenario`]), seeds
    /// and fault plan included.
    pub spec: String,
    /// Worker count the run used (1 = serial driver).
    pub concurrency: usize,
    /// `lsbench-core` version that wrote the artifact.
    pub crate_version: String,
    /// Where the SUT executed (local process vs. remote endpoint).
    pub transport: Transport,
    /// Which clock the run reported on (sim vs. wall). Part of the
    /// content address: a wall-clock run can never collide with (or be
    /// silently compared as) its sim twin. New in schema v4.
    pub clock: ClockMode,
}

impl RunManifest {
    /// Builds the manifest for a run of `scenario` (faults attached and
    /// all) by `sut` at `concurrency` workers, stamped with this crate's
    /// version. Transport defaults to [`Transport::Local`]; remote runs
    /// chain [`RunManifest::with_transport`]. Clock defaults to
    /// [`ClockMode::Sim`]; wall runs chain [`RunManifest::with_clock`].
    pub fn for_run(scenario: &Scenario, sut: &str, concurrency: usize) -> Self {
        RunManifest {
            sut: sut.to_string(),
            scenario: scenario.name.clone(),
            spec: render_scenario(scenario),
            concurrency,
            crate_version: env!("CARGO_PKG_VERSION").to_string(),
            transport: Transport::Local,
            clock: ClockMode::Sim,
        }
    }

    /// Stamps the transport the run used.
    pub fn with_transport(mut self, transport: Transport) -> Self {
        self.transport = transport;
        self
    }

    /// Stamps the clock mode the run used.
    pub fn with_clock(mut self, clock: ClockMode) -> Self {
        self.clock = clock;
        self
    }

    /// Stable content digest: FNV-1a (64-bit) over the manifest's compact
    /// canonical JSON, in fixed-width hex. Field order is the struct
    /// declaration order and the JSON writer is deterministic, so equal
    /// manifests always hash equal — across runs, platforms, and worker
    /// counts.
    pub fn digest(&self) -> String {
        digest_of(self)
    }
}

/// The content digest of a manifest of any artifact kind (see
/// [`RunManifest::digest`]).
fn digest_of(manifest: &impl Serialize) -> String {
    let canonical = serde_json::to_string(manifest).expect("manifest serialization is total");
    format!("{:016x}", fnv1a64(canonical.as_bytes()))
}

/// FNV-1a, 64-bit: tiny, dependency-free, and stable — exactly what a
/// content-addressed file name needs (collision resistance against
/// *accidents*, not adversaries).
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A saved run: schema version, manifest digest, manifest, and the
/// complete run record. This is the unit the store saves and loads.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunArtifact {
    /// Schema version ([`SCHEMA_VERSION`]) — checked before anything else
    /// on load.
    pub schema_version: u32,
    /// [`RunManifest::digest`] at save time — revalidated on load.
    pub digest: String,
    /// The reproduction manifest.
    pub manifest: RunManifest,
    /// The complete run record (lossless: `final_metrics` included).
    pub record: RunRecord,
    /// Engine statistics (merged latency histogram, completion intervals,
    /// thread/lane counts) when the run went through the concurrent
    /// engine; `None` for serial-driver runs. New in schema v3.
    pub engine: Option<EngineStats>,
    /// Host wall-clock statistics when the run used `clock = wall`;
    /// `None` for sim runs. Lives beside the record, never inside it, so
    /// a wall artifact's `record` is bit-identical to its sim twin's.
    /// New in schema v4.
    pub wall: Option<WallStats>,
}

impl RunArtifact {
    /// Packages a manifest and record into a versioned, digested artifact.
    /// Engine stats start absent; chain [`RunArtifact::with_engine`] for
    /// engine-path runs and [`RunArtifact::with_wall`] for wall-clock runs.
    pub fn new(manifest: RunManifest, record: RunRecord) -> Self {
        RunArtifact {
            schema_version: SCHEMA_VERSION,
            digest: digest_of(&manifest),
            manifest,
            record,
            engine: None,
            wall: None,
        }
    }

    /// Stamps the engine statistics of the run that produced the record.
    /// The digest stays manifest-only, so stamping stats never changes
    /// which file the artifact stores under.
    pub fn with_engine(mut self, engine: Option<EngineStats>) -> Self {
        self.engine = engine;
        self
    }

    /// Stamps the wall-clock statistics of the run that produced the
    /// record. Digest unaffected, same as [`RunArtifact::with_engine`].
    pub fn with_wall(mut self, wall: Option<WallStats>) -> Self {
        self.wall = wall;
        self
    }

    /// Pretty JSON encoding (trailing newline included).
    pub fn to_json(&self) -> Result<String, StoreError> {
        encode(self)
    }

    /// Strict decode: checks `schema_version` *before* interpreting the
    /// rest, then revalidates the stored digest against the manifest.
    pub fn from_json(text: &str) -> Result<Self, StoreError> {
        decode(text)
    }
}

impl Artifact for RunArtifact {
    const SCHEMA: u32 = SCHEMA_VERSION;
    const SUBDIR: &'static str = "";

    fn digest(&self) -> &str {
        &self.digest
    }

    fn manifest_digest(&self) -> String {
        digest_of(&self.manifest)
    }

    /// `<scenario>-<sut>-t<workers>-<digest>.json` (slugged), so listings
    /// read well while the digest keeps the name content-addressed.
    fn file_name(&self) -> String {
        format!(
            "{}-{}-t{}-{}.json",
            slug(&self.manifest.scenario),
            slug(&self.manifest.sut),
            self.manifest.concurrency,
            self.digest
        )
    }
}

/// Everything needed to reproduce a capacity search: the SUT and scenario
/// names, the rendered canonical spec text of the *base* scenario (before
/// per-probe arrival-rate substitution), the SLA target string as given on
/// the command line, the open-loop client/worker counts, the crate
/// version, and the transport. Content-addressed exactly like
/// [`RunManifest`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CapacityManifest {
    /// SUT name as resolved by the registry.
    pub sut: String,
    /// Scenario name.
    pub scenario: String,
    /// Canonical spec text of the base scenario ([`render_scenario`]).
    pub spec: String,
    /// The SLA target as given (`pNN:MS`, e.g. `p99:5`).
    pub sla: String,
    /// Simulated open-loop clients per probe.
    pub clients: usize,
    /// Worker threads per probe.
    pub workers: usize,
    /// `lsbench-core` version that wrote the artifact.
    pub crate_version: String,
    /// Where the SUT executed (local process vs. remote endpoint).
    pub transport: Transport,
}

impl CapacityManifest {
    /// Builds the manifest for a capacity search of `scenario` by `sut`
    /// under `sla`, stamped with this crate's version. Transport defaults
    /// to [`Transport::Local`]; chain [`CapacityManifest::with_transport`]
    /// for remote searches.
    pub fn for_search(
        scenario: &Scenario,
        sut: &str,
        sla: &str,
        clients: usize,
        workers: usize,
    ) -> Self {
        CapacityManifest {
            sut: sut.to_string(),
            scenario: scenario.name.clone(),
            spec: render_scenario(scenario),
            sla: sla.to_string(),
            clients,
            workers,
            crate_version: env!("CARGO_PKG_VERSION").to_string(),
            transport: Transport::Local,
        }
    }

    /// Stamps the transport the search used.
    pub fn with_transport(mut self, transport: Transport) -> Self {
        self.transport = transport;
        self
    }
}

/// A saved capacity search: schema version, manifest digest, manifest,
/// and the full [`CapacityReport`] (every probe point plus the knee).
/// Stored under the `capacity/` subdirectory of a results store so run
/// and capacity artifacts never shadow each other in listings.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CapacityArtifact {
    /// Schema version ([`SCHEMA_VERSION`]) — checked before anything else
    /// on load.
    pub schema_version: u32,
    /// The manifest's digest at save time — revalidated on load.
    pub digest: String,
    /// The reproduction manifest.
    pub manifest: CapacityManifest,
    /// The search result: probe points and the SLA knee.
    pub report: CapacityReport,
}

impl CapacityArtifact {
    /// Packages a manifest and report into a versioned, digested artifact.
    pub fn new(manifest: CapacityManifest, report: CapacityReport) -> Self {
        CapacityArtifact {
            schema_version: SCHEMA_VERSION,
            digest: digest_of(&manifest),
            manifest,
            report,
        }
    }
}

impl Artifact for CapacityArtifact {
    const SCHEMA: u32 = SCHEMA_VERSION;
    const SUBDIR: &'static str = "capacity";

    fn digest(&self) -> &str {
        &self.digest
    }

    fn manifest_digest(&self) -> String {
        digest_of(&self.manifest)
    }

    /// `<scenario>-<sut>-<sla>-<digest>.json` (slugged).
    fn file_name(&self) -> String {
        format!(
            "{}-{}-{}-{}.json",
            slug(&self.manifest.scenario),
            slug(&self.manifest.sut),
            slug(&self.manifest.sla),
            self.digest
        )
    }
}

/// Version of the serialized [`SweepArtifact`] schema. Sweep artifacts
/// version independently of the run-artifact family ([`SCHEMA_VERSION`]):
/// they live in their own `sweep/` subdirectory, are never cross-read by
/// the run loaders, and started life after v4, so coupling the two would
/// only force pointless migrations. History: v1 = this format's debut
/// (manifest: scenario, base spec text, SUTs, axis, α grid, transport,
/// clock; payload: per-SUT metric curves).
pub const SWEEP_SCHEMA_VERSION: u32 = 1;

/// Everything needed to reproduce a drift sweep: the scenario name, the
/// rendered canonical spec text of the *base* scenario (rung derivation
/// is deterministic from it), the SUT list, the axis as given on the
/// command line plus the expanded α grid, the crate version, transport,
/// and clock. Content-addressed exactly like [`RunManifest`].
///
/// Deliberately absent: worker/thread counts. Lanes are decided by the
/// scenario's execution mode and results never depend on executing
/// thread count, so the same sweep at 1 or 4 workers must produce the
/// same digest — and byte-identical artifacts (the determinism tests pin
/// this).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepManifest {
    /// Scenario name.
    pub scenario: String,
    /// Canonical spec text of the base scenario ([`render_scenario`]).
    pub spec: String,
    /// SUT names, in run order.
    pub suts: Vec<String>,
    /// The drift axis as given (`lo..hixN`, e.g. `0..1x5`).
    pub axis: String,
    /// The expanded monotone α grid, one entry per rung.
    pub alphas: Vec<f64>,
    /// `lsbench-core` version that wrote the artifact.
    pub crate_version: String,
    /// Where the SUTs executed (local process vs. remote endpoint).
    pub transport: Transport,
    /// Which clock the rungs reported on (sim vs. wall).
    pub clock: ClockMode,
}

impl SweepManifest {
    /// Builds the manifest for a sweep of `scenario` by `suts` over
    /// `axis`/`alphas`, stamped with this crate's version. Transport
    /// defaults to [`Transport::Local`] and clock to [`ClockMode::Sim`];
    /// chain [`SweepManifest::with_transport`] /
    /// [`SweepManifest::with_clock`] otherwise.
    pub fn for_sweep(scenario: &Scenario, suts: &[String], axis: &str, alphas: &[f64]) -> Self {
        SweepManifest {
            scenario: scenario.name.clone(),
            spec: render_scenario(scenario),
            suts: suts.to_vec(),
            axis: axis.to_string(),
            alphas: alphas.to_vec(),
            crate_version: env!("CARGO_PKG_VERSION").to_string(),
            transport: Transport::Local,
            clock: ClockMode::Sim,
        }
    }

    /// Stamps the transport the sweep used.
    pub fn with_transport(mut self, transport: Transport) -> Self {
        self.transport = transport;
        self
    }

    /// Stamps the clock mode the sweep used.
    pub fn with_clock(mut self, clock: ClockMode) -> Self {
        self.clock = clock;
        self
    }
}

/// A saved drift sweep: schema version ([`SWEEP_SCHEMA_VERSION`]),
/// manifest digest, manifest, and one metric curve per SUT. Stored under
/// the `sweep/` subdirectory of a results store so sweep, capacity, and
/// run artifacts never shadow each other in listings.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepArtifact {
    /// Schema version ([`SWEEP_SCHEMA_VERSION`]) — checked before
    /// anything else on load.
    pub schema_version: u32,
    /// The manifest's digest at save time — revalidated on load.
    pub digest: String,
    /// The reproduction manifest.
    pub manifest: SweepManifest,
    /// Per-SUT metric-vs-α curves, in manifest SUT order.
    pub curves: Vec<SweepCurve>,
}

impl SweepArtifact {
    /// Packages a manifest and curves into a versioned, digested artifact.
    pub fn new(manifest: SweepManifest, curves: Vec<SweepCurve>) -> Self {
        SweepArtifact {
            schema_version: SWEEP_SCHEMA_VERSION,
            digest: digest_of(&manifest),
            manifest,
            curves,
        }
    }

    /// Pretty JSON encoding (trailing newline included).
    pub fn to_json(&self) -> Result<String, StoreError> {
        encode(self)
    }

    /// Strict decode: checks `schema_version` against
    /// [`SWEEP_SCHEMA_VERSION`] *before* interpreting the rest, then
    /// revalidates the stored digest against the manifest.
    pub fn from_json(text: &str) -> Result<Self, StoreError> {
        decode(text)
    }
}

impl Artifact for SweepArtifact {
    const SCHEMA: u32 = SWEEP_SCHEMA_VERSION;
    const SUBDIR: &'static str = "sweep";

    fn digest(&self) -> &str {
        &self.digest
    }

    fn manifest_digest(&self) -> String {
        digest_of(&self.manifest)
    }

    /// `<scenario>-sweep-<axis>-<digest>.json` (slugged).
    fn file_name(&self) -> String {
        format!(
            "{}-sweep-{}-{}.json",
            slug(&self.manifest.scenario),
            slug(&self.manifest.axis),
            self.digest
        )
    }
}

/// The versioned envelope for `lsbench suite` JSON output: the same
/// `schema_version` discipline as [`RunArtifact`], wrapped around the
/// cross-SUT [`SuiteResult`] list.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SuiteArtifact {
    /// Schema version ([`SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// One result per SUT, in run order.
    pub results: Vec<SuiteResult>,
}

impl SuiteArtifact {
    /// Wraps suite results in the versioned envelope.
    pub fn new(results: Vec<SuiteResult>) -> Self {
        SuiteArtifact {
            schema_version: SCHEMA_VERSION,
            results,
        }
    }

    /// Strict decode: refuses unversioned or version-drifted suite JSON.
    pub fn from_json(text: &str) -> Result<Self, StoreError> {
        decode_versioned(text, SCHEMA_VERSION)
    }
}

/// The envelope shared by every artifact kind a [`ResultStore`] holds. The
/// kinds stay concrete structs — their declared fields *are* the JSON
/// bytes the golden fixtures pin, and the vendored derive does not accept
/// generic types — so what they share is this trait, and the store's
/// encode / decode / save / load / list are written once against it.
pub trait Artifact: Serialize + Deserialize {
    /// The `schema_version` this build reads and writes for the kind.
    const SCHEMA: u32;
    /// The subdirectory of a store the kind lives in (`""` = the store
    /// root), so kinds never shadow each other in listings.
    const SUBDIR: &'static str;

    /// The manifest digest recorded in the artifact when it was packaged.
    fn digest(&self) -> &str;

    /// The digest of the manifest as it is now; differs from
    /// [`Artifact::digest`] exactly when the artifact was edited after it
    /// was packaged.
    fn manifest_digest(&self) -> String;

    /// The content-addressed file name the artifact stores under.
    fn file_name(&self) -> String;
}

/// Pretty JSON encoding (trailing newline included).
fn encode(artifact: &impl Serialize) -> Result<String, StoreError> {
    let mut json =
        serde_json::to_string_pretty(artifact).map_err(|e| StoreError::Parse(e.to_string()))?;
    json.push('\n');
    Ok(json)
}

/// Strict decode: checks `schema_version` against [`Artifact::SCHEMA`]
/// *before* interpreting any other field ([`decode_versioned`]), then
/// revalidates the stored digest against the manifest.
fn decode<A: Artifact>(text: &str) -> Result<A, StoreError> {
    let artifact: A = decode_versioned(text, A::SCHEMA)?;
    let computed = artifact.manifest_digest();
    if computed != artifact.digest() {
        return Err(StoreError::ManifestMismatch {
            stored: artifact.digest().to_string(),
            computed,
        });
    }
    Ok(artifact)
}

/// Finds the first top-level `schema_version` without interpreting (or
/// building) anything else — so version drift is reported as such rather
/// than as a confusing field-level parse error — and only then reads the
/// `T`, in one typed pass over the text.
fn decode_versioned<T: Deserialize>(text: &str, expected: u32) -> Result<T, StoreError> {
    let found = stored_schema_version(text).map_err(|e| StoreError::Parse(e.to_string()))?;
    if found != Some(expected) {
        return Err(StoreError::Schema { found, expected });
    }
    serde_json::from_str(text).map_err(|e| StoreError::Parse(e.to_string()))
}

/// The value of the first `schema_version` key of the object `text` holds
/// (`None`: no such key, or `null`).
fn stored_schema_version(text: &str) -> Result<Option<u32>, serde::DeError> {
    let mut r = serde::Reader::new(text);
    if !r.begin(b'{')? {
        return Err(r.refuse(serde::DeError::custom("artifact is not a JSON object")));
    }
    while let Some(key) = r.next_key()? {
        if key != "schema_version" {
            r.skip()?;
            continue;
        }
        return match serde::Value::read(&mut r)? {
            serde::Value::UInt(v) if v <= u32::MAX as u64 => Ok(Some(v as u32)),
            serde::Value::Null => Ok(None),
            other => Err(serde::DeError(format!(
                "schema_version must be an integer, got {other:?}"
            ))),
        };
    }
    Ok(None)
}

/// Lowercases and maps every non-alphanumeric run to a single `-` so SUT
/// and scenario names are safe in file names.
fn slug(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut dash = true; // suppress a leading dash
    for c in s.chars() {
        if c.is_ascii_alphanumeric() {
            out.push(c.to_ascii_lowercase());
            dash = false;
        } else if !dash {
            out.push('-');
            dash = true;
        }
    }
    while out.ends_with('-') {
        out.pop();
    }
    if out.is_empty() {
        out.push('x');
    }
    out
}

/// One row of [`ResultStore::list`]: enough to identify an artifact
/// without holding its full record.
#[derive(Debug, Clone, PartialEq)]
pub struct StoreEntry {
    /// Full path of the artifact file.
    pub path: PathBuf,
    /// File name (the stable identity within a store).
    pub file: String,
    /// Manifest digest.
    pub digest: String,
    /// SUT name from the manifest.
    pub sut: String,
    /// Scenario name from the manifest.
    pub scenario: String,
    /// Worker count from the manifest.
    pub concurrency: usize,
    /// Completed operations in the stored record.
    pub completed: usize,
    /// Where the SUT executed.
    pub transport: Transport,
}

/// A directory of artifact files: runs in the root, every other
/// [`Artifact`] kind in its own subdirectory, with save/load/list/find.
#[derive(Debug, Clone)]
pub struct ResultStore {
    dir: PathBuf,
}

impl ResultStore {
    /// Opens (creating if needed) a store at `dir`.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self, StoreError> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)
            .map_err(|e| StoreError::Io(format!("cannot create {}: {e}", dir.display())))?;
        Ok(ResultStore { dir })
    }

    /// The default store location: `<workspace>/.lsbench/results/`.
    pub fn default_dir() -> PathBuf {
        workspace_root().join(".lsbench").join("results")
    }

    /// Opens the default store ([`ResultStore::default_dir`]).
    pub fn open_default() -> Result<Self, StoreError> {
        Self::open(Self::default_dir())
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Saves an artifact of any kind under its content-addressed file name
    /// in the kind's subdirectory, routed through the same write path as
    /// every other lsbench artifact. Saving the same manifest again
    /// overwrites the same file.
    pub fn save<A: Artifact>(&self, artifact: &A) -> Result<PathBuf, StoreError> {
        let json = encode(artifact)?;
        write_artifact_to(&self.dir.join(A::SUBDIR), &artifact.file_name(), &json)
            .map_err(|e| StoreError::Io(e.to_string()))
    }

    /// Loads and strictly validates the artifact of kind `A` at `path`
    /// (any path, not necessarily inside a store).
    pub fn load_as<A: Artifact>(path: &Path) -> Result<A, StoreError> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| StoreError::Io(format!("cannot read {}: {e}", path.display())))?;
        decode(&text).map_err(|e| match e {
            StoreError::Parse(m) => StoreError::Parse(format!("{}: {m}", path.display())),
            other => other,
        })
    }

    /// [`ResultStore::load_as`] for run artifacts.
    pub fn load_path(path: &Path) -> Result<RunArtifact, StoreError> {
        Self::load_as(path)
    }

    /// The files of kind `A` in the store, sorted by name: the `*.json`
    /// files directly in the kind's subdirectory (anything else there, and
    /// every other kind's subdirectory, is not looked at). An absent
    /// subdirectory lists as empty.
    pub fn paths<A: Artifact>(&self) -> Result<Vec<PathBuf>, StoreError> {
        let dir = self.dir.join(A::SUBDIR);
        if !dir.is_dir() {
            return Ok(Vec::new());
        }
        let read = std::fs::read_dir(&dir)
            .map_err(|e| StoreError::Io(format!("cannot read {}: {e}", dir.display())))?;
        let mut paths: Vec<PathBuf> = read
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|x| x == "json"))
            .collect();
        paths.sort();
        Ok(paths)
    }

    /// Loads a run artifact by identifier: an existing file path, a
    /// digest (or unique digest prefix), or a unique substring of the
    /// entry's `sut`/`scenario`/file name.
    pub fn load(&self, id: &str) -> Result<RunArtifact, StoreError> {
        let as_path = Path::new(id);
        if as_path.is_file() {
            return Self::load_path(as_path);
        }
        // A full digest is the content address and the file name embeds
        // it, so it resolves like a path: without loading the rest of the
        // store, and with exactly `load_path`'s errors.
        let addressed = format!("-{id}.json");
        let mut named = self.paths::<RunArtifact>()?;
        named.retain(|p| file_name_of(p).ends_with(&addressed));
        if let [path] = named.as_slice() {
            return Self::load_path(path);
        }
        let entry = self.find(id)?;
        Self::load_path(&entry.path)
    }

    /// Lists every run artifact in the store, sorted by file name. Strict
    /// like everything else here: one invalid artifact fails the listing
    /// with an error naming the file, because a store with unreadable
    /// entries should be repaired, not skimmed.
    pub fn list(&self) -> Result<Vec<StoreEntry>, StoreError> {
        let paths = self.paths::<RunArtifact>()?;
        let mut out = Vec::with_capacity(paths.len());
        for path in paths {
            let artifact = Self::load_path(&path).map_err(|e| match e {
                // These two already carry the path in their text.
                StoreError::Io(_) | StoreError::Parse(_) => e,
                other => StoreError::InFile {
                    file: path.display().to_string(),
                    source: Box::new(other),
                },
            })?;
            out.push(StoreEntry {
                file: file_name_of(&path),
                digest: artifact.digest,
                sut: artifact.manifest.sut,
                scenario: artifact.manifest.scenario,
                concurrency: artifact.manifest.concurrency,
                completed: artifact.record.ops.len(),
                transport: artifact.manifest.transport,
                path,
            });
        }
        Ok(out)
    }

    /// Finds the unique entry matching `query`: first by digest prefix,
    /// then by substring over `sut`, `scenario`, and file name. Zero
    /// matches is [`StoreError::NotFound`]; several are
    /// [`StoreError::Ambiguous`] with the candidates listed.
    pub fn find(&self, query: &str) -> Result<StoreEntry, StoreError> {
        let entries = self.list()?;
        let by_digest: Vec<&StoreEntry> = entries
            .iter()
            .filter(|e| !query.is_empty() && e.digest.starts_with(query))
            .collect();
        let matches: Vec<&StoreEntry> = if by_digest.is_empty() {
            entries
                .iter()
                .filter(|e| {
                    e.sut.contains(query) || e.scenario.contains(query) || e.file.contains(query)
                })
                .collect()
        } else {
            by_digest
        };
        match matches.as_slice() {
            [] => Err(StoreError::NotFound(query.to_string())),
            [one] => Ok((*one).clone()),
            many => Err(StoreError::Ambiguous {
                query: query.to_string(),
                matches: many.iter().map(|e| e.file.clone()).collect(),
            }),
        }
    }
}

fn file_name_of(path: &Path) -> String {
    path.file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::FaultStats;
    use crate::record::{OpRecord, TrainInfo};
    use lsbench_sut::sut::SutMetrics;

    fn tiny_record(sut: &str) -> RunRecord {
        RunRecord {
            sut_name: sut.to_string(),
            scenario_name: "store-test".to_string(),
            phase_names: vec!["p0".to_string()],
            ops: vec![OpRecord {
                t_end: 0.5,
                latency: 0.5,
                phase: 0,
                ok: true,
                in_transition: false,
            }],
            phase_change_times: vec![(0, 0.0)],
            train: TrainInfo::default(),
            exec_start: 0.0,
            exec_end: 0.5,
            final_metrics: SutMetrics::default(),
            work_units_per_second: 1.0,
            faults: FaultStats::default(),
        }
    }

    fn manifest(sut: &str) -> RunManifest {
        RunManifest {
            sut: sut.to_string(),
            scenario: "store-test".to_string(),
            spec: "name = \"store-test\"\n".to_string(),
            concurrency: 1,
            crate_version: "0.0.0-test".to_string(),
            transport: Transport::Local,
            clock: ClockMode::Sim,
        }
    }

    fn tiny_capacity() -> CapacityArtifact {
        use crate::capacity::{CapacityPoint, CapacityReport, SlaTarget};
        let manifest = CapacityManifest {
            sut: "btree".to_string(),
            scenario: "store-test".to_string(),
            spec: "name = \"store-test\"\n".to_string(),
            sla: "p99:5".to_string(),
            clients: 1000,
            workers: 4,
            crate_version: "0.0.0-test".to_string(),
            transport: Transport::Local,
        };
        let report = CapacityReport {
            sla: SlaTarget {
                quantile: 0.99,
                threshold_seconds: 0.005,
            },
            points: vec![CapacityPoint {
                rate: 100.0,
                latency_seconds: 0.001,
                throughput: 99.0,
                completed: 1000,
                met: true,
            }],
            knee_rate: 100.0,
            saturated: false,
        };
        CapacityArtifact::new(manifest, report)
    }

    fn tiny_sweep() -> SweepArtifact {
        use crate::sweep::curves::{SweepCurve, SweepPoint};
        let manifest = SweepManifest {
            scenario: "store-test".to_string(),
            spec: "name = \"store-test\"\n".to_string(),
            suts: vec!["btree".to_string(), "rmi".to_string()],
            axis: "0..1x2".to_string(),
            alphas: vec![0.0, 1.0],
            crate_version: "0.0.0-test".to_string(),
            transport: Transport::Local,
            clock: ClockMode::Sim,
        };
        let curves = vec![SweepCurve {
            sut: "btree".to_string(),
            points: vec![SweepPoint {
                alpha: 0.0,
                adaptability_area: -0.01,
                adjustment_speed: 0.5,
                sla_violation_rate: 0.1,
                specialization_spread: 1.25,
            }],
        }];
        SweepArtifact::new(manifest, curves)
    }

    fn temp_store(tag: &str) -> (ResultStore, PathBuf) {
        let dir =
            std::env::temp_dir().join(format!("lsbench-store-test-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        (ResultStore::open(&dir).unwrap(), dir)
    }

    #[test]
    fn digest_is_stable_and_content_sensitive() {
        let m = manifest("a");
        assert_eq!(m.digest(), m.clone().digest());
        assert_eq!(m.digest().len(), 16);
        let mut other = manifest("a");
        other.concurrency = 4;
        assert_ne!(m.digest(), other.digest());
    }

    #[test]
    fn save_load_round_trips_and_is_idempotent() {
        let (store, dir) = temp_store("roundtrip");
        let artifact = RunArtifact::new(manifest("btree"), tiny_record("btree"));
        let p1 = store.save(&artifact).unwrap();
        let p2 = store.save(&artifact).unwrap();
        assert_eq!(p1, p2, "same manifest → same file");
        let back = store.load(&artifact.digest).unwrap();
        assert_eq!(back, artifact);
        // Also loadable by digest prefix, substring, and path.
        assert_eq!(store.load(&artifact.digest[..6]).unwrap(), artifact);
        assert_eq!(store.load("btree").unwrap(), artifact);
        assert_eq!(store.load(p1.to_str().unwrap()).unwrap(), artifact);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn list_and_find_disambiguate() {
        let (store, dir) = temp_store("find");
        let a = RunArtifact::new(manifest("btree"), tiny_record("btree"));
        let b = RunArtifact::new(manifest("rmi"), tiny_record("rmi"));
        store.save(&a).unwrap();
        store.save(&b).unwrap();
        let entries = store.list().unwrap();
        assert_eq!(entries.len(), 2);
        assert!(entries.iter().all(|e| e.scenario == "store-test"));
        assert_eq!(store.find("rmi").unwrap().sut, "rmi");
        assert!(matches!(
            store.find("store-test"),
            Err(StoreError::Ambiguous { .. })
        ));
        assert!(matches!(
            store.find("nonexistent"),
            Err(StoreError::NotFound(_))
        ));
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn transport_is_recorded_listed_and_content_addressed() {
        let (store, dir) = temp_store("transport");
        let remote = manifest("btree").with_transport(Transport::Remote {
            endpoint: "127.0.0.1:9999".to_string(),
        });
        let artifact = RunArtifact::new(remote.clone(), tiny_record("btree"));
        store.save(&artifact).unwrap();
        let entries = store.list().unwrap();
        assert_eq!(
            entries[0].transport,
            Transport::Remote {
                endpoint: "127.0.0.1:9999".to_string()
            }
        );
        assert_eq!(entries[0].transport.to_string(), "remote(127.0.0.1:9999)");
        assert_eq!(Transport::default().to_string(), "local");
        // The transport participates in the content address: a remote run
        // can never collide with its local twin.
        assert_ne!(manifest("btree").digest(), remote.digest());
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn unversioned_artifacts_are_refused() {
        let artifact = RunArtifact::new(manifest("x"), tiny_record("x"));
        let json = artifact.to_json().unwrap();
        let stripped = json.replacen("\"schema_version\": 4,\n", "", 1);
        assert_ne!(json, stripped, "fixture must actually strip the field");
        match RunArtifact::from_json(&stripped) {
            Err(StoreError::Schema {
                found: None,
                expected,
            }) => {
                assert_eq!(expected, SCHEMA_VERSION)
            }
            other => panic!("expected unversioned refusal, got {other:?}"),
        }
    }

    #[test]
    fn version_drift_is_refused() {
        let artifact = RunArtifact::new(manifest("x"), tiny_record("x"));
        let json = artifact.to_json().unwrap().replacen(
            "\"schema_version\": 4",
            "\"schema_version\": 999",
            1,
        );
        assert!(matches!(
            RunArtifact::from_json(&json),
            Err(StoreError::Schema {
                found: Some(999),
                ..
            })
        ));
    }

    #[test]
    fn manifest_tampering_is_refused() {
        let artifact = RunArtifact::new(manifest("x"), tiny_record("x"));
        let json =
            artifact
                .to_json()
                .unwrap()
                .replacen("\"sut\": \"x\"", "\"sut\": \"tampered\"", 1);
        assert!(matches!(
            RunArtifact::from_json(&json),
            Err(StoreError::ManifestMismatch { .. })
        ));
    }

    #[test]
    fn capacity_artifacts_round_trip_in_their_own_subdirectory() {
        let (store, dir) = temp_store("capacity");
        let artifact = tiny_capacity();
        let p1 = store.save(&artifact).unwrap();
        let p2 = store.save(&artifact).unwrap();
        assert_eq!(p1, p2, "same manifest → same file");
        assert!(p1.starts_with(store.dir().join("capacity")));
        let back = ResultStore::load_as::<CapacityArtifact>(&p1).unwrap();
        assert_eq!(back, artifact);
        assert_eq!(store.paths::<CapacityArtifact>().unwrap(), vec![p1]);
        // Capacity artifacts never leak into the run listing, and run
        // listings never fail because a capacity artifact exists.
        assert!(store.list().unwrap().is_empty());
        // Tampering with the manifest is refused just like run artifacts.
        let tampered =
            encode(&artifact)
                .unwrap()
                .replacen("\"sla\": \"p99:5\"", "\"sla\": \"p50:5\"", 1);
        assert!(matches!(
            decode::<CapacityArtifact>(&tampered),
            Err(StoreError::ManifestMismatch { .. })
        ));
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn sweep_artifacts_round_trip_in_their_own_subdirectory() {
        let (store, dir) = temp_store("sweep");
        let artifact = tiny_sweep();
        assert_eq!(artifact.schema_version, SWEEP_SCHEMA_VERSION);
        let p1 = store.save(&artifact).unwrap();
        let p2 = store.save(&artifact).unwrap();
        assert_eq!(p1, p2, "same manifest → same file");
        assert!(p1.starts_with(store.dir().join("sweep")));
        let back = ResultStore::load_as::<SweepArtifact>(&p1).unwrap();
        assert_eq!(back, artifact);
        assert_eq!(store.paths::<SweepArtifact>().unwrap(), vec![p1]);
        // Sweep artifacts never leak into (or break) run listings.
        assert!(store.list().unwrap().is_empty());
        // Tampering with the manifest is refused just like run artifacts.
        let tampered =
            artifact
                .to_json()
                .unwrap()
                .replacen("\"axis\": \"0..1x2\"", "\"axis\": \"0..1x9\"", 1);
        assert!(matches!(
            SweepArtifact::from_json(&tampered),
            Err(StoreError::ManifestMismatch { .. })
        ));
        // A run-schema version (4) in a sweep artifact is version drift,
        // not a pass: the families version independently.
        let drifted = artifact.to_json().unwrap().replacen(
            "\"schema_version\": 1",
            "\"schema_version\": 4",
            1,
        );
        assert!(matches!(
            SweepArtifact::from_json(&drifted),
            Err(StoreError::Schema {
                found: Some(4),
                expected: SWEEP_SCHEMA_VERSION,
            })
        ));
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn clock_mode_is_content_addressed_and_wall_stats_stamp_cleanly() {
        let sim = manifest("btree");
        let wall = manifest("btree").with_clock(ClockMode::Wall);
        // The clock participates in the content address: a wall-clock run
        // can never collide with (or silently replace) its sim twin.
        assert_ne!(sim.digest(), wall.digest());
        let plain = RunArtifact::new(wall.clone(), tiny_record("btree"));
        let stamped =
            RunArtifact::new(wall, tiny_record("btree")).with_wall(Some(WallStats::coarse(1.5, 3)));
        assert_eq!(plain.digest, stamped.digest, "digest is manifest-only");
        assert!(plain.wall.is_none());
        let json = stamped.to_json().unwrap();
        let back = RunArtifact::from_json(&json).unwrap();
        assert_eq!(back, stamped, "wall stats survive the store losslessly");
        assert_eq!(back.wall.as_ref().unwrap().ops, 3);
        assert_eq!(back.manifest.clock, ClockMode::Wall);
    }

    #[test]
    fn engine_stats_are_stamped_without_changing_the_digest() {
        use crate::runner::EngineStats;
        use lsbench_stats::{IntervalCounts, LatencyHistogram};
        let plain = RunArtifact::new(manifest("btree"), tiny_record("btree"));
        let mut latency = LatencyHistogram::new();
        latency.record(500_000_000);
        let stamped = RunArtifact::new(manifest("btree"), tiny_record("btree")).with_engine(Some(
            EngineStats {
                latency,
                completions: IntervalCounts::new(0.0, 0.5).unwrap(),
                threads: 4,
                lanes: 1000,
            },
        ));
        assert_eq!(plain.digest, stamped.digest, "digest is manifest-only");
        assert_eq!(plain.file_name(), stamped.file_name());
        assert!(plain.engine.is_none());
        let json = stamped.to_json().unwrap();
        let back = RunArtifact::from_json(&json).unwrap();
        assert_eq!(back, stamped, "engine stats survive the store losslessly");
    }

    #[test]
    fn suite_envelope_round_trips_and_is_strict() {
        let result = SuiteResult {
            sut_name: "btree".to_string(),
            summaries: vec![],
        };
        let envelope = SuiteArtifact::new(vec![result]);
        let json = serde_json::to_string_pretty(&envelope).unwrap();
        let back = SuiteArtifact::from_json(&json).unwrap();
        assert_eq!(back, envelope);
        assert!(matches!(
            SuiteArtifact::from_json("{\"results\": []}"),
            Err(StoreError::Schema { found: None, .. })
        ));
    }

    #[test]
    fn listing_errors_name_the_damaged_file_whatever_the_damage() {
        let (store, dir) = temp_store("named");
        store
            .save(&RunArtifact::new(manifest("rmi"), tiny_record("rmi")))
            .unwrap();
        let victim = store
            .save(&RunArtifact::new(manifest("btree"), tiny_record("btree")))
            .unwrap();
        let intact = std::fs::read_to_string(&victim).unwrap();
        let name = file_name_of(&victim);
        for damaged in [
            intact.replacen("\"schema_version\": 4", "\"schema_version\": 3", 1),
            intact.replacen("\"sut\": \"btree\"", "\"sut\": \"edited\"", 1),
            intact[..intact.len() / 2].to_string(),
        ] {
            assert_ne!(damaged, intact);
            std::fs::write(&victim, &damaged).unwrap();
            for error in [
                store.list().unwrap_err(),
                store.find("rmi").unwrap_err(),
                store.load("rmi").unwrap_err(),
            ] {
                assert!(error.to_string().contains(&name), "{error}");
            }
            // What `load_path` itself returns is unchanged: the bare variant.
            assert!(!matches!(
                ResultStore::load_path(&victim),
                Ok(_) | Err(StoreError::InFile { .. })
            ));
        }
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn digest_prefixes_are_ambiguous_until_they_are_not() {
        let (store, dir) = temp_store("prefix");
        // Find two manifests whose digests share their first hex digit.
        let mut by_first = std::collections::BTreeMap::new();
        let (a, b) = (1..)
            .find_map(|workers| {
                let mut m = manifest("btree");
                m.concurrency = workers;
                let first = m.digest().remove(0);
                by_first
                    .insert(first, m.clone())
                    .map(|earlier| (earlier, m))
            })
            .unwrap();
        let (a, b) = (
            RunArtifact::new(a, tiny_record("btree")),
            RunArtifact::new(b, tiny_record("btree")),
        );
        store.save(&a).unwrap();
        store.save(&b).unwrap();
        match store.find(&a.digest[..1]) {
            Err(StoreError::Ambiguous { matches, .. }) => {
                assert_eq!(matches.len(), 2);
                assert!(matches.contains(&a.file_name()) && matches.contains(&b.file_name()));
            }
            other => panic!("expected both candidates, got {other:?}"),
        }
        assert_eq!(store.find(&a.digest).unwrap().digest, a.digest);
        assert_eq!(store.load(&b.digest).unwrap(), b);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn paths_ignores_everything_but_the_kinds_own_json_files() {
        let (store, dir) = temp_store("paths");
        let run = store
            .save(&RunArtifact::new(manifest("btree"), tiny_record("btree")))
            .unwrap();
        let capacity = store.save(&tiny_capacity()).unwrap();
        std::fs::write(dir.join("notes.txt"), "not an artifact").unwrap();
        std::fs::create_dir_all(dir.join("scratch")).unwrap();
        assert_eq!(store.paths::<RunArtifact>().unwrap(), vec![run.clone()]);
        assert_eq!(store.paths::<CapacityArtifact>().unwrap(), vec![capacity]);
        assert!(store.paths::<SweepArtifact>().unwrap().is_empty());
        assert_eq!(store.list().unwrap().len(), 1);

        // A run file copied into `capacity/` is refused by the capacity
        // loader as what it is — another kind — not misread.
        let stray = dir.join("capacity").join(file_name_of(&run));
        std::fs::copy(&run, &stray).unwrap();
        assert!(matches!(
            ResultStore::load_as::<CapacityArtifact>(&stray),
            Err(StoreError::Parse(_))
        ));
        let _ = std::fs::remove_dir_all(dir);
    }

    /// A save goes through a temporary sibling and a rename: one that
    /// fails midway leaves the artifact that was there, and one that
    /// succeeds leaves nothing beside it.
    #[test]
    fn a_failed_save_keeps_the_old_artifact_and_a_good_one_leaves_no_temp() {
        let (store, dir) = temp_store("atomic");
        let artifact = RunArtifact::new(manifest("btree"), tiny_record("btree"));
        let path = store.save(&artifact).unwrap();
        let path_again = store.save(&artifact).unwrap();
        assert_eq!(path, path_again);
        let names: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(names, vec![path.file_name().unwrap()]);
        assert_eq!(store.paths::<RunArtifact>().unwrap(), vec![path]);

        // The longest file name there is: the temporary sibling's is longer
        // still, so it cannot be created and the write fails before the
        // rename.
        let name = format!("{}.json", "a".repeat(250));
        std::fs::write(dir.join(&name), "old bytes").unwrap();
        assert!(write_artifact_to(&dir, &name, "new bytes").is_err());
        assert_eq!(
            std::fs::read_to_string(dir.join(&name)).unwrap(),
            "old bytes"
        );
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 2);
        let _ = std::fs::remove_dir_all(dir);
    }

    /// What a decoder made of a text, reduced to what the hostile-input
    /// properties compare: the artifact re-encoded.
    type Decoded = Result<String, StoreError>;

    fn through<A: Artifact>(text: &str) -> Decoded {
        let artifact: A = decode(text)?;
        assert_eq!(artifact.digest(), artifact.manifest_digest());
        encode(&artifact)
    }

    fn through_suite(text: &str) -> Decoded {
        encode(&SuiteArtifact::from_json(text)?)
    }

    type Decoder = fn(&str) -> Decoded;

    /// One valid encoded artifact per kind, with the kind's decoder.
    fn specimens() -> Vec<(String, Decoder)> {
        let run = RunArtifact::new(manifest("btree"), tiny_record("btree"));
        let suite = SuiteArtifact::new(vec![SuiteResult {
            sut_name: "btree".to_string(),
            summaries: vec![],
        }]);
        vec![
            (encode(&run).unwrap(), through::<RunArtifact>),
            (
                encode(&tiny_capacity()).unwrap(),
                through::<CapacityArtifact>,
            ),
            (encode(&tiny_sweep()).unwrap(), through::<SweepArtifact>),
            (encode(&suite).unwrap(), through_suite),
        ]
    }

    #[test]
    fn every_kind_refuses_every_other_kinds_json() {
        let specimens = specimens();
        for (i, (json, _)) in specimens.iter().enumerate() {
            for (j, (_, decoder)) in specimens.iter().enumerate() {
                match decoder(json) {
                    Ok(back) => assert!(i == j && back == *json),
                    Err(e) => assert!(
                        i != j && matches!(e, StoreError::Parse(_) | StoreError::Schema { .. }),
                        "kind {i} through decoder {j}: {e}"
                    ),
                }
            }
        }
    }

    #[test]
    fn a_schema_version_that_is_not_a_u32_is_a_parse_error() {
        for (json, decoder) in specimens() {
            let version = json.lines().nth(1).unwrap().trim().trim_end_matches(',');
            assert!(version.starts_with("\"schema_version\": "), "{version}");
            let most_negative = i64::MIN.to_string();
            let beyond = format!("{most_negative}0");
            for hostile in [
                "\"4\"",
                "-4",
                "4294967296",
                "4.0",
                "[4]",
                "true",
                &most_negative,
                &beyond,
            ] {
                let text = json.replacen(version, &format!("\"schema_version\": {hostile}"), 1);
                assert!(
                    matches!(decoder(&text), Err(StoreError::Parse(_))),
                    "schema_version {hostile}"
                );
            }
            // The version is judged before anything else is interpreted: a
            // drifted artifact whose payload is gone is drift, not a parse
            // error.
            let hollow = "{\n  \"schema_version\": 999\n}";
            assert!(matches!(
                decoder(hollow),
                Err(StoreError::Schema {
                    found: Some(999),
                    ..
                })
            ));
        }
    }

    /// `archive show|compare` read files anyone can edit, and the reader
    /// recurses once per level of nesting: past its fixed depth a document
    /// is a parse error wherever the nesting sits — in place of the
    /// object, under a key the version peek skips, as the version, or
    /// under a key the typed pass skips — not a stack overflow.
    #[test]
    fn a_million_levels_of_nesting_are_a_parse_error() {
        let deep = "[".repeat(1_000_000);
        for (json, decoder) in specimens() {
            let version = json.lines().nth(1).unwrap();
            assert!(version.starts_with("  \"schema_version\": "), "{version}");
            for text in [
                deep.clone(),
                json.replacen(version, &format!("  \"junk\": {deep},\n{version}"), 1),
                json.replacen(version, &format!("  \"schema_version\": {deep}"), 1),
                json.replacen(version, &format!("{version}\n  \"junk\": {deep},"), 1),
            ] {
                match decoder(&text) {
                    Err(StoreError::Parse(e)) => {
                        assert!(e.starts_with("recursion limit exceeded at byte "), "{e}")
                    }
                    other => panic!("expected a parse error, got {other:?}"),
                }
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(64))]

        #[test]
        fn truncated_artifacts_are_refused(cut in 0.0f64..1.0) {
            for (json, decoder) in specimens() {
                // Losing only the trailing newline loses nothing.
                let keep = (cut * (json.len() - 1) as f64) as usize;
                let text = String::from_utf8_lossy(&json.as_bytes()[..keep]);
                proptest::prop_assert!(decoder(&text).is_err(), "{} of {} bytes", keep, json.len());
            }
        }

        #[test]
        fn overwritten_bytes_never_panic_and_never_pass_a_changed_manifest(
            at in 0.0f64..1.0,
            junk in proptest::collection::vec(proptest::any::<u8>(), 1..8),
        ) {
            for (json, decoder) in specimens() {
                let mut bytes = json.clone().into_bytes();
                let start = (at * bytes.len() as f64) as usize;
                for (slot, byte) in bytes[start..].iter_mut().zip(&junk) {
                    *slot = *byte;
                }
                let text = String::from_utf8_lossy(&bytes);
                // `through` asserts digest == manifest digest on every Ok;
                // beyond that, whatever is accepted must be stable.
                if let Ok(accepted) = decoder(&text) {
                    proptest::prop_assert_eq!(decoder(&accepted), Ok(accepted.clone()));
                }
            }
        }
    }
}
