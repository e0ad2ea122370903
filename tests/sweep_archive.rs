//! Integration tests for the drift-sweep artifact family: the byte-exact
//! golden fixture for the v1 sweep schema, strict refusal of unversioned
//! and version-drifted sweep artifacts, and the worker-count determinism
//! guarantee (the same sweep archived at 1 and 4 workers is
//! byte-identical, digest included).

use lsbench::core::results::{
    Artifact, ResultStore, StoreError, SweepArtifact, SweepManifest, Transport,
    SWEEP_SCHEMA_VERSION,
};
use lsbench::core::runner::{ExecutionMode, RunOptions, Runner};
use lsbench::core::scenario::{ClockMode, Scenario};
use lsbench::core::sut_registry::SutRegistry;
use lsbench::core::sweep::{sweep_curve, DriftLadder, SweepCurve, SweepPoint};
use lsbench::workload::keygen::KeyDistribution;
use std::path::PathBuf;

#[path = "support/oracle.rs"]
mod oracle;

fn temp_store(tag: &str) -> (ResultStore, PathBuf) {
    let dir = std::env::temp_dir().join(format!("lsbench-sweep-it-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    (ResultStore::open(&dir).expect("store opens"), dir)
}

/// A deterministic synthetic sweep artifact for the golden fixture
/// tests. Everything is hand-pinned (including `crate_version`) so the
/// fixture bytes never depend on the workspace version or any runtime
/// behavior.
fn golden_sweep_artifact() -> SweepArtifact {
    let manifest = SweepManifest {
        scenario: "golden".to_string(),
        spec: "name = \"golden\"\n".to_string(),
        suts: vec!["btree".to_string(), "rmi".to_string()],
        axis: "0..1x3".to_string(),
        alphas: vec![0.0, 0.5, 1.0],
        crate_version: "0.1.0-fixture".to_string(),
        transport: Transport::Local,
        clock: ClockMode::Sim,
    };
    let curve = |sut: &str, bend: f64| SweepCurve {
        sut: sut.to_string(),
        points: vec![
            SweepPoint {
                alpha: 0.0,
                adaptability_area: 0.0,
                adjustment_speed: 0.0,
                sla_violation_rate: 0.0,
                specialization_spread: 1.0,
            },
            SweepPoint {
                alpha: 0.5,
                adaptability_area: bend,
                adjustment_speed: 0.25,
                sla_violation_rate: 0.125,
                specialization_spread: 1.5,
            },
            SweepPoint {
                alpha: 1.0,
                adaptability_area: -0.25,
                adjustment_speed: 0.5,
                sla_violation_rate: 0.25,
                specialization_spread: 2.0,
            },
        ],
    };
    SweepArtifact::new(manifest, vec![curve("btree", -0.125), curve("rmi", -0.5)])
}

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/sweep_artifact_v1.json")
}

/// Byte-exact golden pin of the `SweepArtifact` v1 JSON schema. If this
/// fails, the serialized shape changed: bump
/// [`lsbench::core::results::SWEEP_SCHEMA_VERSION`], rewrite the fixture
/// with `LSBENCH_BLESS=1`, and review the diff deliberately — stored sweeps
/// from before the change must be *refused*, not misread.
#[test]
fn sweep_artifact_json_schema_is_pinned_byte_exact() {
    let artifact = golden_sweep_artifact();
    let json = artifact.to_json().expect("serializes");
    oracle::check_or_bless(fixture_path(), &json);
    let parsed = SweepArtifact::from_json(&json).expect("fixture parses strictly");
    assert_eq!(parsed, artifact);
    assert_eq!(parsed.schema_version, SWEEP_SCHEMA_VERSION);
}

#[test]
fn store_refuses_unversioned_and_drifted_sweep_artifacts() {
    let (store, dir) = temp_store("strict");
    let artifact = golden_sweep_artifact();
    let path = store.save(&artifact).expect("save");
    let json = std::fs::read_to_string(&path).unwrap();

    // Strip the version field → refused as unversioned.
    let unversioned = json.replacen("  \"schema_version\": 1,\n", "", 1);
    assert_ne!(unversioned, json);
    std::fs::write(&path, &unversioned).unwrap();
    match ResultStore::load_as::<SweepArtifact>(&path) {
        Err(StoreError::Schema {
            found: None,
            expected,
        }) => assert_eq!(expected, SWEEP_SCHEMA_VERSION),
        other => panic!("expected unversioned refusal, got {other:?}"),
    }

    // Version drift: a future v2 sweep must be refused with the found
    // version reported, never best-effort parsed.
    let drifted = json.replacen("\"schema_version\": 1", "\"schema_version\": 2", 1);
    std::fs::write(&path, &drifted).unwrap();
    assert!(matches!(
        ResultStore::load_as::<SweepArtifact>(&path),
        Err(StoreError::Schema { found: Some(2), .. })
    ));

    // Tampered manifest → digest mismatch.
    let tampered = json.replacen("\"axis\": \"0..1x3\"", "\"axis\": \"0..1x9\"", 1);
    assert_ne!(tampered, json);
    std::fs::write(&path, &tampered).unwrap();
    assert!(matches!(
        ResultStore::load_as::<SweepArtifact>(&path),
        Err(StoreError::ManifestMismatch { .. })
    ));
    let _ = std::fs::remove_dir_all(dir);
}

fn ladder_base() -> Scenario {
    // Same-shape endpoints (zipf → zipf) so every rung interpolates.
    Scenario::two_phase_shift(
        "sweep-determinism",
        KeyDistribution::Zipf { theta: 0.4 },
        KeyDistribution::Zipf { theta: 1.3 },
        6_000,
        1_200,
        11,
    )
    .expect("valid scenario")
}

/// Runs every rung of the ladder for one SUT at the given executing
/// thread count and packages the resulting curve as an artifact. The
/// record semantics are pinned to 4-way sharding regardless of `threads`
/// — the worker-invariance contract the engine already guarantees for
/// single runs, extended here to whole archived sweeps.
fn sweep_artifact_at(threads: usize) -> SweepArtifact {
    let base = ladder_base();
    let ladder = DriftLadder::build(&base, "0..1x3").expect("ladder builds");
    let registry = SutRegistry::default();
    let mut records = Vec::new();
    for rung in &ladder.rungs {
        let factory = registry.factory("rmi").expect("known SUT");
        let outcome = Runner::from_factory(factory)
            .config(RunOptions {
                threads: Some(threads),
                ..RunOptions::with_mode(ExecutionMode::Sharded { workers: 4 })
            })
            .run(rung)
            .expect("rung runs");
        records.push(outcome.record);
    }
    let curve = sweep_curve("rmi", &ladder.alphas, &ladder.rungs, &records).expect("curve derives");
    let manifest =
        SweepManifest::for_sweep(&base, &["rmi".to_string()], &ladder.axis, &ladder.alphas);
    SweepArtifact::new(manifest, vec![curve])
}

/// The acceptance criterion: the same sweep executed with 1 and 4 worker
/// threads archives byte-identically — same digest, same file name, same
/// JSON bytes. Worker count is deliberately not part of the sweep
/// manifest, so this is the whole-artifact form of run determinism.
#[test]
fn sweep_artifacts_are_byte_identical_across_worker_counts() {
    let a1 = sweep_artifact_at(1);
    let a4 = sweep_artifact_at(4);
    assert_eq!(a1.digest, a4.digest, "digest must ignore worker count");
    assert_eq!(a1.file_name(), a4.file_name());
    let j1 = a1.to_json().expect("serializes");
    let j4 = a4.to_json().expect("serializes");
    assert_eq!(j1, j4, "archived sweep bytes must not depend on workers");

    // And through the store: both land at the same path with the same
    // bytes on disk.
    let (store, dir) = temp_store("workers");
    let p1 = store.save(&a1).expect("save 1-worker sweep");
    let p4 = store.save(&a4).expect("save 4-worker sweep");
    assert_eq!(p1, p4);
    assert_eq!(std::fs::read_to_string(&p1).unwrap(), j1);
    assert_eq!(store.paths::<SweepArtifact>().expect("list"), vec![p1]);
    let _ = std::fs::remove_dir_all(dir);
}

/// Rung semantics end to end: α = 0 freezes every phase at the anchor
/// (static control), α = 1 reproduces the authored scenario exactly.
#[test]
fn ladder_endpoints_are_control_and_authored_scenario() {
    let base = ladder_base();
    let ladder = DriftLadder::build(&base, "0..1x3").expect("ladder builds");
    let anchor = &base.workload.phases()[0];
    for p in ladder.rungs[0].workload.phases() {
        assert_eq!(p.distribution, anchor.distribution);
    }
    assert_eq!(
        ladder.rungs[2].workload.phases(),
        base.workload.phases(),
        "α = 1 must be the scenario as authored"
    );
}
