//! Integration tests for the results archive and head-to-head comparison
//! subsystem: the save→load→compare bit-identity acceptance criterion,
//! strict store semantics, the byte-exact golden artifact fixture, and the
//! versioned suite envelope.

use lsbench::core::faults::FaultStats;
use lsbench::core::record::{OpRecord, RunRecord};
use lsbench::core::results::{
    compare, ComparisonReport, ResultStore, RunArtifact, RunManifest, StoreError, SuiteArtifact,
    Transport, SCHEMA_VERSION,
};
use lsbench::core::runner::{ExecutionMode, RunOptions, Runner, WallStats};
use lsbench::core::scenario::{ClockMode, Scenario};
use lsbench::core::suite::{s2_abrupt_shift, SuiteConfig, SuiteResult};
use lsbench::core::sut_registry::SutRegistry;
use lsbench::sut::sut::SutMetrics;
use std::path::PathBuf;

fn temp_store(tag: &str) -> (ResultStore, PathBuf) {
    let dir = std::env::temp_dir().join(format!("lsbench-results-it-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    (ResultStore::open(&dir).expect("store opens"), dir)
}

fn small_shift_scenario() -> Scenario {
    s2_abrupt_shift(&SuiteConfig {
        dataset_size: 8_000,
        ops_per_phase: 1_500,
        ..SuiteConfig::default()
    })
    .expect("valid scenario")
}

fn run_and_record(scenario: &Scenario, sut: &str, threads: usize) -> RunRecord {
    let registry = SutRegistry::default();
    let factory = registry.factory(sut).expect("known SUT");
    let outcome = Runner::from_factory(factory)
        .config(RunOptions::with_mode(if threads > 1 {
            ExecutionMode::Sharded { workers: threads }
        } else {
            ExecutionMode::Serial
        }))
        .run(scenario)
        .expect("run succeeds");
    outcome.record
}

/// The acceptance criterion: comparing two *loaded* artifacts reproduces
/// the in-process comparison bit-identically — `save → load → compare`
/// equals `run → compare`, including the Fig. 1b area difference down to
/// the f64 bit pattern, at 1 and 4 workers.
#[test]
fn save_load_compare_is_bit_identical_to_live_compare() {
    let scenario = small_shift_scenario();
    for threads in [1usize, 4] {
        let baseline = run_and_record(&scenario, "btree", threads);
        let candidate = run_and_record(&scenario, "rmi", threads);
        let live = compare(&baseline, &candidate).expect("live compare");

        let (store, dir) = temp_store(&format!("bitident-t{threads}"));
        for (name, record) in [("btree", &baseline), ("rmi", &candidate)] {
            let manifest = RunManifest::for_run(&scenario, name, threads);
            store
                .save(&RunArtifact::new(manifest, record.clone()))
                .expect("save");
        }
        let loaded_b = store.load("btree").expect("load baseline");
        let loaded_c = store.load("rmi").expect("load candidate");
        assert_eq!(
            loaded_b.record, baseline,
            "record survives the store losslessly"
        );
        let archived = compare(&loaded_b.record, &loaded_c.record).expect("archived compare");

        assert_eq!(
            live.area_difference.to_bits(),
            archived.area_difference.to_bits(),
            "Fig. 1b area difference must be bit-identical after save/load (threads={threads})"
        );
        assert_eq!(live, archived, "full comparison report (threads={threads})");
        let _ = std::fs::remove_dir_all(dir);
    }
}

/// Worker count is part of the manifest identity: the same scenario+SUT at
/// different concurrency gets different digests and coexists in the store.
#[test]
fn concurrency_is_part_of_the_artifact_identity() {
    let scenario = small_shift_scenario();
    let m1 = RunManifest::for_run(&scenario, "btree", 1);
    let m4 = RunManifest::for_run(&scenario, "btree", 4);
    assert_ne!(m1.digest(), m4.digest());
}

/// A deterministic synthetic artifact used by the golden fixture tests.
/// Everything is hand-pinned (including `crate_version`) so the fixture
/// bytes never depend on the workspace version or any runtime behavior.
fn golden_artifact() -> RunArtifact {
    let manifest = RunManifest {
        sut: "btree".to_string(),
        scenario: "golden".to_string(),
        spec: "name = \"golden\"\n".to_string(),
        concurrency: 1,
        crate_version: "0.1.0-fixture".to_string(),
        transport: Transport::Remote {
            endpoint: "127.0.0.1:7070".to_string(),
        },
        clock: ClockMode::Wall,
    };
    let record = RunRecord {
        sut_name: "btree".to_string(),
        scenario_name: "golden".to_string(),
        phase_names: vec!["head".to_string(), "tail".to_string()],
        ops: vec![
            OpRecord {
                t_end: 0.25,
                latency: 0.25,
                phase: 0,
                ok: true,
                in_transition: false,
            },
            OpRecord {
                t_end: 0.75,
                latency: 0.5,
                phase: 1,
                ok: false,
                in_transition: true,
            },
        ],
        phase_change_times: vec![(0, 0.0), (1, 0.25)],
        train: lsbench::core::record::TrainInfo {
            work: 1234,
            seconds: 0.5,
        },
        exec_start: 0.0,
        exec_end: 0.75,
        final_metrics: SutMetrics {
            size_bytes: 4096,
            training_work: 1234,
            execution_work: 5678,
            model_count: 3,
            adaptations: 2,
            label_collection_work: 99,
        },
        work_units_per_second: 1000000.0,
        faults: FaultStats {
            injected: 4,
            retries: 3,
            timeouts: 2,
            crashes: 1,
        },
    };
    // A wall run carries its host-clock stats beside (never inside) the
    // record, so the fixture pins the wall block's serialized shape too.
    let mut latency = lsbench::stats::LatencyHistogram::new();
    latency.record(250_000);
    latency.record(500_000);
    RunArtifact::new(manifest, record).with_wall(Some(WallStats::new(0.75, 2, latency)))
}

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("fixtures")
        .join("run_artifact_v4.json")
}

/// Byte-exact golden pin of the `RunArtifact` v4 JSON schema. If this
/// fails, the serialized shape changed: bump
/// [`lsbench::core::results::SCHEMA_VERSION`], regenerate the fixture with
/// `cargo test regenerate_golden_artifact_fixture -- --ignored`, and
/// review the diff deliberately — stored artifacts from before the change
/// must be *refused*, not misread.
#[test]
fn run_artifact_json_schema_is_pinned_byte_exact() {
    let artifact = golden_artifact();
    let expected = std::fs::read_to_string(fixture_path())
        .expect("tests/fixtures/run_artifact_v4.json exists (see regenerate test)");
    let actual = artifact.to_json().expect("serializes");
    assert_eq!(
        actual, expected,
        "RunArtifact JSON changed shape — bump SCHEMA_VERSION and regenerate the fixture"
    );
    // The committed fixture also parses back to the identical artifact.
    let parsed = RunArtifact::from_json(&expected).expect("fixture parses strictly");
    assert_eq!(parsed, artifact);
    assert_eq!(parsed.schema_version, SCHEMA_VERSION);
}

/// Regenerates the golden fixture. Deliberately `#[ignore]`d: run it only
/// when a schema change is intentional, together with a
/// `SCHEMA_VERSION` bump.
#[test]
#[ignore = "writes the golden fixture; run explicitly after a deliberate schema change"]
fn regenerate_golden_artifact_fixture() {
    let path = fixture_path();
    std::fs::create_dir_all(path.parent().unwrap()).unwrap();
    std::fs::write(&path, golden_artifact().to_json().unwrap()).unwrap();
}

/// The digest covers the manifest only, so an edited histogram would load
/// cleanly — and `sub_buckets: 0` then divides by zero in the first
/// `quantile`. The histogram itself refuses what its bucket arithmetic is
/// not defined on, wherever it is decoded.
#[test]
fn hostile_latency_histograms_are_refused_not_panicked_on() {
    use lsbench::stats::LatencyHistogram;
    // A slot past the one `u64::MAX` maps to would shift out of range.
    let beyond_u64 = format!(
        r#"{{"sub_buckets":64,"counts":[{}1],"total":1,"max_recorded":1}}"#,
        "0,".repeat(4_200)
    );
    for hostile in [
        r#"{"sub_buckets":0,"counts":[1],"total":1,"max_recorded":1}"#,
        r#"{"sub_buckets":3,"counts":[1],"total":1,"max_recorded":1}"#,
        r#"{"sub_buckets":64,"counts":[1,2],"total":4,"max_recorded":1}"#,
        r#"{"sub_buckets":64,"counts":[18446744073709551615,1],"total":0,"max_recorded":1}"#,
        beyond_u64.as_str(),
    ] {
        let refused = serde_json::from_str::<LatencyHistogram>(hostile);
        assert!(refused.is_err(), "decoded {hostile}");
    }
    let mut honest = LatencyHistogram::new();
    honest.record(250_000);
    let json = serde_json::to_string(&honest).unwrap();
    assert_eq!(
        serde_json::from_str::<LatencyHistogram>(&json).unwrap(),
        honest
    );

    // The same edits inside an archived artifact: refused at load, by
    // `from_json` and by the store, while the unedited golden still loads.
    let golden = std::fs::read_to_string(fixture_path()).unwrap();
    for edit in ["\"sub_buckets\": 0", "\"sub_buckets\": 3"] {
        let edited = golden.replacen("\"sub_buckets\": 64", edit, 1);
        assert_ne!(edited, golden);
        assert!(matches!(
            RunArtifact::from_json(&edited),
            Err(StoreError::Parse(_))
        ));
    }
    let (store, dir) = temp_store("hostile-histogram");
    let artifact = golden_artifact();
    let path = store.save(&artifact).expect("save");
    assert_eq!(std::fs::read_to_string(&path).unwrap(), golden);
    assert_eq!(store.load(&artifact.digest).expect("load"), artifact);
    let edited = golden.replacen("\"sub_buckets\": 64", "\"sub_buckets\": 0", 1);
    std::fs::write(&path, edited).unwrap();
    assert!(matches!(
        store.load(&artifact.digest),
        Err(StoreError::Parse(_))
    ));
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn store_refuses_unversioned_and_drifted_artifacts() {
    let (store, dir) = temp_store("strict");
    let artifact = golden_artifact();
    let path = store.save(&artifact).expect("save");
    let json = std::fs::read_to_string(&path).unwrap();

    // Strip the version field → refused as unversioned.
    let unversioned = json.replacen("  \"schema_version\": 4,\n", "", 1);
    assert_ne!(unversioned, json);
    std::fs::write(&path, &unversioned).unwrap();
    match store.load(&artifact.digest) {
        Err(StoreError::Schema {
            found: None,
            expected,
        }) => assert_eq!(expected, SCHEMA_VERSION),
        other => panic!("expected unversioned refusal, got {other:?}"),
    }

    // Version drift: a v3-era artifact (pre-clock-mode) must be refused
    // with the found version reported, never best-effort parsed.
    let drifted = json.replacen("\"schema_version\": 4", "\"schema_version\": 3", 1);
    std::fs::write(&path, &drifted).unwrap();
    assert!(matches!(
        store.load(&artifact.digest),
        Err(StoreError::Schema { found: Some(3), .. })
    ));

    // Tampered manifest → digest mismatch.
    let tampered = json.replacen("\"sut\": \"btree\"", "\"sut\": \"edited\"", 1);
    assert_ne!(tampered, json);
    std::fs::write(&path, &tampered).unwrap();
    assert!(matches!(
        store.load(&artifact.digest),
        Err(StoreError::ManifestMismatch { .. })
    ));

    // And the listing is strict too: one bad artifact fails the list.
    assert!(store.list().is_err());
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn find_resolves_digest_prefixes_and_reports_ambiguity() {
    let scenario = small_shift_scenario();
    let record = run_and_record(&scenario, "btree", 1);
    let (store, dir) = temp_store("find");
    let a = RunArtifact::new(RunManifest::for_run(&scenario, "btree", 1), record.clone());
    let b = RunArtifact::new(RunManifest::for_run(&scenario, "btree", 4), record);
    store.save(&a).expect("save a");
    store.save(&b).expect("save b");

    assert_eq!(store.find(&a.digest[..8]).expect("prefix").digest, a.digest);
    assert!(matches!(
        store.find("btree"),
        Err(StoreError::Ambiguous { .. })
    ));
    assert!(matches!(
        store.find("no-such-run"),
        Err(StoreError::NotFound(_))
    ));
    let _ = std::fs::remove_dir_all(dir);
}

/// The suite JSON envelope: `schema_version` wrapped around the typed
/// results, parsing back losslessly — and refusing unversioned text.
#[test]
fn suite_artifact_envelope_parses_back_into_typed_reports() {
    let results = vec![SuiteResult {
        sut_name: "btree".to_string(),
        summaries: vec![],
    }];
    let envelope = SuiteArtifact::new(results.clone());
    let json = lsbench::core::report::to_json(&envelope).expect("serializes");
    let back = SuiteArtifact::from_json(&json).expect("parses back");
    assert_eq!(back.schema_version, SCHEMA_VERSION);
    assert_eq!(back.results, results);
    assert!(matches!(
        SuiteArtifact::from_json("{\"results\": []}"),
        Err(StoreError::Schema { found: None, .. })
    ));
}

/// The serialized comparison report round-trips through its own JSON —
/// the `--json` output of `lsbench compare` is lossless.
#[test]
fn comparison_report_json_round_trips() {
    let scenario = small_shift_scenario();
    let a = run_and_record(&scenario, "btree", 1);
    let b = run_and_record(&scenario, "rmi", 1);
    let report = compare(&a, &b).expect("compare");
    let json = lsbench::core::report::to_json(&report).expect("serializes");
    let back: ComparisonReport = serde_json::from_str(&json).expect("parses");
    assert_eq!(back, report);
    assert_eq!(
        back.area_difference.to_bits(),
        report.area_difference.to_bits()
    );
}
