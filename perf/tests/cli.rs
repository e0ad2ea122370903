//! Drives the built binary: a healthy run ends with the result object and
//! exit code 0; a corrupted golden makes it exit non-zero without one.

use std::process::Command;

const SMOKE: [&str; 8] = [
    "--workload",
    "lanes_faulted",
    "--scale",
    "0.005",
    "--seconds",
    "0.05",
    "--trace",
    "0",
];

/// The binary, run in `test`'s own directory: tests run in parallel and
/// each invocation writes artifacts under its working directory.
fn lsbench_perf(test: &str) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_lsbench-perf"));
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(test);
    std::fs::create_dir_all(&dir).unwrap();
    cmd.current_dir(dir);
    cmd
}

#[test]
fn healthy_run_prints_the_result_object_last() {
    let out = lsbench_perf("healthy").args(SMOKE).output().unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    let last = stdout.lines().last().unwrap();
    assert!(
        last.starts_with("{\"correct\":true,\"attempted\":"),
        "{last}"
    );
    assert!(last.contains("\"failed\":0,"), "{last}");
    assert!(last.contains("\"setup_s\":{\"value\":"), "{last}");
    // The same metrics come first as `name unit value` lines.
    assert!(stdout.lines().any(|l| l.starts_with("setup_s s ")));
}

#[test]
fn corrupted_golden_exits_non_zero() {
    let golden: String = include_str!("../golden.json").to_string();
    let key = "\"0.005/42/lanes_faulted/digest.btree.sharded\": \"";
    let at = golden.find(key).expect("golden.json pins the smoke scale") + key.len();
    let mut corrupted = golden.clone();
    corrupted.replace_range(at..at + 4, "zzzz");
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("corrupted_golden.json");
    std::fs::write(&path, corrupted).unwrap();

    let out = lsbench_perf("corrupted")
        .args(SMOKE)
        .arg("--golden")
        .arg(&path)
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("golden mismatch"));
    assert!(!String::from_utf8_lossy(&out.stdout).contains("\"correct\""));
}

#[test]
fn unknown_workload_is_refused() {
    let out = lsbench_perf("unknown")
        .args(["--workload", "nope"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown workload"));
}
