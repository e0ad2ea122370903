//! The `lsbench` binary's behaviour, pinned from the outside: every case
//! spawns the real executable in a throwaway working directory and records
//! a transcript — command line, exit code, and the chosen output streams,
//! plus the bytes of files the command wrote — that must match its golden
//! under `tests/cli_fixtures/` byte for byte.
//!
//! The working directory holds copies of `scenarios/`, `policies/` and the
//! trace fixtures, `CARGO_MANIFEST_DIR` is removed from the child's
//! environment (so the default store and `target/lsbench-results/` land in
//! the sandbox, never in the repo), and every path on a command line is
//! relative, so printed paths are stable; the sandbox's own absolute path
//! is rewritten to `$CWD`.
//!
//! `LSBENCH_BLESS=1` rewrites the moved transcript lines (see
//! `tests/support/oracle.rs`); review every one.

use lsbench::core::results::{RunArtifact, SweepArtifact};
use lsbench::core::scenario::ClockMode;
use std::path::{Path, PathBuf};
use std::process::Command;

#[path = "support/oracle.rs"]
mod oracle;

fn repo() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn copy_dir(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).expect("creates sandbox dir");
    for entry in std::fs::read_dir(from).expect("reads source dir") {
        let entry = entry.expect("dir entry");
        let target = to.join(entry.file_name());
        if entry.path().is_dir() {
            copy_dir(&entry.path(), &target);
        } else {
            std::fs::copy(entry.path(), &target).expect("copies file");
        }
    }
}

/// What of a command the transcript records besides its exit code.
#[derive(Clone, Copy, PartialEq)]
enum Pin {
    /// Exit code only (output is asserted by the case itself, or is
    /// wall-clock dependent).
    Code,
    Stdout,
    Both,
}

struct Ran {
    code: i32,
    stdout: String,
    stderr: String,
}

/// One case's sandbox plus the transcript it accumulates.
struct Session {
    dir: PathBuf,
    transcript: String,
}

impl Session {
    fn new(case: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("lsbench-cli-{}-{case}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("creates sandbox");
        let dir = dir.canonicalize().expect("sandbox path resolves");
        copy_dir(&repo().join("scenarios"), &dir.join("scenarios"));
        copy_dir(&repo().join("policies"), &dir.join("policies"));
        copy_dir(&repo().join("tests/trace_fixtures"), &dir.join("traces"));
        Session {
            dir,
            transcript: String::new(),
        }
    }

    /// Runs `lsbench <line split on whitespace>` without recording it.
    fn exec(&self, line: &str) -> Ran {
        let out = Command::new(env!("CARGO_BIN_EXE_lsbench"))
            .args(line.split_whitespace())
            .current_dir(&self.dir)
            .env_remove("CARGO_MANIFEST_DIR")
            .output()
            .expect("lsbench spawns");
        let cwd = self.dir.display().to_string();
        let text = |bytes: &[u8]| String::from_utf8_lossy(bytes).replace(&cwd, "$CWD");
        Ran {
            code: out.status.code().expect("lsbench exits, not killed"),
            stdout: text(&out.stdout),
            stderr: text(&out.stderr),
        }
    }

    /// Runs a command and appends it to the transcript.
    fn run(&mut self, line: &str, pin: Pin) -> Ran {
        let ran = self.exec(line);
        self.transcript
            .push_str(&format!("$ lsbench {line}\n[exit {}]\n", ran.code));
        if matches!(pin, Pin::Stdout | Pin::Both) {
            self.section("stdout", &ran.stdout);
        }
        if pin == Pin::Both {
            self.section("stderr", &ran.stderr);
        }
        self.transcript.push('\n');
        ran
    }

    /// Runs a command that must succeed.
    fn ok(&mut self, line: &str, pin: Pin) -> Ran {
        let ran = self.run(line, pin);
        assert_eq!(ran.code, 0, "`lsbench {line}` failed: {}", ran.stderr);
        ran
    }

    fn section(&mut self, title: &str, body: &str) {
        self.transcript.push_str(&format!("--- {title}\n{body}"));
        if !body.is_empty() && !body.ends_with('\n') {
            self.transcript.push_str("\n[no trailing newline]\n");
        }
    }

    fn read(&self, rel: &str) -> String {
        std::fs::read_to_string(self.dir.join(rel))
            .unwrap_or_else(|e| panic!("cannot read {rel} in the sandbox: {e}"))
    }

    fn write(&self, rel: &str, contents: &str) {
        std::fs::write(self.dir.join(rel), contents).expect("writes sandbox file");
    }

    /// Appends the bytes of a sandbox file to the transcript.
    fn file(&mut self, rel: &str) -> String {
        let body = self.read(rel);
        self.section(&format!("file {rel}"), &body);
        self.transcript.push('\n');
        body
    }

    /// Pins a file too large to inline by its length and FNV-1a digest.
    fn file_digest(&mut self, rel: &str) {
        let body = self.read(rel);
        let digest = body.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
        });
        self.transcript.push_str(&format!(
            "--- file {rel}: {} bytes, fnv1a64 {digest:016x}\n\n",
            body.len()
        ));
    }

    /// The `*.json` files directly in `rel`, sorted, as sandbox-relative
    /// paths.
    fn json_files(&self, rel: &str) -> Vec<String> {
        let mut names: Vec<String> = std::fs::read_dir(self.dir.join(rel))
            .unwrap_or_else(|e| panic!("cannot list {rel}: {e}"))
            .map(|e| e.expect("dir entry").file_name())
            .map(|n| n.to_string_lossy().into_owned())
            .filter(|n| n.ends_with(".json"))
            .map(|n| format!("{rel}/{n}"))
            .collect();
        names.sort();
        names
    }

    /// The single `*.json` file in `rel`.
    fn only_json(&self, rel: &str) -> String {
        let files = self.json_files(rel);
        assert_eq!(files.len(), 1, "expected one artifact in {rel}: {files:?}");
        files[0].clone()
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn check(case: &str, body: fn(&mut Session)) {
    let mut session = Session::new(case);
    body(&mut session);
    let golden = repo().join(format!("tests/cli_fixtures/{case}.txt"));
    oracle::check_or_bless(golden, &session.transcript);
}

macro_rules! cli_cases {
    ($($case:ident),* $(,)?) => {$(
        #[test]
        fn $case() {
            check(stringify!($case), cases::$case);
        }
    )*};
}

cli_cases!(
    usage,
    catalog,
    run_modes,
    archive_compare_regress,
    capacity,
    sweep,
    trace,
    trace_refusals,
    shift_and_suite,
    wall_clock_archive,
    errors,
    hostile_arguments,
    zero_threads,
    zero_scale,
    damaged_store,
);

/// The report half of `capacity --json` stdout (the archived path and
/// digest that follow it depend on the worker count by design).
fn capacity_report(stdout: &str) -> &str {
    let (report, _) = stdout
        .rsplit_once("archived ")
        .expect("capacity prints the archived path last");
    report
}

const S2_SMALL: &str = "--scenario S2-abrupt-shift --size 2000 --ops 300";

mod cases {
    use super::*;

    pub fn usage(s: &mut Session) {
        let bare = s.run("", Pin::Both);
        assert_eq!(bare.code, 2);
        // An unknown command is answered exactly like no command.
        let unknown = s.run("frobnicate", Pin::Code);
        assert_eq!((unknown.code, unknown.stdout), (2, String::new()));
        assert_eq!(unknown.stderr, bare.stderr);
    }

    pub fn catalog(s: &mut Session) {
        s.ok("list", Pin::Both);
        s.ok("scenarios", Pin::Both);
        s.ok("export S2-abrupt-shift --size 2000 --ops 300", Pin::Both);
        s.ok("validate scenarios", Pin::Both);
        s.ok("quality --dist zipf --theta 1.2", Pin::Both);
    }

    pub fn run_modes(s: &mut Session) {
        s.ok(&format!("run {S2_SMALL} --sut rmi"), Pin::Both);
        s.ok(&format!("run {S2_SMALL} --sut rmi --threads 4"), Pin::Both);
        s.ok(
            &format!("run {S2_SMALL} --sut rmi --faults chaos-errors"),
            Pin::Both,
        );
        s.ok(
            "run --scenario scenarios/s5-bursty-load.spec --sut rmi --mode open-loop \
             --clients 1000 --threads 2",
            Pin::Both,
        );
        // --trace also prints a span tree of host times; the event trace
        // it writes is virtual-clock only.
        s.ok(&format!("run {S2_SMALL} --sut btree --trace"), Pin::Code);
        s.file("target/lsbench-results/run_trace.jsonl");
    }

    pub fn archive_compare_regress(s: &mut Session) {
        s.ok("archive list --store st", Pin::Both);
        s.ok(
            &format!("archive run {S2_SMALL} --sut btree --store st"),
            Pin::Both,
        );
        s.ok(
            &format!("archive run {S2_SMALL} --sut rmi --store st"),
            Pin::Both,
        );
        s.ok("archive list --store st", Pin::Both);
        s.ok("archive show rmi --store st", Pin::Both);
        s.ok("compare btree rmi --store st", Pin::Both);
        s.ok("compare btree rmi --store st --json", Pin::Both);
        s.ok(
            "regress --baseline btree --candidate rmi --policy policies/default.policy --store st",
            Pin::Both,
        );
        s.file("BENCH_summary.json");
        assert_eq!(
            s.read("BENCH_summary.json"),
            s.read("target/lsbench-results/BENCH_summary.json")
        );
        s.ok(
            "regress --baseline btree --candidate rmi --policy policies/default.policy --store st \
             --json",
            Pin::Stdout,
        );
        // Without --store the default store is `.lsbench/results/` under
        // the workspace root — here, the sandbox.
        s.ok(&format!("archive run {S2_SMALL} --sut pgm"), Pin::Both);
        s.ok("archive list", Pin::Both);
    }

    pub fn capacity(s: &mut Session) {
        let search = |threads: usize, store: &str, extra: &str| {
            format!(
                "capacity {S2_SMALL} --sut btree --sla p99:1 --clients 100 --threads {threads} \
                 --probes 6 --store {store}{extra}"
            )
        };
        let first = s.ok(&search(4, "cap-a", " --json"), Pin::Both);
        let stored = s.only_json("cap-a/capacity");
        let bytes = s.file(&stored);
        s.ok(&search(4, "cap-t", ""), Pin::Stdout);
        // The knee curve is deterministic across re-runs and worker counts.
        let rerun = s.exec(&search(4, "cap-b", " --json"));
        assert_eq!(rerun.stdout, first.stdout.replace("cap-a/", "cap-b/"));
        assert_eq!(s.read(&s.only_json("cap-b/capacity")), bytes);
        let wider = s.exec(&search(8, "cap-c", " --json"));
        assert_eq!(wider.code, 0, "{}", wider.stderr);
        assert_eq!(
            capacity_report(&wider.stdout),
            capacity_report(&first.stdout)
        );
    }

    pub fn sweep(s: &mut Session) {
        // The shipped drift-ladder base at reduced size.
        let spec = s
            .read("scenarios/drift_ladder.spec")
            .replace("size = 50000", "size = 5000")
            .replace("ops_per_step = 3000", "ops_per_step = 300");
        s.write("ladder.spec", &spec);
        let sweep = |threads: usize, store: &str, extra: &str| {
            format!(
                "sweep --scenario ladder.spec --sut btree,rmi --drift 0..1x5 --mode open-loop \
                 --clients 100 --threads {threads} --store {store}{extra}"
            )
        };
        let printed = s.ok(&sweep(4, "sw-a", " --json"), Pin::Both);
        let stored = s.only_json("sw-a/sweep");
        let bytes = s.file(&stored);
        // --json prints exactly the archived artifact, then the path.
        assert!(printed.stdout.starts_with(&bytes));
        s.ok(&sweep(4, "sw-t", ""), Pin::Stdout);
        // `--sut a --sut b` spells the same sweep as `--sut a,b`.
        let repeated = s.exec(&sweep(4, "sw-a", " --json").replace("btree,rmi", "btree --sut rmi"));
        assert_eq!(repeated.stdout, printed.stdout);

        // Worker count is absent from the manifest: 1 and 4 threads
        // archive the same bytes under the same name.
        assert_eq!(s.exec(&sweep(1, "sw-b", "")).code, 0);
        assert_eq!(s.only_json("sw-b/sweep"), stored.replace("sw-a", "sw-b"));
        assert_eq!(s.read(&s.only_json("sw-b/sweep")), bytes);

        let artifact = SweepArtifact::from_json(&bytes).expect("archived sweep decodes");
        let alphas = &artifact.manifest.alphas;
        assert_eq!(artifact.schema_version, 1);
        assert_eq!(alphas.len(), 5);
        assert_eq!((alphas[0], alphas[4]), (0.0, 1.0));
        assert!(alphas.windows(2).all(|w| w[0] < w[1]), "{alphas:?}");
        assert_eq!(artifact.manifest.suts, ["btree", "rmi"]);
        for curve in &artifact.curves {
            let grid: Vec<f64> = curve.points.iter().map(|p| p.alpha).collect();
            assert_eq!(&grid, alphas, "{}", curve.sut);
        }
    }

    pub fn trace(s: &mut Session) {
        s.ok("trace import traces/s2_10k.csv", Pin::Both);
        s.ok(
            "trace import traces/golden.jsonl --out canon.csv --speed 2",
            Pin::Both,
        );
        s.file("canon.csv");
        s.ok("trace fit traces/s2_10k.csv --name fitted-s2", Pin::Both);
        s.ok(
            "trace fit traces/s2_10k.csv --name fitted-s2 --out fitted-s2.spec",
            Pin::Both,
        );
        s.ok("validate fitted-s2.spec", Pin::Both);
        s.ok(
            "trace record --scenario S2-abrupt-shift --size 500 --ops 20 --out rec.csv --rate 1000",
            Pin::Both,
        );
        s.file("rec.csv");
        s.ok(
            "trace replay traces/s2_10k.csv --sut btree --archive --store tr-c",
            Pin::Both,
        );
        let replay = |threads: usize, store: &str| {
            format!(
                "trace replay traces/s2_10k.csv --sut btree --mode open-loop --clients 1000 \
                 --threads {threads} --archive --store {store}"
            )
        };
        s.ok(&replay(1, "tr-a"), Pin::Both);
        s.file_digest(&s.only_json("tr-c"));
        s.file_digest(&s.only_json("tr-a"));
        // The replay is a logically serial event simulation: the thread
        // count cannot reach the record.
        assert_eq!(s.exec(&replay(4, "tr-b")).code, 0);
        let load = |s: &Session, store: &str| {
            RunArtifact::from_json(&s.read(&s.only_json(store))).expect("archived replay decodes")
        };
        let (one, four) = (load(s, "tr-a"), load(s, "tr-b"));
        assert_eq!(one.record, four.record);
        assert_eq!(one.record.ops.len(), 10_000);
        assert_eq!(
            (one.manifest.concurrency, four.manifest.concurrency),
            (1, 4)
        );
    }

    /// What `trace record`, `trace fit` and `trace import` refuse writes
    /// nothing: an unknown `--format` (an unknown extension alone still
    /// means CSV), a `--name` that one spec string cannot hold, and a
    /// `--format` that the `--out` extension contradicts (an extension that
    /// names no format follows `--format`).
    pub fn trace_refusals(s: &mut Session) {
        let record = "trace record --scenario S2-abrupt-shift --size 500 --ops 20 --out rec.out";
        let refused = s.run(&format!("{record} --format xyz"), Pin::Both);
        assert_eq!(refused.code, 2);
        assert!(
            !s.dir.join("rec.out").exists(),
            "a refused record writes no file"
        );
        s.ok(record, Pin::Both);
        s.file("rec.out");
        let fit = s.run(
            "trace fit traces/s2_10k.csv --name a\"b --out f.spec",
            Pin::Both,
        );
        assert_ne!(fit.code, 0);
        assert!(
            !s.dir.join("f.spec").exists(),
            "a refused fit writes no file"
        );
        let import = "trace import traces/golden.jsonl --format jsonl";
        let contradicted = s.run(&format!("{import} --out canon.csv"), Pin::Both);
        assert_eq!(contradicted.code, 2);
        assert!(
            !s.dir.join("canon.csv").exists(),
            "a refused import writes no file"
        );
        s.ok(&format!("{import} --out canon.out"), Pin::Both);
        s.file("canon.out");
    }

    pub fn shift_and_suite(s: &mut Session) {
        s.ok("shift --sut rmi --size 2000 --ops 300", Pin::Both);
        s.ok(
            "shift --sut rmi --size 2000 --ops 300 --threads 2 --trace",
            Pin::Code,
        );
        s.file("target/lsbench-results/shift_trace.jsonl");
        s.ok(
            "suite --size 2000 --ops 200 --sut btree --sut rmi --save --store suite-st",
            Pin::Both,
        );
        s.file_digest("target/lsbench-results/cli_suite.json");
        s.ok("archive list --store suite-st", Pin::Stdout);
    }

    /// Wall-clock numbers are host time, so nothing here is pinned but the
    /// exit codes; the artifact's shape is asserted instead.
    pub fn wall_clock_archive(s: &mut Session) {
        s.ok(
            &format!("run {S2_SMALL} --sut btree --clock wall"),
            Pin::Code,
        );
        s.ok(
            &format!("archive run {S2_SMALL} --sut btree --clock wall --store wall-st"),
            Pin::Code,
        );
        let artifact = RunArtifact::from_json(&s.read(&s.only_json("wall-st")))
            .expect("wall artifact decodes");
        assert_eq!(artifact.schema_version, 4);
        assert_eq!(artifact.manifest.clock, ClockMode::Wall);
        let wall = artifact.wall.expect("wall stats are archived");
        assert_eq!(wall.ops as usize, artifact.record.ops.len());
    }

    /// One error per class: exit code and stderr.
    pub fn errors(s: &mut Session) {
        for line in [
            // Unknown names.
            "run --scenario S2-abrupt-shift --sut nope",
            "run --scenario nope --sut btree",
            "shift --sut nope",
            "suite --sut nope --size 2000 --ops 200",
            "quality --dist nope",
            "export nope",
            // Missing required arguments.
            "run --sut btree",
            "run --scenario S2-abrupt-shift",
            "archive run --scenario S2-abrupt-shift",
            "capacity --scenario S2-abrupt-shift --sla p99:1",
            "capacity --scenario S2-abrupt-shift --sut btree",
            "sweep --scenario scenarios/drift_ladder.spec",
            "shift",
            "serve --sut btree",
            "serve --port 0",
            "quality",
            "regress --candidate b --policy policies/default.policy",
            "regress --baseline a --policy policies/default.policy",
            "regress --baseline a --candidate b",
            "trace replay traces/s2_10k.csv",
            // Usage one-liners.
            "archive",
            "archive show --store st",
            "trace",
            "trace import",
            "trace replay --sut btree",
            "trace fit",
            "trace record --scenario S2-abrupt-shift",
            "compare onlyone --store st",
            "validate",
            "export",
            // Malformed flag values.
            "run --scenario S2-abrupt-shift --sut btree --mode warp",
            "run --scenario S2-abrupt-shift --sut btree --clock lunar",
            "run --scenario S2-abrupt-shift --sut btree --clients 0",
            "run --scenario S2-abrupt-shift --sut btree --faults nope",
            "run --scenario S2-abrupt-shift --sut btree --mode open-loop --size 2000 --ops 300",
            "capacity --scenario S2-abrupt-shift --sut btree --sla fast",
            "sweep --scenario scenarios/drift_ladder.spec --sut btree --drift sideways",
            "sweep --scenario S2-abrupt-shift --sut btree --size 2000 --ops 300",
            "trace import traces/s2_10k.csv --format xml",
            "trace import traces/s2_10k.csv --speed fast",
            "trace import traces/s2_10k.csv --speed 0",
            "trace import traces/s2_10k",
            "trace record --scenario S2-abrupt-shift --out r.csv --rate -1",
            "run --scenario S2-abrupt-shift --remote 127.0.0.1:1 --size 2000 --ops 300",
            // Unreadable or invalid files.
            "regress --baseline a --candidate b --policy nope.policy",
            "regress --baseline a --candidate b --policy bad.policy",
            "trace import nope.csv",
            "trace import traces/bad/bad_op.csv",
            "trace replay traces/bad/truncated.csv --sut btree",
            "validate nope.spec",
            "validate specs-bad/zero_ops.spec scenarios/s4-scans.spec",
            "run --scenario specs-bad/unknown_key.spec --sut btree",
            // The store.
            "archive show nope --store st",
            "compare nope rmi --store st",
            "compare nope alsonope --store st",
            "compare S2 rmi --store st",
            "regress --baseline nope --candidate rmi --policy policies/default.policy --store st",
            "regress --baseline rmi --candidate btree --policy strict.policy --store st",
        ] {
            if line.starts_with("validate specs-bad") {
                copy_dir(
                    &repo().join("tests/spec_fixtures/bad"),
                    &s.dir.join("specs-bad"),
                );
            }
            if line.starts_with("archive show nope") {
                for sut in ["btree", "rmi"] {
                    let archived =
                        s.exec(&format!("archive run {S2_SMALL} --sut {sut} --store st"));
                    assert_eq!(archived.code, 0, "{}", archived.stderr);
                }
                s.write("strict.policy", "max_throughput_regression_pct = 0.0\n");
            }
            if line.ends_with("bad.policy") {
                s.write("bad.policy", "max_speed = 1.0\n");
            }
            let ran = s.run(line, Pin::Both);
            assert_ne!(ran.code, 0, "`lsbench {line}` must fail");
        }
        // A failed gate still writes the summary it failed on.
        s.file("BENCH_summary.json");
    }

    /// Mistyped and hostile arguments are refused with exit 2 and a message
    /// naming the flag — never run as something other than what was asked.
    pub fn hostile_arguments(s: &mut Session) {
        let run = format!("run {S2_SMALL} --sut btree");
        for line in [
            // A flag the command does not declare.
            format!("{run} --thread 4"),
            "archive list --json".to_string(),
            "list --verbose".to_string(),
            "suite --scenario S2-abrupt-shift".to_string(),
            // A value-taking flag without its value.
            "archive list --store".to_string(),
            "run --scenario --sut btree".to_string(),
            format!("{run} --threads"),
            // A numeric flag that is not a number.
            format!("{run} --threads abc"),
            "run --scenario S2-abrupt-shift --size 2000 --sut btree --ops 1e5".to_string(),
            format!("{run} --threads -1"),
            format!("capacity {S2_SMALL} --sut btree --sla p99:1 --rate x"),
            format!("capacity {S2_SMALL} --sut btree --sla p99:1 --probes 2.5"),
            "quality --dist zipf --theta y".to_string(),
            "shift --sut rmi --size big".to_string(),
            "suite --seed 0x5EED".to_string(),
            "trace fit traces/golden.csv --seed s".to_string(),
            // A single-use flag given twice.
            format!("{run} --threads 2 --threads 4"),
            // Surplus positionals.
            "compare a b c --store st".to_string(),
            "list suts".to_string(),
            format!("{run} extra"),
            "export S2-abrupt-shift S3-gradual-writes".to_string(),
        ] {
            let ran = s.run(&line, Pin::Both);
            assert_eq!(
                ran.code, 2,
                "`lsbench {line}` must be refused as a usage error"
            );
            assert_eq!(ran.stdout, "", "`lsbench {line}` must not start working");
        }
        // Positionals are found the same way by every command: a flag's
        // value is never mistaken for one.
        let before = s.ok("export S2-abrupt-shift --size 5000", Pin::Code);
        let after = s.ok("export --size 5000 S2-abrupt-shift", Pin::Code);
        assert_eq!(before.stdout, after.stdout);
        assert!(after.stdout.contains("size = 5000"));
    }

    /// `--threads 0` is refused where the flag is parsed, as `--clients 0`
    /// is: no command runs on one thread instead or fails later on it.
    pub fn zero_threads(s: &mut Session) {
        for line in [
            format!("run {S2_SMALL} --sut btree --mode shared --threads 0"),
            "suite --threads 0 --size 2000 --ops 200".to_string(),
        ] {
            let ran = s.run(&line, Pin::Both);
            assert_eq!(ran.code, 2, "`lsbench {line}` must be refused");
            assert!(
                ran.stderr
                    .contains("--threads must be a positive integer, got '0'"),
                "`lsbench {line}`: {}",
                ran.stderr
            );
        }
    }

    /// `--size 0` and `--ops 0` are refused where the scale is read, as
    /// `--threads 0` is: no suite scenario is built at an empty scale, and
    /// S6 and S7 do not round it up to one-op steps.
    pub fn zero_scale(s: &mut Session) {
        for (line, flag) in [
            ("export S6-templated-repetition --ops 0", "--ops"),
            ("export S2-abrupt-shift --ops 0", "--ops"),
            ("export S2-abrupt-shift --size 0", "--size"),
            (
                "run --scenario S2-abrupt-shift --sut btree --size 0 --ops 300",
                "--size",
            ),
            ("suite --size 2000 --ops 0", "--ops"),
            ("shift --sut btree --size 0 --ops 100", "--size"),
            ("shift --sut btree --size 100 --ops 0", "--ops"),
        ] {
            let ran = s.run(line, Pin::Both);
            assert_eq!(ran.code, 2, "`lsbench {line}` must be refused");
            assert_eq!(ran.stdout, "", "`lsbench {line}` must not start working");
            assert!(
                ran.stderr
                    .contains(&format!("{flag} must be a positive integer, got '0'")),
                "`lsbench {line}`: {}",
                ran.stderr
            );
        }
    }

    /// A store holding one damaged run: every command that lists the store
    /// says which file it tripped over, once.
    pub fn damaged_store(s: &mut Session) {
        for sut in ["btree", "rmi"] {
            s.ok(
                &format!("archive run {S2_SMALL} --sut {sut} --store st"),
                Pin::Code,
            );
        }
        let victim = s
            .json_files("st")
            .into_iter()
            .find(|f| f.contains("-btree-"))
            .expect("the btree run was archived");
        let intact = s.read(&victim);
        let damage: [(&str, String); 3] = [
            (
                "a v3-era artifact",
                intact.replacen("\"schema_version\": 4", "\"schema_version\": 3", 1),
            ),
            (
                "a hand-edited manifest",
                intact.replacen("\"sut\": \"btree\"", "\"sut\": \"edited\"", 1),
            ),
            ("a truncated file", intact[..intact.len() / 2].to_string()),
        ];
        for (what, damaged) in &damage {
            assert_ne!(*damaged, intact, "{what}");
            s.write(&victim, damaged);
            s.transcript
                .push_str(&format!("# {victim} is now {what}\n\n"));
            for line in [
                "archive list --store st",
                "archive show rmi --store st",
                "compare btree btree --store st",
                "regress --baseline rmi --candidate rmi --policy policies/default.policy --store st",
            ] {
                let ran = s.run(line, Pin::Both);
                assert_eq!(ran.code, 1, "`lsbench {line}` over {what}");
                assert!(ran.stderr.contains(&victim), "{what}: {}", ran.stderr);
                assert_eq!(ran.stderr.lines().count(), 1, "{what}: {}", ran.stderr);
            }
        }
        // Addressed by its path, the damaged file is the only one looked at.
        s.run(&format!("archive show {victim}"), Pin::Both);
    }
}

/// The oracle helper itself, checked once here rather than in every test
/// file that includes it. The switch is passed in, so no test sets a
/// process-wide environment variable.
mod oracle_helper {
    use super::oracle::check_or_bless_with as check;
    use std::fs::{read_to_string, remove_dir_all};
    use std::path::{Path, PathBuf};

    /// `oracle.txt` in a fresh directory of its own, holding `text` if any.
    fn oracle(test: &str, text: Option<&str>) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("lsbench-oracle-{}-{test}", std::process::id()));
        let _ = remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("creates scratch dir");
        let path = dir.join("oracle.txt");
        if let Some(text) = text {
            std::fs::write(&path, text).expect("writes oracle");
        }
        path
    }

    fn failure(path: &Path, actual: &str) -> String {
        let panic = std::panic::catch_unwind(|| check(path, actual, false)).expect_err("fails");
        panic.downcast_ref::<String>().cloned().unwrap_or_default()
    }

    #[test]
    fn a_mismatch_fails_naming_the_first_moved_line_and_leaves_the_file() {
        let path = oracle("mismatch", Some("a\nb\nc\nd\n"));
        let message = failure(&path, "a\nB\nc\nD\ne\n");
        let first = r#"first moved line 2: was "b\n", now "B\n"; moved lines: 2 gone, 3 new"#;
        assert!(message.contains(first), "{message}");
        assert!(
            message.ends_with("rerun with LSBENCH_BLESS=1."),
            "{message}"
        );
        assert_eq!(read_to_string(&path).unwrap(), "a\nb\nc\nd\n");
        let _ = remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn blessing_rewrites_the_file_and_the_next_check_passes() {
        let path = oracle("bless", Some("a\nb\nc\n"));
        let report = check(&path, "a\nB\nc\n", true).expect("a bless reports what moved");
        let moved = "1 gone, 1 new\n-     2: b\n+     2: B";
        assert!(report.ends_with(moved), "{report}");
        assert_eq!(read_to_string(&path).unwrap(), "a\nB\nc\n");
        assert_eq!(check(&path, "a\nB\nc\n", false), None);
        // The temporary file was renamed onto the oracle, not left beside it.
        assert_eq!(path.parent().unwrap().read_dir().unwrap().count(), 1);
        let _ = remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn a_missing_oracle_fails_without_bless_and_is_created_with_it() {
        let path = oracle("missing", None);
        let message = failure(&path, "new\n");
        assert!(
            message.ends_with("create it with LSBENCH_BLESS=1"),
            "{message}"
        );
        assert!(!path.exists());
        let report = check(&path, "new\n", true);
        assert_eq!(report.as_deref(), Some("created; lines: 1"));
        assert_eq!(read_to_string(&path).unwrap(), "new\n");
        let _ = remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn a_trailing_newline_survives_a_round_trip() {
        for (text, other) in [("x\ny\n", "x\ny"), ("x\ny", "x\ny\n")] {
            let path = oracle("newline", None);
            check(&path, text, true);
            assert_eq!(read_to_string(&path).unwrap(), text);
            assert_eq!(check(&path, text, false), None);
            assert!(failure(&path, other).contains("first moved line 2"));
            let _ = remove_dir_all(path.parent().unwrap());
        }
    }
}
