//! One check for every frozen oracle file: [`check_or_bless`]. It fails on
//! any byte that moved and leaves the file as it was, so no test run can
//! rewrite an oracle. Only `LSBENCH_BLESS=1` makes it write the file, or
//! create a missing one; review that diff and commit it on its own.
//!
//! Test files of this package and of others include it with `#[path]`, so
//! it uses `std` only.

use std::collections::HashMap;
use std::io::Write as _;
use std::path::Path;

/// The environment variable that lets a test run write an oracle.
pub const BLESS: &str = "LSBENCH_BLESS";

/// Checks `actual` against the oracle file at `path`, or writes it there
/// when `LSBENCH_BLESS=1` is set and prints what moved.
#[track_caller]
pub fn check_or_bless(path: impl AsRef<Path>, actual: &str) {
    let (path, bless) = (
        path.as_ref(),
        std::env::var_os(BLESS).is_some_and(|v| v == "1"),
    );
    if let Some(report) = check_or_bless_with(path, actual, bless) {
        // Straight to the process's stderr: the test harness captures
        // `eprintln!` of a passing test, and a bless must show what it wrote.
        let _ = writeln!(std::io::stderr(), "blessed {}: {report}", path.display());
    }
}

/// [`check_or_bless`] with the switch passed in rather than read from the
/// environment. Returns what moved when it wrote the file.
#[track_caller]
pub fn check_or_bless_with(path: &Path, actual: &str, bless: bool) -> Option<String> {
    let shown = path.display();
    let report = match std::fs::read(path) {
        Ok(old) if old == actual.as_bytes() => return None,
        Ok(old) => report(&String::from_utf8_lossy(&old), actual),
        Err(e) if e.kind() != std::io::ErrorKind::NotFound => panic!("cannot read {shown}: {e}"),
        Err(_) if !bless => panic!("oracle {shown} does not exist: create it with {BLESS}=1"),
        Err(_) => format!("created; lines: {}", actual.split_inclusive('\n').count()),
    };
    if !bless {
        panic!("{shown} moved: {report}\nIf the move is deliberate, rerun with {BLESS}=1.");
    }
    // A temporary file beside the oracle, renamed over it, so that a reader
    // never sees half a file. One writer per file at a time.
    let temp = path.with_extension(format!("bless-{}", std::process::id()));
    std::fs::write(&temp, actual)
        .unwrap_or_else(|e| panic!("cannot write {}: {e}", temp.display()));
    std::fs::rename(&temp, path).unwrap_or_else(|e| panic!("cannot replace {shown}: {e}"));
    Some(report)
}

/// The first moved line, then every line gone (`-`) and new (`+`), numbered
/// in its own text. The lines both texts share at their head and tail are
/// set aside; in between, a line moved when the other text has fewer copies.
fn report(old: &str, new: &str) -> String {
    let old: Vec<&str> = old.split_inclusive('\n').collect();
    let new: Vec<&str> = new.split_inclusive('\n').collect();
    let head = old.iter().zip(&new).take_while(|(o, n)| o == n).count();
    let tail = old[head..]
        .iter()
        .rev()
        .zip(new[head..].iter().rev())
        .take_while(|(o, n)| o == n)
        .count();
    let (old_mid, new_mid) = (&old[head..old.len() - tail], &new[head..new.len() - tail]);
    let gone = only_in(old_mid, new_mid, head, '-');
    let came = only_in(new_mid, old_mid, head, '+');
    let at = |l: &[&str]| {
        l.get(head)
            .map_or("(end of file)".into(), |l| format!("{l:?}"))
    };
    let (line, was, now, g, c) = (head + 1, at(&old), at(&new), gone.len(), came.len());
    let mut out =
        format!("first moved line {line}: was {was}, now {now}; moved lines: {g} gone, {c} new");
    for line in gone.iter().chain(&came) {
        out.push_str(&format!("\n{line}"));
    }
    out
}

/// The lines of `these` that `those` has fewer copies of, as `sign`, line
/// number (`offset` lines precede `these`) and text.
fn only_in(these: &[&str], those: &[&str], offset: usize, sign: char) -> Vec<String> {
    let mut left: HashMap<&str, usize> = HashMap::new();
    for line in those {
        *left.entry(line).or_default() += 1;
    }
    let mut only = Vec::new();
    for (i, line) in these.iter().enumerate() {
        match left.get_mut(line) {
            Some(n) if *n > 0 => *n -= 1,
            _ => only.push(format!("{sign}{:>6}: {}", offset + i + 1, line.trim_end())),
        }
    }
    only
}
