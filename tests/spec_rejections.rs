//! The rejection oracle of the spec language: a frozen transcript of what
//! the parser says about ~500 broken (and a few deliberately fine) files.
//!
//! `tests/spec_fixtures/bad/` pins fourteen rejections; the parser has
//! several times that many. This file takes four well-formed base texts —
//! a scenario using every section and `[run]` key, a scenario chaining all
//! seven composer blocks, a fault-plan file and a regression-policy file —
//! edits each **one line at a time** (replace / delete / insert after an
//! anchor line; when the anchor occurs more than once, its last occurrence
//! is edited too), adds a handful of whole-text cases, and records per case
//! either `ERR line N: field: reason` or `OK` plus what the text parsed to
//! (the canonical `render_scenario` output for scenarios, asserting
//! `parse(render(s)) == s` on the way; `Debug` for plans and policies).
//! The transcript is compared byte for byte with
//! `tests/spec_fixtures/rejections.txt`, so a refactor of the reading layer
//! cannot move a line number, a field name, a message or the choice of
//! which error wins when a file has several.
//!
//! `LSBENCH_BLESS=1` rewrites the moved lines (see
//! `tests/support/oracle.rs`); review every one.

use lsbench::core::results::parse_regression_policy;
use lsbench::core::spec::{parse_fault_plan, parse_scenario, render_scenario};
use std::fmt::Write as _;

#[path = "support/oracle.rs"]
mod oracle;

// ---------------------------------------------------------------------------
// Base texts.
// ---------------------------------------------------------------------------

/// Every singleton section, every `[run]` key, two `[[phase]]`s (the second
/// gradual, with explicit weights and a concurrency burst), a `[[holdout]]`
/// and one `[[fault]]` of each kind.
const FULL: &str = r#"name = "full"
seed = 7

[dataset]
distribution = "lognormal"
mu = 0.0
sigma = 1.0
key_range = [0, 1000000]
size = 1000
seed = 8

[sla]
policy = "fixed"
threshold = 0.5

[run]
train_budget = "unlimited"
work_units_per_second = 1000000.0
maintenance_every = 64
online_train = "background"
train_fraction = 0.25
mode = "open-loop"
clock = "sim"
holdout_seed = 9
fault_seed = 10
timeout = 0.05
max_retries = 3
backoff_base = 0.001
backoff_multiplier = 2.0

[arrival]
process = "poisson"
rate = 5000.0
modulation = "burst"
period = 0.2
burst_len = 0.04
multiplier = 4.0
seed = 11

[open_loop]
clients = 100

[[phase]]
name = "warm"
distribution = "zipf"
theta = 0.9
mix = "ycsb-c"
ops = 200

[[phase]]
name = "shifted"
transition = "gradual"
window = 0.3
distribution = "hotspot"
hot_span = 0.1
hot_fraction = 0.9
key_range = [0, 500000]
read = 0.7
insert = 0.1
update = 0.1
scan = 0.1
max_scan_len = 20
ops = 300
concurrency_burst = 2.0

[[holdout]]
distribution = "uniform"
mix = "ycsb-b"
ops = 100

[[fault]]
kind = "errors"
phase = 0
rate = 0.05

[[fault]]
kind = "latency"
phase = 1
add_work = 50
factor = 2.0

[[fault]]
kind = "stall"
phase = 0
from_op = 10
ops = 20
duration = 0.01

[[fault]]
kind = "crash"
phase = 1
at_op = 150
"#;

/// All seven composer blocks chained into one workload.
const COMPOSED: &str = r#"name = "composed"
seed = 21

[dataset]
distribution = "uniform"
key_range = [0, 1000000]
size = 500
seed = 22

[[diurnal]]
steps = 4
ops_per_step = 50
period = 4.0
amplitude = 0.5
distribution = "normal"
center = 0.5
std_frac = 0.1
mix = "ycsb-c"

[[burst]]
name = "crowd"
transition = "abrupt"
steps = 5
ops_per_step = 10
at = 1
width = 2
factor = 3.0
distribution = "zipf"
theta = 0.9
mix = "ycsb-b"

[[gradual_shift]]
transition = "gradual"
window = 0.4
steps = 3
ops_per_step = 20
from = "clustered"
from_clusters = 4
from_cluster_std_frac = 0.02
to = "clustered"
to_clusters = 8
to_cluster_std_frac = 0.05
smooth = 0.5
key_range = [0, 500000]
read = 0.9
update = 0.1

[[growing_skew]]
steps = 6
ops_per_step = 15
start_theta = 0.4
end_theta = 1.2
mix = "ycsb-d"

[[drift]]
steps = 7
ops_per_step = 25
from = "seq"
from_noise_frac = 0.1
to = "seq"
to_noise_frac = 0.5
alpha = 0.75
smooth = 0.25
mix = "ycsb-a"

[[templated_repetition]]
steps = 8
ops_per_step = 30
templates = 100
hot_templates = 10
theta = 1.1
churn = 0.5
mix = "ycsb-c"

[[ledger]]
steps = 9
ops_per_step = 40
start_frac = 0.25
append_fraction = 0.3
recency = 0.2
"#;

/// A standalone fault-plan file (`--faults FILE`).
const PLAN: &str = r#"# retry policy, then one fault of each kind
seed = 5
timeout = 0.05
max_retries = 2
backoff_base = 0.001
backoff_multiplier = 2.0

[[fault]]
kind = "errors"
rate = 0.1

[[fault]]
kind = "latency"
phase = 1
add_work = 10
factor = 1.5

[[fault]]
kind = "stall"
phase = 0
from_op = 5
ops = 10
duration = 0.02

[[fault]]
kind = "crash"
phase = 2
at_op = 50
"#;

/// A regression-policy file (`lsbench regress --policy FILE`).
const POLICY: &str = r#"# every knob of the gate
max_area_regression = 500.0
max_p99_regression_pct = 100.0
max_throughput_regression_pct = 50.0
max_sla_violation_increase = 0.25
max_cost_ratio = 3.0
"#;

/// Root keys and a `[dataset]` with a default key range; whole-text cases
/// append their blocks to it.
const MINI: &str = r#"name = "mini"
seed = 1

[dataset]
distribution = "uniform"
key_range = [0, 1000]
size = 100
seed = 2
"#;

// ---------------------------------------------------------------------------
// Edits.
// ---------------------------------------------------------------------------

/// A one-place edit of a base text. Anchors and replacements are whole
/// lines; either may span several consecutive lines (joined by `\n`).
#[derive(Clone, Copy)]
enum Edit {
    /// Replace the anchor.
    R(&'static str, &'static str),
    /// Delete the anchor.
    D(&'static str),
    /// Insert after the anchor.
    I(&'static str, &'static str),
}
use Edit::{D, I, R};

#[derive(Clone, Copy)]
enum Kind {
    Scenario,
    Plan,
    Policy,
}

const FULL_EDITS: &[Edit] = &[
    // --- lexer: headers ---
    I("seed = 7", "[[phase]"),
    I("seed = 7", "[[dataset]]"),
    I("seed = 7", "[[bogus]]"),
    I("seed = 7", "[[]]"),
    I("seed = 7", "[dataset"),
    I("seed = 7", "[phase]"),
    I("seed = 7", "[fault]"),
    I("seed = 7", "[bogus]"),
    I("seed = 7", "[]"),
    I("seed = 8", "[dataset]"),
    I("clients = 100", "[run]"),
    R("[sla]", "[ sla ]"),
    R("[[holdout]]", "[[ holdout ]]"),
    R("[sla]", "[sla] # the service level"),
    // --- lexer: keys and lines ---
    I("seed = 7", "bad-key = 1"),
    I("seed = 7", "9lives = 1"),
    I("seed = 7", " = 1"),
    I("seed = 7", "just some words"),
    I("size = 1000", "size = 2000"),
    // --- lexer: values ---
    R("size = 1000", "size ="),
    R("size = 1000", "size = 1000 # trailing comment"),
    R("size = 1000", "size = 0x400"),
    R("size = 1000", "size = 0xZZ"),
    R("size = 1000", "size = 12abc"),
    R("size = 1000", "size = twelve"),
    R("size = 1000", "size = 1e999"),
    R("size = 1000", "size = inf"),
    R("size = 1000", "size = NaN"),
    R("size = 1000", "size = 18446744073709551616"),
    R(r#"name = "full""#, r#"name = "full # not a comment""#),
    R(r#"name = "full""#, r#"name = "full"#),
    R(r#"name = "full""#, r#"name = "fu"ll""#),
    R(r#"name = "full""#, r#"name = """#),
    R("key_range = [0, 1000000]", "key_range = [0, 1000000"),
    R("key_range = [0, 1000000]", "key_range = [0, 1, 2]"),
    R("key_range = [0, 1000000]", "key_range = [7]"),
    R("key_range = [0, 1000000]", "key_range = []"),
    R("key_range = [0, 1000000]", "key_range = [a, b]"),
    R("key_range = [0, 1000000]", "key_range = [0.5, 2]"),
    R("key_range = [0, 1000000]", "key_range = [-1, 5]"),
    R("key_range = [0, 1000000]", "key_range = [0x0, 0xFFFFF]"),
    // --- typed reads: every mismatch ---
    R("size = 1000", "size = -5"),
    R("size = 1000", "size = 10.5"),
    R("size = 1000", r#"size = "big""#),
    R("size = 1000", "size = true"),
    R("size = 1000", "size = [1, 2]"),
    R("mu = 0.0", "mu = 1"),
    R("mu = 0.0", r#"mu = "zero""#),
    R("sigma = 1.0", "sigma = false"),
    R("sigma = 1.0", "sigma = [1, 2]"),
    R(r#"name = "full""#, "name = 5"),
    R(r#"name = "full""#, "name = 5.5"),
    R(r#"name = "full""#, "name = true"),
    R(r#"name = "full""#, "name = [1, 2]"),
    R("key_range = [0, 1000000]", "key_range = 5"),
    R("key_range = [0, 1000000]", r#"key_range = "wide""#),
    R("key_range = [0, 1000000]", "key_range = [5, 5]"),
    R("key_range = [0, 1000000]", "key_range = [9, 3]"),
    // --- root ---
    D(r#"name = "full""#),
    D("seed = 7"),
    R("seed = 7", "seed = 7.5"),
    R("seed = 7", r#"seed = "x""#),
    I("seed = 7", "extra = 1"),
    // --- [dataset] ---
    D("[dataset]"),
    D(r#"distribution = "lognormal""#),
    D("mu = 0.0"),
    D("sigma = 1.0"),
    D("key_range = [0, 1000000]"),
    D("size = 1000"),
    D("seed = 8"),
    R("size = 1000", "size = 0"),
    R("sigma = 1.0", "sigma = 0.0"),
    R("sigma = 1.0", "sigma = -1.0"),
    R(
        r#"distribution = "lognormal""#,
        r#"distribution = "gaussian""#,
    ),
    R(r#"distribution = "lognormal""#, "distribution = 5"),
    I("[dataset]", "bogus = 1"),
    // --- [sla] ---
    D("[sla]"),
    D(r#"policy = "fixed""#),
    R(r#"policy = "fixed""#, r#"policy = "p50""#),
    R(r#"policy = "fixed""#, "policy = 3"),
    R(r#"policy = "fixed""#, r#"policy = "baseline-p99""#),
    D("threshold = 0.5"),
    R("threshold = 0.5", "threshold = 0.0"),
    R("threshold = 0.5", "threshold = -1"),
    R("threshold = 0.5", r#"threshold = "x""#),
    R("threshold = 0.5", "multiplier = 3.0"),
    I("[sla]", "bogus = 1"),
    // --- [run] ---
    D("[run]"),
    R(r#"train_budget = "unlimited""#, "train_budget = 5000"),
    R(r#"train_budget = "unlimited""#, r#"train_budget = "lots""#),
    R(r#"train_budget = "unlimited""#, "train_budget = 1.5"),
    R(r#"train_budget = "unlimited""#, "train_budget = true"),
    D(r#"train_budget = "unlimited""#),
    R(
        "work_units_per_second = 1000000.0",
        r#"work_units_per_second = "fast""#,
    ),
    R(
        "work_units_per_second = 1000000.0",
        "work_units_per_second = 0",
    ),
    R("maintenance_every = 64", "maintenance_every = 0"),
    R("maintenance_every = 64", "maintenance_every = 1.5"),
    D(r#"online_train = "background""#),
    R(
        r#"online_train = "background""#,
        r#"online_train = "foreground""#,
    ),
    R(
        r#"online_train = "background""#,
        r#"online_train = "sometimes""#,
    ),
    R(r#"online_train = "background""#, "online_train = 1"),
    D("train_fraction = 0.25"),
    R("train_fraction = 0.25", "train_fraction = 0.0"),
    R("train_fraction = 0.25", "train_fraction = 1.0"),
    R("train_fraction = 0.25", r#"train_fraction = "x""#),
    R(r#"mode = "open-loop""#, r#"mode = "serial""#),
    R(r#"mode = "open-loop""#, r#"mode = "shared""#),
    R(r#"mode = "open-loop""#, r#"mode = "sharded""#),
    R(r#"mode = "open-loop""#, r#"mode = "warp""#),
    R(r#"mode = "open-loop""#, "mode = 1"),
    R(r#"clock = "sim""#, r#"clock = "wall""#),
    R(r#"clock = "sim""#, r#"clock = "lunar""#),
    R(r#"clock = "sim""#, "clock = 5"),
    D("holdout_seed = 9"),
    R("holdout_seed = 9", r#"holdout_seed = "x""#),
    D("fault_seed = 10"),
    R("fault_seed = 10", "fault_seed = 1.5"),
    D("timeout = 0.05"),
    R("timeout = 0.05", "timeout = 0.0"),
    R("timeout = 0.05", "timeout = -1"),
    R("timeout = 0.05", r#"timeout = "x""#),
    R("max_retries = 3", "max_retries = 4294967295"),
    R("max_retries = 3", "max_retries = 4294967296"),
    R("max_retries = 3", "max_retries = 1.5"),
    R("max_retries = 3", r#"max_retries = "x""#),
    R("backoff_base = 0.001", "backoff_base = -0.1"),
    R("backoff_base = 0.001", r#"backoff_base = "x""#),
    R("backoff_multiplier = 2.0", "backoff_multiplier = -2.0"),
    R("backoff_multiplier = 2.0", "backoff_multiplier = true"),
    I("[run]", "bogus = 1"),
    // --- [arrival] ---
    D("[arrival]"),
    D(r#"process = "poisson""#),
    R(r#"process = "poisson""#, r#"process = "uniform""#),
    R(r#"process = "poisson""#, r#"process = "closed-loop""#),
    R(r#"process = "poisson""#, r#"process = "bursty""#),
    R(r#"process = "poisson""#, "process = 1"),
    D("rate = 5000.0"),
    R("rate = 5000.0", "rate = 0.0"),
    R("rate = 5000.0", "rate = -5.0"),
    R("rate = 5000.0", r#"rate = "x""#),
    D(r#"modulation = "burst""#),
    R(r#"modulation = "burst""#, r#"modulation = "wavy""#),
    R(r#"modulation = "burst""#, "modulation = 1"),
    R(r#"modulation = "burst""#, r#"modulation = "constant""#),
    R(r#"modulation = "burst""#, r#"modulation = "diurnal""#),
    D("period = 0.2"),
    D("burst_len = 0.04"),
    D("multiplier = 4.0"),
    R("burst_len = 0.04", "burst_len = 0.5"),
    R("multiplier = 4.0", "multiplier = 0.0"),
    R("period = 0.2", r#"period = "x""#),
    D("seed = 11"),
    I("[arrival]", "bogus = 1"),
    // --- [open_loop] ---
    D("[open_loop]"),
    D("clients = 100"),
    R("clients = 100", "clients = 0"),
    R("clients = 100", "clients = 1.5"),
    I("clients = 100", "arrival = 2000.0"),
    I("clients = 100", r#"arrival = "fast""#),
    I("[open_loop]", "bogus = 1"),
    // --- the first [[phase]] ---
    D(r#"name = "warm""#),
    R(r#"name = "warm""#, "name = 5"),
    I(r#"name = "warm""#, r#"transition = "abrupt""#),
    I(r#"name = "warm""#, "window = 0.5"),
    D(r#"distribution = "zipf""#),
    D("theta = 0.9"),
    R("theta = 0.9", "theta = 0.0"),
    R("theta = 0.9", r#"theta = "x""#),
    R(r#"mix = "ycsb-c""#, r#"mix = "ycsb-z""#),
    R(r#"mix = "ycsb-c""#, "mix = 5"),
    I(r#"mix = "ycsb-c""#, "read = 0.5"),
    I(r#"mix = "ycsb-c""#, "max_scan_len = 5"),
    D(r#"mix = "ycsb-c""#),
    D("ops = 200"),
    R("ops = 200", "ops = 0"),
    R("ops = 200", "ops = 1.5"),
    I("ops = 200", "concurrency_burst = 0.0"),
    I("ops = 200", "concurrency_burst = -1.0"),
    I("ops = 200", r#"concurrency_burst = "x""#),
    I("[[phase]]", "bogus = 1"),
    // --- the second [[phase]] ---
    R(r#"transition = "gradual""#, r#"transition = "sudden""#),
    R(r#"transition = "gradual""#, "transition = 5"),
    R(r#"transition = "gradual""#, r#"transition = "abrupt""#),
    D(r#"transition = "gradual""#),
    D("window = 0.3"),
    R("window = 0.3", "window = 0.0"),
    R("window = 0.3", "window = 1.5"),
    R("window = 0.3", "window = 1"),
    R("window = 0.3", r#"window = "wide""#),
    D("hot_span = 0.1"),
    D("hot_fraction = 0.9"),
    R("hot_span = 0.1", "hot_span = 1.0"),
    R("hot_fraction = 0.9", "hot_fraction = 2.0"),
    D("key_range = [0, 500000]"),
    R("key_range = [0, 500000]", "key_range = [5, 5]"),
    R("read = 0.7", r#"read = "x""#),
    R("read = 0.7", "read = -0.7"),
    R("scan = 0.1", "scan = true"),
    D("max_scan_len = 20"),
    R("max_scan_len = 20", "max_scan_len = 1.5"),
    R("max_scan_len = 20", "max_scan_len = 4294967296"),
    R("max_scan_len = 20", "max_scan_len = 4294967297"),
    I("scan = 0.1", "delete = 0.05"),
    D("ops = 300"),
    R("concurrency_burst = 2.0", "concurrency_burst = 1"),
    // --- [[holdout]] ---
    I("[[holdout]]", r#"transition = "abrupt""#),
    I("[[holdout]]", r#"name = "unseen""#),
    D(r#"distribution = "uniform""#),
    D(r#"mix = "ycsb-b""#),
    D("ops = 100"),
    I("[[holdout]]", "bogus = 1"),
    // --- [[fault]] blocks ---
    D(r#"kind = "errors""#),
    R(r#"kind = "errors""#, r#"kind = "explode""#),
    R(r#"kind = "errors""#, "kind = 5"),
    D("phase = 0"),
    R("phase = 0", "phase = 7"),
    R("phase = 0", r#"phase = "x""#),
    D("rate = 0.05"),
    R("rate = 0.05", "rate = 1.5"),
    R("rate = 0.05", "rate = -0.5"),
    R("rate = 0.05", r#"rate = "x""#),
    I("rate = 0.05", "factor = 2.0"),
    D("phase = 1"),
    R("phase = 1", "phase = 9"),
    R("phase = 1", "phase = 1.5"),
    D("add_work = 50"),
    R("add_work = 50", "add_work = 1.5"),
    D("factor = 2.0"),
    R("factor = 2.0", "factor = -1.0"),
    R("factor = 2.0", r#"factor = "x""#),
    I("factor = 2.0", "rate = 0.5"),
    D("from_op = 10"),
    R("from_op = 10", "from_op = 190"),
    R("from_op = 10", "from_op = 1.5"),
    D("ops = 20"),
    R("ops = 20", "ops = 0"),
    R("ops = 20", "ops = 191"),
    R("ops = 20", "ops = true"),
    D("duration = 0.01"),
    R("duration = 0.01", "duration = 0.0"),
    R("duration = 0.01", r#"duration = "x""#),
    I("duration = 0.01", "at_op = 3"),
    D("at_op = 150"),
    R("at_op = 150", "at_op = 300"),
    R("at_op = 150", r#"at_op = "x""#),
    R(r#"kind = "crash""#, r#"kind = "stall""#),
    I("[[fault]]", "bogus = 1"),
    // --- counts at the edge of u64 (these overflowed before ISSUE 14) ---
    R("ops = 200", "ops = 18446744073709551615"),
    R("from_op = 10", "from_op = 18446744073709551615"),
];

const COMPOSED_EDITS: &[Edit] = &[
    // --- keys every composer shares ---
    I("[[diurnal]]", r#"transition = "abrupt""#),
    I("[[diurnal]]", "name = 5"),
    I("[[diurnal]]", r#"name = "day""#),
    D("steps = 4"),
    R("steps = 4", "steps = 0"),
    R("steps = 4", "steps = 100001"),
    R("steps = 4", "steps = 1.5"),
    D("ops_per_step = 50"),
    R("ops_per_step = 50", "ops_per_step = 0"),
    R("ops_per_step = 50", r#"ops_per_step = "x""#),
    D(r#"mix = "ycsb-c""#),
    R(r#"mix = "ycsb-c""#, r#"mix = "ycsb-q""#),
    I("[[diurnal]]", "key_range = [10, 10]"),
    I("[[diurnal]]", "key_range = [10, 20]"),
    I("[[diurnal]]", "bogus = 1"),
    D("key_range = [0, 1000000]"),
    // --- [[diurnal]] ---
    D("period = 4.0"),
    R("period = 4.0", "period = 0.0"),
    R("period = 4.0", r#"period = "x""#),
    D("amplitude = 0.5"),
    R("amplitude = 0.5", "amplitude = 1.0"),
    R("amplitude = 0.5", "amplitude = -0.1"),
    D(r#"distribution = "normal""#),
    D("center = 0.5"),
    D("std_frac = 0.1"),
    R("center = 0.5", "center = 1.5"),
    R("std_frac = 0.1", "std_frac = 0.0"),
    I("[[diurnal]]", "smooth = 0.5"),
    // --- [[burst]] ---
    R(
        r#"transition = "abrupt""#,
        r#"transition = "abrupt"
window = 0.5"#,
    ),
    R(r#"name = "crowd""#, "name = true"),
    R("steps = 5", "steps = 0"),
    D("at = 1"),
    R("at = 1", "at = 4"),
    R("at = 1", "at = 18446744073709551615"),
    R("at = 1", "at = 1.5"),
    D("width = 2"),
    R("width = 2", "width = 0"),
    R("width = 2", "width = 5"),
    D("factor = 3.0"),
    R("factor = 3.0", "factor = 0.0"),
    R("factor = 3.0", r#"factor = "x""#),
    D(r#"distribution = "zipf""#),
    R("theta = 0.9", "theta = -0.9"),
    I("[[burst]]", "bogus = 1"),
    // --- [[gradual_shift]] ---
    D("window = 0.4"),
    R("window = 0.4", "window = 0.0"),
    R("window = 0.4", r#"window = "wide""#),
    R("steps = 3", "steps = 1"),
    R("steps = 3", "steps = 2"),
    D(r#"from = "clustered""#),
    D("from_clusters = 4"),
    D("from_cluster_std_frac = 0.02"),
    R("from_clusters = 4", "from_clusters = 4.5"),
    R("from_clusters = 4", "from_clusters = 0"),
    R(r#"from = "clustered""#, r#"from = "uniform""#),
    R(
        r#"from = "clustered"
from_clusters = 4
from_cluster_std_frac = 0.02"#,
        r#"from = "uniform""#,
    ),
    R(r#"from = "clustered""#, r#"from = "pareto""#),
    D(r#"to = "clustered""#),
    D("to_clusters = 8"),
    R("to_cluster_std_frac = 0.05", "to_cluster_std_frac = 0.0"),
    R(r#"to = "clustered""#, "to = 8"),
    D("smooth = 0.5"),
    R("smooth = 0.5", "smooth = 0.0"),
    R("smooth = 0.5", "smooth = 1.5"),
    R("smooth = 0.5", "smooth = 1"),
    R("smooth = 0.5", r#"smooth = "x""#),
    R("key_range = [0, 500000]", "key_range = [3, 3]"),
    R("read = 0.9", "read = -1"),
    R("read = 0.9", "read = 0.0"),
    I("update = 0.1", r#"mix = "ycsb-a""#),
    I("[[gradual_shift]]", "bogus = 1"),
    // --- [[growing_skew]] ---
    D("start_theta = 0.4"),
    D("end_theta = 1.2"),
    R("start_theta = 0.4", "start_theta = 0.0"),
    R("end_theta = 1.2", "end_theta = -1.0"),
    R("end_theta = 1.2", r#"end_theta = "x""#),
    R("steps = 6", "steps = 1"),
    I("end_theta = 1.2", "smooth = 2.0"),
    I("end_theta = 1.2", "smooth = 0.75"),
    I("[[growing_skew]]", "theta = 1.0"),
    // --- [[drift]] ---
    D("alpha = 0.75"),
    R("alpha = 0.75", "alpha = 1.5"),
    R("alpha = 0.75", "alpha = -0.1"),
    R("alpha = 0.75", "alpha = 0"),
    R("alpha = 0.75", "alpha = 1"),
    R("alpha = 0.75", r#"alpha = "x""#),
    R(
        r#"to = "seq"
to_noise_frac = 0.5"#,
        r#"to = "uniform""#,
    ),
    D("from_noise_frac = 0.1"),
    R("to_noise_frac = 0.5", "to_noise_frac = 1.5"),
    R("steps = 7", "steps = 1"),
    R("smooth = 0.25", "smooth = -0.25"),
    I("[[drift]]", "bogus = 1"),
    // --- [[templated_repetition]] ---
    D("templates = 100"),
    R("templates = 100", "templates = 1"),
    R("templates = 100", "templates = 1000001"),
    R("templates = 100", "templates = 1.5"),
    D("hot_templates = 10"),
    R("hot_templates = 10", "hot_templates = 0"),
    R("hot_templates = 10", "hot_templates = 100"),
    D("theta = 1.1"),
    R("theta = 1.1", "theta = 0.0"),
    D("churn = 0.5"),
    R("churn = 0.5", "churn = 1.5"),
    R("churn = 0.5", r#"churn = "x""#),
    R("steps = 8", "steps = 1"),
    R("steps = 8", "steps = 0"),
    I("[[templated_repetition]]", "bogus = 1"),
    // --- [[ledger]] ---
    I("[[ledger]]", r#"name = "book""#),
    I(
        "[[ledger]]",
        r#"transition = "gradual"
window = 0.2"#,
    ),
    I("[[ledger]]", r#"transition = "gradual""#),
    D("steps = 9"),
    R("steps = 9", "steps = 1"),
    D("ops_per_step = 40"),
    R("ops_per_step = 40", "ops_per_step = 0"),
    D("start_frac = 0.25"),
    R("start_frac = 0.25", "start_frac = 0.0"),
    R("start_frac = 0.25", "start_frac = 1.0"),
    D("append_fraction = 0.3"),
    R("append_fraction = 0.3", "append_fraction = 1.0"),
    R("append_fraction = 0.3", r#"append_fraction = "x""#),
    D("recency = 0.2"),
    R("recency = 0.2", "recency = 0.0"),
    R("recency = 0.2", "recency = 1.5"),
    I("[[ledger]]", "key_range = [0, 2]"),
    I("[[ledger]]", "key_range = [4, 4]"),
    I("[[ledger]]", r#"mix = "ycsb-c""#),
    I("[[ledger]]", "read = 0.5"),
    // --- what may not follow the chain ---
    I(
        "recency = 0.2",
        "[[fault]]\nkind = \"crash\"\nphase = 42\nat_op = 0",
    ),
    I(
        "recency = 0.2",
        "[[fault]]\nkind = \"crash\"\nphase = 41\nat_op = 40",
    ),
    I(
        "recency = 0.2",
        "[[fault]]\nkind = \"crash\"\nphase = 41\nat_op = 39",
    ),
    // --- counts at the edge of u64 (these overflowed before ISSUE 14) ---
    R("ops_per_step = 50", "ops_per_step = 18446744073709551615"),
    I("[[ledger]]", "key_range = [1, 18446744073709551615]"),
];

const PLAN_EDITS: &[Edit] = &[
    D("seed = 5"),
    R("seed = 5", r#"seed = "x""#),
    R("seed = 5", "seed = 1.5"),
    D("timeout = 0.05"),
    R("timeout = 0.05", "timeout = 0"),
    R("timeout = 0.05", r#"timeout = "x""#),
    D("max_retries = 2"),
    R("max_retries = 2", "max_retries = 4294967296"),
    R("max_retries = 2", "max_retries = true"),
    D("backoff_base = 0.001"),
    R("backoff_base = 0.001", "backoff_base = -1"),
    D("backoff_multiplier = 2.0"),
    R("backoff_multiplier = 2.0", r#"backoff_multiplier = "x""#),
    R("backoff_multiplier = 2.0", "backoff_multiplier = -1.0"),
    I("seed = 5", "bogus = 1"),
    I("seed = 5", "seed = 6"),
    I("backoff_multiplier = 2.0", "[dataset]"),
    I("backoff_multiplier = 2.0", "[run]"),
    I("backoff_multiplier = 2.0", "[[phase]]"),
    I("backoff_multiplier = 2.0", "[[ledger]]"),
    I("backoff_multiplier = 2.0", "[plan]"),
    I("backoff_multiplier = 2.0", "[[fault]"),
    I("at_op = 50", "[sla]\npolicy = \"fixed\""),
    D(r#"kind = "errors""#),
    R(r#"kind = "errors""#, r#"kind = "boom""#),
    R("rate = 0.1", "rate = 2.0"),
    D("rate = 0.1"),
    R("phase = 1", "phase = 99"),
    R("phase = 1", r#"phase = "x""#),
    R("factor = 1.5", "factor = -1.5"),
    R("ops = 10", "ops = 0"),
    D("ops = 10"),
    R("duration = 0.02", "duration = -1"),
    D("at_op = 50"),
    D("phase = 2"),
    I("[[fault]]", "bogus = 1"),
];

const POLICY_EDITS: &[Edit] = &[
    D("max_area_regression = 500.0"),
    R("max_area_regression = 500.0", "max_area_regression = 0"),
    R("max_area_regression = 500.0", "max_area_regression = -1.0"),
    R(
        "max_area_regression = 500.0",
        r#"max_area_regression = "x""#,
    ),
    D("max_p99_regression_pct = 100.0"),
    R(
        "max_p99_regression_pct = 100.0",
        "max_p99_regression_pct = -0.5",
    ),
    R(
        "max_p99_regression_pct = 100.0",
        "max_p99_regression_pct = true",
    ),
    D("max_throughput_regression_pct = 50.0"),
    R(
        "max_throughput_regression_pct = 50.0",
        "max_throughput_regression_pct = -50",
    ),
    R(
        "max_throughput_regression_pct = 50.0",
        "max_throughput_regression_pct = [1, 2]",
    ),
    D("max_sla_violation_increase = 0.25"),
    R(
        "max_sla_violation_increase = 0.25",
        "max_sla_violation_increase = -0.25",
    ),
    D("max_cost_ratio = 3.0"),
    R("max_cost_ratio = 3.0", "max_cost_ratio = 0"),
    R("max_cost_ratio = 3.0", "max_cost_ratio = -1.0"),
    R("max_cost_ratio = 3.0", r#"max_cost_ratio = "x""#),
    R("max_cost_ratio = 3.0", "max_cost_ratio = 3"),
    I("max_cost_ratio = 3.0", "max_cost_ratio = 4.0"),
    I("max_cost_ratio = 3.0", "max_latency = 1.0"),
    I("max_cost_ratio = 3.0", "[sla]"),
    I("max_cost_ratio = 3.0", "[[fault]]"),
    I("max_cost_ratio = 3.0", "[gate]"),
    I("max_cost_ratio = 3.0", "max cost = 1"),
];

/// Whole-text cases: what no one-line edit of a base text reaches.
fn whole_texts() -> Vec<(Kind, &'static str, String)> {
    let mini = |blocks: &str| format!("{MINI}\n{blocks}");
    let phase = "[[phase]]\ndistribution = \"uniform\"\nmix = \"ycsb-c\"\nops = 10\n";
    let mut cases = Vec::new();
    for kind in [Kind::Scenario, Kind::Plan, Kind::Policy] {
        cases.push((kind, "empty", String::new()));
        cases.push((kind, "blank lines only", " \n\n\t\n".to_string()));
        cases.push((
            kind,
            "comments only",
            "# nothing here\n  # nor here\n".to_string(),
        ));
    }
    let scenario: Vec<(&'static str, String)> = vec![
        ("minimal", mini(phase)),
        ("minimal, CRLF line endings", mini(phase).replace('\n', "\r\n")),
        ("minimal, tabs around '='", mini(phase).replace(" = ", "\t=\t")),
        ("no trailing newline", mini(phase).trim_end().to_string()),
        ("no [dataset]", format!("name = \"x\"\nseed = 1\n\n{phase}")),
        (
            "no [dataset], the phase brings its own key_range",
            format!("name = \"x\"\nseed = 1\n\n{phase}key_range = [0, 9]\n"),
        ),
        ("no workload", MINI.to_string()),
        (
            "phase before a [dataset] that has no usable key_range",
            format!(
                "name = \"x\"\nseed = 1\n\n{phase}\n[dataset]\ndistribution = \"uniform\"\n\
                 key_range = 5\nsize = 10\nseed = 2\n"
            ),
        ),
        (
            "composer before a [dataset] that has no key_range",
            "name = \"x\"\nseed = 1\n\n[[growing_skew]]\nsteps = 2\nops_per_step = 5\n\
             start_theta = 0.5\nend_theta = 1.0\nmix = \"ycsb-c\"\n\n[dataset]\n\
             distribution = \"uniform\"\nsize = 10\nseed = 2\n"
                .to_string(),
        ),
        (
            "phase before [dataset] takes its key_range",
            format!(
                "name = \"x\"\nseed = 1\n\n{phase}\n[dataset]\ndistribution = \"uniform\"\n\
                 key_range = [0, 50]\nsize = 10\nseed = 2\n"
            ),
        ),
        (
            "baseline-p99 with the default multiplier",
            mini(&format!("[sla]\npolicy = \"baseline-p99\"\n\n{phase}")),
        ),
        (
            "baseline-p99 with a multiplier",
            mini(&format!(
                "[sla]\npolicy = \"baseline-p99\"\nmultiplier = 2.5\n\n{phase}"
            )),
        ),
        (
            "baseline-p99 with a mistyped multiplier",
            mini(&format!(
                "[sla]\npolicy = \"baseline-p99\"\nmultiplier = \"x\"\n\n{phase}"
            )),
        ),
        (
            "[open_loop] arrival sugar",
            mini(&format!("[open_loop]\nclients = 10\narrival = 2000.0\n\n{phase}")),
        ),
        (
            "[open_loop] arrival sugar with an integer rate",
            mini(&format!("[open_loop]\nclients = 10\narrival = 2000\n\n{phase}")),
        ),
        (
            "[open_loop] arrival sugar with a zero rate",
            mini(&format!("[open_loop]\nclients = 10\narrival = 0.0\n\n{phase}")),
        ),
        (
            "[open_loop] without any arrival",
            mini(&format!("[open_loop]\nclients = 10\n\n{phase}")),
        ),
        (
            "[open_loop] before the [arrival] it needs",
            mini(&format!(
                "[open_loop]\nclients = 10\n\n[arrival]\nprocess = \"uniform\"\nrate = 10.0\n\
                 modulation = \"constant\"\nseed = 3\n\n{phase}"
            )),
        ),
        (
            "mode = \"open-loop\" without an arrival",
            mini(&format!("[run]\nmode = \"open-loop\"\n\n{phase}")),
        ),
        (
            "diurnal modulation",
            mini(&format!(
                "[arrival]\nprocess = \"uniform\"\nrate = 10.0\nmodulation = \"diurnal\"\n\
                 period = 5.0\namplitude = 0.5\nseed = 3\n\n{phase}"
            )),
        ),
        (
            "diurnal modulation out of range",
            mini(&format!(
                "[arrival]\nprocess = \"uniform\"\nrate = 10.0\nmodulation = \"diurnal\"\n\
                 period = 5.0\namplitude = 2.0\nseed = 3\n\n{phase}"
            )),
        ),
        (
            "diurnal modulation without a period",
            mini(&format!(
                "[arrival]\nprocess = \"uniform\"\nrate = 10.0\nmodulation = \"diurnal\"\n\
                 amplitude = 0.5\nseed = 3\n\n{phase}"
            )),
        ),
        (
            "holdout_seed without [[holdout]]",
            mini(&format!("[run]\nholdout_seed = 5\n\n{phase}")),
        ),
        (
            "[[holdout]] without [run]",
            mini(&format!(
                "{phase}\n[[holdout]]\ndistribution = \"uniform\"\nmix = \"ycsb-c\"\nops = 5\n"
            )),
        ),
        (
            "retry policy without [[fault]] blocks",
            mini(&format!("[run]\nmax_retries = 5\n\n{phase}")),
        ),
        (
            "[[fault]] without [run]",
            mini(&format!("{phase}\n[[fault]]\nkind = \"errors\"\nrate = 0.5\n")),
        ),
        (
            "[[fault]] before the phase it names",
            mini(&format!(
                "[[fault]]\nkind = \"crash\"\nphase = 0\nat_op = 9\n\n{phase}"
            )),
        ),
        (
            "train_fraction without online_train",
            mini(&format!("[run]\ntrain_fraction = 0.5\n\n{phase}")),
        ),
        (
            "foreground training",
            mini(&format!("[run]\nonline_train = \"foreground\"\n\n{phase}")),
        ),
        (
            "explicit weights that are all zero",
            mini("[[phase]]\ndistribution = \"uniform\"\nread = 0.0\nops = 10\n"),
        ),
        (
            "max_scan_len alone is not a mix",
            mini("[[phase]]\ndistribution = \"uniform\"\nmax_scan_len = 5\nops = 10\n"),
        ),
        (
            "every remaining distribution",
            mini(
                "[[phase]]\ndistribution = \"normal\"\ncenter = 0.5\nstd_frac = 0.1\n\
                 mix = \"ycsb-a\"\nops = 10\n\n[[phase]]\ndistribution = \"clustered\"\n\
                 clusters = 3\ncluster_std_frac = 0.05\nmix = \"ycsb-d\"\nops = 10\n\n\
                 [[phase]]\ndistribution = \"seq\"\nnoise_frac = 0.2\nmix = \"ycsb-e\"\nops = 10\n\n\
                 [[phase]]\ndistribution = \"lognormal\"\nmu = 0.0\nsigma = 0.5\n\
                 mix = \"range-heavy\"\nops = 10\n",
            ),
        ),
        (
            "a phase list a composer joins gradually",
            mini(&format!(
                "{phase}\n[[burst]]\ntransition = \"gradual\"\nwindow = 0.5\nsteps = 2\n\
                 ops_per_step = 5\nat = 0\nwidth = 1\nfactor = 2.0\ndistribution = \"uniform\"\n\
                 mix = \"ycsb-c\"\n"
            )),
        ),
    ];
    cases.extend(
        scenario
            .into_iter()
            .map(|(label, text)| (Kind::Scenario, label, text)),
    );
    cases
}

// ---------------------------------------------------------------------------
// The transcript.
// ---------------------------------------------------------------------------

/// The line indices at which `anchor` (one or more consecutive lines)
/// occurs in `lines`.
fn occurrences(lines: &[&str], anchor: &str) -> Vec<usize> {
    let want: Vec<&str> = anchor.split('\n').collect();
    (0..lines.len().saturating_sub(want.len() - 1))
        .filter(|&i| lines[i..i + want.len()] == want[..])
        .collect()
}

/// `base` with `edit` applied at every place the protocol asks for: the
/// anchor's first occurrence and, when it has several, its last.
fn apply(base: &str, edit: Edit) -> Vec<(String, String)> {
    let lines: Vec<&str> = base.lines().collect();
    let (anchor, what) = match edit {
        R(a, new) => (a, format!("replace {a:?} with {new:?}")),
        D(a) => (a, format!("delete {a:?}")),
        I(a, new) => (a, format!("insert {new:?} after {a:?}")),
    };
    let found = occurrences(&lines, anchor);
    assert!(
        !found.is_empty(),
        "anchor {anchor:?} is not in the base text"
    );
    let span = anchor.split('\n').count();
    let mut places = vec![(found[0], what.clone())];
    if found.len() > 1 {
        places.push((found[found.len() - 1], format!("{what} (last occurrence)")));
    }
    places
        .into_iter()
        .map(|(at, label)| {
            let mut edited: Vec<&str> = lines[..at].to_vec();
            match edit {
                R(_, new) => edited.push(new),
                D(_) => {}
                I(_, new) => {
                    edited.extend(&lines[at..at + span]);
                    edited.push(new);
                }
            }
            edited.extend(&lines[at + span..]);
            (label, edited.join("\n") + "\n")
        })
        .collect()
}

/// What the parser of `kind` says about `text`: `ERR line N: field: reason`
/// or `OK` and the parsed value.
fn verdict(kind: Kind, text: &str) -> String {
    match kind {
        Kind::Scenario => match parse_scenario(text) {
            Err(e) => format!("ERR {e}\n"),
            Ok(s) => {
                let rendered = render_scenario(&s);
                let back = parse_scenario(&rendered)
                    .unwrap_or_else(|e| panic!("rendered text must re-parse: {e}\n{rendered}"));
                assert_eq!(back, s, "parse(render(s)) != s for:\n{text}");
                let mut out = "OK\n".to_string();
                for line in rendered.lines() {
                    let _ = writeln!(out, "  | {line}");
                }
                out
            }
        },
        Kind::Plan => match parse_fault_plan(text) {
            Err(e) => format!("ERR {e}\n"),
            Ok(plan) => format!("OK {plan:?}\n"),
        },
        Kind::Policy => match parse_regression_policy(text) {
            Err(e) => format!("ERR {e}\n"),
            Ok(policy) => format!("OK {policy:?}\n"),
        },
    }
}

/// Every case as `(header, text, kind)`, in transcript order.
fn cases() -> Vec<(String, String, Kind)> {
    let mut all = Vec::new();
    for (name, base, kind, edits) in [
        ("full", FULL, Kind::Scenario, FULL_EDITS),
        ("composed", COMPOSED, Kind::Scenario, COMPOSED_EDITS),
        ("plan", PLAN, Kind::Plan, PLAN_EDITS),
        ("policy", POLICY, Kind::Policy, POLICY_EDITS),
    ] {
        all.push((format!("{name}: as written"), base.to_string(), kind));
        for edit in edits {
            for (label, text) in apply(base, *edit) {
                all.push((format!("{name}: {label}"), text, kind));
            }
        }
    }
    for (kind, label, text) in whole_texts() {
        let file = match kind {
            Kind::Scenario => "scenario",
            Kind::Plan => "plan",
            Kind::Policy => "policy",
        };
        all.push((format!("{file} text: {label}"), text, kind));
    }
    all
}

fn transcript() -> String {
    let mut out = String::new();
    for (header, text, kind) in cases() {
        let _ = write!(out, "== {header}\n{}\n", verdict(kind, &text));
    }
    out
}

fn fixture_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/spec_fixtures/rejections.txt")
}

#[test]
fn every_rejection_matches_the_frozen_transcript() {
    let actual = transcript();
    // The oracle's report names a line; name the case it belongs to as well.
    let expected = std::fs::read_to_string(fixture_path()).unwrap_or_default();
    let moved = actual
        .split("== ")
        .zip(expected.split("== "))
        .find(|(a, e)| a != e);
    if let Some(case) = moved.and_then(|(a, _)| a.lines().next()) {
        eprintln!("first moved case: == {case}");
    }
    oracle::check_or_bless(fixture_path(), &actual);
}

#[test]
fn the_oracle_is_as_wide_as_it_claims() {
    let all = cases();
    assert!(all.len() >= 240, "only {} cases", all.len());
    // Case headers are unique, so a moved line names one case.
    let mut headers: Vec<&str> = all.iter().map(|(h, _, _)| h.as_str()).collect();
    headers.sort_unstable();
    headers.dedup();
    assert_eq!(headers.len(), all.len(), "duplicate case header");
    // The unedited base texts parse.
    for (header, text, kind) in &all {
        if header.ends_with(": as written") {
            assert!(verdict(*kind, text).starts_with("OK"), "{header}");
        }
    }
}

/// Values at the edges of what the lexer admits: the smallest and largest
/// integers, both sides of the `u32` boundary, ranges touching `u64::MAX`,
/// and the largest and smallest positive floats.
const BOUNDARY_VALUES: &[&str] = &[
    "0",
    "1",
    "4294967295",
    "4294967296",
    "18446744073709551614",
    "18446744073709551615",
    "[0, 18446744073709551615]",
    "[1, 18446744073709551615]",
    "[18446744073709551614, 18446744073709551615]",
    "1e308",
    "5e-324",
];

/// No value a spec file can hold makes the parser — or what callers do with
/// an accepted scenario — overflow: every value of the two scenario base
/// texts is replaced, one at a time, by each boundary value.
#[test]
fn boundary_values_never_panic() {
    let mut panicked = Vec::new();
    let mut variants = 0;
    for base in [FULL, COMPOSED] {
        let lines: Vec<&str> = base.lines().collect();
        for (i, line) in lines.iter().enumerate() {
            let Some((key, _)) = line.split_once(" = ") else {
                continue;
            };
            for value in BOUNDARY_VALUES {
                let mut edited = lines.clone();
                let replaced = format!("{key} = {value}");
                edited[i] = &replaced;
                let text = edited.join("\n");
                variants += 1;
                let survived = std::panic::catch_unwind(|| {
                    if let Ok(s) = parse_scenario(&text) {
                        let _ = s.validate();
                        let _ = s.workload.total_ops();
                        for phase in 0..=s.workload.phases().len() {
                            let _ = s.workload.phase_start(phase);
                        }
                        let _ = render_scenario(&s);
                    }
                });
                if survived.is_err() {
                    panicked.push(format!("line {}: {replaced}", i + 1));
                }
            }
        }
    }
    assert!(variants > 1_000, "only {variants} variants");
    assert!(
        panicked.is_empty(),
        "{} of {variants} variants panicked:\n{}",
        panicked.len(),
        panicked.join("\n")
    );
}
