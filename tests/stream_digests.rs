//! The op stream, frozen to the bit.
//!
//! Record digests (`tests/record_digests.rs`) do not pin the keys a run
//! draws: the B+-tree's `probe_cost` does not depend on the key, so a
//! generator that drew different keys could leave its records unchanged.
//! This file pins the generator itself: FNV-1a over every field of every
//! [`LabeledOp`] (the operation with its payload, `phase`, `drawn_from`,
//! `in_transition`) and over the bits of every arrival offset, in
//! `tests/fixtures/stream_digests_v1.json`. The streams are the first
//! 20 000 ops of every canonical distribution under every YCSB mix, the
//! four `lsbench-perf` workload shapes (gradual transition included), and
//! every arrival process under every load modulation. How a stream is
//! generated may change; what it yields may not.
//!
//! `LSBENCH_BLESS=1` rewrites the moved cells (see
//! `tests/support/oracle.rs`); review which ones moved.

use lsbench::workload::arrival::{ArrivalGenerator, ArrivalProcess, LoadModulation};
use lsbench::workload::keygen::{KeyDistribution, CANONICAL_DISTRIBUTIONS};
use lsbench::workload::ops::{Operation, OperationMix};
use lsbench::workload::phases::{LabeledOp, PhasedWorkload, TransitionKind, WorkloadPhase};
use std::collections::BTreeMap;

#[path = "support/oracle.rs"]
mod oracle;

/// Ops (or arrivals) per pinned stream.
const OPS: usize = 20_000;
const KEY_RANGE: (u64, u64) = (0, 1_000_000_000);

fn fixture_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/stream_digests_v1.json")
}

/// FNV-1a over the 64-bit words of a count of items.
struct Fnv {
    hash: u64,
    items: usize,
}

impl Fnv {
    fn new() -> Self {
        Fnv {
            hash: 0xcbf2_9ce4_8422_2325,
            items: 0,
        }
    }

    fn item(&mut self, words: &[u64]) {
        for byte in words.iter().flat_map(|w| w.to_le_bytes()) {
            self.hash ^= byte as u64;
            self.hash = self.hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self.items += 1;
    }

    fn op(&mut self, labeled: &LabeledOp) {
        let (kind, a, b) = match labeled.op {
            Operation::Read { key } => (0, key, 0),
            Operation::Insert { key, value } => (1, key, value),
            Operation::Update { key, value } => (2, key, value),
            Operation::Scan { start, len } => (3, start, len as u64),
            Operation::Delete { key } => (4, key, 0),
        };
        let (phase, from) = (labeled.phase as u64, labeled.drawn_from as u64);
        self.item(&[kind, a, b, phase, from, labeled.in_transition as u64]);
    }

    fn digest(&self) -> String {
        format!("{} items {:016x}", self.items, self.hash)
    }
}

fn stream_digest(workload: &PhasedWorkload, take: usize) -> String {
    let mut h = Fnv::new();
    for labeled in workload.stream().expect("valid workload").take(take) {
        h.op(&labeled);
    }
    h.digest()
}

fn phase(name: &str, dist: KeyDistribution, mix: OperationMix, ops: u64) -> WorkloadPhase {
    WorkloadPhase::new(name, dist, KEY_RANGE, mix, ops)
}

fn ycsb_mixes() -> [(&'static str, OperationMix); 5] {
    [
        ("ycsb_a", OperationMix::ycsb_a()),
        ("ycsb_b", OperationMix::ycsb_b()),
        ("ycsb_c", OperationMix::ycsb_c()),
        ("ycsb_d", OperationMix::ycsb_d()),
        ("ycsb_e", OperationMix::ycsb_e()),
    ]
}

fn mix_cells(cells: &mut BTreeMap<String, String>) {
    for (mix_name, mix) in ycsb_mixes() {
        for shape in CANONICAL_DISTRIBUTIONS {
            let dist_name = shape.name;
            let dist = KeyDistribution::from_canonical(dist_name).expect("canonical name");
            let w = PhasedWorkload::single(phase("p", dist, mix.clone(), OPS as u64), 42)
                .expect("valid workload");
            cells.insert(
                format!("mix/{mix_name}/{dist_name}"),
                stream_digest(&w, OPS),
            );
        }
    }
}

fn lognormal() -> KeyDistribution {
    KeyDistribution::LogNormal {
        mu: 0.0,
        sigma: 1.2,
    }
}

/// The `lsbench-perf` workloads' phase shapes (distributions, mixes,
/// transitions) at 7 000 to 20 000 ops per phase.
fn perf_shapes() -> Vec<(&'static str, PhasedWorkload)> {
    let seed = 42u64;
    let tail = KeyDistribution::Normal {
        center: 0.9,
        std_frac: 0.03,
    };
    let shifted = KeyDistribution::Normal {
        center: 0.85,
        std_frac: 0.04,
    };
    let writes = OperationMix {
        read: 0.4,
        insert: 0.3,
        update: 0.2,
        scan: 0.0,
        delete: 0.1,
        max_scan_len: 0,
    };
    let scans = OperationMix {
        max_scan_len: 100,
        ..OperationMix::ycsb_e()
    };
    let hotspot = KeyDistribution::Hotspot {
        hot_span: 0.05,
        hot_fraction: 0.95,
    };
    let zipf = KeyDistribution::Zipf { theta: 0.99 };
    let c = OperationMix::ycsb_c;
    let abrupt = TransitionKind::Abrupt;
    let build = |phases, transitions, salt| {
        PhasedWorkload::new(phases, transitions, seed ^ salt).expect("valid workload")
    };
    vec![
        (
            "point_reads",
            build(
                vec![
                    phase("head", lognormal(), c(), 10_000),
                    phase("tail", tail, c(), 10_000),
                ],
                vec![abrupt],
                0x53,
            ),
        ),
        (
            "updates_scans",
            build(
                vec![
                    phase("reads", lognormal(), c(), 7_000),
                    phase("writes", shifted, writes, 7_000),
                    phase("scans", zipf.clone(), scans, 7_000),
                ],
                vec![TransitionKind::Gradual { window: 0.3 }, abrupt],
                0x54,
            ),
        ),
        (
            "open_loop_fanout",
            build(
                vec![phase("steady-reads", lognormal(), c(), 20_000)],
                vec![],
                0x56,
            ),
        ),
        (
            "lanes_faulted",
            build(
                vec![
                    phase("zipf", zipf, c(), 10_000),
                    phase("hotspot", hotspot, c(), 10_000),
                ],
                vec![abrupt],
                0x58,
            ),
        ),
    ]
}

fn workload_cells(cells: &mut BTreeMap<String, String>) {
    for (name, w) in perf_shapes() {
        cells.insert(format!("workload/{name}"), stream_digest(&w, usize::MAX));
    }
}

fn arrival_digest(process: ArrivalProcess, modulation: LoadModulation) -> String {
    let mut g = ArrivalGenerator::new(process, modulation, 42 ^ 0x57).expect("valid arrivals");
    let mut h = Fnv::new();
    for _ in 0..OPS {
        h.item(&[g.next_arrival().to_bits()]);
    }
    h.digest()
}

/// Every open-loop process under every modulation, and the closed loop
/// (which ignores modulation) once.
fn arrival_cells(cells: &mut BTreeMap<String, String>) {
    let closed = arrival_digest(ArrivalProcess::ClosedLoop, LoadModulation::Constant);
    cells.insert("arrival/closed".to_string(), closed);
    let processes = [
        ("poisson", ArrivalProcess::Poisson { rate: 30_303.0 }),
        ("uniform", ArrivalProcess::Uniform { rate: 1_000.0 }),
    ];
    let modulations = [
        ("constant", LoadModulation::Constant),
        (
            "diurnal",
            LoadModulation::Diurnal {
                period: 0.5,
                amplitude: 0.8,
            },
        ),
        (
            "burst",
            LoadModulation::Burst {
                period: 0.2,
                burst_len: 0.04,
                multiplier: 4.0,
            },
        ),
    ];
    for (process_name, process) in processes {
        for (modulation_name, modulation) in modulations {
            cells.insert(
                format!("arrival/{process_name}/{modulation_name}"),
                arrival_digest(process, modulation),
            );
        }
    }
}

fn all_cells() -> BTreeMap<String, String> {
    let mut cells = BTreeMap::new();
    mix_cells(&mut cells);
    workload_cells(&mut cells);
    arrival_cells(&mut cells);
    cells
}

#[test]
fn streams_match_the_frozen_digests() {
    let actual = all_cells();
    let json = serde_json::to_string_pretty(&actual).expect("serializes");
    oracle::check_or_bless(fixture_path(), &(json + "\n"));
    // Every cell pins a different stream.
    let distinct: std::collections::BTreeSet<&String> = actual.values().collect();
    assert_eq!(distinct.len(), actual.len(), "two cells share a digest");
}
