//! The commands that execute scenarios — `suite`, `shift`, `run`,
//! `archive run`, `capacity`, `sweep` — plus `serve`, the other end of
//! `--remote`.

use super::archive::{archive, open_store};
use super::args::{Args, CliError, Context, Flag};
use super::flag::*;
use lsbench::core::capacity::{
    capacity_search, render_capacity_report, with_arrival_rate, CapacityConfig, CapacityPoint,
    SlaTarget,
};
use lsbench::core::faults::{resolve_fault_plan, FaultPlan, RetryPolicy};
use lsbench::core::metrics::adaptability::AdaptabilityReport;
use lsbench::core::obs::{render_spans, ObsConfig};
use lsbench::core::report::{render_adaptability, to_json, write_artifact};
use lsbench::core::results::{
    CapacityArtifact, CapacityManifest, RunArtifact, RunManifest, SuiteArtifact, SweepArtifact,
    SweepManifest, Transport,
};
use lsbench::core::runner::{ExecutionMode, RunOptions, RunOutcome, Runner};
use lsbench::core::scenario::{ClockMode, ModePreference, Scenario};
use lsbench::core::spec::{render_scenario, ScenarioRegistry};
use lsbench::core::suite::{
    calibrate_sla, render_comparison, run_scenarios, standard_scenarios, SuiteConfig, SuiteResult,
};
use lsbench::core::sut_registry::SutRegistry;
use lsbench::core::sweep::{render_sweep_report, sweep_curve, DriftLadder};
use lsbench::core::wire::{RemoteSut, WireServer, PROTOCOL_VERSION};
use lsbench::core::BenchError;
use lsbench::stats::LatencyHistogram;
use lsbench::sut::sut::SystemUnderTest;
use lsbench::workload::keygen::KeyDistribution;
use std::str::FromStr;

/// Open-loop client population when neither `--clients` nor the
/// scenario's `[open_loop]` section names one.
pub const DEFAULT_CLIENTS: usize = 1000;

/// The flags the run-executing commands share, read once with one error
/// style: SUT selection, transport, execution mode, worker threads,
/// open-loop clients, and fault plan. A flag the invoked command does not
/// declare is simply absent here.
pub struct RunArgs<'a> {
    args: &'a Args,
    /// Every `--sut` occurrence; single-SUT commands use the first.
    pub suts: Vec<String>,
    pub mode: Option<ModePreference>,
    clock: Option<ClockMode>,
    /// Worker threads, at least 1: `--threads 0` is refused here.
    pub threads: usize,
    pub clients: Option<usize>,
    faults: Option<FaultPlan>,
}

impl<'a> RunArgs<'a> {
    pub fn parse(args: &'a Args) -> Result<Self, CliError> {
        // A non-number is refused as "a number" first, like every other
        // numeric flag; then 0 as "a positive integer", like `--clients 0`.
        args.num::<usize>(&THREADS, 1)?;
        Ok(RunArgs {
            args,
            suts: args.all(&SUT).map(str::to_string).collect(),
            mode: args.choice(&MODE, "mode")?,
            clock: args.choice(&CLOCK, "clock")?,
            threads: args
                .parsed(&THREADS, "a positive integer", |n| *n >= 1)?
                .unwrap_or(1),
            clients: args.parsed(&CLIENTS, "a positive integer", |n| *n >= 1)?,
            faults: args.get(&FAULTS).map(resolve_fault_plan).transpose()?,
        })
    }

    /// Attaches the `--faults` plan, if any, and re-validates (a plan can
    /// name phases or op windows the scenario does not have).
    fn attach_faults(&self, scenario: &mut Scenario) -> Result<(), CliError> {
        if let Some(plan) = &self.faults {
            scenario.faults = Some(plan.clone());
            scenario.validate().map_err(|e| {
                CliError::usage(format!(
                    "fault plan does not fit scenario '{}': {e}",
                    scenario.name
                ))
            })?;
        }
        Ok(())
    }

    /// The required `--scenario` argument, resolved through the registry
    /// with the `--faults` plan attached.
    pub fn scenario(&self) -> Result<Scenario, CliError> {
        let name = self
            .args
            .require(&SCENARIO, "NAME|FILE is required (see `lsbench scenarios`)")?;
        let mut scenario = ScenarioRegistry::with_config(scale(self.args)?).resolve(name)?;
        self.attach_faults(&mut scenario)?;
        Ok(scenario)
    }

    /// The required `--sut` argument.
    pub fn sut(&self) -> Result<&str, CliError> {
        self.suts.first().map(String::as_str).ok_or_else(|| {
            CliError::usage(format!(
                "{} NAME is required unless --remote HOST:PORT is given (see `lsbench list`)",
                SUT.name
            ))
        })
    }

    /// Where the SUT lives: in this process, or behind `--remote`.
    fn transport(&self) -> Transport {
        match self.args.get(&REMOTE) {
            Some(endpoint) => Transport::Remote {
                endpoint: endpoint.to_string(),
            },
            None => Transport::Local,
        }
    }

    /// The SUT lanes of this invocation: every `--sut`, at least one —
    /// or, under `--remote`, one unnamed lane (the server picks the SUT).
    fn lanes(&self) -> Result<Vec<String>, CliError> {
        if self.args.has(&REMOTE) {
            return Ok(vec![String::new()]);
        }
        self.sut()?;
        Ok(self.suts.clone())
    }

    /// The open-loop client population for `scenario`.
    fn clients_for(&self, scenario: &Scenario) -> usize {
        self.clients
            .or(scenario.open_loop.map(|o| o.clients as usize))
            .unwrap_or(DEFAULT_CLIENTS)
    }

    /// Resolves the execution mode for `scenario`. Precedence: the
    /// `--mode` flag, then the scenario's `[run] mode` preference, then
    /// its `[open_loop]` section (or an explicit `--clients`), then
    /// `--threads N > 1` implying sharded, defaulting to serial.
    fn execution_mode(&self, scenario: &Scenario) -> ExecutionMode {
        let workers = self.threads;
        let open_loop = || ExecutionMode::OpenLoop {
            clients: self.clients_for(scenario),
            workers,
        };
        match self.mode.or(scenario.mode) {
            Some(ModePreference::Serial) => ExecutionMode::Serial,
            Some(ModePreference::Shared) => ExecutionMode::SharedLock { workers },
            Some(ModePreference::Sharded) => ExecutionMode::Sharded { workers },
            Some(ModePreference::OpenLoop) => open_loop(),
            None if scenario.open_loop.is_some() || self.clients.is_some() => open_loop(),
            None if workers > 1 => ExecutionMode::Sharded { workers },
            None => ExecutionMode::Serial,
        }
    }

    /// Resolves the clock mode for `scenario`. Precedence: the `--clock`
    /// flag, then the scenario's `[run] clock` preference, then sim.
    fn clock_mode(&self, scenario: &Scenario) -> ClockMode {
        self.clock.or(scenario.clock).unwrap_or_default()
    }

    /// [`RunOptions`] for `scenario`: the resolved execution mode and
    /// clock, observed when `--trace` is given.
    fn run_options(&self, scenario: &Scenario) -> RunOptions {
        RunOptions {
            obs: self.obs(),
            clock: self.clock_mode(scenario),
            ..RunOptions::with_mode(self.execution_mode(scenario))
        }
    }

    fn obs(&self) -> ObsConfig {
        if self.args.has(&TRACE) {
            ObsConfig::traced()
        } else {
            ObsConfig::default()
        }
    }

    /// Executes one resolved scenario on lane `sut` — the common core of
    /// `run`, `archive run`, `shift`, every capacity probe and every sweep
    /// cell. Returns the outcome and the (possibly server-reported) SUT
    /// name.
    fn execute(
        &self,
        sut: &str,
        scenario: &Scenario,
        opts: RunOptions,
        quiet: bool,
    ) -> Result<(RunOutcome, String), CliError> {
        let shape = || {
            format!(
                "{} phases, {} ops, mode {}",
                scenario.workload.phases().len(),
                scenario.workload.total_ops(),
                opts.mode.label()
            )
        };
        let Some(endpoint) = self.args.get(&REMOTE) else {
            let registry = SutRegistry::default();
            let factory = registry.factory(sut)?;
            if !quiet {
                eprintln!("running {} on {sut} ({}) ...", scenario.name, shape());
            }
            let outcome = Runner::from_factory(factory)
                .config(opts)
                .run(scenario)
                .context("run failed")?;
            return Ok((outcome, sut.to_string()));
        };
        // Connect, ship the canonical rendered spec in the Load request
        // (the server builds the dataset and its configured SUT), and
        // drive the run through the same `Runner`.
        let mut remote = RemoteSut::connect(endpoint, RetryPolicy::default())
            .map_err(|e| CliError::usage(format!("cannot connect to {endpoint}: {e}")))?;
        if !quiet {
            eprintln!(
                "running {} remotely on '{}' at {endpoint} (protocol v{PROTOCOL_VERSION}, \
                 {}) ...",
                scenario.name,
                remote.name(),
                shape()
            );
        }
        remote
            .load(&render_scenario(scenario))
            .context("remote load failed")?;
        let outcome = Runner::new(&mut remote)
            .config(opts)
            .run(scenario)
            .context("remote run failed")?;
        Ok((outcome, remote.name().to_string()))
    }
}

/// The scale built-in scenarios are instantiated at: the standard suite's,
/// unless `--size`/`--ops`/`--seed` say otherwise.
pub fn scale(args: &Args) -> Result<SuiteConfig, CliError> {
    let default = SuiteConfig::default();
    Ok(SuiteConfig {
        dataset_size: positive(args, &SIZE, default.dataset_size)?,
        ops_per_phase: positive(args, &OPS, default.ops_per_phase)?,
        seed: args.num(&SEED, default.seed)?,
    })
}

/// `flag` as a positive integer, `default` when absent. A non-number is
/// refused as "a number" first, then 0 as "a positive integer", as
/// `RunArgs::parse` refuses `--threads 0`.
fn positive<T: FromStr + PartialOrd + From<u8>>(
    args: &Args,
    flag: &Flag,
    default: T,
) -> Result<T, CliError> {
    args.parsed::<T>(flag, "a number", |_| true)?;
    Ok(args
        .parsed(flag, "a positive integer", |n| *n >= T::from(1))?
        .unwrap_or(default))
}

/// Prints the standard single-run summary: engine stats, record counters,
/// the adaptability report when the scenario has enough phases for one,
/// span trees, and the event trace artifact.
fn report_outcome(outcome: &RunOutcome, sut_name: &str, scenario: &Scenario, trace_file: &str) {
    let quantile = |latency: &LatencyHistogram, p: f64, per_unit: f64| {
        latency
            .quantile(p)
            .map_or(f64::NAN, |ns| ns as f64 / per_unit)
    };
    if let Some(stats) = &outcome.engine {
        println!(
            "[engine] {} threads, {} lanes, p50 {:.6}s p99 {:.6}s (virtual)",
            stats.threads,
            stats.lanes,
            quantile(&stats.latency, 0.50, 1e9),
            quantile(&stats.latency, 0.99, 1e9)
        );
    }
    if let Some(wall) = &outcome.wall {
        if wall.latency.total() > 0 {
            println!(
                "[wall] {:.3}s elapsed, {:.0} ops/s, p50 {:.4}ms p99 {:.4}ms (host clock)",
                wall.elapsed_seconds,
                wall.throughput,
                quantile(&wall.latency, 0.50, 1e6),
                quantile(&wall.latency, 0.99, 1e6)
            );
        } else {
            println!(
                "[wall] {:.3}s elapsed, {:.0} ops/s (host clock, coarse)",
                wall.elapsed_seconds, wall.throughput
            );
        }
    }
    let record = &outcome.record;
    println!(
        "{}: {:.0} ops/s mean, {} completed, {} failures, training {:.3}s",
        record.sut_name,
        record.mean_throughput(),
        record.completed(),
        record.failures(),
        record.train.seconds
    );
    let faults = &record.faults;
    if faults.injected + faults.retries + faults.timeouts + faults.crashes > 0 {
        println!(
            "[faults] injected {}, retries {}, timeouts {}, crashes {}",
            faults.injected, faults.retries, faults.timeouts, faults.crashes
        );
    }
    if let Ok(rep) = AdaptabilityReport::from_record(record) {
        println!("{}", render_adaptability(&[&rep]));
    }
    if !outcome.spans.is_empty() {
        println!("[spans] {sut_name} / {}", scenario.name);
        print!("{}", render_spans(&outcome.spans));
    }
    if let Some(trace) = &outcome.trace {
        match trace
            .to_jsonl_tagged(&[("sut", sut_name), ("scenario", scenario.name.as_str())])
            .and_then(|lines| write_artifact(trace_file, &lines))
        {
            Ok(path) => eprintln!("[saved {}]", path.display()),
            Err(e) => eprintln!("trace write failed: {e}"),
        }
    }
}

pub fn suite(args: &Args) -> Result<(), CliError> {
    let common = RunArgs::parse(args)?;
    let registry = SutRegistry::default();
    let cfg = scale(args)?;
    let chosen: Vec<String> = if common.suts.is_empty() {
        registry.names().iter().map(|s| s.to_string()).collect()
    } else {
        common.suts.clone()
    };
    let mut scenarios = standard_scenarios(&cfg).context("cannot build suite scenarios")?;
    for scenario in &mut scenarios {
        common.attach_faults(scenario)?;
    }
    // One B+-tree baseline per scenario sets the SLA threshold every SUT
    // is judged against.
    let scenarios = calibrate_sla(scenarios, common.threads).context("SLA calibration failed")?;
    let store = args.has(&SAVE).then(|| open_store(args)).transpose()?;
    let mut results: Vec<SuiteResult> = Vec::new();
    let mut trace_lines = String::new();
    for name in &chosen {
        let factory = registry.factory(name)?;
        eprint!("running {name} ... ");
        let (result, observation) =
            run_scenarios(factory, &scenarios, common.threads, common.obs()).context("failed")?;
        eprintln!("done");
        for (scenario, trace) in &observation.traces {
            match trace.to_jsonl_tagged(&[("sut", name), ("scenario", scenario)]) {
                Ok(lines) => trace_lines.push_str(&lines),
                Err(e) => eprintln!("trace render failed: {e}"),
            }
        }
        for (scenario, spans) in &observation.spans {
            println!("[spans] {name} / {scenario}");
            print!("{}", render_spans(spans));
        }
        if let Some(store) = &store {
            for (scenario_name, record) in &observation.records {
                let Some((scenario, _)) = scenarios.iter().find(|(s, _)| &s.name == scenario_name)
                else {
                    continue;
                };
                let manifest = RunManifest::for_run(scenario, name, common.threads);
                let path = store
                    .save(&RunArtifact::new(manifest, record.clone()))
                    .context("archive failed")?;
                eprintln!("[archived {}]", path.display());
            }
        }
        results.push(result);
    }
    println!("{}", render_comparison(&results));
    if let Ok(json) = to_json(&SuiteArtifact::new(results)) {
        if let Ok(path) = write_artifact("cli_suite.json", &json) {
            eprintln!("[saved {}]", path.display());
        }
    }
    if !trace_lines.is_empty() {
        match write_artifact("trace.jsonl", &trace_lines) {
            Ok(path) => eprintln!("[saved {}]", path.display()),
            Err(e) => eprintln!("trace write failed: {e}"),
        }
    }
    Ok(())
}

pub fn shift(args: &Args) -> Result<(), CliError> {
    let common = RunArgs::parse(args)?;
    let sut = common.sut()?;
    let scenario = Scenario::two_phase_shift(
        "cli-shift",
        KeyDistribution::LogNormal {
            mu: 0.0,
            sigma: 1.2,
        },
        KeyDistribution::Normal {
            center: 0.9,
            std_frac: 0.03,
        },
        positive(args, &SIZE, 100_000)?,
        positive(args, &OPS, 20_000)?,
        args.num(&SEED, 42)?,
    )?;
    let opts = common.run_options(&scenario);
    let (outcome, sut_name) = common.execute(sut, &scenario, opts, true)?;
    report_outcome(&outcome, &sut_name, &scenario, "shift_trace.jsonl");
    Ok(())
}

/// `lsbench run`, and with `save` `lsbench archive run`: exactly the same
/// run, plus saving the record (with its reproduction manifest and engine
/// statistics) into the results store.
pub fn run_scenario(args: &Args, save: bool) -> Result<(), CliError> {
    let common = RunArgs::parse(args)?;
    let sut = common.lanes()?.swap_remove(0);
    let store = save.then(|| open_store(args)).transpose()?;
    let scenario = common.scenario()?;
    let opts = common.run_options(&scenario);
    let (outcome, sut_name) = common.execute(&sut, &scenario, opts, false)?;
    report_outcome(&outcome, &sut_name, &scenario, "run_trace.jsonl");
    let Some(store) = store else {
        return Ok(());
    };
    let manifest = RunManifest::for_run(&scenario, &sut_name, opts.mode.workers())
        .with_transport(common.transport())
        .with_clock(opts.clock);
    let artifact = RunArtifact::new(manifest, outcome.record)
        .with_engine(outcome.engine)
        .with_wall(outcome.wall);
    archive(&store, &artifact)
}

/// `lsbench capacity`: binary-search the maximum sustainable open-loop
/// arrival rate under a latency SLA, probing with full runs on fresh
/// SUTs, and archive the resulting knee curve.
pub fn capacity(args: &Args) -> Result<(), CliError> {
    let common = RunArgs::parse(args)?;
    let sut = common.lanes()?.swap_remove(0);
    let sla_arg = args.require(&SLA, "pNN:MS is required (e.g. --sla p99:5 for p99 <= 5ms)")?;
    let sla = SlaTarget::parse(sla_arg)?;
    let store = open_store(args)?;
    let scenario = common.scenario()?;
    let clients = common.clients_for(&scenario);
    let workers = common.threads;
    let config = CapacityConfig {
        sla,
        initial_rate: args.num(&RATE, 1000.0)?,
        max_probes: args.num(&PROBES, 12)?,
        tolerance: args.num(&TOLERANCE, 0.05)?,
    };
    eprintln!(
        "capacity search: {} under {} ({clients} clients, {workers} workers, \
         start {} ops/s, <= {} probes) ...",
        scenario.name,
        sla.describe(),
        config.initial_rate,
        config.max_probes
    );
    // Each probe is a fresh SUT at a substituted arrival rate; the probe
    // fails the whole search rather than guessing past a broken run.
    let mut probe_sut = String::new();
    let report = capacity_search(&config, |rate| {
        let probe_scenario = with_arrival_rate(&scenario, rate);
        let opts = RunOptions::with_mode(ExecutionMode::OpenLoop { clients, workers });
        let (outcome, sut_name) = common
            .execute(&sut, &probe_scenario, opts, true)
            .map_err(|e| BenchError::Sut(format!("probe at {rate} ops/s failed: {}", e.message)))?;
        probe_sut = sut_name;
        let engine = outcome.engine.as_ref().ok_or_else(|| {
            BenchError::Metric("open-loop probe produced no engine stats".to_string())
        })?;
        let point = CapacityPoint::from_run(rate, &sla, engine, &outcome.record)?;
        eprintln!(
            "  probe {:>12.2} ops/s -> p{} {:.4}ms, {} completed: {}",
            point.rate,
            sla.quantile * 100.0,
            point.latency_seconds * 1000.0,
            point.completed,
            if point.met { "met" } else { "VIOLATED" }
        );
        Ok(point)
    })
    .context("capacity search failed")?;
    if args.has(&JSON) {
        println!("{}", to_json(&report)?);
    } else {
        print!("{}", render_capacity_report(&report));
    }
    let manifest = CapacityManifest::for_search(&scenario, &probe_sut, sla_arg, clients, workers)
        .with_transport(common.transport());
    archive(&store, &CapacityArtifact::new(manifest, report))
}

/// `lsbench sweep`: grade a scenario's drift by intensity — expand the
/// `--drift lo..hixN` ladder, run every (SUT, α) cell through the normal
/// runner, print the metric-vs-α curves with the linear shift-bound
/// overlay, and archive the curves as a sweep artifact.
pub fn sweep(args: &Args) -> Result<(), CliError> {
    let mut common = RunArgs::parse(args)?;
    // `--sut a --sut b` and `--sut a,b` both spell a multi-SUT sweep.
    common.suts = common
        .suts
        .iter()
        .flat_map(|s| s.split(','))
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .collect();
    let lanes = common.lanes()?;
    let store = open_store(args)?;
    let scenario = common.scenario()?;
    let ladder = DriftLadder::build(&scenario, args.get(&DRIFT).unwrap_or("0..1x5"))?;
    eprintln!(
        "drift sweep: {} over {} ({} rungs x {} SUT lane(s)) ...",
        scenario.name,
        ladder.axis,
        ladder.rungs.len(),
        lanes.len()
    );
    let mut curves = Vec::with_capacity(lanes.len());
    let mut curve_suts = Vec::with_capacity(lanes.len());
    for mut lane_sut in lanes {
        let mut records = Vec::with_capacity(ladder.rungs.len());
        for (&alpha, rung) in ladder.alphas.iter().zip(&ladder.rungs) {
            let (outcome, sut_name) =
                common.execute(&lane_sut, rung, common.run_options(rung), true)?;
            eprintln!(
                "  {sut_name} α={alpha:.3}: {} completed",
                outcome.record.completed()
            );
            lane_sut = sut_name;
            records.push(outcome.record);
        }
        let curve = sweep_curve(&lane_sut, &ladder.alphas, &ladder.rungs, &records)
            .context(&format!("sweep curve for {lane_sut} failed"))?;
        curve_suts.push(lane_sut);
        curves.push(curve);
    }
    let manifest = SweepManifest::for_sweep(&scenario, &curve_suts, &ladder.axis, &ladder.alphas)
        .with_transport(common.transport())
        .with_clock(common.clock_mode(&scenario));
    let artifact = SweepArtifact::new(manifest, curves);
    if args.has(&JSON) {
        print!("{}", artifact.to_json()?);
    } else {
        print!(
            "{}",
            render_sweep_report(&scenario.name, &ladder.axis, &artifact.curves)
        );
    }
    archive(&store, &artifact)
}

/// `lsbench serve`: host a registered SUT behind the wire protocol until
/// the process is killed.
pub fn serve(args: &Args) -> Result<(), CliError> {
    let sut_name = args.require(&SUT, "NAME is required (see `lsbench list`)")?;
    let port = args.require(&PORT, "P is required (0 picks a free port)")?;
    let host = args.get(&HOST).unwrap_or("127.0.0.1");
    let server = WireServer::bind(format!("{host}:{port}"), SutRegistry::default(), sut_name)
        .map_err(|e| CliError::usage(format!("cannot serve: {e}")))?;
    let addr = server
        .local_addr()
        .context("cannot resolve listen address")?;
    println!("lsbench serve: hosting '{sut_name}' on {addr} (protocol v{PROTOCOL_VERSION})");
    server.run().context("server error")
}
