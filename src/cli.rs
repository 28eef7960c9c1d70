//! Command-line driver: explore a built-in scenario, print design rules,
//! synthesize a rule-following implementation, or inspect timelines —
//! without writing any Rust. Used by the `dr-rules` binary.

use crate::config::{resolve, Env, Settings};
use crate::dag::{build_schedule, DecisionSpace, Placement, Traversal};
use crate::mcts::{Mcts, MctsConfig, SimEvaluator};
use crate::ml::{render_ruleset, rulesets_for_class, RuleSet};
use crate::obs::TextExposition;
use crate::obs::{json, median, EventSink, Phases};
use crate::par::CacheStats;
use crate::pipeline::{
    append_entry, apply_fault_plan, certify_rulesets, compare_bench, compare_fleet,
    compare_ledgers, diff_entries, find_entry, is_bench_file, is_fleet_file, ledger_entry_json,
    lint_space_watched, load_bench, load_fleet, load_ledger, merge_shards, mine_rules,
    mine_rules_timed, records_telemetry, run_pipeline, run_pipeline_instrumented,
    run_pipeline_stored, run_shard, satisfies, select, show_entry, summary_line, synthesize,
    topology_from_workload, trend_lines, Certification, CompareOptions, InstrumentedRun,
    LedgerContext, PipelineConfig, Provenance, ResilienceSummary, RunCtx, RunFilter, RunReport,
    SearchSummary, ShardSpec, ShardTarget, Strategy,
};
use crate::progress::ProgressRenderer;
use crate::sim::{
    benchmark, execute_traced, BenchConfig, CompiledProgram, FaultConfig, FaultPlan, Platform,
    SimError, Workload,
};
use crate::trace::{merge_chrome_json, Tracer, PIPELINE_PID};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::path::Path;

/// Schema tag of the `explain` command's JSON report.
pub const EXPLAIN_SCHEMA: &str = "dr-explain/v1";

/// Schema tag of the `verify-rules` command's JSON report.
pub const CERTIFY_SCHEMA: &str = "dr-certify/v1";

/// Built-in scenarios selectable from the command line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scenario {
    /// The paper's SpMV (scaled-down matrix).
    Spmv,
    /// SpMV at full paper scale (150 000-row matrix).
    SpmvPaper,
    /// SpMV with per-neighbour granularity.
    SpmvFine,
    /// 3D halo exchange on a 2×2×2 rank cube.
    Halo,
}

impl Scenario {
    /// The scenario's command-line name (used in ledger entries).
    pub fn name(&self) -> &'static str {
        match self {
            Scenario::Spmv => "spmv",
            Scenario::SpmvPaper => "spmv-paper",
            Scenario::SpmvFine => "spmv-fine",
            Scenario::Halo => "halo",
        }
    }
}

/// Subcommands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Command {
    /// Print the decision space summary.
    Info,
    /// Explore and print class summary.
    Explore,
    /// Explore and print the rulesets per class.
    Rules,
    /// Explore, follow the fastest-class ruleset, benchmark the result.
    Synthesize,
    /// Trace the best and worst explored implementations.
    Timeline,
    /// Statically lint the enumerated schedules (no simulation).
    Lint,
    /// Sweep seeded fault plans through the pipeline and cross-check
    /// fault-induced deadlocks against the static linter.
    Chaos,
    /// Diff two run ledgers (or two benchmark histories) for
    /// regressions (structural + statistical).
    Compare,
    /// Explain the MCTS search: per-node visit/value statistics, top-k
    /// principal variations, and per-rule provenance.
    Explain,
    /// Run the benchmark harness and append to the committed
    /// `BENCH_*.json` histories.
    Bench,
    /// Mine rulesets, then statically certify each one: the incremental
    /// space linter walks exactly the schedules satisfying the ruleset
    /// and proves none carries an error-severity diagnostic.
    VerifyRules,
    /// Validate a completed shard set's manifests, merge its durable
    /// stores (bit-identical to the unsharded run for exhaustive and
    /// random shards; a deterministic hash-sorted union for MCTS shards),
    /// mine rules from the merged records, and append a ledger entry.
    Merge,
    /// Coordinate a process swarm: spawn shard workers as child
    /// processes, watch their heartbeat streams, SIGKILL stalled
    /// workers, re-issue dead shards with capped backoff, resume
    /// interrupted shards from the store, and merge at the end.
    Swarm,
    /// Query the run ledger: list/filter entries, show one run in
    /// detail, or diff two runs with the `compare` gate.
    Runs,
}

/// `runs` subcommand.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunsCommand {
    /// Summarize matching ledger entries plus cross-run trends.
    List,
    /// Show one entry (by index or run-id prefix) in detail.
    Show(String),
    /// Diff two entries through the `compare` statistics; exits
    /// nonzero exactly when `compare` would regress on the same pair.
    Diff(String, String),
}

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct CliOptions {
    /// Selected scenario.
    pub scenario: Scenario,
    /// Selected command.
    pub command: Command,
    /// Exploration budget (MCTS iterations).
    pub iterations: usize,
    /// Master seed.
    pub seed: u64,
    /// Use the random-sampling baseline instead of MCTS.
    pub random: bool,
    /// Exploration worker threads from `--threads` (`None` defers to
    /// `DR_THREADS` in [`CliOptions::settings`]).
    pub threads: Option<usize>,
    /// Write a JSON run report (phase timings, sim stats, summaries) here.
    pub report: Option<String>,
    /// Write per-iteration search telemetry CSV here.
    pub telemetry: Option<String>,
    /// Schedule cap for `lint` (`0` = lint the whole space).
    pub max_schedules: usize,
    /// Fault plans to sweep for `chaos` (plan 0 is always clean).
    pub plans: usize,
    /// Write a merged Perfetto/Chrome trace (pipeline spans + the best
    /// implementation's simulated rank/stream timelines) here.
    pub trace: Option<String>,
    /// Ledger directory from `--ledger` (`None` defers to `DR_LEDGER` in
    /// [`CliOptions::settings`]).
    pub ledger: Option<String>,
    /// `compare`: the two ledger paths (file or directory) to diff.
    pub compare: Option<(String, String)>,
    /// `compare`: relative phase-time regression threshold.
    pub threshold: f64,
    /// `compare`: absolute phase-time noise floor in milliseconds.
    pub abs_floor_ms: f64,
    /// `compare`: noise-band multiplier over the baseline history's MAD.
    pub noise_k: f64,
    /// Render a live progress line on stderr (single repainted line on
    /// a TTY, periodic plain lines otherwise).
    pub progress: bool,
    /// Stream structured `dr-events/v1` NDJSON to this path.
    pub events: Option<String>,
    /// Durable result-store directory: `explore` answers
    /// already-measured traversals from it and commits fresh ones;
    /// required by `--shard` and `swarm`.
    pub store: Option<String>,
    /// Run exactly one shard (`i/N`) of the exploration (requires
    /// `--store`; writes a per-shard manifest next to the store).
    pub shard: Option<String>,
    /// `swarm`: number of shard worker processes (equals the shard
    /// count).
    pub workers: usize,
    /// `merge`: the shard-set directory (the workers' `--store`).
    pub merge_dir: Option<String>,
    /// `swarm`: write the merged `dr-fleet/v1` NDJSON stream here.
    pub fleet_events: Option<String>,
    /// Write a Prometheus-style text metrics snapshot at run end.
    pub metrics_text: Option<String>,
    /// `runs`: the parsed subcommand.
    pub runs_cmd: Option<RunsCommand>,
    /// `runs list`: keep only entries whose git describe contains this.
    pub git_filter: Option<String>,
    /// `runs list`: keep only entries with this exact seed (set by an
    /// explicit `--seed`).
    pub seed_filter: Option<u64>,
    /// The run's resolved configuration: the flags above over the `DR_*`
    /// environment over the defaults.
    pub settings: Settings,
}

/// A flag's raw value, parsed by its table row.
struct Value<'a> {
    flag: &'a str,
    raw: &'a str,
}

impl Value<'_> {
    fn number<T: std::str::FromStr>(&self) -> Result<T, String> {
        self.raw
            .parse()
            .map_err(|_| format!("bad {} value {:?}", self.flag, self.raw))
    }

    fn at_least(&self, min: usize, why: &str) -> Result<usize, String> {
        let n = self.number()?;
        if n < min {
            return Err(format!("{} must be at least {min}{why}", self.flag));
        }
        Ok(n)
    }

    /// A `compare` gate knob. A NaN, infinite, or negative value would
    /// make every noise band infinite or every comparison false,
    /// silently disabling the gate, so only finite non-negative numbers
    /// pass.
    fn knob(&self) -> Result<f64, String> {
        match self.raw.parse::<f64>() {
            Ok(x) if x.is_finite() && x >= 0.0 => Ok(x),
            _ => Err(format!(
                "bad {} value {:?}: expected a finite number >= 0",
                self.flag, self.raw
            )),
        }
    }

    fn text(&self) -> Result<Option<String>, String> {
        Ok(Some(self.raw.to_string()))
    }
}

/// Stores a parsed flag value in its options field.
fn put<T>(field: &mut T, value: Result<T, String>) -> Result<(), String> {
    *field = value?;
    Ok(())
}

/// One command-line flag: the flag with its value's placeholder as the
/// usage shows them (`--seed N`; a switch has none), how the value lands
/// in the options, and its help text.
struct Flag {
    usage: &'static str,
    set: fn(&mut CliOptions, &Value) -> Result<(), String>,
    help: &'static str,
}

/// Builds the flag table from `"usage" => setter, "help";` rows.
macro_rules! flags {
    ($($usage:literal => $set:expr, $help:literal;)*) => {
        &[$(Flag { usage: $usage, set: $set, help: $help }),*]
    };
}

/// Every flag, in the order the usage text lists them.
#[rustfmt::skip]
const FLAGS: &[Flag] = flags! {
    "--iterations N" => |o, v| put(&mut o.iterations, v.at_least(1, "")),
        "exploration budget (default 300; at least 1)";
    "--seed N" => |o, v| { o.seed = v.number()?; o.seed_filter = Some(o.seed); Ok(()) },
        "master seed (default 0)";
    "--random" => |o, _| put(&mut o.random, Ok(true)),
        "uniform sampling instead of MCTS";
    "--threads N" => |o, v| put(&mut o.threads, v.at_least(1, "").map(Some)),
        "exploration worker threads (default: DR_THREADS, else 1); MCTS measures batches \
         of up to N rollouts, steered apart by virtual loss";
    "--report PATH" => |o, v| put(&mut o.report, v.text()),
        "write a JSON run report (lint counters for lint)";
    "--telemetry PATH" => |o, v| put(&mut o.telemetry, v.text()),
        "write per-iteration search telemetry CSV";
    "--max-schedules N" => |o, v| put(&mut o.max_schedules, v.number()),
        "lint and verify-rules: stop after N schedules (0 = whole space; default 2048)";
    "--plans N" => |o, v| put(&mut o.plans, v.at_least(2, " (plan 0 is the clean control)")),
        "chaos: seeded fault plans to sweep (default 24, minimum 2)";
    "--trace PATH" => |o, v| put(&mut o.trace, v.text()),
        "write a merged Perfetto/Chrome trace: pipeline spans + the best implementation's \
         simulated rank/stream timelines";
    "--ledger DIR" => |o, v| put(&mut o.ledger, v.text()),
        "append a run-ledger entry to DIR/ledger.jsonl (default: DR_LEDGER)";
    "--threshold R" => |o, v| put(&mut o.threshold, v.knob()),
        "compare: relative phase-time regression threshold (default 3.0)";
    "--abs-floor-ms M" => |o, v| put(&mut o.abs_floor_ms, v.knob()),
        "compare: absolute phase-time noise floor (default 25)";
    "--noise-k K" => |o, v| put(&mut o.noise_k, v.knob()),
        "compare: MAD noise-band multiplier (default 5)";
    "--progress" => |o, _| put(&mut o.progress, Ok(true)),
        "live progress line on stderr; repaints in place on a TTY, plain lines otherwise";
    "--events PATH" => |o, v| put(&mut o.events, v.text()),
        "stream structured dr-events/v1 NDJSON to PATH; joinable with the ledger via run id";
    "--store DIR" => |o, v| put(&mut o.store, v.text()),
        "durable result store: explore answers already-measured traversals from DIR and \
         commits fresh measurements before returning them; crash-safe, checksummed, resumable";
    "--shard i/N" => |o, v| { ShardSpec::parse(v.raw)?; put(&mut o.shard, v.text()) },
        "run exactly shard i of N of the exploration serially; requires --store; publishes \
         DIR/shard-i-of-N.manifest.json";
    "--workers K" => |o, v| put(&mut o.workers, v.at_least(1, "")),
        "swarm: shard worker processes = shard count (default 3)";
    "--fleet-events PATH" => |o, v| put(&mut o.fleet_events, v.text()),
        "swarm: write the merged dr-fleet/v1 NDJSON stream (every worker event plus the \
         coordinator's own, globally sequenced)";
    "--metrics-text PATH" => |o, v| put(&mut o.metrics_text, v.text()),
        "write a Prometheus text-format metrics snapshot at run end (explore and swarm)";
    "--git SUBSTR" => |o, v| put(&mut o.git_filter, v.text()),
        "runs list: keep entries whose git describe contains SUBSTR";
};

/// Usage text head: invocation forms, scenarios and commands.
const USAGE_HEAD: &str = "usage: dr-rules <scenario> <command> [options]
       dr-rules <scenario> compare <a> <b> [options]
       dr-rules <scenario> merge <dir> [options]
       dr-rules <scenario> runs list|show <run>|diff <a> <b> [options]
  scenarios: spmv | spmv-paper | spmv-fine | halo
  commands:  info | explore | rules | synthesize | timeline | lint |
             chaos | compare | explain | bench | verify-rules |
             merge | swarm | runs
             (omitting the command runs explore)
  options:";

/// Usage text tail: per-command notes.
const USAGE_TAIL: &str = "  DR_* environment variables (listed in the README) fill in what the
  flags leave unset; a malformed one is a usage error.
  compare accepts two run-ledger paths, two BENCH_*.json benchmark
  histories, or two dr-fleet/v1 merged streams (auto-detected; mixing
  kinds is an error; last entry of B vs history of A for ledgers).
  explain always searches with MCTS (it explains the MCTS tree) and
  honors --iterations/--seed; --report writes dr-explain/v1 JSON.
  explain searches in batches of --threads rollouts, like explore.
  bench appends to BENCH_pipeline.json and BENCH_explore.json in the
  working directory; the scenario picks the scale (spmv = small,
  spmv-paper = paper) and DR_SEED picks the seed, so entries stay
  comparable with the committed histories.
  merge validates a completed shard set (gaps, overlaps, duplicate
  hashes, per-shard fingerprints), merges the stores (bit-identical to
  the unsharded run for exhaustive and --random shards; for MCTS shards,
  which search independently, a deterministic hash-sorted union), mines
  rules from the merged records, and appends a ledger entry to the shard
  directory (or --ledger) so `compare` can gate the merged fingerprint
  against a single-process baseline; pass the same
  --iterations/--seed/--random the shards ran with.
  swarm spawns --workers shard processes of this same binary over
  --store, merges every worker's event stream plus its own into one
  globally-sequenced dr-fleet/v1 stream (--fleet-events), runs online
  anomaly detection (straggler / rate-collapse / silent-worker) over
  heartbeat gaps and eval rates, declares a worker dead when its
  validated stream stops carrying heartbeats (DR_SWARM_STALL_MS,
  default 10000) and SIGKILLs it citing the detected anomaly,
  re-issues dead shards with capped exponential backoff, quarantines a
  shard after repeated failures (DR_SWARM_MAX_ATTEMPTS, default 3),
  resumes interrupted shards from the store, then merges; --trace
  writes the merged swarm timeline (one process per worker, flow
  arrows from shard issue to completion) and --progress renders a
  fleet-wide rollup.
  runs queries the ledger named by --ledger (or DR_LEDGER): `runs
  list` summarizes entries for the scenario (filter with --seed and
  --git) plus cross-run phase/cache/resilience trends, `runs show
  <run>` prints one entry by index or run-id prefix, and `runs diff
  <a> <b>` gates entry b against entry a exactly like compare
  (--threshold/--abs-floor-ms/--noise-k apply; nonzero exit on
  regression).
  verify-rules mines rulesets at --iterations/--seed, then statically
  certifies each one: the incremental space linter walks exactly the
  schedules satisfying the ruleset (capped by --max-schedules; 0 =
  unlimited) and proves none carries an error-severity diagnostic.
  --report writes dr-certify/v1 JSON; the exit code is nonzero when
  any fastest-class ruleset is refuted by a counterexample (a capped,
  counterexample-free walk reports inconclusive without failing).";

/// The usage text printed on parse errors; its `options:` block is
/// rendered from [`FLAGS`].
fn usage() -> String {
    const INDENT: usize = 13;
    const WIDTH: usize = 72;
    let mut out = String::from(USAGE_HEAD);
    out.push('\n');
    for flag in FLAGS {
        let mut line = format!("{:INDENT$}{:<20}", "", flag.usage);
        for word in flag.help.split_whitespace() {
            if line.len() + 1 + word.len() > WIDTH {
                out.push_str(line.trim_end());
                out.push('\n');
                line = format!("{:1$}", "", INDENT + 20);
            } else if !line.ends_with(' ') {
                line.push(' ');
            }
            line.push_str(word);
        }
        out.push_str(&line);
        out.push('\n');
    }
    out.push_str(USAGE_TAIL);
    out
}

/// Parses command-line arguments (excluding `argv[0]`) against an empty
/// environment: every setting not given by a flag takes its default.
pub fn parse(args: &[String]) -> Result<CliOptions, String> {
    parse_env(args, &Env::new())
}

/// Parses command-line arguments (excluding `argv[0]`) and resolves the
/// run's [`Settings`] from the flags over the `DR_*` variables in `env`.
pub fn parse_env(args: &[String], env: &Env) -> Result<CliOptions, String> {
    let usage_err = |what: String| format!("{what}\n{}", usage());
    let mut it = args.iter().peekable();
    let scenario = match it.next().map(String::as_str) {
        Some("spmv") => Scenario::Spmv,
        Some("spmv-paper") => Scenario::SpmvPaper,
        Some("spmv-fine") => Scenario::SpmvFine,
        Some("halo") => Scenario::Halo,
        Some(other) => return Err(usage_err(format!("unknown scenario {other:?}"))),
        None => return Err(usage_err("missing scenario".into())),
    };
    // A flag right after the scenario means the command was omitted:
    // default to `explore` (so `dr-rules spmv --trace out.json` works).
    let command = match it.peek().map(|s| s.as_str()) {
        Some(s) if s.starts_with("--") => Command::Explore,
        _ => match it.next().map(String::as_str) {
            Some("info") => Command::Info,
            Some("explore") => Command::Explore,
            Some("rules") => Command::Rules,
            Some("synthesize") => Command::Synthesize,
            Some("timeline") => Command::Timeline,
            Some("lint") => Command::Lint,
            Some("chaos") => Command::Chaos,
            Some("compare") => Command::Compare,
            Some("explain") => Command::Explain,
            Some("bench") => Command::Bench,
            Some("verify-rules") => Command::VerifyRules,
            Some("merge") => Command::Merge,
            Some("swarm") => Command::Swarm,
            Some("runs") => Command::Runs,
            Some(other) => return Err(usage_err(format!("unknown command {other:?}"))),
            None => return Err(usage_err("missing command".into())),
        },
    };
    let mut opts = CliOptions {
        scenario,
        command,
        iterations: 300,
        seed: 0,
        random: false,
        threads: None,
        report: None,
        telemetry: None,
        max_schedules: 2048,
        plans: 24,
        trace: None,
        ledger: None,
        compare: None,
        threshold: 3.0,
        abs_floor_ms: 25.0,
        noise_k: 5.0,
        progress: false,
        events: None,
        store: None,
        shard: None,
        workers: 3,
        merge_dir: None,
        fleet_events: None,
        metrics_text: None,
        runs_cmd: None,
        git_filter: None,
        seed_filter: None,
        settings: Settings::default(),
    };
    // Positional operands: up to two, refused when a flag stands in for
    // one.
    let mut operand = |what: &str| match it.next() {
        Some(a) if !a.starts_with("--") => Ok(a.clone()),
        _ => Err(usage_err(what.to_string())),
    };
    match command {
        Command::Runs => {
            opts.runs_cmd = Some(
                match operand("runs needs a subcommand: list | show | diff")?.as_str() {
                    "list" => RunsCommand::List,
                    "show" => {
                        RunsCommand::Show(operand("runs show needs a run index or id prefix")?)
                    }
                    "diff" => RunsCommand::Diff(
                        operand("runs diff needs two run selectors")?,
                        operand("runs diff needs two run selectors")?,
                    ),
                    other => return Err(usage_err(format!("unknown runs subcommand {other:?}"))),
                },
            );
        }
        Command::Merge => opts.merge_dir = Some(operand("merge needs the shard directory")?),
        Command::Compare => {
            opts.compare = Some((
                operand("compare needs two ledger paths")?,
                operand("compare needs two ledger paths")?,
            ));
        }
        _ => {}
    }
    while let Some(name) = it.next() {
        let flag = FLAGS
            .iter()
            .find(|f| f.usage.split(' ').next() == Some(name.as_str()))
            .ok_or_else(|| usage_err(format!("unknown option {name:?}")))?;
        let raw = match flag.usage.split_once(' ') {
            Some((_, placeholder)) => it
                .next()
                .ok_or(format!("{name} needs a value ({placeholder})"))?,
            None => "",
        };
        (flag.set)(&mut opts, &Value { flag: name, raw })?;
    }
    if opts.shard.is_some() && opts.store.is_none() {
        return Err("--shard requires --store DIR (the shard's durable result store)".into());
    }
    if opts.shard.is_some() && command != Command::Explore {
        return Err("--shard only applies to the explore command".into());
    }
    if command == Command::Swarm && opts.store.is_none() {
        return Err("swarm requires --store DIR (the shared shard store)".into());
    }
    if opts.fleet_events.is_some() && command != Command::Swarm {
        return Err("--fleet-events only applies to the swarm command".into());
    }
    opts.settings = resolve(env, opts.threads, opts.ledger.as_deref())?;
    Ok(opts)
}

/// Maps an output failure to the driver's error.
fn io(e: std::io::Error) -> String {
    format!("write failed: {e}")
}

/// Maps a simulation failure to the driver's error.
fn fail(e: SimError) -> String {
    format!("simulation failed: {e}")
}

/// A scenario erased to the pieces the driver needs.
struct Instance {
    space: DecisionSpace,
    workload: Box<dyn Workload + Sync>,
    platform: Platform,
}

impl Instance {
    fn erase(
        space: DecisionSpace,
        workload: impl Workload + Sync + 'static,
        platform: Platform,
    ) -> Self {
        Instance {
            space,
            workload: Box::new(workload),
            platform,
        }
    }
}

fn instance(opts: &CliOptions) -> Instance {
    use crate::spmv::{BandedSpec, GpuModel, Granularity, SpmvDagConfig, SpmvScenario};
    let seed = opts.seed;
    let spmv = |sc: SpmvScenario| Instance::erase(sc.space, sc.workload, sc.platform);
    match opts.scenario {
        Scenario::Spmv => spmv(SpmvScenario::small(seed)),
        Scenario::SpmvPaper => spmv(SpmvScenario::paper(seed)),
        Scenario::SpmvFine => spmv(SpmvScenario::build(
            &BandedSpec::small(seed),
            4,
            2,
            &SpmvDagConfig {
                with_unpack: true,
                granularity: Granularity::PerNeighbor,
            },
            &GpuModel::default(),
            Platform::perlmutter_like(),
        )),
        Scenario::Halo => {
            let sc = crate::halo::HaloScenario::cube2(seed);
            Instance::erase(sc.space, sc.workload, sc.platform)
        }
    }
}

pub(crate) fn strategy(opts: &CliOptions) -> Strategy {
    if opts.random {
        Strategy::Random {
            iterations: opts.iterations,
            seed: opts.seed,
        }
    } else {
        Strategy::Mcts {
            iterations: opts.iterations,
            config: MctsConfig {
                seed: opts.seed,
                ..Default::default()
            },
        }
    }
}

/// Builds the structured-event sink requested by `--events`/`--progress`
/// (`None` when neither flag is set). The sink carries the same run id
/// as the report/ledger provenance so NDJSON streams can be joined with
/// ledger entries.
fn event_sink(opts: &CliOptions) -> Result<Option<EventSink>, String> {
    if !opts.progress && opts.events.is_none() {
        return Ok(None);
    }
    let run_id = Provenance::capture(opts.settings.run_id.as_deref()).run_id;
    let mut sink = EventSink::new(&run_id);
    if let Some(path) = &opts.events {
        let file = std::fs::File::create(path)
            .map_err(|e| format!("cannot create events file {path:?}: {e}"))?;
        sink = sink.with_writer(Box::new(std::io::BufWriter::new(file)));
    }
    if opts.progress {
        sink = sink.with_observer(Box::new(ProgressRenderer::new()));
    }
    Ok(Some(sink))
}

/// Pre-flight check of every artifact path the run will write, so a
/// long exploration cannot end in a `cannot write ...` surprise: each
/// directory-valued path (`--ledger`, `--store`) is created and probed
/// with a scratch file, and each file-valued path (`--report`,
/// `--telemetry`, `--trace` — the swarm timeline included, `--events`,
/// `--fleet-events`, `--metrics-text`) is opened for writing (append
/// when it already exists, else create-and-remove). The first offending
/// path fails fast, named.
fn preflight_artifact_paths(opts: &CliOptions) -> Result<(), String> {
    let bad = |path: &str, e: std::io::Error| format!("artifact path not writable: {path}: {e}");
    let ledger = opts.settings.ledger.as_deref().map(Path::to_string_lossy);
    for dir in [ledger.as_deref(), opts.store.as_deref()]
        .into_iter()
        .flatten()
    {
        let probe = || -> std::io::Result<()> {
            std::fs::create_dir_all(dir)?;
            // Per process: swarm workers probe their shared store root
            // concurrently, and one's remove must not race another's.
            let p = Path::new(dir).join(format!(".dr-preflight-{}", std::process::id()));
            std::fs::write(&p, b"ok")?;
            std::fs::remove_file(&p)
        };
        probe().map_err(|e| bad(dir, e))?;
    }
    for path in [
        opts.report.as_ref(),
        opts.telemetry.as_ref(),
        opts.events.as_ref(),
        opts.trace.as_ref(),
        opts.fleet_events.as_ref(),
        opts.metrics_text.as_ref(),
    ]
    .into_iter()
    .flatten()
    {
        let probe = || -> std::io::Result<()> {
            if Path::new(path).exists() {
                std::fs::OpenOptions::new().append(true).open(path)?;
            } else {
                std::fs::File::create(path)?;
                std::fs::remove_file(path)?;
            }
            Ok(())
        };
        probe().map_err(|e| bad(path, e))?;
    }
    Ok(())
}

/// Runs the parsed command, writing human-readable output to `out`.
///
/// Returns `Err` — a nonzero process exit — when `compare` finds a
/// regression beyond threshold, in addition to ordinary failures.
pub fn run(opts: &CliOptions, out: &mut impl std::io::Write) -> Result<(), String> {
    preflight_artifact_paths(opts)?;

    if opts.command == Command::Compare {
        let (pa, pb) = opts.compare.as_ref().ok_or("compare needs two paths")?;
        let copts = CompareOptions {
            ratio: opts.threshold,
            abs_floor_s: opts.abs_floor_ms / 1e3,
            noise_k: opts.noise_k,
        };
        // Benchmark histories and merged fleet streams are auto-detected
        // by their schema tags, so the same grammar gates ledgers,
        // BENCH_*.json files, and dr-fleet/v1 streams.
        let fleet_a = is_fleet_file(Path::new(pa));
        let fleet_b = is_fleet_file(Path::new(pb));
        let report = if fleet_a || fleet_b {
            if fleet_a != fleet_b {
                let kind = |fleet: bool, p: &str| {
                    if fleet {
                        "fleet"
                    } else if is_bench_file(Path::new(p)) {
                        "bench"
                    } else {
                        "ledger"
                    }
                };
                return Err(format!(
                    "cannot compare a {:?} history against a {:?} history",
                    kind(fleet_a, pa),
                    kind(fleet_b, pb)
                ));
            }
            let a = load_fleet(Path::new(pa))?;
            let b = load_fleet(Path::new(pb))?;
            compare_fleet(&a, &b)
        } else if is_bench_file(Path::new(pa)) || is_bench_file(Path::new(pb)) {
            let (ka, a) = load_bench(Path::new(pa))?;
            let (kb, b) = load_bench(Path::new(pb))?;
            if ka != kb {
                return Err(format!(
                    "cannot compare a {ka:?} history against a {kb:?} history"
                ));
            }
            compare_bench(&ka, &a, &b, &copts)
        } else {
            let a = load_ledger(Path::new(pa))?;
            let b = load_ledger(Path::new(pb))?;
            compare_ledgers(&a, &b, &copts)
        };
        write!(out, "{}", report.render_text()).map_err(io)?;
        if report.is_regression() {
            return Err(format!(
                "{} regression(s) beyond threshold",
                report.regressions.len()
            ));
        }
        return Ok(());
    }

    if opts.command == Command::Bench {
        return run_bench(opts, out);
    }

    if opts.command == Command::Runs {
        return run_runs(opts, out);
    }

    let inst = instance(opts);

    if opts.command == Command::Info {
        writeln!(out, "decision ops : {}", inst.space.num_ops()).map_err(io)?;
        writeln!(out, "streams      : {}", inst.space.num_streams()).map_err(io)?;
        writeln!(out, "traversals   : {}", inst.space.count_traversals()).map_err(io)?;
        for op in inst.space.ops() {
            writeln!(out, "  {}", op.name).map_err(io)?;
        }
        return Ok(());
    }

    if opts.command == Command::Lint {
        let topo = topology_from_workload(&inst.space, &inst.workload, &inst.platform);
        let sink = event_sink(opts)?;
        let lint = lint_space_watched(&inst.space, Some(&topo), opts.max_schedules, sink.as_ref());
        write!(out, "{}", lint.counters.render_text()).map_err(io)?;
        for line in &lint.sample {
            writeln!(out, "  {line}").map_err(io)?;
        }
        writeln!(
            out,
            "incremental: {} hb expansions (cold would be {}), {} distinct diagnostics",
            lint.stats.hb_expansions,
            lint.stats.cold_hb_expansions,
            lint.diags.len()
        )
        .map_err(io)?;
        if lint.truncated {
            writeln!(
                out,
                "note: stopped after {} schedules (--max-schedules; 0 = whole space)",
                opts.max_schedules
            )
            .map_err(io)?;
        }
        note_events(opts, sink.as_ref(), out)?;
        if let Some(path) = &opts.report {
            std::fs::write(path, lint.counters.to_json())
                .map_err(|e| format!("cannot write report {path:?}: {e}"))?;
            writeln!(out, "wrote lint counters to {path}").map_err(io)?;
        }
        return Ok(());
    }

    if opts.command == Command::VerifyRules {
        return run_verify_rules(opts, &inst, out);
    }

    if opts.command == Command::Chaos {
        return run_chaos(opts, &inst, out);
    }

    if opts.command == Command::Explain {
        return run_explain(opts, &inst, out);
    }

    if opts.command == Command::Merge {
        let dir = opts.merge_dir.as_ref().ok_or("merge needs a directory")?;
        return run_merge(opts, &inst, Path::new(dir), out);
    }

    if opts.command == Command::Swarm {
        let store_root = opts.store.clone().ok_or("swarm requires --store")?;
        let outcome = crate::swarm::coordinate(opts, Path::new(&store_root), out)?;
        if let Some(path) = &opts.fleet_events {
            writeln!(
                out,
                "wrote {} merged fleet events to {path} (run {})",
                outcome.stats.merged_events, outcome.run_id
            )
            .map_err(io)?;
        }
        if let Some(path) = &opts.trace {
            // For swarm, --trace means the merged fleet timeline: one
            // process per worker plus the coordinator, flow arrows from
            // shard issue to completion.
            let json = crate::fleet::swarm_chrome_json(&outcome.events, opts.workers);
            std::fs::write(path, json).map_err(|e| format!("cannot write trace {path:?}: {e}"))?;
            writeln!(
                out,
                "wrote swarm timeline ({} events) to {path} — open at ui.perfetto.dev",
                outcome.events.len()
            )
            .map_err(io)?;
        }
        if let Some(path) = &opts.metrics_text {
            let text = fleet_metrics_text(&outcome);
            std::fs::write(path, text)
                .map_err(|e| format!("cannot write metrics snapshot {path:?}: {e}"))?;
            writeln!(out, "wrote metrics snapshot to {path}").map_err(io)?;
        }
        return run_merge(opts, &inst, Path::new(&store_root), out);
    }

    if let Some(shard) = &opts.shard {
        // One shard, serially, through the durable store: the swarm
        // worker entry point, also usable by hand.
        let spec = ShardSpec::parse(shard)?;
        let store_root = opts.store.as_ref().ok_or("--shard requires --store")?;
        let sink = event_sink(opts)?;
        let target = ShardTarget {
            scenario: opts.scenario.name(),
            spec,
            root: Path::new(store_root),
        };
        let ctx = RunCtx {
            events: sink.clone(),
            ..RunCtx::new(opts.settings.pipeline)
        };
        let outcome = run_shard(
            &inst.space,
            &inst.workload,
            &inst.platform,
            strategy(opts),
            &target,
            &ctx,
        )
        .map_err(fail)?;
        let m = &outcome.manifest;
        writeln!(
            out,
            "shard {spec}: {} records, fingerprint {:016x}, store {} hits / {} appended, \
             {} quarantined, {:.2}s",
            m.records, m.fingerprint, m.store.hits, m.store.appended, m.failures, m.seconds
        )
        .map_err(io)?;
        writeln!(out, "wrote manifest {}", outcome.manifest_path.display()).map_err(io)?;
        note_events(opts, sink.as_ref(), out)?;
        return Ok(());
    }

    let tracer = if opts.trace.is_some() {
        Tracer::new()
    } else {
        Tracer::disabled()
    };
    // The event sink carries the same run id as the report/ledger
    // provenance so NDJSON streams can be joined with ledger entries.
    let sink = event_sink(opts)?;
    let store = match &opts.store {
        Some(dir) => Some(std::sync::Arc::new(
            crate::store::ResultStore::open(Path::new(dir))
                .map_err(|e| format!("cannot open result store {dir:?}: {e}"))?,
        )),
        None => None,
    };
    let ctx = RunCtx {
        cfg: opts.settings.pipeline,
        tracer: tracer.clone(),
        events: sink.clone(),
        store: store.clone(),
    };
    let mut run = run_pipeline_stored(
        &inst.space,
        &inst.workload,
        &inst.platform,
        strategy(opts),
        &ctx,
    )
    .map_err(fail)?;

    if let Some(store) = &store {
        let s = store.stats();
        writeln!(
            out,
            "store: {} hits, {} misses, {} loaded, {} appended ({} committed records)",
            s.hits,
            s.misses,
            s.loaded,
            s.appended,
            store.len()
        )
        .map_err(io)?;
    }
    note_events(opts, sink.as_ref(), out)?;
    if let Some(path) = &opts.trace {
        let merged = merged_trace(&inst, &run, &tracer, opts.seed).map_err(fail)?;
        std::fs::write(path, merged).map_err(|e| format!("cannot write trace {path:?}: {e}"))?;
        writeln!(
            out,
            "wrote merged trace ({} spans) to {path} — open at ui.perfetto.dev",
            tracer.span_count()
        )
        .map_err(io)?;
    }
    write_run_artifacts(
        opts,
        &inst.space,
        &mut run,
        opts.settings.ledger.as_deref(),
        out,
    )?;
    if let Some(path) = &opts.metrics_text {
        let text = run_metrics_text(opts, &run, store.as_deref());
        std::fs::write(path, text)
            .map_err(|e| format!("cannot write metrics snapshot {path:?}: {e}"))?;
        writeln!(out, "wrote metrics snapshot to {path}").map_err(io)?;
    }
    let result = run.result;

    match opts.command {
        Command::Info
        | Command::Lint
        | Command::Chaos
        | Command::Compare
        | Command::Explain
        | Command::Bench
        | Command::VerifyRules
        | Command::Merge
        | Command::Swarm
        | Command::Runs => {
            unreachable!("handled above")
        }
        Command::Explore => {
            let times = result.times();
            let fastest = times.iter().copied().fold(f64::INFINITY, f64::min);
            let slowest = times.iter().copied().fold(0.0f64, f64::max);
            writeln!(out, "explored {} implementations", result.records.len()).map_err(io)?;
            writeln!(
                out,
                "spread   {:.2}x ({:.1} µs .. {:.1} µs)",
                slowest / fastest,
                fastest * 1e6,
                slowest * 1e6
            )
            .map_err(io)?;
            writeln!(out, "classes  {}", result.labeling.num_classes).map_err(io)?;
            for (c, &(lo, hi)) in result.labeling.class_ranges.iter().enumerate() {
                let members = result.labeling.labels.iter().filter(|&&l| l == c).count();
                writeln!(
                    out,
                    "  class {c}: {members} impls, {:.1} µs .. {:.1} µs",
                    lo * 1e6,
                    hi * 1e6
                )
                .map_err(io)?;
            }
        }
        Command::Rules => {
            for class in 0..result.labeling.num_classes {
                writeln!(out, "== class {class} ==").map_err(io)?;
                for rs in rulesets_for_class(&result.rulesets, class).iter().take(3) {
                    writeln!(
                        out,
                        "  ruleset ({} samples{}):",
                        rs.samples,
                        if rs.pure { "" } else { ", impure" }
                    )
                    .map_err(io)?;
                    for line in render_ruleset(rs, &inst.space) {
                        writeln!(out, "    - {line}").map_err(io)?;
                    }
                }
            }
        }
        Command::Synthesize => {
            let sets = rulesets_for_class(&result.rulesets, 0);
            let rs = sets.first().ok_or("no fastest-class ruleset found")?;
            for line in render_ruleset(rs, &inst.space) {
                writeln!(out, "rule: {line}").map_err(io)?;
            }
            let t = synthesize(&inst.space, &rs.rules)
                .map_err(|why| format!("rules are unsatisfiable: {why}"))?;
            let time = bench_traversal(&inst, &t, opts.seed).map_err(fail)?;
            let (_, hi) = result.labeling.class_ranges[0];
            writeln!(
                out,
                "synthesized implementation: {:.1} µs (class-0 max {:.1} µs)",
                time * 1e6,
                hi * 1e6
            )
            .map_err(io)?;
        }
        Command::Timeline => {
            let best = result
                .records
                .iter()
                .min_by(|a, b| a.result.time().partial_cmp(&b.result.time()).unwrap())
                .ok_or("no records")?;
            let worst = result
                .records
                .iter()
                .max_by(|a, b| a.result.time().partial_cmp(&b.result.time()).unwrap())
                .ok_or("no records")?;
            for (tag, rec) in [("fastest", best), ("slowest", worst)] {
                let schedule = build_schedule(&inst.space, &rec.traversal);
                let prog = CompiledProgram::compile(&schedule, &inst.workload).map_err(fail)?;
                let (outcome, trace) = execute_traced(
                    &prog,
                    &inst.platform.clone().noiseless(),
                    &mut SmallRng::seed_from_u64(opts.seed),
                )
                .map_err(fail)?;
                writeln!(out, "== {tag}: {:.1} µs ==", outcome.time() * 1e6).map_err(io)?;
                write!(out, "{}", trace.ascii_gantt(0, 96)).map_err(io)?;
            }
        }
    }
    Ok(())
}

/// The `runs` command: query the ledger named by `--ledger` (or
/// `DR_LEDGER`). `list` summarizes the entries matching the scenario
/// (plus `--seed`/`--git` filters) and appends cross-run trends; `show`
/// prints one entry by index or run-id prefix; `diff` gates entry `b`
/// against entry `a` through exactly the `compare` statistics, so its
/// exit status matches what `compare` would say about the same pair.
fn run_runs(opts: &CliOptions, out: &mut impl std::io::Write) -> Result<(), String> {
    let dir = opts
        .settings
        .ledger
        .as_ref()
        .ok_or("runs needs --ledger DIR (or DR_LEDGER) naming the ledger")?;
    let entries = load_ledger(dir)?;
    match opts.runs_cmd.as_ref().ok_or("runs needs a subcommand")? {
        RunsCommand::List => {
            let filter = RunFilter {
                scenario: Some(opts.scenario.name().to_string()),
                seed: opts.seed_filter,
                git: opts.git_filter.clone(),
            };
            let selected = select(&entries, &filter);
            for (i, e) in &selected {
                writeln!(out, "{}", summary_line(*i, e)).map_err(io)?;
            }
            if selected.len() >= 2 {
                let just: Vec<&json::Value> = selected.iter().map(|(_, e)| *e).collect();
                for line in trend_lines(&just) {
                    writeln!(out, "{line}").map_err(io)?;
                }
            }
            writeln!(
                out,
                "{} of {} ledger entries match",
                selected.len(),
                entries.len()
            )
            .map_err(io)?;
        }
        RunsCommand::Show(sel) => {
            let (i, e) = find_entry(&entries, sel)?;
            write!(out, "{}", show_entry(i, e)).map_err(io)?;
        }
        RunsCommand::Diff(a, b) => {
            let (_, ea) = find_entry(&entries, a)?;
            let (_, eb) = find_entry(&entries, b)?;
            let copts = CompareOptions {
                ratio: opts.threshold,
                abs_floor_s: opts.abs_floor_ms / 1e3,
                noise_k: opts.noise_k,
            };
            let report = diff_entries(ea, eb, &copts);
            write!(out, "{}", report.render_text()).map_err(io)?;
            if report.is_regression() {
                return Err(format!(
                    "{} regression(s) beyond threshold",
                    report.regressions.len()
                ));
            }
        }
    }
    Ok(())
}

/// Renders the swarm's fleet telemetry as a Prometheus text-format
/// snapshot: aggregation totals, per-worker stream counters, and counts
/// of the coordinator's decision events.
fn fleet_metrics_text(outcome: &crate::swarm::FleetOutcome) -> String {
    let mut exp = TextExposition::new();
    let run = outcome.run_id.as_str();
    exp.value(
        "dr_fleet_merged_events_total",
        "Events in the merged dr-fleet/v1 stream.",
        "counter",
        &[("run", run)],
        outcome.stats.merged_events as f64,
    );
    exp.value(
        "dr_fleet_coordinator_events_total",
        "Coordinator events in the merged stream.",
        "counter",
        &[("run", run)],
        outcome.stats.coordinator_events as f64,
    );
    for kind in [
        "anomaly",
        "worker-kill",
        "shard-retry",
        "shard-quarantined",
        "shard-complete",
        "shard-resumed",
    ] {
        let n = outcome.events.iter().filter(|e| e.kind == kind).count();
        let name = format!("dr_fleet_{}_total", kind.replace('-', "_"));
        exp.value(
            &name,
            "Coordinator decision events by kind.",
            "counter",
            &[("run", run)],
            n as f64,
        );
    }
    for (i, w) in outcome.stats.workers.iter().enumerate() {
        let idx = i.to_string();
        let labels = [("run", run), ("worker", idx.as_str())];
        exp.value(
            "dr_fleet_worker_events_total",
            "Validated events merged per worker stream.",
            "counter",
            &labels,
            w.events as f64,
        );
        exp.value(
            "dr_fleet_worker_malformed_total",
            "Malformed lines rejected per worker stream.",
            "counter",
            &labels,
            w.malformed as f64,
        );
        exp.value(
            "dr_fleet_worker_foreign_total",
            "Lines rejected for a foreign run or shard identity.",
            "counter",
            &labels,
            w.foreign as f64,
        );
        if let Some(seen) = w.last_seen_s {
            exp.value(
                "dr_fleet_worker_last_seen_seconds",
                "Coordinator clock at the worker's last merged event.",
                "gauge",
                &labels,
                seen,
            );
        }
    }
    exp.render().to_string()
}

/// Renders a single-process run as a Prometheus text-format snapshot:
/// phase durations, record/class counts, and cache statistics.
fn run_metrics_text(
    opts: &CliOptions,
    run: &InstrumentedRun,
    store: Option<&crate::store::ResultStore>,
) -> String {
    let mut exp = TextExposition::new();
    let scenario = opts.scenario.name();
    let strategy_name = strategy(opts).name();
    let base = [("scenario", scenario), ("strategy", strategy_name)];
    for (name, seconds) in run.report.phases.entries() {
        let labels = [
            ("scenario", scenario),
            ("strategy", strategy_name),
            ("phase", name.as_str()),
        ];
        exp.value(
            "dr_run_phase_seconds",
            "Wall-clock seconds per pipeline phase.",
            "gauge",
            &labels,
            *seconds,
        );
    }
    exp.value(
        "dr_run_records",
        "Explored implementation records.",
        "gauge",
        &base,
        run.result.records.len() as f64,
    );
    exp.value(
        "dr_run_classes",
        "Performance classes found by labeling.",
        "gauge",
        &base,
        run.result.labeling.num_classes as f64,
    );
    exp.value(
        "dr_run_cache_hits_total",
        "Evaluation cache hits.",
        "counter",
        &base,
        run.cache.hits as f64,
    );
    exp.value(
        "dr_run_cache_misses_total",
        "Evaluation cache misses.",
        "counter",
        &base,
        run.cache.misses as f64,
    );
    if let Some(store) = store {
        let s = store.stats();
        exp.value(
            "dr_run_store_hits_total",
            "Durable result-store hits.",
            "counter",
            &base,
            s.hits as f64,
        );
        exp.value(
            "dr_run_store_misses_total",
            "Durable result-store misses.",
            "counter",
            &base,
            s.misses as f64,
        );
    }
    exp.render().to_string()
}

/// The `bench` command: run both benchmark harnesses (pipeline phases,
/// exploration scaling) and append each report to its committed
/// `BENCH_*.json` history in the working directory. The scenario picks
/// the scale and `DR_SEED` the seed so CLI-appended entries stay
/// comparable with entries appended by the standalone binaries.
fn run_bench(opts: &CliOptions, out: &mut impl std::io::Write) -> Result<(), String> {
    let scale = match opts.scenario {
        Scenario::Spmv => "small",
        Scenario::SpmvPaper => "paper",
        _ => return Err("bench supports the spmv (small scale) and spmv-paper scenarios".into()),
    };
    let seed = dr_bench::seed();
    let pipeline = dr_bench::harness::pipeline_report(scale, seed, &opts.settings.pipeline, out);
    append_bench("pipeline", pipeline, out)?;
    let explore = dr_bench::harness::explore_report(scale, seed, out);
    append_bench("explore", explore, out)
}

/// Appends one harness report to its `BENCH_<kind>.json` history.
fn append_bench(
    kind: &str,
    report: Result<String, Box<dyn std::error::Error>>,
    out: &mut impl std::io::Write,
) -> Result<(), String> {
    let report = report.map_err(|e| format!("{kind} bench failed: {e}"))?;
    let file = format!("BENCH_{kind}.json");
    let entries = dr_bench::append_history(Path::new(&file), kind, &report)
        .map_err(|e| format!("cannot append to {file}: {e}"))?;
    writeln!(out, "appended to {file} ({entries} entries)").map_err(io)
}

/// Renders a placement as `<op-name>` or `<op-name>@s<stream>`.
fn placement_str(space: &DecisionSpace, p: &Placement) -> String {
    match p.stream {
        Some(s) => format!("{}@s{s}", space.ops()[p.op].name),
        None => space.ops()[p.op].name.clone(),
    }
}

/// Per-ruleset provenance: the indices (into the explored record set)
/// of the records satisfying the ruleset's predicates, grouped by the
/// records' performance class.
fn ruleset_support(
    space: &DecisionSpace,
    records: &[crate::mcts::ExploredRecord],
    labels: &[usize],
    num_classes: usize,
    rs: &RuleSet,
) -> Vec<Vec<usize>> {
    let mut support = vec![Vec::new(); num_classes];
    for (i, rec) in records.iter().enumerate() {
        if satisfies(space, &rec.traversal, &rs.rules) {
            support[labels[i]].push(i);
        }
    }
    support
}

/// The `explain` command: run a standalone MCTS at the requested budget
/// (batches of `--threads` rollouts, as in explore), export per-node
/// visit/value statistics and the top-k principal variations, then mine
/// rules from the explored records and attach per-rule provenance —
/// decision-path predicates, supporting record indices by class, leaf
/// purity, and the simulated-time distribution of each leaf's
/// supporting records.
fn run_explain(
    opts: &CliOptions,
    inst: &Instance,
    out: &mut impl std::io::Write,
) -> Result<(), String> {
    const TOP_K: usize = 5;
    const MAX_NODES: usize = 12;
    const RULESETS_PER_CLASS: usize = 3;
    const INDICES_SHOWN: usize = 8;

    let evals = (0..opts.settings.pipeline.threads)
        .map(|_| {
            SimEvaluator::new(
                &inst.space,
                &inst.workload,
                &inst.platform,
                BenchConfig::quick(),
            )
        })
        .collect();
    let cfg = MctsConfig {
        seed: opts.seed,
        ..Default::default()
    };
    let mut mcts = Mcts::batched(&inst.space, evals, cfg);
    mcts.run_parallel(opts.iterations).map_err(fail)?;
    let snap = mcts.snapshot(TOP_K, MAX_NODES);
    let records = mcts.into_records();
    if records.is_empty() {
        return Err("search explored no implementations (try more iterations)".into());
    }
    let result = mine_rules(&inst.space, records, &PipelineConfig::quick());
    let records = &result.records;
    let labels = &result.labeling.labels;
    let num_classes = result.labeling.num_classes;

    // -- tree statistics --
    writeln!(
        out,
        "== MCTS tree (seed {}, {} iterations requested, {} executed) ==",
        opts.seed, opts.iterations, snap.iterations
    )
    .map_err(io)?;
    writeln!(
        out,
        "nodes {}, max depth {}, fully explored {}, rollouts {}",
        snap.stats.nodes, snap.stats.max_depth, snap.stats.fully_explored, snap.stats.rollouts
    )
    .map_err(io)?;
    writeln!(
        out,
        "times {:.1} µs .. {:.1} µs; space exhausted: {}; quarantined: {}",
        snap.stats.t_min * 1e6,
        snap.stats.t_max * 1e6,
        snap.exhausted,
        snap.failures
    )
    .map_err(io)?;
    let profile: Vec<String> = snap.depth_profile.iter().map(usize::to_string).collect();
    writeln!(out, "nodes per depth: {}", profile.join("/")).map_err(io)?;
    writeln!(out, "top nodes by visits:").map_err(io)?;
    for n in &snap.nodes {
        let action = match &n.action {
            Some(p) => placement_str(&inst.space, p),
            None => "<root>".to_string(),
        };
        writeln!(
            out,
            "  d{} {action}: {} visits, mean {:.1} µs, min {:.1} µs, {} children{}",
            n.depth,
            n.visits,
            n.t_mean * 1e6,
            n.t_min * 1e6,
            n.children,
            if n.fully_explored { ", complete" } else { "" }
        )
        .map_err(io)?;
    }
    writeln!(out, "principal variations:").map_err(io)?;
    for (i, pv) in snap.principal_variations.iter().enumerate() {
        let steps: Vec<String> = pv
            .steps
            .iter()
            .map(|p| placement_str(&inst.space, p))
            .collect();
        writeln!(
            out,
            "  pv{} ({} visits, min {:.1} µs, mean {:.1} µs): {}",
            i + 1,
            pv.visits,
            pv.t_min * 1e6,
            pv.t_mean * 1e6,
            steps.join(" -> ")
        )
        .map_err(io)?;
    }

    // -- per-rule provenance --
    writeln!(
        out,
        "== rule provenance ({} records, {} classes) ==",
        records.len(),
        num_classes
    )
    .map_err(io)?;
    for class in 0..num_classes {
        writeln!(out, "class {class}:").map_err(io)?;
        for rs in rulesets_for_class(&result.rulesets, class)
            .iter()
            .take(RULESETS_PER_CLASS)
        {
            let purity = rs.class_counts.iter().copied().max().unwrap_or(0) as f64
                / (rs.samples.max(1)) as f64;
            writeln!(
                out,
                "  ruleset ({} samples, purity {:.0}%):",
                rs.samples,
                purity * 100.0
            )
            .map_err(io)?;
            for line in render_ruleset(rs, &inst.space) {
                writeln!(out, "    - {line}").map_err(io)?;
            }
            let support = ruleset_support(&inst.space, records, labels, num_classes, rs);
            for (k, idx) in support.iter().enumerate() {
                if idx.is_empty() {
                    continue;
                }
                let shown: Vec<String> = idx
                    .iter()
                    .take(INDICES_SHOWN)
                    .map(usize::to_string)
                    .collect();
                let ellipsis = if idx.len() > INDICES_SHOWN {
                    ", …"
                } else {
                    ""
                };
                writeln!(
                    out,
                    "    support class {k}: {} records [{}{ellipsis}]",
                    idx.len(),
                    shown.join(", ")
                )
                .map_err(io)?;
            }
            let mut times: Vec<f64> = support
                .iter()
                .flatten()
                .map(|&i| records[i].result.time())
                .collect();
            if !times.is_empty() {
                let min = times.iter().copied().fold(f64::INFINITY, f64::min);
                let max = times.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                writeln!(
                    out,
                    "    simulated time over {} supporting records: \
                     {:.1} .. {:.1} µs (median {:.1} µs)",
                    times.len(),
                    min * 1e6,
                    max * 1e6,
                    median(&mut times) * 1e6
                )
                .map_err(io)?;
            }
        }
    }

    if let Some(path) = &opts.report {
        let json = explain_json(opts, inst, &snap, &result);
        json::validate(&json).map_err(|e| format!("internal: explain JSON invalid: {e}"))?;
        std::fs::write(path, json).map_err(|e| format!("cannot write report {path:?}: {e}"))?;
        writeln!(out, "wrote explain report to {path}").map_err(io)?;
    }
    Ok(())
}

/// Serializes the `explain` command's output as one `dr-explain/v1`
/// JSON object.
fn explain_json(
    opts: &CliOptions,
    inst: &Instance,
    snap: &crate::mcts::TreeSnapshot,
    result: &crate::pipeline::PipelineResult,
) -> String {
    let records = &result.records;
    let labels = &result.labeling.labels;
    let num_classes = result.labeling.num_classes;
    let action_json = |p: &Option<Placement>| match p {
        Some(p) => format!("\"{}\"", json::escape(&placement_str(&inst.space, p))),
        None => "null".to_string(),
    };
    let nodes: Vec<String> = snap
        .nodes
        .iter()
        .map(|n| {
            format!(
                "{{\"depth\":{},\"action\":{},\"visits\":{},\"t_min\":{},\"t_mean\":{},\
                 \"t_max\":{},\"children\":{},\"fully_explored\":{}}}",
                n.depth,
                action_json(&n.action),
                n.visits,
                json::number(n.t_min),
                json::number(n.t_mean),
                json::number(n.t_max),
                n.children,
                n.fully_explored
            )
        })
        .collect();
    let pvs: Vec<String> = snap
        .principal_variations
        .iter()
        .map(|pv| {
            let steps: Vec<String> = pv
                .steps
                .iter()
                .map(|p| format!("\"{}\"", json::escape(&placement_str(&inst.space, p))))
                .collect();
            format!(
                "{{\"visits\":{},\"t_min\":{},\"t_mean\":{},\"steps\":[{}]}}",
                pv.visits,
                json::number(pv.t_min),
                json::number(pv.t_mean),
                steps.join(",")
            )
        })
        .collect();
    let mut rules: Vec<String> = Vec::new();
    for class in 0..num_classes {
        for rs in rulesets_for_class(&result.rulesets, class).iter().take(3) {
            let support = ruleset_support(&inst.space, records, labels, num_classes, rs);
            let support_json: Vec<String> = support
                .iter()
                .map(|idx| {
                    let v: Vec<String> = idx.iter().map(usize::to_string).collect();
                    format!("[{}]", v.join(","))
                })
                .collect();
            let mut times: Vec<f64> = support
                .iter()
                .flatten()
                .map(|&i| records[i].result.time())
                .collect();
            let times_json = if times.is_empty() {
                "null".to_string()
            } else {
                format!(
                    "{{\"count\":{},\"min\":{},\"median\":{},\"max\":{}}}",
                    times.len(),
                    json::number(times.iter().copied().fold(f64::INFINITY, f64::min)),
                    json::number(median(&mut times)),
                    json::number(times.iter().copied().fold(f64::NEG_INFINITY, f64::max)),
                )
            };
            let predicates: Vec<String> = render_ruleset(rs, &inst.space)
                .iter()
                .map(|l| format!("\"{}\"", json::escape(l)))
                .collect();
            let purity = rs.class_counts.iter().copied().max().unwrap_or(0) as f64
                / (rs.samples.max(1)) as f64;
            rules.push(format!(
                "{{\"class\":{},\"samples\":{},\"pure\":{},\"purity\":{},\
                 \"predicates\":[{}],\"support\":[{}],\"times\":{}}}",
                rs.class,
                rs.samples,
                rs.pure,
                json::number(purity),
                predicates.join(","),
                support_json.join(","),
                times_json
            ));
        }
    }
    let profile: Vec<String> = snap.depth_profile.iter().map(usize::to_string).collect();
    format!(
        "{{\"schema\":\"{EXPLAIN_SCHEMA}\",\"scenario\":\"{}\",\"seed\":{},\
         \"iterations\":{},\"executed\":{},\"failures\":{},\"exhausted\":{},\
         \"tree\":{{\"nodes\":{},\"max_depth\":{},\"fully_explored\":{},\"rollouts\":{},\
         \"t_min\":{},\"t_max\":{}}},\"depth_profile\":[{}],\"top_nodes\":[{}],\
         \"principal_variations\":[{}],\"records\":{},\"classes\":{},\"rules\":[{}]}}",
        json::escape(opts.scenario.name()),
        opts.seed,
        opts.iterations,
        snap.iterations,
        snap.failures,
        snap.exhausted,
        snap.stats.nodes,
        snap.stats.max_depth,
        snap.stats.fully_explored,
        snap.stats.rollouts,
        json::number(snap.stats.t_min),
        json::number(snap.stats.t_max),
        profile.join(","),
        nodes.join(","),
        pvs.join(","),
        records.len(),
        num_classes,
        rules.join(",")
    )
}

/// The `verify-rules` command: mine rulesets at the requested budget,
/// then statically certify each one. The incremental space linter walks
/// exactly the schedules satisfying each ruleset's conditions (the rules
/// prune the decision-space walk as a prefix filter) and checks every
/// one for error-severity diagnostics — races, deadlocks, malformed
/// schedules. Returns `Err` (nonzero exit) when any fastest-class
/// ruleset is *refuted* — a satisfying schedule with an error-severity
/// diagnostic exists: the paper's contract says following a fast-class
/// ruleset must be safe, so a counterexample is a bug in the mined
/// rules or the scenario DAG. A walk truncated at `--max-schedules` is
/// reported inconclusive (and uncertified in the JSON) but does not
/// fail: on spaces too large to exhaust, the bounded walk is still a
/// meaningful no-counterexample-found check.
fn run_verify_rules(
    opts: &CliOptions,
    inst: &Instance,
    out: &mut impl std::io::Write,
) -> Result<(), String> {
    let result = run_pipeline(
        &inst.space,
        &inst.workload,
        &inst.platform,
        strategy(opts),
        &opts.settings.pipeline,
    )
    .map_err(fail)?;
    let topo = topology_from_workload(&inst.space, &inst.workload, &inst.platform);
    let cert = certify_rulesets(
        &inst.space,
        Some(&topo),
        &result.rulesets,
        result.labeling.num_classes,
        opts.max_schedules as u64,
    );
    writeln!(
        out,
        "certifying {} ruleset(s) over {} classes (cap {} schedules per ruleset)",
        cert.rulesets.len(),
        cert.classes,
        if opts.max_schedules == 0 {
            "unlimited".to_string()
        } else {
            opts.max_schedules.to_string()
        }
    )
    .map_err(io)?;
    for c in &cert.rulesets {
        let verdict = if c.certified {
            "certified"
        } else if c.truncated {
            "INCONCLUSIVE (truncated)"
        } else {
            "UNCERTIFIED"
        };
        writeln!(
            out,
            "class {} ({} samples{}): {verdict} — {} schedule(s), {} error(s), {} warning(s)",
            c.class,
            c.samples,
            if c.pure { "" } else { ", impure" },
            c.schedules_checked,
            c.errors,
            c.warnings
        )
        .map_err(io)?;
        for p in &c.predicates {
            writeln!(out, "    - {p}").map_err(io)?;
        }
        if let Some(cx) = &c.first_counterexample {
            writeln!(out, "    counterexample: {cx}").map_err(io)?;
        }
    }
    if let Some(path) = &opts.report {
        let json = certify_json(opts, &cert);
        json::validate(&json).map_err(|e| format!("internal: certify JSON invalid: {e}"))?;
        std::fs::write(path, json).map_err(|e| format!("cannot write report {path:?}: {e}"))?;
        writeln!(out, "wrote certification report to {path}").map_err(io)?;
    }
    let refuted = cert.uncertified_fast().filter(|c| c.errors > 0).count();
    if refuted > 0 {
        return Err(format!(
            "{refuted} fastest-class ruleset(s) refuted by a counterexample"
        ));
    }
    let inconclusive = cert.uncertified_fast().count();
    if inconclusive > 0 {
        writeln!(
            out,
            "note: {inconclusive} fastest-class ruleset(s) inconclusive at the schedule \
             cap; no counterexample found (--max-schedules 0 certifies fully)"
        )
        .map_err(io)?;
    } else {
        writeln!(out, "all fastest-class rulesets certified").map_err(io)?;
    }
    Ok(())
}

/// Serializes the `verify-rules` command's output as one `dr-certify/v1`
/// JSON object.
fn certify_json(opts: &CliOptions, cert: &Certification) -> String {
    let rulesets: Vec<String> = cert
        .rulesets
        .iter()
        .map(|c| {
            let predicates: Vec<String> = c
                .predicates
                .iter()
                .map(|p| format!("\"{}\"", json::escape(p)))
                .collect();
            let counterexample = match &c.first_counterexample {
                Some(cx) => format!("\"{}\"", json::escape(cx)),
                None => "null".to_string(),
            };
            format!(
                "{{\"class\":{},\"samples\":{},\"pure\":{},\"predicates\":[{}],\
                 \"schedules_checked\":{},\"truncated\":{},\"errors\":{},\"warnings\":{},\
                 \"races\":{},\"deadlocks\":{},\"certified\":{},\"first_counterexample\":{}}}",
                c.class,
                c.samples,
                c.pure,
                predicates.join(","),
                c.schedules_checked,
                c.truncated,
                c.errors,
                c.warnings,
                c.races,
                c.deadlocks,
                c.certified,
                counterexample
            )
        })
        .collect();
    format!(
        "{{\"schema\":\"{CERTIFY_SCHEMA}\",\"scenario\":\"{}\",\"seed\":{},\
         \"iterations\":{},\"max_schedules\":{},\"classes\":{},\"rulesets\":[{}],\
         \"all_fast_certified\":{}}}",
        json::escape(opts.scenario.name()),
        opts.seed,
        opts.iterations,
        opts.max_schedules,
        cert.classes,
        rulesets.join(","),
        cert.all_fast_certified
    )
}

/// The `chaos` command: sweep seeded fault plans through the full
/// pipeline, assert the clean control plan is bit-for-bit deterministic,
/// and cross-check drop-induced simulator deadlocks against the static
/// linter's MPI103/MPI104 verdicts (the fault oracle).
/// The `merge` command's body (also the tail of `swarm`): validate the
/// shard set under `dir`, merge its stores (bit-identical to the
/// unsharded record sequence for exhaustive and random shards, a
/// deterministic hash-sorted union for MCTS shards; see
/// `dr_core::shard`), mine rules from the merged records, and
/// append a full ledger entry — to `--ledger` when given, else to the
/// shard directory itself — so `compare` can gate the merged fingerprint
/// against a single-process baseline.
fn run_merge(
    opts: &CliOptions,
    inst: &Instance,
    dir: &Path,
    out: &mut impl std::io::Write,
) -> Result<(), String> {
    let strategy = strategy(opts);
    let merged = merge_shards(dir, opts.scenario.name(), &inst.space, strategy)?;
    writeln!(
        out,
        "merged {} shards: {} records, fingerprint {:016x}, store {} hits / {} misses, \
         {} quarantined, {:.2}s compute ({:.2}s critical path)",
        merged.shards,
        merged.records.len(),
        merged.fingerprint,
        merged.store.hits,
        merged.store.misses,
        merged.failures,
        merged.seconds,
        merged.critical_seconds
    )
    .map_err(io)?;
    // The merged records mine exactly like an unsharded run. Swarm
    // workers run concurrently, so the ledger's "explore" phase cost is
    // the critical path (slowest shard), comparable to an unsharded
    // run's wall-clock — not the summed compute.
    let mut phases = Phases::new();
    phases.add("explore", merged.critical_seconds);
    let cfg = PipelineConfig::quick();
    let result = mine_rules_timed(&inst.space, merged.records, &cfg, &mut phases);
    let telemetry = records_telemetry(&result.records);
    let search = SearchSummary::from_telemetry(strategy.name(), &telemetry);
    let report = RunReport::new(phases, None, search, &result, &cfg);
    let mut run = InstrumentedRun {
        result,
        report,
        telemetry,
        cache: CacheStats::default(),
        threads: 1,
    };
    writeln!(
        out,
        "classes  {} — {} rulesets",
        run.result.labeling.num_classes,
        run.result.rulesets.len()
    )
    .map_err(io)?;
    let ledger = opts.settings.ledger.as_deref().unwrap_or(dir);
    write_run_artifacts(opts, &inst.space, &mut run, Some(ledger), out)
}

/// Reports the event stream written to `--events`, if any.
fn note_events(
    opts: &CliOptions,
    sink: Option<&EventSink>,
    out: &mut impl std::io::Write,
) -> Result<(), String> {
    if let (Some(sink), Some(path)) = (sink, &opts.events) {
        sink.flush();
        let (n, run) = (sink.seq(), sink.run_id());
        writeln!(out, "wrote {n} events to {path} (run {run})").map_err(io)?;
    }
    Ok(())
}

/// Pins `DR_RUN_ID` into a finished run's provenance, then appends its
/// ledger entry to `ledger` (if any) and writes `--report` and
/// `--telemetry`.
fn write_run_artifacts(
    opts: &CliOptions,
    space: &DecisionSpace,
    run: &mut InstrumentedRun,
    ledger: Option<&Path>,
    out: &mut impl std::io::Write,
) -> Result<(), String> {
    if let Some(id) = &opts.settings.run_id {
        run.report.provenance.run_id = id.clone();
    }
    if let Some(dir) = ledger {
        let ctx = LedgerContext {
            scenario: opts.scenario.name(),
            strategy: strategy(opts).name(),
            seed: opts.seed,
            iterations: opts.iterations as u64,
        };
        let path = append_entry(dir, &ledger_entry_json(&ctx, run, space))
            .map_err(|e| format!("cannot append ledger entry to {}: {e}", dir.display()))?;
        writeln!(out, "appended ledger entry to {}", path.display()).map_err(io)?;
    }
    if let Some(path) = &opts.report {
        std::fs::write(path, run.report.to_json())
            .map_err(|e| format!("cannot write report {path:?}: {e}"))?;
        writeln!(out, "wrote run report to {path}").map_err(io)?;
    }
    if let Some(path) = &opts.telemetry {
        std::fs::write(path, run.telemetry.to_csv())
            .map_err(|e| format!("cannot write telemetry {path:?}: {e}"))?;
        let rows = run.telemetry.len();
        writeln!(out, "wrote {rows} telemetry rows to {path}").map_err(io)?;
    }
    Ok(())
}

fn run_chaos(
    opts: &CliOptions,
    inst: &Instance,
    out: &mut impl std::io::Write,
) -> Result<(), String> {
    let run_once = |faults: FaultConfig| -> Result<InstrumentedRun, SimError> {
        run_pipeline_instrumented(
            &inst.space,
            &inst.workload,
            &inst.platform,
            strategy(opts),
            &PipelineConfig {
                faults,
                ..opts.settings.pipeline
            },
        )
    };

    // Plan 0 runs under the resolved faults, so DR_FAULTS changes what
    // "clean" means here.
    let control = opts.settings.pipeline.faults;
    if control.is_active() {
        writeln!(out, "note: DR_FAULTS is set; plan 0 runs under it").map_err(io)?;
    }

    // Plan 0, the clean control: with faults disabled the pipeline must
    // behave exactly as if the chaos machinery did not exist, and two
    // runs must agree bit for bit.
    let baseline = run_once(control).map_err(|e| format!("clean control run failed: {e}"))?;
    let replay = run_once(control).map_err(|e| format!("clean control replay failed: {e}"))?;
    let identical = baseline.result.times() == replay.result.times()
        && baseline.result.labeling.labels == replay.result.labeling.labels;
    writeln!(
        out,
        "plan  0 [clean]: {} records, {} classes, bit-for-bit replay: {}",
        baseline.result.records.len(),
        baseline.result.labeling.num_classes,
        if identical { "ok" } else { "MISMATCH" }
    )
    .map_err(io)?;
    if !identical {
        return Err("clean control plan is not deterministic".into());
    }
    if !control.is_active() && baseline.report.resilience.is_some() {
        return Err("clean control plan must not report resilience counters".into());
    }

    // Plans 1..N: alternate survivable presets across distinct seeds.
    let mut aggregate = ResilienceSummary::default();
    let mut failed_plans = 0usize;
    for p in 1..opts.plans as u64 {
        let (preset, name) = if p % 2 == 1 {
            (FaultConfig::light(), "light")
        } else {
            (FaultConfig::heavy(), "heavy")
        };
        let faults = preset.with_seed(opts.seed.wrapping_add(p));
        match run_once(faults) {
            Ok(run) => {
                let r = run
                    .report
                    .resilience
                    .ok_or("chaos plan missing resilience counters")?;
                aggregate.evaluations += r.evaluations;
                aggregate.retries += r.retries;
                aggregate.retry_delay_ms += r.retry_delay_ms;
                aggregate.deadlocks += r.deadlocks;
                aggregate.budget_kills += r.budget_kills;
                aggregate.panics += r.panics;
                aggregate.quarantined += r.quarantined;
                writeln!(
                    out,
                    "plan {p:2} [{name} seed={}]: {} records, {} classes; \
                     {} evaluations ({} retries, {} ms backoff) — {} deadlocks, \
                     {} budget kills, {} panics, {} quarantined",
                    faults.seed,
                    run.result.records.len(),
                    run.result.labeling.num_classes,
                    r.evaluations,
                    r.retries,
                    r.retry_delay_ms,
                    r.deadlocks,
                    r.budget_kills,
                    r.panics,
                    r.quarantined
                )
                .map_err(io)?;
            }
            Err(e) => {
                failed_plans += 1;
                writeln!(
                    out,
                    "plan {p:2} [{name} seed={}]: pipeline failed: {e}",
                    faults.seed
                )
                .map_err(io)?;
            }
        }
    }

    // The fault oracle: for a capped sweep of message-drop plans over the
    // first traversal, the simulator's deadlock outcome and the static
    // linter's verdict on the drop-projected topology must agree exactly.
    let t = inst
        .space
        .enumerate()
        .next()
        .ok_or("empty decision space")?;
    let schedule = build_schedule(&inst.space, &t);
    let prog = CompiledProgram::compile(&schedule, &inst.workload)
        .map_err(|e| format!("oracle compile failed: {e}"))?;
    let drops = FaultConfig::drops().with_seed(opts.seed);
    let (mut checked, mut agreed, mut sim_deadlocks) = (0u32, 0u32, 0u32);
    for s in 0..(opts.plans as u64).min(16) {
        let plan = FaultPlan::derive(&drops, s);
        let faulted = inst
            .platform
            .clone()
            .with_faults(plan)
            .with_budget(1_000_000, 0.0);
        let sim_deadlocked = match benchmark(&prog, &faulted, &BenchConfig::quick(), s) {
            Ok(_) => false,
            Err(SimError::Deadlock { .. } | SimError::Budget { .. }) => true,
            Err(e) => return Err(format!("oracle simulation failed structurally: {e}")),
        };
        let mut topo = topology_from_workload(&inst.space, &inst.workload, &inst.platform);
        apply_fault_plan(&mut topo, &plan);
        let lint_flagged =
            crate::lint::lint_traversal(&inst.space, &t, Some(&topo)).deadlocks() > 0;
        checked += 1;
        if sim_deadlocked == lint_flagged {
            agreed += 1;
        }
        if sim_deadlocked {
            sim_deadlocks += 1;
        }
    }
    writeln!(
        out,
        "oracle: {agreed}/{checked} drop plans agree with dr-lint \
         ({sim_deadlocks} fault-induced deadlocks)"
    )
    .map_err(io)?;
    writeln!(
        out,
        "sweep: {} plans, {} failed; {} evaluations ({} retries, {} ms backoff) — \
         {} deadlocks, {} budget kills, {} panics, {} quarantined",
        opts.plans,
        failed_plans,
        aggregate.evaluations,
        aggregate.retries,
        aggregate.retry_delay_ms,
        aggregate.deadlocks,
        aggregate.budget_kills,
        aggregate.panics,
        aggregate.quarantined
    )
    .map_err(io)?;

    if let Some(path) = &opts.report {
        let json = format!(
            concat!(
                "{{\"plans\":{},\"failed_plans\":{},\"clean_replay_identical\":{},",
                "\"oracle\":{{\"checked\":{},\"agreed\":{},\"sim_deadlocks\":{}}},",
                "\"aggregate\":{{\"evaluations\":{},\"retries\":{},\"retry_delay_ms\":{},",
                "\"deadlocks\":{},\"budget_kills\":{},\"panics\":{},\"quarantined\":{}}}}}"
            ),
            opts.plans,
            failed_plans,
            identical,
            checked,
            agreed,
            sim_deadlocks,
            aggregate.evaluations,
            aggregate.retries,
            aggregate.retry_delay_ms,
            aggregate.deadlocks,
            aggregate.budget_kills,
            aggregate.panics,
            aggregate.quarantined
        );
        std::fs::write(path, json).map_err(|e| format!("cannot write report {path:?}: {e}"))?;
        writeln!(out, "wrote chaos report to {path}").map_err(io)?;
    }

    if agreed != checked {
        return Err(format!(
            "fault oracle disagreement: only {agreed}/{checked} drop plans match dr-lint"
        ));
    }
    if failed_plans > 0 {
        return Err(format!(
            "{failed_plans} of {} chaos plans failed outright",
            opts.plans
        ));
    }
    Ok(())
}

/// Builds the merged Perfetto/Chrome trace: the pipeline's own span
/// rows (one process) next to the best explored implementation's
/// simulated rank/stream timelines (one process per rank), so search
/// overheads and the winning schedule are visible side by side.
fn merged_trace(
    inst: &Instance,
    run: &InstrumentedRun,
    tracer: &Tracer,
    seed: u64,
) -> Result<String, SimError> {
    let pipeline_json = tracer.to_chrome_json(PIPELINE_PID, "dr pipeline");
    let best = run
        .result
        .records
        .iter()
        .min_by(|a, b| a.result.time().partial_cmp(&b.result.time()).unwrap());
    let sim_json = match best {
        Some(rec) => {
            let schedule = build_schedule(&inst.space, &rec.traversal);
            let prog = CompiledProgram::compile(&schedule, &inst.workload)?;
            let (_, trace) = execute_traced(
                &prog,
                &inst.platform.clone().noiseless(),
                &mut SmallRng::seed_from_u64(seed),
            )?;
            trace.to_chrome_json()
        }
        None => String::from("[]"),
    };
    Ok(merge_chrome_json(&[&pipeline_json, &sim_json]))
}

fn bench_traversal(inst: &Instance, t: &Traversal, seed: u64) -> Result<f64, SimError> {
    let schedule = build_schedule(&inst.space, t);
    let prog = CompiledProgram::compile(&schedule, &inst.workload)?;
    Ok(benchmark(&prog, &inst.platform, &BenchConfig::quick(), seed)?.time())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    /// Parses `s` under this process's `DR_*` environment, so CI's
    /// thread, chaos and live-ledger legs reach the commands these tests
    /// run.
    fn cli(s: &str) -> CliOptions {
        parse_env(&argv(s), &crate::config::process_env()).unwrap()
    }

    #[test]
    fn parse_happy_paths() {
        let o = parse(&argv("spmv rules --iterations 50 --seed 9")).unwrap();
        assert_eq!(o.scenario, Scenario::Spmv);
        assert_eq!(o.command, Command::Rules);
        assert_eq!(o.iterations, 50);
        assert_eq!(o.seed, 9);
        assert!(!o.random);
        let o = parse(&argv("halo explore --random")).unwrap();
        assert_eq!(o.scenario, Scenario::Halo);
        assert!(o.random);
        assert_eq!(o.iterations, 300);
        assert_eq!(o.threads, None);
        let o = parse(&argv("spmv explore --threads 4")).unwrap();
        assert_eq!(o.threads, Some(4));
    }

    #[test]
    fn parse_rejects_bad_input() {
        assert!(parse(&argv("")).is_err());
        assert!(parse(&argv("nope info")).is_err());
        assert!(parse(&argv("spmv nope")).is_err());
        assert!(parse(&argv("spmv info --bogus")).is_err());
        assert!(parse(&argv("spmv info --iterations")).is_err());
        assert!(parse(&argv("spmv info --iterations many")).is_err());
        assert!(parse(&argv("spmv info --threads")).is_err());
        assert!(parse(&argv("spmv info --threads 0")).is_err());
        assert!(parse(&argv("spmv info --threads some")).is_err());
    }

    #[test]
    fn parse_env_resolves_settings_under_the_flags() {
        let env: Env = [("DR_THREADS", "3"), ("DR_LEDGER", "runs")]
            .iter()
            .map(|&(k, v)| (k.to_string(), v.to_string()))
            .collect();
        let o = parse_env(&argv("spmv explore"), &env).unwrap();
        assert_eq!(o.threads, None);
        assert_eq!(o.settings.pipeline.threads, 3);
        assert_eq!(o.settings.ledger.as_deref(), Some(Path::new("runs")));
        let o = parse_env(&argv("spmv explore --threads 2 --ledger x"), &env).unwrap();
        assert_eq!(o.settings.pipeline.threads, 2);
        assert_eq!(o.settings.ledger.as_deref(), Some(Path::new("x")));
        let bad: Env = [("DR_RETRY_MAX".to_string(), "abc".to_string())].into();
        let err = parse_env(&argv("spmv explore"), &bad).unwrap_err();
        assert!(err.contains("DR_RETRY_MAX"), "{err}");
    }

    #[test]
    fn usage_lists_every_flag() {
        let text = usage();
        for flag in FLAGS {
            assert!(text.contains(flag.usage), "{}", flag.usage);
        }
    }

    #[test]
    fn parse_rejects_a_zero_iteration_budget() {
        // A zero budget explores nothing; refusing it here keeps it from
        // surfacing later as a fault-injection failure.
        for command in ["explore", "explore --random", "rules", "explain"] {
            let err = parse(&argv(&format!("spmv {command} --iterations 0"))).unwrap_err();
            assert!(err.contains("--iterations must be at least 1"), "{err}");
        }
        assert_eq!(
            parse(&argv("spmv explore --iterations 1"))
                .unwrap()
                .iterations,
            1
        );
    }

    #[test]
    fn info_command_prints_space_summary() {
        let opts = cli("spmv info");
        let mut buf = Vec::new();
        run(&opts, &mut buf).unwrap();
        let s = String::from_utf8(buf).unwrap();
        assert!(s.contains("traversals   : 1600"));
        assert!(s.contains("CES-b4-PostSend"));
    }

    #[test]
    fn explore_command_reports_classes() {
        let opts = cli("spmv explore --iterations 40 --seed 2");
        let mut buf = Vec::new();
        run(&opts, &mut buf).unwrap();
        let s = String::from_utf8(buf).unwrap();
        assert!(s.contains("explored"));
        assert!(s.contains("class 0"));
    }

    #[test]
    fn rules_command_prints_rulesets() {
        let opts = cli("spmv rules --iterations 60 --seed 2");
        let mut buf = Vec::new();
        run(&opts, &mut buf).unwrap();
        let s = String::from_utf8(buf).unwrap();
        assert!(s.contains("ruleset"));
        assert!(s.contains(" - "));
    }

    #[test]
    fn synthesize_command_round_trips() {
        let opts = cli("spmv synthesize --iterations 80 --seed 3");
        let mut buf = Vec::new();
        run(&opts, &mut buf).unwrap();
        let s = String::from_utf8(buf).unwrap();
        assert!(s.contains("synthesized implementation"), "{s}");
    }

    #[test]
    fn report_and_telemetry_flags_write_artifacts() {
        let dir = std::env::temp_dir();
        let report = dir.join(format!("dr-rules-report-{}.json", std::process::id()));
        let telem = dir.join(format!("dr-rules-telem-{}.csv", std::process::id()));
        let iterations = 40;
        let opts = cli(&format!(
            "spmv explore --iterations {iterations} --seed 2 --report {} --telemetry {}",
            report.display(),
            telem.display()
        ));
        let mut buf = Vec::new();
        run(&opts, &mut buf).unwrap();
        let s = String::from_utf8(buf).unwrap();
        assert!(s.contains("wrote run report"), "{s}");

        // The report is one syntactically valid JSON object with the
        // expected top-level sections.
        let json = std::fs::read_to_string(&report).unwrap();
        crate::obs::json::validate(&json).unwrap();
        for key in ["\"phases\"", "\"sim\"", "\"search\"", "\"mining\""] {
            assert!(json.contains(key), "report missing {key}: {json}");
        }

        // The telemetry CSV has exactly one row per search iteration.
        let csv = std::fs::read_to_string(&telem).unwrap();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(
            lines.len(),
            iterations + 1,
            "header + one row per iteration"
        );
        assert!(lines[0].starts_with("iteration,unique_traversals,"));

        std::fs::remove_file(&report).ok();
        std::fs::remove_file(&telem).ok();
    }

    #[test]
    fn parse_accepts_artifact_paths() {
        let o = parse(&argv("spmv explore --report r.json --telemetry t.csv")).unwrap();
        assert_eq!(o.report.as_deref(), Some("r.json"));
        assert_eq!(o.telemetry.as_deref(), Some("t.csv"));
        assert!(parse(&argv("spmv explore --report")).is_err());
        assert!(parse(&argv("spmv explore --telemetry")).is_err());
    }

    #[test]
    fn parse_accepts_lint_command_and_cap() {
        let o = parse(&argv("spmv lint")).unwrap();
        assert_eq!(o.command, Command::Lint);
        assert_eq!(o.max_schedules, 2048);
        let o = parse(&argv("halo lint --max-schedules 16")).unwrap();
        assert_eq!(o.max_schedules, 16);
        assert!(parse(&argv("spmv lint --max-schedules")).is_err());
        assert!(parse(&argv("spmv lint --max-schedules lots")).is_err());
    }

    #[test]
    fn lint_command_verifies_the_whole_spmv_space() {
        // The full small-SpMV space has 1600 traversals; every schedule
        // `build_schedule` emits must verify clean of errors.
        let opts = cli("spmv lint --max-schedules 0");
        let mut buf = Vec::new();
        run(&opts, &mut buf).unwrap();
        let s = String::from_utf8(buf).unwrap();
        assert!(s.contains("schedules 1600: 0 errors"), "{s}");
        assert!(!s.contains("note: stopped"));
    }

    #[test]
    fn lint_command_honors_cap_and_writes_counters() {
        let dir = std::env::temp_dir();
        let report = dir.join(format!("dr-rules-lint-{}.json", std::process::id()));
        let opts = cli(&format!(
            "spmv lint --max-schedules 5 --report {}",
            report.display()
        ));
        let mut buf = Vec::new();
        run(&opts, &mut buf).unwrap();
        let s = String::from_utf8(buf).unwrap();
        assert!(s.contains("schedules 5: 0 errors"), "{s}");
        assert!(s.contains("note: stopped after 5 schedules"), "{s}");
        let json = std::fs::read_to_string(&report).unwrap();
        crate::obs::json::validate(&json).unwrap();
        assert!(json.contains("\"schedules\":5"), "{json}");
        std::fs::remove_file(&report).ok();
    }

    #[test]
    fn lint_command_streams_lint_events() {
        let dir = std::env::temp_dir();
        let events = dir.join(format!(
            "dr-rules-lint-events-{}.ndjson",
            std::process::id()
        ));
        let opts = cli(&format!(
            "spmv lint --max-schedules 8 --events {}",
            events.display()
        ));
        let mut buf = Vec::new();
        run(&opts, &mut buf).unwrap();
        let s = String::from_utf8(buf).unwrap();
        assert!(s.contains("incremental:"), "{s}");
        let text = std::fs::read_to_string(&events).unwrap();
        assert!(
            text.lines().any(|l| l.contains("\"kind\":\"lint-start\"")),
            "{text}"
        );
        assert!(
            text.lines().any(|l| l.contains("\"kind\":\"lint-end\"")),
            "{text}"
        );
        std::fs::remove_file(&events).ok();
    }

    #[test]
    fn parse_accepts_verify_rules_command() {
        let o = parse(&argv("spmv verify-rules")).unwrap();
        assert_eq!(o.command, Command::VerifyRules);
        assert_eq!(o.max_schedules, 2048);
        let o = parse(&argv("halo verify-rules --iterations 10 --max-schedules 0")).unwrap();
        assert_eq!(o.command, Command::VerifyRules);
        assert_eq!(o.max_schedules, 0);
        assert_eq!(o.iterations, 10);
    }

    #[test]
    fn verify_rules_command_certifies_spmv_and_writes_report() {
        let dir = std::env::temp_dir();
        let report = dir.join(format!("dr-rules-certify-{}.json", std::process::id()));
        let opts = cli(&format!(
            "spmv verify-rules --iterations 60 --seed 2 --max-schedules 0 --report {}",
            report.display()
        ));
        let mut buf = Vec::new();
        run(&opts, &mut buf).unwrap();
        let s = String::from_utf8(buf).unwrap();
        // The whole small-SpMV space lints clean, so every satisfying
        // subset certifies.
        assert!(s.contains("all fastest-class rulesets certified"), "{s}");
        assert!(s.contains("certified —"), "{s}");
        let json = std::fs::read_to_string(&report).unwrap();
        crate::obs::json::validate(&json).unwrap();
        assert!(json.contains("\"schema\":\"dr-certify/v1\""), "{json}");
        assert!(json.contains("\"all_fast_certified\":true"), "{json}");
        assert!(json.contains("\"predicates\":["), "{json}");
        std::fs::remove_file(&report).ok();
    }

    #[test]
    fn parse_accepts_chaos_command_and_plans() {
        let o = parse(&argv("spmv chaos")).unwrap();
        assert_eq!(o.command, Command::Chaos);
        assert_eq!(o.plans, 24);
        let o = parse(&argv("halo chaos --plans 21")).unwrap();
        assert_eq!(o.plans, 21);
        assert!(parse(&argv("spmv chaos --plans")).is_err());
        assert!(parse(&argv("spmv chaos --plans 1")).is_err());
        assert!(parse(&argv("spmv chaos --plans lots")).is_err());
    }

    #[test]
    fn chaos_command_sweeps_plans_and_cross_checks_the_oracle() {
        let dir = std::env::temp_dir();
        let report = dir.join(format!("dr-rules-chaos-{}.json", std::process::id()));
        let opts = cli(&format!(
            "spmv chaos --iterations 12 --plans 21 --seed 2 --threads 2 --report {}",
            report.display()
        ));
        let mut buf = Vec::new();
        run(&opts, &mut buf).unwrap();
        let s = String::from_utf8(buf).unwrap();
        assert!(s.contains("plan  0 [clean]"), "{s}");
        assert!(s.contains("bit-for-bit replay: ok"), "{s}");
        assert!(s.contains("plan  1 [light"), "{s}");
        assert!(s.contains("plan  2 [heavy"), "{s}");
        assert!(s.contains("oracle: 16/16 drop plans agree"), "{s}");
        assert!(s.contains("sweep: 21 plans, 0 failed"), "{s}");

        let json = std::fs::read_to_string(&report).unwrap();
        crate::obs::json::validate(&json).unwrap();
        assert!(json.contains("\"plans\":21"), "{json}");
        assert!(json.contains("\"clean_replay_identical\":true"), "{json}");
        assert!(json.contains("\"agreed\":16"), "{json}");
        std::fs::remove_file(&report).ok();
    }

    #[test]
    fn parse_accepts_trace_ledger_and_compare_grammar() {
        let o = parse(&argv("spmv explore --trace out.json --ledger runs")).unwrap();
        assert_eq!(o.trace.as_deref(), Some("out.json"));
        assert_eq!(o.ledger.as_deref(), Some("runs"));
        // Omitting the command defaults to explore, so the acceptance
        // invocation `dr-rules spmv --trace out.json` parses.
        let o = parse(&argv("spmv --trace out.json")).unwrap();
        assert_eq!(o.command, Command::Explore);
        assert_eq!(o.trace.as_deref(), Some("out.json"));
        let o = parse(&argv(
            "spmv compare a b --threshold 2 --abs-floor-ms 1 --noise-k 4",
        ))
        .unwrap();
        assert_eq!(o.command, Command::Compare);
        assert_eq!(o.compare, Some(("a".into(), "b".into())));
        assert_eq!(o.threshold, 2.0);
        assert_eq!(o.abs_floor_ms, 1.0);
        assert_eq!(o.noise_k, 4.0);
        assert!(parse(&argv("spmv compare")).is_err());
        assert!(parse(&argv("spmv compare a")).is_err());
        assert!(parse(&argv("spmv compare --threshold 2")).is_err());
        // Non-finite or negative gate knobs would disable the gate.
        for flag in ["--threshold", "--abs-floor-ms", "--noise-k"] {
            for bad in ["nan", "inf", "-inf", "-1", "x"] {
                let err = parse(&argv(&format!("spmv compare a b {flag} {bad}"))).unwrap_err();
                assert!(err.contains(flag), "{flag} {bad}: {err}");
            }
            assert!(parse(&argv(&format!("spmv compare a b {flag} 0"))).is_ok());
        }
        assert!(parse(&argv("spmv explore --trace")).is_err());
        assert!(parse(&argv("spmv explore --ledger")).is_err());
    }

    #[test]
    fn trace_flag_writes_a_merged_perfetto_json() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("dr-rules-trace-{}.json", std::process::id()));
        let opts = cli(&format!(
            "spmv explore --iterations 30 --seed 2 --threads 2 --trace {}",
            path.display()
        ));
        let mut buf = Vec::new();
        run(&opts, &mut buf).unwrap();
        let s = String::from_utf8(buf).unwrap();
        assert!(s.contains("wrote merged trace"), "{s}");

        let json = std::fs::read_to_string(&path).unwrap();
        crate::obs::json::validate(&json).unwrap();
        // Pipeline span rows sit alongside the simulated implementation's
        // rank/stream rows (separate process ids).
        assert!(json.contains("\"dr pipeline\""), "{json}");
        assert!(json.contains("\"pipeline\""), "{json}");
        assert!(json.contains("\"explore\""), "{json}");
        assert!(json.contains("\"rank 0\""), "pipeline-only trace? {s}");
        assert!(json.contains("\"stream0\""), "pipeline-only trace? {s}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn report_includes_provenance() {
        let dir = std::env::temp_dir();
        let report = dir.join(format!("dr-rules-prov-{}.json", std::process::id()));
        let opts = cli(&format!(
            "spmv explore --iterations 30 --seed 2 --report {}",
            report.display()
        ));
        let mut buf = Vec::new();
        run(&opts, &mut buf).unwrap();
        let json = std::fs::read_to_string(&report).unwrap();
        let v = crate::obs::json::parse(&json).unwrap();
        assert!(v
            .path(&["provenance", "run_id"])
            .and_then(|r| r.as_str())
            .is_some());
        assert!(v
            .path(&["provenance", "git"])
            .and_then(|g| g.as_str())
            .is_some());
        std::fs::remove_file(&report).ok();
    }

    #[test]
    fn compare_command_passes_identical_runs_and_fails_forged_regression() {
        let base = std::env::temp_dir().join(format!("dr-rules-cmp-{}", std::process::id()));
        let (la, lb, lc) = (base.join("a"), base.join("b"), base.join("c"));
        let _ = std::fs::remove_dir_all(&base);
        for ledger in [&la, &lb] {
            let opts = cli(&format!(
                "spmv explore --iterations 30 --seed 2 --ledger {}",
                ledger.display()
            ));
            let mut buf = Vec::new();
            run(&opts, &mut buf).unwrap();
            assert!(String::from_utf8(buf).unwrap().contains("appended ledger"));
        }

        // Same seed, same config: identical records, no regression.
        let opts = cli(&format!("spmv compare {} {}", la.display(), lb.display()));
        let mut buf = Vec::new();
        run(&opts, &mut buf).unwrap();
        let s = String::from_utf8(buf).unwrap();
        assert!(s.contains("verdict: OK"), "{s}");

        // Forge a copy of ledger B whose explore phase blew up 100x:
        // compare must exit nonzero.
        let line = std::fs::read_to_string(la.join(super::super::pipeline::LEDGER_FILE)).unwrap();
        let v = crate::obs::json::parse(&line).unwrap();
        let explore = v
            .path(&["phases", "explore"])
            .and_then(|p| p.as_f64())
            .unwrap();
        let forged = line.replace(
            &format!("\"explore\":{}", crate::obs::json::number(explore)),
            &format!(
                "\"explore\":{}",
                crate::obs::json::number(explore * 100.0 + 10.0)
            ),
        );
        assert_ne!(forged, line, "forgery must change the entry");
        std::fs::create_dir_all(&lc).unwrap();
        std::fs::write(lc.join(super::super::pipeline::LEDGER_FILE), forged).unwrap();
        let opts = cli(&format!("spmv compare {} {}", la.display(), lc.display()));
        let mut buf = Vec::new();
        let err = run(&opts, &mut buf).unwrap_err();
        assert!(err.contains("regression"), "{err}");
        let s = String::from_utf8(buf).unwrap();
        assert!(s.contains("REGRESSION"), "{s}");
        let _ = std::fs::remove_dir_all(&base);
    }

    #[test]
    fn timeline_command_draws_gantt_rows() {
        let opts = cli("spmv timeline --iterations 30 --seed 4");
        let mut buf = Vec::new();
        run(&opts, &mut buf).unwrap();
        let s = String::from_utf8(buf).unwrap();
        assert!(s.contains("fastest"));
        assert!(s.contains("cpu |"));
        assert!(s.contains("stream0 |"));
    }
}
