//! In-process half of the `dr-rules` benchmark (`perfbench/run.py` is the
//! runner). Each mode prints one JSON object on stdout:
//!
//! * `trace`: the traced per-layer run. It repeats what the runner's
//!   untraced commands did for one seed — a cold explore→rules run into a
//!   fresh store, a warm rerun over it, a bare-simulator explore, a merge
//!   of the runner's swarm directory and a space lint — with a span
//!   around each call into a layer, and reports self times and counts
//!   per layer plus the record fingerprints the runner checks.
//! * `accuracy`: the paper's Fig. 7 check, untraced: rules mined from a
//!   [`SUBSET`]-budget run, scored against the records of the main run
//!   (read back from its store) that the small run did not measure.
//! * `setup`: scenario construction plus `ResultStore::open`, repeated
//!   [`SETUP_REPS`] times.
//! * `spawn`: run one `dr-rules` command and report its wall time and
//!   peak RSS (see `spawn.rs`).
//!
//! Usage:
//!   perfbench-probe trace --scenario spmv|halo --seed N --iterations N
//!       --work DIR --lint-cap N --swarm DIR --spans-out FILE
//!   perfbench-probe accuracy --scenario S --seed N --store DIR
//!   perfbench-probe setup --scenario S --seed N --store DIR
//!   perfbench-probe spawn REPORT.json PROGRAM [ARGS...]

mod spans;
mod spawn;
mod stack;

use cuda_mpi_design_rules::dag::{DecisionSpace, Traversal};
use cuda_mpi_design_rules::halo::HaloScenario;
use cuda_mpi_design_rules::mcts::{Mcts, MctsConfig, SimEvaluator};
use cuda_mpi_design_rules::obs::json::number;
use cuda_mpi_design_rules::pipeline::{
    labeling_accuracy, lint_space, merge_shards, records_fingerprint, run_pipeline,
    topology_from_workload, PipelineConfig, Strategy,
};
use cuda_mpi_design_rules::sim::{Platform, Workload};
use cuda_mpi_design_rules::spmv::SpmvScenario;
use cuda_mpi_design_rules::store::ResultStore;
use cuda_mpi_design_rules::trace::{Lane, Tracer};
use spans::{quantile, span, LaneTimes};
use stack::traced_pipeline;
use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use std::path::PathBuf;
use std::time::Instant;

/// MCTS budget of the small run whose rules the accuracy check scores.
const SUBSET: usize = 400;
/// Repetitions of the timed set-up per `setup` call.
const SETUP_REPS: usize = 5;

/// Parsed `--key value` options of one mode.
struct Args(HashMap<String, String>);

impl Args {
    fn parse(raw: &[String]) -> Result<Args, String> {
        let mut map = HashMap::new();
        let mut it = raw.iter();
        while let Some(flag) = it.next() {
            let key = flag
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument {flag:?}"))?;
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            map.insert(key.to_string(), value.clone());
        }
        Ok(Args(map))
    }

    fn str(&self, key: &str) -> Result<&str, String> {
        self.0
            .get(key)
            .map(String::as_str)
            .ok_or_else(|| format!("missing --{key}"))
    }

    fn num<T: std::str::FromStr>(&self, key: &str) -> Result<T, String> {
        let v = self.str(key)?;
        v.parse().map_err(|_| format!("bad --{key} value {v:?}"))
    }

    fn path(&self, key: &str) -> Result<PathBuf, String> {
        self.str(key).map(PathBuf::from)
    }
}

/// A built-in scenario, built exactly as `dr-rules` builds it.
enum Scenario {
    Spmv(SpmvScenario),
    Halo(HaloScenario),
}

impl Scenario {
    fn build(name: &str, seed: u64) -> Result<Scenario, String> {
        match name {
            "spmv" => Ok(Scenario::Spmv(SpmvScenario::small(seed))),
            "halo" => Ok(Scenario::Halo(HaloScenario::cube2(seed))),
            other => Err(format!("unknown scenario {other:?} (spmv | halo)")),
        }
    }
}

fn hex(fp: u64) -> String {
    format!("\"{fp:016x}\"")
}

fn mcts(iterations: usize, seed: u64) -> Strategy {
    Strategy::Mcts {
        iterations,
        config: MctsConfig {
            seed,
            ..Default::default()
        },
    }
}

fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// One traced round; see the crate docs.
fn trace<W: Workload + Sync>(
    name: &str,
    space: &DecisionSpace,
    workload: &W,
    platform: &Platform,
    tracer: &Tracer,
    setup: &RefCell<Lane>,
    args: &Args,
) -> Result<String, String> {
    let seed: u64 = args.num("seed")?;
    let iterations: usize = args.num("iterations")?;
    let lint_cap: usize = args.num("lint-cap")?;
    let work = args.path("work")?;
    let swarm_dir = args.path("swarm")?;
    let spans_out = args.path("spans-out")?;
    let store_dir = work.join("store");
    if store_dir.exists() {
        return Err(format!("{} must not exist yet", store_dir.display()));
    }
    let open = |lane: &RefCell<Lane>| {
        span(lane, "store.open", || ResultStore::open(&store_dir))
            .map_err(|e| format!("cannot open store {}: {e}", store_dir.display()))
    };

    // Cold: every evaluation simulates and appends.
    let cold_lane = RefCell::new(tracer.lane("cold"));
    let cold_store = open(setup)?;
    let cold = traced_pipeline(
        &cold_lane,
        space,
        workload,
        platform,
        Some(&cold_store),
        iterations,
        seed,
    )?;
    drop(cold_store);
    let segment_bytes = std::fs::read_dir(&store_dir)
        .map_err(|e| format!("cannot list {}: {e}", store_dir.display()))?
        .filter_map(|e| e.ok()?.metadata().ok())
        .map(|m| m.len())
        .sum::<u64>();

    // Warm: a fresh handle answers every evaluation from disk.
    let warm_lane = RefCell::new(tracer.lane("warm"));
    let warm_store = open(&warm_lane)?;
    let warm = traced_pipeline(
        &warm_lane,
        space,
        workload,
        platform,
        Some(&warm_store),
        iterations,
        seed,
    )?;
    let warm_stats = warm_store.stats();

    // Bare: the simulator alone, untraced, over the same search.
    let sw = Instant::now();
    let mut bare = Mcts::new(
        space,
        SimEvaluator::new(space, workload, platform, PipelineConfig::quick().bench),
        MctsConfig {
            seed,
            ..Default::default()
        },
    );
    bare.run(iterations)
        .map_err(|e| format!("bare explore failed: {e}"))?;
    let bare_s = sw.elapsed().as_secs_f64();
    let (bare_records, _, _) = bare.into_parts();

    let other_lane = RefCell::new(tracer.lane("other"));
    let merged = span(&other_lane, "core.merge", || {
        merge_shards(&swarm_dir, name, space, mcts(iterations, seed))
    })?;
    let lint = span(&other_lane, "lint.space", || {
        let topo = topology_from_workload(space, workload, platform);
        lint_space(space, Some(&topo), lint_cap)
    });

    std::fs::write(&spans_out, tracer.to_chrome_json(1, "perfbench-probe"))
        .map_err(|e| format!("cannot write {}: {e}", spans_out.display()))?;

    let snap = tracer.snapshot();
    let setup = LaneTimes::of(&snap, setup.borrow().index());
    let cold_t = LaneTimes::of(&snap, cold_lane.borrow().index());
    let warm_t = LaneTimes::of(&snap, warm_lane.borrow().index());
    let other = LaneTimes::of(&snap, other_lane.borrow().index());
    let self_of = |n: &str| cold_t.self_time(n);
    let total = cold_t.total("pipeline");
    // The benchmark's own glue: time inside the pipeline and evaluation
    // spans that no layer span covers.
    let glue = self_of("pipeline") + self_of("core.eval");
    let evals_us: Vec<f64> = cold_t
        .durations("core.eval")
        .iter()
        .map(|d| d * 1e6)
        .collect();
    let records = cold.result.records.len();
    let lookups = warm_t.count("store.lookup");
    let layers: Vec<(&str, f64)> = vec![
        ("scenario.build_s", setup.total("scenario.build")),
        ("dag.build_schedule_s", self_of("dag.build_schedule")),
        ("sim.compile_s", self_of("sim.compile")),
        ("sim.execute_s", self_of("sim.execute")),
        (
            "sim.runs_per_impl",
            cold.sim.runs as f64 / cold.simulated.max(1) as f64,
        ),
        ("sim.instructions", cold.sim.instructions as f64),
        ("sim.noise_tables", cold.noise_tables as f64),
        ("core.eval_p50_us", quantile(&evals_us, 0.5)),
        ("core.eval_p99_us", quantile(&evals_us, 0.99)),
        ("core.eval_samples", evals_us.len() as f64),
        ("core.merge_s", other.total("core.merge")),
        ("mcts.self_s", self_of("mcts.explore")),
        ("mcts.tree_nodes", cold.tree.nodes as f64),
        (
            "mcts.unique_ratio",
            records as f64 / iterations.max(1) as f64,
        ),
        ("ml.label_s", self_of("ml.label")),
        ("ml.featurize_s", self_of("ml.featurize")),
        ("ml.train_s", self_of("ml.train")),
        ("ml.train_fits", cold.result.search.history.len() as f64),
        ("ml.rules_s", self_of("ml.rules")),
        ("store.open_s", warm_t.total("store.open")),
        ("store.append_s", self_of("store.append")),
        ("store.lookup_s", warm_t.total("store.lookup")),
        (
            "store.hit_ratio",
            warm_stats.hits as f64 / lookups.max(1) as f64,
        ),
        ("store.segment_bytes", segment_bytes as f64),
        ("lint.space_s", other.total("lint.space")),
        ("lint.hb_expansions", lint.stats.hb_expansions as f64),
        (
            "lint.hb_saved_ratio",
            1.0 - lint.stats.hb_expansions as f64 / lint.stats.cold_hb_expansions.max(1) as f64,
        ),
        ("bench.traced_total_s", total),
        ("bench.accounted_ratio", (total - glue) / total),
    ];
    let layers: Vec<String> = layers
        .into_iter()
        .map(|(k, v)| format!("\"{k}\":{}", number(v)))
        .collect();
    Ok(format!(
        concat!(
            "{{\"mode\":\"trace\",\"available_parallelism\":{},\"records\":{},",
            "\"rulesets\":{},\"fingerprint_cold\":{},\"fingerprint_warm\":{},",
            "\"fingerprint_bare\":{},\"fingerprint_merged\":{},\"warm_hits\":{},",
            "\"warm_lookups\":{},\"warm_appended\":{},\"warm_simulated\":{},",
            "\"bare_explore_s\":{},\"layers\":{{{}}}}}"
        ),
        available_parallelism(),
        records,
        cold.result.rulesets.len(),
        hex(records_fingerprint(&cold.result.records)),
        hex(records_fingerprint(&warm.result.records)),
        hex(records_fingerprint(&bare_records)),
        hex(merged.fingerprint),
        warm_stats.hits,
        lookups,
        warm_stats.appended,
        warm.simulated,
        number(bare_s),
        layers.join(",")
    ))
}

/// Fig. 7 accuracy of a [`SUBSET`]-budget run's rules against the records
/// of the main run, read back from its store. Records the small run
/// measured itself are left out, so the figure is never accuracy on the
/// rules' own training data.
fn accuracy<W: Workload + Sync>(
    space: &DecisionSpace,
    workload: &W,
    platform: &Platform,
    args: &Args,
) -> Result<String, String> {
    let seed: u64 = args.num("seed")?;
    let dir = args.path("store")?;
    let store =
        ResultStore::open(&dir).map_err(|e| format!("cannot open {}: {e}", dir.display()))?;
    let result = run_pipeline(
        space,
        workload,
        platform,
        mcts(SUBSET, seed),
        &PipelineConfig::quick(),
    )
    .map_err(|e| format!("subset run failed: {e}"))?;
    let seen: HashSet<&Traversal> = result.records.iter().map(|r| &r.traversal).collect();
    let truth: Vec<(Traversal, f64)> = store
        .records_in_order()
        .into_iter()
        .filter(|(_, r)| !seen.contains(&r.traversal))
        .map(|(_, r)| (r.traversal, r.result.time()))
        .collect();
    if truth.is_empty() {
        return Err(format!(
            "store {} holds no record the subset run did not measure",
            dir.display()
        ));
    }
    let report = labeling_accuracy(space, &result, &truth, 0.0);
    Ok(format!(
        concat!(
            "{{\"mode\":\"accuracy\",\"accuracy\":{},\"within\":{},\"total\":{},",
            "\"store_fingerprint\":{},\"subset_fingerprint\":{},\"subset_rulesets\":{}}}"
        ),
        number(report.accuracy()),
        report.within_range,
        report.total,
        hex(store.fingerprint()),
        hex(records_fingerprint(&result.records)),
        result.rulesets.len()
    ))
}

/// Scenario construction plus opening the store, [`SETUP_REPS`] times.
fn setup(args: &Args) -> Result<String, String> {
    let name = args.str("scenario")?;
    let seed: u64 = args.num("seed")?;
    let dir = args.path("store")?;
    let mut samples = Vec::with_capacity(SETUP_REPS);
    for _ in 0..SETUP_REPS {
        let sw = Instant::now();
        let sc = Scenario::build(name, seed)?;
        let store =
            ResultStore::open(&dir).map_err(|e| format!("cannot open {}: {e}", dir.display()))?;
        samples.push(sw.elapsed().as_secs_f64());
        std::hint::black_box((&sc, store.len()));
    }
    let samples: Vec<String> = samples.into_iter().map(number).collect();
    Ok(format!(
        "{{\"mode\":\"setup\",\"available_parallelism\":{},\"samples\":[{}]}}",
        available_parallelism(),
        samples.join(",")
    ))
}

fn run(argv: &[String]) -> Result<String, String> {
    let (mode, rest) = argv
        .split_first()
        .ok_or("missing mode: trace | accuracy | setup")?;
    let args = Args::parse(rest)?;
    if mode == "setup" {
        return setup(&args);
    }
    let name = args.str("scenario")?;
    let seed: u64 = args.num("seed")?;
    let tracer = Tracer::new();
    let setup_lane = RefCell::new(tracer.lane("setup"));
    let sc = span(&setup_lane, "scenario.build", || {
        Scenario::build(name, seed)
    })?;
    match (mode.as_str(), &sc) {
        ("trace", Scenario::Spmv(s)) => trace(
            name,
            &s.space,
            &s.workload,
            &s.platform,
            &tracer,
            &setup_lane,
            &args,
        ),
        ("trace", Scenario::Halo(s)) => trace(
            name,
            &s.space,
            &s.workload,
            &s.platform,
            &tracer,
            &setup_lane,
            &args,
        ),
        ("accuracy", Scenario::Spmv(s)) => accuracy(&s.space, &s.workload, &s.platform, &args),
        ("accuracy", Scenario::Halo(s)) => accuracy(&s.space, &s.workload, &s.platform, &args),
        (other, _) => Err(format!("unknown mode {other:?}: trace | accuracy | setup")),
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if let [mode, report, command @ ..] = argv.as_slice() {
        if mode == "spawn" {
            match spawn::spawn(report, command) {
                Ok(code) => std::process::exit(code),
                Err(e) => {
                    eprintln!("perfbench-probe: {e}");
                    std::process::exit(2);
                }
            }
        }
    }
    match run(&argv) {
        Ok(json) => println!("{json}"),
        Err(e) => {
            eprintln!("perfbench-probe: {e}");
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cuda_mpi_design_rules::pipeline::run_pipeline_instrumented;

    fn untraced<W: Workload + Sync>(
        sc: (&DecisionSpace, &W, &Platform),
        n: usize,
        seed: u64,
    ) -> u64 {
        let (space, w, platform) = sc;
        let run =
            run_pipeline_instrumented(space, w, platform, mcts(n, seed), &PipelineConfig::quick())
                .expect("untraced pipeline runs");
        records_fingerprint(&run.result.records)
    }

    fn traced<W: Workload + Sync>(
        sc: (&DecisionSpace, &W, &Platform),
        n: usize,
        seed: u64,
        store: Option<&ResultStore>,
    ) -> u64 {
        let (space, w, platform) = sc;
        let tracer = Tracer::new();
        let lane = RefCell::new(tracer.lane("traced"));
        let run = traced_pipeline(&lane, space, w, platform, store, n, seed)
            .expect("traced pipeline runs");
        let snap = tracer.snapshot();
        let times = LaneTimes::of(&snap, lane.borrow().index());
        assert_eq!(times.count("core.eval"), run.result.records.len());
        records_fingerprint(&run.result.records)
    }

    #[test]
    fn the_seed_reaches_the_spmv_inputs() {
        let a = SpmvScenario::small(1);
        let b = SpmvScenario::small(2);
        assert_ne!(
            untraced((&a.space, &a.workload, &a.platform), 64, 1),
            untraced((&b.space, &b.workload, &b.platform), 64, 1)
        );
    }

    #[test]
    fn traced_runs_match_untraced_runs() {
        let s = SpmvScenario::small(3);
        let spmv = (&s.space, &s.workload, &s.platform);
        assert_eq!(traced(spmv, 200, 3, None), untraced(spmv, 200, 3));
        let h = HaloScenario::cube2(3);
        let halo = (&h.space, &h.workload, &h.platform);
        assert_eq!(traced(halo, 60, 3, None), untraced(halo, 60, 3));
    }

    #[test]
    fn stored_traced_runs_match_cold_and_warm() {
        let dir = std::env::temp_dir().join(format!("perfbench-probe-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let s = SpmvScenario::small(4);
        let spmv = (&s.space, &s.workload, &s.platform);
        let plain = untraced(spmv, 120, 4);
        let cold = ResultStore::open(&dir).expect("store opens");
        assert_eq!(traced(spmv, 120, 4, Some(&cold)), plain);
        assert_eq!(cold.fingerprint(), plain, "log order is record order");
        drop(cold);
        let warm = ResultStore::open(&dir).expect("store reopens");
        assert_eq!(traced(spmv, 120, 4, Some(&warm)), plain);
        assert_eq!(warm.stats().appended, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
