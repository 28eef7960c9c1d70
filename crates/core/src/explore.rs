//! Exploration strategies: how the `(sequence, time)` sample set is
//! collected before rule mining.
//!
//! There is one serial reference backend ([`explore_instrumented`]) and
//! one parallel engine ([`explore_parallel`]). Everything that varies
//! between parallel runs — worker threads, tracing, the event stream
//! and its sampling rate, and what a failed evaluation does
//! ([`FailurePolicy`]) — travels in one [`ExploreCtx`].
//! The engine is built so that the *record set* — which traversals were
//! measured, and what each measurement returned — is a pure function of
//! the strategy and its seed, independent of the thread count and of
//! observation. The enabling invariant is that each evaluation is seeded
//! by [`dr_dag::eval_seed`], a function of the traversal being measured
//! rather than of when, where, or by which worker it is discovered.

use dr_dag::{eval_seed, DecisionSpace, Traversal};
use dr_mcts::{
    Evaluator, ExploredRecord, Mcts, MctsConfig, SearchTelemetry, TelemetryRow, TreeStats,
};
use dr_obs::events::EventSink;
use dr_par::{
    panic_text, par_map_stream, worker_end, worker_start, CacheStats, FailurePolicy, ItemOutcome,
    PoolConfig,
};
use dr_sim::{BenchResult, SimError, SimStats};
use dr_trace::{Lane, SpanId, Tracer};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Master seed of the exhaustive strategy's evaluation seeds (the
/// strategy has no user-facing seed of its own). Shared with the shard
/// runner so a shard's measurements are bit-identical to the unsharded
/// run's.
pub(crate) const EXHAUSTIVE_MASTER_SEED: u64 = 0xE0E0_0000;

/// Default event-stream sampling rate ([`ExploreCtx::events_rate`]).
pub(crate) const DEFAULT_EVENTS_RATE: usize = 16;

/// How to collect the sample set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Strategy {
    /// Benchmark every traversal of the space (feasible only for small
    /// DAGs; this is the paper's canonical 2036-implementation dataset).
    Exhaustive,
    /// Monte-Carlo tree search with the given iteration budget
    /// (paper Section III-C).
    Mcts {
        /// Number of search iterations (rollouts).
        iterations: usize,
        /// Search hyperparameters.
        config: MctsConfig,
    },
    /// Uniform random sampling with the given rollout budget (the
    /// baseline the paper's future work calls for).
    Random {
        /// Number of rollouts.
        iterations: usize,
        /// Sampling seed.
        seed: u64,
    },
}

impl Strategy {
    /// The strategy's short name, used in reports.
    pub fn name(&self) -> &'static str {
        match self {
            Strategy::Exhaustive => "exhaustive",
            Strategy::Mcts { .. } => "mcts",
            Strategy::Random { .. } => "random",
        }
    }
}

/// Collects explored records under a strategy.
pub fn explore<E: Evaluator>(
    space: &DecisionSpace,
    eval: E,
    strategy: Strategy,
) -> Result<Vec<ExploredRecord>, SimError> {
    explore_instrumented(space, eval, strategy).map(|(records, _, _)| records)
}

/// Like [`explore`], additionally returning the per-iteration
/// [`SearchTelemetry`] and the evaluator's accumulated [`SimStats`]
/// (`None` for evaluators that do not run the simulator).
pub fn explore_instrumented<E: Evaluator>(
    space: &DecisionSpace,
    mut eval: E,
    strategy: Strategy,
) -> Result<(Vec<ExploredRecord>, SearchTelemetry, Option<SimStats>), SimError> {
    match strategy {
        Strategy::Exhaustive => {
            let mut pairs = Vec::new();
            for t in space.enumerate() {
                let result = eval.evaluate(&t, eval_seed(EXHAUSTIVE_MASTER_SEED, &t))?;
                pairs.push((t, result));
            }
            let (records, telemetry) = exhaustive_records(pairs);
            let stats = eval.sim_stats().cloned();
            Ok((records, telemetry, stats))
        }
        Strategy::Mcts { iterations, config } => {
            let mut mcts = Mcts::new(space, eval, config);
            mcts.run(iterations)?;
            let (records, telemetry, eval) = mcts.into_parts();
            Ok((records, telemetry, eval.sim_stats().cloned()))
        }
        Strategy::Random { iterations, seed } => {
            let (records, telemetry) = dr_mcts::random_search_telemetry(
                space,
                |t: &Traversal, s: u64| eval.evaluate(t, s),
                iterations,
                seed,
            )?;
            let stats = eval.sim_stats().cloned();
            Ok((records, telemetry, stats))
        }
    }
}

/// Everything one (possibly parallel) exploration run produced.
#[derive(Debug, Clone)]
pub struct ExploreOutput {
    /// Distinct explored implementations with their measurements.
    pub records: Vec<ExploredRecord>,
    /// One row per search iteration (for `Exhaustive`, one per record).
    pub telemetry: SearchTelemetry,
    /// Simulator statistics merged across workers (`None` when the
    /// evaluators do not run the simulator). The `u64` counters equal
    /// the serial run's exactly; floating-point aggregates may differ
    /// in the last bits because summation order differs.
    pub sim: Option<SimStats>,
    /// Repeat accounting of the MCTS tree: `hits` are rollouts
    /// that landed on an already-measured traversal, `misses` the
    /// distinct traversals measured (all zero for the other strategies).
    pub cache: CacheStats,
    /// Number of worker threads actually used.
    pub threads: usize,
    /// Traversals quarantined under [`FailurePolicy::Quarantine`] by the
    /// `Exhaustive` and `Random` strategies, with the error that killed
    /// them, in input order (MCTS reports counts only, via
    /// [`ExploreOutput::quarantined`]).
    pub failures: Vec<(Traversal, SimError)>,
    /// Total traversals dropped instead of measured (≥ `failures.len()`;
    /// the difference is MCTS-internal quarantines).
    pub quarantined: u64,
    /// Final search-tree statistics (`None` for non-MCTS strategies).
    pub tree: Option<TreeStats>,
    /// Whether the run provably covered the whole space: always `true`
    /// for `Exhaustive`, `true` for MCTS iff the tree exhausted, always
    /// `false` for `Random`.
    pub exhausted: bool,
}

/// Everything a parallel exploration run needs besides the space, the
/// evaluators, and the strategy.
#[derive(Clone)]
pub struct ExploreCtx {
    /// Worker threads (`0` is treated as `1`).
    pub threads: usize,
    /// Causal tracing: worker and chunk spans on the pool paths, sampled
    /// per-iteration spans on the MCTS paths (at `events_rate`). A
    /// disabled tracer makes every span call a no-op.
    pub tracer: Tracer,
    /// The caller's span (usually the pipeline's explore phase) every
    /// worker and search lane `follows_from`.
    pub dispatch: Option<SpanId>,
    /// Live event stream: sampled `mcts-iter` events and
    /// `worker-start` / `worker-end` lifecycle events. `None` or a
    /// disabled sink emits nothing.
    pub events: Option<EventSink>,
    /// Iteration sampling: one `mcts-iter` event and span every
    /// `events_rate` iterations (minimum 1). Sampling bounds the stream's
    /// and the trace's overhead on long runs without losing the shape of
    /// the search.
    pub events_rate: usize,
    /// What a failed evaluation does. Under [`FailurePolicy::Abort`] the
    /// run returns the first failure's error. Under
    /// [`FailurePolicy::Quarantine`] failed traversals are dropped and
    /// reported in [`ExploreOutput::failures`] /
    /// [`ExploreOutput::quarantined`]; for MCTS this tolerates up to the
    /// whole budget unless [`MctsConfig::max_failures`] is already set.
    pub policy: FailurePolicy,
}

impl ExploreCtx {
    /// A silent, aborting context at `threads` workers.
    pub fn new(threads: usize) -> Self {
        ExploreCtx {
            threads,
            tracer: Tracer::disabled(),
            dispatch: None,
            events: None,
            events_rate: DEFAULT_EVENTS_RATE,
            policy: FailurePolicy::Abort,
        }
    }

    /// The event sink, when present and enabled.
    fn live_events(&self) -> Option<&EventSink> {
        self.events.as_ref().filter(|s| s.is_enabled())
    }

    /// A sampled iteration-span lane named `name`, opened with a
    /// zero-length `mcts-dispatch` marker span carrying the causal edge
    /// from the dispatch span (`None` when tracing is off).
    fn mcts_lane(&self, name: &str) -> Option<Lane> {
        if !self.tracer.is_enabled() {
            return None;
        }
        let mut lane = self.tracer.lane(name);
        if let Some(d) = self.dispatch {
            lane.enter("mcts-dispatch");
            lane.follows_from(d);
            lane.exit();
        }
        Some(lane)
    }
}

/// The parallel engine: explores `space` under `strategy` with
/// `ctx.threads` workers, each owning an evaluator built by `make_eval`.
///
/// For a fixed strategy/seed the returned record *set* — traversal and
/// measurement pairs — is identical for every thread count and with or
/// without observation (for [`Strategy::Mcts`] this holds whenever the
/// budget exhausts the space; under a partial budget different batch
/// widths may surface different subsets, though every measurement that
/// does appear is still thread-count-invariant).
///
/// * `Exhaustive` streams the lazy enumeration through the chunked
///   worker pool, which restores canonical order, so even the record
///   *order* matches the serial backend bit for bit.
/// * `Random` generates the rollout sequence serially (each iteration's
///   rollout is a pure function of `(seed, iteration)`), deduplicates,
///   and fans out only the expensive evaluations; telemetry keeps one row
///   per iteration under either policy.
/// * `Mcts` runs one tree whose evaluation batches (of up to `threads`
///   rollouts) fan out over `threads` persistent evaluators.
///
/// Every evaluation runs under `catch_unwind`: a panic becomes
/// [`SimError::Panicked`], which `ctx.policy` then aborts on or
/// quarantines like any other failure.
pub fn explore_parallel<E, F>(
    space: &DecisionSpace,
    make_eval: F,
    strategy: Strategy,
    ctx: &ExploreCtx,
) -> Result<ExploreOutput, SimError>
where
    E: Evaluator + Send,
    F: Fn() -> E + Sync,
{
    match strategy {
        Strategy::Exhaustive => exhaustive_parallel(space, &make_eval, ctx),
        Strategy::Random { iterations, seed } => {
            random_parallel(space, &make_eval, iterations, seed, ctx)
        }
        Strategy::Mcts {
            iterations,
            mut config,
        } => {
            if ctx.policy == FailurePolicy::Quarantine && config.max_failures == 0 {
                config.max_failures = iterations;
            }
            mcts_parallel(space, &make_eval, iterations, config, ctx)
        }
    }
}

/// Builds the exhaustive strategy's records and telemetry from
/// `(traversal, result)` pairs in canonical enumeration order — shared
/// by the serial and parallel backends so their outputs are identical by
/// construction.
fn exhaustive_records(
    pairs: Vec<(Traversal, BenchResult)>,
) -> (Vec<ExploredRecord>, SearchTelemetry) {
    let records: Vec<ExploredRecord> = pairs
        .into_iter()
        .map(|(traversal, result)| ExploredRecord { traversal, result })
        .collect();
    let telemetry = records_telemetry(&records);
    (records, telemetry)
}

/// Per-record search telemetry for a record sequence (one iteration per
/// record, running best/worst) — the exhaustive strategy's telemetry
/// shape, also synthesized for merged shard records.
pub fn records_telemetry(records: &[ExploredRecord]) -> SearchTelemetry {
    let mut telemetry = SearchTelemetry::new();
    let mut best = f64::INFINITY;
    let mut worst = f64::NEG_INFINITY;
    for (i, r) in records.iter().enumerate() {
        best = best.min(r.result.time());
        worst = worst.max(r.result.time());
        telemetry.push(TelemetryRow {
            iteration: i as u64 + 1,
            unique_traversals: i + 1,
            best_time: best,
            worst_time: worst,
            tree_nodes: 0,
            max_depth: 0,
            rollout_len: r.traversal.steps.len(),
        });
    }
    telemetry
}

/// The random strategy's rollout sequence, deduplicated: the unique
/// traversals in discovery order, and for each iteration the unique
/// index it first discovered (if any) with its rollout length. Rollout
/// `iter` is a pure function of `(seed, iter)`, so this is cheap to
/// replay without simulating.
pub(crate) fn random_rollouts(
    space: &DecisionSpace,
    iterations: usize,
    seed: u64,
) -> (Vec<Traversal>, Vec<(Option<usize>, usize)>) {
    let mut uniques: Vec<Traversal> = Vec::new();
    let mut by_hash: HashMap<u64, Vec<usize>> = HashMap::new();
    let mut per_iteration = Vec::with_capacity(iterations);
    for iter in 0..iterations {
        let t = dr_mcts::random_rollout(space, seed, iter as u64);
        let rollout_len = t.steps.len();
        let hash = t.canonical_hash();
        let known = by_hash
            .get(&hash)
            .into_iter()
            .flatten()
            .any(|&u| uniques[u] == t);
        if known {
            per_iteration.push((None, rollout_len));
        } else {
            by_hash.entry(hash).or_default().push(uniques.len());
            per_iteration.push((Some(uniques.len()), rollout_len));
            uniques.push(t);
        }
    }
    (uniques, per_iteration)
}

/// Merges the simulator statistics of per-worker evaluators in worker
/// order.
fn merge_worker_stats<E: Evaluator>(states: &[E]) -> Option<SimStats> {
    let mut total: Option<SimStats> = None;
    for e in states {
        if let Some(s) = e.sim_stats() {
            total.get_or_insert_with(SimStats::default).merge(s);
        }
    }
    total
}

/// Each evaluated traversal with its outcome, in input order.
type Evaluated = Vec<(Traversal, Result<BenchResult, SimError>)>;

/// Evaluates `items` (seeded by `eval_seed(master, t)`) on the worker
/// pool under `ctx`. Under [`FailurePolicy::Abort`] the lowest-index
/// failure becomes the error; under [`FailurePolicy::Quarantine`] every
/// item comes back with its outcome. Also returns the workers' merged
/// simulator statistics.
fn pool_evaluate<E, F, I>(
    items: I,
    make_eval: &F,
    master: u64,
    ctx: &ExploreCtx,
) -> Result<(Evaluated, Option<SimStats>), SimError>
where
    E: Evaluator + Send,
    F: Fn() -> E + Sync,
    I: Iterator<Item = Traversal> + Send,
{
    let pool = PoolConfig {
        threads: ctx.threads,
        policy: ctx.policy,
        tracer: &ctx.tracer,
        dispatch: ctx.dispatch,
        events: ctx.live_events(),
    };
    let out = par_map_stream(
        items,
        &pool,
        |_worker| make_eval(),
        |eval, _i, t: &Traversal| eval.evaluate(t, eval_seed(master, t)),
    );
    let sim = merge_worker_stats(&out.states);
    let mut evaluated = Vec::with_capacity(out.items.len());
    for (t, outcome) in out.items {
        let result = match outcome {
            ItemOutcome::Ok(r) => Ok(r),
            ItemOutcome::Failed(e) => Err(e),
            ItemOutcome::Panicked(detail) => Err(SimError::Panicked { detail }),
        };
        match result {
            Err(e) if ctx.policy == FailurePolicy::Abort => return Err(e),
            result => evaluated.push((t, result)),
        }
    }
    Ok((evaluated, sim))
}

fn exhaustive_parallel<E, F>(
    space: &DecisionSpace,
    make_eval: &F,
    ctx: &ExploreCtx,
) -> Result<ExploreOutput, SimError>
where
    E: Evaluator + Send,
    F: Fn() -> E + Sync,
{
    // The lazy enumeration is the shared work queue; each worker owns an
    // evaluator. Seeds depend only on the traversal, and the pool
    // restores input order, so output matches the serial path exactly.
    let (evaluated, sim) =
        pool_evaluate(space.enumerate(), make_eval, EXHAUSTIVE_MASTER_SEED, ctx)?;
    let mut pairs = Vec::with_capacity(evaluated.len());
    let mut failures = Vec::new();
    for (t, result) in evaluated {
        match result {
            Ok(r) => pairs.push((t, r)),
            Err(e) => failures.push((t, e)),
        }
    }
    let (records, telemetry) = exhaustive_records(pairs);
    Ok(ExploreOutput {
        records,
        telemetry,
        sim,
        cache: CacheStats::default(),
        threads: ctx.threads.max(1),
        quarantined: failures.len() as u64,
        failures,
        tree: None,
        exhausted: true,
    })
}

fn random_parallel<E, F>(
    space: &DecisionSpace,
    make_eval: &F,
    iterations: usize,
    seed: u64,
    ctx: &ExploreCtx,
) -> Result<ExploreOutput, SimError>
where
    E: Evaluator + Send,
    F: Fn() -> E + Sync,
{
    // Rollout generation is cheap and strictly deterministic, so it runs
    // serially; only the evaluations (the expensive part) fan out. This
    // produces the very sequence the serial backend would.
    let (uniques, per_iteration) = random_rollouts(space, iterations, seed);
    let (evaluated, sim) = pool_evaluate(uniques.into_iter(), make_eval, seed, ctx)?;
    // For unique u: Some(k) iff it survived as record k.
    let mut record_of: Vec<Option<usize>> = Vec::with_capacity(evaluated.len());
    let mut records: Vec<ExploredRecord> = Vec::with_capacity(evaluated.len());
    let mut failures = Vec::new();
    for (traversal, result) in evaluated {
        match result {
            Ok(result) => {
                record_of.push(Some(records.len()));
                records.push(ExploredRecord { traversal, result });
            }
            Err(e) => {
                record_of.push(None);
                failures.push((traversal, e));
            }
        }
    }
    let mut telemetry = SearchTelemetry::new();
    let mut best = f64::INFINITY;
    let mut worst = f64::NEG_INFINITY;
    let mut count = 0usize;
    for (iter, (first, rollout_len)) in per_iteration.into_iter().enumerate() {
        if let Some(k) = first.and_then(|u| record_of[u]) {
            count = k + 1;
            let time = records[k].result.time();
            best = best.min(time);
            worst = worst.max(time);
        }
        telemetry.push(TelemetryRow {
            iteration: iter as u64 + 1,
            unique_traversals: count,
            best_time: best,
            worst_time: worst,
            tree_nodes: 0,
            max_depth: 0,
            rollout_len,
        });
    }
    Ok(ExploreOutput {
        records,
        telemetry,
        sim,
        cache: CacheStats::default(),
        threads: ctx.threads.max(1),
        quarantined: failures.len() as u64,
        failures,
        tree: None,
        exhausted: false,
    })
}

/// Runs each evaluation under `catch_unwind`, so a panicking evaluation
/// surfaces as [`SimError::Panicked`] — which the search aborts on or
/// quarantines under [`MctsConfig::max_failures`] — instead of unwinding
/// through the search. Counts its evaluations for the `worker-end`
/// event.
struct Contained<E> {
    eval: E,
    items: usize,
}

impl<E: Evaluator> Evaluator for Contained<E> {
    fn evaluate(&mut self, t: &Traversal, seed: u64) -> Result<BenchResult, SimError> {
        self.items += 1;
        catch_unwind(AssertUnwindSafe(|| self.eval.evaluate(t, seed))).unwrap_or_else(|payload| {
            Err(SimError::Panicked {
                detail: panic_text(payload),
            })
        })
    }

    fn sim_stats(&self) -> Option<&SimStats> {
        self.eval.sim_stats()
    }
}

/// MCTS: one tree on the coordinating thread, batch assembly under
/// virtual loss, and a fixed pool of `threads` persistent evaluators
/// that measure each batch's pending traversals in parallel (entry `i`
/// of a batch always runs on evaluator slot `i`, so per-evaluator memo
/// state evolves deterministically).
///
/// Determinism: assembly runs entirely on the coordinator (the worker
/// threads never touch the tree), and every evaluation result is a pure
/// function of its traversal, so the whole run — records, telemetry,
/// tree — is a pure function of `(strategy, config, threads)`. At one
/// thread records come back in discovery order; above, in canonical-hash
/// order (see [`Mcts::into_parts`]).
fn mcts_parallel<E, F>(
    space: &DecisionSpace,
    make_eval: &F,
    iterations: usize,
    config: MctsConfig,
    ctx: &ExploreCtx,
) -> Result<ExploreOutput, SimError>
where
    E: Evaluator + Send,
    F: Fn() -> E + Sync,
{
    let threads = ctx.threads.max(1);
    let events = ctx.live_events();
    let evals = (0..threads)
        .map(|_| Contained {
            eval: make_eval(),
            items: 0,
        })
        .collect();
    for worker in 0..threads {
        worker_start(events, worker);
    }
    let mut mcts = Mcts::batched(space, evals, config);
    mcts.observe(ctx.mcts_lane("mcts-tree"), events.cloned(), ctx.events_rate);
    // Every started worker ends, also when the search fails.
    let run = mcts.run_parallel(iterations);
    for (worker, eval) in mcts.evaluators().iter().enumerate() {
        worker_end(events, worker, eval.items);
    }
    run?;

    let sim = merge_worker_stats(mcts.evaluators());
    let cache = CacheStats {
        hits: mcts.repeats(),
        misses: mcts.records().len() as u64,
    };
    let quarantined = mcts.failures() as u64;
    let tree = mcts.stats();
    let exhausted = mcts.is_exhausted();
    let (records, telemetry, _) = mcts.into_parts();
    Ok(ExploreOutput {
        records,
        telemetry,
        sim,
        cache,
        threads,
        failures: Vec::new(),
        quarantined,
        tree: Some(tree),
        exhausted,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dr_dag::{CostKey, DagBuilder, OpSpec};
    use dr_mcts::SimEvaluator;
    use dr_sim::{BenchConfig, Platform, TableWorkload};

    fn setup() -> (DecisionSpace, TableWorkload, Platform) {
        let mut b = DagBuilder::new();
        let a = b.add("a", OpSpec::GpuKernel(CostKey::new("a")));
        let g = b.add("b", OpSpec::GpuKernel(CostKey::new("b")));
        let c = b.add("c", OpSpec::CpuWork(CostKey::new("c")));
        b.edge(a, c);
        b.edge(g, c);
        let space = DecisionSpace::new(b.build().unwrap(), 2).unwrap();
        let mut w = TableWorkload::new(1);
        w.cost_all("a", 1e-4)
            .cost_all("b", 2e-4)
            .cost_all("c", 1e-5);
        (space, w, Platform::perlmutter_like().noiseless())
    }

    #[test]
    fn exhaustive_covers_the_whole_space() {
        let (space, w, platform) = setup();
        let eval = SimEvaluator::new(&space, &w, &platform, BenchConfig::quick());
        let records = explore(&space, eval, Strategy::Exhaustive).unwrap();
        assert_eq!(records.len() as u128, space.count_traversals());
    }

    #[test]
    fn mcts_strategy_respects_budget() {
        let (space, w, platform) = setup();
        let eval = SimEvaluator::new(&space, &w, &platform, BenchConfig::quick());
        let records = explore(
            &space,
            eval,
            Strategy::Mcts {
                iterations: 5,
                config: MctsConfig::default(),
            },
        )
        .unwrap();
        assert!(!records.is_empty() && records.len() <= 5);
    }

    #[test]
    fn random_strategy_returns_unique_records() {
        let (space, w, platform) = setup();
        let eval = SimEvaluator::new(&space, &w, &platform, BenchConfig::quick());
        let records = explore(
            &space,
            eval,
            Strategy::Random {
                iterations: 30,
                seed: 1,
            },
        )
        .unwrap();
        let set: std::collections::HashSet<_> = records.iter().map(|r| &r.traversal).collect();
        assert_eq!(set.len(), records.len());
    }

    /// Runs `explore_parallel` over the shared setup with a fresh
    /// SimEvaluator per worker.
    fn run(strategy: Strategy, ctx: &ExploreCtx) -> ExploreOutput {
        let (space, w, platform) = setup();
        explore_parallel(
            &space,
            || SimEvaluator::new(&space, &w, &platform, BenchConfig::quick()),
            strategy,
            ctx,
        )
        .unwrap()
    }

    #[test]
    fn parallel_mcts_telemetry_is_renumbered_and_monotone() {
        let strategy = Strategy::Mcts {
            iterations: 60,
            config: MctsConfig::default(),
        };
        let par = run(strategy, &ExploreCtx::new(3));
        let rows = par.telemetry.rows();
        assert!(!rows.is_empty());
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(row.iteration, i as u64 + 1);
        }
        for w in rows.windows(2) {
            assert!(w[1].unique_traversals >= w[0].unique_traversals);
            assert!(w[1].best_time <= w[0].best_time);
        }
        assert_eq!(
            rows.last().unwrap().unique_traversals,
            par.records.len(),
            "final row counts all merged records"
        );
    }

    #[test]
    fn aborted_mcts_ends_every_worker_it_started() {
        use dr_obs::{json, SharedBuf};
        let (space, _, _) = setup();
        let strategy = Strategy::Mcts {
            iterations: 50,
            config: MctsConfig::default(),
        };
        let failing = || {
            |_: &Traversal, _: u64| -> Result<BenchResult, SimError> {
                Err(SimError::Panicked {
                    detail: "injected failure".into(),
                })
            }
        };
        for threads in [1, 3] {
            let buf = SharedBuf::new();
            let ctx = ExploreCtx {
                events: Some(EventSink::new("abort").with_writer(Box::new(buf.clone()))),
                ..ExploreCtx::new(threads)
            };
            assert!(explore_parallel(&space, failing, strategy, &ctx).is_err());
            let mut started = Vec::new();
            let mut ended = Vec::new();
            for line in buf.contents().lines() {
                let v = json::parse(line).unwrap();
                let worker = v.get("worker").and_then(json::Value::as_u64);
                match v.get("kind").and_then(json::Value::as_str) {
                    Some("worker-start") => started.push(worker.unwrap()),
                    Some("worker-end") => ended.push(worker.unwrap()),
                    _ => {}
                }
            }
            assert_eq!(started, (0..threads as u64).collect::<Vec<_>>());
            assert_eq!(ended, started, "threads={threads}");
        }
    }

    #[test]
    fn serial_mcts_contains_panicking_evaluations() {
        let (space, _, _) = setup();
        let strategy = Strategy::Mcts {
            iterations: 50,
            config: MctsConfig::default(),
        };
        let panicking = || {
            |_: &Traversal, _: u64| -> Result<BenchResult, SimError> { panic!("injected panic") }
        };
        // Abort surfaces the panic as a structured error...
        let err = explore_parallel(&space, panicking, strategy, &ExploreCtx::new(1)).unwrap_err();
        assert!(matches!(err, SimError::Panicked { .. }), "{err}");
        // ...and Quarantine drops every traversal instead of unwinding.
        let ctx = ExploreCtx {
            policy: FailurePolicy::Quarantine,
            ..ExploreCtx::new(1)
        };
        let out = explore_parallel(&space, panicking, strategy, &ctx).unwrap();
        assert!(out.records.is_empty());
        assert_eq!(out.quarantined as u128, space.count_traversals());
    }
}
