//! Monte-Carlo tree search over traversal prefixes (paper Section III-C):
//! the public search types and the [`Mcts`] driver.
//!
//! Each iteration is the paper's selection → expansion → rollout →
//! backpropagation (the tree and its selection rule live in
//! `shared.rs`). The driver runs iterations in batches: assemble up to `width`
//! descents, measure them with one evaluator per batch slot, commit the
//! results. At width 1 ([`Mcts::new`]) this is the paper's sequential
//! loop; wider searches ([`Mcts::batched`]) measure a batch in parallel
//! ([`Mcts::run_parallel`]).
//!
//! For MPI programs, the paper executes the search on a single rank with
//! all ranks participating in measurements; here the "measurement" is the
//! platform simulator.

use crate::eval::Evaluator;
use crate::shared::{Arena, PendingEval};
use crate::telemetry::{SearchTelemetry, TelemetryRow};
use dr_dag::{DecisionSpace, Placement, Traversal};
use dr_obs::events::EventSink;
use dr_sim::{BenchResult, SimError};
use dr_trace::Lane;

/// The exploitation term of the selection rule. The paper uses
/// [`Exploitation::CoverageRange`]; the alternatives are the baselines its
/// future work calls for ("other MCTS strategies should be considered").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Exploitation {
    /// Paper Section III-C-1: the child's observed time range as a
    /// fraction of the parent's — favors subtrees where design decisions
    /// have a large performance impact.
    #[default]
    CoverageRange,
    /// Classic minimizing UCT: `(t_max^root − mean_child) / (t_max^root −
    /// t_min^root)` — favors *fast* subtrees, the usual choice when MCTS
    /// hunts a single optimum rather than mapping the landscape.
    MeanTime,
    /// Constant 1: selection degenerates to pure UCT exploration.
    Constant,
}

/// Search hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MctsConfig {
    /// Exploration constant `c` (paper: √2).
    pub exploration_c: f64,
    /// Exploitation signal (paper: coverage range).
    pub exploitation: Exploitation,
    /// Seed for rollout randomness and per-evaluation noise seeds.
    pub seed: u64,
    /// Evaluator errors tolerated before the search aborts. Each failing
    /// traversal is quarantined (its subtree is marked fully explored, no
    /// record is added, no statistics are backpropagated) and the search
    /// continues; once more than `max_failures` distinct traversals have
    /// failed, the next error propagates. `0` (the default) keeps the
    /// pre-chaos fail-fast behavior.
    pub max_failures: usize,
}

impl Default for MctsConfig {
    fn default() -> Self {
        MctsConfig {
            exploration_c: std::f64::consts::SQRT_2,
            exploitation: Exploitation::default(),
            seed: 0,
            max_failures: 0,
        }
    }
}

/// Aggregate statistics of an MCTS search tree.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TreeStats {
    /// Materialized tree nodes.
    pub nodes: usize,
    /// Deepest materialized node (root = 0).
    pub max_depth: usize,
    /// Nodes whose subtrees are fully benchmarked.
    pub fully_explored: usize,
    /// Total rollouts backpropagated through the root.
    pub rollouts: u64,
    /// Fastest time observed anywhere.
    pub t_min: f64,
    /// Slowest time observed anywhere.
    pub t_max: f64,
}

/// Statistics of one materialized tree node, exported by
/// [`Mcts::snapshot`].
#[derive(Debug, Clone, PartialEq)]
pub struct NodeStat {
    /// Depth below the root (root = 0).
    pub depth: usize,
    /// The placement on the incoming edge (`None` for the root).
    pub action: Option<Placement>,
    /// Rollouts backpropagated through this node.
    pub visits: u64,
    /// Fastest simulated time observed in this node's subtree.
    pub t_min: f64,
    /// Slowest simulated time observed in this node's subtree.
    pub t_max: f64,
    /// Mean simulated time over the node's rollouts (NaN when
    /// unvisited).
    pub t_mean: f64,
    /// Materialized children.
    pub children: usize,
    /// Whether the subtree is fully benchmarked.
    pub fully_explored: bool,
}

/// One principal variation: a root-to-leaf path following the
/// most-visited materialized child at every level.
#[derive(Debug, Clone, PartialEq)]
pub struct PrincipalVariation {
    /// The placements along the path, root first.
    pub steps: Vec<Placement>,
    /// Visit count of the opening placement (the ranking key).
    pub visits: u64,
    /// Fastest time observed at the path's end.
    pub t_min: f64,
    /// Mean time over the opening placement's rollouts.
    pub t_mean: f64,
}

/// A full introspection snapshot of the search tree, exported by
/// [`Mcts::snapshot`] for the `explain` command.
#[derive(Debug, Clone)]
pub struct TreeSnapshot {
    /// Aggregate tree statistics (same as [`Mcts::stats`]).
    pub stats: TreeStats,
    /// Whether every traversal in the space has been benchmarked.
    pub exhausted: bool,
    /// Iterations executed so far.
    pub iterations: u64,
    /// Distinct traversals quarantined after evaluator errors.
    pub failures: usize,
    /// Materialized node count per depth (index = depth; `[0]` is 1).
    pub depth_profile: Vec<usize>,
    /// The most-visited nodes, visit-count descending (capped by the
    /// `max_nodes` argument).
    pub nodes: Vec<NodeStat>,
    /// Top-k principal variations, opening-visits descending.
    pub principal_variations: Vec<PrincipalVariation>,
}

/// One explored implementation: the traversal and its measurements.
#[derive(Debug, Clone)]
pub struct ExploredRecord {
    /// The complete traversal.
    pub traversal: Traversal,
    /// The measurement record (percentiles over measurements).
    pub result: BenchResult,
}

/// The Monte-Carlo tree search: the tree plus one evaluator per batch
/// slot.
pub struct Mcts<'a, E: Evaluator> {
    tree: Arena<'a>,
    /// Batch slot `i` is always measured by `evals[i]`, so per-evaluator
    /// memo state evolves deterministically; the batch width is
    /// `evals.len()`.
    evals: Vec<E>,
}

impl<'a, E: Evaluator> Mcts<'a, E> {
    /// Creates a search over `space` using `eval` to measure rollouts,
    /// one at a time.
    pub fn new(space: &'a DecisionSpace, eval: E, cfg: MctsConfig) -> Self {
        Self::batched(space, vec![eval], cfg)
    }

    /// Creates a search that assembles batches of up to `evals.len()`
    /// distinct rollouts under virtual loss and measures batch entry `i`
    /// with `evals[i]`.
    ///
    /// # Panics
    /// If `evals` is empty.
    pub fn batched(space: &'a DecisionSpace, evals: Vec<E>, cfg: MctsConfig) -> Self {
        assert!(!evals.is_empty(), "a search needs at least one evaluator");
        Mcts {
            tree: Arena::new(space, cfg),
            evals,
        }
    }

    /// Enables sampled iteration observation: every `every`-th iteration
    /// (starting with the first) records a zero-length `mcts-iter` span
    /// on `lane` and emits an `mcts-iter` event on `events` when it
    /// resolves. Both carry the iteration number, unique-traversal count,
    /// tree size, and the iteration's outcome; the event adds the tree
    /// depth and best time. Sampling keeps the volume proportional to
    /// `budget / every`; `every` is clamped to at least 1. In a batched
    /// search, iterations of one batch resolve at commit, so their spans
    /// and events can appear out of iteration order. Observation only
    /// reads search state, so it cannot perturb the search.
    pub fn observe(&mut self, lane: Option<Lane>, events: Option<EventSink>, every: usize) {
        self.tree.set_observer(lane, events, every);
    }

    /// All explored implementations, in discovery (commit) order.
    pub fn records(&self) -> &[ExploredRecord] {
        self.tree.records()
    }

    /// Consumes the search and returns the explored records (see
    /// [`Mcts::into_parts`] for their order).
    pub fn into_records(self) -> Vec<ExploredRecord> {
        self.into_parts().0
    }

    /// Per-iteration telemetry rows (one per rollout that was measured or
    /// regenerated a measured traversal), in commit order.
    pub fn telemetry(&self) -> &SearchTelemetry {
        self.tree.telemetry()
    }

    /// The evaluators, one per batch slot.
    pub fn evaluators(&self) -> &[E] {
        &self.evals
    }

    /// Consumes the search, returning the explored records together with
    /// the telemetry history and the evaluator (whose accumulated
    /// simulator statistics outlive the search; for a batched search,
    /// slot 0's — read the others through [`Mcts::evaluators`] first).
    ///
    /// At width 1 the records are in discovery order and each row
    /// carries its iteration number. A wider search commits in an order
    /// that depends on the width, so its records come back sorted by
    /// [`Traversal::canonical_hash`] — the record *list* is then
    /// width-invariant once the budget exhausts the space — and its rows
    /// are renumbered in commit order.
    pub fn into_parts(self) -> (Vec<ExploredRecord>, SearchTelemetry, E) {
        let width = self.evals.len();
        let eval = self.evals.into_iter().next().expect("one evaluator");
        let (mut records, mut telemetry) = self.tree.into_parts();
        if width > 1 {
            records.sort_by_key(|r| r.traversal.canonical_hash());
            let mut renumbered = SearchTelemetry::new();
            for (i, row) in telemetry.rows().iter().enumerate() {
                renumbered.push(TelemetryRow {
                    iteration: i as u64 + 1,
                    ..*row
                });
            }
            telemetry = renumbered;
        }
        (records, telemetry, eval)
    }

    /// True when every traversal of the space has been benchmarked (or
    /// quarantined).
    pub fn is_exhausted(&self) -> bool {
        self.tree.is_exhausted()
    }

    /// Number of iterations executed so far.
    pub fn iterations(&self) -> u64 {
        self.tree.iterations()
    }

    /// Number of distinct traversals quarantined after evaluator errors
    /// (bounded by [`MctsConfig::max_failures`]).
    pub fn failures(&self) -> usize {
        self.tree.failures()
    }

    /// Rollouts that regenerated an already-measured traversal.
    pub fn repeats(&self) -> u64 {
        self.tree.repeats()
    }

    /// Number of tree nodes materialized.
    pub fn tree_size(&self) -> usize {
        self.tree.tree_size()
    }

    /// Aggregate statistics of the search tree.
    pub fn stats(&self) -> TreeStats {
        self.tree.stats()
    }

    /// Exports an introspection snapshot of the search tree: aggregate
    /// statistics, the per-depth node profile, the `max_nodes`
    /// most-visited nodes, and the top-`top_k` principal variations.
    ///
    /// A principal variation starts at one of the root's children
    /// (ranked by visit count, descending) and follows the most-visited
    /// materialized child at every level — the search's preferred
    /// completion of that opening decision. Ties break toward the
    /// earlier-materialized child, so the export is deterministic.
    pub fn snapshot(&self, top_k: usize, max_nodes: usize) -> TreeSnapshot {
        self.tree.snapshot(top_k, max_nodes)
    }

    /// Runs up to `iterations` search iterations (stopping early if the
    /// space is exhausted), measuring each batch's entries one after
    /// another on the calling thread, and returns the number of *new*
    /// traversals discovered.
    pub fn run(&mut self, iterations: usize) -> Result<usize, SimError> {
        self.drive(iterations, |evals, pending| {
            pending
                .iter()
                .zip(evals)
                .map(|(pe, eval)| eval.evaluate(&pe.traversal, pe.eval_seed))
                .collect()
        })
    }

    /// The one batch loop: assemble, measure with `measure`, commit.
    fn drive(
        &mut self,
        iterations: usize,
        mut measure: impl FnMut(&mut [E], &[PendingEval]) -> Vec<Result<BenchResult, SimError>>,
    ) -> Result<usize, SimError> {
        let before = self.tree.records().len();
        let mut remaining = iterations as u64;
        while remaining > 0 && !self.tree.is_exhausted() {
            let batch = self.tree.select_batch(self.evals.len(), remaining);
            remaining -= batch.iterations as u64;
            if !batch.pending.is_empty() {
                let results = measure(&mut self.evals, &batch.pending);
                self.tree.commit(batch, results)?;
            }
        }
        Ok(self.tree.records().len() - before)
    }
}

impl<E: Evaluator + Send> Mcts<'_, E> {
    /// [`Mcts::run`], measuring each batch's entries in parallel on
    /// scoped threads (one per entry; a single-entry batch runs on the
    /// calling thread). Results are identical to [`Mcts::run`]'s.
    pub fn run_parallel(&mut self, iterations: usize) -> Result<usize, SimError> {
        self.drive(iterations, |evals, pending| {
            if let [pe] = pending {
                return vec![evals[0].evaluate(&pe.traversal, pe.eval_seed)];
            }
            std::thread::scope(|s| {
                let handles: Vec<_> = pending
                    .iter()
                    .zip(evals.iter_mut())
                    .map(|(pe, eval)| s.spawn(move || eval.evaluate(&pe.traversal, pe.eval_seed)))
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
                    .collect()
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::SimEvaluator;
    use dr_dag::{CostKey, DagBuilder, OpSpec};
    use dr_sim::{BenchConfig, Platform, TableWorkload};

    fn small_space() -> DecisionSpace {
        let mut b = DagBuilder::new();
        let a = b.add("a", OpSpec::GpuKernel(CostKey::new("a")));
        let g = b.add("b", OpSpec::GpuKernel(CostKey::new("b")));
        let c = b.add("c", OpSpec::CpuWork(CostKey::new("c")));
        b.edge(a, c);
        b.edge(g, c);
        DecisionSpace::new(b.build().unwrap(), 2).unwrap()
    }

    fn small_workload() -> TableWorkload {
        let mut w = TableWorkload::new(1);
        w.cost_all("a", 1e-4)
            .cost_all("b", 2e-4)
            .cost_all("c", 5e-5);
        w
    }

    #[test]
    fn search_exhausts_a_small_space_and_finds_all_traversals() {
        let space = small_space();
        let total = space.count_traversals() as usize;
        let w = small_workload();
        let platform = Platform::perlmutter_like().noiseless();
        let eval = SimEvaluator::new(&space, &w, &platform, BenchConfig::quick());
        let mut mcts = Mcts::new(&space, eval, MctsConfig::default());
        let new = mcts.run(10_000).unwrap();
        assert_eq!(new, total, "all {total} traversals must be discovered");
        assert!(mcts.is_exhausted());
        assert_eq!(mcts.records().len(), total);
        // Exhausted searches are no-ops.
        let iterations = mcts.iterations();
        assert_eq!(mcts.run(1).unwrap(), 0);
        assert_eq!(mcts.iterations(), iterations);
    }

    #[test]
    fn run_parallel_matches_run_and_wide_searches_sort_their_records() {
        let space = small_space();
        let w = small_workload();
        let platform = Platform::perlmutter_like();
        let search = |parallel: bool| {
            let evals = (0..3)
                .map(|_| SimEvaluator::new(&space, &w, &platform, BenchConfig::quick()))
                .collect();
            let mut mcts = Mcts::batched(&space, evals, MctsConfig::default());
            if parallel {
                mcts.run_parallel(7).unwrap();
            } else {
                mcts.run(7).unwrap();
            }
            let (records, telemetry, _) = mcts.into_parts();
            let records: Vec<(Traversal, u64)> = records
                .into_iter()
                .map(|r| (r.traversal, r.result.time().to_bits()))
                .collect();
            (records, telemetry)
        };
        let (seq, seq_rows) = search(false);
        assert_eq!((seq.clone(), seq_rows.clone()), search(true));
        assert!(seq
            .windows(2)
            .all(|p| p[0].0.canonical_hash() <= p[1].0.canonical_hash()));
        for (i, row) in seq_rows.rows().iter().enumerate() {
            assert_eq!(row.iteration, i as u64 + 1, "rows renumbered");
        }
    }

    #[test]
    fn records_are_unique_traversals() {
        let space = small_space();
        let w = small_workload();
        let platform = Platform::perlmutter_like().noiseless();
        let eval = SimEvaluator::new(&space, &w, &platform, BenchConfig::quick());
        let mut mcts = Mcts::new(
            &space,
            eval,
            MctsConfig {
                seed: 3,
                ..Default::default()
            },
        );
        mcts.run(50).unwrap();
        let set: std::collections::HashSet<_> =
            mcts.records().iter().map(|r| &r.traversal).collect();
        assert_eq!(set.len(), mcts.records().len());
        for r in mcts.records() {
            space.validate(&r.traversal).unwrap();
        }
    }

    #[test]
    fn search_is_seed_deterministic() {
        let space = small_space();
        let w = small_workload();
        let platform = Platform::perlmutter_like();
        let run = |seed| {
            let eval = SimEvaluator::new(&space, &w, &platform, BenchConfig::quick());
            let mut mcts = Mcts::new(
                &space,
                eval,
                MctsConfig {
                    seed,
                    ..Default::default()
                },
            );
            mcts.run(20).unwrap();
            mcts.into_records()
                .into_iter()
                .map(|r| (r.traversal, r.result.time()))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6));
    }

    fn fake_result(t: f64) -> BenchResult {
        BenchResult {
            measurements: vec![t],
            percentiles: dr_sim::Percentiles {
                p01: t,
                p10: t,
                p50: t,
                p90: t,
                p99: t,
            },
        }
    }

    #[test]
    fn max_failures_quarantines_poisoned_traversals_and_continues() {
        let space = small_space();
        let all: Vec<Traversal> = space.enumerate().collect();
        let poisoned = all[0].clone();
        let eval = |t: &Traversal, _seed: u64| -> Result<BenchResult, SimError> {
            if *t == poisoned {
                Err(SimError::Panicked {
                    detail: "injected".into(),
                })
            } else {
                Ok(fake_result(1.0 + t.canonical_hash() as f64 * 1e-20))
            }
        };
        let mut mcts = Mcts::new(
            &space,
            eval,
            MctsConfig {
                max_failures: 1,
                ..Default::default()
            },
        );
        let new = mcts.run(10_000).unwrap();
        assert_eq!(new, all.len() - 1, "all healthy traversals discovered");
        assert!(mcts.is_exhausted(), "quarantine must not stall exhaustion");
        assert_eq!(mcts.failures(), 1);
        assert!(mcts.records().iter().all(|r| r.traversal != poisoned));
    }

    #[test]
    fn failures_beyond_the_cap_propagate() {
        let space = small_space();
        let eval = |_: &Traversal, _: u64| -> Result<BenchResult, SimError> {
            Err(SimError::Panicked {
                detail: "always".into(),
            })
        };
        // Default max_failures = 0: the very first error is fatal,
        // exactly the pre-chaos behavior.
        let mut mcts = Mcts::new(&space, eval, MctsConfig::default());
        assert!(mcts.run(100).is_err());
    }

    #[test]
    fn quarantine_tolerates_an_entirely_poisoned_space() {
        let space = small_space();
        let total = space.count_traversals() as usize;
        let eval = |_: &Traversal, _: u64| -> Result<BenchResult, SimError> {
            Err(SimError::Panicked {
                detail: "always".into(),
            })
        };
        let mut mcts = Mcts::new(
            &space,
            eval,
            MctsConfig {
                max_failures: total,
                ..Default::default()
            },
        );
        let new = mcts.run(10_000).unwrap();
        assert_eq!(new, 0);
        assert!(mcts.is_exhausted());
        assert_eq!(mcts.failures(), total);
        assert!(mcts.records().is_empty());
    }

    #[test]
    fn sampled_tracing_records_every_nth_iteration_without_perturbing_search() {
        let space = small_space();
        let w = small_workload();
        let platform = Platform::perlmutter_like().noiseless();
        let run = |trace: Option<(&dr_trace::Tracer, usize)>| {
            let eval = SimEvaluator::new(&space, &w, &platform, BenchConfig::quick());
            let mut mcts = Mcts::new(&space, eval, MctsConfig::default());
            if let Some((tracer, every)) = trace {
                mcts.observe(Some(tracer.lane("mcts-0")), None, every);
            }
            mcts.run(9).unwrap();
            mcts.into_records()
                .into_iter()
                .map(|r| (r.traversal, r.result.time()))
                .collect::<Vec<_>>()
        };
        let tracer = dr_trace::Tracer::new();
        let traced = run(Some((&tracer, 4)));
        let plain = run(None);
        assert_eq!(traced, plain, "tracing must not change the search");
        let snap = tracer.snapshot();
        let iters: Vec<String> = snap
            .spans
            .iter()
            .filter(|s| s.name == "mcts-iter")
            .map(|s| {
                s.notes
                    .iter()
                    .find(|(k, _)| k == "iteration")
                    .unwrap()
                    .1
                    .clone()
            })
            .collect();
        assert_eq!(iters, vec!["1", "5", "9"], "iterations 1, 1+4, 1+8 sampled");
        assert!(snap
            .spans
            .iter()
            .all(|s| s.name != "mcts-iter" || s.end_s.is_some()));
    }

    #[test]
    fn iterations_count_rollouts_not_discoveries() {
        let space = small_space();
        let w = small_workload();
        let platform = Platform::perlmutter_like().noiseless();
        let eval = SimEvaluator::new(&space, &w, &platform, BenchConfig::quick());
        let mut mcts = Mcts::new(&space, eval, MctsConfig::default());
        for _ in 0..30 {
            mcts.run(1).unwrap();
        }
        assert!(mcts.iterations() <= 30);
        assert!(mcts.records().len() <= 30);
    }
}

#[cfg(test)]
mod telemetry_tests {
    use super::*;
    use crate::eval::SimEvaluator;
    use dr_dag::{CostKey, DagBuilder, OpSpec};
    use dr_sim::{BenchConfig, Platform, TableWorkload};

    fn space() -> DecisionSpace {
        let mut b = DagBuilder::new();
        let a = b.add("a", OpSpec::GpuKernel(CostKey::new("a")));
        let g = b.add("b", OpSpec::GpuKernel(CostKey::new("b")));
        let c = b.add("c", OpSpec::CpuWork(CostKey::new("c")));
        b.edge(a, c);
        b.edge(g, c);
        DecisionSpace::new(b.build().unwrap(), 2).unwrap()
    }

    #[test]
    fn one_row_per_iteration_with_monotone_progress() {
        let sp = space();
        let mut w = TableWorkload::new(1);
        w.cost_all("a", 1e-4)
            .cost_all("b", 2e-4)
            .cost_all("c", 1e-5);
        let platform = Platform::perlmutter_like().noiseless();
        let eval = SimEvaluator::new(&sp, &w, &platform, BenchConfig::quick());
        let mut mcts = Mcts::new(&sp, eval, MctsConfig::default());
        mcts.run(25).unwrap();
        let telemetry = mcts.telemetry();
        assert_eq!(telemetry.len() as u64, mcts.iterations());
        let rows = telemetry.rows();
        for (i, r) in rows.iter().enumerate() {
            assert_eq!(r.iteration, i as u64 + 1);
            assert!(r.best_time <= r.worst_time);
            assert!(r.tree_nodes >= 1);
            assert!(r.max_depth <= sp.num_ops());
            assert!(r.rollout_len <= sp.num_ops());
        }
        for w in rows.windows(2) {
            assert!(w[1].unique_traversals >= w[0].unique_traversals);
            assert!(w[1].tree_nodes >= w[0].tree_nodes);
            assert!(w[1].best_time <= w[0].best_time);
            assert!(w[1].worst_time >= w[0].worst_time);
        }
        // Incremental max depth agrees with the full-tree walk.
        assert_eq!(rows.last().unwrap().max_depth, mcts.stats().max_depth);
    }

    #[test]
    fn exhausted_steps_do_not_add_rows() {
        let sp = space();
        let mut w = TableWorkload::new(1);
        w.cost_all("a", 1e-4)
            .cost_all("b", 2e-4)
            .cost_all("c", 1e-5);
        let platform = Platform::perlmutter_like().noiseless();
        let eval = SimEvaluator::new(&sp, &w, &platform, BenchConfig::quick());
        let mut mcts = Mcts::new(&sp, eval, MctsConfig::default());
        mcts.run(10_000).unwrap();
        assert!(mcts.is_exhausted());
        let rows_before = mcts.telemetry().len();
        mcts.run(1).unwrap();
        assert_eq!(mcts.telemetry().len(), rows_before);
    }

    #[test]
    fn evaluator_stats_survive_into_parts() {
        let sp = space();
        let mut w = TableWorkload::new(1);
        w.cost_all("a", 1e-4)
            .cost_all("b", 2e-4)
            .cost_all("c", 1e-5);
        let platform = Platform::perlmutter_like().noiseless();
        let eval = SimEvaluator::new(&sp, &w, &platform, BenchConfig::quick());
        let mut mcts = Mcts::new(&sp, eval, MctsConfig::default());
        mcts.run(10).unwrap();
        assert!(Evaluator::sim_stats(&mcts.evaluators()[0]).is_some());
        let (records, telemetry, eval) = mcts.into_parts();
        let stats = eval.stats();
        assert!(stats.runs > 0, "each evaluation runs simulator samples");
        assert!(stats.instructions > 0);
        assert!(!records.is_empty());
        assert!(!telemetry.is_empty());
    }
}

#[cfg(test)]
mod policy_tests {
    use super::*;
    use crate::eval::SimEvaluator;
    use dr_dag::{CostKey, DagBuilder, OpSpec};
    use dr_sim::{BenchConfig, Platform, TableWorkload};

    fn space() -> DecisionSpace {
        let mut b = DagBuilder::new();
        let a = b.add("a", OpSpec::GpuKernel(CostKey::new("a")));
        let g = b.add("b", OpSpec::GpuKernel(CostKey::new("b")));
        let c = b.add("c", OpSpec::CpuWork(CostKey::new("c")));
        b.edge(a, c);
        b.edge(g, c);
        DecisionSpace::new(b.build().unwrap(), 2).unwrap()
    }

    #[test]
    fn every_exploitation_policy_exhausts_the_space() {
        let sp = space();
        let total = sp.count_traversals() as usize;
        let mut w = TableWorkload::new(1);
        w.cost_all("a", 1e-4)
            .cost_all("b", 2e-4)
            .cost_all("c", 1e-5);
        let platform = Platform::perlmutter_like().noiseless();
        for policy in [
            Exploitation::CoverageRange,
            Exploitation::MeanTime,
            Exploitation::Constant,
        ] {
            let eval = SimEvaluator::new(&sp, &w, &platform, BenchConfig::quick());
            let cfg = MctsConfig {
                exploitation: policy,
                ..Default::default()
            };
            let mut mcts = Mcts::new(&sp, eval, cfg);
            let new = mcts.run(10_000).unwrap();
            assert_eq!(new, total, "{policy:?} must still cover the space");
            assert!(mcts.is_exhausted());
        }
    }

    #[test]
    fn policies_explore_in_different_orders() {
        let sp = space();
        let mut w = TableWorkload::new(1);
        w.cost_all("a", 1e-4)
            .cost_all("b", 2e-4)
            .cost_all("c", 1e-5);
        let platform = Platform::perlmutter_like().noiseless();
        let order = |policy| {
            let eval = SimEvaluator::new(&sp, &w, &platform, BenchConfig::quick());
            let cfg = MctsConfig {
                exploitation: policy,
                seed: 4,
                ..Default::default()
            };
            let mut mcts = Mcts::new(&sp, eval, cfg);
            mcts.run(8).unwrap();
            mcts.into_records()
                .into_iter()
                .map(|r| r.traversal)
                .collect::<Vec<_>>()
        };
        // Not guaranteed in general, but with this seed the paper policy
        // and classic UCT provably diverge on this space.
        assert_ne!(
            order(Exploitation::CoverageRange),
            order(Exploitation::MeanTime)
        );
    }
}

#[cfg(test)]
mod stats_tests {
    use super::*;
    use crate::eval::SimEvaluator;
    use dr_dag::{CostKey, DagBuilder, OpSpec};
    use dr_sim::{BenchConfig, Platform, TableWorkload};

    #[test]
    fn stats_reflect_search_progress() {
        let mut b = DagBuilder::new();
        let a = b.add("a", OpSpec::GpuKernel(CostKey::new("a")));
        let g = b.add("b", OpSpec::GpuKernel(CostKey::new("b")));
        let c = b.add("c", OpSpec::CpuWork(CostKey::new("c")));
        b.edge(a, c);
        b.edge(g, c);
        let sp = DecisionSpace::new(b.build().unwrap(), 2).unwrap();
        let mut w = TableWorkload::new(1);
        w.cost_all("a", 1e-4)
            .cost_all("b", 2e-4)
            .cost_all("c", 1e-5);
        let platform = Platform::perlmutter_like().noiseless();
        let eval = SimEvaluator::new(&sp, &w, &platform, BenchConfig::quick());
        let mut mcts = Mcts::new(&sp, eval, MctsConfig::default());
        let s0 = mcts.stats();
        assert_eq!(s0.rollouts, 0);
        assert_eq!(s0.nodes, 1);
        mcts.run(10_000).unwrap();
        let s = mcts.stats();
        assert_eq!(
            s.max_depth,
            sp.num_ops(),
            "exhausted tree reaches the leaves"
        );
        assert!(s.fully_explored >= 1);
        assert!(s.t_max >= s.t_min && s.t_min > 0.0);
        assert!(s.rollouts >= sp.count_traversals() as u64);
    }

    #[test]
    fn snapshot_exports_hot_nodes_and_principal_variations() {
        let mut b = DagBuilder::new();
        let a = b.add("a", OpSpec::GpuKernel(CostKey::new("a")));
        let g = b.add("b", OpSpec::GpuKernel(CostKey::new("b")));
        let c = b.add("c", OpSpec::CpuWork(CostKey::new("c")));
        b.edge(a, c);
        b.edge(g, c);
        let sp = DecisionSpace::new(b.build().unwrap(), 2).unwrap();
        let mut w = TableWorkload::new(1);
        w.cost_all("a", 1e-4)
            .cost_all("b", 2e-4)
            .cost_all("c", 1e-5);
        let platform = Platform::perlmutter_like().noiseless();
        let eval = SimEvaluator::new(&sp, &w, &platform, BenchConfig::quick());
        let mut mcts = Mcts::new(&sp, eval, MctsConfig::default());
        mcts.run(10_000).unwrap();
        let snap = mcts.snapshot(3, 5);
        assert_eq!(snap.stats, mcts.stats());
        assert!(snap.exhausted);
        assert_eq!(snap.iterations, mcts.iterations());
        // The depth profile covers the whole tree and starts at the root.
        assert_eq!(snap.depth_profile[0], 1);
        assert_eq!(snap.depth_profile.iter().sum::<usize>(), mcts.tree_size());
        assert_eq!(snap.depth_profile.len() - 1, snap.stats.max_depth);
        // Hot nodes are capped, visit-sorted, and lead with the root.
        assert_eq!(snap.nodes.len(), 5.min(mcts.tree_size()));
        assert!(snap.nodes[0].action.is_none(), "root is most visited");
        assert_eq!(snap.nodes[0].visits, snap.stats.rollouts);
        for pair in snap.nodes.windows(2) {
            assert!(pair[0].visits >= pair[1].visits);
        }
        for n in &snap.nodes[1..] {
            assert!(n.action.is_some(), "non-root nodes recover their edge");
        }
        // PVs: capped at top_k, visit-ranked, each a valid full traversal
        // of this exhausted space.
        assert!(!snap.principal_variations.is_empty());
        assert!(snap.principal_variations.len() <= 3);
        for pair in snap.principal_variations.windows(2) {
            assert!(pair[0].visits >= pair[1].visits);
        }
        for pv in &snap.principal_variations {
            assert_eq!(pv.steps.len(), sp.num_ops());
            sp.validate(&Traversal {
                steps: pv.steps.clone(),
            })
            .unwrap();
            assert!(pv.t_min >= snap.stats.t_min);
        }
        // Deterministic export.
        let again = mcts.snapshot(3, 5);
        assert_eq!(again.nodes, snap.nodes);
        assert_eq!(again.principal_variations, snap.principal_variations);
    }

    #[test]
    fn empty_tree_snapshot_is_well_formed() {
        let mut b = DagBuilder::new();
        let a = b.add("a", OpSpec::GpuKernel(CostKey::new("a")));
        let c = b.add("c", OpSpec::CpuWork(CostKey::new("c")));
        b.edge(a, c);
        let sp = DecisionSpace::new(b.build().unwrap(), 1).unwrap();
        let eval = |_: &Traversal, _: u64| -> Result<BenchResult, SimError> { unreachable!() };
        let mcts = Mcts::new(&sp, eval, MctsConfig::default());
        let snap = mcts.snapshot(3, 10);
        assert_eq!(snap.depth_profile, vec![1]);
        assert_eq!(snap.nodes.len(), 1);
        assert!(snap.principal_variations.is_empty());
        assert!(!snap.exhausted);
    }
}

#[cfg(test)]
mod event_tests {
    use super::*;
    use crate::eval::SimEvaluator;
    use dr_dag::{CostKey, DagBuilder, OpSpec};
    use dr_obs::events::SharedBuf;
    use dr_obs::json;
    use dr_sim::{BenchConfig, Platform, TableWorkload};

    #[test]
    fn sampled_events_mirror_tracing_without_perturbing_search() {
        let mut b = DagBuilder::new();
        let a = b.add("a", OpSpec::GpuKernel(CostKey::new("a")));
        let g = b.add("b", OpSpec::GpuKernel(CostKey::new("b")));
        let c = b.add("c", OpSpec::CpuWork(CostKey::new("c")));
        b.edge(a, c);
        b.edge(g, c);
        let sp = DecisionSpace::new(b.build().unwrap(), 2).unwrap();
        let mut w = TableWorkload::new(1);
        w.cost_all("a", 1e-4)
            .cost_all("b", 2e-4)
            .cost_all("c", 1e-5);
        let platform = Platform::perlmutter_like().noiseless();
        let run = |sink: Option<EventSink>| {
            let eval = SimEvaluator::new(&sp, &w, &platform, BenchConfig::quick());
            let mut mcts = Mcts::new(&sp, eval, MctsConfig::default());
            if let Some(s) = sink {
                mcts.observe(None, Some(s), 4);
            }
            mcts.run(9).unwrap();
            mcts.into_records()
                .into_iter()
                .map(|r| (r.traversal, r.result.time()))
                .collect::<Vec<_>>()
        };
        let buf = SharedBuf::new();
        let sink = EventSink::new("run-evt").with_writer(Box::new(buf.clone()));
        let observed = run(Some(sink));
        let silent = run(None);
        assert_eq!(observed, silent, "event emission must not change search");
        let text = buf.contents();
        let iters: Vec<u64> = text
            .lines()
            .map(|l| {
                let v = json::parse(l).unwrap();
                assert_eq!(
                    v.get("kind").and_then(json::Value::as_str),
                    Some("mcts-iter")
                );
                assert!(v.get("outcome").and_then(json::Value::as_str).is_some());
                v.get("iteration").and_then(json::Value::as_u64).unwrap()
            })
            .collect();
        assert_eq!(iters, vec![1, 5, 9], "iterations 1, 1+4, 1+8 sampled");
    }
}
