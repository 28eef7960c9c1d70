//! The traced pipeline: the same calls the `dr-rules` explore command
//! makes at one thread, with a span around each layer's public function.
//!
//! Per evaluation the stack is `core.eval` → `store.lookup` →
//! `dag.build_schedule` → `sim.compile` → `sim.execute` → `store.append`,
//! which is the work of the CLI's `Stored(Sim)` evaluator layers; the
//! search runs under `mcts.explore` and mining under `ml.*`. Measurements
//! are pure functions of the traversal, so the traced records carry the
//! untraced run's exact fingerprint, which the benchmark checks.

use crate::spans::span;
use cuda_mpi_design_rules::dag::{build_schedule, DecisionSpace, Traversal};
use cuda_mpi_design_rules::mcts::{Evaluator, Mcts, MctsConfig, TreeStats};
use cuda_mpi_design_rules::ml::{algorithm1, extract_rulesets, featurize, label_times};
use cuda_mpi_design_rules::pipeline::{PipelineConfig, PipelineResult};
use cuda_mpi_design_rules::sim::{
    benchmark_memo_instrumented, BenchConfig, BenchResult, CompiledProgram, Platform, SimError,
    SimMemo, SimStats, Workload,
};
use cuda_mpi_design_rules::store::ResultStore;
use cuda_mpi_design_rules::trace::Lane;
use std::cell::RefCell;

/// The evaluator stack with one span per layer call.
pub struct TracedEval<'a> {
    space: &'a DecisionSpace,
    workload: &'a dyn Workload,
    platform: &'a Platform,
    cfg: BenchConfig,
    store: Option<&'a ResultStore>,
    lane: &'a RefCell<Lane>,
    memo: SimMemo,
    stats: SimStats,
    /// Evaluations that ran the simulator (store misses).
    pub simulated: u64,
}

impl<'a> TracedEval<'a> {
    /// A stack over `space`, optionally reading and writing `store`.
    pub fn new(
        space: &'a DecisionSpace,
        workload: &'a dyn Workload,
        platform: &'a Platform,
        store: Option<&'a ResultStore>,
        lane: &'a RefCell<Lane>,
    ) -> Self {
        TracedEval {
            space,
            workload,
            platform,
            cfg: PipelineConfig::quick().bench,
            store,
            lane,
            memo: SimMemo::default(),
            stats: SimStats::default(),
            simulated: 0,
        }
    }

    /// Per-seed noise tables the simulation memo built.
    pub fn noise_tables(&self) -> usize {
        self.memo.noise_tables()
    }

    fn layers(&mut self, t: &Traversal) -> Result<BenchResult, SimError> {
        let lane = self.lane;
        if let Some(store) = self.store {
            if let Some(hit) = span(lane, "store.lookup", || store.lookup(t)) {
                return Ok(hit);
            }
        }
        let schedule = span(lane, "dag.build_schedule", || build_schedule(self.space, t));
        let prog = span(lane, "sim.compile", || {
            CompiledProgram::compile(&schedule, self.workload)
        })?;
        let (result, stats) = span(lane, "sim.execute", || {
            benchmark_memo_instrumented(&prog, self.platform, &self.cfg, &mut self.memo)
        })?;
        self.stats.merge(&stats);
        self.simulated += 1;
        if let Some(store) = self.store {
            span(lane, "store.append", || store.append(t, &result)).map_err(|e| {
                SimError::Faulted {
                    detail: format!("result store append failed: {e}"),
                }
            })?;
        }
        Ok(result)
    }
}

impl Evaluator for TracedEval<'_> {
    fn evaluate(&mut self, t: &Traversal, _seed: u64) -> Result<BenchResult, SimError> {
        let lane = self.lane;
        span(lane, "core.eval", || self.layers(t))
    }

    fn sim_stats(&self) -> Option<&SimStats> {
        Some(&self.stats)
    }
}

/// What one traced explore→rules run produced besides its spans.
pub struct TracedRun {
    /// The mined pipeline output.
    pub result: PipelineResult,
    /// Final search-tree statistics.
    pub tree: TreeStats,
    /// Simulator statistics over every simulated evaluation.
    pub sim: SimStats,
    /// Evaluations that ran the simulator.
    pub simulated: u64,
    /// Noise tables the simulation memo built.
    pub noise_tables: usize,
}

/// Runs MCTS explore → label → featurize → train → rules inside a
/// `pipeline` span, exactly as `dr-rules <scenario> explore --threads 1`
/// does.
pub fn traced_pipeline(
    lane: &RefCell<Lane>,
    space: &DecisionSpace,
    workload: &dyn Workload,
    platform: &Platform,
    store: Option<&ResultStore>,
    iterations: usize,
    seed: u64,
) -> Result<TracedRun, String> {
    span(lane, "pipeline", || {
        let eval = TracedEval::new(space, workload, platform, store, lane);
        let config = MctsConfig {
            seed,
            ..Default::default()
        };
        let (records, tree, eval) = span(lane, "mcts.explore", || {
            let mut mcts = Mcts::new(space, eval, config);
            mcts.run(iterations)
                .map_err(|e| format!("simulation failed: {e}"))?;
            let tree = mcts.stats();
            let (records, _, eval) = mcts.into_parts();
            Ok::<_, String>((records, tree, eval))
        })?;
        if records.is_empty() {
            return Err("exploration produced no records".into());
        }
        let cfg = PipelineConfig::quick();
        let times: Vec<f64> = records.iter().map(|r| r.result.time()).collect();
        let labeling = span(lane, "ml.label", || label_times(&times, &cfg.labeling));
        let traversals: Vec<&Traversal> = records.iter().map(|r| &r.traversal).collect();
        let features = span(lane, "ml.featurize", || featurize(space, &traversals));
        let search = span(lane, "ml.train", || {
            algorithm1(
                &features.matrix,
                &labeling.labels,
                labeling.num_classes,
                &cfg.train,
            )
        });
        let rulesets = span(lane, "ml.rules", || {
            extract_rulesets(&search.tree, &features)
        });
        Ok(TracedRun {
            sim: eval.stats.clone(),
            simulated: eval.simulated,
            noise_tables: eval.noise_tables(),
            tree,
            result: PipelineResult {
                records,
                labeling,
                features,
                search,
                rulesets,
            },
        })
    })
}
