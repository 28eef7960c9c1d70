//! The opt-in lint stage: static schedule analysis threaded through the
//! exploration pipeline.
//!
//! With [`PipelineConfig::lint`](crate::PipelineConfig) enabled, every
//! evaluated traversal is first checked by `dr-lint` (happens-before
//! verification, MPI deadlock detection, redundant-sync analysis) before
//! the simulator measures it. Findings never fail an evaluation — the
//! simulator remains the ground truth for *time* — but they accumulate
//! into shared [`LintTotals`] surfaced in the run's
//! [`RunReport`](crate::RunReport).

use crate::report::LintSummary;
use dr_dag::{DecisionSpace, OpSpec, Traversal};
use dr_fault::{key_hash, FaultPlan, MessageFault};
use dr_lint::{
    lint_space_incremental, lint_traversal, AggregatedDiag, CommTopology, DiagAggregator,
    LintCounters, LintReport, SpaceLintStats,
};
use dr_mcts::Evaluator;
use dr_obs::events::EventSink;
use dr_sim::{BenchResult, Platform, SimError, SimStats, Workload};
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Thread-safe lint counters shared by every exploration worker.
#[derive(Debug, Default)]
pub struct LintTotals {
    schedules: AtomicU64,
    errors: AtomicU64,
    warnings: AtomicU64,
    races: AtomicU64,
    deadlocks: AtomicU64,
    redundant_syncs: AtomicU64,
    nanos: AtomicU64,
    space_schedules: AtomicU64,
    hb_expansions: AtomicU64,
    cold_hb_expansions: AtomicU64,
}

impl LintTotals {
    /// Folds one schedule's report (and the time spent producing it) in.
    pub fn absorb(&self, report: &LintReport, nanos: u64) {
        self.schedules.fetch_add(1, Ordering::Relaxed);
        self.errors
            .fetch_add(report.errors().count() as u64, Ordering::Relaxed);
        self.warnings
            .fetch_add(report.warnings().count() as u64, Ordering::Relaxed);
        self.races
            .fetch_add(report.races() as u64, Ordering::Relaxed);
        self.deadlocks
            .fetch_add(report.deadlocks() as u64, Ordering::Relaxed);
        self.redundant_syncs
            .fetch_add(report.redundant_syncs() as u64, Ordering::Relaxed);
        self.nanos.fetch_add(nanos, Ordering::Relaxed);
    }

    /// Folds in the statistics of a space-level incremental lint pass.
    /// Space-lint schedules are counted separately from the per-traversal
    /// `schedules` counter (the two passes cover different populations).
    pub fn absorb_space(&self, stats: &SpaceLintStats) {
        self.space_schedules
            .fetch_add(stats.schedules, Ordering::Relaxed);
        self.hb_expansions
            .fetch_add(stats.hb_expansions, Ordering::Relaxed);
        self.cold_hb_expansions
            .fetch_add(stats.cold_hb_expansions, Ordering::Relaxed);
    }

    /// Snapshot for the run report.
    pub fn summary(&self) -> LintSummary {
        LintSummary {
            schedules: self.schedules.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
            warnings: self.warnings.load(Ordering::Relaxed),
            races: self.races.load(Ordering::Relaxed),
            deadlocks: self.deadlocks.load(Ordering::Relaxed),
            redundant_syncs: self.redundant_syncs.load(Ordering::Relaxed),
            space_schedules: self.space_schedules.load(Ordering::Relaxed),
            hb_expansions: self.hb_expansions.load(Ordering::Relaxed),
            cold_hb_expansions: self.cold_hb_expansions.load(Ordering::Relaxed),
        }
    }

    /// Total wall-clock seconds spent linting (summed across workers).
    pub fn seconds(&self) -> f64 {
        self.nanos.load(Ordering::Relaxed) as f64 * 1e-9
    }
}

/// Evaluator wrapper that lints each traversal before the inner evaluator
/// measures it. Placed *outside* the durable store, so each distinct
/// traversal is linted exactly once per run, cold or warm. With lint off
/// (`None`) the wrapper is a pass-through, so one stack serves both.
pub struct LintingEvaluator<'a, E> {
    inner: E,
    space: &'a DecisionSpace,
    lint: Option<(&'a CommTopology, Arc<LintTotals>)>,
}

impl<'a, E> LintingEvaluator<'a, E> {
    /// Wraps `inner`, checking each schedule against the topology and
    /// accumulating findings into the shared totals; `None` disables it.
    pub fn new(
        inner: E,
        space: &'a DecisionSpace,
        lint: Option<(&'a CommTopology, Arc<LintTotals>)>,
    ) -> Self {
        LintingEvaluator { inner, space, lint }
    }
}

impl<E: Evaluator> Evaluator for LintingEvaluator<'_, E> {
    fn evaluate(&mut self, t: &Traversal, seed: u64) -> Result<BenchResult, SimError> {
        if let Some((topo, totals)) = &self.lint {
            let start = std::time::Instant::now();
            let report = lint_traversal(self.space, t, Some(topo));
            totals.absorb(&report, start.elapsed().as_nanos() as u64);
        }
        self.inner.evaluate(t, seed)
    }

    fn sim_stats(&self) -> Option<&SimStats> {
        self.inner.sim_stats()
    }
}

/// Builds the lint-side communication topology from the pipeline's own
/// ingredients: one [`RankTraffic`](dr_lint::RankTraffic) entry per comm
/// key referenced by the DAG, resolved through the workload, with the
/// platform's eager threshold.
pub fn topology_from_workload<W: Workload>(
    space: &DecisionSpace,
    workload: &W,
    platform: &Platform,
) -> CommTopology {
    let dag = space.dag();
    let keys: BTreeSet<_> = dag
        .user_vertices()
        .filter_map(|v| match &dag.vertex(v).spec {
            OpSpec::PostSends(c)
            | OpSpec::PostRecvs(c)
            | OpSpec::WaitSends(c)
            | OpSpec::WaitRecvs(c)
            | OpSpec::AllReduce(c) => Some(c.clone()),
            _ => None,
        })
        .collect();
    let mut topo =
        CommTopology::new(workload.num_ranks()).with_eager_threshold(platform.eager_threshold);
    for key in keys {
        for rank in 0..workload.num_ranks() {
            if let Some(pattern) = workload.comm(rank, &key) {
                topo.set(key.clone(), rank, pattern.sends, pattern.recvs);
            }
        }
    }
    topo
}

/// Projects a fault plan's message-drop decisions onto a lint topology:
/// every send the simulator would drop under `plan` becomes a lost send
/// the deadlock detector treats as never arriving. Both sides hash the
/// comm key's string with [`dr_fault::key_hash`], so the simulator and
/// the linter agree on exactly which messages vanish — the chaos oracle
/// cross-checks fault-induced `SimError::Deadlock`s against the
/// MPI103/MPI104 verdicts this topology produces.
pub fn apply_fault_plan(topo: &mut CommTopology, plan: &FaultPlan) {
    let keys: Vec<_> = topo.keys().cloned().collect();
    for key in keys {
        let kh = key_hash(&key.0);
        let Some(pat) = topo.pattern(&key) else {
            continue;
        };
        let lost: Vec<(usize, usize)> = pat
            .iter()
            .enumerate()
            .flat_map(|(src, t)| {
                t.sends
                    .iter()
                    .filter(move |&&(dst, _)| {
                        plan.message(kh, src, dst) == Some(MessageFault::Drop)
                    })
                    .map(move |&(dst, _)| (src, dst))
            })
            .collect();
        for (src, dst) in lost {
            topo.add_lost_send(key.clone(), src, dst);
        }
    }
}

/// Outcome of linting an enumerated decision space.
#[derive(Debug, Clone)]
pub struct SpaceLint {
    /// Aggregate counters over every linted schedule.
    pub counters: LintCounters,
    /// Whether enumeration stopped at the schedule cap.
    pub truncated: bool,
    /// Rendered deduplicated diagnostics (capped): each distinct
    /// `(code, items, message)` appears once with its schedule count.
    pub sample: Vec<String>,
    /// Incremental-engine statistics (prefix sharing, pruning).
    pub stats: SpaceLintStats,
    /// Every distinct diagnostic across the space, stably sorted, with
    /// per-diagnostic schedule counts.
    pub diags: Vec<AggregatedDiag>,
}

/// Lints every traversal `space` enumerates (up to `max_schedules`;
/// `0` = unlimited) with the incremental space-level engine: schedules
/// sharing a traversal prefix share happens-before state, so the cost is
/// proportional to distinct prefixes rather than schedules × length.
/// Diagnostics are deduplicated across the space, and verdicts are
/// bit-identical to linting each schedule cold.
pub fn lint_space(
    space: &DecisionSpace,
    topo: Option<&CommTopology>,
    max_schedules: usize,
) -> SpaceLint {
    lint_space_watched(space, topo, max_schedules, None)
}

/// [`lint_space`] with a structured event stream: `lint-start` opens the
/// pass, one `lint-diag` per distinct aggregated diagnostic, and
/// `lint-end` closes it with the aggregate counters. A `None` or
/// disabled sink makes this exactly [`lint_space`].
pub fn lint_space_watched(
    space: &DecisionSpace,
    topo: Option<&CommTopology>,
    max_schedules: usize,
    events: Option<&EventSink>,
) -> SpaceLint {
    const SAMPLE_CAP: usize = 12;
    let events = events.filter(|s| s.is_enabled());
    if let Some(sink) = events {
        sink.emit(
            "lint-start",
            &[
                ("ops", space.num_ops().into()),
                ("max_schedules", max_schedules.into()),
            ],
        );
    }
    let mut counters = LintCounters::default();
    let mut agg = DiagAggregator::new();
    let stats = lint_space_incremental(
        space,
        topo,
        max_schedules as u64,
        None,
        &mut |i, _prefix, report| {
            agg.absorb(i, report);
            counters.absorb(report);
        },
    );
    let diags = agg.entries();
    if let Some(sink) = events {
        for d in &diags {
            sink.emit(
                "lint-diag",
                &[
                    ("code", d.diag.code.as_str().into()),
                    ("message", d.diag.message.as_str().into()),
                    ("schedules", d.schedules.into()),
                    ("first_schedule", d.first_schedule.into()),
                ],
            );
        }
        sink.emit(
            "lint-end",
            &[
                ("schedules", counters.schedules.into()),
                ("errors", counters.errors.into()),
                ("warnings", counters.warnings.into()),
                ("distinct_diags", diags.len().into()),
                ("hb_expansions", stats.hb_expansions.into()),
                ("cold_hb_expansions", stats.cold_hb_expansions.into()),
                ("truncated", u64::from(stats.truncated).into()),
            ],
        );
    }
    let sample: Vec<String> = diags.iter().take(SAMPLE_CAP).map(|d| d.render()).collect();
    SpaceLint {
        counters,
        truncated: stats.truncated,
        sample,
        stats,
        diags,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dr_dag::{CommKey, CostKey, DagBuilder};
    use dr_sim::TableWorkload;

    fn exchange_space() -> DecisionSpace {
        let key = CommKey::new("x");
        let mut b = DagBuilder::new();
        let ps = b.add("ps", OpSpec::PostSends(key.clone()));
        let pr = b.add("pr", OpSpec::PostRecvs(key.clone()));
        let ws = b.add("ws", OpSpec::WaitSends(key.clone()));
        let wr = b.add("wr", OpSpec::WaitRecvs(key));
        b.edge(ps, ws);
        b.edge(pr, wr);
        b.edge(ps, wr);
        DecisionSpace::new(b.build().unwrap(), 1).unwrap()
    }

    fn exchange_workload(bytes: u64) -> TableWorkload {
        let mut w = TableWorkload::new(2);
        w.comm_all_to_all("x", bytes);
        w
    }

    #[test]
    fn topology_mirrors_the_workload() {
        let space = exchange_space();
        let w = exchange_workload(4096);
        let platform = Platform::perlmutter_like();
        let topo = topology_from_workload(&space, &w, &platform);
        let pat = topo.pattern(&CommKey::new("x")).expect("key known");
        assert_eq!(pat.len(), 2);
        assert_eq!(pat[0].sends, vec![(1, 4096)]);
        assert_eq!(pat[1].recvs, vec![(0, 4096)]);
        assert_eq!(topo.is_eager(4096), platform.is_eager(4096));
    }

    #[test]
    fn lint_space_aggregates_and_caps() {
        let space = exchange_space();
        let w = exchange_workload(256);
        let topo = topology_from_workload(&space, &w, &Platform::perlmutter_like());
        let full = lint_space(&space, Some(&topo), 0);
        assert!(!full.truncated);
        assert_eq!(full.counters.errors, 0, "{:?}", full.sample);
        let capped = lint_space(&space, Some(&topo), 1);
        assert!(capped.truncated);
        assert_eq!(capped.counters.schedules, 1);
    }

    #[test]
    fn applied_fault_plan_marks_exactly_the_sims_drops() {
        let space = exchange_space();
        let w = exchange_workload(1 << 20);
        let platform = Platform::perlmutter_like();
        let cfg = dr_fault::FaultConfig::drops();
        let plan = FaultPlan::derive(&cfg, 17);
        let mut topo = topology_from_workload(&space, &w, &platform);
        apply_fault_plan(&mut topo, &plan);
        let key = CommKey::new("x");
        let kh = key_hash(&key.0);
        for (src, dst) in [(0usize, 1usize), (1, 0)] {
            let sim_drops = plan.message(kh, src, dst) == Some(MessageFault::Drop);
            assert_eq!(
                topo.is_lost(&key, src, dst),
                sim_drops,
                "oracle and simulator disagree on {src} -> {dst}"
            );
        }
    }

    #[test]
    fn chaos_oracle_sim_deadlocks_match_lint_verdicts() {
        // The heart of the chaos oracle: for a sweep of seeded drop
        // plans, the simulator's fault-induced deadlocks and the
        // deadlock detector's MPI103/MPI104 verdicts must agree exactly.
        let space = exchange_space();
        let w = exchange_workload(1 << 20); // rendezvous-sized exchange
        let platform = Platform::perlmutter_like().noiseless();
        let t = space.enumerate().next().unwrap();
        let schedule = dr_dag::build_schedule(&space, &t);
        let prog = dr_sim::CompiledProgram::compile(&schedule, &w).unwrap();
        let cfg = dr_fault::FaultConfig::drops();
        let (mut dropping, mut clean) = (0u32, 0u32);
        for seed in 0..24u64 {
            let plan = FaultPlan::derive(&cfg, seed);
            let faulted = platform.clone().with_faults(plan).with_budget(1_000_000);
            let sim = dr_sim::benchmark_instrumented(
                &prog,
                &faulted,
                &dr_sim::BenchConfig::quick(),
                seed,
            );
            let sim_deadlocked = match sim {
                Ok(_) => false,
                Err(dr_sim::SimError::Deadlock { .. } | dr_sim::SimError::Budget { .. }) => true,
                Err(e) => panic!("unexpected simulator error under drops: {e}"),
            };
            let mut topo = topology_from_workload(&space, &w, &platform);
            apply_fault_plan(&mut topo, &plan);
            let report = lint_traversal(&space, &t, Some(&topo));
            let lint_flagged = report.deadlocks() > 0;
            assert_eq!(
                sim_deadlocked, lint_flagged,
                "seed {seed}: simulator deadlock = {sim_deadlocked}, \
                 lint verdict = {lint_flagged}"
            );
            if sim_deadlocked {
                dropping += 1;
            } else {
                clean += 1;
            }
        }
        assert!(dropping > 0, "sweep never dropped a message");
        assert!(clean > 0, "sweep never left a plan clean");
    }

    #[test]
    fn linting_evaluator_counts_without_changing_results() {
        let mut b = DagBuilder::new();
        b.add("k", OpSpec::GpuKernel(CostKey::new("k")));
        let space = DecisionSpace::new(b.build().unwrap(), 1).unwrap();
        let mut w = TableWorkload::new(1);
        w.cost_all("k", 1e-4);
        let platform = Platform::perlmutter_like().noiseless();
        let topo = topology_from_workload(&space, &w, &platform);
        let totals = Arc::new(LintTotals::default());
        let inner = dr_mcts::SimEvaluator::new(&space, &w, &platform, dr_sim::BenchConfig::quick());
        let mut eval = LintingEvaluator::new(inner, &space, Some((&topo, totals.clone())));
        let t = space.enumerate().next().unwrap();
        let res = eval.evaluate(&t, 7).unwrap();
        assert!(res.time() >= 1e-4);
        let summary = totals.summary();
        assert_eq!(summary.schedules, 1);
        assert_eq!(summary.errors, 0);
        assert!(totals.seconds() >= 0.0);
        assert!(eval.sim_stats().is_some());
    }
}
