//! Static schedule analysis wired to the simulator's inputs: the glue
//! the `lint`, `verify-rules` and `chaos` commands share.
//!
//! [`topology_from_workload`] derives the linter's communication
//! topology from the same workload and platform the simulator measures
//! with, [`apply_fault_plan`] marks the sends a fault plan drops, and
//! [`lint_space`] runs `dr-lint`'s incremental engine (happens-before
//! verification, MPI deadlock detection, redundant-sync analysis) over
//! an enumerated decision space.

use dr_dag::{DecisionSpace, OpSpec};
use dr_fault::{key_hash, FaultPlan, MessageFault};
use dr_lint::{
    lint_space_incremental, AggregatedDiag, CommTopology, DiagAggregator, LintCounters,
    SpaceLintStats,
};
use dr_obs::events::EventSink;
use dr_sim::{Platform, Workload};
use std::collections::BTreeSet;

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
    use dr_dag::{CommKey, DagBuilder};
    use dr_lint::lint_traversal;
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
}
