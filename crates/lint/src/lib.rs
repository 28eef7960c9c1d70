//! # dr-lint — static analysis of lowered CUDA+MPI schedules
//!
//! The exploration pipeline trusts that every traversal of the program
//! DAG lowers to a *correct* implementation and only asks which ones are
//! *fast*. This crate is the independent checker of that trust: it
//! analyzes a [`DecisionSpace`] plus a lowered [`Schedule`] without
//! running the simulator.
//!
//! Three analyses:
//!
//! * **Happens-before verification** ([`verify_happens_before`]) —
//!   reconstructs the partial order induced by host issue order, stream
//!   FIFO order, and `EventRecord` / `StreamWaitEvent` / `EventSync` /
//!   `DeviceSync`, then checks that every DAG dependency edge is covered.
//!   Uncovered edges are races (`HB001`); waits on never-recorded events
//!   are `HB002`.
//! * **MPI deadlock detection** ([`detect_deadlocks`]) — matches posted
//!   sends/receives across ranks from a [`CommTopology`] and abstractly
//!   executes the blocking actions (`WaitSends`/`WaitRecvs`/`AllReduce`)
//!   round-robin to quiescence; unmatched or cyclically-blocked
//!   communication is `MPI101`–`MPI107`.
//! * **Redundant-sync analysis** ([`find_redundant_syncs`]) — finds sync
//!   effects whose removal leaves dependency-edge coverage unchanged
//!   (`RS001`–`RS004`): pure overhead, and prime design-rule material.
//!
//! Diagnostics carry a stable [`RuleCode`], a [`Severity`], the offending
//! schedule items and decision ops, and render as text or JSON.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod deadlock;
mod diag;
mod hb;
mod redundant;
mod space;
mod topo;

pub use deadlock::detect_deadlocks;
pub use diag::{
    AggregatedDiag, DiagAggregator, Diagnostic, LintCounters, LintReport, RuleCode, Severity,
};
pub use hb::verify_happens_before;
pub use redundant::find_redundant_syncs;
pub use space::{lint_space_incremental, SpaceLintStats};
pub use topo::{CommTopology, RankTraffic};

use dr_dag::{build_schedule, DecisionSpace, Schedule, Traversal};

/// Runs every analysis over one lowered schedule.
///
/// Pass a [`CommTopology`] to enable deadlock detection; without one only
/// the happens-before and redundancy analyses run (the schedule's MPI
/// actions cannot be matched across ranks).
pub fn lint(space: &DecisionSpace, schedule: &Schedule, topo: Option<&CommTopology>) -> LintReport {
    let mut diags = verify_happens_before(space, schedule);
    if let Some(topo) = topo {
        diags.extend(detect_deadlocks(schedule, topo));
    }
    diags.extend(find_redundant_syncs(space, schedule));
    LintReport::new(diags)
}

/// Validates `t` against `space`, lowers it, and lints the result.
///
/// Invalid traversals produce a single `SCHED003` error instead of a
/// panic, so untrusted input is safe to feed in.
pub fn lint_traversal(
    space: &DecisionSpace,
    t: &Traversal,
    topo: Option<&CommTopology>,
) -> LintReport {
    if let Err(e) = space.validate(t) {
        return LintReport::new(vec![Diagnostic::new(
            RuleCode::Sched003,
            format!("invalid traversal: {e}"),
        )]);
    }
    lint(space, &build_schedule(space, t), topo)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dr_dag::{CommKey, CostKey, DagBuilder, OpSpec};

    /// The canonical exchange program: post sends/recvs, kernels, waits.
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

    fn topo(bytes: u64) -> CommTopology {
        let mut t = CommTopology::new(2).with_eager_threshold(1024);
        t.all_to_all(CommKey::new("x"), bytes);
        t
    }

    #[test]
    fn every_exchange_traversal_lints_clean_with_eager_messages() {
        let sp = exchange_space();
        let topo = topo(512);
        for t in sp.enumerate() {
            let report = lint_traversal(&sp, &t, Some(&topo));
            assert!(report.is_clean(), "{t:?}: {}", report.render_text());
        }
    }

    #[test]
    fn rendezvous_exchange_orders_split_into_clean_and_deadlocked() {
        // With big messages, orders where WaitSends precedes PostRecvs
        // deadlock; the detector must agree with the DAG's freedom.
        let sp = exchange_space();
        let topo = topo(1 << 20);
        let mut clean = 0;
        let mut deadlocked = 0;
        for t in sp.enumerate() {
            let report = lint_traversal(&sp, &t, Some(&topo));
            if report.deadlocks() > 0 {
                deadlocked += 1;
            } else {
                assert!(report.is_clean(), "{}", report.render_text());
                clean += 1;
            }
        }
        assert!(clean > 0, "some orders post receives before waiting");
        assert!(deadlocked > 0, "some orders wait before the remote post");
    }

    #[test]
    fn invalid_traversal_is_sched003_not_a_panic() {
        let sp = exchange_space();
        let report = lint_traversal(&sp, &Traversal { steps: vec![] }, None);
        assert!(report.has_code(RuleCode::Sched003));
        assert!(!report.is_clean());
    }

    #[test]
    fn report_json_is_well_formed_enough() {
        let mut b = DagBuilder::new();
        b.add("g", OpSpec::GpuKernel(CostKey::new("g")));
        let sp = DecisionSpace::new(b.build().unwrap(), 1).unwrap();
        let t = sp.enumerate().next().unwrap();
        let report = lint_traversal(&sp, &t, None);
        let json = report.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"diagnostics\":["));
    }
}
