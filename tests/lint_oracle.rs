//! Cross-checks the static lint layer against the simulator (the ground
//! truth for deadlock) and against hand-injected schedule faults: each
//! corruption must surface as exactly the expected rule code.

use cuda_mpi_design_rules::dag::{
    build_schedule, CommKey, CostKey, DagBuilder, DecisionSpace, OpSpec, Schedule, ScheduleAction,
};
use cuda_mpi_design_rules::lint::{lint, lint_space_incremental, RuleCode};
use cuda_mpi_design_rules::pipeline::topology_from_workload;
use cuda_mpi_design_rules::sim::{execute, CompiledProgram, Platform, SimError, TableWorkload};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// The canonical exchange program: post sends/recvs, then wait for both.
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

/// Every traversal of the exchange space, judged by both the lint layer
/// and the simulator: the deadlock verdicts must agree exactly, eager and
/// rendezvous alike — for the cold linter and for every leaf of the
/// incremental space walk, whose prefix matcher is thereby held to the
/// simulator's semantics directly.
#[test]
fn lint_deadlock_verdict_matches_the_simulator() {
    let platform = Platform::perlmutter_like().noiseless();
    for bytes in [256, 1 << 20] {
        let space = exchange_space();
        let mut w = TableWorkload::new(2);
        w.comm_all_to_all("x", bytes);
        let topo = topology_from_workload(&space, &w, &platform);
        let (mut clean, mut dead) = (0, 0);
        let mut sim_verdicts = Vec::new();
        for t in space.enumerate() {
            let schedule = build_schedule(&space, &t);
            let report = lint(&space, &schedule, Some(&topo));
            let prog = CompiledProgram::compile(&schedule, &w).unwrap();
            let sim = execute(&prog, &platform, &mut SmallRng::seed_from_u64(0));
            let sim_deadlocked = matches!(sim, Err(SimError::Deadlock { .. }));
            sim_verdicts.push(sim_deadlocked);
            assert_eq!(
                report.deadlocks() > 0,
                sim_deadlocked,
                "verdicts disagree at {bytes} B on {:?}:\n{}",
                schedule.names(),
                report.render_text()
            );
            if sim_deadlocked {
                dead += 1;
            } else {
                clean += 1;
            }
        }
        assert!(clean > 0, "some orders complete at {bytes} B");
        if bytes > platform.eager_threshold {
            assert!(dead > 0, "some rendezvous orders must deadlock");
        } else {
            assert_eq!(dead, 0, "eager messages never deadlock here");
        }
        // Leaves arrive in enumeration order.
        let walked = lint_space_incremental(&space, Some(&topo), 0, None, &mut |i, _, report| {
            assert_eq!(
                report.deadlocks() > 0,
                sim_verdicts[i as usize],
                "incremental verdict disagrees at {bytes} B on schedule #{i}:\n{}",
                report.render_text()
            );
        });
        assert_eq!(walked.schedules as usize, sim_verdicts.len());
    }
}

/// A two-kernel dependent space wide enough to force cross-stream glue.
fn two_kernel_space() -> DecisionSpace {
    let mut b = DagBuilder::new();
    let g1 = b.add("g1", OpSpec::GpuKernel(CostKey::new("g1")));
    let g2 = b.add("g2", OpSpec::GpuKernel(CostKey::new("g2")));
    b.edge(g1, g2);
    DecisionSpace::new(b.build().unwrap(), 2).unwrap()
}

/// A lowered schedule that actually uses a `StreamWaitEvent` (kernels on
/// different streams).
fn cross_stream_schedule(space: &DecisionSpace) -> Schedule {
    space
        .enumerate()
        .map(|t| build_schedule(space, &t))
        .find(|s| {
            s.items
                .iter()
                .any(|i| matches!(i.action, ScheduleAction::StreamWaitEvent { .. }))
        })
        .expect("a 2-stream space has a cross-stream lowering")
}

#[test]
fn dropping_the_stream_wait_is_a_race() {
    let space = two_kernel_space();
    let mut s = cross_stream_schedule(&space);
    s.items
        .retain(|i| !matches!(i.action, ScheduleAction::StreamWaitEvent { .. }));
    let report = lint(&space, &s, None);
    assert!(report.has_code(RuleCode::Hb001), "{}", report.render_text());
    assert!(report.races() > 0);
}

#[test]
fn swapping_record_and_wait_order_is_flagged() {
    let space = two_kernel_space();
    let mut s = cross_stream_schedule(&space);
    let rec = s
        .items
        .iter()
        .position(|i| matches!(i.action, ScheduleAction::EventRecord { .. }))
        .unwrap();
    let wait = s
        .items
        .iter()
        .position(|i| matches!(i.action, ScheduleAction::StreamWaitEvent { .. }))
        .unwrap();
    assert!(rec < wait, "lowering records before waiting");
    s.items.swap(rec, wait);
    let report = lint(&space, &s, None);
    assert!(report.has_code(RuleCode::Hb002), "{}", report.render_text());
    assert!(report.races() > 0);
}

#[test]
fn waiting_for_sends_that_are_never_posted_is_a_deadlock() {
    // A receive-only program against a topology that expects traffic:
    // the matching remote PostSends never appears in the (SPMD) schedule.
    let key = CommKey::new("x");
    let mut b = DagBuilder::new();
    let pr = b.add("pr", OpSpec::PostRecvs(key.clone()));
    let wr = b.add("wr", OpSpec::WaitRecvs(key));
    b.edge(pr, wr);
    let space = DecisionSpace::new(b.build().unwrap(), 1).unwrap();
    let mut w = TableWorkload::new(2);
    w.comm_all_to_all("x", 1 << 20);
    let topo = topology_from_workload(&space, &w, &Platform::perlmutter_like());
    let t = space.enumerate().next().unwrap();
    let report = lint(&space, &build_schedule(&space, &t), Some(&topo));
    assert!(
        report.has_code(RuleCode::Mpi103),
        "{}",
        report.render_text()
    );
    assert!(report.deadlocks() > 0);
}

#[test]
fn over_synchronized_join_is_reported_as_redundant() {
    // Two GPU kernels feeding one CPU join: when both land on the same
    // stream, the lowering's per-edge event sync is partly dominated by
    // stream FIFO order — the lint layer must say so.
    let mut b = DagBuilder::new();
    let g1 = b.add("g1", OpSpec::GpuKernel(CostKey::new("g1")));
    let g2 = b.add("g2", OpSpec::GpuKernel(CostKey::new("g2")));
    let c = b.add("c", OpSpec::CpuWork(CostKey::new("c")));
    b.edge(g1, c);
    b.edge(g2, c);
    let space = DecisionSpace::new(b.build().unwrap(), 2).unwrap();
    let same_stream = space
        .enumerate()
        .find(|t| {
            let streams: Vec<_> = t.steps.iter().filter_map(|p| p.stream).collect();
            streams.len() == 2 && streams[0] == streams[1]
        })
        .expect("some traversal runs both kernels on one stream");
    let report = lint(&space, &build_schedule(&space, &same_stream), None);
    assert_eq!(report.errors().count(), 0, "{}", report.render_text());
    assert!(report.has_code(RuleCode::Rs003), "{}", report.render_text());
    assert!(report.redundant_syncs() > 0);
}
