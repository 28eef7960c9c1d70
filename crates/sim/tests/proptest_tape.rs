//! Property tests for the replay tape: a tape keeps its per-sample state
//! and resets it in place, so replaying sample `k` after arbitrary
//! earlier samples must equal a fresh tape's replay of `k` — outcome,
//! statistics and fault counters alike — and recording a trace must not
//! change any of them. A pass of `W` lanes must equal `W` such replays,
//! lane by lane. A program that cannot run fails when it is lowered,
//! with the error `execute_seeded` reports. Schedules are arbitrary
//! traversals of a halo-exchange decision space; platforms are
//! noiseless, noisy, under the `light`, `heavy` or `drops` fault presets,
//! or under a step budget that some programs exhaust.

use dr_dag::{build_schedule, CommKey, CostKey, DagBuilder, DecisionSpace, OpSpec};
use dr_sim::{
    execute_seeded, CompiledProgram, FaultConfig, FaultPlan, Platform, Resource, SimError,
    TableWorkload, Tape, Trace,
};
use proptest::prelude::*;

/// The halo-exchange space the schedules are drawn from: two kernels
/// feeding a send/recv/wait quad plus post-processing, on two streams.
fn halo_space() -> (DecisionSpace, TableWorkload) {
    let mut b = DagBuilder::new();
    let key = CommKey::new("halo");
    let pre = b.add("pre", OpSpec::CpuWork(CostKey::new("pre")));
    let k1 = b.add("k1", OpSpec::GpuKernel(CostKey::new("k1")));
    let k2 = b.add("k2", OpSpec::GpuKernel(CostKey::new("k2")));
    let ps = b.add("PostSends", OpSpec::PostSends(key.clone()));
    let pr = b.add("PostRecvs", OpSpec::PostRecvs(key.clone()));
    let ws = b.add("WaitSends", OpSpec::WaitSends(key.clone()));
    let wr = b.add("WaitRecvs", OpSpec::WaitRecvs(key));
    let post = b.add("post", OpSpec::CpuWork(CostKey::new("post")));
    b.edge(pre, k1);
    b.edge(pre, k2);
    b.edge(k1, ps);
    b.edge(k2, ps);
    b.edge(ps, ws);
    b.edge(pr, wr);
    b.edge(ps, wr);
    // Every rank runs the same schedule, so a traversal that waits on
    // sends before posting recvs deadlocks all ranks symmetrically.
    // Pin PostRecvs before WaitSends to keep the whole space runnable.
    b.edge(pr, ws);
    b.edge(wr, post);
    let sp = DecisionSpace::new(b.build().unwrap(), 2).unwrap();
    let mut w = TableWorkload::new(3);
    w.cost_all("pre", 4e-5);
    w.cost_all("k1", 8e-5);
    w.cost_all("k2", 6e-5);
    w.cost_all("post", 3e-5);
    w.comm_all_to_all("halo", 1 << 16);
    (sp, w)
}

/// Compiles the `pick`-th enumerated traversal (modulo the space size).
fn program(pick: usize) -> CompiledProgram {
    let (sp, w) = halo_space();
    let all: Vec<_> = sp.enumerate().collect();
    let t = &all[pick % all.len()];
    CompiledProgram::compile(&build_schedule(&sp, t), &w).unwrap()
}

/// Platform `kind` for `prog`, with the fault plan keyed by `eval_seed`
/// as the pipeline derives it. Kind 4 caps steps at up to a few past
/// the program's instruction count (`0` = unlimited), so some programs
/// exhaust it and others complete. Kind 5 loses messages, so some
/// programs end in a deadlock.
fn platform(kind: usize, eval_seed: u64, prog: &CompiledProgram) -> Platform {
    let noisy = Platform::perlmutter_like();
    match kind {
        0 => noisy.noiseless(),
        1 => noisy,
        2 => noisy.with_faults(FaultPlan::derive(&FaultConfig::light(), eval_seed)),
        3 => noisy.with_faults(FaultPlan::derive(&FaultConfig::heavy(), eval_seed)),
        5 => noisy.with_faults(FaultPlan::derive(&FaultConfig::drops(), eval_seed)),
        _ => {
            let instructions = prog.instrs.iter().map(Vec::len).sum::<usize>() as u64;
            noisy.with_budget(eval_seed % (instructions + 4))
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn a_reused_tape_replays_sample_k_like_a_fresh_tape(
        pick in 0usize..64,
        kind in 0usize..5,
        eval_seed in any::<u64>(),
        earlier in proptest::collection::vec(any::<u64>(), 0..8),
        k in any::<u64>(),
    ) {
        let prog = program(pick);
        let platform = platform(kind, eval_seed, &prog);
        let mut reused = match Tape::lower(&prog, &platform) {
            Ok(tape) => tape,
            Err(e) => {
                prop_assert_eq!(execute_seeded(&prog, &platform, k), Err(e));
                return;
            }
        };
        for &seed in &earlier {
            reused.replay(seed, None);
        }
        let fresh = Tape::lower(&prog, &platform).unwrap().replay(k, None);
        prop_assert_eq!(reused.replay(k, None), fresh.clone());
        prop_assert_eq!(execute_seeded(&prog, &platform, k), Ok(fresh));
    }

    #[test]
    fn traced_replay_equals_untraced_replay(
        pick in 0usize..64,
        kind in 0usize..5,
        eval_seed in any::<u64>(),
        earlier in proptest::collection::vec(any::<u64>(), 0..8),
        k in any::<u64>(),
    ) {
        let prog = program(pick);
        let platform = platform(kind, eval_seed, &prog);
        let Ok(mut tape) = Tape::lower(&prog, &platform) else {
            return;
        };
        for &seed in &earlier {
            tape.replay(seed, Some(&mut Trace::default()));
        }
        let plain = tape.replay(k, None);
        let mut trace = Trace::default();
        let traced = tape.replay(k, Some(&mut trace));
        prop_assert_eq!(&traced, &plain);
        let mut fresh = Trace::default();
        Tape::lower(&prog, &platform).unwrap().replay(k, Some(&mut fresh));
        prop_assert_eq!(&trace, &fresh);
        // One host span per retired instruction, and the last span of
        // every rank ends at its finish time.
        let (outcome, stats) = plain;
        let cpu = trace.events.iter().filter(|e| e.resource == Resource::Cpu);
        prop_assert_eq!(cpu.count() as u64, stats.instructions);
        for (r, &t) in outcome.rank_times.iter().enumerate() {
            let last = trace.rank(r).filter(|e| e.resource == Resource::Cpu).last();
            prop_assert_eq!(last.map(|e| e.end), Some(t));
        }
    }
}

/// What one replay measured.
type Replay = (dr_sim::ExecOutcome, dr_sim::SimStats);

/// One `W`-lane pass over the first `W` of `seeds` and the scalar replays
/// of the same seeds, on one reused tape.
fn lanes_and_scalars<const W: usize>(
    tape: &mut Tape<'_>,
    seeds: &[u64],
) -> (Vec<Replay>, Vec<Replay>) {
    let seeds: [u64; W] = seeds[..W].try_into().expect("enough seeds");
    let pass = tape.replay_lanes(seeds).to_vec();
    let scalar = seeds.iter().map(|&k| tape.replay(k, None)).collect();
    (pass, scalar)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn a_lane_pass_equals_scalar_replays_lane_by_lane(
        pick in 0usize..64,
        kind in 0usize..6,
        eval_seed in any::<u64>(),
        seeds in proptest::collection::vec(any::<u64>(), 8),
    ) {
        let prog = program(pick);
        let platform = platform(kind, eval_seed, &prog);
        let Ok(mut tape) = Tape::lower(&prog, &platform) else {
            return;
        };
        // Outcome and stats (busy times included), lane by lane.
        let (pass, scalar) = lanes_and_scalars::<2>(&mut tape, &seeds);
        prop_assert_eq!(pass, scalar);
        let (pass, scalar) = lanes_and_scalars::<4>(&mut tape, &seeds);
        prop_assert_eq!(pass, scalar);
        let (pass, scalar) = lanes_and_scalars::<8>(&mut tape, &seeds);
        prop_assert_eq!(pass, scalar);
    }
}

/// Lost messages deadlock some programs of the space, and those fail
/// when lowered, before any lane runs; every other program's lane passes
/// equal its scalar replays.
#[test]
fn drop_deadlocks_fail_at_lowering_and_other_lanes_match() {
    let (mut deadlocked, mut ran) = (0, 0);
    for pick in 0..64 {
        let prog = program(pick);
        for eval_seed in 0..4u64 {
            let seeds: Vec<u64> = (0..8).map(|l| eval_seed * 8 + l).collect();
            let platform = platform(5, eval_seed, &prog);
            match Tape::lower(&prog, &platform) {
                Ok(mut tape) => {
                    let (pass, scalar) = lanes_and_scalars::<8>(&mut tape, &seeds);
                    assert_eq!(pass, scalar, "pick {pick} seed {eval_seed}");
                    ran += 1;
                }
                Err(e) => {
                    assert!(matches!(e, SimError::Deadlock { .. }), "{e}");
                    deadlocked += 1;
                }
            }
        }
    }
    assert!(deadlocked > 0, "no program deadlocked on a dropped message");
    assert!(ran > 0, "every program deadlocked");
}
