//! Determinism regression for the parallel exploration engine: for every
//! strategy and thread count, `explore_parallel` must produce the same
//! `(traversal, time)` set as the serial backend — on a *noisy* platform,
//! where any seed drift (per-index seeds, worker-dependent seeds, cache
//! races) would surface as differing measurement bits. One property test
//! then draws the engine's whole configuration — strategy, threads,
//! observation, failure policy — and checks every draw against the
//! serial, silent, aborting run.

mod common;

use common::{arb_small_space, sim_counters, strategies, workload_for};
use cuda_mpi_design_rules::dag::{CostKey, DagBuilder, DecisionSpace, OpSpec, Traversal};
use cuda_mpi_design_rules::mcts::{Evaluator, ExploredRecord, MctsConfig, SimEvaluator};
use cuda_mpi_design_rules::obs::{EventSink, SharedBuf};
use cuda_mpi_design_rules::pipeline::{
    explore_instrumented, explore_parallel, records_fingerprint, ExploreCtx, ExploreOutput,
    FailurePolicy, Strategy,
};
use cuda_mpi_design_rules::sim::{
    BenchConfig, BenchResult, Platform, SimError, SimStats, TableWorkload,
};
use cuda_mpi_design_rules::trace::Tracer;
use proptest::prelude::*;
use std::collections::HashSet;

/// A small space (12 traversals) whose every traversal any reasonable
/// budget covers, on a platform with measurement noise left ON.
fn setup() -> (DecisionSpace, TableWorkload, Platform) {
    let mut b = DagBuilder::new();
    let a = b.add("a", OpSpec::GpuKernel(CostKey::new("a")));
    let g = b.add("b", OpSpec::GpuKernel(CostKey::new("b")));
    let c = b.add("c", OpSpec::CpuWork(CostKey::new("c")));
    b.edge(a, c);
    b.edge(g, c);
    let space = DecisionSpace::new(b.build().unwrap(), 2).unwrap();
    let mut w = TableWorkload::new(1);
    w.cost_all("a", 3e-4)
        .cost_all("b", 2e-4)
        .cost_all("c", 1e-5);
    (space, w, Platform::perlmutter_like())
}

type RecordSet = HashSet<(Traversal, u64)>;

fn serial_set(strategy: Strategy) -> RecordSet {
    let (space, w, platform) = setup();
    let eval = SimEvaluator::new(&space, &w, &platform, BenchConfig::quick());
    let (records, _, _) = explore_instrumented(&space, eval, strategy).unwrap();
    records
        .into_iter()
        .map(|r| (r.traversal, r.result.time().to_bits()))
        .collect()
}

fn parallel_set(strategy: Strategy, threads: usize) -> (RecordSet, u64) {
    let (space, w, platform) = setup();
    let out = explore_parallel(
        &space,
        || SimEvaluator::new(&space, &w, &platform, BenchConfig::quick()),
        strategy,
        &ExploreCtx::new(threads),
    )
    .unwrap();
    let sim_runs = out.sim.as_ref().map(|s| s.runs).unwrap_or(0);
    let set = out
        .records
        .into_iter()
        .map(|r| (r.traversal, r.result.time().to_bits()))
        .collect();
    (set, sim_runs)
}

fn assert_thread_count_invariant(strategy: Strategy) {
    let serial = serial_set(strategy);
    assert!(!serial.is_empty());
    let (_, serial_runs) = parallel_set(strategy, 1);
    for threads in [1usize, 2, 4] {
        let (par, runs) = parallel_set(strategy, threads);
        assert_eq!(
            par,
            serial,
            "{} with {threads} threads diverged from the serial record set",
            strategy.name()
        );
        // Each unique traversal is simulated exactly once per run, so
        // the merged u64 sim counters are thread-count-invariant too.
        assert_eq!(runs, serial_runs, "{} sim runs drifted", strategy.name());
    }
}

#[test]
fn exhaustive_is_thread_count_invariant() {
    assert_thread_count_invariant(Strategy::Exhaustive);
}

#[test]
fn random_is_thread_count_invariant() {
    assert_thread_count_invariant(Strategy::Random {
        iterations: 60,
        seed: 5,
    });
}

#[test]
fn mcts_at_exhaustion_is_thread_count_invariant() {
    // 300 iterations vastly exceed the 12-traversal space: every worker
    // tree exhausts, so the merged set equals the serial search's.
    assert_thread_count_invariant(Strategy::Mcts {
        iterations: 300,
        config: MctsConfig {
            seed: 17,
            ..Default::default()
        },
    });
}

#[test]
fn shared_tree_fingerprints_match_serial_bit_for_bit_at_exhaustion() {
    // The run ledger's record fingerprint hashes the record *list* in
    // order, so this is stricter than set equality: above one thread the
    // engine sorts records canonically and must hand back the identical
    // sequence of (traversal, time) bits at two and at four workers once
    // the space exhausts — and the one-thread run, whose list keeps
    // discovery order, must fingerprint the same once sorted.
    let strategy = Strategy::Mcts {
        iterations: 300,
        config: MctsConfig {
            seed: 17,
            ..Default::default()
        },
    };
    let (space, w, platform) = setup();
    let fingerprint = |threads: usize| {
        let mut records = explore_parallel(
            &space,
            || SimEvaluator::new(&space, &w, &platform, BenchConfig::quick()),
            strategy,
            &ExploreCtx::new(threads),
        )
        .unwrap()
        .records;
        let listed = records_fingerprint(&records);
        records.sort_by_key(|r| r.traversal.canonical_hash());
        (listed, records_fingerprint(&records), records.len())
    };
    let (_, serial_fp, serial_len) = fingerprint(1);
    assert_eq!(serial_len, 12, "budget must exhaust the 12-traversal space");
    for threads in [2, 4] {
        let (listed, sorted, len) = fingerprint(threads);
        assert_eq!(len, serial_len);
        assert_eq!(listed, sorted, "{threads} workers return sorted records");
        assert_eq!(
            listed, serial_fp,
            "record fingerprint drifted between 1 and {threads} workers"
        );
    }
}

#[test]
fn parallel_runs_are_repeatable() {
    // Same (seed, threads) twice → identical everything on the
    // 4-thread MCTS path, whose evaluations race across threads.
    let strategy = Strategy::Mcts {
        iterations: 300,
        config: MctsConfig {
            seed: 23,
            ..Default::default()
        },
    };
    let (a, _) = parallel_set(strategy, 4);
    let (b, _) = parallel_set(strategy, 4);
    assert_eq!(a, b);
}

/// Fails traversals by canonical-hash residue — an error on 0 and 2, a
/// panic on 1 — and measures the rest, so every run meets the same
/// failures wherever and whenever it evaluates them.
struct Chaotic<'a>(SimEvaluator<'a, TableWorkload>);

impl Evaluator for Chaotic<'_> {
    fn evaluate(&mut self, t: &Traversal, seed: u64) -> Result<BenchResult, SimError> {
        match t.canonical_hash() % 4 {
            0 | 2 => Err(SimError::Faulted {
                detail: "injected failure".into(),
            }),
            1 => panic!("injected panic"),
            _ => self.0.evaluate(t, seed),
        }
    }

    fn sim_stats(&self) -> Option<&SimStats> {
        self.0.sim_stats()
    }
}

/// An engine context; `observed` turns on a live tracer and event sink.
fn drawn_ctx(threads: usize, observed: bool, policy: FailurePolicy) -> ExploreCtx {
    let mut ctx = ExploreCtx {
        policy,
        ..ExploreCtx::new(threads)
    };
    if observed {
        ctx.tracer = Tracer::new();
        ctx.events = Some(EventSink::new("prop").with_writer(Box::new(SharedBuf::new())));
    }
    ctx
}

/// The record fingerprint, over the records in canonical-hash order for
/// MCTS: one thread returns discovery order, more threads hash order,
/// and both must cover the same set at exhaustion.
fn fingerprint(strategy: Strategy, records: &[ExploredRecord]) -> u64 {
    let mut records = records.to_vec();
    if matches!(strategy, Strategy::Mcts { .. }) {
        records.sort_by_key(|r| r.traversal.canonical_hash());
    }
    records_fingerprint(&records)
}

/// The simulator's `u64` counters of an exploration.
fn counters(out: &ExploreOutput) -> Option<[u64; 6]> {
    out.sim.as_ref().map(sim_counters)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Thread count, observation, and failure policy never change what a
    /// clean exploration returns; under chaos, quarantine keeps the same
    /// survivors and the same failed traversals for every thread count
    /// and observation.
    #[test]
    fn engine_policy_draws_match_the_serial_silent_aborting_run(
        space in arb_small_space(4, 200),
        (kind, seed) in (0usize..3, 0u64..1_000),
        three_threads in any::<bool>(),
        observed in any::<bool>(),
        quarantine in any::<bool>(),
    ) {
        let w = workload_for(&space);
        let platform = Platform::perlmutter_like();
        let strategy = strategies(seed, &space)[kind];
        let threads = if three_threads { 3 } else { 1 };
        let policy = if quarantine { FailurePolicy::Quarantine } else { FailurePolicy::Abort };
        let clean = |ctx: &ExploreCtx| {
            explore_parallel(
                &space,
                || SimEvaluator::new(&space, &w, &platform, BenchConfig::quick()),
                strategy,
                ctx,
            )
            .unwrap()
        };

        let reference = clean(&drawn_ctx(1, false, FailurePolicy::Abort));
        let ctx = drawn_ctx(threads, observed, policy);
        let out = clean(&ctx);
        prop_assert_eq!(out.threads, threads);
        if observed {
            prop_assert!(ctx.events.as_ref().unwrap().seq() > 0, "the sink saw the run");
        }
        prop_assert_eq!(
            fingerprint(strategy, &out.records),
            fingerprint(strategy, &reference.records)
        );
        prop_assert_eq!(counters(&out), counters(&reference));
        prop_assert!(out.failures.is_empty() && out.quarantined == 0);
        // Batch width follows the thread count, so an MCTS trajectory —
        // and with it the telemetry — is only comparable at equal width.
        let telemetry_reference = match strategy {
            Strategy::Mcts { .. } if threads > 1 => {
                let r = clean(&drawn_ctx(threads, false, FailurePolicy::Abort));
                prop_assert!(r.exhausted && reference.exhausted);
                r.telemetry
            }
            _ => reference.telemetry,
        };
        prop_assert_eq!(out.telemetry.to_csv(), telemetry_reference.to_csv());

        if policy == FailurePolicy::Quarantine {
            let chaotic = |ctx: &ExploreCtx| {
                explore_parallel(
                    &space,
                    || Chaotic(SimEvaluator::new(&space, &w, &platform, BenchConfig::quick())),
                    strategy,
                    ctx,
                )
                .unwrap()
            };
            let reference = chaotic(&drawn_ctx(1, false, policy));
            let ctx = drawn_ctx(threads, observed, policy);
            let out = chaotic(&ctx);
            if observed {
                prop_assert!(ctx.events.as_ref().unwrap().seq() > 0, "the sink saw the run");
            }
            prop_assert_eq!(
                fingerprint(strategy, &out.records),
                fingerprint(strategy, &reference.records)
            );
            let failed = |o: &ExploreOutput| -> Vec<Traversal> {
                o.failures.iter().map(|(t, _)| t.clone()).collect()
            };
            prop_assert_eq!(failed(&out), failed(&reference));
            prop_assert_eq!(out.quarantined, reference.quarantined);
            // Exactly the residue-3 traversals survive, and each failure
            // carries its injected cause: panics were contained as
            // structured errors.
            let survives = |t: &Traversal| t.canonical_hash() % 4 == 3;
            prop_assert!(out.records.iter().all(|r| survives(&r.traversal)));
            for (t, e) in &out.failures {
                if t.canonical_hash() % 4 == 1 {
                    prop_assert!(matches!(e, SimError::Panicked { .. }), "{e}");
                } else {
                    prop_assert!(!survives(t) && matches!(e, SimError::Faulted { .. }), "{e}");
                }
            }
            let total = space.count_traversals() as usize;
            let survivors = space.enumerate().filter(survives).count();
            match strategy {
                Strategy::Exhaustive => {
                    prop_assert_eq!(out.records.len(), survivors);
                    prop_assert_eq!(out.failures.len(), total - survivors);
                    prop_assert_eq!(out.quarantined as usize, out.failures.len());
                }
                Strategy::Random { iterations, .. } => {
                    prop_assert_eq!(out.quarantined as usize, out.failures.len());
                    prop_assert_eq!(out.telemetry.len(), iterations, "one row per iteration");
                }
                Strategy::Mcts { .. } => {
                    prop_assert!(out.exhausted);
                    prop_assert_eq!(out.records.len(), survivors);
                    prop_assert_eq!(out.quarantined as usize, total - survivors);
                }
            }
        }
    }
}
