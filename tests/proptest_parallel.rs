//! Property tests on the parallel exploration substrate: per-worker
//! simulator statistics merge back to exactly what a serial accumulation
//! yields.

mod common;

use common::{arb_small_space, workload_for};
use cuda_mpi_design_rules::dag::eval_seed;
use cuda_mpi_design_rules::mcts::{Evaluator, SimEvaluator};
use cuda_mpi_design_rules::par::{par_map_stream, FailurePolicy, ItemOutcome, PoolConfig};
use cuda_mpi_design_rules::sim::{BenchConfig, Platform, SimStats};
use cuda_mpi_design_rules::trace::Tracer;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Evaluating a space partitioned across workers and merging the
    /// per-worker SimStats in worker order reproduces the serial
    /// accumulation: u64 counters exactly, busy-time sums to fp
    /// tolerance (summation order differs).
    #[test]
    fn worker_stats_merge_to_serial_accumulation(
        space in arb_small_space(4, 200),
        threads in 2usize..5,
    ) {
        let w = workload_for(&space);
        let platform = Platform::perlmutter_like();

        let mut serial = SimEvaluator::new(&space, &w, &platform, BenchConfig::quick());
        for t in space.enumerate() {
            serial.evaluate(&t, eval_seed(11, &t)).unwrap();
        }
        let serial_stats = serial.stats().clone();

        let tracer = Tracer::disabled();
        let pool = PoolConfig {
            threads,
            policy: FailurePolicy::Abort,
            tracer: &tracer,
            dispatch: None,
            events: None,
        };
        let out = par_map_stream(
            space.enumerate(),
            &pool,
            |_worker| SimEvaluator::new(&space, &w, &platform, BenchConfig::quick()),
            |eval, _i, t| eval.evaluate(t, eval_seed(11, t)),
        );
        prop_assert!(out.items.iter().all(|(_, o)| matches!(o, ItemOutcome::Ok(_))));
        let mut merged = SimStats::default();
        for s in &out.states {
            merged.merge(s.stats());
        }

        prop_assert_eq!(merged.runs, serial_stats.runs);
        prop_assert_eq!(merged.instructions, serial_stats.instructions);
        prop_assert_eq!(merged.eager_msgs, serial_stats.eager_msgs);
        prop_assert_eq!(merged.rendezvous_msgs, serial_stats.rendezvous_msgs);
        prop_assert_eq!(merged.bytes_moved, serial_stats.bytes_moved);
        prop_assert_eq!(merged.collective_ops, serial_stats.collective_ops);
        prop_assert_eq!(merged.sync_ops(), serial_stats.sync_ops());
        prop_assert_eq!(merged.cpu_busy.len(), serial_stats.cpu_busy.len());
        for (a, b) in merged.cpu_busy.iter().zip(&serial_stats.cpu_busy) {
            prop_assert!((a - b).abs() <= 1e-9 * b.abs().max(1.0), "{a} vs {b}");
        }
        for (ra, rb) in merged.stream_busy.iter().zip(&serial_stats.stream_busy) {
            for (a, b) in ra.iter().zip(rb) {
                prop_assert!((a - b).abs() <= 1e-9 * b.abs().max(1.0), "{a} vs {b}");
            }
        }
    }
}
