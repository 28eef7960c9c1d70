//! Property tests on the structured event stream: for arbitrary small
//! decision spaces and search configurations, a watched pipeline run
//! with four worker threads emits an NDJSON stream in which **every**
//! line parses under the workspace JSON grammar, every line carries the
//! schema tag and the same run id, and the sequence numbers are gapless
//! — while the explored record set stays bit-identical to an unwatched
//! run of the same configuration.

mod common;

use common::{arb_small_space, workload_for};
use cuda_mpi_design_rules::mcts::MctsConfig;
use cuda_mpi_design_rules::obs::json;
use cuda_mpi_design_rules::obs::{EventSink, SharedBuf, EVENTS_SCHEMA};
use cuda_mpi_design_rules::pipeline::{
    run_pipeline, run_pipeline_stored, PipelineConfig, RunCtx, Strategy,
};
use cuda_mpi_design_rules::sim::Platform;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn watched_runs_stream_parsable_gapless_events_and_identical_records(
        space in arb_small_space(4, 200),
        seed in 0u64..1_000,
        iterations in 8usize..48,
        random in any::<bool>(),
    ) {
        let w = workload_for(&space);
        let platform = Platform::perlmutter_like();
        let strategy = if random {
            Strategy::Random { iterations, seed }
        } else {
            Strategy::Mcts {
                iterations,
                config: MctsConfig { seed, ..Default::default() },
            }
        };
        // Four worker threads — the same parallelism `DR_THREADS=4`
        // selects on the command line.
        let cfg = PipelineConfig { threads: 4, ..PipelineConfig::quick() };

        let buf = SharedBuf::new();
        let sink = EventSink::new("run-prop").with_writer(Box::new(buf.clone()));
        let ctx = RunCtx { events: Some(sink.clone()), ..RunCtx::new(cfg) };
        let watched = run_pipeline_stored(&space, &w, &platform, strategy, &ctx).unwrap();
        let silent = run_pipeline(&space, &w, &platform, strategy, &cfg).unwrap();

        // Bit-identity: observation must not perturb the search.
        let key = |r: &cuda_mpi_design_rules::mcts::ExploredRecord| {
            (r.traversal.canonical_hash(), r.result.time().to_bits())
        };
        let mut a: Vec<_> = watched.result.records.iter().map(key).collect();
        let mut b: Vec<_> = silent.records.iter().map(key).collect();
        a.sort_unstable();
        b.sort_unstable();
        prop_assert_eq!(a, b);

        // Every line parses; schema/run are constant; seqs are gapless.
        let text = buf.contents();
        let mut seqs: Vec<u64> = Vec::new();
        for line in text.lines() {
            let v = json::parse(line)
                .unwrap_or_else(|e| panic!("unparsable event line: {e}\n{line}"));
            prop_assert_eq!(
                v.get("schema").and_then(json::Value::as_str),
                Some(EVENTS_SCHEMA)
            );
            prop_assert_eq!(v.get("run").and_then(json::Value::as_str), Some("run-prop"));
            prop_assert!(v.get("kind").and_then(json::Value::as_str).is_some());
            seqs.push(v.get("seq").and_then(json::Value::as_u64).unwrap());
        }
        prop_assert_eq!(seqs.len() as u64, sink.seq());
        seqs.sort_unstable();
        prop_assert_eq!(seqs, (0..sink.seq()).collect::<Vec<u64>>());
    }
}
