//! # dr-core — the end-to-end CUDA+MPI design-rule pipeline
//!
//! Facade over the reproduction's substrates, implementing the paper's
//! full system (Fig. 2): a DAG of CUDA and MPI operations defines the
//! design space; Monte-Carlo tree search (or an exhaustive/random sweep)
//! collects `(sequence, time)` samples on the platform simulator; class
//! labels come from convolution + peak detection over the sorted times;
//! pairwise ordering/stream features feed a CART decision tree; and the
//! tree's root-to-leaf paths become human-readable design rules.
//!
//! ```
//! use dr_core::{run_pipeline, PipelineConfig, Strategy};
//! use dr_spmv::SpmvScenario;
//!
//! let sc = SpmvScenario::small(42);
//! let result = run_pipeline(
//!     &sc.space,
//!     &sc.workload,
//!     &sc.platform,
//!     Strategy::Mcts { iterations: 16, config: Default::default() },
//!     &PipelineConfig::quick(),
//! )
//! .unwrap();
//! assert!(!result.rulesets.is_empty());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod certify;
mod compare;
mod evaluate;
mod explore;
mod ledger;
mod lintstage;
mod multi_input;
mod pipeline;
mod report;
mod resilient;
mod runs;
mod shard;
mod storestage;
mod synthesize;
mod watch;

pub use certify::{certify_rulesets, Certification, RulesetCertificate};
pub use compare::{
    compare_bench, compare_fleet, compare_ledgers, is_bench_file, is_fleet_file, load_bench,
    load_fleet, load_ledger, CompareOptions, CompareReport, BENCH_SCHEMA,
};
pub use dr_par::FailurePolicy;
pub use evaluate::{labeling_accuracy, AccuracyReport};
pub use explore::{
    explore, explore_instrumented, explore_parallel, records_telemetry, ExploreCtx, ExploreOutput,
    Strategy,
};
pub use ledger::{
    append_entry, ledger_entry_json, records_fingerprint, LedgerContext, LEDGER_FILE, LEDGER_SCHEMA,
};
pub use lintstage::{
    apply_fault_plan, lint_space, lint_space_watched, topology_from_workload, SpaceLint,
};
pub use multi_input::{mine_rules_multi, InputFeature, InputRun, MultiInputResult};
pub use pipeline::{
    mine_rules, mine_rules_timed, run_pipeline, run_pipeline_instrumented, run_pipeline_stored,
    InstrumentedRun, PipelineConfig, PipelineResult, RunCtx,
};
pub use report::{MiningSummary, Provenance, ResilienceSummary, RunReport, SearchSummary};
pub use resilient::{
    backoff_delay_ms, retry_seed, ResilienceTotals, ResilientEvaluator, RetrySchedule,
    DEFAULT_BACKOFF_BASE_MS, DEFAULT_BACKOFF_CAP_MS, DEFAULT_MAX_RETRIES, WATCHDOG_MAX_STEPS,
};
pub use runs::{
    diff_entries, find_entry, select, show_entry, summary_line, trend_lines, RunFilter,
};
pub use shard::{
    merge_shards, run_shard, shard_manifest_path, shard_store_dir, shard_work, strategy_identity,
    MergeOutcome, ShardManifest, ShardRunOutcome, ShardSpec, ShardTarget, SHARD_SCHEMA,
};
pub use storestage::StoredEvaluator;
pub use synthesize::{satisfies, synthesize, Constraints};
pub use watch::{EvalWatch, WatchedEvaluator};
