//! # dr-mcts — Monte-Carlo tree search over CUDA+MPI design spaces
//!
//! Implements the paper's search strategy (Section III-C): the design
//! space of a CUDA+MPI program — operation orderings × stream assignments
//! — is explored by MCTS whose *exploitation* signal is not raw speed but
//! the **performance range** observed in a subtree. The search therefore
//! gravitates toward regions where design decisions have a large impact,
//! which is exactly the data the downstream rule-mining pipeline needs.
//!
//! * [`Mcts`] — the search: one arena-backed tree whose iterations
//!   (selection / expansion / rollout / backpropagation under the
//!   paper's UCT rule) run in batches — one rollout at a time by default,
//!   or several measured in parallel with virtual loss steering the
//!   batch's descents apart — with exhaustion detection;
//! * [`Evaluator`] / [`SimEvaluator`] — measurement of rollouts via the
//!   platform simulator;
//! * [`random_search_telemetry`] — the uniform random-sampling baseline the paper's
//!   future work calls for (used by the ablation benchmark).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod eval;
mod random;
mod shared;
mod telemetry;
mod tree;

pub use eval::{Evaluator, SimEvaluator};
pub use random::{random_rollout, random_search_telemetry, shard_root_seed};
pub use telemetry::{SearchTelemetry, TelemetryRow};
pub use tree::{
    Exploitation, ExploredRecord, Mcts, MctsConfig, NodeStat, PrincipalVariation, TreeSnapshot,
    TreeStats,
};
