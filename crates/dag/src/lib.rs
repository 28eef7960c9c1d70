//! # dr-dag — CUDA+MPI programs as DAGs of operations
//!
//! Substrate crate for the *Machine Learning for CUDA+MPI Design Rules*
//! reproduction. A CUDA+MPI program `P` is represented as a directed
//! acyclic graph `G_P` whose vertices are operations (GPU kernels, MPI
//! calls, CPU work) and whose edges are dependencies (paper Section III-A).
//! A *traversal* of `G_P` — an issue order plus a stream binding for every
//! GPU operation — specifies one concrete implementation of `P`.
//!
//! The crate provides:
//!
//! * [`DagBuilder`] / [`ProgramDag`] — construction and validation of
//!   program DAGs with artificial `Start`/`End` bookends;
//! * [`DecisionSpace`] — the sequential decision problem over traversal
//!   prefixes (paper Section III-B), including the `CER-after-*` /
//!   `CES-b4-*` synchronization operations of Table III as schedulable
//!   decisions, canonical pruning of stream-bijection-equivalent prefixes,
//!   exhaustive enumeration, and exact traversal counting;
//! * [`build_schedule`] — lowering of a traversal to the executable host
//!   instruction sequence, gluing `cudaStreamWaitEvent` synchronization for
//!   cross-stream GPU dependencies.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod analysis;
pub mod dot;
mod graph;
mod op;
mod space;
pub mod sync;

pub use analysis::{critical_path, CriticalPath};
pub use dot::{dag_to_dot, space_to_dot};
pub use graph::{DagBuilder, DagError, ProgramDag, Vertex, VertexId};
pub use op::{CommKey, CostKey, OpSpec, VertexKind};
pub use space::{
    eval_seed, DecisionKind, DecisionOp, DecisionSpace, OpId, Placement, Prefix, SpaceError,
    StreamId, Traversal, TraversalIter,
};
pub use sync::{build_schedule, EventId, Schedule, ScheduleAction, ScheduleBuilder, ScheduledItem};
