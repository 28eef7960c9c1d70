//! # dr-sim — discrete-event CUDA+MPI platform simulator
//!
//! The reproduction's substitute for the paper's Perlmutter node. The
//! design-rule pipeline consumes only `(sequence, measured time)` pairs,
//! so any timing source that exhibits the first-order phenomena of a real
//! GPU cluster — asynchronous kernel launches, per-stream FIFO ordering,
//! inter-stream contention, CUDA event semantics, eager/rendezvous MPI
//! point-to-point messaging, and blocking waits — yields the same kind of
//! multi-modal performance landscape the method dissects.
//!
//! * [`Platform`] — the parametric cost model (launch overheads, link
//!   latency/bandwidth, contention, measurement noise);
//! * [`Workload`] — resolves the symbolic cost/communication keys of a
//!   program DAG for a concrete problem instance;
//! * [`CompiledProgram`] — a schedule resolved against a workload;
//! * [`Tape`] — a compiled program lowered once for a platform and
//!   replayed without allocating, up to eight samples per pass;
//! * [`execute`] — one simulated invocation across all ranks, with
//!   deadlock detection;
//! * [`benchmark`] — the paper's measurement protocol (samples until
//!   `t_measure`, percentile records, max-over-ranks reduction).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod bench;
mod compile;
mod exec;
mod memo;
mod platform;
mod stats;
pub mod trace;
mod workload;

pub use bench::{
    benchmark, benchmark_instrumented, benchmark_memo_instrumented, percentile, BenchConfig,
    BenchResult, Percentiles,
};
pub use compile::{CommTable, CompiledProgram, Instr, SimError};
pub use dr_fault::{FaultConfig, FaultCounters, FaultPlan, MessageFault};
pub use exec::{execute, execute_seeded, execute_traced, ExecOutcome, Tape};
pub use memo::SimMemo;
pub use platform::{NoiseModel, Platform};
pub use stats::SimStats;
pub use trace::{Resource, Trace, TraceEvent};
pub use workload::{CommPattern, TableWorkload, Workload};
