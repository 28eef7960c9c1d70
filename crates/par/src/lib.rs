//! # dr-par — deterministic parallelism primitives
//!
//! The exploration phase is the pipeline's bottleneck: thousands of
//! `(traversal, measured time)` samples, each a full discrete-event
//! simulation. This crate provides the two building blocks the parallel
//! exploration engine is made of, using only `std::thread` (the build
//! environment is offline; no rayon):
//!
//! * [`par_map_stream`] — a scoped worker pool that streams items from a
//!   (possibly lazy) iterator through a chunked work queue and returns
//!   every item's outcome **in input order**, so the output is
//!   bit-for-bit independent of the thread count and of scheduling.
//!   Each item runs under `catch_unwind`; a [`FailurePolicy`] picks
//!   whether a failure stops the pool or is quarantined against its
//!   item;
//! * [`StripedCache`] — a lock-striped concurrent memo table keyed by a
//!   caller-supplied canonical hash (the durable result store's
//!   in-memory index).
//!
//! Determinism policy: parallel callers must make each item's result a
//! pure function of the item itself (e.g. derive per-traversal evaluation
//! seeds from a canonical traversal hash, never from a loop index); the
//! pool then guarantees the *ordering* side of the contract.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod cache;
mod pool;

pub use cache::{CacheStats, StripedCache};
pub use pool::{
    panic_text, par_map_stream, split_budget, worker_end, worker_start, FailurePolicy, ItemOutcome,
    PoolConfig, PoolOutcome,
};
