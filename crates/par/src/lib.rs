//! # dr-par — deterministic parallelism primitives
//!
//! The exploration phase is the pipeline's bottleneck: thousands of
//! `(traversal, measured time)` samples, each a full discrete-event
//! simulation. This crate provides the two building blocks the parallel
//! exploration engine is made of, using only `std::thread` (the build
//! environment is offline; no rayon):
//!
//! * [`par_map_stream`] / [`par_map_stream_with`] — a scoped worker pool
//!   that streams items from a (possibly lazy) iterator through a chunked
//!   work queue and returns results **in input order**, so the output is
//!   bit-for-bit independent of the thread count and of scheduling;
//! * [`par_map_stream_isolated`] — the same pool with per-item
//!   `catch_unwind` panic isolation and error quarantine, for chaos runs
//!   where a poisoned evaluation must not take down the exploration;
//! * [`StripedCache`] — a lock-striped concurrent memo table keyed by a
//!   caller-supplied canonical hash, so repeated rollouts across workers
//!   never re-simulate the same traversal.
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
    par_map_stream, par_map_stream_isolated, par_map_stream_observed, par_map_stream_with,
    par_map_stream_with_traced, resolve_threads, split_budget, ItemOutcome, PoolObserver,
    PoolOutcome,
};
