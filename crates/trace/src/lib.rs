//! Causal span tracing for the design-rule pipeline (std-only).
//!
//! The model is deliberately small:
//!
//! * A [`Tracer`] owns the span store behind an `Arc<Mutex<_>>` and is
//!   cheap to clone. A tracer built with [`Tracer::disabled`] turns every
//!   operation into a no-op (no clock reads, no allocation), so traced
//!   code paths cost nothing when tracing is off.
//! * A [`Lane`] is a thread-affine handle with its own span stack
//!   (typically one lane per worker thread, evaluator, or logical
//!   actor). `enter`/`exit` maintain strict nesting within a lane, which
//!   is what makes the exported timeline well-formed; parent links are
//!   derived from the stack. Lanes are `Send` so they can ride inside
//!   per-worker state through `dr-par`.
//! * [`Lane::follows_from`] records a cross-lane causal edge (e.g. a
//!   work item handed from the pipeline's main lane to a worker lane),
//!   exported as a Chrome flow event.
//! * Spans carry ordered key/value annotations (cache hits, eval seeds,
//!   lint verdicts, fault counters) attached via [`Lane::annotate`].
//!
//! [`chrome`] holds the workspace's one Chrome/Perfetto trace-event
//! writer ([`chrome::Record`], which the simulator's and the fleet's
//! exporters also build on), the span exporter
//! ([`Tracer::to_chrome_json`]), and [`chrome::merge_chrome_json`],
//! which splices several trace-event fragments (the pipeline's own spans
//! plus `dr_sim::Trace::to_chrome_json` rank/stream timelines) into one
//! file so "the search" and "what it searched" share a timeline.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chrome;
mod span;

pub use chrome::{merge_chrome_json, PIPELINE_PID};
pub use span::{Lane, Snapshot, Span, SpanGuard, SpanId, Tracer};
