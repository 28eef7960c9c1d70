//! `dr-obs` — observability core for the design-rules pipeline.
//!
//! Zero-dependency metrics primitives threaded through every layer of
//! the workspace: [`metrics`] (counters, gauges, fixed-bucket
//! histograms with percentile queries), [`timer`] (stopwatches and
//! named phase timers), [`json`] (hand-rolled JSON formatting plus
//! a syntax validator used by tests that assert artifacts are
//! well-formed), [`events`] (the `dr-events/v1` structured NDJSON
//! event stream behind `--progress`/`--events`), [`paint`] (the
//! throttled stderr status line both `--progress` renderers paint
//! through), and [`expose`] (Prometheus-style text exposition of metric
//! snapshots, the `--metrics-text` surface).
//!
//! The metrics primitives are single-threaded by design, matching the
//! simulator and the search loop: plain structs mutated through
//! `&mut self`, no global registries. The one deliberate exception is
//! [`events::EventSink`], which crosses worker threads and therefore
//! owns the crate's only atomics (a shared sequence counter and a
//! mutex-guarded writer).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod events;
pub mod expose;
pub mod json;
pub mod metrics;
pub mod paint;
pub mod timer;

pub use events::{Event, EventObserver, EventSink, Field, SharedBuf, EVENTS_SCHEMA};
pub use expose::TextExposition;
pub use metrics::{mad, median, Counter, Gauge, Histogram};
pub use paint::LinePainter;
pub use timer::{Phases, Stopwatch};

/// Writes one CSV row, quoting fields that contain commas, quotes, or
/// newlines (RFC 4180 style).
pub fn csv_row(fields: &[String]) -> String {
    let mut out = String::new();
    for (i, f) in fields.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        if f.contains([',', '"', '\n']) {
            out.push('"');
            out.push_str(&f.replace('"', "\"\""));
            out.push('"');
        } else {
            out.push_str(f);
        }
    }
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csv_row_quotes_when_needed() {
        assert_eq!(csv_row(&["a".into(), "b".into()]), "a,b\n");
        assert_eq!(
            csv_row(&["a,b".into(), "c\"d".into()]),
            "\"a,b\",\"c\"\"d\"\n"
        );
    }
}
