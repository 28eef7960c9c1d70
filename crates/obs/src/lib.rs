//! `dr-obs` — observability core for the design-rules pipeline.
//!
//! Zero-dependency helpers shared by every layer of the workspace:
//! [`events`] (the `dr-events/v1` structured NDJSON event stream behind
//! `--progress`/`--events`), [`timer`] (stopwatches and named phase
//! timers), [`json`] (hand-rolled JSON formatting plus a syntax
//! validator used by tests that assert artifacts are well-formed),
//! [`paint`] (the throttled stderr status line both `--progress`
//! renderers paint through), [`expose`] (the Prometheus text exposition
//! behind `--metrics-text`), [`metrics`] (the robust median and MAD
//! summaries of the noise gates), and CSV quoting.
//!
//! [`events::EventSink`] crosses worker threads and therefore owns the
//! crate's only atomics (a shared sequence counter and a mutex-guarded
//! writer); everything else is plain single-threaded code.

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
pub use metrics::{mad, median};
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
