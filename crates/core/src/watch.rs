//! Observation of evaluator stacks: the one layer every evaluation
//! passes through on its way to being instrumented.
//!
//! [`WatchedEvaluator`] wraps any [`Evaluator`] and, per call, records an
//! `evaluate` span (annotated with the evaluation seed and outcome) on
//! its tracer lane and emits a sampled `eval` event carrying a global
//! evaluation counter shared across all workers (so `records/sec` style
//! rates can be derived from any worker's events). One clock read at
//! each end feeds both the span and the event's wall time. Observation
//! never perturbs results — evaluation seeds are a pure function of the
//! traversal — and with a disabled lane and no live sink the wrapper is
//! a plain pass-through.

use dr_dag::Traversal;
use dr_mcts::Evaluator;
use dr_obs::events::{sampled, EventSink};
use dr_sim::{BenchResult, SimError, SimStats};
use dr_trace::Lane;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Shared state of the pipeline's `eval` event lane: the sink, a global
/// evaluation counter, and the sampling rate. Clone one per worker
/// evaluator; clones share the counter.
#[derive(Debug, Clone)]
pub struct EvalWatch {
    sink: EventSink,
    counter: Arc<AtomicU64>,
    every: usize,
}

impl EvalWatch {
    /// Creates a watch emitting to `sink`, sampling one `eval` event
    /// every `every` evaluations (the first is always emitted).
    pub fn new(sink: EventSink, every: usize) -> Self {
        EvalWatch {
            sink,
            counter: Arc::new(AtomicU64::new(0)),
            every: every.max(1),
        }
    }

    /// Total evaluations counted so far across all clones.
    pub fn count(&self) -> u64 {
        self.counter.load(Ordering::Relaxed)
    }
}

/// An [`Evaluator`] adapter that records `evaluate` spans and emits
/// sampled `eval` events. Place it outermost in the stack so the span
/// and the measured wall time cover the whole stack (store lookups,
/// resilience retries, and the simulation).
#[derive(Debug)]
pub struct WatchedEvaluator<E> {
    inner: E,
    lane: Lane,
    watch: Option<EvalWatch>,
}

impl<E> WatchedEvaluator<E> {
    /// Wraps `inner`, recording spans on `lane`; a disabled lane and a
    /// `None` watch (or a disabled sink) make this a pass-through with a
    /// single branch of overhead per evaluation.
    pub fn new(inner: E, lane: Lane, watch: Option<EvalWatch>) -> Self {
        let watch = watch.filter(|w| w.sink.is_enabled());
        WatchedEvaluator { inner, lane, watch }
    }
}

impl<E: Evaluator> Evaluator for WatchedEvaluator<E> {
    fn evaluate(&mut self, t: &Traversal, seed: u64) -> Result<BenchResult, SimError> {
        let traced = self.lane.is_enabled();
        if self.watch.is_none() && !traced {
            return self.inner.evaluate(t, seed);
        }
        let n = self
            .watch
            .as_ref()
            .map(|w| w.counter.fetch_add(1, Ordering::Relaxed) + 1);
        let start = Instant::now();
        if traced {
            self.lane.enter_at("evaluate", start);
            self.lane.annotate("eval_seed", seed);
        }
        let result = self.inner.evaluate(t, seed);
        let end = Instant::now();
        if traced {
            match &result {
                Ok(r) => self
                    .lane
                    .annotate("t_median_s", dr_obs::json::number(r.time())),
                Err(e) => self.lane.annotate("error", e),
            }
            self.lane.exit_at(end);
        }
        if let (Some(watch), Some(n)) = (&self.watch, n) {
            if sampled(n as usize, watch.every) {
                // A failed evaluation reports NaN, which the JSON encoder
                // renders as null.
                let time_s = result.as_ref().map(|r| r.time()).unwrap_or(f64::NAN);
                watch.sink.emit(
                    "eval",
                    &[
                        ("eval", n.into()),
                        ("traversal", format!("{:016x}", t.canonical_hash()).into()),
                        ("time_s", time_s.into()),
                        ("wall_s", (end - start).as_secs_f64().into()),
                        ("ok", result.is_ok().into()),
                    ],
                );
            }
        }
        result
    }

    fn sim_stats(&self) -> Option<&SimStats> {
        self.inner.sim_stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dr_obs::SharedBuf;
    use dr_sim::Percentiles;
    use dr_trace::Tracer;

    struct Fixed;
    impl Evaluator for Fixed {
        fn evaluate(&mut self, _t: &Traversal, _seed: u64) -> Result<BenchResult, SimError> {
            let t = 1.0;
            Ok(BenchResult {
                measurements: vec![t],
                percentiles: Percentiles {
                    p01: t,
                    p10: t,
                    p50: t,
                    p90: t,
                    p99: t,
                },
            })
        }
        fn sim_stats(&self) -> Option<&SimStats> {
            None
        }
    }

    fn traversal() -> Traversal {
        Traversal { steps: Vec::new() }
    }

    fn silent_lane() -> Lane {
        Tracer::disabled().lane("eval-0")
    }

    #[test]
    fn pass_through_without_a_watch() {
        let mut eval = WatchedEvaluator::new(Fixed, silent_lane(), None);
        assert!(eval.evaluate(&traversal(), 0).is_ok());
    }

    #[test]
    fn one_clock_read_feeds_the_span_and_the_event() {
        let tracer = Tracer::new();
        let buf = SharedBuf::new();
        let sink = EventSink::new("run-s").with_writer(Box::new(buf.clone()));
        let watch = EvalWatch::new(sink, 1);
        let mut eval = WatchedEvaluator::new(Fixed, tracer.lane("eval-0"), Some(watch));
        let out = eval.evaluate(&traversal(), 7).expect("evaluation succeeds");
        assert_eq!(out.time(), 1.0, "observation is transparent");
        let snap = tracer.snapshot();
        assert_eq!(snap.spans.len(), 1);
        let span = &snap.spans[0];
        assert_eq!(span.name, "evaluate");
        assert!(span.notes.iter().any(|(k, v)| k == "eval_seed" && v == "7"));
        assert!(span
            .notes
            .iter()
            .any(|(k, v)| k == "t_median_s" && v == "1"));
        let event = dr_obs::json::parse(buf.contents().trim()).unwrap();
        let wall_s = event.get("wall_s").unwrap().as_f64().unwrap();
        let dur_s = span.end_s.unwrap() - span.start_s;
        assert!(
            (dur_s - wall_s).abs() < 1e-9,
            "span {dur_s} vs event {wall_s}"
        );
    }

    #[test]
    fn sampled_eval_events_share_one_counter() {
        let buf = SharedBuf::new();
        let sink = EventSink::new("run-w").with_writer(Box::new(buf.clone()));
        let watch = EvalWatch::new(sink, 3);
        let mut a = WatchedEvaluator::new(Fixed, silent_lane(), Some(watch.clone()));
        let mut b = WatchedEvaluator::new(Fixed, silent_lane(), Some(watch.clone()));
        for _ in 0..4 {
            a.evaluate(&traversal(), 0).unwrap();
            b.evaluate(&traversal(), 0).unwrap();
        }
        assert_eq!(watch.count(), 8);
        let text = buf.contents();
        // Evaluations 1, 3, 6 of the shared count are sampled.
        let kinds = text
            .lines()
            .filter(|l| l.contains("\"kind\":\"eval\""))
            .count();
        assert_eq!(kinds, 3, "events:\n{text}");
        for line in text.lines() {
            let v = dr_obs::json::parse(line).unwrap();
            assert_eq!(v.get("kind").and_then(|k| k.as_str()), Some("eval"));
            assert!(v.get("time_s").unwrap().as_f64().unwrap() > 0.0);
            assert_eq!(v.get("ok").and_then(|b| b.as_bool()), Some(true));
        }
    }
}
