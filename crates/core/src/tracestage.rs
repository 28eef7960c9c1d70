//! Evaluation spans: a transparent [`Evaluator`] wrapper that records one
//! `evaluate` span per benchmark call on its own tracer lane.
//!
//! Every per-worker evaluator stack carries a [`TracingEvaluator`] just
//! inside the event watch, so the span covers the rest of the stack —
//! store lookups, lint, fault retries, and the simulator itself. With a
//! disabled tracer the wrapper is a pure pass-through.

use dr_dag::Traversal;
use dr_mcts::Evaluator;
use dr_sim::{BenchResult, SimError, SimStats};
use dr_trace::Lane;

/// Wraps an evaluator and records an `evaluate` span (annotated with the
/// evaluation seed and outcome) around every call.
pub struct TracingEvaluator<E> {
    inner: E,
    lane: Lane,
}

impl<E> TracingEvaluator<E> {
    /// Wraps `inner`, recording spans on `lane`.
    pub fn new(inner: E, lane: Lane) -> Self {
        TracingEvaluator { inner, lane }
    }
}

impl<E: Evaluator> Evaluator for TracingEvaluator<E> {
    fn evaluate(&mut self, t: &Traversal, seed: u64) -> Result<BenchResult, SimError> {
        self.lane.enter("evaluate");
        self.lane.annotate("eval_seed", seed);
        let out = self.inner.evaluate(t, seed);
        match &out {
            Ok(r) => self
                .lane
                .annotate("t_median_s", dr_obs::json::number(r.time())),
            Err(e) => self.lane.annotate("error", e),
        }
        self.lane.exit();
        out
    }

    fn sim_stats(&self) -> Option<&SimStats> {
        self.inner.sim_stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dr_trace::Tracer;

    fn flat_result(time: f64) -> BenchResult {
        BenchResult {
            measurements: vec![time],
            percentiles: dr_sim::Percentiles {
                p01: time,
                p10: time,
                p50: time,
                p90: time,
                p99: time,
            },
        }
    }

    #[test]
    fn traced_evaluator_is_transparent_and_records_spans() {
        let t = Traversal { steps: vec![] };
        let tracer = Tracer::new();
        let base = |_: &Traversal, seed: u64| Ok(flat_result(1e-6 * (seed as f64 + 1.0)));
        let mut plain = base;
        let mut traced = TracingEvaluator::new(base, tracer.lane("eval-0"));
        let a = plain.evaluate(&t, 7).expect("plain evaluation succeeds");
        let b = traced.evaluate(&t, 7).expect("traced evaluation succeeds");
        assert_eq!(a.time(), b.time());
        let snap = tracer.snapshot();
        assert_eq!(snap.spans.len(), 1);
        assert_eq!(snap.spans[0].name, "evaluate");
        assert!(snap.spans[0]
            .notes
            .iter()
            .any(|(k, v)| k == "eval_seed" && v == "7"));
    }
}
