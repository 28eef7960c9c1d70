//! Durable-store evaluator stage: answer benchmark requests from the
//! on-disk [`ResultStore`] before simulating, and commit every fresh
//! measurement as soon as it is produced.
//!
//! The stage is sound because measurements are pure functions of
//! traversal identity (`dr_dag::eval_seed` seeds every evaluation from
//! the traversal's canonical hash): a stored result *is* the result,
//! regardless of which process, shard, or attempt produced it. That is
//! what makes kill–resume exploration cheap — a resumed run re-answers
//! every already-committed traversal from disk and only simulates the
//! remainder, with the store's hit counters as the proof.
//!
//! In the evaluator stack (watch → store → measure) the store sits
//! *inside* the watch layer, so observability counters are identical
//! between cold and warm runs; only simulator work is elided.

use dr_dag::Traversal;
use dr_mcts::Evaluator;
use dr_sim::{BenchResult, SimError, SimStats};
use dr_store::ResultStore;
use std::sync::Arc;

/// Wraps an evaluator with a read-through/write-through durable store.
/// With `store: None` the stage is a transparent passthrough, so one
/// code path serves both stored and plain runs.
pub struct StoredEvaluator<E> {
    inner: E,
    store: Option<Arc<ResultStore>>,
}

impl<E> StoredEvaluator<E> {
    /// Builds the stage; `None` disables it.
    pub fn new(inner: E, store: Option<Arc<ResultStore>>) -> Self {
        StoredEvaluator { inner, store }
    }
}

impl<E: Evaluator> Evaluator for StoredEvaluator<E> {
    fn evaluate(&mut self, t: &Traversal, seed: u64) -> Result<BenchResult, SimError> {
        let Some(store) = &self.store else {
            return self.inner.evaluate(t, seed);
        };
        if let Some(result) = store.lookup(t) {
            return Ok(result);
        }
        let result = self.inner.evaluate(t, seed)?;
        store.append(t, &result).map_err(|e| SimError::Faulted {
            detail: format!("result store append failed: {e}"),
        })?;
        Ok(result)
    }

    fn sim_stats(&self) -> Option<&SimStats> {
        self.inner.sim_stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dr_dag::{eval_seed, CostKey, DagBuilder, DecisionSpace, OpSpec};
    use dr_mcts::SimEvaluator;
    use dr_sim::{BenchConfig, Platform, TableWorkload};

    fn setup() -> (DecisionSpace, TableWorkload, Platform) {
        let mut b = DagBuilder::new();
        let a = b.add("a", OpSpec::GpuKernel(CostKey::new("a")));
        let g = b.add("b", OpSpec::GpuKernel(CostKey::new("b")));
        let c = b.add("c", OpSpec::CpuWork(CostKey::new("c")));
        b.edge(a, c);
        b.edge(g, c);
        let space = DecisionSpace::new(b.build().unwrap(), 2).unwrap();
        let mut w = TableWorkload::new(1);
        w.cost_all("a", 1e-4)
            .cost_all("b", 2e-4)
            .cost_all("c", 1e-5);
        (space, w, Platform::perlmutter_like().noiseless())
    }

    #[test]
    fn passthrough_without_a_store() {
        let (space, w, platform) = setup();
        let t = space.enumerate().next().unwrap();
        let seed = eval_seed(1, &t);
        let mut plain = SimEvaluator::new(&space, &w, &platform, BenchConfig::quick());
        let expect = Evaluator::evaluate(&mut plain, &t, seed).unwrap();
        let mut staged = StoredEvaluator::new(
            SimEvaluator::new(&space, &w, &platform, BenchConfig::quick()),
            None,
        );
        assert_eq!(staged.evaluate(&t, seed).unwrap(), expect);
        assert!(staged.sim_stats().is_some_and(|s| s.runs > 0));
    }
}
