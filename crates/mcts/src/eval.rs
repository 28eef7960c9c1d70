//! Evaluation of candidate traversals: the bridge between the search and
//! the (simulated) platform.

use dr_dag::{build_schedule, DecisionSpace, Traversal};
use dr_sim::{
    benchmark_memo_instrumented, BenchConfig, BenchResult, CompiledProgram, Platform, SimError,
    SimMemo, SimStats, Workload,
};

/// Measures the empirical performance of a complete traversal.
///
/// The search calls this once per distinct rollout result. `seed` is the
/// traversal's evaluation seed; evaluators that use the simulator's
/// memoized protocol key noise by *position* instead and may ignore it —
/// either way the result is a pure function of the traversal, which is
/// what keeps record sets thread-count-invariant.
pub trait Evaluator {
    /// Benchmarks `t` and returns its measurement record.
    fn evaluate(&mut self, t: &Traversal, seed: u64) -> Result<BenchResult, SimError>;

    /// Simulator statistics accumulated across every evaluation so far.
    /// `None` for evaluators that do not run the simulator (the default).
    fn sim_stats(&self) -> Option<&SimStats> {
        None
    }
}

impl<F> Evaluator for F
where
    F: FnMut(&Traversal, u64) -> Result<BenchResult, SimError>,
{
    fn evaluate(&mut self, t: &Traversal, seed: u64) -> Result<BenchResult, SimError> {
        self(t, seed)
    }
}

/// The standard evaluator: lower the traversal to a schedule, compile it
/// against a workload, and run the paper's measurement protocol on the
/// platform simulator.
///
/// Uses the *memoized* protocol ([`benchmark_memo_instrumented`]): noise
/// is position-keyed and the `(measurement, sample)` noise cells are
/// shared across traversals, so the per-seed noise-factor tables built
/// for one schedule replay for every sibling — the Box-Muller draws that
/// dominate short executions are computed once per cell. Results are a
/// pure function of `(traversal, workload, platform, cfg)`: the `seed`
/// argument is ignored, the memo can only change wall time, never
/// measurements.
pub struct SimEvaluator<'a, W: Workload> {
    space: &'a DecisionSpace,
    workload: &'a W,
    platform: &'a Platform,
    cfg: BenchConfig,
    stats: SimStats,
    memo: SimMemo,
}

impl<'a, W: Workload> SimEvaluator<'a, W> {
    /// Creates an evaluator over the given space/workload/platform.
    pub fn new(
        space: &'a DecisionSpace,
        workload: &'a W,
        platform: &'a Platform,
        cfg: BenchConfig,
    ) -> Self {
        SimEvaluator {
            space,
            workload,
            platform,
            cfg,
            stats: SimStats::default(),
            memo: SimMemo::default(),
        }
    }

    /// Simulator statistics summed over every sample of every evaluated
    /// traversal.
    pub fn stats(&self) -> &SimStats {
        &self.stats
    }

    /// Number of per-seed noise-factor tables the memo has built — one
    /// per distinct `(measurement, sample)` cell seed the protocol has
    /// touched, shared across every traversal evaluated so far.
    pub fn noise_tables(&self) -> usize {
        self.memo.noise_tables()
    }
}

impl<W: Workload> Evaluator for SimEvaluator<'_, W> {
    fn evaluate(&mut self, t: &Traversal, _seed: u64) -> Result<BenchResult, SimError> {
        let schedule = build_schedule(self.space, t);
        let prog = CompiledProgram::compile(&schedule, self.workload)?;
        let (result, stats) =
            benchmark_memo_instrumented(&prog, self.platform, &self.cfg, &mut self.memo)?;
        self.stats.merge(&stats);
        Ok(result)
    }

    fn sim_stats(&self) -> Option<&SimStats> {
        Some(&self.stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dr_dag::{CostKey, DagBuilder, OpSpec};
    use dr_sim::TableWorkload;

    #[test]
    fn sim_evaluator_benchmarks_a_traversal() {
        let mut b = DagBuilder::new();
        b.add("k", OpSpec::GpuKernel(CostKey::new("k")));
        let space = DecisionSpace::new(b.build().unwrap(), 1).unwrap();
        let mut w = TableWorkload::new(2);
        w.cost_all("k", 1e-4);
        let platform = Platform::perlmutter_like().noiseless();
        let mut eval = SimEvaluator::new(&space, &w, &platform, BenchConfig::quick());
        let t = space.enumerate().next().unwrap();
        let res = eval.evaluate(&t, 1).unwrap();
        assert!(res.time() >= 1e-4);
    }

    #[test]
    fn memo_reuse_is_order_independent_and_seed_free() {
        // Evaluations are pure functions of the traversal: warm-memo
        // results equal cold ones regardless of visit order or seed.
        let mut b = DagBuilder::new();
        b.add("x", OpSpec::GpuKernel(CostKey::new("x")));
        b.add("y", OpSpec::GpuKernel(CostKey::new("y")));
        b.add("z", OpSpec::GpuKernel(CostKey::new("z")));
        let space = DecisionSpace::new(b.build().unwrap(), 2).unwrap();
        let mut w = TableWorkload::new(2);
        w.cost_all("x", 1e-4)
            .cost_all("y", 2e-4)
            .cost_all("z", 5e-5);
        let platform = Platform::perlmutter_like(); // noisy
        let all: Vec<Traversal> = space.enumerate().collect();
        assert!(all.len() >= 2);

        let mut forward = SimEvaluator::new(&space, &w, &platform, BenchConfig::quick());
        let fwd: Vec<_> = all
            .iter()
            .map(|t| forward.evaluate(t, 1).unwrap())
            .collect();
        // The shared work is the per-cell noise tables, reused by every
        // sibling schedule.
        assert!(
            forward.noise_tables() > 0,
            "noise cells must be tabulated and shared across schedules"
        );

        let mut backward = SimEvaluator::new(&space, &w, &platform, BenchConfig::quick());
        let mut bwd: Vec<_> = all
            .iter()
            .rev()
            .map(|t| backward.evaluate(t, 2).unwrap())
            .collect();
        bwd.reverse();
        assert_eq!(fwd, bwd, "memo state and seed must never leak into results");
    }

    #[test]
    fn closures_are_evaluators() {
        let mut calls = 0usize;
        {
            let mut eval = |_: &Traversal, _: u64| -> Result<BenchResult, SimError> {
                calls += 1;
                Ok(BenchResult {
                    measurements: vec![1.0],
                    percentiles: dr_sim::Percentiles {
                        p01: 1.0,
                        p10: 1.0,
                        p50: 1.0,
                        p90: 1.0,
                        p99: 1.0,
                    },
                })
            };
            let t = Traversal { steps: vec![] };
            assert_eq!(Evaluator::evaluate(&mut eval, &t, 0).unwrap().time(), 1.0);
        }
        assert_eq!(calls, 1);
    }
}
