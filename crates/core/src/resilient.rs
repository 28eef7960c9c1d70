//! Chaos-mode resilience: bounded retry-with-reseed evaluation under a
//! deterministic fault plan, panic containment, and shared counters for
//! the run report.
//!
//! With [`PipelineConfig::faults`](crate::PipelineConfig) active, every
//! traversal is evaluated by a [`ResilientEvaluator`]: each attempt
//! derives a [`FaultPlan`] from a pure function of the evaluation seed
//! and the attempt number, runs the benchmark under a watchdog budget,
//! and absorbs fault-induced deadlocks, budget kills, and panics by
//! retrying with a reseeded plan. Only after the [`RetrySchedule`]'s
//! extra attempts does the error propagate — at which point the
//! exploration layer quarantines the traversal rather than aborting the
//! run. Every decision is a pure function of `(traversal, fault config,
//! attempt)`, so outcomes are identical across thread counts and reruns.

use crate::report::ResilienceSummary;
use dr_dag::{build_schedule, DecisionSpace, Traversal};
use dr_fault::{FaultConfig, FaultPlan};
use dr_mcts::{Evaluator, SimEvaluator};
use dr_par::panic_text;
use dr_sim::{
    benchmark_instrumented, BenchConfig, BenchResult, CompiledProgram, Platform, SimError,
    SimStats, Workload,
};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Reseeded retry attempts after the first failed evaluation.
pub const DEFAULT_MAX_RETRIES: usize = 2;

/// Default first-retry backoff delay (milliseconds). Deliberately tiny:
/// the delays exist to decorrelate retry storms under real transient
/// faults, and the defaults keep chaos CI fast.
pub const DEFAULT_BACKOFF_BASE_MS: u64 = 1;

/// Default backoff ceiling (milliseconds): exponential growth is capped
/// here no matter how many retries the budget allows.
pub const DEFAULT_BACKOFF_CAP_MS: u64 = 25;

/// Watchdog step budget applied to fault-injected executions whose
/// platform does not already carry one: generous enough for any real
/// schedule, small enough that a fault-induced livelock dies in
/// milliseconds instead of hanging the exploration.
pub const WATCHDOG_MAX_STEPS: u64 = 5_000_000;

/// The fault plan seed of retry `attempt` for an evaluation seeded with
/// `eval_seed` — a pure function of both, so a retried measurement is
/// identical wherever and whenever it runs. Attempt 0 is the evaluation
/// seed itself.
pub fn retry_seed(eval_seed: u64, attempt: usize) -> u64 {
    eval_seed ^ (attempt as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// SplitMix64 finisher used to derive backoff jitter bits.
fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The backoff delay (milliseconds) before retry `attempt` (≥ 1) of an
/// evaluation seeded with `eval_seed`: capped exponential growth from
/// `base_ms` with deterministic seed-derived jitter. The uncapped
/// schedule is `base · 2^(attempt-1)`; jitter draws the delay uniformly
/// from the upper half `[exp/2, exp]` of that step, from bits that are a
/// pure function of `(eval_seed, attempt)` — so total backoff time is
/// identical across thread counts and reruns, and can be asserted on in
/// the resilience report.
pub fn backoff_delay_ms(base_ms: u64, cap_ms: u64, attempt: usize, eval_seed: u64) -> u64 {
    if attempt == 0 || base_ms == 0 {
        return 0;
    }
    let exp = base_ms
        .saturating_mul(1u64 << (attempt - 1).min(20))
        .min(cap_ms);
    if exp == 0 {
        return 0;
    }
    let half = exp / 2;
    half + splitmix(retry_seed(eval_seed, attempt)) % (exp - half + 1)
}

/// The retry schedule of a fault-injected run: how many reseeded
/// attempts follow a failed evaluation, and the backoff before each.
/// A large budget with a slow backoff is a chaos test's wall-clock
/// lever: injected drops then turn one shard worker into a genuine
/// straggler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetrySchedule {
    /// Extra attempts after the first failure.
    pub max_retries: usize,
    /// First-retry backoff delay in milliseconds (`0` disables delays
    /// while keeping the retry semantics).
    pub backoff_base_ms: u64,
}

impl Default for RetrySchedule {
    fn default() -> Self {
        RetrySchedule {
            max_retries: DEFAULT_MAX_RETRIES,
            backoff_base_ms: DEFAULT_BACKOFF_BASE_MS,
        }
    }
}

impl RetrySchedule {
    /// The backoff ceiling: the larger of the base and
    /// [`DEFAULT_BACKOFF_CAP_MS`], so raising the base alone still takes
    /// effect.
    pub fn backoff_cap_ms(&self) -> u64 {
        self.backoff_base_ms.max(DEFAULT_BACKOFF_CAP_MS)
    }
}

/// Thread-safe resilience counters shared by every exploration worker.
#[derive(Debug, Default)]
pub struct ResilienceTotals {
    evaluations: AtomicU64,
    retries: AtomicU64,
    deadlocks: AtomicU64,
    budget_kills: AtomicU64,
    panics: AtomicU64,
    quarantined: AtomicU64,
    retry_delay_ms: AtomicU64,
}

impl ResilienceTotals {
    fn add(field: &AtomicU64, n: u64) {
        field.fetch_add(n, Ordering::Relaxed);
    }

    /// Records traversals dropped after exhausting their retry budget
    /// (called by the exploration layer, which owns that decision).
    pub fn note_quarantined(&self, n: u64) {
        Self::add(&self.quarantined, n);
    }

    /// Snapshot for the run report.
    pub fn summary(&self) -> ResilienceSummary {
        ResilienceSummary {
            evaluations: self.evaluations.load(Ordering::Relaxed),
            retries: self.retries.load(Ordering::Relaxed),
            deadlocks: self.deadlocks.load(Ordering::Relaxed),
            budget_kills: self.budget_kills.load(Ordering::Relaxed),
            panics: self.panics.load(Ordering::Relaxed),
            quarantined: self.quarantined.load(Ordering::Relaxed),
            retry_delay_ms: self.retry_delay_ms.load(Ordering::Relaxed),
        }
    }
}

/// The chaos-mode evaluator: compiles a traversal once, then benchmarks
/// it under a seed-derived [`FaultPlan`] with a watchdog budget,
/// retrying with a reseeded plan when the injected faults kill the run.
pub struct ResilientEvaluator<'a, W: Workload> {
    space: &'a DecisionSpace,
    workload: &'a W,
    platform: &'a Platform,
    bench: BenchConfig,
    faults: FaultConfig,
    retry: RetrySchedule,
    totals: Arc<ResilienceTotals>,
    stats: SimStats,
}

impl<'a, W: Workload> ResilientEvaluator<'a, W> {
    /// Creates an evaluator injecting `faults` into every measurement,
    /// retrying under the default [`RetrySchedule`] and accumulating
    /// counters into the shared `totals`.
    pub fn new(
        space: &'a DecisionSpace,
        workload: &'a W,
        platform: &'a Platform,
        bench: BenchConfig,
        faults: FaultConfig,
        totals: Arc<ResilienceTotals>,
    ) -> Self {
        ResilientEvaluator {
            space,
            workload,
            platform,
            bench,
            faults,
            retry: RetrySchedule::default(),
            totals,
            stats: SimStats::default(),
        }
    }

    /// Overrides the retry schedule.
    pub fn with_retry(mut self, retry: RetrySchedule) -> Self {
        self.retry = retry;
        self
    }

    /// Simulator statistics summed over every attempt of every
    /// evaluated traversal (fault counters included).
    pub fn stats(&self) -> &SimStats {
        &self.stats
    }
}

impl<W: Workload> Evaluator for ResilientEvaluator<'_, W> {
    fn evaluate(&mut self, t: &Traversal, seed: u64) -> Result<BenchResult, SimError> {
        let schedule = build_schedule(self.space, t);
        let prog = CompiledProgram::compile(&schedule, self.workload)?;
        let mut last: Option<SimError> = None;
        for attempt in 0..=self.retry.max_retries {
            ResilienceTotals::add(&self.totals.evaluations, 1);
            if attempt > 0 {
                ResilienceTotals::add(&self.totals.retries, 1);
                // Capped exponential backoff with seed-derived jitter:
                // the delay is a pure function of (seed, attempt), so
                // the reported totals are deterministic too.
                let delay = backoff_delay_ms(
                    self.retry.backoff_base_ms,
                    self.retry.backoff_cap_ms(),
                    attempt,
                    seed,
                );
                if delay > 0 {
                    ResilienceTotals::add(&self.totals.retry_delay_ms, delay);
                    std::thread::sleep(std::time::Duration::from_millis(delay));
                }
            }
            let plan = FaultPlan::derive(&self.faults, retry_seed(seed, attempt));
            let mut platform = self.platform.clone().with_faults(plan);
            if platform.max_steps == 0 {
                platform.max_steps = WATCHDOG_MAX_STEPS;
            }
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                benchmark_instrumented(&prog, &platform, &self.bench, seed)
            }));
            match outcome {
                Ok(Ok((result, stats))) => {
                    self.stats.merge(&stats);
                    return Ok(result);
                }
                Ok(Err(e @ SimError::Deadlock { .. })) => {
                    ResilienceTotals::add(&self.totals.deadlocks, 1);
                    last = Some(e);
                }
                Ok(Err(e @ SimError::Budget { .. })) => {
                    ResilienceTotals::add(&self.totals.budget_kills, 1);
                    last = Some(e);
                }
                // Structural errors (missing costs, malformed comms) are
                // not fault-induced; retrying cannot help.
                Ok(Err(e)) => return Err(e),
                Err(payload) => {
                    ResilienceTotals::add(&self.totals.panics, 1);
                    last = Some(SimError::Panicked {
                        detail: panic_text(payload),
                    });
                }
            }
        }
        Err(last.expect("at least one attempt ran"))
    }

    fn sim_stats(&self) -> Option<&SimStats> {
        Some(&self.stats)
    }
}

/// Fault injection for one run: the fault configuration, the retry
/// schedule, and the counters every worker's resilient evaluator feeds.
#[derive(Debug)]
pub(crate) struct Chaos {
    faults: FaultConfig,
    retry: RetrySchedule,
    /// Shared resilience counters for the run report.
    pub totals: Arc<ResilienceTotals>,
}

impl Chaos {
    /// A run's fault injection: `None` when `faults` is inactive (a clean
    /// run).
    pub fn new(faults: FaultConfig, retry: RetrySchedule) -> Option<Chaos> {
        faults.is_active().then(|| Chaos {
            faults,
            retry,
            totals: Arc::new(ResilienceTotals::default()),
        })
    }
}

/// The measuring layer at the bottom of every evaluator stack: plain
/// simulation, or the retry-with-reseed evaluator when fault injection is
/// active.
pub(crate) enum Measure<'a, W: Workload> {
    Sim(SimEvaluator<'a, W>),
    Resilient(ResilientEvaluator<'a, W>),
}

impl<'a, W: Workload> Measure<'a, W> {
    /// Resilient when `chaos` is given, plain simulation otherwise.
    pub fn new(
        space: &'a DecisionSpace,
        workload: &'a W,
        platform: &'a Platform,
        bench: BenchConfig,
        chaos: Option<&Chaos>,
    ) -> Self {
        match chaos {
            Some(c) => Measure::Resilient(
                ResilientEvaluator::new(
                    space,
                    workload,
                    platform,
                    bench,
                    c.faults,
                    c.totals.clone(),
                )
                .with_retry(c.retry),
            ),
            None => Measure::Sim(SimEvaluator::new(space, workload, platform, bench)),
        }
    }
}

impl<W: Workload> Evaluator for Measure<'_, W> {
    fn evaluate(&mut self, t: &Traversal, seed: u64) -> Result<BenchResult, SimError> {
        match self {
            Measure::Sim(e) => e.evaluate(t, seed),
            Measure::Resilient(e) => e.evaluate(t, seed),
        }
    }

    fn sim_stats(&self) -> Option<&SimStats> {
        match self {
            Measure::Sim(e) => e.sim_stats(),
            Measure::Resilient(e) => e.sim_stats(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dr_dag::{eval_seed, CostKey, DagBuilder, OpSpec};
    use dr_sim::TableWorkload;

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
    fn retry_seed_is_pure_and_attempt_sensitive() {
        assert_eq!(retry_seed(7, 0), 7);
        assert_eq!(retry_seed(7, 3), retry_seed(7, 3));
        assert_ne!(retry_seed(7, 1), retry_seed(7, 2));
        assert_ne!(retry_seed(7, 1), retry_seed(8, 1));
    }

    #[test]
    fn backoff_is_deterministic_capped_and_exponential() {
        // Attempt 0 and a zero base never delay.
        assert_eq!(backoff_delay_ms(4, 100, 0, 9), 0);
        assert_eq!(backoff_delay_ms(0, 100, 3, 9), 0);
        // Pure function of (seed, attempt).
        for attempt in 1..6 {
            assert_eq!(
                backoff_delay_ms(4, 100, attempt, 9),
                backoff_delay_ms(4, 100, attempt, 9)
            );
        }
        // Each step lands in the jittered upper half of base·2^(a-1),
        // clamped to the cap.
        for attempt in 1..12 {
            for seed in [0u64, 9, 77, u64::MAX] {
                let exp = 4u64.saturating_mul(1 << (attempt - 1)).min(100);
                let d = backoff_delay_ms(4, 100, attempt, seed);
                assert!(
                    d >= exp / 2 && d <= exp,
                    "attempt {attempt}: {d} vs exp {exp}"
                );
            }
        }
        // Different seeds actually jitter.
        let spread: std::collections::HashSet<u64> =
            (0..64).map(|s| backoff_delay_ms(50, 1_000, 4, s)).collect();
        assert!(spread.len() > 1, "jitter must vary with the seed");
    }

    #[test]
    fn retries_accumulate_deterministic_delay_totals() {
        let (space, w, platform) = setup();
        let t = space.enumerate().next().unwrap();
        let platform = platform.with_budget(1);
        let run = || {
            let totals = Arc::new(ResilienceTotals::default());
            let mut eval = ResilientEvaluator::new(
                &space,
                &w,
                &platform,
                BenchConfig::quick(),
                FaultConfig::light(),
                totals.clone(),
            );
            let _ = eval.evaluate(&t, eval_seed(3, &t));
            totals.summary()
        };
        let a = run();
        let b = run();
        assert_eq!(a.retries as usize, DEFAULT_MAX_RETRIES);
        assert!(a.retry_delay_ms > 0, "retries must report backoff time");
        assert_eq!(
            a.retry_delay_ms, b.retry_delay_ms,
            "delay totals are a pure function of the seeds"
        );
    }

    #[test]
    fn clean_faults_match_the_plain_evaluator_bit_for_bit() {
        let (space, w, platform) = setup();
        let t = space.enumerate().next().unwrap();
        let seed = eval_seed(11, &t);
        let totals = Arc::new(ResilienceTotals::default());
        let mut resilient = ResilientEvaluator::new(
            &space,
            &w,
            &platform,
            BenchConfig::quick(),
            FaultConfig::clean(),
            totals.clone(),
        );
        let mut plain = dr_mcts::SimEvaluator::new(&space, &w, &platform, BenchConfig::quick());
        let a = resilient.evaluate(&t, seed).unwrap();
        let b = Evaluator::evaluate(&mut plain, &t, seed).unwrap();
        assert_eq!(a, b, "a clean fault plan must not perturb measurements");
        let s = totals.summary();
        assert_eq!(s.evaluations, 1);
        assert_eq!(s.retries + s.deadlocks + s.budget_kills + s.panics, 0);
    }

    #[test]
    fn outlier_faults_perturb_measurements_deterministically() {
        let (space, w, platform) = setup();
        let t = space.enumerate().next().unwrap();
        let seed = eval_seed(11, &t);
        let totals = Arc::new(ResilienceTotals::default());
        let cfg = FaultConfig {
            outlier_prob: 1.0,
            outlier_factor: 10.0,
            ..FaultConfig::clean()
        };
        let run = || {
            let mut eval = ResilientEvaluator::new(
                &space,
                &w,
                &platform,
                BenchConfig::quick(),
                cfg,
                totals.clone(),
            );
            eval.evaluate(&t, seed).unwrap()
        };
        let first = run();
        assert_eq!(first, run(), "fault-injected runs are deterministic");
        let mut plain = dr_mcts::SimEvaluator::new(&space, &w, &platform, BenchConfig::quick());
        let clean = Evaluator::evaluate(&mut plain, &t, seed).unwrap();
        assert!(
            first.percentiles.p99 > clean.percentiles.p99 * 2.0,
            "universal outliers must inflate the tail ({} vs {})",
            first.percentiles.p99,
            clean.percentiles.p99
        );
    }

    #[test]
    fn exhausted_retries_surface_the_final_error() {
        let (space, w, platform) = setup();
        let t = space.enumerate().next().unwrap();
        let totals = Arc::new(ResilienceTotals::default());
        // A one-step budget kills every attempt regardless of the plan.
        let platform = platform.with_budget(1);
        let mut eval = ResilientEvaluator::new(
            &space,
            &w,
            &platform,
            BenchConfig::quick(),
            FaultConfig::light(),
            totals.clone(),
        );
        let err = eval.evaluate(&t, eval_seed(3, &t)).unwrap_err();
        assert!(matches!(err, SimError::Budget { .. }), "{err}");
        let s = totals.summary();
        assert_eq!(s.evaluations as usize, 1 + DEFAULT_MAX_RETRIES);
        assert_eq!(s.retries as usize, DEFAULT_MAX_RETRIES);
        assert_eq!(s.budget_kills as usize, 1 + DEFAULT_MAX_RETRIES);
    }

    #[test]
    fn retry_cap_tracks_a_raised_base() {
        assert_eq!(
            RetrySchedule::default().backoff_cap_ms(),
            DEFAULT_BACKOFF_CAP_MS
        );
        let slow = RetrySchedule {
            max_retries: 4,
            backoff_base_ms: 100,
        };
        assert_eq!(slow.backoff_cap_ms(), 100);
    }
}
