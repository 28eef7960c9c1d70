//! The paper's empirical measurement protocol (Section III-C-3), over
//! simulated clocks.
//!
//! Benchmarking is done in terms of *measurements* and *samples*: each
//! sample is one invocation of the program; a measurement repeats samples
//! until `t_measure` (0.01 s in the paper) of simulated time has elapsed
//! and reports `t_measure / n_samples`, maximized across ranks. The 1st,
//! 10th, 50th, 90th and 99th percentile measurements are recorded with
//! each explored sequence and used for rule generation.

use crate::compile::{CompiledProgram, SimError};
use crate::exec::{Noise, Tape};
use crate::memo::SimMemo;
use crate::platform::Platform;
use crate::stats::SimStats;
use rand::rngs::SmallRng;
use rand::{RngCore, SeedableRng};

/// Domain constant separating the memoized protocol's noise cells from
/// every other seed stream in the workspace.
const NOISE_DOMAIN: u64 = 0xD1CE_BA5E_0FC0_FFEE;

/// The noise seed of sample `s` of measurement `m` under the memoized
/// protocol: a pure avalanche of the cell coordinates, independent of
/// which schedule is being measured and of any master seed — so every
/// schedule revisits the *same* noise cells and the noise tables built
/// for one are replayed for all the others.
fn cell_seed(m: usize, s: usize) -> u64 {
    let mut z = NOISE_DOMAIN ^ ((m as u64) << 32) ^ s as u64;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Measurement-protocol parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BenchConfig {
    /// Minimum simulated time per measurement (paper: 0.01 s).
    pub t_measure: f64,
    /// Number of measurements collected per implementation.
    pub num_measurements: usize,
    /// Safety cap on samples within one measurement (for very fast
    /// programs).
    pub max_samples: usize,
}

impl Default for BenchConfig {
    fn default() -> Self {
        BenchConfig {
            t_measure: 0.01,
            num_measurements: 50,
            max_samples: 1000,
        }
    }
}

impl BenchConfig {
    /// A cheap configuration for unit tests and examples.
    pub fn quick() -> Self {
        BenchConfig {
            t_measure: 1e-3,
            num_measurements: 9,
            max_samples: 50,
        }
    }
}

/// The recorded percentiles of one implementation's measurements.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentiles {
    /// 1st percentile.
    pub p01: f64,
    /// 10th percentile.
    pub p10: f64,
    /// Median.
    pub p50: f64,
    /// 90th percentile.
    pub p90: f64,
    /// 99th percentile.
    pub p99: f64,
}

/// Result of benchmarking one implementation.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchResult {
    /// All measurements, in collection order (seconds per invocation).
    pub measurements: Vec<f64>,
    /// Recorded percentile summary.
    pub percentiles: Percentiles,
}

impl BenchResult {
    /// The canonical scalar time of the implementation: the median
    /// measurement (robust to noise tails).
    pub fn time(&self) -> f64 {
        self.percentiles.p50
    }
}

/// Percentile with linear interpolation between order statistics
/// (numpy/scipy default), `q` in `[0, 100]`.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of empty data");
    assert!((0.0..=100.0).contains(&q), "q out of range: {q}");
    let n = sorted.len();
    if n == 1 {
        return sorted[0];
    }
    let pos = q / 100.0 * (n - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    sorted[lo] + (sorted[hi] - sorted[lo]) * frac
}

/// Runs the full measurement protocol on a compiled program.
///
/// Deterministic for a given `seed`: every sample's noise derives from one
/// seeded generator.
pub fn benchmark(
    prog: &CompiledProgram,
    platform: &Platform,
    cfg: &BenchConfig,
    seed: u64,
) -> Result<BenchResult, SimError> {
    let seeds = SampleSeeds::Sequential(SmallRng::seed_from_u64(seed));
    protocol(prog, platform, cfg, seeds, None)
}

/// Like [`benchmark`], additionally folding every sample's [`SimStats`]
/// into one aggregate (`stats.runs` counts the samples).
///
/// Produces the identical [`BenchResult`] for the same `seed`: the stats
/// accumulation draws no randomness.
pub fn benchmark_instrumented(
    prog: &CompiledProgram,
    platform: &Platform,
    cfg: &BenchConfig,
    seed: u64,
) -> Result<(BenchResult, SimStats), SimError> {
    let mut stats = SimStats::for_shape(prog.num_ranks, prog.num_streams);
    let seeds = SampleSeeds::Sequential(SmallRng::seed_from_u64(seed));
    let result = protocol(prog, platform, cfg, seeds, Some(&mut stats))?;
    Ok((result, stats))
}

/// [`benchmark_instrumented`] wrapped in a `benchmark` span on `lane`,
/// annotated with the evaluation seed, sample count, and the resulting
/// median time (or the error). The measurement itself is untouched: with
/// a disabled tracer this is exactly [`benchmark_instrumented`].
pub fn benchmark_traced(
    prog: &CompiledProgram,
    platform: &Platform,
    cfg: &BenchConfig,
    seed: u64,
    lane: &mut dr_trace::Lane,
) -> Result<(BenchResult, SimStats), SimError> {
    lane.enter("benchmark");
    lane.annotate("eval_seed", seed);
    let out = benchmark_instrumented(prog, platform, cfg, seed);
    match &out {
        Ok((result, stats)) => {
            lane.annotate("samples", stats.runs);
            lane.annotate("t_median_s", dr_obs::json::number(result.time()));
        }
        Err(e) => lane.annotate("error", e),
    }
    lane.exit();
    out
}

/// The measurement protocol with memoized noise.
///
/// Differs from [`benchmark`] in how per-sample noise seeds are chosen:
/// instead of a sequential generator seeded per evaluation, each
/// `(measurement, sample)` cell has a fixed seed shared by *every*
/// schedule (see [`cell_seed`]). That makes the noise-factor tables in
/// `memo` reusable across the whole exploration while keeping the
/// protocol deterministic: the result is a pure function of the program
/// and platform, bit-identical warm or cold.
pub fn benchmark_memo(
    prog: &CompiledProgram,
    platform: &Platform,
    cfg: &BenchConfig,
    memo: &mut SimMemo,
) -> Result<BenchResult, SimError> {
    protocol(prog, platform, cfg, SampleSeeds::Cells(memo), None)
}

/// Like [`benchmark_memo`], additionally folding every sample's
/// [`SimStats`] into one aggregate (`stats.runs` counts the samples).
pub fn benchmark_memo_instrumented(
    prog: &CompiledProgram,
    platform: &Platform,
    cfg: &BenchConfig,
    memo: &mut SimMemo,
) -> Result<(BenchResult, SimStats), SimError> {
    let mut stats = SimStats::for_shape(prog.num_ranks, prog.num_streams);
    let seeds = SampleSeeds::Cells(memo);
    let result = protocol(prog, platform, cfg, seeds, Some(&mut stats))?;
    Ok((result, stats))
}

/// Where the protocol's per-sample noise seeds come from.
enum SampleSeeds<'m> {
    /// One generator seeded per evaluation, drawn once per sample.
    Sequential(SmallRng),
    /// The fixed per-cell seeds, with their noise tables in the memo.
    Cells(&'m mut SimMemo),
}

/// The protocol: lowers `prog` once, then replays it once per sample.
fn protocol(
    prog: &CompiledProgram,
    platform: &Platform,
    cfg: &BenchConfig,
    mut seeds: SampleSeeds<'_>,
    mut stats: Option<&mut SimStats>,
) -> Result<BenchResult, SimError> {
    let mut tape = Tape::lower(prog, platform);
    let mut measurements = Vec::with_capacity(cfg.num_measurements);
    // Per-rank accumulated busy time across samples of one measurement.
    let mut accum = vec![0.0f64; prog.num_ranks];
    for m in 0..cfg.num_measurements {
        accum.fill(0.0);
        let mut samples = 0usize;
        loop {
            let noise = match &mut seeds {
                SampleSeeds::Sequential(rng) => Noise::new(platform, rng.next_u64(), None),
                SampleSeeds::Cells(memo) => {
                    let seed = cell_seed(m, samples);
                    Noise::new(platform, seed, memo.table(platform, prog, seed))
                }
            };
            tape.run(noise, None)?;
            if let Some(stats) = stats.as_deref_mut() {
                tape.fold_stats(stats);
            }
            for (a, t) in accum.iter_mut().zip(tape.rank_times()) {
                *a += t;
            }
            samples += 1;
            let elapsed = accum.iter().copied().fold(0.0, f64::max);
            if elapsed >= cfg.t_measure || samples >= cfg.max_samples {
                break;
            }
        }
        // Estimate: max over ranks of (elapsed on that rank / n_samples).
        let mut est = accum.iter().map(|a| a / samples as f64).fold(0.0, f64::max);
        // Heavy-tailed timer contamination from the fault plan: the
        // whole measurement (not an individual sample) reads high, which
        // is how wall-clock outliers present in real benchmark output.
        if let Some(plan) = &platform.faults {
            let factor = plan.outlier(measurements.len());
            if factor != 1.0 {
                est *= factor;
                if let Some(stats) = stats.as_deref_mut() {
                    stats.faults.outliers += 1;
                }
            }
        }
        measurements.push(est);
    }
    let mut sorted = measurements.clone();
    sorted.sort_by(f64::total_cmp);
    let percentiles = Percentiles {
        p01: percentile(&sorted, 1.0),
        p10: percentile(&sorted, 10.0),
        p50: percentile(&sorted, 50.0),
        p90: percentile(&sorted, 90.0),
        p99: percentile(&sorted, 99.0),
    };
    Ok(BenchResult {
        measurements,
        percentiles,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::TableWorkload;
    use dr_dag::{build_schedule, CostKey, DagBuilder, DecisionSpace, OpSpec};

    fn one_op_program(dur: f64) -> CompiledProgram {
        let mut b = DagBuilder::new();
        b.add("c", OpSpec::CpuWork(CostKey::new("c")));
        let sp = DecisionSpace::new(b.build().unwrap(), 1).unwrap();
        let t = sp.enumerate().next().unwrap();
        let s = build_schedule(&sp, &t);
        let mut w = TableWorkload::new(2);
        w.cost_all("c", dur);
        CompiledProgram::compile(&s, &w).unwrap()
    }

    #[test]
    fn percentile_interpolates() {
        let data = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&data, 0.0), 1.0);
        assert_eq!(percentile(&data, 100.0), 5.0);
        assert_eq!(percentile(&data, 50.0), 3.0);
        assert_eq!(percentile(&data, 25.0), 2.0);
        assert!((percentile(&data, 10.0) - 1.4).abs() < 1e-12);
    }

    #[test]
    fn percentile_single_element() {
        assert_eq!(percentile(&[7.0], 1.0), 7.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn percentile_empty_panics() {
        percentile(&[], 50.0);
    }

    #[test]
    fn noiseless_benchmark_recovers_duration() {
        let prog = one_op_program(2.5e-4);
        let platform = Platform::perlmutter_like().noiseless();
        let res = benchmark(&prog, &platform, &BenchConfig::quick(), 1).unwrap();
        assert!((res.time() - 2.5e-4).abs() < 1e-9, "{}", res.time());
        assert_eq!(
            res.measurements.len(),
            BenchConfig::quick().num_measurements
        );
        // All percentiles identical without noise.
        assert_eq!(res.percentiles.p01, res.percentiles.p99);
    }

    #[test]
    fn measurement_uses_multiple_samples_for_fast_programs() {
        let prog = one_op_program(1e-5);
        let platform = Platform::perlmutter_like().noiseless();
        let cfg = BenchConfig {
            t_measure: 1e-3,
            num_measurements: 3,
            max_samples: 500,
        };
        let res = benchmark(&prog, &platform, &cfg, 1).unwrap();
        // 100 samples of 1e-5 fill 1e-3 seconds; the estimate still
        // recovers the per-invocation time.
        assert!((res.time() - 1e-5).abs() < 1e-10);
    }

    #[test]
    fn max_samples_caps_the_loop() {
        let prog = one_op_program(1e-9);
        let platform = Platform::perlmutter_like().noiseless();
        let cfg = BenchConfig {
            t_measure: 10.0,
            num_measurements: 2,
            max_samples: 7,
        };
        let res = benchmark(&prog, &platform, &cfg, 1).unwrap();
        assert!((res.time() - 1e-9).abs() < 1e-12);
    }

    #[test]
    fn instrumented_benchmark_matches_plain_and_counts_samples() {
        let prog = one_op_program(1e-4);
        let platform = Platform::perlmutter_like(); // noisy
        let plain = benchmark(&prog, &platform, &BenchConfig::quick(), 5).unwrap();
        let (inst, stats) =
            benchmark_instrumented(&prog, &platform, &BenchConfig::quick(), 5).unwrap();
        assert_eq!(plain, inst, "instrumentation must not change measurements");
        assert!(stats.runs > 0);
        // The same instruction count accrues on every sample.
        assert_eq!(stats.instructions % stats.runs, 0);
        assert!(
            stats.instructions >= stats.runs * 2,
            "2 ranks, >= 1 instr each"
        );
        assert!(stats.cpu_busy.iter().all(|&b| b > 0.0));
    }

    #[test]
    fn traced_benchmark_matches_instrumented_and_records_a_span() {
        let prog = one_op_program(1e-4);
        let platform = Platform::perlmutter_like();
        let (plain, _) =
            benchmark_instrumented(&prog, &platform, &BenchConfig::quick(), 5).unwrap();
        let tracer = dr_trace::Tracer::new();
        let mut lane = tracer.lane("eval-0");
        let (traced, stats) =
            benchmark_traced(&prog, &platform, &BenchConfig::quick(), 5, &mut lane).unwrap();
        assert_eq!(plain, traced, "tracing must not change measurements");
        let snap = tracer.snapshot();
        assert_eq!(snap.spans.len(), 1);
        let s = &snap.spans[0];
        assert_eq!(s.name, "benchmark");
        assert!(s.end_s.is_some());
        let note = |k: &str| s.notes.iter().find(|(n, _)| n == k).map(|(_, v)| v.clone());
        assert_eq!(note("eval_seed").as_deref(), Some("5"));
        assert_eq!(note("samples").as_deref(), Some(&*stats.runs.to_string()));
        assert!(note("t_median_s").is_some());
        // Disabled tracer: identical results, zero spans.
        let off = dr_trace::Tracer::disabled();
        let mut off_lane = off.lane("eval-0");
        let (quiet, _) =
            benchmark_traced(&prog, &platform, &BenchConfig::quick(), 5, &mut off_lane).unwrap();
        assert_eq!(quiet, plain);
        assert_eq!(off.span_count(), 0);
    }

    #[test]
    fn memo_benchmark_is_deterministic() {
        let prog = one_op_program(1e-4);
        let platform = Platform::perlmutter_like(); // noisy
        let mut memo = SimMemo::default();
        let a = benchmark_memo(&prog, &platform, &BenchConfig::quick(), &mut memo).unwrap();
        let b = benchmark_memo(&prog, &platform, &BenchConfig::quick(), &mut memo).unwrap();
        assert_eq!(a, b, "warm rerun must be bit-identical");
        assert!(
            a.percentiles.p99 > a.percentiles.p01,
            "noise must spread measurements"
        );
        assert!((a.time() - 1e-4).abs() / 1e-4 < 0.05);
        let mut fresh = SimMemo::default();
        let (inst, stats) =
            benchmark_memo_instrumented(&prog, &platform, &BenchConfig::quick(), &mut fresh)
                .unwrap();
        assert_eq!(inst, a, "instrumentation must not change measurements");
        assert!(stats.runs > 0);
    }

    #[test]
    fn memo_benchmark_on_noiseless_platform_recovers_duration() {
        let prog = one_op_program(2.5e-4);
        let platform = Platform::perlmutter_like().noiseless();
        let mut memo = SimMemo::default();
        let res = benchmark_memo(&prog, &platform, &BenchConfig::quick(), &mut memo).unwrap();
        assert!((res.time() - 2.5e-4).abs() < 1e-9, "{}", res.time());
        assert_eq!(res.percentiles.p01, res.percentiles.p99);
    }

    #[test]
    fn noisy_benchmark_is_seed_deterministic_and_spread() {
        let prog = one_op_program(1e-4);
        let platform = Platform::perlmutter_like(); // sigma 0.02
        let a = benchmark(&prog, &platform, &BenchConfig::quick(), 5).unwrap();
        let b = benchmark(&prog, &platform, &BenchConfig::quick(), 5).unwrap();
        assert_eq!(a, b);
        assert!(
            a.percentiles.p99 > a.percentiles.p01,
            "noise must spread measurements"
        );
        // Median stays near the true duration.
        assert!((a.time() - 1e-4).abs() / 1e-4 < 0.05);
    }
}
