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
use crate::exec::{Noise, Tape, LANES};
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

/// The measurement protocol with memoized noise, folding every sample's
/// [`SimStats`] into one aggregate (`stats.runs` counts the samples).
///
/// Differs from [`benchmark`] in how per-sample noise seeds are chosen:
/// instead of a sequential generator seeded per evaluation, each
/// `(measurement, sample)` cell has a fixed seed shared by *every*
/// schedule (see [`cell_seed`]). That makes the noise-factor tables in
/// `memo` reusable across the whole exploration while keeping the
/// protocol deterministic: the result is a pure function of the program
/// and platform, bit-identical warm or cold.
///
/// Because a cell's seed does not depend on earlier samples, the protocol
/// replays up to eight samples of a measurement in one tape pass (see
/// [`lane_width`]). Lanes past the sample that completes the measurement
/// are discarded, so the pass width changes wall time, never results.
pub fn benchmark_memo_instrumented(
    prog: &CompiledProgram,
    platform: &Platform,
    cfg: &BenchConfig,
    memo: &mut SimMemo,
) -> Result<(BenchResult, SimStats), SimError> {
    benchmark_memo_with(prog, platform, cfg, memo, lane_width)
}

/// A pass-width rule: the width of the pass that starts at a sample,
/// given the samples the measurement is predicted to take. It must
/// return 1, 2, 4 or 8 and keep every pass inside one block of [`LANES`]
/// cells.
type Widths = fn(usize, usize) -> usize;

/// [`benchmark_memo_instrumented`] with the pass widths chosen by
/// `widths`.
fn benchmark_memo_with(
    prog: &CompiledProgram,
    platform: &Platform,
    cfg: &BenchConfig,
    memo: &mut SimMemo,
    widths: Widths,
) -> Result<(BenchResult, SimStats), SimError> {
    let mut stats = SimStats::for_shape(prog.num_ranks, prog.num_streams);
    let seeds = SampleSeeds::Cells(memo, widths);
    let result = protocol(prog, platform, cfg, seeds, Some(&mut stats))?;
    Ok((result, stats))
}

/// The width of the memoized protocol's pass that starts at sample `s`
/// when the measurement is predicted to take `predicted` samples: the
/// widest of 8, 4, 2 and 1 lanes that fits in the predicted remainder and
/// that `s` is a multiple of, so no pass crosses a block of [`LANES`]
/// cells.
fn lane_width(s: usize, predicted: usize) -> usize {
    let room = predicted.saturating_sub(s).max(1);
    let mut w = LANES;
    while w > room || !s.is_multiple_of(w) {
        w /= 2;
    }
    w
}

/// Where the protocol's per-sample noise seeds come from.
enum SampleSeeds<'m> {
    /// One generator seeded per evaluation, drawn once per sample; passes
    /// are one lane wide, so no draw is made past the last sample.
    Sequential(SmallRng),
    /// The fixed per-cell seeds, with their noise tables in the memo, and
    /// the pass-width rule.
    Cells(&'m mut SimMemo, Widths),
}

impl SampleSeeds<'_> {
    /// The noise of the `W`-lane pass over samples `s..s + W` of
    /// measurement `m`.
    fn noise<const W: usize>(
        &mut self,
        platform: &Platform,
        prog: &CompiledProgram,
        m: usize,
        s: usize,
    ) -> Noise<'_, W> {
        match self {
            SampleSeeds::Sequential(rng) => {
                Noise::new(platform, std::array::from_fn(|_| rng.next_u64()), None)
            }
            SampleSeeds::Cells(memo, _) => {
                let first = s % LANES;
                let table = memo.table(platform, prog, cell_seed(m, s - first));
                let seeds = std::array::from_fn(|l| cell_seed(m, s + l));
                Noise::new(platform, seeds, table.map(|t| (t, first)))
            }
        }
    }
}

/// One measurement in progress.
struct Measurement {
    /// Per-rank accumulated busy time across its samples.
    accum: Vec<f64>,
    samples: usize,
    /// The slowest rank's accumulated time.
    elapsed: f64,
}

impl Measurement {
    /// Replays one pass and folds its lanes in sample order, stopping at
    /// the sample that completes the measurement: later lanes are
    /// discarded with their errors and stats. Returns whether the
    /// measurement is complete.
    fn pass<const W: usize>(
        &mut self,
        tape: &mut Tape<'_>,
        noise: Noise<'_, W>,
        cfg: &BenchConfig,
        mut stats: Option<&mut SimStats>,
    ) -> Result<bool, SimError> {
        for (l, end) in tape.run(noise, None).into_iter().enumerate() {
            end?;
            if let Some(stats) = stats.as_deref_mut() {
                tape.fold_stats(l, stats);
            }
            for (a, t) in self.accum.iter_mut().zip(tape.rank_times(l)) {
                *a += t;
            }
            self.samples += 1;
            self.elapsed = self.accum.iter().copied().fold(0.0, f64::max);
            if self.elapsed >= cfg.t_measure || self.samples >= cfg.max_samples {
                return Ok(true);
            }
        }
        Ok(false)
    }
}

/// The protocol: lowers `prog` once, then replays it pass by pass.
fn protocol(
    prog: &CompiledProgram,
    platform: &Platform,
    cfg: &BenchConfig,
    mut seeds: SampleSeeds<'_>,
    mut stats: Option<&mut SimStats>,
) -> Result<BenchResult, SimError> {
    let mut tape = Tape::lower(prog, platform);
    let mut measurements = Vec::with_capacity(cfg.num_measurements);
    let mut meas = Measurement {
        accum: vec![0.0; prog.num_ranks],
        samples: 0,
        elapsed: 0.0,
    };
    for m in 0..cfg.num_measurements {
        // Before its first sample, a measurement is predicted to take as
        // many samples as the previous one.
        let mut predicted = meas.samples;
        meas.accum.fill(0.0);
        meas.samples = 0;
        loop {
            let s = meas.samples;
            let width = match &seeds {
                SampleSeeds::Sequential(_) => 1,
                SampleSeeds::Cells(_, widths) => widths(s, predicted),
            };
            let stats = stats.as_deref_mut();
            let done = match width {
                1 => meas.pass::<1>(&mut tape, seeds.noise(platform, prog, m, s), cfg, stats),
                2 => meas.pass::<2>(&mut tape, seeds.noise(platform, prog, m, s), cfg, stats),
                4 => meas.pass::<4>(&mut tape, seeds.noise(platform, prog, m, s), cfg, stats),
                8 => meas.pass::<8>(&mut tape, seeds.noise(platform, prog, m, s), cfg, stats),
                _ => unreachable!("pass widths are 1, 2, 4 or 8"),
            }?;
            if done {
                break;
            }
            let rate = cfg.t_measure * meas.samples as f64 / meas.elapsed;
            predicted = (rate.ceil() as usize).min(cfg.max_samples);
        }
        // Estimate: max over ranks of (elapsed on that rank / n_samples).
        let mut est = meas
            .accum
            .iter()
            .map(|a| a / meas.samples as f64)
            .fold(0.0, f64::max);
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
    use dr_dag::{build_schedule, CommKey, CostKey, DagBuilder, DecisionSpace, OpSpec};
    use dr_fault::{FaultConfig, FaultPlan};

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
    fn memo_benchmark_is_deterministic() {
        let prog = one_op_program(1e-4);
        let platform = Platform::perlmutter_like(); // noisy
        let mut memo = SimMemo::default();
        let cfg = BenchConfig::quick();
        let a = benchmark_memo_instrumented(&prog, &platform, &cfg, &mut memo).unwrap();
        let b = benchmark_memo_instrumented(&prog, &platform, &cfg, &mut memo).unwrap();
        assert_eq!(a, b, "warm rerun must be bit-identical");
        let (a, stats) = a;
        assert!(
            a.percentiles.p99 > a.percentiles.p01,
            "noise must spread measurements"
        );
        assert!((a.time() - 1e-4).abs() / 1e-4 < 0.05);
        assert!(stats.runs > 0);
    }

    #[test]
    fn memo_benchmark_on_noiseless_platform_recovers_duration() {
        let prog = one_op_program(2.5e-4);
        let platform = Platform::perlmutter_like().noiseless();
        let mut memo = SimMemo::default();
        let (res, _) =
            benchmark_memo_instrumented(&prog, &platform, &BenchConfig::quick(), &mut memo)
                .unwrap();
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

    /// Three ranks: two contending kernels of `d1` and `d2` seconds on
    /// two streams feeding a halo exchange.
    fn kernel_exchange_program(d1: f64, d2: f64) -> CompiledProgram {
        let mut b = DagBuilder::new();
        let key = CommKey::new("halo");
        let k1 = b.add("k1", OpSpec::GpuKernel(CostKey::new("k1")));
        let k2 = b.add("k2", OpSpec::GpuKernel(CostKey::new("k2")));
        let ps = b.add("PostSends", OpSpec::PostSends(key.clone()));
        let pr = b.add("PostRecvs", OpSpec::PostRecvs(key.clone()));
        let ws = b.add("WaitSends", OpSpec::WaitSends(key.clone()));
        let wr = b.add("WaitRecvs", OpSpec::WaitRecvs(key));
        b.edge(k1, ps);
        b.edge(k2, ps);
        b.edge(ps, ws);
        b.edge(pr, ws);
        b.edge(pr, wr);
        let sp = DecisionSpace::new(b.build().unwrap(), 2).unwrap();
        let t = sp
            .traversal_from_names(&[
                ("k1", Some(0)),
                ("k2", Some(1)),
                ("PostRecvs", None),
                ("CER-after-k1", None),
                ("CER-after-k2", None),
                ("CES-b4-PostSends", None),
                ("PostSends", None),
                ("WaitSends", None),
                ("WaitRecvs", None),
            ])
            .unwrap();
        let mut w = TableWorkload::new(3);
        w.cost_all("k1", d1).cost_all("k2", d2);
        w.comm_all_to_all("halo", 1 << 16);
        CompiledProgram::compile(&build_schedule(&sp, &t), &w).unwrap()
    }

    /// The tightest virtual-time limit, to a femtosecond, under which
    /// the one-lane schedule of `cfg` completes on `platform`: just above
    /// the slowest kept sample, so only discarded lanes can trip it.
    fn tightest_limit(prog: &CompiledProgram, platform: &Platform, cfg: &BenchConfig) -> f64 {
        let (mut lo, mut hi) = (0.0, 1.0);
        while hi - lo > 1e-15 {
            let mid = (lo + hi) / 2.0;
            let budget = platform.clone().with_budget(0, mid);
            let mut memo = SimMemo::default();
            match benchmark_memo_with(prog, &budget, cfg, &mut memo, |_, _| 1) {
                Ok(_) => hi = mid,
                Err(_) => lo = mid,
            }
        }
        hi
    }

    #[test]
    fn pass_widths_never_change_results() {
        // Lanes are pure functions of their cell seed and lanes past the
        // stopping sample are discarded, so every width schedule gives
        // the one-lane schedule's measurements, stats and errors.
        let schedules: [(&str, Widths); 3] = [
            ("all-8", |_, _| 8),
            ("alternating", |s, _| [8, 1, 4, 2][s / LANES % 4]),
            ("production", lane_width),
        ];
        let capped = BenchConfig {
            t_measure: 1e-3,
            num_measurements: 5,
            max_samples: 13,
        };
        // About two samples per measurement of the exchange programs.
        let short = BenchConfig {
            t_measure: 2e-4,
            ..BenchConfig::quick()
        };
        let noisy = Platform::perlmutter_like();
        let programs = [
            one_op_program(1e-4),
            one_op_program(3.3e-5),
            one_op_program(1e-6),
            kernel_exchange_program(8e-5, 6e-5),
            kernel_exchange_program(2e-5, 9e-5),
            kernel_exchange_program(5e-5, 5e-5),
        ];
        let (mut errors, mut oks) = (0, 0);
        for prog in &programs {
            for cfg in [BenchConfig::quick(), capped, short] {
                // Watchdog limits at and just under the tightest one the
                // kept samples pass: noise decides which samples trip.
                let tightest = tightest_limit(prog, &noisy, &cfg);
                let platforms = [
                    noisy.clone().noiseless(),
                    noisy.clone(),
                    noisy
                        .clone()
                        .with_faults(FaultPlan::derive(&FaultConfig::light(), 3)),
                    noisy
                        .clone()
                        .with_faults(FaultPlan::derive(&FaultConfig::heavy(), 3)),
                    noisy.clone().with_budget(0, tightest),
                    noisy.clone().with_budget(0, tightest * 0.999),
                ];
                for platform in &platforms {
                    // One memo per case, shared by every schedule, so
                    // tables filled at one width are read at another.
                    let mut memo = SimMemo::default();
                    let mut run = |widths| {
                        benchmark_memo_with(prog, platform, &cfg, &mut memo, widths)
                            .map(|(result, stats)| (result, stats.to_json()))
                    };
                    let scalar = run(|_, _| 1);
                    for (name, widths) in schedules {
                        assert_eq!(run(widths), scalar, "{name} schedule diverged");
                    }
                    if scalar.is_ok() {
                        oks += 1;
                    } else {
                        errors += 1;
                    }
                }
            }
        }
        assert!(oks > 0 && errors > 0, "{oks} ok, {errors} watchdog kills");
    }

    #[test]
    fn lane_width_fits_the_prediction_and_stays_aligned() {
        assert_eq!(lane_width(0, 0), 1, "no prediction: one lane");
        assert_eq!(lane_width(0, 28), 8);
        assert_eq!(lane_width(24, 28), 4);
        assert_eq!(lane_width(28, 28), 1, "past the prediction: one lane");
        assert_eq!(lane_width(0, 2), 2);
        assert_eq!(lane_width(2, 3), 1);
        assert_eq!(lane_width(6, 50), 2, "aligned to its own width");
        assert_eq!(lane_width(12, 50), 4);
    }
}
