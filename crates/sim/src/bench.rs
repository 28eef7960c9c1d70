//! The paper's empirical measurement protocol (Section III-C-3), over
//! simulated clocks.
//!
//! Benchmarking is done in terms of *measurements* and *samples*: each
//! sample is one invocation of the program; a measurement repeats samples
//! until `t_measure` (0.01 s in the paper) of simulated time has elapsed
//! and reports `t_measure / n_samples`, maximized across ranks. The 1st,
//! 10th, 50th, 90th and 99th percentile measurements are recorded with
//! each explored sequence and used for rule generation.
//!
//! Two protocols share one driver. [`benchmark`] draws each sample's
//! noise seed from a generator seeded per evaluation and replays one
//! sample per tape pass, measurement by measurement.
//! [`benchmark_memo_instrumented`] gives every `(measurement, sample)`
//! cell a fixed seed and replays the cells sample-major across
//! measurements, one lane per open measurement (up to eight) per pass;
//! it folds samples and stats in `(measurement, sample)` order, so its
//! results equal a one-cell-at-a-time replay bit for bit. Every
//! simulator error is decided when the program is lowered, before any
//! sample is replayed.

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
/// schedule (see `cell_seed`). That makes the noise-factor table in
/// `memo` reusable across the whole exploration while keeping the
/// protocol deterministic: the result is a pure function of the program
/// and platform, bit-identical warm or cold.
///
/// Because a cell's seed does not depend on earlier samples, the protocol
/// replays the cells sample-major across measurements, up to eight per
/// tape pass (see `Run::next_cells`). Lanes past the sample that
/// completes their measurement are discarded, and every measurement and
/// the stats are folded in `(measurement, sample)` order, so the packing
/// changes wall time, never results.
pub fn benchmark_memo_instrumented(
    prog: &CompiledProgram,
    platform: &Platform,
    cfg: &BenchConfig,
    memo: &mut SimMemo,
) -> Result<(BenchResult, SimStats), SimError> {
    benchmark_memo_with(prog, platform, cfg, memo, true)
}

/// [`benchmark_memo_instrumented`], its cells replayed sample-major in
/// passes of up to [`LANES`] lanes if `packed`, else one at a time in
/// `(measurement, sample)` order.
fn benchmark_memo_with(
    prog: &CompiledProgram,
    platform: &Platform,
    cfg: &BenchConfig,
    memo: &mut SimMemo,
    packed: bool,
) -> Result<(BenchResult, SimStats), SimError> {
    let mut stats = SimStats::for_shape(prog.num_ranks, prog.num_streams);
    let seeds = SampleSeeds::Cells { memo, packed };
    let result = protocol(prog, platform, cfg, seeds, Some(&mut stats))?;
    Ok((result, stats))
}

/// Where the protocol's per-sample noise seeds come from.
enum SampleSeeds<'m> {
    /// One generator seeded per evaluation, drawn once per sample in
    /// `(measurement, sample)` order; passes are one lane wide, so no
    /// draw is made past the last sample.
    Sequential(SmallRng),
    /// The fixed per-cell seeds, with their noise factors in the memo,
    /// replayed sample-major and up to eight at a time if `packed`.
    Cells { memo: &'m mut SimMemo, packed: bool },
}

/// One sample of one measurement: `(m, s)`.
type Cell = (usize, usize);

/// The protocol's progress: every measurement's accumulated samples, and
/// which cells to replay next.
struct Run<'c> {
    cfg: &'c BenchConfig,
    ranks: usize,
    /// Per measurement, per rank: busy time accumulated over its samples.
    accum: Vec<f64>,
    /// Samples folded into each measurement.
    samples: Vec<usize>,
    /// Whether each measurement is complete.
    done: Vec<bool>,
    /// The next cell id, `s · M + m`, the packed order has not passed.
    cursor: usize,
    /// Folded samples' busy times, one [`Tape::busy`] row each, in the
    /// order folded, tagged with their measurement; `None` without stats.
    busy: Option<(Vec<f64>, Vec<usize>)>,
}

impl Run<'_> {
    /// Fills `cells` with the next cells to replay and returns how many,
    /// 0 once every measurement is complete.
    ///
    /// Packed, it takes the next cells in sample-major order `s · M + m`
    /// whose measurement is open, as many as there are open measurements
    /// rounded up to a power of two, at most [`LANES`]. The first of them
    /// are the next sample of each open measurement, all needed; the
    /// rounding may add a later sample of one, which the fold discards if
    /// an earlier one completes its measurement. Unpacked, it takes the
    /// next sample of the first open measurement, one at a time.
    fn next_cells(&mut self, packed: bool, cells: &mut [Cell; LANES]) -> usize {
        let measurements = self.cfg.num_measurements;
        if !packed {
            return match (0..measurements).find(|&m| !self.done[m]) {
                Some(m) => {
                    cells[0] = (m, self.samples[m]);
                    1
                }
                None => 0,
            };
        }
        let open = self.done.iter().filter(|&&done| !done).count();
        if open == 0 {
            return 0;
        }
        let width = open.min(LANES).next_power_of_two();
        // A measurement always takes at least one sample.
        let end = measurements * self.cfg.max_samples.max(1);
        let mut n = 0;
        while n < width && self.cursor < end {
            let cell = (self.cursor % measurements, self.cursor / measurements);
            self.cursor += 1;
            if !self.done[cell.0] {
                cells[n] = cell;
                n += 1;
            }
        }
        n
    }

    /// Folds lane `l` of the last pass, replayed for `cell`, into its
    /// measurement; a lane whose measurement is already complete is
    /// discarded with its stats.
    fn fold(&mut self, tape: &Tape<'_>, l: usize, (m, s): Cell) {
        if self.done[m] {
            return;
        }
        debug_assert_eq!(s, self.samples[m], "samples fold in order");
        let accum = &mut self.accum[m * self.ranks..][..self.ranks];
        for (a, t) in accum.iter_mut().zip(tape.rank_times(l)) {
            *a += t;
        }
        self.samples[m] += 1;
        if let Some((rows, tags)) = &mut self.busy {
            rows.extend(tape.busy(l));
            tags.push(m);
        }
        let elapsed = accum.iter().copied().fold(0.0, f64::max);
        self.done[m] = elapsed >= self.cfg.t_measure || self.samples[m] >= self.cfg.max_samples;
    }
}

impl SampleSeeds<'_> {
    /// Replays the first `n` of `cells` in one pass of `W` ≥ `n` lanes,
    /// the lanes past `n` repeating the last cell, and folds them.
    fn pass<const W: usize>(
        &mut self,
        (tape, platform, prog): (&mut Tape<'_>, &Platform, &CompiledProgram),
        cells: &[Cell; LANES],
        n: usize,
        run: &mut Run<'_>,
    ) {
        let cells: [Cell; W] = std::array::from_fn(|l| cells[l.min(n - 1)]);
        match self {
            SampleSeeds::Sequential(rng) => {
                let seeds: [u64; W] = std::array::from_fn(|_| rng.next_u64());
                tape.run(Noise::new(platform, seeds, None), None);
            }
            SampleSeeds::Cells { memo, .. } => {
                let measurements = run.cfg.num_measurements;
                let ids = cells.map(|(m, s)| s * measurements + m);
                let table = memo.table(platform, prog, measurements, ids[W - 1] + 1);
                let seeds = cells.map(|(m, s)| cell_seed(m, s));
                tape.run(Noise::new(platform, seeds, table.map(|t| (t, ids))), None);
            }
        }
        for (l, &cell) in cells.iter().enumerate().take(n) {
            run.fold(tape, l, cell);
        }
    }
}

/// The protocol: lowers `prog` once, failing there if it cannot run,
/// then replays it pass by pass until every measurement is complete.
fn protocol(
    prog: &CompiledProgram,
    platform: &Platform,
    cfg: &BenchConfig,
    mut seeds: SampleSeeds<'_>,
    mut stats: Option<&mut SimStats>,
) -> Result<BenchResult, SimError> {
    let mut tape = Tape::lower(prog, platform)?;
    let (measurements, ranks) = (cfg.num_measurements, prog.num_ranks);
    let mut run = Run {
        cfg,
        ranks,
        accum: vec![0.0; measurements * ranks],
        samples: vec![0; measurements],
        done: vec![false; measurements],
        cursor: 0,
        busy: stats.is_some().then(Default::default),
    };
    let packed = matches!(seeds, SampleSeeds::Cells { packed: true, .. });
    let mut cells = [(0, 0); LANES];
    loop {
        let n = run.next_cells(packed, &mut cells);
        let at = (&mut tape, platform, prog);
        match n {
            0 => break,
            1 => seeds.pass::<1>(at, &cells, n, &mut run),
            2 => seeds.pass::<2>(at, &cells, n, &mut run),
            3 | 4 => seeds.pass::<4>(at, &cells, n, &mut run),
            _ => seeds.pass::<8>(at, &cells, n, &mut run),
        }
    }
    if let (Some(stats), Some((rows, tags))) = (stats.as_deref_mut(), &run.busy) {
        // Busy times fold in (measurement, sample) order: a counting
        // sort by measurement, stable because each measurement's rows
        // were folded in sample order.
        let mut next: Vec<usize> = run
            .samples
            .iter()
            .scan(0, |start, &n| Some(std::mem::replace(start, *start + n)))
            .collect();
        let mut order = vec![0; tags.len()];
        for (i, &m) in tags.iter().enumerate() {
            order[next[m]] = i;
            next[m] += 1;
        }
        let width = ranks * (1 + prog.num_streams);
        let mut sums = vec![0.0; width];
        for i in order {
            for (sum, b) in sums.iter_mut().zip(&rows[i * width..][..width]) {
                *sum += b;
            }
        }
        // The stats start at zero, so adding the sums adds each row in
        // order.
        tape.fold_stats(tags.len() as u64, sums, stats);
    }
    let mut measurements = Vec::with_capacity(cfg.num_measurements);
    for (accum, &samples) in run.accum.chunks(ranks.max(1)).zip(&run.samples) {
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

    #[test]
    fn packed_passes_equal_the_one_lane_protocol() {
        // Lanes are pure functions of their cell seed, lanes past their
        // measurement's stopping sample are discarded, and samples and
        // stats fold in (measurement, sample) order, so the packed
        // protocol gives the one-lane protocol's measurements, stats and
        // errors.
        let capped = BenchConfig {
            t_measure: 1e-3,
            num_measurements: 5,
            max_samples: 13,
        };
        // About two samples per measurement of the exchange programs,
        // with fewer, exactly eight and more measurements than lanes.
        let short = |num_measurements| BenchConfig {
            t_measure: 2e-4,
            num_measurements,
            ..BenchConfig::quick()
        };
        let configs = [
            BenchConfig::quick(),
            capped,
            short(1),
            short(3),
            short(8),
            short(9),
            short(20),
        ];
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
            // A step budget the program exhausts, and lost messages that
            // deadlock the exchange programs.
            let steps = prog.instrs.iter().map(Vec::len).sum::<usize>() as u64 - 1;
            for cfg in configs {
                let platforms = [
                    noisy.clone().noiseless(),
                    noisy.clone(),
                    noisy
                        .clone()
                        .with_faults(FaultPlan::derive(&FaultConfig::light(), 3)),
                    noisy
                        .clone()
                        .with_faults(FaultPlan::derive(&FaultConfig::heavy(), 3)),
                    noisy.clone().with_budget(steps),
                    noisy
                        .clone()
                        .with_faults(FaultPlan::derive(&FaultConfig::drops(), 3)),
                ];
                for platform in &platforms {
                    // One memo per case, shared by both protocols, so
                    // factors tabulated by one are read by the other.
                    let mut memo = SimMemo::default();
                    let mut run = |packed| {
                        benchmark_memo_with(prog, platform, &cfg, &mut memo, packed)
                            .map(|(result, stats)| (result, stats.to_json()))
                            .map_err(|e| e.to_string())
                    };
                    let one_lane = run(false);
                    assert_eq!(run(true), one_lane, "packed protocol diverged");
                    if one_lane.is_ok() {
                        oks += 1;
                    } else {
                        errors += 1;
                    }
                }
            }
        }
        assert!(oks > 0 && errors > 0, "{oks} ok, {errors} errors");
    }

    #[test]
    fn a_deadlocked_program_fails_before_it_touches_the_memo() {
        // Every error is decided when the program is lowered, so a lost
        // message fails the memoized protocol with the sequential one's
        // error before a single sample tabulates noise.
        let prog = kernel_exchange_program(8e-5, 6e-5);
        let drop_all = FaultConfig {
            drop_prob: 1.0,
            ..FaultConfig::clean()
        };
        let platform = Platform::perlmutter_like().with_faults(FaultPlan::derive(&drop_all, 1));
        let cfg = BenchConfig::quick();
        let mut memo = SimMemo::default();
        let memoed = benchmark_memo_instrumented(&prog, &platform, &cfg, &mut memo);
        let sequential = benchmark(&prog, &platform, &cfg, 1);
        assert!(
            matches!(sequential, Err(SimError::Deadlock { .. })),
            "{sequential:?}"
        );
        assert_eq!(memoed.map(|_| ()), sequential.map(|_| ()));
        assert_eq!(memo.noise_tables(), 0, "no sample tabulated noise");
    }
}
