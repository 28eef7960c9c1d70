//! Automatic performance-class labeling (paper Section IV-A, Fig. 4).
//!
//! The benchmark times of the explored implementations are sorted, the
//! sorted series is convolved with a step kernel whose radius is 0.5 % of
//! the number of measurements (minimum 1), peaks of the response are
//! detected, small peaks are screened out by keeping only those whose
//! prominence reaches the 98th percentile, and each surviving peak becomes
//! a boundary between performance classes. The number of classes is
//! therefore discovered, not chosen a priori.

use crate::signal::{find_peaks, peak_prominences, percentile, step_convolve, Convolution};

/// Labeling parameters (paper defaults).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LabelingConfig {
    /// Step-kernel radius as a fraction of the number of measurements
    /// (paper: 0.005, minimum radius 1).
    pub radius_frac: f64,
    /// Keep only peaks whose prominence is at or above this percentile of
    /// all peak prominences (paper: 98).
    pub prominence_percentile: f64,
    /// MAD outlier screen: times above
    /// `median + k · 1.4826 · MAD` are excluded from boundary detection
    /// and folded into the slowest class, so heavy-tailed measurement
    /// contamination cannot fabricate classes. `0.0` (the default)
    /// disables the screen, leaving the paper's algorithm untouched.
    pub outlier_mad_k: f64,
}

impl Default for LabelingConfig {
    fn default() -> Self {
        LabelingConfig {
            radius_frac: 0.005,
            prominence_percentile: 98.0,
            outlier_mad_k: 0.0,
        }
    }
}

impl LabelingConfig {
    /// Paper defaults plus an MAD outlier screen sized for chaos runs
    /// (`k = 3.5`, a standard robust-statistics cutoff).
    pub fn robust() -> Self {
        LabelingConfig {
            outlier_mad_k: 3.5,
            ..LabelingConfig::default()
        }
    }
}

/// The outcome of class labeling.
#[derive(Debug, Clone, PartialEq)]
pub struct Labeling {
    /// Indices of the input series sorted by ascending time.
    pub order: Vec<usize>,
    /// The sorted times.
    pub sorted_times: Vec<f64>,
    /// The step-kernel convolution of the sorted times (for Fig. 4b).
    pub convolution: Convolution,
    /// Class boundaries as positions in the *sorted* series: class `c`
    /// spans `boundaries[c-1] .. boundaries[c]` (with implicit 0 and n).
    /// An implementation at sorted position `p` has class
    /// `boundaries.partition_point(|b| b <= p)`.
    pub boundaries: Vec<usize>,
    /// Class of each input implementation (0 = fastest class).
    pub labels: Vec<usize>,
    /// Number of classes (`boundaries.len() + 1`).
    pub num_classes: usize,
    /// `(fastest, slowest)` time inside each class.
    pub class_ranges: Vec<(f64, f64)>,
}

/// Labels a series of benchmark times. `times[i]` is the measured time of
/// implementation `i`; the returned [`Labeling::labels`] is parallel to
/// the input.
///
/// The function never panics and never produces non-finite class ranges:
///
/// * an empty series yields a degenerate single-class labeling;
/// * non-finite times are clamped to the nearest finite extreme of the
///   series (`NaN`/`+∞` to the slowest finite time, `-∞` to the fastest)
///   before sorting, so they join the edge classes instead of poisoning
///   the convolution;
/// * with [`LabelingConfig::outlier_mad_k`] set, MAD-screened outliers
///   are excluded from boundary detection and folded into the slowest
///   class.
pub fn label_times(times: &[f64], cfg: &LabelingConfig) -> Labeling {
    let n = times.len();
    if n == 0 {
        return Labeling {
            order: Vec::new(),
            sorted_times: Vec::new(),
            convolution: Convolution {
                start: 0,
                values: Vec::new(),
            },
            boundaries: Vec::new(),
            labels: Vec::new(),
            num_classes: 1,
            class_ranges: vec![(0.0, 0.0)],
        };
    }

    // Clamp non-finite measurements to the finite extremes of the series
    // (everything-non-finite degrades to a constant series → one class).
    let min_finite = times
        .iter()
        .copied()
        .filter(|t| t.is_finite())
        .fold(f64::INFINITY, f64::min);
    let (lo_clamp, hi_clamp) = if min_finite.is_finite() {
        let max_finite = times
            .iter()
            .copied()
            .filter(|t| t.is_finite())
            .fold(f64::NEG_INFINITY, f64::max);
        (min_finite, max_finite)
    } else {
        (0.0, 0.0)
    };
    let clamped: Vec<f64> = times
        .iter()
        .map(|&t| {
            if t.is_finite() {
                t
            } else if t == f64::NEG_INFINITY {
                lo_clamp
            } else {
                hi_clamp
            }
        })
        .collect();

    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| clamped[a].total_cmp(&clamped[b]));
    let sorted_times: Vec<f64> = order.iter().map(|&i| clamped[i]).collect();

    // MAD outlier screen: boundary detection sees only the first
    // `screened` sorted entries; the contaminated tail joins the slowest
    // class instead of spawning classes of its own.
    let screened = if cfg.outlier_mad_k > 0.0 {
        let median = sorted_times[n / 2];
        let mut dev: Vec<f64> = sorted_times.iter().map(|&t| (t - median).abs()).collect();
        dev.sort_by(f64::total_cmp);
        let mad = dev[n / 2];
        if mad > 0.0 {
            let cutoff = median + cfg.outlier_mad_k * 1.4826 * mad;
            sorted_times.partition_point(|&t| t <= cutoff).max(1)
        } else {
            n
        }
    } else {
        n
    };

    let radius = ((cfg.radius_frac * screened as f64).round() as usize).max(1);
    let convolution = step_convolve(&sorted_times[..screened], radius);

    let peaks = find_peaks(&convolution.values);
    let boundaries: Vec<usize> = if peaks.is_empty() {
        Vec::new()
    } else {
        let prominences = peak_prominences(&convolution.values, &peaks);
        let mut sorted_prom = prominences.clone();
        sorted_prom.sort_by(f64::total_cmp);
        let threshold = percentile(&sorted_prom, cfg.prominence_percentile);
        let mut bounds: Vec<usize> = peaks
            .iter()
            .zip(&prominences)
            .filter(|&(_, &p)| p >= threshold)
            // The peak marks the last index of the faster regime; the
            // boundary (first index of the next class) is one past it.
            .map(|(&j, _)| convolution.input_index(j) + 1)
            .collect();
        bounds.dedup();
        // Boundaries must be strictly inside (0, n) so every class is
        // non-empty; peak positions guarantee ascending order.
        bounds.retain(|&b| b > 0 && b < n);
        bounds
    };

    let num_classes = boundaries.len() + 1;
    let mut labels = vec![0usize; n];
    for (pos, &orig) in order.iter().enumerate() {
        labels[orig] = boundaries.partition_point(|&b| b <= pos);
    }
    let mut class_ranges = Vec::with_capacity(num_classes);
    let mut lo = 0usize;
    for c in 0..num_classes {
        let hi = if c < boundaries.len() {
            boundaries[c]
        } else {
            n
        };
        debug_assert!(hi > lo, "class {c} must be non-empty");
        class_ranges.push((sorted_times[lo], sorted_times[hi - 1]));
        lo = hi;
    }

    Labeling {
        order,
        sorted_times,
        convolution,
        boundaries,
        labels,
        num_classes,
        class_ranges,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A synthetic three-regime series like Fig. 1: bands at 1.0, 1.2 and
    /// 1.45 with pseudo-random in-class spread (irregular spacing makes
    /// the convolution produce many tiny peaks, as real noisy benchmark
    /// data does — the 98th-percentile prominence screen relies on that).
    fn three_regimes(per_class: usize) -> Vec<f64> {
        let mut v = Vec::new();
        for (b, base) in [1.0, 1.2, 1.45].into_iter().enumerate() {
            for i in 0..per_class {
                let u = ((i * 7919 + b * 104_729) % 1009) as f64 / 1009.0;
                v.push(base + 0.02 * u);
            }
        }
        v
    }

    #[test]
    fn three_regimes_give_three_classes() {
        let mut times = three_regimes(100);
        // Shuffle deterministically to verify order independence.
        let n = times.len();
        for i in 0..n {
            times.swap(i, (i * 7919) % n);
        }
        let l = label_times(&times, &LabelingConfig::default());
        assert_eq!(l.num_classes, 3, "boundaries: {:?}", l.boundaries);
        // Boundaries land at the regime edges (±2 for jittered spacing).
        assert!(l.boundaries[0].abs_diff(100) <= 2, "{:?}", l.boundaries);
        assert!(l.boundaries[1].abs_diff(200) <= 2, "{:?}", l.boundaries);
        // Labels follow the time regimes.
        for (i, &t) in times.iter().enumerate() {
            let want = if t < 1.1 {
                0
            } else if t < 1.3 {
                1
            } else {
                2
            };
            assert_eq!(l.labels[i], want, "time {t}");
        }
    }

    #[test]
    fn class_ranges_are_ordered_and_tight() {
        let times = three_regimes(100);
        let l = label_times(&times, &LabelingConfig::default());
        assert_eq!(l.class_ranges.len(), 3);
        for w in l.class_ranges.windows(2) {
            assert!(w[0].1 < w[1].0, "ranges must not overlap: {w:?}");
        }
        assert!((l.class_ranges[0].0 - 1.0).abs() < 1e-9);
    }

    #[test]
    fn constant_data_yields_one_class() {
        // Identical times: the convolution is exactly zero everywhere, so
        // there are no peaks and a single class remains.
        let times = vec![1.0; 200];
        let l = label_times(&times, &LabelingConfig::default());
        assert_eq!(l.num_classes, 1, "boundaries: {:?}", l.boundaries);
        assert!(l.labels.iter().all(|&c| c == 0));
    }

    #[test]
    fn single_sample_is_one_class() {
        let l = label_times(&[3.0], &LabelingConfig::default());
        assert_eq!(l.num_classes, 1);
        assert_eq!(l.labels, vec![0]);
        assert_eq!(l.class_ranges, vec![(3.0, 3.0)]);
    }

    #[test]
    fn radius_has_a_floor_of_one() {
        // 20 samples → 0.5% rounds to 0 → floor 1; two clear regimes.
        let mut times = vec![1.0; 10];
        times.extend(vec![2.0; 10]);
        let l = label_times(&times, &LabelingConfig::default());
        assert_eq!(l.num_classes, 2);
        assert_eq!(l.boundaries, vec![10]);
    }

    #[test]
    fn prominence_threshold_screens_small_steps() {
        // One big step and many small wiggles: only the big step remains.
        let mut times = Vec::new();
        for i in 0..300 {
            let base = if i < 150 { 1.0 } else { 2.0 };
            times.push(base + 1e-3 * ((i % 7) as f64));
        }
        times.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let l = label_times(&times, &LabelingConfig::default());
        assert_eq!(l.num_classes, 2, "boundaries: {:?}", l.boundaries);
    }

    #[test]
    fn empty_series_is_a_single_degenerate_class() {
        let l = label_times(&[], &LabelingConfig::default());
        assert_eq!(l.num_classes, 1);
        assert!(l.labels.is_empty());
        assert!(l.boundaries.is_empty());
        assert_eq!(l.class_ranges, vec![(0.0, 0.0)]);
    }

    #[test]
    fn non_finite_times_are_clamped_not_fatal() {
        let times = vec![1.0, f64::NAN, 2.0, f64::INFINITY, 1.5, f64::NEG_INFINITY];
        let l = label_times(&times, &LabelingConfig::default());
        assert_eq!(l.labels.len(), times.len());
        for &(lo, hi) in &l.class_ranges {
            assert!(lo.is_finite() && hi.is_finite(), "{:?}", l.class_ranges);
        }
        // NaN and +inf joined the slowest region, -inf the fastest.
        assert_eq!(l.labels[1], l.labels[3]);
        assert_eq!(l.labels[5], l.labels[0].min(l.labels[5]));
    }

    #[test]
    fn all_non_finite_collapses_to_one_class() {
        let times = vec![f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
        let l = label_times(&times, &LabelingConfig::default());
        assert_eq!(l.num_classes, 1);
        assert!(l.labels.iter().all(|&c| c == 0));
        assert!(l.class_ranges.iter().all(|r| r.0.is_finite()));
    }

    #[test]
    fn mad_screen_folds_outliers_into_the_slowest_class() {
        // The clean three-regime series plus a handful of wild outliers
        // that would otherwise dominate the convolution's peak landscape.
        let mut times = three_regimes(100);
        times.extend([50.0, 80.0, 120.0]);
        let robust = label_times(&times, &LabelingConfig::robust());
        assert_eq!(robust.num_classes, 3, "{:?}", robust.boundaries);
        // The outliers carry the slowest label, not classes of their own.
        for i in 300..303 {
            assert_eq!(robust.labels[i], robust.num_classes - 1);
        }
    }

    #[test]
    fn zero_mad_k_is_bitforbit_the_default_algorithm() {
        let times = three_regimes(100);
        let base = label_times(&times, &LabelingConfig::default());
        let zero_k = label_times(
            &times,
            &LabelingConfig {
                outlier_mad_k: 0.0,
                ..LabelingConfig::default()
            },
        );
        assert_eq!(base, zero_k);
    }

    #[test]
    fn labels_are_permutation_invariant() {
        let times = three_regimes(80);
        let l1 = label_times(&times, &LabelingConfig::default());
        let mut shuffled = times.clone();
        shuffled.reverse();
        let l2 = label_times(&shuffled, &LabelingConfig::default());
        for i in 0..times.len() {
            assert_eq!(l1.labels[i], l2.labels[times.len() - 1 - i]);
        }
    }
}
