//! Counters, gauges, fixed-bucket histograms, and the robust median /
//! MAD summaries every noise gate uses.
//!
//! Everything here is single-threaded by design: the simulator and the
//! search loop are single-threaded, so interior mutability or atomics
//! would only add cost and noise. Values are plain `f64`/`u64` fields
//! mutated through `&mut self`.

use crate::json;

/// A monotonically increasing event count.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Counter {
    value: u64,
}

impl Counter {
    /// Creates a counter at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one.
    pub fn inc(&mut self) {
        self.value += 1;
    }

    /// Adds `n`.
    pub fn add(&mut self, n: u64) {
        self.value += n;
    }

    /// Current count.
    pub fn get(&self) -> u64 {
        self.value
    }
}

/// A value that can move both ways (queue depth, tree size, ...).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Gauge {
    value: f64,
}

impl Gauge {
    /// Creates a gauge at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the gauge.
    pub fn set(&mut self, v: f64) {
        self.value = v;
    }

    /// Adds `delta` (may be negative).
    pub fn add(&mut self, delta: f64) {
        self.value += delta;
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        self.value
    }
}

/// Fixed-bucket histogram with percentile queries.
///
/// Buckets are defined by ascending finite upper bounds; one implicit
/// overflow bucket catches samples above the last bound. Percentiles are
/// answered by linear interpolation inside the bucket where the rank
/// falls, clamped to the observed `[min, max]` so a coarse grid can
/// never report a value outside what was recorded.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    /// Ascending finite upper bounds; `counts` has one extra slot for
    /// samples above `bounds[last]`.
    bounds: Vec<f64>,
    counts: Vec<u64>,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Histogram {
    /// Creates a histogram from ascending finite bucket upper bounds.
    ///
    /// # Panics
    /// If `bounds` is empty, non-ascending, or contains non-finite
    /// values.
    pub fn new(bounds: Vec<f64>) -> Self {
        assert!(!bounds.is_empty(), "histogram needs at least one bucket");
        for w in bounds.windows(2) {
            assert!(w[0] < w[1], "bucket bounds must be strictly ascending");
        }
        assert!(
            bounds.iter().all(|b| b.is_finite()),
            "bounds must be finite"
        );
        let n = bounds.len();
        Histogram {
            bounds,
            counts: vec![0; n + 1],
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// `n` equal-width buckets covering `[lo, hi]`.
    ///
    /// # Panics
    /// If `n == 0` or `lo >= hi` or the range is non-finite.
    pub fn linear(lo: f64, hi: f64, n: usize) -> Self {
        assert!(n > 0 && lo < hi && lo.is_finite() && hi.is_finite());
        let w = (hi - lo) / n as f64;
        Self::new((1..=n).map(|i| lo + w * i as f64).collect())
    }

    /// `n` buckets with upper bounds `first, first*ratio, ...`.
    ///
    /// # Panics
    /// If `n == 0`, `first <= 0`, or `ratio <= 1`.
    pub fn exponential(first: f64, ratio: f64, n: usize) -> Self {
        assert!(n > 0 && first > 0.0 && ratio > 1.0);
        let mut bounds = Vec::with_capacity(n);
        let mut b = first;
        for _ in 0..n {
            bounds.push(b);
            b *= ratio;
        }
        Self::new(bounds)
    }

    /// Records one sample. Non-finite samples are ignored.
    pub fn record(&mut self, v: f64) {
        if !v.is_finite() {
            return;
        }
        let idx = self.bounds.partition_point(|&b| b < v);
        self.counts[idx] += 1;
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Total number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded samples.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Mean of recorded samples; `None` while empty.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum / self.count as f64)
    }

    /// Smallest recorded sample; `None` while empty.
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest recorded sample; `None` while empty.
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Estimates the `q`-quantile (`q` in `[0, 1]`) by linear
    /// interpolation within the bucket containing the rank, clamped to
    /// the observed `[min, max]`. `None` while empty.
    ///
    /// # Panics
    /// If `q` is outside `[0, 1]`.
    pub fn percentile(&self, q: f64) -> Option<f64> {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0, 1]");
        if self.count == 0 {
            return None;
        }
        let rank = q * self.count as f64;
        let mut cum = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            let next = cum + c;
            if (next as f64) >= rank && c > 0 {
                let lo = if i == 0 { self.min } else { self.bounds[i - 1] };
                let hi = if i < self.bounds.len() {
                    self.bounds[i]
                } else {
                    self.max
                };
                let frac = if c == 0 {
                    0.0
                } else {
                    (rank - cum as f64) / c as f64
                };
                let v = lo + (hi - lo) * frac.clamp(0.0, 1.0);
                return Some(v.clamp(self.min, self.max));
            }
            cum = next;
        }
        Some(self.max)
    }

    /// Per-bucket `(upper_bound, count)` pairs; the overflow bucket
    /// reports `f64::INFINITY` as its bound.
    pub fn buckets(&self) -> impl Iterator<Item = (f64, u64)> + '_ {
        self.counts.iter().enumerate().map(|(i, &c)| {
            let bound = self.bounds.get(i).copied().unwrap_or(f64::INFINITY);
            (bound, c)
        })
    }

    /// Renders the histogram summary as a JSON object.
    pub fn to_json(&self) -> String {
        let buckets: Vec<String> = self
            .buckets()
            .map(|(b, c)| {
                format!(
                    "{{\"le\":{},\"count\":{c}}}",
                    if b.is_finite() {
                        json::number(b)
                    } else {
                        "\"inf\"".to_string()
                    }
                )
            })
            .collect();
        format!(
            "{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"p50\":{},\"p95\":{},\"buckets\":[{}]}}",
            self.count,
            json::number(self.sum),
            json::number(self.min().unwrap_or(f64::NAN)),
            json::number(self.max().unwrap_or(f64::NAN)),
            json::number(self.percentile(0.5).unwrap_or(f64::NAN)),
            json::number(self.percentile(0.95).unwrap_or(f64::NAN)),
            buckets.join(",")
        )
    }
}

/// Median of `xs`, sorting it in place under [`f64::total_cmp`] (even
/// length: mean of the two middle values). `NaN` for an empty slice.
pub fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n == 0 {
        return f64::NAN;
    }
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        0.5 * (xs[n / 2 - 1] + xs[n / 2])
    }
}

/// Median absolute deviation of `xs` around `med`.
pub fn mad(xs: &[f64], med: f64) -> f64 {
    let mut devs: Vec<f64> = xs.iter().map(|x| (x - med).abs()).collect();
    median(&mut devs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_mad_are_robust_summaries() {
        assert!(median(&mut []).is_nan());
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
        // One wild outlier moves neither summary.
        let xs = [1.0, 2.0, 3.0, 4.0, 1000.0];
        assert_eq!(median(&mut xs.clone()), 3.0);
        assert_eq!(mad(&xs, 3.0), 1.0);
    }

    #[test]
    fn counter_and_gauge_basics() {
        let mut c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        let mut g = Gauge::new();
        g.set(2.0);
        g.add(-0.5);
        assert_eq!(g.get(), 1.5);
    }

    #[test]
    fn histogram_counts_and_moments() {
        let mut h = Histogram::linear(0.0, 10.0, 10);
        for v in [1.0, 2.0, 3.0, 4.0, 5.0] {
            h.record(v);
        }
        h.record(f64::NAN); // ignored
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 15.0);
        assert_eq!(h.mean(), Some(3.0));
        assert_eq!(h.min(), Some(1.0));
        assert_eq!(h.max(), Some(5.0));
    }

    #[test]
    fn percentiles_are_monotone_and_bounded() {
        let mut h = Histogram::exponential(1e-6, 2.0, 30);
        for i in 1..=100 {
            h.record(i as f64 * 1e-5);
        }
        let mut prev = f64::NEG_INFINITY;
        for q in [0.0, 0.1, 0.5, 0.9, 0.99, 1.0] {
            let p = h.percentile(q).unwrap();
            assert!(p >= prev, "p({q}) = {p} < previous {prev}");
            assert!(p >= h.min().unwrap() && p <= h.max().unwrap());
            prev = p;
        }
    }

    #[test]
    fn overflow_bucket_catches_large_samples() {
        let mut h = Histogram::new(vec![1.0]);
        h.record(100.0);
        assert_eq!(h.count(), 1);
        let buckets: Vec<_> = h.buckets().collect();
        assert_eq!(buckets.len(), 2);
        assert_eq!(buckets[1].1, 1);
        // Percentile in the overflow bucket stays at the observed max.
        assert_eq!(h.percentile(1.0), Some(100.0));
    }

    #[test]
    fn empty_histogram_reports_none() {
        let h = Histogram::linear(0.0, 1.0, 4);
        assert_eq!(h.percentile(0.5), None);
        assert_eq!(h.mean(), None);
        crate::json::validate(&h.to_json()).unwrap();
    }

    #[test]
    fn json_is_wellformed() {
        let mut h = Histogram::linear(0.0, 1.0, 4);
        h.record(0.3);
        h.record(0.9);
        crate::json::validate(&h.to_json()).unwrap();
    }
}
