//! The robust median / MAD summaries every noise gate uses.

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
}
