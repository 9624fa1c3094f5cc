//! The estimators every reported number goes through.
//!
//! On a small shared host interference only ever *slows* a segment, so
//! the run-level estimator is one-sided: the median of the best tenth
//! of the segment values (rule 2 in the README). Quartiles over all
//! segments are printed beside it so the discarded part stays visible.

/// Sort a copy of `xs` ascending (NaNs are a bug upstream: panic).
fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("metric samples are never NaN"));
    v
}

/// Median of an ascending slice (mean of the middle pair when even).
fn median_sorted(v: &[f64]) -> f64 {
    assert!(!v.is_empty(), "median of no samples");
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Plain median.
pub fn median(xs: &[f64]) -> f64 {
    median_sorted(&sorted(xs))
}

/// Which end of a metric's range is the good one.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    /// As `BENCHMARK.json` spells it.
    #[cfg(test)]
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    /// How much worse `new` is than `base`, as a share of `base`
    /// (positive = worse, negative = better).
    pub fn worsening(self, base: f64, new: f64) -> f64 {
        match self {
            Better::Lower => (new - base) / base,
            Better::Higher => (base - new) / base,
        }
    }
}

/// The one-sided estimator: the median of the best `share` of the
/// samples (at least three of them).
///
/// With every load on one core, interference only ever *slows* a
/// segment, and on the reference VM it comes as whole seconds at a
/// discrete slower speed level, often for more than half of a run. The
/// estimate is therefore taken far down the good tail — but not at the
/// single best sample.
pub fn best_share_median(xs: &[f64], share: f64, better: Better) -> f64 {
    let v = sorted(xs);
    let keep = ((v.len() as f64 * share).ceil() as usize).clamp(3.min(v.len()), v.len());
    match better {
        Better::Lower => median_sorted(&v[..keep]),
        Better::Higher => median_sorted(&v[v.len() - keep..]),
    }
}

/// `(q1, q2, q3)` by linear interpolation between closest ranks — the
/// "inclusive" method, so the quartiles of the segments themselves, not
/// of a population they were drawn from.
pub fn quartiles(xs: &[f64]) -> (f64, f64, f64) {
    let v = sorted(xs);
    (
        quantile_sorted(&v, 0.25),
        quantile_sorted(&v, 0.5),
        quantile_sorted(&v, 0.75),
    )
}

fn quantile_sorted(v: &[f64], q: f64) -> f64 {
    assert!(!v.is_empty(), "quantile of no samples");
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// `q`-quantile (nearest rank, `0.0..=1.0`) of an ascending sample slice.
pub fn quantile_sorted_f32(sorted: &[f32], q: f64) -> f32 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let rank = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// The highest percentile that still has at least ten samples beyond
/// it: returns `(percentile in 0..100, value)`. With fewer than eleven
/// samples there is no such percentile and the median is returned.
pub fn ptop_sorted_f32(sorted: &[f32]) -> (f64, f32) {
    let n = sorted.len();
    assert!(n > 0, "ptop of no samples");
    if n <= 10 {
        return (50.0, quantile_sorted_f32(sorted, 0.5));
    }
    // Value at index n-11 has exactly ten samples after it.
    let idx = n - 11;
    (100.0 * (idx + 1) as f64 / n as f64, sorted[idx])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn best_share_median_sits_in_the_good_tail() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        // Best 10 % of 100, lower is better: {1..10}, median 5.5.
        assert_eq!(best_share_median(&xs, 0.10, Better::Lower), 5.5);
        // Higher is better: {91..100}, median 95.5.
        assert_eq!(best_share_median(&xs, 0.10, Better::Higher), 95.5);
        // Never fewer than three samples, never more than there are.
        assert_eq!(best_share_median(&xs, 0.001, Better::Lower), 2.0);
        assert_eq!(best_share_median(&[4.0, 2.0], 0.10, Better::Lower), 3.0);
        assert_eq!(best_share_median(&[7.0], 0.10, Better::Higher), 7.0);
        // Interference over four fifths of the run does not move it.
        let mut noisy = xs.clone();
        noisy.iter_mut().skip(20).for_each(|x| *x *= 3.0);
        assert_eq!(best_share_median(&noisy, 0.10, Better::Lower), 5.5);
    }

    #[test]
    fn quartiles_interpolate_inclusively() {
        let (q1, q2, q3) = quartiles(&[4.0, 1.0, 3.0, 2.0, 5.0]);
        assert_eq!((q1, q2, q3), (2.0, 3.0, 4.0));
        let (q1, q2, q3) = quartiles(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!((q1, q2, q3), (1.75, 2.5, 3.25));
        assert_eq!(median(&[3.0, 1.0]), 2.0);
    }

    #[test]
    fn ptop_leaves_ten_samples_beyond() {
        let v: Vec<f32> = (1..=1000).map(|x| x as f32).collect();
        let (p, x) = ptop_sorted_f32(&v);
        assert_eq!(x, 990.0);
        assert_eq!(p, 99.0);
        assert_eq!(v.iter().filter(|&&s| s > x).count(), 10);
        // Eleven samples: only the minimum has ten beyond it.
        let v: Vec<f32> = (1..=11).map(|x| x as f32).collect();
        assert_eq!(ptop_sorted_f32(&v).1, 1.0);
        // Ten or fewer: no percentile qualifies, fall back to the median.
        let v: Vec<f32> = (1..=10).map(|x| x as f32).collect();
        assert_eq!(ptop_sorted_f32(&v), (50.0, 5.0));
        assert_eq!(quantile_sorted_f32(&[1.0, 2.0, 3.0, 4.0], 0.5), 2.0);
        assert_eq!(quantile_sorted_f32(&[1.0, 2.0, 3.0, 4.0], 0.99), 4.0);
    }

    #[test]
    fn worsening_is_signed_by_direction() {
        assert_eq!(Better::Lower.worsening(100.0, 110.0), 0.1);
        assert_eq!(Better::Higher.worsening(100.0, 90.0), 0.1);
        assert!(Better::Higher.worsening(100.0, 120.0) < 0.0);
    }
}
