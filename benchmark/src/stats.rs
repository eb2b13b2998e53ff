//! Order statistics and the regression rule applied to them.

/// Median of a non-empty sample (mean of the two middle values when even).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        0.5 * (v[mid - 1] + v[mid])
    }
}

/// Fastest of a non-empty sample of timings. The host's neighbours only
/// ever add time, in bursts that last from milliseconds to minutes, so the
/// fastest of N operations is the steadiest estimate of what an operation
/// costs; the median moved two to four times as much between runs when the
/// benchmark was sized.
pub fn fastest(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "fastest of an empty sample");
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

/// First and third quartile by the exclusive method, the one Python's
/// `statistics.quantiles(values, n=4)` uses — the contract the benchmark
/// is accepted under is written against that function. `None` below two
/// samples, where no quartile exists.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let at = |k: usize| {
        // Cut point k of 4 sits at position k(n+1)/4, clamped into the sample.
        let j = (k * (n + 1) / 4).clamp(1, n - 1);
        let delta = (k * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + delta * (v[j] - v[j - 1])
    };
    Some((at(1), at(3)))
}

/// Run-to-run spread: distance between the quartiles as a share of the
/// median. `None` below two samples, and where the median is 0 and the
/// quartiles are not (no share of nothing).
pub fn spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    if q3 == q1 {
        return Some(0.0);
    }
    let m = median(values).abs();
    (m > 0.0).then(|| (q3 - q1) / m)
}

/// Which direction of a metric is the good one.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// Outcome of comparing one (metric, workload) pair between two sets of runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    /// The run-to-run spread of either side is wider than the bound, so a
    /// difference of the size of the bound cannot be told from noise.
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Share by which `change` is worse than `base` (negative when better).
pub fn worse_by(base: f64, change: f64, better: Better) -> f64 {
    match better {
        Better::Lower => (change - base) / base.abs(),
        Better::Higher => (base - change) / base.abs(),
    }
}

/// The regression rule: `bound` is the share of the base median by which the
/// change's median may be worse. A gain must exceed the base's own spread.
pub fn verdict(base: &[f64], change: &[f64], better: Better, bound: f64) -> Verdict {
    let base_spread = spread(base).unwrap_or(0.0);
    let noise = base_spread.max(spread(change).unwrap_or(0.0));
    let worse = worse_by(median(base), median(change), better);
    if noise > bound {
        Verdict::Unresolved
    } else if worse > bound {
        Verdict::Regressed
    } else if worse < 0.0 && -worse > base_spread {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn fastest_is_the_minimum() {
        assert_eq!(fastest(&[3.0, 1.5, 2.0]), 1.5);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        // statistics.quantiles([5, 1, 3], n=4) == [1.0, 3.0, 5.0]
        assert_eq!(quartiles(&[5.0, 1.0, 3.0]), Some((1.0, 5.0)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(spread(&v), Some(1.0));
        assert_eq!(spread(&[2.0; 5]), Some(0.0));
        assert_eq!(spread(&[0.0; 5]), Some(0.0));
        assert_eq!(spread(&[-1.0, 0.0, 0.0, 1.0]), None);
    }

    #[test]
    fn bound_separates_the_four_verdicts() {
        let base = [1.00, 1.01, 0.99, 1.00, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00];
        let scaled = |f: f64| base.map(|v| v * f);
        assert_eq!(
            verdict(&base, &scaled(1.2), Better::Lower, 0.1),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(&base, &scaled(1.05), Better::Lower, 0.1),
            Verdict::Unchanged
        );
        assert_eq!(
            verdict(&base, &scaled(0.8), Better::Lower, 0.1),
            Verdict::Improved
        );
        // The same factors read the other way for a higher-is-better metric.
        assert_eq!(
            verdict(&base, &scaled(0.8), Better::Higher, 0.1),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(&base, &scaled(1.2), Better::Higher, 0.1),
            Verdict::Improved
        );
        // A sample whose own quartiles are further apart than the bound
        // cannot resolve a change of that size.
        let noisy = [1.0, 1.5, 0.6, 1.4, 0.7, 1.3, 0.8, 1.2, 0.9, 1.1];
        assert_eq!(
            verdict(&noisy, &base, Better::Lower, 0.1),
            Verdict::Unresolved
        );
    }

    #[test]
    fn exact_counts_compare_without_noise() {
        assert_eq!(
            verdict(&[5.0; 3], &[5.0; 3], Better::Lower, 0.01),
            Verdict::Unchanged
        );
        assert_eq!(
            verdict(&[100.0; 3], &[102.0; 3], Better::Lower, 0.01),
            Verdict::Regressed
        );
    }
}
