//! Medians, quartiles and the verdicts of `--compare`.

/// Median of `xs` (mean of the two middle values for an even count).
/// `NaN` for no values.
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First, second and third quartile by the "exclusive" method, the
/// default of Python's `statistics.quantiles(xs, n=4)`. A single value
/// is its own quartiles; no values give `NaN`s.
pub fn quartiles(xs: &[f64]) -> [f64; 3] {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len();
    match ld {
        0 => return [f64::NAN; 3],
        1 => return [v[0]; 3],
        _ => {}
    }
    let m = ld + 1;
    let n = 4;
    let mut out = [0.0; 3];
    for (i, q) in (1..n).zip(out.iter_mut()) {
        let j = (i * m / n).clamp(1, ld - 1);
        // Negative after clamping for tiny samples: Python extrapolates.
        let delta = (i * m) as f64 - (j * n) as f64;
        *q = (v[j - 1] * (n as f64 - delta) + v[j] * delta) / n as f64;
    }
    out
}

/// Distance between the first and third quartile as a share of the
/// median: the run-to-run spread the bounds are judged against.
pub fn spread(xs: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(xs);
    if q2 == 0.0 {
        if q3 == q1 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        (q3 - q1) / q2.abs()
    }
}

/// How a metric moved between two result sets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Worse by more than the bound.
    Regressed,
    /// Better by more than the bound.
    Improved,
    /// Within the bound.
    Unchanged,
    /// The spread of either side is wider than the bound, and the runs
    /// do not separate completely, so no conclusion is possible.
    Unresolved,
    /// A per-layer metric: it has no bound.
    NoBound,
}

impl Verdict {
    /// Column text.
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Regressed => "REGRESSED",
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Unresolved => "unresolved",
            Verdict::NoBound => "-",
        }
    }
}

/// The change of `new` against `old` as a share of `old`'s median,
/// signed so that a positive value is worse.
pub fn worse_by(old: &[f64], new: &[f64], lower_is_better: bool) -> f64 {
    let (a, b) = (median(old), median(new));
    let d = (b - a) / a.abs();
    if lower_is_better {
        d
    } else {
        -d
    }
}

/// Judges one metric of one workload. Where either side's spread is
/// wider than `bound`, the result is unresolved unless every new run is
/// better than every old run.
pub fn verdict(old: &[f64], new: &[f64], lower_is_better: bool, bound: Option<f64>) -> Verdict {
    let Some(bound) = bound else {
        return Verdict::NoBound;
    };
    let w = worse_by(old, new, lower_is_better);
    if spread(old) > bound || spread(new) > bound {
        let better = |x: f64, y: f64| if lower_is_better { x < y } else { x > y };
        let all_better = new.iter().all(|&n| old.iter().all(|&o| better(n, o)));
        return if all_better {
            Verdict::Improved
        } else {
            Verdict::Unresolved
        };
    }
    if w > bound {
        Verdict::Regressed
    } else if w < -bound {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        // statistics.quantiles([5, 1, 4, 2, 3], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), [1.5, 3.0, 4.5]);
        assert_eq!(quartiles(&[7.0]), [7.0; 3]);
        assert!(quartiles(&[])[1].is_nan());
    }

    #[test]
    fn median_and_spread() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[2.0, 9.0, 1.0]), 2.0);
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&xs) - 5.5 / 5.5).abs() < 1e-12);
        assert_eq!(spread(&[0.0, 0.0]), 0.0);
        assert_eq!(spread(&[3.0; 10]), 0.0);
    }

    #[test]
    fn verdicts() {
        let base = [10.0, 10.1, 9.9, 10.0, 10.05];
        let slow = [12.0, 12.1, 11.9, 12.0, 12.05];
        assert_eq!(verdict(&base, &slow, true, Some(0.1)), Verdict::Regressed);
        assert_eq!(verdict(&slow, &base, true, Some(0.1)), Verdict::Improved);
        assert_eq!(verdict(&base, &base, true, Some(0.1)), Verdict::Unchanged);
        // Higher-is-better flips the sign.
        assert_eq!(verdict(&base, &slow, false, Some(0.1)), Verdict::Improved);
        // Spread wider than the bound: unresolved, not unchanged ...
        let noisy = [5.0, 15.0, 8.0, 12.0, 10.0];
        assert_eq!(verdict(&noisy, &base, true, Some(0.1)), Verdict::Unresolved);
        // ... unless the two sets separate completely.
        let fast = [1.0, 1.1, 0.9, 1.0, 1.05];
        assert_eq!(verdict(&noisy, &fast, true, Some(0.1)), Verdict::Improved);
        assert_eq!(verdict(&base, &slow, true, None), Verdict::NoBound);
    }
}
