//! Order statistics the benchmark reports: medians, quartiles and the tail
//! percentile rule.

/// Percentiles the tail rule may report, highest first, in hundredths of a
/// percent so that rank arithmetic stays exact.
const TAIL_LADDER: [usize; 6] = [9999, 9990, 9900, 9500, 9000, 7500];

/// Samples beyond a reported tail percentile, at least.
pub const TAIL_MIN_BEYOND: usize = 10;

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

/// The median (mean of the middle two for an even count); `None` when empty.
#[must_use]
pub fn median(samples: &[f64]) -> Option<f64> {
    let sorted = sorted(samples);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// First, second and third quartile by the same rule as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method);
/// `None` below two samples, where that function raises.
#[must_use]
pub fn quartiles(samples: &[f64]) -> Option<[f64; 3]> {
    let data = sorted(samples);
    let n = data.len();
    if n < 2 {
        return None;
    }
    let m = n + 1;
    let mut cuts = [0.0; 3];
    for (i, cut) in cuts.iter_mut().enumerate() {
        let step = ((i + 1) * m) as f64;
        let j = ((i + 1) * m / 4).clamp(1, n - 1);
        let delta = step - 4.0 * j as f64;
        *cut = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    Some(cuts)
}

/// Samples at or below the nearest-rank percentile `hundredths` / 100 of
/// `count` samples.
fn nearest_rank(hundredths: usize, count: usize) -> usize {
    (hundredths * count).div_ceil(10_000).clamp(1, count)
}

/// A tail percentile chosen by [`tail`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile reported (100 when no ladder percentile qualifies).
    pub percentile: f64,
    /// Its value.
    pub value: f64,
    /// Samples strictly beyond it.
    pub beyond: usize,
    /// All samples.
    pub count: usize,
}

/// The highest ladder percentile with at least [`TAIL_MIN_BEYOND`] samples
/// beyond it. With too few samples for any of them, the maximum is
/// reported as percentile 100 with nothing beyond, so the caller can print
/// that the tail is not resolved. `None` when empty.
#[must_use]
pub fn tail(samples: &[f64]) -> Option<Tail> {
    let count = samples.len();
    let max = samples.iter().copied().max_by(f64::total_cmp)?;
    let data = sorted(samples);
    for hundredths in TAIL_LADDER {
        let rank = nearest_rank(hundredths, count);
        let beyond = count - rank;
        if beyond >= TAIL_MIN_BEYOND {
            return Some(Tail {
                percentile: hundredths as f64 / 100.0,
                value: data[rank - 1],
                beyond,
                count,
            });
        }
    }
    Some(Tail {
        percentile: 100.0,
        value: max,
        beyond: 0,
        count,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&values), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some([1.0, 2.0, 3.0]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn medians_average_the_middle_pair() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        let values: Vec<f64> = (1..=1000).map(f64::from).collect();
        let tail = tail(&values).unwrap();
        assert_eq!(
            (tail.percentile, tail.value, tail.beyond),
            (99.0, 990.0, 10)
        );

        // 999 samples leave only 9 beyond p99, so the rule falls to p95.
        let values: Vec<f64> = (1..=999).map(f64::from).collect();
        let tail = super::tail(&values).unwrap();
        assert_eq!(tail.percentile, 95.0);
        assert!(tail.beyond >= TAIL_MIN_BEYOND);

        // 10 000 samples reach p99.9.
        let values: Vec<f64> = (1..=10_000).map(f64::from).collect();
        assert_eq!(super::tail(&values).unwrap().percentile, 99.9);
    }

    #[test]
    fn tail_of_a_handful_is_the_unresolved_maximum() {
        let tail = tail(&[5.0, 9.0, 7.0]).unwrap();
        assert_eq!((tail.percentile, tail.value, tail.beyond), (100.0, 9.0, 0));
        assert!(super::tail(&[]).is_none());
    }
}
