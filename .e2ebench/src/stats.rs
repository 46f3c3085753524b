//! Percentiles that refuse to extrapolate, and metric values that say
//! when they have no samples.

/// Samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Percentiles considered for a distribution's tail, highest first.
const TAIL_CANDIDATES: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 75.0];

/// 1-based nearest rank of percentile `p` among `n >= 1` samples. The
/// epsilon keeps `99.9 × 10000 / 100` from rounding up past 9990.
fn rank(p: f64, n: usize) -> usize {
    ((p * n as f64 / 100.0 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Nearest-rank percentile `p` of `samples` and how many samples lie
/// beyond its rank; `None` when there are no samples.
fn nearest_rank(samples: &[f64], p: f64) -> Option<(f64, usize)> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let r = rank(p, sorted.len());
    Some((sorted[r - 1], sorted.len() - r))
}

/// The median of `samples` (nearest rank), `None` when empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    nearest_rank(samples, 50.0).map(|(v, _)| v)
}

/// The mean of the middle half of `samples`: a quarter (rounded) is
/// dropped from each end, but at least one sample stays. `None` when
/// empty.
pub fn interquartile_mean(samples: &[f64]) -> Option<f64> {
    let n = samples.len();
    if n == 0 {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let trim = ((n + 2) / 4).min((n - 1) / 2);
    let middle = &sorted[trim..n - trim];
    Some(middle.iter().sum::<f64>() / middle.len() as f64)
}

/// Percentile `p` of `samples`, or `None` unless at least
/// [`MIN_BEYOND`] samples lie beyond it.
pub fn tail(samples: &[f64], p: f64) -> Option<f64> {
    nearest_rank(samples, p)
        .filter(|&(_, beyond)| beyond >= MIN_BEYOND)
        .map(|(v, _)| v)
}

/// The highest of the candidate tail percentiles with at least
/// [`MIN_BEYOND`] samples beyond it among `n` samples.
pub fn highest_tail(n: usize) -> Option<f64> {
    TAIL_CANDIDATES
        .into_iter()
        .find(|&p| n > 0 && n - rank(p, n) >= MIN_BEYOND)
}

/// A measured value, or `None` when there was nothing to measure, with
/// the number of samples it rests on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Value {
    /// The value; `None` means no (or too few) samples.
    pub value: Option<f64>,
    /// Samples behind the value.
    pub count: usize,
}

impl Value {
    /// `sum / count`, or no value when `count` is zero.
    pub fn mean(sum: f64, count: usize) -> Value {
        Value {
            value: (count > 0).then(|| sum / count as f64),
            count,
        }
    }

    /// `num / den` over `den` samples, or no value when `den` is zero.
    pub fn ratio(num: f64, den: u64) -> Value {
        Value {
            value: (den > 0).then(|| num / den as f64),
            count: den as usize,
        }
    }

    /// The value as JSON: the number, or `null`.
    pub fn json(&self) -> String {
        match self.value {
            Some(v) if v.is_finite() => format!("{v}"),
            _ => "null".to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Shuffled so the percentile code has to sort.
        (0..n).map(|i| ((i * 7) % n) as f64 + 1.0).collect()
    }

    #[test]
    fn interquartile_mean_drops_a_quarter_from_each_end() {
        assert_eq!(interquartile_mean(&[]), None);
        assert_eq!(interquartile_mean(&[5.0]), Some(5.0));
        assert_eq!(interquartile_mean(&[4.0, 2.0]), Some(3.0));
        assert_eq!(interquartile_mean(&[9.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(interquartile_mean(&[100.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(interquartile_mean(&ramp(8)), Some(4.5));
    }

    #[test]
    fn median_is_nearest_rank() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[4.0]), Some(4.0));
        assert_eq!(median(&ramp(100)), Some(50.0));
        assert_eq!(median(&ramp(101)), Some(51.0));
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // p90 of 100 samples has exactly ten beyond it.
        assert_eq!(tail(&ramp(100), 90.0), Some(90.0));
        // One sample fewer leaves only nine beyond.
        assert_eq!(tail(&ramp(99), 90.0), None);
        assert_eq!(tail(&[], 90.0), None);
        // p99 needs a thousand samples.
        assert_eq!(tail(&ramp(999), 99.0), None);
        assert_eq!(tail(&ramp(1000), 99.0), Some(990.0));
    }

    #[test]
    fn highest_tail_picks_the_highest_supported_percentile() {
        assert_eq!(highest_tail(0), None);
        assert_eq!(highest_tail(39), None);
        assert_eq!(highest_tail(40), Some(75.0));
        assert_eq!(highest_tail(99), Some(75.0));
        assert_eq!(highest_tail(100), Some(90.0));
        assert_eq!(highest_tail(199), Some(90.0));
        assert_eq!(highest_tail(200), Some(95.0));
        assert_eq!(highest_tail(1000), Some(99.0));
        assert_eq!(highest_tail(10_000), Some(99.9));
        // Whatever it picks, `tail` agrees that it is supported.
        for n in [40, 100, 250, 1000, 10_000] {
            let p = highest_tail(n).unwrap();
            assert!(tail(&ramp(n), p).is_some(), "n={n} p={p}");
        }
    }

    #[test]
    fn empty_values_render_as_null() {
        assert_eq!(Value::mean(3.0, 0).json(), "null");
        assert_eq!(Value::ratio(3.0, 0).json(), "null");
        assert_eq!(Value::mean(3.0, 2).json(), "1.5");
        assert_eq!(Value::ratio(1.0, 4).count, 4);
    }
}
