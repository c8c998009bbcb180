//! Order statistics over raw samples.
//!
//! Percentiles are computed from the raw values, never from the
//! repository's 28-bucket telemetry histogram (its buckets step ~1.8x, wider
//! than any effect this benchmark has to resolve).

use crate::json::Json;

/// Sorted copy of `values` (NaNs order last and are never produced here).
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `values`; `NaN` when empty.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile, exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method)
/// gives them — the acceptance check of this benchmark is stated in those
/// terms. Fewer than two values have no spread: both quartiles are the
/// median.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    let ld = v.len();
    if ld < 2 {
        let m = median(values);
        return (m, m);
    }
    let cut = |i: usize| {
        let j = (i * (ld + 1) / 4).clamp(1, ld - 1);
        let delta = (i * (ld + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// The `p`-th percentile (0..=100) by linear interpolation between closest
/// ranks; `NaN` when empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let v = sorted(values);
    if v.is_empty() {
        return f64::NAN;
    }
    let rank = (p / 100.0).clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

/// Median, quartiles and count of one metric's samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Median.
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
}

impl Summary {
    /// Summarises `values`.
    pub fn of(values: &[f64]) -> Self {
        let (q1, q3) = quartiles(values);
        Summary {
            n: values.len(),
            median: median(values),
            q1,
            q3,
        }
    }

    /// Interquartile distance as a share of the median.
    pub fn spread(&self) -> f64 {
        (self.q3 - self.q1) / self.median.abs()
    }

    /// `{"median":..,"q1":..,"q3":..,"n":..}`.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("median", Json::Num(self.median)),
            ("q1", Json::Num(self.q1)),
            ("q3", Json::Num(self.q3)),
            ("n", Json::Num(self.n as f64)),
        ])
    }

    /// Inverse of [`Summary::to_json`].
    pub fn from_json(j: &Json) -> Option<Self> {
        let f = |k| j.get(k).and_then(Json::as_f64);
        Some(Summary {
            n: f("n")? as usize,
            median: f("median")?,
            q1: f("q1")?,
            q3: f("q3")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert_eq!(quartiles(&[40.0, 10.0, 20.0]), (10.0, 40.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0));
    }

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v = [10.0, 20.0, 30.0, 40.0, 50.0];
        assert_eq!(percentile(&v, 0.0), 10.0);
        assert_eq!(percentile(&v, 50.0), 30.0);
        assert_eq!(percentile(&v, 95.0), 48.0);
        assert_eq!(percentile(&v, 100.0), 50.0);
        assert!(percentile(&[], 50.0).is_nan());
    }

    #[test]
    fn summary_round_trips_and_reports_relative_spread() {
        let s = Summary::of(&[9.0, 10.0, 11.0, 10.0, 10.0]);
        assert_eq!(s.median, 10.0);
        assert!((s.spread() - 0.1).abs() < 1e-12);
        assert_eq!(Summary::from_json(&s.to_json()), Some(s));
    }
}
