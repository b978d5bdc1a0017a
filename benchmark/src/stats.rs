//! Percentiles and spreads.

/// Samples a tail percentile needs beyond it before it is reported as
/// resolved (choosing-metrics: "the highest percentile that has at
/// least ten samples beyond it").
pub const MIN_SAMPLES_BEYOND: usize = 10;

/// 1-based nearest-rank position of percentile `p` (in `(0, 1]`) among
/// `n` sorted samples.
fn nearest_rank(n: usize, p: f64) -> usize {
    ((p * n as f64).ceil() as usize).clamp(1, n)
}

/// Nearest-rank percentile of `sorted` (ascending, non-empty).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    sorted[nearest_rank(sorted.len(), p) - 1]
}

/// How many of `n` samples lie beyond the nearest-rank percentile `p`.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - nearest_rank(n, p)
    }
}

/// Median and p90 of one timing series, with the counts that say how
/// far each can be trusted.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timing {
    pub p50: f64,
    pub p90: f64,
    pub samples: usize,
    pub beyond_p90: usize,
}

impl Timing {
    /// Summarises `values`; `None` when there are none.
    pub fn of(values: &[f64]) -> Option<Timing> {
        if values.is_empty() {
            return None;
        }
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        Some(Timing {
            p50: percentile(&sorted, 0.5),
            p90: percentile(&sorted, 0.9),
            samples: sorted.len(),
            beyond_p90: samples_beyond(sorted.len(), 0.9),
        })
    }

    /// Whether p90 has enough samples beyond it to be quoted.
    pub fn p90_resolved(&self) -> bool {
        self.beyond_p90 >= MIN_SAMPLES_BEYOND
    }
}

/// Median by linear interpolation (Python's `statistics.median`).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Distance between the first and third quartile as a share of the
/// median, with the quartiles Python's `statistics.quantiles(v, n=4)`
/// gives — the spread the driver holds against a metric's bound.
/// `None` with fewer than two values or a zero median.
pub fn quartile_spread(values: &[f64]) -> Option<f64> {
    let n = values.len();
    let mid = median(values);
    if n < 2 || mid == 0.0 {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let quartile = |q: usize| {
        // The "exclusive" method: position q(n+1)/4, clamped into the data.
        let j = (q * (n + 1) / 4).clamp(1, n - 1);
        let delta = (q * (n + 1)) as f64 / 4.0 - j as f64;
        sorted[j - 1] + (sorted[j] - sorted[j - 1]) * delta
    };
    Some((quartile(3) - quartile(1)).abs() / mid.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.9), 90.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&[7.0], 0.9), 7.0);
        // 12 samples: p90 is the 11th, p50 the 6th.
        let v: Vec<f64> = (1..=12).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.9), 11.0);
        assert_eq!(percentile(&v, 0.5), 6.0);
    }

    #[test]
    fn p90_needs_a_hundred_samples() {
        assert_eq!(samples_beyond(100, 0.9), 10);
        assert_eq!(samples_beyond(99, 0.9), 9);
        assert_eq!(samples_beyond(0, 0.9), 0);
        let hundred: Vec<f64> = (0..100).map(f64::from).collect();
        assert!(Timing::of(&hundred).unwrap().p90_resolved());
        assert!(!Timing::of(&hundred[..99]).unwrap().p90_resolved());
        assert!(Timing::of(&[]).is_none());
    }

    #[test]
    fn timing_sorts_its_input() {
        let t = Timing::of(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!((t.p50, t.p90, t.samples), (2.0, 3.0, 3));
    }

    #[test]
    fn spread_matches_python_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let spread = quartile_spread(&v).unwrap();
        assert!((spread - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        // statistics.quantiles([10, 12], n=4) == [9.5, 11.0, 12.5]
        let spread = quartile_spread(&[12.0, 10.0]).unwrap();
        assert!((spread - 3.0 / 11.0).abs() < 1e-12);
        assert!(quartile_spread(&[5.0]).is_none());
        assert!(quartile_spread(&[0.0, 0.0]).is_none());
    }
}
