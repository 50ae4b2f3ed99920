//! Order statistics: medians, quartiles as Python's
//! `statistics.quantiles(values, n=4)` computes them (the driver judges
//! spread with that function), and the percentile picker.

/// Median, interquartile range and count of one metric's samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub iqr: f64,
    pub n: usize,
}

pub fn summarize(samples: &[f64]) -> Summary {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let (q1, q2, q3) = quartiles_sorted(&v);
    Summary {
        median: q2,
        iqr: q3 - q1,
        n: v.len(),
    }
}

pub fn median(samples: &[f64]) -> f64 {
    summarize(samples).median
}

/// The three quartile cut points of sorted `v` by the "exclusive" method.
/// One sample is its own three quartiles; none gives zeros.
fn quartiles_sorted(v: &[f64]) -> (f64, f64, f64) {
    let n = v.len();
    match n {
        0 => return (0.0, 0.0, 0.0),
        1 => return (v[0], v[0], v[0]),
        _ => {}
    }
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// Percentiles the benchmark is prepared to report, lowest first, each
/// with the share of samples beyond it in parts per ten thousand.
const PERCENTILES: [(f64, usize); 5] = [
    (50.0, 5000),
    (90.0, 1000),
    (99.0, 100),
    (99.9, 10),
    (99.99, 1),
];

/// The highest percentile of `n` samples that still has at least ten
/// samples beyond it; `None` when even the median has fewer.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    PERCENTILES
        .iter()
        .rfind(|(_, beyond)| n * beyond >= 10 * 10_000)
        .map(|(p, _)| *p)
}

/// The `p`-th percentile (nearest rank) of `sorted`.
pub fn percentile_sorted(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles_sorted(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = summarize(&[3.0, 1.0, 2.0]);
        assert_eq!((s.median, s.iqr, s.n), (2.0, 2.0, 3));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles_sorted(&[10.0, 20.0]), (7.5, 15.0, 22.5));
        assert_eq!(summarize(&[4.0]).iqr, 0.0);
    }

    #[test]
    fn picker_wants_ten_samples_beyond() {
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(50.0));
        assert_eq!(highest_supported_percentile(99), Some(50.0));
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(999), Some(90.0));
        assert_eq!(highest_supported_percentile(1_000), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
        assert_eq!(highest_supported_percentile(200_000), Some(99.99));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_sorted(&v, 50.0), 50);
        assert_eq!(percentile_sorted(&v, 99.0), 99);
        assert_eq!(percentile_sorted(&v, 100.0), 100);
        assert_eq!(percentile_sorted(&[7], 99.9), 7);
        assert_eq!(percentile_sorted(&[], 50.0), 0);
    }
}
