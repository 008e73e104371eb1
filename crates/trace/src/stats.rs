//! Summary statistics over repeated runs.

use crate::json::JsonLine;

/// Summary statistics of a sample of real values (e.g. rounds-to-convergence
/// over repeated seeds), built from the sample's histogram by
/// [`Summary::of_histogram`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub count: usize,
    /// Arithmetic mean, 0 for an empty sample.
    pub mean: f64,
    /// Population standard deviation, 0 for an empty sample.
    pub stddev: f64,
    /// Smallest sample, 0 for an empty sample.
    pub min: f64,
    /// Largest sample, 0 for an empty sample.
    pub max: f64,
    /// Median (50th percentile).
    pub median: f64,
    /// 95th percentile.
    pub p95: f64,
}

impl Summary {
    /// Computes summary statistics from a histogram of `(value,
    /// multiplicity)` pairs in ascending value order, without ever
    /// expanding the sample — `O(distinct values)` memory however many
    /// observations were folded in.  This is what lets the campaign
    /// aggregator summarise a million trials at constant memory.
    ///
    /// Percentiles are nearest-rank over the expanded sorted sample: the
    /// `q`-th percentile is the value at rank `round(q · (count − 1))`.
    /// An empty histogram gives the all-zero [`Summary::default`].
    pub fn of_histogram(pairs: impl IntoIterator<Item = (f64, u64)> + Clone) -> Self {
        let count: u64 = pairs.clone().into_iter().map(|(_, c)| c).sum();
        if count == 0 {
            return Summary::default();
        }
        let mut mean = 0.0;
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        for (value, c) in pairs.clone() {
            mean += value * c as f64;
            min = min.min(value);
            max = max.max(value);
        }
        mean /= count as f64;
        let variance = pairs
            .clone()
            .into_iter()
            .map(|(v, c)| (v - mean) * (v - mean) * c as f64)
            .sum::<f64>()
            / count as f64;
        let rank = |q: f64| (q * (count as f64 - 1.0)).round() as u64;
        let value_at = |rank: u64| {
            let mut cumulative = 0u64;
            for (value, c) in pairs.clone() {
                cumulative += c;
                if rank < cumulative {
                    return value;
                }
            }
            max
        };
        Summary {
            count: count as usize,
            mean,
            stddev: variance.sqrt(),
            min,
            max,
            median: value_at(rank(0.50)),
            p95: value_at(rank(0.95)),
        }
    }

    /// Writes the statistics as the object value of `key`, fields in
    /// declaration order.
    pub fn write_json(&self, line: &mut JsonLine<'_>, key: &str) {
        let mut object = line.object(key);
        object.uint("count", self.count as u64);
        object.float("mean", self.mean);
        object.float("stddev", self.stddev);
        object.float("min", self.min);
        object.float("max", self.max);
        object.float("median", self.median);
        object.float("p95", self.p95);
        object.close();
    }
}

impl std::fmt::Display for Summary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "n={} mean={:.2} sd={:.2} min={:.2} med={:.2} p95={:.2} max={:.2}",
            self.count, self.mean, self.stddev, self.min, self.median, self.p95, self.max
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_sample_is_all_zero() {
        let s = Summary::of_histogram(std::iter::empty());
        assert_eq!(s.count, 0);
        assert_eq!(s.mean, 0.0);
        assert_eq!(s.max, 0.0);
    }

    #[test]
    fn single_sample() {
        let s = Summary::of_histogram([(7.0, 1u64)]);
        assert_eq!(s.count, 1);
        assert_eq!(s.mean, 7.0);
        assert_eq!(s.stddev, 0.0);
        assert_eq!(s.median, 7.0);
        assert_eq!(s.p95, 7.0);
    }

    #[test]
    fn known_values() {
        // The sample 2, 4, 4, 4, 5, 5, 7, 9.
        let s = Summary::of_histogram([(2.0, 1u64), (4.0, 3), (5.0, 2), (7.0, 1), (9.0, 1)]);
        assert_eq!(s.mean, 5.0);
        assert!((s.stddev - 2.0).abs() < 1e-12);
        assert_eq!(s.min, 2.0);
        assert_eq!(s.max, 9.0);
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        let odd = Summary::of_histogram([(1.0, 1u64), (2.0, 1), (3.0, 1)]);
        assert_eq!(odd.median, 2.0);
        let even = Summary::of_histogram([(1.0, 1u64), (2.0, 1), (3.0, 1), (4.0, 1)]);
        assert!(even.median >= 2.0 && even.median <= 3.0);
    }

    #[test]
    fn histogram_matches_expanded_sample() {
        // 2×4.0, 1×2.0, 1×9.0: the statistics of the sample 2, 4, 4, 9.
        let histogram = Summary::of_histogram([(2.0, 1u64), (4.0, 2), (9.0, 1)]);
        let expanded = Summary {
            count: 4,
            mean: 4.75,
            stddev: 6.6875f64.sqrt(),
            min: 2.0,
            max: 9.0,
            median: 4.0,
            p95: 9.0,
        };
        assert_eq!(histogram, expanded);
        // Percentile ranks land inside multiplicities correctly.
        let h = Summary::of_histogram([(1.0, 10u64), (100.0, 1)]);
        assert_eq!(h.median, 1.0);
        assert_eq!(h.p95, 100.0);
        assert_eq!(h.count, 11);
        // Empty histogram == all-zero summary.
        assert_eq!(
            Summary::of_histogram(std::iter::empty()),
            Summary::default()
        );
    }

    #[test]
    fn display_contains_fields() {
        let text = Summary::of_histogram([(1.0, 1u64), (2.0, 1)]).to_string();
        assert!(text.contains("mean=1.50"));
        assert!(text.contains("n=2"));
    }
}
