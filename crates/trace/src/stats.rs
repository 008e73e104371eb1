//! Summary statistics over repeated runs.

use crate::json::JsonLine;

/// Summary statistics of a sample of real values (e.g. rounds-to-convergence
/// over repeated seeds).
#[derive(Clone, Debug, PartialEq)]
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
    /// Computes summary statistics of `values`.
    ///
    /// The sample is sorted before *any* reduction, so the result is
    /// bit-identical for every permutation of `values` — float addition is
    /// not associative, and order-independence here is what lets the
    /// campaign aggregator fold records in completion order (which varies
    /// with thread scheduling) while keeping emitted summaries
    /// byte-deterministic.
    pub fn of(values: &[f64]) -> Self {
        if values.is_empty() {
            return Summary {
                count: 0,
                mean: 0.0,
                stddev: 0.0,
                min: 0.0,
                max: 0.0,
                median: 0.0,
                p95: 0.0,
            };
        }
        let count = values.len();
        let mut sorted: Vec<f64> = values.to_vec();
        sorted.sort_by(|a, b| a.total_cmp(b));
        let mean = sorted.iter().sum::<f64>() / count as f64;
        let variance = sorted.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / count as f64;
        Summary {
            count,
            mean,
            stddev: variance.sqrt(),
            min: sorted[0],
            max: sorted[count - 1],
            median: percentile(&sorted, 0.50),
            p95: percentile(&sorted, 0.95),
        }
    }

    /// Computes summary statistics from integer-valued samples.
    pub fn of_counts(values: &[usize]) -> Self {
        let floats: Vec<f64> = values.iter().map(|v| *v as f64).collect();
        Summary::of(&floats)
    }

    /// Computes summary statistics from a histogram of `(value,
    /// multiplicity)` pairs in ascending value order, without ever
    /// expanding the sample — `O(distinct values)` memory however many
    /// observations were folded in.  This is what lets the campaign
    /// aggregator summarise a million trials at constant memory.
    ///
    /// Percentiles use the same nearest-rank rule as [`Summary::of`]
    /// applied to the expanded sorted sample, so for integer-valued data
    /// the two constructors agree exactly.
    pub fn of_histogram(pairs: impl IntoIterator<Item = (f64, u64)> + Clone) -> Self {
        let count: u64 = pairs.clone().into_iter().map(|(_, c)| c).sum();
        if count == 0 {
            return Summary::of(&[]);
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

/// Nearest-rank percentile of an already-sorted sample.
fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * (sorted.len() as f64 - 1.0)).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
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
        let s = Summary::of(&[]);
        assert_eq!(s.count, 0);
        assert_eq!(s.mean, 0.0);
        assert_eq!(s.max, 0.0);
    }

    #[test]
    fn single_sample() {
        let s = Summary::of(&[7.0]);
        assert_eq!(s.count, 1);
        assert_eq!(s.mean, 7.0);
        assert_eq!(s.stddev, 0.0);
        assert_eq!(s.median, 7.0);
        assert_eq!(s.p95, 7.0);
    }

    #[test]
    fn known_values() {
        let s = Summary::of(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert_eq!(s.mean, 5.0);
        assert!((s.stddev - 2.0).abs() < 1e-12);
        assert_eq!(s.min, 2.0);
        assert_eq!(s.max, 9.0);
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(Summary::of(&[1.0, 2.0, 3.0]).median, 2.0);
        let even = Summary::of(&[1.0, 2.0, 3.0, 4.0]);
        assert!(even.median >= 2.0 && even.median <= 3.0);
    }

    #[test]
    fn of_counts_converts() {
        let s = Summary::of_counts(&[1, 2, 3]);
        assert_eq!(s.mean, 2.0);
        assert_eq!(s.count, 3);
    }

    #[test]
    fn histogram_matches_expanded_sample() {
        // 2×4.0, 1×2.0, 1×9.0 — same data both ways.
        let expanded = Summary::of(&[2.0, 4.0, 4.0, 9.0]);
        let histogram = Summary::of_histogram([(2.0, 1u64), (4.0, 2), (9.0, 1)]);
        assert_eq!(histogram, expanded);
        // Percentile ranks land inside multiplicities correctly.
        let h = Summary::of_histogram([(1.0, 10u64), (100.0, 1)]);
        assert_eq!(h.median, 1.0);
        assert_eq!(h.p95, 100.0);
        assert_eq!(h.count, 11);
        // Empty histogram == empty sample.
        assert_eq!(Summary::of_histogram(std::iter::empty()), Summary::of(&[]));
    }

    #[test]
    fn display_contains_fields() {
        let text = Summary::of(&[1.0, 2.0]).to_string();
        assert!(text.contains("mean=1.50"));
        assert!(text.contains("n=2"));
    }
}
