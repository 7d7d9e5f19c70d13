//! A log-bucketed high-dynamic-range histogram.
//!
//! DaCapo "stores event start and end times in an array" and reports
//! percentiles afterwards; "careful engineering ensures that the cost of
//! recording these measurements is low" (§4.4). For streaming aggregation
//! across millions of events (or merging distributions across invocations)
//! an HDR-style histogram is the standard tool: constant-time recording,
//! bounded memory, and a configurable relative error on every reported
//! percentile.
//!
//! The layout follows HdrHistogram: values are grouped into exponential
//! *segments* (one per power of two) each split into `2^precision_bits`
//! linear buckets, giving a guaranteed relative error of at most
//! `2^-precision_bits`.

use crate::AnalysisError;

/// A high-dynamic-range histogram over `u64` values.
///
/// # Examples
///
/// ```
/// use chopin_analysis::histogram::HdrHistogram;
///
/// let mut h = HdrHistogram::new(3); // ≤ 1/8 relative error
/// for v in 1..=1000u64 {
///     h.record(v);
/// }
/// assert_eq!(h.len(), 1000);
/// let p50 = h.value_at_percentile(50.0);
/// assert!((p50 as f64 - 500.0).abs() / 500.0 < 0.125 + 1e-9);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HdrHistogram {
    precision_bits: u32,
    /// Counts indexed by bucket; the bucket layout is derived from the
    /// value, see [`HdrHistogram::bucket_of`].
    counts: Vec<u64>,
    total: u64,
    min: u64,
    max: u64,
}

impl HdrHistogram {
    /// Create a histogram with `precision_bits` of sub-bucket precision
    /// (relative error ≤ `2^-precision_bits`).
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= precision_bits <= 12`.
    pub fn new(precision_bits: u32) -> Self {
        assert!(
            (1..=12).contains(&precision_bits),
            "precision_bits must lie in 1..=12"
        );
        // 64 segments of 2^precision_bits buckets covers the full u64 range.
        let buckets = 64 * (1usize << precision_bits);
        HdrHistogram {
            precision_bits,
            counts: vec![0; buckets],
            total: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Record one value. Constant time.
    pub fn record(&mut self, value: u64) {
        self.record_n(value, 1);
    }

    /// Record `count` occurrences of `value`.
    pub fn record_n(&mut self, value: u64, count: u64) {
        if count == 0 {
            return;
        }
        let idx = self.bucket_of(value);
        self.counts[idx] += count;
        self.total += count;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of recorded values.
    pub fn len(&self) -> u64 {
        self.total
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Smallest recorded value (0 when empty).
    pub fn min(&self) -> u64 {
        if self.is_empty() {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded value (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// The guaranteed relative error bound of reported values.
    pub fn relative_error(&self) -> f64 {
        1.0 / (1u64 << self.precision_bits) as f64
    }

    /// The value at percentile `p` (0–100): an upper bound of the bucket
    /// containing that rank, so the result is within the histogram's
    /// relative error of the true order statistic.
    ///
    /// Returns 0 for an empty histogram.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 100]`.
    pub fn value_at_percentile(&self, p: f64) -> u64 {
        assert!((0.0..=100.0).contains(&p), "percentile out of range");
        if self.is_empty() {
            return 0;
        }
        let target = ((p / 100.0) * self.total as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (idx, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            seen += c;
            if seen >= target {
                return self.bucket_upper(idx).min(self.max).max(self.min);
            }
        }
        self.max
    }

    /// Merge another histogram into this one.
    ///
    /// # Errors
    ///
    /// Returns [`AnalysisError::Ragged`] when precisions differ.
    pub fn merge(&mut self, other: &HdrHistogram) -> Result<(), AnalysisError> {
        if self.precision_bits != other.precision_bits {
            return Err(AnalysisError::Ragged {
                expected: self.precision_bits as usize,
                found: other.precision_bits as usize,
                row: 0,
            });
        }
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
        if !other.is_empty() {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
        Ok(())
    }

    /// Bucket index of a value.
    fn bucket_of(&self, value: u64) -> usize {
        let p = self.precision_bits;
        if value < (1 << p) {
            // The first segment is fully linear.
            return value as usize;
        }
        // Segment = position of the highest set bit above the precision
        // range; sub-bucket = the next `p` bits.
        let msb = 63 - value.leading_zeros();
        let segment = msb - p + 1;
        let sub = (value >> (msb - p)) & ((1 << p) - 1);
        (segment as usize) * (1 << p) + sub as usize
    }

    /// Exclusive upper bound of a bucket (the value reported for it).
    fn bucket_upper(&self, idx: usize) -> u64 {
        let p = self.precision_bits;
        let segment = (idx >> p) as u32;
        let sub = (idx & ((1 << p) - 1)) as u64;
        if segment == 0 {
            return sub;
        }
        let base = 1u64 << (segment + p - 1);
        let unit = 1u64 << (segment - 1);
        base + (sub + 1) * unit - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    #[should_panic(expected = "precision_bits")]
    fn zero_precision_rejected() {
        HdrHistogram::new(0);
    }

    #[test]
    fn empty_histogram_reports_zeroes() {
        let h = HdrHistogram::new(5);
        assert!(h.is_empty());
        assert_eq!(h.value_at_percentile(50.0), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
    }

    #[test]
    fn single_value_dominates_every_percentile() {
        let mut h = HdrHistogram::new(7);
        h.record(12345);
        for p in [0.0, 50.0, 99.99, 100.0] {
            let v = h.value_at_percentile(p);
            let err = (v as f64 - 12345.0).abs() / 12345.0;
            assert!(err <= h.relative_error() + 1e-12, "p{p}: {v}");
        }
    }

    #[test]
    fn small_values_are_exact() {
        let mut h = HdrHistogram::new(6);
        for v in 0..64 {
            h.record(v);
        }
        assert_eq!(h.value_at_percentile(100.0), 63);
        assert_eq!(h.min(), 0);
    }

    #[test]
    fn merge_combines_counts() {
        let mut a = HdrHistogram::new(6);
        let mut b = HdrHistogram::new(6);
        a.record_n(100, 10);
        b.record_n(1_000_000, 10);
        a.merge(&b).unwrap();
        assert_eq!(a.len(), 20);
        assert_eq!(a.max(), 1_000_000);
        assert!(a.value_at_percentile(25.0) <= 110);
        assert!(a.value_at_percentile(99.0) > 900_000);
    }

    #[test]
    fn merge_rejects_mismatched_precision() {
        let mut a = HdrHistogram::new(4);
        let b = HdrHistogram::new(5);
        assert!(a.merge(&b).is_err());
    }

    proptest! {
        #[test]
        fn prop_percentiles_within_relative_error(
            values in proptest::collection::vec(1u64..1_000_000_000, 1..300),
            p in 0.0f64..100.0,
        ) {
            let mut h = HdrHistogram::new(7);
            for &v in &values {
                h.record(v);
            }
            let mut sorted = values.clone();
            sorted.sort_unstable();
            // Exact order statistic with the same ceil-rank convention.
            let rank = ((p / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
            let exact = sorted[rank - 1] as f64;
            let reported = h.value_at_percentile(p) as f64;
            let err = (reported - exact).abs() / exact;
            prop_assert!(
                err <= h.relative_error() + 1e-9,
                "p{p}: reported {reported}, exact {exact}, err {err}"
            );
        }

        #[test]
        fn prop_percentiles_monotone(
            values in proptest::collection::vec(1u64..1_000_000, 2..200),
        ) {
            let mut h = HdrHistogram::new(5);
            for &v in &values {
                h.record(v);
            }
            let ps = [0.0, 10.0, 50.0, 90.0, 99.0, 100.0];
            let vs: Vec<u64> = ps.iter().map(|&p| h.value_at_percentile(p)).collect();
            for w in vs.windows(2) {
                prop_assert!(w[0] <= w[1], "{vs:?}");
            }
        }

        #[test]
        fn prop_count_and_extremes_exact(
            values in proptest::collection::vec(0u64..u64::MAX / 2, 1..100),
        ) {
            let mut h = HdrHistogram::new(3);
            for &v in &values {
                h.record(v);
            }
            prop_assert_eq!(h.len(), values.len() as u64);
            prop_assert_eq!(h.min(), *values.iter().min().unwrap());
            prop_assert_eq!(h.max(), *values.iter().max().unwrap());
        }
    }
}
