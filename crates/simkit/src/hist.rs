//! Log-bucketed latency histograms.
//!
//! The paper reports average, 99th-percentile and 99.9th-percentile ("999th
//! per-mille") latencies. [`Histogram`] is an HDR-style histogram with
//! logarithmic major buckets and linear sub-buckets, giving a bounded
//! relative error (< 1/64 ≈ 1.6 %) over the full picosecond→hours range with
//! a few KiB of memory and O(1) recording.
//!
//! # Examples
//!
//! ```
//! use simkit::{Histogram, Time};
//!
//! let mut h = Histogram::new();
//! for us in 1..=1000 {
//!     h.record(Time::from_us(us as f64));
//! }
//! assert_eq!(h.count(), 1000);
//! let p99 = h.quantile(0.99);
//! assert!((p99.as_us() - 990.0).abs() / 990.0 < 0.02);
//! ```

use crate::time::Time;
use std::fmt;

/// Number of linear sub-buckets per power-of-two bucket (2^6).
const SUB_BITS: u32 = 6;
const SUB_COUNT: usize = 1 << SUB_BITS;
/// Major buckets cover 2^0 .. 2^63 picoseconds.
const MAJOR_COUNT: usize = 64 - SUB_BITS as usize;

/// A latency histogram with ~1.6 % relative bucket error.
#[derive(Clone)]
pub struct Histogram {
    counts: Vec<u64>,
    total: u64,
    sum_ps: u128,
    min: Time,
    max: Time,
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram {
            counts: vec![0; MAJOR_COUNT * SUB_COUNT],
            total: 0,
            sum_ps: 0,
            min: Time::MAX,
            max: Time::ZERO,
        }
    }

    fn index(value_ps: u64) -> usize {
        // Values below SUB_COUNT land in the first major bucket linearly.
        if value_ps < SUB_COUNT as u64 {
            return value_ps as usize;
        }
        let msb = 63 - value_ps.leading_zeros();
        let major = (msb - SUB_BITS + 1) as usize;
        let shift = msb - SUB_BITS;
        let sub = ((value_ps >> shift) - SUB_COUNT as u64) as usize;
        debug_assert!(sub < SUB_COUNT);
        (major * SUB_COUNT + sub).min(MAJOR_COUNT * SUB_COUNT - 1)
    }

    /// Lower bound of a bucket, used when reading quantiles back out.
    fn bucket_floor(index: usize) -> u64 {
        let major = index / SUB_COUNT;
        let sub = (index % SUB_COUNT) as u64;
        if major == 0 {
            return sub;
        }
        let shift = major as u32 + SUB_BITS - 1;
        (SUB_COUNT as u64 + sub) << (shift - SUB_BITS)
    }

    /// Records one sample.
    #[inline]
    pub fn record(&mut self, value: Time) {
        let ps = value.as_ps();
        self.counts[Self::index(ps)] += 1;
        self.total += 1;
        self.sum_ps += ps as u128;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// True if no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Arithmetic mean of all samples ([`Time::ZERO`] when empty).
    pub fn mean(&self) -> Time {
        if self.total == 0 {
            return Time::ZERO;
        }
        Time::from_ps((self.sum_ps / self.total as u128) as u64)
    }

    /// Smallest recorded sample ([`Time::MAX`] when empty).
    pub fn min(&self) -> Time {
        self.min
    }

    /// Largest recorded sample ([`Time::ZERO`] when empty).
    pub fn max(&self) -> Time {
        self.max
    }

    /// Value at quantile `q ∈ [0, 1]` (e.g. 0.99 for p99); returns the lower
    /// bound of the containing bucket, clamped to the observed min/max.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> Time {
        assert!((0.0..=1.0).contains(&q), "quantile out of range: {q}");
        if self.total == 0 {
            return Time::ZERO;
        }
        let target = ((q * self.total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= target {
                let v = Time::from_ps(Self::bucket_floor(i));
                return v.max(self.min).min(self.max);
            }
        }
        self.max
    }

    /// Convenience accessor for the tuple the paper reports:
    /// (mean, p99, p999).
    pub fn paper_latencies(&self) -> (Time, Time, Time) {
        (self.mean(), self.quantile(0.99), self.quantile(0.999))
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += *b;
        }
        self.total += other.total;
        self.sum_ps += other.sum_ps;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Clears all samples.
    pub fn clear(&mut self) {
        self.counts.iter_mut().for_each(|c| *c = 0);
        self.total = 0;
        self.sum_ps = 0;
        self.min = Time::MAX;
        self.max = Time::ZERO;
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Debug for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            return write!(f, "Histogram(empty)");
        }
        write!(
            f,
            "Histogram(n={}, mean={}, p50={}, p99={}, p999={}, max={})",
            self.total,
            self.mean(),
            self.quantile(0.5),
            self.quantile(0.99),
            self.quantile(0.999),
            self.max
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_behaves() {
        let h = Histogram::new();
        assert!(h.is_empty());
        assert_eq!(h.mean(), Time::ZERO);
        assert_eq!(h.quantile(0.99), Time::ZERO);
    }

    #[test]
    fn single_sample_dominates_all_quantiles() {
        let mut h = Histogram::new();
        h.record(Time::from_us(42.0));
        for q in [0.0, 0.5, 0.99, 1.0] {
            let v = h.quantile(q);
            assert!((v.as_us() - 42.0).abs() / 42.0 < 0.02, "q={q} → {v}");
        }
        assert_eq!(h.mean(), Time::from_us(42.0));
    }

    #[test]
    fn relative_error_bounded() {
        let mut h = Histogram::new();
        let exact = Time::from_ns(12_345.0);
        h.record(exact);
        let back = h.quantile(0.5);
        let err = (back.as_ps() as f64 - exact.as_ps() as f64).abs() / exact.as_ps() as f64;
        assert!(err < 1.0 / 64.0, "relative error too large: {err}");
    }

    #[test]
    fn quantiles_are_monotone() {
        let mut h = Histogram::new();
        let mut x = 1u64;
        for i in 0..10_000u64 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(i);
            h.record(Time::from_ps(x % 1_000_000_000));
        }
        let mut prev = Time::ZERO;
        for i in 0..=100 {
            let v = h.quantile(i as f64 / 100.0);
            assert!(v >= prev, "quantiles must be monotone");
            prev = v;
        }
        assert!(h.quantile(1.0) <= h.max());
        assert!(h.quantile(0.0) >= h.min());
    }

    #[test]
    fn uniform_distribution_quantiles() {
        let mut h = Histogram::new();
        for us in 1..=10_000 {
            h.record(Time::from_us(us as f64));
        }
        let p50 = h.quantile(0.5).as_us();
        let p99 = h.quantile(0.99).as_us();
        let p999 = h.quantile(0.999).as_us();
        assert!((p50 - 5000.0).abs() / 5000.0 < 0.02, "p50={p50}");
        assert!((p99 - 9900.0).abs() / 9900.0 < 0.02, "p99={p99}");
        assert!((p999 - 9990.0).abs() / 9990.0 < 0.02, "p999={p999}");
    }

    #[test]
    fn merge_equals_combined_recording() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut c = Histogram::new();
        for i in 0..1000u64 {
            let v = Time::from_ps(i * i + 1);
            if i % 2 == 0 {
                a.record(v);
            } else {
                b.record(v);
            }
            c.record(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), c.count());
        assert_eq!(a.mean(), c.mean());
        for q in [0.1, 0.5, 0.9, 0.99] {
            assert_eq!(a.quantile(q), c.quantile(q));
        }
    }

    #[test]
    fn clear_resets() {
        let mut h = Histogram::new();
        h.record(Time::from_us(1.0));
        h.clear();
        assert!(h.is_empty());
        assert_eq!(h.max(), Time::ZERO);
    }

    #[test]
    fn index_floor_consistent() {
        // bucket_floor(index(v)) <= v for a wide range of magnitudes.
        let mut v = 1u64;
        while v < u64::MAX / 3 {
            let idx = Histogram::index(v);
            let floor = Histogram::bucket_floor(idx);
            assert!(floor <= v, "floor {floor} > value {v}");
            // And the floor maps back to the same bucket.
            assert_eq!(Histogram::index(floor), idx, "v={v}");
            v = v * 3 + 1;
        }
    }
}
