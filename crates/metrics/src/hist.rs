//! Log₂-bucketed histograms.
//!
//! One fixed layout for every histogram in the system: 64 buckets
//! whose upper bounds are consecutive powers of two, spanning
//! `2⁻⁴⁰ ≈ 1e-12` (sub-picosecond latencies) up to `2²³ ≈ 8.4e6`
//! (multi-megabyte messages, hour-scale durations). A fixed layout is
//! what makes merging trivially associative and commutative: merging
//! is element-wise addition of bucket counts, with `sum`/`count`
//! added and `min`/`max` folded.

/// Bucket `i` (for `i ≥ 1`) has upper bound `2^(i - LE_OFFSET)`.
const LE_OFFSET: i64 = 40;

/// Number of buckets, including the `≤ 0` underflow bucket 0.
pub const BUCKETS: usize = 64;

/// A log₂-bucketed histogram over non-negative measurements.
///
/// Bucket 0 catches values `≤ 0`; bucket `i ≥ 1` catches
/// `(2^(i-41), 2^(i-40)]`, with the first and last real buckets
/// absorbing under- and overflow. `sum`, `count`, `min`, and `max`
/// are tracked exactly.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    count: u64,
    sum: f64,
    /// Smallest/largest observation; meaningless while `count == 0`.
    min: f64,
    max: f64,
    buckets: Box<[u64; BUCKETS]>,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    pub fn new() -> Self {
        Histogram {
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            buckets: Box::new([0; BUCKETS]),
        }
    }

    /// The bucket a value falls into.
    pub fn bucket_index(v: f64) -> usize {
        if v <= 0.0 {
            return 0;
        }
        (v.log2().ceil() as i64 + LE_OFFSET).clamp(1, BUCKETS as i64 - 1) as usize
    }

    /// Inclusive upper bound of bucket `i` (`0.0` for the underflow
    /// bucket; the last bucket is effectively unbounded).
    pub fn bucket_le(i: usize) -> f64 {
        assert!(i < BUCKETS, "bucket {i} out of range");
        if i == 0 {
            0.0
        } else {
            ((i as i64 - LE_OFFSET) as f64).exp2()
        }
    }

    /// Record one observation.
    pub fn observe(&mut self, v: f64) {
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        self.buckets[Self::bucket_index(v)] += 1;
    }

    /// Fold another histogram into this one. Element-wise bucket
    /// addition plus exact count/sum accumulation — associative and
    /// commutative, so per-rank histograms merge into the same
    /// job-level histogram no matter the order.
    pub fn merge(&mut self, other: &Histogram) {
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        for (d, s) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *d += s;
        }
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn sum(&self) -> f64 {
        self.sum
    }

    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum / self.count as f64)
    }

    /// Non-empty buckets as `(index, upper_bound, count)`.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (usize, f64, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (i, Self::bucket_le(i), c))
    }

    /// Rebuild from serialized parts (sparse `(index, count)` pairs).
    /// `min`/`max` are only meaningful when `count > 0`.
    pub fn from_parts(count: u64, sum: f64, min: f64, max: f64, sparse: &[(usize, u64)]) -> Self {
        let mut h = Histogram::new();
        h.count = count;
        h.sum = sum;
        if count > 0 {
            h.min = min;
            h.max = max;
        }
        for &(i, c) in sparse {
            if i < BUCKETS {
                h.buckets[i] += c;
            }
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_powers_of_two() {
        assert_eq!(Histogram::bucket_index(0.0), 0);
        assert_eq!(Histogram::bucket_index(-1.0), 0);
        // 1.0 = 2^0 → upper bound 1.0 → bucket with le = 1.
        let i = Histogram::bucket_index(1.0);
        assert_eq!(Histogram::bucket_le(i), 1.0);
        // Just above a power of two rolls into the next bucket.
        let j = Histogram::bucket_index(1.0 + 1e-12);
        assert_eq!(j, i + 1);
        assert_eq!(Histogram::bucket_le(j), 2.0);
        // Exact powers land on their own bound.
        assert_eq!(
            Histogram::bucket_le(Histogram::bucket_index(1024.0)),
            1024.0
        );
        assert_eq!(
            Histogram::bucket_le(Histogram::bucket_index(0.5)),
            0.5,
            "2^-1"
        );
    }

    #[test]
    fn extremes_clamp() {
        assert_eq!(Histogram::bucket_index(1e-300), 1);
        assert_eq!(Histogram::bucket_index(1e300), BUCKETS - 1);
    }

    #[test]
    fn observe_tracks_stats() {
        let mut h = Histogram::new();
        assert_eq!(h.min(), None);
        for v in [1.0, 4.0, 16.0] {
            h.observe(v);
        }
        assert_eq!(h.count(), 3);
        assert_eq!(h.sum(), 21.0);
        assert_eq!(h.min(), Some(1.0));
        assert_eq!(h.max(), Some(16.0));
        assert_eq!(h.mean(), Some(7.0));
        assert_eq!(h.nonzero_buckets().count(), 3);
    }

    #[test]
    fn merge_equals_combined_observations() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut both = Histogram::new();
        for v in [0.001, 3.0, 7.5] {
            a.observe(v);
            both.observe(v);
        }
        for v in [0.0, 1e6, 3.0] {
            b.observe(v);
            both.observe(v);
        }
        a.merge(&b);
        assert_eq!(a, both);
    }

    #[test]
    fn parts_round_trip() {
        let mut h = Histogram::new();
        for v in [2.0, 1000.0, 0.25] {
            h.observe(v);
        }
        let sparse: Vec<(usize, u64)> = h.nonzero_buckets().map(|(i, _, c)| (i, c)).collect();
        let back = Histogram::from_parts(h.count(), h.sum(), h.min, h.max, &sparse);
        assert_eq!(h, back);
    }
}
