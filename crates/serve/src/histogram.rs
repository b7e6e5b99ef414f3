//! A fixed-size, log-bucketed latency histogram.
//!
//! The daemon records one latency per verification for as long as it
//! runs, and reports percentiles on every `stats` call. A histogram keeps
//! both costs constant: recording is one counter increment, and a
//! percentile is one pass over [`BUCKETS`] counters. Values below 16 have
//! a bucket each; every larger power of two is split into 16 buckets, so
//! a reported percentile is off by less than 1/16 of its value.

/// Values below `1 << SUB_BITS` are exact; above, each power of two has
/// `1 << SUB_BITS` buckets.
const SUB_BITS: u32 = 4;
const SUB: u64 = 1 << SUB_BITS;
/// Enough buckets for every `u64`.
const BUCKETS: usize = (SUB + (64 - SUB_BITS as u64) * SUB) as usize;

pub(crate) struct Histogram {
    counts: [u64; BUCKETS],
    total: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            counts: [0; BUCKETS],
            total: 0,
            max: 0,
        }
    }
}

/// The bucket holding `value`.
fn bucket(value: u64) -> usize {
    if value < SUB {
        return value as usize;
    }
    let exp = 63 - value.leading_zeros(); // ≥ SUB_BITS
    let mantissa = (value >> (exp - SUB_BITS)) & (SUB - 1);
    (SUB + u64::from(exp - SUB_BITS) * SUB + mantissa) as usize
}

/// The largest value in bucket `b`.
fn upper(b: usize) -> u64 {
    let b = b as u64;
    if b < SUB {
        return b;
    }
    let shift = (b - SUB) / SUB;
    let lower = (SUB + (b - SUB) % SUB) << shift;
    lower + ((1u64 << shift) - 1)
}

impl Histogram {
    pub(crate) fn record(&mut self, value: u64) {
        self.counts[bucket(value)] += 1;
        self.total += 1;
        self.max = self.max.max(value);
    }

    /// Number of recorded values.
    pub(crate) fn len(&self) -> u64 {
        self.total
    }

    /// The `q`-quantile (`0 ≤ q ≤ 1`) at bucket resolution: the top of the
    /// bucket holding the value of rank `round((n - 1) · q)`, capped at the
    /// exact maximum. 0 when nothing was recorded.
    fn quantile(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let rank = ((self.total - 1) as f64 * q).round() as u64;
        let mut seen = 0;
        for (b, &count) in self.counts.iter().enumerate() {
            seen += count;
            if seen > rank {
                return upper(b).min(self.max);
            }
        }
        self.max
    }

    /// `(p50, p95, max)`.
    pub(crate) fn summary(&self) -> (u64, u64, u64) {
        (self.quantile(0.50), self.quantile(0.95), self.max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_tile_the_range() {
        for v in (0..5000).chain([u64::MAX / 3, u64::MAX - 1, u64::MAX]) {
            let b = bucket(v);
            assert!(b < BUCKETS);
            assert!(v <= upper(b), "{v} above its bucket {b}");
            assert!(b == 0 || v > upper(b - 1), "{v} also in bucket {}", b - 1);
        }
        assert_eq!(upper(BUCKETS - 1), u64::MAX);
    }

    #[test]
    fn a_million_samples_in_constant_memory_within_one_bucket() {
        let mut h = Histogram::default();
        let size = std::mem::size_of_val(&h);
        // A skewed, deterministic spread of 1..~60k ms.
        let mut exact: Vec<u64> = Vec::with_capacity(1_000_000);
        let mut x: u64 = 1;
        for _ in 0..1_000_000 {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            let v = 1 + ((x >> 33) % 250).pow(2);
            h.record(v);
            exact.push(v);
        }
        assert_eq!(std::mem::size_of_val(&h), size);
        assert_eq!(h.len(), 1_000_000);
        exact.sort_unstable();
        let at = |q: f64| exact[((exact.len() - 1) as f64 * q).round() as usize];
        let (p50, p95, max) = h.summary();
        assert_eq!(bucket(p50), bucket(at(0.50)));
        assert_eq!(bucket(p95), bucket(at(0.95)));
        assert_eq!(max, *exact.last().unwrap());
        assert!(p50 >= at(0.50) && p95 >= at(0.95), "reports the bucket top");
    }

    #[test]
    fn small_values_are_exact() {
        let mut h = Histogram::default();
        assert_eq!(h.summary(), (0, 0, 0));
        for v in [3, 1, 2, 5, 4] {
            h.record(v);
        }
        assert_eq!(h.summary(), (3, 5, 5));
    }
}
