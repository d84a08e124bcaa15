//! Fixed-bucket histograms.

/// A histogram with fixed inclusive upper-bound buckets plus an
/// overflow bucket.
#[derive(Debug, Clone)]
pub struct Histogram {
    bounds: Vec<u64>,
    counts: Vec<u64>,
    sum: u64,
    total: u64,
}

impl Histogram {
    /// A histogram with the given ascending inclusive upper bounds.
    /// An implicit overflow bucket catches values above the last
    /// bound.
    pub fn new(bounds: &[u64]) -> Self {
        assert!(bounds.windows(2).all(|w| w[0] < w[1]), "bounds must ascend");
        Histogram {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
            sum: 0,
            total: 0,
        }
    }

    /// Power-of-four byte-size buckets (16 B … 64 KiB), suited to
    /// record and flight sizes.
    pub fn byte_sizes() -> Self {
        Histogram::new(&[16, 64, 256, 1024, 4096, 16_384, 65_536])
    }

    /// Power-of-ten nanosecond buckets (1 µs … 10 s), suited to
    /// durations.
    pub fn durations_ns() -> Self {
        Histogram::new(&[
            1_000,
            10_000,
            100_000,
            1_000_000,
            10_000_000,
            100_000_000,
            1_000_000_000,
            10_000_000_000,
        ])
    }

    /// Record one observation.
    pub fn observe(&mut self, value: u64) {
        let idx = self.bounds.iter().position(|&b| value <= b).unwrap_or(self.bounds.len());
        self.counts[idx] += 1;
        self.sum += value;
        self.total += 1;
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Sum of observations.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Mean observation, or zero when empty.
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    /// `(inclusive_upper_bound, count)` pairs; the final pair uses
    /// `u64::MAX` as the overflow bound.
    pub fn buckets(&self) -> Vec<(u64, u64)> {
        self.bounds
            .iter()
            .copied()
            .chain(std::iter::once(u64::MAX))
            .zip(self.counts.iter().copied())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_and_mean() {
        let mut h = Histogram::new(&[10, 100]);
        h.observe(5);
        h.observe(10);
        h.observe(50);
        h.observe(1_000);
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 1_065);
        let buckets = h.buckets();
        assert_eq!(buckets, vec![(10, 2), (100, 1), (u64::MAX, 1)]);
        assert!((h.mean() - 266.25).abs() < 1e-9);
    }
}
