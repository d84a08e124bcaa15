//! The min-over-rounds estimator and the order statistics built on it.
//!
//! A workload is a fixed seeded list of operations replayed for
//! several rounds. Operation `i` does identical work in every round,
//! so the interference-free cost of operation `i` is the *minimum* of
//! its measured times: a noisy neighbour can only add time, never
//! remove it. Rates are `N / Σᵢ minᵣ tᵢᵣ`; percentiles are taken over
//! the per-operation minima, so they describe how the operations
//! differ from one another, not how the machine's noise is spread.

/// Per-operation minima over aligned rounds.
#[derive(Debug, Default)]
pub struct Estimator {
    /// The call sequence of the first round; every later round must
    /// repeat it exactly or its times would be compared with the
    /// times of different work.
    kinds: Vec<u8>,
    best_ns: Vec<u64>,
    round_wall_ns: Vec<u64>,
}

impl Estimator {
    /// An estimator with no rounds yet.
    pub fn new() -> Self {
        Estimator::default()
    }

    /// Fold in one round: `kinds[i]` names what operation `i` was (a
    /// workload-private tag), `times_ns[i]` how long it took. Fails,
    /// naming the first difference, if the round's call sequence is
    /// not the first round's.
    pub fn add_round(&mut self, kinds: &[u8], times_ns: &[u64]) -> Result<(), String> {
        if kinds.len() != times_ns.len() {
            return Err(format!(
                "round has {} operation tags but {} times",
                kinds.len(),
                times_ns.len()
            ));
        }
        if self.round_wall_ns.is_empty() {
            self.kinds = kinds.to_vec();
            self.best_ns = times_ns.to_vec();
        } else {
            if kinds.len() != self.kinds.len() {
                return Err(format!(
                    "round {} issued {} operations, round 1 issued {}",
                    self.round_wall_ns.len() + 1,
                    kinds.len(),
                    self.kinds.len()
                ));
            }
            if let Some(i) = (0..kinds.len()).find(|&i| kinds[i] != self.kinds[i]) {
                return Err(format!(
                    "round {} diverged at operation {i}: kind {} where round 1 had kind {}",
                    self.round_wall_ns.len() + 1,
                    kinds[i],
                    self.kinds[i]
                ));
            }
            for (best, &t) in self.best_ns.iter_mut().zip(times_ns) {
                *best = (*best).min(t);
            }
        }
        self.round_wall_ns.push(times_ns.iter().sum());
        Ok(())
    }

    /// Rounds folded in so far.
    pub fn rounds(&self) -> usize {
        self.round_wall_ns.len()
    }

    /// `Σᵢ minᵣ tᵢᵣ`: the interference-free time of one round.
    pub fn total_ns(&self) -> u64 {
        self.best_ns.iter().sum()
    }

    /// The per-operation minima, optionally only those of one kind.
    pub fn minima(&self, kind: Option<u8>) -> Vec<u64> {
        match kind {
            None => self.best_ns.clone(),
            Some(k) => self
                .best_ns
                .iter()
                .zip(&self.kinds)
                .filter(|(_, &kind)| kind == k)
                .map(|(&t, _)| t)
                .collect(),
        }
    }

    /// Median round wall ÷ fastest round wall: how noisy the machine
    /// was while this workload ran (1.0 = perfectly quiet).
    pub fn noise_ratio(&self) -> f64 {
        let fastest = self.round_wall_ns.iter().copied().min().unwrap_or(0);
        if fastest == 0 {
            return 1.0;
        }
        let walls: Vec<f64> = self.round_wall_ns.iter().map(|&w| w as f64).collect();
        median(&walls) / fastest as f64
    }
}

/// Median of `values` (mean of the middle pair for even counts);
/// 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The sample at percentile `p` (0–100) of ascending `sorted`, by the
/// nearest-rank rule. `sorted` must not be empty.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Which percentile the tail latency of an `n`-sample workload is
/// read at: the highest one that still has at least ten samples
/// beyond it, capped at p99. With 1000 samples or more that is p99
/// (ten or more beyond); with 64 it is p84. Ten or fewer samples
/// support no tail at all and fall back to the median (smoke runs).
pub fn tail_percentile(n: usize) -> f64 {
    if n >= 1000 {
        99.0
    } else if n > 10 {
        100.0 * (n - 10) as f64 / n as f64
    } else {
        50.0
    }
}

/// Distance between the first and third quartile of `values` as a
/// share of their median, quartiles as Python's
/// `statistics.quantiles(values, n=4)` gives them. Needs two values
/// or more.
pub fn quartile_spread(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let len = v.len();
    let quartile = |i: usize| {
        let m = len + 1;
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    let med = median(&v);
    if med == 0.0 {
        return 0.0;
    }
    (quartile(3) - quartile(1)) / med
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_operation_minimum_over_rounds() {
        let mut e = Estimator::new();
        e.add_round(&[0, 0, 0], &[10, 50, 30]).unwrap();
        e.add_round(&[0, 0, 0], &[40, 20, 30]).unwrap();
        e.add_round(&[0, 0, 0], &[11, 21, 90]).unwrap();
        assert_eq!(e.rounds(), 3);
        assert_eq!(e.minima(None), vec![10, 20, 30]);
        // The sum of minima beats every single round's wall.
        assert_eq!(e.total_ns(), 60);
        // Walls are 90, 90, 122: median 90 over fastest 90.
        assert!((e.noise_ratio() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn minima_filter_by_kind() {
        let mut e = Estimator::new();
        e.add_round(&[1, 2, 1, 2], &[5, 100, 7, 300]).unwrap();
        e.add_round(&[1, 2, 1, 2], &[6, 90, 6, 310]).unwrap();
        assert_eq!(e.minima(Some(1)), vec![5, 6]);
        assert_eq!(e.minima(Some(2)), vec![90, 300]);
    }

    #[test]
    fn misaligned_rounds_fail_loudly() {
        let mut e = Estimator::new();
        e.add_round(&[1, 2, 2], &[1, 1, 1]).unwrap();
        let err = e.add_round(&[1, 2, 1], &[1, 1, 1]).unwrap_err();
        assert!(err.contains("diverged at operation 2"), "{err}");
        let err = e.add_round(&[1, 2], &[1, 1]).unwrap_err();
        assert!(err.contains("issued 2 operations"), "{err}");
        let err = e.add_round(&[1, 2, 2], &[1, 1]).unwrap_err();
        assert!(err.contains("3 operation tags but 2 times"), "{err}");
        // Nothing was folded in by the failed rounds.
        assert_eq!(e.rounds(), 1);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(2000), 99.0);
        assert_eq!(tail_percentile(1000), 99.0);
        // 999 samples cannot support p99 with ten beyond it.
        assert!(tail_percentile(999) < 99.0);
        for n in [11usize, 64, 150, 192, 999, 1000, 2000] {
            let sorted: Vec<u64> = (1..=n as u64).collect();
            let at = percentile(&sorted, tail_percentile(n));
            let beyond = sorted.iter().filter(|&&s| s > at).count();
            assert!(beyond >= 10, "n={n}: only {beyond} samples beyond the tail");
        }
        // 64 samples: rank 54 of 64, ten beyond.
        let sorted: Vec<u64> = (1..=64).collect();
        assert_eq!(percentile(&sorted, tail_percentile(64)), 54);
        assert_eq!(tail_percentile(6), 50.0);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let sorted: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&sorted, 50.0), 50);
        assert_eq!(percentile(&sorted, 99.0), 99);
        assert_eq!(percentile(&sorted, 100.0), 100);
        assert_eq!(percentile(&[7], 50.0), 7);
    }

    #[test]
    fn quartile_spread_matches_python_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((quartile_spread(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        // Two values: quantiles([10, 12], n=4) == [9.5, 11.0, 12.5]
        assert!((quartile_spread(&[10.0, 12.0]) - 3.0 / 11.0).abs() < 1e-12);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }
}
