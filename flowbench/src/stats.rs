//! Order statistics and the outcome digest.

/// Median of `xs` (mean of the two middle values for an even count);
/// `None` when `xs` is empty.
pub fn median(xs: &[f64]) -> Option<f64> {
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// Nearest-rank percentile `p` (in `(0, 100]`) of an ascending slice:
/// the smallest sample with at least `p`% of the samples at or below it.
/// `None` when `sorted` is empty.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    assert!(p > 0.0 && p <= 100.0, "percentile {p} out of (0, 100]");
    if sorted.is_empty() {
        return None;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// The simulated outcome figures every workload reports: job completion
/// time (exit − arrival) over all jobs, and the last completion.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimFigures {
    pub jct_mean_s: f64,
    pub jct_p99_s: f64,
    pub makespan_s: f64,
}

impl SimFigures {
    /// Fold per-job completion times (any order) and the makespan.
    pub fn new(mut jct_s: Vec<f64>, makespan_s: f64) -> SimFigures {
        jct_s.sort_by(f64::total_cmp);
        let n = jct_s.len().max(1) as f64;
        SimFigures {
            jct_mean_s: jct_s.iter().sum::<f64>() / n,
            jct_p99_s: percentile(&jct_s, 99.0).unwrap_or(0.0),
            makespan_s,
        }
    }
}

/// FNV-1a (64-bit) over a sequence of little-endian words: a stable
/// fingerprint of a run's outcome, so two runs (traced and untraced,
/// sharded and sequential, parent and child commit) can be compared by
/// one printed number.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn u64(&mut self, word: u64) -> &mut Self {
        for byte in word.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    /// Feed a float by its bit pattern: simulated figures must match
    /// bit for bit, not approximately.
    pub fn f64(&mut self, x: f64) -> &mut Self {
        self.u64(x.to_bits())
    }

    pub fn value(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[7.5]), Some(7.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), Some(50.0));
        assert_eq!(percentile(&xs, 99.0), Some(99.0));
        assert_eq!(percentile(&xs, 100.0), Some(100.0));
        assert_eq!(percentile(&xs, 0.5), Some(1.0));
        // Ten samples: p99 needs the tenth (the maximum).
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&ten, 99.0), Some(10.0));
        assert_eq!(percentile(&ten, 90.0), Some(9.0));
        assert_eq!(percentile(&[4.0], 99.0), Some(4.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    #[should_panic(expected = "out of (0, 100]")]
    fn zero_percentile_is_rejected() {
        percentile(&[1.0], 0.0);
    }

    #[test]
    fn sim_figures_fold_unsorted_input() {
        let mut jct: Vec<f64> = (1..=200).rev().map(f64::from).collect();
        jct.swap(3, 150);
        let f = SimFigures::new(jct, 250.0);
        assert_eq!(f.jct_mean_s, 100.5);
        assert_eq!(f.jct_p99_s, 198.0);
        assert_eq!(f.makespan_s, 250.0);
        assert_eq!(SimFigures::new(Vec::new(), 0.0).jct_mean_s, 0.0);
    }

    #[test]
    fn digest_is_fnv1a_and_order_sensitive() {
        // FNV-1a of eight zero bytes.
        assert_eq!(Digest::default().u64(0).value(), 0xa8c7_f832_281a_39c5);
        let ab = Digest::default().u64(1).u64(2).value();
        let ba = Digest::default().u64(2).u64(1).value();
        assert_ne!(ab, ba);
        assert_eq!(ab, Digest::default().u64(1).u64(2).value());
        // Floats hash by bits: -0.0 and 0.0 differ.
        assert_ne!(
            Digest::default().f64(0.0).value(),
            Digest::default().f64(-0.0).value()
        );
    }
}
