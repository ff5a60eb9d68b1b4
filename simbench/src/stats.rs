//! Order statistics for host-time samples.

/// Percentiles a tail figure may use, highest first.
const TAIL_LEVELS: [f64; 5] = [0.999, 0.99, 0.95, 0.90, 0.75];

/// Nearest rank (1-based) of percentile `p` in a sample of `n`; the
/// slack keeps `0.9 * 100` at rank 90 despite rounding.
fn rank(p: f64, n: usize) -> usize {
    ((p * n as f64 - 1e-9).ceil() as usize).clamp(1, n.max(1))
}

/// Nearest-rank percentile of an ascending sample (`p` in `[0, 1]`).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank(p, sorted.len()) - 1]
}

/// A timing summary: the median, plus the highest percentile that has at
/// least ten samples beyond it (`None` when no level in [`TAIL_LEVELS`]
/// has that many), and the fastest sample.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    pub count: usize,
    pub median: f64,
    pub tail: Option<(f64, f64)>,
    pub min: f64,
}

impl Summary {
    pub fn of(samples: &[f64]) -> Summary {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        let tail = TAIL_LEVELS
            .iter()
            .find(|&&p| n.saturating_sub(rank(p, n)) >= 10)
            .map(|&p| (p, percentile(&sorted, p)));
        Summary {
            count: n,
            median: percentile(&sorted, 0.5),
            tail,
            min: sorted.first().copied().unwrap_or(0.0),
        }
    }

    /// The tail value, or the median when the sample is too small to
    /// have a tail.
    pub fn tail_or_median(&self) -> f64 {
        self.tail.map_or(self.median, |(_, v)| v)
    }

    /// `median 1.234567 s, p90 2.345678 s, min 1.0 s, n=100`.
    pub fn describe(&self) -> String {
        let tail = match self.tail {
            Some((p, v)) => format!(", p{} {v:.6} s", p * 100.0),
            None => String::from(", too few samples for a tail"),
        };
        format!(
            "median {:.6} s{tail}, min {:.6} s, n={}",
            self.median, self.min, self.count
        )
    }
}

/// 64-bit FNV-1a, the digest of simulated outputs.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn u64(&mut self, v: u64) {
        for byte in v.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    pub fn f64s(&mut self, vs: &[f64]) {
        self.u64(vs.len() as u64);
        for &v in vs {
            self.f64(v);
        }
    }

    pub fn value(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert!(Summary::of(&[]).tail.is_none());
        let samples: Vec<f64> = (1..=19).map(f64::from).collect();
        assert!(Summary::of(&samples).tail.is_none());
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        let s = Summary::of(&samples);
        assert_eq!(s.median, 50.0);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.tail, Some((0.90, 90.0)));
        let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(Summary::of(&samples).tail, Some((0.99, 990.0)));
    }
}
