//! Seeded randomness and exact order statistics.
//!
//! Every input the benchmark feeds the system comes from [`Rng`], seeded
//! from `--seed`, so one seed always yields one request stream. Every
//! percentile is computed from the raw samples with the nearest-rank
//! rule — never from the serving layer's log2 histogram.

/// SplitMix64: a small, fast, fully deterministic generator.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one purpose (`salt`) under one seed, so streams
    /// drawn for different purposes do not shift each other.
    pub fn new(seed: u64, salt: u64) -> Rng {
        let mut rng = Rng(seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        rng.next_u64();
        rng
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Exponentially distributed with mean `mean`.
    pub fn exp(&mut self, mean: f64) -> f64 {
        -mean * (1.0 - self.unit()).ln()
    }
}

/// Zipf distribution over ranks `0..n` with skew `s`.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Build the cumulative table.
    pub fn new(n: usize, s: f64) -> Zipf {
        let weights: Vec<f64> = (1..=n).map(|r| 1.0 / (r as f64).powf(s)).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cdf = weights
            .into_iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        Zipf { cdf }
    }

    /// Draw a rank.
    pub fn sample(&self, rng: &mut Rng) -> usize {
        self.quantile(rng.unit())
    }

    /// The rank at cumulative probability `u` (inverse CDF).
    pub fn quantile(&self, u: f64) -> usize {
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// One percentile of a sample set, with the evidence behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The sample at nearest rank `ceil(p * n)`.
    pub value: f64,
    /// Samples in the set.
    pub samples: usize,
    /// Samples strictly after the chosen rank.
    pub beyond: usize,
}

/// Nearest-rank percentile `p` (in `(0, 1]`) of `sorted`, which must be
/// sorted ascending. `None` for an empty set.
pub fn percentile(sorted: &[f64], p: f64) -> Option<Percentile> {
    if sorted.is_empty() {
        return None;
    }
    let n = sorted.len();
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n);
    Some(Percentile {
        value: sorted[rank - 1],
        samples: n,
        beyond: n - rank,
    })
}

/// Sort samples for [`percentile`]; non-finite samples (failed
/// requests) sort last, so they count as missing every limit.
pub fn sorted(mut samples: Vec<f64>) -> Vec<f64> {
    samples.sort_by(f64::total_cmp);
    samples
}

/// Median of a small set of values (mean of the middle two when even).
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values.to_vec());
    let n = v.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_on_known_inputs() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let p50 = percentile(&v, 0.5).unwrap();
        assert_eq!((p50.value, p50.samples, p50.beyond), (50.0, 100, 50));
        let p99 = percentile(&v, 0.99).unwrap();
        assert_eq!((p99.value, p99.beyond), (99.0, 1));
        assert_eq!(percentile(&v, 1.0).unwrap().value, 100.0);
        assert_eq!(percentile(&[7.0], 0.99).unwrap().value, 7.0);
        assert!(percentile(&[], 0.5).is_none());
        let odd = sorted(vec![5.0, 1.0, 3.0]);
        assert_eq!(percentile(&odd, 0.5).unwrap().value, 3.0);
    }

    #[test]
    fn failures_sort_past_every_latency() {
        let v = sorted(vec![f64::INFINITY, 2.0, 1.0, 3.0]);
        assert_eq!(percentile(&v, 0.75).unwrap().value, 3.0);
        assert_eq!(percentile(&v, 0.99).unwrap().value, f64::INFINITY);
    }

    #[test]
    fn median_of_even_and_odd_sets() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn rng_is_seeded() {
        let a: Vec<u64> = (0..4).map(|_| Rng::new(1, 2).next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        assert_ne!(Rng::new(1, 2).next_u64(), Rng::new(2, 2).next_u64());
        assert_ne!(Rng::new(1, 2).next_u64(), Rng::new(1, 3).next_u64());
    }
}
