//! Order statistics: tail percentiles that refuse thin tails, medians and
//! quartiles (the latter computed exactly as Python's
//! `statistics.quantiles(values, n=4)` does, so spreads printed here match
//! the ones a reader recomputes from the raw values).

/// A tail percentile is reported only with at least this many samples
/// strictly beyond it; otherwise it would be no tail.
pub const MIN_BEYOND: u64 = 10;

/// 1-based nearest rank of quantile `q` among `n` samples, or `None` when
/// fewer than [`MIN_BEYOND`] samples lie beyond that rank.
fn tail_rank(n: u64, q: f64) -> Option<u64> {
    if n == 0 || !(0.0..=1.0).contains(&q) {
        return None;
    }
    let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
    (n - rank >= MIN_BEYOND).then_some(rank)
}

/// Nearest-rank percentile of an ascending slice. `None` when the slice
/// leaves fewer than [`MIN_BEYOND`] samples beyond the rank.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    let rank = tail_rank(sorted.len() as u64, q)?;
    Some(sorted[rank as usize - 1])
}

/// Median (mean of the two middle values for an even count). `None` when
/// empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// First, second and third quartile by Python's default ("exclusive")
/// method. `None` when empty; a single value is all three quartiles.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len();
    match ld {
        0 => return None,
        1 => return Some([v[0]; 3]),
        _ => {}
    }
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (k, slot) in out.iter_mut().enumerate() {
        let i = k + 1;
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(out)
}

/// Latency histogram at 1 ns resolution up to [`Hist::EXACT_NS`], with the
/// rare slower samples kept individually, so percentiles are exact without
/// storing millions of samples (which would also inflate the process's peak
/// RSS, itself a reported metric).
pub struct Hist {
    counts: Vec<u64>,
    slow: Vec<u64>,
    n: u64,
}

impl Default for Hist {
    fn default() -> Self {
        Hist {
            counts: vec![0; Hist::EXACT_NS as usize],
            slow: Vec::new(),
            n: 0,
        }
    }
}

impl Hist {
    /// Samples below this many nanoseconds are bucketed; the rest are kept.
    pub const EXACT_NS: u64 = 1 << 16;

    /// Record one sample.
    pub fn record(&mut self, ns: u64) {
        match self.counts.get_mut(ns as usize) {
            Some(c) => *c += 1,
            None => self.slow.push(ns),
        }
        self.n += 1;
    }

    /// Fold another histogram in.
    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.slow.extend_from_slice(&other.slow);
        self.n += other.n;
    }

    /// Number of samples recorded.
    pub fn len(&self) -> u64 {
        self.n
    }

    /// Nearest-rank percentile in ns, under the same tail rule as
    /// [`percentile`].
    pub fn percentile(&self, q: f64) -> Option<f64> {
        let rank = tail_rank(self.n, q)?;
        let mut seen = 0u64;
        for (ns, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(ns as f64);
            }
        }
        let mut slow = self.slow.clone();
        slow.sort_unstable();
        Some(slow[(rank - seen - 1) as usize] as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_refuses_thin_tails() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        // p90 of 100 samples is the 90th; exactly 10 lie beyond it.
        assert_eq!(percentile(&v, 0.90), Some(90.0));
        // p99 would leave 1 sample beyond it: no tail.
        assert_eq!(percentile(&v, 0.99), None);
        assert_eq!(percentile(&v[..99], 0.90), None);
        assert_eq!(percentile(&v, 0.5), Some(50.0));
        assert_eq!(percentile(&[], 0.5), None);
        let many: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&many, 0.99), Some(990.0));
    }

    #[test]
    fn median_and_quartiles_match_python() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([5, 1], n=4) == [0.0, 3.0, 6.0]
        assert_eq!(quartiles(&[5.0, 1.0]), Some([0.0, 3.0, 6.0]));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 2.0, 1.0]), Some([1.0, 2.0, 3.0]));
        assert_eq!(quartiles(&[7.0]), Some([7.0; 3]));
        assert_eq!(quartiles(&[]), None);
    }

    #[test]
    fn histogram_percentiles_are_exact() {
        let mut h = Hist::default();
        for ns in 1..=1000u64 {
            h.record(ns);
        }
        h.record(Hist::EXACT_NS + 5);
        assert_eq!(h.len(), 1001);
        assert_eq!(h.percentile(0.5), Some(501.0));
        assert_eq!(h.percentile(0.99), Some(991.0));
        let mut tail = Hist::default();
        for _ in 0..20 {
            tail.record(Hist::EXACT_NS * 2);
        }
        h.merge(&tail);
        // Ranks past the 1000 bucketed samples land among the kept ones.
        assert_eq!(h.percentile(0.98), Some((Hist::EXACT_NS + 5) as f64));
        assert_eq!(h.percentile(0.985), Some((Hist::EXACT_NS * 2) as f64));
        let mut thin = Hist::default();
        thin.record(1);
        assert_eq!(thin.percentile(0.5), None);
    }
}
