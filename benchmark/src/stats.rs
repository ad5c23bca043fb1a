//! Order statistics for repetition summaries and latency samples.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (the
//! default "exclusive" method), because that is what the acceptance driver
//! computes over whole runs; using the same rule inside a run keeps the two
//! spreads comparable.

/// Median, quartiles and sample count of one metric's repetitions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Middle value (mean of the two middle values for an even count).
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// Number of repetitions summarised.
    pub n: usize,
}

impl Summary {
    /// Interquartile range as a share of the median (0 for a zero median).
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// Sorts a copy of `values` ascending (NaN-free input is the caller's job;
/// every value here is a finite measurement).
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("measurements are finite"));
    v
}

/// Median of `values`.  Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of zero samples");
    let v = sorted(values);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// `(q1, median, q3)` by the exclusive method: the quartile at position
/// `i·(n+1)/4` (1-based), linearly interpolated and clamped to the data.
/// A single sample is its own quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    assert!(!values.is_empty(), "quartiles of zero samples");
    let v = sorted(values);
    let n = v.len();
    if n == 1 {
        return (v[0], v[0], v[0]);
    }
    let at = |i: usize| -> f64 {
        // Python: j = i*(n+1)//4 clamped to [1, n-1], delta = i*(n+1) - j*4,
        // result = (data[j-1]*(4-delta) + data[j]*delta) / 4.
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (at(1), at(2), at(3))
}

/// Summarises one metric's repetitions.
pub fn summarize(values: &[f64]) -> Summary {
    let (q1, median, q3) = quartiles(values);
    Summary {
        median,
        q1,
        q3,
        n: values.len(),
    }
}

/// 1-based nearest rank of percentile `p` among `n` samples: `⌈p·n/100⌉`,
/// with the product nudged down so that 99.9 % of 1000 is 999, not the 1000
/// that `0.999 × 1000 = 999.0000000000001` would round up to.
fn rank_of(p: f64, n: usize) -> usize {
    ((p / 100.0) * n as f64 - 1e-9).ceil().max(0.0) as usize
}

/// Nearest-rank percentile (`p` in 0..=100) of an ascending slice.
pub fn percentile_sorted(sorted: &[u64], p: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of zero samples");
    sorted[rank_of(p, sorted.len()).clamp(1, sorted.len()) - 1]
}

/// The percentile ladder latency reports climb.
pub const PERCENTILE_LADDER: [f64; 6] = [50.0, 90.0, 99.0, 99.9, 99.99, 99.999];

/// The highest rung of [`PERCENTILE_LADDER`] that still has at least
/// `min_beyond` of `n` samples above it, or `None` when even the median has
/// too few.  A percentile with fewer samples beyond it is one outlier's
/// value, not a property of the distribution.
pub fn highest_percentile_with_tail(n: usize, min_beyond: usize) -> Option<f64> {
    PERCENTILE_LADDER
        .iter()
        .copied()
        .rfind(|&p| n.saturating_sub(rank_of(p, n)) >= min_beyond)
}

/// Sorts `samples` in place and returns `(p50, p99, p999)`; `(0, 0, 0)` for
/// no samples.
pub fn p50_p99_p999(samples: &mut [u64]) -> (u64, u64, u64) {
    if samples.is_empty() {
        return (0, 0, 0);
    }
    samples.sort_unstable();
    (
        percentile_sorted(samples, 50.0),
        percentile_sorted(samples, 99.0),
        percentile_sorted(samples, 99.9),
    )
}
