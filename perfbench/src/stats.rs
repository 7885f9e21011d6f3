//! Order statistics over latency samples.

/// Latency samples in nanoseconds. A failed op is recorded as
/// `u64::MAX`, so it misses every latency limit. By default at most
/// [`KEEP`] samples are kept, so the benchmark's own memory does not
/// grow with the op rate and `peak_rss_mb` stays the program's.
#[derive(Clone, Debug)]
pub struct Latencies {
    samples: Vec<u64>,
    count: usize,
    keep: usize,
}

impl Default for Latencies {
    fn default() -> Self {
        Latencies {
            samples: Vec::new(),
            count: 0,
            keep: KEEP,
        }
    }
}

/// Samples a [`Latencies`] keeps; later ones are only counted.
pub const KEEP: usize = 20_000;

/// The sample value of a failed op.
pub const FAILED: u64 = u64::MAX;

/// A percentile only counts when this many samples lie beyond it.
pub const MIN_BEYOND: usize = 10;

impl Latencies {
    /// Samples that keep every sample (one time slice's, cleared at
    /// the end of the slice).
    pub fn unbounded() -> Latencies {
        Latencies {
            keep: usize::MAX,
            ..Latencies::default()
        }
    }

    /// Records one sample.
    pub fn push(&mut self, nanos: u64) {
        if self.samples.len() < self.keep {
            self.samples.push(nanos);
        }
        self.count += 1;
    }

    /// Samples recorded.
    pub fn len(&self) -> usize {
        self.count
    }

    /// Forgets every sample, keeping the allocation.
    pub fn clear(&mut self) {
        self.samples.clear();
        self.count = 0;
    }

    /// The nearest-rank `q`-quantile in microseconds, or an error when
    /// fewer than [`MIN_BEYOND`] samples lie beyond it. A quantile that
    /// falls on a failed op is infinite.
    pub fn quantile_us(&self, q: f64) -> Result<f64, String> {
        if self.count > self.samples.len() {
            return Err(format!(
                "more than {} samples kept; percentiles come from slices",
                self.keep
            ));
        }
        let mut sorted = self.samples.clone();
        sorted.sort_unstable();
        let n = sorted.len();
        let rank = ((q * n as f64).ceil() as usize).clamp(1, n.max(1));
        let beyond = n.saturating_sub(rank);
        if n == 0 || beyond < MIN_BEYOND {
            return Err(format!(
                "p{:.0} needs {MIN_BEYOND} samples beyond it, have {n} samples",
                q * 100.0
            ));
        }
        match sorted[rank - 1] {
            FAILED => Ok(f64::INFINITY),
            nanos => Ok(nanos as f64 / 1e3),
        }
    }
}

/// Median of `values` (mean of the middle two for even counts).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The interquartile mean of `values`: the mean of what is left after
/// the lowest and the highest quarter (rounded down) are dropped.
pub fn interquartile_mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let cut = sorted.len() / 4;
    let middle = &sorted[cut..sorted.len() - cut];
    middle.iter().sum::<f64>() / middle.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_needs_ten_beyond() {
        let mut lat = Latencies::default();
        for i in 1..=100u64 {
            lat.push(i * 1000);
        }
        assert_eq!(lat.quantile_us(0.5), Ok(50.0));
        assert_eq!(lat.quantile_us(0.9), Ok(90.0));
        assert!(lat.quantile_us(0.95).is_err());
    }

    #[test]
    fn failures_miss_every_limit() {
        let mut lat = Latencies::default();
        for i in 1..=100u64 {
            lat.push(if i > 85 { FAILED } else { i * 1000 });
        }
        assert_eq!(lat.quantile_us(0.5), Ok(50.0));
        assert_eq!(lat.quantile_us(0.9), Ok(f64::INFINITY));
    }

    #[test]
    fn interquartile_mean_drops_both_outer_quarters() {
        assert_eq!(interquartile_mean(&[100.0, 2.0, 3.0, 0.0]), 2.5);
        assert_eq!(
            interquartile_mean(&[9.0, 1.0, 2.0, 3.0, 4.0, -5.0, 2.0, 3.0]),
            2.5
        );
        assert_eq!(interquartile_mean(&[1.0, 2.0, 6.0]), 3.0);
    }

    #[test]
    fn median_of_even_count_averages() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }
}
