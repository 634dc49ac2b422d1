//! Order statistics over raw samples (no bucketing), and a stable digest.

/// The `q`-quantile of `samples` by linear interpolation between order
/// statistics (the "inclusive" method). Sorts in place. `None` if empty.
pub fn quantile(samples: &mut [f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    samples.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (samples.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    Some(samples[lo] + (samples[hi] - samples[lo]) * frac)
}

/// Median of `samples` (sorts in place).
pub fn median(samples: &mut [f64]) -> Option<f64> {
    quantile(samples, 0.5)
}

/// The highest of the usual reporting percentiles that still has at least
/// ten samples beyond it, as a label ("p99", "p99.9", ...). A percentile with
/// fewer samples behind it is one outlier, not a measurement.
pub fn highest_supported_percentile(n: usize) -> &'static str {
    const LEVELS: [(&str, f64); 5] = [
        ("p99.99", 0.9999),
        ("p99.9", 0.999),
        ("p99", 0.99),
        ("p90", 0.90),
        ("p50", 0.50),
    ];
    for (label, q) in LEVELS {
        if (n as f64) * (1.0 - q) >= 10.0 {
            return label;
        }
    }
    "none"
}

/// FNV-1a, 64 bit: a stable digest of byte streams (not for security).
#[derive(Clone, Copy)]
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_raw_samples() {
        let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(median(&mut v), Some(50.5));
        assert!((quantile(&mut v, 0.99).unwrap() - 99.01).abs() < 1e-9);
        assert_eq!(quantile(&mut [], 0.5), None);
    }

    #[test]
    fn percentile_support_needs_ten_samples_beyond() {
        assert_eq!(highest_supported_percentile(999), "p90");
        assert_eq!(highest_supported_percentile(1000), "p99");
        assert_eq!(highest_supported_percentile(10_000), "p99.9");
        assert_eq!(highest_supported_percentile(5), "none");
    }
}
