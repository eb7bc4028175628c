//! The harness's own statistics, kept apart from the product's helpers so
//! a change there cannot move how the benchmark summarises its samples.

/// Median of the samples (mean of the two middle ones for an even count).
/// Panics on an empty slice: every caller takes at least one sample.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Nearest-rank percentile: the smallest sample with at least `q` of the
/// samples at or below it (`q` in `(0, 1]`).
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Samples strictly beyond the nearest-rank `q` percentile of `n`.
fn samples_beyond(n: usize, q: f64) -> usize {
    n - ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// Whether `n` samples support reporting the `q` percentile.
pub fn supports_percentile(n: usize, q: f64) -> bool {
    n > 0 && samples_beyond(n, q) >= 10
}

/// FNV-1a, for input, fingerprint and span digests.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        digest ^= b as u64;
        digest = digest.wrapping_mul(0x0000_0100_0000_01B3);
    }
    digest
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&samples, 0.5), 50.0);
        assert_eq!(percentile(&samples, 0.9), 90.0);
        assert_eq!(percentile(&samples, 0.99), 99.0);
        assert_eq!(percentile(&samples, 1.0), 100.0);
        assert_eq!(percentile(&[5.0], 0.99), 5.0);
    }

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        // 100 samples: p90 leaves exactly ten beyond, p95 only five.
        assert!(supports_percentile(100, 0.9));
        assert!(!supports_percentile(100, 0.95));
        assert!(!supports_percentile(99, 0.9));
        assert!(supports_percentile(200, 0.95));
        assert!(!supports_percentile(200, 0.99));
        assert!(supports_percentile(1000, 0.99));
        assert!(!supports_percentile(0, 0.5));
    }

    #[test]
    fn fnv1a_matches_the_reference_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
