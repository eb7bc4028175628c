//! Wall-clock round-latency histograms.
//!
//! These measure the *host* cost of each control-component dispatch —
//! real nanoseconds, not simulated time — so they feed the benchmark
//! harness's per-layer busy table and operator profiling. They are
//! deliberately kept out of the trace digest, out of snapshots and out of
//! the metrics registry: wall-clock readings differ across runs and
//! machines, while all three must be bit-for-bit reproducible.

/// Number of power-of-two buckets. Bucket `i` counts samples in
/// `[2^i, 2^(i+1))` ns; the last bucket absorbs everything larger
/// (`2^29` ns ≈ 0.5 s, far beyond any sane round).
pub const LATENCY_BUCKETS: usize = 30;

/// A power-of-two histogram of wall-clock round latencies, with exact
/// count/total/max so means are not quantized.
#[derive(Debug, Clone)]
pub struct LatencyHistogram {
    /// Rounds recorded.
    pub count: u64,
    /// Sum of all samples, nanoseconds.
    pub total_ns: u64,
    /// Largest sample, nanoseconds.
    pub max_ns: u64,
    buckets: [u64; LATENCY_BUCKETS],
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            count: 0,
            total_ns: 0,
            max_ns: 0,
            buckets: [0; LATENCY_BUCKETS],
        }
    }
}

impl LatencyHistogram {
    /// Record one round's wall-clock latency.
    pub fn record(&mut self, ns: u64) {
        self.count += 1;
        self.total_ns += ns;
        self.max_ns = self.max_ns.max(ns);
        let bucket = (63 - ns.max(1).leading_zeros() as usize).min(LATENCY_BUCKETS - 1);
        self.buckets[bucket] += 1;
    }

    /// The raw bucket counts (bucket `i` = `[2^i, 2^(i+1))` ns).
    pub fn buckets(&self) -> &[u64; LATENCY_BUCKETS] {
        &self.buckets
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_summarizes() {
        let mut h = LatencyHistogram::default();
        for ns in [100, 200, 400, 800, 100_000] {
            h.record(ns);
        }
        assert_eq!(h.count, 5);
        assert_eq!(h.total_ns, 100 + 200 + 400 + 800 + 100_000);
        assert_eq!(h.max_ns, 100_000);
        // 400 ns lands in bucket [256, 512); 100 µs in [65 536, 131 072).
        assert_eq!(h.buckets()[8], 1);
        assert_eq!(h.buckets()[16], 1);
    }

    #[test]
    fn empty_histogram_is_quiet() {
        let h = LatencyHistogram::default();
        assert_eq!((h.count, h.total_ns, h.max_ns), (0, 0, 0));
        assert!(h.buckets().iter().all(|&n| n == 0));
    }

    #[test]
    fn zero_sample_lands_in_first_bucket() {
        let mut h = LatencyHistogram::default();
        h.record(0);
        assert_eq!(h.buckets()[0], 1);
    }
}
