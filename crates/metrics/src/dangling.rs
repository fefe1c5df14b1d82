//! Dangling-request profiling (paper §4.4).
//!
//! A *dangling request* is a request that the runtime has marked completed
//! but that its owning thread has not yet freed. "To make rapid progress on
//! communication, threads should detect completed requests early, free
//! them, and generate new requests to feed the runtime and the network.
//! Thus, this metric should be kept low."
//!
//! The sampler is driven by the runtime: it samples the current
//! completed-but-unfreed count at every critical-section acquisition, which
//! is the paper's sampling interval.

/// Accumulates dangling-request samples taken at lock-acquisition events.
#[derive(Debug, Clone, Default)]
pub struct DanglingSampler {
    sum: u64,
    max: u64,
    samples: u64,
}

impl DanglingSampler {
    /// New, empty sampler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record the number of dangling requests observed at one acquisition.
    pub fn sample(&mut self, dangling_now: u64) {
        self.sum += dangling_now;
        self.max = self.max.max(dangling_now);
        self.samples += 1;
    }

    /// Average number of dangling requests over the run — the y-axis of
    /// Fig 3c / Fig 5a.
    pub fn average(&self) -> f64 {
        if self.samples == 0 {
            0.0
        } else {
            self.sum as f64 / self.samples as f64
        }
    }

    /// Peak dangling count.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Number of samples (lock acquisitions observed).
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// Merge another sampler into this one (for per-thread accumulation).
    pub fn merge(&mut self, other: &Self) {
        self.sum += other.sum;
        self.max = self.max.max(other.max);
        self.samples += other.samples;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn average_and_max() {
        let mut s = DanglingSampler::new();
        for v in [0, 10, 20] {
            s.sample(v);
        }
        assert_eq!(s.average(), 10.0);
        assert_eq!(s.max(), 20);
        assert_eq!(s.samples(), 3);
    }

    #[test]
    fn empty_sampler_average_zero() {
        assert_eq!(DanglingSampler::new().average(), 0.0);
    }

    #[test]
    fn merge_combines() {
        let mut a = DanglingSampler::new();
        a.sample(4);
        let mut b = DanglingSampler::new();
        b.sample(8);
        b.sample(0);
        a.merge(&b);
        assert_eq!(a.samples(), 3);
        assert_eq!(a.average(), 4.0);
        assert_eq!(a.max(), 8);
    }
}
