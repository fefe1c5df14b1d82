//! Critical-path decomposition of mean message latency.
//!
//! A pt2pt message's end-to-end latency decomposes into the paper's four
//! cost sources — time spent *waiting* for the runtime critical section,
//! time spent *holding* it on the operation path, time the progress
//! engine spent holding it polling on the message's behalf — plus, under
//! fault injection, the *retry* time paid waiting out retransmit
//! backoffs, and the residual "network" time (virtual link/injection
//! latency plus any runtime cost outside critical sections).
//!
//! The first three come from the trace's CS spans: total CS wait, total
//! non-progress hold, and total progress-path hold, each divided by the
//! message count. The retry segment sums the `backoff_ns` of
//! [`EventKind::Retransmit`] events — the elapsed time each retransmission
//! waited before firing, i.e. the recovery latency the fault layer
//! injected. The network segment is defined as the residual against the
//! *measured* mean latency, so by construction
//!
//! ```text
//! cs_wait + cs_hold + poll + retry + network == mean_latency
//! ```
//!
//! When the runtime segments alone exceed the measured mean (possible:
//! CS time also serves messages outside the histogram's measurement
//! window, e.g. warm-up iterations), the runtime segments are scaled down
//! proportionally and the scale factor is reported, so the identity still
//! holds and the distortion is visible instead of silent.

use mtmpi_metrics::Histogram;
use mtmpi_obs::{CsOp, EventKind, Timeline};

/// Mean per-message latency split into additive segments (nanoseconds).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyDecomp {
    /// Messages in the latency histogram.
    pub messages: u64,
    /// Measured mean message latency.
    pub mean_ns: f64,
    /// Mean time blocked on critical-section entry.
    pub cs_wait_ns: f64,
    /// Mean time holding the critical section on operation paths
    /// (isend/irecv/test/wait/…).
    pub cs_hold_ns: f64,
    /// Mean time the progress engine held the critical section (poll
    /// batches).
    pub poll_ns: f64,
    /// Mean retransmit-backoff time (fault recovery). 0 without fault
    /// injection.
    pub retry_ns: f64,
    /// Residual: mean − (wait + hold + poll + retry), the virtual network
    /// and everything the trace cannot see. Never negative.
    pub network_ns: f64,
    /// Factor the runtime segments were scaled by to fit under the mean
    /// (1.0 unless the trace covered more work than the histogram).
    pub scale: f64,
}

impl LatencyDecomp {
    /// Decompose `latency`'s mean using the CS spans and retransmit
    /// events in `t`.
    pub fn analyze(t: &Timeline, latency: &Histogram) -> Self {
        let messages = latency.count();
        let mean_ns = latency.mean();
        let (mut wait, mut hold, mut poll) = (0u64, 0u64, 0u64);
        for s in t.cs_spans() {
            wait += s.wait_ns();
            if s.op == CsOp::Progress {
                poll += s.hold_ns();
            } else {
                hold += s.hold_ns();
            }
        }
        let retry: u64 = t
            .events
            .iter()
            .filter_map(|ev| match ev.kind {
                EventKind::Retransmit { backoff_ns, .. } => Some(backoff_ns),
                _ => None,
            })
            .sum();
        if messages == 0 {
            return Self {
                messages: 0,
                mean_ns: 0.0,
                cs_wait_ns: 0.0,
                cs_hold_ns: 0.0,
                poll_ns: 0.0,
                retry_ns: 0.0,
                network_ns: 0.0,
                scale: 1.0,
            };
        }
        let m = messages as f64;
        let mut cs_wait_ns = wait as f64 / m;
        let mut cs_hold_ns = hold as f64 / m;
        let mut poll_ns = poll as f64 / m;
        let mut retry_ns = retry as f64 / m;
        let runtime = cs_wait_ns + cs_hold_ns + poll_ns + retry_ns;
        let mut scale = 1.0;
        if runtime > mean_ns && runtime > 0.0 {
            scale = mean_ns / runtime;
            cs_wait_ns *= scale;
            cs_hold_ns *= scale;
            poll_ns *= scale;
            retry_ns *= scale;
        }
        let network_ns = (mean_ns - cs_wait_ns - cs_hold_ns - poll_ns - retry_ns).max(0.0);
        Self {
            messages,
            mean_ns,
            cs_wait_ns,
            cs_hold_ns,
            poll_ns,
            retry_ns,
            network_ns,
            scale,
        }
    }

    /// `|Σ segments − mean|` — 0 up to float rounding, by construction.
    pub fn residual_error(&self) -> f64 {
        (self.cs_wait_ns + self.cs_hold_ns + self.poll_ns + self.retry_ns + self.network_ns
            - self.mean_ns)
            .abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtmpi_obs::{CsKind, Event, EventKind, Path};

    fn cs(op: CsOp, path: Path, t_req: u64, t_acq: u64, t_end: u64) -> Event {
        Event {
            t_ns: t_end,
            tid: 1,
            core: 0,
            socket: 0,
            kind: EventKind::CsSpan {
                lock: 0,
                kind: CsKind::Mutex,
                path,
                op,
                vci: 0,
                t_req,
                t_acq,
            },
        }
    }

    fn retransmit(t_ns: u64, backoff_ns: u64) -> Event {
        Event {
            t_ns,
            tid: 1,
            core: 0,
            socket: 0,
            kind: EventKind::Retransmit {
                rank: 0,
                dst: 1,
                seq: 0,
                attempt: 1,
                backoff_ns,
            },
        }
    }

    #[test]
    fn segments_sum_to_mean() {
        let t = Timeline {
            events: vec![
                cs(CsOp::Isend, Path::Main, 0, 10, 30), // wait 10, hold 20
                cs(CsOp::Progress, Path::Progress, 30, 30, 80), // poll 50
            ],
            dropped: 0,
        };
        let mut h = Histogram::new();
        h.record(500);
        h.record(1500); // mean 1000
        let d = LatencyDecomp::analyze(&t, &h);
        assert_eq!(d.messages, 2);
        assert!((d.cs_wait_ns - 5.0).abs() < 1e-9);
        assert!((d.cs_hold_ns - 10.0).abs() < 1e-9);
        assert!((d.poll_ns - 25.0).abs() < 1e-9);
        assert_eq!(d.retry_ns, 0.0);
        assert!((d.network_ns - 960.0).abs() < 1e-9);
        assert_eq!(d.scale, 1.0);
        assert!(d.residual_error() < 1e-9);
    }

    #[test]
    fn retransmits_feed_the_retry_segment() {
        let t = Timeline {
            events: vec![
                cs(CsOp::Isend, Path::Main, 0, 10, 30), // wait 10, hold 20
                retransmit(100, 60),
                retransmit(300, 140), // retry total 200
            ],
            dropped: 0,
        };
        let mut h = Histogram::new();
        h.record(500);
        h.record(1500); // mean 1000
        let d = LatencyDecomp::analyze(&t, &h);
        assert!((d.retry_ns - 100.0).abs() < 1e-9);
        assert!((d.network_ns - (1000.0 - 5.0 - 10.0 - 100.0)).abs() < 1e-9);
        assert_eq!(d.scale, 1.0);
        assert!(d.residual_error() < 1e-9);
    }

    #[test]
    fn oversubscribed_trace_scales_down() {
        // Runtime segments (1000ns over 1 msg) exceed the measured mean
        // (100ns): segments must be scaled to fit, identity preserved.
        let t = Timeline {
            events: vec![
                cs(CsOp::Isend, Path::Main, 0, 400, 1000),
                retransmit(500, 500),
            ],
            dropped: 0,
        };
        let mut h = Histogram::new();
        h.record(100);
        let d = LatencyDecomp::analyze(&t, &h);
        assert!(d.scale < 1.0);
        assert!((d.cs_wait_ns + d.cs_hold_ns + d.poll_ns + d.retry_ns - d.mean_ns).abs() < 1e-9);
        assert!(d.retry_ns > 0.0);
        assert_eq!(d.network_ns, 0.0);
        assert!(d.residual_error() < 1e-9);
    }

    #[test]
    fn empty_histogram_is_all_zero() {
        let t = Timeline::default();
        let d = LatencyDecomp::analyze(&t, &Histogram::new());
        assert_eq!(d.messages, 0);
        assert_eq!(d.mean_ns, 0.0);
        assert_eq!(d.retry_ns, 0.0);
        assert_eq!(d.residual_error(), 0.0);
    }
}
