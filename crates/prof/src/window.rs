//! Windowed aggregation: the run as a time series.
//!
//! A single end-of-run blame matrix can hide phase behaviour — e.g. a
//! progress thread that monopolizes the critical section only during the
//! message burst. Slicing the timeline into fixed-width virtual-time
//! windows and summarizing each (span count, wait p50/p99, dominant
//! acquirer and its share, Gini) exposes that structure; the result backs
//! `xtask top`, the Perfetto counter track, and the Prometheus-style
//! exposition.
//!
//! Everything here is a pure function of the (deterministic) timeline:
//! same seed → same events → byte-identical windows. Window quantiles use
//! the same log2-bucketed [`Histogram`] as the global metrics, so they
//! are integers and survive formatting round-trips.

use mtmpi_metrics::{gini, Histogram};
use mtmpi_obs::{CsSpanView, Event, Timeline};

/// One virtual-time window's contention summary.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowRow {
    /// Window start (virtual ns, aligned to the window width).
    pub start_ns: u64,
    /// CS passages whose *end* fell in this window.
    pub spans: u64,
    /// Median CS wait in the window (0 when empty).
    pub wait_p50_ns: u64,
    /// 99th-percentile CS wait in the window.
    pub wait_p99_ns: u64,
    /// Total CS wait accumulated in the window.
    pub wait_ns: u64,
    /// Total CS hold accumulated in the window.
    pub hold_ns: u64,
    /// Thread with the most acquisitions in the window (lowest tid on
    /// ties; 0 when empty).
    pub top_tid: u64,
    /// That thread's share of the window's acquisitions.
    pub top_share: f64,
    /// Gini monopolization index over the window's per-thread
    /// acquisition counts.
    pub gini: f64,
}

/// A timeline's windowed contention series.
#[derive(Debug, Clone, PartialEq)]
pub struct Windows {
    /// Window width (virtual ns).
    pub width_ns: u64,
    /// One row per window, gaps included (zero rows), chronological.
    pub rows: Vec<WindowRow>,
    /// Events the recorder dropped for the whole run (windows cannot
    /// place them, so the count rides along globally).
    pub dropped: u64,
}

/// Default window width for a timeline: the run span divided into ~24
/// windows, rounded *up* to a whole virtual millisecond, never below
/// 1 ms. Short runs get one or two windows; long runs stay readable.
pub fn default_window_ns(t: &Timeline) -> u64 {
    const MS: u64 = 1_000_000;
    let (first, last) = t.span_bounds();
    let span = last.saturating_sub(first).max(1);
    let raw = span.div_ceil(24);
    raw.div_ceil(MS).max(1) * MS
}

/// One window's passages, accumulated.
#[derive(Default)]
pub(crate) struct WindowAcc {
    wait_hist: Histogram,
    wait_ns: u64,
    hold_ns: u64,
    /// Per-thread `(tid, acquisitions)`, sorted by tid.
    acq: Vec<(u64, u64)>,
}

impl WindowAcc {
    pub(crate) fn add(&mut self, s: &CsSpanView) {
        self.wait_hist.record(s.wait_ns());
        self.wait_ns += s.wait_ns();
        self.hold_ns += s.hold_ns();
        match self.acq.binary_search_by_key(&s.tid, |a| a.0) {
            Ok(i) => self.acq[i].1 += 1,
            Err(i) => self.acq.insert(i, (s.tid, 1)),
        }
    }

    pub(crate) fn finish(&self, start_ns: u64) -> WindowRow {
        let spans: u64 = self.acq.iter().map(|a| a.1).sum();
        let (top_tid, top_n) = self
            .acq
            .iter()
            .copied()
            .max_by_key(|&(tid, n)| (n, std::cmp::Reverse(tid)))
            .unwrap_or((0, 0));
        let counts: Vec<u64> = self.acq.iter().map(|a| a.1).collect();
        WindowRow {
            start_ns,
            spans,
            wait_p50_ns: self.wait_hist.p50(),
            wait_p99_ns: self.wait_hist.p99(),
            wait_ns: self.wait_ns,
            hold_ns: self.hold_ns,
            top_tid,
            top_share: if spans == 0 {
                0.0
            } else {
                top_n as f64 / spans as f64
            },
            gini: gini(&counts),
        }
    }
}

impl Windows {
    /// Aggregate `t` into windows of `width_ns` (clamped to ≥ 1).
    pub fn compute(t: &Timeline, width_ns: u64) -> Self {
        let width = width_ns.max(1);
        let rows = t
            .windows(width)
            .map(|(start_ns, events)| {
                let mut acc = WindowAcc::default();
                for s in events.iter().filter_map(Event::cs_span) {
                    acc.add(&s);
                }
                acc.finish(start_ns)
            })
            .collect();
        Self {
            width_ns: width,
            rows,
            dropped: t.dropped,
        }
    }

    /// Compute with [`default_window_ns`].
    pub fn auto(t: &Timeline) -> Self {
        Self::compute(t, default_window_ns(t))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtmpi_obs::{CsKind, CsOp, EventKind, Path};

    fn cs(tid: u32, t_req: u64, t_acq: u64, t_end: u64) -> Event {
        Event {
            t_ns: t_end,
            tid,
            core: 0,
            socket: 0,
            kind: EventKind::CsSpan {
                lock: 0,
                kind: CsKind::Mutex,
                path: Path::Main,
                op: CsOp::Isend,
                vci: 0,
                t_req,
                t_acq,
            },
        }
    }

    #[test]
    fn windows_partition_spans_and_include_gaps() {
        // Spans ending at 50, 150, 950 with width 100: windows at 0, 100,
        // ..., 900 — gaps 200..900 present but empty.
        let t = Timeline {
            events: vec![cs(1, 0, 10, 50), cs(2, 100, 120, 150), cs(1, 900, 910, 950)],
            dropped: 3,
        };
        let w = Windows::compute(&t, 100);
        assert_eq!(w.rows.len(), 10);
        assert_eq!(w.dropped, 3);
        assert_eq!(w.rows[0].spans, 1);
        assert_eq!(w.rows[0].wait_ns, 10);
        assert_eq!(w.rows[0].hold_ns, 40);
        assert_eq!(w.rows[0].top_tid, 1);
        assert_eq!(w.rows[1].spans, 1);
        assert_eq!(w.rows[1].top_tid, 2);
        assert!(w.rows[2..9].iter().all(|r| r.spans == 0 && r.top_tid == 0));
        assert_eq!(w.rows[9].spans, 1);
        let total: u64 = w.rows.iter().map(|r| r.spans).sum();
        assert_eq!(total, 3);
    }

    #[test]
    fn top_share_ties_break_to_lowest_tid() {
        let t = Timeline {
            events: vec![cs(5, 0, 0, 10), cs(2, 10, 10, 20)],
            dropped: 0,
        };
        let w = Windows::compute(&t, 1_000);
        assert_eq!(w.rows.len(), 1);
        assert_eq!(w.rows[0].top_tid, 2);
        assert!((w.rows[0].top_share - 0.5).abs() < 1e-12);
    }

    #[test]
    fn default_width_is_whole_ms_and_at_least_one() {
        let empty = Timeline::default();
        assert_eq!(default_window_ns(&empty), 1_000_000);
        // 100 ms span → ceil(100ms/24) → 5 ms after ms-quantization.
        let t = Timeline {
            events: vec![cs(1, 0, 0, 10), cs(1, 0, 0, 100_000_000)],
            dropped: 0,
        };
        let w = default_window_ns(&t);
        assert_eq!(w % 1_000_000, 0);
        assert_eq!(w, 5_000_000);
        let rows = Windows::compute(&t, w).rows.len();
        assert!(rows <= 25, "got {rows}");
    }

    #[test]
    fn windows_are_deterministic() {
        let t = Timeline {
            events: vec![cs(1, 0, 5, 50), cs(2, 20, 50, 90), cs(1, 60, 90, 140)],
            dropped: 1,
        };
        assert_eq!(Windows::auto(&t), Windows::auto(&t));
    }
}
