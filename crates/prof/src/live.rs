//! `prof::live` — the online view of the same fold.
//!
//! The post-run [`BlameMatrix`](crate::BlameMatrix) drains the recorder
//! once and feeds the whole timeline through [`BlameFold`]. The
//! [`LiveCollector`] feeds the *same* fold while the run is still going:
//! it drains the [`RingRecorder`]'s committed prefix in bounded batches
//! on the virtual clock, finalizes everything below a watermark, and
//! keeps only what is genuinely online around the fold — the drain
//! cursor, the pending buffer, window flushes, and an exponentially
//! decayed view of the charges that tracks *recent* contention.
//!
//! ## Watermark contract
//!
//! On the virtual platform, worker segments execute atomically in
//! `(t, seq)` event order, and recording never advances the clock. So
//! once the collector has observed virtual time `T` (its `pump(now)`
//! argument) *and* drained every shard to its current watermark, no
//! event with `t_ns < T` can appear later: a segment that records at
//! `τ < T` must have started at `t0 ≤ τ < T` and therefore ran — and
//! published — before any segment at `T`. Events below the watermark are
//! final; events at or above it are buffered until the watermark passes
//! them. (If a bounded drain stops early, the watermark simply does not
//! advance that pump — correctness is never traded for the bound.)
//!
//! Each finalized batch is ingested holds-first and then charged in
//! `(t_ns, tid)` order, which is the fold's contract (every passage
//! released no later than a wait is ingested before the wait is
//! charged), so the charges — and the per-window conservation
//! `Σ charges + unattributed == wait` — are exact to the nanosecond.
//!
//! Memory: the fold's per-lock hold lists grow with the trace (a later
//! long wait may reach arbitrarily far back), i.e. O(spans) — the same
//! order as the post-run timeline this collector replaces, traded for
//! zero post-run barrier.

mod stats;

pub use stats::{LiveCell, LiveStats, LiveWindow};

use crate::blame::{BlameFold, HolderKey};
use crate::window::WindowAcc;
use mtmpi_metrics::gini;
use mtmpi_obs::{DrainCursor, Event, EventKind, RingRecorder};
use std::collections::{BTreeMap, VecDeque};
use std::sync::{Arc, Mutex};

/// Collector tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct LiveConfig {
    /// Aggregation window width (virtual ns).
    pub window_ns: u64,
    /// Multiplier applied to every decayed blame cell at each window
    /// flush (`1.0` disables decay, smaller forgets faster).
    pub decay: f64,
    /// Maximum events drained per [`LiveCollector::pump`] call (the
    /// bounded-batch guarantee; the watermark only advances on a
    /// complete drain, so a small batch never loses events).
    pub batch: usize,
    /// How many flushed windows the snapshot retains.
    pub keep_windows: usize,
}

impl Default for LiveConfig {
    fn default() -> Self {
        Self {
            window_ns: 1_000_000,
            decay: 0.8,
            batch: 4096,
            keep_windows: 8,
        }
    }
}

/// Exact + decayed accumulator of one blame cell.
#[derive(Default)]
struct CellAcc {
    ns: u64,
    decayed: f64,
}

/// The currently open aggregation window.
struct WinAcc {
    start: u64,
    acc: WindowAcc,
    charged: u64,
    unattr: u64,
}

#[derive(Default)]
struct Inner {
    cursor: DrainCursor,
    /// Drained but not yet finalizable events (`t_ns >= watermark`).
    pending: Vec<Event>,
    watermark: u64,
    fold: BlameFold,
    cells: BTreeMap<HolderKey, CellAcc>,
    charged_ns: u64,
    unattributed_ns: u64,
    window: Option<WinAcc>,
    windows_flushed: u64,
    recent: VecDeque<LiveWindow>,
    events: u64,
    flow_sends: u64,
    flow_recvs: u64,
}

/// The online collector: wraps one [`RingRecorder`] and folds its event
/// stream into live statistics, a bounded batch at a time.
///
/// All methods take `&self`; internal state is behind one mutex, so a
/// dedicated pump thread and snapshot readers can share the collector.
pub struct LiveCollector {
    rec: Arc<RingRecorder>,
    cfg: LiveConfig,
    inner: Mutex<Inner>,
}

impl LiveCollector {
    /// A collector over `rec` with the given knobs.
    pub fn new(rec: Arc<RingRecorder>, cfg: LiveConfig) -> Self {
        Self {
            rec,
            cfg,
            inner: Mutex::default(),
        }
    }

    /// Drain up to `cfg.batch` newly committed events, advance the
    /// watermark to `now_ns` if the drain was complete, and fold every
    /// event below the watermark. Returns whether the drain reached the
    /// recorder's current tail (a `false` means another pump will make
    /// progress immediately).
    pub fn pump(&self, now_ns: u64) -> bool {
        let mut guard = self.inner.lock().expect("live collector mutex poisoned");
        let inner = &mut *guard;
        let (batch, done) = self
            .rec
            .drain_incremental(&mut inner.cursor, self.cfg.batch.max(1));
        inner.pending.extend(batch);
        if done {
            inner.watermark = inner.watermark.max(now_ns);
        }
        let wm = inner.watermark;
        let (mut ready, pending): (Vec<Event>, Vec<Event>) = std::mem::take(&mut inner.pending)
            .into_iter()
            .partition(|e| e.t_ns < wm);
        inner.pending = pending;
        ready.sort_by_key(|e| (e.t_ns, e.tid));
        // Holds first: the fold's contract (see module docs).
        for s in ready.iter().filter_map(Event::cs_span) {
            inner.fold.ingest(&s);
        }
        for e in &ready {
            Self::fold(inner, &self.cfg, e);
        }
        // Flush every window whose end the watermark has passed: nothing
        // below the watermark can still arrive.
        while inner
            .window
            .as_ref()
            .is_some_and(|w| w.start.saturating_add(self.cfg.window_ns) <= wm)
        {
            Self::flush_window(inner, &self.cfg);
        }
        done
    }

    /// Pump to completion: drain everything recorded so far and fold it,
    /// flushing all windows. Writers must have quiesced for the result
    /// to be the whole run (otherwise it is simply "everything so far").
    pub fn finalize(&self) {
        while !self.pump(u64::MAX) {}
    }

    /// Fold one finalized event (its hold is already ingested).
    fn fold(inner: &mut Inner, cfg: &LiveConfig, e: &Event) {
        inner.events += 1;
        match e.kind {
            EventKind::FlowSend { .. } => inner.flow_sends += 1,
            EventKind::FlowRecv { .. } => inner.flow_recvs += 1,
            _ => {}
        }
        let Some(s) = e.cs_span() else { return };
        // Window of the span's anchor (its release time). Spans arrive
        // sorted, so the target window never moves backwards.
        let target = s.t_end - s.t_end % cfg.window_ns.max(1);
        if inner.window.as_ref().is_some_and(|w| w.start != target) {
            debug_assert!(
                inner.window.as_ref().is_some_and(|w| w.start < target),
                "span window moved backwards"
            );
            Self::flush_window(inner, cfg);
        }
        let (cells, mut charged) = (&mut inner.cells, 0);
        let unattr = inner.fold.charge(&s, |holder, ns| {
            charged += ns;
            let cell = cells.entry(holder).or_default();
            cell.ns += ns;
            cell.decayed += ns as f64;
        });
        inner.charged_ns += charged;
        inner.unattributed_ns += unattr;
        let w = inner.window.get_or_insert_with(|| WinAcc {
            start: target,
            acc: WindowAcc::default(),
            charged: 0,
            unattr: 0,
        });
        w.acc.add(&s);
        w.charged += charged;
        w.unattr += unattr;
    }

    fn flush_window(inner: &mut Inner, cfg: &LiveConfig) {
        let Some(w) = inner.window.take() else { return };
        inner.windows_flushed += 1;
        inner.recent.push_back(LiveWindow {
            row: w.acc.finish(w.start),
            width_ns: cfg.window_ns,
            charged_ns: w.charged,
            unattributed_ns: w.unattr,
        });
        while inner.recent.len() > cfg.keep_windows.max(1) {
            inner.recent.pop_front();
        }
        for c in inner.cells.values_mut() {
            c.decayed *= cfg.decay;
        }
    }

    /// A point-in-time snapshot of everything folded so far.
    pub fn snapshot(&self) -> LiveStats {
        let inner = self.inner.lock().expect("live collector mutex poisoned");
        let total_ns: u64 = inner.cells.values().map(|c| c.ns).sum();
        let total_decayed: f64 = inner.cells.values().map(|c| c.decayed).sum();
        let blame: Vec<LiveCell> = inner
            .cells
            .iter()
            .map(|(&holder, c)| LiveCell {
                holder,
                ns: c.ns,
                share: if total_ns == 0 {
                    0.0
                } else {
                    c.ns as f64 / total_ns as f64
                },
                decayed: c.decayed,
                decayed_share: if total_decayed == 0.0 {
                    0.0
                } else {
                    c.decayed / total_decayed
                },
            })
            .collect();
        let shares = inner.fold.shares();
        let acq_counts: Vec<u64> = shares.iter().map(|s| s.acquisitions).collect();
        let hold_totals: Vec<u64> = shares.iter().map(|s| s.hold_ns).collect();
        let (vcis, vci_gini) = inner.fold.vci_loads();
        let starvation = inner.fold.starvation();
        LiveStats {
            watermark_ns: inner.watermark,
            events: inner.events,
            spans: inner.fold.spans(),
            dropped: self.rec.dropped(),
            flow_sends: inner.flow_sends,
            flow_recvs: inner.flow_recvs,
            windows_flushed: inner.windows_flushed,
            recent_windows: inner.recent.iter().copied().collect(),
            blame,
            total_wait_ns: inner.fold.total_wait_ns(),
            charged_ns: inner.charged_ns,
            unattributed_ns: inner.unattributed_ns,
            hold_gini: gini(&hold_totals),
            acq_gini: gini(&acq_counts),
            vci_gini,
            starvation_ratio: starvation.ratio,
            main_spans: starvation.main_spans,
            progress_spans: starvation.progress_spans,
            vcis,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtmpi_obs::{CsOp, Path, Recorder};

    fn span(t_req: u64, t_acq: u64, t_end: u64, tid: u64, lock: u32, path: Path) -> Event {
        Event {
            t_ns: t_end,
            tid,
            core: 0,
            socket: 0,
            kind: EventKind::CsSpan {
                lock,
                kind: "mutex",
                path,
                op: CsOp::Other,
                vci: lock,
                t_req,
                t_acq,
            },
        }
    }

    #[test]
    fn watermark_holds_back_unfinalized_events() {
        let rec = Arc::new(RingRecorder::new(1024));
        let c = LiveCollector::new(rec.clone(), LiveConfig::default());
        rec.record(span(0, 10, 500, 1, 0, Path::Main));
        assert!(c.pump(400));
        assert_eq!(c.snapshot().spans, 0, "t=500 is not final at watermark 400");
        assert!(c.pump(501));
        assert_eq!(c.snapshot().spans, 1);
    }

    #[test]
    fn streaming_blame_matches_the_post_run_attribution_shape() {
        // Thread 1 holds [10, 110); thread 2 waits [20, 110) then holds
        // [110, 150). The wait must charge exactly 90ns to thread 1 and
        // leave 0 unattributed; conservation is exact.
        let rec = Arc::new(RingRecorder::new(1024));
        let c = LiveCollector::new(
            rec.clone(),
            LiveConfig {
                window_ns: 1000,
                ..Default::default()
            },
        );
        rec.record(span(10, 10, 110, 1, 0, Path::Main));
        rec.record(span(20, 110, 150, 2, 0, Path::Progress));
        c.finalize();
        let s = c.snapshot();
        assert_eq!(s.spans, 2);
        assert_eq!(s.total_wait_ns, 90);
        assert_eq!(s.charged_ns, 90);
        assert_eq!(s.unattributed_ns, 0);
        assert_eq!(s.blame.len(), 1);
        assert_eq!(s.blame[0].holder.tid, 1);
        assert_eq!(s.blame[0].ns, 90);
        assert!((s.blame[0].share - 1.0).abs() < 1e-12);
        // Both spans anchor in window 0, flushed by finalize.
        assert_eq!(s.windows_flushed, 1);
        let w = s.recent_windows[0];
        assert_eq!(w.charged_ns + w.unattributed_ns, w.row.wait_ns);
        assert_eq!(w.row.spans, 2);
    }

    #[test]
    fn incremental_pumps_equal_one_final_pump() {
        // Fold the same contended stream two ways — many bounded pumps
        // with a creeping watermark vs. one finalize — at batch sizes
        // below, around and above the stream length, and require
        // identical snapshots (modulo the watermark itself).
        let mk = |batch| {
            let rec = Arc::new(RingRecorder::new(4096));
            for i in 0..200u64 {
                let base = i * 50;
                // Requested while the lock's previous passage (two spans
                // back) still held it: 20 ns of every wait is charged.
                rec.record(span(
                    base.saturating_sub(80),
                    base + 7,
                    base + 40,
                    i % 3,
                    (i % 2) as u32,
                    Path::Main,
                ));
            }
            LiveCollector::new(
                rec,
                LiveConfig {
                    window_ns: 500,
                    batch,
                    ..Default::default()
                },
            )
        };
        let whole = mk(4096);
        whole.finalize();
        let mut want = whole.snapshot();
        want.watermark_ns = 0;
        assert!(want.charged_ns > 0 && want.unattributed_ns > 0);
        for batch in [1, 17, 4096] {
            let c = mk(batch);
            let mut now = 0;
            while now < 20_000 {
                now += 333;
                c.pump(now);
            }
            c.finalize();
            let mut got = c.snapshot();
            got.watermark_ns = 0;
            assert_eq!(got, want, "batch {batch}");
            // Per-window conservation held throughout.
            for w in &got.recent_windows {
                assert_eq!(w.charged_ns + w.unattributed_ns, w.row.wait_ns);
            }
        }
    }

    #[test]
    fn decay_forgets_old_windows_while_exact_cells_do_not() {
        let rec = Arc::new(RingRecorder::new(1024));
        let c = LiveCollector::new(
            rec.clone(),
            LiveConfig {
                window_ns: 100,
                decay: 0.5,
                ..Default::default()
            },
        );
        // One contended pair in window 0, then quiet windows.
        rec.record(span(0, 0, 50, 1, 0, Path::Main));
        rec.record(span(10, 50, 60, 2, 0, Path::Main));
        // A lone span far later forces several window flushes.
        rec.record(span(900, 900, 910, 1, 0, Path::Main));
        c.finalize();
        let s = c.snapshot();
        let cell = s
            .blame
            .iter()
            .find(|b| b.holder.tid == 1)
            .expect("charged cell");
        assert_eq!(cell.ns, 40, "exact cumulative charge survives");
        assert!(cell.decayed < cell.ns as f64, "decayed view forgot some");
        assert!(cell.decayed > 0.0);
    }

    #[test]
    fn prom_and_text_render_headline_gauges() {
        let rec = Arc::new(RingRecorder::new(64));
        let c = LiveCollector::new(rec.clone(), LiveConfig::default());
        rec.record(span(0, 5, 20, 1, 0, Path::Main));
        c.finalize();
        let s = c.snapshot();
        let prom = s.prom();
        for needle in [
            "mtmpi_live_watermark_ns{} ",
            "mtmpi_live_wait_ns_total{} 5",
            "mtmpi_live_spans_total{} 1",
            "mtmpi_live_starvation_ratio{} ",
        ] {
            assert!(prom.contains(needle), "missing {needle:?} in:\n{prom}");
        }
        assert!(s.text().contains("live @"));
    }
}
