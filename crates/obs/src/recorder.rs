//! The event recorder.
//!
//! The hot path is [`RingRecorder::record`], called from inside the
//! runtime's critical section and progress loops. The recorder keeps one
//! append-only buffer per recording thread (claimed on first use with a
//! single `fetch_add`), so recording is a thread-local vector push — no
//! locks, no cross-thread traffic. Nothing reads a buffer while the run
//! is live: the one drain runs after every writer has stopped. Recording
//! off is no recorder at all (`None` where the runtime would hold one).

use crate::event::{CsOp, Event, Path};
use std::cell::{Cell, UnsafeCell};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Default per-thread event capacity (events beyond it are counted, not
/// stored — see [`Timeline::dropped`]).
pub const DEFAULT_SHARD_CAP: usize = 1 << 14;

/// A drained, time-ordered event stream.
#[derive(Debug, Clone, Default)]
pub struct Timeline {
    /// Events sorted by `(t_ns, tid)` (per-thread order preserved).
    pub events: Vec<Event>,
    /// Events discarded because a thread exceeded its buffer capacity.
    pub dropped: u64,
}

/// Flattened view of one critical-section passage (the analysis-friendly
/// projection of [`crate::EventKind::CsSpan`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CsSpanView {
    /// Recording thread.
    pub tid: u64,
    /// Core of the recording thread.
    pub core: u32,
    /// Socket of that core.
    pub socket: u32,
    /// Platform lock id.
    pub lock: u32,
    /// Arbitration label (`"mutex"`, `"ticket"`, …).
    pub kind: &'static str,
    /// Path class of the entry.
    pub path: Path,
    /// Runtime operation the passage served.
    pub op: CsOp,
    /// VCI whose critical section was entered (0 unsharded).
    pub vci: u32,
    /// Lock requested.
    pub t_req: u64,
    /// Lock granted.
    pub t_acq: u64,
    /// Lock released (the event's `t_ns`).
    pub t_end: u64,
}

impl CsSpanView {
    /// Wait time (request → grant).
    pub fn wait_ns(&self) -> u64 {
        self.t_acq.saturating_sub(self.t_req)
    }

    /// Hold time (grant → release).
    pub fn hold_ns(&self) -> u64 {
        self.t_end.saturating_sub(self.t_acq)
    }
}

impl Timeline {
    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether no events were retained.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Iterate the critical-section passages, in `(t_ns, tid)` order.
    pub fn cs_spans(&self) -> impl Iterator<Item = CsSpanView> + '_ {
        self.events.iter().filter_map(Event::cs_span)
    }

    /// `[first, last]` event timestamps (`(0, 0)` when empty). For CS
    /// spans the *end* timestamp is what the ordering is built on, so the
    /// bounds cover every event's anchor time.
    pub fn span_bounds(&self) -> (u64, u64) {
        match (self.events.first(), self.events.last()) {
            (Some(a), Some(b)) => (a.t_ns, b.t_ns),
            _ => (0, 0),
        }
    }

    /// Split the timeline into fixed-width time windows of `width_ns`,
    /// yielding `(window_start_ns, events_in_window)` for every window
    /// from the first event to the last (empty windows included, so
    /// consumers see gaps). Events belong to the window containing their
    /// anchor `t_ns`. `width_ns` is clamped to ≥ 1.
    pub fn windows(&self, width_ns: u64) -> TimelineWindows<'_> {
        let width = width_ns.max(1);
        let (first, last) = self.span_bounds();
        TimelineWindows {
            events: &self.events,
            width,
            next_start: first - first % width,
            end: if self.events.is_empty() { 0 } else { last + 1 },
            idx: 0,
        }
    }
}

/// Iterator over fixed-width windows of a [`Timeline`] (see
/// [`Timeline::windows`]).
pub struct TimelineWindows<'a> {
    events: &'a [Event],
    width: u64,
    next_start: u64,
    end: u64,
    idx: usize,
}

impl<'a> Iterator for TimelineWindows<'a> {
    type Item = (u64, &'a [Event]);

    fn next(&mut self) -> Option<Self::Item> {
        if self.next_start >= self.end {
            return None;
        }
        let start = self.next_start;
        let stop = start.saturating_add(self.width);
        let lo = self.idx;
        while self.idx < self.events.len() && self.events[self.idx].t_ns < stop {
            self.idx += 1;
        }
        self.next_start = stop;
        Some((start, &self.events[lo..self.idx]))
    }
}

/// Events per storage chunk. A shard grows one chunk at a time, so an
/// append never copies the events already stored.
const CHUNK: usize = 1024;

/// Per-thread event buffers, drained once after the run.
///
/// Each recording thread claims a private shard on its first `record`
/// (one `fetch_add`) and appends to it with no further synchronization.
/// Shards have a fixed capacity; overflow increments a shared drop
/// counter instead of growing without bound, so a runaway trace degrades
/// gracefully.
pub struct RingRecorder {
    /// Identity of this recorder, to key the thread-local slot cache.
    id: u64,
    /// Per shard, its events in `CHUNK`-sized chunks (the last one may be
    /// partly filled).
    shards: Vec<UnsafeCell<Vec<Vec<Event>>>>,
    next_slot: AtomicUsize,
    cap: usize,
    dropped: AtomicU64,
}

// SAFETY: a shard is written only by the recording thread that claimed
// its slot (`next_slot` hands each slot out once; a simulated thread
// carries its claim with its fiber), and read only by `drain_unsynced`,
// which runs after that writer has stopped. Every other field is atomic
// or immutable.
unsafe impl Sync for RingRecorder {}

static NEXT_RECORDER_ID: AtomicU64 = AtomicU64::new(1);

/// The shard a thread claimed last, and in which recorder. Opaque and not
/// `Copy`: [`RingRecorder`] makes one claim per shard and only
/// [`swap_shard_claim`] moves it around, so a shard has one writer.
#[derive(Debug, PartialEq, Eq)]
pub struct ShardClaim {
    recorder: u64,
    slot: usize,
}

impl ShardClaim {
    /// No shard claimed yet: what a new thread starts with.
    pub const NONE: Self = Self {
        recorder: 0,
        slot: usize::MAX,
    };
}

thread_local! {
    static CLAIM: Cell<ShardClaim> = const { Cell::new(ShardClaim::NONE) };
}

/// Replace the calling OS thread's shard claim, returning the previous
/// one. `mtmpi-sim` uses it to carry a simulated thread's claim with its
/// fiber (installed before each resume, taken back out after), so a
/// simulated thread keeps the shard it claimed first whichever OS thread
/// runs it.
// Never inlined, like `claim`: a recording fiber may be suspended and
// resumed on another OS thread, so no caller may keep this thread-local's
// address across calls.
#[inline(never)]
pub fn swap_shard_claim(new: ShardClaim) -> ShardClaim {
    CLAIM.with(|c| c.replace(new))
}

/// `(recorder, slot)` of the calling thread's claim.
#[inline(never)]
fn claim() -> (u64, usize) {
    CLAIM.with(|c| {
        let claim = c.replace(ShardClaim::NONE);
        let ids = (claim.recorder, claim.slot);
        c.set(claim);
        ids
    })
}

impl RingRecorder {
    /// A recorder with exactly `shards` per-thread buffers of up to
    /// `cap_per_thread` events each — the `shards + 1`-th recording
    /// thread drops every event, so size `shards` to the world's
    /// recording threads.
    ///
    /// # Panics
    /// If `shards` is 0: that recorder would drop every event.
    pub fn with_shards(shards: usize, cap_per_thread: usize) -> Self {
        assert!(shards > 0, "recorder shards must be at least 1");
        let cap = cap_per_thread.max(1);
        // Each chunk list is sized once, for a full shard, so appending
        // a chunk never reallocates it.
        let chunk_list = || UnsafeCell::new(Vec::with_capacity(cap.div_ceil(CHUNK)));
        Self {
            id: NEXT_RECORDER_ID.fetch_add(1, Ordering::Relaxed),
            shards: (0..shards).map(|_| chunk_list()).collect(),
            next_slot: AtomicUsize::new(0),
            cap,
            dropped: AtomicU64::new(0),
        }
    }

    /// Slot of the calling thread, claiming one on first use. `None` when
    /// more threads record than the recorder has shards. The cache
    /// holds one entry per thread, so a thread alternating between two
    /// live recorders re-claims a fresh slot at each switch — fine for
    /// the intended one-recorder-per-run usage, wasteful otherwise.
    fn slot(&self) -> Option<usize> {
        let (recorder, slot) = claim();
        if recorder == self.id {
            return Some(slot).filter(|&s| s < self.shards.len());
        }
        let slot = self.next_slot.fetch_add(1, Ordering::Relaxed);
        swap_shard_claim(ShardClaim {
            recorder: self.id,
            slot,
        });
        (slot < self.shards.len()).then_some(slot)
    }

    /// Append `ev` to the calling thread's shard, or count it dropped
    /// when the thread has no shard or its shard is full.
    pub fn record(&self, ev: Event) {
        let Some(slot) = self.slot() else {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        };
        // SAFETY: this thread claimed `slot`, so it is the shard's only
        // writer, and no drain runs while a writer records.
        let chunks = unsafe { &mut *self.shards[slot].get() };
        let kept = chunks.len().saturating_sub(1) * CHUNK + chunks.last().map_or(0, Vec::len);
        if kept >= self.cap {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        match chunks.last_mut() {
            Some(chunk) if chunk.len() < CHUNK => chunk.push(ev),
            _ => {
                let mut chunk = Vec::with_capacity(CHUNK.min(self.cap - kept));
                chunk.push(ev);
                chunks.push(chunk);
            }
        }
    }

    /// Events dropped so far (capacity overflow or shard exhaustion).
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Drain every shard into one time-ordered [`Timeline`] through a
    /// shared reference, leaving the recorder empty with a drop count
    /// of 0.
    ///
    /// # Safety
    ///
    /// Every thread that ever called [`RingRecorder::record`] on this
    /// recorder must have stopped (e.g. `Platform::run` has returned),
    /// and no thread may record concurrently with this call.
    pub unsafe fn drain_unsynced(&self) -> Timeline {
        let chunks: Vec<Vec<Event>> = self
            .shards
            .iter()
            .flat_map(|shard| {
                // SAFETY: the caller guarantees no writer is left, so
                // this drain is the only access to the shard.
                std::mem::take(unsafe { &mut *shard.get() })
            })
            .collect();
        // Sized exactly: a timeline is tens of MB, and growing it by
        // doubling both overshoots by up to 2× and leaves it wherever
        // the allocator's in-place `realloc` happened to succeed.
        let mut events = Vec::with_capacity(chunks.iter().map(Vec::len).sum());
        for chunk in chunks {
            events.extend(chunk);
        }
        events.sort_by_key(|e| (e.t_ns, e.tid));
        Timeline {
            events,
            dropped: self.dropped.swap(0, Ordering::Relaxed),
        }
    }

    /// [`RingRecorder::drain_unsynced`], consuming the recorder.
    pub fn into_timeline(self) -> Timeline {
        // SAFETY: sole ownership proves no thread is still recording.
        unsafe { self.drain_unsynced() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;

    fn ev(t_ns: u64, tid: u64) -> Event {
        Event::stamped(
            t_ns,
            tid,
            0,
            0,
            EventKind::Req {
                rank: 0,
                vci: 0,
                phase: crate::event::ReqPhase::Issue,
            },
        )
    }

    #[test]
    fn ring_recorder_orders_across_threads() {
        let r = std::sync::Arc::new(RingRecorder::with_shards(4, 1024));
        let handles: Vec<_> = (0..4u64)
            .map(|tid| {
                let r = r.clone();
                std::thread::spawn(move || {
                    for i in 0..100u64 {
                        r.record(ev(i * 10 + tid, tid));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let t = std::sync::Arc::try_unwrap(r).ok().unwrap().into_timeline();
        assert_eq!(t.len(), 400);
        assert_eq!(t.dropped, 0);
        assert!(t
            .events
            .windows(2)
            .all(|w| (w[0].t_ns, w[0].tid) <= (w[1].t_ns, w[1].tid)));
    }

    #[test]
    fn capacity_overflow_counts_drops() {
        let r = RingRecorder::with_shards(1, 8);
        for i in 0..20 {
            r.record(ev(i, 0));
        }
        assert_eq!(r.dropped(), 12);
        let t = r.into_timeline();
        assert_eq!(t.len(), 8);
        assert_eq!(t.dropped, 12);
    }

    #[test]
    fn two_recorders_do_not_share_thread_slots() {
        // The same thread records into two recorders alternately; the
        // slot cache must re-resolve per recorder, claiming a fresh shard
        // at each switch (hence one shard per record).
        let a = RingRecorder::with_shards(10, 64);
        let b = RingRecorder::with_shards(10, 64);
        for i in 0..10 {
            a.record(ev(i, 0));
            b.record(ev(i, 0));
        }
        assert_eq!(a.into_timeline().len(), 10);
        assert_eq!(b.into_timeline().len(), 10);
    }

    #[test]
    fn capacity_overflow_drop_count_is_exact_per_thread() {
        // Two threads, each overflowing its own shard: drops accumulate
        // per event, not per thread or per shard.
        let r = std::sync::Arc::new(RingRecorder::with_shards(2, 8));
        let handles: Vec<_> = (0..2u64)
            .map(|tid| {
                let r = r.clone();
                std::thread::spawn(move || {
                    for i in 0..20u64 {
                        r.record(ev(i, tid));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let t = std::sync::Arc::try_unwrap(r).ok().unwrap().into_timeline();
        assert_eq!(t.len(), 16, "8 kept per thread");
        assert_eq!(t.dropped, 24, "12 dropped per thread");
    }

    #[test]
    fn drain_after_overflow_returns_the_bounded_prefix() {
        // A shard keeps the *first* `cap` events of its thread (appends
        // stop at capacity), so the drained timeline is the ordered
        // prefix of what was recorded — never a mix or a suffix.
        let r = RingRecorder::with_shards(1, 8);
        for i in 0..20 {
            r.record(ev(i, 0));
        }
        // SAFETY: single-threaded test; no concurrent recording.
        let t = unsafe { r.drain_unsynced() };
        assert_eq!(t.len(), 8);
        let times: Vec<u64> = t.events.iter().map(|e| e.t_ns).collect();
        assert_eq!(times, (0..8).collect::<Vec<u64>>());
        assert_eq!(t.dropped, 12);
        // The drop counter was consumed by the drain; a second drain
        // reports a clean (empty, zero-drop) recorder.
        // SAFETY: as above.
        let t2 = unsafe { r.drain_unsynced() };
        assert!(t2.is_empty());
        assert_eq!(t2.dropped, 0);
    }

    #[test]
    fn small_shard_table_seats_exactly_that_many_threads() {
        // A 2-shard recorder: the first two recording threads keep
        // their events, the third drops all of its.
        let r = std::sync::Arc::new(RingRecorder::with_shards(2, 64));
        let handles: Vec<_> = (0..3u64)
            .map(|tid| {
                let r = r.clone();
                std::thread::spawn(move || {
                    for i in 0..5u64 {
                        r.record(ev(i, tid));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let t = std::sync::Arc::try_unwrap(r).ok().unwrap().into_timeline();
        assert_eq!(t.len(), 10, "two seated threads keep 5 events each");
        assert_eq!(t.dropped, 5, "the unseated thread drops all 5");
    }

    #[test]
    #[should_panic(expected = "recorder shards must be at least 1")]
    fn zero_shards_is_rejected_loudly() {
        let _ = RingRecorder::with_shards(0, 64);
    }

    #[test]
    fn drain_unsynced_empties_buffers() {
        let r = RingRecorder::with_shards(1, 64);
        r.record(ev(5, 1));
        r.record(ev(3, 1));
        // SAFETY: single-threaded test; no concurrent recording.
        let t = unsafe { r.drain_unsynced() };
        assert_eq!(t.len(), 2);
        assert_eq!(t.events[0].t_ns, 3);
        // SAFETY: as above.
        let t2 = unsafe { r.drain_unsynced() };
        assert!(t2.is_empty());
    }

    #[test]
    fn drain_crosses_chunk_boundaries() {
        // Two threads each record past two chunk boundaries into shards
        // capped mid-chunk, every timestamp tied across the threads: each
        // keeps exactly its first `CAP` events, drops the rest, and the
        // drain breaks every tie by tid.
        const CAP: usize = 2 * 1024 + 5;
        const PER_THREAD: u64 = 3 * 1024 + 7;
        let r = std::sync::Arc::new(RingRecorder::with_shards(2, CAP));
        let handles: Vec<_> = (0..2u64)
            .map(|tid| {
                let r = r.clone();
                std::thread::spawn(move || {
                    for i in 0..PER_THREAD {
                        r.record(ev(i, tid));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        // SAFETY: both writers have been joined.
        let t = unsafe { r.drain_unsynced() };
        assert_eq!(t.dropped, 2 * (PER_THREAD - CAP as u64));
        let got: Vec<(u64, u32)> = t.events.iter().map(|e| (e.t_ns, e.tid)).collect();
        let want: Vec<(u64, u32)> = (0..CAP as u64).flat_map(|i| [(i, 0), (i, 1)]).collect();
        assert_eq!(got, want);
        // SAFETY: as above.
        let t2 = unsafe { r.drain_unsynced() };
        assert!(t2.is_empty());
        assert_eq!(t2.dropped, 0);
    }
}
