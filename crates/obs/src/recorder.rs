//! Recorder trait and implementations.
//!
//! The hot path is [`Recorder::record`], called from inside the runtime's
//! critical section and progress loops. [`RingRecorder`] keeps one
//! append-only buffer per recording thread (claimed on first use with a
//! single `fetch_add`), so recording is a thread-local vector push — no
//! locks, no cross-thread traffic. [`NullRecorder`] is the disabled
//! implementation: `enabled()` is `false` and `record` is a no-op, so
//! callers that check `enabled()` first skip event construction entirely.

use crate::event::{CsOp, Event, Path};
use std::cell::{Cell, UnsafeCell};
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicPtr, AtomicU64, AtomicUsize, Ordering};

/// Maximum concurrently recording threads per [`RingRecorder`].
pub const MAX_SHARDS: usize = 256;

/// Default per-thread event capacity (events beyond it are counted, not
/// stored — see [`Timeline::dropped`]).
pub const DEFAULT_SHARD_CAP: usize = 1 << 14;

/// Sink for runtime events.
pub trait Recorder: Send + Sync {
    /// Whether events will actually be kept. Callers should skip event
    /// construction when this is `false`.
    fn enabled(&self) -> bool {
        true
    }

    /// Record one event.
    fn record(&self, ev: Event);
}

/// The disabled recorder: keeps nothing, costs nothing.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullRecorder;

impl Recorder for NullRecorder {
    fn enabled(&self) -> bool {
        false
    }

    fn record(&self, _ev: Event) {}
}

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

/// Events per storage chunk. Chunks are allocated lazily by the owning
/// writer and never moved or freed while the recorder lives, so a
/// pointer into one stays valid.
const CHUNK: usize = 1024;

/// One fixed-size block of event storage. Slots are written exactly once
/// by the shard's owning thread before the shard's `published` watermark
/// covers them; after that they are immutable until the recorder is
/// reset (`drain_unsynced`) or dropped.
struct Chunk {
    slots: [UnsafeCell<MaybeUninit<Event>>; CHUNK],
}

impl Chunk {
    fn new_boxed() -> Box<Chunk> {
        Box::new(Chunk {
            slots: [const { UnsafeCell::new(MaybeUninit::uninit()) }; CHUNK],
        })
    }
}

// SAFETY: slots below a shard's `published` watermark are immutable and
// only ever read; the single slot being written at any moment is touched
// only by the shard's unique owning thread. The Release store of
// `published` / Acquire load by readers orders the slot write before any
// cross-thread read.
unsafe impl Sync for Chunk {}
// SAFETY: `Event` is `Send` (plain data, `&'static str` labels); moving
// the storage to another thread moves only owned plain data.
unsafe impl Send for Chunk {}

struct Shard {
    /// Stable chunk table (fixed length `cap.div_ceil(CHUNK)`): each
    /// entry is null until the owning writer allocates it. Entries are
    /// published with Release *before* `published` covers any slot in
    /// them, and never change again until reset/drop.
    chunks: Vec<AtomicPtr<Chunk>>,
    /// Number of committed events: the owning writer stores `n + 1` with
    /// Release only after slot `n` is fully written, so a reader that
    /// Acquire-loads `published` may safely read every slot below it.
    published: AtomicUsize,
}

impl Shard {
    fn new(cap: usize) -> Self {
        Self {
            chunks: (0..cap.div_ceil(CHUNK))
                .map(|_| AtomicPtr::new(std::ptr::null_mut()))
                .collect(),
            published: AtomicUsize::new(0),
        }
    }

    /// Read committed event `i` (must be `< published` as Acquire-loaded
    /// by the caller).
    fn get(&self, i: usize) -> Event {
        let chunk = self.chunks[i / CHUNK].load(Ordering::Acquire);
        debug_assert!(!chunk.is_null(), "published index without a chunk");
        // SAFETY: `i < published` (caller contract, Acquire-loaded), so
        // the owning writer fully initialized this slot before the
        // Release store of `published` that made `i` visible, and
        // committed slots are never written again.
        unsafe { (*(*chunk).slots[i % CHUNK].get()).assume_init_ref().clone() }
    }
}

impl Drop for Shard {
    fn drop(&mut self) {
        for c in &self.chunks {
            let p = c.load(Ordering::Relaxed);
            if !p.is_null() {
                // SAFETY: chunk pointers come from `Box::into_raw` in
                // `record` and are freed exactly once, here. `Event` has
                // no drop glue, so skipping per-slot drops leaks nothing.
                drop(unsafe { Box::from_raw(p) });
            }
        }
    }
}

/// Per-thread lock-free event buffers.
///
/// Each recording thread claims a private shard on its first `record`
/// (one `fetch_add`) and appends to it with no further synchronization
/// beyond one Release store per event. Shards have a fixed capacity;
/// overflow increments a shared drop counter instead of reallocating
/// without bound, so a runaway trace degrades gracefully.
///
/// Storage is chunked and append-only: committed events never move. Both
/// drains ([`RingRecorder::into_timeline`],
/// [`RingRecorder::drain_unsynced`]) require quiesced writers.
pub struct RingRecorder {
    /// Identity of this recorder, to key the thread-local slot cache.
    id: u64,
    shards: Vec<Shard>,
    next_slot: AtomicUsize,
    cap: usize,
    dropped: AtomicU64,
}

static NEXT_RECORDER_ID: AtomicU64 = AtomicU64::new(1);

/// The shard a thread claimed last, and in which recorder. Opaque: only
/// [`swap_shard_claim`] moves one around.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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

#[inline(never)]
fn claim() -> ShardClaim {
    CLAIM.with(Cell::get)
}

impl Default for RingRecorder {
    fn default() -> Self {
        Self::new(DEFAULT_SHARD_CAP)
    }
}

impl RingRecorder {
    /// A recorder keeping up to `cap_per_thread` events per thread, with
    /// the full [`MAX_SHARDS`] shard table.
    pub fn new(cap_per_thread: usize) -> Self {
        Self::with_shards(MAX_SHARDS, cap_per_thread)
    }

    /// A recorder with exactly `shards` per-thread buffers — the
    /// `shards + 1`-th recording thread starts dropping. Small worlds
    /// (e.g. mtmpi-serve tenants, a few simulated threads each) size
    /// this to their thread count instead of paying the full 256-shard
    /// pre-allocation.
    ///
    /// # Panics
    /// If `shards` is 0 or exceeds [`MAX_SHARDS`]. Builders gate the 0
    /// case with a typed error before reaching here
    /// (`BuildError::ZeroRecorderShards`).
    pub fn with_shards(shards: usize, cap_per_thread: usize) -> Self {
        assert!(
            (1..=MAX_SHARDS).contains(&shards),
            "recorder shards must be in 1..={MAX_SHARDS}, got {shards}"
        );
        let cap = cap_per_thread.max(1);
        Self {
            id: NEXT_RECORDER_ID.fetch_add(1, Ordering::Relaxed),
            shards: (0..shards).map(|_| Shard::new(cap)).collect(),
            next_slot: AtomicUsize::new(0),
            cap,
            dropped: AtomicU64::new(0),
        }
    }

    /// How many concurrent recording threads this recorder can seat.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Slot of the calling thread, claiming one on first use. `None` when
    /// more than [`RingRecorder::shard_count`] threads record. The cache
    /// holds one entry per thread, so a thread alternating between two
    /// live recorders re-claims a fresh slot at each switch — fine for
    /// the intended one-recorder-per-run usage, wasteful otherwise.
    fn slot(&self) -> Option<usize> {
        let ShardClaim { recorder, slot } = claim();
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

    /// Events dropped so far (capacity overflow or shard exhaustion).
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Drain all shards into a time-ordered [`Timeline`], consuming the
    /// recorder (sole ownership proves no thread is still recording).
    pub fn into_timeline(self) -> Timeline {
        let dropped = self.dropped();
        let mut events = Vec::new();
        for shard in &self.shards {
            let n = shard.published.load(Ordering::Acquire);
            for i in 0..n {
                events.push(shard.get(i));
            }
        }
        events.sort_by_key(|e| (e.t_ns, e.tid));
        Timeline { events, dropped }
    }

    /// Drain all shards into a time-ordered [`Timeline`] through a shared
    /// reference, leaving the buffers empty.
    ///
    /// # Safety
    ///
    /// Every thread that ever called [`Recorder::record`] on this
    /// recorder must have quiesced (e.g. `Platform::run` has returned),
    /// and no thread may record concurrently with this call.
    pub unsafe fn drain_unsynced(&self) -> Timeline {
        let dropped = self.dropped.swap(0, Ordering::Relaxed);
        // Sized exactly: a timeline is tens of MB, and growing it by
        // doubling both overshoots by up to 2× and leaves it wherever
        // the allocator's in-place `realloc` happened to succeed.
        let total = self
            .shards
            .iter()
            .map(|s| s.published.load(Ordering::Acquire))
            .sum();
        let mut events = Vec::with_capacity(total);
        for shard in &self.shards {
            let n = shard.published.load(Ordering::Acquire);
            for i in 0..n {
                events.push(shard.get(i));
            }
            // Reset the watermark so the recorder reads as empty. Chunk
            // storage is retained (stale contents are unreachable — they
            // sit above the watermark and will be overwritten before
            // being republished). Release pairs with the next reader's
            // Acquire.
            shard.published.store(0, Ordering::Release);
        }
        events.sort_by_key(|e| (e.t_ns, e.tid));
        Timeline { events, dropped }
    }
}

impl Recorder for RingRecorder {
    fn record(&self, ev: Event) {
        let Some(slot) = self.slot() else {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        };
        let shard = &self.shards[slot];
        // Single-writer shard: this thread is the only one that ever
        // stores `published`, so a Relaxed self-read is exact.
        let n = shard.published.load(Ordering::Relaxed); // lint: allow(L002) single-writer shard reads back its own watermark
        if n >= self.cap {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let slot_in_chunk = n % CHUNK;
        let chunk_idx = n / CHUNK;
        let mut chunk = shard.chunks[chunk_idx].load(Ordering::Relaxed); // lint: allow(L002) single-writer shard reads back its own chunk table
        if chunk.is_null() {
            chunk = Box::into_raw(Chunk::new_boxed());
            // Release: the chunk's initialization happens-before any
            // reader that observes the pointer.
            shard.chunks[chunk_idx].store(chunk, Ordering::Release);
        }
        // SAFETY: slot `n` is above the published watermark, so no reader
        // touches it, and this thread is the shard's unique writer, so no
        // other writer does either. The chunk pointer is valid: allocated
        // above or by this same thread earlier, freed only on drop.
        unsafe {
            (*chunk).slots[slot_in_chunk]
                .get()
                .write(MaybeUninit::new(ev));
        }
        // Commit: Release orders the slot write (and chunk store) before
        // any reader's Acquire load of the new watermark.
        shard.published.store(n + 1, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;

    fn ev(t_ns: u64, tid: u64) -> Event {
        Event {
            t_ns,
            tid,
            core: 0,
            socket: 0,
            kind: EventKind::Req {
                rank: 0,
                vci: 0,
                phase: crate::event::ReqPhase::Issue,
            },
        }
    }

    #[test]
    fn null_recorder_is_disabled_and_keeps_nothing() {
        let r = NullRecorder;
        assert!(!r.enabled());
        r.record(ev(1, 0));
        // Nothing observable: NullRecorder has no state at all.
    }

    #[test]
    fn ring_recorder_orders_across_threads() {
        let r = std::sync::Arc::new(RingRecorder::new(1024));
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
        let r = RingRecorder::new(8);
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
        // slot cache must re-resolve per recorder.
        let a = RingRecorder::new(64);
        let b = RingRecorder::new(64);
        for i in 0..10 {
            a.record(ev(i, 0));
            b.record(ev(i, 0));
        }
        assert_eq!(a.into_timeline().len(), 10);
        assert_eq!(b.into_timeline().len(), 10);
    }

    #[test]
    fn shard_exhaustion_drops_exactly_the_excess_threads() {
        // More recording threads than MAX_SHARDS: the first MAX_SHARDS
        // claimants keep all their events, every later thread drops all
        // of its — the counter must account for each event exactly.
        const EXTRA: usize = 8;
        const PER_THREAD: usize = 2;
        let r = std::sync::Arc::new(RingRecorder::new(64));
        let handles: Vec<_> = (0..(MAX_SHARDS + EXTRA) as u64)
            .map(|tid| {
                let r = r.clone();
                std::thread::spawn(move || {
                    for i in 0..PER_THREAD as u64 {
                        r.record(ev(i, tid));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let t = std::sync::Arc::try_unwrap(r).ok().unwrap().into_timeline();
        assert_eq!(t.len(), MAX_SHARDS * PER_THREAD);
        assert_eq!(t.dropped, (EXTRA * PER_THREAD) as u64);
    }

    #[test]
    fn capacity_overflow_drop_count_is_exact_per_thread() {
        // Two threads, each overflowing its own shard: drops accumulate
        // per event, not per thread or per shard.
        let r = std::sync::Arc::new(RingRecorder::new(8));
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
        let r = RingRecorder::new(8);
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
        assert_eq!(r.shard_count(), 2);
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
    #[should_panic(expected = "recorder shards must be in 1..=")]
    fn zero_shards_is_rejected_loudly() {
        let _ = RingRecorder::with_shards(0, 64);
    }

    #[test]
    fn default_keeps_the_full_shard_table() {
        assert_eq!(RingRecorder::new(8).shard_count(), MAX_SHARDS);
    }

    #[test]
    fn drain_unsynced_empties_buffers() {
        let r = RingRecorder::new(64);
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
}
