//! Calendar-queue event scheduler: the one event queue `mtmpi-sim` runs
//! on.
//!
//! Layout (DESIGN.md §16): virtual time is partitioned into epochs of
//! `1 << shift` ns. A power-of-two ring of buckets holds the next
//! `nslots` epochs; pushes into a future in-window epoch are **O(1)
//! appends** into that epoch's bucket (a plain `Vec` whose storage is
//! recycled across rotations — zero steady-state allocation). When the
//! window rotates into an epoch, its bucket is sorted **once**
//! (descending, so pops are O(1) tail pops) into the `run`; events
//! pushed into the current epoch while it drains go to a small `spill`
//! heap and are merged on the fly, so everything still pops in exact
//! `(t, seq)` order. Events beyond the ring window land in *unsorted*
//! per-window overflow buckets (a second calendar level: one bucket per
//! future ring revolution) and are promoted wholesale into the ring
//! slots when the window rotates up to them — overflow never compares
//! items; ordering is recovered by the slot sort that runs anyway.
//!
//! Ordering contract: pops are **byte-identical** to a global
//! `BinaryHeap` ordered by `(t, seq)` — `crates/sim/tests/calendar_prop.rs`
//! and `calendar_churn.rs` check this item for item against a reference
//! heap over randomized streams, same-bucket ties, and far-future
//! overflow pushes, and every committed `sched_trace_hash` (cut when the
//! scheduler still ran on such a heap) pins it end to end. The win over
//! a global heap: pushes are O(1) instead of O(log n), pop cost scales
//! with the *active-epoch population* instead of the total pending
//! population, and same-timestamp runs batch out of the sorted run
//! ([`CalendarQueue::pop_batch`]) without re-sifting the world per event.

use std::collections::BinaryHeap;

/// An item schedulable by `(time, seq)`. Both together must be unique
/// per item; `seq` breaks same-time ties (issue order).
pub trait Keyed {
    /// Virtual due time, ns.
    fn time(&self) -> u64;
    /// Tie-breaking sequence number.
    fn seq(&self) -> u64;
}

/// Min-order wrapper: `BinaryHeap` is a max-heap, so compare reversed.
struct Entry<T: Keyed>(T);

impl<T: Keyed> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        (self.0.time(), self.0.seq()) == (other.0.time(), other.0.seq())
    }
}
impl<T: Keyed> Eq for Entry<T> {}
impl<T: Keyed> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (other.0.time(), other.0.seq()).cmp(&(self.0.time(), self.0.seq()))
    }
}
impl<T: Keyed> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Bucketed event queue with exact `(t, seq)` pop order. See module docs.
pub struct CalendarQueue<T: Keyed> {
    /// Epoch width: `1 << shift` ns per bucket.
    shift: u32,
    /// Ring of future-epoch buckets; `slots[e & mask]` holds epoch `e`.
    slots: Box<[Vec<T>]>,
    /// `slots.len() - 1` (power of two).
    mask: u64,
    /// Epoch currently draining (`t >> shift` of the active window).
    epoch: u64,
    /// The current epoch's events, sorted descending by `(t, seq)` —
    /// the minimum pops off the tail in O(1).
    run: Vec<T>,
    /// Current-epoch events pushed *after* the run was sorted; merged
    /// against the run tail on every pop.
    spill: BinaryHeap<Entry<T>>,
    /// Epoch → window-index shift: window `w` spans epochs
    /// `[w << wshift, (w + 1) << wshift)`, one full ring revolution.
    wshift: u32,
    /// Events beyond the ring window, bucketed *unsorted* per window.
    /// The whole bucket is promoted into the ring slots when the window
    /// rotates up to it; no comparisons happen here.
    overflow: std::collections::BTreeMap<u64, Vec<T>>,
    /// Retired overflow-bucket storage, recycled so steady-state churn
    /// through overflow allocates nothing.
    spare: Vec<Vec<T>>,
    /// Items parked in ring slots (excludes `run`, `spill`, `overflow`).
    in_ring: usize,
    /// Total items.
    len: usize,
}

impl<T: Keyed> Default for CalendarQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Keyed> CalendarQueue<T> {
    /// Default geometry: 512 ns epochs × 1024 buckets (a 524 µs window —
    /// wide enough that lock wakes and in-flight packets stay in-ring;
    /// only far-future events touch the overflow heap).
    pub fn new() -> Self {
        Self::with_geometry(9, 1024)
    }

    /// Custom geometry: `1 << shift` ns epochs, `nslots` buckets
    /// (rounded up to a power of two).
    pub fn with_geometry(shift: u32, nslots: usize) -> Self {
        let nslots = nslots.next_power_of_two().max(2);
        Self {
            shift,
            slots: (0..nslots).map(|_| Vec::new()).collect(),
            mask: (nslots - 1) as u64,
            epoch: 0,
            run: Vec::new(),
            spill: BinaryHeap::new(),
            wshift: nslots.trailing_zeros(),
            overflow: std::collections::BTreeMap::new(),
            spare: Vec::new(),
            in_ring: 0,
            len: 0,
        }
    }

    /// Total queued items.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Queue `item`. O(1) for in-window epochs; O(log windows) beyond
    /// (a b-tree probe over the handful of pending windows, then an
    /// O(1) append into that window's unsorted bucket).
    pub fn push(&mut self, item: T) {
        let e = item.time() >> self.shift;
        self.len += 1;
        if e <= self.epoch {
            // Current (or, defensively, past) epoch: ordered insertion
            // into the spill heap, merged with the run on pop.
            self.spill.push(Entry(item));
        } else if e - self.epoch <= self.mask + 1 {
            // In-window future epoch: O(1) append. `e - epoch` may equal
            // nslots: the current epoch's own slot is already drained,
            // and no two in-window epochs share a residue.
            self.slots[(e & self.mask) as usize].push(item);
            self.in_ring += 1;
        } else {
            // Beyond the window ⇒ the item's window has not been
            // promoted yet (promotion at epoch `w·nslots − 1` puts the
            // whole window inside the ring bound checked above).
            let spare = &mut self.spare;
            self.overflow
                .entry(e >> self.wshift)
                .or_insert_with(|| spare.pop().unwrap_or_default())
                .push(item);
        }
    }

    /// Pop the `(t, seq)`-minimum item.
    pub fn pop(&mut self) -> Option<T> {
        self.ensure_active();
        let from_spill = match (self.run.last(), self.spill.peek()) {
            (None, None) => return None,
            (Some(r), Some(s)) => (s.0.time(), s.0.seq()) < (r.time(), r.seq()),
            (None, Some(_)) => true,
            (Some(_), None) => false,
        };
        self.len -= 1;
        if from_spill {
            Some(self.spill.pop().expect("peeked").0)
        } else {
            self.run.pop()
        }
    }

    /// Key of the `(t, seq)`-minimum item without removing it. `&mut`
    /// because finding it may rotate the window forward.
    pub fn peek_key(&mut self) -> Option<(u64, u64)> {
        self.ensure_active();
        let r = self.run.last().map(|r| (r.time(), r.seq()));
        let s = self.spill.peek().map(|e| (e.0.time(), e.0.seq()));
        match (r, s) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// Batch dequeue of one same-timestamp bucket: pop the minimum item
    /// and every further item sharing its `t`, in `(t, seq)` order,
    /// appending to `out`. Returns the number popped. Concatenating
    /// batches reproduces the exact single-pop sequence — any item
    /// pushed *while a batch is processed* has `t` ≥ the batch time and,
    /// at equal `t`, a larger `seq` than every batched item, so it
    /// correctly sorts after them.
    pub fn pop_batch(&mut self, out: &mut Vec<T>) -> usize {
        let Some(first) = self.pop() else { return 0 };
        let t = first.time();
        out.push(first);
        let mut n = 1;
        while self.peek_key().is_some_and(|(pt, _)| pt == t) {
            out.push(self.pop().expect("peeked"));
            n += 1;
        }
        n
    }

    /// Make the run/spill pair hold the earliest pending epoch (rotating
    /// the window and promoting overflow windows as needed). No-op when
    /// either is nonempty or the queue is empty.
    fn ensure_active(&mut self) {
        while self.run.is_empty() && self.spill.is_empty() {
            if self.in_ring == 0 {
                // Ring empty: jump to the first pending overflow
                // window's promotion point (each epoch is visited at
                // most once, so scanning empty buckets one by one would
                // be O(gap)). Any window skipped over has no bucket —
                // `w` is the b-tree minimum — so nothing is missed.
                let Some((&w, _)) = self.overflow.first_key_value() else {
                    return;
                };
                let promote_at = (w << self.wshift) - 1;
                debug_assert!(promote_at >= self.epoch, "overflow behind the window");
                self.epoch = promote_at;
                self.promote_window(w);
                continue;
            }
            // Ring nonempty: the next pending epoch is at most
            // `nslots` ahead. Step epoch by epoch — each bucket is
            // visited once per rotation, so the scan amortizes to O(1)
            // per event.
            self.epoch += 1;
            let idx = (self.epoch & self.mask) as usize;
            if !self.slots[idx].is_empty() {
                self.in_ring -= self.slots[idx].len();
                // Swap-free handover: move the bucket's items into the
                // (empty) run and sort once, descending, so every pop of
                // this epoch is an O(1) tail pop. append() empties the
                // bucket but keeps its capacity: after warm-up the
                // rotation recycles storage with zero allocation.
                let slot = &mut self.slots[idx];
                self.run.append(slot);
                self.run
                    .sort_unstable_by_key(|x| std::cmp::Reverse((x.time(), x.seq())));
            }
            // At the last epoch before window `w` (`epoch ≡ nslots − 1`,
            // so `epoch = w·nslots − 1`), promote `w`'s overflow bucket.
            // Strictly *after* draining this epoch's slot: the window's
            // last epoch, `epoch + nslots`, shares this epoch's ring
            // residue, and draining after promotion would hoist those
            // items into the run a full rotation early, where they would
            // both pop out of order and block the rotation.
            if self.epoch & self.mask == self.mask {
                self.promote_window((self.epoch >> self.wshift) + 1);
            }
        }
    }

    /// Move window `w`'s overflow bucket (if any) into the ring slots.
    /// Called exactly at epoch `w·nslots − 1`, so every item in the
    /// bucket — epochs `[w·nslots, (w+1)·nslots)` — is in-window, and no
    /// two of them share a slot residue: the bucket needs no order at
    /// all, each slot's sort at drain time restores `(t, seq)`.
    fn promote_window(&mut self, w: u64) {
        let Some(mut bucket) = self.overflow.remove(&w) else {
            return;
        };
        for it in bucket.drain(..) {
            let e = it.time() >> self.shift;
            debug_assert!(e > self.epoch && e - self.epoch <= self.mask + 1);
            self.slots[(e & self.mask) as usize].push(it);
            self.in_ring += 1;
        }
        self.spare.push(bucket);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, PartialEq, Eq)]
    struct E(u64, u64);
    impl Keyed for E {
        fn time(&self) -> u64 {
            self.0
        }
        fn seq(&self) -> u64 {
            self.1
        }
    }

    #[test]
    fn pops_in_key_order_across_buckets() {
        let mut q = CalendarQueue::with_geometry(4, 8);
        for (t, s) in [(100, 0), (5, 1), (5, 0), (100_000, 2), (17, 3)] {
            q.push(E(t, s));
        }
        let mut got = Vec::new();
        while let Some(e) = q.pop() {
            got.push((e.0, e.1));
        }
        assert_eq!(got, vec![(5, 0), (5, 1), (17, 3), (100, 0), (100_000, 2)]);
        assert!(q.is_empty());
    }

    #[test]
    fn push_into_draining_epoch_stays_ordered() {
        let mut q = CalendarQueue::with_geometry(4, 8);
        q.push(E(16, 0)); // epoch 1
        q.push(E(31, 1)); // epoch 1
        assert_eq!(q.pop().unwrap(), E(16, 0));
        // Same epoch, between the remaining item: must pop before 31.
        q.push(E(20, 2));
        assert_eq!(q.pop().unwrap(), E(20, 2));
        assert_eq!(q.pop().unwrap(), E(31, 1));
    }

    #[test]
    fn overflow_inside_a_later_window_is_not_overtaken() {
        // Regression shape: an overflow item whose epoch enters the
        // window only after the ring advances must still pop before a
        // ring item scheduled beyond it.
        let mut q = CalendarQueue::with_geometry(0, 8); // 1 ns epochs, window 8
        q.push(E(600, 0)); // far future: overflow
        q.push(E(500, 1)); // also overflow
        q.push(E(3, 2)); // in-window
        assert_eq!(q.pop().unwrap(), E(3, 2));
        // Ring now empty; jump lands at 500's epoch and 600 re-enters
        // the overflow-vs-ring dance.
        q.push(E(505, 3)); // in-window after the jump? pushed pre-jump: overflow too
        let mut got = Vec::new();
        while let Some(e) = q.pop() {
            got.push(e.0);
        }
        assert_eq!(got, vec![500, 505, 600]);
    }

    #[test]
    fn overflow_sharing_a_ring_residue_is_not_hoisted_early() {
        // Regression: two overflow items whose epochs differ by exactly
        // `nslots` share a ring residue. When the window steps into the
        // nearer epoch, the pull must not let the slot drain hoist the
        // farther item into `active` a rotation early — it would pop
        // before anything parked in between.
        let mut q = CalendarQueue::with_geometry(0, 8); // 1 ns epochs
        q.push(E(0, 0));
        q.push(E(5, 1)); // in-window: ring slot 5
        q.push(E(16, 2)); // overflow (epoch 16)
        q.push(E(24, 3)); // overflow (epoch 24 — same residue as 16)
        assert_eq!(q.pop().unwrap(), E(0, 0));
        assert_eq!(q.pop().unwrap(), E(5, 1));
        q.push(E(13, 4)); // window is now (5, 13]: stays in-ring
        assert_eq!(q.pop().unwrap(), E(13, 4));
        // Parked from epoch 13 so the ring is nonempty and epoch 16 is
        // reached by *stepping*, not the empty-ring jump. The buggy
        // pull-then-drain order at 16 hoisted 24 into `active` and
        // popped it before this item.
        q.push(E(20, 5));
        assert_eq!(q.pop().unwrap(), E(16, 2));
        assert_eq!(q.pop().unwrap(), E(20, 5));
        assert_eq!(q.pop().unwrap(), E(24, 3));
        assert!(q.is_empty());
    }

    #[test]
    fn window_promotion_does_not_hoist_its_last_epoch() {
        // A window's last epoch shares a ring residue with the epoch its
        // promotion runs at (`w·nslots − 1`). If promotion ran before
        // that epoch's slot drain, the freshly-promoted last-epoch items
        // would drain into the run a full rotation early.
        let mut q = CalendarQueue::with_geometry(0, 8); // 1 ns epochs
        q.push(E(8, 0)); // in-window: ring slot 0
        q.push(E(23, 1)); // overflow, window 2's *last* epoch
        q.push(E(18, 2)); // overflow, window 2
        assert_eq!(q.pop().unwrap(), E(8, 0));
        q.push(E(16, 3)); // keeps the ring nonempty across epoch 15,
                          // where window 2 is promoted by *stepping*
        assert_eq!(q.pop().unwrap(), E(16, 3));
        assert_eq!(q.pop().unwrap(), E(18, 2));
        assert_eq!(q.pop().unwrap(), E(23, 1));
        assert!(q.is_empty());
    }

    #[test]
    fn batch_pops_full_same_timestamp_run() {
        let mut q = CalendarQueue::with_geometry(6, 16);
        for s in 0..5 {
            q.push(E(640, s));
        }
        q.push(E(641, 5));
        let mut out = Vec::new();
        assert_eq!(q.pop_batch(&mut out), 5);
        assert_eq!(out.len(), 5);
        assert!(out.iter().all(|e| e.0 == 640));
        assert!(out.windows(2).all(|w| w[0].1 < w[1].1), "seq order");
        out.clear();
        assert_eq!(q.pop_batch(&mut out), 1);
        assert_eq!(out[0], E(641, 5));
        assert_eq!(q.pop_batch(&mut out), 0);
    }

    #[test]
    fn len_tracks_through_rotation_and_overflow() {
        let mut q = CalendarQueue::with_geometry(3, 4);
        for i in 0..100u64 {
            q.push(E(i * 37, i));
        }
        assert_eq!(q.len(), 100);
        for _ in 0..60 {
            q.pop().unwrap();
        }
        assert_eq!(q.len(), 40);
        for i in 100..140u64 {
            q.push(E(i * 37, i));
        }
        let mut last = (0, 0);
        let mut n = 0;
        while let Some(e) = q.pop() {
            assert!((e.0, e.1) > last);
            last = (e.0, e.1);
            n += 1;
        }
        assert_eq!(n, 80);
    }
}
