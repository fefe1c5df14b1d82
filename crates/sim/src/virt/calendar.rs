//! The one event queue `mtmpi-sim` runs on: a 4-ary min-heap over
//! `(t, seq)`, packed into one `u128` key.
//!
//! Sizing (DESIGN.md §16): a world's queue holds at most one pending
//! `Exec`/`Start` per simulated thread plus the lock `Grant`s not yet due
//! — mailbox packets live in their own heaps — so its peak population is
//! ≤ 182 events in every figure binary and ≤ 9 in a `fig_serve` tenant.
//! On the figure path it is smaller still. Over one `pt2pt_figure`
//! iteration (140 712 pops), 92 % of pops find ≤ 6 queued events and
//! none finds more than 25; 47.5 % of pushes land behind every queued
//! event and 92 % within three places of the back. So a push first
//! compares against its parent and, most of the time, stops there. A
//! pop compares up to four siblings per level, and three levels hold 21
//! events. Every compare is one `u128` compare, and sifts move items
//! into a hole instead of swapping them. A sorted run would be as cheap
//! at six events, but its push is O(n): at the 32 Ki resident events of
//! the benchmark's queue probe it costs tens of µs per operation against
//! a few hundred ns for a heap.
//!
//! Ordering contract: pops come out in strictly increasing `(t, seq)`
//! order, the order every committed `sched_trace_hash` was cut on.
//! `crates/sim/tests/calendar_prop.rs` checks it against a sorted-`Vec`
//! oracle.
//!
//! The type keeps the name `CalendarQueue` and the `pop_batch` method
//! because `benchmark/`'s queue probe compiles against them; both are
//! renamed with that probe.

use std::mem::ManuallyDrop;
use std::ptr;

/// An item schedulable by `(time, seq)`. Both together must be unique
/// per item; `seq` breaks same-time ties (issue order). The queue reads
/// both on every compare, so they should be plain field reads.
pub trait Keyed {
    /// Virtual due time, ns.
    fn time(&self) -> u64;
    /// Tie-breaking sequence number.
    fn seq(&self) -> u64;
}

/// `(t, seq)` as one integer: ordering the `u128` orders the pair.
#[inline]
fn key<T: Keyed>(item: &T) -> u128 {
    u128::from(item.time()) << 64 | u128::from(item.seq())
}

/// Children of slot `i` are `ARITY * i + 1 ..= ARITY * i + ARITY`.
const ARITY: usize = 4;

/// Event queue with exact `(t, seq)` pop order. See module docs.
pub struct CalendarQueue<T: Keyed> {
    heap: Vec<T>,
}

impl<T: Keyed> Default for CalendarQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Keyed> CalendarQueue<T> {
    /// An empty queue; allocates on the first push.
    pub fn new() -> Self {
        Self { heap: Vec::new() }
    }

    /// Total queued items.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Queue `item`. O(log n).
    pub fn push(&mut self, item: T) {
        let at = self.heap.len();
        let k = key(&item);
        // Most pushes land behind their parent (the scheduler's arrivals
        // cluster at the back): no sift at all.
        if at == 0 || key(&self.heap[(at - 1) / ARITY]) <= k {
            self.heap.push(item);
            return;
        }
        self.heap.push(item);
        let mut hole = Hole::new(&mut self.heap, at);
        while hole.pos > 0 {
            let parent = (hole.pos - 1) / ARITY;
            if hole.key_at(parent) <= k {
                break;
            }
            // SAFETY: a parent is in bounds and is never the hole.
            unsafe { hole.move_to(parent) };
        }
    }

    /// Pop the `(t, seq)`-minimum item. O(log n).
    pub fn pop(&mut self) -> Option<T> {
        let last = self.heap.pop()?;
        if self.heap.is_empty() {
            return Some(last);
        }
        // The root's item moves out and the last item sifts down from the
        // root, starting as the hole's item.
        let k = key(&last);
        // SAFETY: slot 0 is in bounds (indexing checks it); its item
        // moves into `top`, and the hole opened there below keeps it
        // from being dropped twice.
        let top = unsafe { ptr::read(&self.heap[0]) };
        // SAFETY: slot 0 is in bounds and its item is now `top`'s.
        let mut hole = unsafe { Hole::with_item(&mut self.heap, 0, last) };
        let len = hole.data.len();
        loop {
            let first = ARITY * hole.pos + 1;
            if first >= len {
                break;
            }
            let (mut best, mut best_key) = (first, hole.key_at(first));
            for child in first + 1..(first + ARITY).min(len) {
                let ck = hole.key_at(child);
                if ck < best_key {
                    (best, best_key) = (child, ck);
                }
            }
            if k <= best_key {
                break;
            }
            // SAFETY: a child is in bounds and is never the hole.
            unsafe { hole.move_to(best) };
        }
        Some(top)
    }

    /// Key of the `(t, seq)`-minimum item without removing it. O(1).
    pub fn peek_key(&self) -> Option<(u64, u64)> {
        self.heap.first().map(|e| (e.time(), e.seq()))
    }

    /// Pop the minimum item and every further item sharing its `t`, in
    /// `(t, seq)` order, appending to `out`. Returns the number popped.
    /// Concatenating batches reproduces the single-pop sequence.
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
}

/// A slot whose item has been read out, as in `std`'s `BinaryHeap`: a
/// sift moves other items into the hole, and dropping the hole writes
/// the item into wherever the hole ended up. A `Keyed` accessor that
/// panics mid-sift therefore leaves every item owned exactly once.
struct Hole<'a, T: Keyed> {
    data: &'a mut [T],
    elt: ManuallyDrop<T>,
    pos: usize,
}

impl<'a, T: Keyed> Hole<'a, T> {
    /// Open a hole at `pos` by reading its item out.
    fn new(data: &'a mut [T], pos: usize) -> Self {
        // SAFETY: `data[pos]` is in bounds (indexing checks it); the
        // hole's `Drop` writes the item back, so it is owned once.
        unsafe {
            let elt = ptr::read(&data[pos]);
            Self::with_item(data, pos, elt)
        }
    }

    /// A hole at `pos` whose item is `elt`.
    ///
    /// # Safety
    ///
    /// `pos` must be in bounds, and the slot's item must already be
    /// owned elsewhere (moved out), since `Drop` overwrites the slot.
    unsafe fn with_item(data: &'a mut [T], pos: usize, elt: T) -> Self {
        debug_assert!(pos < data.len());
        Self {
            data,
            elt: ManuallyDrop::new(elt),
            pos,
        }
    }

    /// Key of the item in slot `i`, which must not be the hole.
    fn key_at(&self, i: usize) -> u128 {
        debug_assert_ne!(i, self.pos);
        key(&self.data[i])
    }

    /// Move the item in slot `to` into the hole; the hole moves to `to`.
    ///
    /// # Safety
    ///
    /// `to` must be in bounds and must not be the hole.
    unsafe fn move_to(&mut self, to: usize) {
        debug_assert_ne!(to, self.pos);
        let base = self.data.as_mut_ptr();
        // SAFETY: both slots are in bounds and distinct (caller
        // contract); slot `to` becomes the hole, so no item is
        // duplicated once the hole is filled.
        unsafe { ptr::copy_nonoverlapping(base.add(to), base.add(self.pos), 1) };
        self.pos = to;
    }
}

impl<T: Keyed> Drop for Hole<'_, T> {
    fn drop(&mut self) {
        // SAFETY: `pos` is in bounds and holds a stale copy; filling it
        // with the read-out item restores one owner per item.
        unsafe {
            ptr::copy_nonoverlapping(&*self.elt, self.data.as_mut_ptr().add(self.pos), 1);
        }
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
    fn batch_pops_full_same_timestamp_run() {
        let mut q = CalendarQueue::new();
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
}
