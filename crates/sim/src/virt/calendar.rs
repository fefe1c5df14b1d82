//! The one event queue `mtmpi-sim` runs on: a binary min-heap over
//! `(t, seq)`.
//!
//! Sizing (DESIGN.md §16): a world's queue holds at most one pending
//! `Exec`/`Start` per simulated thread plus the lock `Grant`s not yet due
//! — mailbox packets live in their own heaps — so its peak population is
//! ≤ 182 events in every figure binary and ≤ 9 in a `fig_serve` tenant.
//! At that size one `BinaryHeap` is cheaper than any bucketed structure:
//! a world allocates nothing until its first push, and a push or pop
//! sifts through at most eight levels.
//!
//! Ordering contract: pops come out in strictly increasing `(t, seq)`
//! order, the order every committed `sched_trace_hash` was cut on.
//! `crates/sim/tests/calendar_prop.rs` checks it against a sorted-`Vec`
//! oracle.
//!
//! The type keeps the name `CalendarQueue` and the `pop_batch` method
//! because `benchmark/`'s queue probe compiles against them; both are
//! renamed with that probe.

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

impl<T: Keyed> Entry<T> {
    fn key(&self) -> (u64, u64) {
        (self.0.time(), self.0.seq())
    }
}

impl<T: Keyed> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl<T: Keyed> Eq for Entry<T> {}
impl<T: Keyed> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other.key().cmp(&self.key())
    }
}
impl<T: Keyed> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Event queue with exact `(t, seq)` pop order. See module docs.
pub struct CalendarQueue<T: Keyed> {
    heap: BinaryHeap<Entry<T>>,
}

impl<T: Keyed> Default for CalendarQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Keyed> CalendarQueue<T> {
    /// An empty queue; allocates on the first push.
    pub fn new() -> Self {
        Self {
            heap: BinaryHeap::new(),
        }
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
        self.heap.push(Entry(item));
    }

    /// Pop the `(t, seq)`-minimum item. O(log n).
    pub fn pop(&mut self) -> Option<T> {
        self.heap.pop().map(|e| e.0)
    }

    /// Key of the `(t, seq)`-minimum item without removing it. O(1).
    pub fn peek_key(&self) -> Option<(u64, u64)> {
        self.heap.peek().map(Entry::key)
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
