//! The event queue's ordering contract, checked against a sorted-`Vec`
//! oracle: interleaved pushes and pops return the current `(t, seq)`
//! minimum, equal times pop by `seq`, and concatenated `pop_batch`es equal
//! single pops. The scheduler's `sched_trace_hash` stability rests on it.

use mtmpi_sim::{CalendarQueue, Keyed};
use proptest::prelude::*;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct It {
    t: u64,
    seq: u64,
}

impl Keyed for It {
    fn time(&self) -> u64 {
        self.t
    }
    fn seq(&self) -> u64 {
        self.seq
    }
}

/// The oracle: every queued item, kept sorted ascending by `(t, seq)`.
#[derive(Default)]
struct Sorted(Vec<It>);

impl Sorted {
    fn push(&mut self, it: It) {
        let at = self.0.partition_point(|x| (x.t, x.seq) < (it.t, it.seq));
        self.0.insert(at, it);
    }

    fn pop(&mut self) -> Option<It> {
        (!self.0.is_empty()).then(|| self.0.remove(0))
    }

    /// The leading run of items sharing the minimum's `t`.
    fn pop_batch(&mut self) -> Vec<It> {
        let n = self.0.iter().take_while(|x| x.t == self.0[0].t).count();
        self.0.drain(..n).collect()
    }
}

#[derive(Debug, Clone)]
enum Step {
    /// Push at an absolute time.
    Push(u64),
    /// Push `d` ns after the last popped time: the scheduler's shape,
    /// where an event's successor is due a little after it.
    PushAhead(u64),
    Pop,
    PopBatch,
}

/// Pushes on a coarse tie grid, anywhere, and just ahead of the pop
/// frontier, interleaved with pops and batch pops.
fn step_strategy() -> impl Strategy<Value = Step> {
    (0u64..10, 0u64..64, 0u64..(1u64 << 34)).prop_map(|(kind, bucket, raw)| match kind {
        0 | 1 => Step::Push(bucket * 256),
        2 => Step::Push(raw),
        3..=5 => Step::PushAhead(raw % 2_048),
        6..=8 => Step::Pop,
        _ => Step::PopBatch,
    })
}

proptest! {
    #[test]
    fn interleaved_ops_match_sorted_oracle(
        steps in proptest::collection::vec(step_strategy(), 1..300),
    ) {
        let mut q = CalendarQueue::new();
        let mut oracle = Sorted::default();
        let (mut seq, mut frontier) = (0u64, 0u64);
        for step in &steps {
            prop_assert_eq!(q.len(), oracle.0.len());
            let t = match *step {
                Step::Push(t) => t,
                Step::PushAhead(d) => frontier + d,
                Step::Pop => {
                    let want = oracle.pop();
                    prop_assert_eq!(q.peek_key(), want.map(|it| (it.t, it.seq)));
                    prop_assert_eq!(q.pop(), want);
                    frontier = want.map_or(frontier, |it| it.t);
                    continue;
                }
                Step::PopBatch => {
                    let mut got = Vec::new();
                    prop_assert_eq!(q.pop_batch(&mut got), got.len());
                    let want = oracle.pop_batch();
                    frontier = want.first().map_or(frontier, |it| it.t);
                    prop_assert_eq!(got, want);
                    continue;
                }
            };
            q.push(It { t, seq });
            oracle.push(It { t, seq });
            seq += 1;
        }
        // Full drain: the tails must agree element for element too.
        while let Some(want) = oracle.pop() {
            prop_assert_eq!(q.pop(), Some(want));
        }
        prop_assert!(q.is_empty());
    }
}

/// splitmix64 — seeded stream generator (no external RNG needed).
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Equal times pop by `seq`, whatever order they were pushed in: every
/// time is one of 64 grid points, and the `seq`s are pushed as a
/// permutation (an odd multiplier is a bijection modulo 2^13).
#[test]
fn seeded_bulk_streams_drain_identically() {
    for seed in [1u64, 42, 0xDEAD_BEEF] {
        let mut s = seed;
        let mut q = CalendarQueue::new();
        let mut oracle = Sorted::default();
        for i in 0..8_192u64 {
            let it = It {
                t: (splitmix(&mut s) % 64) * 256,
                seq: i.wrapping_mul(0x9E37) & 0x1FFF,
            };
            q.push(it);
            oracle.push(it);
        }
        let mut n = 0u64;
        while let Some(want) = oracle.pop() {
            assert_eq!(q.pop(), Some(want), "seed {seed}, position {n}");
            n += 1;
        }
        assert_eq!(n, 8_192);
        assert!(q.is_empty());
    }
}

#[test]
fn batched_drain_concatenation_equals_single_pops() {
    let mut s = 7u64;
    let mut q = CalendarQueue::new();
    let mut oracle = Sorted::default();
    for seq in 0..4_000u64 {
        let t = (splitmix(&mut s) % 512) * 64;
        q.push(It { t, seq });
        oracle.push(It { t, seq });
    }
    let mut got = Vec::new();
    let mut batch = Vec::new();
    while q.pop_batch(&mut batch) > 0 {
        assert!(
            batch.iter().all(|it| it.t == batch[0].t),
            "batch spans timestamps"
        );
        got.append(&mut batch);
    }
    let mut want = Vec::new();
    while let Some(it) = oracle.pop() {
        want.push(it);
    }
    assert_eq!(got, want);
}
