//! Hold-model churn regression for the calendar queue: pop the minimum,
//! push a successor on a tie-heavy grid — the exact access pattern of
//! the steady-state scheduler (and of `benchmark/`'s queue probe), which
//! the randomized interleaving property test does not generate because
//! its push times are independent of the pop frontier.

use mtmpi_sim::{CalendarQueue, Keyed};
use std::collections::BinaryHeap;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
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

#[derive(Clone, Copy, PartialEq, Eq)]
struct Rev(It);
impl Ord for Rev {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (other.0.t, other.0.seq).cmp(&(self.0.t, self.0.seq))
    }
}
impl PartialOrd for Rev {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

const WINDOW_NS: u64 = 512 * 1024;

fn delta(rng: &mut u64) -> u64 {
    let r = splitmix64(rng);
    if r.is_multiple_of(64) {
        (2 + (r >> 8) % 8) * WINDOW_NS
    } else {
        ((r >> 8) % 2048) * 256
    }
}

/// Pop-successor churn must match the reference heap item for item.
#[test]
fn hold_model_churn_matches_reference_heap() {
    for seed in [8u64, 64, 0xFEED] {
        let mut cal: CalendarQueue<It> = CalendarQueue::new();
        let mut heap: BinaryHeap<Rev> = BinaryHeap::new();
        let mut rng_c = seed ^ 0x5EED;
        let mut rng_h = seed ^ 0x5EED;
        let mut seq = 0u64;
        for _ in 0..4096u64 {
            let (dc, dh) = (delta(&mut rng_c), delta(&mut rng_h));
            assert_eq!(dc, dh);
            cal.push(It { t: dc, seq });
            heap.push(Rev(It { t: dc, seq }));
            seq += 1;
        }
        for step in 0..200_000u64 {
            let a = cal.pop().expect("calendar never empties");
            let b = heap.pop().expect("heap never empties").0;
            assert_eq!(
                a, b,
                "seed {seed}: first divergence at step {step}: calendar popped \
                 (t={}, seq={}), reference popped (t={}, seq={})",
                a.t, a.seq, b.t, b.seq
            );
            let (dc, dh) = (delta(&mut rng_c), delta(&mut rng_h));
            assert_eq!(dc, dh);
            cal.push(It { t: a.t + dc, seq });
            heap.push(Rev(It { t: b.t + dh, seq }));
            seq += 1;
        }
    }
}
