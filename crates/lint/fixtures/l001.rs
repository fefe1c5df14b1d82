//! L001 negative fixture — Relaxed mutations of hand-off fields.
//!
//! Not compiled: parsed by `tests/rules.rs`, which expects exactly the
//! lines marked `FIRE: L001` to be flagged (and the `allow` site to be
//! suppressed). Lives outside the engine's scan roots.

use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicU8, Ordering};

pub struct Handoff {
    state: AtomicU32,
    now_serving: AtomicU32,
    claim: AtomicU8,
    ready: AtomicBool,
    stream_owner: AtomicU64,
    count: AtomicU64,
}

impl Handoff {
    pub fn unlock_wrong(&self) {
        self.state.store(0, Ordering::Relaxed); // FIRE: L001
    }

    pub fn serve_next_wrong(&self) {
        self.now_serving.fetch_add(1, Ordering::Relaxed); // FIRE: L001
    }

    pub fn claim_wrong(&self) -> bool {
        // Relaxed *success* ordering on the claim CAS: no Release edge.
        self.claim.compare_exchange(0, 1, Ordering::Relaxed, Ordering::Relaxed).is_ok() // FIRE: L001
    }

    pub fn claim_right(&self) -> bool {
        // Relaxed *failure* ordering is idiomatic — must not fire.
        self.claim.compare_exchange(0, 1, Ordering::AcqRel, Ordering::Relaxed).is_ok()
    }

    pub fn publish_right(&self) {
        self.ready.store(true, Ordering::Release);
    }

    pub fn stream_unbind_wrong(&self) {
        // Relaxed release of the stream claim word: the next binder's
        // Acquire CAS has nothing to pair with.
        self.stream_owner.store(0, Ordering::Relaxed); // FIRE: L001
    }

    pub fn stream_bind_wrong(&self, me: u64) -> bool {
        self.stream_owner.compare_exchange(0, me, Ordering::Relaxed, Ordering::Relaxed).is_ok() // FIRE: L001
    }

    pub fn stream_bind_right(&self, me: u64) -> bool {
        // The real bind: AcqRel success pairs with the unbind Release.
        self.stream_owner.compare_exchange(0, me, Ordering::AcqRel, Ordering::Acquire).is_ok()
    }

    pub fn stream_unbind_right(&self) {
        self.stream_owner.store(0, Ordering::Release);
    }

    pub fn stat_ok(&self) {
        // `count` is not a hand-off field — must not fire.
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    pub fn allowed_site(&self) {
        // lint: allow(L001) fixture: proves per-site suppression works
        self.state.store(0, Ordering::Relaxed); // ALLOWED: L001
    }
}
