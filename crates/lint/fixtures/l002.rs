//! L002 negative fixture — Acquire-less loads of published state.
//!
//! Not compiled: parsed by `tests/rules.rs`; lines marked `FIRE: L002`
//! must be flagged, `ALLOWED` sites suppressed.

use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicU8, Ordering};

pub struct Published {
    ready: AtomicBool,
    seq: AtomicU64,
    ack: AtomicU64,
    mail_ready: AtomicBool,
    stream_owner: AtomicU64,
    claim: AtomicU8,
    scratch: AtomicU32,
}

impl Published {
    pub fn consume_wrong(&self) -> bool {
        self.ready.load(Ordering::Relaxed) // FIRE: L002
    }

    pub fn seq_wrong(&self) -> u64 {
        self.seq.load(Ordering::Relaxed) // FIRE: L002
    }

    pub fn mailbox_wrong(&self) -> bool {
        self.mail_ready.load(Ordering::Relaxed) // FIRE: L002
    }

    pub fn ack_right(&self) -> u64 {
        self.ack.load(Ordering::Acquire)
    }

    pub fn stream_owner_wrong(&self) -> u64 {
        // Checking "is the stream free?" without the Acquire misses the
        // previous owner's plain-state publication.
        self.stream_owner.load(Ordering::Relaxed) // FIRE: L002
    }

    pub fn stream_owner_right(&self) -> u64 {
        self.stream_owner.load(Ordering::Acquire)
    }

    pub fn claim_wrong(&self) -> u8 {
        // Seeing the wildcard claim token without the Acquire misses the
        // claimant's writes to the request it completed.
        self.claim.load(Ordering::Relaxed) // FIRE: L002
    }

    pub fn claim_right(&self) -> u8 {
        self.claim.load(Ordering::Acquire)
    }

    pub fn claim_self_read_allowed(&self) -> u8 {
        // lint: allow(L002) fixture: the claimant reads back its own token
        self.claim.load(Ordering::Relaxed) // ALLOWED: L002
    }

    pub fn scratch_ok(&self) -> u32 {
        // `scratch` is not published state — must not fire.
        self.scratch.load(Ordering::Relaxed)
    }

    pub fn peek_allowed(&self) -> bool {
        // lint: allow(L002) TTAS-style peek; the fixture's pretend CAS has the Acquire
        self.ready.load(Ordering::Relaxed) // ALLOWED: L002
    }
}
