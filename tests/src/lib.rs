//! Cross-crate integration tests live in tests/tests/; what several of
//! them share lives here.

use mtmpi::prelude::*;

/// `(len, FNV-1a)` of a rendered artefact — the form byte pins take.
pub fn pin(text: &str) -> (usize, u64) {
    let fnv = text.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    });
    (text.len(), fnv)
}

/// The seeded 8-thread Mutex ping-pong whose rendered artefacts are
/// pinned byte for byte (`tests/prof.rs`, `tests/observability.rs`).
pub fn pinned_mutex_run() -> RunOutcome {
    let exp = Experiment::with_seed(2, 29).trace(true);
    exp.run(
        RunConfig::new(Method::Mutex)
            .nodes(2)
            .ranks_per_node(1)
            .threads_per_rank(8),
        |ctx| {
            let h = ctx.rank.world_comm();
            let tag = ctx.thread as i32;
            for _ in 0..20 {
                if h.rank() == 0 {
                    h.send(1, tag, MsgData::Synthetic(256));
                    let _ = h.recv(Some(1), Some(tag));
                } else {
                    let _ = h.recv(Some(0), Some(tag));
                    h.send(0, tag, MsgData::Synthetic(8));
                }
            }
        },
    )
}
