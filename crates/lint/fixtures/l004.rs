//! L004 negative fixture — nondeterminism sources in deterministic code.
//!
//! Not compiled: parsed by `tests/rules.rs` with a `crates/sim/src/`
//! path so the rule is in scope. Lines marked `FIRE: L004` must be
//! flagged; `#[cfg(test)]` regions and `ALLOWED` sites are exempt.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::time::{Instant, SystemTime};

pub struct Book {
    by_rank: HashMap<u32, u64>,
    members: HashSet<u32>,
    ordered: BTreeMap<u32, u64>,
}

pub fn stamp_wrong() -> Instant {
    Instant::now() // FIRE: L004
}

pub fn wall_wrong() -> u64 {
    let _t = SystemTime::now(); // FIRE: L004
    0
}

pub fn entropy_wrong() -> u64 {
    let mut rng = thread_rng(); // FIRE: L004
    rng.next()
}

pub fn ambient_wrong() -> u64 {
    rand::random() // FIRE: L004
}

pub fn env_wrong() -> bool {
    std::env::var("MTMPI_FUEL").is_ok() // FIRE: L004
}

pub fn argv_ok() -> bool {
    // Arguments are explicit input, not inherited state — must not fire.
    std::env::args().any(|a| a == "--trace")
}

pub fn hash_iter_wrong(b: &Book) -> u64 {
    b.by_rank.values().sum() // FIRE: L004
}

pub fn hash_for_wrong(b: &Book) -> u64 {
    let mut total = 0;
    for r in &b.members { // FIRE: L004
        total += u64::from(*r);
    }
    total
}

pub fn local_hash_wrong() -> usize {
    let seen = HashSet::new();
    seen.iter().count() // FIRE: L004
}

pub fn btree_iter_ok(b: &Book) -> u64 {
    // Ordered container — must not fire.
    b.ordered.values().sum()
}

pub fn membership_ok(b: &Book) -> bool {
    // Membership ops are deterministic — must not fire.
    b.members.contains(&3) && b.by_rank.get(&3).is_some()
}

pub fn allowed_site() -> Instant {
    // lint: allow(L004) fixture: the pretend native backend measures wall time
    Instant::now() // ALLOWED: L004
}

pub fn allowed_env() -> bool {
    // lint: allow(L004) fixture: the pretend shim mirrors a real crate's env interface
    std::env::var_os("LOOM_LOG").is_some() // ALLOWED: L004
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tests_are_exempt() {
        let _ = Instant::now();
        let m: HashMap<u32, u32> = HashMap::new();
        let _ = m.iter().count();
    }
}
