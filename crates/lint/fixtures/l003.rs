//! L003 negative fixture — nested critical-section entry.
//!
//! Not compiled: parsed by `tests/rules.rs` with a `crates/runtime/src/`
//! path so the rule is in scope. Lines marked `FIRE: L003` must be
//! flagged; the fixpoint must mark `helper_enters` as cs-entering and
//! leave `innocent_helper` clean.

pub struct World;

impl World {
    pub fn cs<R>(&self, f: impl FnOnce() -> R) -> R {
        f()
    }
    pub fn cs_on<R>(&self, _shard: usize, f: impl FnOnce() -> R) -> R {
        f()
    }
}

// Enters the CS itself → the fixpoint marks it, and free calls to it
// from inside a CS closure are second entries.
fn helper_enters(w: &World) {
    w.cs(|| 0);
}

// Never touches a CS — calls to it anywhere are fine.
fn innocent_helper() -> u32 {
    7
}

pub fn nested_direct(w: &World) {
    w.cs(|| {
        w.cs_on(0, || 1); // FIRE: L003
    });
}

pub fn nested_interprocedural(w: &World) {
    w.cs_on(1, || {
        helper_enters(w); // FIRE: L003
        innocent_helper();
    });
}

pub fn sequential_ok(w: &World) {
    // Back-to-back sections (release between) — must not fire.
    w.cs(|| 2);
    w.cs(|| 3);
    helper_enters(w);
}

pub fn allowed_site(w: &World) {
    w.cs(|| {
        // lint: allow(L003) fixture: proves suppression; no runtime site nests a CS
        helper_enters(w); // ALLOWED: L003
    });
}
