//! L007 negative fixture — a host guard held across a suspension.
//!
//! Not compiled: parsed by `tests/rules.rs`. Lines marked `FIRE: L007`
//! must be flagged (the `let` that binds the guard); guards that are
//! scoped, dropped, temporary or dereferenced away before the platform
//! call, and `ALLOWED` sites, are exempt.

use std::cell::RefCell;
use std::sync::{Mutex, RwLock};

pub fn guard_across_yield(p: &dyn Platform, visited: &Mutex<Vec<u64>>) {
    let mut v = visited.lock().unwrap(); // FIRE: L007
    v.push(1);
    p.yield_now();
}

pub fn guard_across_cs_entry(p: &dyn Platform, l: LockId, sums: &Mutex<u64>) {
    let mut total = sums.lock().expect("poisoned"); // FIRE: L007
    let tok = p.lock_acquire(l, PathClass::Main);
    *total += 1;
    p.lock_release(l, PathClass::Main, tok);
}

pub fn rwlock_and_refcell(p: &dyn Platform, ep: usize, t: &RwLock<Vec<u8>>, c: &RefCell<u32>) {
    let table = t.read().unwrap_or_else(|e| e.into_inner()); // FIRE: L007
    let mut count = c.borrow_mut(); // FIRE: L007
    for pkt in p.net_poll(ep) {
        *count += table.len() as u32;
        drop(pkt);
    }
}

pub fn parking_lot_style(p: &dyn Platform, src: usize, dst: usize, out: &PlMutex<Vec<u8>>) {
    let staged = out.lock(); // FIRE: L007
    p.net_send(src, dst, staged.len() as u64, Box::new(()));
}

pub fn inside_the_virtual_platform(c: &WorkerCtx, log: &Mutex<Vec<u64>>) {
    let g = log.lock().unwrap(); // FIRE: L007
    c.sync(Op::Fence);
    drop(g);
}

pub fn scoped_before_the_call(p: &dyn Platform, visited: &Mutex<Vec<u64>>) {
    {
        let mut v = visited.lock().unwrap();
        v.push(1);
    }
    p.yield_now();
}

pub fn dropped_before_the_call(p: &dyn Platform, visited: &Mutex<Vec<u64>>) {
    let mut v = visited.lock().unwrap();
    v.push(1);
    drop(v);
    p.yield_now();
}

pub fn temporaries_die_with_their_statement(p: &dyn Platform, visited: &Mutex<Vec<u64>>) {
    visited.lock().unwrap().push(1);
    let n = visited.lock().unwrap().len();
    let first = *visited.lock().unwrap().first().unwrap_or(&0);
    let _ = visited.lock();
    p.compute(n as u64 + first);
    p.yield_now();
}

pub fn guard_without_a_suspension(p: &dyn Platform, visited: &Mutex<Vec<u64>>) {
    // `compute` and `now_ns` never leave the worker.
    let mut v = visited.lock().unwrap();
    p.compute(100);
    v.push(p.now_ns());
}

pub fn io_read_is_not_a_guard(p: &dyn Platform, f: &mut File, buf: &mut [u8]) {
    let n = f.read(buf).unwrap();
    p.yield_now();
    let _ = n;
}

pub fn allowed_site(p: &dyn Platform, private: &Mutex<Vec<u64>>) {
    // lint: allow(L007) fixture: this mutex is private to the one worker
    let mut v = private.lock().unwrap(); // ALLOWED: L007
    p.yield_now();
    v.push(2);
}
