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
    p.lock_acquire(l, PathClass::Main);
    *total += 1;
    p.lock_release(l, PathClass::Main);
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

pub fn guard_across_runtime_calls(c: &Comm, h: &RankHandle, next: &Mutex<Vec<u32>>) {
    let mut sh = next.lock(); // FIRE: L007
    let r = c.isend(1, 7, encode(&sh).into());
    sh.clear();
    drop(sh);
    let polled = next.lock(); // FIRE: L007
    let _ = c.test(r);
    drop(polled);
    let posted = next.lock(); // FIRE: L007
    let rx = c.irecv(None, Some(7));
    drop(posted);
    let all = next.lock(); // FIRE: L007
    c.waitall(vec![rx]);
    drop(all);
    let sum = next.lock(); // FIRE: L007
    h.allreduce_sum_u64(sum.len() as u64);
}

pub fn one_guard_per_section(c: &Comm, next: &Mutex<Vec<u32>>, rows: &[Vec<u32>]) {
    // The BFS kernel's shape: the guard's block ends before `isend`, and
    // the next section takes it again.
    let mut reqs = Vec::new();
    for row in rows {
        let batch = {
            let mut sh = next.lock();
            sh.extend_from_slice(row);
            encode(&sh)
        };
        reqs.push(c.isend(1, 7, batch.into()));
    }
    c.waitall(reqs);
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
