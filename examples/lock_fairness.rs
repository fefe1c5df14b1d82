//! Real-lock fairness demo on *this* machine: hammer each lock
//! implementation with real threads and report acquisition fairness.
//!
//! Unlike the figure binaries (which use the virtual platform to model
//! the paper's NUMA machine), this example exercises the genuine lock
//! implementations from `mtmpi-locks` natively.
//!
//! ```text
//! cargo run -p mtmpi-examples --release --bin lock_fairness
//! ```

use mtmpi_locks::{
    set_current_core, CsLock, FutexMutex, PathClass, PriorityTicketLock, TicketLock, Traced,
};
use mtmpi_topology::{CoreId, SocketId};
use std::sync::Arc;

fn hammer<L: CsLock + 'static>(name: &str, lock: L, threads: u32, iters: u64) {
    let lock = Arc::new(Traced::new(lock));
    let handles: Vec<_> = (0..threads)
        .map(|i| {
            let lock = lock.clone();
            std::thread::spawn(move || {
                set_current_core(CoreId(i), SocketId(i / 4));
                for _ in 0..iters {
                    lock.acquire(PathClass::Main);
                    std::hint::black_box(0u64); // critical section body
                    lock.release(PathClass::Main);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let grants = lock.grants();
    println!(
        "{name:>10}: {:>8} acquisitions, Jain fairness {:.4}, longest monopoly {:>6}, mean wait {:>8.0} ns",
        grants.total(),
        grants.jain_index(),
        grants.longest_monopoly(),
        grants.mean_wait_ns(),
    );
}

fn main() {
    let threads = 4;
    let iters = 4_000;
    println!("Hammering each lock with {threads} real threads x {iters} acquisitions:\n");
    println!("(single-core hosts serialize the spinning; counts are kept modest)\n");
    hammer("mutex", FutexMutex::new(), threads, iters);
    hammer("ticket", TicketLock::new(), threads, iters);
    hammer("priority", PriorityTicketLock::new(), threads, iters);
    println!("\nThe ticket lock's Jain index should be ~1.0 (FIFO); the barging");
    println!("mutex typically shows longer monopoly runs, host permitting.");
}
