//! Quickstart: a two-rank MPI-style exchange on the deterministic
//! virtual platform, run once per arbitration method.
//!
//! ```text
//! cargo run -p mtmpi-examples --bin quickstart
//! ```

use mtmpi::prelude::*;

fn main() {
    println!("mtmpi quickstart: 2 ranks x 4 threads, 1000 messages per thread\n");
    for method in Method::PAPER_TRIO {
        let exp = Experiment::quick(2);
        let out = exp.run(
            RunConfig::new(method)
                .nodes(2)
                .ranks_per_node(1)
                .threads_per_rank(4),
            |ctx| {
                // Communicator-first issuing surface: ops go through a
                // `Comm` handle (here the world communicator).
                let c = ctx.rank.world_comm();
                let tag = ctx.thread as i32;
                if c.rank() == 0 {
                    for i in 0..1_000u32 {
                        c.send(1, tag, MsgData::Bytes(i.to_le_bytes().to_vec()));
                    }
                } else {
                    for i in 0..1_000u32 {
                        let m = c.recv(Some(0), Some(tag));
                        let v = u32::from_le_bytes(m.data.as_bytes().try_into().unwrap());
                        assert_eq!(v, i, "messages arrive in order");
                    }
                }
            },
        );
        let msgs = 4 * 1_000u64;
        let grants = out.grants(1);
        // The unified post-run snapshot: counters + always-on histograms.
        let stats = out.stats(1);
        println!(
            "{:>8}: {:>7.2} ms virtual, {:>8.0} msg/s, receiver CS acquisitions: {}, \
             fairness (Jain): {:.3}, CS wait p50/p99: {}/{} ns",
            method.label(),
            out.end_ns as f64 / 1e6,
            out.msg_rate(msgs),
            grants.total(),
            grants.jain_index(),
            stats.cs_wait_ns.p50(),
            stats.cs_wait_ns.p99(),
        );
    }
    println!("\nSame workload, three arbitration methods — note the fair locks'");
    println!("higher message rate and Jain index under contention.");
}
