//! Collective-operation tests across rank counts (powers of two and odd
//! sizes exercise both binomial-tree shapes).

use mtmpi_net::NetModel;
use mtmpi_runtime::World;
use mtmpi_sim::{LockKind, LockModelParams, Platform, ThreadDesc, VirtualPlatform};
use mtmpi_topology::presets::nehalem_cluster_scaled;
use mtmpi_topology::CoreId;
use std::sync::{Arc, Mutex};

fn run_all_ranks(
    n: u32,
    kind: LockKind,
    seed: u64,
    f: impl Fn(mtmpi_runtime::RankHandle) + Send + Sync + 'static,
) {
    let p: Arc<dyn Platform> = Arc::new(VirtualPlatform::new(
        nehalem_cluster_scaled(n),
        NetModel::qdr(),
        LockModelParams::default(),
        seed,
    ));
    let w = World::builder(p.clone())
        .ranks(n)
        .rank_on_node(|r| r)
        .lock(kind)
        .build()
        .expect("valid world");
    let f = Arc::new(f);
    for r in 0..n {
        let h = w.rank(r);
        let f = f.clone();
        p.spawn(
            ThreadDesc {
                name: format!("r{r}"),
                node: r,
                core: CoreId(0),
            },
            Box::new(move || f(h)),
        );
    }
    p.run();
}

#[test]
fn allreduce_sum_various_sizes() {
    for n in [1u32, 2, 3, 4, 5, 7, 8, 13] {
        run_all_ranks(n, LockKind::Ticket, u64::from(n), move |h| {
            let got = h.allreduce_sum_u64(u64::from(h.rank()) + 1);
            let want = u64::from(n) * (u64::from(n) + 1) / 2;
            assert_eq!(got, want, "n={n}");
        });
    }
}

#[test]
fn allreduce_max_various_sizes() {
    for n in [2u32, 3, 6, 9] {
        run_all_ranks(n, LockKind::Mutex, 100 + u64::from(n), move |h| {
            let got = h.allreduce_max_u64(u64::from(h.rank()) * 3 + 1);
            assert_eq!(got, u64::from(n - 1) * 3 + 1, "n={n}");
        });
    }
}

#[test]
fn allreduce_f64_is_deterministic_order() {
    // Reduction order is fixed by the tree, so repeated runs agree
    // bitwise even for floating point.
    let vals = Arc::new(Mutex::new(Vec::new()));
    for _ in 0..2 {
        let vals = vals.clone();
        run_all_ranks(6, LockKind::Ticket, 42, move |h| {
            let x = 0.1f64 * f64::from(h.rank() + 1);
            let s = h.allreduce_sum_f64(x);
            if h.rank() == 0 {
                vals.lock().expect("vals lock").push(s.to_bits());
            }
        });
    }
    let vals = vals.lock().expect("vals lock");
    assert_eq!(vals[0], vals[1], "bitwise reproducible float reduction");
}

#[test]
fn bcast_from_root_delivers_everywhere() {
    for n in [2u32, 5, 8] {
        run_all_ranks(n, LockKind::Priority, 200 + u64::from(n), move |h| {
            let payload = if h.rank() == 0 {
                vec![9, 9, 9, u8::try_from(n).unwrap()]
            } else {
                vec![]
            };
            let got = h.bcast_from_root(payload);
            assert_eq!(
                got,
                vec![9, 9, 9, u8::try_from(n).unwrap()],
                "rank {}",
                h.rank()
            );
        });
    }
}

#[test]
fn consecutive_barriers_do_not_cross_talk() {
    run_all_ranks(4, LockKind::Ticket, 77, |h| {
        for _ in 0..10 {
            h.barrier();
        }
    });
}

#[test]
fn collectives_interleave_with_p2p() {
    // pt2pt traffic on user tags must not disturb collectives on the
    // internal communicator.
    run_all_ranks(4, LockKind::Mutex, 88, |h| {
        let c = h.world_comm();
        let right = (h.rank() + 1) % h.nranks();
        let left = (h.rank() + h.nranks() - 1) % h.nranks();
        let s = c.isend(
            right,
            7,
            mtmpi_runtime::MsgData::Bytes(vec![h.rank() as u8]),
        );
        let sum = h.allreduce_sum_u64(1);
        assert_eq!(sum, 4);
        let m = c.recv(Some(left), Some(7));
        assert_eq!(m.data.as_bytes(), &[left as u8]);
        c.wait(s);
        h.barrier();
    });
}
