//! Property tests of the virtual platform: determinism and conservation
//! invariants under randomized workloads.

use mtmpi_locks::PathClass;
use mtmpi_net::NetModel;
use mtmpi_sim::{LockKind, LockModelParams, Platform, ThreadDesc, VirtualPlatform};
use mtmpi_topology::presets::nehalem_cluster_scaled;
use mtmpi_topology::CoreId;
use proptest::prelude::*;
use std::sync::{Arc, Mutex};

/// A randomized workload description: per thread, a list of
/// (compute_ns, hold_ns) critical sections. Returns the end time and, in
/// critical-section order, who entered and at what virtual time (logged
/// from inside the section).
fn run_workload(kind: LockKind, seed: u64, plan: &[Vec<(u16, u16)>]) -> (u64, Vec<(u32, u64)>) {
    let p = Arc::new(VirtualPlatform::new(
        nehalem_cluster_scaled(1),
        NetModel::qdr(),
        LockModelParams::default(),
        seed,
    ));
    let lock = p.lock_create(kind);
    let entries = Arc::new(Mutex::new(Vec::new()));
    for (i, ops) in plan.iter().enumerate() {
        let p2 = p.clone();
        let ops = ops.clone();
        let entries = entries.clone();
        p.spawn(
            ThreadDesc {
                name: format!("t{i}"),
                node: 0,
                core: CoreId((i % 8) as u32),
            },
            Box::new(move || {
                for (think, hold) in ops {
                    p2.compute(u64::from(think));
                    p2.lock_acquire(lock, PathClass::Main);
                    entries.lock().unwrap().push((i as u32, p2.now_ns()));
                    p2.compute(u64::from(hold));
                    p2.lock_release(lock, PathClass::Main);
                }
            }),
        );
    }
    let report = p.run();
    let entries = std::mem::take(&mut *entries.lock().unwrap());
    // The lock's own statistics saw the same passages.
    assert_eq!(report.lock_grants[0].total(), entries.len() as u64);
    (report.end_ns, entries)
}

fn plan_strategy() -> impl Strategy<Value = Vec<Vec<(u16, u16)>>> {
    proptest::collection::vec(
        proptest::collection::vec((0u16..2000, 1u16..2000), 1..25),
        1..6,
    )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// Same seed + same plan → bit-identical schedule, for every lock kind.
    #[test]
    fn deterministic_under_random_plans(plan in plan_strategy(), seed in 0u64..1000) {
        for kind in [LockKind::Mutex, LockKind::Ticket, LockKind::Priority] {
            let a = run_workload(kind, seed, &plan);
            let b = run_workload(kind, seed, &plan);
            prop_assert_eq!(&a, &b, "nondeterminism under {:?}", kind);
        }
    }

    /// Every planned acquisition happens exactly once (conservation), and
    /// virtual time covers at least the serial critical-section time.
    #[test]
    fn conservation_and_lower_bound(plan in plan_strategy(), seed in 0u64..1000) {
        let total_acqs: usize = plan.iter().map(Vec::len).sum();
        let serial_hold: u64 = plan
            .iter()
            .flat_map(|ops| ops.iter().map(|&(_, h)| u64::from(h)))
            .sum();
        let (end, entries) = run_workload(LockKind::Ticket, seed, &plan);
        prop_assert_eq!(entries.len(), total_acqs);
        prop_assert!(end >= serial_hold, "end {} < serial hold {}", end, serial_hold);
        // Per-thread counts match the plan.
        for (i, ops) in plan.iter().enumerate() {
            let got = entries.iter().filter(|&&(o, _)| o == i as u32).count();
            prop_assert_eq!(got, ops.len(), "thread {}", i);
        }
    }

    /// The ticket schedule never grants the lock while it is held:
    /// acquisition timestamps are non-decreasing and separated by at
    /// least the hold time of the previous owner... (weak form: sorted).
    #[test]
    fn grant_times_sorted(plan in plan_strategy(), seed in 0u64..100) {
        let (_, entries) = run_workload(LockKind::Ticket, seed, &plan);
        prop_assert!(entries.windows(2).all(|w| w[0].1 <= w[1].1), "grants out of order");
    }
}
