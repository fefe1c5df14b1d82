//! The service determinism contract, tested end to end: per-tenant
//! outcomes are a pure function of (seed, tenant id, template, quantum)
//! — independent of worker count, FIFO interleaving, and wall-clock
//! timing. CI `cmp`s exactly these digests across fig_serve reruns.

use mtmpi_serve::{serve, JobTemplate, ServeConfig};

fn mixed_cfg(tenants: u32, workers: u32) -> ServeConfig {
    ServeConfig::new(workers, tenants)
        .quantum(128)
        .max_live(16)
        .templates(vec![
            JobTemplate::Pt2pt { msgs: 4, bytes: 64 },
            JobTemplate::Rma { ops: 3, bytes: 64 },
            JobTemplate::Bfs {
                scale: 4,
                threads: 2,
            },
        ])
}

/// Same seed, same workers ⇒ byte-identical per-tenant BENCH output and
/// equal service hashes.
#[test]
fn same_config_rerun_is_byte_identical() {
    let cfg = mixed_cfg(24, 2);
    let a = serve(&cfg);
    let b = serve(&cfg);
    assert_eq!(
        a.failed(),
        0,
        "mixed workload must complete: {}",
        a.summary()
    );
    assert_eq!(a.tenant_digest(), b.tenant_digest());
    assert_eq!(a.digest_hash(), b.digest_hash());
}

/// Different worker counts ⇒ identical per-tenant results. The pool only
/// interleaves isolated worlds, so 1, 2, 4, and 8 workers all produce
/// the same digest.
#[test]
fn worker_count_does_not_change_tenant_results() {
    let reference = serve(&mixed_cfg(24, 1));
    assert_eq!(reference.failed(), 0);
    for workers in [2u32, 4, 8] {
        let run = serve(&mixed_cfg(24, workers));
        assert_eq!(
            reference.tenant_digest(),
            run.tenant_digest(),
            "digest diverged at {workers} workers"
        );
    }
}

/// The quantum changes *scheduling* (grant counts), never *results*:
/// per-tenant end_ns / events / sched_trace_hash / payload are invariant,
/// and grants follow `ceil(events / quantum)` exactly.
#[test]
fn quantum_changes_grants_not_world_results() {
    let coarse = serve(&mixed_cfg(12, 2).quantum(4096));
    let fine = serve(&mixed_cfg(12, 2).quantum(32));
    assert_eq!(coarse.failed(), 0);
    for (c, f) in coarse.tenants.iter().zip(&fine.tenants) {
        assert_eq!(c.id, f.id);
        assert_eq!(c.end_ns, f.end_ns, "tenant {}", c.id);
        assert_eq!(c.events, f.events, "tenant {}", c.id);
        assert_eq!(c.sched_trace_hash, f.sched_trace_hash, "tenant {}", c.id);
        assert_eq!(c.payload, f.payload, "tenant {}", c.id);
        assert_eq!(c.grants, c.events.div_ceil(4096), "tenant {}", c.id);
        assert_eq!(f.grants, f.events.div_ceil(32), "tenant {}", c.id);
    }
    assert!(
        fine.tenants.iter().map(|t| t.grants).sum::<u64>()
            > coarse.tenants.iter().map(|t| t.grants).sum::<u64>(),
        "a finer quantum must issue more grants"
    );
}

/// Typed failures are part of the contract: a fuel-starved service
/// renders the same per-tenant error lines on every rerun and at every
/// pool size.
#[test]
fn fuel_exhaustion_is_deterministic_across_workers() {
    let cfg = ServeConfig::new(2, 8)
        .quantum(64)
        .templates(vec![JobTemplate::Pt2pt {
            msgs: 64,
            bytes: 64,
        }])
        .fuel(Some(40));
    let a = serve(&cfg);
    assert_eq!(a.failed(), 8, "every tenant must hit the fuel wall");
    let b = serve(&cfg);
    assert_eq!(a.tenant_digest(), b.tenant_digest());
    let solo = serve(&ServeConfig {
        workers: 1,
        ..cfg.clone()
    });
    assert_eq!(a.tenant_digest(), solo.tenant_digest());
    // Behind a full admission window, each failed tenant must admit its
    // successor, or the pool never drains.
    let narrow = cfg.max_live(2);
    for workers in [1u32, 2] {
        let run = serve(&ServeConfig {
            workers,
            ..narrow.clone()
        });
        assert_eq!(run.failed(), 8, "every tenant must hit the fuel wall");
        assert_eq!(a.tenant_digest(), run.tenant_digest(), "{workers} workers");
    }
}

/// A tenant parked after a quantum is resumed by whichever worker is free,
/// so its suspended simulated threads — and with them each thread's tid,
/// placement and recorder shard — migrate between OS threads. With the
/// recorder on, the digest carries the blame the recorded timeline
/// yields, so it moves if any event lands in the wrong shard or with the
/// wrong stamp. Quantum 1 migrates at every event.
#[test]
fn tenants_migrating_between_workers_keep_their_digests() {
    for quantum in [1u64, 7, 256] {
        let cfg = |workers| mixed_cfg(12, workers).quantum(quantum).trace(true);
        let reference = serve(&cfg(1));
        assert_eq!(reference.failed(), 0, "{}", reference.summary());
        for workers in [2u32, 4] {
            assert_eq!(
                reference.tenant_digest(),
                serve(&cfg(workers)).tenant_digest(),
                "digest diverged at {workers} workers, quantum {quantum}"
            );
        }
    }
}
