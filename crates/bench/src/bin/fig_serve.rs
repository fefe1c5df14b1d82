//! Service-harness scaling: thousands of concurrent tenant worlds on a
//! fixed OS-thread worker pool (`mtmpi-serve`).
//!
//! Not a paper figure — it evaluates the *service layer* over the
//! deterministic platform: the PPoPP'15 contention story replayed as a
//! multi-tenant runtime, where the contended resource is the worker
//! pool itself and fairness is measured across tenants instead of
//! threads. Two sweeps:
//!
//! * **Worker sweep** — the grid serves 1000 tenants (mixed
//!   pt2pt / RMA / BFS templates) on 1, 2, 4, and 8 workers. Every
//!   per-tenant outcome (virtual end time, events, `sched_trace_hash`,
//!   grants, payload) must be byte-identical across pool sizes
//!   (`serve_digest_match`, asserted in-process); starvation freedom
//!   and the quantum-grant fairness bar (Gini < 0.2 on the uniform
//!   slice) are asserted too. The reference per-tenant digest is
//!   written to `results/fig_serve.tenants.txt` for the CI `cmp` gate.
//! * **Quantum sweep** — the same tenant population at quantum 64 /
//!   256 / 1024: grant totals scale as `ceil(events/quantum)` while
//!   world results stay bit-identical (asserted per tenant).
//!
//! Every member of the BENCH document is deterministic per seed and
//! gates exactly (`serve_total_events`, `serve_total_grants*`,
//! `serve_grant_gini_x1e4`, `serve_digest_match`, …). Wall-clock rates
//! scale with host cores, so they are printed (the `summary()` lines and
//! the wall table) and never written to the document; `benchmark/`'s
//! `serve.*` rows measure them pinned and repeated.

use mtmpi::prelude::*;
use mtmpi_bench::{print_figure_header, Fig};
use mtmpi_serve::{serve, JobTemplate, ServeConfig, ServeReport};

/// Worker-pool sizes swept (the acceptance grid).
const WORKERS: [u32; 4] = [1, 2, 4, 8];
/// Event quanta swept at the fixed pool size.
const QUANTA: [u64; 3] = [64, 256, 1024];

fn mixed_cfg(tenants: u32, workers: u32, quantum: u64) -> ServeConfig {
    ServeConfig::new(workers, tenants)
        .quantum(quantum)
        .max_live(64)
        .templates(vec![
            JobTemplate::Pt2pt { msgs: 4, bytes: 64 },
            JobTemplate::Rma { ops: 3, bytes: 64 },
            JobTemplate::Bfs {
                scale: 4,
                threads: 2,
            },
        ])
}

fn main() {
    print_figure_header(
        "Service sweep",
        "(no paper analogue) multi-tenant worlds on a fixed OS-thread worker pool",
        "tenant digests for determinism, grant Gini for fairness, wall rates for context",
    );
    // The scale axis is tenant count: the acceptance grid is ≥1000
    // concurrent worlds through a 64-wide admission window on ≤8
    // workers.
    let tenants: u32 = 1000;
    let quantum_tenants: u32 = 240;

    let mut fig = Fig::new("fig_serve");

    // Part 1: worker sweep at quantum 256. One reference digest, every
    // other pool size must reproduce it byte for byte.
    let mut rate_series = Series::new("events/s (wall)".to_owned());
    let mut p99_series = Series::new("p99 latency ms (wall)".to_owned());
    let mut reference: Option<ServeReport> = None;
    for workers in WORKERS {
        eprintln!("[fig_serve] {tenants} tenants on {workers} workers ...");
        let report = serve(&mixed_cfg(tenants, workers, 256));
        println!("{}", report.summary());
        assert_eq!(
            report.failed(),
            0,
            "tenants must complete: {}",
            report.summary()
        );
        assert!(
            report.tenants.iter().all(|t| t.grants >= 1 && t.events > 0),
            "starved tenant in the {workers}-worker run"
        );
        if let Some(r) = &reference {
            assert_eq!(
                r.tenant_digest(),
                report.tenant_digest(),
                "per-tenant digest diverged between 1 and {workers} workers"
            );
        }
        rate_series.push(f64::from(workers), report.events_per_sec());
        p99_series.push(f64::from(workers), report.p99_latency_ns() as f64 / 1e6);
        if reference.is_none() {
            reference = Some(report);
        }
    }
    let reference = reference.expect("worker sweep ran");
    let t = Table::from_series("workers | wall:", &[rate_series, p99_series]);
    print!("{}", t.render());
    // Wall rates are stdout context only; nothing host-timed enters the
    // BENCH document.

    // Deterministic contract scalars: exact-gated by bench-diff.
    fig.scalar("serve_digest_match", 1.0);
    fig.scalar("serve_total_events", reference.total_events() as f64);
    fig.scalar(
        "serve_total_grants",
        reference.tenants.iter().map(|t| t.grants).sum::<u64>() as f64,
    );
    // Grant Gini over the *mixed* population reflects template size
    // spread; the fairness bar proper is checked on the uniform slice
    // below. Scaled/rounded so the committed JSON carries an integer.
    fig.scalar(
        "serve_grant_gini_x1e4",
        (reference.grant_gini() * 1e4).round(),
    );

    // Fairness bar: a uniform workload must split grants near-evenly
    // (Gini < 0.2) — no tenant monopolizes the pool.
    {
        eprintln!("[fig_serve] uniform fairness slice ...");
        let uniform = serve(
            &ServeConfig::new(4, tenants.min(500))
                .quantum(64)
                .max_live(64)
                .templates(vec![JobTemplate::Pt2pt { msgs: 4, bytes: 64 }]),
        );
        assert_eq!(uniform.failed(), 0);
        let gini = uniform.grant_gini();
        println!("uniform slice: {}", uniform.summary());
        assert!(gini < 0.2, "grant gini {gini} over the 0.2 fairness bar");
        fig.scalar("serve_uniform_grant_gini_x1e4", (gini * 1e4).round());
    }

    // Part 2: quantum sweep — scheduling granularity changes grant
    // counts, never world results.
    let mut grants_series = Series::new("total grants".to_owned());
    let mut q_reference: Option<ServeReport> = None;
    for quantum in QUANTA {
        eprintln!("[fig_serve] quantum {quantum} ({quantum_tenants} tenants) ...");
        let report = serve(&mixed_cfg(quantum_tenants, 4, quantum));
        assert_eq!(report.failed(), 0);
        let grants: u64 = report.tenants.iter().map(|t| t.grants).sum();
        for tn in &report.tenants {
            assert_eq!(
                tn.grants,
                tn.events.div_ceil(quantum),
                "tenant {} grants off the ceil(events/quantum) law",
                tn.id
            );
        }
        if let Some(r) = &q_reference {
            for (a, b) in r.tenants.iter().zip(&report.tenants) {
                assert_eq!(
                    (a.end_ns, a.events, a.sched_trace_hash, a.payload),
                    (b.end_ns, b.events, b.sched_trace_hash, b.payload),
                    "tenant {} world result changed with the quantum",
                    a.id
                );
            }
        }
        grants_series.push(quantum as f64, grants as f64);
        fig.scalar(format!("serve_total_grants_q{quantum}"), grants as f64);
        if q_reference.is_none() {
            q_reference = Some(report);
        }
    }
    let t = Table::from_series("quantum | grants:", &[grants_series.clone()]);
    print!("{}", t.render());
    fig.series(&grants_series);
    fig.scalar("serve_quantum_invariance", 1.0);

    // `xtask bench-diff` compares this file with
    // `results/baseline/fig_serve.tenants.txt` (it is pure
    // virtual-platform output, so it is host-independent).
    std::fs::create_dir_all("results").expect("create results/");
    std::fs::write("results/fig_serve.tenants.txt", reference.tenant_digest())
        .expect("write per-tenant digest");
    println!(
        "\nper-tenant digest: results/fig_serve.tenants.txt ({} tenants, service hash {:016x})",
        reference.tenants.len(),
        reference.digest_hash()
    );

    fig.finish();
}
