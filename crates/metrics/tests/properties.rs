//! Property tests for the analysis metrics.

use mtmpi_metrics::{
    summary, BiasAnalysis, DanglingSampler, FifoViolation, Grant, GrantFold, Series,
};
use mtmpi_topology::SocketId;
use proptest::prelude::*;
use std::collections::BTreeMap;

/// One grant, owned: the oracle below needs the whole sequence at once.
#[derive(Debug, Clone)]
struct Rec {
    owner: u32,
    socket: u32,
    waiting: u32,
    waiting_per_socket: Vec<u32>,
    wait_ns: u64,
}

/// Grant to `owner` (thread t on socket (t/4)%2) with `waiting` thread
/// ids queued.
fn rec(owner: u32, waiting: &[u32]) -> Rec {
    let mut per_socket = vec![0u32; 2];
    for &w in waiting {
        per_socket[(w as usize / 4) % 2] += 1;
    }
    Rec {
        owner,
        socket: (owner / 4) % 2,
        waiting: waiting.len() as u32,
        waiting_per_socket: per_socket,
        wait_ns: 0,
    }
}

fn fold(recs: &[Rec]) -> GrantFold {
    let mut f = GrantFold::new();
    for r in recs {
        f.record(Grant {
            owner: r.owner,
            socket: SocketId(r.socket),
            waiting: r.waiting,
            waiting_per_socket: &r.waiting_per_socket,
            wait_ns: r.wait_ns,
        });
    }
    f
}

/// Test-only oracle: the statistics as they were computed before the
/// fold existed, by scanning a complete log of grants (a `windows(2)`
/// pair scan for the bias sums and the FIFO rule, whole-log passes for
/// the rest). The fold must agree with it bit for bit.
struct Oracle {
    bias: BiasAnalysis,
    jain: f64,
    longest_monopoly: usize,
    mean_wait_ns: f64,
    fifo: Vec<FifoViolation>,
}

fn oracle(recs: &[Rec]) -> Oracle {
    let mut l = 0usize;
    let (mut xc, mut yc, mut xf, mut yf) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
    let mut fifo = Vec::new();
    for (i, w) in recs.windows(2).enumerate() {
        let (prev, cur) = (&w[0], &w[1]);
        if cur.owner == prev.owner && prev.waiting > 0 {
            fifo.push(FifoViolation {
                index: i as u64 + 1,
                owner: cur.owner,
                waiting_before: prev.waiting,
            });
        }
        if cur.waiting == 0 {
            continue;
        }
        let total = f64::from(cur.waiting) + 1.0;
        let waiting_there = cur
            .waiting_per_socket
            .get(prev.socket as usize)
            .copied()
            .unwrap_or(0);
        let winner_there = u32::from(cur.socket == prev.socket);
        xc += f64::from(cur.owner == prev.owner);
        yc += f64::from(cur.socket == prev.socket);
        xf += 1.0 / total;
        yf += f64::from(waiting_there + winner_there) / total;
        l += 1;
    }
    let n = l as f64;
    let bias = if l == 0 {
        BiasAnalysis {
            pc_observed: 0.0,
            ps_observed: 0.0,
            pc_fair: 0.0,
            ps_fair: 0.0,
            samples: 0,
        }
    } else {
        BiasAnalysis {
            pc_observed: xc / n,
            ps_observed: yc / n,
            pc_fair: xf / n,
            ps_fair: yf / n,
            samples: l,
        }
    };
    let mut per_thread = BTreeMap::new();
    for r in recs {
        *per_thread.entry(r.owner).or_insert(0u64) += 1;
    }
    let counts: Vec<f64> = per_thread.values().map(|&c| c as f64).collect();
    let s: f64 = counts.iter().sum();
    let s2: f64 = counts.iter().map(|c| c * c).sum();
    let jain = if s2 == 0.0 {
        1.0
    } else {
        s * s / (counts.len() as f64 * s2)
    };
    let (mut best, mut cur, mut prev) = (0usize, 0usize, None);
    for r in recs {
        cur = if prev == Some(r.owner) { cur + 1 } else { 1 };
        prev = Some(r.owner);
        best = best.max(cur);
    }
    let mean_wait_ns = if recs.is_empty() {
        0.0
    } else {
        recs.iter().map(|r| r.wait_ns as f64).sum::<f64>() / recs.len() as f64
    };
    Oracle {
        bias,
        jain,
        longest_monopoly: best,
        mean_wait_ns,
        fifo,
    }
}

/// Arbitrary grants: few owners so repeats are common, a per-socket slice
/// of varying length (sockets past its end count as empty) and a waiting
/// total drawn independently of it (a native lock reads the two racily).
fn recs_strategy() -> impl Strategy<Value = Vec<Rec>> {
    proptest::collection::vec(
        (
            0u32..5,
            0u32..3,
            0u32..4,
            proptest::collection::vec(0u32..4, 0..4),
            0u64..1_000_000,
        )
            .prop_map(
                |(owner, socket, waiting, waiting_per_socket, wait_ns)| Rec {
                    owner,
                    socket,
                    waiting,
                    waiting_per_socket,
                    wait_ns,
                },
            ),
        0..300,
    )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// The fold equals the whole-log scan, to the bit.
    #[test]
    fn fold_equals_pair_scan(recs in recs_strategy()) {
        let f = fold(&recs);
        let o = oracle(&recs);
        let (a, b) = (f.bias(), o.bias);
        prop_assert_eq!(a.samples, b.samples);
        prop_assert_eq!(a.pc_observed.to_bits(), b.pc_observed.to_bits());
        prop_assert_eq!(a.ps_observed.to_bits(), b.ps_observed.to_bits());
        prop_assert_eq!(a.pc_fair.to_bits(), b.pc_fair.to_bits());
        prop_assert_eq!(a.ps_fair.to_bits(), b.ps_fair.to_bits());
        prop_assert_eq!(f.jain_index().to_bits(), o.jain.to_bits());
        prop_assert_eq!(f.longest_monopoly(), o.longest_monopoly);
        prop_assert_eq!(f.mean_wait_ns().to_bits(), o.mean_wait_ns.to_bits());
        prop_assert_eq!(f.total(), recs.len() as u64);
        prop_assert_eq!(f.fifo_violations(), (o.fifo.len() as u64, o.fifo.first().copied()));
    }

    /// Jain's index is always in (0, 1] and equals 1 for constant counts.
    #[test]
    fn jain_bounds(owners in proptest::collection::vec(0u32..8, 1..500)) {
        let recs: Vec<Rec> = owners.iter().map(|&o| rec(o, &[])).collect();
        let j = fold(&recs).jain_index();
        prop_assert!(j > 0.0 && j <= 1.0 + 1e-12, "jain {}", j);
    }

    /// The fair estimator's Pc is always between 1/(max waiters+1) and 1.
    #[test]
    fn fair_pc_bounds(owners in proptest::collection::vec(0u32..8, 2..300), w in 1u32..7) {
        let recs: Vec<Rec> = owners
            .iter()
            .map(|&o| {
                let waiting: Vec<u32> = (0..w).map(|k| (o + 1 + k) % 8).collect();
                rec(o, &waiting)
            })
            .collect();
        let a = fold(&recs).bias();
        prop_assert!(a.pc_fair > 0.0 && a.pc_fair <= 1.0);
        prop_assert!(a.ps_fair > 0.0 && a.ps_fair <= 1.0);
        prop_assert!((a.pc_fair - 1.0 / f64::from(w + 1)).abs() < 1e-9,
            "uniform contention: fair Pc must be 1/(T)");
    }

    /// Observed probabilities are true frequencies: in [0, 1].
    #[test]
    fn observed_probability_bounds(owners in proptest::collection::vec(0u32..4, 2..300)) {
        let recs: Vec<Rec> = owners.iter().map(|&o| rec(o, &[(o + 1) % 4])).collect();
        let a = fold(&recs).bias();
        prop_assert!((0.0..=1.0).contains(&a.pc_observed));
        prop_assert!((0.0..=1.0).contains(&a.ps_observed));
    }

    /// Dangling sampler average is bounded by min/max of samples.
    #[test]
    fn dangling_average_bounds(samples in proptest::collection::vec(0u64..1000, 1..200)) {
        let mut d = DanglingSampler::new();
        for &s in &samples {
            d.sample(s);
        }
        let lo = *samples.iter().min().expect("non-empty") as f64;
        let hi = *samples.iter().max().expect("non-empty") as f64;
        prop_assert!(d.average() >= lo - 1e-9 && d.average() <= hi + 1e-9);
        prop_assert_eq!(d.max(), hi as u64);
        prop_assert_eq!(d.samples(), samples.len() as u64);
    }

    /// Merging samplers is equivalent to sampling the concatenation.
    #[test]
    fn dangling_merge_homomorphic(
        a in proptest::collection::vec(0u64..100, 0..50),
        b in proptest::collection::vec(0u64..100, 0..50),
    ) {
        let mut da = DanglingSampler::new();
        for &x in &a { da.sample(x); }
        let mut db = DanglingSampler::new();
        for &x in &b { db.sample(x); }
        da.merge(&db);
        let mut dc = DanglingSampler::new();
        for &x in a.iter().chain(&b) { dc.sample(x); }
        prop_assert_eq!(da.samples(), dc.samples());
        prop_assert_eq!(da.max(), dc.max());
        prop_assert!((da.average() - dc.average()).abs() < 1e-9);
    }

    /// Series ratio of a series against itself is exactly 1.
    #[test]
    fn series_self_ratio(points in proptest::collection::vec((1.0f64..1e6, 0.001f64..1e6), 1..50)) {
        let mut s = Series::new("s");
        let mut xs = std::collections::BTreeSet::new();
        for (x, y) in points {
            // distinct x only
            let xi = x as u64;
            if xs.insert(xi) {
                s.push(xi as f64, y);
            }
        }
        let r = s.mean_ratio_vs(&s).expect("overlapping x");
        prop_assert!((r - 1.0).abs() < 1e-9);
        let m = s.max_ratio_vs(&s).expect("overlapping x");
        prop_assert!((m - 1.0).abs() < 1e-9);
    }

    /// summary(): mean lies within [min, max]; stddev is non-negative.
    #[test]
    fn summary_invariants(xs in proptest::collection::vec(-1e9f64..1e9, 1..100)) {
        let s = summary(&xs);
        prop_assert!(s.min <= s.mean + 1e-6 && s.mean <= s.max + 1e-6);
        prop_assert!(s.stddev >= 0.0);
        prop_assert_eq!(s.n, xs.len());
    }

    /// longest_monopoly is at least 1 (non-empty) and at most the length.
    #[test]
    fn monopoly_bounds(owners in proptest::collection::vec(0u32..3, 1..200)) {
        let recs: Vec<Rec> = owners.iter().map(|&o| rec(o, &[])).collect();
        let m = fold(&recs).longest_monopoly();
        prop_assert!(m >= 1 && m <= owners.len());
    }
}
