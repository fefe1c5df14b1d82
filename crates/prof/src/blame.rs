//! The blame matrix: charge every CS wait to its concurrent holders.
//!
//! For each critical-section wait span `[t_req, t_acq)` on lock `L`, find
//! the hold spans `[t_acq_h, t_end_h)` of *other* passages of `L` that
//! overlap it, and charge the overlap nanoseconds to the holder's
//! `(thread, path, op, vci)`. Hold spans of one lock are disjoint (a lock
//! has one owner at a time), so the charges within one wait never overlap
//! and
//!
//! ```text
//! Σ charges(wait) + unattributed(wait) == wait_ns     (exactly)
//! ```
//!
//! where `unattributed` is the part of the wait during which nobody held
//! the lock — arbitration/hand-off time (the wake-up latencies of §4.2)
//! plus any holder whose span fell out of the trace. Summed over rows the
//! matrix therefore reproduces the total recorded CS wait exactly.
//!
//! `BlameFold` is the one implementation of that rule; [`BlameMatrix`]
//! feeds a whole timeline through it in one pass. A wait can only be
//! charged to holds that ended no later than its own grant
//! (`t_end_h ≤ t_acq ≤ t_end`): once every passage released up to some
//! instant has been ingested, every wait released up to that instant sees
//! all the holds it will ever see — and they are the tail of its lock's
//! hold list.

use mtmpi_metrics::gini;
use mtmpi_obs::{CsOp, CsSpanView, Event, Path, Timeline};
use std::collections::BTreeMap;

/// Identity of a lock holder being blamed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct HolderKey {
    /// Holding thread.
    pub tid: u64,
    /// Stable index of the path in [`Path::ALL`] (`Main` sorts first).
    pub path_idx: u8,
    /// Stable index of the op in [`CsOp::ALL`] (orders the matrix
    /// columns deterministically).
    pub op_idx: u8,
    /// VCI whose critical section the holder occupied (0 unsharded).
    /// With N > 1 shards this keeps blame thread×path×VCI-resolved:
    /// the same thread holding different shards produces distinct
    /// columns.
    pub vci: u32,
}

impl HolderKey {
    fn of(s: &CsSpanView) -> Self {
        Self {
            tid: s.tid,
            path_idx: s.path.idx(),
            op_idx: s.op.idx(),
            vci: s.vci,
        }
    }

    /// The op this key refers to.
    pub fn op(&self) -> CsOp {
        CsOp::ALL[self.op_idx as usize]
    }

    /// The path class of the holding passage.
    pub fn path(&self) -> Path {
        Path::from_idx(self.path_idx)
    }
}

/// Nanoseconds one waiter spent blocked behind one holder identity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlameCell {
    /// Who held the lock.
    pub holder: HolderKey,
    /// Blocked-behind-this-holder nanoseconds.
    pub ns: u64,
}

/// One waiter thread's row of the matrix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlameRow {
    /// The waiting thread.
    pub waiter_tid: u64,
    /// Charges, ordered by holder key.
    pub cells: Vec<BlameCell>,
    /// Wait time during which no traced passage held the lock
    /// (arbitration / hand-off latency).
    pub unattributed_ns: u64,
    /// Total wait of this thread (`Σ cells + unattributed`, exactly).
    pub total_ns: u64,
}

/// Acquisition share of one thread.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThreadShare {
    /// The thread.
    pub tid: u64,
    /// Number of CS passages.
    pub acquisitions: u64,
    /// Fraction of all passages.
    pub share: f64,
    /// Total hold time.
    pub hold_ns: u64,
}

/// Main-path vs progress-path wait asymmetry (the §6.2 starvation story:
/// under a priority lock the progress path is *supposed* to wait longer).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Starvation {
    /// Passages entering on the main path.
    pub main_spans: u64,
    /// Passages entering on the progress path.
    pub progress_spans: u64,
    /// Passages of application threads spinning in blocking waits
    /// (`Path::WaitSpin`) — low arbitration priority like the progress
    /// path, but *not* the progress engine, so they are tallied apart
    /// and excluded from the starvation ratio.
    pub waitspin_spans: u64,
    /// Owner-mode passages through stream-bound shards (`Path::Stream`).
    /// These take no lock at all — wait is zero by construction — so
    /// they are tallied apart and excluded from the starvation ratio.
    pub stream_spans: u64,
    /// Mean wait of main-path passages.
    pub main_wait_mean_ns: f64,
    /// Mean wait of progress-path passages.
    pub progress_wait_mean_ns: f64,
    /// Mean wait of wait-spin passages.
    pub waitspin_wait_mean_ns: f64,
    /// Mean wait of stream passages (0 unless the owner-mode contract
    /// were ever violated — a nonzero value here is a bug signal).
    pub stream_wait_mean_ns: f64,
    /// `progress_wait_mean / main_wait_mean` (0 when either side has no
    /// samples or the main mean is 0).
    pub ratio: f64,
}

/// The full blame analysis of one timeline.
#[derive(Debug, Clone, PartialEq)]
pub struct BlameMatrix {
    /// One row per waiting thread, ordered by tid.
    pub rows: Vec<BlameRow>,
    /// Total recorded CS wait over all spans (`Σ rows.total_ns`).
    pub total_wait_ns: u64,
    /// Per-thread acquisition shares, ordered by tid.
    pub shares: Vec<ThreadShare>,
    /// Gini monopolization index over per-thread acquisition counts.
    pub gini: f64,
    /// Progress-path starvation summary.
    pub starvation: Starvation,
}

/// Per-path `(spans, wait_ns)` tallies, indexed by [`Path::idx`].
#[derive(Debug, Clone, Copy, Default)]
struct PathTally([(u64, u64); 4]);

impl PathTally {
    fn add(&mut self, path: Path, wait_ns: u64) {
        let p = &mut self.0[usize::from(path.idx())];
        p.0 += 1;
        p.1 += wait_ns;
    }

    fn spans(&self) -> u64 {
        self.0.iter().map(|p| p.0).sum()
    }

    fn wait_ns(&self) -> u64 {
        self.0.iter().map(|p| p.1).sum()
    }

    fn starvation(&self) -> Starvation {
        let at = |path: Path| self.0[usize::from(path.idx())];
        let mean = |(n, w): (u64, u64)| if n == 0 { 0.0 } else { w as f64 / n as f64 };
        let (main, progress) = (at(Path::Main), at(Path::Progress));
        Starvation {
            main_spans: main.0,
            progress_spans: progress.0,
            waitspin_spans: at(Path::WaitSpin).0,
            stream_spans: at(Path::Stream).0,
            main_wait_mean_ns: mean(main),
            progress_wait_mean_ns: mean(progress),
            waitspin_wait_mean_ns: mean(at(Path::WaitSpin)),
            stream_wait_mean_ns: mean(at(Path::Stream)),
            ratio: if mean(main) > 0.0 && progress.0 > 0 {
                mean(progress) / mean(main)
            } else {
                0.0
            },
        }
    }
}

/// One ingested hold interval `[t_acq, t_end)` of a lock, with the
/// column of its holder.
#[derive(Debug, Clone, Copy)]
struct Hold {
    t_acq: u64,
    t_end: u64,
    tid: u64,
    col: usize,
}

impl Hold {
    /// The order of a lock's hold list.
    fn order(&self) -> (u64, u64, u64) {
        (self.t_acq, self.t_end, self.tid)
    }
}

/// One thread's tallies: its waits, charged by holder column, and its
/// own passages.
#[derive(Debug, Default)]
struct ThreadTally {
    /// Charged nanoseconds, indexed by holder column.
    cells: Vec<u64>,
    unattributed_ns: u64,
    wait_ns: u64,
    acquisitions: u64,
    hold_ns: u64,
}

/// The attribution engine: ingest passages' holds, then charge their
/// waits. The only code that knows the overlap rule.
///
/// Contract: before [`Self::charge`] is called for a passage, every
/// passage of the same lock released no later than it (itself included)
/// must have been [`Self::ingest`]ed, and passages are ingested in
/// release order — see the module docs for why that is enough.
#[derive(Debug, Default)]
struct BlameFold {
    /// Per-lock holds, sorted by `(t_acq, t_end, tid)`; disjoint, so
    /// `t_end` is ordered too.
    holds: BTreeMap<u32, Vec<Hold>>,
    /// Column of every holder identity seen, fixed at first sight.
    cols: BTreeMap<HolderKey, usize>,
    per_tid: BTreeMap<u64, ThreadTally>,
    paths: PathTally,
}

impl BlameFold {
    /// Make a passage's hold visible to later [`Self::charge`] calls.
    fn ingest(&mut self, s: &CsSpanView) {
        let next = self.cols.len();
        let col = *self.cols.entry(HolderKey::of(s)).or_insert(next);
        let h = Hold {
            t_acq: s.t_acq,
            t_end: s.t_end,
            tid: s.tid,
            col,
        };
        // Holds arrive in release order, so a new one sorts at the tail
        // or, on a tie of release instants, a few slots before it.
        let hs = self.holds.entry(s.lock).or_default();
        let later = hs.iter().rev().take_while(|x| x.order() > h.order());
        hs.insert(hs.len() - later.count(), h);
    }

    /// Tally a passage and charge its wait to the concurrent holders of
    /// its lock; the rest of the wait is its thread's unattributed time.
    fn charge(&mut self, s: &CsSpanView) {
        let wait = s.wait_ns();
        self.paths.add(s.path, wait);
        let row = self.per_tid.entry(s.tid).or_default();
        row.acquisitions += 1;
        row.hold_ns += s.hold_ns();
        row.wait_ns += wait;
        if wait == 0 {
            return;
        }
        row.cells.resize(self.cols.len(), 0);
        let mut unattributed = wait;
        // Every hold this wait overlaps ended by its grant, so it is in
        // the list already, and ends are ordered: walk back from the tail
        // until a hold ends before the wait starts. Holds that start at
        // or after the grant (the passage's own among them) overlap
        // nothing.
        let hs = self.holds.get(&s.lock).map_or(&[][..], Vec::as_slice);
        for h in hs.iter().rev().take_while(|h| h.t_end > s.t_req) {
            let (lo, hi) = (h.t_acq.max(s.t_req), h.t_end.min(s.t_acq));
            if hi > lo {
                unattributed -= hi - lo;
                row.cells[h.col] += hi - lo;
            }
        }
        row.unattributed_ns += unattributed;
    }

    /// The matrix over everything charged: rows and shares by tid, cells
    /// by holder key.
    fn finish(self) -> BlameMatrix {
        let total = self.paths.spans();
        let mut rows = Vec::with_capacity(self.per_tid.len());
        let mut shares = Vec::with_capacity(self.per_tid.len());
        for (&tid, t) in &self.per_tid {
            let cells = self.cols.iter().filter_map(|(&holder, &col)| {
                let ns = t.cells.get(col).copied().unwrap_or(0);
                (ns > 0).then_some(BlameCell { holder, ns })
            });
            rows.push(BlameRow {
                waiter_tid: tid,
                cells: cells.collect(),
                unattributed_ns: t.unattributed_ns,
                total_ns: t.wait_ns,
            });
            shares.push(ThreadShare {
                tid,
                acquisitions: t.acquisitions,
                share: if total == 0 {
                    0.0
                } else {
                    t.acquisitions as f64 / total as f64
                },
                hold_ns: t.hold_ns,
            });
        }
        let counts: Vec<u64> = shares.iter().map(|s| s.acquisitions).collect();
        BlameMatrix {
            rows,
            total_wait_ns: self.paths.wait_ns(),
            shares,
            gini: gini(&counts),
            starvation: self.paths.starvation(),
        }
    }
}

impl BlameMatrix {
    /// Run the attribution over a timeline's CS spans in one pass, one
    /// release instant at a time: every passage released at the instant
    /// is ingested, then each of them is charged.
    pub fn from_timeline(t: &Timeline) -> Self {
        let mut fold = BlameFold::default();
        for instant in t.events.chunk_by(|a, b| a.t_ns == b.t_ns) {
            let spans = || instant.iter().filter_map(Event::cs_span);
            spans().for_each(|s| fold.ingest(&s));
            spans().for_each(|s| fold.charge(&s));
        }
        fold.finish()
    }

    /// Per-pair blocked-by nanoseconds: `(waiter_tid, holder_tid) → ns`,
    /// aggregated over the holder's path/op.
    pub fn pair_ns(&self) -> BTreeMap<(u64, u64), u64> {
        let mut out = BTreeMap::new();
        for row in &self.rows {
            for c in &row.cells {
                *out.entry((row.waiter_tid, c.holder.tid)).or_default() += c.ns;
            }
        }
        out
    }

    /// Invariant check: every row's cells + unattributed equal its total,
    /// and the rows sum to `total_wait_ns`. Returns the (row-level,
    /// matrix-level) absolute discrepancies — both 0 by construction.
    pub fn check_conservation(&self) -> (u64, u64) {
        let mut row_err = 0u64;
        let mut sum = 0u64;
        for r in &self.rows {
            let charged: u64 = r.cells.iter().map(|c| c.ns).sum();
            row_err += (charged + r.unattributed_ns).abs_diff(r.total_ns);
            sum += r.total_ns;
        }
        (row_err, sum.abs_diff(self.total_wait_ns))
    }
}

/// Load and starvation summary of one VCI (shard) of a sharded run.
#[derive(Debug, Clone, PartialEq)]
pub struct VciLoad {
    /// The VCI.
    pub vci: u32,
    /// CS passages through this shard's critical section.
    pub acquisitions: u64,
    /// Total hold time in the shard.
    pub hold_ns: u64,
    /// Total wait time at the shard's lock.
    pub wait_ns: u64,
    /// Main/progress/wait-spin asymmetry *within* this shard.
    pub starvation: Starvation,
}

/// Per-VCI balance analysis: one [`VciLoad`] per shard seen in the
/// timeline (ordered by VCI), plus the Gini index over per-shard
/// acquisition counts — 0 when the runtime's VCI map spreads
/// traffic evenly, approaching 1 when one shard soaks up everything
/// (at which point sharding has bought nothing over the global CS).
pub fn vci_loads(t: &Timeline) -> (Vec<VciLoad>, f64) {
    // Per VCI: `(hold_ns, per-path tallies)`.
    let mut per_vci: BTreeMap<u32, (u64, PathTally)> = BTreeMap::new();
    for s in t.cs_spans() {
        let v = per_vci.entry(s.vci).or_default();
        v.0 += s.hold_ns();
        v.1.add(s.path, s.wait_ns());
    }
    let loads: Vec<VciLoad> = per_vci
        .into_iter()
        .map(|(vci, (hold_ns, paths))| VciLoad {
            vci,
            acquisitions: paths.spans(),
            hold_ns,
            wait_ns: paths.wait_ns(),
            starvation: paths.starvation(),
        })
        .collect();
    let counts: Vec<u64> = loads.iter().map(|l| l.acquisitions).collect();
    let g = gini(&counts);
    (loads, g)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtmpi_obs::{CsKind, EventKind};

    fn cs(tid: u32, lock: u32, path: Path, op: CsOp, t_req: u64, t_acq: u64, t_end: u64) -> Event {
        Event {
            t_ns: t_end,
            tid,
            core: tid as u16,
            socket: 0,
            kind: EventKind::CsSpan {
                lock,
                kind: CsKind::Mutex,
                path,
                op,
                vci: lock, // tests: one lock per VCI, like the sharded runtime
                t_req,
                t_acq,
            },
        }
    }

    fn timeline(mut events: Vec<Event>) -> Timeline {
        events.sort_by_key(|e| (e.t_ns, e.tid));
        Timeline { events, dropped: 0 }
    }

    #[test]
    fn single_blocking_holder_gets_full_charge() {
        // t1 holds [0,100); t2 requests at 10, acquires at 100.
        let t = timeline(vec![
            cs(1, 0, Path::Main, CsOp::Isend, 0, 0, 100),
            cs(2, 0, Path::Main, CsOp::Irecv, 10, 100, 150),
        ]);
        let m = BlameMatrix::from_timeline(&t);
        assert_eq!(m.total_wait_ns, 90);
        let row2 = m.rows.iter().find(|r| r.waiter_tid == 2).unwrap();
        assert_eq!(row2.total_ns, 90);
        assert_eq!(row2.cells.len(), 1);
        assert_eq!(row2.cells[0].holder.tid, 1);
        assert_eq!(row2.cells[0].holder.op(), CsOp::Isend);
        assert_eq!(row2.cells[0].ns, 90);
        assert_eq!(row2.unattributed_ns, 0);
        assert_eq!(m.check_conservation(), (0, 0));
    }

    #[test]
    fn a_wait_sees_every_hold_released_at_its_own_instant() {
        // t2 holds [0,100); t1 waited [10,100) and held for no time, so
        // both release at 100, and t1's passage comes first in the
        // timeline. Charging t1 before t2's hold of the same instant is
        // ingested would leave all 90 ns unattributed.
        let t = timeline(vec![
            cs(1, 0, Path::Main, CsOp::Irecv, 10, 100, 100),
            cs(2, 0, Path::Main, CsOp::Isend, 0, 0, 100),
        ]);
        assert_eq!(t.events[0].tid, 1, "the waiter sorts first");
        let m = BlameMatrix::from_timeline(&t);
        let row1 = m.rows.iter().find(|r| r.waiter_tid == 1).unwrap();
        assert_eq!(row1.total_ns, 90);
        assert_eq!(row1.cells.len(), 1);
        assert_eq!((row1.cells[0].holder.tid, row1.cells[0].ns), (2, 90));
        assert_eq!(row1.unattributed_ns, 0);
        assert_eq!(m.check_conservation(), (0, 0));
    }

    #[test]
    fn handoff_gap_is_unattributed() {
        // t1 holds [0,50); lock idle [50,80); t2 waited [10,80).
        let t = timeline(vec![
            cs(1, 0, Path::Main, CsOp::Isend, 0, 0, 50),
            cs(2, 0, Path::Main, CsOp::Irecv, 10, 80, 90),
        ]);
        let m = BlameMatrix::from_timeline(&t);
        let row2 = m.rows.iter().find(|r| r.waiter_tid == 2).unwrap();
        assert_eq!(row2.total_ns, 70);
        assert_eq!(row2.cells[0].ns, 40); // overlap [10,50)
        assert_eq!(row2.unattributed_ns, 30); // gap [50,80)
        assert_eq!(m.check_conservation(), (0, 0));
    }

    #[test]
    fn chained_holders_split_the_charge() {
        // t1 holds [0,40), t3 holds [40,70), t2 waits [10,70).
        let t = timeline(vec![
            cs(1, 0, Path::Main, CsOp::Isend, 0, 0, 40),
            cs(3, 0, Path::Progress, CsOp::Progress, 5, 40, 70),
            cs(2, 0, Path::Main, CsOp::Irecv, 10, 70, 80),
        ]);
        let m = BlameMatrix::from_timeline(&t);
        let row2 = m.rows.iter().find(|r| r.waiter_tid == 2).unwrap();
        assert_eq!(row2.total_ns, 60);
        let by_tid: BTreeMap<u64, u64> = row2.cells.iter().map(|c| (c.holder.tid, c.ns)).collect();
        assert_eq!(by_tid[&1], 30); // [10,40)
        assert_eq!(by_tid[&3], 30); // [40,70)
        assert_eq!(row2.unattributed_ns, 0);
        // And t3's own wait [5,40) is charged to t1.
        let row3 = m.rows.iter().find(|r| r.waiter_tid == 3).unwrap();
        assert_eq!(row3.total_ns, 35);
        assert_eq!(row3.cells[0].holder.tid, 1);
        assert_eq!(row3.cells[0].ns, 35);
        assert_eq!(m.check_conservation(), (0, 0));
    }

    #[test]
    fn different_locks_do_not_cross_blame() {
        let t = timeline(vec![
            cs(1, 0, Path::Main, CsOp::Isend, 0, 0, 100),
            cs(2, 1, Path::Main, CsOp::Irecv, 10, 60, 90), // other lock
        ]);
        let m = BlameMatrix::from_timeline(&t);
        let row2 = m.rows.iter().find(|r| r.waiter_tid == 2).unwrap();
        assert!(row2.cells.is_empty());
        assert_eq!(row2.unattributed_ns, 50);
    }

    #[test]
    fn shares_gini_and_starvation() {
        let mut evs = Vec::new();
        let mut t0 = 0;
        // t1 monopolizes: 9 main-path passages; t2 gets 1 progress-path
        // passage with a long wait.
        for _ in 0..9 {
            evs.push(cs(1, 0, Path::Main, CsOp::Isend, t0, t0, t0 + 10));
            t0 += 10;
        }
        evs.push(cs(2, 0, Path::Progress, CsOp::Progress, 0, t0, t0 + 5));
        let m = BlameMatrix::from_timeline(&timeline(evs));
        assert_eq!(m.shares.len(), 2);
        let s1 = m.shares.iter().find(|s| s.tid == 1).unwrap();
        assert!((s1.share - 0.9).abs() < 1e-12);
        assert!(m.gini > 0.0);
        assert_eq!(m.starvation.progress_spans, 1);
        assert_eq!(m.starvation.main_spans, 9);
        assert!(m.starvation.progress_wait_mean_ns > 0.0);
        assert_eq!(m.starvation.ratio, 0.0, "main never waited => ratio 0");
        assert_eq!(m.check_conservation(), (0, 0));
        // Pair aggregation: t2 blocked only behind t1.
        let pairs = m.pair_ns();
        assert_eq!(pairs.len(), 1);
        assert_eq!(pairs[&(2, 1)], 90);
    }

    #[test]
    fn waitspin_passages_stay_out_of_the_starvation_ratio() {
        // Main passages wait 10 each, progress 20, waitspin 100: the
        // ratio must only see main and progress.
        let t = timeline(vec![
            cs(1, 0, Path::Main, CsOp::Isend, 0, 10, 20),
            cs(1, 0, Path::Main, CsOp::Isend, 20, 30, 40),
            cs(2, 0, Path::Progress, CsOp::Progress, 40, 60, 70),
            cs(3, 0, Path::WaitSpin, CsOp::Wait, 0, 100, 110),
        ]);
        let m = BlameMatrix::from_timeline(&t);
        assert_eq!(m.starvation.main_spans, 2);
        assert_eq!(m.starvation.progress_spans, 1);
        assert_eq!(m.starvation.waitspin_spans, 1);
        assert!((m.starvation.main_wait_mean_ns - 10.0).abs() < 1e-9);
        assert!((m.starvation.progress_wait_mean_ns - 20.0).abs() < 1e-9);
        assert!((m.starvation.waitspin_wait_mean_ns - 100.0).abs() < 1e-9);
        assert!((m.starvation.ratio - 2.0).abs() < 1e-9);
        // The waitspin holder identity round-trips through HolderKey.
        let spin_cell = m
            .rows
            .iter()
            .flat_map(|r| r.cells.iter())
            .find(|c| c.holder.path() == Path::WaitSpin);
        assert!(spin_cell.is_none() || spin_cell.unwrap().holder.path() == Path::WaitSpin);
        assert_eq!(m.check_conservation(), (0, 0));
    }

    #[test]
    fn vci_loads_split_shards_and_score_imbalance() {
        // Shard 0 (lock 0) takes 3 passages, shard 1 (lock 1) takes 1:
        // unbalanced, so Gini > 0; a perfectly split timeline scores 0.
        let t = timeline(vec![
            cs(1, 0, Path::Main, CsOp::Isend, 0, 0, 10),
            cs(1, 0, Path::Main, CsOp::Isend, 10, 10, 20),
            cs(1, 0, Path::Progress, CsOp::Progress, 20, 25, 30),
            cs(2, 1, Path::Main, CsOp::Irecv, 0, 5, 15),
        ]);
        let (loads, g) = vci_loads(&t);
        assert_eq!(loads.len(), 2);
        assert_eq!(loads[0].vci, 0);
        assert_eq!(loads[0].acquisitions, 3);
        assert_eq!(loads[0].hold_ns, 10 + 10 + 5);
        assert_eq!(loads[0].starvation.progress_spans, 1);
        assert_eq!(loads[1].vci, 1);
        assert_eq!(loads[1].acquisitions, 1);
        assert_eq!(loads[1].wait_ns, 5);
        assert!(g > 0.0, "3-vs-1 split must register as imbalance");

        let even = timeline(vec![
            cs(1, 0, Path::Main, CsOp::Isend, 0, 0, 10),
            cs(2, 1, Path::Main, CsOp::Irecv, 0, 0, 10),
        ]);
        let (_, g_even) = vci_loads(&even);
        assert_eq!(g_even, 0.0);
    }

    #[test]
    fn blame_distinguishes_shards_of_one_thread() {
        // The same thread holds two different shards; a waiter blocked
        // behind each must see two distinct holder columns.
        let t = timeline(vec![
            cs(1, 0, Path::Main, CsOp::Isend, 0, 0, 50),
            cs(1, 1, Path::Main, CsOp::Isend, 0, 0, 50),
            cs(2, 0, Path::Main, CsOp::Irecv, 10, 50, 60),
            cs(3, 1, Path::Main, CsOp::Irecv, 10, 50, 60),
        ]);
        let m = BlameMatrix::from_timeline(&t);
        let holders: std::collections::BTreeSet<HolderKey> = m
            .rows
            .iter()
            .flat_map(|r| r.cells.iter().map(|c| c.holder))
            .collect();
        let vcis: Vec<u32> = holders.iter().map(|h| h.vci).collect();
        assert_eq!(vcis, vec![0, 1], "per-shard holds must not collapse");
        assert_eq!(m.check_conservation(), (0, 0));
    }

    #[test]
    fn empty_timeline_is_all_zero() {
        let m = BlameMatrix::from_timeline(&Timeline::default());
        assert!(m.rows.is_empty());
        assert_eq!(m.total_wait_ns, 0);
        assert_eq!(m.gini, 0.0);
        assert_eq!(m.check_conservation(), (0, 0));
    }

    /// The independent oracle: every wait against every hold of its
    /// lock, O(n²), no ordering, no early exit.
    fn brute_force(spans: &[CsSpanView]) -> BTreeMap<u64, (BTreeMap<HolderKey, u64>, u64)> {
        let mut rows: BTreeMap<u64, (BTreeMap<HolderKey, u64>, u64)> = BTreeMap::new();
        for w in spans {
            let row = rows.entry(w.tid).or_default();
            row.1 += w.wait_ns();
            for h in spans.iter().filter(|h| h.lock == w.lock) {
                let ns = h.t_end.min(w.t_acq).saturating_sub(h.t_acq.max(w.t_req));
                if ns > 0 {
                    *row.0.entry(HolderKey::of(h)).or_default() += ns;
                    row.1 -= ns;
                }
            }
        }
        rows
    }

    proptest::proptest! {
        #[test]
        fn fold_matches_the_brute_force_overlap_sum(
            // (lock, gap since the lock's last release, hold, wait, tid, path × op)
            steps in proptest::collection::vec(
                (0u32..3, 0u64..4, 0u64..6, 0u64..14, 0u32..4, 0u8..32),
                0..60,
            ),
        ) {
            // Lay each lock's holds end to end (disjoint), zero-length
            // holds and equal timestamps included.
            let mut free_at = [0u64; 3];
            let mut events = Vec::new();
            for &(lock, gap, hold, wait, tid, kind) in &steps {
                let t_acq = free_at[lock as usize] + gap;
                free_at[lock as usize] = t_acq + hold;
                let t_req = t_acq.saturating_sub(wait);
                let (path, op) = (Path::from_idx(kind % 4), CsOp::ALL[usize::from(kind / 4)]);
                events.push(cs(tid, lock, path, op, t_req, t_acq, t_acq + hold));
            }
            let t = timeline(events);
            let m = BlameMatrix::from_timeline(&t);
            proptest::prop_assert_eq!(m.check_conservation(), (0, 0));
            let got: BTreeMap<u64, (BTreeMap<HolderKey, u64>, u64)> = m
                .rows
                .iter()
                .map(|r| {
                    let cells = r.cells.iter().map(|c| (c.holder, c.ns)).collect();
                    (r.waiter_tid, (cells, r.unattributed_ns))
                })
                .collect();
            let spans: Vec<CsSpanView> = t.cs_spans().collect();
            proptest::prop_assert_eq!(got, brute_force(&spans));
        }
    }
}
