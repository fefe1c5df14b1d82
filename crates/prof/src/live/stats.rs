//! Snapshot types for the online collector, plus their deterministic
//! renderings: a Prometheus-style exposition (`*.live.prom`) and a
//! fixed-width text panel (`xtask watch`).

use crate::blame::{HolderKey, VciLoad};
use crate::window::WindowRow;
use mtmpi_metrics::Table;

/// One blame cell of the live matrix: nanoseconds waiters spent blocked
/// behind one holder identity, aggregated over all waiters.
///
/// Two accumulations ride together: `ns` is the exact cumulative charge
/// (the post-run `BlameMatrix` column total on a complete drain), while
/// `decayed` is the exponentially-decayed view (multiplied by the
/// configured decay at every window flush) that tracks *recent*
/// contention — the control signal a remediation loop would act on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LiveCell {
    /// Who held the lock (`(tid, path, op, vci)`).
    pub holder: HolderKey,
    /// Exact cumulative blocked-behind-this-holder nanoseconds.
    pub ns: u64,
    /// `ns / Σ ns` over all cells (0 when nothing has been charged).
    pub share: f64,
    /// Exponentially-decayed charge (decayed once per flushed window).
    pub decayed: f64,
    /// `decayed / Σ decayed` over all cells.
    pub decayed_share: f64,
}

/// One flushed aggregation window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LiveWindow {
    /// The window's contention summary — the row the post-run
    /// [`Windows`](crate::Windows) computes for the same passages
    /// (those whose release fell in the window).
    pub row: WindowRow,
    /// Window width.
    pub width_ns: u64,
    /// Wait nanoseconds charged to concurrent holders.
    pub charged_ns: u64,
    /// Wait nanoseconds nobody held the lock for (hand-off latency).
    /// `charged_ns + unattributed_ns == row.wait_ns` exactly, per window.
    pub unattributed_ns: u64,
}

/// A point-in-time snapshot of everything the collector has folded so
/// far. Cheap to take (bounded clone), deterministic given the same
/// event prefix.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct LiveStats {
    /// Finalization horizon: every event with `t_ns` below this has been
    /// folded in; nothing older can still arrive (virtual-clock
    /// monotonicity).
    pub watermark_ns: u64,
    /// Events folded so far (all kinds).
    pub events: u64,
    /// CS passages folded so far.
    pub spans: u64,
    /// Events the recorder dropped (shard overflow / exhaustion).
    pub dropped: u64,
    /// Flow origins seen (`EventKind::FlowSend`).
    pub flow_sends: u64,
    /// Flow termini seen (`EventKind::FlowRecv`).
    pub flow_recvs: u64,
    /// Aggregation windows flushed so far.
    pub windows_flushed: u64,
    /// The most recently flushed windows, oldest first (bounded ring).
    pub recent_windows: Vec<LiveWindow>,
    /// Blame cells ordered by holder key.
    pub blame: Vec<LiveCell>,
    /// Total CS wait folded so far (`charged_ns + unattributed_ns`).
    pub total_wait_ns: u64,
    /// Wait charged to concurrent holders.
    pub charged_ns: u64,
    /// Wait with no traced holder (arbitration / hand-off).
    pub unattributed_ns: u64,
    /// Gini index over per-thread *hold-time* totals (who occupies the
    /// lock, weighted by time).
    pub hold_gini: f64,
    /// Gini index over per-thread acquisition counts (the paper's
    /// monopolization index).
    pub acq_gini: f64,
    /// Gini index over per-VCI acquisition counts (load balance of the
    /// shard map; 0 = even).
    pub vci_gini: f64,
    /// `progress_wait_mean / main_wait_mean` (0 when either side is
    /// absent), same guards as the post-run `Starvation`.
    pub starvation_ratio: f64,
    /// Main-path passages folded so far.
    pub main_spans: u64,
    /// Progress-path passages folded so far.
    pub progress_spans: u64,
    /// Per-VCI loads, ordered by VCI.
    pub vcis: Vec<VciLoad>,
}

impl LiveStats {
    /// Prometheus-style exposition (`# TYPE` lines omitted; every line is
    /// `mtmpi_live_<name>{labels} value`, matching the prof exporter's
    /// idiom). Deterministic: map iteration orders are fixed upstream.
    pub fn prom(&self) -> String {
        let mut out = String::new();
        let mut gauge = |name: &str, labels: &str, v: String| {
            out.push_str(&format!("mtmpi_live_{name}{{{labels}}} {v}\n"));
        };
        for (name, v) in [
            ("watermark_ns", self.watermark_ns),
            ("events_total", self.events),
            ("spans_total", self.spans),
            ("dropped_total", self.dropped),
            ("flow_sends_total", self.flow_sends),
            ("flow_recvs_total", self.flow_recvs),
            ("windows_flushed_total", self.windows_flushed),
            ("wait_ns_total", self.total_wait_ns),
            ("charged_ns_total", self.charged_ns),
            ("unattributed_ns_total", self.unattributed_ns),
        ] {
            gauge(name, "", v.to_string());
        }
        for (name, v) in [
            ("hold_gini", self.hold_gini),
            ("acq_gini", self.acq_gini),
            ("vci_gini", self.vci_gini),
            ("starvation_ratio", self.starvation_ratio),
        ] {
            gauge(name, "", format!("{v:.6}"));
        }
        for w in &self.recent_windows {
            let l = format!("window=\"{}\"", w.row.start_ns);
            gauge("window_wait_p50_ns", &l, w.row.wait_p50_ns.to_string());
            gauge("window_wait_p99_ns", &l, w.row.wait_p99_ns.to_string());
            gauge("window_spans", &l, w.row.spans.to_string());
            gauge("window_wait_ns", &l, w.row.wait_ns.to_string());
            gauge("window_unattributed_ns", &l, w.unattributed_ns.to_string());
        }
        for c in &self.blame {
            let l = format!(
                "tid=\"{}\",path=\"{}\",op=\"{}\",vci=\"{}\"",
                c.holder.tid,
                c.holder.path().label(),
                c.holder.op().label(),
                c.holder.vci
            );
            gauge("blame_ns", &l, c.ns.to_string());
            gauge("blame_share", &l, format!("{:.6}", c.share));
            gauge("blame_decayed_share", &l, format!("{:.6}", c.decayed_share));
        }
        for v in &self.vcis {
            let l = format!("vci=\"{}\"", v.vci);
            gauge("vci_acquisitions", &l, v.acquisitions.to_string());
            gauge("vci_hold_ns", &l, v.hold_ns.to_string());
            gauge("vci_wait_ns", &l, v.wait_ns.to_string());
        }
        out
    }

    /// Fixed-width text panel for `xtask watch` (top blame cells by
    /// decayed share, last windows, headline gauges).
    pub fn text(&self) -> String {
        let mut out = format!(
            "live @ {} ns | events {} | spans {} | dropped {} | windows {} | \
             wait {} ns (charged {} / unattributed {}) | gini acq {:.3} hold {:.3} vci {:.3} | starvation {:.3}\n",
            self.watermark_ns,
            self.events,
            self.spans,
            self.dropped,
            self.windows_flushed,
            self.total_wait_ns,
            self.charged_ns,
            self.unattributed_ns,
            self.acq_gini,
            self.hold_gini,
            self.vci_gini,
            self.starvation_ratio,
        );
        let mut cells: Vec<&LiveCell> = self.blame.iter().collect();
        cells.sort_by(|a, b| {
            b.decayed
                .partial_cmp(&a.decayed)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| (a.holder.tid, a.holder.vci).cmp(&(b.holder.tid, b.holder.vci)))
        });
        let mut blame = Table::new(&["tid", "path", "op", "vci", "blame_ns", "share", "decayed"]);
        for c in cells.iter().take(8) {
            blame.row(vec![
                c.holder.tid.to_string(),
                c.holder.path().label().to_string(),
                c.holder.op().label().to_string(),
                c.holder.vci.to_string(),
                c.ns.to_string(),
                format!("{:.3}", c.share),
                format!("{:.3}", c.decayed_share),
            ]);
        }
        out.push_str(&blame.render());
        let mut wins = Table::new(&["window_start", "spans", "wait_p50", "wait_p99", "unattr"]);
        for w in &self.recent_windows {
            wins.row(vec![
                w.row.start_ns.to_string(),
                w.row.spans.to_string(),
                w.row.wait_p50_ns.to_string(),
                w.row.wait_p99_ns.to_string(),
                w.unattributed_ns.to_string(),
            ]);
        }
        out.push_str(&wins.render());
        out
    }
}
