//! Per-run summaries and the cross-run [`Sink`] used by the bench layer.

use crate::json::Writer;
use crate::recorder::Timeline;
use mtmpi_metrics::Histogram;
use std::collections::BTreeSet;
use std::sync::{Arc, Mutex};

/// Quantile summary of one histogram (the `BENCH_*.json` unit).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CsStats {
    /// Samples recorded.
    pub count: u64,
    /// Median estimate.
    pub p50: u64,
    /// 99th-percentile estimate.
    pub p99: u64,
    /// Exact maximum.
    pub max: u64,
    /// Arithmetic mean.
    pub mean: f64,
}

impl CsStats {
    /// Summarize a histogram.
    pub fn of(h: &Histogram) -> Self {
        Self {
            count: h.count(),
            p50: h.p50(),
            p99: h.p99(),
            max: h.max(),
            mean: h.mean(),
        }
    }

    /// Append as a JSON object to `w`.
    pub fn to_json(&self, w: &mut Writer) {
        w.uint("{\"count\":", self.count)
            .uint(",\"p50\":", self.p50)
            .uint(",\"p99\":", self.p99)
            .uint(",\"max\":", self.max)
            .float(",\"mean\":", self.mean)
            .raw("}");
    }
}

/// Everything one harness run hands to the sink.
#[derive(Debug, Clone, Default)]
pub struct RunRecord {
    /// Arbitration/method label of the run (`"mutex"`, `"ticket"`, …).
    pub label: String,
    /// Threads per rank.
    pub threads: u32,
    /// Cluster nodes used.
    pub nodes: u32,
    /// Virtual end time of the run.
    pub end_ns: u64,
    /// CS wait-time histogram merged over all ranks.
    pub cs_wait: Histogram,
    /// CS hold-time histogram merged over all ranks.
    pub cs_hold: Histogram,
    /// Receive-side message latency merged over all ranks.
    pub msg_latency: Histogram,
    /// Order-sensitive hash of the virtual scheduler's decision trace
    /// (0 on the native platform). Equal across same-seed replays;
    /// any schedule divergence changes it.
    pub sched_trace_hash: u64,
    /// Event timeline (present only when tracing was on for the run).
    pub timeline: Option<Timeline>,
}

/// Thread-safe collector of [`RunRecord`]s across a figure binary's runs.
///
/// It keeps one event timeline per configuration: a figure sweeps many
/// sizes per configuration, and the first run of each — the smallest
/// sweep point — is representative. Which run that is gets decided at
/// launch ([`Sink::claim`]), so every other run of the configuration
/// never records at all.
#[derive(Debug, Default)]
pub struct Sink {
    runs: Mutex<Vec<RunRecord>>,
    /// `(label, threads, nodes)` configurations whose timeline slot a
    /// run holds or has filled.
    claimed: Mutex<BTreeSet<(String, u32, u32)>>,
}

/// One configuration's timeline slot, held by the run that will record
/// it. Dropped before [`TimelineClaim::keep`] — the run failed or was
/// abandoned — it frees the slot for the configuration's next launch.
#[derive(Debug)]
pub struct TimelineClaim {
    sink: Arc<Sink>,
    config: Option<(String, u32, u32)>,
}

impl TimelineClaim {
    /// The claiming run finished and its record carries the timeline:
    /// the slot stays taken.
    pub fn keep(mut self) {
        self.config = None;
    }
}

impl Drop for TimelineClaim {
    fn drop(&mut self) {
        if let Some(config) = self.config.take() {
            let mut claimed = self.sink.claimed.lock().expect("sink poisoned");
            claimed.remove(&config);
        }
    }
}

impl Sink {
    /// An empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Claim the timeline slot of configuration `(label, threads, nodes)`
    /// for a run about to launch: `Some` only for the first claimant, so
    /// runs claiming in grid order keep the first run's timeline whatever
    /// order they finish in.
    pub fn claim(self: &Arc<Self>, label: &str, threads: u32, nodes: u32) -> Option<TimelineClaim> {
        let config = (label.to_string(), threads, nodes);
        let mut claimed = self.claimed.lock().expect("sink poisoned");
        claimed.insert(config.clone()).then(|| TimelineClaim {
            sink: self.clone(),
            config: Some(config),
        })
    }

    /// Append one run's record as handed over.
    pub fn push(&self, r: RunRecord) {
        self.runs.lock().expect("sink poisoned").push(r);
    }

    /// Take all records collected so far.
    pub fn take(&self) -> Vec<RunRecord> {
        std::mem::take(&mut *self.runs.lock().expect("sink poisoned"))
    }

    /// Number of records collected.
    pub fn len(&self) -> usize {
        self.runs.lock().expect("sink poisoned").len()
    }

    /// Whether nothing has been collected.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_of_histogram() {
        let mut h = Histogram::new();
        h.record(1000);
        let s = CsStats::of(&h);
        assert_eq!(s.count, 1);
        assert_eq!(s.p50, 1000);
        assert_eq!(s.max, 1000);
        let mut w = Writer::default();
        s.to_json(&mut w);
        assert_eq!(
            w.finish(),
            "{\"count\":1,\"p50\":1000,\"p99\":1000,\"max\":1000,\"mean\":1000}"
        );
    }

    #[test]
    fn timeline_cap_keeps_first_per_config() {
        let s = Arc::new(Sink::new());
        let first = s.claim("mutex", 4, 1).expect("first claimant");
        assert!(s.claim("mutex", 4, 1).is_none(), "same config");
        assert!(s.claim("mutex", 8, 1).is_some(), "other threads");
        assert!(s.claim("mutex", 4, 2).is_some(), "other nodes");
        assert!(s.claim("ticket", 4, 1).is_some(), "other label");
        drop(first);
        let again = s
            .claim("mutex", 4, 1)
            .expect("a dropped claim frees the slot");
        again.keep();
        assert!(s.claim("mutex", 4, 1).is_none(), "a kept slot stays taken");
    }

    #[test]
    fn sink_collects_and_drains() {
        let s = Sink::new();
        assert!(s.is_empty());
        s.push(RunRecord {
            label: "mutex".into(),
            ..Default::default()
        });
        assert_eq!(s.len(), 1);
        let runs = s.take();
        assert_eq!(runs.len(), 1);
        assert_eq!(runs[0].label, "mutex");
        assert!(s.is_empty());
    }
}
