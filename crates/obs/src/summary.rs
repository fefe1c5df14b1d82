//! Per-run summaries and the cross-run [`Sink`] used by the bench layer.

use crate::json::Writer;
use crate::recorder::Timeline;
use mtmpi_metrics::Histogram;
use std::sync::Mutex;

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
#[derive(Debug, Default)]
pub struct Sink {
    runs: Mutex<Vec<RunRecord>>,
    /// Max retained timelines per `(label, threads, nodes)` configuration
    /// (`None` = unbounded). A figure sweeps many sizes per config; the
    /// first run of each — the smallest sweep point — is representative,
    /// and capping keeps always-on profiling capture memory-bounded.
    timeline_cap: Option<usize>,
}

impl Sink {
    /// An empty sink retaining every timeline.
    pub fn new() -> Self {
        Self::default()
    }

    /// A sink keeping at most `cap` timelines per distinct
    /// `(label, threads, nodes)` configuration; records beyond the cap
    /// keep their histograms but drop the event timeline.
    pub fn with_timeline_cap(cap: usize) -> Self {
        Self {
            runs: Mutex::new(Vec::new()),
            timeline_cap: Some(cap),
        }
    }

    /// Append one run's record (applying the timeline retention policy).
    pub fn push(&self, mut r: RunRecord) {
        let mut runs = self.runs.lock().expect("sink poisoned");
        if let Some(cap) = self.timeline_cap {
            if r.timeline.is_some() {
                let kept = runs
                    .iter()
                    .filter(|o| {
                        o.timeline.is_some()
                            && o.label == r.label
                            && o.threads == r.threads
                            && o.nodes == r.nodes
                    })
                    .count();
                if kept >= cap {
                    r.timeline = None;
                }
            }
        }
        runs.push(r);
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
        let s = Sink::with_timeline_cap(1);
        let rec = |label: &str, threads: u32| RunRecord {
            label: label.into(),
            threads,
            timeline: Some(Timeline::default()),
            ..Default::default()
        };
        s.push(rec("mutex", 4));
        s.push(rec("mutex", 4)); // same config: timeline dropped
        s.push(rec("mutex", 8)); // different config: kept
        let runs = s.take();
        assert!(runs[0].timeline.is_some());
        assert!(runs[1].timeline.is_none(), "cap drops the second timeline");
        assert!(runs[2].timeline.is_some());
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
