//! [`ProfReport`]: one run's full profile, with its machine renderings.
//!
//! The bench layer calls [`ProfReport::analyze`] on each traced run and
//! embeds [`ProfReport::to_json`] as the run's `"prof"` block inside
//! `BENCH_<id>.json`; the same struct renders the Perfetto counter-track
//! events appended to `results/<id>.trace.json` and the Prometheus-style
//! exposition written to `results/<id>.prom`. The human view is not
//! stored: `xtask top` renders it from the `"prof"` block
//! ([`crate::top`]). All three renderings are pure functions of the
//! deterministic timeline, so they are byte-identical across same-seed
//! runs.

use crate::blame::BlameMatrix;
use crate::decomp::LatencyDecomp;
use crate::window::Windows;
use mtmpi_metrics::Histogram;
use mtmpi_obs::json::{fmt_f64, Writer};
use mtmpi_obs::{ChromeDoc, Timeline};

/// One run's blame matrix, latency decomposition, and windowed series.
#[derive(Debug, Clone)]
pub struct ProfReport {
    /// Who blocked whom, and for how long.
    pub blame: BlameMatrix,
    /// Where the mean message latency went.
    pub decomp: LatencyDecomp,
    /// The run as a windowed contention time series.
    pub windows: Windows,
}

impl ProfReport {
    /// Analyze one run: its event timeline and its measured message
    /// latency histogram.
    pub fn analyze(t: &Timeline, latency: &Histogram) -> Self {
        Self {
            blame: BlameMatrix::from_timeline(t),
            decomp: LatencyDecomp::analyze(t, latency),
            windows: Windows::auto(t),
        }
    }

    /// The `"prof"` JSON block (one line, deterministic): the profile as
    /// data. `xtask top` renders its human view from this block.
    pub fn to_json(&self) -> String {
        let mut out = Writer::default();
        out.uint("{\"blame\":{\"total_wait_ns\":", self.blame.total_wait_ns)
            .float(",\"gini\":", self.blame.gini)
            .raw(",\"rows\":[");
        for (i, r) in self.blame.rows.iter().enumerate() {
            out.comma(i)
                .uint("{\"waiter\":", r.waiter_tid)
                .uint(",\"total_ns\":", r.total_ns)
                .uint(",\"unattributed_ns\":", r.unattributed_ns)
                .raw(",\"cells\":[");
            for (j, c) in r.cells.iter().enumerate() {
                out.comma(j)
                    .uint("{\"tid\":", c.holder.tid)
                    .label(",\"path\":", c.holder.path().label())
                    .label(",\"op\":", c.holder.op().label())
                    .uint(",\"ns\":", c.ns)
                    .raw("}");
            }
            out.raw("]}");
        }
        out.raw("],\"shares\":[");
        for (i, s) in self.blame.shares.iter().enumerate() {
            out.comma(i)
                .uint("{\"tid\":", s.tid)
                .uint(",\"acquisitions\":", s.acquisitions)
                .float(",\"share\":", s.share)
                .uint(",\"hold_ns\":", s.hold_ns)
                .raw("}");
        }
        let (st, d) = (&self.blame.starvation, &self.decomp);
        out.uint("],\"starvation\":{\"main_spans\":", st.main_spans)
            .uint(",\"progress_spans\":", st.progress_spans)
            .uint(",\"waitspin_spans\":", st.waitspin_spans)
            .uint(",\"stream_spans\":", st.stream_spans)
            .float(",\"main_wait_mean_ns\":", st.main_wait_mean_ns)
            .float(",\"progress_wait_mean_ns\":", st.progress_wait_mean_ns)
            .float(",\"waitspin_wait_mean_ns\":", st.waitspin_wait_mean_ns)
            .float(",\"stream_wait_mean_ns\":", st.stream_wait_mean_ns)
            .float(",\"ratio\":", st.ratio)
            .uint("}},\"decomp\":{\"messages\":", d.messages)
            .float(",\"mean_ns\":", d.mean_ns)
            .float(",\"cs_wait_ns\":", d.cs_wait_ns)
            .float(",\"cs_hold_ns\":", d.cs_hold_ns)
            .float(",\"poll_ns\":", d.poll_ns)
            .float(",\"retry_ns\":", d.retry_ns)
            .float(",\"network_ns\":", d.network_ns)
            .float(",\"scale\":", d.scale)
            .uint("},\"windows\":{\"width_ns\":", self.windows.width_ns)
            .uint(",\"dropped\":", self.windows.dropped)
            .raw(",\"rows\":[");
        for (i, w) in self.windows.rows.iter().enumerate() {
            out.comma(i)
                .uint("{\"start_ns\":", w.start_ns)
                .uint(",\"spans\":", w.spans)
                .uint(",\"wait_p50_ns\":", w.wait_p50_ns)
                .uint(",\"wait_p99_ns\":", w.wait_p99_ns)
                .uint(",\"wait_ns\":", w.wait_ns)
                .uint(",\"hold_ns\":", w.hold_ns)
                .uint(",\"top_tid\":", w.top_tid)
                .float(",\"top_share\":", w.top_share)
                .float(",\"gini\":", w.gini)
                .raw("}");
        }
        out.raw("]}}");
        out.finish()
    }

    /// Append the Perfetto counter track (`"ph":"C"`) to a Chrome trace
    /// document: one sample per window on a `contention` track under
    /// process `pid`. Perfetto renders each args key as its own counter
    /// series.
    pub fn counter_track(&self, pid: u32, doc: &mut ChromeDoc) {
        for w in &self.windows.rows {
            doc.event()
                .us("{\"name\":\"contention\",\"ph\":\"C\",\"ts\":", w.start_ns)
                .uint(",\"pid\":", pid)
                .us(",\"args\":{\"wait_p50_us\":", w.wait_p50_ns)
                .us(",\"wait_p99_us\":", w.wait_p99_ns)
                .uint(",\"spans\":", w.spans)
                .float(",\"top_share\":", w.top_share)
                .float(",\"gini\":", w.gini)
                .raw("}}");
        }
    }

    /// Prometheus-style text exposition for this run. `labels` is the
    /// pre-rendered label set without braces, e.g.
    /// `fig="fig2a",run="mutex",threads="4",nodes="1"`.
    pub fn prom(&self, labels: &str) -> String {
        let mut out = String::new();
        let mut gauge = |name: &str, extra: &str, v: String| {
            let sep = if extra.is_empty() { "" } else { "," };
            out.push_str(&format!("mtmpi_{name}{{{labels}{sep}{extra}}} {v}\n"));
        };
        let d = &self.decomp;
        gauge("cs_wait_total_ns", "", self.blame.total_wait_ns.to_string());
        gauge("cs_gini", "", format!("{:.6}", self.blame.gini));
        gauge(
            "progress_starvation_ratio",
            "",
            format!("{:.6}", self.blame.starvation.ratio),
        );
        gauge("msg_latency_mean_ns", "", fmt_f64(d.mean_ns));
        for (seg, v) in [
            ("cs_wait", d.cs_wait_ns),
            ("cs_hold", d.cs_hold_ns),
            ("poll", d.poll_ns),
            ("retry", d.retry_ns),
            ("network", d.network_ns),
        ] {
            gauge(
                "latency_segment_ns",
                &format!("segment=\"{seg}\""),
                fmt_f64(v),
            );
        }
        for s in &self.blame.shares {
            gauge(
                "cs_acquisition_share",
                &format!("thread=\"t{}\"", s.tid),
                format!("{:.6}", s.share),
            );
        }
        for w in &self.windows.rows {
            let win = format!("window_start_ms=\"{}\"", w.start_ns / 1_000_000);
            gauge("window_wait_p99_ns", &win, w.wait_p99_ns.to_string());
            gauge("window_spans", &win, w.spans.to_string());
        }
        gauge("events_dropped", "", self.windows.dropped.to_string());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtmpi_obs::{CsKind, CsOp, Event, EventKind, Path};

    fn demo_timeline() -> Timeline {
        let cs = |tid: u32, path: Path, op: CsOp, t_req: u64, t_acq: u64, t_end: u64| Event {
            t_ns: t_end,
            tid,
            core: tid as u16,
            socket: 0,
            kind: EventKind::CsSpan {
                lock: 0,
                kind: CsKind::Mutex,
                path,
                op,
                vci: 0,
                t_req,
                t_acq,
            },
        };
        Timeline {
            events: vec![
                cs(1, Path::Main, CsOp::Isend, 0, 0, 100),
                cs(2, Path::Main, CsOp::Irecv, 10, 100, 160),
                cs(3, Path::Progress, CsOp::Progress, 20, 160, 400),
            ],
            dropped: 0,
        }
    }

    fn demo_latency() -> Histogram {
        let mut h = Histogram::new();
        for _ in 0..10 {
            h.record(2000);
        }
        h
    }

    #[test]
    fn json_block_is_valid_and_conserves() {
        let r = ProfReport::analyze(&demo_timeline(), &demo_latency());
        assert_eq!(r.blame.check_conservation(), (0, 0));
        assert!(r.decomp.residual_error() < 1e-9);
        let j = r.to_json();
        let parsed = crate::json::Json::parse(&j).expect("prof block parses");
        let total = parsed
            .get("blame")
            .unwrap()
            .get("total_wait_ns")
            .unwrap()
            .as_u64()
            .unwrap();
        // wait(t2)=90, wait(t3)=140.
        assert_eq!(total, 230);
        // Row sums reproduce the total.
        let rows = parsed.get("blame").unwrap().get("rows").unwrap();
        let sum: u64 = rows
            .as_array()
            .unwrap()
            .iter()
            .map(|row| row.get("total_ns").unwrap().as_u64().unwrap())
            .sum();
        assert_eq!(sum, total);
        assert!(
            parsed
                .get("decomp")
                .unwrap()
                .get("messages")
                .unwrap()
                .as_u64()
                == Some(10)
        );
    }

    #[test]
    fn text_report_names_the_players() {
        let r = ProfReport::analyze(&demo_timeline(), &demo_latency());
        let doc = format!(
            "{{\"id\":\"demo\",\"runs\":[{{\"label\":\"mutex\",\"threads\":3,\
             \"nodes\":1,\"prof\":{}}}]}}",
            r.to_json()
        );
        let txt = crate::top::top_report(&doc).unwrap();
        assert!(txt.contains("critical-path decomposition"));
        assert!(txt.contains("blame matrix"));
        assert!(txt.contains("progress"));
        assert!(txt.contains("gini"));
    }

    #[test]
    fn counter_events_are_valid_json_per_window() {
        let t = demo_timeline();
        let mut r = ProfReport::analyze(&t, &demo_latency());
        r.windows = Windows::compute(&t, 100);
        assert!(r.windows.rows.len() > 1, "several windows to render");
        let mut doc = ChromeDoc::new(&[("demo", &t)]);
        r.counter_track(7, &mut doc);
        let doc = doc.finish();
        crate::json::Json::parse(&doc).expect("document with a counter track parses");
        // One event per line; the appended ones are the `"C"` samples.
        let samples: Vec<&str> = doc.lines().filter(|l| l.contains("\"ph\":\"C\"")).collect();
        assert_eq!(samples.len(), r.windows.rows.len());
        for (line, w) in samples.iter().zip(&r.windows.rows) {
            let v = crate::json::Json::parse(line.trim_end_matches(','))
                .expect("counter event parses on its own");
            assert_eq!(v.get("name").unwrap().as_str(), Some("contention"));
            assert_eq!(v.get("pid").unwrap().as_u64(), Some(7));
            let spans = v.get("args").unwrap().get("spans").unwrap();
            assert_eq!(spans.as_u64(), Some(w.spans));
        }
    }

    #[test]
    fn prom_exposition_has_labelled_gauges() {
        let r = ProfReport::analyze(&demo_timeline(), &demo_latency());
        let p = r.prom("fig=\"figtest\",run=\"mutex\"");
        assert!(p.contains("mtmpi_cs_wait_total_ns{fig=\"figtest\",run=\"mutex\"} 230"));
        assert!(p.contains("segment=\"network\""));
        assert!(
            p.contains("mtmpi_cs_acquisition_share{fig=\"figtest\",run=\"mutex\",thread=\"t1\"}")
        );
        assert!(p.lines().all(|l| l.is_empty() || l.starts_with("mtmpi_")));
    }

    #[test]
    fn renderings_are_deterministic() {
        let a = ProfReport::analyze(&demo_timeline(), &demo_latency());
        let b = ProfReport::analyze(&demo_timeline(), &demo_latency());
        assert_eq!(a.to_json(), b.to_json());
        assert_eq!(a.prom("x=\"1\""), b.prom("x=\"1\""));
    }
}
