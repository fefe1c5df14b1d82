//! `profile_export` — the read path only: blame attribution, latency
//! decomposition, windowing, the `prof` JSON round trip and both trace
//! exporters over one recorded timeline.
//!
//! Why: `obs` and `prof` do all of the work and no simulated thread
//! runs — the counterpart to the recorder appends in `pt2pt_figure`,
//! and the workload a merged blame engine or JSON module must show on.

use super::pt2pt::{cell_body, cell_cfg};
use super::{drive, Outcome, Pass, Trace, Workload};
use crate::span::self_total;
use mtmpi::prelude::*;
use mtmpi_bench::ThroughputParams;
use mtmpi_metrics::Histogram;
use mtmpi_prof::{BlameMatrix, Json, LatencyDecomp, ProfReport, Windows};

/// Windows per thread of the recorded 8-thread Mutex cell. At 32 the
/// timeline holds ~193 k events and the busiest thread records ~14.2 k
/// of the 16 Ki its recorder shard can hold (36 windows reach 16.0 k and
/// 40 drop), so no seed comes near a drop.
pub const RECORD_WINDOWS: u32 = 32;
/// Analysis + export passes over the timeline per iteration.
pub const PASSES: u32 = 1;

pub struct ProfileExport {
    timeline: Timeline,
    latency: Histogram,
}

/// What one pass over the timeline produced, for the digest.
struct PassOut {
    lens: [u64; 3],
    total_wait_ns: u64,
    residual_ns: u64,
    parsed: bool,
}

impl ProfileExport {
    fn pass(&self, trace: &mut Trace) -> PassOut {
        let (t, lat) = (&self.timeline, &self.latency);
        let spans = &mut trace.spans;
        let report = if spans.is_on() {
            // `ProfReport::analyze` is these three calls; taking them
            // apart gives each its own span.
            spans.scope("prof.analyze", |s| ProfReport {
                blame: s.scope("prof.blame", |_| BlameMatrix::from_timeline(t)),
                decomp: s.scope("prof.decomp", |_| LatencyDecomp::analyze(t, lat)),
                windows: s.scope("prof.windows", |_| Windows::auto(t)),
            })
        } else {
            ProfReport::analyze(t, lat)
        };
        trace.laps.lap();
        let json = spans.scope("prof.to_json", |_| report.to_json());
        trace.laps.lap();
        let parsed = spans.scope("prof.json_parse", |_| Json::parse(&json).is_ok());
        trace.laps.lap();
        let chrome = spans.scope("obs.chrome_trace", |_| chrome_trace(t));
        trace.laps.lap();
        let lines = spans.scope("obs.jsonl", |_| jsonl(t));
        trace.laps.lap();
        let (row_err, matrix_err) = report.blame.check_conservation();
        PassOut {
            lens: [json.len() as u64, chrome.len() as u64, lines.len() as u64],
            total_wait_ns: report.blame.total_wait_ns,
            residual_ns: row_err + matrix_err,
            parsed,
        }
    }
}

impl Workload for ProfileExport {
    const NAME: &'static str = "profile_export";

    fn setup(seed: u64, trace: &mut Trace) -> Self {
        let exp = Experiment::with_seed(2, seed).trace(true);
        let p = ThroughputParams::new(1, 8).windows(RECORD_WINDOWS);
        let out = drive(
            &exp,
            cell_cfg(Method::Mutex, &p),
            cell_body(p.size, p.windows),
            trace,
        );
        let mut latency = Histogram::new();
        for r in 0..out.nranks {
            latency.merge(&out.stats(r).msg_latency_ns);
        }
        let timeline = out.timeline.expect("traced run keeps its timeline");
        assert_eq!(
            timeline.dropped, 0,
            "recorder dropped: shrink RECORD_WINDOWS"
        );
        Self { timeline, latency }
    }

    fn iterate(&mut self, trace: &mut Trace) -> Outcome {
        let mut out = Outcome {
            ok: true,
            ..Outcome::default()
        };
        for _ in 0..PASSES {
            let p = self.pass(trace);
            out.ops += self.timeline.len() as u64;
            out.ok &= p.parsed && p.residual_ns == 0;
            out.digest.extend(p.lens);
            out.digest.extend([p.total_wait_ns, p.residual_ns]);
        }
        out
    }

    fn ledger(&mut self, pass: &Pass, out: &mut Vec<(&'static str, f64)>) {
        let spans = pass.trace.spans.spans();
        let ms = |name| self_total(spans, name) / 1e6 / f64::from(PASSES);
        let cs_spans = self.timeline.cs_spans().count() as f64;
        // The digest leads with one pass's lengths, wait total, residual.
        let d = &pass.traced.digest;
        let (json_b, chrome_b, jsonl_b) = (d[0] as f64, d[1] as f64, d[2] as f64);
        let mb_per_s = |bytes: f64, ms: f64| bytes / 1e6 / (ms / 1e3);
        let (blame_ms, decomp_ms, windows_ms) =
            (ms("prof.blame"), ms("prof.decomp"), ms("prof.windows"));
        out.extend([
            ("prof.blame_ns_per_span", blame_ms * 1e6 / cs_spans),
            ("prof.decomp_ms", decomp_ms),
            ("prof.windows_ms", windows_ms),
            (
                "prof.analyze_ms",
                ms("prof.analyze") + blame_ms + decomp_ms + windows_ms,
            ),
            ("prof.to_json_ms", ms("prof.to_json")),
            (
                "prof.json_parse_mb_per_s",
                mb_per_s(json_b, ms("prof.json_parse")),
            ),
            ("prof.conservation_residual_ns", d[4] as f64),
            (
                "obs.chrome_mb_per_s",
                mb_per_s(chrome_b, ms("obs.chrome_trace")),
            ),
            ("obs.jsonl_mb_per_s", mb_per_s(jsonl_b, ms("obs.jsonl"))),
            ("obs.export_bytes", chrome_b + jsonl_b),
        ]);
    }
}
