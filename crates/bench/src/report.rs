//! The shared figure-binary reporting helper.
//!
//! Every `fig*` binary creates one [`Fig`], routes its [`Experiment`]s
//! through [`Fig::wire`], registers the series/scalars it prints, and
//! calls [`Fig::finish`], which writes:
//!
//! * `results/BENCH_<id>.json` (always) — a machine-readable summary: one
//!   record per run (label, grid, end time, CS wait/hold and
//!   message-latency p50/p99/max), the registered series and scalars, and
//!   — for the first run of each configuration — a `prof` block (blame
//!   matrix, critical-path latency decomposition, windowed aggregation)
//!   produced by `mtmpi-prof`, stored as data only (`xtask top <id>`
//!   renders its human view);
//! * `results/<id>.prom` (always) — the same profile as a Prometheus-style
//!   text exposition, one gauge family per metric;
//! * `results/<id>.trace.json` (only when tracing is on) — a merged
//!   Chrome trace-event document, one Chrome process per profiled run
//!   plus a per-window `contention` counter track, loadable in Perfetto /
//!   `chrome://tracing`.
//!
//! Capture is on for the run whose timeline the sink keeps: the first
//! run launched of each `(label, threads, nodes)` configuration claims
//! the slot, and every other run of the sweep runs with its recorder off.
//! The virtual clock never advances on a clock *read*, so recording
//! cannot perturb results. `--trace` only controls whether the Chrome
//! trace document is exported.

use mtmpi::prelude::*;
use mtmpi_obs::json::Writer;
use mtmpi_obs::{ChromeDoc, CsStats, RunRecord};
use mtmpi_prof::ProfReport;
use std::sync::Arc;

/// Whether `--trace` was passed.
pub fn trace_mode() -> bool {
    std::env::args().any(|a| a == "--trace")
}

/// Per-figure collector for the machine-readable outputs.
pub struct Fig {
    id: String,
    sink: Arc<Sink>,
    trace: bool,
    series: Vec<Series>,
    scalars: Vec<(String, f64)>,
}

impl Fig {
    /// Start reporting for figure `id` (e.g. `"fig2a"`). Reads the
    /// trace-export switch from argv; capture is on for the run whose
    /// timeline the sink keeps (first launched per configuration).
    pub fn new(id: impl Into<String>) -> Self {
        Self {
            id: id.into(),
            sink: Arc::new(Sink::new()),
            trace: trace_mode(),
            series: Vec::new(),
            scalars: Vec::new(),
        }
    }

    /// Whether this figure run exports Chrome trace documents.
    pub fn traced(&self) -> bool {
        self.trace
    }

    /// Wire an experiment into this figure's sink. Capture is on for the
    /// run whose timeline the sink keeps, the first launched of each
    /// configuration; the others run with the recorder off.
    pub fn wire(&self, exp: Experiment) -> Experiment {
        exp.observe(self.sink.clone())
    }

    /// Shorthand: a paper-grade experiment on `nodes` nodes, wired.
    pub fn experiment(&self, nodes: u32) -> Experiment {
        self.wire(Experiment::quick(nodes))
    }

    /// Register a plotted series for the JSON summary.
    pub fn series(&mut self, s: &Series) {
        self.series.push(s.clone());
    }

    /// Register all of them.
    pub fn series_all(&mut self, ss: &[Series]) {
        for s in ss {
            self.series(s);
        }
    }

    /// Register a named scalar result (speedups, degradation factors…).
    pub fn scalar(&mut self, name: impl Into<String>, value: f64) {
        self.scalars.push((name.into(), value));
    }

    /// Render the summary JSON (exposed for tests; [`Fig::finish`] writes
    /// it to disk).
    pub fn summary_json(&self) -> String {
        let runs = self.sink.take();
        let out = self.render_summary(&runs, &Self::profiles(&runs));
        // A `&self` call leaves the sink as it found it.
        for r in runs {
            self.sink.push(r);
        }
        out
    }

    /// One profile per run that kept a timeline, index-aligned with
    /// `runs` — computed once in [`Fig::finish`] and shared by the
    /// summary, the prom exposition and the trace.
    fn profiles(runs: &[RunRecord]) -> Vec<Option<ProfReport>> {
        runs.iter()
            .map(|r| {
                let t = r.timeline.as_ref()?;
                Some(ProfReport::analyze(t, &r.msg_latency))
            })
            .collect()
    }

    fn render_summary(&self, runs: &[RunRecord], profs: &[Option<ProfReport>]) -> String {
        let mut w = Writer::default();
        w.raw("{\"id\":\"").raw(&self.id).raw("\",\"traced\":");
        w.raw(if self.trace { "true" } else { "false" });
        // Combined replay-identity hash: order-sensitive FNV-1a fold of
        // every run's scheduler-trace hash. Hex string — JSON numbers are
        // f64 and cannot hold a u64 exactly.
        let mut combined: u64 = 0xcbf2_9ce4_8422_2325;
        for r in runs {
            for b in r.sched_trace_hash.to_le_bytes() {
                combined ^= u64::from(b);
                combined = combined.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        w.hex(",\"sched_trace_hash\":\"", combined, 16);
        w.raw("\",\"runs\":[");
        for (i, (r, prof)) in runs.iter().zip(profs).enumerate() {
            w.comma(i)
                .label("{\"label\":", &r.label.replace('"', "'"))
                .uint(",\"threads\":", r.threads)
                .uint(",\"nodes\":", r.nodes)
                .uint(",\"end_ns\":", r.end_ns)
                .hex(",\"sched_trace_hash\":\"", r.sched_trace_hash, 16)
                .raw("\"");
            for (key, h) in [
                (",\"cs_wait\":", &r.cs_wait),
                (",\"cs_hold\":", &r.cs_hold),
                (",\"msg_latency\":", &r.msg_latency),
            ] {
                CsStats::of(h).to_json(w.raw(key));
            }
            if let Some(prof) = prof {
                w.raw(",\"prof\":").raw(&prof.to_json());
            }
            w.raw("}");
        }
        w.raw("],\"series\":[");
        for (i, s) in self.series.iter().enumerate() {
            w.comma(i)
                .label("{\"label\":", &s.label.replace('"', "'"))
                .raw(",\"points\":[");
            for (j, &(x, y)) in s.points.iter().enumerate() {
                number(w.comma(j), "[", x);
                number(&mut w, ",", y).raw("]");
            }
            w.raw("]}");
        }
        w.raw("],\"scalars\":{");
        for (i, (k, v)) in self.scalars.iter().enumerate() {
            number(w.comma(i).label("", &k.replace('"', "'")), ":", *v);
        }
        w.raw("}}\n");
        w.finish()
    }

    /// Write one result file, reporting either outcome on stderr.
    fn write_result(&self, path: &str, text: String, hint: &str) {
        match std::fs::write(path, text) {
            Ok(()) => eprintln!("[{}] wrote {path}{hint}", self.id),
            Err(e) => eprintln!("[{}] cannot write {path}: {e}", self.id),
        }
    }

    /// Write `results/BENCH_<id>.json` and `results/<id>.prom` (and the
    /// merged Chrome trace when tracing). Call last, after all runs and
    /// registrations.
    pub fn finish(self) {
        let runs = self.sink.take();
        let profs = Self::profiles(&runs);
        let summary = self.render_summary(&runs, &profs);
        if std::fs::create_dir_all("results").is_err() {
            eprintln!("[{}] cannot create results/", self.id);
            return;
        }
        self.write_result(&format!("results/BENCH_{}.json", self.id), summary, "");

        let profiled = profiled(&runs, &profs);
        if profiled.is_empty() {
            eprintln!("[{}] no timelines captured; skipping prom/trace", self.id);
            return;
        }

        let mut prom = String::new();
        for (_, r, prof) in &profiled {
            prom.push_str(&prof.prom(&format!(
                "fig=\"{}\",run=\"{}\",threads=\"{}\",nodes=\"{}\"",
                self.id,
                r.label.replace('"', "'"),
                r.threads,
                r.nodes
            )));
        }
        self.write_result(&format!("results/{}.prom", self.id), prom, "");

        if self.trace {
            let names: Vec<&str> = profiled.iter().map(|p| p.0.as_str()).collect();
            eprintln!(
                "[{}] trace keeps {} of {} runs (first per config): {}",
                self.id,
                profiled.len(),
                runs.len(),
                names.join(", ")
            );
            let hint = " — open in Perfetto (ui.perfetto.dev) or chrome://tracing";
            let path = format!("results/{}.trace.json", self.id);
            self.write_result(&path, trace_doc(&profiled), hint);
        }
    }
}

/// A run that kept its timeline: its Chrome process name (label and
/// thread count, which together tell a sweep's runs apart), its record
/// and its profile.
type Profiled<'a> = (String, &'a RunRecord, &'a ProfReport);

fn profiled<'a>(runs: &'a [RunRecord], profs: &'a [Option<ProfReport>]) -> Vec<Profiled<'a>> {
    let named = |(r, p): (&'a RunRecord, &'a Option<ProfReport>)| {
        Some((format!("{} {}t", r.label, r.threads), r, p.as_ref()?))
    };
    runs.iter().zip(profs).filter_map(named).collect()
}

/// The merged Chrome trace: one process per profiled run (the sink
/// already kept only the first timeline of each configuration), plus the
/// prof layer's contention counter track per process.
fn trace_doc(profiled: &[Profiled]) -> String {
    let named: Vec<(&str, &Timeline)> = profiled
        .iter()
        .map(|(name, r, _)| (name.as_str(), r.timeline.as_ref().expect("profiled")))
        .collect();
    let mut doc = ChromeDoc::new(&named);
    for (pid, (_, _, prof)) in profiled.iter().enumerate() {
        prof.counter_track(pid as u32, &mut doc);
    }
    doc.finish()
}

/// A figure value as a JSON number (`NaN`/`inf` are not JSON: `null`).
fn number<'w>(w: &'w mut Writer, pre: &str, v: f64) -> &'w mut Writer {
    if v.is_finite() {
        w.float(pre, v)
    } else {
        w.raw(pre).raw("null")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtmpi_obs::{RunRecord, Timeline};

    #[test]
    fn summary_json_shape() {
        let mut fig = Fig::new("figtest");
        fig.sink.push(RunRecord {
            label: "mutex".into(),
            threads: 4,
            nodes: 2,
            end_ns: 123,
            ..Default::default()
        });
        let mut s = Series::new("4 tpn");
        s.push(1.0, 2.0);
        fig.series(&s);
        fig.scalar("degradation", 3.5);
        let j = fig.summary_json();
        assert!(j.contains("\"id\":\"figtest\""));
        assert!(j.contains("\"label\":\"mutex\""));
        assert_eq!(j.matches("\"sched_trace_hash\":\"").count(), 2);
        assert!(j.contains("\"cs_wait\":{\"count\":0"));
        assert!(j.contains("\"points\":[[1,2]]"));
        assert!(j.contains("\"degradation\":3.5"));
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        // The sink is restored for finish()'s prom/trace passes.
        assert_eq!(fig.sink.len(), 1);
    }

    #[test]
    fn runs_with_timelines_get_prof_blocks() {
        let fig = Fig::new("figtest");
        fig.sink.push(RunRecord {
            label: "mutex".into(),
            threads: 4,
            nodes: 1,
            timeline: Some(Timeline::default()),
            ..Default::default()
        });
        fig.sink.push(RunRecord {
            label: "ticket".into(),
            threads: 4,
            nodes: 1,
            ..Default::default()
        });
        let j = fig.summary_json();
        assert_eq!(j.matches("\"prof\":").count(), 1, "only the traced run");
        assert!(j.contains("\"blame\":"));
        assert!(!j.contains("\"text_report\":"), "the view is not stored");
        assert_eq!(j.matches('{').count(), j.matches('}').count());
    }

    #[test]
    fn wire_records_only_the_first_run_per_config() {
        // A repeat of a configuration runs with its recorder off.
        let fig = Fig::new("figtest");
        let exp = fig.experiment(1);
        for _ in 0..2 {
            exp.run(RunConfig::new(Method::Mutex).nodes(1), |_| {});
        }
        let runs = fig.sink.take();
        assert!(runs[0].timeline.is_some());
        assert!(runs[1].timeline.is_none());
    }

    #[test]
    fn nonfinite_scalars_become_null() {
        let mut fig = Fig::new("figtest");
        fig.scalar("bad", f64::NAN);
        fig.scalar("good", 2.5);
        let mut s = Series::new("s");
        s.push(1.0, f64::INFINITY);
        fig.series(&s);
        let j = fig.summary_json();
        assert!(j.contains("\"scalars\":{\"bad\":null,\"good\":2.5}"));
        assert!(j.contains("\"points\":[[1,null]]"));
    }

    #[test]
    fn merged_trace_names_each_process_by_label_and_thread_count() {
        // One label swept over thread counts (fig2a's shape): the merged
        // document must tell the runs apart.
        let runs: Vec<RunRecord> = [1, 2]
            .into_iter()
            .map(|threads| RunRecord {
                label: "mutex".into(),
                threads,
                nodes: 1,
                timeline: Some(Timeline::default()),
                ..Default::default()
            })
            .collect();
        let profs = Fig::profiles(&runs);
        let doc = trace_doc(&profiled(&runs, &profs));
        let names: Vec<&str> = doc
            .lines()
            .filter(|l| l.contains("\"process_name\""))
            .collect();
        assert_eq!(names.len(), 2);
        assert!(names[0].contains("\"pid\":0") && names[0].contains("\"name\":\"mutex 1t\""));
        assert!(names[1].contains("\"pid\":1") && names[1].contains("\"name\":\"mutex 2t\""));
        mtmpi_prof::Json::parse(&doc).expect("merged trace parses");
    }
}
