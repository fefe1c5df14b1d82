//! `xtask top <fig>` — the human view of a figure's profiles.
//!
//! Reads the figure's `results/BENCH_<fig>.json` back (via [`crate::json`])
//! and renders each profiled run from its `prof` block alone: a header
//! line; the profile view — the critical-path decomposition of mean
//! message latency, the top blocked-by pairs of the blame matrix, the
//! acquisition shares and the Gini/starvation line; then the windowed
//! aggregation as a fixed-width table, one line per virtual-time window
//! with span count, wait quantiles, the dominant acquirer and its share,
//! and the Gini index. The document stores a profile only as data; this
//! module is the one place that decides how it reads at a terminal —
//! "who is hogging the runtime critical section, and when", no Perfetto
//! round trip needed.

use crate::json::Json;
use mtmpi_metrics::Table;
use mtmpi_obs::json::fmt_us;
use std::cmp::Reverse;

/// Blocked-by pairs the profile view lists; the rest are counted.
const TOP_PAIRS: usize = 10;

/// Member `k` of `v` as a `u64` (`0` when absent).
fn num(v: &Json, k: &str) -> u64 {
    v.get(k).and_then(Json::as_u64).unwrap_or(0)
}

/// Member `k` of `v` as an `f64` (`0.0` when absent).
fn real(v: &Json, k: &str) -> f64 {
    v.get(k).and_then(Json::as_f64).unwrap_or(0.0)
}

/// Member `k` of `v` as a string (`"?"` when absent).
fn text<'a>(v: &'a Json, k: &str) -> &'a str {
    v.get(k).and_then(Json::as_str).unwrap_or("?")
}

/// Member `k` of `v` as an array (empty when absent).
fn items<'a>(v: &'a Json, k: &str) -> &'a [Json] {
    v.get(k).and_then(Json::as_array).unwrap_or(&[])
}

/// Member `k` of a `prof` block, which must be there.
fn member<'a>(v: &'a Json, k: &str) -> Result<&'a Json, String> {
    v.get(k).ok_or_else(|| format!("prof block lacks {k}"))
}

/// `v` as a percentage of `of`, one decimal (`0.0` of nothing).
fn pct(v: f64, of: f64) -> String {
    if of > 0.0 {
        format!("{:.1}", 100.0 * v / of)
    } else {
        "0.0".into()
    }
}

/// Render every profiled run in a `BENCH_<fig>.json` document: its
/// header, its profile view and its windowed contention table. Errors
/// when the document does not parse, a `prof` block lacks a section, or
/// the document has no `prof` blocks (run the figure binary first;
/// profiling is always on).
pub fn top_report(bench_json: &str) -> Result<String, String> {
    let doc = Json::parse(bench_json)?;
    let fig = text(&doc, "id");
    let runs = doc
        .get("runs")
        .and_then(Json::as_array)
        .ok_or("document has no \"runs\" array")?;
    let mut out = String::new();
    let mut profiled = 0usize;
    for r in runs {
        let Some(prof) = r.get("prof") else { continue };
        profiled += 1;
        let (blame, windows) = (member(prof, "blame")?, member(prof, "windows")?);
        let st = member(blame, "starvation")?;
        out.push_str(&format!(
            "{fig} \u{2014} {} {}t\u{d7}{}n  (window {} ms, gini {:.3}, \
             starvation ratio {:.2}, dropped {})\n",
            text(r, "label"),
            num(r, "threads"),
            num(r, "nodes"),
            num(windows, "width_ns") / 1_000_000,
            real(blame, "gini"),
            real(st, "ratio"),
            num(windows, "dropped"),
        ));
        out.push_str(&profile_view(blame, st, member(prof, "decomp")?));
        out.push('\n');
        let mut t = Table::new(&[
            "window_ms",
            "spans",
            "wait_p50_us",
            "wait_p99_us",
            "top",
            "share",
            "gini",
        ]);
        for w in items(windows, "rows") {
            let spans = num(w, "spans");
            t.row(vec![
                (num(w, "start_ns") / 1_000_000).to_string(),
                spans.to_string(),
                fmt_us(num(w, "wait_p50_ns")),
                fmt_us(num(w, "wait_p99_ns")),
                if spans == 0 {
                    "-".into()
                } else {
                    format!("t{}", num(w, "top_tid"))
                },
                format!("{:.2}", real(w, "top_share")),
                format!("{:.2}", real(w, "gini")),
            ]);
        }
        out.push_str(&t.render());
        out.push('\n');
    }
    if profiled == 0 {
        return Err(format!(
            "no prof blocks in BENCH_{fig}.json \u{2014} re-run the figure binary to regenerate it"
        ));
    }
    Ok(out)
}

/// A `prof` block's profile view, from its `blame`, `blame.starvation`
/// and `decomp` members: the critical-path decomposition, the top
/// blocked-by pairs, the acquisition shares, and the Gini index with the
/// progress-starvation ratio.
fn profile_view(blame: &Json, st: &Json, d: &Json) -> String {
    let mut out = String::from("critical-path decomposition (mean ns/message)\n");
    let mean = real(d, "mean_ns");
    let mut t = Table::new(&["segment", "ns/msg", "%"]);
    for (name, key) in [
        ("cs-wait", "cs_wait_ns"),
        ("cs-hold", "cs_hold_ns"),
        ("poll-batch", "poll_ns"),
        ("retry", "retry_ns"),
        ("network", "network_ns"),
    ] {
        let v = real(d, key);
        t.row(vec![name.into(), format!("{v:.1}"), pct(v, mean)]);
    }
    t.row(vec!["total".into(), format!("{mean:.1}"), "100.0".into()]);
    out.push_str(&t.render());
    let scale = real(d, "scale");
    if scale < 1.0 {
        out.push_str(&format!(
            "(runtime segments scaled by {scale:.3}: trace covers more work than the latency window)\n"
        ));
    }

    out.push_str("\nblame matrix: top blocked-by pairs\n");
    let rows = items(blame, "rows");
    let mut pairs: Vec<(u64, u64, &str, &str, u64)> = Vec::new();
    for r in rows {
        for c in items(r, "cells") {
            let (w, h, ns) = (num(r, "waiter"), num(c, "tid"), num(c, "ns"));
            pairs.push((w, h, text(c, "path"), text(c, "op"), ns));
        }
    }
    pairs.sort_by_key(|p| (Reverse(p.4), p.0, p.1));
    let total = num(blame, "total_wait_ns");
    let mut t = Table::new(&["waiter", "holder", "path", "op", "blocked_us", "%wait"]);
    for &(w, h, path, op, ns) in pairs.iter().take(TOP_PAIRS) {
        t.row(vec![
            format!("t{w}"),
            format!("t{h}"),
            path.into(),
            op.into(),
            fmt_us(ns),
            pct(ns as f64, total as f64),
        ]);
    }
    out.push_str(&t.render());
    let more = pairs.len().saturating_sub(TOP_PAIRS);
    if more > 0 {
        out.push_str(&format!("({more} more pairs omitted)\n"));
    }
    let unattributed: u64 = rows.iter().map(|r| num(r, "unattributed_ns")).sum();
    out.push_str(&format!(
        "total cs-wait {} us; unattributed (hand-off) {} us\n",
        fmt_us(total),
        fmt_us(unattributed)
    ));

    out.push_str("\nacquisition shares\n");
    let mut t = Table::new(&["thread", "acq", "share", "hold_us"]);
    for s in items(blame, "shares") {
        t.row(vec![
            format!("t{}", num(s, "tid")),
            num(s, "acquisitions").to_string(),
            format!("{:.3}", real(s, "share")),
            fmt_us(num(s, "hold_ns")),
        ]);
    }
    out.push_str(&t.render());
    out.push_str(&format!(
        "gini {:.3}; progress starvation ratio {:.2} ({} progress vs {} main spans)\n",
        real(blame, "gini"),
        real(st, "ratio"),
        num(st, "progress_spans"),
        num(st, "main_spans")
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::ProfReport;
    use mtmpi_metrics::Histogram;
    use mtmpi_obs::{CsKind, CsOp, Event, EventKind, Path, Timeline};

    fn bench_doc_with_prof() -> String {
        let t = Timeline {
            events: vec![
                Event {
                    t_ns: 100,
                    tid: 1,
                    core: 0,
                    socket: 0,
                    kind: EventKind::CsSpan {
                        lock: 0,
                        kind: CsKind::Mutex,
                        path: Path::Main,
                        op: CsOp::Isend,
                        vci: 0,
                        t_req: 0,
                        t_acq: 10,
                    },
                },
                Event {
                    t_ns: 250,
                    tid: 2,
                    core: 1,
                    socket: 0,
                    kind: EventKind::CsSpan {
                        lock: 0,
                        kind: CsKind::Mutex,
                        path: Path::Progress,
                        op: CsOp::Progress,
                        vci: 0,
                        t_req: 50,
                        t_acq: 100,
                    },
                },
            ],
            dropped: 0,
        };
        let mut h = Histogram::new();
        h.record(1000);
        let prof = ProfReport::analyze(&t, &h).to_json();
        format!(
            "{{\"id\":\"figtest\",\"runs\":[{{\"label\":\"mutex\",\"threads\":4,\
             \"nodes\":1,\"end_ns\":250,\"prof\":{prof}}}]}}"
        )
    }

    #[test]
    fn renders_windows_for_profiled_runs() {
        let out = top_report(&bench_doc_with_prof()).unwrap();
        assert!(out.contains("figtest"));
        assert!(out.contains("mutex 4t\u{d7}1n"));
        assert!(out.contains("critical-path decomposition"));
        assert!(out.contains("blame matrix"));
        assert!(out.contains("progress"));
        let pair = ["t2", "t1", "main", "isend"];
        assert!(
            out.lines().any(|l| l.split_whitespace().take(4).eq(pair)),
            "t2 waited on t1's isend: {out}"
        );
        assert!(out.contains("wait_p99_us"));
        assert!(out.contains("gini"));
    }

    #[test]
    fn errors_without_prof_blocks() {
        let doc = "{\"id\":\"fig9\",\"runs\":[{\"label\":\"x\",\"threads\":1,\"nodes\":1}]}";
        let e = top_report(doc).unwrap_err();
        assert!(e.contains("no prof blocks"));
        assert!(top_report("not json").is_err());
    }
}
