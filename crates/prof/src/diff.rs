//! The noise-aware bench regression gate (`xtask bench-diff`).
//!
//! Compares a freshly produced `BENCH_<fig>.json` against a committed
//! baseline copy. The platform is deterministic, so in principle any
//! drift is a behaviour change; in practice quantiles of log2-bucketed
//! histograms move in bucket-sized steps and intentional tuning shifts
//! them slightly, so each metric carries a **relative tolerance** and a
//! **min-count floor**: quantiles estimated from few samples are noisy
//! by construction and are skipped rather than gated.
//!
//! The gate is two-sided — an unexpected *improvement* fails too. On a
//! deterministic platform a faster number you didn't plan for means the
//! modelled contention changed, which is exactly what the gate exists to
//! catch; refresh the baseline deliberately (see EXPERIMENTS.md) to
//! accept it.
//!
//! Runs are keyed `(label, threads, nodes, occurrence-index)` — a figure
//! sweeps many message sizes per configuration, producing several runs
//! with identical labels, and the sweep order is deterministic. A run
//! present on only one side is itself a failure (the run set is part of
//! the contract).
//!
//! Two asymmetries in the missing-value policy:
//!
//! * A metric **absent from the baseline** but present in the current
//!   document is *informational*, never a failure — that is exactly what
//!   a freshly added scalar (e.g. `sched_trace_hash`) looks like against
//!   a baseline committed before it existed. A metric absent from the
//!   *current* side while the baseline has it is still a failure: the
//!   schema regressed.
//! * `sched_trace_hash` (per run and the combined top-level fold) is not
//!   a tolerance metric at all: when both sides carry it, it is compared
//!   for **exact equality**. The platform is deterministic, so any
//!   difference means the scheduler replayed a different decision
//!   sequence — a behaviour change by definition, however the quantiles
//!   look.
//!
//! Top-level figure **scalars** follow the same missing-value policy and
//! gate on **exact equality**, whatever their name: a BENCH document
//! carries no host-measured value, so every scalar is derived from the
//! deterministic virtual run.

use crate::json::Json;

/// One gated metric: which histogram field, how much drift is tolerated,
/// and below how many samples the check is skipped.
#[derive(Debug, Clone, PartialEq)]
pub struct Rule {
    /// Histogram in the run record (`"cs_wait"`, `"cs_hold"`,
    /// `"msg_latency"`), or `""` for top-level run fields.
    pub hist: &'static str,
    /// Field inside it (`"p50"`, `"p99"`), or the top-level field name
    /// (`"end_ns"`).
    pub field: &'static str,
    /// Maximum tolerated `|cur − base| / base`.
    pub tol: f64,
    /// Minimum histogram `count` for the check to be meaningful.
    pub min_count: u64,
}

/// Gate configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffOptions {
    /// The per-metric tolerance table.
    pub rules: Vec<Rule>,
    /// When the baseline value is 0, drift below this many ns is still
    /// accepted (relative drift is undefined at 0).
    pub abs_floor_ns: f64,
}

impl Default for DiffOptions {
    fn default() -> Self {
        Self {
            rules: vec![
                Rule {
                    hist: "cs_wait",
                    field: "p50",
                    tol: 0.25,
                    min_count: 100,
                },
                Rule {
                    hist: "cs_wait",
                    field: "p99",
                    tol: 0.25,
                    min_count: 100,
                },
                Rule {
                    hist: "cs_hold",
                    field: "p50",
                    tol: 0.25,
                    min_count: 100,
                },
                Rule {
                    hist: "cs_hold",
                    field: "p99",
                    tol: 0.25,
                    min_count: 100,
                },
                Rule {
                    hist: "msg_latency",
                    field: "p50",
                    tol: 0.20,
                    min_count: 50,
                },
                Rule {
                    hist: "msg_latency",
                    field: "p99",
                    tol: 0.20,
                    min_count: 50,
                },
                Rule {
                    hist: "",
                    field: "end_ns",
                    tol: 0.10,
                    min_count: 0,
                },
            ],
            abs_floor_ns: 1000.0,
        }
    }
}

/// One metric comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Delta {
    /// Run key, e.g. `mutex 4t×1n #2`.
    pub run: String,
    /// Metric name, e.g. `cs_wait.p99`.
    pub metric: String,
    /// Baseline value.
    pub base: f64,
    /// Current value.
    pub cur: f64,
    /// Relative drift `(cur − base) / base` (0 when base is 0).
    pub rel: f64,
    /// The tolerance that applied.
    pub tol: f64,
    /// Whether this metric breaches its tolerance.
    pub failed: bool,
}

/// The outcome of diffing one figure.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffReport {
    /// Figure id (from the current document).
    pub fig: String,
    /// Every comparison performed.
    pub deltas: Vec<Delta>,
    /// Human-readable failure lines (breaching metrics and missing runs).
    pub failures: Vec<String>,
    /// Informational notes that never gate: metrics the baseline simply
    /// does not carry yet (refresh it to start pinning them).
    pub info: Vec<String>,
    /// Metrics compared.
    pub compared: usize,
    /// Metrics skipped under the min-count floor.
    pub skipped: usize,
}

impl DiffReport {
    /// Whether the gate passes.
    pub fn ok(&self) -> bool {
        self.failures.is_empty()
    }

    /// Render this figure's section of `results/bench-diff.md`.
    pub fn markdown(&self) -> String {
        let mut out = format!(
            "## {} — {}\n\n{} metric(s) compared, {} skipped (min-count floor), {} failure(s)\n",
            self.fig,
            if self.ok() { "PASS" } else { "FAIL" },
            self.compared,
            self.skipped,
            self.failures.len(),
        );
        if !self.failures.is_empty() {
            out.push('\n');
            for f in &self.failures {
                out.push_str(&format!("- **{f}**\n"));
            }
        }
        if !self.info.is_empty() {
            out.push('\n');
            for i in &self.info {
                out.push_str(&format!("- _info_: {i}\n"));
            }
        }
        let breaching: Vec<&Delta> = self.deltas.iter().filter(|d| d.failed).collect();
        if !breaching.is_empty() {
            out.push_str("\n| run | metric | baseline | current | drift | tol |\n");
            out.push_str("|---|---|---:|---:|---:|---:|\n");
            for d in breaching {
                out.push_str(&format!(
                    "| {} | {} | {} | {} | {:+.1}% | ±{:.0}% |\n",
                    d.run,
                    d.metric,
                    d.base,
                    d.cur,
                    d.rel * 100.0,
                    d.tol * 100.0
                ));
            }
        }
        out
    }
}

/// Stable key + metric map for each run object, in document order.
fn index_runs(doc: &Json) -> Result<Vec<(String, Json)>, String> {
    let runs = doc
        .get("runs")
        .and_then(Json::as_array)
        .ok_or("document has no \"runs\" array")?;
    let mut seen: std::collections::BTreeMap<String, u64> = std::collections::BTreeMap::new();
    let mut out = Vec::new();
    for r in runs {
        let label = r.get("label").and_then(Json::as_str).unwrap_or("?");
        let threads = r.get("threads").and_then(Json::as_u64).unwrap_or(0);
        let nodes = r.get("nodes").and_then(Json::as_u64).unwrap_or(0);
        let base = format!("{label} {threads}t\u{d7}{nodes}n");
        let occ = seen.entry(base.clone()).or_insert(0);
        out.push((format!("{base} #{occ}"), r.clone()));
        *occ += 1;
    }
    Ok(out)
}

fn metric_of(run: &Json, rule: &Rule) -> (Option<f64>, u64) {
    if rule.hist.is_empty() {
        (run.get(rule.field).and_then(Json::as_f64), u64::MAX)
    } else {
        let h = run.get(rule.hist);
        let v = h.and_then(|h| h.get(rule.field)).and_then(Json::as_f64);
        let count = h
            .and_then(|h| h.get("count"))
            .and_then(Json::as_u64)
            .unwrap_or(0);
        (v, count)
    }
}

/// Exact-equality gate for the deterministic scheduler-trace hash.
/// `scope` names what the hash covers (`"combined"` or a run key).
fn check_hash(scope: &str, base: &Json, cur: &Json, report: &mut DiffReport) {
    let b = base.get("sched_trace_hash").and_then(Json::as_str);
    let c = cur.get("sched_trace_hash").and_then(Json::as_str);
    match (b, c) {
        (Some(b), Some(c)) => {
            report.compared += 1;
            if b != c {
                report.failures.push(format!(
                    "{scope}: sched_trace_hash {b} \u{2192} {c} — the scheduler replayed a \
                     different decision sequence (exact-equality gate, no tolerance)"
                ));
            }
        }
        (None, Some(c)) => report.info.push(format!(
            "{scope}: sched_trace_hash {c} not in baseline — refresh the baseline to pin it"
        )),
        (Some(_), None) => report.failures.push(format!(
            "{scope}: sched_trace_hash missing from current results (schema regressed)"
        )),
        (None, None) => {}
    }
}

/// Diff one figure's current `BENCH_*.json` text against its baseline
/// text. Errors on unparseable documents; missing runs and breaching
/// metrics land in [`DiffReport::failures`]; metrics the baseline does
/// not carry yet land in [`DiffReport::info`].
pub fn bench_diff(baseline: &str, current: &str, opts: &DiffOptions) -> Result<DiffReport, String> {
    let base_doc = Json::parse(baseline).map_err(|e| format!("baseline: {e}"))?;
    let cur_doc = Json::parse(current).map_err(|e| format!("current: {e}"))?;
    let fig = cur_doc
        .get("id")
        .and_then(Json::as_str)
        .unwrap_or("?")
        .to_owned();
    let base_runs = index_runs(&base_doc)?;
    let cur_runs = index_runs(&cur_doc)?;

    let mut report = DiffReport {
        fig,
        deltas: Vec::new(),
        failures: Vec::new(),
        info: Vec::new(),
        compared: 0,
        skipped: 0,
    };

    check_hash("combined", &base_doc, &cur_doc, &mut report);

    let cur_keys: std::collections::BTreeSet<&str> =
        cur_runs.iter().map(|(k, _)| k.as_str()).collect();
    let base_keys: std::collections::BTreeSet<&str> =
        base_runs.iter().map(|(k, _)| k.as_str()).collect();
    for (k, _) in &base_runs {
        if !cur_keys.contains(k.as_str()) {
            report
                .failures
                .push(format!("run `{k}` missing from current results"));
        }
    }
    for (k, _) in &cur_runs {
        if !base_keys.contains(k.as_str()) {
            report
                .failures
                .push(format!("run `{k}` not in baseline (refresh it?)"));
        }
    }

    for (key, base_run) in &base_runs {
        let Some((_, cur_run)) = cur_runs.iter().find(|(k, _)| k == key) else {
            continue;
        };
        check_hash(key, base_run, cur_run, &mut report);
        for rule in &opts.rules {
            let (bv, bcount) = metric_of(base_run, rule);
            let (cv, ccount) = metric_of(cur_run, rule);
            let metric_name = || {
                format!(
                    "{}{}{}",
                    rule.hist,
                    if rule.hist.is_empty() { "" } else { "." },
                    rule.field
                )
            };
            let (bv, cv) = match (bv, cv) {
                (Some(bv), Some(cv)) => (bv, cv),
                // New metric the baseline predates: informational only.
                (None, Some(cv)) => {
                    report.info.push(format!(
                        "{key}: {} = {cv} not in baseline — refresh the baseline to gate it",
                        metric_name()
                    ));
                    continue;
                }
                (Some(_), None) => {
                    report.failures.push(format!(
                        "{key}: metric {} missing from current results",
                        metric_name()
                    ));
                    continue;
                }
                (None, None) => continue,
            };
            // The floor uses the *smaller* sample count: either side being
            // under-sampled makes the comparison noise.
            if bcount.min(ccount) < rule.min_count {
                report.skipped += 1;
                continue;
            }
            report.compared += 1;
            let metric = if rule.hist.is_empty() {
                rule.field.to_owned()
            } else {
                format!("{}.{}", rule.hist, rule.field)
            };
            let (rel, failed) = if bv == 0.0 {
                (0.0, cv.abs() > opts.abs_floor_ns)
            } else {
                let rel = (cv - bv) / bv;
                (rel, rel.abs() > rule.tol)
            };
            if failed {
                report.failures.push(format!(
                    "{key}: {metric} drifted {:+.1}% (baseline {bv}, current {cv}, tol \u{b1}{:.0}%)",
                    rel * 100.0,
                    rule.tol * 100.0
                ));
            }
            report.deltas.push(Delta {
                run: key.clone(),
                metric,
                base: bv,
                cur: cv,
                rel,
                tol: rule.tol,
                failed,
            });
        }
    }

    check_scalars(&base_doc, &cur_doc, &mut report);
    Ok(report)
}

/// Gate the top-level `"scalars"` maps on exact equality. Same
/// missing-value asymmetry as everything else — new scalars the baseline
/// predates are informational, scalars dropped from the current side are
/// schema regressions.
fn check_scalars(base: &Json, cur: &Json, report: &mut DiffReport) {
    let empty: &[(String, Json)] = &[];
    let bs = base
        .get("scalars")
        .and_then(Json::as_object)
        .unwrap_or(empty);
    let cs = cur
        .get("scalars")
        .and_then(Json::as_object)
        .unwrap_or(empty);
    let lookup = |m: &[(String, Json)], k: &str| {
        m.iter().find(|(n, _)| n == k).and_then(|(_, v)| v.as_f64())
    };
    for (name, bval) in bs {
        let Some(bv) = bval.as_f64() else { continue };
        let Some(cv) = lookup(cs, name) else {
            report
                .failures
                .push(format!("scalar `{name}` missing from current results"));
            continue;
        };
        report.compared += 1;
        // Bit-for-bit value equality.
        let failed = cv != bv;
        if failed {
            report.failures.push(format!(
                "scalar `{name}` changed: {bv} \u{2192} {cv} (deterministic scalar, \
                 exact-equality gate)"
            ));
        }
        report.deltas.push(Delta {
            run: "scalars".to_owned(),
            metric: name.clone(),
            base: bv,
            cur: cv,
            rel: if bv == 0.0 { 0.0 } else { (cv - bv) / bv },
            tol: 0.0,
            failed,
        });
    }
    for (name, _) in cs {
        if lookup(bs, name).is_none() {
            report.info.push(format!(
                "scalar `{name}` not in baseline — refresh the baseline to gate it"
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(p99_wait: u64, wait_count: u64, end_ns: u64) -> String {
        format!(
            "{{\"id\":\"figX\",\"traced\":false,\"runs\":[{{\
             \"label\":\"mutex\",\"threads\":4,\"nodes\":1,\"end_ns\":{end_ns},\
             \"cs_wait\":{{\"count\":{wait_count},\"p50\":100,\"p99\":{p99_wait},\"max\":{p99_wait},\"mean\":120}},\
             \"cs_hold\":{{\"count\":{wait_count},\"p50\":50,\"p99\":80,\"max\":90,\"mean\":55}},\
             \"msg_latency\":{{\"count\":200,\"p50\":1000,\"p99\":4000,\"max\":5000,\"mean\":1500}}\
             }}],\"series\":[],\"scalars\":{{}}}}"
        )
    }

    #[test]
    fn identical_documents_pass() {
        let d = doc(500, 1000, 1_000_000);
        let r = bench_diff(&d, &d, &DiffOptions::default()).unwrap();
        assert!(r.ok(), "failures: {:?}", r.failures);
        assert_eq!(r.compared, 7);
        assert_eq!(r.skipped, 0);
        assert!(r.markdown().contains("PASS"));
    }

    #[test]
    fn perturbed_quantile_fails_and_is_named() {
        // cs_wait.p99 tol is 25%; 2× tolerance = +50% drift.
        let base = doc(500, 1000, 1_000_000);
        let cur = doc(750, 1000, 1_000_000);
        let r = bench_diff(&base, &cur, &DiffOptions::default()).unwrap();
        assert!(!r.ok());
        assert!(
            r.failures.iter().any(|f| f.contains("cs_wait.p99")),
            "failures: {:?}",
            r.failures
        );
        let md = r.markdown();
        assert!(md.contains("FAIL"));
        assert!(md.contains("cs_wait.p99"));
    }

    #[test]
    fn improvement_beyond_tolerance_also_fails() {
        let base = doc(500, 1000, 1_000_000);
        let cur = doc(200, 1000, 1_000_000); // −60%
        let r = bench_diff(&base, &cur, &DiffOptions::default()).unwrap();
        assert!(!r.ok(), "two-sided gate must flag unexpected improvements");
    }

    #[test]
    fn low_sample_quantiles_are_skipped() {
        // 10 samples is under both cs floors; only msg_latency (count 200)
        // and end_ns remain gated, so a wild cs_wait.p99 drift passes.
        let base = doc(500, 10, 1_000_000);
        let cur = doc(5000, 10, 1_000_000);
        let r = bench_diff(&base, &cur, &DiffOptions::default()).unwrap();
        assert!(r.ok(), "failures: {:?}", r.failures);
        assert_eq!(r.skipped, 4);
        assert_eq!(r.compared, 3);
    }

    #[test]
    fn end_ns_drift_fails_even_with_few_samples() {
        let base = doc(500, 10, 1_000_000);
        let cur = doc(500, 10, 1_200_000); // +20% > 10% tol
        let r = bench_diff(&base, &cur, &DiffOptions::default()).unwrap();
        assert!(!r.ok());
        assert!(r.failures.iter().any(|f| f.contains("end_ns")));
    }

    #[test]
    fn missing_run_fails_both_directions() {
        let base = doc(500, 1000, 1_000_000);
        let empty = "{\"id\":\"figX\",\"traced\":false,\"runs\":[],\"series\":[],\"scalars\":{}}";
        let r = bench_diff(&base, empty, &DiffOptions::default()).unwrap();
        assert!(!r.ok());
        assert!(r.failures[0].contains("missing from current"));
        let r2 = bench_diff(empty, &base, &DiffOptions::default()).unwrap();
        assert!(!r2.ok());
        assert!(r2.failures[0].contains("not in baseline"));
    }

    #[test]
    fn zero_baseline_uses_absolute_floor() {
        let mk = |p50: u64| {
            format!(
                "{{\"id\":\"f\",\"runs\":[{{\"label\":\"l\",\"threads\":1,\"nodes\":1,\
                 \"end_ns\":10,\
                 \"cs_wait\":{{\"count\":1000,\"p50\":{p50},\"p99\":0,\"max\":0,\"mean\":0}},\
                 \"cs_hold\":{{\"count\":1000,\"p50\":0,\"p99\":0,\"max\":0,\"mean\":0}},\
                 \"msg_latency\":{{\"count\":100,\"p50\":0,\"p99\":0,\"max\":0,\"mean\":0}}}}]}}"
            )
        };
        let opts = DiffOptions::default();
        // 0 → 900 ns: under the 1000 ns floor, accepted.
        assert!(bench_diff(&mk(0), &mk(900), &opts).unwrap().ok());
        // 0 → 5000 ns: contention appeared where there was none.
        assert!(!bench_diff(&mk(0), &mk(5000), &opts).unwrap().ok());
    }

    #[test]
    fn repeated_configs_compare_positionally() {
        let two = |a: u64, b: u64| {
            let run = |p50: u64| {
                format!(
                    "{{\"label\":\"mutex\",\"threads\":4,\"nodes\":1,\"end_ns\":100,\
                     \"cs_wait\":{{\"count\":1000,\"p50\":{p50},\"p99\":100,\"max\":100,\"mean\":50}},\
                     \"cs_hold\":{{\"count\":1000,\"p50\":10,\"p99\":10,\"max\":10,\"mean\":10}},\
                     \"msg_latency\":{{\"count\":100,\"p50\":10,\"p99\":10,\"max\":10,\"mean\":10}}}}"
                )
            };
            format!("{{\"id\":\"f\",\"runs\":[{},{}]}}", run(a), run(b))
        };
        // Same multiset, different order: positional keying flags it.
        let r = bench_diff(&two(100, 1000), &two(1000, 100), &DiffOptions::default()).unwrap();
        assert!(!r.ok(), "sweep order is part of the contract");
        // Matching order passes.
        assert!(
            bench_diff(&two(100, 1000), &two(100, 1000), &DiffOptions::default())
                .unwrap()
                .ok()
        );
    }

    /// A document with a per-run and combined `sched_trace_hash`.
    fn hashed_doc(run_hash: &str, combined: &str) -> String {
        format!(
            "{{\"id\":\"figX\",\"traced\":false,\"sched_trace_hash\":\"{combined}\",\"runs\":[{{\
             \"label\":\"mutex\",\"threads\":4,\"nodes\":1,\"end_ns\":1000000,\
             \"sched_trace_hash\":\"{run_hash}\",\
             \"cs_wait\":{{\"count\":1000,\"p50\":100,\"p99\":500,\"max\":500,\"mean\":120}},\
             \"cs_hold\":{{\"count\":1000,\"p50\":50,\"p99\":80,\"max\":90,\"mean\":55}},\
             \"msg_latency\":{{\"count\":200,\"p50\":1000,\"p99\":4000,\"max\":5000,\"mean\":1500}}\
             }}],\"series\":[],\"scalars\":{{}}}}"
        )
    }

    #[test]
    fn matching_hashes_pass_and_are_counted() {
        let d = hashed_doc("00000000deadbeef", "00000000cafef00d");
        let r = bench_diff(&d, &d, &DiffOptions::default()).unwrap();
        assert!(r.ok(), "failures: {:?}", r.failures);
        // 7 tolerance metrics + combined hash + per-run hash.
        assert_eq!(r.compared, 9);
        assert!(r.info.is_empty());
    }

    #[test]
    fn hash_drift_fails_exactly_with_zero_tolerance() {
        let base = hashed_doc("00000000deadbeef", "00000000cafef00d");
        let cur = hashed_doc("00000000deadbee0", "00000000cafef00d");
        let r = bench_diff(&base, &cur, &DiffOptions::default()).unwrap();
        assert!(!r.ok());
        assert!(
            r.failures
                .iter()
                .any(|f| f.contains("sched_trace_hash") && f.contains("deadbee0")),
            "failures: {:?}",
            r.failures
        );
    }

    #[test]
    fn hash_absent_from_baseline_is_informational_not_a_failure() {
        let base = doc(500, 1000, 1_000_000); // pre-hash baseline
        let cur = hashed_doc("00000000deadbeef", "00000000cafef00d");
        let r = bench_diff(&base, &cur, &DiffOptions::default()).unwrap();
        assert!(r.ok(), "failures: {:?}", r.failures);
        assert_eq!(r.info.len(), 2, "info: {:?}", r.info);
        assert!(r.info.iter().all(|i| i.contains("not in baseline")));
        assert!(r.markdown().contains("_info_"));
    }

    #[test]
    fn hash_dropped_from_current_is_a_schema_regression() {
        let base = hashed_doc("00000000deadbeef", "00000000cafef00d");
        let cur = doc(500, 1000, 1_000_000);
        let r = bench_diff(&base, &cur, &DiffOptions::default()).unwrap();
        assert!(!r.ok());
        assert!(r.failures.iter().any(|f| f.contains("schema regressed")));
    }

    #[test]
    fn scalar_metric_absent_from_baseline_is_informational() {
        // A baseline run with no end_ns: the current side's end_ns must
        // not gate (informational), while the reverse direction fails.
        let strip = |d: &str| d.replace("\"end_ns\":1000000,", "");
        let full = doc(500, 1000, 1_000_000);
        let r = bench_diff(&strip(&full), &full, &DiffOptions::default()).unwrap();
        assert!(r.ok(), "failures: {:?}", r.failures);
        assert!(r.info.iter().any(|i| i.contains("end_ns")), "{:?}", r.info);
        let r2 = bench_diff(&full, &strip(&full), &DiffOptions::default()).unwrap();
        assert!(!r2.ok());
        assert!(r2.failures.iter().any(|f| f.contains("end_ns")));
    }

    /// A minimal document with the given `"scalars"` object body.
    fn scalar_doc(scalars: &str) -> String {
        format!(
            "{{\"id\":\"fig_scale\",\"traced\":false,\"runs\":[],\
             \"series\":[],\"scalars\":{{{scalars}}}}}"
        )
    }

    #[test]
    fn deterministic_scalars_gate_exactly() {
        let base = scalar_doc("\"ring_events_64\":3456,\"serve_digest_match\":1");
        let same = bench_diff(&base, &base, &DiffOptions::default()).unwrap();
        assert!(same.ok(), "failures: {:?}", same.failures);
        assert_eq!(same.compared, 2);
        // Any drift at all fails.
        let cur = scalar_doc("\"ring_events_64\":3457,\"serve_digest_match\":1");
        let r = bench_diff(&base, &cur, &DiffOptions::default()).unwrap();
        assert!(!r.ok());
        assert!(
            r.failures
                .iter()
                .any(|f| f.contains("ring_events_64") && f.contains("exact-equality")),
            "failures: {:?}",
            r.failures
        );
    }

    #[test]
    fn no_scalar_name_is_special() {
        // A name that once carried a ±15 % wall-clock band is an ordinary
        // scalar now: +1 % fails like any other change.
        let base = scalar_doc("\"sim_events_per_sec\":1000000");
        let cur = scalar_doc("\"sim_events_per_sec\":1010000");
        let r = bench_diff(&base, &cur, &DiffOptions::default()).unwrap();
        assert!(!r.ok());
        assert!(
            r.failures
                .iter()
                .any(|f| f.contains("sim_events_per_sec") && f.contains("exact-equality gate")),
            "failures: {:?}",
            r.failures
        );
    }

    #[test]
    fn scalar_missing_policy_matches_metric_policy() {
        let with = scalar_doc("\"ring_events_64\":3456");
        let without = scalar_doc("");
        // Baseline predates the scalar: informational only.
        let r = bench_diff(&without, &with, &DiffOptions::default()).unwrap();
        assert!(r.ok(), "failures: {:?}", r.failures);
        assert!(
            r.info.iter().any(|i| i.contains("ring_events_64")),
            "info: {:?}",
            r.info
        );
        // Scalar dropped from current: schema regression.
        let r2 = bench_diff(&with, &without, &DiffOptions::default()).unwrap();
        assert!(!r2.ok());
        assert!(r2.failures.iter().any(|f| f.contains("ring_events_64")));
    }

    #[test]
    fn garbage_documents_error() {
        assert!(bench_diff("{", "{}", &DiffOptions::default()).is_err());
        assert!(
            bench_diff("{}", "{}", &DiffOptions::default()).is_err(),
            "no runs array"
        );
    }
}
