//! The benchmark's metric tables (the same names, units, directions and
//! bounds as `BENCHMARK.json` — a test keeps the two in step), the
//! result-set model the subcommands exchange, and `agree`.

use mtmpi_prof::Json;

/// An end-to-end metric: something a user of the system sees.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub lower_is_better: bool,
    /// Share of the baseline by which the metric may worsen before it
    /// counts as a regression.
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        lower_is_better: true,
        bound: 0.25,
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "ops/s",
        lower_is_better: false,
        bound: 0.25,
    },
    EndToEnd {
        name: "cpu_s",
        unit: "s",
        lower_is_better: true,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        lower_is_better: true,
        bound: 0.20,
    },
];

/// Where a per-layer metric is measured.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Source {
    /// On the worlds and spans of the workload being traced: one value
    /// per workload.
    Workload,
    /// By the named child (a workload's own ledger, or the `probes` /
    /// `unpinned` children): the same measurement whichever workload's
    /// traced run reports it.
    Child(&'static str),
    /// Computed by the parent from two children's values.
    Derived,
}

/// A metric of a single layer (layer = crate name before the dot).
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub lower_is_better: bool,
    /// A deterministic count: must repeat bit for bit for one seed.
    pub exact: bool,
    pub source: Source,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    lower_is_better: bool,
    exact: bool,
    source: Source,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        lower_is_better,
        exact,
        source,
    }
}

use Source::{Child, Derived, Workload as W};
const LOWER: bool = true;
const HIGHER: bool = false;
const EXACT: bool = true;
const TIMED: bool = false;

pub const PER_LAYER: [PerLayer; 56] = [
    layer("sim.events", "count", LOWER, EXACT, W),
    layer("sim.events_per_op", "events/op", LOWER, EXACT, W),
    layer("sim.events_per_s", "1/s", HIGHER, TIMED, W),
    layer("sim.step_ns_per_event", "ns/event", LOWER, TIMED, W),
    layer("sim.quantum_p50_us", "us", LOWER, TIMED, W),
    layer("sim.quantum_tail_us", "us", LOWER, TIMED, W),
    layer("sim.quantum_tail_pct", "%", HIGHER, EXACT, W),
    layer("sim.quantum_samples", "count", LOWER, EXACT, W),
    layer(
        "sim.handoff_ns_per_event",
        "ns/event",
        LOWER,
        TIMED,
        Child("probes"),
    ),
    layer(
        "sim.handoff_ns_per_event_t64",
        "ns/event",
        LOWER,
        TIMED,
        Child("probes"),
    ),
    layer(
        "sim.queue_ns_per_op",
        "ns/op",
        LOWER,
        TIMED,
        Child("probes"),
    ),
    layer(
        "sim.spawn_join_us_per_thread",
        "us/thread",
        LOWER,
        TIMED,
        Child("probes"),
    ),
    layer("core.start_us_per_world", "us/world", LOWER, TIMED, W),
    layer("core.finish_us_per_world", "us/world", LOWER, TIMED, W),
    layer("core.start_share", "ratio", LOWER, TIMED, W),
    layer("core.step_share", "ratio", LOWER, TIMED, W),
    layer("core.finish_share", "ratio", LOWER, TIMED, W),
    layer("runtime.cs_passages", "count", LOWER, EXACT, W),
    layer("runtime.cs_passages_per_op", "1/op", LOWER, EXACT, W),
    layer(
        "runtime.body_ns_per_event",
        "ns/event",
        LOWER,
        TIMED,
        Child("probes"),
    ),
    layer("runtime.virt_end_ns", "virt_ns", LOWER, EXACT, W),
    layer("runtime.virt_cs_wait_p99_ns", "virt_ns", LOWER, EXACT, W),
    layer(
        "obs.record_ns_per_event",
        "ns/event",
        LOWER,
        TIMED,
        Child("probes"),
    ),
    layer("obs.events_recorded", "count", LOWER, EXACT, W),
    layer("obs.dropped", "count", LOWER, EXACT, W),
    layer("obs.drain_us", "us", LOWER, TIMED, Child("probes")),
    layer(
        "obs.chrome_mb_per_s",
        "MB/s",
        HIGHER,
        TIMED,
        Child("profile_export"),
    ),
    layer(
        "obs.jsonl_mb_per_s",
        "MB/s",
        HIGHER,
        TIMED,
        Child("profile_export"),
    ),
    layer(
        "obs.export_bytes",
        "bytes",
        LOWER,
        EXACT,
        Child("profile_export"),
    ),
    layer(
        "prof.blame_ns_per_span",
        "ns/span",
        LOWER,
        TIMED,
        Child("profile_export"),
    ),
    layer(
        "prof.decomp_ms",
        "ms",
        LOWER,
        TIMED,
        Child("profile_export"),
    ),
    layer(
        "prof.windows_ms",
        "ms",
        LOWER,
        TIMED,
        Child("profile_export"),
    ),
    layer(
        "prof.analyze_ms",
        "ms",
        LOWER,
        TIMED,
        Child("profile_export"),
    ),
    layer(
        "prof.to_json_ms",
        "ms",
        LOWER,
        TIMED,
        Child("profile_export"),
    ),
    layer(
        "prof.json_parse_mb_per_s",
        "MB/s",
        HIGHER,
        TIMED,
        Child("profile_export"),
    ),
    layer(
        "prof.conservation_residual_ns",
        "virt_ns",
        LOWER,
        EXACT,
        Child("profile_export"),
    ),
    layer(
        "bench.fig_finish_ms",
        "ms",
        LOWER,
        TIMED,
        Child("pt2pt_figure"),
    ),
    layer("bench.trace_overhead_frac", "ratio", LOWER, TIMED, W),
    layer(
        "graph500.generate_s",
        "s",
        LOWER,
        TIMED,
        Child("bfs_compute"),
    ),
    layer(
        "graph500.host_mteps",
        "Medges/s",
        HIGHER,
        TIMED,
        Child("bfs_compute"),
    ),
    layer(
        "graph500.sync_events_per_kedge",
        "events/kedge",
        LOWER,
        EXACT,
        Child("bfs_compute"),
    ),
    layer(
        "serve.us_per_tenant",
        "us/tenant",
        LOWER,
        TIMED,
        Child("serve_pool"),
    ),
    layer(
        "serve.events_per_s",
        "1/s",
        HIGHER,
        TIMED,
        Child("serve_pool"),
    ),
    layer("serve.hold_p50_us", "us", LOWER, TIMED, Child("serve_pool")),
    layer("serve.hold_p99_us", "us", LOWER, TIMED, Child("serve_pool")),
    layer(
        "serve.sojourn_p99_ms",
        "ms",
        LOWER,
        TIMED,
        Child("serve_pool"),
    ),
    layer(
        "serve.busy_frac",
        "ratio",
        HIGHER,
        TIMED,
        Child("serve_pool"),
    ),
    layer("serve.grants", "count", LOWER, EXACT, Child("serve_pool")),
    layer("serve.mc_speedup", "ratio", HIGHER, TIMED, Derived),
    layer("serve.mc_spread", "ratio", LOWER, TIMED, Child("unpinned")),
    layer("host.user_s", "s", LOWER, TIMED, W),
    layer("host.sys_s", "s", LOWER, TIMED, W),
    layer("host.sys_frac", "ratio", LOWER, TIMED, W),
    layer("host.unpinned_slowdown", "ratio", LOWER, TIMED, Derived),
    layer(
        "host.unpinned_spread",
        "ratio",
        LOWER,
        TIMED,
        Child("unpinned"),
    ),
    layer("host.nproc", "count", HIGHER, EXACT, Child("unpinned")),
];

/// Unit of a per-layer metric (`""` for the intermediate values children
/// hand the parent, which are in no table).
pub fn unit_of(name: &str) -> &'static str {
    PER_LAYER
        .iter()
        .find(|m| m.name == name)
        .map_or("", |m| m.unit)
}

/// One measured value. Values chosen from `n` samples carry the
/// samples' `(min, median, max, n)` beside them.
#[derive(Debug, Clone, PartialEq)]
pub struct Value {
    pub value: f64,
    pub unit: String,
    pub spread: Option<(f64, f64, f64, u64)>,
}

impl Value {
    pub fn new(value: f64, unit: &str) -> Self {
        assert!(value.is_finite(), "metric value {value} is not a number");
        Self {
            value,
            unit: unit.to_owned(),
            spread: None,
        }
    }

    pub fn with_spread(mut self, min: f64, median: f64, max: f64, n: usize) -> Self {
        self.spread = Some((min, median, max, n as u64));
        self
    }

    fn to_json(&self, with_spread: bool) -> String {
        let mut s = format!("{{\"value\":{},\"unit\":\"{}\"", self.value, self.unit);
        if let (true, Some((min, median, max, n))) = (with_spread, self.spread) {
            s.push_str(&format!(
                ",\"min\":{min},\"median\":{median},\"max\":{max},\"n\":{n}"
            ));
        }
        s.push('}');
        s
    }

    fn from_json(j: &Json) -> Result<Self, String> {
        let num = |k: &str| j.get(k).and_then(Json::as_f64);
        let n = j.get("n").and_then(Json::as_u64);
        let spread = match (num("min"), num("median"), num("max"), n) {
            (Some(min), Some(median), Some(max), Some(n)) => Some((min, median, max, n)),
            _ => None,
        };
        Ok(Self {
            value: num("value").ok_or("metric without a value")?,
            unit: j
                .get("unit")
                .and_then(Json::as_str)
                .ok_or("metric without a unit")?
                .to_owned(),
            spread,
        })
    }
}

/// What one child process, or one workload of a result set, reports.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(String, Value)>,
}

impl Report {
    pub fn get(&self, name: &str) -> Option<&Value> {
        self.metrics.iter().find(|(n, _)| n == name).map(|(_, v)| v)
    }

    pub fn value(&self, name: &str) -> Result<f64, String> {
        self.get(name)
            .map(|v| v.value)
            .ok_or(format!("metric {name} was not reported"))
    }

    pub fn push(&mut self, name: &str, v: Value) {
        self.metrics.push((name.to_owned(), v));
    }

    /// The driver contract's result line: exactly `correct`,
    /// `attempted`, `failed` and `metrics`, each metric `{value, unit}`.
    pub fn to_json(&self, with_spread: bool) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(n, v)| format!("\"{n}\":{}", v.to_json(with_spread)))
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(",")
        )
    }

    pub fn from_json(j: &Json) -> Result<Self, String> {
        let count = |k: &str| {
            j.get(k)
                .and_then(Json::as_u64)
                .ok_or(format!("report without {k}"))
        };
        let metrics = j
            .get("metrics")
            .and_then(Json::as_object)
            .ok_or("report without metrics")?
            .iter()
            .map(|(n, v)| {
                Ok((
                    n.clone(),
                    Value::from_json(v).map_err(|e| format!("{n}: {e}"))?,
                ))
            })
            .collect::<Result<_, String>>()?;
        Ok(Self {
            attempted: count("attempted")?,
            failed: count("failed")?,
            metrics,
        })
    }
}

/// A complete set of results: one [`Report`] per workload, with the seed
/// and host they were measured on.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultSet {
    /// `"run"` (end-to-end metrics) or `"layers"` (per-layer metrics).
    pub kind: String,
    pub seed: u64,
    /// Host description, `(key, value)`.
    pub meta: Vec<(String, String)>,
    pub workloads: Vec<(String, Report)>,
}

fn escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' | '\\' => vec!['\\', c],
            c if c.is_control() => vec![' '],
            c => vec![c],
        })
        .collect()
}

impl ResultSet {
    pub fn to_json(&self) -> String {
        let meta: Vec<String> = self
            .meta
            .iter()
            .map(|(k, v)| format!("\"{k}\":\"{}\"", escape(v)))
            .collect();
        let workloads: Vec<String> = self
            .workloads
            .iter()
            .map(|(n, r)| format!("\"{n}\":{}", r.to_json(true)))
            .collect();
        format!(
            "{{\"kind\":\"{}\",\"seed\":{},\"meta\":{{{}}},\"workloads\":{{\n{}\n}}}}\n",
            self.kind,
            self.seed,
            meta.join(","),
            workloads.join(",\n")
        )
    }

    pub fn parse(text: &str) -> Result<Self, String> {
        let j = Json::parse(text)?;
        let members = |k: &str| {
            j.get(k)
                .and_then(Json::as_object)
                .ok_or(format!("result set without {k}"))
        };
        Ok(Self {
            kind: j
                .get("kind")
                .and_then(Json::as_str)
                .ok_or("result set without kind")?
                .to_owned(),
            seed: j
                .get("seed")
                .and_then(Json::as_u64)
                .ok_or("result set without seed")?,
            meta: members("meta")?
                .iter()
                .map(|(k, v)| (k.clone(), v.as_str().unwrap_or_default().to_owned()))
                .collect(),
            workloads: members("workloads")?
                .iter()
                .map(|(n, r)| {
                    Ok((
                        n.clone(),
                        Report::from_json(r).map_err(|e| format!("{n}: {e}"))?,
                    ))
                })
                .collect::<Result<_, String>>()?,
        })
    }
}

/// By what share of `base` the candidate is worse (negative = better).
fn worse_by(base: f64, cand: f64, lower_is_better: bool) -> f64 {
    if lower_is_better {
        (cand - base) / base
    } else {
        (base - cand) / base
    }
}

/// Apply the benchmark's bounds to a baseline and a candidate result set.
/// Returns one line per comparison made and whether all of them hold:
/// no failed operation on either side, every end-to-end metric of the
/// candidate no worse than the baseline's by more than its bound, and —
/// when both sets used one seed — every exact layer metric identical.
pub fn agree(base: &ResultSet, cand: &ResultSet) -> (Vec<String>, bool) {
    let mut lines = Vec::new();
    let mut ok = true;
    let mut check = |pass: bool, line: String| {
        ok &= pass;
        lines.push(format!("{} {line}", if pass { "ok  " } else { "FAIL" }));
    };
    if base.kind != cand.kind {
        check(
            false,
            format!("kinds differ: {} vs {}", base.kind, cand.kind),
        );
    }
    let same_seed = base.seed == cand.seed;
    for (w, b) in &base.workloads {
        let Some((_, c)) = cand.workloads.iter().find(|(n, _)| n == w) else {
            check(false, format!("{w}: missing from the candidate"));
            continue;
        };
        for (side, r) in [("baseline", b), ("candidate", c)] {
            check(
                r.failed == 0 && r.attempted > 0,
                format!(
                    "{w} failed_share {side}: {} of {} ops",
                    r.failed, r.attempted
                ),
            );
        }
        for (name, bv) in &b.metrics {
            let Some(cv) = c.get(name) else {
                check(false, format!("{w} {name}: missing from the candidate"));
                continue;
            };
            if let Some(m) = END_TO_END.iter().find(|m| m.name == name) {
                let worse = worse_by(bv.value, cv.value, m.lower_is_better);
                let verdict = if worse > 0.0 { "worse" } else { "better" };
                check(
                    worse <= m.bound,
                    format!(
                        "{w} {name}: {} -> {} {} ({:.1}% {verdict}, bound {:.0}% worse)",
                        bv.value,
                        cv.value,
                        m.unit,
                        worse.abs() * 100.0,
                        m.bound * 100.0
                    ),
                );
            } else if PER_LAYER.iter().any(|m| m.name == name && m.exact) && same_seed {
                check(
                    bv.value == cv.value,
                    format!("{w} {name}: exact {} vs {}", bv.value, cv.value),
                );
            }
        }
    }
    (lines, ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(ops_per_s: f64, failed: u64) -> ResultSet {
        let mut r = Report {
            attempted: 1000,
            failed,
            metrics: Vec::new(),
        };
        r.push("setup_s", Value::new(1.0, "s"));
        r.push(
            "ops_per_s",
            Value::new(ops_per_s, "ops/s").with_spread(
                ops_per_s * 0.8,
                ops_per_s * 0.9,
                ops_per_s,
                5,
            ),
        );
        r.push("cpu_s", Value::new(2.0, "s"));
        r.push("peak_rss_mb", Value::new(50.0, "MiB"));
        r.push("sim.events", Value::new(12345.0, "count"));
        ResultSet {
            kind: "run".into(),
            seed: 7,
            meta: vec![("cpu".into(), "a \"quoted\" model".into())],
            workloads: vec![("pt2pt_figure".into(), r)],
        }
    }

    #[test]
    fn result_sets_round_trip() {
        let s = set(1000.0, 0);
        assert_eq!(ResultSet::parse(&s.to_json()).unwrap(), s);
    }

    #[test]
    fn contract_line_has_exactly_the_four_keys() {
        let line = set(1000.0, 0).workloads[0].1.to_json(false);
        let j = Json::parse(&line).unwrap();
        let keys: Vec<&str> = j
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let m = j.get("metrics").unwrap().get("ops_per_s").unwrap();
        assert_eq!(m.as_object().unwrap().len(), 2, "value and unit only");
        assert_eq!(j.get("correct").unwrap().as_bool(), Some(true));
    }

    #[test]
    fn agree_accepts_noise_inside_the_bounds() {
        let (lines, ok) = agree(&set(1000.0, 0), &set(850.0, 0));
        assert!(ok, "{lines:#?}");
        // An improvement of any size is not a regression.
        assert!(agree(&set(1000.0, 0), &set(2000.0, 0)).1);
    }

    #[test]
    fn agree_rejects_a_30_percent_throughput_loss() {
        let (lines, ok) = agree(&set(1000.0, 0), &set(700.0, 0));
        assert!(!ok);
        assert!(lines
            .iter()
            .any(|l| l.starts_with("FAIL") && l.contains("ops_per_s")));
    }

    #[test]
    fn agree_rejects_any_failed_operation() {
        assert!(!agree(&set(1000.0, 0), &set(1000.0, 1)).1);
        assert!(!agree(&set(1000.0, 1), &set(1000.0, 0)).1);
    }

    #[test]
    fn agree_rejects_a_moved_exact_count_and_a_missing_metric() {
        let base = set(1000.0, 0);
        let mut moved = base.clone();
        moved.workloads[0].1.metrics[4].1.value += 1.0;
        assert!(!agree(&base, &moved).1);
        // A different seed makes exact counts incomparable, not wrong.
        moved.seed = 8;
        assert!(agree(&base, &moved).1);
        let mut missing = base.clone();
        missing.workloads[0].1.metrics.remove(1);
        assert!(!agree(&base, &missing).1);
    }

    #[test]
    fn tables_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let j = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let rows = |k: &str| j.get(k).unwrap().as_array().unwrap().to_vec();
        let s = |r: &Json, k: &str| r.get(k).unwrap().as_str().unwrap().to_owned();
        let better = |lower: bool| if lower { "lower" } else { "higher" };

        let e2e = rows("end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (r, m) in e2e.iter().zip(&END_TO_END) {
            assert_eq!((s(r, "name"), s(r, "unit")), (m.name.into(), m.unit.into()));
            assert_eq!(s(r, "better"), better(m.lower_is_better), "{}", m.name);
            assert_eq!(
                r.get("bound").unwrap().as_f64(),
                Some(m.bound),
                "{}",
                m.name
            );
        }
        let layers = rows("per_layer");
        assert_eq!(layers.len(), PER_LAYER.len());
        for (r, m) in layers.iter().zip(&PER_LAYER) {
            assert_eq!((s(r, "name"), s(r, "unit")), (m.name.into(), m.unit.into()));
            assert_eq!(s(r, "better"), better(m.lower_is_better), "{}", m.name);
        }
        let names: Vec<String> = rows("workloads").iter().map(|r| s(r, "name")).collect();
        assert_eq!(names, crate::workloads::NAMES);
    }
}
