//! The claims table: the verdict rows EXPERIMENTS.md quotes for the
//! figures whose documents are committed under `results/baseline/`.
//!
//! A row is data: the figure, the statement it checks (the paper's, or
//! the repository's own for an extension figure) with the value that
//! statement claims, a reading of the document's `series` and `scalars`
//! through [`Json`], and the thresholds that class the reading's value.
//! Paper rows put `holds` at three quarters and `compressed` at a
//! quarter of the claimed effect above the no-effect value `none`;
//! extension rows do the same against the value their documentation
//! states (`fig_serve` states no magnitude: any change in scheduling
//! under equal digests holds). The test renders every row and requires EXPERIMENTS.md's
//! block between [`BEGIN`] and [`END`] to equal the rendered text; a
//! failure names the first differing row and prints the whole block to
//! copy in. `bench-diff` keeps each committed document equal to a fresh
//! run, so the rows read what the figures produce. A second check keeps
//! the verdict rows and the figure and ablation binaries naming each
//! other.

use crate::run::same_text;
use mtmpi_prof::Json;
use std::collections::BTreeSet;
use std::fmt::Write as _;

const BEGIN: &str = "<!-- claims:begin -->\n";
const END: &str = "<!-- claims:end -->";

/// The paper rows with no committed document: their verdicts stay
/// hand-written, below the generated block.
const PROSE_ONLY: [&str; 14] = [
    "T1", "F2b", "F3c", "F5a", "F5b", "F5c", "F8a", "F8b", "F9", "F10b", "F10c", "F11a", "F11b",
    "F12b",
];

/// A verdict, best first.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Verdict {
    Holds,
    Compressed,
    Direction,
    NotReproduced,
    Vacuous,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Holds => "holds",
            Verdict::Compressed => "holds compressed",
            Verdict::Direction => "direction only",
            Verdict::NotReproduced => "does not reproduce",
            Verdict::Vacuous => "vacuous",
        }
    }
}

/// What a row reads from its document.
struct Reading {
    /// The number the row's thresholds class.
    value: f64,
    /// Whether the shape the statement also asserts holds (a monotone
    /// column, curves that meet); without it only the direction counts.
    shape: bool,
    /// The measured column: the numbers read, under their document names.
    note: String,
}

/// One row of the table.
struct Claim {
    id: &'static str,
    /// The figure binary; the row reads `BENCH_<fig>.json`.
    fig: &'static str,
    /// The statement checked, with the value it claims.
    statement: &'static str,
    read: fn(&Doc) -> Result<Reading, String>,
    /// At or above `holds` the statement holds; at or above `compressed`
    /// it holds at a smaller magnitude; above `none` only its direction
    /// holds; below, it does not reproduce. Exactly `none`, the
    /// no-effect value, is vacuous: a ratio reads it only when both of
    /// its sides are the same numbers.
    holds: f64,
    compressed: f64,
    none: f64,
}

impl Claim {
    fn verdict(&self, r: &Reading) -> Verdict {
        let v = r.value;
        if v == self.none {
            return Verdict::Vacuous;
        }
        let by_value = if v >= self.holds {
            Verdict::Holds
        } else if v >= self.compressed {
            Verdict::Compressed
        } else if v > self.none {
            Verdict::Direction
        } else {
            Verdict::NotReproduced
        };
        if r.shape {
            by_value
        } else {
            by_value.max(Verdict::Direction)
        }
    }
}

const CLAIMS: [Claim; 8] = [
    Claim {
        id: "F2a",
        fig: "fig2a",
        statement: "Mutex msg rate degrades with thread count, ~4× from 1 to 8 tpn at 1 B; \
                    the curves converge at large sizes",
        read: fig2a,
        holds: 3.25,
        compressed: 1.75,
        none: 1.0,
    },
    Claim {
        id: "F3a",
        fig: "fig3a",
        statement: "Mutex bias factors: ~2× at core level, ~1.25× at socket level",
        read: fig3a,
        holds: 1.75,
        compressed: 1.25,
        none: 1.0,
    },
    Claim {
        id: "F6b",
        fig: "fig6b",
        statement: "N2N: Priority ~1.33× Ticket below 32 KB; the gap closes from 32 KB",
        read: fig6b,
        holds: 1.25,
        compressed: 1.08,
        none: 1.0,
    },
    Claim {
        id: "F10a",
        fig: "fig10a",
        statement: "BFS on one node: linear to 4 threads, ~90 % efficiency at 8",
        read: fig10a,
        holds: 0.7,
        compressed: 0.32,
        none: 0.125,
    },
    Claim {
        id: "fig_vci",
        fig: "fig_vci",
        statement: "(extension) Partitioning beats arbitration: Mutex on 8 VCIs ≈ 3.7× \
                    Priority on 1 VCI; rates rise to 8 VCIs, and 16 are within 1 % of 8",
        read: fig_vci,
        holds: 3.0,
        compressed: 1.68,
        none: 1.0,
    },
    Claim {
        id: "fig_stream",
        fig: "fig_stream",
        statement: "(extension) Lock-free streams beat Mutex on 8 VCIs at 8 threads, ≈ 1.52×, \
                    scaling at ≥ 0.8 of linear",
        read: fig_stream,
        holds: 1.39,
        compressed: 1.13,
        none: 1.0,
    },
    Claim {
        id: "fig_fault",
        fig: "fig_fault",
        statement: "(extension) Under retransmit recovery the rate falls as link drops rise, \
                    ≈ 1.5–2× slower at 5 % drops, for every method",
        read: fig_fault,
        holds: 1.38,
        compressed: 1.13,
        none: 1.0,
    },
    Claim {
        id: "fig_serve",
        fig: "fig_serve",
        statement: "(extension) A tenant's outcome does not depend on the pool: every tenant \
                    digest is equal over 1/2/4/8 workers and over quanta 64/256/1024, which \
                    change how often it is granted",
        read: fig_serve,
        holds: 1.0,
        compressed: 1.0,
        none: 1.0,
    },
];

/// A parsed document; a read that finds nothing names the document and
/// the `$`-path it looked at.
struct Doc {
    name: String,
    json: Json,
}

impl Doc {
    fn parse(name: &str, text: &str) -> Result<Doc, String> {
        let json = Json::parse(text).map_err(|e| format!("{name}: {e}"))?;
        Ok(Doc {
            name: name.to_owned(),
            json,
        })
    }

    fn absent(&self, path: &str) -> String {
        format!("{}: no value at {path}", self.name)
    }

    fn scalar(&self, key: &str) -> Result<f64, String> {
        let v = self.json.get("scalars").and_then(|s| s.get(key));
        v.and_then(Json::as_f64)
            .ok_or_else(|| self.absent(&format!("$.scalars.{key}")))
    }

    /// The `[x, y]` points of the series labelled `label`.
    fn series(&self, label: &str) -> Result<Vec<(f64, f64)>, String> {
        let path = format!("$.series[?(@.label == {label:?})]");
        let all = self.json.get("series").and_then(Json::as_array);
        let series = all
            .and_then(|s| {
                s.iter()
                    .find(|s| s.get("label").and_then(Json::as_str) == Some(label))
            })
            .ok_or_else(|| self.absent(&path))?;
        let points = series.get("points").and_then(Json::as_array);
        let points = points.ok_or_else(|| self.absent(&format!("{path}.points")))?;
        let xy = |p: &Json| {
            Some((
                p.as_array()?.first()?.as_f64()?,
                p.as_array()?.get(1)?.as_f64()?,
            ))
        };
        let xy = |(i, p)| xy(p).ok_or_else(|| self.absent(&format!("{path}.points[{i}]")));
        points.iter().enumerate().map(xy).collect()
    }

    /// The `y` of series `label` at `x`.
    fn at(&self, label: &str, x: f64) -> Result<f64, String> {
        let point = self.series(label)?.into_iter().find(|p| p.0 == x);
        point.map(|p| p.1).ok_or_else(|| {
            self.absent(&format!(
                "$.series[?(@.label == {label:?})].points[?(@[0] == {x})]"
            ))
        })
    }
}

/// Rates as a chain, `2385 → 1773 → 1317`.
fn chain(ys: &[f64]) -> String {
    let ys: Vec<String> = ys.iter().map(|y| format!("{y:.0}")).collect();
    ys.join(" → ")
}

fn falls(ys: &[f64]) -> bool {
    ys.windows(2).all(|w| w[1] < w[0])
}

fn rises(ys: &[f64]) -> bool {
    ys.windows(2).all(|w| w[1] > w[0])
}

/// F2a: the value is the document's 1 B degradation; the shape is a 1 B
/// column that falls at every thread count and curves that meet at the
/// largest size.
fn fig2a(d: &Doc) -> Result<Reading, String> {
    const TPN: [&str; 4] = ["1 tpn", "2 tpn", "4 tpn", "8 tpn"];
    const LARGEST: f64 = 1048576.0;
    let value = d.scalar("degradation_1B_1to8")?;
    let col = TPN
        .iter()
        .map(|&s| d.at(s, 1.0))
        .collect::<Result<Vec<_>, _>>()?;
    let big = TPN
        .iter()
        .map(|&s| d.at(s, LARGEST))
        .collect::<Result<Vec<_>, _>>()?;
    let spread = big.iter().copied().fold(f64::MIN, f64::max)
        / big.iter().copied().fold(f64::MAX, f64::min)
        - 1.0;
    Ok(Reading {
        value,
        shape: falls(&col) && spread <= 0.01,
        note: format!(
            "`degradation_1B_1to8` {value:.3}; the 1 B column over 1/2/4/8 tpn is {} k msg/s; \
             the four curves are within {:.2} % of each other at 1 MB",
            chain(&col),
            100.0 * spread
        ),
    })
}

/// F3a: the value is the core-level factor; the shape is a socket-level
/// factor that is biased too, but less.
fn fig3a(d: &Doc) -> Result<Reading, String> {
    let core = d.scalar("mean_core_bias")?;
    let socket = d.scalar("mean_socket_bias")?;
    Ok(Reading {
        value: core,
        shape: 1.0 < socket && socket < core,
        note: format!(
            "`mean_core_bias` {core:.2}, `mean_socket_bias` {socket:.2} (means over the six sizes)"
        ),
    })
}

/// F6b: the value is the document's mean ratio below 32 KB; the shape is
/// Priority within 1 % of Ticket at every size from 32 KB.
fn fig6b(d: &Doc) -> Result<Reading, String> {
    let value = d.scalar("priority_over_ticket_below_32k")?;
    let ticket = d.series("Ticket")?;
    let mut gap: f64 = 0.0;
    for &(x, t) in ticket.iter().filter(|p| p.0 >= 32768.0) {
        gap = gap.max((d.at("Priority", x)? / t - 1.0).abs());
    }
    Ok(Reading {
        value,
        shape: gap <= 0.01,
        note: format!(
            "`priority_over_ticket_below_32k` {value:.3}; from 32 KB Priority is within {:.2} % \
             of Ticket",
            100.0 * gap
        ),
    })
}

/// F10a: the value is the parallel efficiency at 8 threads, from the
/// `MTEPS` series; the shape is "linear to 4": at least 90 % at 2 and 4.
fn fig10a(d: &Doc) -> Result<Reading, String> {
    let threads = [1.0, 2.0, 4.0, 8.0];
    let mteps = threads
        .iter()
        .map(|&t| d.at("MTEPS", t))
        .collect::<Result<Vec<_>, _>>()?;
    let eff: Vec<f64> = threads
        .iter()
        .zip(&mteps)
        .map(|(t, m)| m / (t * mteps[0]))
        .collect();
    Ok(Reading {
        value: eff[3],
        shape: eff[1] >= 0.9 && eff[2] >= 0.9,
        note: format!(
            "`MTEPS` {} over 1/2/4/8 threads: efficiency {:.1} / {:.1} / {:.1} % at 2/4/8",
            chain(&mteps),
            100.0 * eff[1],
            100.0 * eff[2],
            100.0 * eff[3]
        ),
    })
}

/// `fig_vci`: the value is the document's headline ratio; the shape is
/// every method rising from 1 to 8 VCIs and 16 VCIs within 1 % of 8.
fn fig_vci(d: &Doc) -> Result<Reading, String> {
    let value = d.scalar("mutex8_vs_priority1")?;
    let mut shape = true;
    let mut per_method = Vec::new();
    for method in ["Mutex", "Ticket", "Priority"] {
        let rates = [1.0, 2.0, 4.0, 8.0, 16.0]
            .iter()
            .map(|&v| d.at(method, v))
            .collect::<Result<Vec<_>, _>>()?;
        let over = rates[4] / rates[3] - 1.0;
        shape &= rises(&rates[..4]) && over.abs() <= 0.01;
        per_method.push(format!(
            "{method} {} ({:+.2} % at 16)",
            chain(&rates[..4]),
            100.0 * over
        ));
    }
    Ok(Reading {
        value,
        shape,
        note: format!(
            "`mutex8_vs_priority1` {value:.2}; k msg/s over 1/2/4/8 VCIs: {}",
            per_method.join(", ")
        ),
    })
}

/// `fig_stream`: the value is the document's ratio at 8 threads; the
/// shape is the stream path's scaling.
fn fig_stream(d: &Doc) -> Result<Reading, String> {
    let value = d.scalar("stream_vs_mutex8_t8")?;
    let linear = d.scalar("linear_frac_stream_t8")?;
    Ok(Reading {
        value,
        shape: linear >= 0.8,
        note: format!("`stream_vs_mutex8_t8` {value:.2}; `linear_frac_stream_t8` {linear:.2}"),
    })
}

/// `fig_fault`: the value is the smallest slowdown at the deepest drop
/// rate; the shape is every method's rate falling at every step.
fn fig_fault(d: &Doc) -> Result<Reading, String> {
    let mut value = f64::MAX;
    let mut shape = true;
    let (mut slowdowns, mut rates) = (Vec::new(), Vec::new());
    for method in ["Mutex", "Ticket", "Priority"] {
        let slowdown = d.scalar(&format!("slowdown_maxdrop_{method}"))?;
        let ys: Vec<f64> = d.series(method)?.iter().map(|p| p.1).collect();
        value = value.min(slowdown);
        shape &= falls(&ys);
        let how = if falls(&ys) { "" } else { " (not monotone)" };
        slowdowns.push(format!("{method} {slowdown:.2}×"));
        rates.push(format!("{method} {}{how}", chain(&ys)));
    }
    Ok(Reading {
        value,
        shape,
        note: format!(
            "`slowdown_maxdrop_*` {}; k msg/s over 0 / 10 000 / 50 000 drop ppm: {}",
            slowdowns.join(", "),
            rates.join(", ")
        ),
    })
}

/// `fig_serve`: the value is how much the quantum changed scheduling
/// (total grants at quantum 64 over 1024) while every digest matched, and
/// 0 when one did not. At 1 the sweep changed nothing, so invariance
/// under it is vacuous.
fn fig_serve(d: &Doc) -> Result<Reading, String> {
    let digests = d.scalar("serve_digest_match")?;
    let quanta = d.scalar("serve_quantum_invariance")?;
    let q64 = d.scalar("serve_total_grants_q64")?;
    let q1024 = d.scalar("serve_total_grants_q1024")?;
    let equal = digests == 1.0 && quanta == 1.0;
    Ok(Reading {
        value: if equal { q64 / q1024 } else { 0.0 },
        shape: true,
        note: format!(
            "`serve_digest_match` {digests}, `serve_quantum_invariance` {quanta}; total grants \
             {q64} at quantum 64 and {q1024} at 1024"
        ),
    })
}

/// The verdict and reading of one row over `docs` (file name, text).
fn evaluate(claim: &Claim, docs: &[(&str, &str)]) -> Result<(Verdict, Reading), String> {
    let name = format!("BENCH_{}.json", claim.fig);
    let text = docs.iter().find(|(n, _)| *n == name).map(|(_, t)| *t);
    let text = text.ok_or_else(|| format!("{name} is not among the committed documents"))?;
    let reading = (claim.read)(&Doc::parse(&name, text)?)?;
    Ok((claim.verdict(&reading), reading))
}

/// The generated block: one table row per claim, then the rows that
/// stay prose.
fn render(docs: &[(&str, &str)]) -> Result<String, String> {
    let mut out = String::from(
        "| ID | Statement | Verdict | Measured in the committed document |\n\
         |----|-----------|---------|------------------------------------|\n",
    );
    for claim in &CLAIMS {
        let (verdict, r) = evaluate(claim, docs)?;
        let _ = writeln!(
            out,
            "| {} | {} | **{}** | `{}`: {} |",
            claim.id,
            claim.statement,
            verdict.label(),
            claim.fig,
            r.note
        );
    }
    let _ = writeln!(
        out,
        "\nProse only (no committed document; the hand-written rows follow the block): {}.",
        PROSE_ONLY.join(", ")
    );
    Ok(out)
}

/// `generated` must equal the block between the markers of `experiments`.
fn check(generated: &str, experiments: &str) -> Result<(), String> {
    let committed = experiments
        .split_once(BEGIN)
        .and_then(|(_, rest)| Some(rest.split_once(END)?.0))
        .ok_or_else(|| format!("EXPERIMENTS.md has no {BEGIN:?} … {END:?} block"))?;
    same_text(
        "EXPERIMENTS.md's claims block and the generated one",
        generated,
        committed,
    )
    .map_err(|e| {
        // The first generated line that differs, else the first extra
        // committed one.
        let mut got = committed.lines();
        let line = generated.lines().find(|&l| got.next() != Some(l));
        let row = line.or_else(|| got.next()).and_then(|l| {
            let mut ids = CLAIMS.iter().map(|c| c.id);
            ids.find(|id| l.starts_with(&format!("| {id} |")))
        });
        let at = row.map_or("outside the claim rows".to_owned(), |id| {
            format!("row {id}")
        });
        format!("{at}: {e}; the generated block is:\n{generated}")
    })
}

/// Whether `word` names a figure or ablation binary
/// (`crates/bench/src/bin/<word>.rs`).
fn is_binary_name(word: &str) -> bool {
    (word.starts_with("fig") || word.starts_with("ablation_"))
        && word.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
}

/// Every figure or ablation binary a verdict row names in backticks:
/// the rows of the generated block and of the hand-written table after
/// it, up to the next heading.
fn named_binaries(experiments: &str) -> Result<BTreeSet<&str>, String> {
    let (_, rest) = experiments
        .split_once(BEGIN)
        .ok_or_else(|| format!("EXPERIMENTS.md has no {BEGIN:?} marker"))?;
    let table = rest.split("\n## ").next().unwrap_or(rest);
    let rows = table.lines().filter(|l| l.starts_with('|'));
    let spans = rows.flat_map(|row| row.split('`').skip(1).step_by(2));
    Ok(spans.filter(|w| is_binary_name(w)).collect())
}

/// The rows and the binaries must name each other: a row whose binary
/// is gone, or a binary no row names, fails by name.
fn check_binaries(named: &BTreeSet<&str>, bins: &BTreeSet<String>) -> Result<(), String> {
    let gone: Vec<_> = named.iter().filter(|n| !bins.contains(**n)).collect();
    let unnamed: Vec<_> = bins
        .iter()
        .filter(|b| !named.contains(b.as_str()))
        .collect();
    if gone.is_empty() && unnamed.is_empty() {
        return Ok(());
    }
    Err(format!(
        "verdict rows name binaries that do not exist: {gone:?}; \
         binaries no verdict row names: {unnamed:?}"
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The figure and ablation binaries under `crates/bench/src/bin/`.
    fn binaries() -> BTreeSet<String> {
        let dir = crate::workspace_root().join("crates/bench/src/bin");
        let entries = std::fs::read_dir(&dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display()));
        entries
            .map(|e| e.unwrap().path())
            .filter(|p| p.extension().is_some_and(|x| x == "rs"))
            .filter_map(|p| Some(p.file_stem()?.to_str()?.to_owned()))
            .filter(|n| is_binary_name(n))
            .collect()
    }

    const COMMITTED: [(&str, &str); 8] = [
        (
            "BENCH_fig2a.json",
            include_str!("../../results/baseline/BENCH_fig2a.json"),
        ),
        (
            "BENCH_fig3a.json",
            include_str!("../../results/baseline/BENCH_fig3a.json"),
        ),
        (
            "BENCH_fig6b.json",
            include_str!("../../results/baseline/BENCH_fig6b.json"),
        ),
        (
            "BENCH_fig10a.json",
            include_str!("../../results/baseline/BENCH_fig10a.json"),
        ),
        (
            "BENCH_fig_vci.json",
            include_str!("../../results/baseline/BENCH_fig_vci.json"),
        ),
        (
            "BENCH_fig_stream.json",
            include_str!("../../results/baseline/BENCH_fig_stream.json"),
        ),
        (
            "BENCH_fig_fault.json",
            include_str!("../../results/baseline/BENCH_fig_fault.json"),
        ),
        (
            "BENCH_fig_serve.json",
            include_str!("../../results/baseline/BENCH_fig_serve.json"),
        ),
    ];
    const EXPERIMENTS: &str = include_str!("../../EXPERIMENTS.md");

    /// The committed documents with `from` → `to` at its first occurrence
    /// in `file`.
    fn bent(file: &str, from: &str, to: &str) -> Vec<(&'static str, String)> {
        let mut docs: Vec<_> = COMMITTED.iter().map(|&(n, t)| (n, t.to_owned())).collect();
        let doc = docs.iter_mut().find(|(name, _)| *name == file).unwrap();
        let got = doc.1.replacen(from, to, 1);
        assert_ne!(got, doc.1, "{from:?} is not in {file}");
        doc.1 = got;
        docs
    }

    fn refs<'a>(docs: &'a [(&'static str, String)]) -> Vec<(&'static str, &'a str)> {
        docs.iter().map(|(n, t)| (*n, t.as_str())).collect()
    }

    fn verdict_of(id: &str, docs: &[(&str, &str)]) -> Verdict {
        let claim = CLAIMS.iter().find(|c| c.id == id).unwrap();
        evaluate(claim, docs).unwrap().0
    }

    #[test]
    fn experiments_md_quotes_the_rows_the_committed_documents_give() {
        let generated = render(&COMMITTED).unwrap_or_else(|e| panic!("{e}"));
        if let Err(e) = check(&generated, EXPERIMENTS) {
            panic!("{e}");
        }
    }

    #[test]
    fn every_verdict_row_names_a_binary_and_every_binary_has_a_row() {
        let named = named_binaries(EXPERIMENTS).unwrap_or_else(|e| panic!("{e}"));
        if let Err(e) = check_binaries(&named, &binaries()) {
            panic!("{e}");
        }
    }

    /// A row left behind by a deleted binary, and a binary whose row is
    /// deleted, each fail by name.
    #[test]
    fn a_stale_row_or_an_unnamed_binary_fails_by_name() {
        let stale = EXPERIMENTS.replacen(
            "\n| — | Ablation: full lock zoo",
            "\n| — | Ablation: selective wake-up | extension | `ablation_selective` |\n\
             | — | Ablation: full lock zoo",
            1,
        );
        assert_ne!(
            stale, EXPERIMENTS,
            "the `ablation_locks` row this test splices at is gone from EXPERIMENTS.md"
        );
        let named = named_binaries(&stale).unwrap();
        let err = check_binaries(&named, &binaries()).unwrap_err();
        assert!(
            err.starts_with(
                "verdict rows name binaries that do not exist: [\"ablation_selective\"];"
            ),
            "{err}"
        );
        let mut named = named_binaries(EXPERIMENTS).unwrap();
        named.remove("fig_fault");
        let err = check_binaries(&named, &binaries()).unwrap_err();
        assert!(
            err.ends_with("binaries no verdict row names: [\"fig_fault\"]"),
            "{err}"
        );
    }

    /// Each bend moves one number the table reads; its row leaves the
    /// class the committed document gives, and the table check names it.
    #[test]
    fn a_bent_number_demotes_its_row_and_fails_the_table_at_it() {
        for (file, from, to, id, was, now) in [
            (
                "BENCH_fig2a.json",
                "\"degradation_1B_1to8\":1.9540983351969186",
                "\"degradation_1B_1to8\":0.9",
                "F2a",
                Verdict::Compressed,
                Verdict::NotReproduced,
            ),
            // A ratio of exactly 1 is two equal sides: Ticket ≡ Priority.
            (
                "BENCH_fig6b.json",
                "\"priority_over_ticket_below_32k\":1.031211645918835",
                "\"priority_over_ticket_below_32k\":1",
                "F6b",
                Verdict::Direction,
                Verdict::Vacuous,
            ),
            // Mutex at 16 VCIs 3.3 % under 8: the value holds, the shape does not.
            (
                "BENCH_fig_vci.json",
                "[16,4004.4737480153613]",
                "[16,3900]",
                "fig_vci",
                Verdict::Holds,
                Verdict::Direction,
            ),
        ] {
            assert_eq!(verdict_of(id, &COMMITTED), was, "{id}");
            let docs = bent(file, from, to);
            assert_eq!(verdict_of(id, &refs(&docs)), now, "{id}");
            let generated = render(&refs(&docs)).unwrap();
            let err = check(&generated, EXPERIMENTS).unwrap_err();
            assert!(err.starts_with(&format!("row {id}: ")), "{err}");
            assert!(err.ends_with(&generated), "{err}");
        }
    }

    /// A member a row reads that the document lacks is an error naming
    /// the document and the path, never a value that lands in a class.
    #[test]
    fn an_absent_member_fails_with_its_document_and_path() {
        for (file, from, to, path) in [
            (
                "BENCH_fig2a.json",
                "\"degradation_1B_1to8\"",
                "\"degradation_1B_1to4\"",
                "$.scalars.degradation_1B_1to8",
            ),
            (
                "BENCH_fig_fault.json",
                "{\"label\":\"Ticket\"",
                "{\"label\":\"Ticket2\"",
                "$.series[?(@.label == \"Ticket\")]",
            ),
            (
                "BENCH_fig10a.json",
                "[8,1023.2497641395474]",
                "[9,1023.2497641395474]",
                "$.series[?(@.label == \"MTEPS\")].points[?(@[0] == 8)]",
            ),
        ] {
            let err = render(&refs(&bent(file, from, to))).unwrap_err();
            assert_eq!(err, format!("{file}: no value at {path}"));
        }
    }
}
