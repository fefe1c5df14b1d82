//! The claims table: the verdict rows EXPERIMENTS.md quotes for the
//! paper panels and extension figures whose worlds a document committed
//! under `results/baseline/` holds. A panel whose worlds another figure
//! already runs reads that figure's document (F3c reads `fig5a`'s
//! `mutex` series), so one document can feed several rows.
//!
//! A row is data: the figure, the statement it checks (the paper's, or
//! the repository's own for an extension figure) with the value that
//! statement claims, a reading of the document's `series` and `scalars`
//! through [`Json`], and the no-effect value. A row holds from three
//! quarters of the claimed effect above the no-effect value and holds
//! compressed from a quarter; extension rows claim the value their
//! documentation states (`fig_serve` states no magnitude: any change in
//! scheduling under equal digests holds). Where a statement compares
//! two series that are the same worlds, the row's note says so and the
//! comparison earns no shape. The test renders every row and requires EXPERIMENTS.md's
//! block between [`BEGIN`] and [`END`] to equal the rendered text; a
//! failure names the first differing row and prints the whole block to
//! copy in. `bench-diff` keeps each committed document equal to a fresh
//! run, so the rows read what the figures produce. Two more checks keep
//! the verdict rows and the figure binaries naming each other, and the committed documents and the rows reading each other.

use crate::run::same_text;
use mtmpi_prof::Json;
use std::collections::BTreeSet;
use std::fmt::Write as _;

const BEGIN: &str = "<!-- claims:begin -->\n";
const END: &str = "<!-- claims:end -->";

/// The paper rows with no committed document: their verdicts stay
/// hand-written, below the generated block.
const PROSE_ONLY: [&str; 6] = ["T1", "F10b", "F10c", "F11a", "F11b", "F12b"];

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
    /// The figure binary whose document, `BENCH_<fig>.json`, the row
    /// reads.
    fig: &'static str,
    /// The statement checked, with the value it claims.
    statement: &'static str,
    read: fn(&Doc) -> Result<Reading, String>,
    /// The value the statement claims, and the no-effect value. From
    /// three quarters of the way from `none` to `claimed` the statement
    /// holds; from a quarter it holds at a smaller magnitude; above
    /// `none` only its direction holds; below, it does not reproduce.
    /// Exactly `none` is vacuous: a ratio reads it only when both of its
    /// sides are the same numbers.
    claimed: f64,
    none: f64,
}

impl Claim {
    fn document(&self) -> String {
        format!("BENCH_{}.json", self.fig)
    }

    fn verdict(&self, r: &Reading) -> Verdict {
        let v = r.value;
        if v == self.none {
            return Verdict::Vacuous;
        }
        let share = |q: f64| self.none + q * (self.claimed - self.none);
        let by_value = if v >= share(0.75) {
            Verdict::Holds
        } else if v >= share(0.25) {
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

const CLAIMS: [Claim; 16] = [
    Claim {
        id: "F2a",
        fig: "fig2a",
        statement: "Mutex msg rate degrades with thread count, ~4× from 1 to 8 tpn at 1 B; \
                    the curves converge at large sizes",
        read: fig2a,
        claimed: 4.0,
        none: 1.0,
    },
    Claim {
        id: "F2b",
        fig: "fig5b",
        statement: "Scatter binding 1.5–2× worse than compact (Mutex, 1 B, 2 and 4 tpn)",
        read: fig2b,
        claimed: 1.5,
        none: 1.0,
    },
    Claim {
        id: "F3a",
        fig: "fig3a",
        statement: "Mutex bias factors: ~2× at core level, ~1.25× at socket level",
        read: fig3a,
        claimed: 2.0,
        none: 1.0,
    },
    Claim {
        id: "F3c",
        fig: "fig5a",
        statement: "High dangling-request counts under Mutex at every size (avg up to ~200 at \
                    8 tpn)",
        read: fig3c,
        claimed: 200.0,
        none: 0.0,
    },
    Claim {
        id: "F5a",
        fig: "fig5a",
        statement: "Ticket keeps dangling requests very low vs Mutex: an order of magnitude \
                    fewer at every size",
        read: fig5a,
        claimed: 10.0,
        none: 1.0,
    },
    Claim {
        id: "F5b",
        fig: "fig5b",
        statement: "1 B: Ticket +68 % over Mutex at 4 tpn compact; under scatter Ticket \
                    slightly loses at 2 tpn and wins at 8",
        read: fig5b,
        claimed: 1.68,
        none: 1.0,
    },
    Claim {
        id: "F5c",
        fig: "fig8a",
        statement: "Ticket +30 % over Mutex below 4 KB (8 tpn); the gap closes by 32 KB",
        read: fig5c,
        claimed: 1.3,
        none: 1.0,
    },
    Claim {
        id: "F6b",
        fig: "fig6b",
        statement: "N2N: Priority ~1.33× Ticket below 32 KB; the gap closes from 32 KB",
        read: fig6b,
        claimed: 1.33,
        none: 1.0,
    },
    Claim {
        id: "F8a",
        fig: "fig8a",
        statement: "Throughput at 8 tpn: Ticket ≈ Priority > Mutex; multithreaded ≈ 36 % of \
                    single (Single ≈ 2.8× Ticket)",
        read: fig8a,
        claimed: 1.0 / 0.36,
        none: 1.0,
    },
    Claim {
        id: "F8b",
        fig: "fig8b",
        statement: "Latency at 8 tpn: Ticket up to 3.5× lower than Mutex; Priority +11 % small; \
                    above 128 B multithreaded Ticket beats single",
        read: fig8b,
        claimed: 3.5,
        none: 1.0,
    },
    Claim {
        id: "F9",
        fig: "fig9",
        statement: "RMA put/get/acc with async progress: fair locks up to 5× over Mutex; \
                    Ticket ≈ Priority",
        read: fig9,
        claimed: 5.0,
        none: 1.0,
    },
    Claim {
        id: "F10a",
        fig: "fig10a",
        statement: "BFS on one node: linear to 4 threads, ~90 % efficiency at 8",
        read: fig10a,
        claimed: 0.9,
        none: 0.125,
    },
    Claim {
        id: "fig_vci",
        fig: "fig_vci",
        statement: "(extension) Partitioning beats arbitration: Mutex on 8 VCIs ≈ 3.7× \
                    Priority on 1 VCI; rates rise to 8 VCIs, and 16 are within 1 % of 8",
        read: fig_vci,
        claimed: 3.7,
        none: 1.0,
    },
    Claim {
        id: "fig_stream",
        fig: "fig_stream",
        statement: "(extension) Lock-free streams beat Mutex on 8 VCIs at 8 threads, ≈ 1.52×, \
                    scaling at ≥ 0.8 of linear",
        read: fig_stream,
        claimed: 1.52,
        none: 1.0,
    },
    Claim {
        id: "fig_fault",
        fig: "fig_fault",
        statement: "(extension) Under retransmit recovery the rate falls as link drops rise, \
                    ≈ 1.5–2× slower at 5 % drops, for every method",
        read: fig_fault,
        claimed: 1.5,
        none: 1.0,
    },
    Claim {
        id: "fig_serve",
        fig: "fig_serve",
        statement: "(extension) A tenant's outcome does not depend on the pool: every tenant \
                    digest is equal over 1/2/4/8 workers and over quanta 64/256/1024, which \
                    change how often it is granted",
        read: fig_serve,
        claimed: 1.0,
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

/// The largest relative gap `|b / a − 1|` between series `a` and `b` at
/// the sizes of `a` from `from_x`.
fn gap(d: &Doc, a: &str, b: &str, from_x: f64) -> Result<f64, String> {
    let mut gap: f64 = 0.0;
    for (x, y) in d.series(a)?.into_iter().filter(|p| p.0 >= from_x) {
        gap = gap.max((d.at(b, x)? / y - 1.0).abs());
    }
    Ok(gap)
}

/// The geometric mean of `a / b` over the sizes of `a` up to `max_x`,
/// summed in `Series::mean_ratio_vs_below`'s order, so it is the number
/// a figure's `*_below_*` scalar would hold.
fn mean_ratio(d: &Doc, a: &str, b: &str, max_x: f64) -> Result<f64, String> {
    let mut logs = Vec::new();
    for (x, y) in d.series(a)?.into_iter().filter(|p| p.0 <= max_x) {
        logs.push((y / d.at(b, x)?).ln());
    }
    Ok((logs.iter().sum::<f64>() / logs.len() as f64).exp())
}

/// Series `a` over series `b` at `x`.
fn ratio(d: &Doc, a: &str, b: &str, x: f64) -> Result<f64, String> {
    Ok(d.at(a, x)? / d.at(b, x)?)
}

/// The `y`s of series `label`.
fn ys(d: &Doc, label: &str) -> Result<Vec<f64>, String> {
    Ok(d.series(label)?.into_iter().map(|p| p.1).collect())
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

/// F2b, from `fig5b`'s sweep: the value is the geometric mean of Mutex's
/// compact-over-scatter rate at 2 and 4 tpn; the shape is compact ahead
/// at both.
fn fig2b(d: &Doc) -> Result<Reading, String> {
    let value = mean_ratio(d, "Mutex", "Mutex_Scatter", 4.0)?;
    let at2 = ratio(d, "Mutex", "Mutex_Scatter", 2.0)?;
    let at4 = ratio(d, "Mutex", "Mutex_Scatter", 4.0)?;
    Ok(Reading {
        value,
        shape: at2 > 1.0 && at4 > 1.0,
        note: format!(
            "`Mutex` over `Mutex_Scatter` at 1 B: {at2:.2} at 2 tpn and {at4:.2} at 4 tpn \
             (geometric mean {value:.2})"
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

/// F3c, from `fig5a`'s `mutex` series, which runs Fig 3c's worlds: the
/// value is the highest average dangling count; the shape is a count
/// that stays high at every size, at least half the claimed ~200.
fn fig3c(d: &Doc) -> Result<Reading, String> {
    let mutex = ys(d, "mutex")?;
    let value = mutex.iter().copied().fold(f64::MIN, f64::max);
    Ok(Reading {
        value,
        shape: mutex.iter().all(|&y| y >= 100.0),
        note: format!(
            "`mutex` {} average dangling requests over 1 B … 1 KB",
            chain(&mutex)
        ),
    })
}

/// F5a: the value is the smallest Mutex-over-Ticket ratio of average
/// dangling counts over the sizes.
fn fig5a(d: &Doc) -> Result<Reading, String> {
    let mut value = f64::MAX;
    let (mut low, mut high) = (f64::MAX, f64::MIN);
    for (x, mutex) in d.series("mutex")? {
        let ticket = d.at("ticket", x)?;
        value = value.min(mutex / ticket);
        (low, high) = (low.min(ticket), high.max(ticket));
    }
    Ok(Reading {
        value,
        shape: true,
        note: format!(
            "`ticket` {low:.1}–{high:.1} against `mutex` {} average dangling requests over \
             1 B … 1 KB: Mutex/Ticket ≥ {value:.1} at every size",
            chain(&ys(d, "mutex")?)
        ),
    })
}

/// F5b: the value is Ticket over Mutex at 4 tpn compact; the shape is the
/// scatter pair, Ticket below Mutex at 2 tpn and above it at 8.
fn fig5b(d: &Doc) -> Result<Reading, String> {
    let value = ratio(d, "Ticket", "Mutex", 4.0)?;
    let at2 = ratio(d, "Ticket_Scatter", "Mutex_Scatter", 2.0)?;
    let at8 = ratio(d, "Ticket_Scatter", "Mutex_Scatter", 8.0)?;
    let mut curves = Vec::new();
    for label in ["Mutex", "Ticket", "Mutex_Scatter", "Ticket_Scatter"] {
        curves.push(format!("{label} {}", chain(&ys(d, label)?)));
    }
    Ok(Reading {
        value,
        shape: at2 < 1.0 && at8 > 1.0,
        note: format!(
            "Ticket/Mutex {value:.2} at 4 tpn compact; under scatter {at2:.2} at 2 tpn and \
             {at8:.2} at 8; k msg/s over 2/4/8 tpn: {}",
            curves.join(", ")
        ),
    })
}

/// F5c, from `fig8a`'s sweep, whose Mutex and Ticket curves run Fig 5c's
/// worlds: the value is the geometric mean of Ticket over Mutex up to
/// 4 KB; the shape is Ticket within 1 % of Mutex from 32 KB.
fn fig5c(d: &Doc) -> Result<Reading, String> {
    let value = mean_ratio(d, "Ticket", "Mutex", 4096.0)?;
    let at4k = ratio(d, "Ticket", "Mutex", 4096.0)? - 1.0;
    let gap = gap(d, "Mutex", "Ticket", 32768.0)?;
    Ok(Reading {
        value,
        shape: gap <= 0.01,
        note: format!(
            "`Ticket`/`Mutex` geometric mean {value:.3} over 1 B … 4 KB; {:+.2} % at 4 KB; \
             from 32 KB Ticket is within {:.2} % of Mutex",
            100.0 * at4k,
            100.0 * gap
        ),
    })
}

/// F6b: the value is the document's mean ratio below 32 KB; the shape is
/// Priority within 1 % of Ticket at every size from 32 KB.
fn fig6b(d: &Doc) -> Result<Reading, String> {
    let value = d.scalar("priority_over_ticket_below_32k")?;
    let gap = gap(d, "Ticket", "Priority", 32768.0)?;
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

/// F8a: the value is Single over Ticket up to 16 KB, the inverse of the
/// document's `ticket_over_single_below_16k`; the shape is Ticket and
/// Priority both above Mutex over the same sizes.
fn fig8a(d: &Doc) -> Result<Reading, String> {
    let ticket_single = d.scalar("ticket_over_single_below_16k")?;
    let ticket_mutex = d.scalar("ticket_over_mutex_below_16k")?;
    let priority_ticket = d.scalar("priority_over_ticket_overall")?;
    let priority_mutex = mean_ratio(d, "Priority", "Mutex", 16384.0)?;
    let mut at1 = Vec::new();
    for label in ["Single", "Ticket", "Mutex", "Priority"] {
        at1.push(format!("{label} {:.0}", d.at(label, 1.0)?));
    }
    Ok(Reading {
        value: 1.0 / ticket_single,
        shape: ticket_mutex > 1.0 && priority_mutex > 1.0,
        note: format!(
            "`ticket_over_single_below_16k` {ticket_single:.2}; `ticket_over_mutex_below_16k` \
             {ticket_mutex:.2} and Priority/Mutex {priority_mutex:.2} (geometric means up to \
             16 KB); `priority_over_ticket_overall` {priority_ticket:.2}; k msg/s at 1 B: {}",
            at1.join(", ")
        ),
    })
}

/// F8b: the value is the document's small-message Mutex-over-Ticket
/// latency; the shape is Priority's latency above Ticket's up to 128 B
/// and Ticket's below Single's at every size above it. Where Ticket and
/// Priority are equal they are the same worlds, and the strict
/// comparison earns no shape.
fn fig8b(d: &Doc) -> Result<Reading, String> {
    let value = d.scalar("mutex_over_ticket_small")?;
    let single = d.scalar("single_over_ticket_overall")?;
    let (ticket, priority) = (d.series("Ticket")?, d.series("Priority")?);
    let same_to = ticket
        .iter()
        .zip(&priority)
        .take_while(|(t, p)| t == p)
        .last();
    let mut priority_above = true;
    let (mut above, mut beats) = (0, 0);
    for &(x, t) in &ticket {
        if x <= 128.0 {
            priority_above &= d.at("Priority", x)? > t;
        } else {
            above += 1;
            beats += usize::from(t < d.at("Single", x)?);
        }
    }
    let same = same_to.map_or(
        "Ticket and Priority differ from 1 B".to_owned(),
        |(t, _)| format!("Ticket ≡ Priority up to {} B: the same worlds", t.0),
    );
    Ok(Reading {
        value,
        shape: priority_above && beats == above,
        note: format!(
            "`mutex_over_ticket_small` {value:.2}; {same}; Priority/Ticket {:.2} at 4 KB; \
             `single_over_ticket_overall` {single:.2}: Ticket's latency is below Single's at \
             {beats} of the {above} sizes above 128 B",
            ratio(d, "Priority", "Ticket", 4096.0)?
        ),
    })
}

/// F9: the value is the smallest of the three ops' Ticket-over-Mutex
/// maxima; the shape is Priority within 1 % of Ticket. Series equal at
/// every point are the same worlds, so equality earns no shape.
fn fig9(d: &Doc) -> Result<Reading, String> {
    let (mut value, mut maxima, mut apart) = (f64::MAX, Vec::new(), 0.0f64);
    for op in ["Put", "Get", "Accumulate"] {
        let max = d.scalar(&format!("ticket_over_mutex_max_{op}"))?;
        value = value.min(max);
        maxima.push(format!("{op} {max:.2}×"));
        apart = apart.max(gap(
            d,
            &format!("{op}_Ticket"),
            &format!("{op}_Priority"),
            0.0,
        )?);
    }
    let mut put_acc = 0.0f64;
    for m in ["Mutex", "Ticket", "Priority"] {
        put_acc = put_acc.max(gap(
            d,
            &format!("Put_{m}"),
            &format!("Accumulate_{m}"),
            0.0,
        )?);
    }
    let pair = |a: &str, b: &str, gap: f64| {
        if gap == 0.0 {
            format!("{a} ≡ {b} at every point: the same worlds")
        } else {
            format!("{a} within {:.2} % of {b}", 100.0 * gap)
        }
    };
    Ok(Reading {
        value,
        shape: 0.0 < apart && apart <= 0.01,
        note: format!(
            "`ticket_over_mutex_max_*` {}; {}; {}",
            maxima.join(", "),
            pair("`*_Priority`", "`*_Ticket`", apart),
            pair("`Accumulate_*`", "`Put_*`", put_acc)
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
    let name = claim.document();
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

/// Whether `word` names a figure binary
/// (`crates/bench/src/bin/<word>.rs`).
fn is_binary_name(word: &str) -> bool {
    word.starts_with("fig") && word.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
}

/// Every figure binary a verdict row names in backticks:
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

/// Every baseline document under `results/baseline/` (`on_disk`) must be
/// among the committed documents the tests read (`listed`), and every
/// listed document must be one a row reads (`read`); either failure
/// names the file. A listed file that is not on disk cannot compile:
/// the tests read it with `include_str!`.
fn check_committed(
    listed: &BTreeSet<&str>,
    on_disk: &BTreeSet<String>,
    read: &BTreeSet<String>,
) -> Result<(), String> {
    let unlisted: Vec<_> = on_disk
        .iter()
        .filter(|n| !listed.contains(n.as_str()))
        .collect();
    let unread: Vec<_> = listed.iter().filter(|n| !read.contains(**n)).collect();
    if unlisted.is_empty() && unread.is_empty() {
        return Ok(());
    }
    Err(format!(
        "under results/baseline/ but not listed: {unlisted:?}; read by no row: {unread:?}"
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The figure binaries under `crates/bench/src/bin/`.
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

    const COMMITTED: [(&str, &str); 13] = [
        (
            "BENCH_fig2a.json",
            include_str!("../../results/baseline/BENCH_fig2a.json"),
        ),
        (
            "BENCH_fig3a.json",
            include_str!("../../results/baseline/BENCH_fig3a.json"),
        ),
        (
            "BENCH_fig5a.json",
            include_str!("../../results/baseline/BENCH_fig5a.json"),
        ),
        (
            "BENCH_fig5b.json",
            include_str!("../../results/baseline/BENCH_fig5b.json"),
        ),
        (
            "BENCH_fig6b.json",
            include_str!("../../results/baseline/BENCH_fig6b.json"),
        ),
        (
            "BENCH_fig8a.json",
            include_str!("../../results/baseline/BENCH_fig8a.json"),
        ),
        (
            "BENCH_fig8b.json",
            include_str!("../../results/baseline/BENCH_fig8b.json"),
        ),
        (
            "BENCH_fig9.json",
            include_str!("../../results/baseline/BENCH_fig9.json"),
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

    /// The `BENCH_*.json` documents under `results/baseline/`.
    fn baselines() -> BTreeSet<String> {
        let dir = crate::workspace_root().join("results/baseline");
        let entries = std::fs::read_dir(&dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display()));
        entries
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .filter(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
            .collect()
    }

    fn listed() -> BTreeSet<&'static str> {
        COMMITTED.iter().map(|(n, _)| *n).collect()
    }

    fn read() -> BTreeSet<String> {
        CLAIMS.iter().map(Claim::document).collect()
    }

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
            "\n| — | Scale sweep:",
            "\n| — | Deleted figure | extension | `fig_deleted` |\n| — | Scale sweep:",
            1,
        );
        assert_ne!(
            stale, EXPERIMENTS,
            "the scale-sweep row this test splices at is gone from EXPERIMENTS.md"
        );
        let named = named_binaries(&stale).unwrap();
        let err = check_binaries(&named, &binaries()).unwrap_err();
        assert!(
            err.starts_with("verdict rows name binaries that do not exist: [\"fig_deleted\"];"),
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

    #[test]
    fn every_baseline_is_committed_here_and_read_by_a_row() {
        if let Err(e) = check_committed(&listed(), &baselines(), &read()) {
            panic!("{e}");
        }
    }

    /// A baseline nobody lists, and a listed document whose last row is
    /// gone, each fail by name.
    #[test]
    fn an_unlisted_or_unread_baseline_fails_by_name() {
        let mut on_disk = baselines();
        on_disk.insert("BENCH_fig2b.json".to_owned());
        let err = check_committed(&listed(), &on_disk, &read()).unwrap_err();
        assert!(
            err.starts_with("under results/baseline/ but not listed: [\"BENCH_fig2b.json\"];"),
            "{err}"
        );
        let fewer = CLAIMS.iter().filter(|c| c.id != "F9").map(Claim::document);
        let err = check_committed(&listed(), &baselines(), &fewer.collect()).unwrap_err();
        assert!(
            err.ends_with("read by no row: [\"BENCH_fig9.json\"]"),
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
            // F2b is at the bottom already: a lifted 4 tpn rate moves it up,
            // and compact still trails at 2 tpn, so only the direction counts.
            (
                "BENCH_fig5b.json",
                "[4,1317.3411321757999]",
                "[4,2500]",
                "F2b",
                Verdict::NotReproduced,
                Verdict::Direction,
            ),
            // One size at 20 dangling requests: the peak holds, the shape does not.
            (
                "BENCH_fig5a.json",
                "[1,144.86916919679823]",
                "[1,20]",
                "F3c",
                Verdict::Compressed,
                Verdict::Direction,
            ),
            (
                "BENCH_fig5a.json",
                "[1024,5.689591078066915]",
                "[1024,50]",
                "F5a",
                Verdict::Holds,
                Verdict::Direction,
            ),
            (
                "BENCH_fig5b.json",
                "[4,1583.3908893172659]",
                "[4,1300]",
                "F5b",
                Verdict::Direction,
                Verdict::NotReproduced,
            ),
            (
                "BENCH_fig8a.json",
                "[1,1296.1287015296596]",
                "[1,100]",
                "F5c",
                Verdict::Direction,
                Verdict::NotReproduced,
            ),
            (
                "BENCH_fig8a.json",
                "\"ticket_over_single_below_16k\":0.6718145495149299",
                "\"ticket_over_single_below_16k\":1.5",
                "F8a",
                Verdict::Direction,
                Verdict::NotReproduced,
            ),
            (
                "BENCH_fig8b.json",
                "\"mutex_over_ticket_small\":1.8486199817573223",
                "\"mutex_over_ticket_small\":0.9",
                "F8b",
                Verdict::Direction,
                Verdict::NotReproduced,
            ),
            (
                "BENCH_fig9.json",
                "\"ticket_over_mutex_max_Put\":1.7214420153467498",
                "\"ticket_over_mutex_max_Put\":0.9",
                "F9",
                Verdict::Direction,
                Verdict::NotReproduced,
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
                "BENCH_fig8a.json",
                "\"ticket_over_single_below_16k\"",
                "\"ticket_over_single_below_8k\"",
                "$.scalars.ticket_over_single_below_16k",
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
