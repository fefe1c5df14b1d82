//! Host-clock spans recorded by the benchmark around its calls into each
//! layer. Kept in memory, written as a trace-event document at exit.
//!
//! A span's name is `<layer>.<what>` with the layer a crate name
//! (`core.start`, `sim.step`, `prof.blame`, …), so summing self time by
//! name prefix gives host time per layer.

use std::time::Instant;

/// One closed (or still open) interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that was open when this one started.
    pub parent: Option<usize>,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle returned by [`Spans::open`]; pass it back to [`Spans::close`].
#[must_use]
pub struct Open(Option<usize>);

impl Open {
    /// Index of the span in [`Spans::spans`] (`None` with recording off).
    pub fn id(&self) -> Option<usize> {
        self.0
    }
}

/// The span recorder. With recording off (`Spans::off()`) `open`/`close`
/// are a branch each and read no clock: end-to-end runs use that.
pub struct Spans {
    t0: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    on: bool,
}

impl Spans {
    pub fn on() -> Self {
        Self {
            t0: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            on: true,
        }
    }

    pub fn off() -> Self {
        Self {
            on: false,
            ..Self::on()
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Start a span nested in whichever span is currently open.
    pub fn open(&mut self, name: &'static str) -> Open {
        if !self.on {
            return Open(None);
        }
        let id = self.spans.len();
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.stack.last().copied(),
        });
        self.stack.push(id);
        Open(Some(id))
    }

    /// End a span and return its duration (`None` with recording off).
    /// Spans close in LIFO order; anything else is a bug in the
    /// benchmark.
    pub fn close(&mut self, open: Open) -> Option<u64> {
        let id = open.0?;
        assert_eq!(self.stack.pop(), Some(id), "spans must nest");
        self.spans[id].end_ns = self.now_ns();
        Some(self.spans[id].dur_ns())
    }

    /// Run `f` inside a span.
    pub fn scope<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Spans) -> R) -> R {
        let o = self.open(name);
        let r = f(self);
        self.close(o);
        r
    }

    pub fn spans(&self) -> &[Span] {
        assert!(self.stack.is_empty(), "spans still open");
        &self.spans
    }
}

/// Self time of every span: its duration minus the part its children
/// cover. Children of one parent never overlap (one recording thread,
/// LIFO nesting), so the covered part is the plain sum.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] -= s.dur_ns();
        }
    }
    own
}

/// Total self time (ns) of the spans called `name`.
pub fn self_total(spans: &[Span], name: &str) -> f64 {
    self_total_under(spans, name, None)
}

/// Total self time (ns) of the spans called `name` — all of them, or
/// only the descendants of the span `root`.
pub fn self_total_under(spans: &[Span], name: &str, root: Option<usize>) -> f64 {
    let under = |mut i: usize| loop {
        match (spans[i].parent, root) {
            (_, None) => return true,
            (None, Some(_)) => return false,
            (Some(p), Some(r)) if p == r => return true,
            (Some(p), Some(_)) => i = p,
        }
    };
    let own = self_times(spans);
    let ns: u64 = (0..spans.len())
        .filter(|&i| spans[i].name == name && under(i))
        .map(|i| own[i])
        .sum();
    ns as f64
}

/// Every span nests inside its parent and starts no earlier than it.
pub fn check_nesting(spans: &[Span]) -> Result<(), String> {
    for (i, s) in spans.iter().enumerate() {
        if s.end_ns < s.start_ns {
            return Err(format!("span {i} {} ends before it starts", s.name));
        }
        if let Some(p) = s.parent {
            let ps = spans.get(p).ok_or(format!("span {i} has no parent {p}"))?;
            if p >= i || s.start_ns < ps.start_ns || s.end_ns > ps.end_ns {
                return Err(format!(
                    "span {i} {} escapes parent {p} {}",
                    s.name, ps.name
                ));
            }
        }
    }
    Ok(())
}

/// One trace-event JSON object per span, one per line. `pid` is the
/// workload's index and every event carries the workload name, so spans
/// of one workload share an identifier; `args.parent` is the causing
/// span's `args.id`.
pub fn trace_events(spans: &[Span], workload: &str, pid: usize) -> Vec<String> {
    let mut out = vec![format!(
        "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\
         \"args\":{{\"name\":\"{workload}\"}}}}"
    )];
    for (id, s) in spans.iter().enumerate() {
        let layer = s.name.split('.').next().unwrap_or(s.name);
        let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
        out.push(format!(
            "{{\"name\":\"{}\",\"cat\":\"{layer}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
             \"pid\":{pid},\"tid\":0,\"args\":{{\"id\":{id},\"parent\":{parent},\
             \"workload\":\"{workload}\"}}}}",
            s.name,
            s.start_ns as f64 / 1e3,
            s.dur_ns() as f64 / 1e3,
        ));
    }
    out
}

/// Wrap event lines into a trace-event document (Perfetto,
/// `chrome://tracing`). One event per line so documents can be spliced.
pub fn trace_doc(events: &[String]) -> String {
    format!(
        "{{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n{}\n]}}\n",
        events.join(",\n")
    )
}

/// The event lines of a document written by [`trace_doc`].
pub fn doc_events(doc: &str) -> Vec<String> {
    doc.lines()
        .filter(|l| l.starts_with("{\"name\""))
        .map(|l| l.trim_end_matches(',').to_owned())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_children_only_once() {
        // root 0..100 { a 10..40 { b 20..30 }, a 50..90 }
        let spans = [
            span("bench.iteration", 0, 100, None),
            span("sim.step", 10, 40, Some(0)),
            span("obs.drain", 20, 30, Some(1)),
            span("sim.step", 50, 90, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 10, 40]);
        assert_eq!(self_total(&spans, "sim.step"), 60.0);
        assert_eq!(self_total(&spans, "nope"), 0.0);
        // Only the `obs.drain` nested under span 1 counts under span 1.
        assert_eq!(self_total_under(&spans, "obs.drain", Some(1)), 10.0);
        assert_eq!(self_total_under(&spans, "sim.step", Some(1)), 0.0);
        assert_eq!(self_total_under(&spans, "sim.step", Some(0)), 60.0);
        // Self times partition the root.
        assert_eq!(self_times(&spans).iter().sum::<u64>(), 100);
        check_nesting(&spans).unwrap();
    }

    #[test]
    fn nesting_violations_are_reported() {
        let escapes = [span("a.x", 0, 10, None), span("b.y", 5, 11, Some(0))];
        assert!(check_nesting(&escapes).is_err());
        let orphan = [span("a.x", 0, 10, Some(3))];
        assert!(check_nesting(&orphan).is_err());
    }

    #[test]
    fn recorder_nests_and_off_records_nothing() {
        let mut s = Spans::on();
        s.scope("bench.iteration", |s| {
            s.scope("core.start", |_| ());
            let o = s.open("sim.step");
            s.close(o);
        });
        let spans = s.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        check_nesting(spans).unwrap();

        let mut off = Spans::off();
        off.scope("bench.iteration", |s| s.scope("core.start", |_| ()));
        assert!(off.spans().is_empty());
    }

    #[test]
    fn trace_document_round_trips_its_events() {
        let spans = [
            span("bench.iteration", 0, 2500, None),
            span("sim.step", 1000, 2000, Some(0)),
        ];
        let events = trace_events(&spans, "pt2pt_figure", 0);
        assert_eq!(events.len(), 3);
        assert!(events[2].contains("\"cat\":\"sim\""));
        assert!(events[2].contains("\"ts\":1.000,\"dur\":1.000"));
        assert!(events[2].contains("\"parent\":0"));
        let doc = trace_doc(&events);
        assert_eq!(doc_events(&doc), events);
        mtmpi_prof::Json::parse(&doc).expect("valid JSON");
    }
}
