//! Timeline exporters: Chrome trace-event JSON and JSONL.
//!
//! The Chrome format is the trace-event JSON understood by
//! `chrome://tracing` and Perfetto: an object with a `traceEvents` array
//! of `"X"` (complete span) and `"i"` (instant) events, timestamps in
//! microseconds. Each critical-section passage becomes *two* spans on the
//! owning thread's track — `cs wait` (request → grant) and `cs hold`
//! (grant → release) — so contention is visible as wait bars stacking up
//! under a long hold.
//!
//! Both JSON exporters stream: every event is written straight into one
//! [`Writer`] buffer sized from the event count, separators included, and
//! that buffer is the `String` returned — no per-event `String`, no
//! joined copy. [`ChromeDoc`] is the one place that knows the document
//! frame; [`chrome_trace`], the figure harness's
//! `--trace` export and the prof layer's counter track all go through it.

use crate::event::{Event, EventKind};
use crate::json::Writer;
use crate::recorder::Timeline;
use std::collections::BTreeSet;

/// Stable Perfetto flow-event id of one message. The link sequence
/// number is only unique per `(src, dst)` pair, so the id must fold in
/// both endpoints; FNV-1a keeps it deterministic and collision-sparse.
/// `vci` rides along as an arg, not in the id: retransmit steps (which
/// don't know the shard) must produce the same id as the send/recv ends.
pub fn flow_id(src: u32, dst: u32, seq: u64) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in [u64::from(src), u64::from(dst), seq] {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Zero-preserving mixer used to scope flow ids per trace "process".
fn scramble64(v: u64) -> u64 {
    v.wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

/// Synthetic Chrome thread id hosting the lane of VCI `v` (far above any
/// real platform tid, so the lanes sort below the per-thread tracks).
pub const VCI_LANE_TID_BASE: u64 = 1_000_000_000;

/// Rendered bytes to reserve per timeline event: a CS passage becomes
/// two ~170-byte spans, everything else one ~110-byte instant.
const CHROME_BYTES_PER_EVENT: usize = 192;
/// The same for one JSONL line.
const JSONL_BYTES_PER_EVENT: usize = 112;

/// A trace event's literals around its name: `{"name":"<name>` and, from
/// the closing quote, `","cat":"<cat>","ph":"<ph>","pid":`.
macro_rules! named {
    ($name:literal, $cat:literal, $ph:literal) => {
        (
            concat!("{\"name\":\"", $name),
            concat!("\",\"cat\":\"", $cat, "\",\"ph\":\"", $ph, "\",\"pid\":"),
        )
    };
}

/// The rest of an event's object after its time and thread — what the
/// event carries — as both JSON documents write it (one routine, so the
/// two cannot drift apart). The documents differ in how the list opens
/// (JSONL names the event kind, Chrome opens `args`) and closes, in JSONL
/// listing the label that a Chrome event has in its name, and in a CS
/// passage's last two fields.
fn fields<const JSONL: bool>(w: &mut Writer, ev: &Event) {
    macro_rules! rank_key {
        ($tag:literal) => {
            if JSONL {
                concat!(",\"ev\":\"", $tag, "\",\"rank\":")
            } else {
                ",\"s\":\"t\",\"args\":{\"rank\":"
            }
        };
    }
    match ev.kind {
        EventKind::CsSpan {
            lock,
            kind,
            path,
            op,
            vci,
            t_req,
            t_acq,
        } => {
            let lock_key = if JSONL {
                ",\"ev\":\"cs\",\"lock\":"
            } else {
                ",\"args\":{\"lock\":"
            };
            w.uint(lock_key, lock)
                .label(",\"kind\":", kind.label())
                .label(",\"path\":", path.label())
                .label(",\"op\":", op.label())
                .uint(",\"vci\":", vci);
            if JSONL {
                w.uint(",\"t_req\":", t_req).uint(",\"t_acq\":", t_acq);
            } else {
                w.uint(",\"core\":", ev.core)
                    .uint(",\"socket\":", ev.socket);
            }
        }
        EventKind::Req { rank, vci, phase } => {
            w.uint(rank_key!("req"), rank).uint(",\"vci\":", vci);
            if JSONL {
                w.label(",\"phase\":", phase.label());
            }
        }
        EventKind::PollBatch {
            rank,
            vci,
            path,
            packets,
        } => {
            w.uint(rank_key!("poll"), rank)
                .uint(",\"vci\":", vci)
                .label(",\"path\":", path.label())
                .uint(",\"packets\":", packets);
        }
        EventKind::Rma {
            rank,
            origin,
            op,
            bytes,
        } => {
            w.uint(rank_key!("rma"), rank).uint(",\"origin\":", origin);
            if JSONL {
                w.label(",\"op\":", op.label());
            }
            w.uint(",\"bytes\":", bytes);
        }
        EventKind::FaultInjected {
            rank,
            dst,
            seq,
            fault,
        } => {
            w.uint(rank_key!("fault"), rank)
                .uint(",\"dst\":", dst)
                .uint(",\"seq\":", seq);
            if JSONL {
                w.label(",\"fault\":", fault.label());
            }
        }
        EventKind::Retransmit {
            rank,
            dst,
            seq,
            attempt,
            backoff_ns,
        } => {
            w.uint(rank_key!("retransmit"), rank)
                .uint(",\"dst\":", dst)
                .uint(",\"seq\":", seq)
                .uint(",\"attempt\":", attempt)
                .uint(",\"backoff_ns\":", backoff_ns);
        }
        EventKind::DupDrop { rank, src, seq } => {
            w.uint(rank_key!("dupdrop"), rank)
                .uint(",\"src\":", src)
                .uint(",\"seq\":", seq);
        }
        EventKind::FlowSend {
            rank,
            dst,
            vci,
            seq,
        } => {
            w.uint(rank_key!("flowsend"), rank)
                .uint(",\"dst\":", dst)
                .uint(",\"vci\":", vci)
                .uint(",\"seq\":", seq);
        }
        EventKind::FlowRecv {
            rank,
            src,
            vci,
            seq,
        } => {
            w.uint(rank_key!("flowrecv"), rank)
                .uint(",\"src\":", src)
                .uint(",\"vci\":", vci)
                .uint(",\"seq\":", seq);
        }
    }
    w.raw(if JSONL { "}\n" } else { "}}" });
}

/// A Chrome trace document up to its drop count.
const HEADER: &str = "{\"displayTimeUnit\":\"ns\",\"otherData\":{\"dropped\":";

/// A Chrome trace document under construction: one buffer, written front
/// to back. [`ChromeDoc::new`] streams every run's events into it,
/// [`ChromeDoc::event`] lets a caller append more (the prof layer's
/// counter track), [`ChromeDoc::finish`] closes the array — the document
/// exists once in memory, as the `String` that is returned.
pub struct ChromeDoc {
    w: Writer,
    /// Whether an event has been written (the next one needs a `,`).
    any: bool,
}

impl ChromeDoc {
    /// Open a document over `runs`: each timeline becomes its own Chrome
    /// "process" (pid = index), labelled by a `process_name` metadata
    /// event so Perfetto shows the run name. The runs are named up front
    /// because their summed drop count sits in the header, ahead of the
    /// first event.
    pub fn new(runs: &[(&str, &Timeline)]) -> Self {
        let mut doc = Self::open(runs.iter().map(|r| r.1));
        for (pid, (name, t)) in runs.iter().enumerate() {
            let pid = pid as u32;
            doc.event()
                .uint("{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":", pid)
                .string(",\"tid\":0,\"args\":{\"name\":", name)
                .raw("}}");
            doc.process(t, pid);
        }
        doc
    }

    /// The header, with room reserved for `timelines`' events.
    fn open<'a>(timelines: impl Iterator<Item = &'a Timeline> + Clone) -> Self {
        let events: usize = timelines.clone().map(Timeline::len).sum();
        let dropped: u64 = timelines.map(|t| t.dropped).sum();
        let mut w = Writer::with_capacity(128 + events * CHROME_BYTES_PER_EVENT);
        w.uint(HEADER, dropped).raw("},\"traceEvents\":[\n");
        Self { w, any: false }
    }

    /// Start one more trace event: the separator is written, the event's
    /// JSON object is the caller's to append.
    pub fn event(&mut self) -> &mut Writer {
        if self.any {
            self.w.raw(",\n");
        }
        self.any = true;
        &mut self.w
    }

    /// Close the event array and hand the document over.
    pub fn finish(mut self) -> String {
        self.w.raw("\n]}\n");
        self.w.finish()
    }

    /// A new event up to its timestamp:
    /// `{"name":"<name><label>","cat":…,"ph":…,"pid":P,"tid":T,"ts":µs`.
    fn head(
        &mut self,
        (opener, closer): (&str, &str),
        label: &str,
        (pid, tid, ts): (u32, u64, u64),
    ) -> &mut Writer {
        self.event()
            .raw(opener)
            .raw(label)
            .uint(closer, pid)
            .uint(",\"tid\":", tid)
            .us(",\"ts\":", ts)
    }

    /// Every event of `t` under Chrome process `pid`: two spans per CS
    /// passage, an instant (plus its flow-arrow event) for anything
    /// else, then the per-VCI lanes.
    fn process(&mut self, t: &Timeline, pid: u32) {
        for ev in &t.events {
            let tid = u64::from(ev.tid);
            let at = (pid, tid, ev.t_ns);
            // The instant's name, and the variable tail of it.
            let (name, label) = match ev.kind {
                EventKind::CsSpan { t_req, t_acq, .. } => {
                    // The two spans share their `args`: render it once.
                    let wait = self.head(named!("cs wait", "cs", "X"), "", (pid, tid, t_req));
                    let args = wait.us(",\"dur\":", t_acq.saturating_sub(t_req)).len();
                    fields::<false>(wait, ev);
                    let args = args..wait.len();
                    let hold = self.head(named!("cs hold", "cs", "X"), "", (pid, tid, t_acq));
                    hold.us(",\"dur\":", ev.t_ns.saturating_sub(t_acq))
                        .repeat(args);
                    continue;
                }
                EventKind::Req { phase, .. } => (named!("req ", "req", "i"), phase.label()),
                EventKind::PollBatch { .. } => (named!("poll", "progress", "i"), ""),
                EventKind::Rma { op, .. } => (named!("rma ", "rma", "i"), op.label()),
                EventKind::FaultInjected { fault, .. } => {
                    (named!("fault ", "fault", "i"), fault.label())
                }
                EventKind::Retransmit { .. } => (named!("retransmit", "fault", "i"), ""),
                EventKind::DupDrop { .. } => (named!("dup drop", "fault", "i"), ""),
                EventKind::FlowSend { .. } => (named!("msg send", "flow", "i"), ""),
                EventKind::FlowRecv { .. } => (named!("msg recv", "flow", "i"), ""),
            };
            fields::<false>(self.head(name, label, at), ev);
            // The arrow of the message: an `s` where it is sent, a `t`
            // waypoint at each retransmit (so a recovered message still
            // renders as one flow), an `f` where it is received — `"bp":"e"`
            // binds that end to the enclosing slice, which chrome://tracing
            // and Perfetto both accept.
            let (name, id_key, (src, dst, seq)) = match ev.kind {
                EventKind::FlowSend { rank, dst, seq, .. } => {
                    (named!("msg", "flow", "s"), ",\"id\":\"", (rank, dst, seq))
                }
                EventKind::Retransmit { rank, dst, seq, .. } => {
                    (named!("msg", "flow", "t"), ",\"id\":\"", (rank, dst, seq))
                }
                EventKind::FlowRecv { rank, src, seq, .. } => {
                    let id_key = ",\"bp\":\"e\",\"id\":\"";
                    (named!("msg", "flow", "f"), id_key, (src, rank, seq))
                }
                _ => continue,
            };
            // Chrome/Perfetto match flow events by id across the whole
            // document, but a merged multi-run trace reuses (src, dst,
            // seq) in every run ("process"). Scoping the rendered id by
            // pid keeps each run's arrows inside its own track group;
            // pid 0 (single-run documents) renders `flow_id` verbatim.
            let id = flow_id(src, dst, seq) ^ scramble64(u64::from(pid));
            self.head(name, "", at).hex(id_key, id, 1).raw("\"}");
        }
        self.vci_lanes(t, pid);
    }

    /// Per-VCI lanes: one synthetic named track per VCI, carrying every
    /// CS *hold* span that entered that VCI's critical section — so shard
    /// utilisation and imbalance are visible at a glance, whoever the
    /// holding thread was.
    ///
    /// Nothing unless the timeline spans **more than one** distinct VCI:
    /// unsharded runs (everything on VCI 0) keep their exact pre-VCI
    /// trace bytes. That is learned by a scan that stops at the first
    /// span off the first span's VCI; the set is built only past it.
    fn vci_lanes(&mut self, t: &Timeline, pid: u32) {
        let first = t.cs_spans().next().map(|s| s.vci);
        if t.cs_spans().all(|s| Some(s.vci) == first) {
            return;
        }
        let vcis: BTreeSet<u32> = t.cs_spans().map(|s| s.vci).collect();
        for &v in &vcis {
            self.event()
                .uint("{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":", pid)
                .uint(",\"tid\":", VCI_LANE_TID_BASE + u64::from(v))
                .uint(",\"args\":{\"name\":\"vci ", v)
                .raw("\"}}");
        }
        for s in t.cs_spans() {
            let lane = (pid, VCI_LANE_TID_BASE + u64::from(s.vci), s.t_acq);
            self.head(named!("cs hold", "vci", "X"), "", lane)
                .us(",\"dur\":", s.hold_ns())
                .uint(",\"args\":{\"lock\":", s.lock)
                .label(",\"op\":", s.op.label())
                .label(",\"path\":", s.path.label())
                .uint(",\"tid\":", s.tid)
                .raw("}}");
        }
    }
}

/// A complete Chrome trace-event JSON document for one timeline (one
/// unnamed process, pid 0).
pub fn chrome_trace(t: &Timeline) -> String {
    let mut doc = ChromeDoc::open(std::iter::once(t));
    doc.process(t, 0);
    doc.finish()
}

/// One JSON object per line, one line per event — greppable and
/// stream-parseable.
pub fn jsonl(t: &Timeline) -> String {
    let mut w = Writer::with_capacity(t.len() * JSONL_BYTES_PER_EVENT);
    for ev in &t.events {
        w.uint("{\"t\":", ev.t_ns)
            .uint(",\"tid\":", ev.tid)
            .uint(",\"core\":", ev.core)
            .uint(",\"socket\":", ev.socket);
        fields::<true>(&mut w, ev);
    }
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{CsKind, CsOp, Path, ReqPhase, RmaKind};

    fn sample_timeline() -> Timeline {
        Timeline {
            events: vec![
                Event {
                    t_ns: 3_000,
                    tid: 1,
                    core: 2,
                    socket: 0,
                    kind: EventKind::CsSpan {
                        lock: 0,
                        kind: CsKind::Mutex,
                        path: Path::Main,
                        op: CsOp::Isend,
                        vci: 0,
                        t_req: 1_000,
                        t_acq: 1_500,
                    },
                },
                Event {
                    t_ns: 3_500,
                    tid: 1,
                    core: 2,
                    socket: 0,
                    kind: EventKind::Req {
                        rank: 0,
                        vci: 0,
                        phase: ReqPhase::Issue,
                    },
                },
                Event {
                    t_ns: 4_000,
                    tid: 2,
                    core: 3,
                    socket: 1,
                    kind: EventKind::PollBatch {
                        rank: 1,
                        vci: 0,
                        path: Path::Progress,
                        packets: 2,
                    },
                },
                Event {
                    t_ns: 5_000,
                    tid: 2,
                    core: 3,
                    socket: 1,
                    kind: EventKind::Rma {
                        rank: 1,
                        origin: 0,
                        op: RmaKind::Put,
                        bytes: 64,
                    },
                },
            ],
            dropped: 0,
        }
    }

    #[test]
    fn chrome_trace_is_wellformed_and_deterministic() {
        let t = sample_timeline();
        let a = chrome_trace(&t);
        let b = chrome_trace(&t);
        assert_eq!(a, b);
        assert!(a.starts_with('{'));
        assert!(a.contains("\"traceEvents\":["));
        assert!(a.contains("\"name\":\"cs wait\""));
        assert!(a.contains("\"name\":\"cs hold\""));
        assert!(a.contains("\"ts\":1.000")); // wait span starts at t_req
        assert!(a.contains("\"dur\":0.500")); // wait = t_acq - t_req
        assert!(a.contains("\"dur\":1.500")); // hold = t_rel - t_acq
        assert!(a.contains("\"name\":\"req issue\""));
        assert!(a.contains("\"name\":\"rma put\""));
        assert!(a.contains("\"op\":\"isend\""));
        // Balanced braces/brackets (cheap well-formedness check; xtask
        // has the real parser).
        assert_eq!(
            a.matches('{').count(),
            a.matches('}').count(),
            "unbalanced braces"
        );
        assert_eq!(a.matches('[').count(), a.matches(']').count());
    }

    #[test]
    fn multi_trace_names_processes() {
        let t = sample_timeline();
        let s = ChromeDoc::new(&[("mutex", &t), ("ticket", &t)]).finish();
        assert!(s.contains("\"process_name\""));
        assert!(s.contains("\"name\":\"mutex\""));
        assert!(s.contains("\"name\":\"ticket\""));
        assert!(s.contains("\"pid\":1"));
        assert_eq!(s.matches('{').count(), s.matches('}').count());
    }

    #[test]
    fn single_vci_traces_get_no_lanes_but_sharded_ones_do() {
        /// The events a document holds in category `vci` or named
        /// `thread_name` — one per line between the frame's two lines.
        fn lane_events(doc: &str) -> usize {
            doc.lines()
                .filter(|l| l.contains("\"cat\":\"vci\"") || l.contains("\"thread_name\""))
                .count()
        }
        // Everything on VCI 0 (the unsharded path): no synthetic lanes,
        // so pre-VCI trace output is preserved byte-for-byte.
        let t = sample_timeline();
        assert_eq!(lane_events(&chrome_trace(&t)), 0);
        assert!(!chrome_trace(&t).contains("\"vci 0\""));

        // Every CS span on one non-zero VCI is still one VCI: no lanes.
        let mut on_3 = sample_timeline();
        on_3.events.push(on_3.events[0].clone());
        for ev in &mut on_3.events {
            if let EventKind::CsSpan { vci, .. } = &mut ev.kind {
                *vci = 3;
            }
        }
        assert_eq!(lane_events(&chrome_trace(&on_3)), 0);
        // No CS span at all: no lanes either.
        let mut no_cs = sample_timeline();
        no_cs
            .events
            .retain(|ev| !matches!(ev.kind, EventKind::CsSpan { .. }));
        assert_eq!(lane_events(&chrome_trace(&no_cs)), 0);

        // Two distinct VCIs: one named lane per VCI plus a hold span on
        // each lane's synthetic tid.
        let mut sharded = sample_timeline();
        sharded.events.push(Event {
            t_ns: 9_000,
            tid: 2,
            core: 3,
            socket: 1,
            kind: EventKind::CsSpan {
                lock: 7,
                kind: CsKind::Mutex,
                path: Path::Main,
                op: CsOp::Irecv,
                vci: 3,
                t_req: 8_000,
                t_acq: 8_200,
            },
        });
        let doc = chrome_trace(&sharded);
        assert_eq!(lane_events(&doc), 2 + 2, "2 lane names + 2 hold spans");
        assert!(doc.contains("\"vci 0\""));
        assert!(doc.contains("\"vci 3\""));
        assert!(doc.contains(&format!("\"tid\":{}", VCI_LANE_TID_BASE + 3)));
        assert_eq!(doc.matches('{').count(), doc.matches('}').count());
        // A merged document gives every sharded process its own lanes.
        let multi = ChromeDoc::new(&[("a", &sharded), ("b", &t), ("c", &sharded)]).finish();
        assert_eq!(lane_events(&multi), 2 * (2 + 2));
    }

    #[test]
    fn appended_events_join_the_array_and_an_empty_document_is_wellformed() {
        assert_eq!(
            chrome_trace(&Timeline::default()),
            "{\"displayTimeUnit\":\"ns\",\"otherData\":{\"dropped\":0},\"traceEvents\":[\n\n]}\n"
        );
        let t = sample_timeline();
        let mut doc = ChromeDoc::new(&[("run", &t)]);
        doc.event().raw("{\"name\":\"extra\",\"ph\":\"C\"}");
        doc.event().raw("{\"name\":\"extra2\",\"ph\":\"C\"}");
        let s = doc.finish();
        assert!(s.ends_with(
            "}},\n{\"name\":\"extra\",\"ph\":\"C\"},\n{\"name\":\"extra2\",\"ph\":\"C\"}\n]}\n"
        ));
        let mut only = ChromeDoc::new(&[]);
        only.event().raw("{}");
        assert!(only.finish().ends_with("\"traceEvents\":[\n{}\n]}\n"));
    }

    #[test]
    fn jsonl_has_one_line_per_event() {
        let t = sample_timeline();
        let s = jsonl(&t);
        assert_eq!(s.lines().count(), t.len());
        assert!(s.lines().all(|l| l.starts_with('{') && l.ends_with('}')));
        assert!(s.contains("\"ev\":\"cs\""));
        assert!(s.contains("\"ev\":\"poll\""));
    }

    /// A single-VCI timeline of `n` events cycling through CS passages,
    /// request phases, poll batches, flow ends and retransmits.
    fn mixed_timeline(n: u64) -> Timeline {
        let events = (0..n)
            .map(|i| {
                let (t_ns, tid, rank, seq) =
                    (1_000 + 7 * i * i, (i % 5) as u32, (i % 3) as u32, i / 6);
                let kind = match i % 6 {
                    0 => EventKind::CsSpan {
                        lock: 0,
                        kind: CsKind::Ticket,
                        path: [Path::Main, Path::Progress, Path::WaitSpin][(i % 3) as usize],
                        op: [CsOp::Isend, CsOp::Irecv, CsOp::Test, CsOp::Wait][(i % 4) as usize],
                        vci: 0,
                        t_req: t_ns - 900 - i % 97,
                        t_acq: t_ns - 400,
                    },
                    1 => EventKind::Req {
                        rank,
                        vci: 0,
                        phase: [
                            ReqPhase::Issue,
                            ReqPhase::Post,
                            ReqPhase::Complete,
                            ReqPhase::Free,
                        ][(i % 4) as usize],
                    },
                    2 => EventKind::PollBatch {
                        rank,
                        vci: 0,
                        path: Path::Progress,
                        packets: (i % 11) as u32,
                    },
                    3 => EventKind::FlowSend {
                        rank,
                        dst: rank + 1,
                        vci: 0,
                        seq,
                    },
                    4 => EventKind::Retransmit {
                        rank,
                        dst: rank + 1,
                        seq,
                        attempt: 1,
                        backoff_ns: i,
                    },
                    _ => EventKind::FlowRecv {
                        rank: rank + 1,
                        src: rank,
                        vci: 0,
                        seq,
                    },
                };
                Event {
                    t_ns,
                    tid,
                    core: tid as u16,
                    socket: 0,
                    kind,
                }
            })
            .collect();
        Timeline { events, dropped: 0 }
    }

    /// Documents of several MiB, whose buffers are hinted to huge pages,
    /// hold exactly the bytes of their events rendered one at a time.
    #[test]
    fn multi_mib_documents_are_their_events_rendered_one_by_one() {
        let t = mixed_timeline(48_000);
        let alone = |ev: &Event| Timeline {
            events: vec![ev.clone()],
            dropped: 0,
        };
        let lines = jsonl(&t);
        assert!(lines.len() > 4 << 20, "{} bytes", lines.len());
        assert_eq!(
            lines,
            t.events
                .iter()
                .map(|ev| jsonl(&alone(ev)))
                .collect::<String>()
        );

        // The event lines between the frame's opening and closing lines.
        fn body(doc: &str) -> &str {
            let open = doc.find("[\n").expect("array opens") + 2;
            &doc[open..doc.len() - "\n]}\n".len()]
        }
        let doc = chrome_trace(&t);
        assert!(doc.len() > 4 << 20, "{} bytes", doc.len());
        let one_by_one: Vec<String> = t
            .events
            .iter()
            .map(|ev| body(&chrome_trace(&alone(ev))).to_owned())
            .collect();
        assert_eq!(body(&doc), one_by_one.join(",\n"));
    }

    #[test]
    fn flow_send_recv_and_retransmit_share_one_id() {
        let t = Timeline {
            events: vec![
                Event {
                    t_ns: 1_000,
                    tid: 1,
                    core: 0,
                    socket: 0,
                    kind: EventKind::FlowSend {
                        rank: 0,
                        dst: 1,
                        vci: 0,
                        seq: 7,
                    },
                },
                Event {
                    t_ns: 2_000,
                    tid: 1,
                    core: 0,
                    socket: 0,
                    kind: EventKind::Retransmit {
                        rank: 0,
                        dst: 1,
                        seq: 7,
                        attempt: 1,
                        backoff_ns: 500,
                    },
                },
                Event {
                    t_ns: 3_000,
                    tid: 2,
                    core: 1,
                    socket: 0,
                    kind: EventKind::FlowRecv {
                        rank: 1,
                        src: 0,
                        vci: 0,
                        seq: 7,
                    },
                },
            ],
            dropped: 0,
        };
        let doc = chrome_trace(&t);
        let id = format!("\"id\":\"{:x}\"", flow_id(0, 1, 7));
        assert!(doc.contains("\"ph\":\"s\""), "flow start");
        assert!(doc.contains("\"ph\":\"t\""), "flow step at the retransmit");
        assert!(doc.contains("\"ph\":\"f\""), "flow finish");
        assert_eq!(
            doc.matches(&id).count(),
            3,
            "send, step, finish share the id"
        );
        assert!(doc.contains("\"bp\":\"e\""));
        // A different message gets a different id — dst is in the fold,
        // so per-pair seq reuse cannot collide.
        assert_ne!(flow_id(0, 1, 7), flow_id(0, 2, 7));
        assert_ne!(flow_id(0, 1, 7), flow_id(1, 0, 7));
        assert_eq!(doc.matches('{').count(), doc.matches('}').count());
        let lines = jsonl(&t);
        assert!(lines.contains("\"ev\":\"flowsend\""));
        assert!(lines.contains("\"ev\":\"flowrecv\""));
    }

    #[test]
    fn multi_run_traces_scope_flow_ids_per_process() {
        let mk = |rank, dst, seq| Timeline {
            events: vec![Event {
                t_ns: 1_000,
                tid: 1,
                core: 0,
                socket: 0,
                kind: EventKind::FlowSend {
                    rank,
                    dst,
                    vci: 0,
                    seq,
                },
            }],
            dropped: 0,
        };
        // Two runs send the same (src, dst, seq): the merged document
        // must NOT reuse one flow id, or Perfetto stitches run 0's send
        // to run 1's receive.
        let (a, b) = (mk(0, 1, 7), mk(0, 1, 7));
        let doc = ChromeDoc::new(&[("run0", &a), ("run1", &b)]).finish();
        let raw = format!("\"id\":\"{:x}\"", flow_id(0, 1, 7));
        // pid 0 keeps the raw id (so single-run docs are unchanged)...
        assert_eq!(doc.matches(&raw).count(), 1, "pid 0 renders the raw id");
        // ...and pid 1's id differs.
        let scoped = format!("\"id\":\"{:x}\"", flow_id(0, 1, 7) ^ scramble64(1));
        assert_eq!(doc.matches(&scoped).count(), 1, "pid 1 is scoped");
    }
}
