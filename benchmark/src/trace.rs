//! Spans recorded by the benchmark's own code around its calls into the
//! channel, one tree per sampled message:
//!
//! ```text
//! msg            due (open loop) or send start → the client's recv return
//! ├─ gen_wait      due → send start              (open loop only)
//! ├─ channel.send  send start → send return
//! ├─ queue_wait    send return → the receiving call begins (0 if it already had)
//! ├─ channel.recv  later of {send return, call begin} → recv return
//! └─ echo_return   echo thread's recv return → client's recv return (echo_2t only)
//! ```
//!
//! Children tile the root, so a layer's self time is its span minus its
//! children with nothing double-counted.  Stamps are kept in preallocated
//! buffers (`workloads::TraceBuf`) during the run and turned into spans here,
//! after it.

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;

use crate::workloads::{TraceBuf, SAMPLE_EVERY};

/// One span: `trace` is the message id all spans of a message share,
/// `parent` the index of the causing span within that message (root: none).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Message id.
    pub trace: u64,
    /// Index of this span within its message.
    pub span: u32,
    /// Index of the parent span; `None` for the root.
    pub parent: Option<u32>,
    /// Span name.
    pub name: &'static str,
    /// Start, ns on the run's clock.
    pub start_ns: u64,
    /// End, ns on the run's clock.
    pub end_ns: u64,
}

/// Spans of the sampled message in `slot`, or nothing if its stamps are
/// incomplete (the repetition stopped early).
pub fn spans_of_slot(buf: &TraceBuf, slot: usize) -> Vec<Span> {
    let trace = slot as u64 * SAMPLE_EVERY;
    let [due, s0, s1] = buf.prod[slot];
    let [r0, r1] = buf.cons[slot];
    let echo = buf.echo.get(slot).copied().filter(|e| e[1] != 0);
    if r1 == 0 {
        return Vec::new();
    }
    let mut spans = Vec::with_capacity(6);
    let mut push = |parent, name, start_ns: u64, end_ns: u64| {
        spans.push(Span {
            trace,
            span: spans.len() as u32,
            parent,
            name,
            start_ns,
            // Stamps come from two threads' reads of one monotonic clock;
            // clamp so an interval never reads negative.
            end_ns: end_ns.max(start_ns),
        });
    };
    if s1 == 0 {
        // A poll: there was no send.
        push(None, "msg", r0, r1);
        push(Some(0), "channel.recv", r0, r1);
        return spans;
    }
    push(None, "msg", due, r1);
    if s0 > due {
        push(Some(0), "gen_wait", due, s0);
    }
    push(Some(0), "channel.send", s0, s1);
    // The hop the message itself takes ends at the echo thread on echo_2t.
    let [x0, x1] = echo.unwrap_or([r0, r1]);
    let picked_up = x0.max(s1).min(x1);
    push(Some(0), "queue_wait", s1.min(picked_up), picked_up);
    push(Some(0), "channel.recv", picked_up, x1);
    if echo.is_some() {
        push(Some(0), "echo_return", x1, r1);
    }
    spans
}

/// Durations, by span name, of every complete message in `buf`.
#[derive(Debug, Default)]
pub struct SpanSamples {
    /// Root `msg` spans, ns.
    pub msg: Vec<u64>,
    /// `channel.send` spans, ns.
    pub send: Vec<u64>,
    /// `channel.recv` spans, ns.
    pub recv: Vec<u64>,
    /// `queue_wait` spans, ns.
    pub queue_wait: Vec<u64>,
}

impl SpanSamples {
    /// Adds the spans of every sampled message of `buf`.  Each span is
    /// bracketed by two clock reads and so contains about one read's cost;
    /// `timer_ns` is taken back out.
    pub fn absorb(&mut self, buf: &TraceBuf, timer_ns: u64) {
        for slot in 0..buf.cons.len() {
            for span in spans_of_slot(buf, slot) {
                let ns = (span.end_ns - span.start_ns).saturating_sub(timer_ns);
                match span.name {
                    "msg" => self.msg.push(ns),
                    "channel.send" => self.send.push(ns),
                    "channel.recv" => self.recv.push(ns),
                    "queue_wait" => self.queue_wait.push(ns),
                    _ => {}
                }
            }
        }
    }
}

/// Most messages one trace file holds (6 spans each; keeps the file to a
/// few MB however long the repetition was).
pub const TRACE_FILE_MESSAGES: usize = 4096;

/// Writes the first [`TRACE_FILE_MESSAGES`] sampled messages of `buf` as
/// JSON lines, one span per line.
pub fn write_jsonl(path: &Path, buf: &TraceBuf) -> std::io::Result<()> {
    let mut text = String::new();
    let mut written = 0;
    for slot in 0..buf.cons.len() {
        let spans = spans_of_slot(buf, slot);
        if spans.is_empty() {
            continue;
        }
        for span in spans {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                text,
                "{{\"trace\":{},\"span\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                span.trace, span.span, parent, span.name, span.start_ns, span.end_ns
            );
        }
        written += 1;
        if written == TRACE_FILE_MESSAGES {
            break;
        }
    }
    let mut file = std::fs::File::create(path)?;
    file.write_all(text.as_bytes())?;
    file.flush()
}
