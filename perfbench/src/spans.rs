//! Client-side tracing for the wire workloads.
//!
//! [`TracedChannel`] wraps a session's [`FrameChannel`] and records every
//! call as a span whose parent is the request span the client loop opened
//! around `ThreadedClient::infer`. It forwards all four trait methods: a
//! wrapper that forwarded only `send`/`recv_deadline` would fall back to
//! the trait's flattening defaults for the split methods and copy every
//! frame, changing the very traffic it measures.
//!
//! Spans stay in memory until the run ends ([`SpanLog::write_jsonl`]).

use crate::stats::{percentile, sort};
use bytes::Bytes;
use loadpart::{Frame, FrameChannel, Message, Precision, ProtocolError};
use std::cell::RefCell;
use std::io::Write;
use std::time::Instant;

/// What a span covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// One `ThreadedClient::infer` call.
    Request,
    /// One frame handed to the channel.
    Send,
    /// One frame taken from the channel.
    Recv,
}

impl SpanKind {
    fn as_str(self) -> &'static str {
        match self {
            SpanKind::Request => "request",
            SpanKind::Send => "send",
            SpanKind::Recv => "recv",
        }
    }
}

/// One recorded span. Times are nanoseconds since the run's epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Span id, unique within the session (from 1).
    pub id: u64,
    /// The enclosing request span's id; 0 for a request span.
    pub parent: u64,
    /// The request's sequence number within the session.
    pub request: u64,
    /// What the span covers.
    pub kind: SpanKind,
    /// Protocol tag of the frame (0 for request spans).
    pub tag: u8,
    /// Start, in ns since the epoch.
    pub start_ns: u64,
    /// End, in ns since the epoch.
    pub end_ns: u64,
    /// Wire bytes of the frame (0 for request spans).
    pub bytes: u64,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// How many frames of each (direction, tag) a log keeps for the codec
/// replay.
const FRAME_SAMPLES: usize = 8;

/// One session's spans, in completion order (children before their
/// request), plus a few sampled frames.
#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    spans: Vec<Span>,
    next_id: u64,
    next_request: u64,
    open: Option<(u64, u64, u64)>,
    frames: Vec<Frame>,
    /// Frames kept so far per (sent, tag).
    kept: [[u8; 256]; 2],
}

impl SpanLog {
    /// An empty log timing against `epoch`.
    #[must_use]
    pub fn new(epoch: Instant) -> Self {
        Self {
            epoch,
            spans: Vec::new(),
            next_id: 1,
            next_request: 0,
            open: None,
            frames: Vec::new(),
            kept: [[0; 256]; 2],
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Forgets everything recorded so far (warm-up traffic).
    pub fn clear(&mut self) {
        self.spans.clear();
        self.frames.clear();
        self.kept = [[0; 256]; 2];
        self.open = None;
    }

    /// Opens the request span every following channel span nests under.
    pub fn begin_request(&mut self) {
        let id = self.next_id;
        self.next_id += 1;
        let start = self.ns(Instant::now());
        self.open = Some((id, self.next_request, start));
        self.next_request += 1;
    }

    /// Closes the open request span.
    pub fn end_request(&mut self) {
        if let Some((id, request, start_ns)) = self.open.take() {
            let end_ns = self.ns(Instant::now());
            self.spans.push(Span {
                id,
                parent: 0,
                request,
                kind: SpanKind::Request,
                tag: 0,
                start_ns,
                end_ns,
                bytes: 0,
            });
        }
    }

    fn child(&mut self, kind: SpanKind, frame: &Frame, start: Instant, end: Instant) {
        let tag = frame_tag(frame);
        let (parent, request) = self.open.map_or((0, 0), |(id, req, _)| (id, req));
        let id = self.next_id;
        self.next_id += 1;
        let span = Span {
            id,
            parent,
            request,
            kind,
            tag,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            bytes: frame.len() as u64,
        };
        self.spans.push(span);
        let kept = &mut self.kept[usize::from(kind == SpanKind::Send)][usize::from(tag)];
        if usize::from(*kept) < FRAME_SAMPLES {
            *kept += 1;
            self.frames.push(frame.clone());
        }
    }

    /// The recorded spans.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The sampled frames, sent and received.
    pub fn frames(&self) -> &[Frame] {
        &self.frames
    }

    /// Appends the spans as JSON lines tagged with `session`.
    ///
    /// # Errors
    ///
    /// Propagates write failures.
    pub fn write_jsonl(&self, session: usize, out: &mut impl Write) -> std::io::Result<()> {
        for s in &self.spans {
            writeln!(
                out,
                "{{\"session\":{session},\"id\":{},\"parent\":{},\"request\":{},\"kind\":\"{}\",\"tag\":{},\"start_ns\":{},\"end_ns\":{},\"bytes\":{}}}",
                s.id,
                s.parent,
                s.request,
                s.kind.as_str(),
                s.tag,
                s.start_ns,
                s.end_ns,
                s.bytes
            )?;
        }
        Ok(())
    }
}

/// The protocol tag of a frame: the byte after the version byte.
fn frame_tag(frame: &Frame) -> u8 {
    frame.header.get(1).copied().unwrap_or(0)
}

/// A [`FrameChannel`] that records each call into a [`SpanLog`].
pub struct TracedChannel<'a, C: FrameChannel + ?Sized> {
    inner: &'a C,
    log: &'a RefCell<SpanLog>,
}

impl<'a, C: FrameChannel + ?Sized> TracedChannel<'a, C> {
    /// Wraps `inner`, recording into `log`.
    pub fn new(inner: &'a C, log: &'a RefCell<SpanLog>) -> Self {
        Self { inner, log }
    }

    fn record(&self, kind: SpanKind, frame: &Frame, start: Instant) {
        self.log
            .borrow_mut()
            .child(kind, frame, start, Instant::now());
    }
}

impl<C: FrameChannel + ?Sized> FrameChannel for TracedChannel<'_, C> {
    fn send(&self, frame: Bytes) -> Result<(), ProtocolError> {
        let start = Instant::now();
        let sampled = Frame::from_contiguous(frame.clone());
        let r = self.inner.send(frame);
        self.record(SpanKind::Send, &sampled, start);
        r
    }

    fn recv_deadline(&self, deadline: Instant) -> Result<Bytes, ProtocolError> {
        let start = Instant::now();
        let r = self.inner.recv_deadline(deadline);
        if let Ok(bytes) = &r {
            self.record(
                SpanKind::Recv,
                &Frame::from_contiguous(bytes.clone()),
                start,
            );
        }
        r
    }

    fn send_split(&self, frame: Frame) -> Result<(), ProtocolError> {
        let start = Instant::now();
        let sampled = frame.clone();
        let r = self.inner.send_split(frame);
        self.record(SpanKind::Send, &sampled, start);
        r
    }

    fn recv_split_deadline(&self, deadline: Instant) -> Result<Frame, ProtocolError> {
        let start = Instant::now();
        let r = self.inner.recv_split_deadline(deadline);
        if let Ok(frame) = &r {
            self.record(SpanKind::Recv, frame, start);
        }
        r
    }
}

/// The per-layer figures the spans of all sessions give.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SpanSummary {
    /// Request spans seen.
    pub requests: u64,
    /// Exchanges (sends) per request.
    pub exchanges_per_req: f64,
    /// Frame bytes sent per request.
    pub bytes_up_per_req: f64,
    /// Frame bytes received per request.
    pub bytes_down_per_req: f64,
    /// Median send-to-last-reply time of offload exchanges, µs.
    pub rtt_offload_us_p50: f64,
    /// 99th percentile of the same, µs.
    pub rtt_offload_us_p99: f64,
    /// Median round trip of probe and load-query exchanges, µs.
    pub rtt_control_us_p50: f64,
    /// Median duration of one send call, µs.
    pub send_us_p50: f64,
    /// Median request time outside channel calls, µs.
    pub self_us_p50: f64,
}

fn offload_tag() -> u8 {
    Message::OffloadRequest {
        request_id: 0,
        partition_point: 0,
        precision: Precision::Fp32,
        payload: Bytes::new(),
    }
    .tag()
}

/// Derives exchange round trips and self times from every log.
#[must_use]
pub fn summarize<'a>(logs: impl IntoIterator<Item = &'a SpanLog>) -> SpanSummary {
    let offload = offload_tag();
    let mut rtt_offload = Vec::new();
    let mut rtt_control = Vec::new();
    let mut sends = Vec::new();
    let mut self_us = Vec::new();
    let (mut requests, mut exchanges, mut up, mut down) = (0u64, 0u64, 0u64, 0u64);
    for log in logs {
        let mut children: Vec<Span> = Vec::new();
        for span in log.spans() {
            if span.kind != SpanKind::Request {
                children.push(*span);
                continue;
            }
            requests += 1;
            let mut covered = 0u64;
            // (tag, send start, end of the last reply so far)
            let mut exchange: Option<(u8, u64, Option<u64>)> = None;
            let mut close = |ex: Option<(u8, u64, Option<u64>)>| {
                if let Some((tag, start, Some(end))) = ex {
                    let us = end.saturating_sub(start) as f64 / 1e3;
                    if tag == offload {
                        rtt_offload.push(us);
                    } else {
                        rtt_control.push(us);
                    }
                }
            };
            for c in children.drain(..).filter(|c| c.parent == span.id) {
                covered += c.dur_ns();
                match c.kind {
                    SpanKind::Send => {
                        exchanges += 1;
                        up += c.bytes;
                        sends.push(c.dur_ns() as f64 / 1e3);
                        close(exchange.take());
                        exchange = Some((c.tag, c.start_ns, None));
                    }
                    SpanKind::Recv => {
                        down += c.bytes;
                        if let Some(ex) = exchange.as_mut() {
                            ex.2 = Some(c.end_ns);
                        }
                    }
                    SpanKind::Request => unreachable!("requests are not children"),
                }
            }
            close(exchange.take());
            self_us.push(span.dur_ns().saturating_sub(covered) as f64 / 1e3);
        }
    }
    for v in [&mut rtt_offload, &mut rtt_control, &mut sends, &mut self_us] {
        sort(v);
    }
    let per_req = |x: u64| crate::stats::ratio(x as f64, requests as f64);
    SpanSummary {
        requests,
        exchanges_per_req: per_req(exchanges),
        bytes_up_per_req: per_req(up),
        bytes_down_per_req: per_req(down),
        rtt_offload_us_p50: percentile(&rtt_offload, 0.5),
        rtt_offload_us_p99: percentile(&rtt_offload, 0.99),
        rtt_control_us_p50: percentile(&rtt_control, 0.5),
        send_us_p50: percentile(&sends, 0.5),
        self_us_p50: percentile(&self_us, 0.5),
    }
}
