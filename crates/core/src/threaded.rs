//! A threaded client/server runtime speaking the wire [`protocol`](crate::protocol).
//!
//! The paper's implementation runs the offloading main thread and the
//! runtime-profiler thread concurrently on the device, and the offloading
//! service plus a GPU-utilization monitor on the server (§IV). This module
//! reproduces that process structure with real OS threads and channels:
//!
//! * the **server** is one offloading service: it answers load queries
//!   from its [`LoadFactorTracker`] and executes offloaded suffixes
//!   (simulated durations from the latency models). Every frame is served
//!   to completion on the thread that received it. The per-frame logic —
//!   fault script and frame counter, logical clock, decode, admission, the
//!   tracker, the served count, the `server.*` counters and reply framing
//!   — is one server core behind one lock, shared by every serving
//!   thread: the in-process server thread serves the channel sessions
//!   ([`ServerHandle`], [`ClientConn`]), and each socket shard of a
//!   [`SocketServer`](crate::transport::SocketServer) serves the
//!   connections it owns. That logic is O(1) in the graph's size: the
//!   predicted suffix times admission budgets are a table built once at
//!   spawn ([`PredictionModels::suffix_times`]), and an offload's cut
//!   indexes it;
//! * an admitted suffix is answered by the same thread, outside the lock:
//!   it fetches or builds the suffix partition from the shared cache and
//!   frames the reply. The injected [`ServerTuning::suffix_cost`] is
//!   charged there too, once per same-bucket batch of at most
//!   [`ServerTuning::max_batch`] suffixes admitted in one pass — for the
//!   server thread, the frames already queued; for a shard, one sweep
//!   over its readable connections;
//! * per-session FIFO holds by construction: one thread serves each
//!   session, a session contributes at most one suffix per pass, and it is
//!   not read again until that suffix's reply is queued;
//! * the **client** is the [`OffloadEngine`] composed with the wire
//!   backends ([`WireBackend`]/[`WireTransport`]): Algorithm 1 per request,
//!   [`Message::OffloadRequest`]-framed uploads, and on the profiler
//!   cadence one pipelined refresh — the probe frames and the load query
//!   leave in one [`FrameChannel::send_batch`], then the acks and the
//!   load reply are awaited — so a request costs two round trips;
//! * time is logical — the client's clock advances one profiler period per
//!   request, and the server's clock advances a fixed tick per **received
//!   frame** and nothing else, so load-query handling and tracker-window
//!   expiry see a moving clock even when the client only queries.
//!   Execution time accumulates only in the admission controller's backlog
//!   watermark, which the predicted queue delay (and so load shedding) is
//!   computed from.
//!
//! Every client-side wire operation is **deadline-based**
//! ([`FrameChannel::recv_deadline`]): a stalled or dead server yields
//! [`ProtocolError::Timeout`] / [`ProtocolError::Disconnected`] instead of
//! a hang or a panic, and the engine degrades to local inference. The
//! [`ServerFaultSpec`] passed to [`spawn_server_tuned`] scripts server
//! crashes and stalls deterministically for tests and demos; the
//! client-side counterpart is [`crate::emulator::EmulatedLink`].
//!
//! Tests are deterministic, but the concurrency — the shared core behind
//! its lock, `std::sync::mpsc` channels, graceful shutdown — is real.

use crate::admission::{AdmissionConfig, AdmissionController, AdmissionDecision};
use crate::baselines::Policy;
use crate::cache::PartitionCache;
use crate::engine::backends::{NullDevice, WireBackend, WireTransport};
use crate::engine::{ConfigError, EngineConfig, InferenceRecord, OffloadEngine};
use crate::pool::zero_payload;
use crate::protocol::{Frame, Message, ProtocolError};
use crate::telemetry::{Counter, Gauge, Telemetry};
use bytes::Bytes;
use lp_graph::{ComputationGraph, Precision};
use lp_profiler::{LoadFactorTracker, PredictionModels};
use lp_sim::{SimDuration, SimTime};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The logical time the server charges for receiving any frame (the
/// inter-request spacing the runtime has always modelled).
const RECV_TICK: SimDuration = SimDuration::from_millis(100);

/// A bidirectional frame pipe the client-side wire backends speak over.
///
/// [`ServerHandle`] implements it directly;
/// [`crate::emulator::EmulatedLink`] wraps any implementation to inject
/// scripted faults and link timing between the engine and the real
/// channel.
pub trait FrameChannel {
    /// Sends one frame toward the server.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::Disconnected`] if the peer is gone.
    fn send(&self, frame: Bytes) -> Result<(), ProtocolError>;

    /// Receives the next frame, waiting no later than `deadline`.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::Timeout`] when the deadline passes with no frame,
    /// [`ProtocolError::Disconnected`] when the peer is gone.
    fn recv_deadline(&self, deadline: Instant) -> Result<Bytes, ProtocolError>;

    /// Sends one header/payload [`Frame`] toward the server.
    ///
    /// The default flattens to the contiguous encoding and uses
    /// [`FrameChannel::send`], so an implementation that speaks only
    /// contiguous bytes (a test middlebox) still works; the channel
    /// endpoints, the socket channels and the link emulator override this
    /// to pass both segments through zero-copy.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::Disconnected`] if the peer is gone.
    fn send_split(&self, frame: Frame) -> Result<(), ProtocolError> {
        self.send(frame.flatten())
    }

    /// Sends `frames` toward the server back to back, in order — the
    /// profiler refresh's probes and load query, pipelined.
    ///
    /// The default calls [`FrameChannel::send_split`] once per frame, so
    /// per-frame middleboxes (the link emulator, tracers) see, index and
    /// perturb every frame exactly as if it were sent alone. Socket
    /// channels override this with one gathered write.
    ///
    /// # Errors
    ///
    /// The first send failure; the frames after it are not sent.
    fn send_batch(&self, frames: Vec<Frame>) -> Result<(), ProtocolError> {
        frames
            .into_iter()
            .try_for_each(|frame| self.send_split(frame))
    }

    /// Receives the next frame as a header/payload [`Frame`], waiting no
    /// later than `deadline`. Defaults to wrapping
    /// [`FrameChannel::recv_deadline`]'s contiguous bytes.
    ///
    /// # Errors
    ///
    /// Same as [`FrameChannel::recv_deadline`].
    fn recv_split_deadline(&self, deadline: Instant) -> Result<Frame, ProtocolError> {
        self.recv_deadline(deadline).map(Frame::from_contiguous)
    }
}

/// What flows into the in-process server thread: channel-session
/// registrations and frames, in one queue, so the thread serves them in
/// arrival order.
#[derive(Debug)]
enum ToServer {
    /// A new channel session: replies for `client` go down this channel.
    Connect(usize, Sender<Frame>),
    /// A frame from `client`. Carried as a header/payload [`Frame`] so a
    /// multi-MB tensor payload crosses the channel as a reference-count
    /// bump, never a memcpy.
    Frame(usize, Frame),
    /// Another serving thread (a socket shard) ended service: wake up and
    /// exit.
    Ended,
}

/// Handle to a running offloading server. The handle itself is client
/// session 0; [`ServerHandle::connect`] opens additional sessions with
/// their own reply channels (the multi-client chaos harness), and
/// [`SocketServer`](crate::transport::SocketServer) serves socket
/// connections through the same server.
#[derive(Debug)]
pub struct ServerHandle {
    tx: Sender<ToServer>,
    rx: Receiver<Frame>,
    next_client: Arc<AtomicUsize>,
    server: Arc<Server>,
    join: Option<JoinHandle<Result<u64, ProtocolError>>>,
}

/// One additional client session on a threaded server: frames sent here
/// carry the session id, and replies come back on this session's own
/// channel — concurrent clients never steal each other's responses.
#[derive(Debug)]
pub struct ClientConn {
    id: usize,
    tx: Sender<ToServer>,
    rx: Receiver<Frame>,
}

impl ClientConn {
    /// The server-assigned session id.
    #[must_use]
    pub fn id(&self) -> usize {
        self.id
    }
}

impl FrameChannel for ClientConn {
    fn send(&self, frame: Bytes) -> Result<(), ProtocolError> {
        self.send_split(Frame::from_contiguous(frame))
    }

    fn recv_deadline(&self, deadline: Instant) -> Result<Bytes, ProtocolError> {
        self.recv_split_deadline(deadline).map(Frame::flatten)
    }

    fn send_split(&self, frame: Frame) -> Result<(), ProtocolError> {
        self.tx
            .send(ToServer::Frame(self.id, frame))
            .map_err(|_| ProtocolError::Disconnected)
    }

    fn recv_split_deadline(&self, deadline: Instant) -> Result<Frame, ProtocolError> {
        match self
            .rx
            .recv_timeout(deadline.saturating_duration_since(Instant::now()))
        {
            Ok(frame) => Ok(frame),
            Err(RecvTimeoutError::Timeout) => Err(ProtocolError::Timeout),
            Err(RecvTimeoutError::Disconnected) => Err(ProtocolError::Disconnected),
        }
    }
}

/// The load environment a threaded server executes in: the factor by which
/// real executions are stretched relative to the latency-model prediction.
/// Shared and scriptable mid-run (an `Arc` of an atomic), so tests and the
/// chaos harness can drive load spikes while the server is serving. The
/// server's tracker still *measures* `k` from the observed/predicted
/// ratio — the §III-C mechanism — this only scripts the environment.
#[derive(Debug, Clone)]
pub struct LoadEnv {
    k_bits: Arc<AtomicU64>,
}

impl LoadEnv {
    /// An environment currently stretching executions by `k` (clamped to
    /// at least 1).
    #[must_use]
    pub fn new(k: f64) -> Self {
        Self {
            k_bits: Arc::new(AtomicU64::new(k.max(1.0).to_bits())),
        }
    }

    /// The current stretch factor.
    #[must_use]
    pub fn k(&self) -> f64 {
        f64::from_bits(self.k_bits.load(Ordering::Relaxed))
    }

    /// Re-scripts the environment (a load spike starting or ending).
    pub fn set_k(&self, k: f64) {
        self.k_bits.store(k.max(1.0).to_bits(), Ordering::Relaxed);
    }
}

/// A window of received-frame indices the server leaves unanswered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StallWindow {
    /// First received-frame index (0-based) that goes unanswered.
    pub after_frames: u64,
    /// How many consecutive frames go unanswered.
    pub frames: u64,
}

impl StallWindow {
    fn covers(&self, idx: u64) -> bool {
        idx >= self.after_frames && idx < self.after_frames + self.frames
    }
}

/// Deterministic server-side fault script for [`spawn_server_tuned`]:
/// crash and stall behaviour keyed by received-frame counts, so tests can
/// place a fault at an exact point in the session without wall-clock
/// randomness. The count runs over every session — channel and socket
/// alike — in the order the server core served their frames.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerFaultSpec {
    /// Stop serving abruptly (simulated crash) once this many frames have
    /// been received; the frame crossing the threshold is not served, and
    /// every session disconnects.
    pub crash_after_frames: Option<u64>,
    /// Drop the frames in this window silently — the server is alive but
    /// unresponsive, which is what a deadline must catch.
    pub stall: Option<StallWindow>,
    /// Panic the serving thread once this many frames have been received —
    /// the teardown path [`ServerHandle::shutdown`] must report
    /// [`ProtocolError::ServerPanicked`] instead of propagating the panic
    /// into the client process.
    pub panic_after_frames: Option<u64>,
}

/// Spawns the edge-server thread for one DNN.
///
/// `k_factor` is the load factor the server's environment currently
/// exhibits (in the full co-simulation it emerges from GPU queueing; here
/// it is injected so threaded tests are deterministic) — the server's
/// tracker still *measures* it from the observed/predicted ratio, which is
/// the §III-C mechanism.
///
/// Both spawn entry points accept the graph as either an owned
/// [`ComputationGraph`] or an `Arc<ComputationGraph>`; pass an `Arc` clone
/// to share one model between the server and every client engine.
#[must_use]
pub fn spawn_server(
    graph: impl Into<Arc<ComputationGraph>>,
    edge_models: PredictionModels,
    k_factor: f64,
) -> ServerHandle {
    spawn_server_tuned(
        graph,
        edge_models,
        LoadEnv::new(k_factor),
        ServerFaultSpec::default(),
        None,
        &Telemetry::disabled(),
        ServerTuning::default(),
    )
}

/// Pre-registered instrument handles for the server core; `None` when the
/// spawning telemetry is disabled, so serving pays one branch per event.
struct ServerMetrics {
    frames: Counter,
    offloads: Counter,
    load_queries: Counter,
    probe_acks: Counter,
    bad_frames: Counter,
    stalled: Counter,
    rejected: Counter,
    /// Offload requests whose upload tensor arrived at a narrow
    /// (non-fp32) precision. The server counts them without reading the
    /// payload: the engine ships a zero payload of the packed length.
    quantized_offloads: Counter,
    k: Gauge,
}

impl ServerMetrics {
    fn register(telemetry: &Telemetry) -> Option<Self> {
        telemetry.registry().map(|reg| Self {
            frames: reg.counter("server.frames_total"),
            offloads: reg.counter("server.offloads_served_total"),
            load_queries: reg.counter("server.load_queries_total"),
            probe_acks: reg.counter("server.probe_acks_total"),
            bad_frames: reg.counter("server.bad_frames_total"),
            stalled: reg.counter("server.stalled_frames_total"),
            rejected: reg.counter("server.rejected_total"),
            quantized_offloads: reg.counter("server.quantized_offloads_total"),
            k: reg.gauge("server.k"),
        })
    }
}

/// Tuning knobs for the serving hot path, consumed by
/// [`spawn_server_tuned`]. [`spawn_server`] uses the default.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerTuning {
    /// Wall-clock cost charged per suffix execution on the thread that
    /// serves it, modelling the suffix's GPU/CPU occupancy.
    /// [`Duration::ZERO`] (the default everywhere outside the benchmark
    /// harnesses) keeps execution purely simulated.
    pub suffix_cost: Duration,
    /// Maximum suffixes one serving pass answers under a single
    /// `suffix_cost` charge (continuous batching): suffixes admitted in the
    /// same pass whose partition points fall in the same
    /// [`ServerTuning::batch_bucket`]-wide bucket share one charge. `1`
    /// (or `0`) disables coalescing — one execution per request.
    pub max_batch: usize,
    /// Width of the partition-point bucket for batch compatibility:
    /// suffixes batch together when `p / batch_bucket` matches (a real GPU
    /// batches suffixes starting at near-identical layers; an exact-`p`
    /// rule would fragment batches whenever clients' bandwidth estimates
    /// wobble by a layer). Also the bucket the batch-aware admission
    /// controller keys its open batch on.
    pub batch_bucket: usize,
}

impl Default for ServerTuning {
    fn default() -> Self {
        Self {
            suffix_cost: Duration::ZERO,
            max_batch: 16,
            batch_bucket: 4,
        }
    }
}

impl ServerTuning {
    /// The bucket a partition point batches under (shared by suffix
    /// coalescing and batch-aware admission).
    #[must_use]
    fn bucket(&self, p: usize) -> u64 {
        (p / self.batch_bucket.max(1)) as u64
    }
}

/// Frames a server reply. Replies carry at most one model-output tensor,
/// far under the protocol's payload cap, so encoding cannot fail here.
fn reply_frame(reply: &Message) -> Frame {
    reply.to_frame().expect("server reply fits a frame")
}

/// How service ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Ending {
    /// A client sent [`Message::Shutdown`].
    Shutdown,
    /// [`ServerFaultSpec::crash_after_frames`] fired.
    Crashed,
    /// A serving thread panicked.
    Panicked,
}

/// What the core made of one frame.
pub(crate) enum Served {
    /// Send this reply now (control replies and rejections).
    Reply(Frame),
    /// An admitted suffix: the serving thread answers it through
    /// [`Server::answer_suffixes`] once its pass is over.
    Suffix(Suffix),
    /// Nothing goes back: a stalled or malformed frame, or one only a
    /// server sends.
    Nothing,
    /// Service has ended (shutdown, crash or panic): this frame and every
    /// later one go unserved.
    Ended,
}

/// A suffix the core admitted; the serving thread builds and sends its
/// reply.
pub(crate) struct Suffix {
    request_id: u64,
    server_time_us: u64,
    p: usize,
}

/// The server's per-frame logic and every piece of serving state: the
/// fault script and frame counter, the logical clock, the admission
/// budget, the load-factor tracker, the served count and the `server.*`
/// counters. One copy sits behind one lock in [`Server`], so every
/// serving thread sees one frame order and one budget.
///
/// Serving a frame costs the same whatever the graph's size: the core
/// holds no graph and no prediction models, only the predicted suffix
/// times built at spawn, which an offload request's cut indexes.
struct ServerCore {
    /// `suffix_times[p]`: the edge models' predicted time of the nodes
    /// after cut `p`, for `p` in `0..=n`
    /// ([`PredictionModels::suffix_times`]).
    suffix_times: Vec<SimDuration>,
    env: LoadEnv,
    faults: ServerFaultSpec,
    tuning: ServerTuning,
    metrics: Option<ServerMetrics>,
    admission: AdmissionController,
    tracker: LoadFactorTracker,
    /// Frames received so far, over every session: the fault script's
    /// index.
    received: u64,
    now: SimTime,
    served: u64,
    ended: Option<Ending>,
    /// Wakes the in-process server thread when another thread ends
    /// service.
    owner: Sender<ToServer>,
}

impl ServerCore {
    /// Serves one received frame: fault script, clock tick, decode, then
    /// the reply, the admitted suffix, or nothing.
    fn serve(&mut self, frame: Frame) -> Served {
        if self.ended.is_some() {
            return Served::Ended;
        }
        let idx = self.received;
        self.received += 1;
        if self
            .faults
            .crash_after_frames
            .is_some_and(|n| self.received > n)
        {
            // Simulated crash: the frame crossing the threshold is not
            // served, and every session's connection goes away.
            self.end(Ending::Crashed);
            return Served::Ended;
        }
        if self
            .faults
            .panic_after_frames
            .is_some_and(|n| self.received > n)
        {
            panic!("scripted server panic after {idx} frames");
        }
        if let Some(m) = &self.metrics {
            m.frames.incr(1);
        }
        // Receiving any frame advances the server's logical clock, so
        // load queries evaluate `k` at a moving instant and the tracker
        // window can expire for an idle-then-querying client.
        self.now += RECV_TICK;
        if self.faults.stall.is_some_and(|s| s.covers(idx)) {
            if let Some(m) = &self.metrics {
                m.stalled.incr(1);
            }
            return Served::Nothing; // unresponsive: swallow the frame
        }
        let Ok(msg) = Message::decode_frame(frame) else {
            if let Some(m) = &self.metrics {
                m.bad_frames.incr(1);
            }
            return Served::Nothing;
        };
        match msg {
            Message::OffloadRequest {
                request_id,
                partition_point,
                precision,
                payload: _,
            } => self.admit(request_id, partition_point as usize, precision),
            Message::LoadQuery => {
                let k = self.tracker.k_at(self.now);
                if let Some(m) = &self.metrics {
                    m.load_queries.incr(1);
                    m.k.set(k);
                }
                Served::Reply(reply_frame(&Message::LoadReply {
                    k_micro: Message::k_to_micro(k),
                }))
            }
            Message::Probe { .. } => {
                if let Some(m) = &self.metrics {
                    m.probe_acks.incr(1);
                }
                Served::Reply(reply_frame(&Message::ProbeAck))
            }
            Message::Shutdown => {
                self.end(Ending::Shutdown);
                Served::Ended
            }
            // Server never receives responses/replies/acks/rejections.
            Message::OffloadResponse { .. }
            | Message::LoadReply { .. }
            | Message::ProbeAck
            | Message::Rejected { .. } => Served::Nothing,
        }
    }

    /// Admission, tracker accounting and the serve counter for one
    /// offload request, in the order the core serves frames.
    fn admit(&mut self, request_id: u64, p: usize, precision: Precision) -> Served {
        if precision != Precision::Fp32 {
            // Counted, never read: the payload is zeros of the packed
            // length, and the modelled suffix cost ignores precision.
            if let Some(m) = &self.metrics {
                m.quantized_offloads.incr(1);
            }
        }
        // Predicted suffix time scaled by the environment's load factor:
        // the signal admission control budgets.
        let predicted = self.suffix_time(p);
        let scaled = predicted.scale(self.env.k());
        // Batch-aware admission: a request falling into the open batch's
        // partition bucket rides its completion slot instead of growing
        // the backlog (with the caller's `AdmissionConfig::max_batch` —
        // default 1 — this is exactly the per-request budget).
        match self
            .admission
            .assess_batched(self.now, scaled, self.tuning.bucket(p))
        {
            AdmissionDecision::Reject { retry_after } => {
                if let Some(m) = &self.metrics {
                    m.rejected.incr(1);
                }
                // Piggyback the measured load factor so the shed client
                // can pre-seed its profile.
                let k = self.tracker.k_at(self.now);
                Served::Reply(reply_frame(&Message::Rejected {
                    request_id,
                    retry_after_us: retry_after.as_micros_f64().round() as u64,
                    k_micro: Message::k_to_micro(k),
                }))
            }
            AdmissionDecision::Admit { completion, .. } => {
                self.tracker.record(completion, scaled, predicted);
                self.served += 1;
                if let Some(m) = &self.metrics {
                    m.offloads.incr(1);
                }
                Served::Suffix(Suffix {
                    request_id,
                    server_time_us: completion.since(self.now).as_micros_f64().round() as u64,
                    p,
                })
            }
        }
    }

    /// The predicted time of the suffix after cut `p`: one lookup. The cut
    /// comes off the wire unchecked; one at or past the graph's end
    /// offloads nothing and predicts zero.
    fn suffix_time(&self, p: usize) -> SimDuration {
        self.suffix_times
            .get(p)
            .copied()
            .unwrap_or(SimDuration::ZERO)
    }

    /// Ends service (the first ending sticks) and wakes the in-process
    /// server thread, so [`ServerHandle::wait`] returns.
    fn end(&mut self, how: Ending) {
        if self.ended.is_none() {
            self.ended = Some(how);
            let _ = self.owner.send(ToServer::Ended);
        }
    }
}

/// A running server, shared by every thread that serves it: the
/// in-process server thread and each socket shard. The per-frame logic is
/// the locked [`ServerCore`]; answering an admitted suffix — the cache
/// lookup, the charged cost, the reply's framing — runs outside the lock
/// on the serving thread.
pub(crate) struct Server {
    core: Mutex<ServerCore>,
    graph: Arc<ComputationGraph>,
    cache: PartitionCache,
    tuning: ServerTuning,
    /// `server.batched_suffixes_total` and `server.suffix_batches_total`
    /// (`None` when telemetry is disabled).
    batch_counters: Option<(Counter, Counter)>,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("tuning", &self.tuning)
            .finish_non_exhaustive()
    }
}

impl Server {
    /// The core. A panic while serving poisons the lock, but the state
    /// stays consistent — the scripted panic fires before the frame
    /// changes anything but the frame counter, and the [`ServingGuard`]
    /// records it — so the poison is ignored.
    fn core(&self) -> MutexGuard<'_, ServerCore> {
        self.core.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Serves one received frame through the core.
    pub(crate) fn serve(&self, frame: Frame) -> Served {
        self.core().serve(frame)
    }

    /// Whether service has ended, on whichever thread.
    pub(crate) fn has_ended(&self) -> bool {
        self.core().ended.is_some()
    }

    /// Answers the suffixes one pass admitted, each tagged with where its
    /// reply goes: in same-bucket batches of at most `max_batch`, each
    /// batch charged one `suffix_cost`. Every reply is built from its own
    /// cache entry — bucketed batchmates may differ by a few layers.
    /// Leaves `admitted` empty.
    pub(crate) fn answer_suffixes(
        &self,
        admitted: &mut Vec<(usize, Suffix)>,
        mut deliver: impl FnMut(usize, Frame),
    ) {
        let tuning = &self.tuning;
        // Stable: admission order survives within a bucket.
        admitted.sort_by_key(|(_, suffix)| tuning.bucket(suffix.p));
        let mut rest = &admitted[..];
        while let Some((_, head)) = rest.first() {
            let bucket = tuning.bucket(head.p);
            let len = rest
                .iter()
                .take(tuning.max_batch.max(1))
                .take_while(|(_, suffix)| tuning.bucket(suffix.p) == bucket)
                .count();
            let (batch, tail) = rest.split_at(len);
            self.charge(batch.len());
            for (to, suffix) in batch {
                deliver(*to, self.suffix_reply(suffix));
            }
            rest = tail;
        }
        admitted.clear();
    }

    /// Models one execution of `suffixes` batched suffixes occupying this
    /// serving thread, and counts real coalescing (batches of ≥ 2).
    fn charge(&self, suffixes: usize) {
        if suffixes >= 2 {
            if let Some((batched, batches)) = &self.batch_counters {
                batched.incr(suffixes as u64);
                batches.incr(1);
            }
        }
        if !self.tuning.suffix_cost.is_zero() {
            std::thread::sleep(self.tuning.suffix_cost);
        }
    }

    /// Builds the reply frame for one admitted suffix.
    fn suffix_reply(&self, suffix: &Suffix) -> Frame {
        // Build or fetch the suffix graph (Figure 5).
        let _ = self
            .cache
            .get_or_partition(&self.graph, suffix.p.min(self.graph.len()))
            .expect("p in range");
        let out_bytes = self.graph.output().size_bytes() as usize;
        reply_frame(&Message::OffloadResponse {
            request_id: suffix.request_id,
            server_time_us: suffix.server_time_us,
            payload: zero_payload(out_bytes),
        })
    }

    /// Marks the calling thread as one that serves: see [`ServingGuard`].
    pub(crate) fn guard(&self) -> ServingGuard<'_> {
        ServingGuard(self)
    }

    /// What [`ServerHandle::wait`] reports once service has ended.
    fn outcome(&self) -> Result<u64, ProtocolError> {
        let core = self.core();
        match core.ended {
            Some(Ending::Panicked) => Err(ProtocolError::ServerPanicked),
            _ => Ok(core.served),
        }
    }

    #[cfg(test)]
    pub(crate) fn cache(&self) -> &PartitionCache {
        &self.cache
    }
}

/// Held by a serving thread for as long as it serves: if the thread
/// unwinds (a scripted or real panic), service ends as panicked, so every
/// other serving thread stops and [`ServerHandle::wait`] reports
/// [`ProtocolError::ServerPanicked`].
pub(crate) struct ServingGuard<'a>(&'a Server);

impl Drop for ServingGuard<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.core().end(Ending::Panicked);
        }
    }
}

/// The fully-general server spawn: a scriptable [`LoadEnv`], a
/// deterministic fault script, optional [admission control](crate::admission),
/// telemetry and [`ServerTuning`]. `None` for `admission` means the
/// unbounded budget — the pre-admission-control behaviour. With telemetry
/// enabled the server counts its frame traffic under `server.*` in its
/// registry (shared with whatever client-side engine observes the same
/// run).
///
/// The server's logical clock advances `RECV_TICK` (100 ms) per received
/// frame; execution time accumulates only in the admission controller's
/// backlog watermark, which is what the predicted queue delay (and
/// therefore load shedding) is computed from.
#[must_use]
pub fn spawn_server_tuned(
    graph: impl Into<Arc<ComputationGraph>>,
    edge_models: PredictionModels,
    env: LoadEnv,
    faults: ServerFaultSpec,
    admission: Option<AdmissionConfig>,
    telemetry: &Telemetry,
    tuning: ServerTuning,
) -> ServerHandle {
    let graph: Arc<ComputationGraph> = graph.into();
    let metrics = ServerMetrics::register(telemetry);
    let batch_counters = telemetry.registry().map(|reg| {
        (
            reg.counter("server.batched_suffixes_total"),
            reg.counter("server.suffix_batches_total"),
        )
    });
    let (tx, server_rx) = channel::<ToServer>();
    let (reply_tx, rx) = channel::<Frame>();
    let core = ServerCore {
        suffix_times: edge_models.suffix_times(&graph),
        env,
        faults,
        tuning,
        metrics,
        admission: AdmissionController::new(admission.unwrap_or_else(AdmissionConfig::unbounded)),
        tracker: LoadFactorTracker::new(SimDuration::from_secs(5)),
        received: 0,
        now: SimTime::ZERO,
        served: 0,
        ended: None,
        owner: tx.clone(),
    };
    let server = Arc::new(Server {
        core: Mutex::new(core),
        graph,
        cache: PartitionCache::new(),
        tuning,
        batch_counters,
    });
    let serving = Arc::clone(&server);
    let join = std::thread::spawn(move || serve_channels(&serving, &server_rx, reply_tx));
    ServerHandle {
        tx,
        rx,
        next_client: Arc::new(AtomicUsize::new(1)),
        server,
        join: Some(join),
    }
}

/// The in-process server thread: serves the channel sessions' frames
/// through the core, in passes, until service ends.
///
/// A pass takes the frames already queued. It closes early at a frame
/// from a session that already has a suffix admitted in the pass; that
/// frame leads the next pass, after the suffix's reply went out. So the
/// core sees the frames in queue order, each session contributes at most
/// one suffix per pass, and every session's replies stay FIFO.
fn serve_channels(
    server: &Server,
    rx: &Receiver<ToServer>,
    handle: Sender<Frame>,
) -> Result<u64, ProtocolError> {
    let _guard = server.guard();
    let mut routes = HashMap::from([(0, handle)]);
    let mut admitted = Vec::new();
    let mut carry = None;
    while let Some(first) = carry.take().or_else(|| rx.recv().ok()) {
        for msg in std::iter::once(first).chain(rx.try_iter()) {
            match msg {
                ToServer::Connect(id, reply) => {
                    routes.insert(id, reply);
                }
                ToServer::Ended => {}
                ToServer::Frame(id, frame) => {
                    if admitted.iter().any(|&(session, _)| session == id) {
                        carry = Some(ToServer::Frame(id, frame));
                        break;
                    }
                    match server.serve(frame) {
                        Served::Reply(reply) => deliver(&mut routes, id, reply),
                        Served::Suffix(suffix) => admitted.push((id, suffix)),
                        Served::Nothing => {}
                        Served::Ended => break,
                    }
                }
            }
        }
        // Suffixes admitted before a shutdown are still answered.
        server.answer_suffixes(&mut admitted, |id, reply| deliver(&mut routes, id, reply));
        if server.has_ended() {
            break;
        }
    }
    server.outcome()
}

/// Sends a reply down a channel session. A session whose receive half is
/// gone loses its route — and only its own replies.
fn deliver(routes: &mut HashMap<usize, Sender<Frame>>, session: usize, reply: Frame) {
    if routes
        .get(&session)
        .is_some_and(|tx| tx.send(reply).is_err())
    {
        routes.remove(&session);
    }
}

impl ServerHandle {
    /// Opens an additional client session with its own reply channel.
    /// Frames sent over the returned [`ClientConn`] are answered on that
    /// session's channel only, so concurrent clients never steal each
    /// other's responses.
    #[must_use]
    pub fn connect(&self) -> ClientConn {
        let id = self.next_client.fetch_add(1, Ordering::Relaxed);
        let (reply_tx, reply_rx) = channel::<Frame>();
        let _ = self.tx.send(ToServer::Connect(id, reply_tx));
        ClientConn {
            id,
            tx: self.tx.clone(),
            rx: reply_rx,
        }
    }

    /// The running server, for the socket shards that serve through it.
    pub(crate) fn server(&self) -> Arc<Server> {
        Arc::clone(&self.server)
    }

    /// Waits for service to end on its own — that is, until some client
    /// sends [`Message::Shutdown`] (over a channel or a socket) or a
    /// scripted crash fires — and returns how many offload requests the
    /// server served. `loadpart serve` blocks here; unlike
    /// [`ServerHandle::shutdown`] no shutdown frame is injected locally.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::ServerPanicked`] when a serving thread panicked.
    pub fn wait(mut self) -> Result<u64, ProtocolError> {
        self.join
            .take()
            .expect("not yet joined")
            .join()
            .unwrap_or(Err(ProtocolError::ServerPanicked))
    }

    /// Shuts the server down and returns how many offload requests it
    /// served. A panicked serving thread is reported as
    /// [`ProtocolError::ServerPanicked`] instead of propagating the panic
    /// into the caller.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::ServerPanicked`] when a serving thread panicked.
    pub fn shutdown(self) -> Result<u64, ProtocolError> {
        let _ = self.send(Message::Shutdown.encode().expect("no payload"));
        self.wait()
    }
}

impl FrameChannel for ServerHandle {
    fn send(&self, frame: Bytes) -> Result<(), ProtocolError> {
        self.send_split(Frame::from_contiguous(frame))
    }

    fn recv_deadline(&self, deadline: Instant) -> Result<Bytes, ProtocolError> {
        self.recv_split_deadline(deadline).map(Frame::flatten)
    }

    fn send_split(&self, frame: Frame) -> Result<(), ProtocolError> {
        self.tx
            .send(ToServer::Frame(0, frame))
            .map_err(|_| ProtocolError::Disconnected)
    }

    fn recv_split_deadline(&self, deadline: Instant) -> Result<Frame, ProtocolError> {
        match self
            .rx
            .recv_timeout(deadline.saturating_duration_since(Instant::now()))
        {
            Ok(frame) => Ok(frame),
            Err(RecvTimeoutError::Timeout) => Err(ProtocolError::Timeout),
            Err(RecvTimeoutError::Disconnected) => Err(ProtocolError::Disconnected),
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        let shutdown = Message::Shutdown.encode().expect("no payload");
        let _ = self
            .tx
            .send(ToServer::Frame(0, Frame::from_contiguous(shutdown)));
        if let Some(j) = self.join.take() {
            let _ = j.join();
        }
    }
}

/// A threaded offloading client for one DNN: the [`OffloadEngine`] over
/// the wire backends.
#[derive(Debug)]
pub struct ThreadedClient {
    engine: OffloadEngine,
    now: SimTime,
}

impl ThreadedClient {
    /// Builds the client with both trained model bundles and the default
    /// engine configuration.
    ///
    /// # Panics
    ///
    /// Panics if the default engine configuration is invalid (it is not).
    #[must_use]
    pub fn new(
        graph: impl Into<Arc<ComputationGraph>>,
        user_models: &PredictionModels,
        edge_models: &PredictionModels,
    ) -> Self {
        Self::with_config(graph, user_models, edge_models, EngineConfig::default())
            .expect("default config valid")
    }

    /// Builds the client with an explicit engine configuration (fault
    /// tests shrink `io_timeout`/`retry_backoff` to keep deadlines fast).
    ///
    /// # Errors
    ///
    /// Rejects invalid configurations with [`ConfigError`].
    pub fn with_config(
        graph: impl Into<Arc<ComputationGraph>>,
        user_models: &PredictionModels,
        edge_models: &PredictionModels,
        config: EngineConfig,
    ) -> Result<Self, ConfigError> {
        let engine =
            OffloadEngine::new(graph, Policy::LoadPart, user_models, edge_models, 0, config)?;
        Ok(Self {
            engine,
            now: SimTime::ZERO,
        })
    }

    /// Builds the client around an externally supplied
    /// [`PartitionPolicy`](crate::policy::PartitionPolicy) — stateful
    /// learners included. The engine feeds the policy completed records
    /// through the guarded feedback hook, so wire faults that degrade a
    /// request to local execution never train the learner.
    ///
    /// # Errors
    ///
    /// Rejects invalid configurations with [`ConfigError`].
    pub fn with_policy(
        graph: impl Into<Arc<ComputationGraph>>,
        policy: Box<dyn crate::policy::PartitionPolicy>,
        user_models: &PredictionModels,
        edge_models: &PredictionModels,
        config: EngineConfig,
    ) -> Result<Self, ConfigError> {
        let engine =
            OffloadEngine::with_policy(graph, policy, user_models, edge_models, 0, config)?;
        Ok(Self {
            engine,
            now: SimTime::ZERO,
        })
    }

    /// The underlying engine (solver, profile, caches).
    #[must_use]
    pub fn engine(&self) -> &OffloadEngine {
        &self.engine
    }

    /// Installs an observability handle on the underlying engine. Pass the
    /// same handle to [`spawn_server_tuned`] to see client and server
    /// sides of one session in a single registry.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.engine.set_telemetry(telemetry);
    }

    /// The client's logical clock.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Queries the server for the current load factor and caches it — the
    /// explicit runtime-profiler action.
    ///
    /// # Errors
    ///
    /// Propagates [`ProtocolError`] on a malformed reply, a timeout or a
    /// dead server.
    pub fn refresh_k<C: FrameChannel + ?Sized>(
        &mut self,
        server: &C,
    ) -> Result<f64, ProtocolError> {
        let mut backend = WireBackend {
            server,
            deadline: self.engine.config().io_timeout,
        };
        self.engine.refresh_k(self.now, &mut backend)
    }

    /// Runs one inference request end to end over the protocol.
    ///
    /// The client's logical clock advances one profiler period per
    /// request, so the periodic refresh fires every time: the probe frame
    /// and the load query leave back to back in one batch, and the client
    /// awaits the ack, then the reply, before the offload exchange. Wire
    /// faults never panic or hang the client: exchanges are retried with
    /// backoff and, if the fault persists, the request completes locally
    /// (`fallback_local` set on the record) and the engine cools down
    /// before touching the wire again.
    ///
    /// # Errors
    ///
    /// Propagates [`ProtocolError`] only for failures the engine cannot
    /// absorb (none on the current degradation paths).
    pub fn infer<C: FrameChannel + ?Sized>(
        &mut self,
        server: &C,
        bandwidth_mbps: f64,
    ) -> Result<InferenceRecord, ProtocolError> {
        self.now += self.engine.config().profiler_period;
        self.engine.profile_mut().inject_bandwidth(bandwidth_mbps);
        let deadline = self.engine.config().io_timeout;
        let mut device = NullDevice;
        let mut backend = WireBackend { server, deadline };
        let mut transport = WireTransport { server, deadline };
        self.engine
            .run(self.now, &mut device, &mut backend, &mut transport)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;
    use std::time::Duration;

    fn models() -> &'static (PredictionModels, PredictionModels) {
        static MODELS: OnceLock<(PredictionModels, PredictionModels)> = OnceLock::new();
        MODELS.get_or_init(|| crate::system::trained_models(150, 42))
    }

    /// An alexnet server running the fault script `faults`.
    fn faulty_server(faults: ServerFaultSpec) -> ServerHandle {
        let (_, edge) = models();
        spawn_server_tuned(
            lp_models::alexnet(1),
            edge.clone(),
            LoadEnv::new(1.0),
            faults,
            None,
            &Telemetry::disabled(),
            ServerTuning::default(),
        )
    }

    /// The next reply to session 0, waiting at most `wait`.
    fn reply_within(server: &ServerHandle, wait: Duration) -> Result<Bytes, ProtocolError> {
        server.recv_deadline(Instant::now() + wait)
    }

    /// The core's lookup predicts every cut's suffix exactly as predicting
    /// the whole graph node by node and summing the suffix does, for every
    /// zoo model and every cut up to past the end.
    #[test]
    fn suffix_lookup_equals_summed_node_predictions() {
        let (_, edge) = models();
        for graph in lp_models::full_zoo(1) {
            let name = graph.name().to_string();
            let per_node = edge.predict_graph(&graph);
            let n = graph.len();
            let handle = spawn_server(graph, edge.clone(), 1.0);
            let server = handle.server();
            let core = server.core();
            for p in (0..=n + 1).chain([u32::MAX as usize]) {
                let expected = if p < n {
                    per_node[p..].iter().copied().sum()
                } else {
                    SimDuration::ZERO
                };
                assert_eq!(core.suffix_time(p), expected, "{name}, cut {p}");
            }
            drop(core);
            handle.shutdown().expect("clean shutdown");
        }
    }

    #[test]
    fn offload_round_trip_over_threads() {
        let (user, edge) = models();
        let graph = lp_models::alexnet(1);
        let server = spawn_server(graph.clone(), edge.clone(), 1.0);
        let mut client = ThreadedClient::new(graph, user, edge);
        let r = client.infer(&server, 8.0).expect("protocol ok");
        assert!(r.p < 27, "should offload at 8 Mbps");
        assert!(r.uploaded_bytes > 0);
        assert!(r.server > SimDuration::ZERO);
        assert!(!r.fallback_local);
        assert_eq!(r.retries, 0);
        assert_eq!(server.shutdown().expect("clean shutdown"), 1);
    }

    #[test]
    fn load_query_reflects_server_contention() {
        let (user, edge) = models();
        let graph = lp_models::alexnet(1);
        // Server whose environment stretches executions 6x.
        let server = spawn_server(graph.clone(), edge.clone(), 6.0);
        let mut client = ThreadedClient::new(graph, user, edge);
        // Before any offload the tracker is empty: k = 1.
        assert_eq!(client.refresh_k(&server).expect("ok"), 1.0);
        let p_before = client.infer(&server, 8.0).expect("ok").p;
        // A few offloads populate the tracker; k should approach 6.
        for _ in 0..4 {
            client.infer(&server, 8.0).expect("ok");
        }
        let k = client.refresh_k(&server).expect("ok");
        assert!((5.0..7.0).contains(&k), "k={k}");
        // And the next decision moves device-ward (or stays).
        let p_after = client.infer(&server, 8.0).expect("ok").p;
        assert!(p_after >= p_before, "{p_before} -> {p_after}");
        server.shutdown().expect("clean shutdown");
    }

    #[test]
    fn local_decisions_skip_the_wire() {
        let (user, edge) = models();
        let graph = lp_models::alexnet(1);
        let server = spawn_server(graph.clone(), edge.clone(), 1.0);
        let mut client = ThreadedClient::new(graph, user, edge);
        let r = client.infer(&server, 0.05).expect("ok");
        assert_eq!(r.p, 27);
        assert_eq!(r.uploaded_bytes, 0);
        assert_eq!(
            server.shutdown().expect("clean shutdown"),
            0,
            "no offload requests should arrive"
        );
    }

    #[test]
    fn server_drops_garbage_frames() {
        let (user, edge) = models();
        let graph = lp_models::alexnet(1);
        let server = spawn_server(graph.clone(), edge.clone(), 1.0);
        // Garbage, truncated and wrong-version frames must not kill it.
        server
            .send(Bytes::from_static(b"\xffgarbage"))
            .expect("alive");
        server.send(Bytes::new()).expect("alive");
        server
            .send(Bytes::from_static(&[9, 1, 2, 3]))
            .expect("alive");
        let mut client = ThreadedClient::new(graph, user, edge);
        let r = client.infer(&server, 8.0).expect("still serving");
        assert!(r.server > SimDuration::ZERO);
        assert_eq!(server.shutdown().expect("clean shutdown"), 1);
    }

    #[test]
    fn probes_are_acknowledged() {
        let (_, edge) = models();
        let graph = lp_models::alexnet(1);
        let server = spawn_server(graph, edge.clone(), 1.0);
        server
            .send(
                Message::Probe {
                    payload: Bytes::from(vec![0u8; 1024]),
                }
                .encode()
                .expect("encodes"),
            )
            .expect("alive");
        let ack = Message::decode(reply_within(&server, Duration::from_secs(5)).expect("alive"))
            .expect("valid");
        assert_eq!(ack, Message::ProbeAck);
        server.shutdown().expect("clean shutdown");
    }

    #[test]
    fn drop_shuts_down_cleanly() {
        let (_, edge) = models();
        let graph = lp_models::alexnet(1);
        let server = spawn_server(graph, edge.clone(), 1.0);
        drop(server); // must not hang or panic
    }

    #[test]
    fn request_ids_are_sequential() {
        let (user, edge) = models();
        let graph = lp_models::alexnet(1);
        let server = spawn_server(graph.clone(), edge.clone(), 1.0);
        let mut client = ThreadedClient::new(graph, user, edge);
        for expect in 0..3u64 {
            let r = client.infer(&server, 8.0).expect("ok");
            assert_eq!(r.request_id, expect);
        }
        server.shutdown().expect("clean shutdown");
    }

    #[test]
    fn recv_timeout_reports_timeout_then_disconnect() {
        let (_, edge) = models();
        let graph = lp_models::alexnet(1);
        let server = spawn_server(graph, edge.clone(), 1.0);
        // Nothing was sent: a bounded wait must end in Timeout, not a hang.
        assert_eq!(
            reply_within(&server, Duration::from_millis(10)),
            Err(ProtocolError::Timeout)
        );
        // Kill the server thread; the channel now reports Disconnected.
        server
            .send(Message::Shutdown.encode().expect("encodes"))
            .expect("alive");
        // Wait for the thread to exit by joining via a fresh handle scope.
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(
            reply_within(&server, Duration::from_millis(10)),
            Err(ProtocolError::Disconnected)
        );
    }

    /// Regression (stale server clock): the server's logical clock used to
    /// advance only on offload requests, so an idle-then-querying client
    /// saw a frozen `k`: tracker samples could never age out. Every
    /// received frame now ticks the clock, so a stream of load queries
    /// alone eventually expires the 5 s tracker window.
    #[test]
    fn tracker_window_expires_for_an_idle_then_querying_client() {
        let (user, edge) = models();
        let graph = lp_models::alexnet(1);
        let server = spawn_server(graph.clone(), edge.clone(), 6.0);
        let mut client = ThreadedClient::new(graph, user, edge);
        // Populate the tracker with slow executions: k climbs toward 6.
        for _ in 0..3 {
            client.infer(&server, 8.0).expect("ok");
        }
        assert!(client.refresh_k(&server).expect("ok") > 4.0);
        // The client goes idle and only queries. 100 ms per frame: 60
        // queries move the server clock 6 s past the last sample — beyond
        // the 5 s window — so k must decay back to 1.
        let mut last_k = f64::NAN;
        for _ in 0..60 {
            server
                .send(Message::LoadQuery.encode().expect("encodes"))
                .expect("alive");
            match Message::decode(reply_within(&server, Duration::from_secs(5)).expect("alive"))
                .expect("valid")
            {
                Message::LoadReply { k_micro } => last_k = Message::micro_to_k(k_micro),
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(last_k, 1.0, "stale samples must age out while idle");
        server.shutdown().expect("clean shutdown");
    }

    #[test]
    fn scripted_crash_disconnects_both_directions() {
        let server = faulty_server(ServerFaultSpec {
            crash_after_frames: Some(1),
            ..ServerFaultSpec::default()
        });
        // Frame 1 is served; frame 2 crosses the threshold and kills the
        // thread without a reply.
        server
            .send(
                Message::Probe {
                    payload: Bytes::new(),
                }
                .encode()
                .expect("encodes"),
            )
            .expect("alive");
        assert_eq!(
            Message::decode(reply_within(&server, Duration::from_secs(5)).expect("alive"))
                .expect("valid"),
            Message::ProbeAck
        );
        server
            .send(Message::LoadQuery.encode().expect("encodes"))
            .expect("queued");
        assert_eq!(
            reply_within(&server, Duration::from_secs(1)),
            Err(ProtocolError::Disconnected)
        );
    }

    #[test]
    fn scripted_stall_swallows_the_window_then_recovers() {
        let server = faulty_server(ServerFaultSpec {
            stall: Some(StallWindow {
                after_frames: 0,
                frames: 2,
            }),
            ..ServerFaultSpec::default()
        });
        // Frames 0 and 1 go unanswered; frame 2 is served again.
        for _ in 0..2 {
            server
                .send(Message::LoadQuery.encode().expect("encodes"))
                .expect("alive");
            assert_eq!(
                reply_within(&server, Duration::from_millis(50)),
                Err(ProtocolError::Timeout)
            );
        }
        server
            .send(Message::LoadQuery.encode().expect("encodes"))
            .expect("alive");
        let reply =
            Message::decode(reply_within(&server, Duration::from_secs(1)).expect("served again"))
                .expect("valid");
        assert!(matches!(reply, Message::LoadReply { .. }));
        server.shutdown().expect("clean shutdown");
    }

    #[test]
    fn scripted_panic_is_reported_not_propagated() {
        let server = faulty_server(ServerFaultSpec {
            panic_after_frames: Some(1),
            ..ServerFaultSpec::default()
        });
        // Frame 1 is served; frame 2 (the shutdown itself) crosses the
        // threshold and panics the thread. The teardown path must surface
        // that as an error, not a propagated panic.
        server
            .send(
                Message::Probe {
                    payload: Bytes::new(),
                }
                .encode()
                .expect("encodes"),
            )
            .expect("alive");
        assert_eq!(
            Message::decode(reply_within(&server, Duration::from_secs(5)).expect("alive"))
                .expect("valid"),
            Message::ProbeAck
        );
        assert_eq!(server.shutdown(), Err(ProtocolError::ServerPanicked));
    }

    #[test]
    fn connected_sessions_get_their_own_replies() {
        let (_, edge) = models();
        let graph = lp_models::alexnet(1);
        let server = spawn_server(graph, edge.clone(), 1.0);
        let a = server.connect();
        let b = server.connect();
        assert_ne!(a.id(), b.id());
        // Interleave queries from both sessions plus the handle itself;
        // every reply must land on the channel that asked.
        for conn in [&a, &b] {
            conn.send(Message::LoadQuery.encode().expect("encodes"))
                .expect("alive");
        }
        server
            .send(Message::LoadQuery.encode().expect("encodes"))
            .expect("alive");
        let deadline = Instant::now() + Duration::from_secs(1);
        for conn in [&a, &b] {
            let reply = Message::decode(conn.recv_deadline(deadline).expect("routed")).expect("ok");
            assert!(matches!(reply, Message::LoadReply { .. }));
        }
        let reply = Message::decode(reply_within(&server, Duration::from_secs(1)).expect("routed"))
            .expect("ok");
        assert!(matches!(reply, Message::LoadReply { .. }));
        server.shutdown().expect("clean shutdown");
    }

    #[test]
    fn admission_rejects_over_the_wire() {
        let (_, edge) = models();
        let graph = lp_models::alexnet(1);
        let server = spawn_server_tuned(
            graph,
            edge.clone(),
            LoadEnv::new(1.0),
            ServerFaultSpec::default(),
            Some(AdmissionConfig {
                max_inflight: 0,
                max_queue_delay: SimDuration::from_secs(1000),
                max_batch: 1,
            }),
            &Telemetry::disabled(),
            ServerTuning::default(),
        );
        server
            .send(
                Message::OffloadRequest {
                    request_id: 7,
                    partition_point: 5,
                    precision: Precision::Fp32,
                    payload: Bytes::from(vec![0u8; 64]),
                }
                .encode()
                .expect("encodes"),
            )
            .expect("alive");
        let reply =
            Message::decode(reply_within(&server, Duration::from_secs(1)).expect("answered"))
                .expect("valid");
        match reply {
            Message::Rejected { request_id, .. } => assert_eq!(request_id, 7),
            other => panic!("expected rejection, got {other:?}"),
        }
        assert_eq!(
            server.shutdown().expect("clean shutdown"),
            0,
            "a shed request is not served"
        );
    }

    #[test]
    fn load_env_can_respike_mid_run() {
        let (user, edge) = models();
        let graph = lp_models::alexnet(1);
        let env = LoadEnv::new(1.0);
        let server = spawn_server_tuned(
            graph.clone(),
            edge.clone(),
            env.clone(),
            ServerFaultSpec::default(),
            None,
            &Telemetry::disabled(),
            ServerTuning::default(),
        );
        let mut client = ThreadedClient::new(graph, user, edge);
        client.infer(&server, 8.0).expect("ok");
        assert!(client.refresh_k(&server).expect("ok") < 1.5);
        // Spike the environment mid-session: measured k must follow.
        env.set_k(6.0);
        for _ in 0..4 {
            client.infer(&server, 8.0).expect("ok");
        }
        assert!(client.refresh_k(&server).expect("ok") > 4.0);
        server.shutdown().expect("clean shutdown");
    }

    /// The tuning knobs change scheduling, not behaviour: a session
    /// against the default tuning under an injected suffix cost produces
    /// the same records as one against an unbatched tuning.
    #[test]
    fn tuned_server_with_suffix_cost_still_serves_identically() {
        let (user, edge) = models();
        let graph = Arc::new(lp_models::alexnet(1));
        let mut runs = Vec::new();
        for tuning in [
            ServerTuning {
                max_batch: 1,
                batch_bucket: 1,
                ..ServerTuning::default()
            },
            ServerTuning {
                suffix_cost: Duration::from_micros(100),
                ..ServerTuning::default()
            },
        ] {
            let server = spawn_server_tuned(
                Arc::clone(&graph),
                edge.clone(),
                LoadEnv::new(1.0),
                ServerFaultSpec::default(),
                None,
                &Telemetry::disabled(),
                tuning,
            );
            let mut client = ThreadedClient::new(Arc::clone(&graph), user, edge);
            let records: Vec<InferenceRecord> = (0..4)
                .map(|_| client.infer(&server, 8.0).expect("ok"))
                .collect();
            assert_eq!(server.shutdown().expect("clean shutdown"), 4);
            runs.push(records);
        }
        assert_eq!(runs[0], runs[1], "tuning must not change records");
    }
}
