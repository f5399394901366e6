//! A threaded client/server runtime speaking the wire [`protocol`](crate::protocol).
//!
//! The paper's implementation runs the offloading main thread and the
//! runtime-profiler thread concurrently on the device, and the offloading
//! service plus a GPU-utilization monitor on the server (§IV). This module
//! reproduces that process structure with real OS threads and channels:
//!
//! * the **server thread** owns the suffix partition cache, executes
//!   offloaded suffixes (simulated durations from the latency models), and
//!   answers load queries from its [`LoadFactorTracker`];
//! * the **client** is the [`OffloadEngine`] composed with the wire
//!   backends ([`WireBackend`]/[`WireTransport`]): Algorithm 1 per request,
//!   [`Message::OffloadRequest`]-framed uploads, and on the profiler
//!   cadence one pipelined refresh — the probe frames and the load query
//!   leave in one [`FrameChannel::send_batch`], then the acks and the
//!   load reply are awaited — so a request costs two round trips;
//! * time is logical — the client's clock advances one profiler period per
//!   request, and the server's clock advances a fixed tick per **received
//!   frame** (plus the observed execution time per offload), so load-query
//!   handling and tracker-window expiry see a moving clock even when the
//!   client only queries.
//!
//! Every client-side wire operation is **deadline-based** ([`FrameChannel`]
//! / [`ServerHandle::recv_frame_timeout`]): a stalled or dead server yields
//! [`ProtocolError::Timeout`] / [`ProtocolError::Disconnected`] instead of
//! a hang or a panic, and the engine degrades to local inference. The
//! [`ServerFaultSpec`] passed to [`spawn_server_with_faults`] scripts
//! server crashes and stalls deterministically for tests and demos; the
//! client-side counterpart is [`crate::fault::FaultInjector`].
//!
//! Tests are deterministic, but the concurrency — shared caches behind
//! locks, `std::sync::mpsc` channels, graceful shutdown — is real.

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
use std::sync::mpsc::{channel, Receiver, RecvError, RecvTimeoutError, SendError, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The logical time the server charges for receiving any frame (the
/// inter-request spacing the runtime has always modelled).
const RECV_TICK: SimDuration = SimDuration::from_millis(100);

/// A bidirectional frame pipe the client-side wire backends speak over.
///
/// [`ServerHandle`] implements it directly;
/// [`crate::fault::FaultInjector`] wraps any implementation to inject
/// scripted faults between the engine and the real channel.
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
    /// [`FrameChannel::send`], so existing implementations (fault
    /// injectors, test middleboxes) keep working unchanged; the in-process
    /// channel endpoints override this to pass both segments through
    /// zero-copy.
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
    /// per-frame middleboxes (fault injectors, link emulators, tracers)
    /// see, index and perturb every frame exactly as if it were sent
    /// alone. Socket channels override this with one gathered write.
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

/// Called after a reply frame lands on a session's channel, so a sleeping
/// transport (the socket mux shard parked in `poll(2)`) learns there is
/// egress work without polling its reply queues. In-process sessions pass
/// `None` — their receivers block on the channel directly.
pub type ReplyWaker = Arc<dyn Fn() + Send + Sync>;

/// Where one session's replies go: the reply channel plus the optional
/// wake callback fired after every delivery.
#[derive(Clone)]
struct ReplyRoute {
    tx: Sender<Frame>,
    waker: Option<ReplyWaker>,
}

impl ReplyRoute {
    fn new(tx: Sender<Frame>, waker: Option<ReplyWaker>) -> Self {
        Self { tx, waker }
    }

    /// Queues one reply and wakes the transport; `false` once the session's
    /// receive half is gone.
    fn deliver(&self, frame: Frame) -> bool {
        let delivered = self.tx.send(frame).is_ok();
        if let Some(waker) = &self.waker {
            waker();
        }
        delivered
    }
}

impl std::fmt::Debug for ReplyRoute {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReplyRoute")
            .field("waker", &self.waker.is_some())
            .finish_non_exhaustive()
    }
}

/// What flows into the server thread: control-plane client registrations
/// and data-plane frames, multiplexed over one channel so the frame loop
/// stays single-threaded and deterministic.
#[derive(Debug)]
enum ToServer {
    /// A new client session: route replies for `client` along this route.
    Connect(usize, ReplyRoute),
    /// A frame from `client`. Carried as a header/payload [`Frame`] so a
    /// multi-MB tensor payload crosses the channel as a reference-count
    /// bump, never a memcpy.
    Frame(usize, Frame),
    /// The transport observed `client` hang up: drop its reply route so
    /// the mux stops holding a dead channel (and its memory) forever.
    Disconnect(usize),
}

/// Handle to a running offloading server thread. The handle itself is
/// client session 0; [`ServerHandle::connect`] opens additional sessions
/// with their own reply channels (the multi-client chaos harness).
#[derive(Debug)]
pub struct ServerHandle {
    tx: Sender<ToServer>,
    rx: Receiver<Frame>,
    next_client: Arc<AtomicUsize>,
    join: Option<JoinHandle<u64>>,
}

/// A cloneable handle that opens new sessions on a running server without
/// borrowing its [`ServerHandle`] — the socket acceptor thread holds one
/// and mints a [`ClientConn`] per accepted connection.
#[derive(Debug, Clone)]
pub struct SessionConnector {
    tx: Sender<ToServer>,
    next_client: Arc<AtomicUsize>,
}

impl SessionConnector {
    /// Opens an additional client session with its own reply channel,
    /// exactly like [`ServerHandle::connect`].
    #[must_use]
    pub fn connect(&self) -> ClientConn {
        self.connect_with_waker(None)
    }

    /// Opens a session whose reply deliveries also fire `waker`, so an
    /// event-driven transport parked in `poll(2)` learns about egress work
    /// the moment the mux (or a suffix worker) queues a reply.
    #[must_use]
    pub fn connect_with_waker(&self, waker: Option<ReplyWaker>) -> ClientConn {
        let id = self.next_client.fetch_add(1, Ordering::Relaxed);
        let (reply_tx, reply_rx) = channel::<Frame>();
        let _ = self
            .tx
            .send(ToServer::Connect(id, ReplyRoute::new(reply_tx, waker)));
        ClientConn {
            id,
            tx: self.tx.clone(),
            rx: reply_rx,
        }
    }
}

/// The send half of a split [`ClientConn`]: frames pushed here enter the
/// server mux under the session's id.
#[derive(Debug, Clone)]
pub struct SessionSender {
    id: usize,
    tx: Sender<ToServer>,
}

impl SessionSender {
    /// Forwards one frame into the server mux.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::Disconnected`] once the server thread has exited.
    pub fn send(&self, frame: Frame) -> Result<(), ProtocolError> {
        self.tx
            .send(ToServer::Frame(self.id, frame))
            .map_err(|_| ProtocolError::Disconnected)
    }

    /// Tells the mux this session's peer hung up, so it drops the reply
    /// route instead of holding a dead channel for the server's lifetime.
    pub fn close(&self) {
        let _ = self.tx.send(ToServer::Disconnect(self.id));
    }
}

/// The receive half of a split [`ClientConn`]: the session's replies, in
/// server dispatch order.
#[derive(Debug)]
pub struct SessionReceiver {
    rx: Receiver<Frame>,
}

impl SessionReceiver {
    /// Blocks for the session's next reply frame.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::Disconnected`] once the server side has dropped the
    /// session's reply channel (server exit).
    pub fn recv(&self) -> Result<Frame, ProtocolError> {
        self.rx.recv().map_err(|_| ProtocolError::Disconnected)
    }

    /// Non-blocking receive for event-driven transports: `Ok(None)` when no
    /// reply is queued right now.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::Disconnected`] once the server side has dropped the
    /// session's reply channel (server exit).
    pub fn try_recv(&self) -> Result<Option<Frame>, ProtocolError> {
        match self.rx.try_recv() {
            Ok(frame) => Ok(Some(frame)),
            Err(std::sync::mpsc::TryRecvError::Empty) => Ok(None),
            Err(std::sync::mpsc::TryRecvError::Disconnected) => Err(ProtocolError::Disconnected),
        }
    }
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

    /// Splits the session into independently owned send/receive halves, so
    /// the socket bridge can pump each direction from its own thread.
    #[must_use]
    pub fn split(self) -> (SessionSender, SessionReceiver) {
        (
            SessionSender {
                id: self.id,
                tx: self.tx,
            },
            SessionReceiver { rx: self.rx },
        )
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

/// Deterministic server-side fault script for [`spawn_server_with_faults`]:
/// crash and stall behaviour keyed by received-frame counts, so tests can
/// place a fault at an exact point in the session without wall-clock
/// randomness.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerFaultSpec {
    /// Exit the server thread abruptly (simulated crash) once this many
    /// frames have been received; the frame crossing the threshold is not
    /// served, and both channels disconnect.
    pub crash_after_frames: Option<u64>,
    /// Drop the frames in this window silently — the server is alive but
    /// unresponsive, which is what a deadline must catch.
    pub stall: Option<StallWindow>,
    /// Panic the server thread once this many frames have been received —
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
/// All spawn entry points accept the graph as either an owned
/// [`ComputationGraph`] or an `Arc<ComputationGraph>`; pass an `Arc` clone
/// to share one model between the server and every client engine.
#[must_use]
pub fn spawn_server(
    graph: impl Into<Arc<ComputationGraph>>,
    edge_models: PredictionModels,
    k_factor: f64,
) -> ServerHandle {
    spawn_server_with_faults(graph, edge_models, k_factor, ServerFaultSpec::default())
}

/// [`spawn_server`] plus a deterministic fault script ([`ServerFaultSpec`]).
#[must_use]
pub fn spawn_server_with_faults(
    graph: impl Into<Arc<ComputationGraph>>,
    edge_models: PredictionModels,
    k_factor: f64,
    faults: ServerFaultSpec,
) -> ServerHandle {
    spawn_server_instrumented(graph, edge_models, k_factor, faults, &Telemetry::disabled())
}

/// Pre-registered instrument handles for the server frame loop; `None`
/// when the spawning telemetry is disabled, so the loop pays one branch
/// per event.
struct ServerMetrics {
    frames: Counter,
    offloads: Counter,
    load_queries: Counter,
    probe_acks: Counter,
    bad_frames: Counter,
    stalled: Counter,
    rejected: Counter,
    /// Suffixes that executed as part of a coalesced batch of ≥ 2
    /// (incremented by the batch size, from the executing worker).
    batched_suffixes: Counter,
    /// Coalesced batch executions of ≥ 2 suffixes.
    suffix_batches: Counter,
    /// Offload requests whose upload tensor arrived at a narrow
    /// (non-fp32) precision and was dequantized server-side.
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
            batched_suffixes: reg.counter("server.batched_suffixes_total"),
            suffix_batches: reg.counter("server.suffix_batches_total"),
            quantized_offloads: reg.counter("server.quantized_offloads_total"),
            k: reg.gauge("server.k"),
        })
    }
}

/// [`spawn_server_with_faults`] plus an observability handle: the server
/// thread counts its frame traffic under `server.*` in `telemetry`'s
/// registry (shared with whatever client-side engine observes the same
/// run).
#[must_use]
pub fn spawn_server_instrumented(
    graph: impl Into<Arc<ComputationGraph>>,
    edge_models: PredictionModels,
    k_factor: f64,
    faults: ServerFaultSpec,
    telemetry: &Telemetry,
) -> ServerHandle {
    spawn_server_full(
        graph,
        edge_models,
        LoadEnv::new(k_factor),
        faults,
        None,
        telemetry,
    )
}

/// Tuning knobs for the serving hot path, consumed by
/// [`spawn_server_tuned`]. [`spawn_server_full`] uses the default.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerTuning {
    /// Size of the sharded suffix-execution worker pool. `0` runs every
    /// suffix inline on the mux thread — the pre-worker-pool serving path,
    /// kept as the benchmark baseline.
    pub workers: usize,
    /// Encode replies with the contiguous [`Message::encode`] (one memcpy
    /// of the payload per reply, plus a fresh payload allocation) instead
    /// of the zero-copy [`Message::to_frame`] path. Benchmark baseline.
    pub legacy_framing: bool,
    /// Wall-clock cost charged per admitted suffix execution, modelling
    /// the real GPU/CPU occupancy of the suffix on the serving thread.
    /// [`Duration::ZERO`] (the default everywhere outside the benchmark)
    /// keeps execution purely simulated, exactly the historical behaviour.
    pub suffix_cost: Duration,
    /// Maximum suffix jobs a worker coalesces into one batched GPU-sim
    /// execution (continuous batching): queued suffixes whose partition
    /// points fall in the same [`ServerTuning::batch_bucket`]-wide bucket
    /// share a single `suffix_cost` charge. `1` (or `0`) disables
    /// coalescing — one execution per request, the historical behaviour.
    /// Batching never reorders a session's replies; see the worker loop.
    pub max_batch: usize,
    /// Width of the partition-point bucket for batch compatibility: jobs
    /// batch together when `p / batch_bucket` matches (a real GPU batches
    /// suffixes starting at near-identical layers; an exact-`p` rule would
    /// fragment batches whenever clients' bandwidth estimates wobble by a
    /// layer). Also the bucket the batch-aware admission controller keys
    /// its open batch on.
    pub batch_bucket: usize,
}

impl Default for ServerTuning {
    fn default() -> Self {
        Self {
            workers: default_workers(),
            legacy_framing: false,
            suffix_cost: Duration::ZERO,
            max_batch: 16,
            batch_bucket: 4,
        }
    }
}

impl ServerTuning {
    /// The pre-PR serving path: inline execution on the mux thread with
    /// contiguous (copying) framing.
    #[must_use]
    pub fn single_threaded_legacy() -> Self {
        Self {
            workers: 0,
            legacy_framing: true,
            suffix_cost: Duration::ZERO,
            max_batch: 1,
            batch_bucket: 1,
        }
    }

    /// The bucket a partition point batches under (shared by the worker
    /// coalescing loop and batch-aware admission).
    #[must_use]
    fn bucket(&self, p: usize) -> u64 {
        (p / self.batch_bucket.max(1)) as u64
    }
}

/// Default worker-pool size: one worker per core, clamped to `2..=8` so
/// small runners still overlap sessions and large ones don't oversubscribe
/// a workload that is mostly per-session FIFO anyway.
fn default_workers() -> usize {
    std::thread::available_parallelism().map_or(4, |n| n.get().clamp(2, 8))
}

/// The fully-general server spawn: a scriptable [`LoadEnv`], a
/// deterministic fault script, optional [admission control](crate::admission)
/// and telemetry. `None` for `admission` means the unbounded budget — the
/// pre-admission-control behaviour.
///
/// The server's logical clock advances `RECV_TICK` (100 ms) per received
/// frame;
/// execution time accumulates only in the admission controller's backlog
/// watermark, which is what the predicted queue delay (and therefore load
/// shedding) is computed from.
#[must_use]
pub fn spawn_server_full(
    graph: impl Into<Arc<ComputationGraph>>,
    edge_models: PredictionModels,
    env: LoadEnv,
    faults: ServerFaultSpec,
    admission: Option<AdmissionConfig>,
    telemetry: &Telemetry,
) -> ServerHandle {
    spawn_server_tuned(
        graph,
        edge_models,
        env,
        faults,
        admission,
        telemetry,
        ServerTuning::default(),
    )
}

/// What a shard worker does for one request. Either way the reply is
/// delivered from the worker, so a session's replies stay FIFO even when a
/// control reply chases an offload response still being built.
enum Job {
    /// Forward a reply the mux already built (control plane, rejections).
    Forward(Frame),
    /// Execute an admitted suffix: fetch/build the partition from the
    /// shared cache, charge the configured execution cost, frame the
    /// result tensor.
    Suffix {
        request_id: u64,
        server_time_us: u64,
        p: usize,
    },
}

/// The sharded suffix-execution pool behind the frame mux. Sessions map to
/// workers by `session_id % workers`, so one session's jobs — and therefore
/// its replies — are handled by one worker in arrival order, preserving the
/// per-session FIFO the single-threaded server provided. All stateful
/// accounting (clock, admission, tracker, fault script, metrics) stays on
/// the mux; workers only execute and reply.
///
/// # Continuous batching
///
/// When `max_batch > 1`, a worker that dequeues a suffix keeps draining its
/// queue (non-blocking) and coalesces further suffixes of the same
/// partition-point bucket into one batch, which then charges a single
/// `suffix_cost` — the GPU running the near-identical suffixes as one
/// batched launch. Replies are delivered in batch order. Per-session FIFO
/// survives because a control [`Job::Forward`] encountered mid-scan is
/// forwarded immediately *only* when its session has no suffix in the
/// batch being built (jobs of distinct sessions commute); a Forward whose
/// session is already batched — or any bucket-incompatible suffix — stops
/// the scan and is carried into the next iteration unreordered.
struct WorkerPool {
    txs: Vec<Sender<(usize, ReplyRoute, Job)>>,
    joins: Vec<JoinHandle<()>>,
    ctx: ExecContext,
}

/// Everything a worker (or the inline path) needs to execute a job.
#[derive(Clone)]
struct ExecContext {
    graph: Arc<ComputationGraph>,
    cache: Arc<PartitionCache>,
    tuning: ServerTuning,
    /// `server.batched_suffixes_total` / `server.suffix_batches_total`
    /// handles, incremented from the executing worker (`None` when
    /// telemetry is disabled).
    batched_suffixes: Option<Counter>,
    suffix_batches: Option<Counter>,
}

impl ExecContext {
    /// Executes one job to a wire-ready reply frame.
    fn execute(&self, job: Job) -> Frame {
        match job {
            Job::Forward(frame) => frame,
            Job::Suffix { .. } => {
                self.charge_suffix_cost();
                self.suffix_reply(job)
            }
        }
    }

    /// Models the suffix (or a coalesced batch of suffixes) occupying this
    /// serving thread for its execution time — what the worker pool
    /// overlaps across sessions, and what batching amortises.
    fn charge_suffix_cost(&self) {
        if !self.tuning.suffix_cost.is_zero() {
            std::thread::sleep(self.tuning.suffix_cost);
        }
    }

    /// Builds the reply frame for one admitted suffix, *without* charging
    /// the execution cost (the caller charges once per batch). Each job
    /// still fetches its own partition from the shared cache — bucketed
    /// batchmates may differ by a few layers.
    fn suffix_reply(&self, job: Job) -> Frame {
        let Job::Suffix {
            request_id,
            server_time_us,
            p,
        } = job
        else {
            unreachable!("suffix_reply only takes suffix jobs");
        };
        // Build or fetch the suffix graph (Figure 5).
        let _ = self
            .cache
            .get_or_partition(&self.graph, p.min(self.graph.len()))
            .expect("p in range");
        let out_bytes = self.graph.output().size_bytes() as usize;
        let reply = Message::OffloadResponse {
            request_id,
            server_time_us,
            payload: if self.tuning.legacy_framing {
                Bytes::from(vec![0u8; out_bytes])
            } else {
                zero_payload(out_bytes)
            },
        };
        self.frame(&reply)
    }

    /// Executes a coalesced batch of suffix jobs: one execution-cost
    /// charge, then every reply delivered in batch (= arrival) order.
    fn execute_suffix_batch(&self, batch: Vec<(usize, ReplyRoute, Job)>) {
        if batch.len() >= 2 {
            if let Some(c) = &self.suffix_batches {
                c.incr(1);
            }
            if let Some(c) = &self.batched_suffixes {
                c.incr(batch.len() as u64);
            }
        }
        self.charge_suffix_cost();
        for (_, route, job) in batch {
            // A dead client only loses its own reply.
            let _ = route.deliver(self.suffix_reply(job));
        }
    }

    /// Frames a reply message per the configured framing mode. Server
    /// replies carry at most one model-output tensor, far under the
    /// protocol's payload cap, so encoding cannot fail here.
    fn frame(&self, reply: &Message) -> Frame {
        if self.tuning.legacy_framing {
            Frame::from_contiguous(reply.encode().expect("server reply fits a frame"))
        } else {
            reply.to_frame().expect("server reply fits a frame")
        }
    }
}

impl WorkerPool {
    fn spawn(workers: usize, ctx: ExecContext) -> Self {
        let mut txs = Vec::with_capacity(workers);
        let mut joins = Vec::with_capacity(workers);
        for shard in 0..workers {
            let (tx, rx) = channel::<(usize, ReplyRoute, Job)>();
            let worker_ctx = ctx.clone();
            let join = std::thread::Builder::new()
                .name(format!("loadpart-suffix-{shard}"))
                .spawn(move || Self::worker_loop(&worker_ctx, &rx))
                .expect("spawn suffix worker");
            txs.push(tx);
            joins.push(join);
        }
        Self { txs, joins, ctx }
    }

    /// One worker's continuous-batching loop; see the [`WorkerPool`] doc
    /// for the reordering argument.
    fn worker_loop(ctx: &ExecContext, rx: &Receiver<(usize, ReplyRoute, Job)>) {
        let max_batch = ctx.tuning.max_batch.max(1);
        // A job pulled off the queue that could not join the current batch;
        // it leads the next iteration so queue order is preserved.
        let mut carry: Option<(usize, ReplyRoute, Job)> = None;
        loop {
            let head = match carry.take() {
                Some(head) => head,
                None => match rx.recv() {
                    Ok(head) => head,
                    Err(_) => break,
                },
            };
            let (session, route, job) = head;
            let bucket = match &job {
                Job::Forward(_) => {
                    // Control-plane reply: deliver and move on. A dead
                    // client only loses its own reply.
                    let _ = route.deliver(ctx.execute(job));
                    continue;
                }
                Job::Suffix { p, .. } => ctx.tuning.bucket(*p),
            };
            let mut batch = vec![(session, route, job)];
            // Coalesce compatible queued suffixes, non-blocking: the batch
            // closes as soon as the queue runs dry, so a lone request never
            // waits for company (continuous, not time-windowed, batching).
            while batch.len() < max_batch {
                match rx.try_recv() {
                    Ok((s, r, j @ Job::Suffix { .. })) => {
                        let Job::Suffix { p, .. } = &j else {
                            unreachable!("matched suffix above");
                        };
                        if ctx.tuning.bucket(*p) == bucket {
                            batch.push((s, r, j));
                        } else {
                            carry = Some((s, r, j));
                            break;
                        }
                    }
                    Ok((s, r, j @ Job::Forward(_))) => {
                        if batch.iter().any(|(bs, _, _)| *bs == s) {
                            // This session already has a suffix in the
                            // batch; replying now would reorder it.
                            carry = Some((s, r, j));
                            break;
                        }
                        // Distinct sessions commute: answer the control
                        // frame immediately instead of behind the batch.
                        let _ = r.deliver(ctx.execute(j));
                    }
                    Err(_) => break,
                }
            }
            ctx.execute_suffix_batch(batch);
        }
    }

    /// Routes a job to `session`'s shard, or executes it inline when the
    /// pool is empty (the single-threaded baseline). Returns `false` when
    /// the session's reply channel is known dead (inline mode only; a
    /// sharded worker discovers that on its own).
    fn dispatch(&self, session: usize, route: &ReplyRoute, job: Job) -> bool {
        if self.txs.is_empty() {
            route.deliver(self.ctx.execute(job))
        } else {
            let shard = session % self.txs.len();
            // A worker that died mid-run (panicked job) drops its channel;
            // its sessions then time out client-side, which the engine
            // degrades on — and shutdown reports the panic.
            let _ = self.txs[shard].send((session, route.clone(), job));
            true
        }
    }

    /// Drains and joins the pool.
    ///
    /// # Panics
    ///
    /// Re-raises a worker panic on the caller (the mux thread), so
    /// [`ServerHandle::shutdown`] reports [`ProtocolError::ServerPanicked`]
    /// exactly as it does for a mux panic.
    fn join(self) {
        drop(self.txs);
        for join in self.joins {
            if join.join().is_err() {
                panic!("suffix worker panicked");
            }
        }
    }
}

/// [`spawn_server_full`] with explicit [`ServerTuning`] — the entry point
/// the serving benchmark uses to pit the legacy single-threaded path
/// against the worker pool under identical traffic.
#[must_use]
#[allow(clippy::too_many_lines)]
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
    let (mux_tx, server_rx) = channel::<ToServer>();
    let (server_tx, client_rx) = channel::<Frame>();
    let cache = Arc::new(PartitionCache::new());
    let tracker = Arc::new(Mutex::new(LoadFactorTracker::new(SimDuration::from_secs(
        5,
    ))));
    let admission_cfg = admission.unwrap_or_else(AdmissionConfig::unbounded);
    let batched_suffixes = metrics.as_ref().map(|m| m.batched_suffixes.clone());
    let suffix_batches = metrics.as_ref().map(|m| m.suffix_batches.clone());
    let join = std::thread::spawn(move || {
        let pool = WorkerPool::spawn(
            tuning.workers,
            ExecContext {
                graph: Arc::clone(&graph),
                cache,
                tuning,
                batched_suffixes,
                suffix_batches,
            },
        );
        let mut admission = AdmissionController::new(admission_cfg);
        let mut replies: HashMap<usize, ReplyRoute> = HashMap::new();
        replies.insert(0, ReplyRoute::new(server_tx, None));
        let mut served = 0u64;
        let mut now = SimTime::ZERO;
        let mut received = 0u64;
        while let Ok(incoming) = server_rx.recv() {
            let (client, frame) = match incoming {
                // Control plane: register a reply route. No frame count,
                // no clock tick.
                ToServer::Connect(id, route) => {
                    replies.insert(id, route);
                    continue;
                }
                // Control plane: the transport saw the peer hang up.
                ToServer::Disconnect(id) => {
                    if id != 0 {
                        replies.remove(&id);
                    }
                    continue;
                }
                ToServer::Frame(id, frame) => (id, frame),
            };
            let idx = received;
            received += 1;
            if faults.crash_after_frames.is_some_and(|n| received > n) {
                // Simulated crash: exit without replying; dropping the
                // routes (and draining the pool) ends the session abruptly
                // on the client side.
                return served;
            }
            if faults.panic_after_frames.is_some_and(|n| received > n) {
                panic!("scripted server panic after {idx} frames");
            }
            if let Some(m) = &metrics {
                m.frames.incr(1);
            }
            // Receiving any frame advances the server's logical clock, so
            // load queries evaluate `k` at a moving instant and the
            // tracker window can expire for an idle-then-querying client.
            now += RECV_TICK;
            if faults.stall.is_some_and(|s| s.covers(idx)) {
                if let Some(m) = &metrics {
                    m.stalled.incr(1);
                }
                continue; // unresponsive: swallow the frame
            }
            let msg = match Message::decode_frame(frame) {
                Ok(m) => m,
                Err(_) => {
                    if let Some(m) = &metrics {
                        m.bad_frames.incr(1);
                    }
                    continue; // drop bad frames
                }
            };
            // Admission, tracker accounting and the serve counter happen
            // here at demux time — one budget, in frame-arrival order —
            // regardless of which worker executes the suffix.
            let job = match msg {
                Message::OffloadRequest {
                    request_id,
                    partition_point,
                    precision,
                    payload: _payload,
                } => {
                    let p = partition_point as usize;
                    if precision != Precision::Fp32 {
                        // The server dequantizes narrow uploads before the
                        // suffix runs; the emulated suffix cost is
                        // unchanged, so only the count is recorded.
                        if let Some(m) = &metrics {
                            m.quantized_offloads.incr(1);
                        }
                    }
                    // Predicted suffix time scaled by the environment's
                    // load factor: the signal admission control budgets.
                    let predicted = predicted_suffix(&edge_models, &graph, p);
                    let scaled = predicted.scale(env.k());
                    // Batch-aware admission: a request falling into the
                    // open batch's partition bucket rides its completion
                    // slot instead of growing the backlog (with the
                    // caller's `AdmissionConfig::max_batch` — default 1 —
                    // this is exactly the per-request budget).
                    match admission.assess_batched(now, scaled, tuning.bucket(p)) {
                        AdmissionDecision::Reject { retry_after } => {
                            if let Some(m) = &metrics {
                                m.rejected.incr(1);
                            }
                            // Piggyback the measured load factor so the
                            // shed client can pre-seed its profile.
                            let k = tracker.lock().unwrap_or_else(|e| e.into_inner()).k_at(now);
                            Job::Forward(pool.ctx.frame(&Message::Rejected {
                                request_id,
                                retry_after_us: retry_after.as_micros_f64().round() as u64,
                                k_micro: Message::k_to_micro(k),
                            }))
                        }
                        AdmissionDecision::Admit { completion, .. } => {
                            tracker
                                .lock()
                                .unwrap_or_else(|e| e.into_inner())
                                .record(completion, scaled, predicted);
                            served += 1;
                            if let Some(m) = &metrics {
                                m.offloads.incr(1);
                            }
                            Job::Suffix {
                                request_id,
                                server_time_us: completion.since(now).as_micros_f64().round()
                                    as u64,
                                p,
                            }
                        }
                    }
                }
                Message::LoadQuery => {
                    let k = tracker.lock().unwrap_or_else(|e| e.into_inner()).k_at(now);
                    if let Some(m) = &metrics {
                        m.load_queries.incr(1);
                        m.k.set(k);
                    }
                    Job::Forward(pool.ctx.frame(&Message::LoadReply {
                        k_micro: Message::k_to_micro(k),
                    }))
                }
                Message::Probe { .. } => {
                    if let Some(m) = &metrics {
                        m.probe_acks.incr(1);
                    }
                    Job::Forward(pool.ctx.frame(&Message::ProbeAck))
                }
                Message::Shutdown => break,
                // Server never receives responses/replies/acks/rejections.
                Message::OffloadResponse { .. }
                | Message::LoadReply { .. }
                | Message::ProbeAck
                | Message::Rejected { .. } => continue,
            };
            // One dead client must not take the server down: drop its
            // route and keep serving the others.
            if let Some(route) = replies.get(&client) {
                if !pool.dispatch(client, route, job) {
                    replies.remove(&client);
                }
            }
        }
        // Drain in-flight suffixes before releasing the reply routes, so
        // every frame received before the shutdown is still answered.
        pool.join();
        served
    });
    ServerHandle {
        tx: mux_tx,
        rx: client_rx,
        next_client: Arc::new(AtomicUsize::new(1)),
        join: Some(join),
    }
}

fn predicted_suffix(models: &PredictionModels, graph: &ComputationGraph, p: usize) -> SimDuration {
    if p >= graph.len() {
        SimDuration::ZERO
    } else {
        models.predict_range(graph, p + 1, graph.len())
    }
}

impl ServerHandle {
    /// Sends a raw frame to the server as session 0 (used by the client
    /// and by fault-injection tests).
    ///
    /// # Errors
    ///
    /// Fails if the server thread has exited.
    pub fn send_frame(&self, frame: Bytes) -> Result<(), SendError<Bytes>> {
        self.tx
            .send(ToServer::Frame(0, Frame::from_contiguous(frame)))
            .map_err(|e| {
                let ToServer::Frame(_, frame) = e.0 else {
                    unreachable!("send_frame only wraps frames");
                };
                SendError(frame.flatten())
            })
    }

    /// Opens an additional client session with its own reply channel.
    /// Frames sent over the returned [`ClientConn`] are answered on that
    /// session's channel only, so concurrent clients never steal each
    /// other's responses.
    #[must_use]
    pub fn connect(&self) -> ClientConn {
        self.connector().connect()
    }

    /// A cloneable [`SessionConnector`] that keeps opening sessions after
    /// the handle itself has moved elsewhere (the socket acceptor thread).
    #[must_use]
    pub fn connector(&self) -> SessionConnector {
        SessionConnector {
            tx: self.tx.clone(),
            next_client: Arc::clone(&self.next_client),
        }
    }

    /// Waits for the server thread to exit on its own — that is, until some
    /// client sends [`Message::Shutdown`] — and returns how many offload
    /// requests it served. `loadpart serve` blocks here; unlike
    /// [`ServerHandle::shutdown`] no shutdown frame is injected locally.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::ServerPanicked`] when the server thread panicked.
    pub fn wait(mut self) -> Result<u64, ProtocolError> {
        self.join
            .take()
            .expect("not yet joined")
            .join()
            .map_err(|_| ProtocolError::ServerPanicked)
    }

    /// Receives the next frame from the server, blocking indefinitely.
    /// Client-side request paths must use [`Self::recv_frame_timeout`] (or
    /// the [`FrameChannel`] deadline API) instead, so a stalled server
    /// cannot hang them.
    ///
    /// # Errors
    ///
    /// Fails if the server thread has exited and drained.
    pub fn recv_frame(&self) -> Result<Bytes, RecvError> {
        self.rx.recv().map(Frame::flatten)
    }

    /// Receives the next frame from the server, waiting at most `timeout`.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::Timeout`] when nothing arrives in time,
    /// [`ProtocolError::Disconnected`] when the server thread has exited
    /// and the channel drained.
    pub fn recv_frame_timeout(&self, timeout: Duration) -> Result<Bytes, ProtocolError> {
        match self.rx.recv_timeout(timeout) {
            Ok(frame) => Ok(frame.flatten()),
            Err(RecvTimeoutError::Timeout) => Err(ProtocolError::Timeout),
            Err(RecvTimeoutError::Disconnected) => Err(ProtocolError::Disconnected),
        }
    }

    /// Shuts the server down and returns how many offload requests it
    /// served. A panicked server thread is reported as
    /// [`ProtocolError::ServerPanicked`] instead of propagating the panic
    /// into the caller.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::ServerPanicked`] when the server thread panicked.
    pub fn shutdown(mut self) -> Result<u64, ProtocolError> {
        let _ = self.send_frame(Message::Shutdown.encode().expect("no payload"));
        self.join
            .take()
            .expect("not yet joined")
            .join()
            .map_err(|_| ProtocolError::ServerPanicked)
    }
}

impl FrameChannel for ServerHandle {
    fn send(&self, frame: Bytes) -> Result<(), ProtocolError> {
        self.send_frame(frame)
            .map_err(|_| ProtocolError::Disconnected)
    }

    fn recv_deadline(&self, deadline: Instant) -> Result<Bytes, ProtocolError> {
        self.recv_frame_timeout(deadline.saturating_duration_since(Instant::now()))
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
    /// same handle to [`spawn_server_instrumented`] to see client and
    /// server sides of one session in a single registry.
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
            .send_frame(Bytes::from_static(b"\xffgarbage"))
            .expect("alive");
        server.send_frame(Bytes::new()).expect("alive");
        server
            .send_frame(Bytes::from_static(&[9, 1, 2, 3]))
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
            .send_frame(
                Message::Probe {
                    payload: Bytes::from(vec![0u8; 1024]),
                }
                .encode()
                .expect("encodes"),
            )
            .expect("alive");
        let ack = Message::decode(server.recv_frame().expect("alive")).expect("valid");
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
            server.recv_frame_timeout(Duration::from_millis(10)),
            Err(ProtocolError::Timeout)
        );
        // Kill the server thread; the channel now reports Disconnected.
        server
            .send_frame(Message::Shutdown.encode().expect("encodes"))
            .expect("alive");
        // Wait for the thread to exit by joining via a fresh handle scope.
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(
            server.recv_frame_timeout(Duration::from_millis(10)),
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
                .send_frame(Message::LoadQuery.encode().expect("encodes"))
                .expect("alive");
            match Message::decode(server.recv_frame().expect("alive")).expect("valid") {
                Message::LoadReply { k_micro } => last_k = Message::micro_to_k(k_micro),
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(last_k, 1.0, "stale samples must age out while idle");
        server.shutdown().expect("clean shutdown");
    }

    #[test]
    fn scripted_crash_disconnects_both_directions() {
        let (_, edge) = models();
        let graph = lp_models::alexnet(1);
        let server = spawn_server_with_faults(
            graph,
            edge.clone(),
            1.0,
            ServerFaultSpec {
                crash_after_frames: Some(1),
                ..ServerFaultSpec::default()
            },
        );
        // Frame 1 is served; frame 2 crosses the threshold and kills the
        // thread without a reply.
        server
            .send_frame(
                Message::Probe {
                    payload: Bytes::new(),
                }
                .encode()
                .expect("encodes"),
            )
            .expect("alive");
        assert_eq!(
            Message::decode(server.recv_frame().expect("alive")).expect("valid"),
            Message::ProbeAck
        );
        server
            .send_frame(Message::LoadQuery.encode().expect("encodes"))
            .expect("queued");
        assert_eq!(
            server.recv_frame_timeout(Duration::from_secs(1)),
            Err(ProtocolError::Disconnected)
        );
    }

    #[test]
    fn scripted_stall_swallows_the_window_then_recovers() {
        let (_, edge) = models();
        let graph = lp_models::alexnet(1);
        let server = spawn_server_with_faults(
            graph,
            edge.clone(),
            1.0,
            ServerFaultSpec {
                stall: Some(StallWindow {
                    after_frames: 0,
                    frames: 2,
                }),
                ..ServerFaultSpec::default()
            },
        );
        // Frames 0 and 1 go unanswered; frame 2 is served again.
        for _ in 0..2 {
            server
                .send_frame(Message::LoadQuery.encode().expect("encodes"))
                .expect("alive");
            assert_eq!(
                server.recv_frame_timeout(Duration::from_millis(50)),
                Err(ProtocolError::Timeout)
            );
        }
        server
            .send_frame(Message::LoadQuery.encode().expect("encodes"))
            .expect("alive");
        let reply = Message::decode(
            server
                .recv_frame_timeout(Duration::from_secs(1))
                .expect("served again"),
        )
        .expect("valid");
        assert!(matches!(reply, Message::LoadReply { .. }));
        server.shutdown().expect("clean shutdown");
    }

    #[test]
    fn scripted_panic_is_reported_not_propagated() {
        let (_, edge) = models();
        let graph = lp_models::alexnet(1);
        let server = spawn_server_with_faults(
            graph,
            edge.clone(),
            1.0,
            ServerFaultSpec {
                panic_after_frames: Some(1),
                ..ServerFaultSpec::default()
            },
        );
        // Frame 1 is served; frame 2 (the shutdown itself) crosses the
        // threshold and panics the thread. The teardown path must surface
        // that as an error, not a propagated panic.
        server
            .send_frame(
                Message::Probe {
                    payload: Bytes::new(),
                }
                .encode()
                .expect("encodes"),
            )
            .expect("alive");
        assert_eq!(
            Message::decode(server.recv_frame().expect("alive")).expect("valid"),
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
            .send_frame(Message::LoadQuery.encode().expect("encodes"))
            .expect("alive");
        let deadline = Instant::now() + Duration::from_secs(1);
        for conn in [&a, &b] {
            let reply = Message::decode(conn.recv_deadline(deadline).expect("routed")).expect("ok");
            assert!(matches!(reply, Message::LoadReply { .. }));
        }
        let reply = Message::decode(
            server
                .recv_frame_timeout(Duration::from_secs(1))
                .expect("routed"),
        )
        .expect("ok");
        assert!(matches!(reply, Message::LoadReply { .. }));
        server.shutdown().expect("clean shutdown");
    }

    #[test]
    fn admission_rejects_over_the_wire() {
        let (_, edge) = models();
        let graph = lp_models::alexnet(1);
        let server = spawn_server_full(
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
        );
        server
            .send_frame(
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
        let reply = Message::decode(
            server
                .recv_frame_timeout(Duration::from_secs(1))
                .expect("answered"),
        )
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
        let server = spawn_server_full(
            graph.clone(),
            edge.clone(),
            env.clone(),
            ServerFaultSpec::default(),
            None,
            &Telemetry::disabled(),
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

    /// Stress the shared partition cache from the real worker pool: every
    /// lookup must be classified (hits + misses == lookups), distinct
    /// partition points miss at most once, and each session's replies
    /// arrive in dispatch order (the sharding invariant).
    #[test]
    fn worker_pool_hammers_the_shared_partition_cache_consistently() {
        let graph = Arc::new(lp_models::alexnet(1));
        let cache = Arc::new(PartitionCache::new());
        let pool = WorkerPool::spawn(
            4,
            ExecContext {
                graph: Arc::clone(&graph),
                cache: Arc::clone(&cache),
                // Default tuning: continuous batching on (max_batch 16,
                // bucket 4) — the invariants below must hold under it.
                tuning: ServerTuning::default(),
                batched_suffixes: None,
                suffix_batches: None,
            },
        );
        let sessions = 16usize;
        let per_session = 25usize;
        let mut rxs = Vec::new();
        for s in 0..sessions {
            let (tx, rx) = channel::<Frame>();
            let route = ReplyRoute::new(tx, None);
            for j in 0..per_session {
                let job = Job::Suffix {
                    request_id: j as u64,
                    server_time_us: 0,
                    p: (s + j) % (graph.len() + 1),
                };
                assert!(pool.dispatch(s, &route, job));
            }
            rxs.push(rx);
        }
        for rx in &rxs {
            for j in 0..per_session {
                let frame = rx
                    .recv_timeout(Duration::from_secs(5))
                    .expect("every job is answered");
                match Message::decode_frame(frame).expect("valid reply") {
                    Message::OffloadResponse { request_id, .. } => {
                        assert_eq!(request_id, j as u64, "per-session FIFO");
                    }
                    other => panic!("expected offload response, got {other:?}"),
                }
            }
        }
        pool.join();
        let stats = cache.stats();
        let lookups = (sessions * per_session) as u64;
        assert_eq!(stats.hits + stats.misses, lookups, "every lookup counted");
        assert!(
            stats.misses <= (graph.len() + 1) as u64,
            "at most one miss per distinct point: {stats:?}"
        );
        assert_eq!(cache.len() as u64, stats.misses);
    }

    /// Continuous batching coalesces queued same-bucket suffixes into one
    /// charged execution (visible through the batching counters) without
    /// reordering any session's replies — even with control forwards
    /// interleaved into the same worker queue.
    #[test]
    fn worker_batching_coalesces_without_reordering() {
        let graph = Arc::new(lp_models::alexnet(1));
        let batched = Counter::default();
        let batches = Counter::default();
        let pool = WorkerPool::spawn(
            1,
            ExecContext {
                graph: Arc::clone(&graph),
                cache: Arc::new(PartitionCache::new()),
                tuning: ServerTuning {
                    workers: 1,
                    legacy_framing: false,
                    // Each execution holds the worker long enough for the
                    // remaining dispatches below to queue up behind it, so
                    // at most the first batch is a singleton.
                    suffix_cost: Duration::from_millis(5),
                    max_batch: 8,
                    batch_bucket: 4,
                },
                batched_suffixes: Some(batched.clone()),
                suffix_batches: Some(batches.clone()),
            },
        );
        let sessions = 4usize;
        let rounds = 6usize;
        let mut rxs = Vec::new();
        let mut routes = Vec::new();
        for _ in 0..sessions {
            let (tx, rx) = channel::<Frame>();
            routes.push(ReplyRoute::new(tx, None));
            rxs.push(rx);
        }
        // Per round: one same-bucket suffix for every session, then a
        // control forward for session 0 — which at that point has a suffix
        // queued or batched ahead of it, the exact reordering hazard.
        for round in 0..rounds {
            for (s, route) in routes.iter().enumerate() {
                let job = Job::Suffix {
                    request_id: round as u64,
                    server_time_us: 0,
                    p: 8,
                };
                assert!(pool.dispatch(s, route, job));
            }
            let ack = pool.ctx.frame(&Message::ProbeAck);
            assert!(pool.dispatch(0, &routes[0], Job::Forward(ack)));
        }
        // Session 0 must see each round's offload response strictly before
        // the probe ack dispatched after it.
        for round in 0..rounds {
            for expect_ack in [false, true] {
                let frame = rxs[0]
                    .recv_timeout(Duration::from_secs(5))
                    .expect("session 0 reply");
                match (expect_ack, Message::decode_frame(frame).expect("valid")) {
                    (false, Message::OffloadResponse { request_id, .. }) => {
                        assert_eq!(request_id, round as u64, "suffix FIFO");
                    }
                    (true, Message::ProbeAck) => {}
                    (_, other) => panic!("round {round}: unexpected reply {other:?}"),
                }
            }
        }
        for rx in rxs.iter().skip(1) {
            for round in 0..rounds {
                let frame = rx.recv_timeout(Duration::from_secs(5)).expect("reply");
                match Message::decode_frame(frame).expect("valid") {
                    Message::OffloadResponse { request_id, .. } => {
                        assert_eq!(request_id, round as u64, "per-session FIFO");
                    }
                    other => panic!("expected offload response, got {other:?}"),
                }
            }
        }
        pool.join();
        assert!(batches.get() >= 1, "at least one coalesced batch executed");
        assert!(
            batched.get() >= 2,
            "batched suffixes counted: {}",
            batched.get()
        );
    }

    /// The tuning knobs change scheduling and framing, not behaviour: a
    /// session against the worker pool produces the same records as one
    /// against the inline (workers = 0) server.
    #[test]
    fn tuned_server_with_suffix_cost_still_serves_identically() {
        let (user, edge) = models();
        let graph = Arc::new(lp_models::alexnet(1));
        let mut runs = Vec::new();
        for tuning in [
            ServerTuning::single_threaded_legacy(),
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
