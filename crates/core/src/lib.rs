//! LoADPart — load-aware dynamic DNN partition for edge offloading.
//!
//! This crate is the paper's primary contribution, built on the substrate
//! crates of the workspace:
//!
//! * [`algorithm`] — Problem (1) and Algorithm 1: the O(n) partition
//!   decision over the topological order with prefix/suffix sums, the load
//!   factor `k` multiplied onto the suffix sums at query time (§IV).
//! * [`cache`] — the partition cache keyed by partition point (§III-A).
//! * [`admission`] — server-side admission control: a bounded pending-work
//!   budget over the `k`-scaled predicted suffix times; past it the server
//!   sheds load with [`protocol::Message::Rejected`] instead of queueing.
//! * [`baselines`] — local inference, full offloading, Neurosurgeon
//!   (bandwidth-aware, load-oblivious) and a DADS-style min-cut partitioner
//!   (the O(n³) comparator that motivates the light-weight algorithm).
//! * [`engine`] — the shared per-request offload pipeline
//!   ([`engine::OffloadEngine`]): profiler refresh, decision, prefix,
//!   upload, suffix hand-off and load feedback, generic over the
//!   [`engine::DeviceExecutor`] / [`engine::Transport`] /
//!   [`engine::ServerBackend`] traits. Every driver below is a thin
//!   composition over it, and all of them emit the one
//!   [`engine::InferenceRecord`] telemetry type.
//! * [`system`] — the end-to-end co-simulation: device execution, probe-
//!   based bandwidth estimation, upload over the link, and one
//!   [`system::EdgeServer`] (GPU queueing under background load, the `k`
//!   tracker, the GPU watchdog and admission control).
//! * [`threaded`] — the engine over real OS threads and the wire
//!   [`protocol`]: a server that answers each offload as soon as it
//!   admits it, and clients with deadline-based I/O, bounded retries and
//!   local fallback when the server misbehaves.
//! * [`transport`] — the real-socket transport: TCP / Unix-domain-socket
//!   implementations of [`threaded::FrameChannel`] with length-prefixed
//!   framing, and the [`transport::SocketServer`] behind `loadpart serve`
//!   so server and clients run as separate OS processes.
//! * [`emulator`] — the one client-side fault layer: a deterministic
//!   link emulator over any frame channel that scripts per-frame drop,
//!   delay, corruption and duplication, models latency, jitter,
//!   token-bucket rate limiting, periodic stalls and connection resets,
//!   and goes dark while a shared outage switch is on.
//! * [`multi_client`] — N engines sharing one edge server.
//! * [`policy`] — the pluggable decision layer: the
//!   [`policy::PartitionPolicy`] trait every decision site dispatches
//!   through, the memoization wrapper, the online-learning bandit and the
//!   oracle reference policy.
//! * [`quant`] — the joint (p, precision) [`QuantPolicy`] that prices
//!   quantized uploads under an accuracy budget, and the symmetric
//!   quantization kernels whose packed sizes it charges.
//! * [`chaos`] — the chaos soak harness: N threaded clients, a scripted
//!   load spike and injected frame faults, asserting overload protection
//!   end to end (shedding, breakers, recovery).
//! * [`cluster`] — the multi-server edge cluster: per-server profiles
//!   and breakers behind a joint (server, p) decision with failover,
//!   plus the scripted-outage cluster chaos soak behind
//!   `loadpart chaos --cluster`.
//! * [`telemetry`] — the observability layer shared by every driver:
//!   metrics registry (counters/gauges/histograms) and per-request trace
//!   spans through pluggable sinks, zero-cost when disabled.
//! * [`pool`] — the shared zero-payload buffer pool backing the wire
//!   runtime's zero-copy framing.
//! * [`scenario`] — drivers that reproduce the paper's experiments
//!   (bandwidth sweeps for Figures 6–8, load timelines for Figures 2/9).
//! * [`compare`] — the policy-comparison subsystem behind
//!   `loadpart compare`: adversarial scenarios (nonstationary load,
//!   miscalibrated device model, drifting bandwidth) reporting per-policy
//!   latency and regret against the oracle.
//!
//! # Quickstart
//!
//! ```
//! use loadpart::{PartitionSolver, system::trained_models};
//! let graph = lp_models::alexnet(1);
//! let (user, edge) = trained_models(64, 7); // small profile for the doctest
//! let solver = PartitionSolver::new(&graph, &user, &edge);
//! // 8 Mbps, idle server: partial offloading wins.
//! let d = solver.decide(8.0, 1.0);
//! assert!(d.p < graph.len()); // not local
//! ```

// `deny`, not `forbid`: the transport's readiness loop carries the one
// narrowly scoped `#[allow(unsafe_code)]` in the workspace — a
// hand-declared `poll(2)` binding (std exposes no readiness API and the
// workspace links no external crates). Everything else stays safe code.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod admission;
pub mod algorithm;
pub mod baselines;
pub mod cache;
pub mod chaos;
pub mod cluster;
pub mod compare;
pub mod emulator;
pub mod energy;
pub mod engine;
pub mod multi_client;
pub mod policy;
pub mod pool;
pub mod protocol;
pub mod quant;
pub mod scenario;
pub mod system;
pub mod telemetry;
pub mod threaded;
pub mod transport;

pub use admission::{AdmissionConfig, AdmissionController, AdmissionDecision};
pub use algorithm::{Decision, PartitionSolver};
pub use baselines::{min_cut_partition, Policy};
pub use cache::PartitionCache;
pub use chaos::{chaos_run, ChaosConfig, ChaosTransport};
pub use cluster::{
    cluster_chaos_run, ClusterChaosConfig, ClusterChaosReport, ClusterEngine, ClusterLink,
    ClusterTransport, RouteInfo,
};
pub use compare::{compare_policies, run_scenario, CompareConfig, ScenarioKind, ScenarioResult};
pub use emulator::{EmulatedLink, FaultAction, FaultPlan, LinkSpec, OutageSwitch};
pub use energy::{decide_energy, PowerModel};
pub use engine::{
    BreakerState, CircuitBreaker, EngineConfig, InferenceRecord, OffloadEngine, Outcome, Transport,
    WireGate,
};
pub use lp_graph::{
    quantized_tensor_bytes, quantized_transmission_series, AccuracyModel, Precision,
};
pub use multi_client::{
    multi_client_run, multi_client_run_with_telemetry, MultiClientConfig, MultiClientReport,
};
pub use policy::{BanditConfig, BanditPolicy, MemoPolicy, PartitionPolicy, PolicyContext};
pub use protocol::{framing_bytes_copied, Frame, Message, ProtocolError, PROTOCOL_VERSION};
pub use quant::{dequantize_into, quantize_into, QuantPolicy, DEFAULT_ACCURACY_BUDGET};
pub use scenario::{
    bandwidth_sweep, load_timeline, load_timeline_with_telemetry, LoadPhase, TimelinePoint,
};
pub use system::{OffloadingSystem, SystemConfig, Testbed};
pub use telemetry::{JsonlSink, MetricsSnapshot, RingSink, SpanKind, Telemetry};
pub use threaded::{
    spawn_server, spawn_server_tuned, FrameChannel, LoadEnv, ServerFaultSpec, ServerHandle,
    ServerTuning, StallWindow, ThreadedClient,
};
#[cfg(unix)]
pub use transport::UdsFrameChannel;
pub use transport::{default_shards, measure_bandwidth, SocketServer, TcpFrameChannel};
