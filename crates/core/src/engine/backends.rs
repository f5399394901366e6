//! The concrete device/transport/server implementations the drivers
//! compose the engine from.
//!
//! * [`SimulatedDevice`] + [`LinkTransport`] + [`GpuBackend`] — the
//!   co-simulation: node-time tables sampled per request, a jittered
//!   [`Link`], and a client's view of the one [`EdgeServer`] (its
//!   queueing GPU, tracker, watchdog and admission control). Each table
//!   is built once per run (`DeviceModel::node_times`,
//!   `GpuModel::node_times`) and the backends borrow it.
//!   `OffloadingSystem` offloads through the server's foreground context;
//!   `multi_client_run` gives every client a view over its own context of
//!   one shared server.
//! * [`NullDevice`] + [`WireTransport`] + [`WireBackend`] — the threaded
//!   runtime: logical time, everything crossing the client/server boundary
//!   framed as [`Message`]s over channels.
//!
//! The wire backends are written for a hostile wire: every receive runs
//! against a deadline ([`FrameChannel::recv_deadline`]), stale frames left
//! over from a timed-out earlier exchange are skipped rather than
//! mis-attributed, and a dead or silent server surfaces as
//! [`ProtocolError::Disconnected`] / [`ProtocolError::Timeout`] for the
//! engine's retry-and-degrade logic — never as a client panic.

use crate::admission::AdmissionDecision;
use crate::engine::{DeviceExecutor, ServerBackend, SuffixOutcome, SuffixRequest, Transport};
use crate::pool::zero_payload;
use crate::protocol::{Frame, Message, ProtocolError};
use crate::system::EdgeServer;
use crate::threaded::{FrameChannel, ServerHandle};
use lp_graph::ComputationGraph;
use lp_hardware::{NodeTimes, TaskId};
use lp_net::{Link, ProbeProfiler};
use lp_sim::{SimDuration, SimTime};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::{Duration, Instant};

/// Device execution by sampling the graph's device node-time table
/// ([`DeviceModel::node_times`](lp_hardware::DeviceModel::node_times)),
/// one draw per node.
#[derive(Debug)]
pub struct SimulatedDevice<'a> {
    /// The user-end device's node-time table for the engine's graph.
    pub times: &'a NodeTimes,
}

impl DeviceExecutor for SimulatedDevice<'_> {
    fn execute_range(
        &mut self,
        graph: &ComputationGraph,
        from: usize,
        to: usize,
        rng: &mut StdRng,
    ) -> SimDuration {
        assert_eq!(self.times.len(), graph.len(), "table of another graph");
        self.times.sample(from..to, rng).sum()
    }
}

/// A device that does not model compute time (the threaded runtime's
/// logical time).
#[derive(Debug)]
pub struct NullDevice;

impl DeviceExecutor for NullDevice {
    fn execute_range(
        &mut self,
        _graph: &ComputationGraph,
        _from: usize,
        _to: usize,
        _rng: &mut StdRng,
    ) -> SimDuration {
        SimDuration::ZERO
    }
}

/// Transport over a simulated [`Link`]: probes and uploads both feed the
/// bandwidth estimator.
#[derive(Debug)]
pub struct LinkTransport<'a> {
    /// The device<->server link.
    pub link: &'a Link,
}

impl Transport for LinkTransport<'_> {
    fn probe_and_query_k<S: ServerBackend + ?Sized>(
        &mut self,
        profiler: &mut ProbeProfiler,
        probes: usize,
        backend: &mut S,
        now: SimTime,
        rng: &mut StdRng,
    ) -> Result<f64, ProtocolError> {
        for _ in 0..probes {
            let (_mbps, _end) = profiler.probe(self.link, now, rng);
        }
        backend.query_k(now)
    }

    fn upload(
        &mut self,
        profiler: &mut ProbeProfiler,
        bytes: u64,
        start: SimTime,
        rng: &mut StdRng,
    ) -> Result<SimTime, ProtocolError> {
        let end = self.link.upload_end(bytes, start, rng);
        profiler.record_passive(bytes, start, end, self.link.latency);
        Ok(end)
    }

    fn download(&mut self, bytes: u64, start: SimTime, rng: &mut StdRng) -> SimTime {
        self.link.download_end(bytes, start, rng)
    }
}

/// A client's view of the co-simulated [`EdgeServer`], built by
/// [`EdgeServer::backend`]: suffix kernels are sampled from the client
/// graph's edge kernel-time table
/// ([`GpuModel::node_times`](lp_hardware::GpuModel::node_times)) and
/// submitted to the server GPU's real queueing in the client's context;
/// `k` comes from the server's tracker, which every view shares, and the
/// server's watchdog polls it on every request.
#[derive(Debug)]
pub struct GpuBackend<'a> {
    pub(crate) server: &'a mut EdgeServer,
    pub(crate) kernel_times: &'a NodeTimes,
    pub(crate) ctx: usize,
}

impl ServerBackend for GpuBackend<'_> {
    fn advance(&mut self, now: SimTime) {
        self.server.gpu.advance_to(now);
    }

    fn monitor(&mut self, now: SimTime) {
        let server = &mut *self.server;
        server
            .watchdog
            .poll(now, server.gpu.busy_time(), &mut server.tracker);
    }

    fn query_k(&mut self, now: SimTime) -> Result<f64, ProtocolError> {
        Ok(self.server.tracker.k_at(now))
    }

    fn execute_suffix(
        &mut self,
        graph: &ComputationGraph,
        req: &SuffixRequest,
    ) -> Result<SuffixOutcome, ProtocolError> {
        let server = &mut *self.server;
        server.gpu.advance_to(req.arrive);
        let n = graph.len();
        assert_eq!(self.kernel_times.len(), n, "table of another graph");
        // The kernels' noise comes from the request's own stream, not the
        // client engine's: what a server draws for a suffix depends only
        // on which request it is.
        let mut noise = StdRng::seed_from_u64(req.noise_seed);
        let kernels: Vec<SimDuration> = self.kernel_times.sample(req.p..n, &mut noise).collect();
        // advance_to can overshoot a slice boundary; the request becomes
        // visible to the scheduler at the GPU's current instant (the gap
        // is genuine queueing behind the in-flight kernel).
        let submit_at = req.arrive.max(server.gpu.now());
        if let Some(admission) = server.admission.as_mut() {
            // Predicted occupancy = contention-free kernel time stretched
            // by the current load factor — the same §III-C signal the
            // clients decide on.
            let predicted = kernels
                .iter()
                .fold(SimDuration::ZERO, |acc, &kernel| acc + kernel);
            let k = server.tracker.k_at(submit_at).max(1.0);
            if let AdmissionDecision::Reject { retry_after } =
                admission.assess(submit_at, predicted.scale(k))
            {
                return Ok(SuffixOutcome::Rejected { retry_after, k });
            }
        }
        let task = server.gpu.submit(self.ctx, submit_at, kernels);
        Ok(SuffixOutcome::Pending { task })
    }

    fn wait(&mut self, task: TaskId) -> SimTime {
        self.server.gpu.run_until_complete(task)
    }

    fn complete(&mut self, completion: SimTime, observed: SimDuration, predicted: SimDuration) {
        self.server.tracker.record(completion, observed, predicted);
    }
}

/// Decodes a reply frame received mid-exchange. A well-formed frame from
/// a newer protocol revision (unknown tag) is reported as
/// [`ProtocolError::Unexpected`] — an old client talking to a new server
/// fails safe exactly like an out-of-order frame (retry, then local
/// fallback), instead of treating the peer's valid frame as corruption.
fn decode_reply(frame: Frame) -> Result<Message, ProtocolError> {
    Message::decode_frame(frame).map_err(|e| match e {
        ProtocolError::UnknownTag(tag) => ProtocolError::Unexpected(tag),
        other => other,
    })
}

/// Receives replies from `server` until `accept` takes one, for at most
/// `budget`. Every other reply is skipped as stale — the survivor of a
/// timed-out earlier exchange, or one that overtook the reply still owed
/// (a `LoadReply` ahead of a probe's ack); a frame that is not a reply at
/// all is [`ProtocolError::Unexpected`].
fn await_reply<C: FrameChannel + ?Sized, T>(
    server: &C,
    budget: Duration,
    accept: impl Fn(&Message) -> Option<T>,
) -> Result<T, ProtocolError> {
    let deadline = Instant::now() + budget;
    loop {
        let msg = decode_reply(server.recv_split_deadline(deadline)?)?;
        if let Some(out) = accept(&msg) {
            return Ok(out);
        }
        match msg {
            Message::OffloadResponse { .. }
            | Message::ProbeAck
            | Message::LoadReply { .. }
            | Message::Rejected { .. } => {}
            other => return Err(ProtocolError::Unexpected(other.tag())),
        }
    }
}

/// Accepts a `LoadReply`, yielding its load factor.
fn load_reply(msg: &Message) -> Option<f64> {
    match *msg {
        Message::LoadReply { k_micro } => Some(Message::micro_to_k(k_micro)),
        _ => None,
    }
}

/// Server backend over the wire protocol: suffixes and load queries are
/// framed [`Message`]s answered by a [`ServerHandle`]'s server thread (or
/// any other [`FrameChannel`], e.g. an emulated link wrapping one).
#[derive(Debug)]
pub struct WireBackend<'a, C: FrameChannel + ?Sized = ServerHandle> {
    /// The frame pipe to the server.
    pub server: &'a C,
    /// Wall-clock budget for one exchange (send + matching reply).
    pub deadline: Duration,
}

impl<C: FrameChannel + ?Sized> ServerBackend for WireBackend<'_, C> {
    fn query_k(&mut self, _now: SimTime) -> Result<f64, ProtocolError> {
        self.server.send_split(Message::LoadQuery.to_frame()?)?;
        await_reply(self.server, self.deadline, load_reply)
    }

    fn execute_suffix(
        &mut self,
        graph: &ComputationGraph,
        req: &SuffixRequest,
    ) -> Result<SuffixOutcome, ProtocolError> {
        // The simulated tensor payload comes from the shared zero pool and
        // rides the frame as an `Arc` reference — no per-request
        // allocation, no memcpy on the in-process channel path.
        let frame = Message::OffloadRequest {
            request_id: req.request_id,
            partition_point: req.p as u32,
            precision: req.precision,
            payload: zero_payload(req.upload_bytes as usize),
        }
        .to_frame()?;
        self.server.send_split(frame)?;
        // Replies to a request we already gave up on are skipped as stale.
        await_reply(self.server, self.deadline, |msg| match *msg {
            Message::OffloadResponse {
                request_id,
                server_time_us,
                ref payload,
            } if request_id == req.request_id => {
                debug_assert_eq!(payload.len() as u64, graph.output().size_bytes());
                let server_time = SimDuration::from_micros_f64(server_time_us as f64);
                Some(SuffixOutcome::Done {
                    completion: req.arrive + server_time,
                })
            }
            // Admission control shed this request: surface the rejection
            // (with the piggybacked load factor) so the engine degrades
            // without retrying.
            Message::Rejected {
                request_id,
                retry_after_us,
                k_micro,
            } if request_id == req.request_id => Some(SuffixOutcome::Rejected {
                retry_after: SimDuration::from_micros(retry_after_us),
                k: Message::micro_to_k(k_micro),
            }),
            _ => None,
        })
    }

    fn complete(&mut self, _completion: SimTime, _observed: SimDuration, _predicted: SimDuration) {
        // The server thread's own tracker observed the execution when it
        // served the request; the client has nothing to record.
    }
}

/// Transport over the wire protocol: a profiler refresh is one pipelined
/// exchange (every probe and the load query in one batch, then the acks
/// and the reply); payloads ride inside the offload request, so transfer
/// time is logical.
#[derive(Debug)]
pub struct WireTransport<'a, C: FrameChannel + ?Sized = ServerHandle> {
    /// The frame pipe to the server.
    pub server: &'a C,
    /// Wall-clock budget for each awaited ack and reply.
    pub deadline: Duration,
}

impl<C: FrameChannel + ?Sized> Transport for WireTransport<'_, C> {
    /// Sends `probes` probe frames and the `LoadQuery` with one
    /// [`FrameChannel::send_batch`], then awaits each ack, then the
    /// `LoadReply`, each within `deadline`. The server answers in arrival
    /// order, so the exchange costs one round trip; it fails unless every
    /// ack and the reply arrive, so a lost probe fails it by
    /// [`ProtocolError::Timeout`] even when its query was answered.
    fn probe_and_query_k<S: ServerBackend + ?Sized>(
        &mut self,
        profiler: &mut ProbeProfiler,
        probes: usize,
        _backend: &mut S,
        _now: SimTime,
        _rng: &mut StdRng,
    ) -> Result<f64, ProtocolError> {
        let probe = Message::Probe {
            payload: zero_payload(profiler.next_probe_bytes() as usize),
        }
        .to_frame()?;
        let mut batch = vec![probe; probes];
        batch.push(Message::LoadQuery.to_frame()?);
        self.server.send_batch(batch)?;
        for _ in 0..probes {
            await_reply(self.server, self.deadline, |msg| {
                matches!(msg, Message::ProbeAck).then_some(())
            })?;
        }
        await_reply(self.server, self.deadline, load_reply)
    }

    fn upload(
        &mut self,
        _profiler: &mut ProbeProfiler,
        _bytes: u64,
        start: SimTime,
        _rng: &mut StdRng,
    ) -> Result<SimTime, ProtocolError> {
        // The payload ships inside the OffloadRequest frame.
        Ok(start)
    }

    fn download(&mut self, _bytes: u64, start: SimTime, _rng: &mut StdRng) -> SimTime {
        start
    }
}
