//! Multiple LoADPart clients sharing one edge GPU.
//!
//! The paper motivates load awareness with "tasks offloaded from other
//! user-end devices" (§II) but evaluates against synthetic background
//! processes. This module closes the loop: N clients each run a full
//! [`OffloadEngine`] against one shared [`EdgeServer`], client `i`'s
//! suffixes in GPU context `i`, so each client's offloaded partitions are
//! exactly the contention every other client experiences. The server's
//! load-factor tracker aggregates all observed partition executions, as a
//! real deployment's monitor would, and the report reads the run's
//! figures (GPU utilization, final `k`, watchdog resets, rejections) from
//! the server.
//!
//! The emergent behaviour reproduces the paper's story at system scale: as
//! the client population grows, the measured `k` rises and every client
//! shifts its partition point device-ward, shedding load from the GPU.
//!
//! Because the GPU is shared, suffixes queue: the engine returns
//! [`Outcome::Deferred`] and the event loop here interleaves clients,
//! settling each [`PendingRequest`] when the simulator reports its
//! completion.

use crate::admission::AdmissionConfig;
use crate::algorithm::PartitionSolver;
use crate::baselines::Policy;
use crate::engine::backends::{LinkTransport, SimulatedDevice};
use crate::engine::{
    check_bandwidth, ConfigError, EngineConfig, InferenceRecord, OffloadEngine, Outcome,
    PendingRequest,
};
use crate::system::EdgeServer;
use crate::telemetry::Telemetry;
use lp_graph::ComputationGraph;
use lp_hardware::{DeviceModel, NodeTimes};
use lp_net::{BandwidthTrace, Link};
use lp_profiler::PredictionModels;
use lp_sim::{SimDuration, SimTime};
use std::sync::Arc;

/// Configuration of a multi-client run.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiClientConfig {
    /// Number of concurrent LoADPart clients.
    pub n_clients: usize,
    /// Per-client uplink bandwidth (independent links; contention is at
    /// the GPU).
    pub bandwidth_mbps: f64,
    /// Simulated experiment length.
    pub duration: SimDuration,
    /// Think time between a client's completion and its next request.
    pub think_time: SimDuration,
    /// Device-side profiler period (bandwidth probe + `k` fetch).
    pub profiler_period: SimDuration,
    /// Decision policy all clients run.
    pub policy: Policy,
    /// RNG seed.
    pub seed: u64,
    /// Server-side admission budget; `None` keeps the unbounded
    /// pre-admission-control behaviour.
    pub admission: Option<AdmissionConfig>,
}

impl Default for MultiClientConfig {
    fn default() -> Self {
        Self {
            n_clients: 4,
            bandwidth_mbps: 8.0,
            duration: SimDuration::from_secs(60),
            think_time: SimDuration::from_millis(100),
            profiler_period: SimDuration::from_secs(5),
            policy: Policy::LoadPart,
            seed: 7,
            admission: None,
        }
    }
}

impl MultiClientConfig {
    /// Checks the configuration describes a runnable experiment.
    ///
    /// # Errors
    ///
    /// * [`ConfigError::ZeroClients`] if `n_clients == 0`;
    /// * [`ConfigError::NonPositiveBandwidth`] unless `bandwidth_mbps > 0`
    ///   (NaN included);
    /// * [`ConfigError::ZeroDuration`] if `duration` is zero.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.n_clients == 0 {
            return Err(ConfigError::ZeroClients);
        }
        check_bandwidth(self.bandwidth_mbps)?;
        if self.duration == SimDuration::ZERO {
            return Err(ConfigError::ZeroDuration);
        }
        Ok(())
    }
}

/// Aggregate results of a multi-client run.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiClientReport {
    /// Every completed inference, in completion order. The record's
    /// `client` field says which client issued it.
    pub records: Vec<InferenceRecord>,
    /// GPU utilization over the run.
    pub gpu_utilization: f64,
    /// The server tracker's final load factor.
    pub final_k: f64,
    /// How many times the GPU-utilization watchdog reset the load tracker
    /// during the run (§IV: an under-utilized GPU with a stale high `k`
    /// must be rediscoverable by locally-inferring clients).
    pub watchdog_resets: u64,
    /// Requests the server's admission control shed (each still completed
    /// locally on its device; see [`InferenceRecord::rejected`]).
    pub rejections: u64,
}

impl MultiClientReport {
    /// Mean end-to-end latency across all clients (seconds).
    #[must_use]
    pub fn mean_latency_secs(&self) -> f64 {
        if self.records.is_empty() {
            return 0.0;
        }
        self.records
            .iter()
            .map(|r| r.total.as_secs_f64())
            .sum::<f64>()
            / self.records.len() as f64
    }

    /// Fraction of all requests the server shed — graceful degradation in
    /// one number.
    #[must_use]
    pub fn shed_ratio(&self) -> f64 {
        if self.records.is_empty() {
            return 0.0;
        }
        self.rejections as f64 / self.records.len() as f64
    }

    /// Per-client outcome breakdown (served remotely / decided locally /
    /// shed by the server / wire-fault fallback), client index ascending.
    #[must_use]
    pub fn per_client(&self) -> Vec<ClientOutcomes> {
        let n = self.records.iter().map(|r| r.client + 1).max().unwrap_or(0);
        let mut out: Vec<ClientOutcomes> = (0..n)
            .map(|client| ClientOutcomes {
                client,
                served_remote: 0,
                local: 0,
                shed: 0,
                fallback: 0,
            })
            .collect();
        for r in &self.records {
            let c = &mut out[r.client];
            if r.fallback_local {
                c.fallback += 1;
            } else if r.rejected {
                c.shed += 1;
            } else if r.offloaded() {
                c.served_remote += 1;
            } else {
                c.local += 1;
            }
        }
        out
    }

    /// Median partition point over the second half of the run (after the
    /// load factor has settled).
    #[must_use]
    pub fn settled_median_p(&self) -> usize {
        let half = self
            .records
            .iter()
            .skip(self.records.len() / 2)
            .map(|r| r.p)
            .collect::<Vec<_>>();
        if half.is_empty() {
            return 0;
        }
        let mut sorted = half;
        sorted.sort_unstable();
        sorted[sorted.len() / 2]
    }
}

/// One client's outcome counts from [`MultiClientReport::per_client`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClientOutcomes {
    /// Client index.
    pub client: usize,
    /// Requests whose suffix ran on the shared GPU.
    pub served_remote: usize,
    /// Requests decided fully local (p == n).
    pub local: usize,
    /// Requests shed by server admission control (completed locally).
    pub shed: usize,
    /// Requests settled by local fallback after a fault.
    pub fallback: usize,
}

struct Client {
    engine: OffloadEngine,
    ctx: usize,
    next_request: Option<SimTime>,
    pending: Option<PendingRequest>,
}

impl Client {
    /// Settles the pending request, which completed on the GPU at `done`.
    fn finish(
        &mut self,
        done: SimTime,
        server: &mut EdgeServer,
        kernel_times: &NodeTimes,
        link: &Link,
    ) -> InferenceRecord {
        let pending = self.pending.take().expect("a pending request");
        let mut backend = server.backend(kernel_times, self.ctx);
        self.engine
            .finish(pending, done, &mut backend, &mut LinkTransport { link })
    }
}

/// Runs N full LoADPart clients against one shared GPU.
///
/// # Errors
///
/// Rejects invalid configurations with [`ConfigError`] before any
/// simulation state is built.
pub fn multi_client_run(
    graph: &ComputationGraph,
    user_models: &PredictionModels,
    edge_models: &PredictionModels,
    config: &MultiClientConfig,
) -> Result<MultiClientReport, ConfigError> {
    multi_client_run_with_telemetry(
        graph,
        user_models,
        edge_models,
        config,
        &Telemetry::disabled(),
    )
}

/// [`multi_client_run`] with an observability handle: every client engine
/// shares `telemetry` (spans carry the client index), and the run-level
/// outcome (GPU utilization, final `k`, watchdog resets) lands in the
/// registry under `multi_client.*`.
///
/// # Errors
///
/// Rejects invalid configurations with [`ConfigError`] before any
/// simulation state is built.
pub fn multi_client_run_with_telemetry(
    graph: &ComputationGraph,
    user_models: &PredictionModels,
    edge_models: &PredictionModels,
    config: &MultiClientConfig,
    telemetry: &Telemetry,
) -> Result<MultiClientReport, ConfigError> {
    config.validate()?;
    // Every request samples these tables; neither model is re-evaluated
    // per node after this point.
    let device_times = DeviceModel::default().node_times(graph);
    let link = Link::symmetric(BandwidthTrace::constant(config.bandwidth_mbps));
    // One server for every client: its tracker aggregates all clients'
    // suffixes, its watchdog keeps a stale high `k` from outliving the
    // load that caused it (§IV), and all clients draw on one admission
    // budget.
    let mut server = EdgeServer::new(config.seed);
    if let Some(admission) = config.admission {
        server.set_admission(admission);
    }
    let kernel_times = server.kernel_times(graph);

    // One shared graph and one solver for the whole fleet: each engine
    // holds `Arc` bumps, not its own multi-node deep copy and its own
    // evaluation of both model bundles over every node.
    let shared_graph = Arc::new(graph.clone());
    let solver = Arc::new(PartitionSolver::new(graph, user_models, edge_models));
    let mut clients = Vec::with_capacity(config.n_clients);
    for i in 0..config.n_clients {
        let mut engine = OffloadEngine::with_solver(
            Arc::clone(&shared_graph),
            config.policy,
            Arc::clone(&solver),
            i,
            EngineConfig {
                profiler_period: config.profiler_period,
                seed: config.seed ^ (i as u64).wrapping_mul(0x9E37_79B9),
                ..EngineConfig::default()
            },
        )?;
        engine.set_telemetry(telemetry.clone());
        clients.push(Client {
            engine,
            ctx: server.gpu.add_context(),
            // Stagger arrivals so clients do not lock-step.
            next_request: Some(SimTime::ZERO + SimDuration::from_millis(50 + 37 * i as u64)),
            pending: None,
        });
    }

    let end = SimTime::ZERO + config.duration;
    let mut records = Vec::new();
    // The tasks of the all-pending branch below, refilled in place.
    let mut pending = Vec::with_capacity(config.n_clients);

    loop {
        // Drain completions first.
        for client in &mut clients {
            let done = client
                .pending
                .as_ref()
                .and_then(|p| server.gpu.completion(p.task))
                .map(|(_, done)| done);
            if let Some(done) = done {
                records.push(client.finish(done, &mut server, &kernel_times, &link));
                client.next_request = Some(done + config.think_time);
            }
        }

        // Next client ready to issue a request.
        let next = clients
            .iter()
            .enumerate()
            .filter_map(|(i, c)| c.next_request.map(|t| (t, i)))
            .min();
        let Some((t, ci)) = next else {
            // Everyone is pending on the GPU: advance to the earliest
            // *completion* among the pending set. Vector order does not
            // predict completion order under round-robin slicing, and
            // overshooting a completion turns into genuine queueing delay
            // for that client's next suffix (`submit_at = max(arrive,
            // gpu.now())`), so picking the first client would distort
            // every faster client's latency.
            pending.clear();
            pending.extend(
                clients
                    .iter()
                    .filter_map(|c| c.pending.as_ref().map(|p| p.task)),
            );
            if pending.is_empty() {
                break; // nothing pending, nothing scheduled
            }
            server.gpu.run_until_earliest_complete(&pending);
            continue;
        };
        if t >= end {
            break;
        }
        let client = &mut clients[ci];
        client.next_request = None;

        let mut device = SimulatedDevice {
            times: &device_times,
        };
        let mut backend = server.backend(&kernel_times, client.ctx);
        let mut transport = LinkTransport { link: &link };
        match client
            .engine
            .start(t, &mut device, &mut backend, &mut transport)
            .expect("co-simulated backends are infallible")
        {
            Outcome::Complete(record) => {
                // Local inference: schedule the next request directly.
                client.next_request = Some(record.start + record.total + config.think_time);
                records.push(record);
            }
            Outcome::Deferred(pending) => client.pending = Some(pending),
        }
    }

    // Requests still in flight when the duration expired have already
    // consumed device time, uplink bytes and GPU queue slots — dropping
    // them would silently understate every per-client metric. Run each one
    // to completion and report it.
    for client in &mut clients {
        if let Some(task) = client.pending.as_ref().map(|p| p.task) {
            let done = server.gpu.run_until_complete(task);
            records.push(client.finish(done, &mut server, &kernel_times, &link));
        }
    }
    // `MultiClientReport::records` documents completion order and
    // `settled_median_p` slices the second half of it, but the loop above
    // pushes local completions at issue order and drained GPU records at
    // the end. Sort by completion time, ties broken by client and request
    // id: no two records share that key, so the unstable sort's order is
    // the stable sort's.
    records.sort_unstable_by_key(|r| (r.start + r.total, r.client, r.request_id));

    let report = MultiClientReport {
        records,
        gpu_utilization: server.utilization(),
        final_k: server.tracker.k_at(server.gpu.now()),
        watchdog_resets: server.watchdog.resets(),
        rejections: server.rejections(),
    };
    if telemetry.is_enabled() {
        telemetry.incr("multi_client.completed_total", report.records.len() as u64);
        telemetry.incr("multi_client.watchdog_resets_total", report.watchdog_resets);
        telemetry.incr("server.rejected_total", report.rejections);
        telemetry.set_gauge("multi_client.clients", config.n_clients as f64);
        telemetry.set_gauge("multi_client.gpu_utilization", report.gpu_utilization);
        telemetry.set_gauge("multi_client.final_k", report.final_k);
        telemetry.set_gauge("multi_client.shed_ratio", report.shed_ratio());
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    fn models() -> &'static (PredictionModels, PredictionModels) {
        static MODELS: OnceLock<(PredictionModels, PredictionModels)> = OnceLock::new();
        MODELS.get_or_init(|| crate::system::trained_models(150, 42))
    }

    fn run(n_clients: usize, policy: Policy) -> MultiClientReport {
        let (user, edge) = models();
        multi_client_run(
            &lp_models::squeezenet(1),
            user,
            edge,
            &MultiClientConfig {
                n_clients,
                duration: SimDuration::from_secs(45),
                policy,
                ..MultiClientConfig::default()
            },
        )
        .expect("valid config")
    }

    #[test]
    fn single_client_is_effectively_unloaded() {
        let report = run(1, Policy::LoadPart);
        assert!(!report.records.is_empty());
        assert!(report.final_k < 2.0, "k={}", report.final_k);
        // One SqueezeNet client cannot saturate the GPU.
        assert!(report.gpu_utilization < 0.2, "{}", report.gpu_utilization);
    }

    #[test]
    fn every_client_completes_work() {
        let report = run(4, Policy::LoadPart);
        for c in 0..4 {
            let n = report.records.iter().filter(|r| r.client == c).count();
            assert!(n >= 5, "client {c} completed only {n} inferences");
        }
    }

    #[test]
    fn crowding_raises_k() {
        let lone = run(1, Policy::LoadPart);
        let crowd = run(12, Policy::LoadPart);
        assert!(
            crowd.final_k >= lone.final_k,
            "k: lone {} vs crowd {}",
            lone.final_k,
            crowd.final_k
        );
        assert!(crowd.gpu_utilization > lone.gpu_utilization);
    }

    #[test]
    fn deterministic_given_config() {
        let a = run(3, Policy::LoadPart);
        let b = run(3, Policy::LoadPart);
        assert_eq!(a.records, b.records);
        assert_eq!(a.final_k, b.final_k);
    }

    /// Regression (silent drop at expiry): two clients whose first
    /// requests are both on the shared GPU when the duration expires. The
    /// first completion re-arms its client far beyond the horizon, so the
    /// event loop breaks while the second request is still in flight —
    /// before the drain was added, that request vanished from the report.
    #[test]
    fn expiry_drains_in_flight_requests() {
        let (user, edge) = models();
        let report = multi_client_run(
            &lp_models::squeezenet(1),
            user,
            edge,
            &MultiClientConfig {
                n_clients: 2,
                duration: SimDuration::from_millis(200),
                think_time: SimDuration::from_secs(10),
                policy: Policy::Full, // always offload: both requests defer
                ..MultiClientConfig::default()
            },
        )
        .expect("valid config");
        for c in 0..2 {
            let n = report.records.iter().filter(|r| r.client == c).count();
            assert_eq!(n, 1, "client {c}: in-flight request must be drained");
        }
    }

    /// Regression (watchdog never armed): the shared-GPU run now arms one
    /// `GpuUtilWatchdog`; a lone SqueezeNet client leaves the GPU nearly
    /// idle, so the watchdog must fire and the settled `k` must stay reset.
    #[test]
    fn watchdog_is_armed_and_keeps_an_idle_gpu_discoverable() {
        let report = run(1, Policy::LoadPart);
        assert!(report.gpu_utilization < 0.2, "{}", report.gpu_utilization);
        assert!(
            report.watchdog_resets >= 1,
            "under-utilized GPU must trip the watchdog (resets = {})",
            report.watchdog_resets
        );
        assert!(report.final_k < 2.0, "k={}", report.final_k);
    }

    /// Regression (report ordering): local `Outcome::Complete` records
    /// used to be pushed at issue order and drained GPU records appended
    /// at the end, so the documented "completion order" did not hold once
    /// local and offloaded completions interleaved. A crowded LoADPart run
    /// produces both kinds; every adjacent pair must be non-decreasing in
    /// completion time.
    #[test]
    fn records_are_in_completion_order() {
        // 12 clients at 5 Mbps sit right on the local/offload crossing:
        // the run settles into a mix of local and offloaded completions.
        let (user, edge) = models();
        let report = multi_client_run(
            &lp_models::squeezenet(1),
            user,
            edge,
            &MultiClientConfig {
                n_clients: 12,
                bandwidth_mbps: 5.0,
                duration: SimDuration::from_secs(45),
                policy: Policy::LoadPart,
                ..MultiClientConfig::default()
            },
        )
        .expect("valid config");
        let n = lp_models::squeezenet(1).len();
        assert!(
            report.records.iter().any(|r| r.p == n),
            "run must contain local completions"
        );
        assert!(
            report.records.iter().any(|r| r.offloaded()),
            "run must contain offloaded completions"
        );
        for w in report.records.windows(2) {
            assert!(
                w[0].start + w[0].total <= w[1].start + w[1].total,
                "records out of completion order: {:?} then {:?}",
                (w[0].client, w[0].request_id, w[0].start + w[0].total),
                (w[1].client, w[1].request_id, w[1].start + w[1].total),
            );
        }
    }

    /// Regression (earliest-pending selection): with every client pending
    /// on the shared GPU the loop used to run until the *first client in
    /// vector order* completed, overshooting earlier completions of other
    /// clients — and because suffixes submit at `max(arrive, gpu.now())`
    /// the overshoot became genuine queueing delay for those clients. With
    /// the earliest-completion wait, a full-offload run stays in
    /// completion order and every client keeps making progress.
    #[test]
    fn all_pending_branch_serves_earliest_completion() {
        let (user, edge) = models();
        let report = multi_client_run(
            &lp_models::squeezenet(1),
            user,
            edge,
            &MultiClientConfig {
                n_clients: 6,
                duration: SimDuration::from_secs(20),
                // Tiny think time: clients re-issue immediately, so the
                // all-pending branch is hit constantly.
                think_time: SimDuration::from_millis(1),
                policy: Policy::Full,
                ..MultiClientConfig::default()
            },
        )
        .expect("valid config");
        for c in 0..6 {
            let n = report.records.iter().filter(|r| r.client == c).count();
            assert!(n >= 3, "client {c} completed only {n} inferences");
        }
        for w in report.records.windows(2) {
            assert!(w[0].start + w[0].total <= w[1].start + w[1].total);
        }
    }

    #[test]
    fn telemetry_aggregates_across_clients() {
        let (user, edge) = models();
        let telemetry = Telemetry::enabled();
        let report = multi_client_run_with_telemetry(
            &lp_models::squeezenet(1),
            user,
            edge,
            &MultiClientConfig {
                n_clients: 3,
                duration: SimDuration::from_secs(20),
                ..MultiClientConfig::default()
            },
            &telemetry,
        )
        .expect("valid config");
        let snap = telemetry.snapshot().expect("enabled");
        assert_eq!(
            snap.counter("multi_client.completed_total"),
            report.records.len() as u64
        );
        assert_eq!(
            snap.counter("engine.requests_total"),
            report.records.len() as u64,
            "every request completed, so starts == completions"
        );
        assert_eq!(snap.gauge("multi_client.final_k"), Some(report.final_k));
        assert!(
            snap.counter("profile.refreshes_total") >= 3,
            "one per client at least"
        );
        let finishes = snap.counter("engine.offloaded_total")
            + snap.counter("engine.local_total")
            + snap.counter("engine.fallbacks_total");
        assert_eq!(finishes, report.records.len() as u64);
    }

    /// Overload protection at system scale: a tiny admission budget under
    /// a crowd of always-offload clients must shed work — yet every client
    /// still completes every request (locally), which is the graceful
    /// degradation the budget buys.
    #[test]
    fn admission_sheds_under_a_crowd_but_every_request_completes() {
        let (user, edge) = models();
        let report = multi_client_run(
            &lp_models::squeezenet(1),
            user,
            edge,
            &MultiClientConfig {
                n_clients: 6,
                duration: SimDuration::from_secs(20),
                think_time: SimDuration::from_millis(1),
                policy: Policy::Full,
                admission: Some(AdmissionConfig {
                    max_inflight: 1,
                    max_queue_delay: SimDuration::from_millis(5),
                }),
                ..MultiClientConfig::default()
            },
        )
        .expect("valid config");
        assert!(report.rejections > 0, "tiny budget must shed under a crowd");
        assert!(report.shed_ratio() > 0.0 && report.shed_ratio() <= 1.0);
        let per_client = report.per_client();
        assert_eq!(
            per_client.iter().map(|c| c.shed as u64).sum::<u64>(),
            report.rejections,
            "per-client shed counts must add up to the run total"
        );
        for c in &per_client {
            let total = c.served_remote + c.local + c.shed + c.fallback;
            assert!(total >= 3, "client {} completed only {total}", c.client);
        }
        // Shed requests are not fallbacks: the two are counted apart.
        assert!(report
            .records
            .iter()
            .all(|r| !(r.rejected && r.fallback_local)));
    }

    #[test]
    fn admission_telemetry_reports_shed_ratio() {
        let (user, edge) = models();
        let telemetry = Telemetry::enabled();
        let report = multi_client_run_with_telemetry(
            &lp_models::squeezenet(1),
            user,
            edge,
            &MultiClientConfig {
                n_clients: 6,
                duration: SimDuration::from_secs(10),
                think_time: SimDuration::from_millis(1),
                policy: Policy::Full,
                admission: Some(AdmissionConfig {
                    max_inflight: 1,
                    max_queue_delay: SimDuration::from_millis(5),
                }),
                ..MultiClientConfig::default()
            },
            &telemetry,
        )
        .expect("valid config");
        let snap = telemetry.snapshot().expect("enabled");
        assert_eq!(snap.counter("server.rejected_total"), report.rejections);
        assert_eq!(snap.counter("engine.rejected_total"), report.rejections);
        assert_eq!(
            snap.gauge("multi_client.shed_ratio"),
            Some(report.shed_ratio())
        );
        // Finish classification is exhaustive across the four buckets.
        let finishes = snap.counter("engine.offloaded_total")
            + snap.counter("engine.local_total")
            + snap.counter("engine.fallbacks_total")
            + snap.counter("engine.rejected_total");
        assert_eq!(finishes, report.records.len() as u64);
    }

    #[test]
    fn zero_clients_is_a_config_error() {
        let (user, edge) = models();
        let err = multi_client_run(
            &lp_models::alexnet(1),
            user,
            edge,
            &MultiClientConfig {
                n_clients: 0,
                ..MultiClientConfig::default()
            },
        )
        .expect_err("zero clients must be rejected");
        assert_eq!(err, ConfigError::ZeroClients);
    }

    #[test]
    fn bad_bandwidth_and_duration_are_config_errors() {
        let bad_bw = MultiClientConfig {
            bandwidth_mbps: 0.0,
            ..MultiClientConfig::default()
        };
        assert_eq!(bad_bw.validate(), Err(ConfigError::NonPositiveBandwidth));
        let bad_dur = MultiClientConfig {
            duration: SimDuration::ZERO,
            ..MultiClientConfig::default()
        };
        assert_eq!(bad_dur.validate(), Err(ConfigError::ZeroDuration));
    }
}
