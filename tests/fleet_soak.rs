//! Fleet-scale soak of the event-driven socket transport: hundreds of
//! persistent sessions over real loopback TCP against the sharded server.
//!
//! Two properties the fleet must not lose:
//!
//! * **Per-session FIFO.** Two shards serve the sessions' frames through
//!   one core, but within one session every reply must still answer the
//!   request that is actually outstanding. The engine enforces
//!   reply/request id matching on the wire, so a run with zero retries
//!   and zero fallbacks *is* the FIFO proof.
//! * **Thread hygiene.** Shutdown joins every shard; the process thread
//!   count returns to its pre-server baseline (the old transport leaked
//!   two detached bridge threads per connection).

use loadpart::{
    spawn_server, EngineConfig, InferenceRecord, SocketServer, TcpFrameChannel, ThreadedClient,
};
use lp_profiler::PredictionModels;
use std::sync::{Arc, Barrier, OnceLock};
use std::time::{Duration, Instant};

fn models() -> &'static (PredictionModels, PredictionModels) {
    static MODELS: OnceLock<(PredictionModels, PredictionModels)> = OnceLock::new();
    MODELS.get_or_init(|| loadpart::system::trained_models(150, 42))
}

/// This process's live thread count, from `/proc/self/status`.
#[cfg(target_os = "linux")]
fn thread_count() -> usize {
    std::fs::read_to_string("/proc/self/status")
        .expect("procfs")
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
        .expect("Threads: line")
}

/// Spawns a server behind loopback TCP and drives `sessions x rounds`
/// requests from a bounded pool of `drivers` threads. Returns the
/// per-session record sequences.
fn drive_fleet(sessions: usize, rounds: usize, drivers: usize) -> Vec<Vec<InferenceRecord>> {
    let (user, edge) = models();
    let graph = Arc::new(lp_models::alexnet(1));
    let server = spawn_server(Arc::clone(&graph), edge.clone(), 1.0);
    let sock = SocketServer::bind_tcp_sharded("127.0.0.1:0", server, 2).expect("bind loopback");
    let addr = sock.local_addr().to_string();
    let start = Arc::new(Barrier::new(drivers));
    let mut handles = Vec::with_capacity(drivers);
    for d in 0..drivers {
        let owned: Vec<usize> = (d..sessions).step_by(drivers).collect();
        let mut lanes = Vec::with_capacity(owned.len());
        for s in owned {
            let conn = TcpFrameChannel::connect(addr.as_str()).expect("connect session");
            let client = ThreadedClient::with_config(
                Arc::clone(&graph),
                user,
                edge,
                EngineConfig {
                    io_timeout: Duration::from_secs(5),
                    retry_backoff: Duration::ZERO,
                    seed: 42 ^ (s as u64).wrapping_mul(0x9E37_79B9),
                    ..EngineConfig::default()
                },
            )
            .expect("valid config");
            lanes.push((s, client, conn));
        }
        let start = Arc::clone(&start);
        handles.push(std::thread::spawn(move || {
            start.wait();
            let mut records: Vec<(usize, Vec<InferenceRecord>)> = lanes
                .iter()
                .map(|(s, _, _)| (*s, Vec::with_capacity(rounds)))
                .collect();
            for _ in 0..rounds {
                for (i, (_, client, conn)) in lanes.iter_mut().enumerate() {
                    let r = client.infer(&*conn, 8.0).expect("healthy fleet");
                    records[i].1.push(r);
                }
            }
            records
        }));
    }
    let mut per_session: Vec<Vec<InferenceRecord>> = vec![Vec::new(); sessions];
    for handle in handles {
        for (s, records) in handle.join().expect("driver thread") {
            per_session[s] = records;
        }
    }
    sock.shutdown().expect("clean shutdown");
    per_session
}

/// The headline soak: 256 concurrent sessions, every request served in
/// order with zero retries, and the thread count back to baseline after
/// shutdown.
#[test]
fn fleet_of_256_sessions_preserves_fifo() {
    #[cfg(target_os = "linux")]
    let baseline = thread_count();
    let per_session = drive_fleet(256, 2, 16);
    for (s, records) in per_session.iter().enumerate() {
        assert_eq!(records.len(), 2, "session {s} lost a request");
        for (i, r) in records.iter().enumerate() {
            // The engine matches reply ids to the outstanding request and
            // retries on any mismatch; zero retries across the whole fleet
            // means every session saw its replies in FIFO order.
            assert_eq!(r.request_id, i as u64, "session {s}: {r:?}");
            assert_eq!(r.retries, 0, "session {s}: {r:?}");
            assert!(r.offloaded(), "session {s}: {r:?}");
            assert!(!r.rejected && !r.fallback_local, "session {s}: {r:?}");
        }
    }
    #[cfg(target_os = "linux")]
    {
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let now = thread_count();
            if now <= baseline {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "leaked {} thread(s) past shutdown (baseline {baseline}, now {now})",
                now - baseline
            );
            std::thread::sleep(Duration::from_millis(10));
        }
    }
}
