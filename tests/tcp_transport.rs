//! The wire runtime end to end over real loopback TCP sockets.
//!
//! The point of this suite is that the socket transport is a *pure*
//! transport — the engine's retry budget, local fallback, cooldown and
//! recovery behave identically when frames cross a real socket, and the
//! transport's own failure mode (a dead peer surfacing as `Disconnected`)
//! slots into the same degradation paths. The four client-side fault
//! scenarios (a dropped offload, persistent drops, a delayed reply and
//! corrupt frames) run the very bodies `tests/fault_tolerance.rs` runs
//! in-process, from `tests/wire_faults/mod.rs`; the chaos soak is compared
//! record for record with its in-process run. The deterministic link
//! emulator rides the TCP channel like any other, turning a loopback
//! socket into a slow, jittery, resettable access link.

mod wire_faults;

use bytes::Bytes;
use loadpart::chaos::Window;
use loadpart::{
    chaos_run, spawn_server, spawn_server_tuned, ChaosConfig, ChaosTransport, EmulatedLink, Frame,
    FrameChannel, LinkSpec, LoadEnv, Message, ProtocolError, ServerFaultSpec, ServerTuning,
    SocketServer, StallWindow, TcpFrameChannel, Telemetry,
};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};
use wire_faults::{fast_client, models, Rig, N};

/// An alexnet server behind a loopback TCP socket, plus one connected
/// client channel.
fn tcp_server(k: f64) -> (SocketServer, TcpFrameChannel) {
    let (_, edge) = models();
    let graph = lp_models::alexnet(1);
    let server = spawn_server(graph, edge.clone(), k);
    let sock = SocketServer::bind_tcp("127.0.0.1:0", server).expect("bind loopback");
    let chan = TcpFrameChannel::connect(sock.local_addr()).expect("connect");
    (sock, chan)
}

#[test]
fn offloads_end_to_end_over_tcp() {
    let (sock, chan) = tcp_server(1.0);
    let mut client = fast_client(lp_models::alexnet(1));
    for _ in 0..3 {
        let r = client.infer(&chan, 8.0).expect("clean run");
        assert!(r.offloaded() && !r.fallback_local, "{r:?}");
        assert_eq!(r.retries, 0);
    }
    assert_eq!(sock.shutdown(), Ok(3), "all three suffixes ran remotely");
}

/// A socket server and the client's connection to it.
impl Rig for (SocketServer, TcpFrameChannel) {
    fn chan(&self) -> &dyn FrameChannel {
        &self.1
    }

    fn shutdown(self) -> Result<u64, ProtocolError> {
        self.0.shutdown()
    }
}

#[test]
fn dropped_offload_request_is_absorbed_by_a_retry_over_tcp() {
    wire_faults::dropped_offload_request_is_absorbed_by_a_retry(tcp_server(1.0));
}

#[test]
fn persistent_drops_degrade_locally_then_recover_over_tcp() {
    wire_faults::persistent_drops_degrade_locally_then_recover(tcp_server(1.0));
}

#[test]
fn delayed_reply_is_recovered_as_stale_over_tcp() {
    wire_faults::reply_delayed_past_the_deadline_is_recovered_as_stale(tcp_server(1.0));
}

/// Corruption actually crosses the socket and is rejected by the peer's
/// decoder.
#[test]
fn corrupt_frames_in_both_directions_are_retried_over_tcp() {
    wire_faults::corrupt_frames_in_both_directions_are_retried(tcp_server(1.0));
}

/// The transport's own failure mode: a dead server surfaces as
/// `Disconnected` on the socket, the engine degrades to local fallback and
/// cooldown exactly like a crashed in-process server, and a fresh server
/// on a fresh channel resumes offloading.
#[test]
fn dead_server_degrades_locally_then_a_fresh_one_recovers() {
    let (sock, chan) = tcp_server(1.0);
    let mut client = fast_client(lp_models::alexnet(1));

    let r0 = client.infer(&chan, 8.0).expect("healthy");
    assert!(r0.offloaded() && !r0.fallback_local);
    assert_eq!(sock.shutdown(), Ok(1));

    // The peer is gone: the next request must complete on the device —
    // no panic, no hang, nothing offloaded.
    let r1 = client.infer(&chan, 8.0).expect("no panic on a dead peer");
    assert!(!r1.offloaded(), "{r1:?}");

    // Cooldown request, still on the dead channel.
    let r2 = client.infer(&chan, 8.0).expect("no panic");
    assert_eq!((r2.p, r2.fallback_local), (N, false));

    // Operator restarts the server; the client reconnects and resumes.
    let (sock, chan) = tcp_server(1.0);
    let r3 = client.infer(&chan, 8.0).expect("recovered");
    assert!(r3.offloaded() && !r3.fallback_local, "{r3:?}");
    assert_eq!(r3.retries, 0);
    assert_eq!(sock.shutdown(), Ok(1));
}

/// The link emulator rides the TCP channel: a slow, jittery (but
/// deterministic) link still offloads within the engine's deadline budget.
#[test]
fn emulated_slow_link_over_tcp_still_offloads() {
    let (sock, chan) = tcp_server(1.0);
    let mut client = fast_client(lp_models::alexnet(1));
    let link = EmulatedLink::new(
        &chan,
        LinkSpec {
            latency: Duration::from_millis(3),
            jitter: Duration::from_millis(2),
            rate_mbps: 200.0,
            seed: 7,
            ..LinkSpec::default()
        },
    );
    for _ in 0..2 {
        let r = client.infer(&link, 8.0).expect("slow but alive");
        assert!(r.offloaded() && !r.fallback_local, "{r:?}");
    }
    let stats = link.stats();
    assert!(stats.frames_sent >= 4, "{stats:?}");
    assert_eq!(stats.frames_sent, stats.frames_received, "{stats:?}");
    assert_eq!(sock.shutdown(), Ok(2));
}

/// A scripted connection reset mid-session: the link dies permanently,
/// the engine falls back locally, and the raw channel underneath is still
/// healthy enough to shut the server down.
#[test]
fn emulated_connection_reset_forces_local_fallback() {
    let (sock, chan) = tcp_server(1.0);
    let mut client = fast_client(lp_models::alexnet(1));
    // Request 0 uses exactly six link frames (probe, ack, query, reply,
    // offload, response); the reset lands on request 1's first frame.
    let link = EmulatedLink::new(
        &chan,
        LinkSpec {
            reset_after_frames: Some(6),
            ..LinkSpec::default()
        },
    );
    let r0 = client.infer(&link, 8.0).expect("healthy until the reset");
    assert!(r0.offloaded() && !r0.fallback_local, "{r0:?}");
    let r1 = client.infer(&link, 8.0).expect("no panic on reset");
    assert!(!r1.offloaded(), "{r1:?}");
    assert_eq!(link.stats().resets, 1);
    // The socket under the emulator never actually broke.
    assert_eq!(sock.shutdown(), Ok(1));
}

/// This process's live thread count, from the `Threads:` line of
/// `/proc/self/status`.
#[cfg(target_os = "linux")]
fn thread_count() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
        .expect("Threads: line")
}

/// The per-connection bridge threads are gone and the sharded mux joins
/// everything it spawned: after `shutdown()` the process thread count is
/// back to what it was before the server existed. (This was the PR's
/// headline leak — `spawn_bridge` detached two threads per connection that
/// `shutdown` never joined.)
#[cfg(target_os = "linux")]
#[test]
fn shutdown_returns_the_thread_count_to_baseline() {
    let baseline = thread_count();
    let (sock, chan) = tcp_server(1.0);
    // Extra live connections beyond the helper's one, each actively served,
    // so the leak (if any) scales with connections and can't hide in noise.
    let extra: Vec<TcpFrameChannel> = (0..4)
        .map(|_| TcpFrameChannel::connect(sock.local_addr()).expect("connect"))
        .collect();
    let mut client = fast_client(lp_models::alexnet(1));
    let r = client.infer(&chan, 8.0).expect("served");
    assert!(r.offloaded(), "{r:?}");
    for c in &extra {
        c.send(Message::LoadQuery.encode().expect("no payload"))
            .expect("live connection");
        let reply = c
            .recv_deadline(Instant::now() + Duration::from_secs(2))
            .expect("reply");
        assert!(matches!(
            Message::decode(reply).expect("decodes"),
            Message::LoadReply { .. }
        ));
    }
    assert!(
        thread_count() > baseline,
        "server must actually run on its own threads"
    );
    drop(extra);
    sock.shutdown().expect("clean shutdown");
    // Joined threads disappear from procfs immediately after join returns;
    // the deadline only covers scheduler lag on a loaded CI box.
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

/// The listener lives inside a shard's readiness set, not behind a fixed
/// 5 ms accept nap: a fresh connection gets its first reply promptly. The
/// bound is deliberately lenient — it catches an accept path that has
/// regressed to sleeping, not scheduler noise.
#[test]
fn sequential_accepts_are_prompt() {
    let (sock, _chan) = tcp_server(1.0);
    let mut latencies: Vec<Duration> = (0..12)
        .map(|_| {
            let t0 = Instant::now();
            let chan = TcpFrameChannel::connect(sock.local_addr()).expect("connect");
            chan.send(Message::LoadQuery.encode().expect("no payload"))
                .expect("send");
            let reply = chan
                .recv_deadline(Instant::now() + Duration::from_secs(2))
                .expect("reply");
            assert!(matches!(
                Message::decode(reply).expect("decodes"),
                Message::LoadReply { .. }
            ));
            t0.elapsed()
        })
        .collect();
    latencies.sort_unstable();
    let median = latencies[latencies.len() / 2];
    assert!(
        median < Duration::from_millis(20),
        "median connect-to-reply {median:?} (all: {latencies:?})"
    );
    sock.shutdown().expect("clean");
}

/// A bind failure is an `io::Error` the caller can report, not a panic in
/// an acceptor thread: binding the same loopback port twice must surface
/// `AddrInUse` and leave the first server fully operational.
#[test]
fn bind_conflict_is_an_error_not_a_panic() {
    let (_, edge) = models();
    let (sock, chan) = tcp_server(1.0);
    let second = spawn_server(lp_models::alexnet(1), edge.clone(), 1.0);
    let err = SocketServer::bind_tcp(sock.local_addr(), second).expect_err("port is taken");
    assert_eq!(err.kind(), std::io::ErrorKind::AddrInUse, "{err:?}");
    // The failed bind took its ServerHandle down with it; the original
    // server is untouched.
    let mut client = fast_client(lp_models::alexnet(1));
    let r = client.infer(&chan, 8.0).expect("first server still serves");
    assert!(r.offloaded(), "{r:?}");
    assert_eq!(sock.shutdown(), Ok(1));
}

/// The soak's logical-time story is transport-invariant: a spike-and-
/// recover run over TCP produces record-for-record the same report as the
/// in-process channel run (same sheds, same breaker transitions, same
/// worst latency).
#[test]
fn chaos_soak_report_is_identical_over_tcp_and_channels() {
    let (user, edge) = models();
    let graph = lp_models::alexnet(1);
    let cfg = ChaosConfig {
        n_clients: 4,
        rounds: 20,
        spike: Window {
            server: 0,
            start: 5,
            rounds: 5,
        },
        ..ChaosConfig::default()
    };
    let channel = chaos_run(&graph, user, edge, &cfg, &Telemetry::disabled()).expect("valid");
    let tcp_cfg = ChaosConfig {
        transport: ChaosTransport::Tcp,
        ..cfg
    };
    let tcp = chaos_run(&graph, user, edge, &tcp_cfg, &Telemetry::disabled()).expect("valid");
    assert_eq!(
        tcp.records, channel.records,
        "logical-time records must replay identically over TCP"
    );
    assert_eq!(tcp.clients, channel.clients);
    assert_eq!(tcp.spike_sheds, channel.spike_sheds);
    assert_eq!(tcp.servers, channel.servers);
}

/// `u32-le len ++ encoding`: the bytes a raw peer writes for `msg`.
fn on_the_wire(msg: &Message) -> Vec<u8> {
    let body = msg.encode().expect("encodes");
    let mut out = u32::try_from(body.len())
        .expect("fits")
        .to_le_bytes()
        .to_vec();
    out.extend_from_slice(&body);
    out
}

/// A probe whose payload is a recognisable byte pattern.
fn probe(len: usize) -> Message {
    Message::Probe {
        payload: Bytes::from((0..len).map(|i| (i % 251) as u8).collect::<Vec<u8>>()),
    }
}

/// A client channel plus the raw server-side socket it is connected to.
fn raw_server_peer() -> (TcpFrameChannel, TcpStream) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let chan = TcpFrameChannel::connect(listener.local_addr().expect("addr")).expect("connect");
    let (peer, _) = listener.accept().expect("accept");
    peer.set_nodelay(true).expect("nodelay");
    (chan, peer)
}

/// A raw client socket connected to `sock`, with Nagle off.
fn raw_client(sock: &SocketServer) -> TcpStream {
    let raw = TcpStream::connect(sock.local_addr()).expect("connect");
    raw.set_nodelay(true).expect("nodelay");
    raw
}

fn recv(chan: &TcpFrameChannel) -> Message {
    let deadline = Instant::now() + Duration::from_secs(10);
    Message::decode(chan.recv_deadline(deadline).expect("a frame")).expect("decodes")
}

/// Writes `bytes` one byte per write and flush, pausing now and then so
/// the reader sees the frame in many pieces.
fn dribble(stream: &mut TcpStream, bytes: &[u8]) {
    for (i, b) in bytes.iter().enumerate() {
        stream.write_all(std::slice::from_ref(b)).expect("write");
        stream.flush().expect("flush");
        if i % 16 == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
    }
}

/// Two frames that arrive in one segment are both delivered, in order:
/// on a client channel, and through a mux shard.
#[test]
fn two_frames_in_one_write_arrive_in_order() {
    let (chan, mut peer) = raw_server_peer();
    let first = Message::LoadReply { k_micro: 7 };
    peer.write_all(&[on_the_wire(&first), on_the_wire(&Message::ProbeAck)].concat())
        .expect("write");
    assert_eq!(recv(&chan), first);
    assert_eq!(recv(&chan), Message::ProbeAck);

    let (sock, _chan) = tcp_server(1.0);
    let mut raw = raw_client(&sock);
    raw.write_all(&[on_the_wire(&Message::LoadQuery), on_the_wire(&probe(64))].concat())
        .expect("write");
    let replies = TcpFrameChannel::from_stream(raw).expect("wrap");
    assert!(matches!(recv(&replies), Message::LoadReply { .. }));
    assert_eq!(recv(&replies), Message::ProbeAck);
    sock.shutdown().expect("clean");
}

/// A peer that sends a frame one byte at a time still delivers it intact,
/// to a client channel and to a mux shard (a short frame, and one longer
/// than the read-ahead).
#[test]
fn a_frame_sent_one_byte_at_a_time_arrives_intact() {
    let (chan, mut peer) = raw_server_peer();
    let msg = probe(300);
    let bytes = on_the_wire(&msg);
    let writer = std::thread::spawn(move || dribble(&mut peer, &bytes));
    assert_eq!(recv(&chan), msg);
    writer.join().expect("writer");

    let (sock, _chan) = tcp_server(1.0);
    let mut raw = raw_client(&sock);
    let replies = TcpFrameChannel::from_stream(raw.try_clone().expect("clone")).expect("wrap");
    dribble(&mut raw, &on_the_wire(&Message::LoadQuery));
    assert!(matches!(recv(&replies), Message::LoadReply { .. }));
    let long = on_the_wire(&probe(20 * 1024));
    let (head, tail) = long.split_at(long.len() - 200);
    raw.write_all(head).expect("write");
    dribble(&mut raw, tail);
    assert_eq!(recv(&replies), Message::ProbeAck);
    sock.shutdown().expect("clean");
}

/// A frame longer than the read-ahead whose sender stalls mid-body: the
/// receive times out at its deadline, and the next one returns the same
/// frame intact once the rest arrives.
#[test]
fn a_long_frame_stalled_mid_body_times_out_then_arrives_intact() {
    let (chan, mut peer) = raw_server_peer();
    let msg = probe(64 * 1024);
    let bytes = on_the_wire(&msg);
    let (head, tail) = bytes.split_at(bytes.len() / 2);
    peer.write_all(head).expect("write");
    let deadline = Instant::now() + Duration::from_millis(100);
    assert_eq!(
        chan.recv_split_deadline(deadline).unwrap_err(),
        ProtocolError::Timeout
    );
    let returned = Instant::now();
    assert!(returned >= deadline, "timed out early");
    assert!(
        returned - deadline < Duration::from_millis(50),
        "timed out {:?} after the deadline",
        returned - deadline
    );
    peer.write_all(tail).expect("write");
    let frame = chan
        .recv_split_deadline(Instant::now() + Duration::from_secs(5))
        .expect("the rest arrived");
    assert_eq!(Message::decode_frame(frame).expect("decodes"), msg);
}

/// A client that pipelines 20k load queries, plus an offload after every
/// tenth, and reads no reply until it has sent them all gets every reply,
/// in order. While it pauses, the offloads' 4 KB replies outgrow the
/// socket buffers, so the shard's gathered egress writes go partial and
/// wait for `POLLOUT`.
#[test]
fn twenty_thousand_pipelined_queries_are_answered_in_order() {
    let (sock, _chan) = tcp_server(1.0);
    let mut raw = raw_client(&sock);
    let mut requests = Vec::new();
    for i in 0..20_000u64 {
        requests.push(Message::LoadQuery);
        if i % 10 == 9 {
            requests.push(Message::OffloadRequest {
                request_id: i,
                partition_point: 5,
                precision: lp_graph::Precision::Fp32,
                payload: Bytes::from(vec![0u8; 16]),
            });
        }
    }
    let burst: Vec<u8> = requests.iter().flat_map(on_the_wire).collect();
    raw.write_all(&burst).expect("write the whole burst");
    std::thread::sleep(Duration::from_millis(200));
    let replies = TcpFrameChannel::from_stream(raw).expect("wrap");
    for (i, request) in requests.iter().enumerate() {
        match (request, recv(&replies)) {
            (Message::LoadQuery, Message::LoadReply { .. }) => {}
            (
                Message::OffloadRequest { request_id, .. },
                Message::OffloadResponse {
                    request_id: echoed, ..
                },
            ) if echoed == *request_id => {}
            (request, reply) => panic!("reply {i} to {request:?} was {reply:?}"),
        }
    }
    sock.shutdown().expect("clean");
}

/// The frames of `msgs`, for a batch send.
fn frames(msgs: &[Message]) -> Vec<Frame> {
    msgs.iter()
        .map(|msg| msg.to_frame().expect("encodes"))
        .collect()
}

/// A batch reaches the peer as exactly the frames' one-by-one wire
/// encodings, concatenated, in order.
#[test]
fn a_batch_is_the_frames_one_by_one_encodings_concatenated() {
    let (chan, mut peer) = raw_server_peer();
    let batch = [probe(8 * 1024), probe(100), Message::LoadQuery];
    chan.send_batch(frames(&batch)).expect("sent");
    let expected: Vec<u8> = batch.iter().flat_map(on_the_wire).collect();
    let mut wire = vec![0u8; expected.len()];
    peer.read_exact(&mut wire).expect("the whole batch");
    assert_eq!(wire, expected);
}

/// The cold-start refresh for the default 8-sample window — 8 probes and
/// a load query in one batch — is answered with 8 acks, then the reply,
/// in order.
#[test]
fn a_cold_start_burst_is_answered_in_order() {
    let (sock, chan) = tcp_server(1.0);
    let mut batch = vec![probe(8 * 1024); 8];
    batch.push(Message::LoadQuery);
    chan.send_batch(frames(&batch)).expect("sent");
    for i in 0..8 {
        assert_eq!(recv(&chan), Message::ProbeAck, "reply {i}");
    }
    assert!(matches!(recv(&chan), Message::LoadReply { .. }));
    sock.shutdown().expect("clean");
}

/// A server running the fault script `faults` behind loopback TCP, with
/// two shards.
fn faulty_tcp_server(faults: ServerFaultSpec) -> SocketServer {
    let (_, edge) = models();
    let server = spawn_server_tuned(
        lp_models::alexnet(1),
        edge.clone(),
        LoadEnv::new(1.0),
        faults,
        None,
        &Telemetry::disabled(),
        ServerTuning,
    );
    SocketServer::bind_tcp_sharded("127.0.0.1:0", server, 2).expect("bind loopback")
}

/// Sends `msg` and waits up to `wait` for the next reply.
fn ask(chan: &TcpFrameChannel, msg: &Message, wait: Duration) -> Result<Message, ProtocolError> {
    chan.send_split(msg.to_frame().expect("encodes"))?;
    let frame = chan.recv_split_deadline(Instant::now() + wait)?;
    Ok(Message::decode_frame(frame).expect("decodes"))
}

/// Whether `reply` answers a load query.
fn is_load_reply(reply: &Result<Message, ProtocolError>) -> bool {
    matches!(reply, Ok(Message::LoadReply { .. }))
}

/// The fault script's frame indices count the frames of every connection,
/// in the order the server core served them. Two connections take strict
/// turns: frames 2 and 3 (one from each) fall in the stall window, and
/// frame 6 crosses the crash threshold.
#[test]
fn stall_and_crash_indices_count_frames_from_every_connection() {
    let sock = faulty_tcp_server(ServerFaultSpec {
        crash_after_frames: Some(6),
        stall: Some(StallWindow {
            after_frames: 2,
            frames: 2,
        }),
        ..ServerFaultSpec::default()
    });
    let a = TcpFrameChannel::connect(sock.local_addr()).expect("connect a");
    let b = TcpFrameChannel::connect(sock.local_addr()).expect("connect b");
    let long = Duration::from_secs(5);
    for (frame, chan) in [(0, &a), (1, &b)] {
        assert!(
            is_load_reply(&ask(chan, &Message::LoadQuery, long)),
            "frame {frame}"
        );
    }
    for (frame, chan) in [(2, &a), (3, &b)] {
        assert_eq!(
            ask(chan, &Message::LoadQuery, Duration::from_millis(100)),
            Err(ProtocolError::Timeout),
            "frame {frame} is stalled"
        );
    }
    for (frame, chan) in [(4, &a), (5, &b)] {
        assert!(
            is_load_reply(&ask(chan, &Message::LoadQuery, long)),
            "frame {frame}"
        );
    }
    assert_eq!(
        ask(&a, &Message::LoadQuery, long),
        Err(ProtocolError::Disconnected),
        "frame 6 crashes the server"
    );
    assert_eq!(sock.wait(), Ok(0));
}

/// A scripted crash on one connection closes every connection — each
/// client reads `Disconnected` — and ends `wait` with the served count.
#[test]
fn a_crash_closes_every_connection_and_ends_wait() {
    let sock = faulty_tcp_server(ServerFaultSpec {
        crash_after_frames: Some(3),
        ..ServerFaultSpec::default()
    });
    let a = TcpFrameChannel::connect(sock.local_addr()).expect("connect a");
    let b = TcpFrameChannel::connect(sock.local_addr()).expect("connect b");
    let mut client = fast_client(lp_models::alexnet(1));
    // Probe, load query and offload: frames 0-2.
    let r = client.infer(&a, 8.0).expect("served");
    assert!(r.offloaded() && !r.fallback_local, "{r:?}");
    // Frame 3, from the other connection, crashes the server.
    b.send(Message::LoadQuery.encode().expect("no payload"))
        .expect("sent");
    assert_eq!(sock.wait(), Ok(1), "one offload served before the crash");
    for (name, chan) in [("a", &a), ("b", &b)] {
        assert_eq!(
            chan.recv_split_deadline(Instant::now() + Duration::from_secs(5))
                .unwrap_err(),
            ProtocolError::Disconnected,
            "connection {name}"
        );
    }
}

/// A scripted panic on a shard ends service, and `shutdown` reports it
/// as `ServerPanicked` instead of taking the process down.
#[test]
fn a_scripted_panic_on_a_shard_is_reported_at_shutdown() {
    let sock = faulty_tcp_server(ServerFaultSpec {
        panic_after_frames: Some(1),
        ..ServerFaultSpec::default()
    });
    let a = TcpFrameChannel::connect(sock.local_addr()).expect("connect a");
    let b = TcpFrameChannel::connect(sock.local_addr()).expect("connect b");
    let long = Duration::from_secs(5);
    assert!(is_load_reply(&ask(&a, &Message::LoadQuery, long)));
    assert_eq!(
        ask(&b, &Message::LoadQuery, long),
        Err(ProtocolError::Disconnected),
        "frame 1 panics the shard serving it"
    );
    assert_eq!(sock.shutdown(), Err(ProtocolError::ServerPanicked));
    assert_eq!(
        a.recv_split_deadline(Instant::now() + long).unwrap_err(),
        ProtocolError::Disconnected
    );
}

/// A wire `Shutdown` from one connection ends `wait` with the served
/// count; a frame sent after it — on the same connection or another — is
/// never answered.
#[test]
fn a_wire_shutdown_ends_wait_and_nothing_after_it_is_served() {
    let sock = faulty_tcp_server(ServerFaultSpec::default());
    let a = TcpFrameChannel::connect(sock.local_addr()).expect("connect a");
    let b = TcpFrameChannel::connect(sock.local_addr()).expect("connect b");
    let mut client = fast_client(lp_models::alexnet(1));
    assert!(client.infer(&a, 8.0).expect("served").offloaded());
    let waiter = std::thread::spawn(move || sock.wait());
    b.send_batch(frames(&[Message::Shutdown, Message::LoadQuery]))
        .expect("sent");
    assert_eq!(waiter.join().expect("waiter thread"), Ok(1));
    let long = Instant::now() + Duration::from_secs(5);
    assert_eq!(
        b.recv_split_deadline(long).unwrap_err(),
        ProtocolError::Disconnected,
        "the query behind the shutdown is not answered"
    );
    let _ = a.send(Message::LoadQuery.encode().expect("no payload"));
    assert_eq!(
        a.recv_split_deadline(long).unwrap_err(),
        ProtocolError::Disconnected
    );
}

/// An offload request for `request_id` at cut `p`, with a token payload.
fn offload(request_id: u64, p: u32) -> Message {
    Message::OffloadRequest {
        request_id,
        partition_point: p,
        precision: lp_graph::Precision::Fp32,
        payload: Bytes::from(vec![0u8; 16]),
    }
}

/// One shard serving four connections that each pipeline suffixes and
/// probes gets every connection its replies in request order — probes
/// pipelined behind a suffix included. A connection that sends an
/// offload and a load query in one write has its query answered right
/// after the offload, without the shard waiting for `poll`: the query
/// sits whole in the read-ahead, and the socket holds nothing more to
/// wake the shard.
#[test]
fn a_shard_pipelines_suffixes_without_reordering() {
    let (_, edge) = models();
    let server = spawn_server(lp_models::alexnet(1), edge.clone(), 1.0);
    let sock = SocketServer::bind_tcp_sharded("127.0.0.1:0", server, 1).expect("bind loopback");
    let conns: Vec<TcpFrameChannel> = (0..4)
        .map(|_| TcpFrameChannel::connect(sock.local_addr()).expect("connect"))
        .collect();
    let rounds = 6u64;
    for conn in &conns {
        let pipelined: Vec<Message> = (0..rounds)
            .flat_map(|round| [offload(round, 8), probe(64)])
            .collect();
        conn.send_batch(frames(&pipelined)).expect("sent");
    }
    for (c, conn) in conns.iter().enumerate() {
        for round in 0..rounds {
            match recv(conn) {
                Message::OffloadResponse { request_id, .. } => {
                    assert_eq!(request_id, round, "connection {c}: suffix FIFO");
                }
                other => panic!("connection {c}, round {round}: got {other:?}"),
            }
            assert_eq!(
                recv(conn),
                Message::ProbeAck,
                "connection {c}, round {round}"
            );
        }
    }

    let lone = &conns[0];
    let mut fastest = Duration::MAX;
    for request_id in 100..105 {
        lone.send_batch(frames(&[offload(request_id, 8), Message::LoadQuery]))
            .expect("sent");
        assert!(matches!(recv(lone), Message::OffloadResponse { .. }));
        let t0 = Instant::now();
        let reply = lone
            .recv_split_deadline(t0 + Duration::from_secs(2))
            .expect("the query is served without new bytes on the socket");
        fastest = fastest.min(t0.elapsed());
        assert!(matches!(
            Message::decode_frame(reply).expect("decodes"),
            Message::LoadReply { .. }
        ));
    }
    assert!(
        fastest < Duration::from_millis(100),
        "the query waited {fastest:?} behind its offload"
    );
    assert_eq!(sock.shutdown(), Ok(rounds * 4 + 5));
}

/// Sends offload requests cut at `N`, `N + 1` and `u32::MAX` — the cut
/// comes off the wire unchecked — to a server whose environment stretches
/// executions 6×. Each is served as the empty suffix: admitted with a
/// zero predicted time (no server time, and no load-factor sample, so the
/// next load query still reads `k = 1`) and answered with the model's
/// output tensor.
fn cuts_past_the_end_are_empty_suffixes(chan: &impl FrameChannel) {
    let wait = Duration::from_secs(5);
    let out_bytes = lp_models::alexnet(1).output().size_bytes() as usize;
    for (request_id, p) in [(0, N as u32), (1, N as u32 + 1), (2, u32::MAX)] {
        chan.send_split(offload(request_id, p).to_frame().expect("encodes"))
            .expect("sent");
        let reply = chan
            .recv_split_deadline(Instant::now() + wait)
            .expect("answered");
        match Message::decode_frame(reply).expect("decodes") {
            Message::OffloadResponse {
                request_id: echoed,
                server_time_us,
                payload,
            } => {
                assert_eq!(echoed, request_id, "cut {p}");
                assert_eq!(server_time_us, 0, "cut {p}: nothing predicted");
                assert_eq!(payload.len(), out_bytes, "cut {p}: the model output");
            }
            other => panic!("cut {p}: expected an offload response, got {other:?}"),
        }
    }
    chan.send_split(Message::LoadQuery.to_frame().expect("encodes"))
        .expect("sent");
    let reply = chan
        .recv_split_deadline(Instant::now() + wait)
        .expect("answered");
    match Message::decode_frame(reply).expect("decodes") {
        Message::LoadReply { k_micro } => {
            assert_eq!(Message::micro_to_k(k_micro), 1.0, "no sample recorded");
        }
        other => panic!("expected a load reply, got {other:?}"),
    }
}

#[test]
fn cuts_past_the_end_are_empty_suffixes_over_channels() {
    let (_, edge) = models();
    let server = spawn_server(lp_models::alexnet(1), edge.clone(), 6.0);
    cuts_past_the_end_are_empty_suffixes(&server);
    assert_eq!(server.shutdown(), Ok(3), "all three admitted");
}

#[test]
fn cuts_past_the_end_are_empty_suffixes_over_tcp() {
    let (_, edge) = models();
    let server = spawn_server(lp_models::alexnet(1), edge.clone(), 6.0);
    let sock = SocketServer::bind_tcp_sharded("127.0.0.1:0", server, 2).expect("bind loopback");
    let chan = TcpFrameChannel::connect(sock.local_addr()).expect("connect");
    cuts_past_the_end_are_empty_suffixes(&chan);
    assert_eq!(
        sock.shutdown(),
        Ok(3),
        "all three admitted, no shard panicked"
    );
}
