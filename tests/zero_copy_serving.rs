//! The serving path copies no framing bytes — nor does the fault layer.
//!
//! Requests leave as header/payload frames and replies come back framed
//! by `Message::to_frame`, so an offload's tensor crosses the wire as a
//! reference-count bump, never a memcpy; the link emulator passes frames
//! through the same way, faults and timing included. The copy counter
//! (`framing_bytes_copied`) is process-wide, which is why this check has
//! a test binary of its own, and why its tests take turns: no other test
//! can copy frames while one runs.

use loadpart::{
    chaos_run, framing_bytes_copied, spawn_server, ChaosConfig, ChaosTransport, EmulatedLink,
    FrameChannel, LinkSpec, SocketServer, TcpFrameChannel, Telemetry, ThreadedClient,
};
use std::sync::Mutex;
use std::time::Duration;

static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

/// Offloads cross the serving path uncopied: two clients over channel
/// sessions of one server and two over TCP to a socket server, three
/// requests each.
#[test]
fn tuned_serving_path_copies_no_framing_bytes() {
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let (user, edge) = loadpart::system::trained_models(64, 7);
    let graph = lp_models::alexnet(1);
    let channels = spawn_server(graph.clone(), edge.clone(), 1.0);
    let sockets = SocketServer::bind_tcp(
        "127.0.0.1:0",
        spawn_server(graph.clone(), edge.clone(), 1.0),
    )
    .expect("bind loopback");
    let mut conns: Vec<(&str, Box<dyn FrameChannel>)> = Vec::new();
    for _ in 0..2 {
        conns.push(("channel", Box::new(channels.connect())));
    }
    for _ in 0..2 {
        let conn = TcpFrameChannel::connect(sockets.local_addr()).expect("connect");
        conns.push(("tcp", Box::new(conn)));
    }
    let before = framing_bytes_copied();
    for (transport, conn) in &conns {
        let mut client = ThreadedClient::new(graph.clone(), &user, &edge);
        let offloaded = (0..3)
            .map(|_| client.infer(conn.as_ref(), 8.0).expect("healthy server"))
            .filter(|r| r.offloaded())
            .count();
        assert!(offloaded > 0, "{transport}: nothing crossed the wire");
    }
    channels.shutdown().expect("clean shutdown");
    sockets.shutdown().expect("clean shutdown");
    let copied = framing_bytes_copied() - before;
    assert_eq!(copied, 0, "the serving path copied framing bytes");
}

/// Frames cross the emulated link uncopied: a chaos soak whose clients
/// run the default fault plans (a dropped send, a corrupted reply), over
/// channels and over TCP, and a session through a link with latency and
/// jitter.
#[test]
fn fault_layer_copies_no_framing_bytes() {
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let (user, edge) = loadpart::system::trained_models(60, 1);
    let graph = lp_models::alexnet(1);
    for transport in [ChaosTransport::Channel, ChaosTransport::Tcp] {
        let config = ChaosConfig {
            rounds: 12,
            transport: transport.clone(),
            ..ChaosConfig::default()
        };
        let before = framing_bytes_copied();
        let report =
            chaos_run(&graph, &user, &edge, &config, &Telemetry::disabled()).expect("valid");
        let copied = framing_bytes_copied() - before;
        let faults: u64 = report.clients.iter().map(|c| c.faults_injected).sum();
        assert_eq!(faults, 2, "{transport:?}: both scripted faults fire");
        let served: u64 = report.servers.iter().filter_map(|s| s.server_served).sum();
        assert!(served > 0, "{transport:?}: nothing offloaded");
        assert_eq!(copied, 0, "{transport:?}: the soak copied framing bytes");
    }

    let server = spawn_server(graph.clone(), edge.clone(), 1.0);
    let mut client = ThreadedClient::new(graph, &user, &edge);
    let link = EmulatedLink::new(
        &server,
        LinkSpec {
            latency: Duration::from_millis(1),
            jitter: Duration::from_millis(1),
            seed: 7,
            ..LinkSpec::default()
        },
    );
    let before = framing_bytes_copied();
    for _ in 0..3 {
        let r = client.infer(&link, 8.0).expect("slow but alive");
        assert!(r.offloaded() && !r.fallback_local, "{r:?}");
    }
    let copied = framing_bytes_copied() - before;
    assert_eq!(copied, 0, "the emulated link copied framing bytes");
    assert_eq!(server.shutdown(), Ok(3));
}
