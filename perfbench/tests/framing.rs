//! Tracing must not change the traffic it measures: the traced channel
//! copies no more frame bytes than the bare one. A wrapper that forwards
//! only `send`/`recv_deadline` flattens every split frame, and the copy
//! counter shows it. One test, in its own process, because the copy
//! counter is process-wide.

use bytes::Bytes;
use loadpart::{
    framing_bytes_copied, spawn_server, FrameChannel, ProtocolError, SocketServer, TcpFrameChannel,
    ThreadedClient,
};
use perfbench::spans::{SpanLog, TracedChannel};
use perfbench::{trained, Workload};
use std::cell::RefCell;
use std::time::Instant;

/// Forwards only the two contiguous methods, like a naive middlebox.
struct SendRecvOnly<'a>(&'a TcpFrameChannel);

impl FrameChannel for SendRecvOnly<'_> {
    fn send(&self, frame: Bytes) -> Result<(), ProtocolError> {
        self.0.send(frame)
    }

    fn recv_deadline(&self, deadline: Instant) -> Result<Bytes, ProtocolError> {
        self.0.recv_deadline(deadline)
    }
}

/// Hands a connection, wrapped or not, to the request loop.
type Wrap = dyn Fn(&TcpFrameChannel, &mut dyn FnMut(&dyn FrameChannel));

/// Bytes copied per request by 20 AlexNet requests over `wrap`.
fn copied_per_request(wrap: &Wrap) -> f64 {
    let graph = lp_models::alexnet(1);
    let (user, edge) = trained();
    let socket = SocketServer::bind_tcp(
        "127.0.0.1:0",
        spawn_server(graph.clone(), edge.clone(), 1.0),
    )
    .expect("bind");
    let conn = TcpFrameChannel::connect(socket.local_addr()).expect("connect");
    let mut client = ThreadedClient::new(graph, &user, &edge);
    client.infer(&conn, 8.0).expect("warm-up");
    let requests = 20;
    let before = framing_bytes_copied();
    wrap(&conn, &mut |channel| {
        for _ in 0..requests {
            let r = client.infer(channel, 8.0).expect("infer");
            assert!(r.offloaded());
        }
    });
    let copied = framing_bytes_copied() - before;
    socket.shutdown().expect("clean shutdown");
    copied as f64 / f64::from(requests)
}

#[test]
fn tracing_copies_no_more_frame_bytes_than_the_bare_channel() {
    let bare = copied_per_request(&|conn, drive| drive(conn));
    let traced = copied_per_request(&|conn, drive| {
        let log = RefCell::new(SpanLog::new(Instant::now()));
        drive(&TracedChannel::new(conn, &log));
        assert!(!log.borrow().spans().is_empty());
    });
    let flattening = copied_per_request(&|conn, drive| drive(&SendRecvOnly(conn)));
    assert_eq!(bare, traced);
    assert!(
        flattening > bare,
        "{flattening} vs {bare}: the counter must see flattening"
    );

    // The same holds for whole runs of the benchmark.
    let per_run = |traced| {
        let before = framing_bytes_copied();
        let report = Workload::WireSteady.run(5, 0.3, traced, Instant::now(), None);
        assert_eq!(report.error, None);
        (framing_bytes_copied() - before) as f64 / report.completed as f64
    };
    assert_eq!(per_run(false), per_run(true));
}
