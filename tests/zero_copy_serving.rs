//! The tuned serving path copies no framing bytes.
//!
//! Requests leave as header/payload frames and replies come back framed
//! by `Message::to_frame`, so an offload's tensor crosses the wire as a
//! reference-count bump, never a memcpy. The copy counter
//! (`framing_bytes_copied`) is process-wide, which is why this check has
//! a test binary of its own: no other test can copy frames while it runs.

use loadpart::{serving_bench, BenchConfig, BenchTransport};
use std::time::Duration;

#[test]
fn tuned_serving_path_copies_no_framing_bytes() {
    for transport in [BenchTransport::Channel, BenchTransport::Tcp] {
        let report = serving_bench(&BenchConfig {
            client_counts: vec![1, 2],
            requests_per_client: 3,
            suffix_cost: Duration::ZERO,
            samples_per_kind: 64,
            transport: transport.clone(),
            ..BenchConfig::default()
        });
        for p in &report.points {
            assert!(
                p.offloaded > 0,
                "{transport:?}: nothing crossed the wire: {p:?}"
            );
            assert_eq!(p.bytes_copied, 0, "{transport:?}: framing copied: {p:?}");
        }
    }
}
