//! The record checks accept real records and name the first record that
//! was altered.

use loadpart::{
    spawn_server, EngineConfig, InferenceRecord, MemoPolicy, PartitionPolicy, PartitionSolver,
    Policy, Precision, QuantPolicy, ThreadedClient, DEFAULT_ACCURACY_BUDGET,
};
use lp_graph::ComputationGraph;
use perfbench::check::{served, Tally, UploadSizes};
use perfbench::trained;
use perfbench::wire::{WirePolicy, WireSpec, STEADY_MBPS};
use std::sync::Arc;

/// Runs `requests` requests of a wire workload over the in-process
/// channel and returns the records and the server's served count.
fn records(spec: WireSpec, requests: usize) -> (Arc<ComputationGraph>, Vec<InferenceRecord>, u64) {
    let graph = Arc::new(lp_models::by_name(spec.model, 1).expect("model"));
    let (user, edge) = trained();
    let server = spawn_server(Arc::clone(&graph), edge.clone(), 1.0);
    let mut client = match spec.policy {
        WirePolicy::LoadPart => ThreadedClient::new(Arc::clone(&graph), &user, &edge),
        WirePolicy::Quant => ThreadedClient::with_policy(
            Arc::clone(&graph),
            Box::new(QuantPolicy::for_graph(&graph, DEFAULT_ACCURACY_BUDGET)),
            &user,
            &edge,
            EngineConfig::default(),
        )
        .expect("valid config"),
    };
    let mut bandwidth = spec.bandwidths(9, 0);
    let out = (0..requests)
        .map(|_| client.infer(&server, bandwidth()).expect("infer"))
        .collect();
    (graph, out, server.shutdown().expect("clean shutdown"))
}

/// The first error a fresh tally reports over `records`.
fn first_error(
    spec: WireSpec,
    graph: &ComputationGraph,
    records: &[InferenceRecord],
) -> Option<String> {
    let (user, edge) = trained();
    let solver = PartitionSolver::new(graph, &user, &edge);
    let sizes = UploadSizes::new(graph, &solver);
    let (replica, pure) = spec.replica(graph);
    let mut tally = Tally::new(0, &solver, &sizes, replica, pure);
    for r in records {
        tally.observe(r);
    }
    tally.error().map(str::to_owned)
}

const STEADY: WireSpec = WireSpec {
    model: "alexnet",
    policy: WirePolicy::LoadPart,
};
const DRIFT: WireSpec = WireSpec {
    model: "resnet50",
    policy: WirePolicy::Quant,
};

#[test]
fn real_records_pass() {
    for spec in [STEADY, DRIFT] {
        let (graph, recs, count) = records(spec, 40);
        assert_eq!(first_error(spec, &graph, &recs), None, "{spec:?}");
        let offloads = recs.iter().filter(|r| r.offloaded()).count() as u64;
        assert_eq!(served((offloads, offloads), count), Ok(()));
    }
}

#[test]
fn an_altered_decision_is_named() {
    let (graph, mut recs, _) = records(STEADY, 20);
    recs[7].p += 1;
    let err = first_error(STEADY, &graph, &recs).expect("caught");
    assert!(
        err.contains("request 7") && err.contains("policy decides"),
        "{err}"
    );

    let (graph, mut recs, _) = records(DRIFT, 20);
    let i = recs
        .iter()
        .position(|r| r.precision == Precision::Int8)
        .expect("an int8 upload");
    recs[i].precision = Precision::Fp16;
    let err = first_error(DRIFT, &graph, &recs).expect("caught");
    assert!(err.contains(&format!("request {i}:")), "{err}");

    let (graph, mut recs, _) = records(DRIFT, 20);
    recs[3].predicted += lp_sim::SimDuration::from_micros(1);
    let err = first_error(DRIFT, &graph, &recs).expect("caught");
    assert!(err.contains("request 3:"), "{err}");
}

#[test]
fn an_altered_upload_size_or_id_is_named() {
    let (graph, mut recs, _) = records(STEADY, 20);
    recs[5].uploaded_bytes -= 1;
    let err = first_error(STEADY, &graph, &recs).expect("caught");
    assert!(
        err.contains("request 5") && err.contains("packs to"),
        "{err}"
    );

    let (graph, mut recs, _) = records(STEADY, 20);
    recs.remove(11);
    let err = first_error(STEADY, &graph, &recs).expect("caught");
    assert!(
        err.contains("request 12") && err.contains("expected request id 11"),
        "{err}"
    );
}

#[test]
fn a_served_count_that_disagrees_fails() {
    assert!(served((10, 10), 9).is_err());
    assert!(served((10, 10), 11).is_err());
    assert_eq!(served((9, 10), 10), Ok(()));
}

#[test]
fn the_steady_band_keeps_one_cut_point() {
    let graph = lp_models::alexnet(1);
    let (user, edge) = trained();
    let solver = PartitionSolver::new(&graph, &user, &edge);
    let mut policy = MemoPolicy::new(Policy::LoadPart.build());
    let cut = |mbps: f64, policy: &mut MemoPolicy| {
        policy
            .decide(&loadpart::PolicyContext {
                solver: &solver,
                bandwidth_mbps: mbps,
                k: 1.0,
                now: lp_sim::SimTime::ZERO,
            })
            .p
    };
    let first = cut(STEADY_MBPS.0, &mut policy);
    assert!(first < graph.len(), "the band offloads");
    for i in 0..=80 {
        let mbps = STEADY_MBPS.0 + (STEADY_MBPS.1 - STEADY_MBPS.0) * f64::from(i) / 80.0;
        assert_eq!(cut(mbps, &mut policy), first, "at {mbps} Mbps");
    }
}
