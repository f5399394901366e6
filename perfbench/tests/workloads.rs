//! Each workload, run for a fraction of a second, passes its checks and
//! reports exactly the metrics `BENCHMARK.json` names.

use lp_json::Json;
use perfbench::Workload;
use std::collections::BTreeSet;
use std::time::Instant;

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn names(json: &Json, key: &str, field: &str) -> BTreeSet<String> {
    json.get(key)
        .and_then(Json::as_arr)
        .expect("a list")
        .iter()
        .map(|m| {
            m.get(field)
                .and_then(Json::as_str)
                .expect("a name")
                .to_owned()
        })
        .collect()
}

#[test]
fn benchmark_json_lists_every_workload() {
    let listed = names(&benchmark_json(), "workloads", "name");
    let ours: BTreeSet<String> = Workload::ALL.iter().map(|w| w.name().to_owned()).collect();
    assert_eq!(listed, ours);
}

#[test]
fn each_workload_at_a_tiny_length_passes_its_checks() {
    let json = benchmark_json();
    let end_to_end = names(&json, "end_to_end", "name");
    let per_layer = names(&json, "per_layer", "name");
    for workload in Workload::ALL {
        for traced in [false, true] {
            let report = workload.run(3, 0.3, traced, Instant::now(), None);
            let what = format!("{} traced={traced}", workload.name());
            assert_eq!(report.error, None, "{what}");
            assert!(report.attempted > 0, "{what}");
            assert_eq!(report.failed, 0, "{what}");
            assert!(report.setup_s > 0.0, "{what}");
            // run.py adds `setup_s` (a median over processes) and
            // `trace.overhead_pct` (a comparison of processes).
            let mut emitted: BTreeSet<String> =
                report.metrics.iter().map(|m| m.name.to_owned()).collect();
            emitted.insert("setup_s".into());
            assert_eq!(emitted, end_to_end, "{what}");
            assert!(report.metrics.iter().all(|m| m.value > 0.0), "{what}");
            if traced {
                let mut layers: BTreeSet<String> =
                    report.layers.iter().map(|m| m.name.to_owned()).collect();
                layers.insert("trace.overhead_pct".into());
                assert_eq!(layers, per_layer, "{what}");
            }
        }
    }
}

#[test]
fn setup_mode_stops_before_the_timed_phase() {
    let report = Workload::WireSteady.run(1, 0.0, false, Instant::now(), None);
    assert_eq!(report.attempted, 0);
    assert!(report.metrics.is_empty());
    assert!(report.setup_s > 0.0);
}
