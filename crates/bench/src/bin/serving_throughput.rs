//! Serving-throughput benchmark: the unbatched copying serving path
//! versus the batching zero-copy one, under identical wire traffic from
//! 1/4/8/16 concurrent threaded clients.
//!
//! Same harness as `loadpart bench`; this binary exists so the benchmark
//! sits next to the other experiment drivers. Writes `BENCH_serving.json`
//! in the working directory (override with `--out <path>`), `--quick` for
//! the small CI configuration.

use loadpart::{serving_bench, BenchConfig};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let config = if args.iter().any(|a| a == "--quick") {
        BenchConfig::quick()
    } else {
        BenchConfig::default()
    };
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1).cloned())
        .unwrap_or_else(|| "BENCH_serving.json".to_string());
    let report = serving_bench(&config);
    print!("{}", report.render_table());
    std::fs::write(&out_path, report.to_json().to_string_pretty())
        .unwrap_or_else(|e| panic!("cannot write {out_path:?}: {e}"));
    println!("report written to {out_path}");
}
