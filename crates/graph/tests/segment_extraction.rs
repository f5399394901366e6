//! `extract_segment` indexes segment-local nodes by position and marks
//! outputs in one pass over the nodes after the segment. This test pins it
//! to the algorithm it replaced, kept here as the oracle: segment-local
//! nodes and Parameters found through hash maps, and outputs read from the
//! whole graph's consumer table. Both must return equal `SegmentGraph`s on
//! every zoo network over a seeded sweep of prefixes, suffixes and inner
//! segments.

use lp_graph::partition::{extract_segment, SegNode, SegParameter, SegValue};
use lp_graph::{ComputationGraph, Segment, SegmentGraph, ValueId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

/// Cut points per network, besides `p = 0` and `p = n`.
const CUTS: usize = 12;

/// Figure 5 as extracted before: hash maps from positions to local nodes
/// and from values to Parameters; a value is an output when any of its
/// consumers lies outside the segment, or when it is the graph's output.
fn extract_by_consumer_table(graph: &ComputationGraph, segment: Segment) -> SegmentGraph {
    let mut parameters: Vec<SegParameter> = Vec::new();
    let mut param_of: HashMap<ValueId, usize> = HashMap::new();
    let mut local_of: HashMap<usize, usize> = HashMap::new();
    let mut nodes: Vec<SegNode> = Vec::new();
    for (id, n) in graph.iter() {
        let pos = id.position();
        if !segment.contains(pos) {
            continue;
        }
        let mut inputs = Vec::new();
        for &v in &n.inputs {
            let ppos = v.producer_position();
            let sv = if segment.contains(ppos) {
                SegValue::Node(local_of[&ppos])
            } else {
                let idx = *param_of.entry(v).or_insert_with(|| {
                    let name = match v {
                        ValueId::Input => "param_input".to_string(),
                        ValueId::Node(nid) => format!("param_L{}", nid.position()),
                    };
                    parameters.push(SegParameter {
                        name,
                        source: v,
                        desc: graph.value_desc(v).clone(),
                    });
                    parameters.len() - 1
                });
                SegValue::Param(idx)
            };
            inputs.push(sv);
        }
        local_of.insert(pos, nodes.len());
        nodes.push(SegNode {
            name: n.name.clone(),
            kind: n.kind,
            inputs,
            output: n.output.clone(),
        });
    }
    let consumers = graph.consumer_table();
    let mut outputs = Vec::new();
    for (id, _) in graph.iter() {
        let pos = id.position();
        if !segment.contains(pos) {
            continue;
        }
        let v = ValueId::Node(id);
        let used_outside = consumers[pos]
            .iter()
            .any(|c| !segment.contains(c.position()));
        if used_outside || graph.output_value() == v {
            outputs.push((SegValue::Node(local_of[&pos]), v));
        }
    }
    SegmentGraph {
        segment,
        parameters,
        nodes,
        outputs,
    }
}

/// Both sides of `p = 0`, `p = n` and `CUTS` evenly spaced cuts, and for
/// each cut one short and one arbitrary inner segment starting next to
/// it, drawn from `rng`.
fn segments(n: usize, rng: &mut StdRng) -> Vec<Segment> {
    let mut out = Vec::new();
    for i in 0..=CUTS {
        let p = n * i / CUTS;
        if p >= 1 {
            out.push(Segment::new(1, p));
        }
        if p < n {
            out.push(Segment::new(p + 1, n));
            let short_end = rng.gen_range(p + 1..=(p + 8).min(n));
            out.push(Segment::new(p + 1, short_end));
            out.push(Segment::new(p + 1, rng.gen_range(p + 1..=n)));
        }
    }
    out
}

#[test]
fn extraction_equals_the_consumer_table_oracle_on_the_zoo() {
    let mut rng = StdRng::seed_from_u64(0xF165);
    let mut checked = 0;
    for graph in lp_models::full_zoo(1) {
        for segment in segments(graph.len(), &mut rng) {
            let got = extract_segment(&graph, segment).expect("segment within the graph");
            assert_eq!(
                got,
                extract_by_consumer_table(&graph, segment),
                "{} [{}, {}]",
                graph.name(),
                segment.start,
                segment.end
            );
            checked += 1;
        }
    }
    // 9 networks: p = 0 gives three segments (no prefix), p = n one (no
    // suffix), the 11 cuts between four each.
    assert_eq!(checked, 9 * (3 + 11 * 4 + 1));
}
