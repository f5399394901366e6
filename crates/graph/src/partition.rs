//! Segment extraction — the Figure 5 procedure.
//!
//! Given a contiguous segment of the topological order, the partitioner
//! builds a standalone subgraph:
//!
//! 1. every input produced *before* the segment becomes a fresh `Parameter`
//!    (the paper's circles in Figure 5);
//! 2. every value produced inside the segment and consumed *after* it (or
//!    designated as the graph output) becomes a segment output;
//! 3. if there is more than one output, a `MakeTuple` node packs them; a
//!    `Return` node closes the subgraph either way.
//!
//! Applying this to `[L_1..L_p]` and `[L_{p+1}..L_n]` yields the device-side
//! and server-side graphs of a partition.

use crate::graph::{ComputationGraph, GraphError, NodeId, ValueId};
use crate::node::NodeKind;
use lp_tensor::TensorDesc;

/// A contiguous, 1-based inclusive range `[start, end]` of topological
/// positions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Segment {
    /// First node position in the segment.
    pub start: usize,
    /// Last node position in the segment.
    pub end: usize,
}

impl Segment {
    /// Creates a segment; `start` must be ≥ 1 and ≤ `end`.
    ///
    /// # Panics
    ///
    /// Panics when the range is empty or zero-based.
    #[must_use]
    pub fn new(start: usize, end: usize) -> Self {
        assert!(
            start >= 1 && start <= end,
            "invalid segment [{start},{end}]"
        );
        Self { start, end }
    }

    /// Whether the topological position lies inside the segment.
    #[must_use]
    pub fn contains(&self, pos: usize) -> bool {
        (self.start..=self.end).contains(&pos)
    }

    /// Number of nodes in the segment.
    #[must_use]
    pub fn len(&self) -> usize {
        self.end - self.start + 1
    }

    /// Segments are never empty by construction.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        false
    }
}

/// A value inside a [`SegmentGraph`]: either one of its Parameters or the
/// output of one of its local nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SegValue {
    /// Index into [`SegmentGraph::parameters`].
    Param(usize),
    /// Index into [`SegmentGraph::nodes`].
    Node(usize),
}

/// A Parameter synthesized for a value produced outside the segment.
#[derive(Debug, Clone, PartialEq)]
pub struct SegParameter {
    /// Generated name, e.g. `"param_L3"`.
    pub name: String,
    /// The original value this parameter stands in for.
    pub source: ValueId,
    /// Tensor carried by the parameter.
    pub desc: TensorDesc,
}

/// A node of a segment graph, with inputs remapped to segment-local values.
#[derive(Debug, Clone, PartialEq)]
pub struct SegNode {
    /// Original node name.
    pub name: String,
    /// The operation.
    pub kind: NodeKind,
    /// Segment-local inputs.
    pub inputs: Vec<SegValue>,
    /// Output tensor.
    pub output: TensorDesc,
}

/// One standalone executable subgraph produced by segment extraction.
#[derive(Debug, Clone, PartialEq)]
pub struct SegmentGraph {
    /// The extracted range.
    pub segment: Segment,
    /// Synthesized Parameters, in producer order.
    pub parameters: Vec<SegParameter>,
    /// Nodes, in the original topological order.
    pub nodes: Vec<SegNode>,
    /// Segment outputs (fed to MakeTuple/Return), with their original ids.
    pub outputs: Vec<(SegValue, ValueId)>,
}

impl SegmentGraph {
    /// Whether a `MakeTuple` node is required (more than one output —
    /// Figure 5's "M" node).
    #[must_use]
    pub fn needs_make_tuple(&self) -> bool {
        self.outputs.len() > 1
    }

    /// Node count including the synthesized `MakeTuple` (if any) and the
    /// `Return` node, i.e. the size of the materialised MindIR-style graph.
    #[must_use]
    pub fn node_count_with_glue(&self) -> usize {
        self.nodes.len() + usize::from(self.needs_make_tuple()) + 1
    }

    /// Total bytes of the segment's output tensors (what this side ships).
    #[must_use]
    pub fn output_bytes(&self) -> u64 {
        self.outputs
            .iter()
            .map(|(v, _)| self.value_desc(*v).size_bytes())
            .sum()
    }

    /// Total bytes of Parameters fed from the other side.
    #[must_use]
    pub fn input_bytes(&self) -> u64 {
        self.parameters.iter().map(|p| p.desc.size_bytes()).sum()
    }

    /// Tensor descriptor of a segment-local value.
    #[must_use]
    pub fn value_desc(&self, v: SegValue) -> &TensorDesc {
        match v {
            SegValue::Param(i) => &self.parameters[i].desc,
            SegValue::Node(i) => &self.nodes[i].output,
        }
    }
}

/// Extracts a segment of the topological order into a [`SegmentGraph`]
/// (Figure 5).
///
/// Node `pos` of the segment is local node `pos - start`, and a value from
/// before the segment is looked up by its producer's position, so the
/// extraction hashes nothing. The graph is in topological order, so every
/// consumer of a segment value comes after its producer: "used outside"
/// is "used after `end`", which one pass over the later nodes marks.
///
/// # Errors
///
/// Returns [`GraphError::DanglingOutput`] if the segment range exceeds the
/// graph.
pub fn extract_segment(
    graph: &ComputationGraph,
    segment: Segment,
) -> Result<SegmentGraph, GraphError> {
    if segment.end > graph.len() {
        return Err(GraphError::DanglingOutput);
    }
    let mut parameters: Vec<SegParameter> = Vec::new();
    // `param_of[q]`: the Parameter standing in for the value produced at
    // position `q < start` (0 = the graph input), once one exists.
    let mut param_of: Vec<Option<usize>> = vec![None; segment.start];
    let mut nodes: Vec<SegNode> = Vec::with_capacity(segment.len());

    for n in &graph.nodes()[segment.start - 1..segment.end] {
        let inputs = n
            .inputs
            .iter()
            .map(|&v| {
                let ppos = v.producer_position();
                if ppos >= segment.start {
                    return SegValue::Node(ppos - segment.start);
                }
                // Step 1 of Figure 5: generate a Parameter for each direct
                // predecessor outside the segment.
                let idx = *param_of[ppos].get_or_insert_with(|| {
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
            })
            .collect();
        nodes.push(SegNode {
            name: n.name.clone(),
            kind: n.kind,
            inputs,
            output: n.output.clone(),
        });
    }

    // Step 2: outputs are values produced inside and consumed after the
    // segment, plus the designated graph output when it lives in it.
    let mut is_output = vec![false; segment.len()];
    let later_inputs = graph.nodes()[segment.end..].iter().flat_map(|n| &n.inputs);
    for v in later_inputs.chain([&graph.output_value()]) {
        let ppos = v.producer_position();
        if segment.contains(ppos) {
            is_output[ppos - segment.start] = true;
        }
    }
    let outputs = (segment.start..=segment.end)
        .filter(|&pos| is_output[pos - segment.start])
        .map(|pos| {
            (
                SegValue::Node(pos - segment.start),
                ValueId::Node(NodeId(pos)),
            )
        })
        .collect();
    Ok(SegmentGraph {
        segment,
        parameters,
        nodes,
        outputs,
    })
}

/// The two sides of a DNN partitioned after point `p`.
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionedGraph {
    /// The partition point.
    pub p: usize,
    /// Device-side subgraph (`L_1..L_p`); `None` for full offloading.
    pub device: Option<SegmentGraph>,
    /// Server-side subgraph (`L_{p+1}..L_n`); `None` for local inference.
    pub server: Option<SegmentGraph>,
}

impl PartitionedGraph {
    /// Bytes uploaded from device to server for this partition: the tensors
    /// crossing the cut, the whole input when `p = 0`, and zero for local
    /// inference (`p = n`, nothing leaves the device).
    #[must_use]
    pub fn upload_bytes(&self, graph: &ComputationGraph) -> u64 {
        if self.server.is_none() {
            return 0;
        }
        match &self.device {
            Some(d) => d.output_bytes(),
            None => graph.input().size_bytes(),
        }
    }
}

/// Partitions a graph after point `p` (0 = full offloading, `n` = local).
///
/// # Errors
///
/// Returns [`GraphError::DanglingOutput`] when `p > n`.
pub fn partition_at(graph: &ComputationGraph, p: usize) -> Result<PartitionedGraph, GraphError> {
    let n = graph.len();
    if p > n {
        return Err(GraphError::DanglingOutput);
    }
    let device = if p >= 1 {
        Some(extract_segment(graph, Segment::new(1, p))?)
    } else {
        None
    };
    let server = if p < n {
        Some(extract_segment(graph, Segment::new(p + 1, n))?)
    } else {
        None
    };
    Ok(PartitionedGraph { p, device, server })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cut::cut_at;
    use crate::graph::GraphBuilder;
    use crate::node::{Activation, ConvAttrs, NodeKind};
    use lp_tensor::{Shape, TensorDesc};

    fn residual_graph() -> ComputationGraph {
        let mut b = GraphBuilder::new("res", TensorDesc::f32(Shape::nchw(1, 8, 8, 8)));
        let c1 = b
            .node("c1", NodeKind::Conv(ConvAttrs::same(8, 3)), [b.input()])
            .unwrap();
        let r1 = b
            .node("r1", NodeKind::Activation(Activation::Relu), [c1])
            .unwrap();
        let c2 = b
            .node("c2", NodeKind::Conv(ConvAttrs::same(8, 3)), [r1])
            .unwrap();
        let add = b.node("add", NodeKind::Add, [r1, c2]).unwrap();
        b.finish(add).unwrap()
    }

    #[test]
    fn segment_basics() {
        let s = Segment::new(2, 5);
        assert_eq!(s.len(), 4);
        assert!(s.contains(2) && s.contains(5) && !s.contains(6) && !s.contains(1));
        assert!(!s.is_empty());
    }

    #[test]
    #[should_panic(expected = "invalid segment")]
    fn zero_start_panics() {
        let _ = Segment::new(0, 3);
    }

    #[test]
    fn prefix_segment_has_input_parameter() {
        let g = residual_graph();
        let seg = extract_segment(&g, Segment::new(1, 2)).unwrap();
        assert_eq!(seg.parameters.len(), 1);
        assert_eq!(seg.parameters[0].source, ValueId::Input);
        assert_eq!(seg.nodes.len(), 2);
        // r1 feeds both c2 and add outside -> exactly one output tensor.
        assert_eq!(seg.outputs.len(), 1);
        assert!(!seg.needs_make_tuple());
        // Return only (no MakeTuple): 2 nodes + 1 glue.
        assert_eq!(seg.node_count_with_glue(), 3);
    }

    #[test]
    fn mid_block_segment_needs_make_tuple() {
        let g = residual_graph();
        // Segment [1..3]: outputs r1 (consumed by add) and c2 (consumed by
        // add) -> MakeTuple required, mirroring Figure 5.
        let seg = extract_segment(&g, Segment::new(1, 3)).unwrap();
        assert_eq!(seg.outputs.len(), 2);
        assert!(seg.needs_make_tuple());
        assert_eq!(seg.node_count_with_glue(), 3 + 2);
    }

    #[test]
    fn suffix_segment_parameters_match_cut() {
        let g = residual_graph();
        for p in 0..g.len() {
            let seg = extract_segment(&g, Segment::new(p + 1, g.len())).unwrap();
            let cut = cut_at(&g, p);
            let param_sources: Vec<ValueId> = seg.parameters.iter().map(|pa| pa.source).collect();
            assert_eq!(param_sources, cut.crossing, "p={p}");
            assert_eq!(seg.input_bytes(), cut.bytes, "p={p}");
        }
    }

    #[test]
    fn partition_round_trip_counts() {
        let g = residual_graph();
        for p in 0..=g.len() {
            let part = partition_at(&g, p).unwrap();
            let dev_n = part.device.as_ref().map_or(0, |s| s.nodes.len());
            let srv_n = part.server.as_ref().map_or(0, |s| s.nodes.len());
            assert_eq!(dev_n + srv_n, g.len(), "p={p}");
            assert_eq!(part.upload_bytes(&g), cut_at(&g, p).bytes, "p={p}");
        }
    }

    #[test]
    fn full_offload_and_local_edges() {
        let g = residual_graph();
        let full = partition_at(&g, 0).unwrap();
        assert!(full.device.is_none());
        assert_eq!(full.upload_bytes(&g), g.input().size_bytes());
        let local = partition_at(&g, g.len()).unwrap();
        assert!(local.server.is_none());
        assert_eq!(local.upload_bytes(&g), 0);
    }

    #[test]
    fn out_of_range_partition_errors() {
        let g = residual_graph();
        assert!(partition_at(&g, g.len() + 1).is_err());
        assert!(extract_segment(&g, Segment::new(1, 99)).is_err());
    }

    #[test]
    fn server_graph_output_is_graph_output() {
        let g = residual_graph();
        let part = partition_at(&g, 2).unwrap();
        let server = part.server.unwrap();
        let out_ids: Vec<ValueId> = server.outputs.iter().map(|&(_, v)| v).collect();
        assert_eq!(out_ids, vec![g.output_value()]);
    }
}
