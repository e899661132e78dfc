//! Fusion IR over the kernel registry: small edge/vertex dataflow graphs
//! lowered into [`TwoStagePipeline`](crate::gnnone::TwoStagePipeline)
//! launches.
//!
//! The paper's observation that every GNN sparse kernel is an instance of
//! one unified two-stage shape (PR 3's pipeline refactor) is taken one
//! step further here: GNN *dataflow* is expressed as a graph of scoped
//! edge/vertex ops, and a pattern-matching lowering pass maps op chains
//! onto single pipeline instantiations instead of per-op launches. New
//! GNN variants become IR graphs, not new hand-written kernels.
//!
//! ## Scoping model
//!
//! Every IR value lives in one of two spaces:
//!
//! * [`Space::Vertex`] — one row per vertex (`|V| × width`);
//! * [`Space::Edge`] — one row per NZE in the graph's CSR/COO order
//!   (`|E| × width`).
//!
//! Widths are symbolic ([`Dim::One`] scalar or [`Dim::F`] the launch's
//! feature length), so one graph serves every feature dimension.
//!
//! Edge direction follows the aggregation the kernels implement: an edge
//! stored at CSR `(row, col)` carries a message from its **source** `u =
//! col` to its **destination** `v = row`, and the `aggregate_*` ops reduce
//! incoming messages at `v`. Hence `copy_u → aggregate_sum` is exactly
//! the SpMM gather `y[r] = Σ_{e ∈ row r} x[col(e)]`.
//!
//! ## Ops
//!
//! | op | inputs | output | notes |
//! |----|--------|--------|-------|
//! | `copy_u` | vertex `k` | edge `k` | gather source features |
//! | `copy_v` | vertex `k` | edge `k` | gather destination features |
//! | `u_add_v` | vertex 1 × vertex 1 | edge 1 | attention logits |
//! | `u_mul_e` | vertex `k` × edge 1 | edge `k` | weight messages |
//! | `u_dot_v` | vertex `k` × vertex `k` | edge 1 | dot-product scores |
//! | `leaky_relu` | edge `k` | edge `k` | elementwise |
//! | `edge_softmax` | edge 1 | edge 1 | per destination row |
//! | `aggregate_sum` | edge `k` | vertex `k` | reduce at destination |
//! | `aggregate_max` | edge `k` | vertex `k` | reduce at destination |
//!
//! [`IrGraph::verify`] checks these scope/shape rules; [`lower()`] pattern
//! matches verified chains into [`Plan`] steps (single fused launches
//! where a pattern matches, per-op launches or host fallbacks otherwise);
//! [`exec::execute`] runs a plan on either backend; [`summary`] derives
//! the static verifier's access summaries from the lowered steps. See
//! `docs/FUSION_IR.md` for the full lowering table and a worked GAT
//! example.

pub mod exec;
pub mod kernels;
pub mod lower;
pub mod summary;

pub use exec::{execute, ExecResult};
pub use kernels::{IrFusedGat, IrUAddV};
pub use lower::{lower, LowerOptions, Plan, Step};

use std::fmt;

use crate::graph::GraphData;

/// The space an IR value lives in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Space {
    /// One row per vertex (`|V| × width`).
    Vertex,
    /// One row per NZE, in the graph's CSR/COO edge order (`|E| × width`).
    Edge,
}

impl Space {
    /// Display name used in verifier messages and reports.
    pub fn as_str(self) -> &'static str {
        match self {
            Space::Vertex => "vertex",
            Space::Edge => "edge",
        }
    }

    /// Rows of this space over `graph`: `|V|` or `|E|`.
    pub fn rows(self, graph: &GraphData) -> usize {
        match self {
            Space::Vertex => graph.num_vertices(),
            Space::Edge => graph.nnz(),
        }
    }
}

/// Symbolic per-row width of an IR value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dim {
    /// Scalar (width 1): logits, attention coefficients, edge weights.
    One,
    /// The launch's feature length `f`: feature rows.
    F,
}

impl Dim {
    /// Concrete width at feature length `f`.
    pub fn len(self, f: usize) -> usize {
        match self {
            Dim::One => 1,
            Dim::F => f,
        }
    }
}

/// Identifies one IR value (the output of one node).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct ValueId(pub usize);

/// One IR operation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum OpKind {
    /// Graph input (a leaf bound at execution time).
    Input,
    /// Gather source-vertex features onto edges: `out[e] = x[col(e)]`.
    CopyU,
    /// Gather destination-vertex features onto edges: `out[e] = x[row(e)]`.
    CopyV,
    /// Attention logits: `out[e] = a[col(e)] + b[row(e)]` (scalar terms).
    UAddV,
    /// Weight messages: `out[e] = x[col(e)] · w[e]` (per feature lane).
    UMulE,
    /// Dot-product scores: `out[e] = Σ_k x[col(e),k] · y[row(e),k]`.
    UDotV,
    /// Elementwise LeakyReLU over an edge tensor.
    LeakyRelu {
        /// Negative slope.
        slope: f32,
    },
    /// Softmax over each destination row's incident edges.
    EdgeSoftmax,
    /// Sum incoming edge messages at each destination vertex.
    AggregateSum,
    /// Max over incoming edge messages at each destination vertex.
    AggregateMax,
}

impl OpKind {
    /// The op's IR spelling (the `docs/FUSION_IR.md` vocabulary).
    pub fn as_str(self) -> &'static str {
        match self {
            OpKind::Input => "input",
            OpKind::CopyU => "copy_u",
            OpKind::CopyV => "copy_v",
            OpKind::UAddV => "u_add_v",
            OpKind::UMulE => "u_mul_e",
            OpKind::UDotV => "u_dot_v",
            OpKind::LeakyRelu { .. } => "leaky_relu",
            OpKind::EdgeSoftmax => "edge_softmax",
            OpKind::AggregateSum => "aggregate_sum",
            OpKind::AggregateMax => "aggregate_max",
        }
    }
}

/// One node of an [`IrGraph`]: an op, its operands, and the scope/width
/// of the value it defines.
#[derive(Debug, Clone)]
pub struct Node {
    /// The operation.
    pub op: OpKind,
    /// Operand value ids (always earlier nodes — the graph is a DAG by
    /// construction).
    pub inputs: Vec<ValueId>,
    /// Space of the defined value.
    pub space: Space,
    /// Width of the defined value.
    pub dim: Dim,
    /// Binding label (inputs) or op spelling (interior nodes).
    pub label: &'static str,
}

/// A scope/shape error found by [`IrGraph::verify`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IrError {
    /// Index of the offending node.
    pub node: usize,
    /// What rule it breaks.
    pub message: String,
}

impl fmt::Display for IrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ir node {}: {}", self.node, self.message)
    }
}

impl std::error::Error for IrError {}

/// A small dataflow graph of edge/vertex ops.
///
/// Built with the op methods (`input`, `u_add_v`, `edge_softmax`, …),
/// checked with [`verify`](Self::verify), lowered with [`lower()`].
#[derive(Debug, Clone)]
pub struct IrGraph {
    name: &'static str,
    nodes: Vec<Node>,
    outputs: Vec<ValueId>,
}

impl IrGraph {
    /// Creates an empty graph named `name` (used in reports).
    pub fn new(name: &'static str) -> Self {
        Self {
            name,
            nodes: Vec::new(),
            outputs: Vec::new(),
        }
    }

    /// The graph's display name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// All nodes, in definition (= topological) order.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// The node defining `id`.
    pub fn node(&self, id: ValueId) -> &Node {
        &self.nodes[id.0]
    }

    /// Declared outputs.
    pub fn outputs(&self) -> &[ValueId] {
        &self.outputs
    }

    /// Whether `id` is a declared output.
    pub fn is_output(&self, id: ValueId) -> bool {
        self.outputs.contains(&id)
    }

    /// Finds an input node by its binding label.
    pub fn find_input(&self, label: &str) -> Option<ValueId> {
        self.nodes
            .iter()
            .position(|n| n.op == OpKind::Input && n.label == label)
            .map(ValueId)
    }

    fn push(&mut self, node: Node) -> ValueId {
        self.nodes.push(node);
        ValueId(self.nodes.len() - 1)
    }

    /// Declares a graph input bound at execution time.
    pub fn input(&mut self, label: &'static str, space: Space, dim: Dim) -> ValueId {
        self.push(Node {
            op: OpKind::Input,
            inputs: Vec::new(),
            space,
            dim,
            label,
        })
    }

    fn unary(&mut self, op: OpKind, x: ValueId, space: Space, dim: Dim) -> ValueId {
        let label = op.as_str();
        self.push(Node {
            op,
            inputs: vec![x],
            space,
            dim,
            label,
        })
    }

    /// `out[e] = x[col(e)]` — source-feature gather.
    pub fn copy_u(&mut self, x: ValueId) -> ValueId {
        let dim = self.nodes[x.0].dim;
        self.unary(OpKind::CopyU, x, Space::Edge, dim)
    }

    /// `out[e] = x[row(e)]` — destination-feature gather.
    pub fn copy_v(&mut self, x: ValueId) -> ValueId {
        let dim = self.nodes[x.0].dim;
        self.unary(OpKind::CopyV, x, Space::Edge, dim)
    }

    /// `out[e] = a[col(e)] + b[row(e)]` — `a` is the source-side term,
    /// `b` the destination-side term (both scalar vertex tensors).
    pub fn u_add_v(&mut self, a: ValueId, b: ValueId) -> ValueId {
        self.push(Node {
            op: OpKind::UAddV,
            inputs: vec![a, b],
            space: Space::Edge,
            dim: Dim::One,
            label: "u_add_v",
        })
    }

    /// `out[e] = x[col(e)] · w[e]` — per-lane message weighting.
    pub fn u_mul_e(&mut self, x: ValueId, w: ValueId) -> ValueId {
        let dim = self.nodes[x.0].dim;
        self.push(Node {
            op: OpKind::UMulE,
            inputs: vec![x, w],
            space: Space::Edge,
            dim,
            label: "u_mul_e",
        })
    }

    /// `out[e] = Σ_k x[col(e),k] · y[row(e),k]` — dot-product scores.
    pub fn u_dot_v(&mut self, x: ValueId, y: ValueId) -> ValueId {
        self.push(Node {
            op: OpKind::UDotV,
            inputs: vec![x, y],
            space: Space::Edge,
            dim: Dim::One,
            label: "u_dot_v",
        })
    }

    /// Elementwise LeakyReLU over an edge tensor.
    pub fn leaky_relu(&mut self, x: ValueId, slope: f32) -> ValueId {
        let dim = self.nodes[x.0].dim;
        self.unary(OpKind::LeakyRelu { slope }, x, Space::Edge, dim)
    }

    /// Softmax over each destination row's incident edges.
    pub fn edge_softmax(&mut self, x: ValueId) -> ValueId {
        self.unary(OpKind::EdgeSoftmax, x, Space::Edge, Dim::One)
    }

    /// Sum incoming edge messages at each destination vertex.
    pub fn aggregate_sum(&mut self, m: ValueId) -> ValueId {
        let dim = self.nodes[m.0].dim;
        self.unary(OpKind::AggregateSum, m, Space::Vertex, dim)
    }

    /// Max over incoming edge messages at each destination vertex.
    pub fn aggregate_max(&mut self, m: ValueId) -> ValueId {
        let dim = self.nodes[m.0].dim;
        self.unary(OpKind::AggregateMax, m, Space::Vertex, dim)
    }

    /// Declares `id` a graph output.
    pub fn mark_output(&mut self, id: ValueId) {
        self.outputs.push(id);
    }

    /// How many nodes (including `self.outputs`) read `id`.
    pub fn use_count(&self, id: ValueId) -> usize {
        let by_nodes: usize = self
            .nodes
            .iter()
            .map(|n| n.inputs.iter().filter(|&&i| i == id).count())
            .sum();
        by_nodes + self.outputs.iter().filter(|&&o| o == id).count()
    }

    /// Checks the scope/shape rules of every node (the table in the
    /// module docs): operand spaces, symbolic widths, operand ordering
    /// (DAG form) and output validity.
    pub fn verify(&self) -> Result<(), IrError> {
        let err = |node: usize, message: String| Err(IrError { node, message });
        for (i, n) in self.nodes.iter().enumerate() {
            for &inp in &n.inputs {
                if inp.0 >= i {
                    return err(i, format!("operand v{} is not an earlier node", inp.0));
                }
            }
            let arity = |want: usize| -> Result<(), IrError> {
                if n.inputs.len() != want {
                    return Err(IrError {
                        node: i,
                        message: format!(
                            "{} takes {want} operand(s), got {}",
                            n.op.as_str(),
                            n.inputs.len()
                        ),
                    });
                }
                Ok(())
            };
            let operand = |k: usize| &self.nodes[n.inputs[k].0];
            let want = |k: usize, space: Space, dim: Option<Dim>| -> Result<(), IrError> {
                let o = operand(k);
                if o.space != space {
                    return Err(IrError {
                        node: i,
                        message: format!(
                            "{} operand {k} must be {}-space, got {}-space",
                            n.op.as_str(),
                            space.as_str(),
                            o.space.as_str()
                        ),
                    });
                }
                if let Some(d) = dim {
                    if o.dim != d {
                        return Err(IrError {
                            node: i,
                            message: format!(
                                "{} operand {k} must have width {d:?}, got {:?}",
                                n.op.as_str(),
                                o.dim
                            ),
                        });
                    }
                }
                Ok(())
            };
            match n.op {
                OpKind::Input => arity(0)?,
                OpKind::CopyU | OpKind::CopyV => {
                    arity(1)?;
                    want(0, Space::Vertex, None)?;
                }
                OpKind::UAddV => {
                    arity(2)?;
                    want(0, Space::Vertex, Some(Dim::One))?;
                    want(1, Space::Vertex, Some(Dim::One))?;
                }
                OpKind::UMulE => {
                    arity(2)?;
                    want(0, Space::Vertex, None)?;
                    want(1, Space::Edge, Some(Dim::One))?;
                }
                OpKind::UDotV => {
                    arity(2)?;
                    want(0, Space::Vertex, None)?;
                    want(1, Space::Vertex, None)?;
                    if operand(0).dim != operand(1).dim {
                        return err(i, "u_dot_v operands must share a width".to_string());
                    }
                }
                OpKind::LeakyRelu { .. } => {
                    arity(1)?;
                    want(0, Space::Edge, None)?;
                }
                OpKind::EdgeSoftmax => {
                    arity(1)?;
                    want(0, Space::Edge, Some(Dim::One))?;
                }
                OpKind::AggregateSum | OpKind::AggregateMax => {
                    arity(1)?;
                    want(0, Space::Edge, None)?;
                }
            }
        }
        if self.outputs.is_empty() {
            return err(self.nodes.len(), "graph declares no outputs".to_string());
        }
        for &o in &self.outputs {
            if o.0 >= self.nodes.len() {
                return err(o.0, "output id is not a node".to_string());
            }
        }
        Ok(())
    }
}

// ------------------------------------------------------------ prebuilt

/// The GAT attention chain: `u_add_v → leaky_relu → edge_softmax →
/// u_mul_e → aggregate_sum`, outputs `y` and the coefficients `α`.
///
/// Inputs: `att_src` (per-source term, the fused kernel's `er`),
/// `att_dst` (per-destination term, its `el`) and `z` (projected
/// features). Lowers to the single `CsrRows × RowSoftmaxGat` launch.
pub fn gat_attention_graph(slope: f32) -> IrGraph {
    let mut g = IrGraph::new("gat_attention");
    let att_src = g.input("att_src", Space::Vertex, Dim::One);
    let att_dst = g.input("att_dst", Space::Vertex, Dim::One);
    let z = g.input("z", Space::Vertex, Dim::F);
    let raw = g.u_add_v(att_src, att_dst);
    let logits = g.leaky_relu(raw, slope);
    let alpha = g.edge_softmax(logits);
    let msg = g.u_mul_e(z, alpha);
    let y = g.aggregate_sum(msg);
    g.mark_output(y);
    g.mark_output(alpha);
    g
}

/// The GAT attention chain in inference shape: identical dataflow to
/// [`gat_attention_graph`] but only `y` is an output, so the lowered
/// fused launch never materializes `α` — the edge-tensor round trip the
/// paper's fusion conjecture (§5.3.2) eliminates. The unfused plan must
/// still compute `α` in full as the aggregation operand, which is why
/// this shape is where fusion's win shows up. Training uses the
/// two-output variant (the tape needs `α` for backward).
pub fn gat_attention_inference_graph(slope: f32) -> IrGraph {
    let mut g = IrGraph::new("gat_attention_inference");
    let att_src = g.input("att_src", Space::Vertex, Dim::One);
    let att_dst = g.input("att_dst", Space::Vertex, Dim::One);
    let z = g.input("z", Space::Vertex, Dim::F);
    let raw = g.u_add_v(att_src, att_dst);
    let logits = g.leaky_relu(raw, slope);
    let alpha = g.edge_softmax(logits);
    let msg = g.u_mul_e(z, alpha);
    let y = g.aggregate_sum(msg);
    g.mark_output(y);
    g
}

/// Weighted aggregation (GCN/GIN SpMM): `u_mul_e → aggregate_sum`.
/// Inputs: `w` (edge weights) and `x` (features). Lowers to one
/// `RowAccum` launch.
pub fn spmm_graph() -> IrGraph {
    let mut g = IrGraph::new("spmm");
    let w = g.input("w", Space::Edge, Dim::One);
    let x = g.input("x", Space::Vertex, Dim::F);
    let msg = g.u_mul_e(x, w);
    let y = g.aggregate_sum(msg);
    g.mark_output(y);
    g
}

/// Unweighted neighbour sum (GraphSAGE's aggregator before mean
/// normalization): `copy_u → aggregate_sum`. Input: `x`. Lowers to one
/// `RowAccum` launch with unit edge values.
pub fn copy_u_sum_graph() -> IrGraph {
    let mut g = IrGraph::new("copy_u_sum");
    let x = g.input("x", Space::Vertex, Dim::F);
    let msg = g.copy_u(x);
    let y = g.aggregate_sum(msg);
    g.mark_output(y);
    g
}

/// Dot-product scores (SDDMM): `u_dot_v`. Inputs: `x` (source side)
/// and `y` (destination side). Lowers to one `EdgeDot` launch.
pub fn sddmm_graph() -> IrGraph {
    let mut g = IrGraph::new("sddmm");
    let x = g.input("x", Space::Vertex, Dim::F);
    let y = g.input("y", Space::Vertex, Dim::F);
    let w = g.u_dot_v(x, y);
    g.mark_output(w);
    g
}

/// Bare attention logits: `u_add_v`. Inputs: `att_src`, `att_dst`.
/// Lowers to one `ScalarGather` launch.
pub fn u_add_v_graph() -> IrGraph {
    let mut g = IrGraph::new("u_add_v");
    let att_src = g.input("att_src", Space::Vertex, Dim::One);
    let att_dst = g.input("att_dst", Space::Vertex, Dim::One);
    let w = g.u_add_v(att_src, att_dst);
    g.mark_output(w);
    g
}

/// Transformer-style dot-product attention: `u_dot_v → edge_softmax →
/// u_mul_e → aggregate_sum`, outputs `y` and `α`.
///
/// Inputs: `k` (source-side keys), `q` (destination-side queries) and
/// `v` (values). No fused pipeline matches the dot-product logits, so
/// this chain exercises the unfused fallback: an `EdgeDot` launch, the
/// host softmax, and a `RowAccum` launch.
pub fn dot_attention_graph() -> IrGraph {
    let mut g = IrGraph::new("dot_attention");
    let k = g.input("k", Space::Vertex, Dim::F);
    let q = g.input("q", Space::Vertex, Dim::F);
    let v = g.input("v", Space::Vertex, Dim::F);
    let scores = g.u_dot_v(k, q);
    let alpha = g.edge_softmax(scores);
    let msg = g.u_mul_e(v, alpha);
    let y = g.aggregate_sum(msg);
    g.mark_output(y);
    g.mark_output(alpha);
    g
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prebuilt_graphs_verify() {
        for g in [
            gat_attention_graph(0.2),
            gat_attention_inference_graph(0.2),
            spmm_graph(),
            copy_u_sum_graph(),
            sddmm_graph(),
            u_add_v_graph(),
            dot_attention_graph(),
        ] {
            g.verify().unwrap_or_else(|e| panic!("{}: {e}", g.name()));
        }
    }

    #[test]
    fn verifier_rejects_scope_violations() {
        // aggregate of a vertex tensor
        let mut g = IrGraph::new("bad");
        let x = g.input("x", Space::Vertex, Dim::F);
        let y = g.aggregate_sum(x);
        g.mark_output(y);
        let e = g.verify().unwrap_err();
        assert!(e.message.contains("edge-space"), "{e}");

        // u_add_v over edge tensors
        let mut g = IrGraph::new("bad2");
        let a = g.input("a", Space::Edge, Dim::One);
        let b = g.input("b", Space::Edge, Dim::One);
        let w = g.u_add_v(a, b);
        g.mark_output(w);
        assert!(g.verify().is_err());

        // edge_softmax over a feature-wide tensor
        let mut g = IrGraph::new("bad3");
        let x = g.input("x", Space::Vertex, Dim::F);
        let m = g.copy_u(x);
        let s = g.edge_softmax(m);
        g.mark_output(s);
        let e = g.verify().unwrap_err();
        assert!(e.message.contains("width"), "{e}");

        // u_dot_v with mismatched widths
        let mut g = IrGraph::new("bad4");
        let x = g.input("x", Space::Vertex, Dim::F);
        let y = g.input("y", Space::Vertex, Dim::One);
        let w = g.u_dot_v(x, y);
        g.mark_output(w);
        assert!(g.verify().is_err());

        // no outputs
        let mut g = IrGraph::new("bad5");
        let _ = g.input("x", Space::Vertex, Dim::F);
        assert!(g.verify().is_err());
    }

    #[test]
    fn input_lookup_and_use_counts() {
        let g = gat_attention_graph(0.2);
        let z = g.find_input("z").unwrap();
        assert_eq!(g.use_count(z), 1);
        assert!(g.find_input("nope").is_none());
        // α is read by u_mul_e and declared an output.
        let alpha = ValueId(5);
        assert_eq!(g.node(alpha).op, OpKind::EdgeSoftmax);
        assert_eq!(g.use_count(alpha), 2);
        assert!(g.is_output(alpha));
    }
}
