//! Sharded-aggregation parity for the GNN layer path.
//!
//! The model layers aggregate with `y = A · X` through
//! `graphops::spmm_const` (one simulated GNNOne SpMM launch on the
//! context's device). The same aggregation executed shard-by-shard
//! through [`ShardedExecutor`] — including with an injected shard fault
//! recovered from its checkpoint — must reproduce the layer's output
//! **bitwise**: a GNN trained over a sharded topology sees exactly the
//! bits an unsharded run would have produced. Integer-valued features
//! keep every partial sum exact in `f32`, so bit equality is the honest
//! acceptance bar, not a tolerance.

use std::rc::Rc;
use std::sync::Arc;

use gnnone_gnn::graphops;
use gnnone_gnn::{GnnContext, SystemKind};
use gnnone_kernels::gnnone::{GnnOneConfig, GnnOneSpmm};
use gnnone_kernels::graph::GraphData;
use gnnone_kernels::shard::{ShardTopology, ShardedExecutor};
use gnnone_kernels::traits::SpmmKernel;
use gnnone_sim::{GpuSpec, ShardFaultKind};
use gnnone_sparse::datasets::{Dataset, Scale};
use gnnone_tensor::{Tape, Tensor};

/// Integer-valued features: exact `f32` arithmetic at any summation order.
fn int_features(len: usize, salt: usize) -> Vec<f32> {
    (0..len)
        .map(|i| ((i * 31 + salt * 17) % 7) as f32 - 3.0)
        .collect()
}

/// The layer-path aggregation `y = A · X` with all-ones edge weights,
/// read back off the tape.
fn layer_aggregate(ctx: &Rc<GnnContext>, x: &[f32], f: usize) -> Vec<f32> {
    let n = ctx.num_vertices();
    let mut tape = Tape::new();
    let xv = tape.leaf(Tensor::from_vec(n, f, x.to_vec()), false);
    let w = graphops::ones_weights(ctx);
    let y = graphops::spmm_const(ctx, &mut tape, &w, xv);
    tape.value(y).data().to_vec()
}

#[test]
fn sharded_aggregation_matches_the_gnn_layer_bitwise() {
    for id in ["G0", "G5"] {
        let ds = Dataset::by_id(id, Scale::Tiny).expect("Table 1 id");
        let ctx = Rc::new(GnnContext::new(
            SystemKind::GnnOne,
            ds.coo.clone(),
            GpuSpec::a100_40gb(),
        ));
        let f = 8;
        let n = ctx.num_vertices();
        let x = int_features(n * f, 1);
        let w = vec![1.0f32; ctx.nnz()];
        let unsharded = layer_aggregate(&ctx, &x, f);

        for k in [1usize, 2, 4] {
            let exec = ShardedExecutor::new(
                Arc::clone(&ctx.graph),
                k,
                ShardTopology::sim(GpuSpec::a100_40gb(), k.min(2)),
            )
            .expect("partition");
            let (sharded, report) = exec
                .run_spmm(&gnnone_spmm, &w, &x, f)
                .expect("sharded aggregation");
            let want: Vec<u32> = unsharded.iter().map(|v| v.to_bits()).collect();
            let got: Vec<u32> = sharded.iter().map(|v| v.to_bits()).collect();
            assert_eq!(got, want, "{id}: K={k} aggregation must match bitwise");
            assert_eq!(report.retries, 0, "{id}: fault-free run must not retry");
        }
    }
}

#[test]
fn aggregation_recovers_bitwise_after_a_shard_kill() {
    let ds = Dataset::by_id("G0", Scale::Tiny).expect("Table 1 id");
    let ctx = Rc::new(GnnContext::new(
        SystemKind::GnnOne,
        ds.coo.clone(),
        GpuSpec::a100_40gb(),
    ));
    let f = 8;
    let n = ctx.num_vertices();
    let x = int_features(n * f, 2);
    let w = vec![1.0f32; ctx.nnz()];
    let unsharded = layer_aggregate(&ctx, &x, f);

    let mut exec = ShardedExecutor::new(
        Arc::clone(&ctx.graph),
        4,
        ShardTopology::sim(GpuSpec::a100_40gb(), 2),
    )
    .expect("partition");
    for (s, fault) in ShardFaultKind::lattice().into_iter().enumerate() {
        exec.arm_fault(fault, 0xC0FFEE + s as u64);
        let (sharded, report) = exec
            .run_spmm(&gnnone_spmm, &w, &x, f)
            .expect("recovered sharded aggregation");
        let want: Vec<u32> = unsharded.iter().map(|v| v.to_bits()).collect();
        let got: Vec<u32> = sharded.iter().map(|v| v.to_bits()).collect();
        assert_eq!(got, want, "{fault:?}: recovery must be bitwise identical");
        assert!(
            report.retries >= 1,
            "{fault:?}: the armed fault must fire and be retried"
        );
    }
}

fn gnnone_spmm(g: &Arc<GraphData>) -> Box<dyn SpmmKernel> {
    Box::new(GnnOneSpmm::new(Arc::clone(g), GnnOneConfig::default()))
}
