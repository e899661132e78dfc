//! Fusion IR contract tests: the IR-lowered kernels are byte-identical
//! to the hand-built ones on both backends at every thread count, the
//! plan executor matches the CPU references, and the IR-derived access
//! summaries are statically Proved under both execution models.

use std::sync::Arc;

use gnnone_kernels::analysis::{check_summary, ExecModel, Verdict};
use gnnone_kernels::backend::{Backend, Mem, NativeEngine};
use gnnone_kernels::gnnone::fused::fused_gat_reference;
use gnnone_kernels::gnnone::{FusedGatAttention, GnnOneUAddV};
use gnnone_kernels::graph::GraphData;
use gnnone_kernels::ir::{self, execute, lower, IrFusedGat, IrUAddV, LowerOptions};
use gnnone_kernels::traits::{EdgeApplyKernel, FusedAttentionKernel};
use gnnone_sim::{DeviceBuffer, Gpu, GpuSpec};
use gnnone_sparse::datasets::{Dataset, Scale};
use gnnone_sparse::formats::{Coo, EdgeList};
use gnnone_sparse::gen;
use gnnone_sparse::reference;

fn graphs() -> Vec<Arc<GraphData>> {
    // Power-law, ragged, and a hub row longer than the 512-logit cache
    // (forces the fused kernel's recompute path).
    let mut hub: Vec<(u32, u32)> = (1..700u32).map(|c| (0, c)).collect();
    hub.push((1, 2));
    vec![
        Arc::new(GraphData::new(Coo::from_edge_list(
            &gen::rmat(6, 220, gen::GRAPH500_PROBS, 77).symmetrize(),
        ))),
        Arc::new(GraphData::new(Coo::from_edge_list(&EdgeList::new(
            50,
            (0..137u32).map(|e| (e % 49, (e * 7 + 1) % 49)).collect(),
        )))),
        Arc::new(GraphData::new(Coo::from_edge_list(&EdgeList::new(
            700, hub,
        )))),
    ]
}

fn features(n: usize, f: usize, salt: usize) -> Vec<f32> {
    (0..n * f)
        .map(|i| (((i * 31 + salt * 17) % 23) as f32 - 11.0) * 0.1)
        .collect()
}

/// IR-lowered fused GAT ≡ hand-built `FusedGatAttention`, byte for byte,
/// on sim and on native at 1/2/4 threads.
#[test]
fn lowered_gat_is_byte_identical_to_handwritten() {
    let gpu = Gpu::new(GpuSpec::a100_40gb());
    let f = 16usize;
    for g in graphs() {
        let nv = g.num_vertices();
        let nnz = g.nnz();
        let (z, el, er) = (
            features(nv, f, 41),
            features(nv, 1, 43),
            features(nv, 1, 47),
        );
        let dz = DeviceBuffer::from_slice(&z);
        let del = DeviceBuffer::from_slice(&el);
        let der = DeviceBuffer::from_slice(&er);
        let hand = FusedGatAttention::new(Arc::clone(&g), 0.2);
        let lowered = IrFusedGat::new(Arc::clone(&g), 0.2);

        let run_sim = |k: &dyn FusedAttentionKernel| {
            let dy = DeviceBuffer::<f32>::zeros(nv * f);
            let da = DeviceBuffer::<f32>::zeros(nnz);
            k.run(&gpu, &dz, &del, &der, f, &dy, Some(&da)).unwrap();
            (dy.to_vec(), da.to_vec())
        };
        let (y_hand, a_hand) = run_sim(&hand);
        let (y_low, a_low) = run_sim(&lowered);
        assert_eq!(y_hand, y_low, "sim y mismatch");
        assert_eq!(a_hand, a_low, "sim alpha mismatch");

        for threads in [1usize, 2, 4] {
            let ng = NativeEngine::with_threads(threads).unwrap();
            let run_nat = |k: &dyn FusedAttentionKernel| {
                let mut y = vec![0.0f32; nv * f];
                let mut a = vec![0.0f32; nnz];
                let (el, er) = (Mem::Host(&el[..]), Mem::Host(&er[..]));
                k.run_native(
                    &ng,
                    &z,
                    el,
                    er,
                    f,
                    Mem::Host(&mut y),
                    Some(Mem::Host(&mut a)),
                )
                .unwrap();
                (y, a)
            };
            let (y_hand_n, a_hand_n) = run_nat(&hand);
            let (y_low_n, a_low_n) = run_nat(&lowered);
            assert_eq!(y_hand_n, y_low_n, "native y mismatch at {threads} threads");
            assert_eq!(
                a_hand_n, a_low_n,
                "native alpha mismatch at {threads} threads"
            );
        }
    }
}

/// IR-lowered `u_add_v` ≡ hand-built `GnnOneUAddV`, byte for byte, on
/// both backends.
#[test]
fn lowered_u_add_v_is_byte_identical_to_handwritten() {
    let gpu = Gpu::new(GpuSpec::a100_40gb());
    for g in graphs() {
        let nv = g.num_vertices();
        let nnz = g.nnz();
        let (el, er) = (features(nv, 1, 43), features(nv, 1, 47));
        let del = DeviceBuffer::from_slice(&el);
        let der = DeviceBuffer::from_slice(&er);
        let hand = GnnOneUAddV::new(Arc::clone(&g));
        let lowered = IrUAddV::new(Arc::clone(&g));

        let run_sim = |k: &dyn EdgeApplyKernel| {
            let dw = DeviceBuffer::<f32>::zeros(nnz);
            k.run(&gpu, &del, &der, &dw).unwrap();
            dw.to_vec()
        };
        assert_eq!(run_sim(&hand), run_sim(&lowered), "sim w mismatch");

        for threads in [1usize, 2, 4] {
            let ng = NativeEngine::with_threads(threads).unwrap();
            let run_nat = |k: &dyn EdgeApplyKernel| {
                let mut w = vec![0.0f32; nnz];
                k.run_native(&ng, Mem::Host(&el), Mem::Host(&er), Mem::Host(&mut w))
                    .unwrap();
                w
            };
            assert_eq!(
                run_nat(&hand),
                run_nat(&lowered),
                "native w mismatch at {threads} threads"
            );
        }
    }
}

/// The plan executor computes the CPU-reference answer for every
/// prebuilt chain, fused and unfused, on both backends — and the fused
/// and unfused GAT plans agree with each other.
#[test]
fn executor_matches_references_on_both_backends() {
    let f = 8usize;
    let backends = [
        Backend::Sim(Gpu::new(GpuSpec::a100_40gb())),
        Backend::Native(NativeEngine::with_threads(2).unwrap()),
    ];
    for g in graphs() {
        let nv = g.num_vertices();
        let nnz = g.nnz();
        let z = features(nv, f, 41);
        let el = features(nv, 1, 43);
        let er = features(nv, 1, 47);
        let w = features(nnz, 1, 19);
        let x = features(nv, f, 17);

        for backend in &backends {
            // GAT chain, fused and unfused, vs the fused CPU oracle.
            let ir_gat = ir::gat_attention_graph(0.2);
            let y_id = ir_gat.outputs()[0];
            let alpha_id = ir_gat.outputs()[1];
            let att_src = ir_gat.find_input("att_src").unwrap();
            let att_dst = ir_gat.find_input("att_dst").unwrap();
            let z_id = ir_gat.find_input("z").unwrap();
            // The fused kernel computes logit(r,c) = el[r] + er[c]:
            // destination term el binds att_dst, source term er att_src.
            let binds: Vec<(ir::ValueId, &[f32])> =
                vec![(att_src, &er), (att_dst, &el), (z_id, &z)];
            let (y_ref, alpha_ref) = fused_gat_reference(&g, &z, &el, &er, f, 0.2);

            let fused_plan = lower(&ir_gat, LowerOptions::default()).unwrap();
            assert!(fused_plan.fused());
            let res = execute(backend, &g, &ir_gat, &fused_plan, f, &binds).unwrap();
            reference::assert_close(res.value(y_id), &y_ref, 1e-3);
            reference::assert_close(res.value(alpha_id), &alpha_ref, 1e-3);

            let unfused_plan = lower(&ir_gat, LowerOptions { fuse: false }).unwrap();
            assert_eq!(unfused_plan.launches(), 2);
            let res_u = execute(backend, &g, &ir_gat, &unfused_plan, f, &binds).unwrap();
            reference::assert_close(res_u.value(y_id), &y_ref, 1e-3);
            reference::assert_close(res_u.value(alpha_id), &alpha_ref, 1e-3);

            // spmm chain vs reference::spmm_csr.
            let ir_spmm = ir::spmm_graph();
            let plan = lower(&ir_spmm, LowerOptions::default()).unwrap();
            let res = execute(
                backend,
                &g,
                &ir_spmm,
                &plan,
                f,
                &[
                    (ir_spmm.find_input("w").unwrap(), &w),
                    (ir_spmm.find_input("x").unwrap(), &x),
                ],
            )
            .unwrap();
            let spmm_ref = reference::spmm_csr(&g.csr, &w, &x, f);
            reference::assert_close(res.value(ir_spmm.outputs()[0]), &spmm_ref, 1e-3);

            // copy_u → aggregate_sum ≡ SpMM with unit weights.
            let ir_ones = ir::copy_u_sum_graph();
            let plan = lower(&ir_ones, LowerOptions::default()).unwrap();
            let res = execute(
                backend,
                &g,
                &ir_ones,
                &plan,
                f,
                &[(ir_ones.find_input("x").unwrap(), &x)],
            )
            .unwrap();
            let ones = vec![1.0f32; nnz];
            let ones_ref = reference::spmm_csr(&g.csr, &ones, &x, f);
            reference::assert_close(res.value(ir_ones.outputs()[0]), &ones_ref, 1e-3);

            // u_dot_v vs reference::sddmm_coo. The IR's x operand is the
            // source side (COO cols), y the destination side (rows) —
            // the reference indexes x by rows, y by cols.
            let ir_dot = ir::sddmm_graph();
            let xs = features(nv, f, 11);
            let ys = features(nv, f, 13);
            let plan = lower(&ir_dot, LowerOptions::default()).unwrap();
            let res = execute(
                backend,
                &g,
                &ir_dot,
                &plan,
                f,
                &[
                    (ir_dot.find_input("x").unwrap(), &ys),
                    (ir_dot.find_input("y").unwrap(), &xs),
                ],
            )
            .unwrap();
            let dot_ref = reference::sddmm_coo(&g.coo, &xs, &ys, f);
            reference::assert_close(res.value(ir_dot.outputs()[0]), &dot_ref, 1e-3);
        }
    }
}

/// The dot-product-attention chain (no fused pipeline match) runs
/// end-to-end through the fallback plan and its α rows sum to one.
#[test]
fn dot_attention_fallback_runs_end_to_end() {
    let f = 8usize;
    let backend = Backend::Native(NativeEngine::with_threads(2).unwrap());
    for g in graphs() {
        let nv = g.num_vertices();
        let q = features(nv, f, 3);
        let k = features(nv, f, 5);
        let v = features(nv, f, 7);
        let ir_g = ir::dot_attention_graph();
        let plan = lower(&ir_g, LowerOptions::default()).unwrap();
        assert!(!plan.fused());
        let res = execute(
            &backend,
            &g,
            &ir_g,
            &plan,
            f,
            &[
                (ir_g.find_input("q").unwrap(), &q),
                (ir_g.find_input("k").unwrap(), &k),
                (ir_g.find_input("v").unwrap(), &v),
            ],
        )
        .unwrap();
        let alpha = res.value(ir_g.outputs()[1]);
        for r in 0..g.csr.num_rows() {
            let range = g.csr.row_range(r);
            if range.is_empty() {
                continue;
            }
            let s: f32 = range.map(|e| alpha[e]).sum();
            assert!((s - 1.0).abs() < 1e-4, "row {r}: α sums to {s}");
        }
        // y is a convex combination per row: every lane bounded by the
        // min/max of v.
        let y = res.value(ir_g.outputs()[0]);
        let (vmin, vmax) = v
            .iter()
            .fold((f32::INFINITY, f32::NEG_INFINITY), |(lo, hi), &x| {
                (lo.min(x), hi.max(x))
            });
        for (i, &val) in y.iter().enumerate() {
            assert!(
                (vmin - 1e-4..=vmax + 1e-4).contains(&val) || val == 0.0,
                "y[{i}] = {val} outside [{vmin}, {vmax}]"
            );
        }
    }
}

/// Every IR-derived access summary is statically Proved under both
/// execution models, for every launch step of every prebuilt chain, on
/// the G0 and G5 Table-1 datasets.
#[test]
fn ir_derived_summaries_are_all_proved() {
    for id in ["G0", "G5"] {
        let ds = Dataset::by_id(id, Scale::Tiny).expect("Table 1 id");
        let g = Arc::new(GraphData::new(ds.coo.clone()));
        for (graph_name, ir_g) in [
            ("gat_attention", ir::gat_attention_graph(0.2)),
            ("spmm", ir::spmm_graph()),
            ("copy_u_sum", ir::copy_u_sum_graph()),
            ("sddmm", ir::sddmm_graph()),
            ("u_add_v", ir::u_add_v_graph()),
            ("dot_attention", ir::dot_attention_graph()),
        ] {
            for fuse in [true, false] {
                let plan = lower(&ir_g, LowerOptions { fuse }).unwrap();
                for model in [ExecModel::Sim, ExecModel::Native] {
                    let summaries = ir::summary::plan_summaries(&plan, &g, 16, model);
                    assert!(
                        plan.launches() == summaries.len(),
                        "{graph_name}: every launch step must derive a summary"
                    );
                    for s in &summaries {
                        let verdict = check_summary(s);
                        assert!(
                            matches!(verdict, Verdict::Proved),
                            "{id}/{graph_name} fuse={fuse} {model:?}: {verdict:?}"
                        );
                    }
                }
            }
        }
    }
}
