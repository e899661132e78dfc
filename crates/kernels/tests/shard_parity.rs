//! Sharded-execution contract tests: the supervised sharded executor is
//! **invisible in the bits** — for every registry kernel family, on both
//! backends, at every shard count, with and without injected shard faults
//! — and every failure it cannot recover from surfaces as a typed decline.
//!
//! Bitwise methodology: with integer-valued f32 operands every partial
//! sum is an exact integer below 2^24, so any reduction association is
//! bit-identical — K-way sharding cannot hide behind float tolerance.
//! The fused-attention kernels (softmax → not integer-exact) rely on the
//! row-alignment invariant instead: a row's full adjacency lives in
//! exactly one shard, so its per-row arithmetic replays in the original
//! order and stays bitwise identical anyway.

use std::sync::Arc;

use gnnone_kernels::gnnone::{GnnOneConfig, GnnOneSddmm, GnnOneSpmm};
use gnnone_kernels::graph::GraphData;
use gnnone_kernels::registry::{self, SweepInputs};
use gnnone_kernels::shard::{partition_graph, RetryPolicy, ShardTopology, ShardedExecutor};
use gnnone_kernels::traits::{Op, SddmmKernel, SpmmKernel};
use gnnone_sim::chaos::ShardFaultKind;
use gnnone_sim::{DeviceBuffer, GnnOneError, GpuSpec};
use gnnone_sparse::formats::{Coo, EdgeList};
use gnnone_sparse::gen::adversarial;
use gnnone_sparse::RowPartition;

/// The backend-parity graphs: a symmetric power-law R-MAT and a ragged
/// directed one with an empty tail row.
fn graphs() -> Vec<Arc<GraphData>> {
    vec![
        Arc::new(GraphData::new(Coo::from_edge_list(
            &gnnone_sparse::gen::rmat(6, 220, gnnone_sparse::gen::GRAPH500_PROBS, 77).symmetrize(),
        ))),
        Arc::new(GraphData::new(Coo::from_edge_list(&EdgeList::new(
            50,
            (0..137u32).map(|e| (e % 49, (e * 7 + 1) % 49)).collect(),
        )))),
    ]
}

fn ring(n: usize) -> Arc<GraphData> {
    let edges: Vec<(u32, u32)> = (0..n as u32).map(|v| (v, (v + 1) % n as u32)).collect();
    Arc::new(GraphData::new(Coo::from_edge_list(&EdgeList::new(
        n, edges,
    ))))
}

/// Integer-valued f32s in [-3, 3]: exact under any association order.
fn int_features(n: usize, salt: usize) -> Vec<f32> {
    (0..n)
        .map(|i| ((i * 31 + salt * 17) % 7) as f32 - 3.0)
        .collect()
}

/// Non-integer f32s, for the checks that hold whatever the values: the
/// K = 1 identity, and native sharding at any K.
fn float_features(n: usize, salt: usize) -> Vec<f32> {
    (0..n)
        .map(|i| (((i * 31 + salt * 17) % 23) as f32 - 11.0) * 0.1)
        .collect()
}

const F: usize = 8;

fn operands(g: &GraphData, feats: fn(usize, usize) -> Vec<f32>) -> SweepInputs<Vec<f32>> {
    let nv = g.num_vertices();
    SweepInputs {
        x: feats(nv * F, 21),
        z: feats(nv * F, 22),
        w: feats(g.nnz(), 23),
        el: feats(nv, 24),
        er: feats(nv, 25),
    }
}

fn slices(ops: &SweepInputs<Vec<f32>>, op: Op) -> Vec<&[f32]> {
    ops.for_op(op).into_iter().map(Vec::as_slice).collect()
}

/// Every registry kernel's unsharded outputs on shard 0's device, in
/// registry order — the reference the sharded runs must reproduce exactly.
fn unsharded_all(
    g: &Arc<GraphData>,
    ops: &SweepInputs<Vec<f32>>,
    topo: &ShardTopology,
) -> Vec<Vec<f32>> {
    let dev = ops.upload();
    let mut outs = Vec::new();
    for k in registry::all(g) {
        let bufs: Vec<DeviceBuffer<f32>> = k.output_lens(F).map(DeviceBuffer::zeros).collect();
        k.launch(
            topo.device(0),
            &dev.for_op(k.op()),
            F,
            &bufs.iter().collect::<Vec<_>>(),
        )
        .unwrap();
        outs.extend(bufs.iter().map(DeviceBuffer::to_vec));
    }
    outs
}

/// Every registry kernel run through the sharded executor, same order.
fn sharded_all(
    exec: &ShardedExecutor,
    g: &Arc<GraphData>,
    ops: &SweepInputs<Vec<f32>>,
) -> Vec<Vec<f32>> {
    let mut outs = Vec::new();
    for k in registry::all(g) {
        let (op, name) = (k.op(), k.name());
        let (merged, _) = exec
            .run(
                &|sg| registry::by_name(sg, op, name).unwrap(),
                &slices(ops, op),
                F,
            )
            .unwrap();
        outs.extend(merged);
    }
    outs
}

fn gnnone_spmm(sg: &Arc<GraphData>) -> Box<dyn SpmmKernel> {
    Box::new(GnnOneSpmm::new(Arc::clone(sg), GnnOneConfig::default()))
}

fn gnnone_sddmm(sg: &Arc<GraphData>) -> Box<dyn SddmmKernel> {
    Box::new(GnnOneSddmm::new(Arc::clone(sg), GnnOneConfig::default()))
}

fn topologies(k: usize) -> Vec<ShardTopology> {
    vec![
        ShardTopology::sim(GpuSpec::a100_40gb(), k.min(2)),
        ShardTopology::native(4, k).unwrap(),
    ]
}

/// The tentpole proof: K-way sharded execution of **every** registry
/// kernel is bitwise identical to the unsharded launch on both backends.
#[test]
fn sharded_matches_unsharded_bitwise_for_every_registry_kernel() {
    for g in graphs() {
        let ops = operands(&g, int_features);
        for k in [2usize, 4] {
            for topo in topologies(k) {
                let reference = unsharded_all(&g, &ops, &topo);
                let exec = ShardedExecutor::new(Arc::clone(&g), k, topo).unwrap();
                let sharded = sharded_all(&exec, &g, &ops);
                assert_eq!(reference.len(), 22, "21 kernels, fused with α");
                assert_eq!(reference.len(), sharded.len());
                for (i, (a, b)) in reference.iter().zip(&sharded).enumerate() {
                    assert_eq!(a, b, "kernel #{i}, K={k}: sharded output diverged");
                }
            }
        }
    }
}

/// On native, sharding is bitwise-invisible with real-valued features too:
/// every native routine reduces each row sequentially in CSR edge order,
/// and the local renumbering of a shard keeps that order, so no integer
/// trick is needed to make the association order match.
#[test]
fn native_sharding_is_bitwise_with_real_valued_features() {
    for g in graphs() {
        let ops = operands(&g, float_features);
        for k in [2usize, 4] {
            let topo = ShardTopology::native(4, k).unwrap();
            let reference = unsharded_all(&g, &ops, &topo);
            let exec = ShardedExecutor::new(Arc::clone(&g), k, topo).unwrap();
            let sharded = sharded_all(&exec, &g, &ops);
            assert_eq!(reference.len(), 22, "21 kernels, fused with α");
            assert_eq!(reference.len(), sharded.len());
            for (i, (a, b)) in reference.iter().zip(&sharded).enumerate() {
                assert_eq!(
                    bits(a),
                    bits(b),
                    "kernel #{i}, K={k}: sharded output diverged"
                );
            }
        }
    }
}

/// The typed `run_sddmm` / `run_spmm` forwards are bitwise-equal to the
/// signature-driven `run` they forward into, on both topologies.
#[test]
fn family_forwards_match_run_bitwise() {
    for g in graphs() {
        let ops = operands(&g, float_features);
        for k in [1usize, 2, 4] {
            for topo in topologies(k) {
                let exec = ShardedExecutor::new(Arc::clone(&g), k, topo).unwrap();
                let (sddmm, _) = exec.run_sddmm(&gnnone_sddmm, &ops.x, &ops.z, F).unwrap();
                let (run, _) = exec
                    .run(
                        &|sg| registry::by_name(sg, Op::Sddmm, "GnnOne").unwrap(),
                        &slices(&ops, Op::Sddmm),
                        F,
                    )
                    .unwrap();
                assert_eq!(bits(&sddmm), bits(&run[0]), "sddmm forward, K={k}");
                let (spmm, _) = exec.run_spmm(&gnnone_spmm, &ops.w, &ops.x, F).unwrap();
                let (run, _) = exec
                    .run(
                        &|sg| registry::by_name(sg, Op::Spmm, "GnnOne").unwrap(),
                        &slices(&ops, Op::Spmm),
                        F,
                    )
                    .unwrap();
                assert_eq!(bits(&spmm), bits(&run[0]), "spmm forward, K={k}");
            }
        }
    }
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// K = 1 is the identity: same graph object (no shard copies), no halo
/// traffic, byte-identical output even for non-integer float features.
#[test]
fn k1_is_byte_identical_even_with_float_features() {
    for g in graphs() {
        let ops = operands(&g, float_features);
        for topo in topologies(1) {
            let reference = unsharded_all(&g, &ops, &topo);
            let exec = ShardedExecutor::new(Arc::clone(&g), 1, topo).unwrap();
            let sharded = sharded_all(&exec, &g, &ops);
            for (i, (a, b)) in reference.iter().zip(&sharded).enumerate() {
                let ab: Vec<u32> = a.iter().map(|v| v.to_bits()).collect();
                let bb: Vec<u32> = b.iter().map(|v| v.to_bits()).collect();
                assert_eq!(ab, bb, "kernel #{i}: K=1 is not byte-identical");
            }
            let (_, report) = exec.run_spmm(&gnnone_spmm, &ops.w, &ops.x, F).unwrap();
            assert_eq!(report.transfer_bytes, 0, "K=1 must move no halo bytes");
        }
    }
}

/// Every shard fault, across ≥ 8 seeds: the fault is detected, recovery
/// re-executes **only the failed shard** (asserted via launch counts), and
/// the recovered output is bitwise identical to the fault-free run.
#[test]
fn every_shard_fault_recovers_bitwise_identically_across_seeds() {
    let g = ring(64);
    let ops = operands(&g, int_features);
    let k = 4usize;
    let clean = {
        let exec =
            ShardedExecutor::new(Arc::clone(&g), k, ShardTopology::native(4, k).unwrap()).unwrap();
        exec.run_spmm(&gnnone_spmm, &ops.w, &ops.x, F).unwrap().0
    };
    for kind in ShardFaultKind::lattice() {
        for seed in 0..8u64 {
            let mut exec =
                ShardedExecutor::new(Arc::clone(&g), k, ShardTopology::native(4, k).unwrap())
                    .unwrap();
            exec.arm_fault(kind, seed);
            let (out, report) = exec.run_spmm(&gnnone_spmm, &ops.w, &ops.x, F).unwrap();
            assert_eq!(out, clean, "{kind} seed {seed}: recovered output diverged");
            assert_eq!(
                report.retries, 1,
                "{kind} seed {seed}: fault must fire once"
            );
            assert_eq!(report.recovered.len(), 1, "{kind} seed {seed}");
            let total_attempts: u32 = report.attempts.iter().sum();
            assert_eq!(total_attempts, k as u32 + 1, "{kind} seed {seed}");
            assert_eq!(
                report.attempts.iter().filter(|&&a| a == 2).count(),
                1,
                "{kind} seed {seed}: exactly one shard retried"
            );
            let total_launches: u32 = report.launches.iter().sum();
            match kind {
                // The launch happened, its result was lost: the retry is a
                // second launch of that shard only.
                ShardFaultKind::ShardKill | ShardFaultKind::ShardStall => {
                    assert_eq!(total_launches, k as u32 + 1, "{kind} seed {seed}");
                    assert_eq!(
                        report.launches.iter().filter(|&&l| l == 2).count(),
                        1,
                        "{kind} seed {seed}: only the failed shard re-launches"
                    );
                }
                // Detected before the kernel ran: no extra launch at all.
                ShardFaultKind::HaloDrop | ShardFaultKind::TransientShardLaunch => {
                    assert_eq!(total_launches, k as u32, "{kind} seed {seed}");
                    assert!(report.launches.iter().all(|&l| l == 1));
                }
            }
        }
    }
}

/// Faults also recover on the simulated multi-GPU topology, where halo
/// exchange rides the modeled interconnect.
#[test]
fn faults_recover_on_the_sim_topology_too() {
    let g = ring(32);
    let ops = operands(&g, int_features);
    let k = 4usize;
    let clean = {
        let exec = ShardedExecutor::new(
            Arc::clone(&g),
            k,
            ShardTopology::sim(GpuSpec::a100_40gb(), 2),
        )
        .unwrap();
        let (out, report) = exec.run_sddmm(&gnnone_sddmm, &ops.x, &ops.z, F).unwrap();
        assert!(
            report.transfer_bytes > 0,
            "K=4 ring sharding must ship halo bytes across devices"
        );
        assert!(report.transfer_ms > 0.0);
        out
    };
    for kind in ShardFaultKind::lattice() {
        let mut exec = ShardedExecutor::new(
            Arc::clone(&g),
            k,
            ShardTopology::sim(GpuSpec::a100_40gb(), 2),
        )
        .unwrap();
        exec.arm_fault(kind, 5);
        let (out, report) = exec.run_sddmm(&gnnone_sddmm, &ops.x, &ops.z, F).unwrap();
        assert_eq!(out, clean, "{kind}: sim recovery diverged");
        assert_eq!(report.retries, 1, "{kind}");
    }
}

/// Exhausted retries are a **typed decline** — a structured `ShardAbort`
/// naming the shard, attempts, checkpointed prefix and injected fault —
/// never a silently partial output.
#[test]
fn exhausted_retries_decline_with_a_structured_shard_abort() {
    let g = ring(64);
    let ops = operands(&g, int_features);
    let k = 4usize;
    let mut exec =
        ShardedExecutor::new(Arc::clone(&g), k, ShardTopology::native(2, k).unwrap()).unwrap();
    exec.set_policy(RetryPolicy {
        max_attempts: 1,
        ..RetryPolicy::default()
    });
    exec.arm_fault(ShardFaultKind::ShardKill, 3);
    let err = exec.run_spmm(&gnnone_spmm, &ops.w, &ops.x, F).unwrap_err();
    assert_eq!(err.kind(), "shard-abort");
    match err {
        GnnOneError::ShardAbort(sa) => {
            assert_eq!(sa.shards, k as u64);
            assert!(sa.shard < k as u64);
            assert_eq!(sa.attempts, 1);
            assert!(sa.completed < k as u64);
            assert_eq!(sa.fault.as_deref(), Some("shard-kill"));
            // The decline round-trips through the JSON error taxonomy.
            let json = GnnOneError::ShardAbort(sa).to_json();
            let back = GnnOneError::from_json(&json).unwrap();
            assert_eq!(back.kind(), "shard-abort");
        }
        other => panic!("expected ShardAbort, got {other}"),
    }
}

/// The deterministic backoff schedule (`base << attempt-1`, SweepGuard's)
/// is recorded in the report.
#[test]
fn retry_backoff_follows_the_sweep_guard_schedule() {
    let g = ring(16);
    let ops = operands(&g, int_features);
    let mut exec =
        ShardedExecutor::new(Arc::clone(&g), 2, ShardTopology::native(2, 2).unwrap()).unwrap();
    exec.set_policy(RetryPolicy {
        max_attempts: 3,
        backoff_base_ms: 1,
        ..RetryPolicy::default()
    });
    exec.arm_fault(ShardFaultKind::TransientShardLaunch, 0);
    let (_, report) = exec
        .run(
            &|sg| registry::by_name(sg, Op::Spmv, "GnnOne").unwrap(),
            &slices(&ops, Op::Spmv),
            1,
        )
        .unwrap();
    assert_eq!(report.backoff_ms, vec![1], "one retry at base backoff");
    let policy = RetryPolicy {
        max_attempts: 4,
        backoff_base_ms: 2,
        ..RetryPolicy::default()
    };
    assert_eq!(
        (1..=3).map(|a| policy.backoff_ms(a)).collect::<Vec<_>>(),
        vec![2, 4, 8]
    );
}

/// Seeded jitter is reproducible: identical `(seed, attempt)` pairs give
/// identical waits, the jittered schedule stays within `jitter_ms` of the
/// plain exponential ladder, and distinct seeds decorrelate.
#[test]
fn retry_jitter_is_seeded_and_deterministic() {
    let plain = RetryPolicy {
        max_attempts: 4,
        backoff_base_ms: 4,
        ..RetryPolicy::default()
    };
    let jittered = RetryPolicy {
        jitter_ms: 3,
        seed: 0xfeed_beef,
        ..plain
    };
    let ladder: Vec<u64> = (1..=3).map(|a| jittered.backoff_ms(a)).collect();
    let again: Vec<u64> = (1..=3).map(|a| jittered.backoff_ms(a)).collect();
    assert_eq!(ladder, again, "same seed must reproduce the schedule");
    for (a, &ms) in (1u32..=3).zip(&ladder) {
        let base = plain.backoff_ms(a);
        assert!(
            (base..=base + 3).contains(&ms),
            "attempt {a}: {ms} outside [{base}, {}]",
            base + 3
        );
    }
    let reseeded = RetryPolicy {
        seed: 0xdead_cafe,
        ..jittered
    };
    let other: Vec<u64> = (1..=3).map(|a| reseeded.backoff_ms(a)).collect();
    assert_ne!(ladder, other, "distinct seeds should decorrelate");
    // jitter_ms == 0 is exactly the historical ladder.
    assert_eq!(
        (1..=3).map(|a| plain.backoff_ms(a)).collect::<Vec<_>>(),
        vec![4, 8, 16]
    );
}

/// Partition edge cases: more shards than nonempty rows (empty shards),
/// all edges in one shard, a single-vertex graph, and a graph whose last
/// rows are empty — all shard cleanly and bitwise-match unsharded.
#[test]
fn degenerate_graphs_shard_cleanly() {
    // Single vertex with a self-loop.
    let single = Arc::new(GraphData::new(Coo::from_edge_list(&EdgeList::new(
        1,
        vec![(0, 0)],
    ))));
    // A 6-vertex star: every edge lands in row 0, so K = 3 leaves two
    // shards with zero edges.
    let star = Arc::new(GraphData::new(Coo::from_edge_list(&EdgeList::new(
        6,
        (1..6u32).map(|v| (0, v)).collect(),
    ))));
    for (g, k) in [
        (Arc::clone(&single), 4usize),
        (Arc::clone(&star), 3),
        (ring(3), 8),
    ] {
        let ops = operands(&g, int_features);
        let topo = ShardTopology::native(2, k).unwrap();
        let reference = unsharded_all(&g, &ops, &topo);
        let exec = ShardedExecutor::new(Arc::clone(&g), k, topo).unwrap();
        let sharded = sharded_all(&exec, &g, &ops);
        for (i, (a, b)) in reference.iter().zip(&sharded).enumerate() {
            assert_eq!(a, b, "kernel #{i}, K={k}: degenerate graph diverged");
        }
    }
    // Empty shards never launch: a fault armed over them still recovers.
    let mut exec =
        ShardedExecutor::new(Arc::clone(&star), 3, ShardTopology::native(2, 3).unwrap()).unwrap();
    exec.arm_fault(ShardFaultKind::ShardKill, 1);
    let ops = operands(&star, int_features);
    let (_, report) = exec.run_spmm(&gnnone_spmm, &ops.w, &ops.x, F).unwrap();
    assert_eq!(report.launches, vec![1 + 1, 0, 0], "only shard 0 launches");
}

/// Malformed partition specs from the adversarial corpus are rejected as
/// structured `ValidationError`s — overlaps, ownership gaps, truncation,
/// inverted ranges — and valid controls pass.
#[test]
fn adversarial_partition_corpus_is_rejected_structurally() {
    let corpus = adversarial::partition_corpus();
    assert!(corpus.len() >= 9, "corpus must cover every failure mode");
    let mut invalid = 0;
    for case in &corpus {
        let got = RowPartition::try_from_row_splits(&case.offsets, &case.splits);
        assert_eq!(
            got.is_ok(),
            case.expect_valid,
            "corpus case `{}`: got {got:?}",
            case.name
        );
        if let Err(e) = got {
            invalid += 1;
            // Structured, not a panic: the error names the partition field.
            assert_eq!(e.structure, "RowPartition", "case `{}`", case.name);
        }
    }
    assert!(invalid >= 7, "most corpus cases are malformed by design");
    // A partition built for a different graph is rejected at executor
    // construction, as is a foreign offsets array.
    let g = ring(16);
    let other = ring(8);
    let p8 = partition_graph(&other, 2).unwrap();
    let err = match ShardedExecutor::with_partition(
        Arc::clone(&g),
        p8,
        ShardTopology::native(2, 2).unwrap(),
    ) {
        Err(e) => e,
        Ok(_) => panic!("foreign partition must be rejected"),
    };
    assert_eq!(err.kind(), "validation");
}
