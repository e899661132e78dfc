//! Sharded multi-device execution: partition, halo exchange, supervised
//! shard-by-shard launch, deterministic merge.
//!
//! The paper's Table 1 graphs top out at 1.9 B edges — beyond any single
//! device — so this module runs every registry kernel family over a
//! row-aligned K-way partition ([`gnnone_sparse::RowPartition`]):
//!
//! * [`partition_graph`] — nnz-balanced, row-aligned splits that reuse the
//!   native backend's greedy block policy
//!   ([`crate::backend::native::row_blocks`]), so sharding and CPU row
//!   blocking share one load-balancing story.
//! * [`shard_graphs`] — each shard materialized as a [`GraphData`] over
//!   its contiguous edge range in a **local vertex space**: its owned rows
//!   plus its halo ([`halo_vertices`]), numbered in ascending global id.
//!   The renumbering is monotone, so CSR edge order and each row's column
//!   order are unchanged, and every registry kernel runs on it unchanged.
//! * [`ShardedExecutor`] — drives any SpMM / SDDMM / SpMV / edge-apply /
//!   fused kernel shard-by-shard across a [`ShardTopology`] (a simulated
//!   [`gnnone_sim::MultiGpu`] with modeled interconnect halo transfers, or
//!   per-shard rayon pools on the native backend), staging each shard's
//!   operands in its local space (O(owned + halo) rows, not O(|V|)) and
//!   merging the owned span of each shard's outputs into disjoint row/edge
//!   ranges. Because shards are row-aligned, each row's full adjacency
//!   lives in exactly one shard, so the merged result is
//!   **bitwise-identical** to the unsharded kernel whenever per-row
//!   reduction order is (as on the native backend, or with integer-valued
//!   features on either backend).
//! * The supervision loop in [`ShardedExecutor`] adds production fault
//!   tolerance: per-shard watchdog deadlines, bounded deterministic retry
//!   with backoff, checksummed halo transfers, shard-output checkpoints so
//!   a failed shard retries alone, and typed degraded-mode declines
//!   ([`gnnone_sim::ShardAbort`]) when retries are exhausted — never a
//!   silent zero-fill. Shard-scoped chaos
//!   ([`gnnone_sim::chaos::ShardFaultKind`]) injects device loss, hangs,
//!   dropped halos, and transient launch declines at seeded shards.
//! * [`verify`] — the static merge verifier: proves each run's merge plan
//!   writes pairwise-disjoint intervals covering the whole output, with
//!   the analysis pass's [`crate::analysis::Verdict`] / witness machinery.
//!
//! See `docs/ROBUSTNESS.md` §7 for the fault model and recovery contract,
//! and `docs/BACKENDS.md` for sharded dispatch on each backend.

pub mod exec;
pub mod verify;

pub use exec::{RetryPolicy, ShardTopology, ShardedExecutor, ShardedReport};
pub use verify::{check_merge, merge_write_intervals, verify_merge, MergeTarget};

use std::sync::Arc;

use gnnone_sim::ValidationError;
use gnnone_sparse::formats::Coo;
use gnnone_sparse::{RowPartition, ShardSpec};

use crate::backend::native::row_blocks;
use crate::graph::GraphData;

/// Builds an nnz-balanced, row-aligned K-way partition of `graph`, reusing
/// the native backend's greedy block policy: rows are accumulated into a
/// shard until it holds ~`nnz / k` edges. When the greedy pass produces
/// more than `k` blocks the tail blocks fold into the last shard; when the
/// graph has fewer nonempty rows than `k`, trailing shards come back empty
/// (legal, and visible in [`gnnone_sparse::PartitionStats`]).
pub fn partition_graph(graph: &GraphData, k: usize) -> Result<RowPartition, ValidationError> {
    if k == 0 {
        return Err(ValidationError::new(
            "RowPartition",
            "shards",
            None,
            "shard count K must be at least 1",
        ));
    }
    let offsets = graph.csr.offsets();
    let num_rows = graph.num_vertices();
    if k == 1 {
        return Ok(RowPartition::single(offsets));
    }
    let target = (graph.nnz().div_ceil(k)).max(1);
    let mut blocks = row_blocks(offsets, num_rows, target);
    if blocks.len() > k {
        // Fold the tail into shard k-1 so the partition is exactly K-way.
        blocks[k - 1].1 = num_rows;
        blocks.truncate(k);
    }
    while blocks.len() < k {
        blocks.push((num_rows, num_rows));
    }
    RowPartition::try_from_row_splits(offsets, &blocks)
}

/// Materializes each shard as a [`GraphData`] over its **local** vertex
/// space: shard `s` holds exactly the global edge range
/// `[edge_start, edge_end)`, renumbered onto its owned rows plus its halo
/// `halos[s]` (as [`halo_vertices`] computes it) in ascending global id —
/// `halo-below ++ owned ++ halo-above`, so the owned rows are one
/// contiguous local range starting after the halo rows below them. The
/// renumbering is monotone, so the edge order and every row's column
/// order are unchanged and each per-row reduction replays in its
/// original order. Halo rows have no edges. The K = 1 partition returns
/// the original graph untouched — sharded execution over it is
/// byte-identical to the unsharded kernel.
pub fn shard_graphs(
    graph: &Arc<GraphData>,
    partition: &RowPartition,
    halos: &[Vec<u32>],
) -> Result<Vec<Arc<GraphData>>, ValidationError> {
    if partition.num_shards() == 1 {
        return Ok(vec![Arc::clone(graph)]);
    }
    let rows = graph.coo.rows();
    let cols = graph.coo.cols();
    partition
        .shards()
        .iter()
        .zip(halos)
        .map(|(s, halo)| {
            let below = halo_below(halo, s);
            let owned = s.num_rows();
            let local = |v: u32| {
                let g = v as usize;
                let id = if (s.row_start..s.row_end).contains(&g) {
                    below + g - s.row_start
                } else {
                    let i = halo
                        .binary_search(&v)
                        .expect("halos[s] holds every column outside shard s's rows");
                    if i < below {
                        i
                    } else {
                        owned + i
                    }
                };
                id as u32
            };
            let edges = s.edge_start..s.edge_end;
            let n = owned + halo.len();
            let coo = Coo::try_from_sorted(
                n,
                n,
                rows[edges.clone()].iter().map(|&r| local(r)).collect(),
                cols[edges].iter().map(|&c| local(c)).collect(),
            )?;
            Ok(Arc::new(GraphData::new(coo)))
        })
        .collect()
}

/// How many of a shard's halo vertices lie below its owned rows: the
/// local id of its first owned row.
pub(crate) fn halo_below(halo: &[u32], spec: &ShardSpec) -> usize {
    halo.partition_point(|&v| (v as usize) < spec.row_start)
}

/// The halo of one shard: the sorted, deduplicated vertices its edges read
/// (column endpoints) that lie **outside** its owned row range. These are
/// the features a remote shard owns and must ship over the interconnect
/// before this shard can launch.
pub fn halo_vertices(graph: &GraphData, spec: &ShardSpec) -> Vec<u32> {
    let cols = graph.coo.cols();
    let mut halo: Vec<u32> = cols[spec.edge_start..spec.edge_end]
        .iter()
        .copied()
        .filter(|&c| (c as usize) < spec.row_start || (c as usize) >= spec.row_end)
        .collect();
    halo.sort_unstable();
    halo.dedup();
    halo
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnnone_sparse::formats::EdgeList;

    fn ring(n: usize) -> Arc<GraphData> {
        let edges: Vec<(u32, u32)> = (0..n as u32).map(|v| (v, (v + 1) % n as u32)).collect();
        Arc::new(GraphData::new(Coo::from_edge_list(&EdgeList::new(
            n, edges,
        ))))
    }

    #[test]
    fn partition_is_balanced_and_exactly_k() {
        let g = ring(64);
        for k in [1, 2, 4, 8] {
            let p = partition_graph(&g, k).unwrap();
            assert_eq!(p.num_shards(), k);
            assert_eq!(p.num_rows(), 64);
            assert_eq!(p.nnz(), 64);
            let stats = p.stats();
            assert!(stats.imbalance <= 2.0, "k={k}: {stats:?}");
        }
        assert!(partition_graph(&g, 0).is_err());
    }

    #[test]
    fn more_shards_than_rows_pads_with_empties() {
        let g = ring(3);
        let p = partition_graph(&g, 8).unwrap();
        assert_eq!(p.num_shards(), 8);
        assert!(p.stats().empty_shards >= 5);
        // Shard graphs still build, and coverage is exact.
        let halos: Vec<Vec<u32>> = p.shards().iter().map(|s| halo_vertices(&g, s)).collect();
        let graphs = shard_graphs(&g, &p, &halos).unwrap();
        let total: usize = graphs.iter().map(|g| g.nnz()).sum();
        assert_eq!(total, 3);
    }

    #[test]
    fn shard_graphs_use_local_vertex_spaces() {
        // A ring plus chords, so shards have halo vertices both below and
        // above their owned rows.
        let n = 24u32;
        let edges: Vec<(u32, u32)> = (0..n)
            .flat_map(|v| [(v, (v + 1) % n), (v, (v + 7) % n), (v, (v + n - 5) % n)])
            .collect();
        let g = Arc::new(GraphData::new(Coo::from_edge_list(&EdgeList::new(
            n as usize, edges,
        ))));
        let p = partition_graph(&g, 4).unwrap();
        let halos: Vec<Vec<u32>> = p.shards().iter().map(|s| halo_vertices(&g, s)).collect();
        let graphs = shard_graphs(&g, &p, &halos).unwrap();
        for ((spec, halo), sg) in p.shards().iter().zip(&halos).zip(&graphs) {
            assert_eq!(sg.num_vertices(), spec.num_rows() + halo.len());
            assert_eq!(sg.nnz(), spec.nnz());
            let below = halo_below(halo, spec);
            // Every shard but the first reads rows below its own, and
            // every shard but the last reads rows above.
            assert_eq!(below > 0, spec.shard > 0, "{spec:?}");
            assert_eq!(below < halo.len(), spec.shard < 3, "{spec:?}");
            // Local id → global id: halo-below ++ owned ++ halo-above.
            let global: Vec<u32> = halo[..below]
                .iter()
                .copied()
                .chain(spec.row_start as u32..spec.row_end as u32)
                .chain(halo[below..].iter().copied())
                .collect();
            assert!(
                global.windows(2).all(|w| w[0] < w[1]),
                "ascending global ids"
            );
            let to_global =
                |ids: &[u32]| -> Vec<u32> { ids.iter().map(|&l| global[l as usize]).collect() };
            let edges = spec.edge_start..spec.edge_end;
            assert_eq!(to_global(sg.coo.rows()), &g.coo.rows()[edges.clone()]);
            assert_eq!(to_global(sg.coo.cols()), &g.coo.cols()[edges]);
            // The owned rows are one contiguous local range; no other
            // local row has an edge.
            let owned = below as u32..(below + spec.num_rows()) as u32;
            assert!(sg.coo.rows().iter().all(|r| owned.contains(r)));
        }
        // K=1 reuses the original allocation.
        let p1 = partition_graph(&g, 1).unwrap();
        let g1 = shard_graphs(&g, &p1, &[halo_vertices(&g, &p1.shards()[0])]).unwrap();
        assert!(Arc::ptr_eq(&g1[0], &g));
    }

    #[test]
    fn halo_is_out_of_range_columns_only() {
        let g = ring(8);
        let p = partition_graph(&g, 4).unwrap();
        for spec in p.shards() {
            let halo = halo_vertices(&g, spec);
            // A ring shard reads exactly one remote vertex: the row after
            // its last owned row (wrapping).
            assert_eq!(halo.len(), 1, "{spec:?}");
            let v = halo[0] as usize;
            assert!(v < spec.row_start || v >= spec.row_end);
        }
        // K=1: no halo at all.
        let p1 = partition_graph(&g, 1).unwrap();
        assert!(halo_vertices(&g, &p1.shards()[0]).is_empty());
    }
}
