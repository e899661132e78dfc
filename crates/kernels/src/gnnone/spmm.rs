//! GNNOne SpMM (paper §4): `y[r] += Σ_{(r,c)} w[(r,c)] · x[c]` on COO.
//!
//! Stage 1 additionally caches the edge feature of every NZE (needed for
//! the dot products). Stage 2 uses the same thread groups as SDDMM; under
//! the Consecutive policy each group walks a contiguous run of NZEs, so the
//! reduction along the neighborhood dimension is a **running, thread-local
//! accumulation** — registers hold one partial vector per lane, flushed
//! with `atomicAdd` only when a row split is observed (§4.3). This is what
//! frees GNNOne from the register materialization that sinks Yang et al.'s
//! nonzero-split SpMM.
//!
//! The kernel is the [`CooNzes`] × [`RowAccum`] instantiation of the
//! shared [`TwoStagePipeline`] — the *same* Stage 1 and scheduler as
//! SDDMM, differing only in the reduction, which is the paper's unifying
//! claim made structural.

use std::sync::Arc;

use gnnone_sim::{engine::LaunchError, DeviceBuffer, Gpu, KernelReport};

use crate::analysis::{summaries, AccessSummary, ExecModel};
use crate::backend::native::{Dst, Src};
use crate::gnnone::config::GnnOneConfig;
use crate::gnnone::pipeline::{stage2_geometry, CooNzes, TwoStagePipeline};
use crate::gnnone::reduce::RowAccum;
use crate::graph::GraphData;
use crate::traits::SpmmKernel;

/// The GNNOne SpMM kernel over COO.
pub struct GnnOneSpmm {
    graph: Arc<GraphData>,
    config: GnnOneConfig,
    name: &'static str,
}

impl GnnOneSpmm {
    /// Creates the kernel for `graph` with `config`.
    pub fn new(graph: Arc<GraphData>, config: GnnOneConfig) -> Self {
        config.validate();
        Self {
            graph,
            config,
            name: "GnnOne",
        }
    }

    /// Same kernel under an ablation label.
    pub fn named(graph: Arc<GraphData>, config: GnnOneConfig, name: &'static str) -> Self {
        config.validate();
        Self {
            graph,
            config,
            name,
        }
    }
}

impl SpmmKernel for GnnOneSpmm {
    fn graph(&self) -> &GraphData {
        &self.graph
    }

    fn name(&self) -> &'static str {
        self.name
    }

    fn format(&self) -> &'static str {
        "COO"
    }

    fn run(
        &self,
        gpu: &Gpu,
        edge_vals: &DeviceBuffer<f32>,
        x: &DeviceBuffer<f32>,
        f: usize,
        y: &DeviceBuffer<f32>,
    ) -> Result<KernelReport, LaunchError> {
        let pipeline = TwoStagePipeline::new(
            CooNzes::with_vals(
                &self.graph.d_coo_rows,
                &self.graph.d_coo_cols,
                edge_vals,
                self.graph.nnz(),
            ),
            RowAccum { x, y },
            f,
            stage2_geometry(&self.config, f),
            self.config,
            self.name,
        );
        gpu.try_launch(&pipeline)
    }

    /// Config-aware native path: `cache_size` sizes the nnz-balanced row
    /// blocks and `vectorize` selects chunked vs scalar accumulation.
    fn run_native(
        &self,
        eng: &crate::backend::NativeEngine,
        edge_vals: Src<'_>,
        x: &[f32],
        f: usize,
        y: Dst<'_>,
    ) -> Result<crate::backend::NativeReport, LaunchError> {
        Ok(crate::backend::native::spmm_rows(
            eng,
            &self.graph,
            &self.config,
            edge_vals,
            x,
            f,
            y,
            self.name,
        ))
    }

    fn access_summary(&self, f: usize, model: ExecModel) -> Option<AccessSummary> {
        Some(match model {
            ExecModel::Sim => summaries::gnnone_coo_spmm(self.name, &self.graph, &self.config, f),
            ExecModel::Native => summaries::native_row_out(
                self.name,
                "spmm",
                &self.graph,
                &self.config,
                f,
                summaries::spmm_reads(),
            ),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gnnone::config::Schedule;
    use gnnone_sim::GpuSpec;
    use gnnone_sparse::formats::{Coo, EdgeList};
    use gnnone_sparse::gen;
    use gnnone_sparse::reference;

    fn gpu() -> Gpu {
        Gpu::new(GpuSpec::a100_40gb())
    }

    fn random_graph(seed: u64) -> Arc<GraphData> {
        let el = gen::rmat(7, 700, gen::GRAPH500_PROBS, seed).symmetrize();
        Arc::new(GraphData::new(Coo::from_edge_list(&el)))
    }

    fn check_correct(cfg: GnnOneConfig, f: usize) {
        let g = random_graph(5);
        let x: Vec<f32> = (0..g.coo.num_cols() * f)
            .map(|i| ((i * 31 % 17) as f32 - 8.0) * 0.25)
            .collect();
        let w: Vec<f32> = (0..g.nnz())
            .map(|e| ((e * 13 % 7) as f32 - 3.0) * 0.5)
            .collect();
        let dx = DeviceBuffer::from_slice(&x);
        let dw = DeviceBuffer::from_slice(&w);
        let dy = DeviceBuffer::<f32>::zeros(g.coo.num_rows() * f);
        GnnOneSpmm::new(Arc::clone(&g), cfg)
            .run(&gpu(), &dw, &dx, f, &dy)
            .unwrap();
        let expected = reference::spmm_csr(&g.csr, &w, &x, f);
        reference::assert_close(&dy.to_vec(), &expected, 1e-4);
    }

    #[test]
    fn correct_default_config_paper_dims() {
        for f in [6, 16, 32, 64] {
            check_correct(GnnOneConfig::default(), f);
        }
    }

    #[test]
    fn correct_round_robin() {
        for f in [6, 32] {
            check_correct(
                GnnOneConfig {
                    schedule: Schedule::RoundRobin,
                    ..Default::default()
                },
                f,
            );
        }
    }

    #[test]
    fn correct_scalar_and_no_reuse() {
        check_correct(GnnOneConfig::ablation_baseline(), 32);
        check_correct(GnnOneConfig::ablation_data_reuse(), 16);
    }

    #[test]
    fn correct_cache_sizes() {
        for cache in [32, 64, 256] {
            check_correct(
                GnnOneConfig {
                    cache_size: cache,
                    ..Default::default()
                },
                16,
            );
        }
    }

    #[test]
    fn correct_odd_dims() {
        for f in [1, 3, 5, 12, 100] {
            check_correct(GnnOneConfig::default(), f);
        }
    }

    #[test]
    fn cache_128_beats_cache_32() {
        // Fig. 9's shape. Needs a *saturated* device, as in the paper's
        // setup — tiny GPU, medium graph.
        let el = gen::rmat(11, 16_000, gen::GRAPH500_PROBS, 23).symmetrize();
        let g = Arc::new(GraphData::new(Coo::from_edge_list(&el)));
        let f = 16;
        let x = DeviceBuffer::from_slice(&vec![1.0f32; g.coo.num_cols() * f]);
        let w = DeviceBuffer::from_slice(&vec![1.0f32; g.nnz()]);
        let dy = DeviceBuffer::<f32>::zeros(g.coo.num_rows() * f);
        let gp = Gpu::new(GpuSpec::tiny());
        let run = |cache: usize| {
            GnnOneSpmm::new(
                Arc::clone(&g),
                GnnOneConfig {
                    cache_size: cache,
                    ..Default::default()
                },
            )
            .run(&gp, &w, &x, f, &dy)
            .unwrap()
            .cycles
        };
        let c128 = run(128);
        let c32 = run(32);
        assert!(c128 < c32, "cache128 {c128} !< cache32 {c32}");
    }

    #[test]
    fn consecutive_needs_fewer_atomics_than_round_robin() {
        // Long rows: Consecutive accumulates locally, RoundRobin flushes on
        // interleaved rows far more often on short-row graphs.
        let el = EdgeList::new(
            128,
            (0..32u32)
                .flat_map(|r| (0..4u32).map(move |c| (r, 64 + (r * 4 + c) % 64)))
                .collect(),
        );
        let g = Arc::new(GraphData::new(Coo::from_edge_list(&el)));
        let f = 32;
        let x = DeviceBuffer::from_slice(&vec![1.0f32; 128 * f]);
        let w = DeviceBuffer::from_slice(&vec![1.0f32; g.nnz()]);
        let gp = gpu();
        let run = |s: Schedule| {
            let dy = DeviceBuffer::<f32>::zeros(128 * f);
            GnnOneSpmm::new(
                Arc::clone(&g),
                GnnOneConfig {
                    schedule: s,
                    ..Default::default()
                },
            )
            .run(&gp, &w, &x, f, &dy)
            .unwrap()
        };
        let cons = run(Schedule::Consecutive);
        let rr = run(Schedule::RoundRobin);
        assert!(
            cons.stats.atomics < rr.stats.atomics,
            "consecutive {} !< round-robin {}",
            cons.stats.atomics,
            rr.stats.atomics
        );
    }

    #[test]
    fn zero_edge_values_produce_zero_output() {
        let g = random_graph(9);
        let f = 8;
        let x = DeviceBuffer::from_slice(&vec![1.0f32; g.coo.num_cols() * f]);
        let w = DeviceBuffer::from_slice(&vec![0.0f32; g.nnz()]);
        let dy = DeviceBuffer::<f32>::zeros(g.coo.num_rows() * f);
        GnnOneSpmm::new(g, GnnOneConfig::default())
            .run(&gpu(), &w, &x, f, &dy)
            .unwrap();
        assert!(dy.to_vec().iter().all(|&v| v == 0.0));
    }
}
