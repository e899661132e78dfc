//! # gnnone-kernels — GNNOne sparse kernels and every paper baseline
//!
//! The paper's primary contribution: SDDMM, SpMM and SpMV built on one
//! **unified two-stage data-load design** over the standard COO format
//! (§4), plus faithful re-implementations of every system it compares
//! against (§5), all running on the `gnnone-sim` SIMT execution model.
//!
//! * [`gnnone`] — the proposed kernels: Stage-1 balanced NZE caching,
//!   Stage-2 symbiotic thread scheduler (thread groups, `float4` loads,
//!   Consecutive/Round-robin policies), running reduction.
//! * [`backend`] — pluggable execution backends: the cycle-accurate
//!   simulator and the native multithreaded CPU engine (wall-clock
//!   timing, rayon CTAs, `f32x4`-chunked loops); see `docs/BACKENDS.md`.
//! * [`baselines`] — DGL, dgSparse, cuSPARSE, Sputnik, FeatGraph (SDDMM);
//!   GE-SpMM, cuSPARSE, GNNAdvisor, Huang et al., Yang et al., FeatGraph
//!   (SpMM); Merge-SpMV (SpMV) — each with its published storage format,
//!   parallelization strategy and known pathologies.
//! * [`traits`] — the five kernel-family object interfaces and the
//!   family-tagged [`Kernel`] with its one launch path.
//! * [`geometry`] — thread-group geometry shared by all kernels.
//! * [`graph`] — device-resident graph tensors ([`GraphData`]).
//! * [`ir`] — the fusion IR: edge/vertex dataflow graphs verified for
//!   scope/shape and lowered into single `TwoStagePipeline` launches
//!   (the registry's fused and edge-apply entries are IR-lowered
//!   instances); see `docs/FUSION_IR.md`.
//! * [`registry`] — constructs every implementation by name.
//! * [`shard`] — fault-tolerant sharded execution: nnz-balanced
//!   row-aligned partitioning, the supervised [`shard::ShardedExecutor`]
//!   driving any registry kernel shard-by-shard over a multi-GPU or
//!   multi-pool topology with checksummed halo exchange, deterministic
//!   retry, checkpointed recovery, and a statically verified
//!   bitwise-exact merge; see `docs/ROBUSTNESS.md` §7.
//! * [`sanitize`] — registry-wide sanitizer sweep (the simulator's
//!   `compute-sanitizer` workflow over every shipped kernel).
//! * [`analysis`] — the static kernel verifier: symbolic access
//!   summaries per kernel plus the abstract-interpretation pass that
//!   proves race freedom, bounds safety, barrier consistency and
//!   watchdog feasibility across the whole config lattice; see
//!   `docs/STATIC_ANALYSIS.md`.
//!
//! ## Example: run GNNOne SpMM against the CPU oracle
//!
//! ```
//! use std::sync::Arc;
//! use gnnone_kernels::{graph::GraphData, gnnone::GnnOneSpmm, traits::SpmmKernel};
//! use gnnone_sim::{DeviceBuffer, Gpu, GpuSpec};
//! use gnnone_sparse::{formats::{Coo, EdgeList}, reference};
//!
//! let coo = Coo::from_edge_list(&EdgeList::new(4, vec![(0, 1), (1, 2), (2, 3), (3, 0)]));
//! let g = Arc::new(GraphData::new(coo));
//! let f = 8;
//! let x: Vec<f32> = (0..g.coo.num_cols() * f).map(|i| i as f32 * 0.1).collect();
//! let w = vec![1.0f32; g.coo.nnz()];
//!
//! let gpu = Gpu::new(GpuSpec::a100_40gb());
//! let dx = DeviceBuffer::from_slice(&x);
//! let dw = DeviceBuffer::from_slice(&w);
//! let dy = DeviceBuffer::<f32>::zeros(g.coo.num_rows() * f);
//! let kernel = GnnOneSpmm::new(Arc::clone(&g), Default::default());
//! let report = kernel.run(&gpu, &dw, &dx, f, &dy).unwrap();
//!
//! let expected = reference::spmm_csr(&g.csr, &w, &x, f);
//! reference::assert_close(&dy.to_vec(), &expected, 1e-4);
//! assert!(report.cycles > 0);
//! ```

#![allow(clippy::needless_range_loop)] // SIMT lane loops index parallel per-lane arrays
#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod analysis;
pub mod backend;
pub mod baselines;
pub mod geometry;
pub mod gnnone;
pub mod graph;
pub mod ir;
pub mod registry;
pub mod sanitize;
pub mod shard;
pub mod traits;

pub use backend::{Backend, BackendKind, Device, ExecReport, NativeEngine, NativeReport};
pub use graph::GraphData;
pub use traits::{Kernel, Op, SddmmKernel, SpmmKernel, SpmvKernel};
