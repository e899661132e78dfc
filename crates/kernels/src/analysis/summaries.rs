//! Ready-made summary constructors for the unified-pipeline kernels and
//! the native backend's per-family partitions.
//!
//! The GNNOne pipeline instantiations share two Stage-1 shapes (COO NZE
//! windows, CSR NZE windows with an offsets ring) and a handful of
//! Stage-2 write disciplines, so their summaries are built here once and
//! reused by every kernel file. The native backend routes *all* kernels
//! of a family through one shared routine (`backend::native`), so its
//! summaries are per-family too, parameterized only by the config the
//! routine actually partitions with.
//!
//! Soundness conventions (see `docs/STATIC_ANALYSIS.md`):
//! * global access patterns are **supersets** of the addresses touched;
//! * shared-memory `Store` ranges match the staging the kernel performs,
//!   `Load` ranges are supersets of what Stage 2 reads;
//! * `ops_per_warp` is a generous upper bound, differentially validated
//!   against the simulator's watchdog counter by the test suite.

use crate::analysis::summary::{
    base_env, AccessSummary, BufferAccess, ExecModel, LaunchSummary, Mode, Pattern, SharedStep,
};
use crate::analysis::sym::Sym;
use crate::backend::native;
use crate::gnnone::GnnOneConfig;
use crate::graph::GraphData;
use crate::traits::Op;

/// Maximum row degree of a graph — the `max_degree` summary parameter.
pub fn max_degree(graph: &GraphData) -> usize {
    (0..graph.csr.num_rows())
        .map(|r| graph.csr.degree(r))
        .max()
        .unwrap_or(0)
}

/// The per-warp NZE window of a COO/CSR pipeline launch:
/// `[w·cache, w·cache + min(cache, nnz − w·cache))`.
fn nze_window() -> (Sym, Sym) {
    let base = Sym::warp_id().mul(Sym::cache());
    let len = Sym::cache().min(Sym::nnz().sub(base.clone()));
    (base, len)
}

/// Read envelope helper.
fn read(buffer: &'static str, extent: Sym) -> BufferAccess {
    BufferAccess {
        buffer,
        extent: extent.clone(),
        pattern: Pattern::Bounded {
            lo: Sym::lit(0),
            hi: extent,
        },
        mode: Mode::Read,
    }
}

/// Atomic write envelope helper.
fn atomic(buffer: &'static str, extent: Sym) -> BufferAccess {
    BufferAccess {
        buffer,
        extent: extent.clone(),
        pattern: Pattern::Bounded {
            lo: Sym::lit(0),
            hi: extent,
        },
        mode: Mode::Atomic,
    }
}

/// Generous Stage-1 + Stage-2 instruction bound for an NZE-window
/// pipeline warp: a fixed setup allowance plus a per-cached-NZE term
/// linear in the feature length.
fn pipeline_ops(setup: u64, per_edge_base: u64) -> Sym {
    Sym::lit(setup).add(Sym::cache().mul(Sym::lit(per_edge_base).add(Sym::f().mul(Sym::lit(8)))))
}

/// Shared-memory phase script of the COO Stage 1 (Listing 1): row IDs at
/// `[0, c)`, column IDs at `[c, 2c)`, optionally edge values at
/// `[2c, 3c)`, one barrier, then Stage-2 reads across the staged window.
fn coo_shared(needs_vals: bool) -> (Sym, Vec<SharedStep>) {
    let c = Sym::cache();
    let regions: u64 = if needs_vals { 3 } else { 2 };
    let words = c.clone().mul(Sym::lit(regions));
    let mut steps = vec![
        SharedStep::Store {
            lo: Sym::lit(0),
            hi: c.clone(),
        },
        SharedStep::Store {
            lo: c.clone(),
            hi: c.clone().mul(Sym::lit(2)),
        },
    ];
    if needs_vals {
        steps.push(SharedStep::Store {
            lo: c.clone().mul(Sym::lit(2)),
            hi: c.clone().mul(Sym::lit(3)),
        });
    }
    steps.push(SharedStep::Barrier);
    steps.push(SharedStep::Load {
        lo: Sym::lit(0),
        hi: words.clone(),
    });
    (words, steps)
}

/// Shared script of the CSR Stage 1: columns at `[0, c)`, values at
/// `[c, 2c)`, the offsets ring at `[2c, 3c + 2)`, one barrier, Stage-2
/// reads across the whole window.
fn csr_shared() -> (Sym, Vec<SharedStep>) {
    let c = Sym::cache();
    let words = c.clone().mul(Sym::lit(3)).add(Sym::lit(2));
    let steps = vec![
        SharedStep::Store {
            lo: Sym::lit(0),
            hi: c.clone().mul(Sym::lit(2)),
        },
        SharedStep::Store {
            lo: c.clone().mul(Sym::lit(2)),
            hi: words.clone(),
        },
        SharedStep::Barrier,
        SharedStep::Load {
            lo: Sym::lit(0),
            hi: words.clone(),
        },
    ];
    (words, steps)
}

fn env_for(graph: &GraphData, f: usize, cache: usize) -> crate::analysis::sym::Env {
    base_env(
        graph.nnz(),
        graph.num_vertices(),
        f,
        cache,
        max_degree(graph),
    )
}

/// GNNOne COO SDDMM (`CooNzes × EdgeDot`): each warp exclusively owns one
/// NZE window of `w`; `x`/`y` are gather-reads.
pub fn gnnone_coo_sddmm(
    name: &str,
    graph: &GraphData,
    cfg: &GnnOneConfig,
    f: usize,
) -> AccessSummary {
    let (start, len) = nze_window();
    let (shared_words, shared_steps) = if cfg.data_reuse {
        coo_shared(false)
    } else {
        (Sym::lit(0), Vec::new())
    };
    let feat = Sym::rows().mul(Sym::f());
    let launch = LaunchSummary {
        grid_warps: Sym::nnz().ceil_div(Sym::cache()),
        accesses: vec![
            BufferAccess {
                buffer: "w",
                extent: Sym::nnz(),
                pattern: Pattern::Affine { start, len },
                mode: Mode::Exclusive,
            },
            read("coo_rows", Sym::nnz()),
            read("coo_cols", Sym::nnz()),
            read("x", feat.clone()),
            read("y", feat),
        ],
        shared_words,
        shared_steps,
        ops_per_warp: pipeline_ops(256, 32),
        ..LaunchSummary::new("coo-sddmm")
    };
    AccessSummary::single(
        name,
        "sddmm",
        ExecModel::Sim,
        env_for(graph, f, cfg.cache_size),
        launch,
    )
}

/// GNNOne COO SpMM (`CooNzes × RowAccum`): row accumulators flush with
/// atomics at row splits, so `y` is an atomic envelope.
pub fn gnnone_coo_spmm(
    name: &str,
    graph: &GraphData,
    cfg: &GnnOneConfig,
    f: usize,
) -> AccessSummary {
    let (shared_words, shared_steps) = if cfg.data_reuse {
        coo_shared(true)
    } else {
        (Sym::lit(0), Vec::new())
    };
    let feat = Sym::rows().mul(Sym::f());
    let launch = LaunchSummary {
        grid_warps: Sym::nnz().ceil_div(Sym::cache()),
        accesses: vec![
            atomic("y", feat.clone()),
            read("edge_vals", Sym::nnz()),
            read("coo_rows", Sym::nnz()),
            read("coo_cols", Sym::nnz()),
            read("x", feat),
        ],
        shared_words,
        shared_steps,
        ops_per_warp: pipeline_ops(256, 32),
        ..LaunchSummary::new("coo-spmm")
    };
    AccessSummary::single(
        name,
        "spmm",
        ExecModel::Sim,
        env_for(graph, f, cfg.cache_size),
        launch,
    )
}

/// GNNOne CSR SpMM (`CsrNzes × RowAccum`): the COO shape plus the binary
/// row search and the staged offsets ring.
pub fn gnnone_csr_spmm(
    name: &str,
    graph: &GraphData,
    cfg: &GnnOneConfig,
    f: usize,
) -> AccessSummary {
    let (shared_words, shared_steps) = csr_shared();
    let feat = Sym::rows().mul(Sym::f());
    let launch = LaunchSummary {
        grid_warps: Sym::nnz().ceil_div(Sym::cache()),
        accesses: vec![
            atomic("y", feat.clone()),
            read("edge_vals", Sym::nnz()),
            read("csr_offsets", Sym::rows().add(Sym::lit(1))),
            read("csr_cols", Sym::nnz()),
            read("x", feat),
        ],
        shared_words,
        shared_steps,
        // Extra allowance for the two binary row searches (≤ 2·⌈log₂
        // rows⌉ dependent probes ≤ 128 for any 2⁶⁴ graph) and the ring
        // staging.
        ops_per_warp: pipeline_ops(1024, 48),
        ..LaunchSummary::new("csr-spmm")
    };
    AccessSummary::single(
        name,
        "spmm",
        ExecModel::Sim,
        env_for(graph, f, cfg.cache_size),
        launch,
    )
}

/// GNNOne edge-apply (`CooNzes × ScalarGather`): `w[e] = el[u] + er[v]`
/// over exclusive NZE windows, scalar features.
pub fn gnnone_uaddv(name: &str, graph: &GraphData, cfg: &GnnOneConfig) -> AccessSummary {
    let (start, len) = nze_window();
    let (shared_words, shared_steps) = if cfg.data_reuse {
        coo_shared(false)
    } else {
        (Sym::lit(0), Vec::new())
    };
    let launch = LaunchSummary {
        grid_warps: Sym::nnz().ceil_div(Sym::cache()),
        accesses: vec![
            BufferAccess {
                buffer: "w",
                extent: Sym::nnz(),
                pattern: Pattern::Affine { start, len },
                mode: Mode::Exclusive,
            },
            read("coo_rows", Sym::nnz()),
            read("coo_cols", Sym::nnz()),
            read("el", Sym::rows()),
            read("er", Sym::rows()),
        ],
        shared_words,
        shared_steps,
        ops_per_warp: pipeline_ops(256, 32),
        ..LaunchSummary::new("coo-edge-apply")
    };
    AccessSummary::single(
        name,
        Op::EdgeApply.as_str(),
        ExecModel::Sim,
        env_for(graph, 1, cfg.cache_size),
        launch,
    )
}

/// GNNOne SpMV: 256-NZE windows, segmented warp scan, atomic boundary
/// adds into `y`.
pub fn gnnone_spmv(name: &str, graph: &GraphData, nze_per_warp: u64) -> AccessSummary {
    let launch = LaunchSummary {
        grid_warps: Sym::nnz().ceil_div(Sym::lit(nze_per_warp)),
        accesses: vec![
            atomic("y", Sym::rows()),
            read("edge_vals", Sym::nnz()),
            read("coo_rows", Sym::nnz()),
            read("coo_cols", Sym::nnz()),
            read("x", Sym::rows()),
        ],
        ops_per_warp: Sym::lit(256).add(Sym::lit(nze_per_warp).mul(Sym::lit(24))),
        ..LaunchSummary::new("spmv")
    };
    // The window size is a kernel constant, not the config cache — carry
    // it in `cache` so the Affine windows (none here) and displays agree.
    AccessSummary::single(
        name,
        "spmv",
        ExecModel::Sim,
        env_for(graph, 1, nze_per_warp as usize),
        launch,
    )
}

/// Fused GAT attention (`CsrRows × RowSoftmaxGat`): one warp per row owns
/// the row's `y` slice and CSR-aligned `alpha` span; logits for rows up
/// to the cache length stage through shared memory in
/// store → barrier → read chunks.
pub fn fused_gat(name: &str, graph: &GraphData, f: usize, logit_cache_words: u64) -> AccessSummary {
    let alpha: Vec<(usize, u64, u64)> = (0..graph.csr.num_rows())
        .map(|r| {
            let range = graph.csr.row_range(r);
            (r, range.start as u64, range.end as u64)
        })
        .collect();
    let feat = Sym::rows().mul(Sym::f());
    let chunk = Sym::max_degree().min(Sym::lit(logit_cache_words));
    let launch = LaunchSummary {
        grid_warps: Sym::rows(),
        accesses: vec![
            BufferAccess {
                buffer: "y",
                extent: feat.clone(),
                pattern: Pattern::Affine {
                    start: Sym::warp_id().mul(Sym::f()),
                    len: Sym::f(),
                },
                mode: Mode::Exclusive,
            },
            BufferAccess {
                buffer: "alpha",
                extent: Sym::nnz(),
                pattern: Pattern::Table(alpha),
                mode: Mode::Exclusive,
            },
            read("z", feat),
            read("el", Sym::rows()),
            read("er", Sym::rows()),
            read("csr_offsets", Sym::rows().add(Sym::lit(1))),
            read("csr_cols", Sym::nnz()),
        ],
        shared_words: Sym::lit(logit_cache_words),
        shared_steps: vec![
            SharedStep::Store {
                lo: Sym::lit(0),
                hi: chunk.clone(),
            },
            SharedStep::Barrier,
            SharedStep::Load {
                lo: Sym::lit(0),
                hi: chunk,
            },
        ],
        // Three passes over the row's span, each ≤ a per-edge constant
        // plus the feature-length aggregation term.
        ops_per_warp: Sym::lit(512)
            .add(Sym::max_degree().mul(Sym::lit(48).add(Sym::f().mul(Sym::lit(12))))),
        ..LaunchSummary::new("fused-gat")
    };
    AccessSummary::single(
        name,
        "fused",
        ExecModel::Sim,
        env_for(graph, f, 128),
        launch,
    )
}

// ---------------------------------------------------------------------
// Native model: per-family summaries of the shared `backend::native`
// routines. One rayon task plays the role of one "warp"; there is no
// shared memory and no watchdog.
// ---------------------------------------------------------------------

/// Symbolic form of [`native::cta_edges`]: `max(8·cache, 1)`.
fn native_block() -> Sym {
    Sym::lit(native::WARPS_PER_CTA as u64)
        .mul(Sym::cache().max(Sym::lit(1)))
        .max(Sym::lit(1))
}

/// Native edge-output launch (`sddmm_edges` / `u_add_v_edges`): task `t`
/// exclusively owns the NZE block `[t·B, t·B + min(B, nnz − t·B))`.
pub fn native_edge_out(
    name: &str,
    op: &'static str,
    graph: &GraphData,
    cfg: &GnnOneConfig,
    f: usize,
    reads: Vec<BufferAccess>,
) -> AccessSummary {
    let block = native_block();
    let start = Sym::warp_id().mul(block.clone());
    let len = block.clone().min(Sym::nnz().sub(start.clone()));
    let mut accesses = vec![BufferAccess {
        buffer: "w",
        extent: Sym::nnz(),
        pattern: Pattern::Affine { start, len },
        mode: Mode::Exclusive,
    }];
    accesses.extend(reads);
    let launch = LaunchSummary {
        grid_warps: Sym::nnz().ceil_div(block),
        accesses,
        ..LaunchSummary::new("native-edge-blocks")
    };
    AccessSummary::single(
        name,
        op,
        ExecModel::Native,
        env_for(graph, f, cfg.cache_size),
        launch,
    )
}

/// The native row partition for a config: the exact blocks
/// [`native::row_blocks`] will hand to rayon.
pub fn native_row_partition(graph: &GraphData, cfg: &GnnOneConfig) -> Vec<(usize, usize)> {
    native::row_blocks(
        graph.csr.offsets(),
        graph.num_vertices(),
        native::cta_edges(cfg.cache_size),
    )
}

/// Native row-output launch (`spmm_rows` / `spmv_rows` family): task `t`
/// exclusively owns the feature rows of its row block.
pub fn native_row_out(
    name: &str,
    op: &'static str,
    graph: &GraphData,
    cfg: &GnnOneConfig,
    f: usize,
    reads: Vec<BufferAccess>,
) -> AccessSummary {
    let table: Vec<(usize, u64, u64)> = native_row_partition(graph, cfg)
        .iter()
        .enumerate()
        .map(|(t, &(r0, r1))| (t, (r0 * f) as u64, (r1 * f) as u64))
        .collect();
    let tasks = table.len() as u64;
    let mut accesses = vec![BufferAccess {
        buffer: "y",
        extent: Sym::rows().mul(Sym::f()),
        pattern: Pattern::Table(table),
        mode: Mode::Exclusive,
    }];
    accesses.extend(reads);
    let launch = LaunchSummary {
        grid_warps: Sym::lit(tasks),
        accesses,
        ..LaunchSummary::new("native-row-blocks")
    };
    AccessSummary::single(
        name,
        op,
        ExecModel::Native,
        env_for(graph, f, cfg.cache_size),
        launch,
    )
}

/// Native row-output SDDMM (`sddmm_rows`): task `t` owns the NZE span
/// `[offsets[r0], offsets[r1])` of its row block.
pub fn native_sddmm_rows(
    name: &str,
    graph: &GraphData,
    cfg: &GnnOneConfig,
    f: usize,
) -> AccessSummary {
    let offsets = graph.csr.offsets();
    let table: Vec<(usize, u64, u64)> = native_row_partition(graph, cfg)
        .iter()
        .enumerate()
        .map(|(t, &(r0, r1))| (t, offsets[r0] as u64, offsets[r1] as u64))
        .collect();
    let tasks = table.len() as u64;
    let feat = Sym::rows().mul(Sym::f());
    let launch = LaunchSummary {
        grid_warps: Sym::lit(tasks),
        accesses: vec![
            BufferAccess {
                buffer: "w",
                extent: Sym::nnz(),
                pattern: Pattern::Table(table),
                mode: Mode::Exclusive,
            },
            read("csr_offsets", Sym::rows().add(Sym::lit(1))),
            read("csr_cols", Sym::nnz()),
            read("x", feat.clone()),
            read("y", feat),
        ],
        ..LaunchSummary::new("native-sddmm-rows")
    };
    AccessSummary::single(
        name,
        "sddmm",
        ExecModel::Native,
        env_for(graph, f, cfg.cache_size),
        launch,
    )
}

/// Native fused GAT (`fused_gat_rows`): each task owns both its row
/// block's `y` slice and the matching CSR-aligned `alpha` span.
pub fn native_fused_gat(name: &str, graph: &GraphData, f: usize) -> AccessSummary {
    let cfg = GnnOneConfig::default();
    let offsets = graph.csr.offsets();
    let blocks = native_row_partition(graph, &cfg);
    let y_table: Vec<(usize, u64, u64)> = blocks
        .iter()
        .enumerate()
        .map(|(t, &(r0, r1))| (t, (r0 * f) as u64, (r1 * f) as u64))
        .collect();
    let a_table: Vec<(usize, u64, u64)> = blocks
        .iter()
        .enumerate()
        .map(|(t, &(r0, r1))| (t, offsets[r0] as u64, offsets[r1] as u64))
        .collect();
    let tasks = blocks.len() as u64;
    let feat = Sym::rows().mul(Sym::f());
    let launch = LaunchSummary {
        grid_warps: Sym::lit(tasks),
        accesses: vec![
            BufferAccess {
                buffer: "y",
                extent: feat.clone(),
                pattern: Pattern::Table(y_table),
                mode: Mode::Exclusive,
            },
            BufferAccess {
                buffer: "alpha",
                extent: Sym::nnz(),
                pattern: Pattern::Table(a_table),
                mode: Mode::Exclusive,
            },
            read("z", feat),
            read("el", Sym::rows()),
            read("er", Sym::rows()),
            read("csr_offsets", Sym::rows().add(Sym::lit(1))),
            read("csr_cols", Sym::nnz()),
        ],
        ..LaunchSummary::new("native-fused-rows")
    };
    AccessSummary::single(
        name,
        "fused",
        ExecModel::Native,
        env_for(graph, f, cfg.cache_size),
        launch,
    )
}

/// Standard read set of an SpMM-shaped native launch.
pub fn spmm_reads() -> Vec<BufferAccess> {
    vec![
        read("edge_vals", Sym::nnz()),
        read("csr_offsets", Sym::rows().add(Sym::lit(1))),
        read("csr_cols", Sym::nnz()),
        read("x", Sym::rows().mul(Sym::f())),
    ]
}

/// Standard read set of an SDDMM-shaped native edge launch.
pub fn sddmm_edge_reads() -> Vec<BufferAccess> {
    vec![
        read("coo_rows", Sym::nnz()),
        read("coo_cols", Sym::nnz()),
        read("x", Sym::rows().mul(Sym::f())),
        read("y", Sym::rows().mul(Sym::f())),
    ]
}

/// Standard read set of the native `u_add_v` edge launch.
pub fn uaddv_reads() -> Vec<BufferAccess> {
    vec![
        read("coo_rows", Sym::nnz()),
        read("coo_cols", Sym::nnz()),
        read("el", Sym::rows()),
        read("er", Sym::rows()),
    ]
}

// ---------------------------------------------------------------------
// Baseline simulator summaries. Each mirrors the launch geometry its
// kernel file actually constructs; per-chunk/per-bin partitions computed
// at kernel construction time arrive here as explicit interval tables.
// ---------------------------------------------------------------------

/// Generous per-warp instruction bound for a vertex-parallel warp that
/// walks at most `span` NZEs with feature-length-dependent work per NZE.
fn span_ops(span: Sym) -> Sym {
    Sym::lit(256).add(span.mul(Sym::lit(32).add(Sym::f().mul(Sym::lit(8)))))
}

/// The standard CSR + feature read set of the vertex-parallel baselines.
fn vp_reads(feat_y: bool) -> Vec<BufferAccess> {
    let feat = Sym::rows().mul(Sym::f());
    let mut reads = vec![
        read("csr_offsets", Sym::rows().add(Sym::lit(1))),
        read("csr_cols", Sym::nnz()),
        read("x", feat.clone()),
    ];
    if feat_y {
        reads.push(read("y", feat));
    } else {
        reads.insert(0, read("edge_vals", Sym::nnz()));
    }
    reads
}

/// Warp-per-row-chunk vertex-parallel SDDMM (dgSparse / FeatGraph /
/// Sputnik): chunk `t` exclusively owns its `[start, end)` NZE span of
/// `w`; chunks are capped at 256 NZEs by construction.
pub fn vp_chunk_sddmm(
    name: &str,
    graph: &GraphData,
    f: usize,
    table: Vec<(usize, u64, u64)>,
) -> AccessSummary {
    let tasks = table.len() as u64;
    let mut accesses = vec![BufferAccess {
        buffer: "w",
        extent: Sym::nnz(),
        pattern: Pattern::Table(table),
        mode: Mode::Exclusive,
    }];
    accesses.extend(vp_reads(true));
    let launch = LaunchSummary {
        grid_warps: Sym::lit(tasks),
        accesses,
        ops_per_warp: span_ops(Sym::lit(256)),
        ..LaunchSummary::new("vp-row-chunks")
    };
    AccessSummary::single(name, "sddmm", ExecModel::Sim, env_for(graph, f, 32), launch)
}

/// Thread-per-row vertex-parallel SDDMM (cuSPARSE): warp `w` owns rows
/// `[32w, 32w+32)`, hence the contiguous NZE span
/// `[offsets[32w], offsets[min(32w+32, rows)])` of `w`.
pub fn vp_thread_row_sddmm(name: &str, graph: &GraphData, f: usize) -> AccessSummary {
    let offsets = graph.csr.offsets();
    let rows = graph.csr.num_rows();
    let table: Vec<(usize, u64, u64)> = (0..rows.div_ceil(32))
        .map(|w| {
            (
                w,
                offsets[32 * w] as u64,
                offsets[(32 * w + 32).min(rows)] as u64,
            )
        })
        .collect();
    let mut accesses = vec![BufferAccess {
        buffer: "w",
        extent: Sym::nnz(),
        pattern: Pattern::Table(table),
        mode: Mode::Exclusive,
    }];
    accesses.extend(vp_reads(true));
    let launch = LaunchSummary {
        grid_warps: Sym::rows().ceil_div(Sym::lit(32)),
        accesses,
        ops_per_warp: span_ops(Sym::max_degree()),
        ..LaunchSummary::new("vp-thread-rows")
    };
    AccessSummary::single(name, "sddmm", ExecModel::Sim, env_for(graph, f, 32), launch)
}

/// One maximal shared-memory round of a 32-NZE staging loop: column IDs
/// at `[0, 32)`, edge values at `[32, 64)`, one barrier, broadcast reads
/// across the staged window. Shorter (ragged) rounds touch subsets of
/// these ranges, so the maximal round's proof covers every round.
fn staged_round() -> (Sym, Vec<SharedStep>) {
    (
        Sym::lit(64),
        vec![
            SharedStep::Store {
                lo: Sym::lit(0),
                hi: Sym::lit(32),
            },
            SharedStep::Store {
                lo: Sym::lit(32),
                hi: Sym::lit(64),
            },
            SharedStep::Barrier,
            SharedStep::Load {
                lo: Sym::lit(0),
                hi: Sym::lit(64),
            },
        ],
    )
}

/// Warp-per-row SpMM (GE-SpMM, FeatGraph): warp `w` exclusively owns the
/// feature row `[w·f, w·f + f)` of `y`. `staged` adds GE-SpMM's
/// Coalesced-Row-Caching shared rounds.
pub fn warp_per_row_spmm(name: &str, graph: &GraphData, f: usize, staged: bool) -> AccessSummary {
    let (shared_words, shared_steps) = if staged {
        staged_round()
    } else {
        (Sym::lit(0), Vec::new())
    };
    let mut accesses = vec![BufferAccess {
        buffer: "y",
        extent: Sym::rows().mul(Sym::f()),
        pattern: Pattern::Affine {
            start: Sym::warp_id().mul(Sym::f()),
            len: Sym::f(),
        },
        mode: Mode::Exclusive,
    }];
    accesses.extend(vp_reads(false));
    let launch = LaunchSummary {
        grid_warps: Sym::rows(),
        accesses,
        shared_words,
        shared_steps,
        ops_per_warp: span_ops(Sym::max_degree()),
        ..LaunchSummary::new("warp-per-row")
    };
    AccessSummary::single(name, "spmm", ExecModel::Sim, env_for(graph, f, 32), launch)
}

/// Row-swizzled SpMM (Sputnik): warp `w` owns row `order[w]`'s feature
/// slice — a permutation table, disjoint iff the swizzle is a bijection.
pub fn swizzled_row_spmm(name: &str, graph: &GraphData, f: usize, order: &[u32]) -> AccessSummary {
    let table: Vec<(usize, u64, u64)> = order
        .iter()
        .enumerate()
        .map(|(w, &row)| {
            let base = row as u64 * f as u64;
            (w, base, base + f as u64)
        })
        .collect();
    let mut accesses = vec![
        BufferAccess {
            buffer: "y",
            extent: Sym::rows().mul(Sym::f()),
            pattern: Pattern::Table(table),
            mode: Mode::Exclusive,
        },
        read("order", Sym::rows()),
    ];
    accesses.extend(vp_reads(false));
    let launch = LaunchSummary {
        grid_warps: Sym::lit(order.len() as u64),
        accesses,
        ops_per_warp: span_ops(Sym::max_degree()),
        ..LaunchSummary::new("swizzled-rows")
    };
    AccessSummary::single(name, "spmm", ExecModel::Sim, env_for(graph, f, 32), launch)
}

/// Row-split SpMM (cuSPARSE `csrmm`): unsplit chunks store their row's
/// feature slice exclusively (the `excl_table` the kernel derives from
/// its chunk partition and batching factor), split rows combine through
/// atomics.
pub fn chunked_row_spmm(
    name: &str,
    graph: &GraphData,
    f: usize,
    excl_table: Vec<(usize, u64, u64)>,
    grid_warps: u64,
) -> AccessSummary {
    let feat = Sym::rows().mul(Sym::f());
    let launch = LaunchSummary {
        grid_warps: Sym::lit(grid_warps),
        accesses: vec![
            BufferAccess {
                buffer: "y",
                extent: feat.clone(),
                pattern: Pattern::Table(excl_table),
                mode: Mode::Exclusive,
            },
            atomic("y", feat.clone()),
            read("edge_vals", Sym::nnz()),
            read("csr_cols", Sym::nnz()),
            read("x", feat),
        ],
        // ≤ 256 merge steps over up to 32 batched chunks, each step a
        // handful of warp-wide instructions per feature tile.
        ops_per_warp: Sym::lit(256)
            .add(Sym::lit(256).mul(Sym::lit(64).add(Sym::f().mul(Sym::lit(16))))),
        ..LaunchSummary::new("row-split-chunks")
    };
    AccessSummary::single(name, "spmm", ExecModel::Sim, env_for(graph, f, 32), launch)
}

/// Nonzero-split SpMM (Yang et al.): equal `tile`-NZE spans per warp,
/// all output flushed through atomics — no exclusive windows at all.
pub fn nonzero_split_spmm(name: &str, graph: &GraphData, f: usize, tile: u64) -> AccessSummary {
    let feat = Sym::rows().mul(Sym::f());
    let launch = LaunchSummary {
        grid_warps: Sym::nnz().ceil_div(Sym::lit(tile)),
        accesses: vec![
            atomic("y", feat.clone()),
            read("edge_vals", Sym::nnz()),
            read("coo_rows", Sym::nnz()),
            read("coo_cols", Sym::nnz()),
            read("x", feat),
        ],
        ops_per_warp: span_ops(Sym::lit(tile)),
        ..LaunchSummary::new("nonzero-split")
    };
    AccessSummary::single(
        name,
        "spmm",
        ExecModel::Sim,
        env_for(graph, f, tile as usize),
        launch,
    )
}

/// Row-binning SpMM: one launch per non-empty bin. Small-bin warps own 32
/// rows each, medium-bin warps one row, large-bin rows are shared by four
/// warps and combine atomically.
pub fn row_binning_spmm(
    name: &str,
    graph: &GraphData,
    f: usize,
    small: &[u32],
    medium: &[u32],
    large: &[u32],
) -> AccessSummary {
    let feat = || Sym::rows().mul(Sym::f());
    let row_slice = |w: usize, row: u32| {
        let base = row as u64 * f as u64;
        (w, base, base + f as u64)
    };
    let bin_reads = |bin: &'static str, len: usize| {
        let mut reads = vec![read(bin, Sym::lit(len as u64))];
        reads.extend(vp_reads(false));
        reads
    };
    let mut launches = Vec::new();
    if !small.is_empty() {
        let table: Vec<_> = small
            .iter()
            .enumerate()
            .map(|(i, &row)| row_slice(i / 32, row))
            .collect();
        let mut accesses = vec![BufferAccess {
            buffer: "y",
            extent: feat(),
            pattern: Pattern::Table(table),
            mode: Mode::Exclusive,
        }];
        accesses.extend(bin_reads("bin_small", small.len()));
        launches.push(LaunchSummary {
            grid_warps: Sym::lit(small.len().div_ceil(32) as u64),
            accesses,
            ops_per_warp: span_ops(Sym::max_degree()),
            ..LaunchSummary::new("bin-small")
        });
    }
    if !medium.is_empty() {
        let table: Vec<_> = medium
            .iter()
            .enumerate()
            .map(|(i, &row)| row_slice(i, row))
            .collect();
        let mut accesses = vec![BufferAccess {
            buffer: "y",
            extent: feat(),
            pattern: Pattern::Table(table),
            mode: Mode::Exclusive,
        }];
        accesses.extend(bin_reads("bin_medium", medium.len()));
        launches.push(LaunchSummary {
            grid_warps: Sym::lit(medium.len() as u64),
            accesses,
            ops_per_warp: span_ops(Sym::max_degree()),
            ..LaunchSummary::new("bin-medium")
        });
    }
    if !large.is_empty() {
        let mut accesses = vec![atomic("y", feat())];
        accesses.extend(bin_reads("bin_large", large.len()));
        launches.push(LaunchSummary {
            grid_warps: Sym::lit(large.len() as u64 * 4),
            accesses,
            ops_per_warp: span_ops(Sym::max_degree()),
            ..LaunchSummary::new("bin-large")
        });
    }
    AccessSummary {
        kernel: name.to_string(),
        op: "spmm",
        model: ExecModel::Sim,
        launches,
        base_env: env_for(graph, f, 32),
    }
}

/// Neighbor-group SpMM (GNNAdvisor, Huang et al.): one warp per ≤32-NZE
/// group, every group flushing atomically. The metadata broadcast costs
/// a leading barrier; Huang additionally stages the group in shared.
pub fn neighbor_group_spmm(
    name: &str,
    graph: &GraphData,
    f: usize,
    num_groups: usize,
    staged: bool,
) -> AccessSummary {
    let (shared_words, mut shared_steps) = if staged {
        staged_round()
    } else {
        (Sym::lit(0), Vec::new())
    };
    // The metadata-broadcast barrier precedes any staging.
    shared_steps.insert(0, SharedStep::Barrier);
    let feat = Sym::rows().mul(Sym::f());
    let groups = Sym::lit(num_groups as u64);
    let launch = LaunchSummary {
        grid_warps: groups.clone(),
        accesses: vec![
            atomic("y", feat.clone()),
            read("group_row", groups.clone()),
            read("group_start", groups.clone()),
            read("group_len", groups),
            read("edge_vals", Sym::nnz()),
            read("csr_cols", Sym::nnz()),
            read("x", feat),
        ],
        shared_words,
        shared_steps,
        ops_per_warp: span_ops(Sym::lit(32)),
        ..LaunchSummary::new("neighbor-groups")
    };
    AccessSummary::single(name, "spmm", ExecModel::Sim, env_for(graph, f, 32), launch)
}

/// Merge-path SpMV (Merrill & Garland): one warp per merge span, atomic
/// row flushes; spans are ≤ 256 merge items by construction.
pub fn merge_spmv(name: &str, graph: &GraphData, num_spans: usize) -> AccessSummary {
    let launch = LaunchSummary {
        grid_warps: Sym::lit(num_spans as u64),
        accesses: vec![
            atomic("y", Sym::rows()),
            read("span_meta", Sym::lit(num_spans as u64 * 4)),
            read("csr_offsets", Sym::rows().add(Sym::lit(1))),
            read("csr_cols", Sym::nnz()),
            read("edge_vals", Sym::nnz()),
            read("x", Sym::rows()),
        ],
        shared_steps: vec![SharedStep::Barrier],
        ops_per_warp: Sym::lit(1 << 16),
        ..LaunchSummary::new("merge-spans")
    };
    AccessSummary::single(name, "spmv", ExecModel::Sim, env_for(graph, 1, 32), launch)
}

/// Dalton-class nonzero-split SpMV: 256-NZE warp windows; every 32-NZE
/// iteration materializes products and row IDs in shared memory, then
/// runs a 5-round segmented tree scan (load → store → barrier each).
pub fn dalton_spmv(name: &str, graph: &GraphData, nze_per_warp: u64) -> AccessSummary {
    let mut shared_steps = vec![
        SharedStep::Store {
            lo: Sym::lit(0),
            hi: Sym::lit(32),
        },
        SharedStep::Store {
            lo: Sym::lit(32),
            hi: Sym::lit(64),
        },
        SharedStep::Barrier,
    ];
    for _ in 0..5 {
        shared_steps.push(SharedStep::Load {
            lo: Sym::lit(0),
            hi: Sym::lit(64),
        });
        shared_steps.push(SharedStep::Store {
            lo: Sym::lit(0),
            hi: Sym::lit(32),
        });
        shared_steps.push(SharedStep::Barrier);
    }
    let launch = LaunchSummary {
        grid_warps: Sym::nnz().ceil_div(Sym::lit(nze_per_warp)),
        accesses: vec![
            atomic("y", Sym::rows()),
            read("coo_rows", Sym::nnz()),
            read("coo_cols", Sym::nnz()),
            read("edge_vals", Sym::nnz()),
            read("x", Sym::rows()),
        ],
        shared_words: Sym::lit(64),
        shared_steps,
        ops_per_warp: Sym::lit(1 << 16),
        ..LaunchSummary::new("dalton-windows")
    };
    AccessSummary::single(
        name,
        "spmv",
        ExecModel::Sim,
        env_for(graph, 1, nze_per_warp as usize),
        launch,
    )
}

/// A read-envelope access, public for baseline summary impls.
pub fn read_access(buffer: &'static str, extent: Sym) -> BufferAccess {
    read(buffer, extent)
}

/// An atomic write-envelope access, public for baseline summary impls.
pub fn atomic_access(buffer: &'static str, extent: Sym) -> BufferAccess {
    atomic(buffer, extent)
}
