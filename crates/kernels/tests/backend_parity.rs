//! Backend parity: the native CPU backend computes the same function as
//! the CPU references and the simulator, for every kernel in the registry,
//! across the full GNNOne configuration lattice — and its output is
//! bitwise identical at every worker-thread count.
//!
//! This is the portability contract of `docs/BACKENDS.md` in executable
//! form: a kernel object describes *what* to compute; switching the
//! backend must never change it.

use std::sync::Arc;

use gnnone_kernels::backend::{Device, Mem, NativeEngine};
use gnnone_kernels::gnnone::fused::fused_gat_reference;
use gnnone_kernels::gnnone::{GnnOneConfig, GnnOneSddmm, GnnOneSpmm, Schedule};
use gnnone_kernels::graph::GraphData;
use gnnone_kernels::ir::Space;
use gnnone_kernels::registry::{self, SweepInputs};
use gnnone_kernels::traits::{Kernel, Op, SddmmKernel, SpmmKernel};
use gnnone_sim::{DeviceBuffer, Gpu, GpuSpec};
use gnnone_sparse::formats::{Coo, EdgeList};
use gnnone_sparse::reference;

/// A power-law graph and a ragged one (empty tail row, nnz far from any
/// block multiple) — the same shapes the sim-parity lattice test uses.
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

fn features(n: usize, f: usize, salt: usize) -> Vec<f32> {
    (0..n * f)
        .map(|i| (((i * 31 + salt * 17) % 23) as f32 - 11.0) * 0.1)
        .collect()
}

fn gpu() -> Gpu {
    Gpu::new(GpuSpec::a100_40gb())
}

fn eng(threads: usize) -> NativeEngine {
    NativeEngine::with_threads(threads).unwrap()
}

/// The 24-point lattice: Fig. 9 cache sizes × both Listing-2 schedules ×
/// vector loads on/off × data reuse on/off.
fn config_lattice() -> Vec<GnnOneConfig> {
    let mut out = Vec::new();
    for cache_size in [32usize, 64, 128] {
        for schedule in [Schedule::Consecutive, Schedule::RoundRobin] {
            for vectorize in [false, true] {
                for data_reuse in [false, true] {
                    out.push(GnnOneConfig {
                        cache_size,
                        schedule,
                        vectorize,
                        data_reuse,
                    });
                }
            }
        }
    }
    out
}

/// Operands for every family at feature length `f` (SpMV reads `el`).
fn inputs(g: &GraphData, f: usize) -> SweepInputs<Vec<f32>> {
    let nv = g.num_vertices();
    SweepInputs {
        x: features(nv, f, 21),
        z: features(nv, f, 22),
        w: features(g.nnz(), 1, 23),
        el: features(nv, 1, 24),
        er: features(nv, 1, 25),
    }
}

/// Launches `k` on `device` with zeroed outputs; returns every output.
fn launch(
    k: &Kernel,
    device: Device<'_>,
    inputs: &SweepInputs<DeviceBuffer<f32>>,
    f: usize,
) -> Vec<Vec<f32>> {
    let outputs: Vec<DeviceBuffer<f32>> = k.output_lens(f).map(DeviceBuffer::zeros).collect();
    k.launch(
        device,
        &inputs.for_op(k.op()),
        f,
        &outputs.iter().collect::<Vec<_>>(),
    )
    .unwrap();
    outputs.iter().map(DeviceBuffer::to_vec).collect()
}

/// The CPU reference for every output of an `op` kernel.
fn cpu_reference(op: Op, g: &GraphData, h: &SweepInputs<Vec<f32>>, f: usize) -> Vec<Vec<f32>> {
    match op {
        Op::Sddmm => vec![reference::sddmm_coo(&g.coo, &h.x, &h.z, f)],
        Op::Spmm => vec![reference::spmm_csr(&g.csr, &h.w, &h.x, f)],
        Op::Spmv => vec![reference::spmv_csr(&g.csr, &h.w, &h.el)],
        Op::EdgeApply => vec![reference::u_add_v_coo(&g.coo, &h.el, &h.er)],
        Op::Fused => {
            let (y, alpha) = fused_gat_reference(g, &h.z, &h.el, &h.er, f, 0.2);
            vec![y, alpha]
        }
    }
}

/// Every registry kernel, every family: native ≡ CPU reference ≡ sim.
#[test]
fn native_matches_reference_and_sim_for_every_registry_kernel() {
    let gp = gpu();
    let ng = eng(4);
    for g in graphs() {
        for f in [3usize, 16, 33] {
            let host = inputs(&g, f);
            let dev = host.upload();
            let kernels = registry::all(&g);
            assert_eq!(kernels.len(), 21);
            for k in &kernels {
                let native = launch(k, Device::Native(&ng), &dev, f);
                let sim = launch(k, Device::Sim(&gp), &dev, f);
                let want = cpu_reference(k.op(), &g, &host, f);
                assert_eq!(native.len(), want.len(), "{}", k.name());
                for ((nat, sim), want) in native.iter().zip(&sim).zip(&want) {
                    if k.op() == Op::EdgeApply {
                        // One add per edge, no reduction: exact on every
                        // backend.
                        assert_eq!(nat, want, "{}", k.name());
                        assert_eq!(nat, sim, "{}", k.name());
                    } else {
                        reference::assert_close(nat, want, 1e-3);
                        reference::assert_close(nat, sim, 1e-3);
                    }
                }
            }
        }
    }
}

/// The GNNOne kernels honour their config on native too: every point of
/// the 24-point lattice computes the reference answer.
#[test]
fn native_lattice_matches_reference() {
    let ng = eng(3);
    for g in graphs() {
        let nv = g.num_vertices();
        for f in [3usize, 16, 33] {
            let x = features(nv, f, 21);
            let y = features(nv, f, 22);
            let w = features(g.nnz(), 1, 23);
            let sddmm_ref = reference::sddmm_coo(&g.coo, &x, &y, f);
            let spmm_ref = reference::spmm_csr(&g.csr, &w, &x, f);
            for cfg in config_lattice() {
                let mut dw = vec![0.0f32; g.nnz()];
                GnnOneSddmm::new(Arc::clone(&g), cfg)
                    .run_native(&ng, Mem::Host(&x), &y, f, Mem::Host(&mut dw))
                    .unwrap();
                reference::assert_close(&dw, &sddmm_ref, 1e-3);
                let mut dy = vec![0.0f32; nv * f];
                GnnOneSpmm::new(Arc::clone(&g), cfg)
                    .run_native(&ng, Mem::Host(&w), &x, f, Mem::Host(&mut dy))
                    .unwrap();
                reference::assert_close(&dy, &spmm_ref, 1e-3);
            }
        }
    }
}

/// Worker-thread count is invisible in the bits: every registry kernel
/// produces byte-identical output at 1, 2 and 4 threads. No atomics, no
/// reduction-order dependence on the split.
#[test]
fn native_output_is_bitwise_deterministic_across_thread_counts() {
    let engines = [eng(1), eng(2), eng(4)];
    for g in graphs() {
        let f = 16usize;
        let dev = inputs(&g, f).upload();
        for k in registry::all(&g) {
            let outs: Vec<Vec<Vec<f32>>> = engines
                .iter()
                .map(|ng| launch(&k, Device::Native(ng), &dev, f))
                .collect();
            assert_eq!(outs[0], outs[1], "{}: 1 vs 2 threads", k.name());
            assert_eq!(outs[0], outs[2], "{}: 1 vs 4 threads", k.name());
        }
    }
}

/// Output contents before a launch: non-zero real values in vertex
/// outputs, which row reductions accumulate into, and NaN garbage in edge
/// outputs, which must be overwritten whole. `staged` puts zeros in the
/// edge outputs instead, as the launch path did when it staged every
/// device buffer through a host vector.
fn prefilled(k: &Kernel, f: usize, staged: bool) -> Vec<Vec<f32>> {
    k.signature()
        .outputs
        .iter()
        .zip(k.output_lens(f))
        .map(|(&(space, _), len)| match space {
            Space::Vertex => features(len, 1, 26),
            Space::Edge if staged => vec![0.0; len],
            Space::Edge => vec![f32::from_bits(0x7fc0_dead); len],
        })
        .collect()
}

fn bits(outs: &[Vec<f32>]) -> Vec<Vec<u32>> {
    outs.iter()
        .map(|o| o.iter().map(|v| v.to_bits()).collect())
        .collect()
}

/// A graph whose rows span several default-config row blocks (1024
/// NZEs each), so tasks split the outputs into several spans.
fn multi_block_graph() -> Arc<GraphData> {
    let el = gnnone_sparse::gen::rmat(9, 3000, gnnone_sparse::gen::GRAPH500_PROBS, 5).symmetrize();
    let g = Arc::new(GraphData::new(Coo::from_edge_list(&el)));
    assert!(g.nnz() > 4 * 1024, "needs several 1024-NZE row blocks");
    g
}

/// The two operand forms agree bit for bit: every registry kernel
/// launched on native device buffers (`Kernel::launch`, which streams
/// every operand but the gathered one in place) equals the same launch on
/// host slices (`Kernel::launch_host`) and the staged launch path it
/// replaced, at 1, 2 and 4 threads, on real-valued inputs.
#[test]
fn device_and_host_operands_give_identical_bits() {
    let engines = [eng(1), eng(2), eng(4)];
    for g in graphs().into_iter().chain([multi_block_graph()]) {
        let f = 16usize;
        let host = inputs(&g, f);
        let dev = host.upload();
        for k in registry::all(&g) {
            let host_inputs: Vec<&[f32]> =
                host.for_op(k.op()).into_iter().map(|v| &v[..]).collect();
            let run_host = |ng: &NativeEngine, staged: bool| {
                let mut outs = prefilled(&k, f, staged);
                let mut slices: Vec<&mut [f32]> = outs.iter_mut().map(|o| &mut o[..]).collect();
                k.launch_host(Device::Native(ng), &host_inputs, f, &mut slices)
                    .unwrap();
                bits(&outs)
            };
            let staged = run_host(&engines[0], true);
            for ng in &engines {
                let threads = ng.threads();
                assert_eq!(
                    run_host(ng, false),
                    staged,
                    "{} host, {threads} threads",
                    k.name()
                );
                let outputs: Vec<DeviceBuffer<f32>> = prefilled(&k, f, false)
                    .iter()
                    .map(|o| DeviceBuffer::from_slice(o))
                    .collect();
                k.launch(
                    Device::Native(ng),
                    &dev.for_op(k.op()),
                    f,
                    &outputs.iter().collect::<Vec<_>>(),
                )
                .unwrap();
                let device: Vec<Vec<f32>> = outputs.iter().map(DeviceBuffer::to_vec).collect();
                assert_eq!(
                    bits(&device),
                    staged,
                    "{} device, {threads} threads",
                    k.name()
                );
            }
        }
    }
}

/// A device buffer passed as both an input and the output is read as it
/// was before the launch, as when every operand was staged: SpMM with
/// `x` and `y` one buffer, and SpMV, whose streamed `x` would otherwise
/// see rows the launch has already written. The graph spans several row
/// blocks, so later blocks read rows that earlier blocks have stored.
#[test]
fn an_input_that_aliases_the_output_reads_its_pre_launch_contents() {
    let ng = eng(2);
    let g = multi_block_graph();
    {
        let host = inputs(&g, 16);
        for (name, op, f, x) in [
            ("GnnOne", Op::Spmm, 16usize, &host.x),
            ("GnnOne", Op::Spmv, 1, &host.el),
        ] {
            let k = registry::by_name(&g, op, name).expect("GNNOne kernel");
            let mut staged = x.clone();
            k.launch_host(Device::Native(&ng), &[&host.w, x], f, &mut [&mut staged])
                .unwrap();
            let (w, xy) = (
                DeviceBuffer::from_slice(&host.w),
                DeviceBuffer::from_slice(x),
            );
            k.launch(Device::Native(&ng), &[&w, &xy], f, &[&xy])
                .unwrap();
            assert_eq!(bits(&[xy.to_vec()]), bits(&[staged]), "{}", k.name());
        }
    }
}
