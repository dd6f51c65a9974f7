//! Smoke tests that exercise the main path of each of the seven
//! `examples/` programs at small problem sizes, so the examples cannot
//! silently rot: every API call they demonstrate is replayed here
//! (same call sequence, smaller shapes) and checked for the same
//! invariants the examples print.

use arcane::core::kernels::{Kernel, KernelError, ResolvedArgs};
use arcane::core::runtime::ctx::KernelCtx;
use arcane::core::{ArcaneConfig, ArcaneLlc, MatView};
use arcane::isa::asm::Asm;
use arcane::isa::reg::{A0, A1, A2, T0, T1};
use arcane::isa::vector::{Sr, VInstr, VOp, Vr};
use arcane::isa::xmnmc::{self, kernel_id, MatReg, XInstr, FUNC5_XMR};
use arcane::mem::{AccessSize, Memory};
use arcane::rv32::{Coprocessor, XifResponse};
use arcane::sim::Sew;
use arcane::system::driver::{run_arcane_conv, run_scalar_conv, run_xcvpulp_conv};
use arcane::system::{ArcaneSoc, ConvLayerParams, EXT_BASE};
use arcane::workloads::{self, Matrix};

fn offload(llc: &mut ArcaneLlc, func5: u8, sew: Sew, vals: (u32, u32, u32), t: u64) {
    let x = XInstr {
        func5,
        width: sew,
        rs1: A0,
        rs2: A1,
        rs3: A2,
    };
    match llc.offload(xmnmc::encode_raw(&x), vals.0, vals.1, vals.2, t) {
        XifResponse::Accept { .. } => {}
        XifResponse::Reject => panic!("offload rejected: {:?}", llc.last_error()),
    }
}

/// `examples/quickstart.rs`: scalar vs XCVPULP vs ARCANE on one conv
/// layer, with per-phase accounting on the ARCANE run.
#[test]
fn quickstart_main_path() {
    let p = ConvLayerParams::new(16, 16, 3, Sew::Byte);
    assert!(p.macs() > 0);

    let scalar = run_scalar_conv(&p);
    let pulp = run_xcvpulp_conv(&p);
    let arcane = run_arcane_conv(8, &p, 1);

    for r in [&scalar, &pulp, &arcane] {
        assert!(r.cycles > 0, "{}", r.label);
        assert!(r.macs_per_cycle() > 0.0, "{}", r.label);
    }
    assert!(arcane.speedup_over(&scalar) > 1.0);
    assert!(pulp.speedup_over(&scalar) > 1.0);

    let phases = arcane.phases.expect("ARCANE runs report phases");
    assert!(phases.total() > 0);
}

/// `examples/cache_explorer.rs`: normal-mode miss/hit behaviour, then
/// a kernel launch whose lock windows stall a conflicting host access.
#[test]
fn cache_explorer_main_path() {
    let mut llc = ArcaneLlc::new(ArcaneConfig::with_lanes(4));
    let base = 0x2000_0000u32;

    // Normal mode: first touch misses (line fill), second access to
    // the same line hits.
    let miss = llc
        .host_access(base, false, 0, AccessSize::Word, 0)
        .unwrap();
    let hit = llc
        .host_access(base + 4, false, 0, AccessSize::Word, 10)
        .unwrap();
    assert!(miss.cycles > hit.cycles, "fill must cost more than a hit");

    // Kernel mode: reserve A and R, launch a ReLU, then read the
    // result region — the access must be stalled past the kernel end.
    let (a, r) = (base + 0x1_0000, base + 0x2_0000);
    for i in 0..64u32 {
        llc.ext_mut().write_u32(a + i * 4, i).unwrap();
    }
    let m = |i| MatReg::new(i).unwrap();
    let (r1, r2, r3) = xmnmc::pack_xmr(a, 1, m(0), 8, 8);
    offload(&mut llc, FUNC5_XMR, Sew::Word, (r1, r2, r3), 100);
    let (r1, r2, r3) = xmnmc::pack_xmr(r, 1, m(1), 8, 8);
    offload(&mut llc, FUNC5_XMR, Sew::Word, (r1, r2, r3), 110);
    let (r1, r2, r3) = xmnmc::pack_kernel(3, 0, m(1), m(0), m(0), m(0));
    offload(
        &mut llc,
        kernel_id::LEAKY_RELU,
        Sew::Word,
        (r1, r2, r3),
        120,
    );

    let rec = llc.records()[0];
    let conflicting = llc.host_access(r, false, 0, AccessSize::Word, 121).unwrap();
    assert!(
        121 + conflicting.cycles >= rec.end,
        "RAW on the kernel destination must stall until the kernel ends \
         (stalled to {}, kernel ends {})",
        121 + conflicting.cycles,
        rec.end
    );
    assert_eq!(llc.ext().read_u32(r).unwrap(), 0); // relu(0)
}

/// The SAXPY-style user kernel from `examples/custom_kernel.rs`.
#[derive(Debug)]
struct Axpy;

impl Kernel for Axpy {
    fn name(&self) -> &'static str {
        "axpy"
    }

    fn validate(&self, args: &ResolvedArgs) -> Result<Vec<MatView>, KernelError> {
        let x = args.ms1.ok_or(KernelError::ShapeMismatch {
            what: "axpy needs ms1 (X)",
        })?;
        let y = args.ms2.ok_or(KernelError::ShapeMismatch {
            what: "axpy needs ms2 (Y)",
        })?;
        if (x.rows, x.cols) != (args.md.rows, args.md.cols)
            || (y.rows, y.cols) != (args.md.rows, args.md.cols)
        {
            return Err(KernelError::ShapeMismatch {
                what: "axpy operands must share one shape",
            });
        }
        Ok(vec![x, y])
    }

    fn run(&self, args: &ResolvedArgs, ctx: &mut KernelCtx<'_>) -> Result<(), KernelError> {
        let x = args.ms1.expect("validated");
        let y = args.ms2.expect("validated");
        let sew = args.width;
        let vx = Vr::new(0).unwrap();
        let vy = Vr::new(1).unwrap();
        let alpha = Sr::new(2).unwrap();
        ctx.set_vl(x.cols, sew)?;
        ctx.set_scalar(alpha, args.alpha as i32 as u32);
        for r in 0..x.rows {
            ctx.load_rows(&x, r, 1, 0)?;
            ctx.load_rows(&y, r, 1, 1)?;
            ctx.exec(&[
                VInstr::OpVX {
                    op: VOp::Mul,
                    vd: vx,
                    vs1: vx,
                    rs: alpha,
                },
                VInstr::OpVV {
                    op: VOp::Add,
                    vd: vx,
                    vs1: vx,
                    vs2: vy,
                },
            ])?;
            ctx.store_row(0, args.md.cols, sew, args.md.row_addr(r));
        }
        Ok(())
    }
}

/// `examples/custom_kernel.rs`: register a user kernel as `xmk8` and
/// drive it from an assembled host program on the full SoC.
#[test]
fn custom_kernel_main_path() {
    const AXPY_ID: u8 = 8;
    let (rows, cols) = (4usize, 16usize);
    let (x_addr, y_addr, r_addr) = (EXT_BASE, EXT_BASE + 0x1000, EXT_BASE + 0x2000);

    let mut soc = ArcaneSoc::new(ArcaneConfig::with_lanes(4));
    soc.llc_mut().register_kernel(AXPY_ID, Box::new(Axpy));

    for i in 0..(rows * cols) as u32 {
        soc.llc_mut()
            .ext_mut()
            .write_u32(x_addr + i * 4, i)
            .unwrap();
        soc.llc_mut()
            .ext_mut()
            .write_u32(y_addr + i * 4, 1000)
            .unwrap();
    }

    let m = |i| MatReg::new(i).unwrap();
    let mut a = Asm::new();
    for (reg, addr) in [(0u8, x_addr), (1, y_addr), (2, r_addr)] {
        let (r1, r2, r3) = xmnmc::pack_xmr(addr, 1, m(reg), cols as u16, rows as u16);
        a.li(A0, r1 as i32);
        a.li(A1, r2 as i32);
        a.li(A2, r3 as i32);
        a.raw(xmnmc::xmr_instr(Sew::Word, A0, A1, A2));
    }
    let (r1, r2, r3) = xmnmc::pack_kernel(3, 0, m(2), m(0), m(1), m(0));
    a.li(A0, r1 as i32);
    a.li(A1, r2 as i32);
    a.li(A2, r3 as i32);
    a.raw(xmnmc::xmk_instr(AXPY_ID, Sew::Word, A0, A1, A2));
    a.li(T0, r_addr as i32);
    a.lw(T1, T0, 0); // synchronise on the result
    a.ebreak();

    soc.load_program(&a);
    let run = soc.run(1_000_000).expect("program runs");
    assert!(run.instret > 0 && run.cycles > 0);

    for i in 0..(rows * cols) as u32 {
        let got = soc.llc().ext().read_u32(r_addr + i * 4).unwrap();
        assert_eq!(got, 3 * i + 1000, "element {i}");
    }
    assert_eq!(soc.llc().records()[0].name, "axpy");
}

/// `examples/mlp_layer.rs`: four chained kernels (transpose → GeMM →
/// requantisation → LeakyReLU) verified against the golden pipeline.
#[test]
fn mlp_layer_main_path() {
    const BASE: u32 = 0x2000_0000;
    let sew = Sew::Half;
    let (batch, d_in, d_out) = (4usize, 8usize, 6usize);
    let mut rng = workloads::rng(2024);
    let x = workloads::random_matrix(&mut rng, batch, d_in, sew, 6);
    let w = workloads::random_matrix(&mut rng, d_out, d_in, sew, 6);

    let mut llc = ArcaneLlc::new(ArcaneConfig::with_lanes(8));
    let (px, pw, pwt, ph) = (BASE, BASE + 0x10000, BASE + 0x20000, BASE + 0x30000);
    llc.ext_mut().write_bytes(px, &x.to_bytes(sew)).unwrap();
    llc.ext_mut().write_bytes(pw, &w.to_bytes(sew)).unwrap();

    let m = |i: u8| MatReg::new(i).unwrap();
    let mut t = 0u64;
    let mut go = |llc: &mut ArcaneLlc, f, v| {
        t += 10;
        offload(llc, f, sew, v, t);
    };

    go(
        &mut llc,
        FUNC5_XMR,
        xmnmc::pack_xmr(px, 1, m(0), d_in as u16, batch as u16),
    );
    go(
        &mut llc,
        FUNC5_XMR,
        xmnmc::pack_xmr(pw, 1, m(1), d_in as u16, d_out as u16),
    );
    go(
        &mut llc,
        FUNC5_XMR,
        xmnmc::pack_xmr(pwt, 1, m(2), d_out as u16, d_in as u16),
    );
    go(
        &mut llc,
        FUNC5_XMR,
        xmnmc::pack_xmr(ph, 1, m(3), d_out as u16, batch as u16),
    );
    go(
        &mut llc,
        kernel_id::TRANSPOSE,
        xmnmc::pack_kernel(0, 0, m(2), m(1), m(0), m(0)),
    );
    go(
        &mut llc,
        kernel_id::GEMM,
        xmnmc::pack_kernel(1, 0, m(3), m(0), m(2), m(0)),
    );
    go(
        &mut llc,
        kernel_id::MAT_SCALE,
        xmnmc::pack_kernel(1, 4, m(3), m(3), m(0), m(0)),
    );
    go(
        &mut llc,
        kernel_id::LEAKY_RELU,
        xmnmc::pack_kernel(3, 0, m(3), m(3), m(0), m(0)),
    );

    let wt = workloads::transpose(&w);
    let gemm = workloads::gemm(&x, &wt, None, 1, 0, sew);
    let scaled = workloads::mat_scale(&gemm, 1, 4, sew);
    let want = workloads::leaky_relu(&scaled, 3, sew);

    let mut out = vec![0u8; batch * d_out * sew.bytes()];
    llc.ext().read_bytes(ph, &mut out).unwrap();
    let got = Matrix::from_bytes(batch, d_out, sew, &out);
    assert_eq!(got, want, "MLP chain result");
    assert_eq!(llc.records().len(), 4);
}

/// `examples/graph_inference.rs`: the three `arcane-nn` layer graphs
/// compiled to kernel chains, swept over the scheduler-policy ×
/// VPU-count grid with bit-exact verification on every cell.
#[test]
fn graph_inference_main_path() {
    use arcane::core::SchedulerKind;
    use arcane::nn::suite;

    let dws = suite::depthwise_separable(10, 10, 3, Sew::Byte, 11);
    let res = suite::residual_bottleneck(8, 12, Sew::Byte, 12);
    let xfm = suite::transformer_block(8, 12, 16, Sew::Byte, 13);
    for block in [&dws, &res, &xfm] {
        for n_vpus in [1usize, 4] {
            for scheduler in SchedulerKind::ALL {
                let mut cfg = ArcaneConfig::with_lanes(8);
                cfg.n_vpus = n_vpus;
                cfg.scheduler = scheduler;
                let r = block.run_verified(cfg, n_vpus);
                assert!(r.cycles > 0, "{}: {scheduler} x{n_vpus}", block.name);
                assert_eq!(
                    r.kernels_per_vpu(n_vpus).iter().sum::<usize>(),
                    r.kernels,
                    "{}: every kernel placed",
                    block.name
                );
            }
        }
    }
    // The chain-detail section of the example: records carry placement.
    let r = xfm.run_verified(ArcaneConfig::with_lanes(8), 1);
    assert!(r.records.iter().all(|rec| rec.end > rec.decode_start));
    assert!(r.renames > 0);

    // The `--descriptor` flag path: the same grid compiles onto the
    // batched launch pipeline, stays bit-exact, and reports its batch
    // accounting plus the machine-generated phase-split row.
    use arcane::nn::CompileOptions;
    use arcane::system::format_phase_split_table;
    for block in [&dws, &res, &xfm] {
        let mut cfg = ArcaneConfig::with_lanes(8);
        cfg.n_vpus = 4;
        let d = block.run_verified_with(cfg, &CompileOptions::descriptor(4));
        assert!(d.launch_stats.batches > 0, "{}", block.name);
        assert_eq!(d.launch_stats.descriptors as usize, d.kernels);
        let legacy = block.run_verified_with(cfg, &CompileOptions::with_instances(4));
        assert!(
            d.cycles < legacy.cycles,
            "{}: descriptor launch must beat legacy at 4 VPUs",
            block.name
        );
        let table = format_phase_split_table(&[d.split_row(block.name)]);
        assert!(table.contains(block.name));
    }
}

/// `examples/multi_vpu_scaling.rs`: the fabric-arbiter × VPU-count
/// sweep — whole-phase reproduces the multi-instance plateau, the
/// burst arbiter breaks it, and every run reports per-channel
/// utilisation.
#[test]
fn multi_vpu_scaling_main_path() {
    use arcane::fabric::ArbiterKind;
    use arcane::system::driver::run_arcane_conv_with;

    let p = ConvLayerParams::new(32, 32, 7, Sew::Byte);
    let run = |arbiter: ArbiterKind, n_vpus: usize| {
        let mut cfg = ArcaneConfig::with_lanes(8);
        cfg.n_vpus = n_vpus;
        cfg.fabric.arbiter = arbiter;
        run_arcane_conv_with(cfg, &p, n_vpus)
    };
    let wp2 = run(ArbiterKind::WholePhase, 2);
    let rr2 = run(ArbiterKind::RoundRobinBurst, 2);
    let rr4 = run(ArbiterKind::RoundRobinBurst, 4);
    assert!(
        rr2.cycles < wp2.cycles,
        "burst interleaving must beat whole-phase booking: {} vs {}",
        rr2.cycles,
        wp2.cycles
    );
    // Per-channel rows: eCPU + host + one per VPU, with the VPU ports
    // carrying dispatch traffic under the burst arbiter.
    assert_eq!(rr4.channels.len(), 2 + 4);
    assert_eq!(rr4.channels[0].label, "ecpu");
    let vpu_busy: u64 = rr4
        .channels
        .iter()
        .filter(|c| c.label.starts_with("vpu"))
        .map(|c| c.busy_cycles)
        .sum();
    assert!(vpu_busy > 0, "VPU ports must carry burst traffic");
    assert!(
        rr4.channels.iter().all(|c| c.occupancy() <= 1.0),
        "occupancy is a fraction of the run"
    );
}

/// `examples/cnn_layer.rs`: the 7×7-filter CNN front-end sweep, with
/// the multi-instance mode that spreads one layer across four VPUs.
#[test]
fn cnn_layer_main_path() {
    for sew in [Sew::Byte, Sew::Word] {
        let p = ConvLayerParams::new(16, 16, 7, sew);
        let scalar = run_scalar_conv(&p);
        let pulp = run_xcvpulp_conv(&p);
        let single = run_arcane_conv(8, &p, 1);
        let multi = run_arcane_conv(8, &p, 4);
        for r in [&scalar, &pulp, &single, &multi] {
            assert!(r.cycles > 0, "{sew}: {}", r.label);
        }
        assert!(
            single.speedup_over(&scalar) > 1.0,
            "{sew}: ARCANE must beat scalar on a 7x7 layer"
        );
    }
}
