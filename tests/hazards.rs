//! Hazard-management integration tests: the WAR/RAW/WAW protection,
//! lock windows, renaming and the failure-injection paths of §III-A2
//! and §IV-B1.

use arcane::core::kernels::KernelError;
use arcane::core::{ArcaneConfig, ArcaneLlc};
use arcane::isa::launch::{
    DescriptorBatch, LaunchDecodeError, LaunchDescriptor, OperandBinding, FUNC5_XMB,
};
use arcane::isa::reg::{A0, A1, A2};
use arcane::isa::xmnmc::{self, kernel_id, MatReg, XInstr, FUNC5_XMR};
use arcane::mem::{Access, AccessSize, Bus, BusError, Memory, Sram};
use arcane::nn::{compile, suite, CompileOptions, LaunchMode};
use arcane::rv32::{Coprocessor, Cpu, StopReason, XifResponse};
use arcane::sim::{EngineMode, Sew};
use arcane::system::{EXT_BASE, IMEM_SIZE};
use arcane::workloads::{conv_layer_3ch, Matrix};
use proptest::prelude::*;
use std::cell::RefCell;

const BASE: u32 = 0x2000_0000;
const A_ADDR: u32 = BASE + 0x10_0000;
const F_ADDR: u32 = BASE + 0x11_0000;
const R_ADDR: u32 = BASE + 0x12_0000;

fn x(func5: u8, sew: Sew) -> u32 {
    xmnmc::encode_raw(&XInstr {
        func5,
        width: sew,
        rs1: A0,
        rs2: A1,
        rs3: A2,
    })
}

fn m(i: u8) -> MatReg {
    MatReg::new(i).unwrap()
}

/// Seeds an all-ones 3x(16x16) input and 3x(3x3) filter and launches
/// one conv-layer kernel at time `t0`. Pooled output value is 27.
fn launch_conv(llc: &mut ArcaneLlc, t0: u64) -> u64 {
    bind_conv(llc, t0);
    xmk4(llc, t0 + 6);
    llc.records()[0].end
}

/// Seeds the all-ones input and filter of `launch_conv` and binds them
/// and the 7x7 result to m0-m2 with `xmr`s from `t0`.
fn bind_conv(llc: &mut ArcaneLlc, t0: u64) {
    for i in 0..(3 * 16 * 16) {
        llc.ext_mut().write_u32(A_ADDR + i * 4, 1).unwrap();
    }
    for i in 0..27 {
        llc.ext_mut().write_u32(F_ADDR + i * 4, 1).unwrap();
    }
    let sew = Sew::Word;
    let (r1, r2, r3) = xmnmc::pack_xmr(A_ADDR, 1, m(0), 16, 48);
    assert!(matches!(
        llc.offload(x(FUNC5_XMR, sew), r1, r2, r3, t0),
        XifResponse::Accept { .. }
    ));
    let (r1, r2, r3) = xmnmc::pack_xmr(F_ADDR, 1, m(1), 3, 9);
    llc.offload(x(FUNC5_XMR, sew), r1, r2, r3, t0 + 2);
    let (r1, r2, r3) = xmnmc::pack_xmr(R_ADDR, 1, m(2), 7, 7);
    llc.offload(x(FUNC5_XMR, sew), r1, r2, r3, t0 + 4);
}

/// Offloads the conv-layer kernel over the bindings `launch_conv` made.
fn xmk4(llc: &mut ArcaneLlc, t: u64) -> XifResponse {
    let (r1, r2, r3) = xmnmc::pack_kernel(0, 0, m(2), m(0), m(1), m(0));
    llc.offload(x(kernel_id::CONV_LAYER_3CH, Sew::Word), r1, r2, r3, t)
}

/// Word `i` of `launch_conv`'s operands in one flat index space: the
/// 768 input words of A, the 27 filter words of F, the 49 result words
/// of R.
fn operand_word(i: usize) -> u32 {
    let i = i as u32;
    match i {
        ..768 => A_ADDR + 4 * i,
        768..795 => F_ADDR + 4 * (i - 768),
        _ => R_ADDR + 4 * (i - 795),
    }
}

/// Runs the conv kernel atomically on a flat copy of its operands.
fn flat_conv(flat: &mut [u32]) {
    let words = |w: &[u32], rows, cols| {
        let bytes: Vec<u8> = w.iter().flat_map(|w| w.to_le_bytes()).collect();
        Matrix::from_bytes(rows, cols, Sew::Word, &bytes)
    };
    let r = conv_layer_3ch(
        &words(&flat[..768], 48, 16),
        &words(&flat[768..795], 9, 3),
        Sew::Word,
    );
    for (w, b) in flat[795..].iter_mut().zip(r.to_bytes(Sew::Word).chunks(4)) {
        *w = u32::from_le_bytes(b.try_into().unwrap());
    }
}

#[test]
fn war_store_to_source_stalls_loads_pass() {
    let mut llc = ArcaneLlc::new(ArcaneConfig::with_lanes(4));
    launch_conv(&mut llc, 0);
    let t = 10;
    let store = llc
        .host_access(A_ADDR, true, 99, AccessSize::Word, t)
        .unwrap();
    let load = llc
        .host_access(A_ADDR + 4, false, 0, AccessSize::Word, t)
        .unwrap();
    assert!(
        store.cycles > 1000,
        "WAR store must stall: {}",
        store.cycles
    );
    assert!(load.cycles < 1000, "source loads pass: {}", load.cycles);
    // The stalled store lands after allocation: the kernel still sees
    // the original all-ones data, so the result stays 27.
    let r = llc
        .host_access(R_ADDR, false, 0, AccessSize::Word, t + store.cycles)
        .unwrap();
    assert_eq!(r.data, 27);
}

#[test]
fn raw_and_waw_on_destination_stall_until_writeback() {
    let mut llc = ArcaneLlc::new(ArcaneConfig::with_lanes(4));
    let end = launch_conv(&mut llc, 0);
    let t = 10;
    let read = llc
        .host_access(R_ADDR, false, 0, AccessSize::Word, t)
        .unwrap();
    assert!(t + read.cycles > end, "RAW read stalls past writeback");
    assert_eq!(read.data, 27, "and observes the kernel result");
    // WAW: a store right after another kernel launch would also stall;
    // here the protection has lapsed, so it is fast.
    let store = llc
        .host_access(R_ADDR, true, 5, AccessSize::Word, end + 10)
        .unwrap();
    assert!(store.cycles <= 2, "after writeback the region is free");
}

#[test]
fn access_outside_operands_is_not_blocked() {
    let mut llc = ArcaneLlc::new(ArcaneConfig::with_lanes(4));
    launch_conv(&mut llc, 0);
    // An address unrelated to any operand must not suffer hazard stalls
    // (it may still see a lock window, which is bounded by one DMA).
    let far = BASE + 0x40_0000;
    let a = llc
        .host_access(far, false, 0, AccessSize::Word, 10)
        .unwrap();
    let end = llc.records()[0].end;
    assert!(
        10 + a.cycles < end,
        "unrelated access must not wait for the kernel"
    );
}

#[test]
fn renaming_resolves_rebinding_hazard() {
    let mut llc = ArcaneLlc::new(ArcaneConfig::with_lanes(4));
    launch_conv(&mut llc, 0);
    assert_eq!(llc.renames(), 0);
    // Re-bind m0 to a different region while the kernel is in flight;
    // the kernel captured the old physical binding, so this is safe and
    // counted as a rename.
    let (r1, r2, r3) = xmnmc::pack_xmr(BASE + 0x20_0000, 1, m(0), 8, 8);
    assert!(matches!(
        llc.offload(x(FUNC5_XMR, Sew::Word), r1, r2, r3, 20),
        XifResponse::Accept { .. }
    ));
    assert_eq!(llc.renames(), 1);
    let r = llc
        .host_access(R_ADDR, false, 0, AccessSize::Word, 30)
        .unwrap();
    assert_eq!(r.data, 27, "in-flight kernel unaffected by the rebind");
}

#[test]
fn unknown_kernel_is_killed() {
    let mut llc = ArcaneLlc::new(ArcaneConfig::with_lanes(4));
    let (r1, r2, r3) = xmnmc::pack_kernel(0, 0, m(0), m(0), m(0), m(0));
    // func5 = 9 has no registered kernel.
    let resp = llc.offload(x(9, Sew::Word), r1, r2, r3, 0);
    assert_eq!(resp, XifResponse::Reject);
    assert!(matches!(
        llc.last_error(),
        Some(KernelError::UnknownKernel { id: 9 })
    ));
}

#[test]
fn unbound_matrix_is_killed() {
    let mut llc = ArcaneLlc::new(ArcaneConfig::with_lanes(4));
    let (r1, r2, r3) = xmnmc::pack_kernel(0, 0, m(5), m(6), m(7), m(8));
    let resp = llc.offload(x(kernel_id::GEMM, Sew::Word), r1, r2, r3, 0);
    assert_eq!(resp, XifResponse::Reject);
    assert!(matches!(
        llc.last_error(),
        Some(KernelError::UnboundMatrix { .. })
    ));
}

#[test]
fn out_of_range_xmr_register_is_killed_not_aliased() {
    let mut llc = ArcaneLlc::new(ArcaneConfig::with_lanes(4));
    // md = 256 would alias m0 if the field were truncated to a byte.
    let (r1, _, r3) = xmnmc::pack_xmr(A_ADDR, 1, m(0), 8, 8);
    let resp = llc.offload(x(FUNC5_XMR, Sew::Word), r1, 1 << 16 | 256, r3, 0);
    assert_eq!(resp, XifResponse::Reject);
    assert_eq!(
        llc.last_error(),
        Some(&KernelError::Launch(LaunchDecodeError::BadRegister {
            value: 256
        }))
    );
    // So m0 stays unbound.
    let (r1, r2, r3) = xmnmc::pack_kernel(0, 0, m(0), m(0), m(0), m(0));
    let resp = llc.offload(x(kernel_id::LEAKY_RELU, Sew::Word), r1, r2, r3, 2);
    assert_eq!(resp, XifResponse::Reject);
    assert_eq!(
        llc.last_error(),
        Some(&KernelError::UnboundMatrix { reg: m(0) })
    );
}

#[test]
fn reserved_width_is_killed_with_its_own_error() {
    let mut llc = ArcaneLlc::new(ArcaneConfig::with_lanes(4));
    let (r1, r2, r3) = xmnmc::pack_kernel(0, 0, m(5), m(6), m(7), m(8));
    let resp = llc.offload(x(kernel_id::GEMM, Sew::Word), r1, r2, r3, 0);
    assert_eq!(resp, XifResponse::Reject);
    assert!(matches!(
        llc.last_error(),
        Some(KernelError::UnboundMatrix { .. })
    ));
    // Width field (bits 8:7) = 3 is reserved.
    let resp = llc.offload(x(kernel_id::GEMM, Sew::Word) | 3 << 7, r1, r2, r3, 2);
    assert_eq!(resp, XifResponse::Reject);
    assert_eq!(
        llc.last_error(),
        Some(&KernelError::Launch(LaunchDecodeError::BadWidth))
    );
}

#[test]
fn shape_mismatch_is_killed() {
    let mut llc = ArcaneLlc::new(ArcaneConfig::with_lanes(4));
    let sew = Sew::Word;
    let (r1, r2, r3) = xmnmc::pack_xmr(A_ADDR, 1, m(0), 8, 8);
    llc.offload(x(FUNC5_XMR, sew), r1, r2, r3, 0);
    let (r1, r2, r3) = xmnmc::pack_xmr(F_ADDR, 1, m(1), 4, 4);
    llc.offload(x(FUNC5_XMR, sew), r1, r2, r3, 2);
    let (r1, r2, r3) = xmnmc::pack_xmr(R_ADDR, 1, m(2), 9, 9);
    llc.offload(x(FUNC5_XMR, sew), r1, r2, r3, 4);
    // gemm with A 8x8 and B 4x4: inner dimensions disagree.
    let (r1, r2, r3) = xmnmc::pack_kernel(1, 0, m(2), m(0), m(1), m(0));
    let resp = llc.offload(x(kernel_id::GEMM, sew), r1, r2, r3, 6);
    assert_eq!(resp, XifResponse::Reject);
    assert!(matches!(
        llc.last_error(),
        Some(KernelError::ShapeMismatch { .. })
    ));
}

#[test]
fn conv_filter_past_the_register_budget_is_killed_before_booking() {
    // A K x K conv2d stripe needs 2K + 2 of the 32 vector registers;
    // the fused layer needs 2K + 4. Each launch is otherwise valid.
    let cases = [
        // xmk3: A 16x16, F 16x16 -> R 1x1.
        (kernel_id::CONV2D, (16, 16), (16, 16), (1, 1), "conv2d"),
        // xmk4: A 3 planes of 16x16, F 3 planes of 15x15 -> pooled 1x1.
        (
            kernel_id::CONV_LAYER_3CH,
            (16, 48),
            (15, 45),
            (1, 1),
            "conv_layer",
        ),
    ];
    for (id, a, f, r, name) in cases {
        let mut llc = ArcaneLlc::new(ArcaneConfig::with_lanes(4));
        let sew = Sew::Word;
        for (reg, addr, (cols, rows)) in [(0, A_ADDR, a), (1, F_ADDR, f), (2, R_ADDR, r)] {
            let (r1, r2, r3) = xmnmc::pack_xmr(addr, 1, m(reg), cols, rows);
            llc.offload(x(FUNC5_XMR, sew), r1, r2, r3, 2 * reg as u64);
        }
        let (r1, r2, r3) = xmnmc::pack_kernel(0, 0, m(2), m(0), m(1), m(0));
        let resp = llc.offload(x(id, sew), r1, r2, r3, 6);
        assert_eq!(resp, XifResponse::Reject, "{name}");
        assert!(
            matches!(llc.last_error(), Some(KernelError::ShapeMismatch { what })
                if what.contains("register budget")),
            "{name}: {:?}",
            llc.last_error()
        );
        assert!(llc.records().is_empty(), "{name}: nothing was booked");
    }
}

#[test]
fn maxpool_window_past_the_register_budget_is_killed_before_booking() {
    // A W x W window needs W row registers plus three for the vertical
    // maximum, the sweep and its scratch: 30 is the first that does not
    // fit the 32 vector registers. A 30x30 input pooled to 1x1 is
    // otherwise valid.
    let mut llc = ArcaneLlc::new(ArcaneConfig::with_lanes(4));
    let sew = Sew::Word;
    for (reg, addr, n) in [(0, A_ADDR, 30), (2, R_ADDR, 1)] {
        let (r1, r2, r3) = xmnmc::pack_xmr(addr, 1, m(reg), n, n);
        llc.offload(x(FUNC5_XMR, sew), r1, r2, r3, 2 * reg as u64);
    }
    let (r1, r2, r3) = xmnmc::pack_kernel(1, 30, m(2), m(0), m(0), m(0));
    let resp = llc.offload(x(kernel_id::MAXPOOL, sew), r1, r2, r3, 6);
    assert_eq!(resp, XifResponse::Reject);
    assert!(
        matches!(llc.last_error(), Some(KernelError::ShapeMismatch { what })
            if what.contains("register budget")),
        "{:?}",
        llc.last_error()
    );
    assert!(llc.records().is_empty(), "nothing was booked");
}

#[test]
fn row_too_wide_is_killed_before_booking() {
    // A 4x300 int32 matrix has 1,200-byte rows: one row no longer fits a
    // 1 KiB vector register. LeakyReLU must refuse it in `validate`,
    // before its eCPU preamble is booked.
    let mut llc = ArcaneLlc::new(ArcaneConfig::with_lanes(4));
    let sew = Sew::Word;
    for (reg, addr) in [(0, A_ADDR), (2, R_ADDR)] {
        let (r1, r2, r3) = xmnmc::pack_xmr(addr, 1, m(reg), 300, 4);
        llc.offload(x(FUNC5_XMR, sew), r1, r2, r3, 2 * reg as u64);
    }
    let ecpu_busy = |llc: &ArcaneLlc| {
        let util = llc.channel_utilisation();
        util.iter().find(|c| c.label == "ecpu").unwrap().busy_cycles
    };
    let (busy, done) = (ecpu_busy(&llc), llc.completion_time());
    let (r1, r2, r3) = xmnmc::pack_kernel(0, 0, m(2), m(0), m(0), m(0));
    let resp = llc.offload(x(kernel_id::LEAKY_RELU, sew), r1, r2, r3, 6);
    assert_eq!(resp, XifResponse::Reject);
    assert_eq!(
        llc.last_error(),
        Some(&KernelError::RowTooWide {
            cols: 300,
            max: 256
        })
    );
    assert!(llc.records().is_empty(), "nothing was booked");
    assert_eq!(ecpu_busy(&llc), busy, "no eCPU cycles were booked");
    assert_eq!(llc.completion_time(), done);
}

#[test]
fn empty_matrix_operand_is_killed_before_booking() {
    let mut llc = ArcaneLlc::new(ArcaneConfig::with_lanes(4));
    let sew = Sew::Word;
    // m0 is 2 rows x 0 cols, m1 is 0 rows x 2 cols: shapes a transpose
    // accepts, but there is nothing to move.
    let (r1, r2, r3) = xmnmc::pack_xmr(A_ADDR, 1, m(0), 0, 2);
    llc.offload(x(FUNC5_XMR, sew), r1, r2, r3, 0);
    let (r1, r2, r3) = xmnmc::pack_xmr(R_ADDR, 1, m(1), 2, 0);
    llc.offload(x(FUNC5_XMR, sew), r1, r2, r3, 2);
    let (r1, r2, r3) = xmnmc::pack_kernel(0, 0, m(1), m(0), m(0), m(0));
    let resp = llc.offload(x(kernel_id::TRANSPOSE, sew), r1, r2, r3, 4);
    assert_eq!(resp, XifResponse::Reject);
    assert_eq!(
        llc.last_error(),
        Some(&KernelError::ShapeMismatch {
            what: "empty matrix operand"
        })
    );
    assert!(llc.records().is_empty());
}

/// Launches the 16x16 three-channel conv with its 3 KiB input bound at
/// `a_addr`: one `xmr` per operand and `xmk4` on the legacy path, one
/// `xmb` batch on the descriptor path.
fn launch_conv_with_input_at(llc: &mut ArcaneLlc, a_addr: u32, launch: LaunchMode) -> XifResponse {
    let sew = Sew::Word;
    let bind = |reg, addr, cols, rows| OperandBinding {
        reg: m(reg),
        addr,
        stride: 1,
        cols,
        rows,
    };
    let bindings = vec![
        bind(0, a_addr, 16, 48),
        bind(1, F_ADDR, 3, 9),
        bind(2, R_ADDR, 7, 7),
    ];
    if launch == LaunchMode::Descriptor {
        let batch = DescriptorBatch {
            descriptors: vec![LaunchDescriptor {
                kernel: kernel_id::CONV_LAYER_3CH,
                width: sew,
                alpha: 0,
                beta: 0,
                md: m(2),
                ms1: m(0),
                ms2: m(1),
                ms3: m(0),
                bindings,
                token: 0,
            }],
        };
        let words = batch.encode();
        for (i, w) in words.iter().enumerate() {
            llc.ext_mut().write_u32(BASE + 4 * i as u32, *w).unwrap();
        }
        return llc.offload(x(FUNC5_XMB, sew), BASE, words.len() as u32, 0, 0);
    }
    for (t, b) in bindings.iter().enumerate() {
        let (r1, r2, r3) = xmnmc::pack_xmr(b.addr, 1, b.reg, b.cols, b.rows);
        let resp = llc.offload(x(FUNC5_XMR, sew), r1, r2, r3, 2 * t as u64);
        assert!(matches!(resp, XifResponse::Accept { .. }));
    }
    xmk4(llc, 6)
}

#[test]
fn operand_outside_external_memory_is_killed_on_both_launch_paths() {
    // The last 256 B of the 16 MiB external memory, and an address
    // below it: the input reaches outside external memory either way.
    // Ending exactly at the last byte, it runs.
    let end = EXT_BASE + (16 << 20);
    for (a_addr, inside) in [
        (end - 256, false),
        (0x1000_0000, false),
        (end - 3 * 16 * 16 * 4, true),
    ] {
        for launch in LaunchMode::ALL {
            let mut cfg = ArcaneConfig::with_lanes(4);
            cfg.launch = launch;
            let mut llc = ArcaneLlc::new(cfg);
            let resp = launch_conv_with_input_at(&mut llc, a_addr, launch);
            if inside {
                assert!(matches!(resp, XifResponse::Accept { .. }), "{launch:?}");
                assert_eq!(llc.records().len(), 1);
                continue;
            }
            assert_eq!(resp, XifResponse::Reject, "{a_addr:#x} {launch:?}");
            assert_eq!(
                llc.last_error(),
                Some(&KernelError::OperandOutOfRange { reg: m(0) })
            );
            assert!(llc.records().is_empty());
        }
    }
}

#[test]
fn line_crossing_store_to_a_source_stalls_once() {
    // Reference: an aligned word store into the source at t = 10 stalls
    // once, to the end of the source's WAR window.
    let mut aligned = ArcaneLlc::new(ArcaneConfig::with_lanes(4));
    launch_conv(&mut aligned, 5);
    let before = *aligned.stats();
    aligned
        .host_access(A_ADDR + 1020, true, 7, AccessSize::Word, 10)
        .unwrap();
    let window = aligned.stats().stall_cycles.get() - before.stall_cycles.get();
    assert!(window > 1000, "the WAR window is open at t = 10");

    // A word straddling a line boundary of the source becomes four byte
    // transactions, each issued when the previous one completes: the
    // first waits out the window, the rest find it closed.
    let mut llc = ArcaneLlc::new(ArcaneConfig::with_lanes(4));
    launch_conv(&mut llc, 5);
    let before = *llc.stats();
    let store = llc
        .host_access(A_ADDR + 1022, true, 0x0a0b_0c0d, AccessSize::Word, 10)
        .unwrap();
    let s = *llc.stats();
    assert_eq!(s.stalls.get() - before.stalls.get(), 1);
    assert_eq!(s.stall_cycles.get() - before.stall_cycles.get(), window);
    assert!(store.cycles > window && store.cycles < 2 * window);
    let t = 10 + store.cycles;
    let load = llc
        .host_access(A_ADDR + 1022, false, 0, AccessSize::Word, t)
        .unwrap();
    assert_eq!(load.data, 0x0a0b_0c0d);
}

#[test]
fn kernel_queue_backpressure_stalls_the_host() {
    let mut cfg = ArcaneConfig::with_lanes(2);
    cfg.kernel_queue_capacity = 2;
    let mut llc = ArcaneLlc::new(cfg);
    bind_conv(&mut llc, 0);
    let mut handshakes = Vec::new();
    for i in 0..4u64 {
        match xmk4(&mut llc, 10 + i) {
            XifResponse::Accept { cycles, .. } => handshakes.push(cycles),
            XifResponse::Reject => panic!("offload {i} rejected: {:?}", llc.last_error()),
        }
    }
    assert!(
        handshakes[0] < 100 && handshakes[1] < 100,
        "queue absorbs the first kernels: {handshakes:?}"
    );
    assert!(
        handshakes[3] > 1000,
        "a full queue back-pressures the host: {handshakes:?}"
    );
}

#[test]
fn cache_capacity_shrinks_while_computing() {
    let mut llc = ArcaneLlc::new(ArcaneConfig::with_lanes(4));
    launch_conv(&mut llc, 0);
    let end = llc.records()[0].end;
    // While the kernel owns one VPU, its 32 lines are busy-computing;
    // streaming 256 fresh lines must still work (96 lines remain).
    let mut t = 10u64;
    for i in 0..256u32 {
        let a = llc
            .host_access(BASE + 0x60_0000 + i * 1024, false, 0, AccessSize::Word, t)
            .unwrap();
        t += a.cycles;
    }
    assert!(llc.stats().misses.get() >= 256);
    // And after the kernel retires, the lines are reusable.
    let a = llc
        .host_access(BASE + 0x70_0000, false, 0, AccessSize::Word, end + 10)
        .unwrap();
    assert!(a.cycles > 0);
}

/// A hand-wired host + LLC system that logs every offload: when it was
/// issued and which kernel records it produced.
struct IssueLog {
    imem: RefCell<Sram>,
    llc: RefCell<ArcaneLlc>,
    /// `(issue cycle, first record, end record)` per offload.
    offloads: RefCell<Vec<(u64, usize, usize)>>,
}

struct LogBus<'a>(&'a IssueLog);
struct LogXif<'a>(&'a IssueLog);

/// Data accesses all go to the LLC: graph programs never touch their
/// own instruction memory.
impl Bus for LogBus<'_> {
    fn read(&mut self, addr: u32, size: AccessSize, now: u64) -> Result<Access, BusError> {
        self.0
            .llc
            .borrow_mut()
            .host_access(addr, false, 0, size, now)
    }

    fn write(
        &mut self,
        addr: u32,
        value: u32,
        size: AccessSize,
        now: u64,
    ) -> Result<Access, BusError> {
        self.0
            .llc
            .borrow_mut()
            .host_access(addr, true, value, size, now)
    }

    fn fetch(&mut self, addr: u32, _now: u64) -> Result<Access, BusError> {
        Ok(Access::new(self.0.imem.borrow().read_u32(addr)?, 1))
    }
}

impl Coprocessor for LogXif<'_> {
    fn offload(&mut self, raw: u32, rs1: u32, rs2: u32, rs3: u32, now: u64) -> XifResponse {
        let mut llc = self.0.llc.borrow_mut();
        let first = llc.records().len();
        let resp = llc.offload(raw, rs1, rs2, rs3, now);
        let end = llc.records().len();
        self.0.offloads.borrow_mut().push((now, first, end));
        resp
    }
}

proptest! {
    /// Host word loads and stores race `xmk4` launches, issued after
    /// random idle gaps, on the conv's own operands. Every load, and the
    /// memory left at the end, match a flat memory where each kernel
    /// runs atomically at its launch: the hazard rules make the
    /// near-memory kernels a drop-in for in-order execution.
    #[test]
    fn racing_host_accesses_see_kernels_run_atomically_at_launch(
        steps in prop::collection::vec((0u8..3, 0usize..844, any::<u32>(), 0u64..3001), 60..61),
    ) {
        let mut llc = ArcaneLlc::new(ArcaneConfig::with_lanes(4));
        let mut flat = vec![1u32; 795];
        flat.resize(844, 0);
        launch_conv(&mut llc, 0);
        flat_conv(&mut flat);
        let mut t = 10;
        for (kind, i, value, gap) in steps {
            if kind == 0 {
                t += gap;
                match xmk4(&mut llc, t) {
                    XifResponse::Accept { cycles, .. } => t += cycles,
                    XifResponse::Reject => prop_assert!(false, "{:?}", llc.last_error()),
                }
                flat_conv(&mut flat);
                continue;
            }
            let a = llc.host_access(operand_word(i), kind == 1, value, AccessSize::Word, t).unwrap();
            t += a.cycles;
            if kind == 1 {
                flat[i] = value;
            } else {
                prop_assert_eq!(a.data, flat[i], "load of word {} at {}", i, t);
            }
        }
        for (i, &want) in flat.iter().enumerate() {
            let a = llc.host_access(operand_word(i), false, 0, AccessSize::Word, t).unwrap();
            t += a.cycles;
            prop_assert_eq!(a.data, want, "word {} at the end", i);
        }
    }

    /// Kernel-queue back-pressure never lets a kernel decode before its
    /// launch (`xmkN` or the `xmb` carrying it) was issued, at any queue
    /// depth, VPU count and launch mode, and the outputs stay bit-exact.
    #[test]
    fn queued_kernels_never_decode_before_their_launch(
        capacity in 1usize..9,
        vpus_log2 in 0u32..3,
        descriptor in any::<bool>(),
        rows in 4usize..9,
        seed in 0u64..1000,
    ) {
        let n_vpus = 1 << vpus_log2;
        let built = suite::residual_bottleneck(rows, 8, Sew::Byte, seed);
        let opts = CompileOptions {
            instances: n_vpus,
            launch: if descriptor { LaunchMode::Descriptor } else { LaunchMode::Legacy },
            ..CompileOptions::default()
        };
        let program = compile(&built.graph, EXT_BASE, &opts).unwrap();
        let mut cfg = ArcaneConfig::with_lanes(8);
        cfg.n_vpus = n_vpus;
        cfg.kernel_queue_capacity = capacity;
        cfg.launch = program.launch;
        let sys = IssueLog {
            imem: RefCell::new(Sram::new(0, IMEM_SIZE)),
            llc: RefCell::new(ArcaneLlc::new(cfg)),
            offloads: RefCell::new(Vec::new()),
        };
        {
            let mut llc = sys.llc.borrow_mut();
            for t in &program.tables {
                let bytes: Vec<u8> = t.words.iter().flat_map(|w| w.to_le_bytes()).collect();
                llc.ext_mut().write_bytes(t.addr, &bytes).unwrap();
            }
            for (&id, mat) in built.graph.inputs().iter().zip(&built.inputs) {
                let p = program.layout.place(id);
                llc.ext_mut().write_bytes(p.addr, &mat.to_bytes(Sew::Byte)).unwrap();
            }
        }
        sys.imem
            .borrow_mut()
            .load_words(0, &program.asm.assemble(0).unwrap());
        let mut cpu = Cpu::new(0);
        let run = cpu
            .run_with_engine(&mut LogBus(&sys), &mut LogXif(&sys), 10_000_000, EngineMode::current())
            .unwrap();
        prop_assert_eq!(run.stop, StopReason::Break);

        let llc = sys.llc.borrow();
        let records = llc.records();
        prop_assert_eq!(records.len(), program.kernels);
        for &(issued, first, end) in sys.offloads.borrow().iter() {
            for r in &records[first..end] {
                prop_assert!(
                    r.decode_start >= issued,
                    "kernel decoded at {} before its launch at {issued}",
                    r.decode_start
                );
            }
        }
        for (&out, golden) in built.graph.outputs().iter().zip(&built.golden) {
            let p = program.layout.place(out);
            let mut bytes = vec![0u8; p.bytes(1)];
            llc.ext().read_bytes(p.addr, &mut bytes).unwrap();
            prop_assert_eq!(&Matrix::from_bytes(p.rows, p.cols, Sew::Byte, &bytes), golden);
        }
    }
}
