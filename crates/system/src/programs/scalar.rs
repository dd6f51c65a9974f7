//! The scalar RV32IM conv-layer baseline (CV32E40X).

use crate::layout::{ConvLayerParams, Layout};
use arcane_isa::asm::Asm;
use arcane_isa::reg::*;
use arcane_isa::rv32::{LoadOp, StoreOp};
use arcane_sim::Sew;

pub(crate) fn store_op(sew: Sew) -> StoreOp {
    match sew {
        Sew::Byte => StoreOp::Sb,
        Sew::Half => StoreOp::Sh,
        Sew::Word => StoreOp::Sw,
    }
}

pub(crate) fn shift_of(sew: Sew) -> i32 {
    match sew {
        Sew::Byte => 0,
        Sew::Half => 1,
        Sew::Word => 2,
    }
}

/// Emits the full fused layer: valid 3-channel convolution with ReLU
/// into the scratch buffer, then a 2×2/2 max-pooling pass into `R`.
///
/// Accumulation happens in 32-bit registers; results wrap to the
/// element width on store (standard C semantics on RV32).
pub fn conv_layer(p: &ConvLayerParams, l: &Layout) -> Asm {
    let mut a = Asm::new();
    let esz = p.sew.bytes() as i32;
    let sh = shift_of(p.sew);
    let ld = LoadOp::signed(p.sew);
    let st = store_op(p.sew);

    // ---- pass 1: convolution + ReLU -> temp ---------------------------
    a.li(S0, l.a as i32); // A base
    a.li(S1, l.f as i32); // F base (dense)
    a.li(S2, l.temp as i32); // temp cursor
    a.li(S4, p.h as i32);
    a.li(S5, p.w as i32);
    a.li(S6, p.k as i32);
    a.li(S7, p.conv_h() as i32);
    a.li(S8, p.conv_w() as i32);

    a.li(A0, 0); // y
    let y_loop = a.bind_label();
    a.li(A1, 0); // x
    let x_loop = a.bind_label();
    a.li(T0, 0); // acc
    a.li(A2, 0); // c
    let c_loop = a.bind_label();
    a.li(A3, 0); // ky
    let ky_loop = a.bind_label();
    // aptr = A + (((c*H + y + ky) * W) + x) << sh
    a.mul(T1, A2, S4);
    a.add(T1, T1, A0);
    a.add(T1, T1, A3);
    a.mul(T1, T1, S5);
    a.add(T1, T1, A1);
    a.slli(T1, T1, sh);
    a.add(T1, T1, S0);
    // fptr = F + ((c*K + ky) * K) << sh
    a.mul(T2, A2, S6);
    a.add(T2, T2, A3);
    a.mul(T2, T2, S6);
    a.slli(T2, T2, sh);
    a.add(T2, T2, S1);
    a.mv(T3, S6); // kx counter
    let kx_loop = a.bind_label();
    a.load(ld, T4, T1, 0);
    a.load(ld, T5, T2, 0);
    a.mul(T6, T4, T5);
    a.add(T0, T0, T6);
    a.addi(T1, T1, esz);
    a.addi(T2, T2, esz);
    a.addi(T3, T3, -1);
    a.bne(T3, ZERO, kx_loop);
    a.addi(A3, A3, 1);
    a.blt(A3, S6, ky_loop);
    a.addi(A2, A2, 1);
    a.li(T4, 3);
    a.blt(A2, T4, c_loop);
    // ReLU on the 32-bit accumulator.
    let store_l = a.label();
    a.bge(T0, ZERO, store_l);
    a.li(T0, 0);
    a.bind(store_l);
    a.store(st, T0, S2, 0);
    a.addi(S2, S2, esz);
    a.addi(A1, A1, 1);
    a.blt(A1, S8, x_loop);
    a.addi(A0, A0, 1);
    a.blt(A0, S7, y_loop);

    emit_pool_pass(&mut a, p, l, false);
    a.ebreak();
    a
}

/// Emits the 2×2/2 pooling pass shared by the CPU baselines. With
/// `use_cv_max` the pass uses the XCVPULP scalar `cv.max` (CV32E40PX);
/// otherwise plain branches (CV32E40X).
pub(crate) fn emit_pool_pass(a: &mut Asm, p: &ConvLayerParams, l: &Layout, use_cv_max: bool) {
    let esz = p.sew.bytes() as i32;
    let ld = LoadOp::signed(p.sew);
    let st = store_op(p.sew);
    let (ph, pw) = (p.pooled_h(), p.pooled_w());
    if ph == 0 || pw == 0 {
        return;
    }

    a.li(S2, l.temp as i32); // temp base
    a.li(S3, l.r as i32); // R cursor
    a.li(S9, (p.conv_w() as i32) * esz); // temp row pitch in bytes
    a.li(S10, ph as i32);
    a.li(S11, pw as i32);

    a.li(A0, 0); // py
    let py_loop = a.bind_label();
    // t2 = temp + (2*py)*pitch
    a.slli(T2, A0, 1);
    a.mul(T2, T2, S9);
    a.add(T2, T2, S2);
    a.li(A1, 0); // px
    let px_loop = a.bind_label();
    a.load(ld, T4, T2, 0);
    a.load(ld, T5, T2, esz);
    a.add(T6, T2, S9);
    a.load(ld, A2, T6, 0);
    a.load(ld, T6, T6, esz);
    if use_cv_max {
        a.cv_max(T4, T4, T5);
        a.cv_max(T4, T4, A2);
        a.cv_max(T4, T4, T6);
    } else {
        let l1 = a.label();
        a.bge(T4, T5, l1);
        a.mv(T4, T5);
        a.bind(l1);
        let l2 = a.label();
        a.bge(T4, A2, l2);
        a.mv(T4, A2);
        a.bind(l2);
        let l3 = a.label();
        a.bge(T4, T6, l3);
        a.mv(T4, T6);
        a.bind(l3);
    }
    a.store(st, T4, S3, 0);
    a.addi(S3, S3, esz);
    a.addi(T2, T2, 2 * esz);
    a.addi(A1, A1, 1);
    a.blt(A1, S11, px_loop);
    a.addi(A0, A0, 1);
    a.blt(A0, S10, py_loop);
}
