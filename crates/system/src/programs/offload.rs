//! The ARCANE host program: Listing 1 of the paper as machine code.
//!
//! The host materialises the packed operand values in `a0`–`a2`, issues
//! the `xmr` reservations and the `xmk4` kernel(s) as custom-2
//! instructions over CV-X-IF, then performs a synchronising load of the
//! first result element — which the Address Table stalls until the
//! kernel writeback completes.

use super::split_rows;
use crate::layout::{ConvLayerParams, Layout};
use arcane_isa::asm::Asm;
use arcane_isa::reg::{T0, T1};
use arcane_isa::rv32::LoadOp;
use arcane_isa::xmnmc::{self, kernel_id, MatReg};

/// Builds the offload program. `instances > 1` splits the layer
/// row-wise into that many `xmk4` invocations with distinct destination
/// slices — the multi-instance mode of §V-C that spreads work across
/// the VPUs.
///
/// # Panics
///
/// Panics if `instances` cannot receive an even, non-zero row share
/// (each instance takes whole pooled rows, two conv rows each).
pub fn conv_layer(p: &ConvLayerParams, l: &Layout, instances: usize) -> Asm {
    assert!(instances >= 1, "at least one instance");
    assert!(
        instances <= p.pooled_h(),
        "not enough row pairs for {instances} instances"
    );
    let mut a = Asm::new();
    let m = |i: u8| MatReg::new(i).expect("matrix register");
    let esz = p.sew.bytes() as u32;
    let xmr = |r1, r2, r3| xmnmc::xmr_instr(p.sew, r1, r2, r3);

    // xmr m0, A (3H x W); xmr m1, F (3K x K)
    a.offload(
        xmnmc::pack_xmr(l.a, 1, m(0), p.w as u16, (3 * p.h) as u16),
        xmr,
    );
    a.offload(
        xmnmc::pack_xmr(l.f, 1, m(1), p.k as u16, (3 * p.k) as u16),
        xmr,
    );

    let mut sync_addrs = Vec::new();
    for (i, (py0, prows)) in split_rows(p.pooled_h(), instances).into_iter().enumerate() {
        let dest = l.r + (py0 * p.pooled_w()) as u32 * esz;
        let md = m(2 + i as u8);
        a.offload(
            xmnmc::pack_xmr(dest, 1, md, p.pooled_w() as u16, prows as u16),
            xmr,
        );
        // xmk4 md, m0, m1 with the row-slice extension in alpha/beta
        // (in conv rows, two per pooled row).
        let (alpha, beta) = if instances == 1 {
            (0, 0)
        } else {
            ((2 * py0) as i16, (2 * prows) as i16)
        };
        a.offload(
            xmnmc::pack_kernel(alpha, beta, md, m(0), m(1), m(0)),
            |r1, r2, r3| xmnmc::xmk_instr(kernel_id::CONV_LAYER_3CH, p.sew, r1, r2, r3),
        );
        sync_addrs.push(dest);
    }

    // Synchronise: read the first element of each destination slice.
    for addr in sync_addrs {
        a.li(T0, addr as i32);
        a.load(LoadOp::signed(p.sew), T1, T0, 0);
    }
    a.ebreak();
    a
}

#[cfg(test)]
mod tests {
    use super::*;
    use arcane_sim::Sew;

    #[test]
    fn split_is_even_and_total() {
        // 250 conv rows are 125 pooled rows: four shares of whole row
        // pairs that cover every conv row.
        let s = split_rows(125, 4);
        assert_eq!(s.iter().map(|&(_, n)| 2 * n).sum::<usize>(), 250);
        assert!(s.iter().all(|&(_, n)| n > 0));
    }

    #[test]
    #[should_panic(expected = "not enough row pairs")]
    fn split_rejects_too_many_instances() {
        // 4 even conv rows: two pooled rows for three instances.
        let p = ConvLayerParams::new(8, 8, 4, Sew::Word);
        conv_layer(&p, &Layout::for_conv(&p), 3);
    }
}
