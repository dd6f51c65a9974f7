//! The ARCANE host program: Listing 1 of the paper as machine code.
//!
//! The host materialises the packed operand values in `a0`–`a2`, issues
//! the `xmr` reservations and the `xmk4` kernel(s) as custom-2
//! instructions over CV-X-IF, then performs a synchronising load of the
//! first result element — which the Address Table stalls until the
//! kernel writeback completes.

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
/// Panics if `instances` cannot receive an even, non-zero row share.
pub fn conv_layer(p: &ConvLayerParams, l: &Layout, instances: usize) -> Asm {
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

    let slices = split_rows(p.conv_h_even(), instances);
    let mut y0 = 0usize;
    let mut sync_addrs = Vec::new();
    for (i, rows) in slices.iter().enumerate() {
        let dest = l.r + (y0 as u32 / 2) * p.pooled_w() as u32 * esz;
        let md = m(2 + i as u8);
        a.offload(
            xmnmc::pack_xmr(dest, 1, md, p.pooled_w() as u16, (rows / 2) as u16),
            xmr,
        );
        // xmk4 md, m0, m1 with the row-slice extension in alpha/beta.
        let (alpha, beta) = if instances == 1 {
            (0, 0)
        } else {
            (y0 as i16, *rows as i16)
        };
        a.offload(
            xmnmc::pack_kernel(alpha, beta, md, m(0), m(1), m(0)),
            |r1, r2, r3| xmnmc::xmk_instr(kernel_id::CONV_LAYER_3CH, p.sew, r1, r2, r3),
        );
        sync_addrs.push(dest);
        y0 += rows;
    }

    // Synchronise: read the first element of each destination slice.
    for addr in sync_addrs {
        a.li(T0, addr as i32);
        a.load(LoadOp::signed(p.sew), T1, T0, 0);
    }
    a.ebreak();
    a
}

/// Splits `total` conv rows into `n` even-sized, even-aligned chunks.
///
/// # Panics
///
/// Panics when a chunk would be empty or odd.
pub fn split_rows(total: usize, n: usize) -> Vec<usize> {
    assert!(n >= 1, "at least one instance");
    let pairs = total / 2;
    assert!(pairs >= n, "not enough row pairs for {n} instances");
    let base = pairs / n;
    let extra = pairs % n;
    (0..n)
        .map(|i| 2 * (base + usize::from(i < extra)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_is_even_and_total() {
        let s = split_rows(250, 4);
        assert_eq!(s.iter().sum::<usize>(), 250);
        assert!(s.iter().all(|r| r % 2 == 0 && *r > 0));
    }

    #[test]
    #[should_panic(expected = "not enough row pairs")]
    fn split_rejects_too_many_instances() {
        split_rows(4, 3);
    }
}
