//! Packed-SIMD arithmetic helpers for the XCVPULP datapath.

use arcane_isa::xcvpulp::{PvOp, SimdWidth};

/// Executes a packed-SIMD operation on 32-bit register values.
///
/// `rd_old` is the previous destination value (consumed by the
/// accumulating dot products). Always inlined: the engine calls it
/// with constant `op` and `w`, which folds it to the one lane loop.
#[inline(always)]
pub(crate) fn pv_exec(op: PvOp, w: SimdWidth, rd_old: u32, rs1: u32, rs2: u32) -> u32 {
    match w {
        SimdWidth::B => pv_exec_b(op, rd_old, rs1, rs2),
        SimdWidth::H => pv_exec_h(op, rd_old, rs1, rs2),
    }
}

fn lanes_b(v: u32) -> [i8; 4] {
    v.to_le_bytes().map(|b| b as i8)
}

fn lanes_h(v: u32) -> [i16; 2] {
    [(v & 0xffff) as u16 as i16, (v >> 16) as u16 as i16]
}

#[inline(always)]
fn pv_exec_b(op: PvOp, rd_old: u32, rs1: u32, rs2: u32) -> u32 {
    let a = lanes_b(rs1);
    let b = lanes_b(rs2);
    match op {
        PvOp::Add => pack_b(core::array::from_fn(|i| a[i].wrapping_add(b[i]))),
        PvOp::Sub => pack_b(core::array::from_fn(|i| a[i].wrapping_sub(b[i]))),
        PvOp::Max => pack_b(core::array::from_fn(|i| a[i].max(b[i]))),
        PvOp::Min => pack_b(core::array::from_fn(|i| a[i].min(b[i]))),
        PvOp::Dotsp => dot_b(a, b, 0),
        PvOp::Sdotsp => dot_b(a, b, rd_old),
        PvOp::Dotup => {
            let mut acc: u32 = 0;
            for i in 0..4 {
                acc = acc.wrapping_add((a[i] as u8 as u32).wrapping_mul(b[i] as u8 as u32));
            }
            acc
        }
    }
}

fn dot_b(a: [i8; 4], b: [i8; 4], acc0: u32) -> u32 {
    let mut acc = acc0 as i32;
    for i in 0..4 {
        acc = acc.wrapping_add((a[i] as i32).wrapping_mul(b[i] as i32));
    }
    acc as u32
}

fn pack_b(v: [i8; 4]) -> u32 {
    u32::from_le_bytes(v.map(|x| x as u8))
}

#[inline(always)]
fn pv_exec_h(op: PvOp, rd_old: u32, rs1: u32, rs2: u32) -> u32 {
    let a = lanes_h(rs1);
    let b = lanes_h(rs2);
    match op {
        PvOp::Add => pack_h([a[0].wrapping_add(b[0]), a[1].wrapping_add(b[1])]),
        PvOp::Sub => pack_h([a[0].wrapping_sub(b[0]), a[1].wrapping_sub(b[1])]),
        PvOp::Max => pack_h([a[0].max(b[0]), a[1].max(b[1])]),
        PvOp::Min => pack_h([a[0].min(b[0]), a[1].min(b[1])]),
        PvOp::Dotsp => dot_h(a, b, 0),
        PvOp::Sdotsp => dot_h(a, b, rd_old),
        PvOp::Dotup => {
            let mut acc: u32 = 0;
            for i in 0..2 {
                acc = acc.wrapping_add((a[i] as u16 as u32).wrapping_mul(b[i] as u16 as u32));
            }
            acc
        }
    }
}

fn dot_h(a: [i16; 2], b: [i16; 2], acc0: u32) -> u32 {
    let mut acc = acc0 as i32;
    for i in 0..2 {
        acc = acc.wrapping_add((a[i] as i32).wrapping_mul(b[i] as i32));
    }
    acc as u32
}

fn pack_h(v: [i16; 2]) -> u32 {
    (v[0] as u16 as u32) | ((v[1] as u16 as u32) << 16)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byte_add_wraps() {
        let r = pv_exec(PvOp::Add, SimdWidth::B, 0, 0x7f7f_7f7f, 0x0101_0101);
        assert_eq!(r, 0x8080_8080);
    }

    #[test]
    fn byte_dot_product() {
        // (1,2,3,4) . (5,6,7,8) = 5+12+21+32 = 70
        let a = u32::from_le_bytes([1, 2, 3, 4]);
        let b = u32::from_le_bytes([5, 6, 7, 8]);
        assert_eq!(pv_exec(PvOp::Dotsp, SimdWidth::B, 999, a, b), 70);
        assert_eq!(pv_exec(PvOp::Sdotsp, SimdWidth::B, 30, a, b), 100);
    }

    #[test]
    fn byte_dot_signed() {
        let a = u32::from_le_bytes([(-1i8) as u8, 2, (-3i8) as u8, 4]);
        let b = u32::from_le_bytes([5, (-6i8) as u8, 7, 8]);
        // -5 -12 -21 +32 = -6
        assert_eq!(pv_exec(PvOp::Dotsp, SimdWidth::B, 0, a, b) as i32, -6);
    }

    #[test]
    fn half_ops() {
        let a = pack_h([100, -200]);
        let b = pack_h([-50, 300]);
        assert_eq!(
            pv_exec(PvOp::Max, SimdWidth::H, 0, a, b),
            pack_h([100, 300])
        );
        // 100*-50 + -200*300 = -5000 - 60000 = -65000
        assert_eq!(pv_exec(PvOp::Dotsp, SimdWidth::H, 0, a, b) as i32, -65_000);
    }

    #[test]
    fn dotup_is_unsigned() {
        let a = u32::from_le_bytes([255, 0, 0, 0]);
        let b = u32::from_le_bytes([255, 0, 0, 0]);
        assert_eq!(pv_exec(PvOp::Dotup, SimdWidth::B, 0, a, b), 255 * 255);
    }
}
