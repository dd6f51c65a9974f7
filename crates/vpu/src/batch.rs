//! Monomorphised per-line batch kernels for the VPU datapath.
//!
//! [`crate::Vpu`] originally walked vector registers element-at-a-time
//! through `Sew`-generic accessors, materialising every operand as a
//! `Vec<i64>` — the dominant simulator cost of compute-phase sweeps.
//! These kernels instead run one tight loop per (operation, element
//! width) pair directly over little-endian byte slices; the `Sew` match
//! happens once per vector instruction instead of once per element, and
//! the compiler monomorphises and vectorises the inner loops.
//!
//! Kernels compute in place on the register lines: each [`Operand`] is
//! another register, a broadcast scalar or the destination itself
//! ([`InPlace`]), monomorphised per pairing so that no source line is
//! ever copied. [`macc_train`] runs a whole train of `vmacc.vx` taps
//! in one pass over the accumulator.
//!
//! Semantics are bit-for-bit those of the original i64 reference code
//! (wrapping two's complement at the selected width), including the
//! quirky shift behaviour it inherited from evaluating in i64:
//!
//! * `Sll` masks the shift amount by 63 (u64 `wrapping_shl`), then any
//!   shift ≥ the element width produces 0 — so a shift amount of 64
//!   wraps to 0 and leaves the element unchanged;
//! * `Srl`/`Sra` reduce the shift amount modulo the element width.

use arcane_isa::vector::VOp;
use std::iter::Repeat;
use std::slice::ChunksExact;

/// A machine element type the datapath operates on (i8/i16/i32),
/// mirroring the reference interpreter's i64-at-width semantics.
pub(crate) trait Elem: Copy {
    /// Size of one element in bytes.
    const BYTES: usize;
    /// Smallest representable value (identity for max-reduction).
    const MIN: Self;

    /// Reads one little-endian element from the head of `b`.
    fn load(b: &[u8]) -> Self;
    /// Writes one little-endian element to the head of `b`.
    fn store(self, b: &mut [u8]);
    /// Sign-extends to i64 (reduction results, scalar interop).
    fn to_i64(self) -> i64;
    /// Truncates an i64 to this width (scalar splat).
    fn from_i64(v: i64) -> Self;

    fn wadd(self, o: Self) -> Self;
    fn wsub(self, o: Self) -> Self;
    fn wmul(self, o: Self) -> Self;
    fn emax(self, o: Self) -> Self;
    fn emin(self, o: Self) -> Self;
    fn band(self, o: Self) -> Self;
    fn bor(self, o: Self) -> Self;
    fn bxor(self, o: Self) -> Self;
    /// `Sll` with the reference engine's u64 semantics (see module docs).
    fn shl64(self, o: Self) -> Self;
    /// Logical right shift, amount reduced modulo the element width.
    fn shr_l(self, o: Self) -> Self;
    /// Arithmetic right shift, amount reduced modulo the element width.
    fn shr_a(self, o: Self) -> Self;
}

macro_rules! impl_elem {
    ($t:ty, $u:ty, $bytes:literal) => {
        impl Elem for $t {
            const BYTES: usize = $bytes;
            const MIN: Self = <$t>::MIN;

            #[inline(always)]
            fn load(b: &[u8]) -> Self {
                <$t>::from_le_bytes(b[..$bytes].try_into().unwrap())
            }

            #[inline(always)]
            fn store(self, b: &mut [u8]) {
                b[..$bytes].copy_from_slice(&self.to_le_bytes());
            }

            #[inline(always)]
            fn to_i64(self) -> i64 {
                self as i64
            }

            #[inline(always)]
            fn from_i64(v: i64) -> Self {
                v as $t
            }

            #[inline(always)]
            fn wadd(self, o: Self) -> Self {
                self.wrapping_add(o)
            }

            #[inline(always)]
            fn wsub(self, o: Self) -> Self {
                self.wrapping_sub(o)
            }

            #[inline(always)]
            fn wmul(self, o: Self) -> Self {
                self.wrapping_mul(o)
            }

            #[inline(always)]
            fn emax(self, o: Self) -> Self {
                self.max(o)
            }

            #[inline(always)]
            fn emin(self, o: Self) -> Self {
                self.min(o)
            }

            #[inline(always)]
            fn band(self, o: Self) -> Self {
                self & o
            }

            #[inline(always)]
            fn bor(self, o: Self) -> Self {
                self | o
            }

            #[inline(always)]
            fn bxor(self, o: Self) -> Self {
                self ^ o
            }

            #[inline(always)]
            fn shl64(self, o: Self) -> Self {
                // Reference: wrap((x as u64).wrapping_shl(y as u32)):
                // u64 shifts mask the amount by 63; ≥ BITS clears the
                // low element bits.
                let s = (o as u32) & 63;
                if s >= <$u>::BITS {
                    0
                } else {
                    ((self as $u) << s) as $t
                }
            }

            #[inline(always)]
            fn shr_l(self, o: Self) -> Self {
                let s = (o as u32) % <$u>::BITS;
                ((self as $u) >> s) as $t
            }

            #[inline(always)]
            fn shr_a(self, o: Self) -> Self {
                let s = (o as u32) % <$u>::BITS;
                self >> s
            }
        }
    };
}

impl_elem!(i8, u8, 1);
impl_elem!(i16, u16, 2);
impl_elem!(i32, u32, 4);

/// One source operand of an element-wise kernel, read element by
/// element alongside the destination line.
pub(crate) trait Operand<E: Elem>: Iterator {
    /// The operand's element at the position whose destination element
    /// is `d` (read before `d` is written).
    fn fetch(item: Self::Item, d: &[u8]) -> E;
}

/// Another register: its elements in order.
impl<E: Elem> Operand<E> for ChunksExact<'_, u8> {
    #[inline(always)]
    fn fetch(item: &[u8], _: &[u8]) -> E {
        E::load(item)
    }
}

/// A scalar broadcast to every element.
impl<E: Elem> Operand<E> for Repeat<E> {
    #[inline(always)]
    fn fetch(item: E, _: &[u8]) -> E {
        item
    }
}

/// The destination register itself: element `i` reads only element `i`
/// of each operand, so an operand aliasing the destination is read in
/// place just before that element is overwritten.
#[derive(Debug, Clone, Copy)]
pub(crate) struct InPlace;

impl Iterator for InPlace {
    type Item = ();

    #[inline(always)]
    fn next(&mut self) -> Option<()> {
        Some(())
    }
}

impl<E: Elem> Operand<E> for InPlace {
    #[inline(always)]
    fn fetch((): (), d: &[u8]) -> E {
        E::load(d)
    }
}

/// The elements of a register line as an [`Operand`].
pub(crate) fn line<E: Elem>(bytes: &[u8]) -> ChunksExact<'_, u8> {
    bytes.chunks_exact(E::BYTES)
}

/// Applies `op` element-wise over the first `n` elements of `dst`:
/// `dst[i] = a[i] op b[i]` (for `Macc`, `dst[i] += a[i] * b[i]`).
/// `dst` must hold at least `n * E::BYTES` bytes and each line operand
/// at least `n` elements.
pub(crate) fn binary<E: Elem, A: Operand<E>, B: Operand<E>>(
    op: VOp,
    n: usize,
    dst: &mut [u8],
    a: A,
    b: B,
) {
    macro_rules! lanes {
        (|$d:ident, $x:ident, $y:ident| $e:expr) => {
            for (($d, ai), bi) in dst[..n * E::BYTES].chunks_exact_mut(E::BYTES).zip(a).zip(b) {
                let $x = A::fetch(ai, $d);
                let $y = B::fetch(bi, $d);
                ($e).store($d);
            }
        };
    }
    match op {
        VOp::Add => lanes!(|d, x, y| x.wadd(y)),
        VOp::Sub => lanes!(|d, x, y| x.wsub(y)),
        VOp::Mul => lanes!(|d, x, y| x.wmul(y)),
        VOp::Macc => lanes!(|d, x, y| E::load(d).wadd(x.wmul(y))),
        VOp::Max => lanes!(|d, x, y| x.emax(y)),
        VOp::Min => lanes!(|d, x, y| x.emin(y)),
        VOp::Sll => lanes!(|d, x, y| x.shl64(y)),
        VOp::Srl => lanes!(|d, x, y| x.shr_l(y)),
        VOp::Sra => lanes!(|d, x, y| x.shr_a(y)),
        VOp::And => lanes!(|d, x, y| x.band(y)),
        VOp::Or => lanes!(|d, x, y| x.bor(y)),
        VOp::Xor => lanes!(|d, x, y| x.bxor(y)),
    }
}

/// Elements one pass of [`macc_train`] keeps in registers.
const TRAIN_BLOCK: usize = 64;

/// A train of `vmacc.vx` taps in one pass over the first `n` elements
/// of `dst`: `dst[i] += Σ_k scalars[k] · row_k[i]`, where `row_k` is
/// the `k`-th `stride`-byte line of `rows`. Each element sums its taps
/// in tap order at element width, so the result is bit-identical to
/// issuing the taps one by one; `dst` must not be one of the rows.
pub(crate) fn macc_train<E: Elem>(
    n: usize,
    dst: &mut [u8],
    rows: &[u8],
    stride: usize,
    scalars: &[u32],
) {
    let mut acc = [E::from_i64(0); TRAIN_BLOCK];
    for (blk, d) in dst[..n * E::BYTES]
        .chunks_mut(TRAIN_BLOCK * E::BYTES)
        .enumerate()
    {
        let o = blk * TRAIN_BLOCK * E::BYTES;
        let acc = &mut acc[..d.len() / E::BYTES];
        for (a, c) in acc.iter_mut().zip(d.chunks_exact(E::BYTES)) {
            *a = E::load(c);
        }
        for (k, &s) in scalars.iter().enumerate() {
            let s = E::from_i64(i64::from(s));
            let row = &rows[k * stride + o..][..d.len()];
            for (a, c) in acc.iter_mut().zip(row.chunks_exact(E::BYTES)) {
                *a = a.wadd(s.wmul(E::load(c)));
            }
        }
        for (a, c) in acc.iter().zip(d.chunks_exact_mut(E::BYTES)) {
            a.store(c);
        }
    }
}

/// Fills the first `n` elements of `dst` with `v`.
pub(crate) fn splat<E: Elem>(n: usize, dst: &mut [u8], v: E) {
    for d in dst.chunks_exact_mut(E::BYTES).take(n) {
        v.store(d);
    }
}

/// Wrapping sum of the first `n` elements (the reference engine wraps
/// at element width after every partial sum).
pub(crate) fn red_sum<E: Elem>(n: usize, src: &[u8]) -> i64 {
    src.chunks_exact(E::BYTES)
        .take(n)
        .fold(E::from_i64(0), |acc, c| acc.wadd(E::load(c)))
        .to_i64()
}

/// Maximum of the first `n` elements (`E::MIN` when `n == 0`).
pub(crate) fn red_max<E: Elem>(n: usize, src: &[u8]) -> i64 {
    src.chunks_exact(E::BYTES)
        .take(n)
        .fold(E::MIN, |acc, c| acc.emax(E::load(c)))
        .to_i64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shift_semantics_match_the_i64_reference() {
        // Reference semantics for one element, as the original code
        // computed them.
        fn ref_sll(x: i64, y: i64, bits: u32) -> i64 {
            let v = (x as u64).wrapping_shl(y as u32) as i64;
            // wrap to width
            (v << (64 - bits)) >> (64 - bits)
        }
        for (x, y) in [(0x7fi8, 1i8), (-1, 8), (3, 64), (5, -1), (1, 31)] {
            let got = x.shl64(y);
            let want = ref_sll(x as i64, y as i64, 8) as i8;
            assert_eq!(got, want, "sll({x}, {y})");
        }
        // Shift of 64 wraps to 0 in u64 => element unchanged.
        assert_eq!(3i8.shl64(64), 3);
        // Shift of 32 clears an i8 but is amount 0 for Srl (mod 8).
        assert_eq!(3i8.shl64(32), 0);
        assert_eq!((-8i8).shr_l(32), -8);
        assert_eq!((-8i8).shr_a(1), -4);
        assert_eq!((-8i8).shr_l(1), 124);
    }

    #[test]
    fn macc_accumulates_in_place() {
        let mut d = (100i32).to_le_bytes().to_vec();
        let a = (3i32).to_le_bytes().to_vec();
        binary::<i32, _, _>(VOp::Macc, 1, &mut d, line::<i32>(&a), std::iter::repeat(-7));
        assert_eq!(i32::from_le_bytes(d[..4].try_into().unwrap()), 100 - 21);
        // The destination as both sources: 79 + 79 * 79.
        binary::<i32, _, _>(VOp::Macc, 1, &mut d, InPlace, InPlace);
        assert_eq!(i32::from_le_bytes(d[..4].try_into().unwrap()), 79 + 79 * 79);
    }

    #[test]
    fn reductions_wrap_at_width() {
        let src = [0x7f, 1]; // 127 + 1 wraps to -128 in i8
        assert_eq!(red_sum::<i8>(2, &src), -128);
        assert_eq!(red_max::<i8>(2, &src), 127);
        assert_eq!(red_max::<i8>(0, &src), i8::MIN as i64);
    }

    #[test]
    fn splat_fills_prefix_only() {
        let mut d = vec![0u8; 8];
        splat::<i16>(2, &mut d, -2i16);
        assert_eq!(&d, &[0xfe, 0xff, 0xfe, 0xff, 0, 0, 0, 0]);
    }
}
