//! XCVPULP packed-SIMD / DSP extension subset.
//!
//! The paper's strongest CPU baseline is a CV32E40PX core implementing the
//! CORE-V XCVPULP extensions (Gautschi et al., the RI5CY DSP extensions):
//! post-increment memory accesses, hardware loops, scalar MAC and
//! packed-SIMD (8-/16-bit sub-word) arithmetic including dot products.
//!
//! The reproduction models the subset those convolution kernels need, as
//! the `cv.*` and `pv.*` variants of [`crate::exec::Op`]. The *semantics*
//! follow the XCVPULP specification; the *binary encodings* are local to
//! this simulator (placed in the RISC-V custom-0/custom-1 spaces by
//! [`crate::rv32::encode`]) because the CORE-V toolchain is not part of
//! the reproduction. This module holds the operation and width selectors
//! the assembler and the core take as arguments.

/// Sub-word width of a packed-SIMD operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SimdWidth {
    /// Four 8-bit lanes per 32-bit register (`.b` suffix).
    B,
    /// Two 16-bit lanes per 32-bit register (`.h` suffix).
    H,
}

/// Packed-SIMD vector operation (element-wise or dot product).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PvOp {
    /// `pv.add` — element-wise addition.
    Add,
    /// `pv.sub` — element-wise subtraction.
    Sub,
    /// `pv.max` — element-wise signed maximum.
    Max,
    /// `pv.min` — element-wise signed minimum.
    Min,
    /// `pv.dotsp` — signed dot product, `rd = Σ rs1[i]·rs2[i]`.
    Dotsp,
    /// `pv.sdotsp` — signed dot product accumulate, `rd += Σ rs1[i]·rs2[i]`.
    Sdotsp,
    /// `pv.dotup` — unsigned dot product.
    Dotup,
}
