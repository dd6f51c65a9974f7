//! NM-Carus-style near-memory vector ISA.
//!
//! The ARCANE cache runtime implements each complex matrix instruction as
//! a *micro-program* of vector-like instructions executed in hardware by
//! the NM-Carus vector processing units (paper §III, building on
//! Caon et al. 2024). The VPU vector registers **are** the cache lines:
//! each of the 32 vector registers is one 1 KiB cache line, and the lane
//! datapath (2/4/8 × 32-bit lanes with sub-word SIMD) streams over them.
//!
//! The instruction set modeled here is the subset those micro-programs
//! need: element-wise arithmetic (`.vv` and `.vx` forms), slides,
//! broadcasts and reductions, with a `setvl`-style length/width control.
//! The runtime hands the VPUs typed [`VInstr`] values and charges their
//! issue as a fixed cycle cost, so no binary encoding is modelled.

use arcane_sim::Sew;

/// A VPU vector register (`v0`–`v31`); physically one cache line.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Vr(u8);

impl Vr {
    /// Creates a vector register; `None` when `index > 31`.
    pub const fn new(index: u8) -> Option<Vr> {
        if index < 32 {
            Some(Vr(index))
        } else {
            None
        }
    }

    /// Register index.
    pub const fn index(self) -> u8 {
        self.0
    }
}

/// A VPU scalar register (`s0`–`s31`), written by the eCPU before kernel
/// dispatch (filter taps, activation slopes, GeMM α/β live here).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Sr(u8);

impl Sr {
    /// Creates a scalar register; `None` when `index > 31`.
    pub const fn new(index: u8) -> Option<Sr> {
        if index < 32 {
            Some(Sr(index))
        } else {
            None
        }
    }

    /// Register index.
    pub const fn index(self) -> u8 {
        self.0
    }
}

/// Element-wise vector operation kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VOp {
    /// Wrapping addition.
    Add,
    /// Wrapping subtraction.
    Sub,
    /// Wrapping multiplication (low half).
    Mul,
    /// Multiply-accumulate into the destination: `vd += vs1 * src2`.
    Macc,
    /// Signed maximum.
    Max,
    /// Signed minimum.
    Min,
    /// Logical left shift.
    Sll,
    /// Logical right shift.
    Srl,
    /// Arithmetic right shift.
    Sra,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise xor.
    Xor,
}

/// An NM-Carus-style vector instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VInstr {
    /// `vsetvl vl, sew` — configure active vector length (in elements)
    /// and element width for subsequent instructions.
    SetVl {
        /// Active vector length in elements (≤ `VLEN / sew.bytes()`).
        vl: u16,
        /// Element width.
        sew: Sew,
    },
    /// Vector–vector element-wise operation: `vd[i] (op)= vs1[i], vs2[i]`.
    OpVV {
        /// Operation.
        op: VOp,
        /// Destination (and accumulator for `Macc`).
        vd: Vr,
        /// First source.
        vs1: Vr,
        /// Second source.
        vs2: Vr,
    },
    /// Vector–scalar element-wise operation: `vd[i] (op)= vs1[i], s[rs]`.
    OpVX {
        /// Operation.
        op: VOp,
        /// Destination (and accumulator for `Macc`).
        vd: Vr,
        /// Vector source.
        vs1: Vr,
        /// Scalar register providing the second operand.
        rs: Sr,
    },
    /// `vslidedown vd, vs1, offset` — `vd[i] = vs1[i + offset]`
    /// (zero-filled tail).
    SlideDown {
        /// Destination.
        vd: Vr,
        /// Source.
        vs1: Vr,
        /// Slide distance in elements.
        offset: u16,
    },
    /// `vslideup vd, vs1, offset` — `vd[i + offset] = vs1[i]`
    /// (elements below `offset` unchanged).
    SlideUp {
        /// Destination.
        vd: Vr,
        /// Source.
        vs1: Vr,
        /// Slide distance in elements.
        offset: u16,
    },
    /// `vmv.v.x vd, s[rs]` — broadcast a scalar to every element.
    BroadcastX {
        /// Destination.
        vd: Vr,
        /// Scalar register to broadcast.
        rs: Sr,
    },
    /// `vmv.v.v vd, vs1` — whole-register move (first `vl` elements).
    Move {
        /// Destination.
        vd: Vr,
        /// Source.
        vs1: Vr,
    },
    /// `vredsum vd, vs1` — sum-reduce into element 0 of `vd`.
    RedSum {
        /// Destination (element 0 receives the sum).
        vd: Vr,
        /// Source.
        vs1: Vr,
    },
    /// `vredmax vd, vs1` — max-reduce into element 0 of `vd`.
    RedMax {
        /// Destination (element 0 receives the maximum).
        vd: Vr,
        /// Source.
        vs1: Vr,
    },
}
