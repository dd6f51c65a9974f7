//! CV32E40X-derived per-instruction cycle costs.

/// Per-instruction cycle tariff of a 4-stage in-order CV32E40X-class
/// core.
///
/// Values follow the published CV32E40X/RI5CY pipeline behaviour:
/// single-cycle ALU and multiplier, iterative divider, taken-branch and
/// jump penalties from pipeline flushes, and memory operations that cost
/// one issue cycle plus whatever wait states the bus reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Timing {
    /// Cost of simple ALU/CSR instructions.
    pub alu: u64,
    /// Cost of 32×32 multiplications (single-cycle unit).
    pub mul: u64,
    /// Cost of `mulh*` (two passes through the multiplier).
    pub mulh: u64,
    /// Cost of divisions and remainders (iterative unit).
    pub div: u64,
    /// Cost of a *taken* branch (flush of IF/ID).
    pub branch_taken: u64,
    /// Cost of a not-taken branch.
    pub branch_not_taken: u64,
    /// Cost of `jal`/`jalr`.
    pub jump: u64,
    /// Extra cycles for a misaligned data access (second bus transaction).
    pub misaligned_extra: u64,
    /// Cost of an XCVPULP packed-SIMD or DSP op (single-cycle datapath).
    pub simd: u64,
    /// Cost of a hardware-loop setup instruction.
    pub loop_setup: u64,
}

impl Timing {
    /// The CV32E40X/CV32E40PX tariff used throughout the evaluation.
    pub const fn cv32e40x() -> Self {
        Timing {
            alu: 1,
            mul: 1,
            mulh: 2,
            div: 35,
            branch_taken: 3,
            branch_not_taken: 1,
            jump: 2,
            misaligned_extra: 1,
            simd: 1,
            loop_setup: 1,
        }
    }
}
