//! Kernel execution phase accounting (the decomposition of the paper's
//! Figure 3: preamble / allocation / compute / writeback).

use std::fmt;
use std::ops::{Add, AddAssign};

/// One of the four kernel execution phases distinguished by the paper.
///
/// * `Preamble` — software decoding of the offloaded instruction, matrix
///   reservations (`xmr`) and scheduling work performed by the C-RT.
/// * `Allocation` — 2-D DMA transfers placing operand tiles into the
///   selected VPU's cache lines, plus lock management.
/// * `Compute` — vector micro-program execution on the VPU (including the
///   eCPU issue overhead for each vector instruction).
/// * `Writeback` — consolidation of the destination matrix back into a
///   contiguous array and AT/cache state release.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Phase {
    /// Software decode + reservation + scheduling.
    Preamble,
    /// Operand tile DMA-in.
    Allocation,
    /// Vector kernel execution.
    Compute,
    /// Result DMA-out and release.
    Writeback,
}

impl Phase {
    /// All phases in pipeline order.
    pub const ALL: [Phase; 4] = [
        Phase::Preamble,
        Phase::Allocation,
        Phase::Compute,
        Phase::Writeback,
    ];

    /// Short lowercase label used in reports and bench output.
    pub const fn label(self) -> &'static str {
        match self {
            Phase::Preamble => "preamble",
            Phase::Allocation => "allocation",
            Phase::Compute => "compute",
            Phase::Writeback => "writeback",
        }
    }
}

impl fmt::Display for Phase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Cycle totals for each kernel execution phase.
///
/// # Examples
///
/// ```
/// use arcane_sim::{Phase, PhaseBreakdown};
/// let mut b = PhaseBreakdown::default();
/// b.charge(Phase::Compute, 80);
/// b.charge(Phase::Allocation, 20);
/// assert_eq!(b.total(), 100);
/// assert!((b.share(Phase::Compute) - 0.8).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseBreakdown {
    /// Cycles spent in the preamble phase.
    pub preamble: u64,
    /// Cycles spent in the allocation phase.
    pub allocation: u64,
    /// Cycles spent in the compute phase.
    pub compute: u64,
    /// Cycles spent in the writeback phase.
    pub writeback: u64,
}

impl PhaseBreakdown {
    /// A breakdown with all phases at zero cycles.
    pub const fn new() -> Self {
        PhaseBreakdown {
            preamble: 0,
            allocation: 0,
            compute: 0,
            writeback: 0,
        }
    }

    /// Adds `cycles` to the given phase.
    pub fn charge(&mut self, phase: Phase, cycles: u64) {
        *self.get_mut(phase) += cycles;
    }

    /// Cycles recorded for `phase`.
    pub const fn get(&self, phase: Phase) -> u64 {
        match phase {
            Phase::Preamble => self.preamble,
            Phase::Allocation => self.allocation,
            Phase::Compute => self.compute,
            Phase::Writeback => self.writeback,
        }
    }

    fn get_mut(&mut self, phase: Phase) -> &mut u64 {
        match phase {
            Phase::Preamble => &mut self.preamble,
            Phase::Allocation => &mut self.allocation,
            Phase::Compute => &mut self.compute,
            Phase::Writeback => &mut self.writeback,
        }
    }

    /// Sum of all phases.
    pub const fn total(&self) -> u64 {
        self.preamble + self.allocation + self.compute + self.writeback
    }

    /// Fraction of the total spent in `phase` (0.0 when the total is zero).
    pub fn share(&self, phase: Phase) -> f64 {
        let total = self.total();
        if total == 0 {
            0.0
        } else {
            self.get(phase) as f64 / total as f64
        }
    }
}

impl Add for PhaseBreakdown {
    type Output = PhaseBreakdown;

    fn add(mut self, rhs: PhaseBreakdown) -> PhaseBreakdown {
        self += rhs;
        self
    }
}

impl AddAssign for PhaseBreakdown {
    fn add_assign(&mut self, rhs: PhaseBreakdown) {
        self.preamble += rhs.preamble;
        self.allocation += rhs.allocation;
        self.compute += rhs.compute;
        self.writeback += rhs.writeback;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charge_and_total() {
        let mut b = PhaseBreakdown::new();
        for (i, p) in Phase::ALL.iter().enumerate() {
            b.charge(*p, (i as u64 + 1) * 10);
        }
        assert_eq!(b.total(), 10 + 20 + 30 + 40);
        assert_eq!(b.get(Phase::Writeback), 40);
    }

    #[test]
    fn shares_sum_to_one() {
        let mut b = PhaseBreakdown::new();
        b.charge(Phase::Preamble, 1);
        b.charge(Phase::Allocation, 2);
        b.charge(Phase::Compute, 3);
        b.charge(Phase::Writeback, 4);
        let s: f64 = Phase::ALL.iter().map(|p| b.share(*p)).sum();
        assert!((s - 1.0).abs() < 1e-9);
    }

    #[test]
    fn empty_breakdown_has_zero_shares() {
        let b = PhaseBreakdown::default();
        assert_eq!(b.share(Phase::Compute), 0.0);
        assert_eq!(b.total(), 0);
    }

    #[test]
    fn addition_accumulates() {
        let mut a = PhaseBreakdown::new();
        a.charge(Phase::Compute, 5);
        let mut b = PhaseBreakdown::new();
        b.charge(Phase::Compute, 7);
        b.charge(Phase::Preamble, 1);
        let c = a + b;
        assert_eq!(c.compute, 12);
        assert_eq!(c.preamble, 1);
    }
}
