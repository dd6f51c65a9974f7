//! Simulation primitives shared by every ARCANE component model.
//!
//! This crate provides the small vocabulary used throughout the
//! reproduction of the ARCANE paper (DAC 2025):
//!
//! * [`Phase`] / [`PhaseBreakdown`] — the four kernel execution phases the
//!   paper's Figure 3 decomposes (*preamble*, *allocation*, *compute*,
//!   *writeback*).
//! * [`Sew`] — selected element width of a vector/matrix operand
//!   (the `.b` / `.h` / `.w` suffix of the `xmnmc` instructions).
//! * [`Counter`] and [`CacheStats`] — lightweight event statistics.
//! * [`EngineMode`] — selects the host-core execution engine (one
//!   predecoded op per instruction word by default, `ARCANE_INTERP=1` to
//!   fetch and decode every instruction).
//!
//! # Examples
//!
//! ```
//! use arcane_sim::{Phase, PhaseBreakdown};
//!
//! let mut phases = PhaseBreakdown::default();
//! phases.charge(Phase::Preamble, 10);
//! phases.charge(Phase::Compute, 30);
//! assert_eq!(phases.get(Phase::Compute), 30);
//! assert_eq!(phases.total(), 40);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod engine;
mod phase;
mod stats;

pub use engine::EngineMode;
pub use phase::{Phase, PhaseBreakdown};
pub use stats::{CacheStats, ChannelUtil, Counter, LaunchStats};

use std::fmt;

/// Selected element width (SEW) of a matrix/vector operand.
///
/// Mirrors the `.w` / `.h` / `.b` width suffixes of the `xmnmc` extension
/// (32-, 16- and 8-bit integers respectively). The VPU lanes are 32 bits
/// wide and use sub-word SIMD for the narrower widths, which is where the
/// paper's 8-bit throughput advantage comes from.
///
/// # Examples
///
/// ```
/// use arcane_sim::Sew;
/// assert_eq!(Sew::Byte.bytes(), 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Sew {
    /// 8-bit elements (`.b` suffix, `int8`).
    Byte,
    /// 16-bit elements (`.h` suffix, `int16`).
    Half,
    /// 32-bit elements (`.w` suffix, `int32`).
    Word,
}

impl Sew {
    /// Size of one element in bytes.
    pub const fn bytes(self) -> usize {
        match self {
            Sew::Byte => 1,
            Sew::Half => 2,
            Sew::Word => 4,
        }
    }

    /// All widths, widest first (iteration helper for sweeps).
    pub const ALL: [Sew; 3] = [Sew::Word, Sew::Half, Sew::Byte];

    /// Conventional C-type name (`int8`/`int16`/`int32`), used in reports.
    const fn c_name(self) -> &'static str {
        match self {
            Sew::Byte => "int8",
            Sew::Half => "int16",
            Sew::Word => "int32",
        }
    }

    /// Instruction suffix letter used by the `xmnmc` mnemonics.
    pub const fn suffix(self) -> char {
        match self {
            Sew::Byte => 'b',
            Sew::Half => 'h',
            Sew::Word => 'w',
        }
    }

    /// Decodes the 2-bit width field used by the `xmnmc` encodings.
    pub const fn from_bits(bits: u8) -> Option<Sew> {
        match bits {
            0 => Some(Sew::Word),
            1 => Some(Sew::Half),
            2 => Some(Sew::Byte),
            _ => None,
        }
    }

    /// Encodes this width into the 2-bit field used by the `xmnmc` encodings.
    pub const fn to_bits(self) -> u8 {
        match self {
            Sew::Word => 0,
            Sew::Half => 1,
            Sew::Byte => 2,
        }
    }
}

impl fmt::Display for Sew {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.c_name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sew_roundtrip() {
        for sew in Sew::ALL {
            assert_eq!(Sew::from_bits(sew.to_bits()), Some(sew));
        }
        assert_eq!(Sew::from_bits(3), None);
    }

    #[test]
    fn sew_display() {
        assert_eq!(Sew::Word.to_string(), "int32");
        assert_eq!(Sew::Byte.suffix(), 'b');
    }
}
