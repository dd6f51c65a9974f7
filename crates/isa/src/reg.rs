//! General-purpose register names for the RV32 integer register file.

use std::fmt;

/// A RISC-V general-purpose register (`x0`–`x31`).
///
/// The newtype guarantees the index is always in range, so the ISS can
/// index its register file without bounds checks failing at run time.
///
/// # Examples
///
/// ```
/// use arcane_isa::reg::{Gpr, A0};
/// assert_eq!(A0.index(), 10);
/// assert_eq!(Gpr::new(10), Some(A0));
/// assert_eq!(A0.to_string(), "a0");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Gpr(u8);

impl Gpr {
    /// Creates a register from its index; `None` if `index > 31`.
    pub const fn new(index: u8) -> Option<Gpr> {
        if index < 32 {
            Some(Gpr(index))
        } else {
            None
        }
    }

    /// Creates a register from the low five bits of `index`.
    ///
    /// Used by instruction decoders where the field width already
    /// guarantees the range.
    pub const fn from_bits(index: u32) -> Gpr {
        Gpr((index & 0x1f) as u8)
    }

    /// Register index in `0..=31`.
    pub const fn index(self) -> u8 {
        self.0
    }

    /// `true` for `x0`, the hard-wired zero register.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// ABI mnemonic (`zero`, `ra`, `sp`, …, `t6`).
    const fn abi_name(self) -> &'static str {
        const NAMES: [&str; 32] = [
            "zero", "ra", "sp", "gp", "tp", "t0", "t1", "t2", "s0", "s1", "a0", "a1", "a2", "a3",
            "a4", "a5", "a6", "a7", "s2", "s3", "s4", "s5", "s6", "s7", "s8", "s9", "s10", "s11",
            "t3", "t4", "t5", "t6",
        ];
        NAMES[self.0 as usize]
    }
}

impl fmt::Display for Gpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.abi_name())
    }
}

macro_rules! declare_regs {
    ($($name:ident = $idx:expr;)*) => {
        $(
            #[doc = concat!("The `", stringify!($name), "` register (x", stringify!($idx), ").")]
            pub const $name: Gpr = Gpr($idx);
        )*
    };
}

declare_regs! {
    ZERO = 0; RA = 1; SP = 2; GP = 3; TP = 4;
    T0 = 5; T1 = 6; T2 = 7;
    S0 = 8; S1 = 9;
    A0 = 10; A1 = 11; A2 = 12; A3 = 13; A4 = 14; A5 = 15; A6 = 16; A7 = 17;
    S2 = 18; S3 = 19; S4 = 20; S5 = 21; S6 = 22; S7 = 23; S8 = 24; S9 = 25;
    S10 = 26; S11 = 27;
    T3 = 28; T4 = 29; T5 = 30; T6 = 31;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounds_checked_constructor() {
        assert_eq!(Gpr::new(31), Some(T6));
        assert_eq!(Gpr::new(32), None);
    }

    #[test]
    fn from_bits_masks() {
        assert_eq!(Gpr::from_bits(0x2a), Gpr::from_bits(0x0a));
        assert_eq!(Gpr::from_bits(10), A0);
    }

    #[test]
    fn abi_names_cover_all() {
        for i in 0..32u8 {
            let r = Gpr::new(i).unwrap();
            assert!(!r.abi_name().is_empty());
        }
        assert_eq!(SP.abi_name(), "sp");
        assert!(ZERO.is_zero());
        assert!(!RA.is_zero());
    }
}
