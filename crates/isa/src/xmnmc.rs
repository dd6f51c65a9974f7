//! The `xmnmc` software-defined in-cache matrix ISA (paper §IV-A).
//!
//! The extension lives in the RISC-V *custom-2* 25-bit encoding space
//! (major opcode `0x5b`). A 5-bit `func5` field selects the operation:
//! `func5 = 31` is the **matrix reserve** instruction `xmr`, and
//! `func5 ∈ [0, 30]` selects one of up to 31 **matrix kernel**
//! instructions `xmkN`. Each instruction also carries a width suffix
//! (`.w`/`.h`/`.b` → int32/int16/int8), encoded here in the low two bits
//! of the otherwise-unused `rd` field.
//!
//! To maximise the utility of a single instruction, the *values* of the
//! three source registers are divided into 16-bit halves (Table I):
//!
//! ```text
//!              hi(rs1)   lo(rs1)   hi(rs2)  lo(rs2)  hi(rs3)  lo(rs3)
//! xmr.[whb]    hi(&A)    lo(&A)    stride   md       cols     rows
//! xmkN.[whb]   alpha     beta      ms3      md       ms1      ms2
//! ```
//!
//! The host CPU never interprets these fields: it offloads the raw
//! instruction plus the three register values over CV-X-IF, and the
//! cache-resident runtime decodes them **in software** ([`unpack_xmr`],
//! [`unpack_kernel`]) into the same records a descriptor batch decodes
//! to — which is what makes the ISA extensible without hardware
//! changes.

use crate::exec::Op;
use crate::launch::{self, LaunchDecodeError, LaunchDescriptor, OperandBinding};
use crate::reg::Gpr;
use crate::rv32;
use crate::DecodeError;
use arcane_sim::Sew;
use std::fmt;

/// Number of architectural logical matrix registers (`m0`–`m15`).
pub const NUM_MAT_REGS: u8 = 16;

/// `func5` value of the `xmr` (matrix reserve) instruction.
pub const FUNC5_XMR: u8 = 31;

/// Builtin kernel ids implemented by the C-RT kernel library (Table I).
pub mod kernel_id {
    /// `xmk0` — General Matrix Multiplication (GeMM), `R = α·A·B + β·C`.
    pub const GEMM: u8 = 0;
    /// `xmk1` — LeakyReLU activation.
    pub const LEAKY_RELU: u8 = 1;
    /// `xmk2` — 2-D max-pooling.
    pub const MAXPOOL: u8 = 2;
    /// `xmk3` — single-channel 2-D convolution.
    pub const CONV2D: u8 = 3;
    /// `xmk4` — fused 3-channel 2-D convolutional layer
    /// (convolution + max-pooling + ReLU, the paper's flagship kernel).
    pub const CONV_LAYER_3CH: u8 = 4;
    /// `xmk5` — element-wise matrix addition (library extension).
    pub const MAT_ADD: u8 = 5;
    /// `xmk6` — scale-and-shift requantisation (library extension).
    pub const MAT_SCALE: u8 = 6;
    /// `xmk7` — matrix transpose (library extension).
    pub const TRANSPOSE: u8 = 7;
}

/// A logical matrix register (`m0`–`m15`) of the `xmnmc` extension.
///
/// # Examples
///
/// ```
/// use arcane_isa::xmnmc::MatReg;
/// let m2 = MatReg::new(2).unwrap();
/// assert_eq!(m2.to_string(), "m2");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MatReg(u8);

impl MatReg {
    /// Creates a matrix register; `None` when `index >= NUM_MAT_REGS`.
    pub const fn new(index: u8) -> Option<MatReg> {
        if index < NUM_MAT_REGS {
            Some(MatReg(index))
        } else {
            None
        }
    }

    /// Register index.
    pub const fn index(self) -> u8 {
        self.0
    }
}

impl fmt::Display for MatReg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "m{}", self.0)
    }
}

/// The encoding-level view of an `xmnmc` instruction: which registers it
/// names and which operation it selects. Produced by [`decode_raw`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct XInstr {
    /// Operation selector: `31` = `xmr`, `0..=30` = `xmkN`.
    pub func5: u8,
    /// Element width (`.w`/`.h`/`.b`).
    pub width: Sew,
    /// First source register (its *value* carries packed operands).
    pub rs1: Gpr,
    /// Second source register.
    pub rs2: Gpr,
    /// Third source register.
    pub rs3: Gpr,
}

/// Encodes an `xmnmc` instruction word (R4-type within custom-2).
///
/// Field placement: `func5` is split across `funct3` (low three bits,
/// bits 14:12) and `funct2` (high two bits, bits 26:25); `rs3` occupies
/// bits 31:27; the width lives in `rd[1:0]` (bits 8:7).
///
/// # Panics
///
/// Panics if `func5 > 31` (the field is five bits wide).
pub fn encode_raw(x: &XInstr) -> u32 {
    assert!(x.func5 < 32, "func5 is a 5-bit field");
    let funct3 = (x.func5 & 0x7) as u32;
    let funct2 = ((x.func5 >> 3) & 0x3) as u32;
    ((x.rs3.index() as u32) << 27)
        | (funct2 << 25)
        | ((x.rs2.index() as u32) << 20)
        | ((x.rs1.index() as u32) << 15)
        | (funct3 << 12)
        | ((x.width.to_bits() as u32) << 7)
        | rv32::opcode::CUSTOM2
}

/// Decodes a custom-2 word into its `xmnmc` fields.
///
/// # Errors
///
/// Returns [`DecodeError`] when the opcode is not custom-2 or the width
/// field holds the reserved value.
pub fn decode_raw(word: u32) -> Result<XInstr, DecodeError> {
    if word & 0x7f != rv32::opcode::CUSTOM2 {
        return Err(DecodeError::new(word, "not a custom-2 opcode"));
    }
    let funct3 = (word >> 12 & 0x7) as u8;
    let funct2 = (word >> 25 & 0x3) as u8;
    let width = Sew::from_bits((word >> 7 & 0x3) as u8)
        .ok_or(DecodeError::new(word, "reserved xmnmc width"))?;
    Ok(XInstr {
        func5: (funct2 << 3) | funct3,
        width,
        rs1: Gpr::from_bits(word >> 15 & 0x1f),
        rs2: Gpr::from_bits(word >> 20 & 0x1f),
        rs3: Gpr::from_bits(word >> 27 & 0x1f),
    })
}

/// Packs the three register values a host program must materialise
/// before issuing `xmr md, &A (stride, cols, rows)`.
///
/// Returns `(rs1, rs2, rs3)` values.
pub fn pack_xmr(addr: u32, stride: u16, md: MatReg, cols: u16, rows: u16) -> (u32, u32, u32) {
    (
        addr,
        (stride as u32) << 16 | md.index() as u32,
        (cols as u32) << 16 | rows as u32,
    )
}

/// Packs the three register values for a kernel instruction
/// `xmkN md, ms1, ms2, ms3 (alpha, beta)`.
///
/// Returns `(rs1, rs2, rs3)` values.
pub fn pack_kernel(
    alpha: i16,
    beta: i16,
    md: MatReg,
    ms1: MatReg,
    ms2: MatReg,
    ms3: MatReg,
) -> (u32, u32, u32) {
    (
        (alpha as u16 as u32) << 16 | beta as u16 as u32,
        (ms3.index() as u32) << 16 | md.index() as u32,
        (ms1.index() as u32) << 16 | ms2.index() as u32,
    )
}

/// Unpacks the three register values of an `xmr` into the binding it
/// installs: the exact inverse of [`pack_xmr`]. The C-RT runs this in
/// software (paper §IV-B1).
///
/// # Errors
///
/// [`LaunchDecodeError::BadRegister`] when the `md` field names no
/// register; the host then receives the CV-X-IF kill.
pub fn unpack_xmr(rs1: u32, rs2: u32, rs3: u32) -> Result<OperandBinding, LaunchDecodeError> {
    Ok(OperandBinding {
        reg: launch::mat_reg(rs2 as u16)?,
        addr: rs1,
        stride: (rs2 >> 16) as u16,
        cols: (rs3 >> 16) as u16,
        rows: rs3 as u16,
    })
}

/// Unpacks the three register values of `xmk<id>.<width>` into the
/// launch it requests, with no fresh bindings and token 0: the exact
/// inverse of [`pack_kernel`].
///
/// # Errors
///
/// [`LaunchDecodeError::BadRegister`] when a matrix-register field
/// names no register; the host then receives the CV-X-IF kill.
pub fn unpack_kernel(
    id: u8,
    width: Sew,
    rs1: u32,
    rs2: u32,
    rs3: u32,
) -> Result<LaunchDescriptor, LaunchDecodeError> {
    Ok(LaunchDescriptor {
        kernel: id,
        width,
        alpha: (rs1 >> 16) as i16,
        beta: rs1 as i16,
        md: launch::mat_reg(rs2 as u16)?,
        ms1: launch::mat_reg((rs3 >> 16) as u16)?,
        ms2: launch::mat_reg(rs3 as u16)?,
        ms3: launch::mat_reg((rs2 >> 16) as u16)?,
        bindings: Vec::new(),
        token: 0,
    })
}

/// Builds the custom-2 [`Op::Offload`] for `xmr.[width]` naming the
/// three operand-carrying CPU registers.
pub fn xmr_instr(width: Sew, rs1: Gpr, rs2: Gpr, rs3: Gpr) -> Op {
    x_instr(FUNC5_XMR, width, rs1, rs2, rs3)
}

/// Builds the custom-2 [`Op::Offload`] for `xmkN.[width]`.
///
/// # Panics
///
/// Panics if `id > 30` (`31` is reserved for `xmr`).
pub fn xmk_instr(id: u8, width: Sew, rs1: Gpr, rs2: Gpr, rs3: Gpr) -> Op {
    assert!(id <= 30, "kernel ids are 0..=30");
    x_instr(id, width, rs1, rs2, rs3)
}

fn x_instr(func5: u8, width: Sew, rs1: Gpr, rs2: Gpr, rs3: Gpr) -> Op {
    rv32::offload(encode_raw(&XInstr {
        func5,
        width,
        rs1,
        rs2,
        rs3,
    }))
}

/// Human-readable mnemonic for a `func5`/width pair, e.g. `xmk4.b`.
pub fn mnemonic(func5: u8, width: Sew) -> String {
    if func5 == FUNC5_XMR {
        format!("xmr.{}", width.suffix())
    } else {
        format!("xmk{}.{}", func5, width.suffix())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reg::{A0, A1, A2};

    #[test]
    fn raw_roundtrip_all_func5_widths() {
        for func5 in 0..32u8 {
            for width in Sew::ALL {
                let x = XInstr {
                    func5,
                    width,
                    rs1: A0,
                    rs2: A1,
                    rs3: A2,
                };
                let w = encode_raw(&x);
                assert_eq!(decode_raw(w).unwrap(), x, "func5={func5} {width}");
            }
        }
    }

    #[test]
    fn decode_raw_rejects_non_custom2() {
        assert!(decode_raw(0x0000_0013).is_err()); // addi
    }

    #[test]
    fn xmr_operand_packing() {
        let md = MatReg::new(3).unwrap();
        let (r1, r2, r3) = pack_xmr(0x2000_1000, 1, md, 64, 32);
        assert_eq!(
            unpack_xmr(r1, r2, r3),
            Ok(OperandBinding {
                reg: md,
                addr: 0x2000_1000,
                stride: 1,
                cols: 64,
                rows: 32,
            })
        );
    }

    #[test]
    fn kernel_operand_packing_negative_alpha() {
        let m = |i| MatReg::new(i).unwrap();
        let (r1, r2, r3) = pack_kernel(-3, 7, m(0), m(1), m(2), m(4));
        let d = unpack_kernel(kernel_id::GEMM, Sew::Word, r1, r2, r3).unwrap();
        assert_eq!((d.kernel, d.width), (kernel_id::GEMM, Sew::Word));
        assert_eq!((d.alpha, d.beta), (-3, 7));
        assert_eq!((d.md, d.ms1, d.ms2, d.ms3), (m(0), m(1), m(2), m(4)));
    }

    #[test]
    fn register_fields_are_checked_whole() {
        // 256 would alias m0 if the field were truncated to a byte.
        for value in [16, 200, 256] {
            let bad = LaunchDecodeError::BadRegister { value };
            assert_eq!(unpack_xmr(0, value as u32, 0), Err(bad));
            assert_eq!(unpack_kernel(0, Sew::Word, 0, value as u32, 0), Err(bad));
        }
    }

    #[test]
    fn mnemonics_match_table1() {
        assert_eq!(mnemonic(FUNC5_XMR, Sew::Word), "xmr.w");
        assert_eq!(mnemonic(kernel_id::CONV_LAYER_3CH, Sew::Byte), "xmk4.b");
    }

    #[test]
    #[should_panic(expected = "kernel ids are 0..=30")]
    fn xmk_rejects_reserved_id() {
        let _ = xmk_instr(31, Sew::Word, A0, A1, A2);
    }
}
