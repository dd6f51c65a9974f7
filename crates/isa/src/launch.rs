//! Launch descriptors and batch framing for the amortised kernel-launch
//! pipeline.
//!
//! The legacy launch path of §IV-B issues one `xmr` per operand plus one
//! `xmkN` per kernel, and the eCPU pays the full software preamble
//! (IRQ entry, operand unpacking, renaming, scheduling) for every
//! instruction. For kernel *chains* — and especially for the multi-VPU
//! slice splitting of §V-C — that preamble serialises on the single
//! eCPU and dominates the run.
//!
//! A [`LaunchDescriptor`] folds one kernel launch (its fresh operand
//! bindings, kernel id, scalar immediates and a completion token) into a
//! compact predecoded record, and a [`DescriptorBatch`] frames a train
//! of descriptors that the eCPU fetches in **one** transfer and decodes
//! with **one** entry overhead — the per-descriptor replay cost is a
//! table walk, not a full software decode. The host launches a batch
//! with a single `xmb` instruction ([`FUNC5_XMB`], reserved from the
//! `xmkN` space) whose operand registers carry the batch's address,
//! length and token ([`xmb_instr`]).
//!
//! Size accounting is exact: [`LaunchDescriptor::words`] and
//! [`DescriptorBatch::words`] give the encoded footprint the fabric
//! charges when the batch travels to the decoder, and encode/decode are
//! bit-exact inverses (property-tested in `tests/nn_props.rs`).
//!
//! # Encoding
//!
//! All fields are little-endian `u32` words:
//!
//! ```text
//! batch    word 0      magic (8) | descriptor count (16) | reserved (8)
//! desc     word 0      kernel id (5) | width (2) | n_bindings (2) | token (16 @ bit 16)
//!          word 1      alpha (16) | beta (16)
//!          word 2      md (4) | ms1 (4) | ms2 (4) | ms3 (4)
//! binding  word 0      base address
//!          word 1      stride (16) | matrix register (16)
//!          word 2      cols (16) | rows (16)
//! ```

use crate::exec::Op;
use crate::reg::Gpr;
use crate::xmnmc::{self, MatReg};
use arcane_sim::Sew;
use std::fmt;

/// `func5` value of the `xmb` (launch-batch) instruction, reserved from
/// the `xmkN` kernel-id space when the descriptor launch pipeline is
/// enabled.
pub const FUNC5_XMB: u8 = 30;

/// Magic byte opening every encoded [`DescriptorBatch`].
const BATCH_MAGIC: u8 = 0xA7;

/// Maximum operand bindings one descriptor can carry (md/ms1/ms2 —
/// `ms3` always aliases a bound register in the current compiler).
const MAX_BINDINGS: usize = 3;

/// How kernels are launched on the eCPU.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LaunchMode {
    /// The paper's per-instruction path: one `xmr` per operand, one
    /// `xmkN` per kernel, full software preamble each (the default).
    #[default]
    Legacy,
    /// The batched pipeline: the compiler emits [`DescriptorBatch`]es,
    /// the eCPU decodes each batch once and replays it per slice.
    Descriptor,
}

impl LaunchMode {
    /// Both modes, ablation-table order.
    pub const ALL: [LaunchMode; 2] = [LaunchMode::Legacy, LaunchMode::Descriptor];

    /// Mode mnemonic (reports, bench tables).
    pub const fn name(self) -> &'static str {
        match self {
            LaunchMode::Legacy => "legacy",
            LaunchMode::Descriptor => "descriptor",
        }
    }
}

impl fmt::Display for LaunchMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One fresh operand binding carried by a descriptor — the payload of a
/// legacy `xmr`, predecoded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OperandBinding {
    /// Matrix register the region is bound to.
    pub reg: MatReg,
    /// Base address of the region in system memory.
    pub addr: u32,
    /// Row stride in elements (1 = densely packed).
    pub stride: u16,
    /// Columns.
    pub cols: u16,
    /// Rows.
    pub rows: u16,
}

/// One predecoded kernel launch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LaunchDescriptor {
    /// Kernel id (`func5`, `0..=29` — [`FUNC5_XMB`] and `xmr` are
    /// reserved).
    pub kernel: u8,
    /// Element width the kernel operates on.
    pub width: Sew,
    /// First scalar immediate.
    pub alpha: i16,
    /// Second scalar immediate.
    pub beta: i16,
    /// Destination matrix register.
    pub md: MatReg,
    /// First source matrix register.
    pub ms1: MatReg,
    /// Second source matrix register.
    pub ms2: MatReg,
    /// Third source matrix register.
    pub ms3: MatReg,
    /// Fresh bindings this launch installs before resolving operands
    /// (registers not rebound here keep their live binding — the
    /// allocator's hot-tensor reuse).
    pub bindings: Vec<OperandBinding>,
    /// Completion token (kernel index within the program; reporting and
    /// debug only).
    pub token: u16,
}

impl LaunchDescriptor {
    /// Encoded size in 32-bit words.
    pub fn words(&self) -> usize {
        3 + 3 * self.bindings.len()
    }

    /// Encoded size in bytes.
    pub fn bytes(&self) -> usize {
        4 * self.words()
    }
}

/// A framed train of launch descriptors: fetched by the eCPU in one
/// fabric transfer, decoded once, replayed descriptor by descriptor.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct DescriptorBatch {
    /// The descriptors, in launch order.
    pub descriptors: Vec<LaunchDescriptor>,
}

impl DescriptorBatch {
    /// Encoded size in 32-bit words (header + descriptors).
    pub fn words(&self) -> usize {
        1 + self
            .descriptors
            .iter()
            .map(LaunchDescriptor::words)
            .sum::<usize>()
    }

    /// Encoded size in bytes.
    pub fn bytes(&self) -> usize {
        4 * self.words()
    }

    /// Encodes the batch into its word stream.
    ///
    /// # Panics
    ///
    /// Panics if a descriptor is malformed (kernel id in the reserved
    /// range, more than `MAX_BINDINGS` bindings, or more than
    /// `u16::MAX` descriptors) — compiler bugs, not data errors.
    pub fn encode(&self) -> Vec<u32> {
        assert!(
            self.descriptors.len() <= u16::MAX as usize,
            "batch descriptor count exceeds the 16-bit frame field"
        );
        let mut out = Vec::with_capacity(self.words());
        out.push((BATCH_MAGIC as u32) << 24 | (self.descriptors.len() as u32) << 8);
        for d in &self.descriptors {
            assert!(d.kernel < FUNC5_XMB, "kernel id {} is reserved", d.kernel);
            assert!(
                d.bindings.len() <= MAX_BINDINGS,
                "descriptor carries more than {MAX_BINDINGS} bindings"
            );
            out.push(
                (d.kernel as u32)
                    | (d.width.to_bits() as u32) << 5
                    | (d.bindings.len() as u32) << 7
                    | (d.token as u32) << 16,
            );
            out.push((d.alpha as u16 as u32) << 16 | d.beta as u16 as u32);
            out.push(
                (d.md.index() as u32)
                    | (d.ms1.index() as u32) << 4
                    | (d.ms2.index() as u32) << 8
                    | (d.ms3.index() as u32) << 12,
            );
            for b in &d.bindings {
                out.push(b.addr);
                out.push((b.stride as u32) << 16 | b.reg.index() as u32);
                out.push((b.cols as u32) << 16 | b.rows as u32);
            }
        }
        out
    }

    /// Decodes a word stream produced by [`DescriptorBatch::encode`].
    ///
    /// # Errors
    ///
    /// Returns [`LaunchDecodeError`] on a bad magic byte, a truncated
    /// stream, a reserved kernel id or width, or an out-of-range matrix
    /// register.
    pub fn decode(words: &[u32]) -> Result<DescriptorBatch, LaunchDecodeError> {
        let header = *words.first().ok_or(LaunchDecodeError::Truncated)?;
        if (header >> 24) as u8 != BATCH_MAGIC {
            return Err(LaunchDecodeError::BadMagic {
                found: (header >> 24) as u8,
            });
        }
        let count = (header >> 8 & 0xffff) as usize;
        let mut descriptors = Vec::with_capacity(count);
        let mut i = 1usize;
        let mut take = |n: usize| -> Result<usize, LaunchDecodeError> {
            let at = i;
            i += n;
            if i > words.len() {
                Err(LaunchDecodeError::Truncated)
            } else {
                Ok(at)
            }
        };
        let reg = |v: u32| mat_reg((v & 0xf) as u16);
        for _ in 0..count {
            let at = take(3)?;
            let (w0, w1, w2) = (words[at], words[at + 1], words[at + 2]);
            let kernel = (w0 & 0x1f) as u8;
            if kernel >= FUNC5_XMB {
                return Err(LaunchDecodeError::ReservedKernel { id: kernel });
            }
            let width = Sew::from_bits((w0 >> 5 & 0x3) as u8).ok_or(LaunchDecodeError::BadWidth)?;
            let n_bind = (w0 >> 7 & 0x3) as usize;
            let mut bindings = Vec::with_capacity(n_bind);
            for _ in 0..n_bind {
                let at = take(3)?;
                let (b0, b1, b2) = (words[at], words[at + 1], words[at + 2]);
                bindings.push(OperandBinding {
                    reg: mat_reg(b1 as u16)?,
                    addr: b0,
                    stride: (b1 >> 16) as u16,
                    cols: (b2 >> 16) as u16,
                    rows: (b2 & 0xffff) as u16,
                });
            }
            descriptors.push(LaunchDescriptor {
                kernel,
                width,
                alpha: (w1 >> 16) as u16 as i16,
                beta: (w1 & 0xffff) as u16 as i16,
                md: reg(w2)?,
                ms1: reg(w2 >> 4)?,
                ms2: reg(w2 >> 8)?,
                ms3: reg(w2 >> 12)?,
                bindings,
                token: (w0 >> 16) as u16,
            });
        }
        if i != words.len() {
            return Err(LaunchDecodeError::TrailingWords {
                expected: i,
                found: words.len(),
            });
        }
        Ok(DescriptorBatch { descriptors })
    }
}

/// Checks one matrix-register field of either launch path (a
/// descriptor, or the operand registers of a legacy `xmr`/`xmkN`). The
/// whole field is checked: truncating it first would let multiples of
/// 256 alias `m0`.
///
/// # Errors
///
/// [`LaunchDecodeError::BadRegister`] when `value` names no register.
pub fn mat_reg(value: u16) -> Result<MatReg, LaunchDecodeError> {
    u8::try_from(value)
        .ok()
        .and_then(MatReg::new)
        .ok_or(LaunchDecodeError::BadRegister { value })
}

/// Error produced while decoding launch operands: a [`DescriptorBatch`],
/// or the operand registers of a legacy `xmr`/`xmkN`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LaunchDecodeError {
    /// The first word does not open with `BATCH_MAGIC`.
    BadMagic {
        /// Byte found where the magic was expected.
        found: u8,
    },
    /// The word stream ends before the framed descriptor count.
    Truncated,
    /// The stream is longer than the framed descriptor count.
    TrailingWords {
        /// Words the frame accounts for.
        expected: usize,
        /// Words present.
        found: usize,
    },
    /// A descriptor names a reserved kernel id (`xmb`/`xmr`).
    ReservedKernel {
        /// The reserved id.
        id: u8,
    },
    /// The width field holds the reserved value.
    BadWidth,
    /// A matrix-register field exceeds the register file.
    BadRegister {
        /// The out-of-range value.
        value: u16,
    },
}

impl fmt::Display for LaunchDecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LaunchDecodeError::BadMagic { found } => {
                write!(f, "batch header opens with {found:#04x}, not the magic")
            }
            LaunchDecodeError::Truncated => f.write_str("descriptor batch is truncated"),
            LaunchDecodeError::TrailingWords { expected, found } => {
                write!(f, "batch frames {expected} words but carries {found}")
            }
            LaunchDecodeError::ReservedKernel { id } => {
                write!(f, "descriptor names reserved kernel id {id}")
            }
            LaunchDecodeError::BadWidth => f.write_str("reserved width field"),
            LaunchDecodeError::BadRegister { value } => {
                write!(f, "matrix register {value} exceeds the register file")
            }
        }
    }
}

impl std::error::Error for LaunchDecodeError {}

/// Builds the custom-2 [`Op::Offload`] for `xmb` naming the three
/// operand-carrying CPU registers (the width suffix is immaterial —
/// descriptors carry their own widths).
pub fn xmb_instr(rs1: Gpr, rs2: Gpr, rs3: Gpr) -> Op {
    xmnmc::xmk_instr(FUNC5_XMB, Sew::Word, rs1, rs2, rs3)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(i: u8) -> MatReg {
        MatReg::new(i).unwrap()
    }

    fn sample() -> DescriptorBatch {
        DescriptorBatch {
            descriptors: vec![
                LaunchDescriptor {
                    kernel: 0,
                    width: Sew::Byte,
                    alpha: -3,
                    beta: 7,
                    md: m(2),
                    ms1: m(0),
                    ms2: m(1),
                    ms3: m(0),
                    bindings: vec![
                        OperandBinding {
                            reg: m(0),
                            addr: 0x2000_0000,
                            stride: 1,
                            cols: 16,
                            rows: 8,
                        },
                        OperandBinding {
                            reg: m(2),
                            addr: 0x2000_0800,
                            stride: 1,
                            cols: 16,
                            rows: 8,
                        },
                    ],
                    token: 41,
                },
                LaunchDescriptor {
                    kernel: 6,
                    width: Sew::Byte,
                    alpha: 1,
                    beta: 2,
                    md: m(3),
                    ms1: m(2),
                    ms2: m(2),
                    ms3: m(2),
                    bindings: vec![],
                    token: 42,
                },
            ],
        }
    }

    #[test]
    fn encode_decode_round_trip() {
        let batch = sample();
        let words = batch.encode();
        assert_eq!(words.len(), batch.words());
        assert_eq!(batch.bytes(), 4 * words.len());
        assert_eq!(DescriptorBatch::decode(&words).unwrap(), batch);
    }

    #[test]
    fn size_accounting_is_exact() {
        let batch = sample();
        // header + (3 + 6) + (3 + 0)
        assert_eq!(batch.words(), 1 + 9 + 3);
        assert_eq!(batch.descriptors[0].words(), 9);
        assert_eq!(batch.descriptors[1].bytes(), 12);
    }

    #[test]
    fn decode_rejects_bad_magic_and_truncation() {
        let mut words = sample().encode();
        let ok = words.clone();
        words[0] ^= 0xff << 24;
        assert!(matches!(
            DescriptorBatch::decode(&words),
            Err(LaunchDecodeError::BadMagic { .. })
        ));
        assert_eq!(
            DescriptorBatch::decode(&ok[..ok.len() - 1]),
            Err(LaunchDecodeError::Truncated)
        );
        let mut long = ok.clone();
        long.push(0);
        assert!(matches!(
            DescriptorBatch::decode(&long),
            Err(LaunchDecodeError::TrailingWords { .. })
        ));
    }

    #[test]
    fn decode_rejects_reserved_kernel() {
        let mut batch = sample();
        batch.descriptors[1].kernel = 3;
        let mut words = batch.encode();
        // Patch the second descriptor's kernel-id field to xmb.
        let at = 1 + batch.descriptors[0].words();
        words[at] = (words[at] & !0x1f) | FUNC5_XMB as u32;
        assert_eq!(
            DescriptorBatch::decode(&words),
            Err(LaunchDecodeError::ReservedKernel { id: FUNC5_XMB })
        );
    }

    #[test]
    fn decode_rejects_out_of_range_binding_register() {
        let batch = sample();
        let mut words = batch.encode();
        // First binding of the first descriptor: word 1 carries the
        // register in its low half. 0x0100 truncates to 0 as a u8 —
        // decode must reject on the full 16-bit field.
        let at = 1 + 3 + 1;
        words[at] = (words[at] & !0xffff) | 0x0100;
        assert_eq!(
            DescriptorBatch::decode(&words),
            Err(LaunchDecodeError::BadRegister { value: 0x0100 })
        );
    }

    #[test]
    fn empty_batch_round_trips() {
        let batch = DescriptorBatch::default();
        assert_eq!(batch.words(), 1);
        assert_eq!(DescriptorBatch::decode(&batch.encode()).unwrap(), batch);
    }

    #[test]
    fn launch_mode_names() {
        assert_eq!(LaunchMode::default(), LaunchMode::Legacy);
        let names: Vec<&str> = LaunchMode::ALL.iter().map(|m| m.name()).collect();
        assert_eq!(names, ["legacy", "descriptor"]);
    }

    #[test]
    fn xmb_instr_decodes_as_func5_30() {
        use crate::reg::{A0, A1, A2};
        let Op::Offload { raw, .. } = xmb_instr(A0, A1, A2) else {
            panic!("xmb must be a custom-2 instruction");
        };
        assert_eq!(xmnmc::decode_raw(raw).unwrap().func5, FUNC5_XMB);
    }
}
