//! The user-configurable kernel library of the C-RT (paper §IV-B).
//!
//! Every complex `xmkN` instruction resolves, through an O(1) table
//! lookup on `func5`, to an implementation of the [`Kernel`] trait. The
//! library ships the five kernels of Table I plus three extension
//! kernels (`xmk5`-`xmk7`) and accepts user kernels
//! before "compilation" (here: at construction time), which is the
//! software-defined ISA extensibility the paper advertises.

mod conv;
mod elementwise;
mod gemm;
mod pool;
mod relu;

use conv::{Conv2d, ConvLayer3ch};
use elementwise::{MatAdd, MatScale, Transpose};
use gemm::Gemm;
use pool::MaxPool;
use relu::LeakyRelu;

use crate::runtime::ctx::KernelCtx;
use crate::runtime::map::MatView;
use arcane_isa::launch::{LaunchDecodeError, FUNC5_XMB};
use arcane_isa::vector::{Sr, Vr};
use arcane_isa::xmnmc::{kernel_id, MatReg};
use arcane_sim::Sew;
use arcane_vpu::{max_vl, VpuError, VLEN_BYTES};
use std::error::Error;
use std::fmt;

/// Fully resolved arguments of one kernel invocation.
#[derive(Debug, Clone, Copy)]
pub struct ResolvedArgs {
    /// Element width of the operation.
    pub width: Sew,
    /// First scalar parameter (kernel-specific meaning).
    pub alpha: i16,
    /// Second scalar parameter (kernel-specific meaning).
    pub beta: i16,
    /// Destination binding.
    pub md: MatView,
    /// First source binding (if the logical register was bound).
    pub ms1: Option<MatView>,
    /// Second source binding.
    pub ms2: Option<MatView>,
    /// Third source binding.
    pub ms3: Option<MatView>,
}

/// Error raised while decoding, validating or executing a kernel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KernelError {
    /// `func5` does not name a registered kernel (host receives the
    /// CV-X-IF *kill*).
    UnknownKernel {
        /// The unknown `func5` value.
        id: u8,
    },
    /// A kernel operand names an unbound logical matrix register.
    UnboundMatrix {
        /// The offending register.
        reg: MatReg,
    },
    /// A kernel operand's rows reach outside external memory (host
    /// receives the CV-X-IF *kill*).
    OperandOutOfRange {
        /// The matrix register bound to the offending region.
        reg: MatReg,
    },
    /// Operand shapes are inconsistent with the kernel contract.
    ShapeMismatch {
        /// Human-readable description of the violated constraint.
        what: &'static str,
    },
    /// A matrix row exceeds the vector length (column tiling is not
    /// implemented; the paper's evaluation stays within one line too).
    RowTooWide {
        /// Row width in elements.
        cols: usize,
        /// Maximum representable width for this element size.
        max: usize,
    },
    /// Operand widths disagree with the instruction width suffix.
    WidthMismatch,
    /// Launch operands failed to decode: an `xmb` batch (descriptor
    /// pipeline), or a legacy `xmr`/`xmkN` word or operand register
    /// (reserved width, out-of-range matrix register).
    Launch(LaunchDecodeError),
    /// The VPU rejected a vector instruction (runtime bug).
    Vpu(VpuError),
}

impl fmt::Display for KernelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KernelError::UnknownKernel { id } => write!(f, "no kernel registered for func5={id}"),
            KernelError::UnboundMatrix { reg } => {
                write!(f, "matrix register {reg} has no xmr binding")
            }
            KernelError::OperandOutOfRange { reg } => {
                write!(f, "matrix register {reg} reaches outside external memory")
            }
            KernelError::ShapeMismatch { what } => write!(f, "operand shape mismatch: {what}"),
            KernelError::RowTooWide { cols, max } => {
                write!(
                    f,
                    "matrix row of {cols} elements exceeds the {max}-element vector"
                )
            }
            KernelError::WidthMismatch => {
                f.write_str("operand width differs from instruction suffix")
            }
            KernelError::Launch(e) => write!(f, "launch decode failed: {e}"),
            KernelError::Vpu(e) => write!(f, "vector unit fault: {e}"),
        }
    }
}

impl Error for KernelError {}

impl From<VpuError> for KernelError {
    fn from(e: VpuError) -> Self {
        KernelError::Vpu(e)
    }
}

/// A complex matrix kernel: the micro-program behind one `xmkN`.
///
/// Implementations validate their operands in [`Kernel::validate`]
/// (the *preamble* of §IV-B1, run in the interrupt handler) and perform
/// the tiled allocate/compute/writeback sequence in [`Kernel::run`].
pub trait Kernel: fmt::Debug + Send {
    /// Kernel mnemonic (e.g. `"gemm"`).
    fn name(&self) -> &'static str;

    /// Validates operand shapes and returns the *source* views the
    /// kernel will read (registered in the Address Table for WAR
    /// protection). The destination is always `args.md`.
    ///
    /// # Errors
    ///
    /// Returns [`KernelError`] when the operands violate the kernel's
    /// contract; the host then receives the CV-X-IF kill.
    fn validate(&self, args: &ResolvedArgs) -> Result<Vec<MatView>, KernelError>;

    /// Executes the kernel on the context's VPU, tile by tile.
    ///
    /// # Errors
    ///
    /// Returns [`KernelError`] on internal faults (these abort the
    /// simulation; real hardware would raise an eCPU exception).
    fn run(&self, args: &ResolvedArgs, ctx: &mut KernelCtx<'_>) -> Result<(), KernelError>;
}

/// The O(1) `func5 → kernel` dispatch table.
pub(crate) struct KernelLib {
    slots: [Option<Box<dyn Kernel>>; 31],
}

impl fmt::Debug for KernelLib {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let names: Vec<(usize, &str)> = self
            .slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|k| (i, k.name())))
            .collect();
        f.debug_struct("KernelLib")
            .field("kernels", &names)
            .finish()
    }
}

impl KernelLib {
    /// An empty library (no kernels registered).
    pub fn empty() -> Self {
        KernelLib {
            slots: std::array::from_fn(|_| None),
        }
    }

    /// The library shipped with the C-RT: the five kernels of Table I
    /// plus the `xmk5`-`xmk7` extensions (add, scale-shift, transpose).
    pub fn builtin() -> Self {
        let mut lib = KernelLib::empty();
        lib.register(kernel_id::GEMM, Box::new(Gemm));
        lib.register(kernel_id::LEAKY_RELU, Box::new(LeakyRelu));
        lib.register(kernel_id::MAXPOOL, Box::new(MaxPool));
        lib.register(kernel_id::CONV2D, Box::new(Conv2d));
        lib.register(kernel_id::CONV_LAYER_3CH, Box::new(ConvLayer3ch));
        lib.register(kernel_id::MAT_ADD, Box::new(MatAdd));
        lib.register(kernel_id::MAT_SCALE, Box::new(MatScale));
        lib.register(kernel_id::TRANSPOSE, Box::new(Transpose));
        lib
    }

    /// Registers (or replaces) the kernel behind `func5 = id`.
    ///
    /// # Panics
    ///
    /// Panics if `id >= 30`: [`FUNC5_XMB`] (`30`) launches descriptor
    /// batches and `31` encodes `xmr`.
    pub fn register(&mut self, id: u8, kernel: Box<dyn Kernel>) {
        assert!(id < FUNC5_XMB, "kernel ids are 0..=29");
        self.slots[id as usize] = Some(kernel);
    }

    /// Looks up the kernel behind `id`.
    ///
    /// # Errors
    ///
    /// Returns [`KernelError::UnknownKernel`] when the slot is empty.
    pub fn get(&self, id: u8) -> Result<&dyn Kernel, KernelError> {
        self.slots
            .get(id as usize)
            .and_then(|s| s.as_deref())
            .ok_or(KernelError::UnknownKernel { id })
    }
}

impl Default for KernelLib {
    fn default() -> Self {
        KernelLib::builtin()
    }
}

pub(crate) fn require(
    view: Option<MatView>,
    reg_name: &'static str,
) -> Result<MatView, KernelError> {
    view.ok_or(KernelError::ShapeMismatch { what: reg_name })
}

pub(crate) fn check_width(view: &MatView, width: Sew) -> Result<(), KernelError> {
    if view.sew == width {
        Ok(())
    } else {
        Err(KernelError::WidthMismatch)
    }
}

/// Rejects operands whose rows do not fit one vector register (the
/// one-line-per-row limit, `cols · esz ≤ VLEN_BYTES`). Each kernel's
/// `validate` passes every operand it loads or stores row by row, so a
/// too-wide row is refused before the preamble is booked.
pub(crate) fn check_rows(views: &[&MatView]) -> Result<(), KernelError> {
    match views.iter().find(|v| v.row_bytes() as usize > VLEN_BYTES) {
        Some(v) => Err(KernelError::RowTooWide {
            cols: v.cols,
            max: max_vl(v.sew),
        }),
        None => Ok(()),
    }
}

/// Vector register `i` of a kernel's register layout.
pub(crate) fn vr(i: usize) -> Vr {
    Vr::new(i as u8).expect("vreg index in range")
}

/// Scalar register `i`.
pub(crate) fn sr(i: u8) -> Sr {
    Sr::new(i).expect("sreg index in range")
}

/// The stripes `(first_row, rows)` that cover rows `0..total` in order:
/// `height` rows each, the last one shorter when `height` does not
/// divide `total`.
///
/// # Panics
///
/// Panics if `height` is zero.
pub(crate) fn stripes(total: usize, height: usize) -> impl Iterator<Item = (usize, usize)> {
    (0..total)
        .step_by(height)
        .map(move |row| (row, height.min(total - row)))
}

/// The `Sra` amount that shifts a `sew` element right by `shift`
/// (`0..32`): the VPU reduces amounts modulo the element width, but a
/// shift past the width must fill with the sign, as width − 1 does.
pub(crate) fn sra_amount(shift: i16, sew: Sew) -> u32 {
    (shift as u32).min(8 * sew.bytes() as u32 - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_library_has_table1_kernels() {
        let lib = KernelLib::builtin();
        assert_eq!(lib.slots.iter().flatten().count(), 8);
        assert_eq!(lib.get(kernel_id::GEMM).unwrap().name(), "gemm");
        assert_eq!(
            lib.get(kernel_id::CONV_LAYER_3CH).unwrap().name(),
            "conv_layer_3ch"
        );
        assert!(matches!(
            lib.get(9),
            Err(KernelError::UnknownKernel { id: 9 })
        ));
    }

    #[test]
    fn stripes_cover_every_row_once() {
        let got: Vec<_> = stripes(10, 4).collect();
        assert_eq!(got, [(0, 4), (4, 4), (8, 2)]);
        assert_eq!(stripes(8, 4).collect::<Vec<_>>(), [(0, 4), (4, 4)]);
        assert_eq!(stripes(0, 4).count(), 0);
    }

    #[test]
    #[should_panic(expected = "kernel ids are 0..=29")]
    fn registering_reserved_id_panics() {
        KernelLib::empty().register(31, Box::new(Gemm));
    }

    #[test]
    #[should_panic(expected = "kernel ids are 0..=29")]
    fn registering_the_xmb_id_panics() {
        KernelLib::empty().register(FUNC5_XMB, Box::new(Gemm));
    }
}
