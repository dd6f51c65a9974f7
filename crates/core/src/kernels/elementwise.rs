//! `xmk5`–`xmk7` — element-wise and data-movement kernels.
//!
//! The paper ships five kernels (Table I) but reserves `func5` space for
//! up to 31 and advertises the software-defined decoder as the extension
//! point. These three kernels exercise that headroom and are the
//! natural next entries of a tinyML library: matrix addition, scalar
//! scale-and-shift (requantisation) and transpose.

use super::{
    check_rows, check_width, require, sr, sra_amount, stripes, vr, Kernel, KernelError,
    ResolvedArgs,
};
use crate::runtime::ctx::KernelCtx;
use crate::runtime::map::MatView;
use arcane_isa::vector::{VInstr, VOp};
use arcane_vpu::VREGS;

/// `xmk5` — matrix addition: `R = A + B` (wrapping at the instruction
/// width). Operands: `md` = R, `ms1` = A, `ms2` = B.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct MatAdd;

impl Kernel for MatAdd {
    fn name(&self) -> &'static str {
        "mat_add"
    }

    fn validate(&self, args: &ResolvedArgs) -> Result<Vec<MatView>, KernelError> {
        let a = require(args.ms1, "mat_add needs ms1 (A)")?;
        let b = require(args.ms2, "mat_add needs ms2 (B)")?;
        check_width(&a, args.width)?;
        check_width(&b, args.width)?;
        check_width(&args.md, args.width)?;
        check_rows(&[&a, &b, &args.md])?;
        if (a.rows, a.cols) != (args.md.rows, args.md.cols)
            || (b.rows, b.cols) != (args.md.rows, args.md.cols)
        {
            return Err(KernelError::ShapeMismatch {
                what: "mat_add operands must share one shape",
            });
        }
        Ok(vec![a, b])
    }

    fn run(&self, args: &ResolvedArgs, ctx: &mut KernelCtx<'_>) -> Result<(), KernelError> {
        let a = args.ms1.expect("validated");
        let b = args.ms2.expect("validated");
        let sew = args.width;
        ctx.set_vl(a.cols, sew)?;
        // Stripe the rows: half the registers for A, half for B.
        let stripe = (VREGS / 2).max(1);
        for (row, n) in stripes(a.rows, stripe) {
            ctx.load_rows(&a, row, n, 0)?;
            ctx.load_rows(&b, row, n, stripe)?;
            for r in 0..n {
                ctx.exec(&[VInstr::OpVV {
                    op: VOp::Add,
                    vd: vr(r),
                    vs1: vr(r),
                    vs2: vr(stripe + r),
                }])?;
                ctx.store_row(r, args.md.cols, sew, args.md.row_addr(row + r));
            }
        }
        Ok(())
    }
}

/// `xmk6` — scale-and-shift (requantisation): `R = (A · α) >> β`
/// (arithmetic shift, wrapping at the instruction width).
/// Operands: `md` = R, `ms1` = A, `α` = multiplier, `β` = shift.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct MatScale;

impl Kernel for MatScale {
    fn name(&self) -> &'static str {
        "mat_scale"
    }

    fn validate(&self, args: &ResolvedArgs) -> Result<Vec<MatView>, KernelError> {
        let a = require(args.ms1, "mat_scale needs ms1 (A)")?;
        check_width(&a, args.width)?;
        check_width(&args.md, args.width)?;
        check_rows(&[&a, &args.md])?;
        if (a.rows, a.cols) != (args.md.rows, args.md.cols) {
            return Err(KernelError::ShapeMismatch {
                what: "mat_scale output shape must equal input shape",
            });
        }
        if args.beta < 0 || args.beta >= 32 {
            return Err(KernelError::ShapeMismatch {
                what: "mat_scale shift must be in 0..32",
            });
        }
        Ok(vec![a])
    }

    fn run(&self, args: &ResolvedArgs, ctx: &mut KernelCtx<'_>) -> Result<(), KernelError> {
        let a = args.ms1.expect("validated");
        let sew = args.width;
        ctx.set_vl(a.cols, sew)?;
        ctx.set_scalar(sr(2), args.alpha as i32 as u32);
        ctx.set_scalar(sr(3), sra_amount(args.beta, sew));
        let stripe = VREGS;
        for (row, n) in stripes(a.rows, stripe) {
            ctx.load_rows(&a, row, n, 0)?;
            for r in 0..n {
                ctx.exec(&[
                    VInstr::OpVX {
                        op: VOp::Mul,
                        vd: vr(r),
                        vs1: vr(r),
                        rs: sr(2),
                    },
                    VInstr::OpVX {
                        op: VOp::Sra,
                        vd: vr(r),
                        vs1: vr(r),
                        rs: sr(3),
                    },
                ])?;
                ctx.store_row(r, args.md.cols, sew, args.md.row_addr(row + r));
            }
        }
        Ok(())
    }
}

/// `xmk7` — transpose: `R = Aᵀ`. Operands: `md` = R (cols×rows),
/// `ms1` = A (rows×cols). Rows stream through the VPU and the 2-D DMA
/// scatters each one out as a destination column — the same
/// consolidation mechanism the writeback path uses (§IV-B3).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Transpose;

impl Kernel for Transpose {
    fn name(&self) -> &'static str {
        "transpose"
    }

    fn validate(&self, args: &ResolvedArgs) -> Result<Vec<MatView>, KernelError> {
        let a = require(args.ms1, "transpose needs ms1 (A)")?;
        check_width(&a, args.width)?;
        check_width(&args.md, args.width)?;
        // The destination is written column by column, so only `A`'s
        // rows must fit a register.
        check_rows(&[&a])?;
        if (a.rows, a.cols) != (args.md.cols, args.md.rows) {
            return Err(KernelError::ShapeMismatch {
                what: "transpose destination must be (A.cols, A.rows)",
            });
        }
        Ok(vec![a])
    }

    fn run(&self, args: &ResolvedArgs, ctx: &mut KernelCtx<'_>) -> Result<(), KernelError> {
        let a = args.ms1.expect("validated");
        let out = args.md;
        let sew = args.width;
        ctx.set_vl(a.cols, sew)?;
        let stripe = VREGS;
        let pitch = out.pitch_bytes();
        for (row, n) in stripes(a.rows, stripe) {
            ctx.load_rows(&a, row, n, 0)?;
            for r in 0..n {
                // Row (row + r) of A becomes column (row + r) of R.
                let dst = out.addr + (row + r) as u32 * sew.bytes() as u32;
                ctx.store_row_as_column(r, a.cols, sew, dst, pitch);
            }
        }
        Ok(())
    }
}
