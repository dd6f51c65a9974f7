//! `xmk1` — LeakyReLU activation.

use super::{
    check_rows, check_width, require, sr, sra_amount, stripes, vr, Kernel, KernelError,
    ResolvedArgs,
};
use crate::runtime::ctx::KernelCtx;
use crate::runtime::map::MatView;
use arcane_isa::vector::{VInstr, VOp};
use arcane_vpu::VREGS;

/// LeakyReLU: `out = x ≥ 0 ? x : x >> α` (negative slope `2^-α`,
/// the shift-based form used by quantised integer networks).
///
/// Operands (Table I): `md` = output, `ms1` = input, `α` = slope shift.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct LeakyRelu;

impl Kernel for LeakyRelu {
    fn name(&self) -> &'static str {
        "leaky_relu"
    }

    fn validate(&self, args: &ResolvedArgs) -> Result<Vec<MatView>, KernelError> {
        let ms1 = require(args.ms1, "leaky_relu needs ms1")?;
        check_width(&ms1, args.width)?;
        check_width(&args.md, args.width)?;
        check_rows(&[&ms1, &args.md])?;
        if (ms1.rows, ms1.cols) != (args.md.rows, args.md.cols) {
            return Err(KernelError::ShapeMismatch {
                what: "leaky_relu output shape must equal input shape",
            });
        }
        if args.alpha < 0 || args.alpha >= 32 {
            return Err(KernelError::ShapeMismatch {
                what: "leaky_relu slope shift must be in 0..32",
            });
        }
        Ok(vec![ms1])
    }

    fn run(&self, args: &ResolvedArgs, ctx: &mut KernelCtx<'_>) -> Result<(), KernelError> {
        let input = args.ms1.expect("validated");
        let out = args.md;
        let sew = args.width;
        ctx.set_vl(input.cols, sew)?;
        ctx.set_scalar(sr(0), 0);
        ctx.set_scalar(sr(1), sra_amount(args.alpha, sew));

        // Stripe: rows in vregs 0..stripe, scratch in the last register.
        let stripe = VREGS - 1;
        let tmp = vr(VREGS - 1);
        for (row, n) in stripes(input.rows, stripe) {
            ctx.load_rows(&input, row, n, 0)?;
            for r in 0..n {
                let x = vr(r);
                ctx.exec(&[
                    // tmp = min(x, 0) >> alpha  (negative part, scaled)
                    VInstr::OpVX {
                        op: VOp::Min,
                        vd: tmp,
                        vs1: x,
                        rs: sr(0),
                    },
                    VInstr::OpVX {
                        op: VOp::Sra,
                        vd: tmp,
                        vs1: tmp,
                        rs: sr(1),
                    },
                    // x = max(x, 0) + tmp
                    VInstr::OpVX {
                        op: VOp::Max,
                        vd: x,
                        vs1: x,
                        rs: sr(0),
                    },
                    VInstr::OpVV {
                        op: VOp::Add,
                        vd: x,
                        vs1: x,
                        vs2: tmp,
                    },
                ])?;
                ctx.store_row(r, out.cols, sew, out.row_addr(row + r));
            }
        }
        Ok(())
    }
}
