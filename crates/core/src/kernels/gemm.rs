//! `xmk0` — General Matrix Multiplication.

use super::{check_rows, check_width, require, sr, stripes, vr, Kernel, KernelError, ResolvedArgs};
use crate::runtime::ctx::KernelCtx;
use crate::runtime::map::MatView;
use arcane_isa::vector::{VInstr, VOp};

/// GeMM: `R = α·(A × B) + β·C` with wrapping arithmetic at the
/// instruction width.
///
/// Operands (Table I): `md` = R (M×N), `ms1` = A (M×K), `ms2` = B (K×N),
/// `ms3` = C (M×N, consumed only when `β ≠ 0`).
///
/// The micro-program keeps a stripe of `R` rows as accumulators, loads
/// `B` in row tiles and drives `vmacc.vx` with the `A` scalars read
/// through the eCPU port — the row-broadcast formulation NM-Carus uses.
/// Each accumulator takes a tile's taps as one train
/// ([`KernelCtx::macc_taps`]).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Gemm;

/// Row-stripe height (accumulator registers).
const SM: usize = 8;
/// `B`-tile height (rows of B resident at once).
const TK: usize = 12;

impl Kernel for Gemm {
    fn name(&self) -> &'static str {
        "gemm"
    }

    fn validate(&self, args: &ResolvedArgs) -> Result<Vec<MatView>, KernelError> {
        let a = require(args.ms1, "gemm needs ms1 (A)")?;
        let b = require(args.ms2, "gemm needs ms2 (B)")?;
        check_width(&a, args.width)?;
        check_width(&b, args.width)?;
        check_width(&args.md, args.width)?;
        check_rows(&[&a, &b, &args.md])?;
        if a.cols != b.rows {
            return Err(KernelError::ShapeMismatch {
                what: "gemm inner dimensions (A.cols, B.rows) differ",
            });
        }
        if (args.md.rows, args.md.cols) != (a.rows, b.cols) {
            return Err(KernelError::ShapeMismatch {
                what: "gemm destination must be (A.rows, B.cols)",
            });
        }
        let mut sources = vec![a, b];
        if args.beta != 0 {
            let c = require(args.ms3, "gemm with beta != 0 needs ms3 (C)")?;
            check_width(&c, args.width)?;
            check_rows(&[&c])?;
            if (c.rows, c.cols) != (args.md.rows, args.md.cols) {
                return Err(KernelError::ShapeMismatch {
                    what: "gemm C must match the destination shape",
                });
            }
            sources.push(c);
        }
        Ok(sources)
    }

    fn run(&self, args: &ResolvedArgs, ctx: &mut KernelCtx<'_>) -> Result<(), KernelError> {
        let a = args.ms1.expect("validated");
        let b = args.ms2.expect("validated");
        let out = args.md;
        let sew = args.width;
        let (m_total, k_total) = (a.rows, a.cols);

        // Register layout: [0..SM) accumulators, [SM..2SM) A rows,
        // [2SM..2SM+TK) B tile, then C temp and scratch.
        let acc0 = 0;
        let arow0 = SM;
        let brow0 = 2 * SM;
        let ctmp = 2 * SM + TK;

        ctx.set_scalar(sr(0), 0);
        ctx.set_scalar(sr(2), args.alpha as i32 as u32);
        ctx.set_scalar(sr(3), args.beta as i32 as u32);

        for (m0, sm) in stripes(m_total, SM) {
            // A rows must fit one register each (cols = K).
            ctx.set_vl(k_total, sew)?;
            ctx.load_rows(&a, m0, sm, arow0)?;
            // Accumulators work at N elements.
            ctx.set_vl(b.cols, sew)?;
            for m in 0..sm {
                ctx.exec(&[VInstr::BroadcastX {
                    vd: vr(acc0 + m),
                    rs: sr(0),
                }])?;
            }
            for (k0, tk) in stripes(k_total, TK) {
                ctx.load_rows(&b, k0, tk, brow0)?;
                for m in 0..sm {
                    ctx.macc_taps(
                        vr(acc0 + m),
                        vr(arow0 + m),
                        k0..k0 + tk,
                        vr(brow0),
                        sr(1),
                        sew,
                    )?;
                }
            }
            // Scale and add beta*C, then write the stripe back.
            for m in 0..sm {
                if args.alpha != 1 {
                    ctx.exec(&[VInstr::OpVX {
                        op: VOp::Mul,
                        vd: vr(acc0 + m),
                        vs1: vr(acc0 + m),
                        rs: sr(2),
                    }])?;
                }
                if args.beta != 0 {
                    let c = args.ms3.expect("validated");
                    ctx.load_rows(&c, m0 + m, 1, ctmp)?;
                    ctx.exec(&[
                        VInstr::OpVX {
                            op: VOp::Mul,
                            vd: vr(ctmp),
                            vs1: vr(ctmp),
                            rs: sr(3),
                        },
                        VInstr::OpVV {
                            op: VOp::Add,
                            vd: vr(acc0 + m),
                            vs1: vr(acc0 + m),
                            vs2: vr(ctmp),
                        },
                    ])?;
                }
                ctx.store_row(acc0 + m, out.cols, sew, out.row_addr(m0 + m));
            }
        }
        Ok(())
    }
}
