//! `xmk2` — 2-D max-pooling.

use super::{check_rows, check_width, require, vr, Kernel, KernelError, ResolvedArgs};
use crate::runtime::ctx::KernelCtx;
use crate::runtime::map::MatView;
use arcane_isa::vector::{VInstr, VOp};
use arcane_vpu::VREGS;

/// Max-pooling with window `β` and stride `α` (Table I: `stride`,
/// `win_size`): `out[y][x] = max A[y·s .. y·s+w)[x·s .. x·s+w)`.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct MaxPool;

/// Output dimension of a pooling/convolution sweep.
pub(crate) fn out_dim(input: usize, win: usize, stride: usize) -> usize {
    if input < win {
        0
    } else {
        (input - win) / stride + 1
    }
}

impl Kernel for MaxPool {
    fn name(&self) -> &'static str {
        "maxpool"
    }

    fn validate(&self, args: &ResolvedArgs) -> Result<Vec<MatView>, KernelError> {
        let ms1 = require(args.ms1, "maxpool needs ms1")?;
        check_width(&ms1, args.width)?;
        check_width(&args.md, args.width)?;
        check_rows(&[&ms1, &args.md])?;
        let stride = args.alpha as usize;
        let win = args.beta as usize;
        if args.alpha < 1 || args.beta < 1 {
            return Err(KernelError::ShapeMismatch {
                what: "maxpool stride and window must be >= 1",
            });
        }
        if win > ms1.rows || win > ms1.cols {
            return Err(KernelError::ShapeMismatch {
                what: "maxpool window exceeds the input",
            });
        }
        // `run` holds the window's rows plus the vertical maximum, the
        // sweep accumulator and its scratch.
        if win + 3 > VREGS {
            return Err(KernelError::ShapeMismatch {
                what: "maxpool window exceeds the vector register budget",
            });
        }
        let oh = out_dim(ms1.rows, win, stride);
        let ow = out_dim(ms1.cols, win, stride);
        if (args.md.rows, args.md.cols) != (oh, ow) {
            return Err(KernelError::ShapeMismatch {
                what: "maxpool destination shape must be ((r-w)/s+1, (c-w)/s+1)",
            });
        }
        Ok(vec![ms1])
    }

    fn run(&self, args: &ResolvedArgs, ctx: &mut KernelCtx<'_>) -> Result<(), KernelError> {
        let input = args.ms1.expect("validated");
        let out = args.md;
        let sew = args.width;
        let stride = args.alpha as usize;
        let win = args.beta as usize;

        ctx.set_vl(input.cols, sew)?;
        let vmax = vr(win); // vertical max
        let acc = vr(win + 1); // horizontal sweep accumulator
        let tmp = vr(win + 2);

        for y in 0..out.rows {
            // Allocate the `win` input rows of this output row.
            ctx.load_rows(&input, y * stride, win, 0)?;
            // Vertical reduction.
            ctx.exec(&[VInstr::Move {
                vd: vmax,
                vs1: vr(0),
            }])?;
            for r in 1..win {
                ctx.exec(&[VInstr::OpVV {
                    op: VOp::Max,
                    vd: vmax,
                    vs1: vmax,
                    vs2: vr(r),
                }])?;
            }
            // Horizontal sweep: acc[x] = max(vmax[x .. x+win)).
            ctx.exec(&[VInstr::Move { vd: acc, vs1: vmax }])?;
            for kx in 1..win {
                ctx.exec(&[
                    VInstr::SlideDown {
                        vd: tmp,
                        vs1: vmax,
                        offset: kx as u16,
                    },
                    VInstr::OpVV {
                        op: VOp::Max,
                        vd: acc,
                        vs1: acc,
                        vs2: tmp,
                    },
                ])?;
            }
            // Window maxima sit at every `stride`-th element.
            ctx.store_row_strided(win + 1, 0, stride, out.cols, sew, out.row_addr(y));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn out_dim_formula() {
        assert_eq!(out_dim(8, 2, 2), 4);
        assert_eq!(out_dim(7, 2, 2), 3);
        assert_eq!(out_dim(5, 3, 1), 3);
        assert_eq!(out_dim(2, 3, 1), 0);
    }
}
