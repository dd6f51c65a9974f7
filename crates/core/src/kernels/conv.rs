//! `xmk3` / `xmk4` — 2-D convolution kernels.
//!
//! `xmk3` is a single-channel valid convolution; `xmk4` is the paper's
//! flagship fused kernel: a 3-channel convolutional layer integrating
//! 2-D convolution, ReLU activation and 2×2/2 max-pooling, supporting
//! matrices of arbitrary dimensions (§IV-A2).

use super::pool::out_dim;
use super::{check_rows, check_width, require, sr, stripes, vr, Kernel, KernelError, ResolvedArgs};
use crate::runtime::ctx::KernelCtx;
use crate::runtime::map::MatView;
use arcane_isa::vector::{VInstr, VOp};
use arcane_vpu::VREGS;

/// Emits the tap loop for one channel of one stripe: for every filter
/// tap `(ky, kx)` (filter row `ky` loaded in vreg `ky`), broadcast the
/// tap and fused-multiply-accumulate the slid input row into each
/// accumulator row.
fn accumulate_taps(
    ctx: &mut KernelCtx<'_>,
    k: usize,
    in0: usize,
    acc0: usize,
    tmp: usize,
    rows: usize,
    sew: arcane_sim::Sew,
) -> Result<(), KernelError> {
    for ky in 0..k {
        for kx in 0..k {
            let tap = ctx.peek(vr(ky), kx, sew) as i32 as u32;
            ctx.set_scalar(sr(1), tap);
            for sy in 0..rows {
                ctx.exec(&[
                    VInstr::SlideDown {
                        vd: vr(tmp),
                        vs1: vr(in0 + sy + ky),
                        offset: kx as u16,
                    },
                    VInstr::OpVX {
                        op: VOp::Macc,
                        vd: vr(acc0 + sy),
                        vs1: vr(tmp),
                        rs: sr(1),
                    },
                ])?;
            }
        }
    }
    Ok(())
}

/// Single-channel valid 2-D convolution:
/// `R[y][x] = Σ_{ky,kx} A[y+ky][x+kx] · F[ky][kx]`.
///
/// Operands (Table I): `md` = R, `ms1` = A (H×W), `ms2` = F (K×K).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Conv2d;

impl Kernel for Conv2d {
    fn name(&self) -> &'static str {
        "conv2d"
    }

    fn validate(&self, args: &ResolvedArgs) -> Result<Vec<MatView>, KernelError> {
        let a = require(args.ms1, "conv2d needs ms1 (input)")?;
        let f = require(args.ms2, "conv2d needs ms2 (filter)")?;
        check_width(&a, args.width)?;
        check_width(&f, args.width)?;
        check_width(&args.md, args.width)?;
        check_rows(&[&a, &f, &args.md])?;
        if f.rows != f.cols || f.rows == 0 {
            return Err(KernelError::ShapeMismatch {
                what: "conv2d filter must be square and non-empty",
            });
        }
        let k = f.rows;
        if regs_for(k, 1) > VREGS {
            return Err(KernelError::ShapeMismatch {
                what: "conv2d filter exceeds the vector register budget",
            });
        }
        if a.rows < k || a.cols < k {
            return Err(KernelError::ShapeMismatch {
                what: "conv2d input smaller than the filter",
            });
        }
        if (args.md.rows, args.md.cols) != (a.rows - k + 1, a.cols - k + 1) {
            return Err(KernelError::ShapeMismatch {
                what: "conv2d destination must be (H-K+1, W-K+1)",
            });
        }
        Ok(vec![a, f])
    }

    fn run(&self, args: &ResolvedArgs, ctx: &mut KernelCtx<'_>) -> Result<(), KernelError> {
        let a = args.ms1.expect("validated");
        let f = args.ms2.expect("validated");
        let out = args.md;
        let sew = args.width;
        let k = f.rows;

        // Layout: filter rows [0..k), inputs [k..k+S+K-1), accumulators
        // next, one scratch register last (`validate` checked that a
        // one-row stripe fits).
        let stripe = (VREGS.saturating_sub(2 + 2 * k) / 2).clamp(1, 8);
        let in0 = k;
        let acc0 = in0 + stripe + k - 1;
        let tmp = acc0 + stripe;

        ctx.set_scalar(sr(0), 0);
        ctx.set_vl(f.cols, sew)?;
        ctx.load_rows(&f, 0, k, 0)?;

        for (y0, rows) in stripes(out.rows, stripe) {
            ctx.set_vl(a.cols, sew)?;
            ctx.load_rows(&a, y0, rows + k - 1, in0)?;
            for sy in 0..rows {
                ctx.exec(&[VInstr::BroadcastX {
                    vd: vr(acc0 + sy),
                    rs: sr(0),
                }])?;
            }
            accumulate_taps(ctx, k, in0, acc0, tmp, rows, sew)?;
            for sy in 0..rows {
                ctx.store_row(acc0 + sy, out.cols, sew, out.row_addr(y0 + sy));
            }
        }
        Ok(())
    }
}

/// The fused 3-channel convolutional layer (`xmk4`): 3-channel valid
/// convolution summed across channels, ReLU, then 2×2 max-pooling with
/// stride 2.
///
/// Operands (Table I): `md` = pooled output, `ms1` = input planes
/// stacked row-wise (`3H × W`), `ms2` = filter planes stacked row-wise
/// (`3K × K`).
///
/// Extension (used by the multi-instance evaluation): `α`/`β` select a
/// *row slice* of the convolution output — `α` is the first conv row
/// and `β` the number of conv rows to compute (both must be even;
/// `β = 0` means the whole image). The destination is the pooled slice.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct ConvLayer3ch;

/// Pooling window/stride of the fused layer.
const POOL: usize = 2;

impl ConvLayer3ch {
    /// Conv-output geometry for an input of `rows × cols` stacked planes.
    fn conv_dims(a: &MatView, k: usize) -> (usize, usize, usize) {
        let h = a.rows / 3;
        (h, out_dim(h, k, 1), out_dim(a.cols, k, 1))
    }
}

impl Kernel for ConvLayer3ch {
    fn name(&self) -> &'static str {
        "conv_layer_3ch"
    }

    fn validate(&self, args: &ResolvedArgs) -> Result<Vec<MatView>, KernelError> {
        let a = require(args.ms1, "conv_layer needs ms1 (input planes)")?;
        let f = require(args.ms2, "conv_layer needs ms2 (filter planes)")?;
        check_width(&a, args.width)?;
        check_width(&f, args.width)?;
        check_width(&args.md, args.width)?;
        check_rows(&[&a, &f, &args.md])?;
        if a.rows % 3 != 0 {
            return Err(KernelError::ShapeMismatch {
                what: "conv_layer input must stack 3 channel planes row-wise",
            });
        }
        if f.cols == 0 || f.rows != 3 * f.cols {
            return Err(KernelError::ShapeMismatch {
                what: "conv_layer filter must stack 3 square planes row-wise",
            });
        }
        let k = f.cols;
        if regs_for(k, compute_stripe(VREGS, k)) > VREGS {
            return Err(KernelError::ShapeMismatch {
                what: "conv_layer filter exceeds the vector register budget",
            });
        }
        let (h, ch, cw) = Self::conv_dims(&a, k);
        if h < k || a.cols < k {
            return Err(KernelError::ShapeMismatch {
                what: "conv_layer input plane smaller than the filter",
            });
        }
        let (y0, n_rows) = slice_params(args, ch)?;
        let _ = y0;
        let (ph, pw) = (n_rows / POOL, cw / POOL);
        if (args.md.rows, args.md.cols) != (ph, pw) {
            return Err(KernelError::ShapeMismatch {
                what: "conv_layer destination must be the pooled slice shape",
            });
        }
        Ok(vec![a, f])
    }

    fn run(&self, args: &ResolvedArgs, ctx: &mut KernelCtx<'_>) -> Result<(), KernelError> {
        let a = args.ms1.expect("validated");
        let f = args.ms2.expect("validated");
        let out = args.md;
        let sew = args.width;
        let k = f.cols;
        let (h, ch, cw) = Self::conv_dims(&a, k);
        let (y0_slice, n_rows) = slice_params(args, ch).expect("validated");
        let pw = cw / POOL;

        // Layout: filter plane [0..k), inputs [k..k+S+K-1),
        // accumulators next, one scratch last.
        let stripe = compute_stripe(VREGS, k);
        let in0 = k;
        let acc0 = in0 + stripe + k - 1;
        let tmp = acc0 + stripe;

        ctx.set_scalar(sr(0), 0);

        for (y, rows) in stripes(n_rows, stripe) {
            let y0 = y0_slice + y;
            ctx.set_vl(a.cols, sew)?;
            for sy in 0..rows {
                ctx.exec(&[VInstr::BroadcastX {
                    vd: vr(acc0 + sy),
                    rs: sr(0),
                }])?;
            }
            // One channel at a time: its filter plane and its input rows.
            for c in 0..3 {
                ctx.set_vl(f.cols, sew)?;
                ctx.load_rows(&f, c * k, k, 0)?;
                ctx.set_vl(a.cols, sew)?;
                ctx.load_rows(&a, c * h + y0, rows + k - 1, in0)?;
                accumulate_taps(ctx, k, in0, acc0, tmp, rows, sew)?;
            }
            // ReLU on every conv row of the stripe.
            for sy in 0..rows {
                ctx.exec(&[VInstr::OpVX {
                    op: VOp::Max,
                    vd: vr(acc0 + sy),
                    vs1: vr(acc0 + sy),
                    rs: sr(0),
                }])?;
            }
            // 2x2/2 max-pool: vertical pair reduction, then horizontal
            // neighbour max; valid results land at even indices.
            for p in 0..rows / POOL {
                let top = acc0 + 2 * p;
                ctx.exec(&[
                    VInstr::OpVV {
                        op: VOp::Max,
                        vd: vr(top),
                        vs1: vr(top),
                        vs2: vr(top + 1),
                    },
                    VInstr::SlideDown {
                        vd: vr(tmp),
                        vs1: vr(top),
                        offset: 1,
                    },
                    VInstr::OpVV {
                        op: VOp::Max,
                        vd: vr(top),
                        vs1: vr(top),
                        vs2: vr(tmp),
                    },
                ])?;
                let pooled_row = y / POOL + p;
                ctx.store_row_strided(top, 0, POOL, pw, sew, out.row_addr(pooled_row));
            }
        }
        Ok(())
    }
}

/// Decodes the `α`/`β` row-slice extension; returns `(first_row, rows)`.
fn slice_params(args: &ResolvedArgs, conv_rows: usize) -> Result<(usize, usize), KernelError> {
    let even_rows = conv_rows & !1;
    let (y0, n) = if args.beta == 0 {
        (0, even_rows)
    } else {
        (args.alpha as usize, args.beta as usize)
    };
    if y0 % POOL != 0 || n % POOL != 0 || y0 + n > conv_rows.max(1) || n == 0 {
        return Err(KernelError::ShapeMismatch {
            what: "conv_layer row slice must be even-aligned and within the image",
        });
    }
    Ok((y0, n))
}

/// Vector registers a stripe of `stripe` output rows takes under a
/// `k × k` filter: `k` (filter) + `stripe + k - 1` (inputs) + `stripe`
/// (accumulators) + 1 (scratch).
const fn regs_for(k: usize, stripe: usize) -> usize {
    2 * k + 2 * stripe
}

/// Largest even stripe height fitting the register budget
/// ([`regs_for`]), at least 2: a filter too large for even that is
/// rejected by `validate`.
fn compute_stripe(vregs: usize, k: usize) -> usize {
    let budget = vregs as isize - 2 * k as isize;
    let s = (budget / 2).max(2) as usize & !1;
    s.clamp(2, 8)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stripe_fits_register_budget() {
        for k in 1usize..=14 {
            let s = compute_stripe(32, k);
            assert!(s >= 2 && s.is_multiple_of(2), "k={k}: stripe {s}");
            assert!(regs_for(k, s) <= 32, "k={k}: stripe {s} overflows");
        }
        assert!(
            regs_for(15, compute_stripe(32, 15)) > 32,
            "k=15 is rejected"
        );
    }
}
