//! Golden reference kernels: bit-exact oracles for every Table I
//! kernel, with the same wrapping two's-complement semantics as the VPU
//! datapath and the CPU baselines.

use crate::matrix::Matrix;
use crate::wrap;
use arcane_sim::Sew;

/// GeMM: `R = α·(A × B) + β·C`, wrapping at `sew` after every step.
///
/// # Panics
///
/// Panics on inconsistent shapes.
pub fn gemm(a: &Matrix, b: &Matrix, c: Option<&Matrix>, alpha: i64, beta: i64, sew: Sew) -> Matrix {
    assert_eq!(a.cols(), b.rows(), "gemm inner dimension");
    let mut r = Matrix::zero(a.rows(), b.cols());
    for i in 0..a.rows() {
        for j in 0..b.cols() {
            let mut acc = 0i64;
            for k in 0..a.cols() {
                acc = wrap(
                    acc.wrapping_add(wrap(a.get(i, k).wrapping_mul(b.get(k, j)), sew)),
                    sew,
                );
            }
            let mut v = wrap(acc.wrapping_mul(alpha), sew);
            if beta != 0 {
                let c = c.expect("beta != 0 requires C");
                v = wrap(
                    v.wrapping_add(wrap(c.get(i, j).wrapping_mul(beta), sew)),
                    sew,
                );
            }
            r.set(i, j, v);
        }
    }
    r
}

/// LeakyReLU with shift-based negative slope: `x ≥ 0 ? x : x >> shift`.
pub fn leaky_relu(x: &Matrix, shift: u32, sew: Sew) -> Matrix {
    let mut r = Matrix::zero(x.rows(), x.cols());
    for i in 0..x.rows() {
        for j in 0..x.cols() {
            let v = x.get(i, j);
            r.set(i, j, wrap(if v >= 0 { v } else { v >> shift }, sew));
        }
    }
    r
}

/// 2-D max-pooling with window `win` and stride `stride`.
///
/// # Panics
///
/// Panics if the window exceeds the input.
pub fn maxpool(x: &Matrix, win: usize, stride: usize) -> Matrix {
    assert!(win <= x.rows() && win <= x.cols(), "window exceeds input");
    let oh = (x.rows() - win) / stride + 1;
    let ow = (x.cols() - win) / stride + 1;
    let mut r = Matrix::zero(oh, ow);
    for y in 0..oh {
        for xo in 0..ow {
            let mut m = i64::MIN;
            for ky in 0..win {
                for kx in 0..win {
                    m = m.max(x.get(y * stride + ky, xo * stride + kx));
                }
            }
            r.set(y, xo, m);
        }
    }
    r
}

/// Single-channel valid 2-D convolution, wrapping at `sew`.
///
/// # Panics
///
/// Panics if the filter exceeds the input.
pub fn conv2d(a: &Matrix, f: &Matrix, sew: Sew) -> Matrix {
    assert_eq!(f.rows(), f.cols(), "square filter");
    let k = f.rows();
    assert!(k <= a.rows() && k <= a.cols(), "filter exceeds input");
    let oh = a.rows() - k + 1;
    let ow = a.cols() - k + 1;
    let mut r = Matrix::zero(oh, ow);
    for y in 0..oh {
        for x in 0..ow {
            let mut acc = 0i64;
            for ky in 0..k {
                for kx in 0..k {
                    acc = wrap(
                        acc.wrapping_add(wrap(
                            a.get(y + ky, x + kx).wrapping_mul(f.get(ky, kx)),
                            sew,
                        )),
                        sew,
                    );
                }
            }
            r.set(y, x, acc);
        }
    }
    r
}

/// The fused 3-channel convolutional layer (`xmk4` semantics):
/// per-channel valid convolution summed across channels, ReLU, then
/// 2×2/2 max-pooling.
///
/// `a` stacks the three input planes row-wise (`3H × W`); `f` stacks the
/// three `K × K` filter planes row-wise (`3K × K`).
///
/// # Panics
///
/// Panics on inconsistent plane geometry.
pub fn conv_layer_3ch(a: &Matrix, f: &Matrix, sew: Sew) -> Matrix {
    assert_eq!(a.rows() % 3, 0, "input must stack 3 planes");
    assert_eq!(f.rows(), 3 * f.cols(), "filter must stack 3 square planes");
    let (h, k) = (a.rows() / 3, f.cols());
    let planes: Vec<Matrix> = (0..3)
        .map(|c| conv2d(&a.row_slice(c * h, h), &f.row_slice(c * k, k), sew))
        .collect();
    // Pooling consumes conv rows in pairs: an odd last row is dropped.
    let (oh, ow) = (planes[0].rows() & !1, planes[0].cols());
    let mut relu = Matrix::zero(oh, ow);
    for y in 0..oh {
        for x in 0..ow {
            let sum = planes
                .iter()
                .fold(0i64, |acc, p| wrap(acc.wrapping_add(p.get(y, x)), sew));
            relu.set(y, x, sum.max(0));
        }
    }
    maxpool(&relu, 2, 2)
}

/// CPU-semantics variant of the fused layer: accumulation in 32-bit
/// registers (no per-step wrapping), ReLU on the 32-bit value, then the
/// result *wraps on store* at `sew` before pooling — exactly what the
/// RV32 scalar and XCVPULP baselines compute. For `Sew::Word` this
/// coincides with [`conv_layer_3ch`].
///
/// # Panics
///
/// Panics on inconsistent plane geometry.
pub fn conv_layer_3ch_cpu(a: &Matrix, f: &Matrix, sew: Sew) -> Matrix {
    assert_eq!(a.rows() % 3, 0, "input must stack 3 planes");
    assert_eq!(f.rows(), 3 * f.cols(), "filter must stack 3 square planes");
    let h = a.rows() / 3;
    let k = f.cols();
    let oh = h - k + 1;
    let ow = a.cols() - k + 1;
    let mut conv = Matrix::zero(oh, ow);
    for y in 0..oh {
        for x in 0..ow {
            let mut acc = 0i32;
            for c in 0..3 {
                for ky in 0..k {
                    for kx in 0..k {
                        let av = a.get(c * h + y + ky, x + kx) as i32;
                        let fv = f.get(c * k + ky, kx) as i32;
                        acc = acc.wrapping_add(av.wrapping_mul(fv));
                    }
                }
            }
            let relu = acc.max(0) as i64;
            conv.set(y, x, wrap(relu, sew));
        }
    }
    maxpool(&conv.row_slice(0, oh & !1), 2, 2)
}

/// Element-wise matrix addition, wrapping at `sew` (`xmk5` semantics).
///
/// # Panics
///
/// Panics on mismatched shapes.
pub fn mat_add(a: &Matrix, b: &Matrix, sew: Sew) -> Matrix {
    assert_eq!((a.rows(), a.cols()), (b.rows(), b.cols()), "shape mismatch");
    let mut r = Matrix::zero(a.rows(), a.cols());
    for i in 0..a.rows() {
        for j in 0..a.cols() {
            r.set(i, j, wrap(a.get(i, j).wrapping_add(b.get(i, j)), sew));
        }
    }
    r
}

/// Scale-and-shift requantisation: `R = (A · alpha) >> shift`, the
/// multiply wrapping at `sew` before the arithmetic shift
/// (`xmk6` semantics).
pub fn mat_scale(a: &Matrix, alpha: i64, shift: u32, sew: Sew) -> Matrix {
    let mut r = Matrix::zero(a.rows(), a.cols());
    for i in 0..a.rows() {
        for j in 0..a.cols() {
            let scaled = wrap(a.get(i, j).wrapping_mul(alpha), sew);
            r.set(i, j, wrap(scaled >> shift, sew));
        }
    }
    r
}

/// Matrix transpose (`xmk7` semantics).
pub fn transpose(a: &Matrix) -> Matrix {
    let mut r = Matrix::zero(a.cols(), a.rows());
    for i in 0..a.rows() {
        for j in 0..a.cols() {
            r.set(j, i, a.get(i, j));
        }
    }
    r
}

/// Depthwise valid 2-D convolution over `channels` stacked planes: each
/// input plane is convolved with **its own** filter plane, with no
/// cross-channel sum (the first half of a depthwise-separable layer).
///
/// `a` stacks the planes row-wise (`C·H × W`); `f` stacks the `K × K`
/// filter planes row-wise (`C·K × K`). The output stacks the per-channel
/// conv planes row-wise (`C·H' × W'`).
///
/// # Panics
///
/// Panics on inconsistent plane geometry.
pub fn depthwise_conv(a: &Matrix, f: &Matrix, channels: usize, sew: Sew) -> Matrix {
    assert!(channels > 0, "at least one channel");
    assert_eq!(a.rows() % channels, 0, "input must stack C planes");
    assert_eq!(f.rows(), channels * f.cols(), "filter must stack C planes");
    let h = a.rows() / channels;
    let k = f.cols();
    let (oh, ow) = (h - k + 1, a.cols() - k + 1);
    let mut out = Matrix::zero(channels * oh, ow);
    for c in 0..channels {
        let plane = conv2d(&a.row_slice(c * h, h), &f.row_slice(c * k, k), sew);
        for y in 0..oh {
            for x in 0..ow {
                out.set(c * oh + y, x, plane.get(y, x));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gemm_identity() {
        let a = Matrix::from_values(2, 2, &[1, 2, 3, 4]);
        let id = Matrix::from_values(2, 2, &[1, 0, 0, 1]);
        let r = gemm(&a, &id, None, 1, 0, Sew::Word);
        assert_eq!(r, a);
    }

    #[test]
    fn gemm_alpha_beta() {
        let a = Matrix::from_values(1, 2, &[1, 2]);
        let b = Matrix::from_values(2, 1, &[3, 4]);
        let c = Matrix::from_values(1, 1, &[10]);
        // 2*(1*3+2*4) + 3*10 = 22 + 30 = 52
        let r = gemm(&a, &b, Some(&c), 2, 3, Sew::Word);
        assert_eq!(r.get(0, 0), 52);
    }

    #[test]
    fn gemm_wraps_at_byte() {
        let a = Matrix::from_values(1, 1, &[100]);
        let b = Matrix::from_values(1, 1, &[2]);
        let r = gemm(&a, &b, None, 1, 0, Sew::Byte);
        assert_eq!(r.get(0, 0), 200i64 as i8 as i64);
    }

    #[test]
    fn leaky_relu_shift() {
        let x = Matrix::from_values(1, 3, &[8, -8, 0]);
        let r = leaky_relu(&x, 2, Sew::Word);
        assert_eq!(r.get(0, 0), 8);
        assert_eq!(r.get(0, 1), -2);
        assert_eq!(r.get(0, 2), 0);
    }

    #[test]
    fn maxpool_2x2() {
        let x = Matrix::from_values(2, 4, &[1, 5, 2, 0, 3, 4, 8, -1]);
        let r = maxpool(&x, 2, 2);
        assert_eq!(r.get(0, 0), 5);
        assert_eq!(r.get(0, 1), 8);
    }

    #[test]
    fn conv2d_known_answer() {
        let a = Matrix::from_values(3, 3, &[1, 2, 3, 4, 5, 6, 7, 8, 9]);
        let f = Matrix::from_values(2, 2, &[1, 0, 0, 1]);
        let r = conv2d(&a, &f, Sew::Word);
        assert_eq!(r.get(0, 0), 1 + 5);
        assert_eq!(r.get(1, 1), 5 + 9);
    }

    #[test]
    fn conv_layer_all_ones() {
        // 3 planes of 4x4 ones, 3 filters of 3x3 ones -> conv = 27
        // everywhere; pooled output is a single 27.
        let a = Matrix::from_values(12, 4, &[1; 48]);
        let f = Matrix::from_values(9, 3, &[1; 27]);
        let r = conv_layer_3ch(&a, &f, Sew::Word);
        assert_eq!((r.rows(), r.cols()), (1, 1));
        assert_eq!(r.get(0, 0), 27);
    }

    #[test]
    fn depthwise_is_per_channel_conv() {
        let mut rng = crate::rng(11);
        let a = crate::random_matrix(&mut rng, 3 * 6, 6, Sew::Byte, 4);
        let f = crate::random_matrix(&mut rng, 3 * 3, 3, Sew::Byte, 4);
        let got = depthwise_conv(&a, &f, 3, Sew::Byte);
        assert_eq!((got.rows(), got.cols()), (3 * 4, 4));
        for c in 0..3 {
            let want = conv2d(&a.row_slice(c * 6, 6), &f.row_slice(c * 3, 3), Sew::Byte);
            assert_eq!(got.row_slice(c * 4, 4), want, "channel {c}");
        }
    }
}
