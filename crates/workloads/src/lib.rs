//! Workload generators and golden reference kernels.
//!
//! The ARCANE evaluation uses synthetic matrix workloads (ImageNet-like
//! 3-channel convolutional layers, GeMM, pooling, activations). This
//! crate provides:
//!
//! * [`Matrix`] — a width-agnostic integer matrix with little-endian
//!   (de)serialisation at any [`Sew`];
//! * seeded random generators (reproducible across runs);
//! * golden reference implementations of every Table I kernel with the
//!   same wrapping two's-complement semantics as the VPU datapath —
//!   the oracle every simulator result is checked against.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod golden;
mod matrix;

pub use golden::{
    conv2d, conv_layer_3ch, conv_layer_3ch_cpu, depthwise_conv, gemm, leaky_relu, mat_add,
    mat_scale, maxpool, transpose,
};
pub use matrix::Matrix;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use arcane_sim::Sew;

/// Deterministic RNG for workload generation.
pub fn rng(seed: u64) -> SmallRng {
    SmallRng::seed_from_u64(seed)
}

/// Generates a `rows × cols` matrix of small random values
/// (within ±range, clamped to the element width).
pub fn random_matrix(rng: &mut SmallRng, rows: usize, cols: usize, sew: Sew, range: i64) -> Matrix {
    let lim = match sew {
        Sew::Byte => range.min(i8::MAX as i64),
        Sew::Half => range.min(i16::MAX as i64),
        Sew::Word => range.min(i32::MAX as i64),
    };
    let mut m = Matrix::zero(rows, cols);
    for r in 0..rows {
        for c in 0..cols {
            m.set(r, c, rng.random_range(-lim..=lim));
        }
    }
    m
}

/// Wraps `v` into the signed range of `sew` (the VPU datapath
/// semantics).
pub fn wrap(v: i64, sew: Sew) -> i64 {
    match sew {
        Sew::Byte => v as i8 as i64,
        Sew::Half => v as i16 as i64,
        Sew::Word => v as i32 as i64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let a = random_matrix(&mut rng(7), 4, 4, Sew::Byte, 100);
        let b = random_matrix(&mut rng(7), 4, 4, Sew::Byte, 100);
        assert_eq!(a, b);
    }

    #[test]
    fn values_respect_width() {
        let m = random_matrix(&mut rng(1), 16, 16, Sew::Byte, 1_000_000);
        for r in 0..16 {
            for c in 0..16 {
                let v = m.get(r, c);
                assert!((i8::MIN as i64..=i8::MAX as i64).contains(&v));
            }
        }
    }

    #[test]
    fn wrap_matches_casts() {
        assert_eq!(wrap(130, Sew::Byte), -126);
        assert_eq!(wrap(65536, Sew::Half), 0);
        assert_eq!(wrap(i64::from(i32::MAX) + 1, Sew::Word), i32::MIN as i64);
    }
}
