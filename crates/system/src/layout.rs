//! Workload parameters and external-memory data layout.

use arcane_core::align_line;
use arcane_sim::Sew;

pub use arcane_core::EXT_BASE;

/// Instruction-memory size (4 × 32 KiB banks, as synthesized).
pub const IMEM_SIZE: usize = 128 * 1024;

/// Parameters of the 3-channel convolutional layer benchmark
/// (the workload of Figures 3 and 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConvLayerParams {
    /// Input height per channel plane.
    pub h: usize,
    /// Input width per channel plane.
    pub w: usize,
    /// Filter size (K×K per channel).
    pub k: usize,
    /// Element width.
    pub sew: Sew,
}

impl ConvLayerParams {
    /// Convenience constructor.
    pub const fn new(h: usize, w: usize, k: usize, sew: Sew) -> Self {
        ConvLayerParams { h, w, k, sew }
    }

    /// Convolution output height (valid convolution).
    pub const fn conv_h(&self) -> usize {
        self.h - self.k + 1
    }

    /// Convolution output width.
    pub const fn conv_w(&self) -> usize {
        self.w - self.k + 1
    }

    /// Even number of convolution rows the fused layer consumes.
    pub const fn conv_h_even(&self) -> usize {
        self.conv_h() & !1
    }

    /// Pooled output height.
    pub const fn pooled_h(&self) -> usize {
        self.conv_h_even() / 2
    }

    /// Pooled output width.
    pub const fn pooled_w(&self) -> usize {
        self.conv_w() / 2
    }

    /// Multiply–accumulate count of the convolution.
    pub const fn macs(&self) -> u64 {
        (self.conv_h() * self.conv_w() * 3 * self.k * self.k) as u64
    }

    /// XCVPULP padded filter row length in elements (dot-product
    /// chunking granularity: 4 for int8, 2 for int16, 1 for int32).
    pub const fn padded_k(&self) -> usize {
        match self.sew {
            Sew::Byte => self.k.div_ceil(4) * 4,
            Sew::Half => self.k.div_ceil(2) * 2,
            Sew::Word => self.k,
        }
    }
}

/// External-memory placement of every workload buffer, cache-line-aligned
/// with safety padding between regions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Layout {
    /// Input planes `A` (3 × H × W, stacked row-wise).
    pub a: u32,
    /// Filter planes `F` (3 × K × K, stacked row-wise, dense).
    pub f: u32,
    /// Padded filter copy for the XCVPULP kernel (rows padded to the
    /// dot-product chunk).
    pub f_padded: u32,
    /// Scratch buffer for the CPU baselines' convolution output
    /// (pre-pooling).
    pub temp: u32,
    /// Final pooled output `R`.
    pub r: u32,
    /// One past the last used byte.
    pub end: u32,
}

impl Layout {
    /// Computes the layout for a conv-layer workload.
    pub fn for_conv(p: &ConvLayerParams) -> Layout {
        let esz = p.sew.bytes() as u32;
        let a = EXT_BASE;
        let a_size = (3 * p.h * p.w) as u32 * esz + 64;
        let f = align_line(a + a_size);
        let f_size = (3 * p.k * p.k) as u32 * esz + 64;
        let f_padded = align_line(f + f_size);
        let fp_size = (3 * p.k * p.padded_k()) as u32 * esz + 64;
        let temp = align_line(f_padded + fp_size);
        let temp_size = (p.conv_h() * p.conv_w()) as u32 * esz + 64;
        let r = align_line(temp + temp_size);
        let r_size = (p.pooled_h().max(1) * p.pooled_w().max(1)) as u32 * esz + 64;
        Layout {
            a,
            f,
            f_padded,
            temp,
            r,
            end: align_line(r + r_size),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conv_dims() {
        let p = ConvLayerParams::new(8, 8, 3, Sew::Word);
        assert_eq!(p.conv_h(), 6);
        assert_eq!(p.conv_w(), 6);
        assert_eq!(p.pooled_h(), 3);
        assert_eq!(p.pooled_w(), 3);
        assert_eq!(p.macs(), 6 * 6 * 27);
    }

    #[test]
    fn odd_conv_rows_floor() {
        let p = ConvLayerParams::new(8, 8, 4, Sew::Word);
        assert_eq!(p.conv_h(), 5);
        assert_eq!(p.conv_h_even(), 4);
        assert_eq!(p.pooled_h(), 2);
    }

    #[test]
    fn padded_k_by_width() {
        assert_eq!(ConvLayerParams::new(8, 8, 3, Sew::Byte).padded_k(), 4);
        assert_eq!(ConvLayerParams::new(8, 8, 7, Sew::Byte).padded_k(), 8);
        assert_eq!(ConvLayerParams::new(8, 8, 3, Sew::Half).padded_k(), 4);
        assert_eq!(ConvLayerParams::new(8, 8, 7, Sew::Word).padded_k(), 7);
    }

    #[test]
    fn layout_regions_do_not_overlap() {
        let p = ConvLayerParams::new(256, 256, 7, Sew::Word);
        let l = Layout::for_conv(&p);
        assert!(l.a < l.f && l.f < l.f_padded && l.f_padded < l.temp);
        assert!(l.temp < l.r && l.r < l.end);
        // big workload still fits the 16 MiB external memory
        assert!(((l.end - EXT_BASE) as usize) < 16 << 20);
    }
}
