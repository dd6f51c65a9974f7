//! The X-HEEP-style 2-D DMA engine (paper §III-A4).
//!
//! During kernel allocation the eCPU programs 2-D transactions that move
//! operands from main memory into the selected VPU in the required
//! matrix layout; during writeback it consolidates scattered
//! matrix-shaped data back into a contiguous array. Both directions are
//! strided row-by-row copies, priced by a setup cost, a per-row cost and
//! the bus width.

use crate::bus::BusError;
use crate::storage::Memory;

/// One 2-D DMA transaction: `rows` rows of `cols` elements of
/// `elem_bytes` each, with independent source and destination strides
/// (expressed in bytes between consecutive row starts).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DmaJob {
    /// Source base address.
    pub src: u32,
    /// Destination base address.
    pub dst: u32,
    /// Element size in bytes (1, 2 or 4).
    pub elem_bytes: u32,
    /// Elements per row.
    pub cols: u32,
    /// Number of rows.
    pub rows: u32,
    /// Bytes between consecutive source row starts.
    pub src_stride: u32,
    /// Bytes between consecutive destination row starts.
    pub dst_stride: u32,
}

impl DmaJob {
    /// A dense 1-D copy of `bytes` bytes.
    pub fn linear(src: u32, dst: u32, bytes: u32) -> Self {
        DmaJob {
            src,
            dst,
            elem_bytes: 1,
            cols: bytes,
            rows: 1,
            src_stride: bytes,
            dst_stride: bytes,
        }
    }

    /// Payload bytes moved by the job.
    pub const fn bytes(&self) -> u64 {
        self.rows as u64 * self.cols as u64 * self.elem_bytes as u64
    }

    /// Bytes in one row.
    pub const fn row_bytes(&self) -> u32 {
        self.cols * self.elem_bytes
    }
}

/// Timing parameters of the DMA engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DmaTiming {
    /// Cycles to program and start a transaction (register writes,
    /// channel arbitration).
    pub setup: u64,
    /// Extra cycles per row (address regeneration).
    pub per_row: u64,
    /// Payload bandwidth in bytes per cycle (bus width).
    pub bytes_per_cycle: u64,
}

impl DmaTiming {
    /// Cycles consumed by `job` under this timing model.
    pub fn cycles(&self, job: &DmaJob) -> u64 {
        let payload = job.bytes().div_ceil(self.bytes_per_cycle.max(1));
        self.setup + self.per_row * job.rows as u64 + payload
    }
}

impl Default for DmaTiming {
    /// 32-bit bus, 8-cycle setup, 1 cycle per row — the X-HEEP DMA
    /// figures used throughout the evaluation.
    fn default() -> Self {
        DmaTiming {
            setup: 8,
            per_row: 1,
            bytes_per_cycle: 4,
        }
    }
}

/// The 2-D DMA engine.
///
/// The engine is stateless between jobs; [`Dma2d::execute`] performs the
/// copy functionally and returns the cycles consumed.
///
/// # Examples
///
/// ```
/// use arcane_mem::{Dma2d, DmaJob, DmaTiming, Memory, Sram};
///
/// let mut src = Sram::new(0, 64);
/// let mut dst = Sram::new(0x100, 64);
/// src.write_bytes(0, &[1, 2, 3, 4, 5, 6]).unwrap();
/// // Move a 2x3 byte matrix with source stride 3, destination stride 16.
/// let job = DmaJob { src: 0, dst: 0x100, elem_bytes: 1, cols: 3, rows: 2,
///                    src_stride: 3, dst_stride: 16 };
/// let dma = Dma2d::new(DmaTiming::default());
/// let cycles = dma.execute(&job, &mut src, &mut dst).unwrap();
/// assert!(cycles > 0);
/// let mut row1 = [0u8; 3];
/// dst.read_bytes(0x110, &mut row1).unwrap();
/// assert_eq!(row1, [4, 5, 6]);
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct Dma2d {
    timing: DmaTiming,
}

impl Dma2d {
    /// Creates a DMA engine with the given timing.
    pub fn new(timing: DmaTiming) -> Self {
        Dma2d { timing }
    }

    /// The engine's timing parameters.
    pub const fn timing(&self) -> DmaTiming {
        self.timing
    }

    /// Executes `job`, copying from `src_mem` to `dst_mem`.
    ///
    /// Returns the cycles the transaction occupied the DMA channel.
    ///
    /// # Errors
    ///
    /// Returns [`BusError`] if any row falls outside either device;
    /// rows already copied remain copied (the hardware behaves the same
    /// way on a bus error).
    pub fn execute<S: Memory + ?Sized, D: Memory + ?Sized>(
        &self,
        job: &DmaJob,
        src_mem: &S,
        dst_mem: &mut D,
    ) -> Result<u64, BusError> {
        let row_bytes = job.row_bytes() as usize;
        let mut row = vec![0u8; row_bytes];
        for r in 0..job.rows {
            let s = job.src.wrapping_add(r.wrapping_mul(job.src_stride));
            let d = job.dst.wrapping_add(r.wrapping_mul(job.dst_stride));
            src_mem.read_bytes(s, &mut row)?;
            dst_mem.write_bytes(d, &row)?;
        }
        Ok(self.timing.cycles(job))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::Sram;

    #[test]
    fn linear_copy_moves_everything() {
        let mut src = Sram::new(0, 32);
        let mut dst = Sram::new(0x40, 32);
        src.write_bytes(0, &[1, 2, 3, 4, 5, 6, 7, 8]).unwrap();
        let dma = Dma2d::default();
        dma.execute(&DmaJob::linear(0, 0x40, 8), &src, &mut dst)
            .unwrap();
        let mut out = [0u8; 8];
        dst.read_bytes(0x40, &mut out).unwrap();
        assert_eq!(out, [1, 2, 3, 4, 5, 6, 7, 8]);
    }

    #[test]
    fn strided_gather_matches_manual_copy() {
        // 3 rows x 2 elements of 2 bytes, source stride 8, dest packed.
        let mut src = Sram::new(0, 64);
        for i in 0..64u8 {
            src.write_bytes(i as u32, &[i]).unwrap();
        }
        let mut dst = Sram::new(0x100, 16);
        let job = DmaJob {
            src: 4,
            dst: 0x100,
            elem_bytes: 2,
            cols: 2,
            rows: 3,
            src_stride: 8,
            dst_stride: 4,
        };
        Dma2d::default().execute(&job, &src, &mut dst).unwrap();
        let mut out = [0u8; 12];
        dst.read_bytes(0x100, &mut out).unwrap();
        assert_eq!(out, [4, 5, 6, 7, 12, 13, 14, 15, 20, 21, 22, 23]);
    }

    #[test]
    fn timing_scales_with_rows_and_bytes() {
        let t = DmaTiming {
            setup: 10,
            per_row: 3,
            bytes_per_cycle: 4,
        };
        let job = DmaJob {
            src: 0,
            dst: 0,
            elem_bytes: 4,
            cols: 8,
            rows: 5,
            src_stride: 32,
            dst_stride: 32,
        };
        // payload = 5*8*4 = 160 bytes -> 40 cycles; rows 5*3 = 15; setup 10.
        assert_eq!(t.cycles(&job), 10 + 15 + 40);
    }

    #[test]
    fn out_of_range_row_errors() {
        let src = Sram::new(0, 8);
        let mut dst = Sram::new(0x40, 8);
        let job = DmaJob::linear(0, 0x40, 16);
        assert!(Dma2d::default().execute(&job, &src, &mut dst).is_err());
    }
}
