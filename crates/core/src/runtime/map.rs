//! Logical matrix registers, bindings and hazard-resolving renaming
//! (paper §IV-B1).
//!
//! `xmr` binds a memory region and shape to a logical matrix register
//! *without* loading any data — allocation is deferred until a kernel
//! needs the operand. Rebinding a register that an earlier, still-queued
//! kernel uses would be a WAW hazard on the register file; the decoder
//! resolves it by **renaming**: kernels capture the binding by value at
//! decode time, so a later rebind never reaches them.

use arcane_isa::xmnmc::{MatReg, NUM_MAT_REGS};
use arcane_sim::Sew;

/// A resolved matrix operand: the binding a kernel works on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MatView {
    /// Base address in system memory.
    pub addr: u32,
    /// Number of rows.
    pub rows: usize,
    /// Number of columns (elements per row).
    pub cols: usize,
    /// Row-pitch multiplier from `xmr` (1 = densely packed rows; the
    /// row pitch in elements is `stride × cols`).
    pub stride: usize,
    /// Element width.
    pub sew: Sew,
}

impl MatView {
    /// Row pitch in bytes.
    pub(crate) const fn pitch_bytes(&self) -> u32 {
        (self.stride * self.cols * self.sew.bytes()) as u32
    }

    /// Bytes in one (dense) row of data.
    pub const fn row_bytes(&self) -> u32 {
        (self.cols * self.sew.bytes()) as u32
    }

    /// Address of row `r`.
    pub const fn row_addr(&self, r: usize) -> u32 {
        self.addr + r as u32 * self.pitch_bytes()
    }

    /// First byte past the region the matrix occupies.
    pub(crate) const fn end_addr(&self) -> u32 {
        if self.rows == 0 {
            self.addr
        } else {
            self.row_addr(self.rows - 1) + self.row_bytes()
        }
    }

    /// Total elements.
    pub const fn elems(&self) -> usize {
        self.rows * self.cols
    }
}

/// The statically allocated matrix map of the C-RT: one slot per
/// logical matrix register, and the count of rebinds renaming
/// resolved.
#[derive(Debug, Clone, Default)]
pub(crate) struct MatrixMap {
    slots: [Option<MatView>; NUM_MAT_REGS as usize],
    renames: u64,
}

impl MatrixMap {
    /// Creates an empty map.
    pub fn new() -> Self {
        MatrixMap::default()
    }

    /// Binds `reg` to a region; returns the view.
    ///
    /// A rebind of a live register is counted as a rename (the old
    /// binding stays captured by any kernel that resolved it
    /// earlier, so no hazard materialises).
    pub fn bind(
        &mut self,
        reg: MatReg,
        addr: u32,
        rows: usize,
        cols: usize,
        stride: usize,
        sew: Sew,
    ) -> MatView {
        let idx = reg.index() as usize;
        if self.slots[idx].is_some() {
            self.renames += 1;
        }
        let view = MatView {
            addr,
            rows,
            cols,
            stride,
            sew,
        };
        self.slots[idx] = Some(view);
        view
    }

    /// Resolves a logical register to its current binding.
    pub fn resolve(&self, reg: MatReg) -> Option<MatView> {
        self.slots[reg.index() as usize]
    }

    /// Number of rebinds that triggered renaming.
    pub const fn renames(&self) -> u64 {
        self.renames
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(i: u8) -> MatReg {
        MatReg::new(i).unwrap()
    }

    #[test]
    fn view_geometry() {
        let v = MatView {
            addr: 0x1000,
            rows: 4,
            cols: 8,
            stride: 1,
            sew: Sew::Half,
        };
        assert_eq!(v.pitch_bytes(), 16);
        assert_eq!(v.row_addr(2), 0x1020);
        assert_eq!(v.end_addr(), 0x1000 + 4 * 16);
        assert_eq!(v.elems(), 32);
    }

    #[test]
    fn strided_view() {
        let v = MatView {
            addr: 0,
            rows: 2,
            cols: 4,
            stride: 2,
            sew: Sew::Word,
        };
        assert_eq!(v.pitch_bytes(), 32);
        assert_eq!(v.row_bytes(), 16);
        assert_eq!(v.end_addr(), 32 + 16);
    }

    #[test]
    fn rebinding_renames() {
        let mut map = MatrixMap::new();
        let a = map.bind(m(0), 0x1000, 2, 2, 1, Sew::Word);
        map.bind(m(0), 0x2000, 4, 4, 1, Sew::Word);
        assert_eq!(map.renames(), 1);
        assert_eq!(map.resolve(m(0)).unwrap().addr, 0x2000);
        // The first binding is still usable by whoever captured it.
        assert_eq!(a.addr, 0x1000);
    }

    #[test]
    fn unbound_register_resolves_to_none() {
        let map = MatrixMap::new();
        assert!(map.resolve(m(5)).is_none());
    }
}
