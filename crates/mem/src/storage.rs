//! Byte-addressed storage models: on-chip SRAM and external memory.

use crate::bus::BusError;

/// Byte-addressed storage with a fixed base address.
///
/// Implementations are *functional* models; timing is attached by the
/// component that owns them (bus, cache controller, DMA).
pub trait Memory {
    /// First address of the device.
    fn base(&self) -> u32;

    /// Size in bytes.
    fn len(&self) -> usize;

    /// `true` when the device has zero capacity.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `true` when `[addr, addr + len)` lies inside the device.
    #[inline]
    fn contains(&self, addr: u32, len: u32) -> bool {
        let end = self.base() as u64 + self.len() as u64;
        (addr as u64) >= self.base() as u64 && (addr as u64 + len as u64) <= end
    }

    /// Copies `buf.len()` bytes starting at `addr` into `buf`.
    ///
    /// # Errors
    ///
    /// Returns [`BusError::Truncated`] when the range leaves the device.
    fn read_bytes(&self, addr: u32, buf: &mut [u8]) -> Result<(), BusError>;

    /// Writes `buf` starting at `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`BusError::Truncated`] when the range leaves the device.
    fn write_bytes(&mut self, addr: u32, buf: &[u8]) -> Result<(), BusError>;

    /// Reads a little-endian `u32`.
    ///
    /// # Errors
    ///
    /// Propagates [`read_bytes`](Memory::read_bytes) errors.
    fn read_u32(&self, addr: u32) -> Result<u32, BusError> {
        let mut b = [0u8; 4];
        self.read_bytes(addr, &mut b)?;
        Ok(u32::from_le_bytes(b))
    }

    /// Writes a little-endian `u32`.
    ///
    /// # Errors
    ///
    /// Propagates [`write_bytes`](Memory::write_bytes) errors.
    fn write_u32(&mut self, addr: u32, value: u32) -> Result<(), BusError> {
        self.write_bytes(addr, &value.to_le_bytes())
    }
}

#[inline]
fn offset_of(base: u32, size: usize, addr: u32, len: usize) -> Result<usize, BusError> {
    let off = (addr as u64).checked_sub(base as u64);
    match off {
        Some(off) if (off + len as u64) <= size as u64 => Ok(off as usize),
        _ => Err(BusError::Truncated {
            addr,
            len: len as u32,
        }),
    }
}

/// Single-cycle on-chip SRAM (instruction memory banks, eMEM).
///
/// The device has a fixed size, but only the bytes up to the highest
/// one written so far are stored: the rest reads as zeros, as a fresh
/// SRAM does. A 128 KiB instruction memory holding a 5 KiB program
/// therefore stores 5 KiB.
///
/// # Examples
///
/// ```
/// use arcane_mem::{Memory, Sram};
/// let mut m = Sram::new(0, 16);
/// m.write_bytes(4, &[1, 2, 3]).unwrap();
/// let mut out = [0u8; 3];
/// m.read_bytes(4, &mut out).unwrap();
/// assert_eq!(out, [1, 2, 3]);
/// ```
#[derive(Debug, Clone)]
pub struct Sram {
    base: u32,
    size: usize,
    /// Bytes `0..data.len()` of the device; every later byte is zero.
    data: Vec<u8>,
}

impl Sram {
    /// Creates a zero-initialised SRAM of `size` bytes at `base`.
    pub fn new(base: u32, size: usize) -> Self {
        Sram {
            base,
            size,
            data: Vec::new(),
        }
    }

    /// Loads `words` as little-endian 32-bit values starting at `addr`
    /// (program upload helper).
    ///
    /// # Panics
    ///
    /// Panics if the words do not fit.
    pub fn load_words(&mut self, addr: u32, words: &[u32]) {
        let off =
            offset_of(self.base, self.size, addr, words.len() * 4).expect("program exceeds SRAM");
        let bytes = self.stored_mut(off, words.len() * 4);
        for (b, w) in bytes.chunks_exact_mut(4).zip(words) {
            b.copy_from_slice(&w.to_le_bytes());
        }
    }

    /// The stored bytes `off..off + len`, storing zeros up to their end
    /// first if they lie past it.
    fn stored_mut(&mut self, off: usize, len: usize) -> &mut [u8] {
        let end = off + len;
        if end > self.data.len() {
            self.data.resize(end, 0);
        }
        &mut self.data[off..end]
    }
}

impl Memory for Sram {
    fn base(&self) -> u32 {
        self.base
    }

    fn len(&self) -> usize {
        self.size
    }

    #[inline]
    fn read_bytes(&self, addr: u32, buf: &mut [u8]) -> Result<(), BusError> {
        let off = offset_of(self.base, self.size, addr, buf.len())?;
        match self.data.get(off..off + buf.len()) {
            Some(stored) => buf.copy_from_slice(stored),
            None => {
                let stored = self.data.get(off..).unwrap_or_default();
                let (head, tail) = buf.split_at_mut(stored.len());
                head.copy_from_slice(stored);
                tail.fill(0);
            }
        }
        Ok(())
    }

    #[inline]
    fn write_bytes(&mut self, addr: u32, buf: &[u8]) -> Result<(), BusError> {
        let off = offset_of(self.base, self.size, addr, buf.len())?;
        self.stored_mut(off, buf.len()).copy_from_slice(buf);
        Ok(())
    }
}

/// Bytes per lazily allocated [`ExtMem`] page.
const PAGE: usize = 4096;

/// Burst-modeled external memory (flash / pseudo-static RAM).
///
/// Timing model: a random access costs [`ExtMem::first_word_cycles`],
/// each subsequent sequential word in the same burst costs
/// `per_word_cycles`. The cache controller and DMA use
/// [`ExtMem::burst_cycles`] to price line refills and tile transfers.
///
/// Storage is paged lazily: a 4 KiB page is allocated by the first
/// write that touches it, and a page never written reads as zeros. The
/// page table itself only reaches as far as the highest page written.
/// A 16 MiB device therefore costs nothing to build, and only the pages
/// a run actually uses are ever resident.
#[derive(Debug, Clone)]
pub struct ExtMem {
    base: u32,
    size: usize,
    /// Pages `0..pages.len()`; every later page reads as zeros.
    pages: Vec<Option<Box<[u8; PAGE]>>>,
    first_word_cycles: u64,
    per_word_cycles: u64,
}

impl ExtMem {
    /// Creates an external memory of `size` bytes at `base` with the
    /// given burst timing. Every byte reads as zero until written.
    pub fn new(base: u32, size: usize, first_word_cycles: u64, per_word_cycles: u64) -> Self {
        ExtMem {
            base,
            size,
            pages: Vec::new(),
            first_word_cycles,
            per_word_cycles,
        }
    }

    /// Latency of the first word of a burst.
    pub const fn first_word_cycles(&self) -> u64 {
        self.first_word_cycles
    }

    /// Cycles to move `bytes` sequential bytes in one burst.
    pub fn burst_cycles(&self, bytes: u64) -> u64 {
        if bytes == 0 {
            return 0;
        }
        let words = bytes.div_ceil(4);
        self.first_word_cycles + self.per_word_cycles * words.saturating_sub(1)
    }
}

impl Memory for ExtMem {
    fn base(&self) -> u32 {
        self.base
    }

    fn len(&self) -> usize {
        self.size
    }

    #[inline]
    fn read_bytes(&self, addr: u32, buf: &mut [u8]) -> Result<(), BusError> {
        let mut off = offset_of(self.base, self.size, addr, buf.len())?;
        let mut buf = buf;
        while !buf.is_empty() {
            let at = off % PAGE;
            let (head, rest) = buf.split_at_mut(buf.len().min(PAGE - at));
            match self.pages.get(off / PAGE) {
                Some(Some(page)) => head.copy_from_slice(&page[at..at + head.len()]),
                _ => head.fill(0),
            }
            off += head.len();
            buf = rest;
        }
        Ok(())
    }

    fn write_bytes(&mut self, addr: u32, buf: &[u8]) -> Result<(), BusError> {
        let mut off = offset_of(self.base, self.size, addr, buf.len())?;
        let mut buf = buf;
        while !buf.is_empty() {
            let at = off % PAGE;
            let (head, rest) = buf.split_at(buf.len().min(PAGE - at));
            let p = off / PAGE;
            if p >= self.pages.len() {
                self.pages.resize(p + 1, None);
            }
            let page = self.pages[p].get_or_insert_with(|| Box::new([0; PAGE]));
            page[at..at + head.len()].copy_from_slice(head);
            off += head.len();
            buf = rest;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sram_roundtrip_and_bounds() {
        let mut m = Sram::new(0x100, 32);
        assert!(m.contains(0x100, 32));
        assert!(!m.contains(0x100, 33));
        assert!(!m.contains(0xff, 1));
        m.write_u32(0x11c, 42).unwrap();
        assert_eq!(m.read_u32(0x11c).unwrap(), 42);
        assert!(m.write_u32(0x11d, 0).is_err(), "crosses the end");
    }

    #[test]
    fn sram_stores_only_what_was_written() {
        let mut m = Sram::new(0x100, 128 << 10);
        assert_eq!(m.len(), 128 << 10);
        assert_eq!(m.read_u32(0x100 + (100 << 10)).unwrap(), 0);
        m.write_u32(0x110, 0x0403_0201).unwrap();
        assert_eq!(m.data.len(), 0x14, "stores up to the last byte written");
        let mut b = [0xffu8; 8];
        m.read_bytes(0x112, &mut b).unwrap();
        assert_eq!(b, [3, 4, 0, 0, 0, 0, 0, 0], "a read straddling the end");
        assert!(m.read_u32((0x100 + (128 << 10) - 2) as u32).is_err());
    }

    #[test]
    fn sram_load_words() {
        let mut m = Sram::new(0, 16);
        m.load_words(0, &[1, 2, 3, 4]);
        assert_eq!(m.read_u32(12).unwrap(), 4);
    }

    #[test]
    fn extmem_burst_timing() {
        let m = ExtMem::new(0, 1024, 10, 2);
        assert_eq!(m.burst_cycles(0), 0);
        assert_eq!(m.burst_cycles(4), 10);
        assert_eq!(m.burst_cycles(8), 12);
        assert_eq!(m.burst_cycles(1024), 10 + 2 * 255);
        // partial word rounds up
        assert_eq!(m.burst_cycles(5), 12);
    }

    #[test]
    fn extmem_storage() {
        let mut m = ExtMem::new(0x2000_0000, 64, 10, 1);
        m.write_bytes(0x2000_0010, &[9, 8, 7]).unwrap();
        let mut b = [0u8; 3];
        m.read_bytes(0x2000_0010, &mut b).unwrap();
        assert_eq!(b, [9, 8, 7]);
        assert!(m.read_bytes(0x1fff_ffff, &mut b).is_err());
    }

    #[test]
    fn extmem_untouched_reads_zero() {
        let mut m = ExtMem::new(0x2000_0000, 3 * PAGE, 10, 1);
        m.write_bytes(0x2000_0000 + PAGE as u32 + 5, &[0xaa; 4])
            .unwrap();
        let mut b = vec![0xffu8; 3 * PAGE];
        m.read_bytes(0x2000_0000, &mut b).unwrap();
        assert!(b[..PAGE + 5].iter().all(|&x| x == 0));
        assert_eq!(b[PAGE + 5..PAGE + 9], [0xaa; 4]);
        assert!(b[PAGE + 9..].iter().all(|&x| x == 0));
        assert_eq!(m.pages.iter().flatten().count(), 1, "one page resident");
    }

    #[test]
    fn extmem_new_allocates_no_pages() {
        let m = ExtMem::new(0x2000_0000, 16 << 20, 10, 1);
        assert_eq!(m.len(), 16 << 20);
        assert!(m.pages.is_empty(), "no page table either");
        assert_eq!(m.read_u32(0x2000_0000 + (8 << 20)).unwrap(), 0);
        assert!(m.pages.is_empty(), "reads allocate nothing");
    }

    #[test]
    fn extmem_write_straddling_pages_allocates_both() {
        let mut m = ExtMem::new(0, 2 * PAGE + 10, 10, 1);
        m.write_u32(PAGE as u32 - 2, 0x0403_0201).unwrap();
        assert_eq!(m.read_u32(PAGE as u32 - 2).unwrap(), 0x0403_0201);
        assert_eq!(m.pages.iter().flatten().count(), 2);
    }
}
