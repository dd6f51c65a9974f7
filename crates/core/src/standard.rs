//! The baseline "traditional" data LLC: identical geometry to ARCANE
//! (fully associative, 128 × 1 KiB lines, write-back, approximate LRU)
//! but with no compute capability. This is the cache of the baseline
//! X-HEEP system the paper compares against in Table II and Figure 4.

use crate::cache::{access_bytes, CacheTable, Victim};
use crate::config::ArcaneConfig;
use arcane_mem::{Access, AccessSize, BusError, ExtMem, Memory};
use arcane_sim::CacheStats;

/// A conventional write-back LLC in front of external memory.
#[derive(Debug)]
pub struct StandardLlc {
    table: CacheTable,
    data: Vec<u8>,
    ext: ExtMem,
    line_bytes: usize,
    stats: CacheStats,
}

impl StandardLlc {
    /// Builds a baseline cache with the same geometry as the given
    /// ARCANE configuration.
    pub fn new(cfg: &ArcaneConfig) -> Self {
        StandardLlc {
            table: CacheTable::new(cfg.n_lines(), cfg.line_bytes()),
            data: vec![0; cfg.capacity_bytes()],
            ext: cfg.ext_mem(),
            line_bytes: cfg.line_bytes(),
            stats: CacheStats::default(),
        }
    }

    /// Read access to the backing external memory (workload seeding).
    pub fn ext(&self) -> &ExtMem {
        &self.ext
    }

    /// Write access to the backing external memory.
    pub fn ext_mut(&mut self) -> &mut ExtMem {
        &mut self.ext
    }

    /// Cache statistics.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Flushes every dirty line to external memory (test/sync helper;
    /// data only, no timing).
    pub fn flush_all(&mut self) {
        for i in 0..self.table.len() {
            let l = *self.table.line(i);
            if l.valid && l.dirty {
                let o = i * self.line_bytes;
                let data = self.data[o..o + self.line_bytes].to_vec();
                self.ext
                    .write_bytes(l.tag, &data)
                    .expect("cached tag maps to ext memory");
                self.table.line_mut(i).dirty = false;
            }
        }
    }

    /// One host access through the cache. Returns data and cycles
    /// (1-cycle hit; miss adds writeback + refill bursts).
    ///
    /// # Errors
    ///
    /// Returns [`BusError::OutOfRange`] outside the cached region.
    pub fn host_access(
        &mut self,
        addr: u32,
        write: bool,
        value: u32,
        size: AccessSize,
        _now: u64,
    ) -> Result<Access, BusError> {
        if !self.ext.contains(addr, size.bytes()) {
            return Err(BusError::OutOfRange { addr });
        }
        // A misaligned access crossing a line boundary becomes two
        // transactions, one per line (as the bus adapter would split it).
        // Line size is a power of two, so the offset is a mask.
        let off_in_line = (addr as usize) & (self.line_bytes - 1);
        if off_in_line + size.bytes() as usize > self.line_bytes {
            return self.split_access(addr, write, value, size, _now);
        }
        let mut service = 0u64;
        let (line, tag) = match self.table.access(addr) {
            Some(hit) => {
                self.stats.hits.incr();
                hit
            }
            None => {
                self.stats.misses.incr();
                let i = match self.table.victim(0) {
                    Victim::Line(i) => i,
                    Victim::AllBusyUntil(_) => unreachable!("no busy lines without compute"),
                };
                service += self.refill(i, addr)?;
                self.table.touch(i);
                (i, self.table.line(i).tag)
            }
        };
        let off = line * self.line_bytes + (addr - tag) as usize;
        let data = access_bytes(&mut self.data, off, write, value, size);
        if write {
            self.table.line_mut(line).dirty = true;
        }
        Ok(Access::new(data, service + 1))
    }

    /// A line-crossing access as the bus adapter would split it: one
    /// byte transaction per byte, in order. Semantically identical to
    /// recursing into [`StandardLlc::host_access`] per byte (same hit/
    /// miss counts, LRU updates and cycle charges); consecutive bytes
    /// that stay in the line just resolved skip the redundant re-probe,
    /// which matters because the XCVPULP kernels issue a misaligned
    /// word load per output element.
    fn split_access(
        &mut self,
        addr: u32,
        write: bool,
        value: u32,
        size: AccessSize,
        _now: u64,
    ) -> Result<Access, BusError> {
        let mut data = [0u8; 4];
        let mut cycles = 0u64;
        let vb = value.to_le_bytes();
        let lb = self.line_bytes as u32;
        let mut cur: Option<(usize, u32)> = None;
        for i in 0..size.bytes() {
            let a = addr + i;
            let (line, tag) = match cur {
                // Still inside the line of the previous byte: the probe
                // would hit that same line; apply its state changes
                // (touch + hit count) without re-probing.
                Some((line, tag)) if a.wrapping_sub(tag) < lb => {
                    self.table.touch(line);
                    self.stats.hits.incr();
                    (line, tag)
                }
                _ => match self.table.access(a) {
                    Some(hit) => {
                        self.stats.hits.incr();
                        hit
                    }
                    None => {
                        self.stats.misses.incr();
                        let victim = match self.table.victim(0) {
                            Victim::Line(v) => v,
                            Victim::AllBusyUntil(_) => {
                                unreachable!("no busy lines without compute")
                            }
                        };
                        cycles += self.refill(victim, a)?;
                        self.table.touch(victim);
                        (victim, self.table.line(victim).tag)
                    }
                },
            };
            cur = Some((line, tag));
            let off = line * self.line_bytes + (a - tag) as usize;
            if write {
                self.data[off] = vb[i as usize];
                self.table.line_mut(line).dirty = true;
            } else {
                data[i as usize] = self.data[off];
            }
            cycles += 1;
        }
        Ok(Access::new(u32::from_le_bytes(data), cycles))
    }

    fn refill(&mut self, i: usize, addr: u32) -> Result<u64, BusError> {
        let mut cycles = 0;
        let old = *self.table.line(i);
        let o = i * self.line_bytes;
        if old.valid && old.dirty {
            let data = self.data[o..o + self.line_bytes].to_vec();
            self.ext.write_bytes(old.tag, &data)?;
            cycles += self.ext.burst_cycles(self.line_bytes as u64);
            self.stats.writebacks.incr();
        }
        let tag = self.table.tag_of(addr);
        let mut buf = vec![0u8; self.line_bytes];
        self.ext.read_bytes(tag, &mut buf)?;
        self.data[o..o + self.line_bytes].copy_from_slice(&buf);
        cycles += self.ext.burst_cycles(self.line_bytes as u64);
        let l = self.table.line_mut(i);
        l.tag = tag;
        l.valid = true;
        l.dirty = false;
        Ok(cycles)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ArcaneConfig;

    fn cache() -> StandardLlc {
        StandardLlc::new(&ArcaneConfig::with_lanes(4))
    }

    #[test]
    fn read_after_write_hits() {
        let mut c = cache();
        let a = 0x2000_0100;
        let w = c
            .host_access(a, true, 0xdead_beef, AccessSize::Word, 0)
            .unwrap();
        assert!(w.cycles > 1, "first touch misses");
        let r = c.host_access(a, false, 0, AccessSize::Word, 1).unwrap();
        assert_eq!(r.data, 0xdead_beef);
        assert_eq!(r.cycles, 1, "hit is single-cycle");
    }

    #[test]
    fn eviction_writes_back_dirty_data() {
        let mut c = cache();
        let base = 0x2000_0000u32;
        c.host_access(base, true, 42, AccessSize::Word, 0).unwrap();
        // Touch more than 128 distinct lines to force eviction.
        for i in 1..200u32 {
            c.host_access(base + i * 1024, false, 0, AccessSize::Word, i as u64)
                .unwrap();
        }
        // The dirty value must have survived in external memory.
        assert_eq!(c.ext().read_u32(base).unwrap(), 42);
        assert!(c.stats().writebacks.get() >= 1);
    }

    #[test]
    fn sub_word_accesses() {
        let mut c = cache();
        let a = 0x2000_0200;
        c.host_access(a, true, 0x11, AccessSize::Byte, 0).unwrap();
        c.host_access(a + 1, true, 0x22, AccessSize::Byte, 0)
            .unwrap();
        let r = c.host_access(a, false, 0, AccessSize::Half, 0).unwrap();
        assert_eq!(r.data, 0x2211);
    }

    #[test]
    fn out_of_range_is_rejected() {
        let mut c = cache();
        assert!(c
            .host_access(0x1000_0000, false, 0, AccessSize::Word, 0)
            .is_err());
    }
}
