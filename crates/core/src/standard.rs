//! The cache controller of §III-A1: fully associative, 128 × 1 KiB
//! lines, write-back, approximate LRU.
//!
//! On its own, [`StandardLlc`] is the baseline "traditional" data LLC
//! of the X-HEEP system the paper compares against in Table II and
//! Figure 4. [`crate::ArcaneLlc`] is built on the same controller: its
//! data array is the VPUs' vector registers, and it adds admission
//! stalls and fabric routing to host accesses through the hooks of
//! `StandardLlc::access`.

use crate::cache::{access_bytes, CacheTable, Victim};
use crate::config::{ArcaneConfig, LINE_BYTES};
use arcane_mem::{Access, AccessSize, BusError, ExtMem, Memory};
use arcane_sim::CacheStats;

/// A write-back LLC in front of external memory.
#[derive(Debug)]
pub struct StandardLlc {
    pub(crate) table: CacheTable,
    /// The data array: line `i` occupies `i · LINE_BYTES ..`. In
    /// ARCANE, VPU `v`'s vector registers are lines `v · VREGS ..`.
    pub(crate) data: Vec<u8>,
    pub(crate) ext: ExtMem,
    pub(crate) stats: CacheStats,
}

impl StandardLlc {
    /// Builds a baseline cache with the same geometry as the given
    /// ARCANE configuration.
    pub fn new(cfg: &ArcaneConfig) -> Self {
        StandardLlc {
            table: CacheTable::new(cfg.n_lines()),
            data: vec![0; cfg.capacity_bytes()],
            ext: cfg.ext_mem(),
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

    /// Flushes every dirty line to external memory (test/sync helper:
    /// no timing, but the write-backs are counted).
    pub fn flush_all(&mut self) {
        for i in 0..self.table.len() {
            self.write_back(i);
        }
    }

    /// One host access through the cache. Returns data and cycles
    /// (1-cycle hit; miss adds writeback + refill bursts).
    ///
    /// The hit head is inlined into the caller: an access inside one
    /// line whose tag an MRU hint resolves to a valid line is served
    /// here, with the same LRU touch, hit count, data movement and
    /// dirty mark as the general path. That line was filled from
    /// external memory, so the range check holds without being made,
    /// and with no admission hook nothing stalls. Everything else
    /// (misses, stale or missing hints, line-crossing accesses, out of
    /// range addresses) takes the general path out of line.
    ///
    /// # Errors
    ///
    /// Returns [`BusError::OutOfRange`] outside the cached region.
    #[inline(always)]
    pub fn host_access(
        &mut self,
        addr: u32,
        write: bool,
        value: u32,
        size: AccessSize,
        now: u64,
    ) -> Result<Access, BusError> {
        let off = addr as usize & (LINE_BYTES - 1);
        if off + size.bytes() as usize <= LINE_BYTES {
            if let Some(line) = self.table.hinted(self.table.tag_of(addr)) {
                self.table.touch(line);
                self.stats.hits.incr();
                let data =
                    access_bytes(&mut self.data, line * LINE_BYTES + off, write, value, size);
                if write {
                    self.table.line_mut(line).dirty = true;
                }
                return Ok(Access::new(data, 1));
            }
        }
        self.host_access_general(addr, write, value, size, now)
    }

    /// [`StandardLlc::host_access`] through [`StandardLlc::access`]
    /// alone, with no admission wait and a miss service of its raw
    /// burst cycles. Out of line: the inlined hit head serves almost
    /// every host access.
    ///
    /// # Errors
    ///
    /// Returns [`BusError::OutOfRange`] outside the cached region.
    #[inline(never)]
    fn host_access_general(
        &mut self,
        addr: u32,
        write: bool,
        value: u32,
        size: AccessSize,
        now: u64,
    ) -> Result<Access, BusError> {
        self.access(
            addr,
            write.then_some(value),
            size,
            now,
            |_, _, _, t| t,
            |_, t, raw| t + raw,
        )
    }

    /// One host access issued at `now`, storing `store` or loading.
    /// Returns the data (0 for a store) and the cycles until it
    /// completes: a single-cycle hit, plus every admission wait and
    /// miss service.
    ///
    /// The hooks are what a cache with compute adds:
    ///
    /// * `admit(addr, len, write, t)` is the first cycle at or after
    ///   `t` at which the controller may serve `[addr, addr + len)`;
    ///   any wait counts as a stall;
    /// * `service(addr, t, raw)` is the cycle at which a miss's
    ///   write-back plus fill, `raw` cycles started at `t`, ends.
    ///
    /// A misaligned access crossing a line boundary is split as the bus
    /// adapter splits it: one byte transaction per byte, each issued
    /// when the previous one completes. Consecutive bytes that stay in
    /// the line just resolved skip the redundant re-probe (the same
    /// hit count and LRU update), which matters because the XCVPULP
    /// kernels issue a misaligned word load per output element.
    ///
    /// # Errors
    ///
    /// Returns [`BusError::OutOfRange`] outside the cached region.
    //
    // Always inlined, so each caller's hooks fold into its hit path: a
    // host access is the hottest call of the baseline-cache workloads.
    #[inline(always)]
    pub(crate) fn access(
        &mut self,
        addr: u32,
        store: Option<u32>,
        size: AccessSize,
        now: u64,
        mut admit: impl FnMut(u32, u32, bool, u64) -> u64,
        mut service: impl FnMut(u32, u64, u64) -> u64,
    ) -> Result<Access, BusError> {
        if !self.ext.contains(addr, size.bytes()) {
            return Err(BusError::OutOfRange { addr });
        }
        let write = store.is_some();
        // Line size is a power of two, so the offset is a mask.
        let off = addr as usize & (LINE_BYTES - 1);
        if off + size.bytes() as usize <= LINE_BYTES {
            let mut t = self.admit_at(addr, size.bytes(), write, now, &mut admit);
            let line = self.resolve(addr, &mut t, None, &mut service)?;
            let value = store.unwrap_or(0);
            let data = access_bytes(&mut self.data, line * LINE_BYTES + off, write, value, size);
            if write {
                self.table.line_mut(line).dirty = true;
            }
            return Ok(Access::new(data, t + 1 - now));
        }
        let vb = store.unwrap_or(0).to_le_bytes();
        let mut data = [0u8; 4];
        let mut t = now;
        let mut known = None;
        for (k, a) in (addr..addr + size.bytes()).enumerate() {
            t = self.admit_at(a, 1, write, t, &mut admit);
            let line = self.resolve(a, &mut t, known, &mut service)?;
            known = Some(line);
            let o = line * LINE_BYTES + (a as usize & (LINE_BYTES - 1));
            if write {
                self.data[o] = vb[k];
                self.table.line_mut(line).dirty = true;
            } else {
                data[k] = self.data[o];
            }
            t += 1;
        }
        Ok(Access::new(u32::from_le_bytes(data), t - now))
    }

    /// Runs the `admit` hook for a transaction issued at `t` and counts
    /// any wait as a stall. Returns the cycle it is admitted.
    #[inline]
    fn admit_at(
        &mut self,
        addr: u32,
        len: u32,
        write: bool,
        t: u64,
        admit: &mut impl FnMut(u32, u32, bool, u64) -> u64,
    ) -> u64 {
        let ready = admit(addr, len, write, t);
        if ready > t {
            self.stats.stalls.incr();
            self.stats.stall_cycles.add(ready - t);
        }
        ready
    }

    /// Finds the line holding `addr` at cycle `*t`, or fills one on a
    /// miss and advances `*t` to the end of its service. `known` is the
    /// line of the previous byte of a split access: a byte still inside
    /// it hits there without a re-probe.
    ///
    /// Always inlined: on the aligned path `known` is `None` and the hit
    /// folds into a plain table probe; as an out-of-line call it cost
    /// baseline-cache hits about 10% in a host-access loop.
    #[inline(always)]
    fn resolve(
        &mut self,
        addr: u32,
        t: &mut u64,
        known: Option<usize>,
        service: &mut impl FnMut(u32, u64, u64) -> u64,
    ) -> Result<usize, BusError> {
        let hit = match known {
            Some(line) if self.table.line(line).tag() == self.table.tag_of(addr) => {
                self.table.touch(line);
                Some(line)
            }
            _ => self.table.access(addr).map(|(line, _)| line),
        };
        match hit {
            Some(line) => {
                self.stats.hits.incr();
                Ok(line)
            }
            None => self.miss(addr, t, service),
        }
    }

    /// The miss path of [`StandardLlc::resolve`]: waits for a line no
    /// kernel is computing on (a stall), writes it back, refills it.
    /// Kept out of line so the hit path it branches off stays small.
    #[inline(never)]
    fn miss(
        &mut self,
        addr: u32,
        t: &mut u64,
        service: &mut impl FnMut(u32, u64, u64) -> u64,
    ) -> Result<usize, BusError> {
        self.stats.misses.incr();
        let i = loop {
            match self.table.victim(*t) {
                Victim::Line(i) => break i,
                Victim::AllBusyUntil(b) => {
                    self.stats.stalls.incr();
                    self.stats.stall_cycles.add(b - *t);
                    *t = b;
                }
            }
        };
        let raw = self.write_back(i) + self.fill(i, addr)?;
        *t = service(addr, *t, raw);
        self.table.touch(i);
        Ok(i)
    }

    /// Writes line `i` back to external memory if it is valid and
    /// dirty, leaving it clean. Returns the burst cycles (0 when there
    /// was nothing to write).
    pub(crate) fn write_back(&mut self, i: usize) -> u64 {
        let l = self.table.line_mut(i);
        if !(l.is_valid() && l.dirty) {
            return 0;
        }
        l.dirty = false;
        let tag = l.tag();
        self.ext
            .write_bytes(tag, &self.data[i * LINE_BYTES..(i + 1) * LINE_BYTES])
            .expect("cached tag maps to external memory");
        self.stats.writebacks.incr();
        self.ext.burst_cycles(LINE_BYTES as u64)
    }

    /// Writes back every dirty cached line overlapping `[start, end)`,
    /// and also drops each overlapping line when `drop` is set. Returns
    /// the write-back burst cycles.
    ///
    /// Only the lines in range are visited, through the table's tag
    /// index, so the write-backs go in tag order. The order is not
    /// observable: each one writes a distinct block of external memory,
    /// and the cycles and the write-back count are sums.
    pub(crate) fn sweep(&mut self, start: u32, end: u32, drop: bool) -> u64 {
        let span = self.table.overlapping(start, end);
        let mut cycles = 0;
        for k in span.clone() {
            cycles += self.write_back(self.table.indexed(k));
        }
        if drop {
            self.table.invalidate_indexed(span);
        }
        cycles
    }

    /// Fills line `i` (already written back) with the block holding
    /// `addr`. Returns the burst cycles.
    fn fill(&mut self, i: usize, addr: u32) -> Result<u64, BusError> {
        let tag = self.table.tag_of(addr);
        self.ext
            .read_bytes(tag, &mut self.data[i * LINE_BYTES..(i + 1) * LINE_BYTES])?;
        self.table.fill(i, tag);
        Ok(self.ext.burst_cycles(LINE_BYTES as u64))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn sweep_writes_back_and_drops_overlapping_lines() {
        let mut c = cache();
        for (i, tag) in [(0, 0x2000_1000), (1, 0x2000_2000)] {
            c.table.fill(i, tag);
            c.table.line_mut(i).dirty = true;
        }
        assert!(c.sweep(0x2000_13ff, 0x2000_1401, false) > 0);
        assert_eq!(c.stats().writebacks.get(), 1, "only line 0 overlaps");
        assert!(c.table.line(0).is_valid() && !c.table.line(0).dirty);
        assert!(c.table.line(1).dirty, "line 1 is untouched");
        c.sweep(0x2000_1000, 0x2000_2400, true);
        assert_eq!(c.stats().writebacks.get(), 2, "line 0 is already clean");
        assert!(!c.table.line(0).is_valid() && !c.table.line(1).is_valid());
    }

    #[test]
    fn out_of_range_is_rejected() {
        let mut c = cache();
        assert!(c
            .host_access(0x1000_0000, false, 0, AccessSize::Word, 0)
            .is_err());
    }
}

/// Oracle properties for the Cache Table's tag index: random fills,
/// drops, dirty marks, lookups and sweeps on tables of 16–256 lines,
/// each checked against a reference that scans every line.
#[cfg(test)]
mod index_props {
    use super::StandardLlc;
    use crate::cache::CacheTable;
    use crate::config::{EXT_BASE, LINE_BYTES};
    use arcane_mem::{ExtMem, Memory};
    use arcane_sim::CacheStats;
    use proptest::prelude::*;

    /// Distinct blocks the random traffic maps to: enough that fills
    /// collide with cached tags and sweeps span several lines.
    const BLOCKS: u32 = 384;
    const EXT_SIZE: usize = BLOCKS as usize * LINE_BYTES;

    /// One line of the reference table.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    struct RefLine {
        valid: bool,
        tag: u32,
        dirty: bool,
    }

    /// The reference: every line's state, scanned in full for each query.
    struct Reference {
        lines: Vec<RefLine>,
        ext: ExtMem,
        writebacks: u64,
    }

    impl Reference {
        fn lookup(&self, addr: u32) -> Option<usize> {
            let tag = addr & !(LINE_BYTES as u32 - 1);
            self.lines.iter().position(|l| l.valid && l.tag == tag)
        }

        /// The full-scan sweep: every line, in line order, tested for
        /// overlap with `[start, end)`.
        fn sweep(&mut self, data: &[u8], start: u32, end: u32, drop: bool) -> u64 {
            let mut cycles = 0;
            for (i, l) in self.lines.iter_mut().enumerate() {
                let tag = l.tag as u64;
                if !(l.valid && tag < end as u64 && tag + LINE_BYTES as u64 > start as u64) {
                    continue;
                }
                if l.dirty {
                    l.dirty = false;
                    let line = &data[i * LINE_BYTES..(i + 1) * LINE_BYTES];
                    self.ext.write_bytes(l.tag, line).unwrap();
                    self.writebacks += 1;
                    cycles += self.ext.burst_cycles(LINE_BYTES as u64);
                }
                if drop {
                    l.valid = false;
                }
            }
            cycles
        }

        /// `(tag, line)` of every valid line, in tag order.
        fn valid_set(&self) -> Vec<(u32, u32)> {
            let mut set: Vec<(u32, u32)> = (self.lines.iter().enumerate())
                .filter(|(_, l)| l.valid)
                .map(|(i, l)| (l.tag, i as u32))
                .collect();
            set.sort_unstable();
            set
        }
    }

    /// A cache of `n_lines` lines over [`BLOCKS`] blocks of external memory,
    /// and its reference. Each line's data is a distinct byte pattern, so a
    /// write-back of the wrong line or to the wrong block shows.
    fn setup(n_lines: usize) -> (StandardLlc, Reference) {
        let ext = ExtMem::new(EXT_BASE, EXT_SIZE, 10, 1);
        let data = (0..n_lines * LINE_BYTES)
            .map(|b| (b / LINE_BYTES * 7 + b % 251) as u8)
            .collect();
        let llc = StandardLlc {
            table: CacheTable::new(n_lines),
            data,
            ext: ext.clone(),
            stats: CacheStats::default(),
        };
        let reference = Reference {
            lines: vec![
                RefLine {
                    valid: false,
                    tag: 0,
                    dirty: false
                };
                n_lines
            ],
            ext,
            writebacks: 0,
        };
        (llc, reference)
    }

    /// A random address range of one of three kinds: empty (at a line
    /// start or inside a line), inside one line, or crossing lines.
    fn range(kind: u8, a: u32, b: u32) -> (u32, u32) {
        let start = EXT_BASE + a % EXT_SIZE as u32;
        match kind % 4 {
            0 => (start, start),
            1 => (
                start & !(LINE_BYTES as u32 - 1),
                start & !(LINE_BYTES as u32 - 1),
            ),
            2 => {
                let room = LINE_BYTES as u32 - (start % LINE_BYTES as u32);
                (start, start + 1 + b % room)
            }
            _ => (start, start + 1 + b % (8 * LINE_BYTES as u32)),
        }
    }

    /// One random step: `(op, line, a, b)`.
    fn steps() -> impl Strategy<Value = Vec<(u8, u32, u32, u32)>> {
        prop::collection::vec((0u8..16, any::<u32>(), any::<u32>(), any::<u32>()), 1..120)
    }

    /// Applies one step to both sides; a lookup or a sweep also checks
    /// that both sides return the same.
    fn step(
        llc: &mut StandardLlc,
        r: &mut Reference,
        (op, line, a, b): (u8, u32, u32, u32),
    ) -> Result<(), TestCaseError> {
        // Half the steps go to lines 0..4, so one line is often filled,
        // looked up, dropped and refilled within a case.
        let n = r.lines.len();
        let i = match line & 1 {
            0 => (line >> 1) as usize % 4,
            _ => (line >> 1) as usize % n,
        };
        let addr = EXT_BASE + a % EXT_SIZE as u32;
        match op {
            // Fill line `i` with a block no other valid line holds, as a
            // refill after a lookup miss does (written back first).
            0..=5 => {
                let tag = addr & !(LINE_BYTES as u32 - 1);
                if r.lookup(tag).is_none() {
                    llc.write_back(i);
                    llc.table.fill(i, tag);
                    if r.lines[i].valid && r.lines[i].dirty {
                        let data = &llc.data[i * LINE_BYTES..(i + 1) * LINE_BYTES];
                        r.ext.write_bytes(r.lines[i].tag, data).unwrap();
                        r.writebacks += 1;
                    }
                    r.lines[i] = RefLine {
                        valid: true,
                        tag,
                        dirty: false,
                    };
                }
            }
            6 => {
                llc.table.invalidate(i);
                r.lines[i].valid = false;
                r.lines[i].dirty = false;
            }
            7..=9 => {
                if r.lines[i].valid {
                    llc.table.line_mut(i).dirty = true;
                    r.lines[i].dirty = true;
                }
            }
            // Look up line `i`'s block (valid, or a stale tag left by a drop
            // or a refill, which may still sit in a lookup hint), or any.
            10..=12 => {
                let addr = match op {
                    12 => addr,
                    _ => r.lines[i].tag | (a % LINE_BYTES as u32),
                };
                prop_assert_eq!(llc.table.lookup(addr), r.lookup(addr), "lookup {:#x}", addr);
            }
            _ => {
                let (start, end) = range(b as u8, a, b >> 8);
                let drop = op == 15;
                let data = llc.data.clone();
                let got = llc.sweep(start, end, drop);
                let want = r.sweep(&data, start, end, drop);
                prop_assert_eq!(got, want, "sweep [{:#x}, {:#x}) cycles", start, end);
            }
        }
        Ok(())
    }

    /// Every line's valid bit, dirty bit and (valid) tag agree, and so do
    /// the write-back count and external memory.
    fn same_state(llc: &StandardLlc, r: &Reference) -> Result<(), TestCaseError> {
        for (i, want) in r.lines.iter().enumerate() {
            let got = llc.table.line(i);
            prop_assert_eq!(got.is_valid(), want.valid, "line {} valid", i);
            prop_assert_eq!(got.dirty, want.dirty, "line {} dirty", i);
            if want.valid {
                prop_assert_eq!(got.tag(), want.tag, "line {} tag", i);
            }
        }
        prop_assert_eq!(llc.stats.writebacks.get(), r.writebacks);
        Ok(())
    }

    proptest! {
        #[test]
        fn cache_index_sweep_matches_full_scan(n_lines in 16usize..257, ops in steps()) {
            let (mut llc, mut r) = setup(n_lines);
            for s in ops {
                step(&mut llc, &mut r, s)?;
                same_state(&llc, &r)?;
            }
            let (mut got, mut want) = (vec![0; EXT_SIZE], vec![0; EXT_SIZE]);
            llc.ext.read_bytes(EXT_BASE, &mut got).unwrap();
            r.ext.read_bytes(EXT_BASE, &mut want).unwrap();
            prop_assert!(got == want, "external memory differs");
        }

        #[test]
        fn cache_index_lookup_matches_full_scan(n_lines in 16usize..257, ops in steps(), probes in prop::collection::vec(any::<u32>(), 1..64)) {
            let (mut llc, mut r) = setup(n_lines);
            for s in ops {
                step(&mut llc, &mut r, s)?;
            }
            for a in probes {
                let addr = EXT_BASE + a % EXT_SIZE as u32;
                prop_assert_eq!(llc.table.lookup(addr), r.lookup(addr), "lookup {:#x}", addr);
            }
        }

        #[test]
        fn cache_index_equals_valid_lines(n_lines in 16usize..257, ops in steps()) {
            let (mut llc, mut r) = setup(n_lines);
            for s in ops {
                step(&mut llc, &mut r, s)?;
                prop_assert_eq!(llc.table.indexed_lines(), &r.valid_set()[..]);
            }
        }
    }
}

/// Oracle for the inlined hit head of [`StandardLlc::host_access`]: one
/// random access sequence replayed on two caches, one through
/// `host_access` and the other through the general path alone, must
/// leave both in the same state after every access.
#[cfg(test)]
mod hit_head_props {
    use super::StandardLlc;
    use crate::cache::CacheTable;
    use crate::config::{EXT_BASE, LINE_BYTES};
    use arcane_mem::{AccessSize, ExtMem, Memory};
    use arcane_sim::CacheStats;
    use proptest::prelude::*;

    /// Lines of each cache, as in the 4-VPU configuration.
    const LINES: usize = 128;
    /// Blocks of external memory: twice the lines, so a walk over them
    /// evicts valid lines, dirty ones among them.
    const BLOCKS: u32 = 2 * LINES as u32;
    const EXT_SIZE: usize = BLOCKS as usize * LINE_BYTES;
    /// Blocks of the hot set the odd steps mostly revisit: more than the
    /// table's MRU hints, so hints go stale and get replaced.
    const HOT: usize = 12;

    /// An empty cache over external memory holding a distinct byte
    /// pattern per block, so data from the wrong line or block shows.
    fn cache() -> StandardLlc {
        let mut ext = ExtMem::new(EXT_BASE, EXT_SIZE, 10, 1);
        let image: Vec<u8> = (0..EXT_SIZE)
            .map(|b| (b / LINE_BYTES * 13 + b % 253) as u8)
            .collect();
        ext.write_bytes(EXT_BASE, &image).unwrap();
        StandardLlc {
            table: CacheTable::new(LINES),
            data: vec![0; LINES * LINE_BYTES],
            ext,
            stats: CacheStats::default(),
        }
    }

    /// Access `k` of a sequence, drawn from `(kind, a)`: its address,
    /// size and direction.
    ///
    /// Even steps walk the blocks from `start` on, one new block each,
    /// so a sequence of more than 256 steps touches more than 128
    /// distinct lines. Odd steps mostly revisit the hot set, sometimes
    /// pick any block or an address outside the cached region. The
    /// offset in the line is aligned, misaligned inside the line, or
    /// crossing into the next line.
    fn access(k: usize, start: u32, hot: &[u32], kind: u8, a: u32) -> (u32, AccessSize, bool) {
        let size = [AccessSize::Byte, AccessSize::Half, AccessSize::Word][kind as usize % 3];
        let write = kind & 4 != 0;
        let sz = size.bytes();
        let block = if k.is_multiple_of(2) {
            (start + k as u32 / 2) % BLOCKS
        } else {
            match (kind >> 3) & 7 {
                0..=5 => hot[(a >> 16) as usize % HOT],
                6 => (a >> 16) % BLOCKS,
                _ if a & 1 == 0 => return (EXT_BASE - sz, size, write),
                _ => return (EXT_BASE + EXT_SIZE as u32 - 1, size, write),
            }
        };
        let line = LINE_BYTES as u32;
        let off = match kind >> 6 {
            0 => a % (line / sz) * sz,
            1 => a % (line - sz + 1),
            2 if sz > 1 => line - 1 - a % (sz - 1),
            _ => a % line,
        };
        // The last block has no next line: a crossing access there
        // leaves the cached region.
        (EXT_BASE + block * line + off, size, write)
    }

    proptest! {
        #[test]
        fn cache_hit_head_matches_general_path(
            start in 0..BLOCKS,
            hot in prop::collection::vec(0..BLOCKS, HOT..HOT + 1),
            steps in prop::collection::vec((any::<u8>(), any::<u32>(), any::<u32>()), 260..520),
        ) {
            let (mut head, mut general) = (cache(), cache());
            let mut now = 0;
            for (k, &(kind, a, value)) in steps.iter().enumerate() {
                let (addr, size, write) = access(k, start, &hot, kind, a);
                let got = head.host_access(addr, write, value, size, now);
                let want = general.host_access_general(addr, write, value, size, now);
                prop_assert_eq!(got, want, "access {} at {:#x}", k, addr);
                prop_assert_eq!(head.stats, general.stats, "access {}", k);
                prop_assert!(head.table == general.table, "line states or hints differ after access {}", k);
                now += got.map_or(1, |acc| acc.cycles);
            }
            prop_assert!(head.data == general.data, "cached data differs");
            head.flush_all();
            general.flush_all();
            let (mut got, mut want) = (vec![0; EXT_SIZE], vec![0; EXT_SIZE]);
            head.ext.read_bytes(EXT_BASE, &mut got).unwrap();
            general.ext.read_bytes(EXT_BASE, &mut want).unwrap();
            prop_assert!(got == want, "external memory differs");
        }
    }
}
