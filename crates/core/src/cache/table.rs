//! The Cache Table (CT): fully-associative line state with a
//! counter-based approximate-LRU replacement policy (paper §III-A1).
//!
//! The hardware compares every tag in parallel. The model keeps the
//! valid lines in a tag-sorted index instead, so a lookup is a binary
//! search and a range of addresses maps to a contiguous run of index
//! entries.

use crate::LINE_BYTES;
use std::ops::Range;

/// State of one cache line.
///
/// A line is simultaneously one VPU vector register; `busy_until`
/// implements the *busy computing* status of §III-A2 — while a kernel
/// owns the line, normal cache operations must not touch it.
///
/// The tag and the valid bit change only through
/// [`CacheTable::fill`] and [`CacheTable::invalidate`], which keep the
/// table's tag index in step with them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LineState {
    /// Line-aligned base address of the cached block (valid lines only).
    tag: u32,
    /// The line holds a cached copy of memory.
    valid: bool,
    /// The line diverges from backing memory (write-back policy).
    pub dirty: bool,
    /// Absolute cycle until which the line belongs to an in-flight
    /// kernel (`0` = free).
    pub busy_until: u64,
    /// Approximate-LRU age counter (higher = more recently used).
    /// The stored value is relative to [`LineState::lru_epoch`]; the
    /// table decays it lazily (see [`CacheTable::touch`]).
    pub lru: u8,
    /// Aging epoch in which `lru` was last written.
    pub lru_epoch: u32,
}

impl LineState {
    const fn empty() -> Self {
        LineState {
            tag: 0,
            valid: false,
            dirty: false,
            busy_until: 0,
            lru: 0,
            lru_epoch: 0,
        }
    }

    /// `true` when a kernel owns the line at time `now`.
    const fn is_busy(&self, now: u64) -> bool {
        self.busy_until > now
    }

    /// Line-aligned base address of the cached block (meaningful only
    /// while the line is valid).
    pub const fn tag(&self) -> u32 {
        self.tag
    }

    /// `true` when the line holds a cached copy of memory.
    pub const fn is_valid(&self) -> bool {
        self.valid
    }
}

/// Outcome of a victim search.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Victim {
    /// A line is available for replacement.
    Line(usize),
    /// Every line is busy computing until at least this cycle
    /// (the requester must stall and retry).
    AllBusyUntil(u64),
}

/// The fully-associative Cache Table.
///
/// The number of lines equals the aggregate vector-register capacity of
/// the system (`n_vpus × 32`), and the line length equals the maximum
/// supported vector size (1 KiB), exactly as §III-A1 prescribes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheTable {
    lines: Vec<LineState>,
    /// Accesses since the last LRU aging pass.
    accesses_since_aging: u32,
    /// Aging period (accesses between global decays).
    aging_period: u32,
    /// Current aging epoch. A line's effective age is its stored `lru`
    /// decayed once per epoch elapsed since it was written — the same
    /// numbers an eager full-table decay pass would produce, without
    /// walking every line every period.
    epoch: u32,
    /// `(tag, line)` of every valid line, sorted by tag. At most one
    /// valid line holds a tag, so the tags are strictly increasing.
    /// Only [`CacheTable::fill`] and [`CacheTable::invalidate`] change
    /// a tag or a valid bit, and both edit this index with it.
    index: Vec<(u32, u32)>,
    /// Recently-resolved `(tag, index)` pairs consulted before the
    /// index search: they only speed up the hit path. Entries are
    /// *hints*: every hit is validated against the line state, so a
    /// hint left stale by a refill or a drop just falls back to the
    /// search.
    mru: [(u32, u32); MRU_WAYS],
}

/// Number of MRU lookup hints (sized for the working set of a conv
/// inner loop: output line + input rows + filter lines).
const MRU_WAYS: usize = 8;

impl CacheTable {
    /// Creates a table of `n_lines` lines of [`LINE_BYTES`] each.
    pub fn new(n_lines: usize) -> Self {
        CacheTable {
            lines: vec![LineState::empty(); n_lines],
            index: Vec::with_capacity(n_lines),
            accesses_since_aging: 0,
            aging_period: 64,
            epoch: 0,
            mru: [(u32::MAX, u32::MAX); MRU_WAYS],
        }
    }

    /// Number of lines.
    pub fn len(&self) -> usize {
        self.lines.len()
    }

    /// `true` when the table has no lines.
    pub fn is_empty(&self) -> bool {
        self.lines.is_empty()
    }

    /// The line-aligned tag of `addr`.
    pub fn tag_of(&self, addr: u32) -> u32 {
        addr & !(LINE_BYTES as u32 - 1)
    }

    /// Immutable view of line `idx`.
    pub fn line(&self, idx: usize) -> &LineState {
        &self.lines[idx]
    }

    /// Mutable view of line `idx` (its dirty bit, busy window and
    /// age; the tag and valid bit are private to the table).
    pub fn line_mut(&mut self, idx: usize) -> &mut LineState {
        &mut self.lines[idx]
    }

    /// Makes line `idx` a clean, valid copy of the block at `tag`,
    /// replacing whatever it held (write it back first).
    ///
    /// # Panics
    ///
    /// Panics if another valid line already holds `tag`: the table
    /// keeps at most one valid line per tag.
    pub fn fill(&mut self, idx: usize, tag: u32) {
        debug_assert_eq!(tag, self.tag_of(tag), "tags are line-aligned");
        self.unindex(idx);
        match self.index.binary_search_by_key(&tag, |&(t, _)| t) {
            Err(k) => self.index.insert(k, (tag, idx as u32)),
            Ok(k) => panic!("tag {tag:#x} is already cached in line {}", self.index[k].1),
        }
        let l = &mut self.lines[idx];
        l.tag = tag;
        l.valid = true;
        l.dirty = false;
        debug_assert!(self.check_index(), "tag index out of step after a fill");
    }

    /// Drops line `idx`: it becomes invalid and clean, and its contents
    /// are discarded (write it back first).
    pub fn invalidate(&mut self, idx: usize) {
        self.unindex(idx);
        let l = &mut self.lines[idx];
        l.valid = false;
        l.dirty = false;
        debug_assert!(self.check_index(), "tag index out of step after a drop");
    }

    /// Removes line `idx`'s entry from the tag index, if it is valid.
    fn unindex(&mut self, idx: usize) {
        let l = &self.lines[idx];
        if l.valid {
            let k = self
                .index
                .binary_search_by_key(&l.tag, |&(t, _)| t)
                .expect("a valid line is indexed");
            self.index.remove(k);
        }
    }

    /// Positions, in the tag index, of the valid lines overlapping
    /// `[start, end)`: those whose tag lies in `[tag_of(start), end)`.
    /// Tags are line-aligned, so that is exactly the set of lines with
    /// `tag < end && tag + LINE_BYTES > start`.
    pub(crate) fn overlapping(&self, start: u32, end: u32) -> Range<usize> {
        let first = self.tag_of(start);
        let lo = self.index.partition_point(|&(t, _)| t < first);
        let hi = self.index.partition_point(|&(t, _)| t < end);
        lo..hi.max(lo)
    }

    /// The line at position `k` of the tag index.
    pub(crate) fn indexed(&self, k: usize) -> usize {
        self.index[k].1 as usize
    }

    /// [`CacheTable::invalidate`]s every line at the tag-index
    /// positions `span`, in one edit of the index.
    pub(crate) fn invalidate_indexed(&mut self, span: Range<usize>) {
        for (_, i) in self.index.drain(span) {
            let l = &mut self.lines[i as usize];
            l.valid = false;
            l.dirty = false;
        }
        debug_assert!(self.check_index(), "tag index out of step after a drop");
    }

    /// Finds the valid line holding `addr`, if any, without updating
    /// LRU state.
    pub fn lookup(&mut self, addr: u32) -> Option<usize> {
        self.probe(addr).map(|(idx, _)| idx)
    }

    /// MRU-hinted associative probe: the single home of the lookup
    /// policy, shared by [`CacheTable::lookup`] and
    /// [`CacheTable::access`].
    ///
    /// The table is fully associative with at most one valid line per
    /// tag ([`CacheTable::fill`] enforces it), so the hinted fast path
    /// and the index search return the same line. Hints are validated
    /// against the line state, so a stale hint just falls back to the
    /// search, which refreshes the hint array.
    fn probe(&mut self, addr: u32) -> Option<(usize, u32)> {
        let tag = self.tag_of(addr);
        if let Some(i) = self.hinted(tag) {
            return Some((i, tag));
        }
        let k = self.index.binary_search_by_key(&tag, |&(t, _)| t).ok()?;
        let pos = self.index[k].1 as usize;
        self.mru.rotate_right(1);
        self.mru[0] = (tag, pos as u32);
        Some((pos, tag))
    }

    /// The hint scan of [`CacheTable::probe`]: the line the first MRU
    /// hint for `tag` names, if that line is still valid and holds
    /// `tag`; `None` when no hint names `tag` or the first one is
    /// stale. Leaves the hints untouched.
    ///
    /// Always inlined: it is the whole lookup of a conventional-LLC
    /// host hit (`StandardLlc::host_access`).
    #[inline(always)]
    pub(crate) fn hinted(&self, tag: u32) -> Option<usize> {
        for &(t, i) in &self.mru {
            if t == tag {
                let l = &self.lines[i as usize];
                return (l.valid && l.tag == tag).then_some(i as usize);
            }
        }
        None
    }

    /// Marks line `idx` as just used (approximate LRU: the counter is
    /// set to the maximum; every [`aging period`](Self::new) accesses
    /// every counter decays by one — applied lazily via the epoch).
    ///
    /// Always inlined: it runs on every cache hit, including the
    /// inlined hit head of `StandardLlc::host_access`.
    #[inline(always)]
    pub fn touch(&mut self, idx: usize) {
        self.lines[idx].lru = u8::MAX;
        self.lines[idx].lru_epoch = self.epoch;
        self.accesses_since_aging += 1;
        if self.accesses_since_aging >= self.aging_period {
            self.accesses_since_aging = 0;
            self.epoch = self.epoch.wrapping_add(1);
        }
    }

    /// Effective (lazily decayed) age counter of line `idx` (higher =
    /// more recently used), as the eager per-period full-table decay
    /// would have left it.
    pub fn age_of(&self, idx: usize) -> u8 {
        self.effective_lru(&self.lines[idx])
    }

    /// Effective (lazily decayed) age of a line: the stored counter
    /// minus one per aging epoch elapsed since it was written, exactly
    /// as the eager per-period full-table decay would have left it.
    fn effective_lru(&self, l: &LineState) -> u8 {
        let elapsed = self.epoch.wrapping_sub(l.lru_epoch).min(255) as u8;
        l.lru.saturating_sub(elapsed)
    }

    /// Combined [`CacheTable::lookup`] + [`CacheTable::touch`] for the
    /// cache hit path; returns the line index and its tag.
    #[inline]
    pub fn access(&mut self, addr: u32) -> Option<(usize, u32)> {
        let hit = self.probe(addr)?;
        self.touch(hit.0);
        Some(hit)
    }

    /// Selects a replacement victim at time `now`: the non-busy line
    /// with the lowest age counter (invalid lines win immediately).
    pub fn victim(&self, now: u64) -> Victim {
        let mut best: Option<(usize, u16)> = None;
        let mut min_busy = u64::MAX;
        for (i, l) in self.lines.iter().enumerate() {
            if l.is_busy(now) {
                min_busy = min_busy.min(l.busy_until);
                continue;
            }
            if !l.valid {
                return Victim::Line(i);
            }
            // Prefer clean lines at equal age by biasing dirty lines up.
            let score = self.effective_lru(l) as u16 * 2 + l.dirty as u16;
            match best {
                Some((_, s)) if s <= score => {}
                _ => best = Some((i, score)),
            }
        }
        match best {
            Some((i, _)) => Victim::Line(i),
            None => Victim::AllBusyUntil(min_busy),
        }
    }

    /// Number of valid dirty lines within the line-index range
    /// `[from, to)` (used by the scheduler's fewest-dirty-lines policy).
    pub(crate) fn dirty_in_range(&self, from: usize, to: usize) -> usize {
        self.lines[from..to]
            .iter()
            .filter(|l| l.valid && l.dirty)
            .count()
    }

    /// The tag index: every valid line as `(tag, line)`, in tag order.
    #[cfg(test)]
    pub(crate) fn indexed_lines(&self) -> &[(u32, u32)] {
        &self.index
    }

    /// Debug invariant: the tag index is exactly the set of valid
    /// lines' `(tag, line)` pairs, in strictly increasing tag order (so
    /// no two valid lines share a tag).
    pub fn check_index(&self) -> bool {
        let sorted = self.index.windows(2).all(|w| w[0].0 < w[1].0);
        let valid = self.lines.iter().filter(|l| l.valid).count();
        let matching = self.index.iter().all(|&(t, i)| {
            let l = &self.lines[i as usize];
            l.valid && l.tag == t
        });
        sorted && matching && valid == self.index.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> CacheTable {
        CacheTable::new(8)
    }

    #[test]
    fn tag_alignment() {
        let t = table();
        assert_eq!(t.tag_of(0x2000_0000), 0x2000_0000);
        assert_eq!(t.tag_of(0x2000_03ff), 0x2000_0000);
        assert_eq!(t.tag_of(0x2000_0400), 0x2000_0400);
    }

    #[test]
    fn lookup_finds_valid_lines_only() {
        let mut t = table();
        assert_eq!(t.lookup(0x2000_0410), None, "invalid line is not a hit");
        t.fill(3, 0x2000_0400);
        assert_eq!(t.lookup(0x2000_0410), Some(3));
        t.invalidate(3);
        assert_eq!(t.lookup(0x2000_0410), None, "a dropped line is not a hit");
        assert_eq!(t.line(3).tag(), 0x2000_0400, "a drop keeps the stale tag");
    }

    #[test]
    fn refill_moves_a_line_to_its_new_tag() {
        let mut t = table();
        t.fill(2, 0x1000);
        t.lookup(0x1000); // leaves an MRU hint for 0x1000 -> line 2
        t.fill(2, 0x3000);
        assert_eq!(t.lookup(0x1000), None, "the stale hint is not a hit");
        assert_eq!(t.lookup(0x3000), Some(2));
        assert_eq!(t.indexed_lines(), &[(0x3000, 2)]);
    }

    #[test]
    fn overlapping_selects_tags_in_range() {
        let mut t = table();
        for (i, tag) in [(5, 0x2c00), (0, 0x1000), (7, 0x1400), (1, 0x2000)] {
            t.fill(i, tag);
        }
        let lines = |t: &CacheTable, s, e| -> Vec<usize> {
            t.overlapping(s, e).map(|k| t.indexed(k)).collect()
        };
        assert_eq!(lines(&t, 0x13ff, 0x1401), [0, 7]);
        assert_eq!(
            lines(&t, 0x1400, 0x1400),
            [] as [usize; 0],
            "empty at a line start"
        );
        assert_eq!(lines(&t, 0x1410, 0x1410), [7], "empty inside a line");
        assert_eq!(lines(&t, 0, u32::MAX), [0, 7, 1, 5]);
        t.invalidate_indexed(t.overlapping(0x1000, 0x2001));
        assert_eq!(t.indexed_lines(), &[(0x2c00, 5)]);
        assert!(!t.line(1).is_valid());
    }

    #[test]
    #[should_panic(expected = "already cached")]
    fn a_tag_is_cached_once() {
        let mut t = table();
        t.fill(0, 0x1000);
        t.fill(1, 0x1000);
    }

    #[test]
    fn victim_prefers_invalid_then_oldest() {
        let mut t = table();
        for i in 0..8 {
            t.fill(i, 0x2000_0000 + (i as u32) * 1024);
        }
        t.touch(0);
        t.touch(1); // lines 2..7 remain at lru 0
        match t.victim(0) {
            Victim::Line(i) => assert!(i >= 2, "touched lines must not be victims"),
            v => panic!("{v:?}"),
        }
        t.invalidate(5);
        assert_eq!(t.victim(0), Victim::Line(5), "invalid line wins");
    }

    #[test]
    fn victim_skips_busy_lines() {
        let mut t = table();
        for i in 0..8 {
            t.fill(i, (i as u32) * 1024);
            t.line_mut(i).busy_until = 100;
        }
        assert_eq!(t.victim(50), Victim::AllBusyUntil(100));
        t.line_mut(2).busy_until = 0;
        assert_eq!(t.victim(50), Victim::Line(2));
        // After the busy window expires everything is eligible again.
        assert!(matches!(t.victim(100), Victim::Line(_)));
    }

    #[test]
    fn clean_preferred_over_dirty_at_equal_age() {
        let mut t = table();
        for i in 0..8 {
            t.fill(i, (i as u32) * 1024);
            t.line_mut(i).dirty = i == 0;
        }
        match t.victim(0) {
            Victim::Line(i) => assert_ne!(i, 0),
            v => panic!("{v:?}"),
        }
    }

    #[test]
    fn aging_decays_counters() {
        let mut t = CacheTable::new(2);
        t.fill(0, 0);
        t.touch(0);
        assert_eq!(t.age_of(0), u8::MAX);
        for _ in 0..64 {
            t.touch(1);
        }
        assert!(t.age_of(0) < u8::MAX, "aging pass must decay counters");
        assert_eq!(t.age_of(1), u8::MAX, "line 1 was just touched");
    }
}
