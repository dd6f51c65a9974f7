//! The Address Table (AT): kernel operand ranges and their protection
//! windows (paper §III-A3).
//!
//! Each entry records the start and end address of a kernel operand,
//! whether it is a source or a destination, and *until when* the
//! hazard-avoidance policy must block conflicting host accesses:
//!
//! * **sources** — host *stores* are blocked until allocation completes
//!   (WAR: the store must not overwrite data the allocator is copying);
//! * **destinations** — *all* host accesses are blocked until kernel
//!   writeback completes (RAW: reads would observe stale data; WAW: a
//!   store would be overwritten by the kernel result).

use std::error::Error;
use std::fmt;

/// Whether an operand region is read or written by its kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum OperandKind {
    /// Kernel input (protected against host stores during allocation).
    Source,
    /// Kernel output (protected against all host accesses until
    /// writeback).
    Destination,
}

/// One Address Table entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct AtEntry {
    /// First byte of the operand region.
    pub start: u32,
    /// One past the last byte of the region.
    pub end: u32,
    /// Source or destination.
    pub kind: OperandKind,
    /// Absolute cycle at which the protection lapses
    /// (allocation end for sources, writeback end for destinations).
    pub protect_until: u64,
}

impl AtEntry {
    /// `true` when `[addr, addr+len)` overlaps this entry.
    pub(crate) fn overlaps(&self, addr: u32, len: u32) -> bool {
        (addr as u64) < self.end as u64 && (addr as u64 + len as u64) > self.start as u64
    }
}

/// Error raised when the statically sized AT is exhausted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct AtFull {
    /// Configured capacity.
    pub capacity: usize,
}

impl fmt::Display for AtFull {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "address table full ({} entries)", self.capacity)
    }
}

impl Error for AtFull {}

/// The statically allocated Address Table.
#[derive(Debug, Clone)]
pub(crate) struct AddressTable {
    entries: Vec<AtEntry>,
    capacity: usize,
}

impl AddressTable {
    /// Creates an AT with a fixed `capacity` (static allocation, per the
    /// C-RT philosophy of §IV-B).
    pub(crate) fn new(capacity: usize) -> Self {
        AddressTable {
            entries: Vec::with_capacity(capacity),
            capacity,
        }
    }

    /// Registers an operand region.
    ///
    /// Expired entries (protection lapsed at or before `now`) are
    /// recycled first, mirroring the fixed-size table of the hardware.
    ///
    /// # Errors
    ///
    /// Returns [`AtFull`] when no slot can be recycled.
    pub(crate) fn register(&mut self, entry: AtEntry, now: u64) -> Result<(), AtFull> {
        self.entries.retain(|e| e.protect_until > now);
        if self.entries.len() >= self.capacity {
            return Err(AtFull {
                capacity: self.capacity,
            });
        }
        self.entries.push(entry);
        Ok(())
    }

    /// The cycle until which a host access must stall, if any.
    ///
    /// `is_store` selects the WAR rule for sources; destinations block
    /// both directions.
    pub(crate) fn stall_until(&self, addr: u32, len: u32, is_store: bool, now: u64) -> Option<u64> {
        let mut worst: Option<u64> = None;
        for e in &self.entries {
            if e.protect_until <= now || !e.overlaps(addr, len) {
                continue;
            }
            let blocks = match e.kind {
                OperandKind::Source => is_store,
                OperandKind::Destination => true,
            };
            if blocks {
                worst = Some(worst.map_or(e.protect_until, |w| w.max(e.protect_until)));
            }
        }
        worst
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(start: u32, end: u32, kind: OperandKind, until: u64) -> AtEntry {
        AtEntry {
            start,
            end,
            kind,
            protect_until: until,
        }
    }

    #[test]
    fn source_blocks_stores_only() {
        let mut at = AddressTable::new(4);
        at.register(entry(0x100, 0x200, OperandKind::Source, 1000), 0)
            .unwrap();
        assert_eq!(at.stall_until(0x180, 4, true, 10), Some(1000), "WAR");
        assert_eq!(at.stall_until(0x180, 4, false, 10), None, "loads pass");
        assert_eq!(at.stall_until(0x180, 4, true, 1000), None, "expired");
    }

    #[test]
    fn destination_blocks_everything() {
        let mut at = AddressTable::new(4);
        at.register(entry(0x100, 0x200, OperandKind::Destination, 500), 0)
            .unwrap();
        assert_eq!(at.stall_until(0x1ff, 1, false, 10), Some(500), "RAW");
        assert_eq!(at.stall_until(0x1ff, 1, true, 10), Some(500), "WAW");
        assert_eq!(at.stall_until(0x200, 1, true, 10), None, "past end");
    }

    #[test]
    fn overlapping_entries_take_worst_case() {
        let mut at = AddressTable::new(4);
        at.register(entry(0x100, 0x200, OperandKind::Destination, 500), 0)
            .unwrap();
        at.register(entry(0x180, 0x280, OperandKind::Destination, 900), 0)
            .unwrap();
        assert_eq!(at.stall_until(0x190, 4, false, 0), Some(900));
    }

    #[test]
    fn expired_entries_recycle() {
        let mut at = AddressTable::new(1);
        at.register(entry(0, 16, OperandKind::Source, 100), 0)
            .unwrap();
        assert!(at
            .register(entry(32, 48, OperandKind::Source, 200), 50)
            .is_err());
        // At t=100 the first entry lapsed and its slot is reusable.
        at.register(entry(32, 48, OperandKind::Source, 200), 100)
            .unwrap();
        assert_eq!(at.entries.len(), 1);
    }
}
