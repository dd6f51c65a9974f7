//! Lightweight event statistics used by the memory-system models.

use std::fmt;

/// A saturating event counter.
///
/// # Examples
///
/// ```
/// use arcane_sim::Counter;
/// let mut c = Counter::default();
/// c.incr();
/// c.add(4);
/// assert_eq!(c.get(), 5);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Counter(u64);

impl Counter {
    /// Increments by one.
    #[inline]
    pub fn incr(&mut self) {
        self.0 = self.0.saturating_add(1);
    }

    /// Adds `n` events.
    #[inline]
    pub fn add(&mut self, n: u64) {
        self.0 = self.0.saturating_add(n);
    }

    /// Current count.
    pub const fn get(&self) -> u64 {
        self.0
    }
}

impl fmt::Display for Counter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.fmt(f)
    }
}

/// Hit/miss/writeback statistics for a cache model.
///
/// # Examples
///
/// ```
/// use arcane_sim::CacheStats;
/// let mut s = CacheStats::default();
/// s.hits.add(9);
/// s.misses.incr();
/// assert_eq!((s.hits.get(), s.misses.get()), (9, 1));
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Accesses resolved within the cache.
    pub hits: Counter,
    /// Accesses requiring a line refill.
    pub misses: Counter,
    /// Dirty lines written back to backing memory.
    pub writebacks: Counter,
    /// Accesses stalled by a lock or a busy-computing line.
    pub stalls: Counter,
    /// Total cycles spent stalled.
    pub stall_cycles: Counter,
}

/// Counters of the descriptor launch pipeline over a run: how many
/// batches the eCPU decoded, how many kernel launches they carried,
/// and what the decode work cost — the "decode" column of the
/// per-kernel preamble/compute/decode split. All zero on the legacy
/// per-instruction launch path.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LaunchStats {
    /// Descriptor batches fetched and decoded.
    pub batches: u64,
    /// Launch descriptors replayed (= kernels launched through the
    /// batched pipeline).
    pub descriptors: u64,
    /// Fresh operand bindings the descriptors installed.
    pub bindings: u64,
    /// eCPU cycles spent in batch entry + descriptor replay (the
    /// amortised successor of the legacy per-kernel preamble).
    pub decode_cycles: u64,
}

/// Utilisation of one shared channel or fabric port over a run: how
/// many cycles it was busy, how long its clients waited for grants,
/// and what fraction of the run it was occupied.
///
/// # Examples
///
/// ```
/// use arcane_sim::ChannelUtil;
/// let u = ChannelUtil { label: "dma".into(), busy_cycles: 250,
///                       wait_cycles: 50, requests: 10, horizon: 1000 };
/// assert!((u.occupancy() - 0.25).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChannelUtil {
    /// Channel/port name (`ecpu`, `host`, `vpu0`, …).
    pub label: String,
    /// Cycles the channel was booked busy.
    pub busy_cycles: u64,
    /// Cycles clients waited beyond their service time.
    pub wait_cycles: u64,
    /// Transactions issued through the channel.
    pub requests: u64,
    /// Run length the occupancy is measured against.
    pub horizon: u64,
}

impl ChannelUtil {
    /// Busy fraction of the horizon in `[0, 1]` (zero when the horizon
    /// is empty).
    pub fn occupancy(&self) -> f64 {
        if self.horizon == 0 {
            0.0
        } else {
            self.busy_cycles as f64 / self.horizon as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn channel_util_occupancy_handles_empty_horizon() {
        let u = ChannelUtil {
            label: "x".into(),
            busy_cycles: 5,
            wait_cycles: 0,
            requests: 1,
            horizon: 0,
        };
        assert_eq!(u.occupancy(), 0.0);
    }

    #[test]
    fn counter_saturates() {
        let mut c = Counter::default();
        c.add(u64::MAX);
        c.incr();
        assert_eq!(c.get(), u64::MAX);
    }
}
