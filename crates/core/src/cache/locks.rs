//! The cache-controller lock (paper §III-A2).
//!
//! The Matrix Allocator acquires the lock before programming DMA
//! transfers (allocation and writeback) and releases it afterwards.
//! While the eCPU holds the lock the host CPU is blocked from accessing
//! the cache. Because kernel phases are scheduled with absolute cycle
//! times, the lock is represented as a set of *windows*: a host access
//! landing inside a window stalls to its end.

/// Absolute-time windows during which the eCPU holds the controller
/// lock.
#[derive(Debug, Clone, Default)]
pub(crate) struct LockWindows {
    /// `(start, end)` windows sorted by start. Windows booked by
    /// different kernels may overlap, e.g. (62884, 62960) and
    /// (62892, 62938) on the mixed-traffic transformer block.
    windows: Vec<(u64, u64)>,
}

impl LockWindows {
    /// Creates an empty set of windows.
    pub fn new() -> Self {
        LockWindows::default()
    }

    /// Records a lock hold from `start` (inclusive) to `end` (exclusive).
    ///
    /// # Panics
    ///
    /// Panics if `end < start`.
    pub fn add(&mut self, start: u64, end: u64) {
        assert!(end >= start, "lock window ends before it starts");
        if end == start {
            return;
        }
        self.windows.push((start, end));
        // Keep sorted; windows are appended roughly in order, so this is
        // nearly O(1) amortised.
        let mut i = self.windows.len() - 1;
        while i > 0 && self.windows[i - 1].0 > self.windows[i].0 {
            self.windows.swap(i - 1, i);
            i -= 1;
        }
    }

    /// If the host touches the cache at `now` while a window is open,
    /// returns the cycle at which the lock releases.
    ///
    /// Open defect (ROADMAP item 8): the backward scan stops at the
    /// first window that ended at or before `now`, which is only right
    /// for disjoint windows. An access inside an earlier, longer window
    /// hidden behind a shorter, later-starting one goes unstalled.
    pub(crate) fn stall_until(&self, now: u64) -> Option<u64> {
        // Scan from the most recent windows backwards: accesses arrive
        // in roughly increasing time order.
        for &(s, e) in self.windows.iter().rev() {
            if s <= now && now < e {
                return Some(e);
            }
            if e <= now {
                break;
            }
        }
        None
    }

    /// Drops windows that ended at or before `now` (bookkeeping bound).
    pub fn prune(&mut self, now: u64) {
        self.windows.retain(|&(_, e)| e > now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn access_inside_window_stalls_to_end() {
        let mut w = LockWindows::new();
        w.add(100, 200);
        assert_eq!(w.stall_until(150), Some(200));
        assert_eq!(w.stall_until(99), None);
        assert_eq!(w.stall_until(200), None, "end is exclusive");
    }

    #[test]
    fn multiple_windows() {
        let mut w = LockWindows::new();
        w.add(100, 200);
        w.add(300, 400);
        assert_eq!(w.stall_until(350), Some(400));
        assert_eq!(w.stall_until(250), None);
    }

    #[test]
    fn out_of_order_insertion_is_sorted() {
        let mut w = LockWindows::new();
        w.add(300, 400);
        w.add(100, 200);
        assert_eq!(w.stall_until(150), Some(200));
        assert_eq!(w.stall_until(399), Some(400));
    }

    #[test]
    fn empty_window_is_ignored() {
        let mut w = LockWindows::new();
        w.add(5, 5);
        assert!(w.windows.is_empty());
    }

    #[test]
    fn prune_drops_past_windows() {
        let mut w = LockWindows::new();
        w.add(0, 10);
        w.add(20, 30);
        w.prune(15);
        assert_eq!(w.windows.len(), 1);
        assert_eq!(w.stall_until(25), Some(30));
    }
}
