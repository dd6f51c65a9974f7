//! Gap-scheduling calendar for shared hardware resources.
//!
//! The ARCANE LLC has agents every kernel must share: the single 2-D
//! DMA channel, the single eCPU (which dispatches every vector
//! instruction) and the fabric banks between the controller complex and
//! the VPU array. Because kernels are simulated eagerly one after
//! another while their cycle intervals interleave on the real hardware,
//! a plain "free-at" cursor would serialise kernels that actually
//! overlap. [`ResourceChannel`] instead keeps a calendar of busy
//! windows and books each request into the earliest gap that fits —
//! first-come-first-served per kernel, interleaved across kernels.

/// A shared, single-ported resource booked in absolute-cycle windows.
///
/// Nothing is ever unbooked: the busy set only grows. The calendar
/// relies on that to remember one span a search already proved full
/// (see [`ResourceChannel::reserve`]).
#[derive(Debug, Clone, Default)]
pub struct ResourceChannel {
    /// Busy windows sorted by start time.
    windows: Vec<(u64, u64)>,
    /// Index of the window the last booking landed in: where the next
    /// search starts (consecutive requests land next to each other).
    hint: usize,
    /// `(a, b, d)`: no gap of `d` or more cycles starts in `[a, b)`:
    /// a search for `d` cycles walked it, and `b` is the end of the
    /// window that search booked. The busy set only grows, so the span
    /// stays full for every duration `>= d`.
    full: (u64, u64, u64),
}

impl ResourceChannel {
    /// Creates an idle resource.
    pub fn new() -> Self {
        ResourceChannel::default()
    }

    /// Books `duration` cycles starting no earlier than `earliest`;
    /// returns the `(start, end)` actually granted (the earliest gap
    /// that fits).
    ///
    /// Windows are disjoint and sorted, so starts *and* ends are both
    /// increasing: the search skips every window ending at or before
    /// `earliest` (a search that starts from the last booking), and
    /// freshly booked windows coalesce with exact neighbours. The busy
    /// set is identical to booking each window separately — only the
    /// representation is compacted, which keeps the back-to-back issue
    /// pattern of a long kernel (millions of eCPU slots) at a handful
    /// of windows instead of O(n²) scans.
    ///
    /// Most requests start at or past the horizon (the last window's
    /// end) and append without a search. A request behind it that
    /// starts inside the span the last search proved full for a
    /// duration no longer than its own resumes at that span's end.
    #[inline]
    pub fn reserve(&mut self, earliest: u64, duration: u64) -> (u64, u64) {
        if duration == 0 {
            return (earliest, earliest);
        }
        if earliest >= self.horizon() {
            self.append(earliest, earliest + duration);
            return (earliest, earliest + duration);
        }
        self.reserve_behind(earliest, duration)
    }

    /// Books `[start, end)` at or past the horizon, coalescing with the
    /// last window when it ends exactly at `start`.
    #[inline]
    fn append(&mut self, start: u64, end: u64) {
        match self.windows.last_mut() {
            Some(w) if w.1 == start => w.1 = end,
            _ => self.windows.push((start, end)),
        }
        self.hint = self.windows.len() - 1;
    }

    /// The gap search of [`ResourceChannel::reserve`] for a request
    /// starting behind the horizon.
    #[inline(never)]
    fn reserve_behind(&mut self, earliest: u64, duration: u64) -> (u64, u64) {
        let (a, b, d) = self.full;
        let from = if duration >= d && (a..b).contains(&earliest) {
            b
        } else {
            earliest
        };
        let mut t = from;
        let mut i = self.first_ending_after(t);
        while i < self.windows.len() {
            let (s, e) = self.windows[i];
            if s >= t + duration {
                break; // the gap before this window fits
            }
            t = e; // collide: try right after this window
            i += 1;
        }
        // No gap of `duration` starts in `[from, t)`, nor inside the
        // booking about to be made at `t`.
        let a = if duration == d && from == b { a } else { from };
        self.full = (a, t + duration, duration);
        self.splice(i, (t, t + duration));
        (t, t + duration)
    }

    /// Books `win`, which lies in the gap before window `i`, coalescing
    /// with exact neighbours. Returns the index of the window now
    /// holding `win`.
    fn splice(&mut self, i: usize, win: (u64, u64)) -> usize {
        let touches_prev = i > 0 && self.windows[i - 1].1 == win.0;
        let touches_next = i < self.windows.len() && self.windows[i].0 == win.1;
        match (touches_prev, touches_next) {
            (true, true) => {
                self.windows[i - 1].1 = self.windows[i].1;
                self.windows.remove(i);
            }
            (true, false) => self.windows[i - 1].1 = win.1,
            (false, true) => self.windows[i].0 = win.0,
            (false, false) => self.windows.insert(i, win),
        }
        self.hint = if touches_prev { i - 1 } else { i };
        self.hint
    }

    /// Index of the first window ending after `t` (every earlier window
    /// ends at or before `t`), i.e. the `partition_point` of
    /// `end <= t`.
    ///
    /// Consecutive requests land next to each other — a kernel's cursor
    /// moves forward and fragmented/packed chunks start where the last
    /// one ended — so the search gallops from the last booking's
    /// window in whichever direction `t` lies, doubling its stride,
    /// then binary-searches the bracket it found: O(log d) for a
    /// request `d` windows from the previous one instead of O(log n)
    /// over the whole calendar. The hint only steers the search; the
    /// result is exactly the full binary search's.
    fn first_ending_after(&self, t: u64) -> usize {
        let w = &self.windows;
        let ends_by = |i: usize| w[i].1 <= t;
        let h = self.hint.min(w.len());
        // The answer lies in `lo..=hi`.
        let (mut lo, mut hi) = (0, w.len());
        if h < w.len() && ends_by(h) {
            lo = h + 1;
            let mut step = 1;
            while h + step < w.len() {
                if !ends_by(h + step) {
                    hi = h + step;
                    break;
                }
                lo = h + step + 1;
                step *= 2;
            }
        } else {
            hi = h;
            let mut step = 1;
            while step <= h {
                if ends_by(h - step) {
                    lo = h - step + 1;
                    break;
                }
                hi = h - step;
                step *= 2;
            }
        }
        let i = lo + w[lo..hi].partition_point(|&(_, e)| e <= t);
        debug_assert_eq!(i, w.partition_point(|&(_, e)| e <= t));
        i
    }

    /// Books `total` cycles of *preemptible* work starting no earlier
    /// than `earliest`, split into chunks of at most `chunk` cycles that
    /// weave into whatever gaps exist (the C-RT is a preemptive runtime:
    /// IRQ decoding interleaves with kernel dispatch, §IV-B).
    ///
    /// Once a chunk reaches the horizon, the rest is appended as one
    /// window: back-to-back chunks would coalesce into it anyway.
    ///
    /// Returns `(first_start, last_end)`.
    pub fn reserve_fragmented(&mut self, earliest: u64, total: u64, chunk: u64) -> (u64, u64) {
        assert!(chunk > 0, "chunk must be positive");
        let mut remaining = total;
        let mut t = earliest;
        let mut first = None;
        while remaining > 0 {
            if t >= self.horizon() {
                self.append(t, t + remaining);
                first.get_or_insert(t);
                t += remaining;
                break;
            }
            let d = remaining.min(chunk);
            let (s, e) = self.reserve(t, d);
            first.get_or_insert(s);
            t = e;
            remaining -= d;
        }
        (first.unwrap_or(earliest), t)
    }

    /// Books `total` cycles of *work-conserving* shared-resource time
    /// starting no earlier than `earliest`: every idle slice is taken
    /// as found, in bursts of at most `burst` cycles, so concurrent
    /// transactions interleave at burst granularity instead of pushing
    /// each other's whole phases to the horizon. This is the eager-
    /// simulation equivalent of a round-robin bus arbiter: a stream
    /// booked later weaves into every gap the earlier streams left.
    ///
    /// One walk fills each gap it meets with as much as fits, counting
    /// the bursts that slice splits into, and appends the rest at the
    /// horizon.
    ///
    /// Returns `(first_start, last_end, bursts_granted)`.
    pub fn reserve_packed(&mut self, earliest: u64, total: u64, burst: u64) -> (u64, u64, u64) {
        assert!(burst > 0, "burst must be positive");
        if total == 0 {
            return (earliest, earliest, 0);
        }
        let mut remaining = total;
        let mut t = earliest;
        let mut first = None;
        let mut bursts = 0;
        let mut i = self.first_ending_after(t);
        while i < self.windows.len() {
            let (s, e) = self.windows[i];
            if s > t {
                let take = remaining.min(s - t);
                first.get_or_insert(t);
                bursts += take.div_ceil(burst);
                remaining -= take;
                i = self.splice(i, (t, t + take));
                t += take;
                if remaining == 0 {
                    return (first.unwrap_or(t), t, bursts);
                }
                continue; // the gap is filled: window `i` now starts at or before `t`
            }
            t = e; // we are inside (or at the edge of) window i
            i += 1;
        }
        self.append(t, t + remaining);
        bursts += remaining.div_ceil(burst);
        (first.unwrap_or(t), t + remaining, bursts)
    }

    /// Latest booked end time (0 when idle forever). Ends increase
    /// with starts, so it is the last window's end.
    #[inline]
    pub fn horizon(&self) -> u64 {
        self.windows.last().map_or(0, |w| w.1)
    }

    /// The booked busy windows, sorted by start time. Disjoint and
    /// maximally coalesced: consecutive windows never touch.
    pub fn windows(&self) -> &[(u64, u64)] {
        &self.windows
    }

    /// Number of booked windows.
    pub fn len(&self) -> usize {
        self.windows.len()
    }

    /// `true` when nothing is booked.
    pub fn is_empty(&self) -> bool {
        self.windows.is_empty()
    }

    /// Total busy cycles booked (utilisation numerator).
    pub fn busy_cycles(&self) -> u64 {
        self.windows.iter().map(|&(s, e)| e - s).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_requests_append() {
        let mut c = ResourceChannel::new();
        assert_eq!(c.reserve(0, 10), (0, 10));
        assert_eq!(c.reserve(10, 5), (10, 15));
        assert_eq!(c.horizon(), 15);
    }

    #[test]
    fn later_request_fills_earlier_gap() {
        let mut c = ResourceChannel::new();
        c.reserve(0, 10); // [0, 10)
        c.reserve(50, 10); // [50, 60)
                           // A kernel simulated later but wanting cycle 12 slots into the gap.
        assert_eq!(c.reserve(12, 20), (12, 32));
        // And one that does not fit before 50 goes after 60.
        assert_eq!(c.reserve(12, 30), (60, 90));
    }

    #[test]
    fn collision_pushes_right() {
        let mut c = ResourceChannel::new();
        c.reserve(0, 100);
        assert_eq!(c.reserve(40, 10), (100, 110));
    }

    #[test]
    fn zero_duration_is_free() {
        let mut c = ResourceChannel::new();
        c.reserve(0, 10);
        assert_eq!(c.reserve(5, 0), (5, 5));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn adjacent_windows_pack_tightly() {
        let mut c = ResourceChannel::new();
        c.reserve(0, 10);
        c.reserve(20, 10);
        assert_eq!(c.reserve(0, 10), (10, 20), "exact-fit gap");
        assert_eq!(c.busy_cycles(), 30);
    }

    #[test]
    fn full_span_is_skipped_only_for_longer_requests() {
        // A comb of 4-cycle gaps: a 16-cycle request walks all of it to
        // the horizon, a 3-cycle one from the same cycle still fits the
        // first gap.
        let mut c = ResourceChannel::new();
        for k in 0..8u64 {
            c.reserve(10 * k, 6);
        }
        assert_eq!(c.reserve(0, 16), (76, 92));
        assert_eq!(c.reserve(1, 16), (92, 108), "resumes past the full span");
        assert_eq!(c.reserve(0, 3), (6, 9));
    }

    #[test]
    fn packed_fills_sub_burst_gaps() {
        // A comb of 6-busy/6-free windows: fragmented booking with a
        // 16-cycle chunk cannot use the 6-cycle gaps, packed booking
        // fills every one of them.
        let mut c = ResourceChannel::new();
        for k in 0..10u64 {
            c.reserve(12 * k, 6);
        }
        let (first, end, bursts) = c.reserve_packed(0, 30, 16);
        assert_eq!(first, 6, "first grant lands in the first gap");
        assert_eq!(end, 60, "five 6-cycle gaps absorb 30 cycles");
        assert_eq!(bursts, 5);
        // The comb is now solid up to 60.
        assert_eq!(c.windows()[0], (0, 66));
    }

    #[test]
    fn packed_respects_burst_cap() {
        let mut c = ResourceChannel::new();
        let (first, end, bursts) = c.reserve_packed(100, 40, 16);
        assert_eq!((first, end), (100, 140), "idle channel grants densely");
        assert_eq!(bursts, 3, "16 + 16 + 8");
        assert_eq!(c.len(), 1, "adjacent bursts coalesce");
    }

    #[test]
    fn packed_books_exactly_total() {
        let mut c = ResourceChannel::new();
        c.reserve(0, 5);
        c.reserve(8, 5);
        let before = c.busy_cycles();
        let (_, _, _) = c.reserve_packed(0, 20, 4);
        assert_eq!(c.busy_cycles(), before + 20);
    }
}
