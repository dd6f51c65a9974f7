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

/// A busy window `[start, end)` in absolute cycles.
type Window = (u64, u64);

/// Windows a new hole opens with: one shift of the later windows pays
/// for this many inserts, and the buffer stays about as large as a
/// plain `Vec` of the windows (merges widen the hole again, and a hole
/// past a quarter of the buffer shrinks back to this).
const HOLE: usize = 64;

/// A shared, single-ported resource booked in absolute-cycle windows.
///
/// Nothing is ever unbooked: the busy set only grows. The calendar
/// relies on that to remember one span a search already proved full
/// (see [`ResourceChannel::reserve`]).
///
/// The windows live in one `Vec` around a movable hole (a gap buffer):
/// window `i` sits at `buf[i]` before the hole and at
/// `buf[i + hole_len]` after it. An insert or a merge first moves the
/// hole to where it edits, shifting only the windows between the last
/// edit and this one instead of every later window, and leaves the
/// hole right before the window it touched. The hole therefore never
/// reaches the physical end: the last window is always `buf.last()`,
/// and a booking at or past the (cached) horizon is one compare and
/// one push.
#[derive(Debug, Clone, Default)]
pub struct ResourceChannel {
    /// Busy windows sorted by start time, around the hole
    /// `hole..hole + hole_len` (whose contents are stale).
    buf: Vec<Window>,
    hole: usize,
    hole_len: usize,
    /// End of the last window (0 when idle forever).
    horizon: u64,
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
        if earliest >= self.horizon {
            self.append(earliest, earliest + duration);
            return (earliest, earliest + duration);
        }
        self.reserve_behind(earliest, duration)
    }

    /// Books `[start, end)` at or past the horizon, coalescing with the
    /// last window when it ends exactly at `start`.
    #[inline]
    fn append(&mut self, start: u64, end: u64) {
        match self.buf.last_mut() {
            Some(w) if w.1 == start => w.1 = end,
            _ => self.buf.push((start, end)),
        }
        self.horizon = end;
        self.hint = self.len() - 1;
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
        let n = self.len();
        while i < n {
            let (s, e) = self.get(i);
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
        if i == n {
            self.append(t, t + duration);
        } else {
            self.splice(i, (t, t + duration));
        }
        (t, t + duration)
    }

    /// Books `win`, which lies in the gap before window `i` (`i <
    /// len`), coalescing with exact neighbours. Returns the index of
    /// the window now holding `win`.
    fn splice(&mut self, i: usize, win: Window) -> usize {
        let touches_prev = i > 0 && self.get(i - 1).1 == win.0;
        let touches_next = self.get(i).0 == win.1;
        self.hint = match (touches_prev, touches_next) {
            (true, true) => {
                self.merge_into_next(i - 1);
                i - 1
            }
            (true, false) => {
                let j = self.slot(i - 1);
                self.buf[j].1 = win.1;
                i - 1
            }
            (false, true) => {
                let j = self.slot(i);
                self.buf[j].0 = win.0;
                i
            }
            (false, false) => {
                self.insert(i, win);
                i
            }
        };
        debug_assert!(
            self.hole + self.hole_len < self.buf.len(),
            "the hole never reaches the physical end"
        );
        self.hint
    }

    /// Position in `buf` of window `i`.
    #[inline]
    fn slot(&self, i: usize) -> usize {
        if i < self.hole {
            i
        } else {
            i + self.hole_len
        }
    }

    /// Window `i`.
    #[inline]
    fn get(&self, i: usize) -> Window {
        self.buf[self.slot(i)]
    }

    /// The windows before and after the hole.
    fn halves(&self) -> (&[Window], &[Window]) {
        let (front, rest) = self.buf.split_at(self.hole);
        (front, &rest[self.hole_len..])
    }

    /// Moves the hole to just before window `i`, shifting the windows
    /// between its old and its new place.
    fn move_hole(&mut self, i: usize) {
        let (h, l) = (self.hole, self.hole_len);
        if l > 0 {
            if i < h {
                self.buf.copy_within(i..h, i + l);
            } else {
                self.buf.copy_within(h + l..i + l, h);
            }
        }
        self.hole = i;
    }

    /// Inserts `win` as window `i` (`i < len`), leaving the hole right
    /// before it. Without a hole, a new one of [`HOLE`] windows opens at
    /// `i`: one shift of the later windows pays for that many inserts.
    fn insert(&mut self, i: usize, win: Window) {
        if self.hole_len == 0 {
            let n = self.buf.len();
            self.buf.resize(n + HOLE, (0, 0));
            self.buf.copy_within(i..n, i + HOLE);
            (self.hole, self.hole_len) = (i, HOLE);
        } else {
            self.move_hole(i);
        }
        self.hole_len -= 1;
        self.buf[self.hole + self.hole_len] = win;
    }

    /// Removes window `i`, whose start window `i + 1` takes over (the
    /// booking between them closed the gap), leaving the hole right
    /// before the merged window.
    ///
    /// Each merge widens the hole by one. Once it is wider than [`HOLE`]
    /// and a quarter of the buffer, the windows after it move down to
    /// leave [`HOLE`] again: otherwise the buffer would keep a slot for
    /// every window ever merged away. One such move pays for at least
    /// a quarter of the buffer's merges.
    fn merge_into_next(&mut self, i: usize) {
        self.move_hole(i);
        let start = self.buf[self.hole + self.hole_len].0;
        self.hole_len += 1;
        self.buf[self.hole + self.hole_len].0 = start;
        let (h, l) = (self.hole, self.hole_len);
        if l > HOLE && l >= self.buf.len() / 4 {
            self.buf.copy_within(h + l.., h + HOLE);
            self.buf.truncate(self.buf.len() - (l - HOLE));
            self.hole_len = HOLE;
        }
    }

    /// Index of the first window ending after `t` (every earlier window
    /// ends at or before `t`), i.e. the `partition_point` of
    /// `end <= t`.
    ///
    /// Ends increase across the hole, so the answer lies before it
    /// exactly when the last window before it ends after `t`; the
    /// search then gallops within that half (see [`gallop`]). The hint
    /// only steers the search; the result is exactly the full binary
    /// search's.
    fn first_ending_after(&self, t: u64) -> usize {
        let (front, back) = self.halves();
        let i = if front.last().is_some_and(|w| w.1 > t) {
            gallop(front, self.hint, t)
        } else {
            front.len() + gallop(back, self.hint.saturating_sub(front.len()), t)
        };
        debug_assert_eq!(
            i,
            front.partition_point(|&(_, e)| e <= t) + back.partition_point(|&(_, e)| e <= t)
        );
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
            if t >= self.horizon {
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
    /// as found, so concurrent transactions interleave instead of
    /// pushing each other's whole phases to the horizon. This is the
    /// eager-simulation equivalent of a round-robin bus arbiter: a
    /// stream booked later weaves into every gap the earlier streams
    /// left. Slices that touch coalesce, so no burst size would change
    /// where any cycle lands.
    ///
    /// One walk fills each gap it meets with as much as fits and
    /// appends the rest at the horizon.
    ///
    /// Returns `(first_start, last_end)`.
    pub fn reserve_packed(&mut self, earliest: u64, total: u64) -> (u64, u64) {
        if total == 0 {
            return (earliest, earliest);
        }
        let i = self.first_ending_after(earliest);
        self.pack(i, earliest, total)
    }

    /// Books a train of `n` packed bookings of `total` cycles each:
    /// exactly what `n` rounds of `cursor += pre`,
    /// `(_, end) = reserve_packed(cursor, total)`, `cursor = end + post`
    /// book, starting from `cursor = earliest`.
    ///
    /// Each booking's walk starts from the window the previous one
    /// landed in and steps forward to its own cursor instead of
    /// searching the calendar again.
    ///
    /// Returns `(cursor, wait)`: the final cursor and the cycles the
    /// bookings waited beyond their service time (`end − cursor −
    /// total`, summed).
    pub fn reserve_packed_train(
        &mut self,
        earliest: u64,
        n: u64,
        pre: u64,
        total: u64,
        post: u64,
    ) -> (u64, u64) {
        if total == 0 {
            return (earliest + n * (pre + post), 0);
        }
        let (mut cursor, mut wait) = (earliest, 0);
        let mut i = self.first_ending_after(cursor);
        for _ in 0..n {
            cursor += pre;
            while i < self.len() && self.get(i).1 <= cursor {
                i += 1;
            }
            debug_assert_eq!(i, self.first_ending_after(cursor));
            let (_, end) = self.pack(i, cursor, total);
            wait += end - cursor - total;
            cursor = end + post;
            i = self.hint;
        }
        (cursor, wait)
    }

    /// The walk of every packed booking: books `total` cycles from `t`,
    /// starting at window `i`, the first window ending after `t`. Fills
    /// each gap it meets with as much as fits and appends the rest at
    /// the horizon. Leaves the hint on the window holding the last
    /// booked cycle.
    ///
    /// Returns `(first_start, last_end)`.
    #[inline]
    fn pack(&mut self, mut i: usize, mut t: u64, total: u64) -> (u64, u64) {
        let mut remaining = total;
        let mut first = None;
        while i < self.len() {
            let (s, e) = self.get(i);
            if s > t {
                let take = remaining.min(s - t);
                first.get_or_insert(t);
                remaining -= take;
                i = self.splice(i, (t, t + take));
                t += take;
                if remaining == 0 {
                    return (first.unwrap_or(t), t);
                }
                continue; // the gap is filled: window `i` now starts at or before `t`
            }
            t = e; // we are inside (or at the edge of) window i
            i += 1;
        }
        self.append(t, t + remaining);
        (first.unwrap_or(t), t + remaining)
    }

    /// Latest booked end time (0 when idle forever). Ends increase
    /// with starts, so it is the last window's end.
    #[inline]
    pub fn horizon(&self) -> u64 {
        self.horizon
    }

    /// The booked busy windows, sorted by start time. Disjoint and
    /// maximally coalesced: consecutive windows never touch.
    pub fn windows(&self) -> Vec<(u64, u64)> {
        let (front, back) = self.halves();
        [front, back].concat()
    }

    /// Number of booked windows.
    pub fn len(&self) -> usize {
        self.buf.len() - self.hole_len
    }

    /// `true` when nothing is booked.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total busy cycles booked (utilisation numerator).
    pub fn busy_cycles(&self) -> u64 {
        let (front, back) = self.halves();
        front.iter().chain(back).map(|&(s, e)| e - s).sum()
    }
}

/// Index of the first window of the sorted `w` ending after `t`.
///
/// Consecutive requests land next to each other — a kernel's cursor
/// moves forward and fragmented/packed chunks start where the last one
/// ended — so the search gallops from window `h` (the last booking's,
/// clamped to `w`) in whichever direction `t` lies, doubling its
/// stride, then binary-searches the bracket it found: O(log d) for a
/// request `d` windows from the previous one instead of O(log n) over
/// the whole calendar.
fn gallop(w: &[Window], h: usize, t: u64) -> usize {
    let ends_by = |i: usize| w[i].1 <= t;
    let h = h.min(w.len());
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
    lo + w[lo..hi].partition_point(|&(_, e)| e <= t)
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
        let (first, end) = c.reserve_packed(0, 30);
        assert_eq!(first, 6, "first grant lands in the first gap");
        assert_eq!(end, 60, "five 6-cycle gaps absorb 30 cycles");
        // The comb is now solid up to 60.
        assert_eq!(c.windows()[0], (0, 66));
    }

    #[test]
    fn packed_grants_an_idle_channel_densely() {
        let mut c = ResourceChannel::new();
        assert_eq!(c.reserve_packed(100, 40), (100, 140));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn packed_books_exactly_total() {
        let mut c = ResourceChannel::new();
        c.reserve(0, 5);
        c.reserve(8, 5);
        let before = c.busy_cycles();
        c.reserve_packed(0, 20);
        assert_eq!(c.busy_cycles(), before + 20);
    }

    #[test]
    fn merges_shrink_a_wide_hole() {
        let mut c = ResourceChannel::new();
        // A comb of 1000 windows, then 999 exact-fit bookings that merge
        // it into one window.
        for k in 0..1000 {
            c.reserve(10 * k, 5);
        }
        for _ in 0..999 {
            c.reserve(0, 5);
        }
        assert_eq!(c.windows(), [(0, 9995)]);
        assert!(c.buf.len() <= 1 + 4 * HOLE, "buffer of {}", c.buf.len());
        // The slots the merges freed take new windows without growing
        // the allocation.
        let cap = c.buf.capacity();
        for k in 0..700 {
            c.reserve(20_000 + 10 * k, 5);
        }
        assert_eq!(c.buf.capacity(), cap, "the appends reuse the freed slots");
        assert_eq!(c.len(), 701);
        assert_eq!(
            c.windows()[1..4],
            [(20_000, 20_005), (20_010, 20_015), (20_020, 20_025)]
        );
        assert_eq!(c.busy_cycles(), 9995 + 3500);
    }
}
