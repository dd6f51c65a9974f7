//! Property-based tests on the calendar/arbiter invariants of the
//! shared-memory fabric:
//!
//! * [`ResourceChannel`] windows stay disjoint, sorted and maximally
//!   coalesced under arbitrary mixes of whole, fragmented and packed
//!   reservations, and the booked busy set is conserved exactly;
//! * the locality-hinted calendar search grants exactly what a full
//!   binary search over the window list grants, under request streams
//!   that jump backwards and forwards, and on 1,000-window combs of
//!   interleaved eCPU issue streams that preamble and packed trains
//!   book into from earlier cycles, and under streams of inserts,
//!   merges and appends at random places of the calendar;
//! * a packed booking lands exactly where the oracle's lands when the
//!   oracle books it in chunks of a random size: no chunk (burst) size
//!   changes a grant, which is why the fabric takes none;
//! * a train of packed bookings ([`ResourceChannel::reserve_packed_train`],
//!   [`Fabric::issue_train`]) books exactly what its bookings made one
//!   by one book;
//! * the `whole-phase` fabric grants are bit-identical to direct
//!   [`ResourceChannel::reserve`] grants on the same request stream
//!   (the cycle-exactness guarantee every committed baseline relies
//!   on);
//! * the burst arbiters are work-conserving (exactly `duration` busy
//!   cycles per transaction) and `priority-host` never splits a host
//!   transaction.

use arcane::fabric::{ArbiterKind, Fabric, FabricConfig, ResourceChannel, HOST_PORT};
use proptest::prelude::*;

/// One randomised reservation: which primitive, and its parameters.
#[derive(Debug, Clone, Copy)]
enum Req {
    Whole {
        earliest: u64,
        dur: u64,
    },
    Fragmented {
        earliest: u64,
        total: u64,
        chunk: u64,
    },
    Packed {
        earliest: u64,
        total: u64,
        burst: u64,
    },
}

fn req() -> impl Strategy<Value = Req> {
    prop_oneof![
        (0u64..2000, 1u64..80).prop_map(|(earliest, dur)| Req::Whole { earliest, dur }),
        (0u64..2000, 1u64..200, 1u64..32).prop_map(|(earliest, total, chunk)| {
            Req::Fragmented {
                earliest,
                total,
                chunk,
            }
        }),
        (0u64..2000, 1u64..200, 1u64..64).prop_map(|(earliest, total, burst)| Req::Packed {
            earliest,
            total,
            burst,
        }),
    ]
}

fn check_invariants(chan: &ResourceChannel, booked: u64) -> Result<(), TestCaseError> {
    let windows = chan.windows();
    for w in &windows {
        prop_assert!(w.0 < w.1, "window is non-empty: {w:?}");
    }
    for pair in windows.windows(2) {
        prop_assert!(
            pair[0].1 < pair[1].0,
            "windows sorted, disjoint and coalesced (a gap between \
             neighbours): {pair:?}"
        );
    }
    prop_assert_eq!(chan.busy_cycles(), booked, "busy set conserved");
    Ok(())
}

proptest! {
    #[test]
    fn channel_invariants_under_mixed_reservations(
        reqs in prop::collection::vec(req(), 1..80),
    ) {
        let mut chan = ResourceChannel::new();
        let mut booked = 0u64;
        for r in reqs {
            match r {
                Req::Whole { earliest, dur } => {
                    let (s, e) = chan.reserve(earliest, dur);
                    prop_assert!(s >= earliest);
                    prop_assert_eq!(e - s, dur);
                    booked += dur;
                }
                Req::Fragmented { earliest, total, chunk } => {
                    let (s, e) = chan.reserve_fragmented(earliest, total, chunk);
                    prop_assert!(s >= earliest && e >= s + total);
                    booked += total;
                }
                Req::Packed { earliest, total, .. } => {
                    let (s, e) = chan.reserve_packed(earliest, total);
                    prop_assert!(s >= earliest && e >= s + total);
                    booked += total;
                }
            }
            check_invariants(&chan, booked)?;
        }
    }

    #[test]
    fn whole_phase_grants_match_direct_reserve(
        reqs in prop::collection::vec((1usize..5, 0u64..3000, 1u64..400), 1..60),
    ) {
        // The same kernel-port request stream, once through the
        // whole-phase fabric, once against a bare calendar: grants must
        // be bit-identical (the committed-baseline guarantee).
        let mut fabric = Fabric::new(FabricConfig::default(), 4);
        let mut direct = ResourceChannel::new();
        for (port, earliest, dur) in reqs {
            let g = fabric.request(port, 0x2000_0000, earliest, dur);
            let (s, e) = direct.reserve(earliest, dur);
            prop_assert_eq!((g.start, g.end), (s, e));
            prop_assert_eq!(g.end - g.start, dur, "whole-phase never splits");
        }
        prop_assert_eq!(
            fabric.bank_channels()[0].windows(),
            direct.windows(),
            "identical busy calendars"
        );
    }

    /// Descriptor-batch transfers are ordinary kernel-path traffic:
    /// under whole-phase arbitration a mixed stream of DMA requests and
    /// `issue_batch` transfers books grants bit-identical to direct
    /// contiguous reserves of the same durations (the batch pipeline
    /// adds no hidden cycles to the shared path).
    #[test]
    fn whole_phase_batch_grants_match_direct_reserve(
        reqs in prop::collection::vec(
            (0usize..5, 0u64..3000, 1u64..400, any::<bool>()), 1..60),
    ) {
        let mut fabric = Fabric::new(FabricConfig::default(), 4);
        let mut direct = ResourceChannel::new();
        let bpc = FabricConfig::default().bytes_per_cycle;
        for (port, earliest, dur, as_batch) in reqs {
            let g = if as_batch {
                // A batch whose payload needs exactly `dur` cycles.
                fabric.issue_batch(port, 0x2000_0000, earliest, dur * bpc)
            } else {
                fabric.request(port.max(1), 0x2000_0000, earliest, dur)
            };
            let (s, e) = direct.reserve(earliest, dur);
            prop_assert_eq!((g.start, g.end), (s, e));
            prop_assert_eq!(g.end - g.start, dur, "whole-phase never splits");
        }
        prop_assert_eq!(
            fabric.bank_channels()[0].windows(),
            direct.windows(),
            "identical busy calendars"
        );
    }

    #[test]
    fn burst_arbiters_are_work_conserving(
        kind in prop_oneof![
            Just(ArbiterKind::RoundRobinBurst),
            Just(ArbiterKind::PriorityHost)
        ],
        reqs in prop::collection::vec((0usize..5, 0u64..3000, 1u64..400), 1..60),
    ) {
        let cfg = FabricConfig { arbiter: kind, ..FabricConfig::default() };
        let mut fabric = Fabric::new(cfg, 4);
        let mut booked = 0u64;
        for (port, earliest, dur) in reqs {
            let g = fabric.request(port, 0x2000_0000, earliest, dur);
            prop_assert!(g.start >= earliest);
            prop_assert!(g.end >= g.start + dur, "span covers the service time");
            if kind == ArbiterKind::PriorityHost && port == HOST_PORT {
                prop_assert_eq!(g.end - g.start, dur, "host transactions stay whole");
            }
            booked += dur;
        }
        prop_assert_eq!(fabric.busy_cycles(), booked, "every cycle granted once");
        let stats_busy: u64 = fabric.port_stats().iter().map(|s| s.busy_cycles).sum();
        prop_assert_eq!(stats_busy, booked, "port accounting agrees");
    }

    #[test]
    fn packed_reservation_is_never_later_than_whole(
        pre in prop::collection::vec((0u64..1500, 1u64..60), 0..30),
        earliest in 0u64..1500,
        total in 1u64..300,
    ) {
        // Against any pre-booked calendar, filling gaps slice by slice
        // completes no later than waiting for one contiguous window.
        let mut a = ResourceChannel::new();
        let mut b = ResourceChannel::new();
        for &(t, d) in &pre {
            a.reserve(t, d);
            b.reserve(t, d);
        }
        let (_, packed_end) = a.reserve_packed(earliest, total);
        let (_, whole_end) = b.reserve(earliest, total);
        prop_assert!(
            packed_end <= whole_end,
            "packed {packed_end} vs whole {whole_end}"
        );
    }
}

/// The calendar as it stood before the locality-hinted search: every
/// lookup binary-searches the whole window list. Kept verbatim as the
/// grant oracle for [`ResourceChannel`], except that its packed
/// bookings still book in chunks of at most `burst` cycles, which
/// production no longer takes.
#[derive(Default)]
struct FullSearchChannel {
    windows: Vec<(u64, u64)>,
}

impl FullSearchChannel {
    fn reserve(&mut self, earliest: u64, duration: u64) -> (u64, u64) {
        if duration == 0 {
            return (earliest, earliest);
        }
        let mut t = earliest;
        let mut i = self.windows.partition_point(|&(_, e)| e <= t);
        while i < self.windows.len() {
            let (s, e) = self.windows[i];
            if s >= t + duration {
                break;
            }
            t = e;
            i += 1;
        }
        let win = (t, t + duration);
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
        (win.0, win.1)
    }

    fn reserve_fragmented(&mut self, earliest: u64, total: u64, chunk: u64) -> (u64, u64) {
        let mut remaining = total;
        let mut t = earliest;
        let mut first = None;
        while remaining > 0 {
            let d = remaining.min(chunk);
            let (s, e) = self.reserve(t, d);
            if first.is_none() {
                first = Some(s);
            }
            t = e;
            remaining -= d;
        }
        (first.unwrap_or(earliest), t)
    }

    fn next_gap(&self, earliest: u64) -> (u64, u64) {
        let mut t = earliest;
        let mut i = self.windows.partition_point(|&(_, e)| e <= t);
        while i < self.windows.len() {
            let (s, e) = self.windows[i];
            if s > t {
                return (t, s - t);
            }
            t = e;
            i += 1;
        }
        (t, u64::MAX)
    }

    fn reserve_packed(&mut self, earliest: u64, total: u64, burst: u64) -> (u64, u64) {
        if total == 0 {
            return (earliest, earliest);
        }
        let mut remaining = total;
        let mut t = earliest;
        let mut first = None;
        while remaining > 0 {
            let (gap_start, gap_len) = self.next_gap(t);
            let d = remaining.min(burst).min(gap_len);
            let (s, e) = self.reserve(gap_start, d);
            if first.is_none() {
                first = Some(s);
            }
            remaining -= d;
            t = e;
        }
        (first.unwrap_or(earliest), t)
    }
}

/// Where a request's `earliest` lands relative to the previous grant.
#[derive(Debug, Clone, Copy)]
enum Jump {
    /// Just after the previous grant (the common, local case).
    Near,
    /// Backwards from the previous grant into older windows.
    Back,
    /// Anywhere on the axis.
    Anywhere,
    /// Past every booked window.
    PastHorizon,
}

proptest! {
    #[test]
    fn hinted_search_grants_match_full_search_oracle(
        reqs in prop::collection::vec(
            (
                prop_oneof![
                    Just(Jump::Near),
                    Just(Jump::Back),
                    Just(Jump::Anywhere),
                    Just(Jump::PastHorizon)
                ],
                0u64..4000,
                req(),
            ),
            1..200,
        ),
    ) {
        let mut chan = ResourceChannel::new();
        let mut oracle = FullSearchChannel::default();
        let mut last = 0u64;
        for (jump, off, r) in reqs {
            let earliest = match jump {
                Jump::Near => last + off % 16,
                Jump::Back => last.saturating_sub(off),
                Jump::Anywhere => off * 4,
                Jump::PastHorizon => chan.horizon() + off % 64,
            };
            let (got, want) = match r {
                Req::Whole { dur, .. } => {
                    (chan.reserve(earliest, dur), oracle.reserve(earliest, dur))
                }
                Req::Fragmented { total, chunk, .. } => (
                    chan.reserve_fragmented(earliest, total, chunk),
                    oracle.reserve_fragmented(earliest, total, chunk),
                ),
                Req::Packed { total, burst, .. } => (
                    chan.reserve_packed(earliest, total),
                    oracle.reserve_packed(earliest, total, burst),
                ),
            };
            prop_assert_eq!(got, want, "grant for {:?} from {}", r, earliest);
            prop_assert_eq!(chan.windows(), oracle.windows, "identical calendars");
            prop_assert_eq!(chan.horizon(), oracle.windows.last().map_or(0, |w| w.1));
            last = got.1;
        }
    }
}

/// The eCPU issue slots of a GeMM-shaped kernel stream, in turn.
const GEMM_SLOTS: [u64; 3] = [3, 2, 6];
/// Cycles of kernel work between two issue slots.
const GEMM_WORK: u64 = 4;
/// Issue slots each of the four streams books.
const STREAM_SLOTS: usize = 500;

/// Drives the legacy launch path's eCPU issue comb: four GeMM-shaped
/// streams, starting at `offsets`, take turns booking 3-, 2- and
/// 6-cycle slots 4 cycles apart, each turn `(slots, idle)` after an
/// idle pause (the kernel waiting on its DMA). Every slot is booked
/// through `book(earliest, duration)`, and its stream's cursor moves
/// past the grant `book` returns.
fn gemm_comb(
    offsets: &[u64],
    turns: &[(usize, u64)],
    mut book: impl FnMut(u64, u64) -> Result<(u64, u64), TestCaseError>,
) -> Result<(), TestCaseError> {
    let mut cursor = offsets.to_vec();
    let mut issued = [0usize; 4];
    for (turn, &(n, idle)) in turns.iter().cycle().enumerate() {
        if issued.iter().all(|&c| c == STREAM_SLOTS) {
            break;
        }
        let k = turn % 4;
        cursor[k] += idle;
        let stop = STREAM_SLOTS.min(issued[k] + n);
        while issued[k] < stop {
            let d = GEMM_SLOTS[issued[k] % 3];
            cursor[k] = book(cursor[k], d)?.1 + GEMM_WORK;
            issued[k] += 1;
        }
    }
    Ok(())
}

proptest! {
    /// Calendars shaped like the legacy launch path's eCPU issue comb
    /// ([`gemm_comb`]). Fragmented preamble trains (chunk 16) and
    /// packed trains then start from random earlier cycles, mixed with
    /// single slots that search for shorter gaps. Every grant, window
    /// list and horizon matches the full-search oracle, which books the
    /// packed trains in chunks of a random size.
    #[test]
    fn comb_grants_match_full_search_oracle(
        offsets in prop::collection::vec(0u64..64, 4..5),
        turns in prop::collection::vec((1usize..48, 0u64..400), 16..64),
        trains in prop::collection::vec(
            (0u8..3, 0u64..1000, 1u64..1200, 1u64..512),
            1..40,
        ),
    ) {
        let mut chan = ResourceChannel::new();
        let mut oracle = FullSearchChannel::default();
        gemm_comb(&offsets, &turns, |t, d| {
            let got = chan.reserve(t, d);
            prop_assert_eq!(got, oracle.reserve(t, d));
            Ok(got)
        })?;
        prop_assert!(chan.len() >= 1000, "a comb of {} windows", chan.len());
        prop_assert_eq!(chan.windows(), oracle.windows);
        for (kind, frac, total, burst) in trains {
            let earliest = chan.horizon() * frac / 1000;
            let (got, want) = match kind {
                0 => (
                    chan.reserve_fragmented(earliest, total, 16),
                    oracle.reserve_fragmented(earliest, total, 16),
                ),
                1 => (
                    chan.reserve_packed(earliest, total),
                    oracle.reserve_packed(earliest, total, burst),
                ),
                _ => {
                    let d = GEMM_SLOTS[total as usize % 3];
                    (chan.reserve(earliest, d), oracle.reserve(earliest, d))
                }
            };
            prop_assert_eq!(got, want, "train {} of {} from {}", kind, total, earliest);
            prop_assert_eq!(chan.windows(), oracle.windows, "identical calendars");
            prop_assert_eq!(chan.horizon(), oracle.windows.last().map_or(0, |w| w.1));
        }
    }
}

proptest! {
    /// GeMM tap trains on the dispatch path: one
    /// [`ResourceChannel::reserve_packed_train`] books exactly what its
    /// packed bookings made one by one on the full-search oracle book
    /// (each `pre` cycles after the previous one's end plus `post`) —
    /// the same final cursor, waits, window list and horizon — on
    /// 1,000+-window [`gemm_comb`] calendars, from random earlier
    /// cycles, with oracle chunks short enough to split a slice.
    #[test]
    fn packed_train_matches_single_bookings(
        offsets in prop::collection::vec(0u64..64, 4..5),
        turns in prop::collection::vec((1usize..48, 0u64..400), 16..64),
        trains in prop::collection::vec(
            (0u64..1000, 0u64..40, 0u64..8, 1u64..6, 1u64..4, 0u64..16),
            1..24,
        ),
    ) {
        let mut trained = ResourceChannel::new();
        gemm_comb(&offsets, &turns, |t, d| Ok(trained.reserve(t, d)))?;
        prop_assert!(trained.len() >= 1000, "a comb of {} windows", trained.len());
        let mut single = FullSearchChannel { windows: trained.windows() };
        for (frac, n, pre, total, burst, post) in trains {
            let earliest = trained.horizon() * frac / 1000;
            let (mut cursor, mut wait) = (earliest, 0);
            for _ in 0..n {
                cursor += pre;
                let (_, end) = single.reserve_packed(cursor, total, burst);
                wait += end - cursor - total;
                cursor = end + post;
            }
            prop_assert_eq!(
                trained.reserve_packed_train(earliest, n, pre, total, post),
                (cursor, wait),
                "train of {} from {}", n, earliest
            );
            prop_assert_eq!(trained.windows(), single.windows, "identical calendars");
            prop_assert_eq!(trained.horizon(), single.windows.last().map_or(0, |w| w.1));
        }
    }

    /// [`Fabric::issue_train`] books exactly what the same dispatches
    /// issued one by one book — final cursor, port statistics and bank
    /// calendars — under both burst arbiters, between DMA requests of
    /// every port.
    #[test]
    fn issue_train_matches_single_issues(
        kind in prop_oneof![
            Just(ArbiterKind::RoundRobinBurst),
            Just(ArbiterKind::PriorityHost)
        ],
        banks in 1usize..3,
        steps in prop::collection::vec(
            (0usize..5, 0u64..3000, 0u64..200, 0u64..8, 0u64..16, any::<bool>()),
            1..40,
        ),
    ) {
        let cfg = FabricConfig { arbiter: kind, banks, ..FabricConfig::default() };
        let (mut single, mut trained) = (Fabric::new(cfg, 4), Fabric::new(cfg, 4));
        for (port, earliest, n, pre, post, as_train) in steps {
            if !as_train || port == HOST_PORT {
                let addr = 0x2000_0000 + (n as u32 % 4) * 1024;
                let dur = n + 1;
                let want = single.request(port, addr, earliest, dur);
                prop_assert_eq!(trained.request(port, addr, earliest, dur), want);
                continue;
            }
            let mut cursor = earliest;
            for _ in 0..n {
                cursor += pre;
                cursor = single.issue(port, cursor, 1).end + post;
            }
            prop_assert_eq!(trained.issue_train(port, earliest, n, pre, post), cursor);
            prop_assert_eq!(trained.port_stats(), single.port_stats());
            for (t, s) in trained.bank_channels().iter().zip(single.bank_channels()) {
                prop_assert_eq!(t.windows(), s.windows(), "identical bank calendars");
                prop_assert_eq!(t.horizon(), s.horizon());
            }
        }
    }
}

/// One booking of a stream that edits the calendar at random places,
/// so its hole moves backwards and forwards.
#[derive(Debug, Clone, Copy)]
enum Edit {
    /// A booking strictly inside a gap: a new window between two.
    Insert,
    /// A booking that exactly fills a gap: its neighbours merge.
    Merge,
    /// A booking at or just past the horizon.
    Append,
    /// A packed booking from inside a gap.
    Packed,
}

proptest! {
    /// Inserts, merges, appends and packed bookings at random places
    /// of a comb calendar grant exactly what the full-search oracle
    /// grants, and leave the same windows, horizon and busy cycles.
    #[test]
    fn hole_moving_streams_match_full_search_oracle(
        teeth in 2u64..400,
        edits in prop::collection::vec(
            (
                prop_oneof![
                    Just(Edit::Insert),
                    Just(Edit::Merge),
                    Just(Edit::Append),
                    Just(Edit::Packed)
                ],
                0usize..1_000_000,
                1u64..40,
            ),
            1..300,
        ),
    ) {
        let mut chan = ResourceChannel::new();
        let mut oracle = FullSearchChannel::default();
        for k in 0..teeth {
            chan.reserve(10 * k, 4);
            oracle.reserve(10 * k, 4);
        }
        for (edit, pick, d) in edits {
            let w = &oracle.windows;
            // The gap after window `j`, if there is one.
            let gap = (w.len() >= 2).then(|| {
                let j = pick % (w.len() - 1);
                (w[j].1, w[j + 1].0 - w[j].1)
            });
            let (got, want) = match (edit, gap) {
                (Edit::Insert, Some((g, len))) if len >= 3 => {
                    let d = 1 + d % (len - 2);
                    (chan.reserve(g + 1, d), oracle.reserve(g + 1, d))
                }
                (Edit::Insert | Edit::Merge, Some((g, len))) => {
                    (chan.reserve(g, len), oracle.reserve(g, len))
                }
                (Edit::Packed, Some((g, len))) => {
                    let (t, burst) = (g + pick as u64 % len, 1 + pick as u64 % 7);
                    (chan.reserve_packed(t, d), oracle.reserve_packed(t, d, burst))
                }
                _ => {
                    let t = chan.horizon() + d % 3;
                    (chan.reserve(t, d), oracle.reserve(t, d))
                }
            };
            prop_assert_eq!(got, want, "{:?} at {:?}", edit, gap);
            prop_assert_eq!(chan.windows(), oracle.windows, "identical calendars");
            prop_assert_eq!(chan.horizon(), oracle.windows.last().map_or(0, |w| w.1));
            let busy: u64 = oracle.windows.iter().map(|&(s, e)| e - s).sum();
            prop_assert_eq!(chan.busy_cycles(), busy);
        }
    }
}
