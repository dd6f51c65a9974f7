//! Synthetic host-traffic generation.
//!
//! Scheduler and arbiter policies only diverge under *mixed*
//! host/kernel traffic: a kernel chain alone never dirties a cache
//! line from the host side, so every placement policy degenerates to
//! the same earliest-available rotation. [`HostTrafficGen`] produces
//! the deterministic, line-strided store pattern that graph programs
//! and ablations inject between kernel offloads to create that
//! contention.

/// Host-traffic knob for compiled graph programs: every `period`
/// kernels, the host dirties `bytes` of external memory (one word
/// store per cache line touched).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HostTraffic {
    /// Kernels between traffic bursts (≥ 1).
    pub period: usize,
    /// Span of external memory each burst dirties, in bytes.
    pub bytes: u32,
}

impl HostTraffic {
    /// A burst of `bytes` dirtied after every `period` kernels.
    ///
    /// # Panics
    ///
    /// Panics when `period` is zero.
    pub fn new(period: usize, bytes: u32) -> Self {
        assert!(period > 0, "traffic period must be at least one kernel");
        HostTraffic { period, bytes }
    }
}

/// Deterministic generator of line-strided host store addresses over a
/// scratch window `[base, base + span)`.
///
/// Each [`HostTrafficGen::burst`] yields one address per cache line
/// (the cheapest store pattern that dirties a line), walking the
/// window round-robin so repeated bursts keep re-dirtying the same
/// working set — the steady-state host load of a mixed workload.
#[derive(Debug, Clone)]
pub struct HostTrafficGen {
    base: u32,
    span: u32,
    line: u32,
    cursor: u32,
}

impl HostTrafficGen {
    /// A generator over `[base, base + span)` with `line`-byte cache
    /// lines.
    ///
    /// # Panics
    ///
    /// Panics when `line` is zero or `span < line`.
    pub fn new(base: u32, span: u32, line: u32) -> Self {
        assert!(line > 0, "line size must be positive");
        assert!(span >= line, "window must hold at least one line");
        HostTrafficGen {
            base,
            span: span - span % line,
            line,
            cursor: 0,
        }
    }

    /// The next store address (one per line, wrapping at the window
    /// end).
    fn next_store(&mut self) -> u32 {
        let addr = self.base + self.cursor;
        self.cursor = (self.cursor + self.line) % self.span;
        addr
    }

    /// The store addresses of one burst dirtying `bytes` of the
    /// window (one word store per line, `ceil(bytes / line)` stores).
    pub fn burst(&mut self, bytes: u32) -> Vec<u32> {
        let n = bytes.div_ceil(self.line);
        (0..n).map(|_| self.next_store()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn burst_is_line_strided_and_wraps() {
        let mut g = HostTrafficGen::new(0x1000, 4096, 1024);
        assert_eq!(g.burst(2048), vec![0x1000, 0x1400]);
        assert_eq!(g.burst(3000), vec![0x1800, 0x1c00, 0x1000]);
    }

    #[test]
    fn partial_line_rounds_up() {
        let mut g = HostTrafficGen::new(0, 2048, 1024);
        assert_eq!(g.burst(1).len(), 1);
        assert_eq!(g.burst(1025).len(), 2);
    }

    #[test]
    fn window_truncates_to_whole_lines() {
        let mut g = HostTrafficGen::new(0, 2500, 1024);
        // 2500 → 2048-byte window: two lines, then wrap.
        assert_eq!(g.burst(4096), vec![0, 1024, 0, 1024]);
    }

    #[test]
    fn knob_validates_period() {
        let t = HostTraffic::new(2, 8192);
        assert_eq!((t.period, t.bytes), (2, 8192));
    }
}
