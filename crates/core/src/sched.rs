//! Kernel Scheduler placement policies (paper §IV-B2, DESIGN.md §4.4).
//!
//! The C-RT's Kernel Scheduler picks which VPU instance runs each
//! offloaded kernel. The paper hardcodes *least-dirty* placement —
//! dispatching to the VPU whose cache lines need the fewest forced
//! flushes during allocation. That choice is a policy, not a law of the
//! architecture: the scheduler is C firmware, so alternatives are a
//! software swap. [`SchedulerKind`] on [`crate::ArcaneConfig`] selects
//! between the paper's policy and an oblivious rotation, the two
//! placements the ablation separates.

use std::fmt;

/// Kernel Scheduler placement policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedulerKind {
    /// The paper's policy and the default: the VPU with the fewest
    /// dirty lines, breaking ties by earliest availability, then
    /// lowest index (§IV-B2).
    #[default]
    LeastDirty,
    /// Oblivious rotation: kernel `i` goes to VPU `i mod n`. The
    /// cheapest policy a C-RT could run (one counter, no cache-state
    /// scan) — the ablation's lower bound on scheduling intelligence.
    RoundRobin,
}

impl SchedulerKind {
    /// Every selectable policy, in ablation-table order.
    pub const ALL: [SchedulerKind; 2] = [SchedulerKind::LeastDirty, SchedulerKind::RoundRobin];

    /// Chooses the VPU for the next kernel. `dirty` holds each VPU's
    /// valid dirty lines (the flushes an allocation there would force),
    /// `free_at` the cycle each VPU retires its queued work, both
    /// indexed by VPU instance; `seq` counts the kernels scheduled
    /// before this one. Returns an index `< free_at.len()`.
    pub(crate) fn choose(self, dirty: &[usize], free_at: &[u64], seq: u64) -> usize {
        match self {
            SchedulerKind::LeastDirty => (0..free_at.len())
                .min_by_key(|&v| (dirty[v], free_at[v], v))
                .expect("at least one VPU"),
            SchedulerKind::RoundRobin => (seq % free_at.len() as u64) as usize,
        }
    }

    /// Policy mnemonic (ablation tables).
    pub fn name(self) -> &'static str {
        match self {
            SchedulerKind::LeastDirty => "least-dirty",
            SchedulerKind::RoundRobin => "round-robin",
        }
    }
}

impl fmt::Display for SchedulerKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn least_dirty_matches_hardcoded_ordering() {
        // Fewest dirty wins; ties break on availability, then index.
        let ld = SchedulerKind::LeastDirty;
        assert_eq!(ld.choose(&[3, 1, 1, 2], &[10, 20, 5, 0], 7), 2);
        assert_eq!(ld.choose(&[1, 1], &[5, 5], 0), 0);
    }

    #[test]
    fn round_robin_rotates_with_seq() {
        for seq in 0..7 {
            let v = SchedulerKind::RoundRobin.choose(&[0; 3], &[0; 3], seq);
            assert_eq!(v, (seq % 3) as usize);
        }
    }

    #[test]
    fn kind_roundtrip_names() {
        assert_eq!(SchedulerKind::default(), SchedulerKind::LeastDirty);
        let names: Vec<&str> = SchedulerKind::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(names, ["least-dirty", "round-robin"]);
        assert_eq!(SchedulerKind::RoundRobin.to_string(), "round-robin");
    }

    #[test]
    fn single_vpu_is_always_zero() {
        for k in SchedulerKind::ALL {
            assert_eq!(k.choose(&[5], &[99], 3), 0, "{k}");
        }
    }
}
