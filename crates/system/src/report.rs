//! Run reports: the measurements every figure is built from.

use arcane_sim::ChannelUtil;
use arcane_sim::PhaseBreakdown;

/// Outcome of one end-to-end workload run (result already verified
/// against the golden model by the driver).
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// Configuration label (e.g. `"ARCANE 8-lane"`, `"CV32E40X"`).
    pub label: String,
    /// Total application cycles (program start → result available).
    pub cycles: u64,
    /// Host instructions retired.
    pub instret: u64,
    /// Kernel phase breakdown, summed across kernels (ARCANE only).
    pub phases: Option<PhaseBreakdown>,
    /// Host cache hits.
    pub hits: u64,
    /// Host cache misses.
    pub misses: u64,
    /// Host cycles lost to locks/hazards/busy lines (ARCANE only).
    pub stall_cycles: u64,
    /// Multiply-accumulate operations performed by the workload.
    pub macs: u64,
    /// Per-channel utilisation: the eCPU plus one row per fabric port
    /// (ARCANE only; empty for the baselines).
    pub channels: Vec<ChannelUtil>,
}

impl RunReport {
    /// Throughput in MACs per cycle.
    pub fn macs_per_cycle(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.macs as f64 / self.cycles as f64
        }
    }

    /// Speedup of this run relative to `baseline`.
    pub fn speedup_over(&self, baseline: &RunReport) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            baseline.cycles as f64 / self.cycles as f64
        }
    }

    /// GOPS at `freq_mhz`, counting one MAC as two operations.
    pub fn gops(&self, freq_mhz: f64) -> f64 {
        self.macs_per_cycle() * 2.0 * freq_mhz / 1e3
    }
}

/// One row of the preamble/compute/decode split table: the
/// machine-generated form of the EXPERIMENTS.md "NN layer graphs" and
/// launch-pipeline tables. Build rows from
/// `arcane_nn::GraphRunReport::split_row` (or by hand for conv runs)
/// and render with [`format_phase_split_table`].
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseSplitRow {
    /// Row label (workload / mode / VPU count).
    pub label: String,
    /// Kernels launched.
    pub kernels: usize,
    /// Total run cycles.
    pub cycles: u64,
    /// Phase breakdown summed over the kernels.
    pub phases: PhaseBreakdown,
    /// eCPU cycles spent decoding descriptor batches (zero on the
    /// legacy launch path, where all of it is per-kernel preamble).
    pub decode_cycles: u64,
}

/// Formats preamble/compute/decode split rows as an aligned table.
///
/// Columns: label, kernels, total cycles, then the preamble, compute and
/// allocation+writeback cycles each beside its share of their sum (the
/// kernels' phase total, not the run's cycles), and the batch-decode
/// cycles of the descriptor launch pipeline.
pub fn format_phase_split_table(rows: &[PhaseSplitRow]) -> String {
    use arcane_sim::Phase;
    let mut out = String::new();
    out.push_str(&format!(
        "{:<34} {:>8} {:>13} {:>17} {:>17} {:>17} {:>11}\n",
        "workload", "kernels", "cycles", "preamble", "compute", "alloc+wb", "decode cyc"
    ));
    for r in rows {
        let ph = r.phases;
        let cell = |cycles: u64, share: f64| format!("{cycles:>10} {:>5.1}%", 100.0 * share);
        out.push_str(&format!(
            "{:<34} {:>8} {:>13} {} {} {} {:>11}\n",
            r.label,
            r.kernels,
            r.cycles,
            cell(ph.preamble, ph.share(Phase::Preamble)),
            cell(ph.compute, ph.share(Phase::Compute)),
            cell(
                ph.allocation + ph.writeback,
                ph.share(Phase::Allocation) + ph.share(Phase::Writeback)
            ),
            r.decode_cycles,
        ));
    }
    out
}

/// Formats per-channel utilisation as an aligned table (one line per
/// channel: busy cycles, wait cycles, requests, and occupancy beside
/// the horizon it is measured against), ready to print under a run
/// report.
pub fn format_channel_table(channels: &[ChannelUtil]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:>8} {:>12} {:>12} {:>9} {:>10} {:>12}\n",
        "channel", "busy cyc", "wait cyc", "requests", "occupancy", "horizon"
    ));
    for u in channels {
        out.push_str(&format!(
            "{:>8} {:>12} {:>12} {:>9} {:>9.1}% {:>12}\n",
            u.label,
            u.busy_cycles,
            u.wait_cycles,
            u.requests,
            100.0 * u.occupancy(),
            u.horizon
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rep(cycles: u64, macs: u64) -> RunReport {
        RunReport {
            label: "x".into(),
            cycles,
            instret: 0,
            phases: None,
            hits: 0,
            misses: 0,
            stall_cycles: 0,
            macs,
            channels: Vec::new(),
        }
    }

    #[test]
    fn phase_split_table_formats_shares_and_decode() {
        let mut phases = PhaseBreakdown::default();
        phases.charge(arcane_sim::Phase::Preamble, 25);
        phases.charge(arcane_sim::Phase::Compute, 50);
        phases.charge(arcane_sim::Phase::Writeback, 25);
        let rows = vec![PhaseSplitRow {
            label: "xfm / descriptor x4".into(),
            kernels: 61,
            cycles: 123_456,
            phases,
            decode_cycles: 9_000,
        }];
        let t = format_phase_split_table(&rows);
        assert!(t.contains("xfm / descriptor x4"));
        assert!(t.contains("25.0%") && t.contains("50.0%"));
        assert!(t.contains("9000"));
        assert_eq!(t.lines().count(), 2);
        // Each share sits beside the exact phase cycles it is taken from.
        assert!(t.contains("        25  25.0%") && t.contains("        50  50.0%"));
        assert!(t.contains("123456"));
    }

    #[test]
    fn channel_table_formats_every_row() {
        let rows = vec![
            ChannelUtil {
                label: "ecpu".into(),
                busy_cycles: 500,
                wait_cycles: 20,
                requests: 7,
                horizon: 1000,
            },
            ChannelUtil {
                label: "vpu0".into(),
                busy_cycles: 250,
                wait_cycles: 0,
                requests: 3,
                horizon: 1000,
            },
        ];
        let t = format_channel_table(&rows);
        assert!(t.contains("ecpu") && t.contains("vpu0"));
        assert!(t.contains("50.0%") && t.contains("25.0%"));
        assert!(
            t.ends_with("25.0%         1000\n"),
            "horizon beside occupancy"
        );
        assert_eq!(t.lines().count(), 3, "header + one line per channel");
    }

    #[test]
    fn speedup_and_throughput() {
        let base = rep(1000, 500);
        let fast = rep(100, 500);
        assert!((fast.speedup_over(&base) - 10.0).abs() < 1e-12);
        assert!((fast.macs_per_cycle() - 5.0).abs() < 1e-12);
        // 5 MAC/cycle at 250 MHz = 2.5 GOPS
        assert!((fast.gops(250.0) - 2.5).abs() < 1e-12);
    }
}
