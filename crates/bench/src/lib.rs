//! Shared helpers for the benchmark harnesses that regenerate every
//! table and figure of the ARCANE paper.
//!
//! Each bench target (`cargo bench -p arcane-bench --bench <name>`)
//! first prints the regenerated table/figure data next to the paper's
//! published values, then runs a small criterion measurement so the
//! harness also tracks simulator performance over time.
//!
//! Set `ARCANE_FAST=1` to shrink the sweeps (useful in CI).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use arcane_sim::{Phase, PhaseBreakdown};

/// `true` when the abbreviated sweep is requested.
pub fn fast_mode() -> bool {
    std::env::var_os("ARCANE_FAST").is_some_and(|v| v != "0")
}

/// Input sizes for the Figure 3/4 sweeps.
pub fn sweep_sizes() -> Vec<usize> {
    if fast_mode() {
        vec![16, 32, 64]
    } else {
        vec![16, 32, 64, 128, 256]
    }
}

/// Filter sizes of Figure 4.
pub fn sweep_filters() -> Vec<usize> {
    if fast_mode() {
        vec![3]
    } else {
        vec![3, 5, 7]
    }
}

/// Prints a horizontal rule sized to `width`.
pub fn rule(width: usize) {
    println!("{}", "-".repeat(width));
}

/// Formats a cycle count with thousands separators.
pub fn fmt_cycles(c: u64) -> String {
    let s = c.to_string();
    let mut out = String::new();
    for (i, ch) in s.chars().enumerate() {
        if i > 0 && (s.len() - i).is_multiple_of(3) {
            out.push(',');
        }
        out.push(ch);
    }
    out
}

/// One phase cell of a phase-split row: the phase's cycles and its
/// share of the phase total, in 18 columns.
pub fn phase_cell(ph: &PhaseBreakdown, phase: Phase) -> String {
    format!(
        "{:>11} {:>5.1}%",
        fmt_cycles(ph.get(phase)),
        100.0 * ph.share(phase)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycle_formatting() {
        assert_eq!(fmt_cycles(1), "1");
        assert_eq!(fmt_cycles(1234), "1,234");
        assert_eq!(fmt_cycles(1234567), "1,234,567");
    }

    #[test]
    fn sweeps_nonempty() {
        assert!(!sweep_sizes().is_empty());
        assert!(!sweep_filters().is_empty());
    }
}
