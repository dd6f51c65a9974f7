//! Machine-code program builders for every evaluation workload.
//!
//! All three implementations of the 3-channel convolutional layer are
//! emitted as real RV32 machine code and *executed* on the
//! instruction-set simulator — the cycle counts in Figures 3/4 come
//! from instruction-by-instruction simulation, not from formulas:
//!
//! * [`scalar::conv_layer`] — plain RV32IM (the CV32E40X baseline);
//! * [`pulp::conv_layer`] — XCVPULP packed-SIMD with hardware loops and
//!   post-increment accesses (the CV32E40PX baseline);
//! * [`offload::conv_layer`] — the ARCANE host program: `xmr`
//!   reservations + one (or several, in multi-instance mode) `xmk4`
//!   offloads + a synchronising result read, exactly Listing 1.

pub mod offload;
pub mod pulp;
pub mod scalar;

/// Splits `total` rows into `n` (clamped to `1..=total`) contiguous
/// chunks, returned as `(first_row, n_rows)`, sizes differing by at
/// most one and the larger ones first.
///
/// # Panics
///
/// Panics when `total` is zero.
pub fn split_rows(total: usize, n: usize) -> Vec<(usize, usize)> {
    let n = n.clamp(1, total);
    let base = total / n;
    let extra = total % n;
    let mut out = Vec::with_capacity(n);
    let mut y = 0;
    for i in 0..n {
        let len = base + usize::from(i < extra);
        out.push((y, len));
        y += len;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_rows_covers_total() {
        for (total, n) in [(10, 4), (3, 4), (16, 1), (7, 7)] {
            let s = split_rows(total, n);
            assert_eq!(s.iter().map(|&(_, l)| l).sum::<usize>(), total);
            assert!(s.iter().all(|&(_, l)| l > 0));
            let mut y = 0;
            for &(y0, l) in &s {
                assert_eq!(y0, y);
                y += l;
            }
        }
    }
}
