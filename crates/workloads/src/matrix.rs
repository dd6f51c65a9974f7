//! A width-agnostic integer matrix.

use arcane_sim::Sew;
use std::fmt;

/// A dense row-major integer matrix holding `i64` values that are
/// interpreted at a chosen element width when serialised.
///
/// # Examples
///
/// ```
/// use arcane_workloads::Matrix;
/// use arcane_sim::Sew;
///
/// let mut m = Matrix::zero(2, 3);
/// m.set(1, 2, -5);
/// let bytes = m.to_bytes(Sew::Half);
/// let back = Matrix::from_bytes(2, 3, Sew::Half, &bytes);
/// assert_eq!(back.get(1, 2), -5);
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<i64>,
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for r in 0..self.rows.min(8) {
            write!(f, "  ")?;
            for c in 0..self.cols.min(12) {
                write!(f, "{:6} ", self.get(r, c))?;
            }
            writeln!(f, "{}", if self.cols > 12 { "…" } else { "" })?;
        }
        if self.rows > 8 {
            writeln!(f, "  …")?;
        }
        write!(f, "]")
    }
}

impl Matrix {
    /// A `rows × cols` matrix of zeros.
    pub fn zero(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0; rows * cols],
        }
    }

    /// Builds a matrix from a row-major value slice.
    ///
    /// # Panics
    ///
    /// Panics if `values.len() != rows * cols`.
    pub fn from_values(rows: usize, cols: usize, values: &[i64]) -> Self {
        assert_eq!(values.len(), rows * cols, "value count mismatch");
        Matrix {
            rows,
            cols,
            data: values.to_vec(),
        }
    }

    /// Number of rows.
    pub const fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub const fn cols(&self) -> usize {
        self.cols
    }

    /// Element at `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range indices.
    pub fn get(&self, r: usize, c: usize) -> i64 {
        assert!(r < self.rows && c < self.cols, "index out of range");
        self.data[r * self.cols + c]
    }

    /// Sets element `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range indices.
    pub fn set(&mut self, r: usize, c: usize, v: i64) {
        assert!(r < self.rows && c < self.cols, "index out of range");
        self.data[r * self.cols + c] = v;
    }

    /// Serialises row-major at width `sew` (values are wrapped).
    pub fn to_bytes(&self, sew: Sew) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.data.len() * sew.bytes());
        for &v in &self.data {
            match sew {
                Sew::Byte => out.push(v as i8 as u8),
                Sew::Half => out.extend_from_slice(&(v as i16).to_le_bytes()),
                Sew::Word => out.extend_from_slice(&(v as i32).to_le_bytes()),
            }
        }
        out
    }

    /// Deserialises a row-major byte image at width `sew`.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is shorter than `rows * cols * sew.bytes()`.
    pub fn from_bytes(rows: usize, cols: usize, sew: Sew, bytes: &[u8]) -> Self {
        let mut m = Matrix::zero(rows, cols);
        for i in 0..rows * cols {
            let o = i * sew.bytes();
            let v = match sew {
                Sew::Byte => bytes[o] as i8 as i64,
                Sew::Half => i16::from_le_bytes([bytes[o], bytes[o + 1]]) as i64,
                Sew::Word => {
                    i32::from_le_bytes([bytes[o], bytes[o + 1], bytes[o + 2], bytes[o + 3]]) as i64
                }
            };
            m.data[i] = v;
        }
        m
    }

    /// A copy of this matrix with its row-major data refactored as
    /// `rows × cols` — the golden-model counterpart of a layer graph's
    /// `View` (which on the device is zero-copy; here the copy keeps
    /// `Matrix` a plain value type).
    ///
    /// # Panics
    ///
    /// Panics if `rows * cols` differs from the element count.
    pub fn reshape(&self, rows: usize, cols: usize) -> Matrix {
        assert_eq!(rows * cols, self.data.len(), "reshape element count");
        Matrix {
            rows,
            cols,
            data: self.data.clone(),
        }
    }

    /// A view of rows `[r0, r0 + n)` as a new matrix.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the matrix.
    pub(crate) fn row_slice(&self, r0: usize, n: usize) -> Matrix {
        assert!(r0 + n <= self.rows, "row slice out of range");
        Matrix {
            rows: n,
            cols: self.cols,
            data: self.data[r0 * self.cols..(r0 + n) * self.cols].to_vec(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_widths() {
        let m = Matrix::from_values(2, 2, &[1, -2, 127, -128]);
        for sew in Sew::ALL {
            let b = m.to_bytes(sew);
            assert_eq!(b.len(), 4 * sew.bytes());
            let back = Matrix::from_bytes(2, 2, sew, &b);
            assert_eq!(back, m);
        }
    }

    #[test]
    fn serialisation_wraps_at_width() {
        let m = Matrix::from_values(1, 1, &[300]);
        let back = Matrix::from_bytes(1, 1, Sew::Byte, &m.to_bytes(Sew::Byte));
        assert_eq!(back.get(0, 0), 300i64 as i8 as i64);
    }

    #[test]
    fn row_slice() {
        let m = Matrix::from_values(3, 2, &[1, 2, 3, 4, 5, 6]);
        let s = m.row_slice(1, 2);
        assert_eq!(s.get(0, 0), 3);
        assert_eq!(s.get(1, 1), 6);
    }

    #[test]
    #[should_panic(expected = "index out of range")]
    fn get_bounds_checked() {
        Matrix::zero(2, 2).get(2, 0);
    }
}
