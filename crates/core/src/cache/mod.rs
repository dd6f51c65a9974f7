//! Cache-side state machines of the ARCANE LLC: the Cache Table, the
//! Address Table and the controller lock.

mod at;
mod locks;
mod table;

pub(crate) use at::{AddressTable, AtEntry, OperandKind};
pub(crate) use locks::LockWindows;
pub use table::{CacheTable, LineState, Victim};

use arcane_mem::AccessSize;

/// A host hit's data movement: reads (`write == false`) or writes the
/// `size`-byte little-endian value at `off` in `data`, which the access
/// must not cross the end of. Returns the value read, 0 for a write.
///
/// Each width is a fixed-size array load or store: a variable-length
/// slice copy compiles to a `memcpy` call on every cache hit.
#[inline]
pub(crate) fn access_bytes(
    data: &mut [u8],
    off: usize,
    write: bool,
    value: u32,
    size: AccessSize,
) -> u32 {
    fn fixed<const N: usize>(data: &mut [u8], off: usize, write: bool, value: u32) -> u32 {
        let bytes: &mut [u8; N] = (&mut data[off..off + N])
            .try_into()
            .expect("an N-byte range is an N-byte array");
        let mut word = [0u8; 4];
        if write {
            bytes.copy_from_slice(&value.to_le_bytes()[..N]);
        } else {
            word[..N].copy_from_slice(bytes);
        }
        u32::from_le_bytes(word)
    }
    match size {
        AccessSize::Byte => fixed::<1>(data, off, write, value),
        AccessSize::Half => fixed::<2>(data, off, write, value),
        AccessSize::Word => fixed::<4>(data, off, write, value),
    }
}
