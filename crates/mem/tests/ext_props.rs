//! Model tests for the lazily stored memories, the paged [`ExtMem`] and
//! the grow-on-write [`Sram`]: random reads and writes behave exactly
//! like the same accesses on one flat zero-initialised byte array —
//! page-straddling accesses, reads past the stored image, the last
//! byte, and out-of-range addresses (identical [`BusError`]s) included.

use arcane_mem::{BusError, ExtMem, Memory, Sram};
use proptest::prelude::*;

const BASE: u32 = 0x2000_0000;
/// Three full 4 KiB pages plus a partial fourth.
const SIZE: usize = 3 * 4096 + 100;

/// The reference: a flat byte array with the same bounds rule.
struct FlatMem {
    data: Vec<u8>,
}

impl FlatMem {
    fn range(&self, addr: u32, len: usize) -> Result<usize, BusError> {
        let off = (addr as u64).wrapping_sub(BASE as u64);
        if addr >= BASE && off + len as u64 <= self.data.len() as u64 {
            Ok(off as usize)
        } else {
            Err(BusError::Truncated {
                addr,
                len: len as u32,
            })
        }
    }

    fn read(&self, addr: u32, buf: &mut [u8]) -> Result<(), BusError> {
        let off = self.range(addr, buf.len())?;
        buf.copy_from_slice(&self.data[off..off + buf.len()]);
        Ok(())
    }

    fn write(&mut self, addr: u32, buf: &[u8]) -> Result<(), BusError> {
        let off = self.range(addr, buf.len())?;
        self.data[off..off + buf.len()].copy_from_slice(buf);
        Ok(())
    }
}

/// Where an access starts: anywhere in (or just around) the device,
/// near a page boundary, or at its very end.
fn addr() -> impl Strategy<Value = u32> {
    prop_oneof![
        (0u32..SIZE as u32 + 64).prop_map(|o| BASE - 32 + o),
        (1u32..4, 0u32..16).prop_map(|(p, d)| BASE + p * 4096 - 8 + d),
        (0u32..16).prop_map(|d| BASE + SIZE as u32 - 8 + d),
        any::<u32>(),
    ]
}

proptest! {
    #[test]
    fn paged_extmem_matches_flat_model(
        ops in prop::collection::vec((any::<bool>(), addr(), 0usize..9000, any::<u8>()), 1..60),
    ) {
        let mut ext = ExtMem::new(BASE, SIZE, 10, 1);
        let mut flat = FlatMem { data: vec![0; SIZE] };
        prop_assert_eq!(ext.len(), SIZE);
        for (i, (is_write, addr, len, fill)) in ops.into_iter().enumerate() {
            prop_assert_eq!(ext.contains(addr, len as u32), flat.range(addr, len).is_ok());
            if is_write {
                let buf: Vec<u8> = (0..len).map(|k| fill.wrapping_add(k as u8)).collect();
                prop_assert_eq!(ext.write_bytes(addr, &buf), flat.write(addr, &buf), "op {}", i);
            } else {
                let (mut got, mut want) = (vec![0xa5; len], vec![0xa5; len]);
                prop_assert_eq!(ext.read_bytes(addr, &mut got), flat.read(addr, &mut want), "op {}", i);
                prop_assert_eq!(got, want, "op {} read {} bytes at {:#x}", i, len, addr);
            }
        }
        let mut all = vec![0; SIZE];
        ext.read_bytes(BASE, &mut all).unwrap();
        prop_assert_eq!(all, flat.data, "final contents");
    }
}

proptest! {
    #[test]
    fn sram_matches_flat_model_past_the_loaded_image(
        image in prop::collection::vec(any::<u32>(), 0..300),
        ops in prop::collection::vec((any::<bool>(), addr(), 0usize..9000, any::<u8>()), 1..60),
    ) {
        let mut sram = Sram::new(BASE, SIZE);
        let mut flat = FlatMem { data: vec![0; SIZE] };
        sram.load_words(BASE, &image);
        let bytes: Vec<u8> = image.iter().flat_map(|w| w.to_le_bytes()).collect();
        flat.write(BASE, &bytes).unwrap();
        prop_assert_eq!(sram.len(), SIZE);
        for (i, (is_write, addr, len, fill)) in ops.into_iter().enumerate() {
            prop_assert_eq!(sram.contains(addr, len as u32), flat.range(addr, len).is_ok());
            if is_write {
                let buf: Vec<u8> = (0..len).map(|k| fill.wrapping_add(k as u8)).collect();
                prop_assert_eq!(sram.write_bytes(addr, &buf), flat.write(addr, &buf), "op {}", i);
            } else {
                let (mut got, mut want) = (vec![0xa5; len], vec![0xa5; len]);
                prop_assert_eq!(sram.read_bytes(addr, &mut got), flat.read(addr, &mut want), "op {}", i);
                prop_assert_eq!(got, want, "op {} read {} bytes at {:#x}", i, len, addr);
            }
        }
        let mut all = vec![0xa5; SIZE];
        sram.read_bytes(BASE, &mut all).unwrap();
        prop_assert_eq!(all, flat.data, "final contents");
    }
}
