//! Cache-mode integration tests: in *normal* operation (no kernels in
//! flight) the ARCANE smart LLC must behave exactly like the
//! conventional baseline cache — same data, same hit/miss pattern, same
//! cycles. "Drop-in replacement for the conventional on-chip LLC" is a
//! headline claim of the paper.

use arcane::core::{ArcaneConfig, ArcaneLlc, StandardLlc, EXT_BASE, LINE_BYTES};
use arcane::mem::AccessSize;
use arcane::workloads::rng;
use rand::Rng;

const BASE: u32 = 0x2000_0000;

#[test]
fn normal_mode_matches_baseline_cache_exactly() {
    let cfg = ArcaneConfig::with_lanes(4);
    let mut smart = ArcaneLlc::new(cfg);
    let mut base = StandardLlc::new(&cfg);
    let line = LINE_BYTES as u32;
    const N: u32 = 5_000;
    // Both caches are also checked against a flat copy of the region.
    let mut flat = vec![0u8; (0x80_0000 + N * 64 + line) as usize];
    let mut r = rng(42);
    let mut t = 0u64;
    for i in 0..N {
        // Mixed sizes, two hot regions + a streaming tail.
        let region = match i % 3 {
            0 => r.random_range(0..8 * 1024),
            1 => 0x40_0000 + r.random_range(0..8 * 1024),
            _ => 0x80_0000 + i * 64,
        };
        let size = match region % 4 {
            0 => AccessSize::Word,
            2 => AccessSize::Half,
            _ => AccessSize::Byte,
        };
        let n = size.bytes();
        let off = match i % 5 {
            // Size-aligned, size-misaligned, and ending within the
            // first bytes of the next line (line-crossing for most
            // half and word accesses).
            0..=2 => region - region % n,
            3 => region,
            _ => (region | (line - 1)) - r.random_range(0..n),
        };
        let addr = BASE + off;
        let write = r.random_bool(0.4);
        let value = r.random::<u32>();
        let a = smart.host_access(addr, write, value, size, t).unwrap();
        let b = base.host_access(addr, write, value, size, t).unwrap();
        let bytes = &mut flat[off as usize..(off + n) as usize];
        if write {
            bytes.copy_from_slice(&value.to_le_bytes()[..n as usize]);
        } else {
            let mut word = [0u8; 4];
            word[..n as usize].copy_from_slice(bytes);
            let want = u32::from_le_bytes(word);
            assert_eq!(a.data, want, "data wrong at access {i} ({addr:#x})");
        }
        assert_eq!(a.data, b.data, "data diverged at access {i} ({addr:#x})");
        assert_eq!(a.cycles, b.cycles, "cycles diverged at access {i}");
        t += a.cycles;
    }
    assert_eq!(smart.stats().hits.get(), base.stats().hits.get());
    assert_eq!(smart.stats().misses.get(), base.stats().misses.get());
    assert_eq!(
        smart.stats().writebacks.get(),
        base.stats().writebacks.get()
    );
    assert_eq!(smart.stats().stalls.get(), 0, "no stalls without kernels");
}

#[test]
fn write_back_policy_defers_memory_updates() {
    let cfg = ArcaneConfig::with_lanes(4);
    let mut llc = ArcaneLlc::new(cfg);
    llc.host_access(BASE, true, 1234, AccessSize::Word, 0)
        .unwrap();
    // Dirty data lives in the cache only...
    assert_ne!(
        {
            use arcane::mem::Memory;
            llc.ext().read_u32(BASE).unwrap()
        },
        1234,
        "write-back: memory not updated on store"
    );
    // ...until eviction pressure forces it out.
    let mut t = 10;
    for i in 1..256u32 {
        let a = llc
            .host_access(BASE + i * 1024, true, i, AccessSize::Word, t)
            .unwrap();
        t += a.cycles;
    }
    use arcane::mem::Memory;
    assert_eq!(llc.ext().read_u32(BASE).unwrap(), 1234);
}

#[test]
fn hit_is_single_cycle_miss_pays_bursts() {
    let cfg = ArcaneConfig::with_lanes(4);
    let mut llc = ArcaneLlc::new(cfg);
    let miss = llc
        .host_access(BASE, false, 0, AccessSize::Word, 0)
        .unwrap();
    let hit = llc
        .host_access(BASE + 512, false, 0, AccessSize::Word, 50)
        .unwrap();
    assert_eq!(hit.cycles, 1, "hits are resolved in a single cycle");
    // Miss pays the 1 KiB line fill from the burst-modeled PSRAM.
    let line_fill = 10 + 255; // first_word + per_word * 255
    assert!(miss.cycles >= line_fill, "miss {} cycles", miss.cycles);
}

#[test]
fn line_crossing_misaligned_access_is_correct() {
    let cfg = ArcaneConfig::with_lanes(4);
    let mut llc = ArcaneLlc::new(cfg);
    // Write a word that straddles the 1 KiB line boundary.
    let addr = BASE + 1022;
    llc.host_access(addr, true, 0xa1b2_c3d4, AccessSize::Word, 0)
        .unwrap();
    let r = llc
        .host_access(addr, false, 0, AccessSize::Word, 100)
        .unwrap();
    assert_eq!(r.data, 0xa1b2_c3d4);
    // And the two halves landed on both sides of the boundary.
    let lo = llc
        .host_access(BASE + 1022, false, 0, AccessSize::Half, 200)
        .unwrap();
    let hi = llc
        .host_access(BASE + 1024, false, 0, AccessSize::Half, 300)
        .unwrap();
    assert_eq!(lo.data, 0xc3d4);
    assert_eq!(hi.data, 0xa1b2);
}

#[test]
fn out_of_range_accesses_fault() {
    let cfg = ArcaneConfig::with_lanes(4);
    let mut llc = ArcaneLlc::new(cfg);
    assert!(llc
        .host_access(0x1000, false, 0, AccessSize::Word, 0)
        .is_err());
    let end = EXT_BASE + cfg.ext_size as u32;
    assert!(llc
        .host_access(end - 2, false, 0, AccessSize::Word, 0)
        .is_err());
    assert!(llc
        .host_access(end - 4, false, 0, AccessSize::Word, 0)
        .is_ok());
}
