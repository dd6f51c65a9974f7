//! Property-based tests on the core data structures and invariants.

use arcane::core::cache::{CacheTable, Victim};
use arcane::fabric::ResourceChannel;
use arcane::isa::reg::Gpr;
use arcane::isa::vector::{Sr, VInstr, VOp, Vr};
use arcane::isa::xmnmc::{self, XInstr};
use arcane::sim::Sew;
use arcane::vpu::{max_vl, Vpu, VpuConfig, VLEN_BYTES, VREGS};
use arcane::workloads;
use proptest::prelude::*;

fn gpr() -> impl Strategy<Value = Gpr> {
    (0u8..32).prop_map(|i| Gpr::new(i).unwrap())
}

fn sew() -> impl Strategy<Value = Sew> {
    prop_oneof![Just(Sew::Byte), Just(Sew::Half), Just(Sew::Word)]
}

/// The twelve element-wise operations.
const VOPS: [VOp; 12] = [
    VOp::Add,
    VOp::Sub,
    VOp::Mul,
    VOp::Macc,
    VOp::Max,
    VOp::Min,
    VOp::Sll,
    VOp::Srl,
    VOp::Sra,
    VOp::And,
    VOp::Or,
    VOp::Xor,
];

fn vr(i: usize) -> Vr {
    Vr::new(i as u8).unwrap()
}

/// Scalar-register values, the extremes of every width among them.
fn scalar() -> impl Strategy<Value = u32> {
    prop_oneof![
        any::<u32>(),
        any::<u32>(),
        Just(0),
        Just(1),
        Just(0x7f),
        Just(0x80),
        Just(0x7fff),
        Just(0x8000),
        Just(0x7fff_ffff),
        Just(0x8000_0000),
        Just(u32::MAX),
    ]
}

/// A register file of `n` bytes filled from `seed` (xorshift64).
fn random_regs(n: usize, mut seed: u64) -> Vec<u8> {
    seed |= 1;
    (0..n)
        .map(|_| {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed as u8
        })
        .collect()
}

/// Element `i` of register `r` at width `sew`, sign-extended.
fn elem_at(regs: &[u8], sew: Sew, r: usize, i: usize) -> i64 {
    let o = r * 1024 + i * sew.bytes();
    let mut b = [0u8; 8];
    b[..sew.bytes()].copy_from_slice(&regs[o..o + sew.bytes()]);
    workloads::wrap(i64::from_le_bytes(b), sew)
}

fn set_elem(regs: &mut [u8], sew: Sew, r: usize, i: usize, v: i64) {
    let o = r * 1024 + i * sew.bytes();
    regs[o..o + sew.bytes()].copy_from_slice(&v.to_le_bytes()[..sew.bytes()]);
}

/// One element of `op` on sign-extended operands: `d` is the old
/// destination element (read by `Macc`). Shifts follow the datapath's
/// documented semantics: `Sll` shifts a `u64` by the amount masked to
/// 63, `Srl`/`Sra` reduce the amount modulo the element width.
fn golden_op(op: VOp, sew: Sew, d: i64, x: i64, y: i64) -> i64 {
    let bits = 8 * sew.bytes() as u32;
    let v = match op {
        VOp::Add => x.wrapping_add(y),
        VOp::Sub => x.wrapping_sub(y),
        VOp::Mul => x.wrapping_mul(y),
        VOp::Macc => d.wrapping_add(x.wrapping_mul(y)),
        VOp::Max => x.max(y),
        VOp::Min => x.min(y),
        VOp::Sll => (x as u64).wrapping_shl(y as u32) as i64,
        VOp::Srl => ((x as u64 & (u64::MAX >> (64 - bits))) >> (y as u32 % bits)) as i64,
        VOp::Sra => x >> (y as u32 % bits),
        VOp::And => x & y,
        VOp::Or => x | y,
        VOp::Xor => x ^ y,
    };
    workloads::wrap(v, sew)
}

proptest! {
    #[test]
    fn xmnmc_encode_decode_roundtrip(
        func5 in 0u8..32,
        sew in sew(),
        rs1 in gpr(),
        rs2 in gpr(),
        rs3 in gpr(),
    ) {
        let x = XInstr { func5, width: sew, rs1, rs2, rs3 };
        let word = xmnmc::encode_raw(&x);
        prop_assert_eq!(xmnmc::decode_raw(word).unwrap(), x);
    }

    #[test]
    fn vpu_elementwise_matches_golden_semantics(
        sew in sew(),
        kind in 0usize..4,
        op_idx in 0usize..12,
        pattern in 0usize..5,
        base in 0usize..32,
        vl_draw in 0usize..1024,
        offset in 0u16..1100,
        scalar in scalar(),
        seed in any::<u64>(),
    ) {
        let op = VOPS[op_idx];
        let mut vpu = Vpu::new(VpuConfig::with_lanes(4));
        let max_vl = max_vl(sew);
        let vl = 1 + vl_draw % max_vl;
        let mut regs = random_regs(VREGS * VLEN_BYTES, seed);
        // Distinct registers, or one of the four aliasing patterns.
        let (d, x, y) = (base, (base + 7) % 32, (base + 19) % 32);
        let (vd, vs1, vs2) = [(d, x, y), (d, d, y), (d, x, d), (d, x, x), (d, d, d)][pattern];
        let instr = match kind {
            0 => VInstr::OpVV { op, vd: vr(vd), vs1: vr(vs1), vs2: vr(vs2) },
            1 => VInstr::OpVX { op, vd: vr(vd), vs1: vr(vs1), rs: Sr::new(5).unwrap() },
            // Slides, with the source as drawn or as the destination.
            2 => VInstr::SlideDown { vd: vr(vd), vs1: vr(vs1), offset },
            _ => VInstr::SlideUp { vd: vr(vd), vs1: vr(vs1), offset: offset % (vl as u16 + 1) },
        };
        vpu.set_sreg(Sr::new(5).unwrap(), scalar);

        // The reference: element at a time, every operand read from the
        // register file as it stood before the instruction.
        let before = regs.clone();
        let mut want = regs.clone();
        let elem = |r: usize, i: usize| elem_at(&before, sew, r, i);
        for i in 0..vl {
            let (dst, v) = match instr {
                VInstr::OpVV { .. } => (i, golden_op(op, sew, elem(vd, i), elem(vs1, i), elem(vs2, i))),
                VInstr::OpVX { .. } => {
                    let s = workloads::wrap(scalar as i64, sew);
                    (i, golden_op(op, sew, elem(vd, i), elem(vs1, i), s))
                }
                VInstr::SlideDown { offset, .. } => {
                    let j = i + offset as usize;
                    (i, if j < max_vl { elem(vs1, j) } else { 0 })
                }
                VInstr::SlideUp { offset, .. } => {
                    let j = i + offset as usize;
                    if j >= vl {
                        continue;
                    }
                    (j, elem(vs1, i))
                }
                _ => unreachable!(),
            };
            set_elem(&mut want, sew, vd, dst, v);
        }

        vpu.execute(&mut regs, &[VInstr::SetVl { vl: vl as u16, sew }, instr]).unwrap();
        prop_assert!(regs == want, "{:?} at {:?}, vl {}", instr, sew, vl);
    }

    #[test]
    fn vpu_macc_train_matches_single_taps(
        sew in sew(),
        vl_draw in 0usize..1024,
        tk in 1usize..13,
        vd in 0u8..32,
        vs0_draw in 0usize..32,
        scalars in prop::collection::vec(scalar(), 12..13),
        seed in any::<u64>(),
    ) {
        let mut vpu = Vpu::new(VpuConfig::with_lanes(4));
        let vl = 1 + vl_draw % max_vl(sew);
        // The tile may hold the accumulator (then taps read it).
        let vs0 = vs0_draw % (33 - tk);
        let scalars = &scalars[..tk];
        let mut single = random_regs(VREGS * VLEN_BYTES, seed);
        let mut fused = single.clone();
        let rs = Sr::new(1).unwrap();
        vpu.execute(&mut single, &[VInstr::SetVl { vl: vl as u16, sew }]).unwrap();
        let mut tap_cycles = Vec::new();
        for (k, &x) in scalars.iter().enumerate() {
            vpu.set_sreg(rs, x);
            let op = VInstr::OpVX { op: VOp::Macc, vd: vr(vd as usize), vs1: vr(vs0 + k), rs };
            tap_cycles.push(vpu.execute_one(&mut single, &op).unwrap());
        }
        let cycles = vpu.macc_train(&mut fused, vr(vd as usize), vr(vs0), scalars).unwrap();
        prop_assert!(tap_cycles.iter().all(|&c| c == cycles));
        prop_assert!(fused == single, "vd {} vs0 {} tk {} vl {} {:?}", vd, vs0, tk, vl, sew);
    }

    #[test]
    fn cache_table_invariants_under_random_traffic(
        addrs in prop::collection::vec(0u32..(64 * 1024), 1..200),
        writes in prop::collection::vec(any::<bool>(), 1..200),
    ) {
        let mut t = CacheTable::new(16);
        for (i, &addr) in addrs.iter().enumerate() {
            let write = writes[i % writes.len()];
            let line = match t.lookup(addr) {
                Some(l) => l,
                None => match t.victim(0) {
                    Victim::Line(l) => {
                        t.fill(l, t.tag_of(addr));
                        l
                    }
                    Victim::AllBusyUntil(_) => unreachable!("no busy lines"),
                },
            };
            if write {
                t.line_mut(line).dirty = true;
            }
            t.touch(line);
            prop_assert!(t.check_index());
            prop_assert_eq!(t.lookup(addr), Some(line));
            // dirty implies valid
            for j in 0..t.len() {
                let l = t.line(j);
                prop_assert!(!l.dirty || l.is_valid());
            }
        }
    }

    #[test]
    fn resource_channel_windows_never_overlap(
        reqs in prop::collection::vec((0u64..1000, 1u64..50), 1..60),
    ) {
        let mut chan = ResourceChannel::new();
        let mut granted: Vec<(u64, u64)> = Vec::new();
        for (earliest, dur) in reqs {
            let (s, e) = chan.reserve(earliest, dur);
            prop_assert!(s >= earliest);
            prop_assert_eq!(e - s, dur);
            granted.push((s, e));
        }
        granted.sort_unstable();
        for w in granted.windows(2) {
            prop_assert!(w[0].1 <= w[1].0, "windows overlap: {:?}", w);
        }
    }
}
