//! Property-based tests on the core data structures and invariants.

use arcane::core::cache::{CacheTable, Victim};
use arcane::fabric::ResourceChannel;
use arcane::isa::reg::Gpr;
use arcane::isa::vector::{VInstr, Vr};
use arcane::isa::xmnmc::{self, XInstr};
use arcane::sim::Sew;
use arcane::vpu::{Vpu, VpuConfig};
use arcane::workloads;
use proptest::prelude::*;

fn gpr() -> impl Strategy<Value = Gpr> {
    (0u8..32).prop_map(|i| Gpr::new(i).unwrap())
}

fn sew() -> impl Strategy<Value = Sew> {
    prop_oneof![Just(Sew::Byte), Just(Sew::Half), Just(Sew::Word)]
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
        op_idx in 0usize..6,
        data_a in prop::collection::vec(-128i64..128, 1..32),
        data_b in prop::collection::vec(-128i64..128, 1..32),
    ) {
        use arcane::isa::vector::VOp;
        let n = data_a.len().min(data_b.len());
        let ops = [VOp::Add, VOp::Sub, VOp::Mul, VOp::Macc, VOp::Max, VOp::Min];
        let op = ops[op_idx];
        let mut vpu = Vpu::new(VpuConfig::with_lanes(4));
        let vlen = vpu.config().vlen_bytes;
        let mut regs = vec![0u8; vpu.config().capacity_bytes()];
        let a = workloads::Matrix::from_values(1, n, &data_a[..n]);
        let b = workloads::Matrix::from_values(1, n, &data_b[..n]);
        regs[..n * sew.bytes()].copy_from_slice(&a.to_bytes(sew));
        regs[vlen..vlen + n * sew.bytes()].copy_from_slice(&b.to_bytes(sew));
        let v = |i| Vr::new(i).unwrap();
        vpu.execute(&mut regs, &[
            VInstr::SetVl { vl: n as u16, sew },
            VInstr::OpVV { op, vd: v(2), vs1: v(0), vs2: v(1) },
        ]).unwrap();
        let got = workloads::Matrix::from_bytes(1, n, sew, &regs[2 * vlen..3 * vlen]);
        for i in 0..n {
            let (x, y) = (workloads::wrap(data_a[i], sew), workloads::wrap(data_b[i], sew));
            let want = match op {
                VOp::Add => workloads::wrap(x + y, sew),
                VOp::Sub => workloads::wrap(x - y, sew),
                VOp::Mul => workloads::wrap(x.wrapping_mul(y), sew),
                VOp::Macc => workloads::wrap(x.wrapping_mul(y), sew), // acc started at 0
                VOp::Max => x.max(y),
                VOp::Min => x.min(y),
                _ => unreachable!(),
            };
            prop_assert_eq!(got.get(0, i), want, "op {:?} elem {}", op, i);
        }
    }

    #[test]
    fn cache_table_invariants_under_random_traffic(
        addrs in prop::collection::vec(0u32..(64 * 1024), 1..200),
        writes in prop::collection::vec(any::<bool>(), 1..200),
    ) {
        let mut t = CacheTable::new(16, 1024);
        for (i, &addr) in addrs.iter().enumerate() {
            let write = writes[i % writes.len()];
            let line = match t.lookup(addr) {
                Some(l) => l,
                None => match t.victim(0) {
                    Victim::Line(l) => {
                        let tag = t.tag_of(addr);
                        let s = t.line_mut(l);
                        s.tag = tag;
                        s.valid = true;
                        s.dirty = false;
                        l
                    }
                    Victim::AllBusyUntil(_) => unreachable!("no busy lines"),
                },
            };
            if write {
                t.line_mut(line).dirty = true;
            }
            t.touch(line);
            prop_assert!(t.check_no_duplicate_tags());
            // dirty implies valid
            for j in 0..t.len() {
                let l = t.line(j);
                prop_assert!(!l.dirty || l.valid);
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

    #[test]
    fn conv_layer_slices_compose_to_full(
        h in 5usize..12,
        w in 5usize..12,
        seed in 0u64..1000,
    ) {
        let k = 3;
        prop_assume!(h >= k && w >= k);
        let conv_rows = (h - k + 1) & !1;
        prop_assume!(conv_rows >= 4);
        let mut rng = workloads::rng(seed);
        let a = workloads::random_matrix(&mut rng, 3 * h, w, Sew::Byte, 4);
        let f = workloads::random_matrix(&mut rng, 3 * k, k, Sew::Byte, 4);
        let full = workloads::conv_layer_3ch(&a, &f, Sew::Byte);
        let cut = (conv_rows / 2) & !1;
        let top = workloads::conv_layer_3ch_slice(&a, &f, Sew::Byte, 0, cut);
        let bot = workloads::conv_layer_3ch_slice(&a, &f, Sew::Byte, cut, conv_rows - cut);
        for y in 0..full.rows() {
            for x in 0..full.cols() {
                let want = full.get(y, x);
                let got = if y < cut / 2 { top.get(y, x) } else { bot.get(y - cut / 2, x) };
                prop_assert_eq!(got, want, "({}, {})", y, x);
            }
        }
    }
}
