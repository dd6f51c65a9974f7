//! Property tests for the ISA crate: encoders and decoders must agree
//! for every instruction the generators can produce, and the assembler
//! must resolve random label graphs.

use arcane_isa::asm::Asm;
use arcane_isa::reg::Gpr;
use arcane_isa::rv32::{self, Instr, LoadOp, StoreOp};
use arcane_isa::xcvpulp::{self, PulpInstr, PvOp, SimdWidth};
use proptest::prelude::*;

fn gpr() -> impl Strategy<Value = Gpr> {
    (0u8..32).prop_map(|i| Gpr::new(i).unwrap())
}

fn load_op() -> impl Strategy<Value = LoadOp> {
    prop_oneof![
        Just(LoadOp::Lb),
        Just(LoadOp::Lh),
        Just(LoadOp::Lw),
        Just(LoadOp::Lbu),
        Just(LoadOp::Lhu)
    ]
}

fn store_op() -> impl Strategy<Value = StoreOp> {
    prop_oneof![Just(StoreOp::Sb), Just(StoreOp::Sh), Just(StoreOp::Sw)]
}

fn pulp_instr() -> impl Strategy<Value = PulpInstr> {
    let imm12 = -2048i32..2048;
    prop_oneof![
        (load_op(), gpr(), gpr(), imm12.clone()).prop_map(|(op, rd, rs1, offset)| {
            PulpInstr::LoadPost {
                op,
                rd,
                rs1,
                offset,
            }
        }),
        (store_op(), gpr(), gpr(), imm12).prop_map(|(op, rs2, rs1, offset)| PulpInstr::StorePost {
            op,
            rs2,
            rs1,
            offset
        }),
        (
            prop_oneof![
                Just(PvOp::Add),
                Just(PvOp::Sub),
                Just(PvOp::Max),
                Just(PvOp::Min),
                Just(PvOp::Dotsp),
                Just(PvOp::Sdotsp),
                Just(PvOp::Dotup)
            ],
            prop_oneof![Just(SimdWidth::B), Just(SimdWidth::H)],
            gpr(),
            gpr(),
            gpr()
        )
            .prop_map(|(op, w, rd, rs1, rs2)| PulpInstr::Simd {
                op,
                w,
                rd,
                rs1,
                rs2
            }),
        (gpr(), gpr(), gpr()).prop_map(|(rd, rs1, rs2)| PulpInstr::Mac { rd, rs1, rs2 }),
        (gpr(), gpr(), gpr()).prop_map(|(rd, rs1, rs2)| PulpInstr::MaxS { rd, rs1, rs2 }),
        (gpr(), gpr(), gpr()).prop_map(|(rd, rs1, rs2)| PulpInstr::MinS { rd, rs1, rs2 }),
        (gpr(), gpr()).prop_map(|(rd, rs1)| PulpInstr::Abs { rd, rs1 }),
        (any::<bool>(), 0u16..4096, 1u8..32).prop_map(|(loop_id, count, body_len)| {
            PulpInstr::LoopSetupI {
                loop_id,
                count,
                body_len,
            }
        }),
        (any::<bool>(), gpr(), 0u16..4096).prop_map(|(loop_id, count, body_len)| {
            PulpInstr::LoopSetup {
                loop_id,
                count,
                body_len,
            }
        }),
    ]
}

proptest! {
    #[test]
    fn xcvpulp_roundtrip(instr in pulp_instr()) {
        let w = xcvpulp::encode(&instr);
        prop_assert_eq!(xcvpulp::decode(w).unwrap(), instr);
    }

    /// Random straight-line programs with random backward/forward jumps
    /// assemble, and every encoded branch lands on an emitted label.
    #[test]
    fn assembler_resolves_random_label_graphs(
        blocks in prop::collection::vec((0usize..8, any::<bool>()), 1..20),
    ) {
        let mut a = Asm::new();
        let labels: Vec<_> = (0..blocks.len()).map(|_| a.label()).collect();
        for (i, (pad, jump_back)) in blocks.iter().enumerate() {
            a.bind(labels[i]);
            for _ in 0..*pad {
                a.nop();
            }
            let target = if *jump_back { labels[i / 2] } else { labels[i] };
            a.j(target);
        }
        let words = a.assemble(0).unwrap();
        // every jump offset must be word-aligned and in range
        for w in &words {
            if let Ok(Instr::Jal { offset, .. }) = rv32::decode(*w) {
                prop_assert_eq!(offset % 4, 0);
                prop_assert!(offset.unsigned_abs() < (words.len() as u32 + 1) * 4);
            }
        }
    }
}
