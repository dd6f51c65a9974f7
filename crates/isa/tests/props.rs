//! Property tests for the ISA crate: `decode(encode(op)) == op` for
//! every [`Op`] variant over its full field ranges, `xmnmc` operand
//! registers unpack into exactly the records they were packed from, an
//! out-of-range matrix-register field is rejected whole on both launch
//! paths, and the assembler must resolve random label graphs.

use arcane_isa::asm::Asm;
use arcane_isa::exec::{BType, IType, Op, RType, SType, UType};
use arcane_isa::launch::{DescriptorBatch, LaunchDecodeError, LaunchDescriptor, OperandBinding};
use arcane_isa::reg::{Gpr, ZERO};
use arcane_isa::rv32::{decode, encode};
use arcane_isa::xmnmc::{self, MatReg};
use arcane_sim::Sew;
use proptest::prelude::*;
use std::collections::HashSet;
use std::mem::discriminant;

/// Ops over a sign-extended 12-bit immediate.
const I_OPS: [fn(IType) -> Op; 17] = [
    Op::Jalr,
    Op::Lb,
    Op::Lh,
    Op::Lw,
    Op::Lbu,
    Op::Lhu,
    Op::Addi,
    Op::Slti,
    Op::Sltiu,
    Op::Xori,
    Op::Ori,
    Op::Andi,
    Op::LbPost,
    Op::LhPost,
    Op::LwPost,
    Op::LbuPost,
    Op::LhuPost,
];

/// Ops over a 5-bit shift amount.
const SHIFT_OPS: [fn(IType) -> Op; 3] = [Op::Slli, Op::Srli, Op::Srai];

const S_OPS: [fn(SType) -> Op; 6] = [Op::Sb, Op::Sh, Op::Sw, Op::SbPost, Op::ShPost, Op::SwPost];

const B_OPS: [fn(BType) -> Op; 6] = [Op::Beq, Op::Bne, Op::Blt, Op::Bge, Op::Bltu, Op::Bgeu];

const U_OPS: [fn(UType) -> Op; 2] = [Op::Lui, Op::Auipc];

const R_OPS: [fn(RType) -> Op; 35] = [
    Op::Add,
    Op::Sub,
    Op::Sll,
    Op::Slt,
    Op::Sltu,
    Op::Xor,
    Op::Srl,
    Op::Sra,
    Op::Or,
    Op::And,
    Op::Mul,
    Op::Mulh,
    Op::Mulhsu,
    Op::Mulhu,
    Op::Div,
    Op::Divu,
    Op::Rem,
    Op::Remu,
    Op::PvAddB,
    Op::PvSubB,
    Op::PvMaxB,
    Op::PvMinB,
    Op::PvDotspB,
    Op::PvSdotspB,
    Op::PvDotupB,
    Op::PvAddH,
    Op::PvSubH,
    Op::PvMaxH,
    Op::PvMinH,
    Op::PvDotspH,
    Op::PvSdotspH,
    Op::PvDotupH,
    Op::Mac,
    Op::MaxS,
    Op::MinS,
];

/// Number of [`Op`] variants.
const VARIANTS: usize = 77;

/// Field values, each drawn from the full range its encoding holds.
#[derive(Debug, Clone, Copy, Default)]
struct Fields {
    regs: [u8; 3],
    imm: i32,
    shamt: i32,
    branch: i32,
    jal: i32,
    upper: u32,
    count: u32,
    body: u32,
    loop_id: bool,
    custom2: u32,
}

fn fields() -> impl Strategy<Value = Fields> {
    (
        (0u8..32, 0u8..32, 0u8..32),
        -2048i32..2048,
        0i32..32,
        (-2048i32..2048).prop_map(|x| x * 2),
        (-(1i32 << 19)..1 << 19).prop_map(|x| x * 2),
        any::<u32>(),
        0u32..4096,
        0u32..32,
        any::<bool>(),
        any::<u32>(),
    )
        .prop_map(
            |(regs, imm, shamt, branch, jal, upper, count, body, loop_id, custom2)| Fields {
                regs: [regs.0, regs.1, regs.2],
                imm,
                shamt,
                branch,
                jal,
                upper,
                count,
                body,
                loop_id,
                custom2,
            },
        )
}

/// One op of every variant, built from `f`.
fn all_ops(f: &Fields) -> Vec<Op> {
    let [rd, rs1, rs2] = f.regs.map(|i| Gpr::new(i).unwrap());
    let i = IType {
        rd,
        rs1,
        imm: f.imm,
    };
    let shift = IType { imm: f.shamt, ..i };
    let r = RType { rd, rs1, rs2 };
    // A random custom-2 word, with the register fields it names.
    let raw = f.custom2 & !0x7f | 0x5b;
    let mut ops = vec![
        Op::Jal(UType {
            rd,
            imm: f.jal as u32,
        }),
        Op::Abs(RType { rs2: ZERO, ..r }),
        Op::LoopSetupI {
            loop_id: f.loop_id,
            count: f.count,
            body_len: f.body,
        },
        Op::LoopSetup {
            loop_id: f.loop_id,
            count: rs1,
            body_len: f.count,
        },
        Op::Offload {
            raw,
            rd: Gpr::from_bits(raw >> 7),
            rs1: Gpr::from_bits(raw >> 15),
            rs2: Gpr::from_bits(raw >> 20),
            rs3: Gpr::from_bits(raw >> 27),
        },
        Op::Fence,
        Op::Ecall,
        Op::Ebreak,
    ];
    ops.extend(I_OPS.map(|op| op(i)));
    ops.extend(SHIFT_OPS.map(|op| op(shift)));
    ops.extend(S_OPS.map(|op| {
        op(SType {
            rs2,
            rs1,
            off: f.imm,
        })
    }));
    ops.extend(B_OPS.map(|op| {
        op(BType {
            rs1,
            rs2,
            off: f.branch,
        })
    }));
    ops.extend(U_OPS.map(|op| {
        op(UType {
            rd,
            imm: f.upper & 0xffff_f000,
        })
    }));
    ops.extend(R_OPS.map(|op| op(r)));
    ops
}

#[test]
fn generator_covers_every_variant() {
    let ops = all_ops(&Fields::default());
    let kinds: HashSet<_> = ops.iter().map(discriminant).collect();
    assert_eq!((ops.len(), kinds.len()), (VARIANTS, VARIANTS));
}

fn mat_reg() -> impl Strategy<Value = MatReg> {
    (0u8..16).prop_map(|i| MatReg::new(i).unwrap())
}

fn sew() -> impl Strategy<Value = Sew> {
    (0u8..3).prop_map(|b| Sew::from_bits(b).unwrap())
}

/// A matrix-register field value past the register file, with the
/// values a byte truncation would alias to a valid register.
fn bad_reg_field() -> impl Strategy<Value = u16> {
    prop_oneof![16u16..u16::MAX, Just(256u16), Just(272u16), Just(0xFF00u16)]
}

proptest! {
    #[test]
    fn xmnmc_operands_unpack_to_the_packed_records(
        (addr, stride, cols, rows) in (any::<u32>(), any::<u16>(), any::<u16>(), any::<u16>()),
        (alpha, beta) in (any::<i16>(), any::<i16>()),
        regs in (mat_reg(), mat_reg(), mat_reg(), mat_reg()),
        id in 0u8..31,
        width in sew(),
    ) {
        let (md, ms1, ms2, ms3) = regs;
        let (r1, r2, r3) = xmnmc::pack_xmr(addr, stride, md, cols, rows);
        prop_assert_eq!(
            xmnmc::unpack_xmr(r1, r2, r3),
            Ok(OperandBinding { reg: md, addr, stride, cols, rows })
        );
        let (r1, r2, r3) = xmnmc::pack_kernel(alpha, beta, md, ms1, ms2, ms3);
        prop_assert_eq!(
            xmnmc::unpack_kernel(id, width, r1, r2, r3),
            Ok(LaunchDescriptor {
                kernel: id,
                width,
                alpha,
                beta,
                md,
                ms1,
                ms2,
                ms3,
                bindings: Vec::new(),
                token: 0,
            })
        );
    }

    /// Every register field value past the file is `BadRegister` with
    /// that value, from both unpackers (each field in turn) and from a
    /// descriptor binding.
    #[test]
    fn register_fields_past_the_file_are_rejected_whole(
        value in bad_reg_field(),
        field in 0usize..4,
        ok in mat_reg(),
    ) {
        let bad = Err(LaunchDecodeError::BadRegister { value });
        let (v, ok) = (value as u32, ok.index() as u32);
        prop_assert_eq!(xmnmc::unpack_xmr(0, 7 << 16 | v, 0), bad);
        // Kernel register fields: md = lo(rs2), ms3 = hi(rs2),
        // ms1 = hi(rs3), ms2 = lo(rs3).
        let mut packed = [ok << 16 | ok; 2];
        packed[field / 2] = if field % 2 == 0 {
            packed[field / 2] & !0xffff | v
        } else {
            packed[field / 2] & 0xffff | v << 16
        };
        prop_assert_eq!(
            xmnmc::unpack_kernel(0, Sew::Byte, 0, packed[0], packed[1]).map(|_| ()),
            bad.map(|_| ())
        );
        let batch = DescriptorBatch {
            descriptors: vec![LaunchDescriptor {
                kernel: 0,
                width: Sew::Byte,
                alpha: 0,
                beta: 0,
                md: MatReg::new(0).unwrap(),
                ms1: MatReg::new(0).unwrap(),
                ms2: MatReg::new(0).unwrap(),
                ms3: MatReg::new(0).unwrap(),
                bindings: vec![OperandBinding { reg: MatReg::new(0).unwrap(), addr: 0, stride: 1, cols: 1, rows: 1 }],
                token: 0,
            }],
        };
        // Header, three descriptor words, then the binding: its second
        // word carries the register in its low half.
        let mut words = batch.encode();
        words[5] = words[5] & !0xffff | v;
        prop_assert_eq!(DescriptorBatch::decode(&words).map(|_| ()), bad.map(|_| ()));
    }

    #[test]
    fn op_encode_decode_roundtrip(kind in 0usize..VARIANTS, f in fields()) {
        let op = all_ops(&f)[kind];
        prop_assert_eq!(decode(encode(&op)), Ok(op));
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
            if let Ok(Op::Jal(u)) = decode(*w) {
                let offset = u.imm as i32;
                prop_assert_eq!(offset % 4, 0);
                prop_assert!(offset.unsigned_abs() < (words.len() as u32 + 1) * 4);
            }
        }
    }
}
