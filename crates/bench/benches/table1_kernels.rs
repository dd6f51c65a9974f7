//! Table I — the ARCANE custom kernel set: mnemonics, operand packing
//! and encode/decode round-trips for every kernel × width.

use arcane_isa::reg::{A0, A1, A2};
use arcane_isa::xmnmc::{self, kernel_id, MatReg, XInstr, FUNC5_XMR};
use arcane_sim::Sew;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn print_table1() {
    println!("\n== Table I: ARCANE custom kernels (xmnmc, custom-2 opcode 0x5b) ==");
    arcane_bench::rule(78);
    println!(
        "{:<14} {:<38} description",
        "mnemonic", "data sources (hi/lo of rs1 | rs2 | rs3)"
    );
    arcane_bench::rule(78);
    let rows: [(u8, &str, &str); 6] = [
        (
            FUNC5_XMR,
            "hi(&A) lo(&A) | stride md | cols rows",
            "Matrix reserve",
        ),
        (
            kernel_id::GEMM,
            "alpha beta   | ms3 md    | ms1 ms2",
            "GeMM",
        ),
        (
            kernel_id::LEAKY_RELU,
            "alpha -      | -   md    | ms1 -",
            "LeakyReLU",
        ),
        (
            kernel_id::MAXPOOL,
            "stride win   | -   md    | ms1 -",
            "Maxpooling",
        ),
        (
            kernel_id::CONV2D,
            "-      -     | -   md    | ms1 ms2",
            "2D Conv.",
        ),
        (
            kernel_id::CONV_LAYER_3CH,
            "-      -     | -   md    | ms1 ms2",
            "3-ch. 2D Conv. Layer",
        ),
    ];
    for (func5, sources, desc) in rows {
        let base = xmnmc::mnemonic(func5, Sew::Word);
        let mn = format!("{}.[w,h,b]", base.trim_end_matches(".w"));
        println!("{mn:<14} {sources:<38} {desc}");
        // Prove each row round-trips through the binary encoding.
        for width in Sew::ALL {
            let x = XInstr {
                func5,
                width,
                rs1: A0,
                rs2: A1,
                rs3: A2,
            };
            let word = xmnmc::encode_raw(&x);
            assert_eq!(xmnmc::decode_raw(word).unwrap(), x);
        }
    }
    arcane_bench::rule(78);
    // Demonstrate the Listing-1 operand packing end to end.
    let m = |i| MatReg::new(i).unwrap();
    let (r1, r2, r3) = xmnmc::pack_xmr(0x2000_0000, 1, m(0), 64, 192);
    let binding = xmnmc::unpack_xmr(r1, r2, r3).unwrap();
    println!("example: xmr.b m0, A(64x192) decodes to {binding:?}");
    println!();
}

fn bench(c: &mut Criterion) {
    print_table1();
    c.bench_function("xmnmc_encode_decode", |b| {
        let x = XInstr {
            func5: kernel_id::CONV_LAYER_3CH,
            width: Sew::Byte,
            rs1: A0,
            rs2: A1,
            rs3: A2,
        };
        b.iter(|| {
            let w = xmnmc::encode_raw(black_box(&x));
            xmnmc::decode_raw(black_box(w)).unwrap()
        })
    });
}

criterion_group!(benches, bench);
criterion_main!(benches);
