//! Byte-identity fingerprint of the Figure 4 host programs.
//!
//! For three conv-layer shapes, this pins an FNV-1a hash and the word
//! count of the assembled scalar (CV32E40X), XCVPULP (CV32E40PX) and
//! ARCANE offload programs, the last at one and at four `xmk4`
//! instances. A refactor of an emitter or of the assembler must leave
//! every row unchanged: the simulated cycles of Figures 3 and 4 follow
//! from exactly these words.

use arcane_sim::Sew;
use arcane_system::programs::{offload, pulp, scalar};
use arcane_system::{ConvLayerParams, Layout};

/// One pinned program: the case key, then the fingerprint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Row {
    shape: &'static str,
    program: &'static str,
    hash: u64,
    words: usize,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv(words: &[u32]) -> u64 {
    words.iter().fold(FNV_OFFSET, |h, w| {
        w.to_le_bytes()
            .iter()
            .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(FNV_PRIME))
    })
}

fn fingerprints() -> Vec<Row> {
    let shapes = [
        ("16x16 k3 int8", ConvLayerParams::new(16, 16, 3, Sew::Byte)),
        ("64x64 k3 int8", ConvLayerParams::new(64, 64, 3, Sew::Byte)),
        ("32x32 k7 int32", ConvLayerParams::new(32, 32, 7, Sew::Word)),
    ];
    let mut rows = Vec::new();
    for (shape, p) in &shapes {
        let l = Layout::for_conv(p);
        let programs = [
            ("scalar", scalar::conv_layer(p, &l)),
            ("pulp", pulp::conv_layer(p, &l)),
            ("offload x1", offload::conv_layer(p, &l, 1)),
            ("offload x4", offload::conv_layer(p, &l, 4)),
        ];
        for (program, asm) in programs {
            // Assembled at 0, where the SoCs load their programs.
            let words = asm.assemble(0).expect("program assembles");
            rows.push(Row {
                shape,
                program,
                hash: fnv(&words),
                words: words.len(),
            });
        }
    }
    rows
}

fn literal(r: &Row) -> String {
    format!(
        "    Row {{ shape: {:?}, program: {:?}, hash: {:#018x}, words: {} }},",
        r.shape, r.program, r.hash, r.words
    )
}

#[rustfmt::skip]
const EXPECTED: &[Row] = &[
    Row { shape: "16x16 k3 int8", program: "scalar", hash: 0xb937ec23331dbdcb, words: 79 },
    Row { shape: "16x16 k3 int8", program: "pulp", hash: 0x9d05f8b9f9bb3034, words: 77 },
    Row { shape: "16x16 k3 int8", program: "offload x1", hash: 0xd3b924600307ee9b, words: 25 },
    Row { shape: "16x16 k3 int8", program: "offload x4", hash: 0x90bd664b8854f723, words: 70 },
    Row { shape: "64x64 k3 int8", program: "scalar", hash: 0x2b30bab9905f8e37, words: 80 },
    Row { shape: "64x64 k3 int8", program: "pulp", hash: 0xab1339dbfe8fd20a, words: 76 },
    Row { shape: "64x64 k3 int8", program: "offload x1", hash: 0x0d4851cfa83981cf, words: 27 },
    Row { shape: "64x64 k3 int8", program: "offload x4", hash: 0x2caf61b0d97a73d3, words: 72 },
    Row { shape: "32x32 k7 int32", program: "scalar", hash: 0x92db12278eb2d17c, words: 80 },
    Row { shape: "32x32 k7 int32", program: "pulp", hash: 0x3c2d6a707cbf8a77, words: 130 },
    Row { shape: "32x32 k7 int32", program: "offload x1", hash: 0xb02d28362f29c397, words: 27 },
    Row { shape: "32x32 k7 int32", program: "offload x4", hash: 0x255719ab41f79287, words: 72 },
];

#[test]
fn figure4_programs_are_byte_identical_to_the_pinned_fingerprints() {
    let got = fingerprints();
    if got != EXPECTED {
        let table: Vec<String> = got.iter().map(literal).collect();
        panic!(
            "host program drifted from the pinned fingerprints; actual rows:\n{}",
            table.join("\n")
        );
    }
}
