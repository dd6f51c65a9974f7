//! Byte-identity fingerprint of the compiler's output.
//!
//! For every suite graph × kernel split × host-traffic setting × launch
//! mode, this pins an FNV-1a hash of the assembled host program and of
//! every encoded descriptor table, plus the program's launch counters
//! and memory extent. A refactor of the lowering or of either launch
//! backend must leave every row unchanged: the simulated cycles of the
//! committed tables follow from exactly these bytes.

use arcane_nn::{compile, suite, CompileOptions, HostTraffic, LaunchMode};
use arcane_sim::Sew;
use arcane_system::EXT_BASE;

/// One pinned compile: the case key, then the fingerprint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Row {
    graph: &'static str,
    instances: usize,
    traffic: bool,
    descriptor: bool,
    program: u64,
    tables: u64,
    kernels: usize,
    reservations: usize,
    host_stores: usize,
    mem_end: u32,
    batches: usize,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv(hash: u64, words: impl IntoIterator<Item = u32>) -> u64 {
    words.into_iter().fold(hash, |h, w| {
        w.to_le_bytes()
            .iter()
            .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(FNV_PRIME))
    })
}

fn fingerprints() -> Vec<Row> {
    let graphs = [
        suite::depthwise_separable(16, 16, 3, Sew::Byte, 11),
        suite::residual_bottleneck(24, 24, Sew::Byte, 12),
        suite::transformer_block(16, 24, 32, Sew::Byte, 13),
    ];
    let mut rows = Vec::new();
    for g in &graphs {
        for instances in [1, 2, 4] {
            for traffic in [false, true] {
                for launch in [LaunchMode::Legacy, LaunchMode::Descriptor] {
                    let opts = CompileOptions {
                        instances,
                        host_traffic: traffic.then(|| HostTraffic::new(2, 24 * 1024)),
                        launch,
                    };
                    let p = compile(&g.graph, EXT_BASE, &opts).expect("suite graph compiles");
                    let words = p.asm.assemble(EXT_BASE).expect("program assembles");
                    let tables = p.tables.iter().fold(FNV_OFFSET, |h, t| {
                        fnv(h, std::iter::once(t.addr).chain(t.words.iter().copied()))
                    });
                    rows.push(Row {
                        graph: g.name,
                        instances,
                        traffic,
                        descriptor: launch == LaunchMode::Descriptor,
                        program: fnv(FNV_OFFSET, words),
                        tables,
                        kernels: p.kernels,
                        reservations: p.reservations,
                        host_stores: p.host_stores,
                        mem_end: p.mem_end,
                        batches: p.batches,
                    });
                }
            }
        }
    }
    rows
}

fn literal(r: &Row) -> String {
    format!(
        "    Row {{ graph: {:?}, instances: {}, traffic: {}, descriptor: {}, program: {:#018x}, tables: {:#018x}, kernels: {}, reservations: {}, host_stores: {}, mem_end: {:#010x}, batches: {} }},",
        r.graph,
        r.instances,
        r.traffic,
        r.descriptor,
        r.program,
        r.tables,
        r.kernels,
        r.reservations,
        r.host_stores,
        r.mem_end,
        r.batches
    )
}

#[rustfmt::skip]
const EXPECTED: &[Row] = &[
    Row { graph: "depthwise_separable", instances: 1, traffic: false, descriptor: false, program: 0xa669614224bb3a45, tables: 0xcbf29ce484222325, kernels: 6, reservations: 16, host_stores: 0, mem_end: 0x20001c00, batches: 0 },
    Row { graph: "depthwise_separable", instances: 1, traffic: false, descriptor: true, program: 0x7176138c5afdf513, tables: 0xcee390c803bd4c7b, kernels: 6, reservations: 14, host_stores: 0, mem_end: 0x20001d00, batches: 4 },
    Row { graph: "depthwise_separable", instances: 1, traffic: true, descriptor: false, program: 0xfa53eecf24b87c61, tables: 0xcbf29ce484222325, kernels: 6, reservations: 16, host_stores: 72, mem_end: 0x20007c00, batches: 0 },
    Row { graph: "depthwise_separable", instances: 1, traffic: true, descriptor: true, program: 0xc4ca2ded2c7cc537, tables: 0xcee390c803bd4c7b, kernels: 6, reservations: 14, host_stores: 72, mem_end: 0x20008000, batches: 4 },
    Row { graph: "depthwise_separable", instances: 2, traffic: false, descriptor: false, program: 0xa669614224bb3a45, tables: 0xcbf29ce484222325, kernels: 6, reservations: 16, host_stores: 0, mem_end: 0x20001c00, batches: 0 },
    Row { graph: "depthwise_separable", instances: 2, traffic: false, descriptor: true, program: 0x7176138c5afdf513, tables: 0xcee390c803bd4c7b, kernels: 6, reservations: 14, host_stores: 0, mem_end: 0x20001d00, batches: 4 },
    Row { graph: "depthwise_separable", instances: 2, traffic: true, descriptor: false, program: 0xfa53eecf24b87c61, tables: 0xcbf29ce484222325, kernels: 6, reservations: 16, host_stores: 72, mem_end: 0x20007c00, batches: 0 },
    Row { graph: "depthwise_separable", instances: 2, traffic: true, descriptor: true, program: 0xc4ca2ded2c7cc537, tables: 0xcee390c803bd4c7b, kernels: 6, reservations: 14, host_stores: 72, mem_end: 0x20008000, batches: 4 },
    Row { graph: "depthwise_separable", instances: 4, traffic: false, descriptor: false, program: 0xa669614224bb3a45, tables: 0xcbf29ce484222325, kernels: 6, reservations: 16, host_stores: 0, mem_end: 0x20001c00, batches: 0 },
    Row { graph: "depthwise_separable", instances: 4, traffic: false, descriptor: true, program: 0x7176138c5afdf513, tables: 0xcee390c803bd4c7b, kernels: 6, reservations: 14, host_stores: 0, mem_end: 0x20001d00, batches: 4 },
    Row { graph: "depthwise_separable", instances: 4, traffic: true, descriptor: false, program: 0xfa53eecf24b87c61, tables: 0xcbf29ce484222325, kernels: 6, reservations: 16, host_stores: 72, mem_end: 0x20007c00, batches: 0 },
    Row { graph: "depthwise_separable", instances: 4, traffic: true, descriptor: true, program: 0xc4ca2ded2c7cc537, tables: 0xcee390c803bd4c7b, kernels: 6, reservations: 14, host_stores: 72, mem_end: 0x20008000, batches: 4 },
    Row { graph: "residual_bottleneck", instances: 1, traffic: false, descriptor: false, program: 0x49b96b6c0b4538de, tables: 0xcbf29ce484222325, kernels: 6, reservations: 15, host_stores: 0, mem_end: 0x20002400, batches: 0 },
    Row { graph: "residual_bottleneck", instances: 1, traffic: false, descriptor: true, program: 0x5e2e2f9c86cc353d, tables: 0x8400ac0c6979df0a, kernels: 6, reservations: 9, host_stores: 0, mem_end: 0x200024cc, batches: 6 },
    Row { graph: "residual_bottleneck", instances: 1, traffic: true, descriptor: false, program: 0xda1406a345f74e92, tables: 0xcbf29ce484222325, kernels: 6, reservations: 15, host_stores: 72, mem_end: 0x20008400, batches: 0 },
    Row { graph: "residual_bottleneck", instances: 1, traffic: true, descriptor: true, program: 0xf45a83d778b0dc21, tables: 0x8400ac0c6979df0a, kernels: 6, reservations: 9, host_stores: 72, mem_end: 0x20008800, batches: 6 },
    Row { graph: "residual_bottleneck", instances: 2, traffic: false, descriptor: false, program: 0x8ca2ad0b730d025c, tables: 0xcbf29ce484222325, kernels: 12, reservations: 28, host_stores: 0, mem_end: 0x20002400, batches: 0 },
    Row { graph: "residual_bottleneck", instances: 2, traffic: false, descriptor: true, program: 0xd14aab1fff9963c5, tables: 0x15113abfdfd770a9, kernels: 12, reservations: 16, host_stores: 0, mem_end: 0x20002568, batches: 6 },
    Row { graph: "residual_bottleneck", instances: 2, traffic: true, descriptor: false, program: 0xbbd6675dae5bb4a4, tables: 0xcbf29ce484222325, kernels: 12, reservations: 28, host_stores: 144, mem_end: 0x20008400, batches: 0 },
    Row { graph: "residual_bottleneck", instances: 2, traffic: true, descriptor: true, program: 0x8f8852d586069305, tables: 0x15113abfdfd770a9, kernels: 12, reservations: 16, host_stores: 144, mem_end: 0x20008800, batches: 6 },
    Row { graph: "residual_bottleneck", instances: 4, traffic: false, descriptor: false, program: 0x636f2358d793dcf6, tables: 0xcbf29ce484222325, kernels: 24, reservations: 54, host_stores: 0, mem_end: 0x20002400, batches: 0 },
    Row { graph: "residual_bottleneck", instances: 4, traffic: false, descriptor: true, program: 0xb6175cdce13f6f40, tables: 0x3e5bc76e08213e0f, kernels: 24, reservations: 30, host_stores: 0, mem_end: 0x200026a0, batches: 6 },
    Row { graph: "residual_bottleneck", instances: 4, traffic: true, descriptor: false, program: 0x51eb2c0e510cdaf6, tables: 0xcbf29ce484222325, kernels: 24, reservations: 54, host_stores: 288, mem_end: 0x20008400, batches: 0 },
    Row { graph: "residual_bottleneck", instances: 4, traffic: true, descriptor: true, program: 0xec4b47ce24885000, tables: 0x3e5bc76e08213e0f, kernels: 24, reservations: 30, host_stores: 288, mem_end: 0x20008800, batches: 6 },
    Row { graph: "transformer_block", instances: 1, traffic: false, descriptor: false, program: 0xf69bb883fd4cad62, tables: 0xcbf29ce484222325, kernels: 16, reservations: 41, host_stores: 0, mem_end: 0x20005800, batches: 0 },
    Row { graph: "transformer_block", instances: 1, traffic: false, descriptor: true, program: 0x0f578396370899a4, tables: 0xf8a144cbe37610c4, kernels: 16, reservations: 22, host_stores: 0, mem_end: 0x20005a08, batches: 16 },
    Row { graph: "transformer_block", instances: 1, traffic: true, descriptor: false, program: 0x16c2acf3721a967a, tables: 0xcbf29ce484222325, kernels: 16, reservations: 41, host_stores: 192, mem_end: 0x2000b800, batches: 0 },
    Row { graph: "transformer_block", instances: 1, traffic: true, descriptor: true, program: 0x064b38682489b764, tables: 0xf8a144cbe37610c4, kernels: 16, reservations: 22, host_stores: 192, mem_end: 0x2000bc00, batches: 16 },
    Row { graph: "transformer_block", instances: 2, traffic: false, descriptor: false, program: 0x9f4a5c082498f665, tables: 0xcbf29ce484222325, kernels: 31, reservations: 73, host_stores: 0, mem_end: 0x20005800, batches: 0 },
    Row { graph: "transformer_block", instances: 2, traffic: false, descriptor: true, program: 0x723dffe155503bac, tables: 0xaaf9153b600db6e3, kernels: 31, reservations: 40, host_stores: 0, mem_end: 0x20005b94, batches: 16 },
    Row { graph: "transformer_block", instances: 2, traffic: true, descriptor: false, program: 0x6224c170c57688b1, tables: 0xcbf29ce484222325, kernels: 31, reservations: 73, host_stores: 360, mem_end: 0x2000b800, batches: 0 },
    Row { graph: "transformer_block", instances: 2, traffic: true, descriptor: true, program: 0x4fdd9817f0455a00, tables: 0xaaf9153b600db6e3, kernels: 31, reservations: 40, host_stores: 360, mem_end: 0x2000bc00, batches: 16 },
    Row { graph: "transformer_block", instances: 4, traffic: false, descriptor: false, program: 0x21ddd258d190725d, tables: 0xcbf29ce484222325, kernels: 61, reservations: 137, host_stores: 0, mem_end: 0x20005800, batches: 0 },
    Row { graph: "transformer_block", instances: 4, traffic: false, descriptor: true, program: 0xbbcb62107be96cf4, tables: 0xe74bd374d4952c8b, kernels: 61, reservations: 72, host_stores: 0, mem_end: 0x20005e7c, batches: 16 },
    Row { graph: "transformer_block", instances: 4, traffic: true, descriptor: false, program: 0xd78038c286edecc5, tables: 0xcbf29ce484222325, kernels: 61, reservations: 137, host_stores: 720, mem_end: 0x2000b800, batches: 0 },
    Row { graph: "transformer_block", instances: 4, traffic: true, descriptor: true, program: 0xf14f188d60e3f3bc, tables: 0xe74bd374d4952c8b, kernels: 61, reservations: 72, host_stores: 720, mem_end: 0x2000c000, batches: 16 },
];

#[test]
fn compiled_programs_are_byte_identical_to_the_pinned_fingerprints() {
    let got = fingerprints();
    if got != EXPECTED {
        let table: Vec<String> = got.iter().map(literal).collect();
        panic!(
            "compiler output drifted from the pinned fingerprints; actual rows:\n{}",
            table.join("\n")
        );
    }
}
