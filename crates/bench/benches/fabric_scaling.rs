//! Fabric-arbitration ablation (DESIGN.md §4.5): the §V-C
//! multi-instance band re-validated with the shared-path serialisation
//! artefact removed.
//!
//! Under the legacy `whole-phase` arbiter every DMA transaction books
//! one contiguous window and every vector instruction costs exclusive
//! eCPU cycles, so multi-instance scaling flattens at 2 VPUs (the
//! plateau ROADMAP calls out). The burst arbiters let the same traffic
//! fill the idle slices other ports leave, interleaving across ports, and
//! stream dispatch descriptors to per-VPU sequencers — the 4-VPU
//! configuration then beats the 2-VPU one, which is the paper's own
//! multi-instance claim (120× multi vs 84× single).
//!
//! Four tables:
//! 1. arbiter × VPU count on the 7×7 int8 conv (vs the scalar core;
//!    its whole-phase block is the VPU-count ablation);
//! 2. fabric geometry (`bytes_per_cycle` × `banks`) under
//!    round-robin-burst — the DMA-bandwidth ablation as a fabric
//!    configuration;
//! 3. per-channel utilisation of the 4-VPU run under both arbiters;
//! 4. arbiter × scheduler on a transformer block launched as
//!    descriptor batches under host traffic, where priority-host
//!    separates from round-robin-burst.

use arcane_core::{ArcaneConfig, SchedulerKind};
use arcane_fabric::ArbiterKind;
use arcane_nn::{suite, CompileOptions, HostTraffic};
use arcane_sim::Sew;
use arcane_system::driver::{run_arcane_conv_with, run_scalar_conv};
use arcane_system::{format_channel_table, ConvLayerParams};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn cfg_with(arbiter: ArbiterKind, n_vpus: usize) -> ArcaneConfig {
    let mut cfg = ArcaneConfig::with_lanes(8);
    cfg.n_vpus = n_vpus;
    cfg.fabric.arbiter = arbiter;
    cfg
}

fn multi_instance_table() {
    let size = if arcane_bench::fast_mode() { 32 } else { 128 };
    println!("\n== Fabric arbitration x VPU count ({size}x{size} int8, 7x7) ==");
    arcane_bench::rule(102);
    println!(
        "{:>20} {:>6} {:>16} {:>14} {:>12} {:>14} {:>14}",
        "arbiter", "VPUs", "total cycles", "scalar cyc", "vs scalar", "2-VPU cyc", "4v/2v ratio"
    );
    arcane_bench::rule(102);
    let p = ConvLayerParams::new(size, size, 7, Sew::Byte);
    let s = run_scalar_conv(&p);
    for arbiter in ArbiterKind::ALL {
        let mut cycles = Vec::new();
        for n_vpus in [1usize, 2, 4] {
            let r = run_arcane_conv_with(cfg_with(arbiter, n_vpus), &p, n_vpus);
            let ratio = if n_vpus == 4 {
                format!(
                    " {:>14} {:>13.2}x",
                    arcane_bench::fmt_cycles(cycles[1]),
                    cycles[1] as f64 / r.cycles as f64
                )
            } else {
                String::new()
            };
            println!(
                "{:>20} {n_vpus:>6} {:>16} {:>14} {:>11.1}x{ratio}",
                arbiter.name(),
                arcane_bench::fmt_cycles(r.cycles),
                arcane_bench::fmt_cycles(s.cycles),
                r.speedup_over(&s),
            );
            cycles.push(r.cycles);
        }
        arcane_bench::rule(102);
    }
    println!("whole-phase reproduces the committed plateau (4 VPUs ≈ 2 VPUs): the");
    println!("serialisation is whole-window booking on the shared path, not compute.");
    println!("The burst arbiters remove the artefact and 4 VPUs pull ahead of 2.");
    println!("Either way the gain stays sub-linear in the VPU count: the paper's 120x");
    println!("multi-instance vs 84x single-instance shows the same bound.");
}

fn fabric_geometry_table() {
    let size = if arcane_bench::fast_mode() { 32 } else { 64 };
    println!("\n== Fabric geometry under round-robin-burst ({size}x{size} int8 7x7, 4 VPUs) ==");
    arcane_bench::rule(64);
    println!(
        "{:>14} {:>8} {:>16} {:>12}",
        "bytes/cycle", "banks", "total cycles", "wait cyc"
    );
    arcane_bench::rule(64);
    let p = ConvLayerParams::new(size, size, 7, Sew::Byte);
    for bw in [2u64, 4, 8] {
        for banks in [1usize, 2, 4] {
            let mut cfg = cfg_with(ArbiterKind::RoundRobinBurst, 4);
            cfg.fabric.bytes_per_cycle = bw;
            cfg.fabric.banks = banks;
            let r = run_arcane_conv_with(cfg, &p, 4);
            let wait: u64 = r.channels.iter().map(|c| c.wait_cycles).sum();
            println!(
                "{bw:>14} {banks:>8} {:>16} {:>12}",
                arcane_bench::fmt_cycles(r.cycles),
                arcane_bench::fmt_cycles(wait)
            );
        }
    }
    println!("wider buses shrink every burst; extra banks only help while port");
    println!("streams actually collide (the wait column, not the total, collapses).");
}

fn port_utilisation_table() {
    let size = if arcane_bench::fast_mode() { 32 } else { 64 };
    let p = ConvLayerParams::new(size, size, 7, Sew::Byte);
    for arbiter in [ArbiterKind::WholePhase, ArbiterKind::RoundRobinBurst] {
        let r = run_arcane_conv_with(cfg_with(arbiter, 4), &p, 4);
        println!(
            "\n-- per-channel utilisation, 4 VPUs, {} ({size}x{size} int8 7x7) --",
            arbiter.name()
        );
        print!("{}", format_channel_table(&r.channels));
    }
    println!("\nunder whole-phase the eCPU carries every vector instruction (high ecpu");
    println!("busy, idle fabric ports); the burst arbiters move dispatch onto the");
    println!("per-VPU ports and the eCPU drops to preamble work.");
}

/// Mixed host/kernel traffic on the descriptor path: the host dirties
/// 24 KiB every 2 kernels while 4 VPUs run a ×4-split transformer
/// block. Host lines now contend with kernel bursts on the shared
/// path, so whether they are woven in burst by burst or granted whole
/// changes the total.
fn mixed_traffic_table() {
    let (t, d, f) = if arcane_bench::fast_mode() {
        (12, 16, 24)
    } else {
        (32, 48, 64)
    };
    let traffic = HostTraffic::new(2, 24 * 1024);
    println!("\n== Fabric arbitration x scheduler under host traffic ==");
    println!(
        "(transformer {t}/{d}/{f} int8, descriptor x4, {} KiB dirtied every {} kernels)",
        traffic.bytes / 1024,
        traffic.period
    );
    arcane_bench::rule(70);
    println!(
        "{:>20} {:>14} {:>16} {:>14}",
        "arbiter", "scheduler", "total cycles", "writebacks"
    );
    arcane_bench::rule(70);
    let graph = suite::transformer_block(t, d, f, Sew::Byte, 44);
    let opts = CompileOptions {
        host_traffic: Some(traffic),
        ..CompileOptions::descriptor(4)
    };
    for scheduler in [SchedulerKind::RoundRobin, SchedulerKind::LeastDirty] {
        for arbiter in ArbiterKind::ALL {
            let mut cfg = cfg_with(arbiter, 4);
            cfg.scheduler = scheduler;
            let r = graph.run_verified_with(cfg, &opts);
            println!(
                "{:>20} {:>14} {:>16} {:>14}",
                arbiter.name(),
                scheduler.name(),
                arcane_bench::fmt_cycles(r.cycles),
                r.writebacks
            );
        }
        arcane_bench::rule(70);
    }
    println!("priority-host keeps host lines whole and pays for it in kernel burst");
    println!("stalls: it trails round-robin-burst wherever host traffic is dense.");
}

fn bench(c: &mut Criterion) {
    multi_instance_table();
    fabric_geometry_table();
    port_utilisation_table();
    mixed_traffic_table();
    let p = ConvLayerParams::new(32, 32, 7, Sew::Byte);
    c.bench_function("fabric_whole_phase_x4_32x32", |b| {
        let cfg = cfg_with(ArbiterKind::WholePhase, 4);
        b.iter(|| run_arcane_conv_with(black_box(cfg), &p, 4).cycles)
    });
    c.bench_function("fabric_rr_burst_x4_32x32", |b| {
        let cfg = cfg_with(ArbiterKind::RoundRobinBurst, 4);
        b.iter(|| run_arcane_conv_with(black_box(cfg), &p, 4).cycles)
    });
}

criterion_group!(benches, bench);
criterion_main!(benches);
