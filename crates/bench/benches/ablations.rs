//! Ablation studies on the design choices DESIGN.md calls out:
//!
//! 1. **Kernel-queue depth** — the statically allocated queue (§IV-B)
//!    absorbs offload bursts; how much host stall does a shallow queue
//!    cost?
//! 2. **DMA bandwidth** — the allocation phase is bus-width bound; how
//!    does the phase split move with the DMA's bytes/cycle?
//! 4. **Scheduler policy** — least-dirty vs round-robin placement
//!    (DESIGN.md §4.4) across 1/2/4 VPUs, on both the conv workload
//!    and an `arcane-nn` graph chain with mixed host traffic.
//!
//! Ablation 3 (VPU count) is the whole-phase block of `fabric_scaling`'s
//! arbitration table, which simulates the same points.

use arcane_core::{ArcaneConfig, SchedulerKind};
use arcane_nn::suite::{self, BuiltGraph};
use arcane_sim::{Phase, Sew};
use arcane_system::driver::run_arcane_conv_with;
use arcane_system::ConvLayerParams;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn queue_depth_ablation() {
    println!("\n== Ablation 1: kernel-queue depth (8 back-to-back xmk4, 32x32 int8) ==");
    arcane_bench::rule(64);
    println!(
        "{:>12} {:>16} {:>16}",
        "queue depth", "total cycles", "hazard stalls"
    );
    arcane_bench::rule(64);
    let p = ConvLayerParams::new(32, 32, 3, Sew::Byte);
    for depth in [1usize, 2, 4, 8] {
        let mut cfg = ArcaneConfig::with_lanes(8);
        cfg.kernel_queue_capacity = depth;
        // 4 instances issue 4 kernels back-to-back; shallow queues make
        // the host wait at the bridge.
        let r = run_arcane_conv_with(cfg, &p, 4);
        println!(
            "{depth:>12} {:>16} {:>16}",
            arcane_bench::fmt_cycles(r.cycles),
            arcane_bench::fmt_cycles(r.stall_cycles)
        );
    }
    println!("observation: the end-to-end time is kernel-bound either way — the stall");
    println!("only *moves*: a shallow queue blocks the host at the bridge handshake,");
    println!("a deep one lets it run ahead and blocks it at the result read (the");
    println!("hazard-stall column). The queue buys overlap, not throughput.");
}

fn dma_bandwidth_ablation() {
    println!("\n== Ablation 2: DMA bandwidth (8-lane, 64x64 int32, 3x3) ==");
    arcane_bench::rule(86);
    println!(
        "{:>14} {:>14} {:>18} {:>18} {:>18}",
        "bytes/cycle", "total cyc", "alloc", "compute", "writeback"
    );
    arcane_bench::rule(86);
    let p = ConvLayerParams::new(64, 64, 3, Sew::Word);
    for bw in [2u64, 4, 8, 16] {
        let mut cfg = ArcaneConfig::with_lanes(8);
        // The shared-path width is a fabric parameter; the LLC derives
        // the DMA payload bandwidth from it.
        cfg.fabric.bytes_per_cycle = bw;
        let r = run_arcane_conv_with(cfg, &p, 1);
        let ph = r.phases.unwrap();
        println!(
            "{bw:>14} {:>14} {} {} {}",
            arcane_bench::fmt_cycles(ph.total()),
            arcane_bench::phase_cell(&ph, Phase::Allocation),
            arcane_bench::phase_cell(&ph, Phase::Compute),
            arcane_bench::phase_cell(&ph, Phase::Writeback),
        );
    }
    println!("expectation: the allocation share collapses as the bus widens; compute");
    println!("becomes the ceiling (why the paper pairs wide VPUs with a 2-D DMA).");
}

fn scheduler_policy_ablation() {
    let size = if arcane_bench::fast_mode() { 32 } else { 64 };
    println!("\n== Ablation 4: scheduler policy x VPU count ==");
    println!("(conv {size}x{size} int8 7x7 multi-instance | transformer-block graph)");
    arcane_bench::rule(62);
    println!(
        "{:>6} {:>13} {:>13}   {:>24}",
        "VPUs", "least-dirty", "round-robin", "graph kernels/VPU (rr)"
    );
    arcane_bench::rule(62);
    let p = ConvLayerParams::new(size, size, 7, Sew::Byte);
    let (t, d, f) = if arcane_bench::fast_mode() {
        (12, 16, 24)
    } else {
        (16, 24, 32)
    };
    let graph = suite::transformer_block(t, d, f, Sew::Byte, 44);
    for n_vpus in [1usize, 2, 4] {
        let mut cells = Vec::new();
        let mut rr_spread = String::new();
        for scheduler in SchedulerKind::ALL {
            let mut cfg = ArcaneConfig::with_lanes(8);
            cfg.n_vpus = n_vpus;
            cfg.scheduler = scheduler;
            let conv = run_arcane_conv_with(cfg, &p, n_vpus.min(4));
            let g = graph.run_verified(cfg, n_vpus);
            cells.push(conv.cycles + g.cycles);
            if scheduler == SchedulerKind::RoundRobin {
                rr_spread = format!("{:?}", g.kernels_per_vpu(n_vpus));
            }
        }
        println!(
            "{n_vpus:>6} {:>13} {:>13}   {:>24}",
            arcane_bench::fmt_cycles(cells[0]),
            arcane_bench::fmt_cycles(cells[1]),
            rr_spread,
        );
    }
    println!("observation: on pure kernel chains every policy degenerates to the same");
    println!("earliest-available rotation (no host store ever dirties a line), so the");
    println!("columns agree; the policies only diverge under mixed host/kernel");
    println!("traffic — see the mixed-traffic table below.");
    scheduler_mixed_traffic_ablation(&graph);
}

/// Mixed host/kernel traffic, generated from a graph program: the
/// `host_traffic` compiler knob makes the transformer-block host
/// program dirty a line-strided scratch window between offloads, so
/// placement policy changes how many forced writebacks each kernel's
/// allocation pays — the scenario the paper's least-dirty heuristic
/// was designed for (§IV-B2), previously hand-rolled here.
fn scheduler_mixed_traffic_ablation(graph: &BuiltGraph) {
    use arcane_nn::{CompileOptions, HostTraffic};

    let traffic = HostTraffic::new(2, 24 * 1024);
    let opts = CompileOptions {
        instances: 1,
        host_traffic: Some(traffic),
        ..CompileOptions::default()
    };
    let prog = arcane_nn::compile(&graph.graph, arcane_system::EXT_BASE, &opts)
        .expect("transformer graph must compile");
    println!(
        "\n-- mixed host/kernel traffic (transformer graph, {} KiB dirtied every {} kernels,",
        traffic.bytes / 1024,
        traffic.period
    );
    println!(
        "   {} host stores injected by the compiler) --",
        prog.host_stores
    );
    println!(
        "{:>14} {:>16} {:>14}",
        "policy", "total cycles", "writebacks"
    );
    for scheduler in SchedulerKind::ALL {
        let mut cfg = ArcaneConfig::with_lanes(8);
        cfg.scheduler = scheduler;
        let r = graph.run_verified_with(cfg, &opts);
        println!(
            "{:>14} {:>16} {:>14}",
            scheduler.name(),
            arcane_bench::fmt_cycles(r.cycles),
            r.writebacks,
        );
    }
    println!("expectation: least-dirty steers kernels away from host-dirtied VPUs and");
    println!("pays the fewest forced writebacks; the oblivious rotation walks into");
    println!("them. Same graph, same golden outputs — only placement differs.");
}

fn bench(c: &mut Criterion) {
    queue_depth_ablation();
    dma_bandwidth_ablation();
    scheduler_policy_ablation();
    let p = ConvLayerParams::new(32, 32, 3, Sew::Byte);
    c.bench_function("arcane_queue_depth_1", |b| {
        let mut cfg = ArcaneConfig::with_lanes(8);
        cfg.kernel_queue_capacity = 1;
        b.iter(|| run_arcane_conv_with(black_box(cfg), &p, 4).cycles)
    });
    let graph = suite::transformer_block(12, 16, 24, Sew::Byte, 44);
    c.bench_function("arcane_sched_round_robin_graph", |b| {
        let mut cfg = ArcaneConfig::with_lanes(8);
        cfg.scheduler = SchedulerKind::RoundRobin;
        b.iter(|| black_box(&graph).run_verified(cfg, 4).cycles)
    });
}

criterion_group!(benches, bench);
criterion_main!(benches);
