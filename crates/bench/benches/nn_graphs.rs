//! NN layer-graph workloads compiled to kernel chains (`arcane-nn`):
//! the multi-layer evaluation the paper stops short of.
//!
//! Prints the cycle counts of the three graph workloads
//! (depthwise-separable conv, residual bottleneck with requantise
//! fusion, int8 transformer encoder block) across 1/2/4 VPU instances,
//! then runs one criterion point per workload so the perf-smoke
//! baselines cover the graph runtime.
//!
//! The transformer table is also the launch-pipeline ablation
//! (DESIGN.md §4.6): its legacy per-instruction `xmr`/`xmkN` rows sit
//! beside the same splits launched as descriptor batches. In legacy
//! mode every slice kernel pays the full C-RT preamble on the single
//! eCPU and splitting *inflates* total cycles; under descriptor batches
//! the batch is decoded once and replayed per slice, so 2/4-way
//! splitting becomes a net win.

use arcane_core::ArcaneConfig;
use arcane_nn::suite::{self, BuiltGraph};
use arcane_nn::{CompileOptions, LaunchMode};
use arcane_sim::Sew;
use arcane_system::format_phase_split_table;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn cfg(n_vpus: usize) -> ArcaneConfig {
    let mut c = ArcaneConfig::with_lanes(8);
    c.n_vpus = n_vpus;
    c
}

/// Prints `block`'s phase split at 1/2/4 VPUs under each launch mode in
/// `modes`. Legacy rows keep the bare `<name> xN` label. With more than
/// one mode, each run's eCPU busy share and batch counts follow.
fn graph_table(block: &BuiltGraph, modes: &[LaunchMode]) {
    println!("\n== {} (int8, least-dirty) ==", block.name);
    arcane_bench::rule(123);
    let mut rows = Vec::new();
    let mut ecpu_busy = Vec::new();
    for &launch in modes {
        for n_vpus in [1usize, 2, 4] {
            let opts = CompileOptions {
                launch,
                ..CompileOptions::with_instances(n_vpus)
            };
            let r = block.run_verified_with(cfg(n_vpus), &opts);
            let ecpu = &r.channels[0];
            ecpu_busy.push(format!(
                "{launch} x{n_vpus}: eCPU {:>4.1}% busy ({} of {} cycles), {} batches, {} bindings",
                100.0 * ecpu.occupancy(),
                ecpu.busy_cycles,
                ecpu.horizon,
                r.launch_stats.batches,
                r.launch_stats.bindings,
            ));
            let label = match launch {
                LaunchMode::Legacy => format!("{} x{n_vpus}", block.name),
                LaunchMode::Descriptor => format!("{} x{n_vpus} / {launch}", block.name),
            };
            rows.push(r.split_row(label));
        }
    }
    print!("{}", format_phase_split_table(&rows));
    if modes.len() > 1 {
        arcane_bench::rule(123);
        for line in &ecpu_busy {
            println!("  {line}");
        }
    }
}

fn sizes() -> (BuiltGraph, BuiltGraph, BuiltGraph) {
    if arcane_bench::fast_mode() {
        (
            suite::depthwise_separable(16, 16, 3, Sew::Byte, 11),
            suite::residual_bottleneck(24, 24, Sew::Byte, 12),
            suite::transformer_block(16, 24, 32, Sew::Byte, 13),
        )
    } else {
        (
            suite::depthwise_separable(32, 32, 3, Sew::Byte, 11),
            suite::residual_bottleneck(48, 48, Sew::Byte, 12),
            suite::transformer_block(32, 48, 64, Sew::Byte, 13),
        )
    }
}

fn bench(c: &mut Criterion) {
    let (dws, res, xfm) = sizes();
    graph_table(&dws, &[LaunchMode::Legacy]);
    graph_table(&res, &[LaunchMode::Legacy]);
    graph_table(&xfm, &LaunchMode::ALL);
    println!("observation: every legacy slice kernel pays the full C-RT preamble on the");
    println!("single eCPU, so legacy splitting is preamble-bound: total cycles rise with");
    println!("the split until per-kernel compute outweighs ~2k decode cycles — the same");
    println!("bound as the §V-C multi-instance sweep. Descriptor batches amortise the");
    println!("preamble — one batch entry per node, a table-walk per slice — so the split");
    println!("overlaps on the VPUs and 2/4-way becomes a net win, with the residual eCPU");
    println!("decode cost visible in the decode-cycles column.");
    println!();

    // Criterion probes at fixed small sizes (baseline-tracked).
    let probe_dws = suite::depthwise_separable(12, 12, 3, Sew::Byte, 21);
    let probe_res = suite::residual_bottleneck(16, 16, Sew::Byte, 22);
    let probe_xfm = suite::transformer_block(12, 16, 24, Sew::Byte, 23);
    c.bench_function("nn_depthwise_separable_12x12_int8", |b| {
        b.iter(|| black_box(&probe_dws).run_verified(cfg(4), 1).cycles)
    });
    c.bench_function("nn_residual_bottleneck_16x16_int8", |b| {
        b.iter(|| black_box(&probe_res).run_verified(cfg(4), 2).cycles)
    });
    c.bench_function("nn_transformer_block_t12_d16_int8", |b| {
        b.iter(|| black_box(&probe_xfm).run_verified(cfg(4), 4).cycles)
    });
    // The launch-pipeline probes: the ×4 transformer on each path.
    let probe_launch = suite::transformer_block(12, 16, 24, Sew::Byte, 13);
    for (id, launch) in [
        ("launch_legacy_xfm_x4", LaunchMode::Legacy),
        ("launch_descriptor_xfm_x4", LaunchMode::Descriptor),
    ] {
        let opts = CompileOptions {
            launch,
            ..CompileOptions::with_instances(4)
        };
        c.bench_function(id, |b| {
            b.iter(|| {
                black_box(&probe_launch)
                    .run_verified_with(cfg(4), &opts)
                    .cycles
            })
        });
    }
}

criterion_group!(benches, bench);
criterion_main!(benches);
