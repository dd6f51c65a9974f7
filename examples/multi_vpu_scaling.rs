//! Multi-instance scaling under the fabric arbiters: the §V-C band.
//!
//! One 7×7 int8 conv layer is split across 1, 2 and 4 VPU instances
//! and run under the legacy `whole-phase` arbiter (entire DMA phases
//! book contiguous windows, every vector instruction costs exclusive
//! eCPU cycles) and under `round-robin-burst` (transactions fill the
//! idle slices other ports leave, dispatch descriptors stream to per-VPU
//! sequencers). Whole-phase reproduces the flat multi-instance plateau;
//! the burst arbiter unlocks the 4-VPU gain the paper reports.
//!
//! Run with: `cargo run --release --example multi_vpu_scaling`

use arcane::core::ArcaneConfig;
use arcane::fabric::ArbiterKind;
use arcane::sim::Sew;
use arcane::system::driver::{run_arcane_conv_with, run_scalar_conv};
use arcane::system::{format_channel_table, ConvLayerParams};

fn main() {
    let size = 64;
    let p = ConvLayerParams::new(size, size, 7, Sew::Byte);
    println!("== multi-VPU scaling, {size}x{size} int8, 7x7 filters ==\n");
    let scalar = run_scalar_conv(&p);
    println!("scalar CV32E40X baseline: {} cycles\n", scalar.cycles);

    println!(
        "{:>20} {:>6} {:>14} {:>11} {:>12}",
        "arbiter", "VPUs", "total cycles", "vs scalar", "kernel ports"
    );
    for arbiter in [ArbiterKind::WholePhase, ArbiterKind::RoundRobinBurst] {
        for n_vpus in [1usize, 2, 4] {
            let mut cfg = ArcaneConfig::with_lanes(8);
            cfg.n_vpus = n_vpus;
            cfg.fabric.arbiter = arbiter;
            let r = run_arcane_conv_with(cfg, &p, n_vpus);
            // Every VPU port that carried traffic placed kernel work.
            let busy_ports = r
                .channels
                .iter()
                .filter(|c| c.label.starts_with("vpu") && c.busy_cycles > 0)
                .count();
            println!(
                "{:>20} {n_vpus:>6} {:>14} {:>10.1}x {:>12}",
                arbiter.name(),
                r.cycles,
                r.speedup_over(&scalar),
                busy_ports
            );
        }
        println!();
    }

    // Where the cycles go: the per-channel view of the 4-VPU runs.
    for arbiter in [ArbiterKind::WholePhase, ArbiterKind::RoundRobinBurst] {
        let mut cfg = ArcaneConfig::with_lanes(8);
        cfg.n_vpus = 4;
        cfg.fabric.arbiter = arbiter;
        let r = run_arcane_conv_with(cfg, &p, 4);
        println!("-- channel utilisation, 4 VPUs, {} --", arbiter.name());
        print!("{}", format_channel_table(&r.channels));
        println!();
    }
    println!("whole-phase: the eCPU serialises dispatch, so the 4-VPU run is no");
    println!("faster than 2 VPUs. round-robin-burst: dispatch and DMA interleave");
    println!("per burst on the fabric ports and 4 VPUs pull ahead.");
}
