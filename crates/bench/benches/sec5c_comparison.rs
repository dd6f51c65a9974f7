//! §V-C — comparison with the state of the art: peak throughput and
//! area efficiency versus BLADE and Intel CNC, plus the multi-instance
//! (4 VPUs × 8 lanes) speedup measurement.

use arcane_area::{peak_gops, AreaModel, BLADE, INTEL_CNC};
use arcane_sim::Sew;
use arcane_system::driver::{run_arcane_conv, run_scalar_conv, run_xcvpulp_conv};
use arcane_system::ConvLayerParams;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn print_peak_comparison() {
    println!("\n== Section V-C: state-of-the-art comparison ==");
    let m = AreaModel::calibrated();
    let arcane_area = m.arcane(4, 8).total_um2();
    let arcane_gops = peak_gops(4, 8, 265.0);
    arcane_bench::rule(78);
    println!(
        "{:<12} {:>12} {:>10} {:>14}  flexibility",
        "system", "area [um^2]", "GOPS", "GOPS/mm^2"
    );
    arcane_bench::rule(78);
    println!(
        "{:<12} {:>12.3e} {:>10.1} {:>14.1}  software-extensible matrix ISA",
        "ARCANE",
        arcane_area,
        arcane_gops,
        arcane_gops / (arcane_area / 1e6)
    );
    for p in [BLADE, INTEL_CNC] {
        println!(
            "{:<12} {:>12.3e} {:>10.1} {:>14.1}  {}",
            p.name,
            p.area_um2,
            p.gops,
            p.gops_per_mm2(),
            p.flexibility
        );
    }
    arcane_bench::rule(78);
    println!(
        "ARCANE vs BLADE: {:.1}x throughput (paper 3.2x), {:.2}x area (paper 3.18x)",
        arcane_gops / BLADE.gops,
        arcane_area / BLADE.area_um2
    );
    println!(
        "Intel CNC vs ARCANE: {:.2}x peak throughput (paper 1.47x)",
        INTEL_CNC.gops / arcane_gops
    );
}

fn print_multi_instance() {
    let size = if arcane_bench::fast_mode() { 64 } else { 256 };
    let k = 7;
    let p = ConvLayerParams::new(size, size, k, Sew::Byte);
    println!("\n-- multi-instance mode: {size}x{size} int8, {k}x{k} filter --");
    let s = run_scalar_conv(&p);
    let v = run_xcvpulp_conv(&p);
    let single = run_arcane_conv(8, &p, 1);
    let multi = run_arcane_conv(8, &p, 4);
    let scalar = arcane_bench::fmt_cycles(s.cycles);
    arcane_bench::rule(94);
    for r in [&s, &v, &single, &multi] {
        println!(
            "{:<24} {:>14} cycles  {:>8.1}x vs scalar ({scalar} cycles)",
            r.label,
            arcane_bench::fmt_cycles(r.cycles),
            r.speedup_over(&s)
        );
    }
    arcane_bench::rule(94);
    println!(
        "multi-instance gain over single: {:.2}x = {} / {} cycles (paper: 120x/84x = 1.43x; both",
        single.cycles as f64 / multi.cycles as f64,
        arcane_bench::fmt_cycles(single.cycles),
        arcane_bench::fmt_cycles(multi.cycles)
    );
    println!("sub-linear — the shared DMA channel and eCPU bound the scaling).");
    println!(
        "conclusion anchors: ARCANE-8 7x7 int8 = {:.1}x vs scalar (paper 84x), {:.1}x vs XCVPULP \
         (paper 16x), from {scalar} scalar, {} XCVPULP and {} ARCANE-8 cycles.\n",
        single.speedup_over(&s),
        single.speedup_over(&v),
        arcane_bench::fmt_cycles(v.cycles),
        arcane_bench::fmt_cycles(single.cycles)
    );
}

fn bench(c: &mut Criterion) {
    print_peak_comparison();
    print_multi_instance();
    let p = ConvLayerParams::new(32, 32, 3, Sew::Byte);
    c.bench_function("arcane8_multi_instance_32x32", |b| {
        b.iter(|| run_arcane_conv(8, black_box(&p), 4).cycles)
    });
}

criterion_group!(benches, bench);
criterion_main!(benches);
