//! Figure 3 — non-compute phase overhead of the 3-channel 2-D
//! convolution kernel (3×3 filters, int32) across input sizes and
//! ARCANE lane counts. Regenerated by running the kernels on the
//! simulator and reading the per-phase cycle records.

use arcane_sim::{Phase, Sew};
use arcane_system::driver::run_arcane_conv;
use arcane_system::ConvLayerParams;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn print_fig3() {
    println!("\n== Figure 3: non-compute phase overhead (3-ch conv, 3x3 filter, int32) ==");
    arcane_bench::rule(101);
    println!(
        "{:<6} {:>5} {:>12} {:>18} {:>18} {:>18} {:>18}",
        "lanes", "input", "total cyc", "preamble", "allocation", "compute", "writeback"
    );
    arcane_bench::rule(101);
    let mut sizes = vec![8usize];
    sizes.extend(arcane_bench::sweep_sizes());
    // The last report (8 lanes, largest size) doubles as the channel
    // table below — keep it instead of re-simulating the slowest point.
    let mut largest8 = None;
    for lanes in [2usize, 4, 8] {
        for &size in &sizes {
            let p = ConvLayerParams::new(size, size, 3, Sew::Word);
            let r = run_arcane_conv(lanes, &p, 1);
            let ph = r.phases.expect("ARCANE runs report phases");
            let cells: Vec<_> = Phase::ALL
                .iter()
                .map(|&phase| arcane_bench::phase_cell(&ph, phase))
                .collect();
            println!(
                "{lanes:<6} {size:>5} {:>12} {}",
                arcane_bench::fmt_cycles(ph.total()),
                cells.join(" ")
            );
            largest8 = Some((size, r.channels));
        }
        arcane_bench::rule(101);
    }
    println!("paper shape: preamble 60% (small) -> 2.89% (large); allocation grows with");
    println!("lane count and saturates (~15% globally); writeback falls to ~2%; compute");
    println!("dominates at large inputs (overhead saturates ~20% worst-case).\n");

    // The shared-path view behind the phase split: per-channel busy,
    // wait and occupancy for the largest 8-lane point.
    let (size, channels) = largest8.expect("sweep covered 8 lanes");
    println!("-- per-channel utilisation (8-lane, {size}x{size} int32) --");
    print!("{}", arcane_system::format_channel_table(&channels));
    println!();
}

fn bench(c: &mut Criterion) {
    print_fig3();
    c.bench_function("arcane_conv_32x32_int32", |b| {
        let p = ConvLayerParams::new(32, 32, 3, Sew::Word);
        b.iter(|| run_arcane_conv(black_box(4), &p, 1).cycles)
    });
}

criterion_group!(benches, bench);
criterion_main!(benches);
