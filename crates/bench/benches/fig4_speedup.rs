//! Figure 4 — speedup of the single-instance ARCANE configurations and
//! of the CV32E40PX (XCVPULP) baseline over the scalar CV32E40X, for
//! every filter size, input size and data width. Every number comes
//! from executing the corresponding machine code on the simulator.

use arcane_sim::Sew;
use arcane_system::driver::{run_arcane_conv, run_scalar_conv, run_xcvpulp_conv};
use arcane_system::ConvLayerParams;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn print_fig4() {
    println!("\n== Figure 4: speedup over CV32E40X (3-ch conv layer) ==");
    for sew in Sew::ALL {
        for k in arcane_bench::sweep_filters() {
            println!("\n-- {k}x{k} filter, {sew} --");
            arcane_bench::rule(117);
            println!(
                "{:>6} {:>14} {:>23} {:>23} {:>23} {:>23}",
                "input", "scalar cyc", "XCVPULP", "ARCANE-2", "ARCANE-4", "ARCANE-8"
            );
            arcane_bench::rule(117);
            for size in arcane_bench::sweep_sizes() {
                if size <= k {
                    continue;
                }
                let p = ConvLayerParams::new(size, size, k, sew);
                let s = run_scalar_conv(&p);
                let mut row = format!("{size:>6} {:>14}", arcane_bench::fmt_cycles(s.cycles));
                for r in [
                    run_xcvpulp_conv(&p),
                    run_arcane_conv(2, &p, 1),
                    run_arcane_conv(4, &p, 1),
                    run_arcane_conv(8, &p, 1),
                ] {
                    let cyc = arcane_bench::fmt_cycles(r.cycles);
                    row += &format!(" {cyc:>13} {:>8.2}x", r.speedup_over(&s));
                }
                println!("{row}");
            }
        }
    }
    println!();
    println!("paper anchors: XCVPULP peaks at 8.6x; ARCANE-8 at 256x256 int8 reaches 30x (3x3)");
    println!("and 84x (7x7, conclusion); XCVPULP outperforms ARCANE at small inputs; 2-lane");
    println!("saturates earliest. See EXPERIMENTS.md for the paper-vs-measured discussion.\n");
}

fn bench(c: &mut Criterion) {
    print_fig4();
    let p = ConvLayerParams::new(32, 32, 3, Sew::Byte);
    c.bench_function("scalar_conv_32x32_int8", |b| {
        b.iter(|| run_scalar_conv(black_box(&p)).cycles)
    });
    c.bench_function("xcvpulp_conv_32x32_int8", |b| {
        b.iter(|| run_xcvpulp_conv(black_box(&p)).cycles)
    });
    c.bench_function("arcane8_conv_32x32_int8", |b| {
        b.iter(|| run_arcane_conv(8, black_box(&p), 1).cycles)
    });
}

criterion_group!(benches, bench);
criterion_main!(benches);
