//! Acceptance anchors for the predecoded execution engine: cycle counts
//! and kernel outputs must be bit-identical between the default engine,
//! which keeps one predecoded op per instruction word, and the reference
//! that fetches and decodes every instruction (`ARCANE_INTERP=1`), on
//! the same systems the Figure 4 sweep runs.
//!
//! The fast tests cover moderate sizes on every data width and system;
//! the full 256×256 calibration anchors run with
//! `cargo test --release -- --ignored`.

use arcane::core::ArcaneConfig;
use arcane::mem::Memory;
use arcane::sim::{EngineMode, Sew};
use arcane::system::driver::conv_workload;
use arcane::system::programs::{offload, pulp, scalar};
use arcane::system::{ArcaneSoc, BaselineSoc, ConvLayerParams, Layout};

const FUEL: u64 = 4_000_000_000;

/// Runs the scalar or XCVPULP baseline under the given engine and
/// returns (cycles, instret, result bytes).
fn baseline(p: &ConvLayerParams, use_pulp: bool, engine: EngineMode) -> (u64, u64, Vec<u8>) {
    let l = Layout::for_conv(p);
    let cfg = ArcaneConfig::with_lanes(4);
    let mut soc = BaselineSoc::new(&cfg);
    let (a, f) = conv_workload(p);
    let f_bytes = f.to_bytes(p.sew);
    soc.llc_mut()
        .ext_mut()
        .write_bytes(l.a, &a.to_bytes(p.sew))
        .unwrap();
    soc.llc_mut().ext_mut().write_bytes(l.f, &f_bytes).unwrap();
    let program = if use_pulp {
        let padded = pulp::pad_filter_bytes(p, &f_bytes);
        soc.llc_mut()
            .ext_mut()
            .write_bytes(l.f_padded, &padded)
            .unwrap();
        pulp::conv_layer(p, &l)
    } else {
        scalar::conv_layer(p, &l)
    };
    soc.load_program(&program);
    let run = soc.run_with_engine(FUEL, engine).unwrap();
    soc.llc_mut().flush_all();
    let mut out = vec![0u8; p.pooled_h() * p.pooled_w() * p.sew.bytes()];
    soc.llc().ext().read_bytes(l.r, &mut out).unwrap();
    (run.cycles, run.instret, out)
}

/// Runs the ARCANE system under the given engine.
fn arcane_run(p: &ConvLayerParams, lanes: usize, engine: EngineMode) -> (u64, u64, Vec<u8>) {
    let l = Layout::for_conv(p);
    let mut soc = ArcaneSoc::new(ArcaneConfig::with_lanes(lanes));
    let (a, f) = conv_workload(p);
    soc.llc_mut()
        .ext_mut()
        .write_bytes(l.a, &a.to_bytes(p.sew))
        .unwrap();
    soc.llc_mut()
        .ext_mut()
        .write_bytes(l.f, &f.to_bytes(p.sew))
        .unwrap();
    soc.load_program(&offload::conv_layer(p, &l, 1));
    let run = soc.run_with_engine(FUEL, engine).unwrap();
    let total = run.cycles.max(soc.llc().completion_time());
    let mut out = vec![0u8; p.pooled_h() * p.pooled_w() * p.sew.bytes()];
    soc.llc().ext().read_bytes(l.r, &mut out).unwrap();
    (total, run.instret, out)
}

fn assert_parity(p: &ConvLayerParams) {
    for use_pulp in [false, true] {
        let b = baseline(p, use_pulp, EngineMode::Block);
        let i = baseline(p, use_pulp, EngineMode::Interp);
        assert_eq!(
            b,
            i,
            "engine divergence: {} baseline at {p:?}",
            if use_pulp { "XCVPULP" } else { "scalar" }
        );
    }
    let b = arcane_run(p, 8, EngineMode::Block);
    let i = arcane_run(p, 8, EngineMode::Interp);
    assert_eq!(b, i, "engine divergence: ARCANE-8 at {p:?}");
}

#[test]
fn engines_identical_at_moderate_sizes_all_widths() {
    for sew in Sew::ALL {
        assert_parity(&ConvLayerParams::new(32, 32, 3, sew));
    }
    assert_parity(&ConvLayerParams::new(64, 64, 5, Sew::Byte));
}

/// Descriptor-batch launch pipeline under both host-core engines: the
/// transformer graph compiled to `xmb` batches must produce bit- and
/// cycle-identical results on the predecoded op table and the
/// fetch-every-instruction reference — the same guarantee the legacy
/// launch path carries, extended to the new decode path.
#[test]
fn descriptor_mode_graph_engines_identical() {
    use arcane::nn::{run_graph_with_engine, suite, CompileOptions};

    let b = suite::transformer_block(8, 12, 16, Sew::Byte, 99);
    for instances in [1usize, 2] {
        let opts = CompileOptions::descriptor(instances);
        let mut cfg = ArcaneConfig::with_lanes(8);
        cfg.n_vpus = instances;
        let run = |engine| run_graph_with_engine(cfg, &b.graph, &b.inputs, &opts, engine).unwrap();
        let (block, interp) = (run(EngineMode::Block), run(EngineMode::Interp));
        assert_eq!(block.cycles, interp.cycles, "cycle divergence x{instances}");
        assert_eq!(
            block.instret, interp.instret,
            "instret divergence x{instances}"
        );
        assert_eq!(
            block.outputs, interp.outputs,
            "output divergence x{instances}"
        );
        assert_eq!(block.outputs[0], b.golden[0], "golden divergence");
        assert_eq!(
            block.launch_stats, interp.launch_stats,
            "decode accounting divergence x{instances}"
        );
        assert!(block.launch_stats.batches > 0, "batches must be decoded");
    }
}

/// The 256×256 Figure 4 calibration anchors (release-only; run with
/// `cargo test --release -- --ignored`).
#[test]
#[ignore = "full-size anchor; minutes in debug builds"]
fn engines_identical_at_fig4_anchor_256() {
    for sew in [Sew::Byte, Sew::Word] {
        for k in [3usize, 7] {
            assert_parity(&ConvLayerParams::new(256, 256, k, sew));
        }
    }
}
