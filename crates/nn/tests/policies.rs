//! Acceptance grid for the scheduler-policy × VPU-count matrix: the
//! int8 transformer encoder block must run end-to-end **bit-exact**
//! against its golden model on 1, 2 and 4 VPU instances under both
//! placement policies, and the policies (and fabric arbiters) must
//! actually change the schedule where it can differ.

use arcane_core::{ArcaneConfig, SchedulerKind};
use arcane_fabric::ArbiterKind;
use arcane_nn::{suite, CompileOptions, HostTraffic};
use arcane_sim::Sew;

fn cfg(n_vpus: usize, scheduler: SchedulerKind) -> ArcaneConfig {
    let mut c = ArcaneConfig::with_lanes(8);
    c.n_vpus = n_vpus;
    c.scheduler = scheduler;
    c
}

#[test]
fn transformer_block_bit_exact_across_policy_and_vpu_grid() {
    let block = suite::transformer_block(12, 16, 24, Sew::Byte, 2024);
    for n_vpus in [1usize, 2, 4] {
        for scheduler in SchedulerKind::ALL {
            // Split the row-parallel kernels as wide as the VPU array.
            let r = block.run_verified(cfg(n_vpus, scheduler), n_vpus);
            assert!(r.cycles > 0, "{scheduler} x {n_vpus}");
            let per = r.kernels_per_vpu(n_vpus);
            assert_eq!(
                per.iter().sum::<usize>(),
                r.kernels,
                "{scheduler} x {n_vpus}: every kernel placed"
            );
        }
    }
}

#[test]
fn depthwise_and_residual_bit_exact_across_policies() {
    let dws = suite::depthwise_separable(12, 12, 3, Sew::Byte, 77);
    let res = suite::residual_bottleneck(16, 16, Sew::Byte, 78);
    for scheduler in SchedulerKind::ALL {
        dws.run_verified(cfg(4, scheduler), 2);
        res.run_verified(cfg(4, scheduler), 4);
    }
}

#[test]
fn round_robin_rotates_across_vpus() {
    let block = suite::transformer_block(12, 16, 24, Sew::Byte, 2024);
    let r = block.run_verified(cfg(4, SchedulerKind::RoundRobin), 4);
    let per = r.kernels_per_vpu(4);
    // A rotation must touch every VPU on a chain this long.
    assert!(per.iter().all(|&n| n > 0), "round-robin placement: {per:?}");
}

/// On a pure kernel chain no host access ever dirties a line, so every
/// policy degenerates to the same earliest-available rotation. Real
/// divergence needs mixed host/kernel traffic: dirty a VPU-0 line with
/// a host store, then ask each policy to place a kernel.
#[test]
fn policies_disagree_under_host_dirty_lines() {
    use arcane_core::ArcaneLlc;
    use arcane_isa::xmnmc::{self, kernel_id, MatReg, FUNC5_XMR};
    use arcane_mem::{AccessSize, Memory};
    use arcane_rv32::XifResponse;

    let placement_under = |scheduler: SchedulerKind| -> usize {
        let mut c = ArcaneConfig::with_lanes(8);
        c.scheduler = scheduler;
        let mut llc = ArcaneLlc::new(c);
        let base = 0x2000_0000u32;
        // Host store: allocates (and dirties) a line on VPU 0.
        llc.host_access(base + 0x8_0000, true, 7, AccessSize::Word, 0)
            .unwrap();
        // Seed a tiny ReLU workload elsewhere and offload it.
        for i in 0..64u32 {
            llc.ext_mut().write_u32(base + i * 4, i).unwrap();
        }
        let m = |i: u8| MatReg::new(i).unwrap();
        for (f, vals, t) in [
            (FUNC5_XMR, xmnmc::pack_xmr(base, 1, m(0), 8, 8), 100),
            (
                FUNC5_XMR,
                xmnmc::pack_xmr(base + 0x1000, 1, m(1), 8, 8),
                110,
            ),
            (
                kernel_id::LEAKY_RELU,
                xmnmc::pack_kernel(3, 0, m(1), m(0), m(0), m(0)),
                120,
            ),
        ] {
            assert!(matches!(
                llc.offload_xmnmc(f, Sew::Word, vals, t),
                XifResponse::Accept { .. }
            ));
        }
        llc.records()[0].vpu
    };

    // The dirty line sits on VPU 0: least-dirty steers away from it,
    // the oblivious rotation starts right on it.
    assert_eq!(placement_under(SchedulerKind::RoundRobin), 0);
    assert_ne!(placement_under(SchedulerKind::LeastDirty), 0);
}

#[test]
fn single_vpu_policies_are_cycle_identical() {
    // With one VPU there is no placement freedom: every policy must
    // produce the exact same schedule, hence identical cycle counts.
    let block = suite::residual_bottleneck(8, 12, Sew::Byte, 5);
    let cycles: Vec<u64> = SchedulerKind::ALL
        .iter()
        .map(|&s| block.run_verified(cfg(1, s), 1).cycles)
        .collect();
    for (s, c) in SchedulerKind::ALL.iter().zip(&cycles) {
        assert_eq!(*c, cycles[0], "{s} vs {}", SchedulerKind::ALL[0]);
    }
}

/// Priority-host is a distinct arbiter: under mixed host/kernel
/// traffic on descriptor batches, granting host lines whole (instead
/// of weaving them burst by burst) moves the total, with outputs still
/// bit-exact.
#[test]
fn priority_host_differs_from_round_robin_burst_under_host_traffic() {
    let block = suite::transformer_block(16, 24, 32, Sew::Byte, 9);
    let opts = CompileOptions {
        host_traffic: Some(HostTraffic::new(1, 8 * 1024)),
        ..CompileOptions::descriptor(1)
    };
    let cycles_under = |arbiter: ArbiterKind| {
        let mut c = cfg(4, SchedulerKind::LeastDirty);
        c.fabric.arbiter = arbiter;
        block.run_verified_with(c, &opts).cycles
    };
    assert_eq!(cycles_under(ArbiterKind::RoundRobinBurst), 26_235);
    assert_eq!(cycles_under(ArbiterKind::PriorityHost), 35_106);
}
