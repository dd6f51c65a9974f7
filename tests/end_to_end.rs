//! End-to-end integration tests: every Table I kernel offloaded through
//! the bridge produces results bit-identical to the golden models, for
//! random shapes and all data widths.

use arcane::core::{ArcaneConfig, ArcaneLlc};
use arcane::isa::reg::{A0, A1, A2};
use arcane::isa::xmnmc::{self, kernel_id, MatReg, XInstr, FUNC5_XMR};
use arcane::mem::Memory;
use arcane::rv32::{Coprocessor, XifResponse};
use arcane::sim::Sew;
use arcane::workloads::{self, Matrix};

const BASE: u32 = 0x2000_0000;

struct Rig {
    llc: ArcaneLlc,
    now: u64,
}

impl Rig {
    fn new(lanes: usize) -> Self {
        Rig {
            llc: ArcaneLlc::new(ArcaneConfig::with_lanes(lanes)),
            now: 0,
        }
    }

    fn write(&mut self, addr: u32, m: &Matrix, sew: Sew) {
        self.llc
            .ext_mut()
            .write_bytes(addr, &m.to_bytes(sew))
            .unwrap();
    }

    fn read(&self, addr: u32, rows: usize, cols: usize, sew: Sew) -> Matrix {
        let mut buf = vec![0u8; rows * cols * sew.bytes()];
        self.llc.ext().read_bytes(addr, &mut buf).unwrap();
        Matrix::from_bytes(rows, cols, sew, &buf)
    }

    fn xmr(&mut self, reg: u8, addr: u32, rows: usize, cols: usize, sew: Sew) {
        let m = MatReg::new(reg).unwrap();
        let (r1, r2, r3) = xmnmc::pack_xmr(addr, 1, m, cols as u16, rows as u16);
        let x = XInstr {
            func5: FUNC5_XMR,
            width: sew,
            rs1: A0,
            rs2: A1,
            rs3: A2,
        };
        let resp = self
            .llc
            .offload(xmnmc::encode_raw(&x), r1, r2, r3, self.now);
        assert!(matches!(resp, XifResponse::Accept { .. }), "xmr rejected");
        self.now += 10;
    }

    #[allow(clippy::too_many_arguments)]
    fn xmk(&mut self, id: u8, sew: Sew, alpha: i16, beta: i16, md: u8, ms1: u8, ms2: u8, ms3: u8) {
        let m = |i| MatReg::new(i).unwrap();
        let (r1, r2, r3) = xmnmc::pack_kernel(alpha, beta, m(md), m(ms1), m(ms2), m(ms3));
        let x = XInstr {
            func5: id,
            width: sew,
            rs1: A0,
            rs2: A1,
            rs3: A2,
        };
        let resp = self
            .llc
            .offload(xmnmc::encode_raw(&x), r1, r2, r3, self.now);
        assert!(
            matches!(resp, XifResponse::Accept { .. }),
            "kernel {id} rejected: {:?}",
            self.llc.last_error()
        );
        self.now += 10;
    }
}

#[test]
fn gemm_matches_golden_all_widths() {
    let mut rng = workloads::rng(11);
    for sew in Sew::ALL {
        for (m, k, n) in [(4usize, 6usize, 8usize), (17, 9, 23), (32, 32, 32)] {
            let a = workloads::random_matrix(&mut rng, m, k, sew, 4);
            let b = workloads::random_matrix(&mut rng, k, n, sew, 4);
            let c = workloads::random_matrix(&mut rng, m, n, sew, 4);
            let mut rig = Rig::new(4);
            let (pa, pb, pc, pr) = (BASE, BASE + 0x10000, BASE + 0x20000, BASE + 0x30000);
            rig.write(pa, &a, sew);
            rig.write(pb, &b, sew);
            rig.write(pc, &c, sew);
            rig.xmr(0, pa, m, k, sew);
            rig.xmr(1, pb, k, n, sew);
            rig.xmr(2, pc, m, n, sew);
            rig.xmr(3, pr, m, n, sew);
            // R = 2*A*B + 1*C
            rig.xmk(kernel_id::GEMM, sew, 2, 1, 3, 0, 1, 2);
            let got = rig.read(pr, m, n, sew);
            let want = workloads::gemm(&a, &b, Some(&c), 2, 1, sew);
            assert_eq!(got, want, "gemm {m}x{k}x{n} {sew}");
        }
    }
}

#[test]
fn gemm_without_beta_ignores_c() {
    let mut rng = workloads::rng(12);
    let sew = Sew::Half;
    let a = workloads::random_matrix(&mut rng, 5, 7, sew, 8);
    let b = workloads::random_matrix(&mut rng, 7, 3, sew, 8);
    let mut rig = Rig::new(2);
    let (pa, pb, pr) = (BASE, BASE + 0x8000, BASE + 0x10000);
    rig.write(pa, &a, sew);
    rig.write(pb, &b, sew);
    rig.xmr(0, pa, 5, 7, sew);
    rig.xmr(1, pb, 7, 3, sew);
    rig.xmr(2, pr, 5, 3, sew);
    rig.xmk(kernel_id::GEMM, sew, 1, 0, 2, 0, 1, 0);
    let got = rig.read(pr, 5, 3, sew);
    assert_eq!(got, workloads::gemm(&a, &b, None, 1, 0, sew));
}

#[test]
fn leaky_relu_matches_golden() {
    let mut rng = workloads::rng(13);
    for sew in Sew::ALL {
        let x = workloads::random_matrix(&mut rng, 19, 33, sew, 100);
        let mut rig = Rig::new(4);
        let (px, pr) = (BASE, BASE + 0x10000);
        rig.write(px, &x, sew);
        rig.xmr(0, px, 19, 33, sew);
        rig.xmr(1, pr, 19, 33, sew);
        rig.xmk(kernel_id::LEAKY_RELU, sew, 3, 0, 1, 0, 0, 0);
        let got = rig.read(pr, 19, 33, sew);
        assert_eq!(got, workloads::leaky_relu(&x, 3, sew), "{sew}");
    }
}

#[test]
fn maxpool_matches_golden_various_windows() {
    let mut rng = workloads::rng(14);
    let sew = Sew::Byte;
    for (win, stride) in [(2usize, 2usize), (3, 1), (3, 3), (4, 2)] {
        let x = workloads::random_matrix(&mut rng, 21, 30, sew, 100);
        let want = workloads::maxpool(&x, win, stride);
        let mut rig = Rig::new(8);
        let (px, pr) = (BASE, BASE + 0x10000);
        rig.write(px, &x, sew);
        rig.xmr(0, px, 21, 30, sew);
        rig.xmr(1, pr, want.rows(), want.cols(), sew);
        rig.xmk(
            kernel_id::MAXPOOL,
            sew,
            stride as i16,
            win as i16,
            1,
            0,
            0,
            0,
        );
        let got = rig.read(pr, want.rows(), want.cols(), sew);
        assert_eq!(got, want, "win={win} stride={stride}");
    }
}

#[test]
fn conv2d_matches_golden() {
    let mut rng = workloads::rng(15);
    for sew in Sew::ALL {
        for k in [1usize, 3, 5] {
            let a = workloads::random_matrix(&mut rng, 20, 26, sew, 4);
            let f = workloads::random_matrix(&mut rng, k, k, sew, 4);
            let want = workloads::conv2d(&a, &f, sew);
            let mut rig = Rig::new(4);
            let (pa, pf, pr) = (BASE, BASE + 0x10000, BASE + 0x20000);
            rig.write(pa, &a, sew);
            rig.write(pf, &f, sew);
            rig.xmr(0, pa, 20, 26, sew);
            rig.xmr(1, pf, k, k, sew);
            rig.xmr(2, pr, want.rows(), want.cols(), sew);
            rig.xmk(kernel_id::CONV2D, sew, 0, 0, 2, 0, 1, 0);
            let got = rig.read(pr, want.rows(), want.cols(), sew);
            assert_eq!(got, want, "conv2d k={k} {sew}");
        }
    }
}

#[test]
fn conv_layer_matches_golden_odd_shapes() {
    let mut rng = workloads::rng(16);
    // Deliberately awkward shapes: non-square, odd conv rows (floored
    // pooling), every width.
    for sew in Sew::ALL {
        for (h, w, k) in [(9usize, 13usize, 3usize), (12, 20, 5), (15, 16, 7)] {
            let a = workloads::random_matrix(&mut rng, 3 * h, w, sew, 4);
            let f = workloads::random_matrix(&mut rng, 3 * k, k, sew, 4);
            let want = workloads::conv_layer_3ch(&a, &f, sew);
            let mut rig = Rig::new(8);
            let (pa, pf, pr) = (BASE, BASE + 0x40000, BASE + 0x50000);
            rig.write(pa, &a, sew);
            rig.write(pf, &f, sew);
            rig.xmr(0, pa, 3 * h, w, sew);
            rig.xmr(1, pf, 3 * k, k, sew);
            rig.xmr(2, pr, want.rows(), want.cols(), sew);
            rig.xmk(kernel_id::CONV_LAYER_3CH, sew, 0, 0, 2, 0, 1, 0);
            let got = rig.read(pr, want.rows(), want.cols(), sew);
            assert_eq!(got, want, "conv_layer {h}x{w} k={k} {sew}");
        }
    }
}

#[test]
fn kernel_chain_reuses_destination_as_source() {
    // R1 = conv2d(A, F); R2 = leaky_relu(R1): the second kernel must
    // consume the first one's destination (renamed bindings, AT order).
    let mut rng = workloads::rng(17);
    let sew = Sew::Word;
    let a = workloads::random_matrix(&mut rng, 12, 12, sew, 5);
    let f = workloads::random_matrix(&mut rng, 3, 3, sew, 5);
    let conv = workloads::conv2d(&a, &f, sew);
    let want = workloads::leaky_relu(&conv, 2, sew);
    let mut rig = Rig::new(4);
    let (pa, pf, p1, p2) = (BASE, BASE + 0x8000, BASE + 0x10000, BASE + 0x18000);
    rig.write(pa, &a, sew);
    rig.write(pf, &f, sew);
    rig.xmr(0, pa, 12, 12, sew);
    rig.xmr(1, pf, 3, 3, sew);
    rig.xmr(2, p1, conv.rows(), conv.cols(), sew);
    rig.xmk(kernel_id::CONV2D, sew, 0, 0, 2, 0, 1, 0);
    rig.xmr(3, p2, conv.rows(), conv.cols(), sew);
    rig.xmk(kernel_id::LEAKY_RELU, sew, 2, 0, 3, 2, 0, 0);
    let got = rig.read(p2, want.rows(), want.cols(), sew);
    assert_eq!(got, want);
    assert_eq!(rig.llc.records().len(), 2);
}

#[test]
fn multi_instance_slices_equal_full_run() {
    let mut rng = workloads::rng(18);
    let sew = Sew::Byte;
    let (h, w, k) = (22usize, 24usize, 3usize);
    let a = workloads::random_matrix(&mut rng, 3 * h, w, sew, 4);
    let f = workloads::random_matrix(&mut rng, 3 * k, k, sew, 4);
    let want = workloads::conv_layer_3ch(&a, &f, sew);
    let mut rig = Rig::new(8);
    let (pa, pf, pr) = (BASE, BASE + 0x20000, BASE + 0x28000);
    rig.write(pa, &a, sew);
    rig.write(pf, &f, sew);
    rig.xmr(0, pa, 3 * h, w, sew);
    rig.xmr(1, pf, 3 * k, k, sew);
    // Two slices of 10 conv rows each (conv_h = 20).
    let pw = want.cols();
    let esz = sew.bytes() as u32;
    rig.xmr(2, pr, 5, pw, sew);
    rig.xmk(kernel_id::CONV_LAYER_3CH, sew, 0, 10, 2, 0, 1, 0);
    rig.xmr(3, pr + 5 * pw as u32 * esz, 5, pw, sew);
    rig.xmk(kernel_id::CONV_LAYER_3CH, sew, 10, 10, 3, 0, 1, 0);
    let got = rig.read(pr, want.rows(), want.cols(), sew);
    assert_eq!(got, want);
    // The scheduler must have spread the slices over distinct VPUs.
    let v0 = rig.llc.records()[0].vpu;
    let v1 = rig.llc.records()[1].vpu;
    assert_ne!(v0, v1, "slices should run on different VPUs");
}

#[test]
fn wider_lanes_never_slow_a_kernel_down() {
    let mut rng = workloads::rng(19);
    let sew = Sew::Word;
    let a = workloads::random_matrix(&mut rng, 3 * 20, 32, sew, 4);
    let f = workloads::random_matrix(&mut rng, 9, 3, sew, 4);
    let mut cycles = Vec::new();
    for lanes in [2usize, 4, 8] {
        let mut rig = Rig::new(lanes);
        let (pa, pf, pr) = (BASE, BASE + 0x20000, BASE + 0x28000);
        rig.write(pa, &a, sew);
        rig.write(pf, &f, sew);
        rig.xmr(0, pa, 60, 32, sew);
        rig.xmr(1, pf, 9, 3, sew);
        rig.xmr(2, pr, 9, 15, sew);
        rig.xmk(kernel_id::CONV_LAYER_3CH, sew, 0, 0, 2, 0, 1, 0);
        let rec = rig.llc.records()[0];
        cycles.push(rec.phases.total());
    }
    assert!(cycles[0] > cycles[1], "4 lanes beat 2: {cycles:?}");
    assert!(cycles[1] > cycles[2], "8 lanes beat 4: {cycles:?}");
}

#[test]
fn mat_add_matches_golden() {
    let mut rng = workloads::rng(21);
    for sew in Sew::ALL {
        let a = workloads::random_matrix(&mut rng, 37, 29, sew, 100);
        let b = workloads::random_matrix(&mut rng, 37, 29, sew, 100);
        let mut rig = Rig::new(4);
        let (pa, pb, pr) = (BASE, BASE + 0x10000, BASE + 0x20000);
        rig.write(pa, &a, sew);
        rig.write(pb, &b, sew);
        rig.xmr(0, pa, 37, 29, sew);
        rig.xmr(1, pb, 37, 29, sew);
        rig.xmr(2, pr, 37, 29, sew);
        rig.xmk(kernel_id::MAT_ADD, sew, 0, 0, 2, 0, 1, 0);
        let got = rig.read(pr, 37, 29, sew);
        assert_eq!(got, workloads::mat_add(&a, &b, sew), "{sew}");
    }
}

#[test]
fn mat_scale_matches_golden() {
    let mut rng = workloads::rng(22);
    for sew in Sew::ALL {
        let a = workloads::random_matrix(&mut rng, 11, 40, sew, 100);
        let mut rig = Rig::new(2);
        let (pa, pr) = (BASE, BASE + 0x10000);
        rig.write(pa, &a, sew);
        rig.xmr(0, pa, 11, 40, sew);
        rig.xmr(1, pr, 11, 40, sew);
        // R = (A * 5) >> 2
        rig.xmk(kernel_id::MAT_SCALE, sew, 5, 2, 1, 0, 0, 0);
        let got = rig.read(pr, 11, 40, sew);
        assert_eq!(got, workloads::mat_scale(&a, 5, 2, sew), "{sew}");
    }
}

#[test]
fn shifts_past_the_element_width_fill_with_the_sign() {
    // Requantise and LeakyReLU accept shifts 0..32 at every width. A
    // shift at or past the element width must act as an arithmetic
    // shift (0 or -1), not wrap modulo the width like the VPU's `Sra`.
    let mut rng = workloads::rng(24);
    for sew in Sew::ALL {
        for shift in [7, 8, 9, 15, 16, 17, 25, 31] {
            let a = workloads::random_matrix(&mut rng, 5, 12, sew, 100);
            let mut rig = Rig::new(4);
            let (pa, pr) = (BASE, BASE + 0x10000);
            rig.write(pa, &a, sew);
            rig.xmr(0, pa, 5, 12, sew);
            rig.xmr(1, pr, 5, 12, sew);
            rig.xmk(kernel_id::MAT_SCALE, sew, -3, shift, 1, 0, 0, 0);
            let want = workloads::mat_scale(&a, -3, shift as u32, sew);
            assert_eq!(rig.read(pr, 5, 12, sew), want, "requantise {sew}>>{shift}");
            rig.xmk(kernel_id::LEAKY_RELU, sew, shift, 0, 1, 0, 0, 0);
            let want = workloads::leaky_relu(&a, shift as u32, sew);
            assert_eq!(rig.read(pr, 5, 12, sew), want, "leaky_relu {sew}>>{shift}");
        }
    }
}

#[test]
fn transpose_matches_golden() {
    let mut rng = workloads::rng(23);
    for sew in Sew::ALL {
        let a = workloads::random_matrix(&mut rng, 13, 26, sew, 100);
        let want = workloads::transpose(&a);
        let mut rig = Rig::new(4);
        let (pa, pr) = (BASE, BASE + 0x10000);
        rig.write(pa, &a, sew);
        rig.xmr(0, pa, 13, 26, sew);
        rig.xmr(1, pr, 26, 13, sew);
        rig.xmk(kernel_id::TRANSPOSE, sew, 0, 0, 1, 0, 0, 0);
        let got = rig.read(pr, 26, 13, sew);
        assert_eq!(got, want, "{sew}");
    }
}

#[test]
fn double_transpose_is_identity() {
    let mut rng = workloads::rng(24);
    let sew = Sew::Half;
    let a = workloads::random_matrix(&mut rng, 9, 17, sew, 500);
    let mut rig = Rig::new(4);
    let (pa, p1, p2) = (BASE, BASE + 0x10000, BASE + 0x20000);
    rig.write(pa, &a, sew);
    rig.xmr(0, pa, 9, 17, sew);
    rig.xmr(1, p1, 17, 9, sew);
    rig.xmk(kernel_id::TRANSPOSE, sew, 0, 0, 1, 0, 0, 0);
    rig.xmr(2, p2, 9, 17, sew);
    rig.xmk(kernel_id::TRANSPOSE, sew, 0, 0, 2, 1, 0, 0);
    let got = rig.read(p2, 9, 17, sew);
    assert_eq!(got, a);
}
