//! Randomized invariants across the stack: functional correctness on random
//! data, timing-model laws, and structural network properties.
//!
//! Formerly written against `proptest`; rewritten as seeded exhaustive/random
//! loops over `pasm_util::Rng` so the suite builds with no external
//! dependencies (ISSUE 2). Coverage is equivalent: the same invariants, with
//! fixed seeds so failures reproduce deterministically.

use pasm::kernels::matmul::{input_words, Matmul};
use pasm::{run_kernel_opts, MachineConfig, Mode, Params, RunOptions};
use pasm_isa::timing;
use pasm_net::EscNetwork;
use pasm_prog::Matrix;
use pasm_util::Rng;

/// Every mode computes the exact reference product for arbitrary matrices.
#[test]
fn matmul_correct_on_arbitrary_data() {
    let mut rng = Rng::seed_from_u64(0x9a5e);
    let shapes = [(8usize, 4usize), (16, 4), (16, 8)];
    let modes = [Mode::Simd, Mode::Mimd, Mode::Smimd];
    for case in 0..16 {
        let (n, p) = shapes[rng.gen_range(shapes.len())];
        let mode = modes[rng.gen_range(modes.len())];
        let a = Matrix::uniform(n, rng.gen_u64());
        let b = Matrix::uniform(n, rng.gen_u64());
        let input = input_words(&a, &b);
        let cfg = MachineConfig::prototype();
        let opts = RunOptions::default();
        let out = run_kernel_opts(&cfg, &Matmul, mode, Params::new(n, p), &input, &opts).unwrap();
        assert_eq!(
            out.output,
            a.multiply(&b).words(),
            "case {case}: {mode} n={n} p={p}"
        );
    }
}

/// Host reference multiply is neutral in the identity: I·B = B·I = B.
#[test]
fn identity_is_neutral() {
    let mut rng = Rng::seed_from_u64(0x1d);
    for n in [2usize, 4, 8, 16] {
        for _ in 0..16 {
            let b = Matrix::uniform(n, rng.gen_u64());
            let i = Matrix::identity(n);
            assert_eq!(i.multiply(&b), b);
            assert_eq!(b.multiply(&i), b);
        }
    }
}

/// MULU timing follows the documented 38 + 2·popcount law and its bounds —
/// exhaustively over all 16-bit multipliers.
#[test]
fn mulu_cycles_law() {
    for v in 0..=u16::MAX {
        let c = timing::mulu_cycles(v);
        assert_eq!(c, 38 + 2 * v.count_ones());
        assert!((38..=70).contains(&c));
    }
}

/// MULS timing is bounded by the same envelope and is deterministic —
/// exhaustively over all 16-bit multipliers.
#[test]
fn muls_cycles_bounds() {
    for v in 0..=u16::MAX {
        let c = timing::muls_cycles(v);
        assert!((38..=72).contains(&c), "MULS({v}) = {c}");
        assert_eq!(c, timing::muls_cycles(v));
    }
}

/// DRAM access delay is periodic in the refresh interval and bounded.
#[test]
fn refresh_delay_periodic() {
    let t = pasm_mem::MemTiming::PE_DRAM;
    let mut rng = Rng::seed_from_u64(0xd7a8);
    for _ in 0..256 {
        let now = rng.gen_u64() % 1_000_000;
        let d = t.refresh_delay(now);
        assert!(d <= t.refresh_duration);
        assert_eq!(d, t.refresh_delay(now + t.refresh_interval));
    }
}

/// Burst delay is monotone in the number of accesses.
#[test]
fn burst_delay_monotone() {
    let t = pasm_mem::MemTiming::PE_DRAM;
    let mut rng = Rng::seed_from_u64(0xb0b);
    for _ in 0..256 {
        let now = rng.gen_u64() % 10_000;
        let k = 1 + rng.gen_range(31) as u32;
        assert!(t.burst_delay(now, k + 1) >= t.burst_delay(now, k));
    }
}

/// The ESC network routes every pair, and with the extra stage enabled the
/// two candidate paths are box-disjoint in the interior stages.
#[test]
fn esc_two_paths_disjoint() {
    for src in 0..16 {
        for dst in 0..16 {
            let mut net = EscNetwork::new(16);
            net.set_extra_enabled(true);
            let a = net.route(src, dst, false).unwrap();
            let b = net.route(src, dst, true).unwrap();
            for (ha, hb) in a.hops.iter().zip(&b.hops) {
                if ha.stage != 0 && ha.stage != 4 {
                    assert_ne!(ha.box_idx, hb.box_idx, "{src}->{dst} stage {}", ha.stage);
                }
            }
        }
    }
}

/// Any single faulty box is survivable after reconfiguration.
#[test]
fn esc_single_fault_tolerance() {
    let mut rng = Rng::seed_from_u64(0xfa17);
    for _ in 0..128 {
        let stage = rng.gen_range(5) as u32;
        let box_idx = rng.gen_range(8);
        let src = rng.gen_range(16);
        let dst = rng.gen_range(16);
        let mut net = EscNetwork::new(16);
        net.set_fault(stage, box_idx, true);
        net.reconfigure_for_faults();
        let id = net.establish(src, dst);
        assert!(
            id.is_ok(),
            "{src}->{dst} with fault at ({stage},{box_idx}): {id:?}"
        );
    }
}

/// Establishing then releasing a circuit restores full availability.
#[test]
fn esc_release_restores() {
    for src in 0..16 {
        for dst in 0..16 {
            let mut net = EscNetwork::new(16);
            let id = net.establish(src, dst).unwrap();
            net.release(id).unwrap();
            assert_eq!(net.live_circuits(), 0);
            // Same circuit can be established again.
            net.establish(src, dst).unwrap();
        }
    }
}

/// Memory word writes read back, byte order big-endian.
#[test]
fn memory_word_roundtrip() {
    let mut rng = Rng::seed_from_u64(0x3e3);
    for _ in 0..256 {
        let addr = (rng.gen_range(1000) as u32) * 2;
        let v = rng.gen_u16();
        let mut m = pasm_mem::Memory::new(4096);
        m.write_word(addr, v);
        assert_eq!(m.read_word(addr), v);
        assert_eq!(m.read_byte(addr), (v >> 8) as u8);
        assert_eq!(m.read_byte(addr + 1), v as u8);
    }
}

/// Bit-density matrices have the exact requested popcount.
#[test]
fn bit_density_popcount() {
    let mut rng = Rng::seed_from_u64(0xde5);
    for ones in 0..=16u32 {
        let m = Matrix::bit_density(4, ones, rng.gen_u64());
        for r in 0..4 {
            for c in 0..4 {
                assert_eq!(m.get(r, c).count_ones(), ones);
            }
        }
    }
}
