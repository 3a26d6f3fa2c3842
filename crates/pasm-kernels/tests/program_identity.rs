//! Program-identity golden: the exact PE and MC program every kernel
//! generates, pinned by fingerprint at one small shape per mode.
//!
//! The block cache keys on `pasm_machine::block::fingerprint`, and cycles
//! and result fingerprints follow from the instructions, so a refactor of
//! the generators that changes a single instruction shows up here first.

use pasm_isa::Program;
use pasm_machine::block::fingerprint;
use pasm_prog::{MatmulParams, Mode};
use std::hash::Hasher;

/// `block::fingerprint` of the main stream, then of each SIMD block, in
/// order, folded into one word.
fn identity(prog: &Program) -> u64 {
    let mut h = pasm_util::Fnv1a::new();
    h.write_u64(fingerprint(&prog.instrs));
    for block in &prog.blocks {
        h.write_u64(fingerprint(block));
    }
    h.finish()
}

/// `(kernel, mode, pe identity, mc identity)` at n = 16, p = 4, mask 0xF
/// (matmul serial: p = 1, mask 0x1).
#[rustfmt::skip]
const GOLDEN: &[(&str, Mode, u64, u64)] = &[
    ("matmul",  Mode::Simd,   0x4827fb4581f15781, 0xe14ce205ef2b5566),
    ("matmul",  Mode::Mimd,   0x682ac85bc9dd64b2, 0xd0f4b0d19b3add26),
    ("matmul",  Mode::Smimd,  0x9a61e4a951e3b167, 0xa694cb8e60323150),
    ("matmul",  Mode::Serial, 0x3d7db5e09527247a, 0xe7433158133f47f1),
    ("smooth",  Mode::Simd,   0x4827fb4581f15781, 0x40bf59ce76d9b4d3),
    ("smooth",  Mode::Mimd,   0x98baab06392aefab, 0xd0f4b0d19b3add26),
    ("smooth",  Mode::Smimd,  0x5bdbbb80dd7e9716, 0xd81033a0a76cd5ca),
    ("reduce",  Mode::Simd,   0x4827fb4581f15781, 0x2dd32cbdc77b805e),
    ("reduce",  Mode::Mimd,   0xf394acadfeed36dc, 0xd0f4b0d19b3add26),
    ("reduce",  Mode::Smimd,  0x7d17ecc665bedadb, 0x77763376373cf928),
    ("bitonic", Mode::Simd,   0x4827fb4581f15781, 0x0094f81d104d2c95),
    ("bitonic", Mode::Mimd,   0xba0b51315dad1a63, 0xd0f4b0d19b3add26),
    ("bitonic", Mode::Smimd,  0xe5ca6beecdb3db91, 0x77763376373cf928),
];

#[test]
fn every_kernel_program_is_pinned() {
    let mut got = Vec::new();
    for kernel in pasm_kernels::kernels() {
        let modes: &[Mode] = if kernel
            .footprint(Mode::Serial, MatmulParams::new(16, 1))
            .is_ok()
        {
            &[Mode::Simd, Mode::Mimd, Mode::Smimd, Mode::Serial]
        } else {
            &[Mode::Simd, Mode::Mimd, Mode::Smimd]
        };
        for &mode in modes {
            let (params, mask) = if mode == Mode::Serial {
                (MatmulParams::new(16, 1), 0x1)
            } else {
                (MatmulParams::new(16, 4), 0xF)
            };
            let (pe, mc) = kernel.programs(mode, params, mask);
            got.push((kernel.name(), mode, identity(&pe), identity(&mc)));
        }
    }
    let listing: String = got
        .iter()
        .map(|(k, m, pe, mc)| format!("    ({k:?}, Mode::{m:?}, {pe:#018x}, {mc:#018x}),\n"))
        .collect();
    assert_eq!(got, GOLDEN, "actual table:\n{listing}");
}
