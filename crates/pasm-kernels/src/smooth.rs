//! 1-D image smoothing: a communication-light, constant-time stencil.
//!
//! The signal is a circular line of `n` 16-bit samples, block-partitioned
//! over `p` PEs (`K = n/p` samples each). Every pass applies the 3-tap
//! binomial filter
//!
//! ```text
//! out[i] = (x[i] + 2·x[i+1] + x[i+2]) >> 2        (wrapping 16-bit adds)
//! ```
//!
//! shift-only arithmetic, so every sample costs *exactly* the same cycle
//! count regardless of data — the polar opposite of the matmul's `MULU`
//! variance. A pass needs just two halo samples from the right ring
//! neighbor (the ring's receive direction, so the fixed `PE i → PE (i−1)`
//! circuits of the other kernels are reused unchanged), then `K` independent
//! stencil evaluations.
//!
//! This is the workload SIMD should win: there is no execution-time variance
//! for MIMD autonomy to exploit, while the SIMD PEs get their control flow
//! for free from the MC queue. The `extra_muls` knob adds smoothing passes
//! (more compute per halo exchange) instead of multiplies.
//!
//! Memory map (word addresses, per PE):
//!
//! | range                 | contents                              |
//! |-----------------------|---------------------------------------|
//! | `BUF0 .. +2(K+2)`     | ping buffer: `K` samples + 2-word halo |
//! | `BUF1 .. +2(K+2)`     | pong buffer: `K` samples + 2-word halo |

use crate::Kernel;
use pasm_isa::{AddrReg, DataReg, Ea, Instr, Program, ProgramBuilder, ShiftCount, ShiftKind, Size};
use pasm_machine::Machine;
use pasm_prog::codegen::{
    lea_abs, mimd_mc_program, movea_a, movei_w, simd_bootstrap, xfer_element, A_PTR,
    BOOTSTRAP_HALT, CNT_MID, CNT_OUT, C_PTR, PHASE_HALO, PHASE_STENCIL,
};
use pasm_prog::matmul::{CommSync, MatmulParams};
use pasm_prog::{Mode, VirtualMachine};

/// Ping buffer base (initial input lives here).
pub const BUF0: u32 = 0x2000;
/// Pong buffer base.
pub const BUF1: u32 = 0x3000;
/// Smoothing passes before `extra_muls` adds more.
pub const BASE_PASSES: usize = 4;

const CUR: AddrReg = AddrReg::A4;
const OUT: AddrReg = AddrReg::A5;
const SWAP: AddrReg = AddrReg::A6;
const S0: DataReg = DataReg::D0;
const S1: DataReg = DataReg::D1;

/// Number of smoothing passes for a parameter set.
pub fn passes(params: MatmulParams) -> usize {
    BASE_PASSES + params.extra_muls
}

/// Where the final samples live: ping for an even pass count, pong for odd.
pub fn result_base(params: MatmulParams) -> u32 {
    if passes(params).is_multiple_of(2) {
        BUF0
    } else {
        BUF1
    }
}

/// The eight-instruction stencil body: one output sample from `(A0)`,
/// writing through `(A1)+`. Constant-time by construction (loads, adds,
/// one shift).
fn stencil_body() -> Vec<Instr> {
    vec![
        Instr::Move {
            size: Size::Word,
            src: Ea::PostInc(A_PTR),
            dst: Ea::D(S0),
        },
        Instr::Move {
            size: Size::Word,
            src: Ea::Ind(A_PTR),
            dst: Ea::D(S1),
        },
        Instr::Add {
            size: Size::Word,
            src: Ea::D(S1),
            dst: S0,
        },
        Instr::Add {
            size: Size::Word,
            src: Ea::D(S1),
            dst: S0,
        },
        Instr::Move {
            size: Size::Word,
            src: Ea::Disp(2, A_PTR),
            dst: Ea::D(S1),
        },
        Instr::Add {
            size: Size::Word,
            src: Ea::D(S1),
            dst: S0,
        },
        Instr::Shift {
            kind: ShiftKind::Lsr,
            size: Size::Word,
            count: ShiftCount::Imm(2),
            dst: S0,
        },
        Instr::Move {
            size: Size::Word,
            src: Ea::D(S0),
            dst: Ea::PostInc(C_PTR),
        },
    ]
}

/// PE program for MIMD (polling) and S/MIMD (barrier) smoothing.
pub fn pe_program(params: MatmulParams, sync: CommSync) -> Program {
    let k = params.n / params.p;
    let halo_off = 2 * k as u32; // byte offset of the halo slots
    let mut b = ProgramBuilder::new();
    b.emit(lea_abs(BUF0, CUR));
    b.emit(lea_abs(BUF1, OUT));
    b.emit(movei_w(passes(params) as u32 - 1, CNT_OUT));
    let iter = b.here("pass");

    // Halo exchange: stage own first two samples in the halo slots, then ring-
    // swap them (each PE sends its pair left and receives its right
    // neighbor's pair into the same slots).
    b.emit(Instr::Mark {
        begin: true,
        phase: PHASE_HALO,
    });
    if sync == CommSync::Barrier {
        b.emit(Instr::Barrier);
    }
    b.emit(movea_a(CUR, A_PTR));
    b.emit(movea_a(CUR, C_PTR));
    b.emit(Instr::Adda {
        size: Size::Word,
        src: Ea::Imm(halo_off),
        dst: C_PTR,
    });
    for _ in 0..2 {
        b.emit(Instr::Move {
            size: Size::Word,
            src: Ea::PostInc(A_PTR),
            dst: Ea::PostInc(C_PTR),
        });
    }
    b.emit(movea_a(CUR, A_PTR));
    b.emit(Instr::Adda {
        size: Size::Word,
        src: Ea::Imm(halo_off),
        dst: A_PTR,
    });
    xfer_element(sync == CommSync::Polling, &mut b);
    xfer_element(sync == CommSync::Polling, &mut b);
    b.emit(Instr::Mark {
        begin: false,
        phase: PHASE_HALO,
    });

    // Stencil sweep over the K owned samples.
    b.emit(Instr::Mark {
        begin: true,
        phase: PHASE_STENCIL,
    });
    b.emit(movea_a(CUR, A_PTR));
    b.emit(movea_a(OUT, C_PTR));
    b.emit(movei_w(k as u32 - 1, CNT_MID));
    let body = b.here("stencil");
    for i in stencil_body() {
        b.emit(i);
    }
    b.branch(
        Instr::Dbra {
            dst: CNT_MID,
            target: 0,
        },
        body,
    );
    b.emit(Instr::Mark {
        begin: false,
        phase: PHASE_STENCIL,
    });

    // Ping-pong swap and next pass.
    b.emit(movea_a(CUR, SWAP));
    b.emit(movea_a(OUT, CUR));
    b.emit(movea_a(SWAP, OUT));
    b.branch(
        Instr::Dbra {
            dst: CNT_OUT,
            target: 0,
        },
        iter,
    );
    b.emit(Instr::Halt);
    b.build().expect("smooth PE program")
}

/// SIMD smoothing: the MC unrolls the passes (parity-specific halo and
/// pointer-setup blocks, one shared stencil-body block enqueued `K` times).
pub fn simd_mc_program(params: MatmulParams, mask: u16) -> Program {
    let k = params.n / params.p;
    let t = passes(params);
    let halo_off = 2 * k as u32;

    let mut b = ProgramBuilder::new();
    let bases = [(BUF0, BUF1), (BUF1, BUF0)];
    let halo: Vec<_> = bases
        .iter()
        .map(|&(cur, _)| {
            let blk = b.begin_block();
            b.emit(Instr::Mark {
                begin: true,
                phase: PHASE_HALO,
            });
            b.emit(lea_abs(cur, A_PTR));
            b.emit(lea_abs(cur + halo_off, C_PTR));
            for _ in 0..2 {
                b.emit(Instr::Move {
                    size: Size::Word,
                    src: Ea::PostInc(A_PTR),
                    dst: Ea::PostInc(C_PTR),
                });
            }
            b.emit(lea_abs(cur + halo_off, A_PTR));
            xfer_element(false, &mut b);
            xfer_element(false, &mut b);
            b.emit(Instr::Mark {
                begin: false,
                phase: PHASE_HALO,
            });
            b.end_block();
            blk
        })
        .collect();
    let cinit: Vec<_> = bases
        .iter()
        .map(|&(cur, out)| {
            let blk = b.begin_block();
            b.emit(Instr::Mark {
                begin: true,
                phase: PHASE_STENCIL,
            });
            b.emit(lea_abs(cur, A_PTR));
            b.emit(lea_abs(out, C_PTR));
            b.end_block();
            blk
        })
        .collect();
    let body = b.begin_block();
    for i in stencil_body() {
        b.emit(i);
    }
    b.end_block();
    let cend = b.begin_block();
    b.emit(Instr::Mark {
        begin: false,
        phase: PHASE_STENCIL,
    });
    b.end_block();
    let done = b.begin_block();
    b.emit(Instr::JmpMimd {
        target: BOOTSTRAP_HALT,
    });
    b.end_block();

    b.emit(Instr::SetMask { mask });
    b.emit(Instr::StartPes);
    for pass in 0..t {
        let par = pass % 2;
        b.emit(Instr::Enqueue { block: halo[par].0 });
        b.emit(Instr::Enqueue {
            block: cinit[par].0,
        });
        b.emit(movei_w(k as u32 - 1, DataReg::D6));
        let l = b.here(format!("mcpass{pass}"));
        b.emit(Instr::Enqueue { block: body.0 });
        b.branch(
            Instr::Dbra {
                dst: DataReg::D6,
                target: 0,
            },
            l,
        );
        b.emit(Instr::Enqueue { block: cend.0 });
    }
    b.emit(Instr::Enqueue { block: done.0 });
    b.emit(Instr::Halt);
    b.build().expect("SIMD smooth MC program")
}

/// The registered smoothing kernel (see module docs).
pub struct Smooth;

impl Kernel for Smooth {
    fn name(&self) -> &'static str {
        "smooth"
    }

    fn description(&self) -> &'static str {
        "circular 3-tap binomial smoothing, constant-time compute, 2-word halos"
    }

    fn phases(&self) -> (u8, u8) {
        (PHASE_STENCIL, PHASE_HALO)
    }

    fn validate(&self, n: usize, p: usize) -> Result<(), String> {
        if p < 2 || !p.is_power_of_two() {
            return Err(format!("smooth: p must be a power of two >= 2, got {p}"));
        }
        if !n.is_multiple_of(p) {
            return Err(format!("smooth: p must divide n (n={n}, p={p})"));
        }
        let k = n / p;
        if !(2..=1024).contains(&k) {
            return Err(format!(
                "smooth: samples per PE must be in 2..=1024, got {k} (n={n}, p={p})"
            ));
        }
        Ok(())
    }

    /// The pong buffer at [`BUF1`], `K` samples and the 2-word halo, ends
    /// the map.
    fn footprint(&self, mode: Mode, params: MatmulParams) -> Result<usize, String> {
        crate::parallel_only(self, mode)?;
        Ok(BUF1 as usize + 2 * (params.n / params.p + 2))
    }

    fn generate(&self, n: usize, seed: u64) -> Vec<u16> {
        let mut rng = pasm_util::Rng::seed_from_u64(seed);
        (0..n).map(|_| rng.gen_u16()).collect()
    }

    fn reference(&self, params: MatmulParams, input: &[u16]) -> Vec<u16> {
        let mut x = input.to_vec();
        for _ in 0..passes(params) {
            x = smooth_once(&x);
        }
        x
    }

    /// S/MIMD pre-enqueues one barrier word per pass.
    fn programs(&self, mode: Mode, params: MatmulParams, mask: u16) -> (Program, Program) {
        match mode.comm_sync() {
            Some(sync) => (
                pe_program(params, sync),
                mimd_mc_program(sync, mask, passes(params)),
            ),
            None => (simd_bootstrap(), simd_mc_program(params, mask)),
        }
    }

    fn place(
        &self,
        machine: &mut Machine,
        _mode: Mode,
        params: MatmulParams,
        pes: &[usize],
        input: &[u16],
    ) {
        assert_eq!(input.len(), params.n, "smooth input is n words");
        crate::scatter(machine, pes, BUF0, input);
    }

    fn read_output(
        &self,
        machine: &Machine,
        _mode: Mode,
        params: MatmulParams,
        vm: &VirtualMachine,
    ) -> Vec<u16> {
        crate::gather(machine, &vm.pes, result_base(params), params.n / params.p)
    }
}

/// One host-side smoothing pass over the circular signal, with exactly the
/// machine's arithmetic (wrapping 16-bit adds, then a logical shift).
fn smooth_once(x: &[u16]) -> Vec<u16> {
    let n = x.len();
    (0..n)
        .map(|i| {
            let s = x[i]
                .wrapping_add(x[(i + 1) % n])
                .wrapping_add(x[(i + 1) % n])
                .wrapping_add(x[(i + 2) % n]);
            s >> 2
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn programs_build_for_all_sizes() {
        for p in [2usize, 4, 8, 16] {
            let params = MatmulParams {
                n: 16 * p,
                p,
                extra_muls: 1,
            };
            pe_program(params, CommSync::Polling).validate().unwrap();
            pe_program(params, CommSync::Barrier).validate().unwrap();
            simd_mc_program(params, 0xF).validate().unwrap();
        }
    }

    #[test]
    fn reference_smoothing_converges_toward_the_mean() {
        let k = Smooth;
        let input = vec![0u16, 0, 0, 0, 400, 400, 400, 400];
        let params = MatmulParams {
            n: 8,
            p: 4,
            extra_muls: 0,
        };
        let out = k.reference(params, &input);
        // Smoothing must contract the range.
        let (lo, hi) = (out.iter().min().unwrap(), out.iter().max().unwrap());
        assert!(hi - lo < 400, "range must shrink, got {out:?}");
    }

    #[test]
    fn result_base_alternates_with_pass_count() {
        let even = MatmulParams {
            n: 32,
            p: 4,
            extra_muls: 0,
        };
        let odd = MatmulParams {
            n: 32,
            p: 4,
            extra_muls: 1,
        };
        assert_eq!(result_base(even), BUF0); // BASE_PASSES = 4
        assert_eq!(result_base(odd), BUF1);
    }

    #[test]
    fn validate_bounds_block_size() {
        let k = Smooth;
        assert!(k.validate(64, 4).is_ok());
        assert!(k.validate(64, 64).is_err()); // K = 1
        assert!(k.validate(63, 4).is_err());
        assert!(k.validate(64, 1).is_err());
    }
}
