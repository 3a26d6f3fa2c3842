//! Bitonic sort / rank: the data-dependent, MIMD-favoring kernel.
//!
//! Each PE holds `K = n/p` keys. The run has three phases:
//!
//! 1. **Local bitonic network** (`bitonic_network` span): the classic
//!    Batcher network, driven by a host-built comparator table so every PE
//!    executes the identical instruction sequence over its own data.
//! 2. **Ring rotation** (`recirculation_transfer` span): the blocks travel
//!    the fixed `PE i → PE (i−1)` circuits; after step `s` each PE holds
//!    (a copy of) the block of its `s`-th right neighbor.
//! 3. **Rank counting** (`rank_count` span): against every foreign block the
//!    PE counts, per owned key, how many foreign keys are smaller. Summed
//!    with the key's local sorted position this yields its exact global rank.
//!
//! The ESC establishes circuits once per run, so the pairwise exchanges of a
//! *global* bitonic merge are out of reach; the rotation + counting scheme
//! keeps communication on the shared ring while the comparison work — the
//! quantity under study — stays data-dependent.
//!
//! Keys are unique by construction (see [`Bitonic::generate`]), so ranks are
//! a permutation of `0..n` and strict unsigned compares need no tie-breaking.
//! Keys are 15-bit, which keeps `y − x` exact in signed 16-bit arithmetic —
//! that is what lets the SIMD variant replace the data-dependent branch with
//! a branch-free sign-mask compare-exchange:
//!
//! * **MIMD/S-MIMD comparator:** `CMP` + `BCC` + two conditional stores —
//!   10 cycles when ordered, taken-branch-free swap path when not. Fast on
//!   average, variable per element.
//! * **SIMD comparator:** `d = y − x`; `ASR #8` + `ASR #7` smears the sign
//!   into a full-word mask; XOR-swap under the mask. Every comparator costs
//!   the identical (higher) cycle count — the price of lockstep.
//!
//! That asymmetry is the kernel's point: MIMD autonomy wins on branchy code.
//!
//! Memory map (byte addresses, per PE): `KEYS` (K words, sorted in place),
//! `RANKS` (K words), `XBUF` (K-word rotation buffer), `CTAB` (host-built
//! comparator table, `2·n_comp` word addresses).
//!
//! Output: per PE, its K sorted keys followed by their K global ranks.

use crate::Kernel;
use pasm_isa::{Cond, DataReg, Ea, Instr, Program, ProgramBuilder, ShiftCount, ShiftKind, Size};
use pasm_machine::Machine;
use pasm_prog::codegen::{
    lea_abs, mimd_mc_program, movei_w, simd_bootstrap, xfer_element, A_PTR, BOOTSTRAP_HALT, B_PTR,
    CNT_MID, CNT_OUT, C_PTR, PHASE_COMM, PHASE_RANK, PHASE_SORT, TT_PTR,
};
use pasm_prog::matmul::{CommSync, MatmulParams};
use pasm_prog::{Mode, VirtualMachine};

/// Sorted keys (in place), word-aligned.
pub const KEYS: u32 = 0x2000;
/// Global ranks, parallel to `KEYS`.
pub const RANKS: u32 = 0x2400;
/// Rotation buffer the foreign blocks pass through.
pub const XBUF: u32 = 0x2800;
/// Comparator table: `n_comp` pairs of word addresses into `KEYS`.
pub const CTAB: u32 = 0x3000;

const X: DataReg = DataReg::D0;
const Y: DataReg = DataReg::D1;
const MASK: DataReg = DataReg::D2;
const ACC: DataReg = DataReg::D3;
const INNER: DataReg = DataReg::D6;

/// The comparator table of the K-key bitonic network: `(first, second)` byte
/// addresses meaning "make `mem[first] ≤ mem[second]`". Descending
/// comparators are encoded by swapping the addresses, so the PE code is one
/// uniform primitive.
pub fn comparators(k: usize) -> Vec<(u16, u16)> {
    assert!(k.is_power_of_two() && k >= 2);
    let addr = |i: usize| (KEYS + 2 * i as u32) as u16;
    let mut table = Vec::new();
    let mut span = 2;
    while span <= k {
        let mut j = span / 2;
        while j >= 1 {
            for i in 0..k {
                let l = i ^ j;
                if l > i {
                    if i & span == 0 {
                        table.push((addr(i), addr(l))); // ascending run
                    } else {
                        table.push((addr(l), addr(i))); // descending run
                    }
                }
            }
            j /= 2;
        }
        span *= 2;
    }
    table
}

/// PE program for MIMD (polling) and S/MIMD (barrier) sort+rank.
pub fn pe_program(params: MatmulParams, sync: CommSync) -> Program {
    let k = params.n / params.p;
    let n_comp = comparators(k).len();
    let mut b = ProgramBuilder::new();

    // Phase 1: table-driven local bitonic network, branchy comparator.
    b.emit(Instr::Mark {
        begin: true,
        phase: PHASE_SORT,
    });
    b.emit(lea_abs(CTAB, TT_PTR));
    b.emit(movei_w(n_comp as u32 - 1, CNT_OUT));
    let net = b.here("net");
    b.emit(Instr::Movea {
        size: Size::Word,
        src: Ea::PostInc(TT_PTR),
        dst: A_PTR,
    });
    b.emit(Instr::Movea {
        size: Size::Word,
        src: Ea::PostInc(TT_PTR),
        dst: C_PTR,
    });
    b.emit(Instr::Move {
        size: Size::Word,
        src: Ea::Ind(A_PTR),
        dst: Ea::D(X),
    });
    b.emit(Instr::Move {
        size: Size::Word,
        src: Ea::Ind(C_PTR),
        dst: Ea::D(Y),
    });
    b.emit(Instr::Cmp {
        size: Size::Word,
        src: Ea::D(X),
        dst: Y,
    });
    let ordered = b.new_label("ordered");
    b.branch(
        Instr::Bcc {
            cond: Cond::Cc, // y >= x (unsigned): already in order
            target: 0,
        },
        ordered,
    );
    b.emit(Instr::Move {
        size: Size::Word,
        src: Ea::D(Y),
        dst: Ea::Ind(A_PTR),
    });
    b.emit(Instr::Move {
        size: Size::Word,
        src: Ea::D(X),
        dst: Ea::Ind(C_PTR),
    });
    b.bind(ordered);
    b.branch(
        Instr::Dbra {
            dst: CNT_OUT,
            target: 0,
        },
        net,
    );
    b.emit(Instr::Mark {
        begin: false,
        phase: PHASE_SORT,
    });

    // RANKS[j] = j (the key's local sorted position seeds its global rank).
    b.emit(lea_abs(RANKS, C_PTR));
    b.emit(Instr::Clr {
        size: Size::Word,
        dst: Ea::D(X),
    });
    b.emit(movei_w(k as u32 - 1, CNT_MID));
    let rinit = b.here("rinit");
    b.emit(Instr::Move {
        size: Size::Word,
        src: Ea::D(X),
        dst: Ea::PostInc(C_PTR),
    });
    b.emit(Instr::Addq {
        size: Size::Word,
        value: 1,
        dst: Ea::D(X),
    });
    b.branch(
        Instr::Dbra {
            dst: CNT_MID,
            target: 0,
        },
        rinit,
    );

    // Seed the rotation buffer with the own (sorted) block.
    b.emit(lea_abs(KEYS, A_PTR));
    b.emit(lea_abs(XBUF, C_PTR));
    b.emit(movei_w(k as u32 - 1, CNT_MID));
    let cp = b.here("cp");
    b.emit(Instr::Move {
        size: Size::Word,
        src: Ea::PostInc(A_PTR),
        dst: Ea::PostInc(C_PTR),
    });
    b.branch(
        Instr::Dbra {
            dst: CNT_MID,
            target: 0,
        },
        cp,
    );

    // Phases 2+3, p−1 times: rotate XBUF one ring hop, count foreign keys.
    b.emit(movei_w(params.p as u32 - 2, CNT_OUT));
    let step = b.here("step");
    b.emit(Instr::Mark {
        begin: true,
        phase: PHASE_COMM,
    });
    if sync == CommSync::Barrier {
        b.emit(Instr::Barrier);
    }
    b.emit(lea_abs(XBUF, A_PTR));
    b.emit(movei_w(k as u32 - 1, CNT_MID));
    let rot = b.here("rot");
    xfer_element(sync == CommSync::Polling, &mut b);
    b.branch(
        Instr::Dbra {
            dst: CNT_MID,
            target: 0,
        },
        rot,
    );
    b.emit(Instr::Mark {
        begin: false,
        phase: PHASE_COMM,
    });
    b.emit(Instr::Mark {
        begin: true,
        phase: PHASE_RANK,
    });
    b.emit(lea_abs(KEYS, C_PTR));
    b.emit(lea_abs(RANKS, B_PTR));
    b.emit(movei_w(k as u32 - 1, CNT_MID));
    let outer = b.here("outer");
    b.emit(Instr::Move {
        size: Size::Word,
        src: Ea::PostInc(C_PTR),
        dst: Ea::D(Y),
    });
    b.emit(Instr::Move {
        size: Size::Word,
        src: Ea::Ind(B_PTR),
        dst: Ea::D(ACC),
    });
    b.emit(lea_abs(XBUF, A_PTR));
    b.emit(movei_w(k as u32 - 1, INNER));
    let inner = b.here("inner");
    b.emit(Instr::Move {
        size: Size::Word,
        src: Ea::PostInc(A_PTR),
        dst: Ea::D(X),
    });
    b.emit(Instr::Cmp {
        size: Size::Word,
        src: Ea::D(Y),
        dst: X,
    });
    let noinc = b.new_label("noinc");
    b.branch(
        Instr::Bcc {
            cond: Cond::Cc, // foreign >= own: not smaller, no count
            target: 0,
        },
        noinc,
    );
    b.emit(Instr::Addq {
        size: Size::Word,
        value: 1,
        dst: Ea::D(ACC),
    });
    b.bind(noinc);
    b.branch(
        Instr::Dbra {
            dst: INNER,
            target: 0,
        },
        inner,
    );
    b.emit(Instr::Move {
        size: Size::Word,
        src: Ea::D(ACC),
        dst: Ea::PostInc(B_PTR),
    });
    b.branch(
        Instr::Dbra {
            dst: CNT_MID,
            target: 0,
        },
        outer,
    );
    b.emit(Instr::Mark {
        begin: false,
        phase: PHASE_RANK,
    });
    b.branch(
        Instr::Dbra {
            dst: CNT_OUT,
            target: 0,
        },
        step,
    );
    b.emit(Instr::Halt);
    b.build().expect("bitonic PE program")
}

/// SIMD sort+rank: branch-free comparators, MC-driven loop nest.
pub fn simd_mc_program(params: MatmulParams, mask: u16) -> Program {
    let k = params.n / params.p;
    let n_comp = comparators(k).len();

    let mut b = ProgramBuilder::new();
    let sort_init = b.begin_block();
    b.emit(Instr::Mark {
        begin: true,
        phase: PHASE_SORT,
    });
    b.emit(lea_abs(CTAB, TT_PTR));
    b.end_block();

    // The branch-free compare-exchange: sign-mask + XOR-swap. Constant time
    // whatever the data — and paying for it on every comparator.
    let sort_body = b.begin_block();
    b.emit(Instr::Movea {
        size: Size::Word,
        src: Ea::PostInc(TT_PTR),
        dst: A_PTR,
    });
    b.emit(Instr::Movea {
        size: Size::Word,
        src: Ea::PostInc(TT_PTR),
        dst: C_PTR,
    });
    b.emit(Instr::Move {
        size: Size::Word,
        src: Ea::Ind(A_PTR),
        dst: Ea::D(X),
    });
    b.emit(Instr::Move {
        size: Size::Word,
        src: Ea::Ind(C_PTR),
        dst: Ea::D(Y),
    });
    b.emit(Instr::Move {
        size: Size::Word,
        src: Ea::D(Y),
        dst: Ea::D(MASK),
    });
    b.emit(Instr::Sub {
        size: Size::Word,
        src: Ea::D(X),
        dst: MASK,
    });
    // 15-bit keys: y − x fits signed 16-bit, so two ASRs (8 then 7 — the
    // immediate count maxes at 8) smear the sign across the word.
    b.emit(Instr::Shift {
        kind: ShiftKind::Asr,
        size: Size::Word,
        count: ShiftCount::Imm(8),
        dst: MASK,
    });
    b.emit(Instr::Shift {
        kind: ShiftKind::Asr,
        size: Size::Word,
        count: ShiftCount::Imm(7),
        dst: MASK,
    });
    b.emit(Instr::Move {
        size: Size::Word,
        src: Ea::D(X),
        dst: Ea::D(ACC),
    });
    b.emit(Instr::Eor {
        size: Size::Word,
        src: Y,
        dst: Ea::D(ACC),
    });
    b.emit(Instr::And {
        size: Size::Word,
        src: Ea::D(MASK),
        dst: ACC,
    });
    b.emit(Instr::Eor {
        size: Size::Word,
        src: ACC,
        dst: Ea::D(X),
    });
    b.emit(Instr::Eor {
        size: Size::Word,
        src: ACC,
        dst: Ea::D(Y),
    });
    b.emit(Instr::Move {
        size: Size::Word,
        src: Ea::D(X),
        dst: Ea::Ind(A_PTR),
    });
    b.emit(Instr::Move {
        size: Size::Word,
        src: Ea::D(Y),
        dst: Ea::Ind(C_PTR),
    });
    b.end_block();

    let rinit_head = b.begin_block();
    b.emit(Instr::Mark {
        begin: false,
        phase: PHASE_SORT,
    });
    b.emit(lea_abs(RANKS, C_PTR));
    b.emit(Instr::Clr {
        size: Size::Word,
        dst: Ea::D(X),
    });
    b.end_block();
    let rinit_body = b.begin_block();
    b.emit(Instr::Move {
        size: Size::Word,
        src: Ea::D(X),
        dst: Ea::PostInc(C_PTR),
    });
    b.emit(Instr::Addq {
        size: Size::Word,
        value: 1,
        dst: Ea::D(X),
    });
    b.end_block();

    let copy_head = b.begin_block();
    b.emit(lea_abs(KEYS, A_PTR));
    b.emit(lea_abs(XBUF, C_PTR));
    b.end_block();
    let copy_body = b.begin_block();
    b.emit(Instr::Move {
        size: Size::Word,
        src: Ea::PostInc(A_PTR),
        dst: Ea::PostInc(C_PTR),
    });
    b.end_block();

    let rot_head = b.begin_block();
    b.emit(Instr::Mark {
        begin: true,
        phase: PHASE_COMM,
    });
    b.emit(lea_abs(XBUF, A_PTR));
    b.end_block();
    let rot_body = b.begin_block();
    xfer_element(false, &mut b);
    b.end_block();

    let rank_head = b.begin_block();
    b.emit(Instr::Mark {
        begin: false,
        phase: PHASE_COMM,
    });
    b.emit(Instr::Mark {
        begin: true,
        phase: PHASE_RANK,
    });
    b.emit(lea_abs(KEYS, C_PTR));
    b.emit(lea_abs(RANKS, B_PTR));
    b.end_block();
    let outer_head = b.begin_block();
    b.emit(Instr::Move {
        size: Size::Word,
        src: Ea::PostInc(C_PTR),
        dst: Ea::D(Y),
    });
    b.emit(Instr::Move {
        size: Size::Word,
        src: Ea::Ind(B_PTR),
        dst: Ea::D(ACC),
    });
    b.emit(lea_abs(XBUF, A_PTR));
    b.end_block();
    // Branch-free count: rank −= sign-mask(foreign − own), i.e. +1 exactly
    // when the foreign key is smaller.
    let inner_body = b.begin_block();
    b.emit(Instr::Move {
        size: Size::Word,
        src: Ea::PostInc(A_PTR),
        dst: Ea::D(X),
    });
    b.emit(Instr::Sub {
        size: Size::Word,
        src: Ea::D(Y),
        dst: X,
    });
    b.emit(Instr::Shift {
        kind: ShiftKind::Asr,
        size: Size::Word,
        count: ShiftCount::Imm(8),
        dst: X,
    });
    b.emit(Instr::Shift {
        kind: ShiftKind::Asr,
        size: Size::Word,
        count: ShiftCount::Imm(7),
        dst: X,
    });
    b.emit(Instr::Sub {
        size: Size::Word,
        src: Ea::D(X),
        dst: ACC,
    });
    b.end_block();
    let outer_tail = b.begin_block();
    b.emit(Instr::Move {
        size: Size::Word,
        src: Ea::D(ACC),
        dst: Ea::PostInc(B_PTR),
    });
    b.end_block();
    let rank_tail = b.begin_block();
    b.emit(Instr::Mark {
        begin: false,
        phase: PHASE_RANK,
    });
    b.end_block();
    let done = b.begin_block();
    b.emit(Instr::JmpMimd {
        target: BOOTSTRAP_HALT,
    });
    b.end_block();

    // The MC drive loop nest.
    b.emit(Instr::SetMask { mask });
    b.emit(Instr::StartPes);
    b.emit(Instr::Enqueue { block: sort_init.0 });
    b.emit(movei_w(n_comp as u32 - 1, DataReg::D7));
    let mnet = b.here("mnet");
    b.emit(Instr::Enqueue { block: sort_body.0 });
    b.branch(
        Instr::Dbra {
            dst: DataReg::D7,
            target: 0,
        },
        mnet,
    );
    b.emit(Instr::Enqueue {
        block: rinit_head.0,
    });
    b.emit(movei_w(k as u32 - 1, DataReg::D6));
    let mrinit = b.here("mrinit");
    b.emit(Instr::Enqueue {
        block: rinit_body.0,
    });
    b.branch(
        Instr::Dbra {
            dst: DataReg::D6,
            target: 0,
        },
        mrinit,
    );
    b.emit(Instr::Enqueue { block: copy_head.0 });
    b.emit(movei_w(k as u32 - 1, DataReg::D6));
    let mcopy = b.here("mcopy");
    b.emit(Instr::Enqueue { block: copy_body.0 });
    b.branch(
        Instr::Dbra {
            dst: DataReg::D6,
            target: 0,
        },
        mcopy,
    );
    b.emit(movei_w(params.p as u32 - 2, DataReg::D7));
    let mstep = b.here("mstep");
    b.emit(Instr::Enqueue { block: rot_head.0 });
    b.emit(movei_w(k as u32 - 1, DataReg::D6));
    let mrot = b.here("mrot");
    b.emit(Instr::Enqueue { block: rot_body.0 });
    b.branch(
        Instr::Dbra {
            dst: DataReg::D6,
            target: 0,
        },
        mrot,
    );
    b.emit(Instr::Enqueue { block: rank_head.0 });
    b.emit(movei_w(k as u32 - 1, DataReg::D6));
    let mouter = b.here("mouter");
    b.emit(Instr::Enqueue {
        block: outer_head.0,
    });
    b.emit(movei_w(k as u32 - 1, DataReg::D5));
    let minner = b.here("minner");
    b.emit(Instr::Enqueue {
        block: inner_body.0,
    });
    b.branch(
        Instr::Dbra {
            dst: DataReg::D5,
            target: 0,
        },
        minner,
    );
    b.emit(Instr::Enqueue {
        block: outer_tail.0,
    });
    b.branch(
        Instr::Dbra {
            dst: DataReg::D6,
            target: 0,
        },
        mouter,
    );
    b.emit(Instr::Enqueue { block: rank_tail.0 });
    b.branch(
        Instr::Dbra {
            dst: DataReg::D7,
            target: 0,
        },
        mstep,
    );
    b.emit(Instr::Enqueue { block: done.0 });
    b.emit(Instr::Halt);
    b.build().expect("SIMD bitonic MC program")
}

/// The registered bitonic sort/rank kernel (see module docs).
pub struct Bitonic;

impl Kernel for Bitonic {
    fn name(&self) -> &'static str {
        "bitonic"
    }

    fn description(&self) -> &'static str {
        "local bitonic network + ring rank counting; data-dependent compares"
    }

    fn phases(&self) -> (u8, u8) {
        (PHASE_RANK, PHASE_COMM)
    }

    fn validate(&self, n: usize, p: usize) -> Result<(), String> {
        if p < 2 || !p.is_power_of_two() {
            return Err(format!("bitonic: p must be a power of two >= 2, got {p}"));
        }
        if !n.is_multiple_of(p) {
            return Err(format!("bitonic: p must divide n (n={n}, p={p})"));
        }
        let k = n / p;
        if !k.is_power_of_two() || !(2..=128).contains(&k) {
            return Err(format!(
                "bitonic: keys per PE must be a power of two in 2..=128, got {k} (n={n}, p={p})"
            ));
        }
        Ok(())
    }

    /// The comparator table at [`CTAB`] ends the map: a K = 2^m key network
    /// has m(m+1)/2 stages of K/2 comparators, two word addresses each.
    fn footprint(&self, mode: Mode, params: MatmulParams) -> Result<usize, String> {
        crate::parallel_only(self, mode)?;
        let k = params.n / params.p;
        let m = k.trailing_zeros() as usize;
        Ok(CTAB as usize + 4 * (k / 2) * (m * (m + 1) / 2))
    }

    /// `n` distinct 15-bit keys (rejection-sampled), so ranks are a
    /// permutation of `0..n` and compares need no tie-breaking.
    fn generate(&self, n: usize, seed: u64) -> Vec<u16> {
        assert!(n <= 16384, "need n distinct 15-bit keys");
        let mut rng = pasm_util::Rng::seed_from_u64(seed);
        let mut seen = std::collections::HashSet::with_capacity(n);
        let mut keys = Vec::with_capacity(n);
        while keys.len() < n {
            let v = rng.gen_u16() & 0x7FFF;
            if seen.insert(v) {
                keys.push(v);
            }
        }
        keys
    }

    fn reference(&self, params: MatmulParams, input: &[u16]) -> Vec<u16> {
        let k = params.n / params.p;
        let mut global = input.to_vec();
        global.sort_unstable();
        let mut out = Vec::with_capacity(2 * params.n);
        for block in input.chunks(k) {
            let mut sorted = block.to_vec();
            sorted.sort_unstable();
            out.extend_from_slice(&sorted);
            for key in &sorted {
                // Keys are unique, so the binary search is exact.
                out.push(global.binary_search(key).unwrap() as u16);
            }
        }
        out
    }

    /// S/MIMD pre-enqueues one barrier word per ring step.
    fn programs(&self, mode: Mode, params: MatmulParams, mask: u16) -> (Program, Program) {
        match mode.comm_sync() {
            Some(sync) => (
                pe_program(params, sync),
                mimd_mc_program(sync, mask, params.p - 1),
            ),
            None => (simd_bootstrap(), simd_mc_program(params, mask)),
        }
    }

    /// The keys, and the comparator table every PE walks.
    fn place(
        &self,
        machine: &mut Machine,
        _mode: Mode,
        params: MatmulParams,
        pes: &[usize],
        input: &[u16],
    ) {
        assert_eq!(input.len(), params.n, "bitonic input is n words");
        crate::scatter(machine, pes, KEYS, input);
        let table: Vec<u16> = comparators(params.n / params.p)
            .into_iter()
            .flat_map(|(a, b)| [a, b])
            .collect();
        for &pe in pes {
            machine.pe_mem_mut(pe).load_words(CTAB, &table);
        }
    }

    fn read_output(
        &self,
        machine: &Machine,
        _mode: Mode,
        params: MatmulParams,
        vm: &VirtualMachine,
    ) -> Vec<u16> {
        let k = params.n / params.p;
        let mut out = Vec::with_capacity(2 * params.n);
        for &pe in &vm.pes {
            let mem = machine.pe_mem(pe);
            for base in [KEYS, RANKS] {
                out.extend((0..k as u32).map(|i| mem.read_word(base + 2 * i)));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Host-side execution of the comparator table proves the network sorts.
    #[test]
    fn comparator_table_sorts_every_block_size() {
        for k in [2usize, 4, 8, 16, 32, 64, 128] {
            let table = comparators(k);
            let log = k.trailing_zeros() as usize;
            assert_eq!(table.len(), k / 2 * log * (log + 1) / 2);
            let mut rng = pasm_util::Rng::seed_from_u64(k as u64);
            let mut data: Vec<u16> = (0..k).map(|_| rng.gen_u16() & 0x7FFF).collect();
            let mut expect = data.clone();
            expect.sort_unstable();
            for (a, bb) in &table {
                let (i, j) = (
                    ((*a as u32 - KEYS) / 2) as usize,
                    ((*bb as u32 - KEYS) / 2) as usize,
                );
                if data[i] > data[j] {
                    data.swap(i, j);
                }
            }
            assert_eq!(data, expect, "K={k} network failed to sort");
        }
    }

    #[test]
    fn generated_keys_are_distinct_15_bit() {
        let k = Bitonic;
        let keys = k.generate(256, 7);
        assert!(keys.iter().all(|&v| v < 0x8000));
        let mut dedup = keys.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), 256);
        assert_eq!(k.generate(256, 7), keys, "seeded generation is stable");
    }

    #[test]
    fn reference_ranks_are_a_permutation() {
        let k = Bitonic;
        let params = MatmulParams {
            n: 32,
            p: 4,
            extra_muls: 0,
        };
        let input = k.generate(32, 3);
        let out = k.reference(params, &input);
        assert_eq!(out.len(), 64);
        let mut ranks: Vec<u16> = (0..4)
            .flat_map(|l| out[l * 16 + 8..l * 16 + 16].to_vec())
            .collect();
        ranks.sort_unstable();
        assert_eq!(ranks, (0..32).collect::<Vec<u16>>());
    }

    #[test]
    fn programs_build_for_all_shapes() {
        for p in [2usize, 4, 8, 16] {
            for k in [2usize, 16, 64] {
                let params = MatmulParams {
                    n: k * p,
                    p,
                    extra_muls: 0,
                };
                pe_program(params, CommSync::Polling).validate().unwrap();
                pe_program(params, CommSync::Barrier).validate().unwrap();
                simd_mc_program(params, 0xFFFF).validate().unwrap();
            }
        }
    }

    #[test]
    fn footprint_ends_at_the_comparator_table() {
        for k in [2usize, 4, 8, 16, 32, 64, 128] {
            let params = MatmulParams::new(4 * k, 4);
            assert_eq!(
                Bitonic.footprint(Mode::Mimd, params),
                Ok(CTAB as usize + 4 * comparators(k).len()),
                "K = {k}"
            );
        }
        assert!(Bitonic
            .footprint(Mode::Serial, MatmulParams::new(8, 1))
            .is_err());
    }

    #[test]
    fn validate_requires_power_of_two_blocks() {
        let b = Bitonic;
        assert!(b.validate(64, 4).is_ok());
        assert!(b.validate(48, 4).is_err()); // K = 12
        assert!(b.validate(4, 2).is_ok());
        assert!(b.validate(2, 2).is_err()); // K = 1
        assert!(b.validate(2048, 4).is_err()); // K = 512 > 128
    }
}
