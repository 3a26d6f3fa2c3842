use super::*;
use crate::config::{MachineConfig, ReleaseMode};
use pasm_isa::asm::assemble;
use pasm_isa::{DataReg, Ea, ProgramBuilder, Size};

fn small_machine() -> Machine {
    Machine::new(MachineConfig::small())
}

fn halting(src: &str) -> Program {
    assemble(src).expect("assembly")
}

#[test]
fn mimd_single_pe_runs_and_halts() {
    let mut m = small_machine();
    m.load_pe_program(
        0,
        halting(
            "
            MOVEQ   #0,D0
            MOVE.W  #9,D1
        top: ADDQ.W  #2,D0
            DBRA    D1,top
            HALT
        ",
        ),
    );
    m.start_pe(0, 0);
    let r = m.run().unwrap();
    assert_eq!(m.pe_cpu(0).d[0] & 0xFFFF, 20);
    assert!(r.makespan > 0);
    assert_eq!(r.pe[0].finished_at, r.makespan);
    assert!(r.pe[0].instrs >= 22);
}

#[test]
fn mimd_charges_dram_waits() {
    // The same straight-line code must take longer on DRAM (MIMD fetch) than
    // the core tables alone: wait states + occasional refresh.
    let mut m = small_machine();
    m.load_pe_program(
        0,
        halting(
            "
            NOP
            NOP
            NOP
            NOP
            HALT
        ",
        ),
    );
    m.start_pe(0, 0);
    let r = m.run().unwrap();
    // 5 instructions, 4 core cycles each = 20 core cycles; each is 1 word
    // fetched from DRAM at +1 wait state = +5, plus a possible refresh hit.
    assert!(r.makespan >= 25, "got {}", r.makespan);
    assert!(r.pe[0].fetch_wait_cycles >= 5);
}

/// Build the canonical SIMD test pair: PE bootstrap + MC broadcast program.
/// The MC broadcasts `block_body` once, then returns the PEs to MIMD (Halt).
fn simd_pair(block_body: &[Instr]) -> (Program, Program) {
    // PE program: 0: JMPSIMD, 1: HALT
    let mut pe = ProgramBuilder::new();
    pe.emit(Instr::JmpSimd);
    pe.emit(Instr::Halt);
    let pe = pe.build().unwrap();

    let mut mc = ProgramBuilder::new();
    let b0 = mc.begin_block();
    for &i in block_body {
        mc.emit(i);
    }
    mc.emit(Instr::JmpMimd { target: 1 });
    mc.end_block();
    mc.emit(Instr::SetMask { mask: 0xFFFF });
    mc.emit(Instr::StartPes);
    mc.emit(Instr::Enqueue { block: b0.0 });
    mc.emit(Instr::Halt);
    let mc = mc.build().unwrap();
    (pe, mc)
}

#[test]
fn simd_broadcast_reaches_all_pes() {
    let mut m = small_machine();
    let (pe, mc) = simd_pair(&[
        Instr::Moveq {
            value: 7,
            dst: DataReg::D0,
        },
        Instr::Add {
            size: Size::Word,
            src: Ea::D(DataReg::D0),
            dst: DataReg::D0,
        },
    ]);
    for i in 0..4 {
        m.load_pe_program(i, pe.clone());
    }
    m.load_mc_program(0, mc);
    let r = m.run().unwrap();
    for i in 0..4 {
        assert_eq!(m.pe_cpu(i).d[0] & 0xFFFF, 14, "PE {i}");
    }
    assert!(r.fu[0].entries >= 3);
    assert!(r.pe_makespan > 0);
}

/// Two MCs whose programs share the main stream but not the SIMD blocks
/// must each broadcast their own blocks: the compiled block metadata is
/// keyed by the whole program, not by the main stream alone.
#[test]
fn groups_broadcast_their_own_blocks_under_one_main_stream() {
    let moveq = |value| Instr::Moveq {
        value,
        dst: DataReg::D0,
    };
    for fast in [true, false] {
        let mut m = Machine::new(MachineConfig {
            n_mcs: 2,
            ..MachineConfig::small()
        });
        m.set_fast_path(fast);
        let (pe, mc0) = simd_pair(&[moveq(3), moveq(3)]);
        let (_, mc1) = simd_pair(&[moveq(5), moveq(5)]);
        assert_eq!(mc0.instrs, mc1.instrs);
        assert_ne!(mc0.blocks, mc1.blocks);
        for i in 0..4 {
            m.load_pe_program(i, pe.clone());
        }
        m.load_mc_program(0, mc0);
        m.load_mc_program(1, mc1);
        m.run().unwrap();
        for i in 0..4 {
            let want = if m.mc_of_pe(i) == 0 { 3 } else { 5 };
            assert_eq!(m.pe_cpu(i).d[0], want, "PE {i}, fast path {fast}");
        }
    }
}

#[test]
fn simd_lockstep_costs_the_max_multiply() {
    // Each PE multiplies by a different value; under the lockstep release each
    // broadcast multiply costs the max across PEs, so total SIMD time must
    // exceed the decoupled (ablation) time.
    let body = [
        // D1 preloaded per-PE below; MULU D1,D0 repeated.
        Instr::Mulu {
            src: Ea::D(DataReg::D1),
            dst: DataReg::D0,
        },
        Instr::Mulu {
            src: Ea::D(DataReg::D1),
            dst: DataReg::D0,
        },
        Instr::Mulu {
            src: Ea::D(DataReg::D1),
            dst: DataReg::D0,
        },
        Instr::Mulu {
            src: Ea::D(DataReg::D1),
            dst: DataReg::D0,
        },
    ];
    let run_with = |mode: ReleaseMode| {
        let cfg = MachineConfig {
            release_mode: mode,
            ..MachineConfig::small()
        };
        let mut m = Machine::new(cfg);
        let (pe, mc) = simd_pair(&body);
        for i in 0..4 {
            m.load_pe_program(i, pe.clone());
            // PE 0 has the heaviest multiplier (16 ones), others the lightest.
            m.pe_cpu_mut(i).d[1] = if i == 0 { 0xFFFF } else { 0 };
            m.pe_cpu_mut(i).d[0] = 1;
        }
        m.load_mc_program(0, mc);
        m.run().unwrap()
    };
    let lockstep = run_with(ReleaseMode::Lockstep);
    let decoupled = run_with(ReleaseMode::Decoupled);
    // PE 3 (a light PE) pays PE 0's multiply time only under lockstep.
    assert!(
        lockstep.pe[3].simd_wait_cycles > decoupled.pe[3].simd_wait_cycles,
        "lockstep {} vs decoupled {}",
        lockstep.pe[3].simd_wait_cycles,
        decoupled.pe[3].simd_wait_cycles
    );
    assert!(lockstep.pe_makespan >= decoupled.pe_makespan);
}

#[test]
fn barrier_synchronizes_mimd_pes() {
    // Two PEs with very different work lengths hit a BARRIER; both must leave
    // it at the same time (the release), and the fast one records the wait.
    let cfg = MachineConfig {
        n_pes: 4,
        n_mcs: 1,
        ..MachineConfig::small()
    };
    let mut m = Machine::new(cfg);
    let slow = halting(
        "
        MOVE.W  #199,D1
    t:  NOP
        DBRA    D1,t
        BARRIER
        HALT
    ",
    );
    let fast = halting(
        "
        BARRIER
        HALT
    ",
    );
    m.load_pe_program(0, slow);
    for i in 1..4 {
        m.load_pe_program(i, fast.clone());
    }
    let mut mc = ProgramBuilder::new();
    mc.emit(Instr::SetMask { mask: 0xFFFF });
    mc.emit(Instr::EnqueueWords { count: 1 });
    mc.emit(Instr::StartPes);
    mc.emit(Instr::Halt);
    m.load_mc_program(0, mc.build().unwrap());
    let r = m.run().unwrap();
    // All PEs finish within one HALT of each other.
    let finish: Vec<u64> = r.pe.iter().take(4).map(|t| t.finished_at).collect();
    let spread = finish.iter().max().unwrap() - finish.iter().min().unwrap();
    assert!(spread <= 16, "finish spread {spread} too large: {finish:?}");
    assert!(
        r.pe[1].simd_wait_cycles > 1000,
        "fast PE waited {}",
        r.pe[1].simd_wait_cycles
    );
}

#[test]
fn network_transfer_with_polling() {
    // PE0 sends a byte; PE1 polls the status register then reads it (the MIMD
    // protocol of paper §5.2).
    let mut m = small_machine();
    m.connect(0, 1).unwrap();
    m.load_pe_program(
        0,
        halting(
            "
            MOVE.B  #$5A,$00E00000.L   ; DTR
            HALT
        ",
        ),
    );
    m.load_pe_program(
        1,
        halting(
            "
        poll: MOVE.B  $00E00004.L,D1   ; status
            AND.W   #2,D1              ; rx valid?
            BEQ     poll
            MOVE.B  $00E00002.L,D0     ; DRR
            HALT
        ",
        ),
    );
    m.start_pe(0, 0);
    m.start_pe(1, 0);
    let r = m.run().unwrap();
    assert_eq!(m.pe_cpu(1).d[0] & 0xFF, 0x5A);
    assert!(r.pe[1].instrs >= 5);
}

#[test]
fn network_blocked_read_wakes_on_send() {
    // PE1 reads DRR directly (blocking) before PE0 has sent: the machine must
    // park it and wake it when the byte arrives.
    let mut m = small_machine();
    m.connect(0, 1).unwrap();
    m.load_pe_program(
        0,
        halting(
            "
            MOVE.W  #99,D7
        t:  NOP
            DBRA    D7,t
            MOVE.B  #$42,$00E00000.L
            HALT
        ",
        ),
    );
    m.load_pe_program(
        1,
        halting(
            "
            MOVE.B  $00E00002.L,D0
            HALT
        ",
        ),
    );
    m.start_pe(0, 0);
    m.start_pe(1, 0);
    let r = m.run().unwrap();
    assert_eq!(m.pe_cpu(1).d[0] & 0xFF, 0x42);
    let stall = r.accounts.unwrap().pe[1].bucket(Bucket::Network);
    assert!(stall > 500, "stall {stall}");
}

#[test]
fn network_tx_backpressure() {
    // PE0 fires two bytes back-to-back; the second write must stall until PE1
    // consumes the first.
    let mut m = small_machine();
    m.connect(0, 1).unwrap();
    m.load_pe_program(
        0,
        halting(
            "
            MOVE.B  #1,$00E00000.L
            MOVE.B  #2,$00E00000.L
            HALT
        ",
        ),
    );
    m.load_pe_program(
        1,
        halting(
            "
            MOVE.W  #49,D7
        t:  NOP
            DBRA    D7,t
            MOVE.B  $00E00002.L,D0
            MOVE.B  $00E00002.L,D1
            HALT
        ",
        ),
    );
    m.start_pe(0, 0);
    m.start_pe(1, 0);
    let r = m.run().unwrap();
    assert_eq!(m.pe_cpu(1).d[0] & 0xFF, 1);
    assert_eq!(m.pe_cpu(1).d[1] & 0xFF, 2);
    let stall = r.accounts.unwrap().pe[0].bucket(Bucket::Network);
    assert!(stall > 100, "stall {stall}");
}

/// Leaving the accounts out of the result changes nothing else: the
/// accounts are always kept, and the traces derive from them.
#[test]
fn disabling_accounting_leaves_out_only_the_accounts() {
    let run = |accounting: bool| {
        let (pe, mc) = simd_pair(&[
            Instr::Mulu {
                src: Ea::D(DataReg::D2),
                dst: DataReg::D0,
            },
            Instr::Mark {
                begin: true,
                phase: 1,
            },
            Instr::Nop,
            Instr::Mark {
                begin: false,
                phase: 1,
            },
        ]);
        let mut m = small_machine();
        m.set_accounting(accounting);
        for i in 0..4 {
            m.load_pe_program(i, pe.clone());
            m.pe_cpu_mut(i).d[2] = 0x0F0F << i;
        }
        m.load_mc_program(0, mc);
        m.run().unwrap()
    };
    let on = run(true);
    let off = run(false);
    assert!(on.accounts.is_some());
    assert_eq!(off.accounts, None);
    assert_eq!(
        RunResult {
            accounts: None,
            ..on
        },
        off
    );
}

#[test]
fn timer_reads_advance() {
    let mut m = small_machine();
    m.load_pe_program(
        0,
        halting(
            "
            MOVE.L  $00D00000.L,D0
            NOP
            NOP
            MOVE.L  $00D00000.L,D1
            HALT
        ",
        ),
    );
    m.start_pe(0, 0);
    m.run().unwrap();
    let t0 = m.pe_cpu(0).d[0];
    let t1 = m.pe_cpu(0).d[1];
    assert!(t1 > t0, "timer must advance: {t0} -> {t1}");
}

#[test]
fn deadlock_is_reported() {
    let mut m = small_machine();
    // Blocking receive with nobody sending.
    m.connect(0, 1).unwrap();
    m.load_pe_program(1, halting("MOVE.B $00E00002.L,D0\nHALT\n"));
    m.start_pe(1, 0);
    match m.run() {
        Err(RunError::Deadlock(s)) => assert!(s.contains("PE1"), "{s}"),
        other => panic!("expected deadlock, got {other:?}"),
    }
}

#[test]
fn cycle_limit_is_enforced() {
    let cfg = MachineConfig {
        max_cycles: 10_000,
        ..MachineConfig::small()
    };
    let mut m = Machine::new(cfg);
    m.load_pe_program(0, halting("t: BRA t\nHALT\n"));
    m.start_pe(0, 0);
    assert_eq!(m.run().unwrap_err(), RunError::CycleLimit(10_000));
}

#[test]
fn phase_marks_accumulate_on_pes() {
    let mut m = small_machine();
    m.load_pe_program(
        0,
        halting(
            "
            MARKB   #1
            MOVE.W  #9,D1
        t:  MULU    D1,D0
            DBRA    D1,t
            MARKE   #1
            HALT
        ",
        ),
    );
    m.start_pe(0, 0);
    let r = m.run().unwrap();
    assert!(r.pe[0].phase_cycles[1] > 100);
    assert_eq!(r.phase_max(1), r.pe[0].phase_cycles[1]);
    assert!(r.pe[0].mul_count == 10);
}

#[test]
fn group_mapping_is_mod_q() {
    let m = Machine::new(MachineConfig::prototype());
    assert_eq!(m.mc_of_pe(0), 0);
    assert_eq!(m.mc_of_pe(5), 1);
    assert_eq!(m.mc_of_pe(15), 3);
    assert_eq!(m.group_pes(0).collect::<Vec<_>>(), vec![0, 4, 8, 12]);
    assert_eq!(m.group_bit(12), 3);
}

#[test]
fn mask_disables_pes_for_selected_broadcasts() {
    // Broadcast one block to all PEs, then one only to PEs 0 and 2; disabled
    // PEs wait through the masked instructions and resume on the next
    // instruction that enables them (paper §3).
    let mut m = small_machine();
    let mut pe = ProgramBuilder::new();
    pe.emit(Instr::JmpSimd);
    pe.emit(Instr::Halt);
    let pe = pe.build().unwrap();
    let mut mc = ProgramBuilder::new();
    let all = mc.begin_block();
    mc.emit(Instr::Moveq {
        value: 1,
        dst: DataReg::D0,
    });
    mc.end_block();
    let some = mc.begin_block();
    mc.emit(Instr::Addq {
        size: Size::Word,
        value: 7,
        dst: Ea::D(DataReg::D0),
    });
    mc.end_block();
    let done = mc.begin_block();
    mc.emit(Instr::JmpMimd { target: 1 });
    mc.end_block();
    mc.emit(Instr::SetMask { mask: 0xFFFF });
    mc.emit(Instr::StartPes);
    mc.emit(Instr::Enqueue { block: all.0 });
    mc.emit(Instr::SetMask { mask: 0b0101 });
    mc.emit(Instr::Enqueue { block: some.0 });
    mc.emit(Instr::SetMask { mask: 0xFFFF });
    mc.emit(Instr::Enqueue { block: done.0 });
    mc.emit(Instr::Halt);
    let mc = mc.build().unwrap();
    for i in 0..4 {
        m.load_pe_program(i, pe.clone());
    }
    m.load_mc_program(0, mc);
    m.run().unwrap();
    for i in 0..4 {
        let expect = if i % 2 == 0 { 8 } else { 1 };
        assert_eq!(m.pe_cpu(i).d[0] & 0xFFFF, expect, "PE {i}");
    }
}

#[test]
fn fully_masked_entry_drains_without_effect() {
    let mut m = small_machine();
    let mut pe = ProgramBuilder::new();
    pe.emit(Instr::JmpSimd);
    pe.emit(Instr::Halt);
    let pe = pe.build().unwrap();
    let mut mc = ProgramBuilder::new();
    let nobody = mc.begin_block();
    mc.emit(Instr::Moveq {
        value: 99,
        dst: DataReg::D0,
    });
    mc.end_block();
    let done = mc.begin_block();
    mc.emit(Instr::JmpMimd { target: 1 });
    mc.end_block();
    mc.emit(Instr::StartPes);
    mc.emit(Instr::SetMask { mask: 0 });
    mc.emit(Instr::Enqueue { block: nobody.0 });
    mc.emit(Instr::SetMask { mask: 0xFFFF });
    mc.emit(Instr::Enqueue { block: done.0 });
    mc.emit(Instr::Halt);
    m.load_mc_program(0, mc.build().unwrap());
    for i in 0..4 {
        m.load_pe_program(i, pe.clone());
    }
    m.run().unwrap();
    for i in 0..4 {
        assert_eq!(
            m.pe_cpu(i).d[0],
            0,
            "PE {i} must never see the masked-out block"
        );
    }
}

#[test]
fn dead_pe_is_masked_out_of_simd_release() {
    // PE 2 is dead: it never starts, yet the SIMD broadcast to the survivors
    // must still release (the Fetch Unit masks the dead PE out of its barrier).
    let mut m = small_machine();
    m.apply_fault_plan(&FaultPlan::parse("dead:2").unwrap())
        .unwrap();
    let (pe, mc) = simd_pair(&[Instr::Moveq {
        value: 7,
        dst: DataReg::D0,
    }]);
    for i in 0..4 {
        m.load_pe_program(i, pe.clone());
    }
    m.load_mc_program(0, mc);
    let r = m.run().unwrap();
    for i in [0usize, 1, 3] {
        assert_eq!(m.pe_cpu(i).d[0] & 0xFFFF, 7, "surviving PE {i}");
    }
    assert_eq!(r.pe[2].instrs, 0, "dead PE must never execute");
    assert_eq!(m.pe_cpu(2).d[0], 0);
}

#[test]
fn dead_pe_is_masked_out_of_decoupled_retire() {
    let cfg = MachineConfig {
        release_mode: ReleaseMode::Decoupled,
        ..MachineConfig::small()
    };
    let mut m = Machine::new(cfg);
    m.apply_fault_plan(&FaultPlan::parse("dead:1").unwrap())
        .unwrap();
    let (pe, mc) = simd_pair(&[Instr::Moveq {
        value: 3,
        dst: DataReg::D0,
    }]);
    for i in 0..4 {
        m.load_pe_program(i, pe.clone());
    }
    m.load_mc_program(0, mc);
    m.run().unwrap();
    for i in [0usize, 2, 3] {
        assert_eq!(m.pe_cpu(i).d[0] & 0xFFFF, 3, "surviving PE {i}");
    }
}

#[test]
fn slow_pe_pays_extra_waits_into_fault_detour() {
    let body = "
        MOVE.W  #49,D1
    t:  MOVE.W  D0,$1000.L
        ADD.W   $1000.L,D0
        DBRA    D1,t
        HALT
    ";
    let healthy = {
        let mut m = small_machine();
        m.load_pe_program(0, halting(body));
        m.start_pe(0, 0);
        m.run().unwrap()
    };
    let mut m = small_machine();
    m.apply_fault_plan(&FaultPlan::parse("slow:0:5").unwrap())
        .unwrap();
    m.load_pe_program(0, halting(body));
    m.start_pe(0, 0);
    let r = m.run().unwrap();
    let detour = r.accounts.as_ref().unwrap().pe[0].bucket(Bucket::FaultDetour);
    // 5 extra waits × 2 operand accesses × 50 iterations.
    assert_eq!(detour, 500);
    // Exact makespan delta differs from `detour` only by DRAM refresh
    // realignment, so assert the direction, not the exact figure.
    assert!(r.makespan > healthy.makespan);
    assert_eq!(m.pe_cpu(0).d[0], {
        // Timing changes must not change results.
        let mut hm = small_machine();
        hm.load_pe_program(0, halting(body));
        hm.start_pe(0, 0);
        hm.run().unwrap();
        hm.pe_cpu(0).d[0]
    });
}

#[test]
fn stuck_tx_port_deadlocks_cleanly() {
    let mut m = small_machine();
    m.apply_fault_plan(&FaultPlan::parse("stuck:0").unwrap())
        .unwrap();
    m.connect(0, 1).unwrap();
    m.load_pe_program(0, halting("MOVE.B #$5A,$00E00000.L\nHALT\n"));
    m.load_pe_program(1, halting("MOVE.B $00E00002.L,D0\nHALT\n"));
    m.start_pe(0, 0);
    m.start_pe(1, 0);
    match m.run() {
        Err(RunError::Deadlock(s)) => {
            assert!(s.contains("PE0"), "{s}");
        }
        other => panic!("expected deadlock, got {other:?}"),
    }
}

#[test]
fn interior_net_fault_detours_but_delivers() {
    // Degraded routing (both cube₀ stages enabled) still delivers the byte,
    // one stage later, with the detour charged to the sender's fault bucket.
    let transfer = |plan: &str| {
        let mut m = small_machine();
        m.apply_fault_plan(&FaultPlan::parse(plan).unwrap())
            .unwrap();
        m.connect(0, 1).unwrap();
        m.load_pe_program(0, halting("MOVE.B #$5A,$00E00000.L\nHALT\n"));
        m.load_pe_program(
            1,
            halting(
                "
            poll: MOVE.B  $00E00004.L,D1
                AND.W   #2,D1
                BEQ     poll
                MOVE.B  $00E00002.L,D0
                HALT
            ",
            ),
        );
        m.start_pe(0, 0);
        m.start_pe(1, 0);
        let r = m.run().unwrap();
        assert_eq!(m.pe_cpu(1).d[0] & 0xFF, 0x5A);
        r
    };
    let healthy = transfer("");
    let faulted = transfer("box:1:0");
    let detour = faulted.accounts.as_ref().unwrap().pe[0].bucket(Bucket::FaultDetour);
    assert_eq!(
        detour,
        MachineConfig::small().net_stage_cycles,
        "one word × one extra stage"
    );
    assert_eq!(
        healthy.accounts.as_ref().unwrap().pe[0].bucket(Bucket::FaultDetour),
        0
    );
    assert!(faulted.pe[0].finished_at > healthy.pe[0].finished_at);
}

#[test]
fn interrupt_flag_stops_the_run() {
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;
    let mut m = small_machine();
    let flag = Arc::new(AtomicBool::new(true));
    m.set_interrupt(flag);
    m.load_pe_program(0, halting("t: BRA t\nHALT\n"));
    m.start_pe(0, 0);
    assert_eq!(m.run().unwrap_err(), RunError::Interrupted);
}

/// The scheduler's pick order on a tie (docs/TIMING.md, "Horizon and
/// ties"): PEs by index, then MCs by index, then Fetch Unit controllers by
/// index — a PE wins even against an MC of lower index.
#[test]
fn scheduler_tie_order_is_pes_then_mcs_then_controllers() {
    let mut m = Machine::new(MachineConfig::prototype());
    let cpw = m.cfg.fuc_cycles_per_word;
    m.set_pe(2, PeState::Ready, 101);
    m.set_pe(9, PeState::Ready, 100);
    m.set_pe(5, PeState::Ready, 100);
    m.set_mc(2, McState::Ready, 100);
    m.set_mc(0, McState::Ready, 100);
    m.fus[3].command_block(0, &[Instr::Nop], 100 - cpw);
    m.fus[1].command_block(0, &[Instr::Nop], 100 - cpw);
    let mut picks = Vec::new();
    while let Some((c, t)) = m.next_runnable() {
        assert!(m.due_in_step());
        picks.push(match c {
            Component::Pe(i) => {
                m.set_pe(i, PeState::Halted, t);
                format!("PE{i}@{t}")
            }
            Component::Mc(i) => {
                m.set_mc(i, McState::Halted, t);
                format!("MC{i}@{t}")
            }
            Component::Fuc(i) => {
                m.fus[i].do_move(t);
                format!("FUC{i}@{t}")
            }
        });
    }
    assert_eq!(
        picks,
        ["PE5@100", "PE9@100", "MC0@100", "MC2@100", "FUC1@100", "FUC3@100", "PE2@101"]
    );
}

#[test]
fn queue_empty_stall_counted_when_mc_is_slow() {
    // MC dawdles between broadcasts => PEs wait on an empty queue.
    let mut m = small_machine();
    let mut pe = ProgramBuilder::new();
    pe.emit(Instr::JmpSimd);
    pe.emit(Instr::Halt);
    let pe = pe.build().unwrap();
    let mut mc = ProgramBuilder::new();
    let b0 = mc.begin_block();
    mc.emit(Instr::Nop);
    mc.end_block();
    let b1 = mc.begin_block();
    mc.emit(Instr::JmpMimd { target: 1 });
    mc.end_block();
    mc.emit(Instr::SetMask { mask: 0xFFFF });
    mc.emit(Instr::StartPes);
    mc.emit(Instr::Enqueue { block: b0.0 });
    // Busy-wait on the MC before the next broadcast.
    mc.emit(Instr::Move {
        size: Size::Word,
        src: Ea::Imm(200),
        dst: Ea::D(DataReg::D1),
    });
    let l = mc.here("spin");
    mc.emit(Instr::Nop);
    mc.branch(
        Instr::Dbra {
            dst: DataReg::D1,
            target: 0,
        },
        l,
    );
    mc.emit(Instr::Enqueue { block: b1.0 });
    mc.emit(Instr::Halt);
    let mc = mc.build().unwrap();
    for i in 0..4 {
        m.load_pe_program(i, pe.clone());
    }
    m.load_mc_program(0, mc);
    let r = m.run().unwrap();
    assert!(
        r.fu[0].empty_stall_cycles > 1000,
        "empty stall {}",
        r.fu[0].empty_stall_cycles
    );
}

/// xorshift64* — enough randomness for the differential test below without
/// a dependency.
struct TestRng(u64);

impl TestRng {
    fn below(&mut self, n: u64) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        (self.0.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 33) % n
    }
}

/// One random SIMD broadcast instruction: variable-time multiplies,
/// main-memory operands, zero-cycle phase marks (whole-group blocks only,
/// so every PE sees both ends) and memory-mapped timer reads, which the
/// group step must leave to the per-instruction path.
fn random_broadcast(rng: &mut TestRng, out: &mut Vec<Instr>, marks: bool) {
    use pasm_isa::AddrReg::A0;
    use DataReg::*;
    match rng.below(7) {
        0 | 1 => out.push(Instr::Mulu {
            src: Ea::D(D2),
            dst: D0,
        }),
        2 => out.push(Instr::Addq {
            size: Size::Word,
            value: 1 + rng.below(8) as u8,
            dst: Ea::D(D0),
        }),
        3 => out.push(Instr::Move {
            size: Size::Word,
            src: Ea::D(D0),
            dst: Ea::PostInc(A0),
        }),
        4 => out.push(Instr::Move {
            size: Size::Word,
            src: Ea::Disp(-2, A0),
            dst: Ea::D(D3),
        }),
        5 => out.push(Instr::Move {
            size: Size::Word,
            src: Ea::AbsL(map::TIMER),
            dst: Ea::D(D4),
        }),
        _ if marks => {
            let phase = 1 + rng.below(3) as u8;
            out.push(Instr::Mark { begin: true, phase });
            out.push(Instr::Mulu {
                src: Ea::D(D2),
                dst: D1,
            });
            out.push(Instr::Mark {
                begin: false,
                phase,
            });
        }
        _ => out.push(Instr::Nop),
    }
}

/// A random SIMD job on one MC's group: PEs spin a per-PE MIMD prologue
/// (so they enter SIMD mode at different times), then run broadcast blocks
/// under random masks — the whole group, subsets, disjoint subsets, and the
/// empty mask that drains — while the MC computes between enqueue commands.
fn random_simd_job(m: &mut Machine, rng: &mut TestRng, mc: usize, live: u16) {
    use DataReg::*;
    let mut pe = ProgramBuilder::new();
    pe.emit(Instr::Dbra { dst: D5, target: 0 });
    pe.emit(Instr::JmpSimd);
    pe.emit(Instr::Halt);
    let pe = pe.build().unwrap();

    let mut prog = ProgramBuilder::new();
    let mut blocks = Vec::new();
    for _ in 0..1 + rng.below(24) {
        let mask = match rng.below(5) {
            0 => 0,
            1 | 2 => live,
            _ => rng.below(1 << 4) as u16 & live,
        };
        let mut body = Vec::new();
        for _ in 0..1 + rng.below(6) {
            random_broadcast(rng, &mut body, mask == live);
        }
        let id = prog.begin_block();
        prog.emit_all(body);
        prog.end_block();
        blocks.push((id, mask, rng.below(4) == 0));
        // A mask split: one broadcast for the block's first PE, then one for
        // the rest, so a PE that has run the block's last word can release
        // the next entry while the group's later PEs have not.
        if rng.below(3) == 0 && mask.count_ones() > 1 {
            let first = mask & mask.wrapping_neg();
            for part in [first, mask & !first] {
                let mut body = Vec::new();
                random_broadcast(rng, &mut body, false);
                let id = prog.begin_block();
                prog.emit_all(body);
                prog.end_block();
                blocks.push((id, part, false));
            }
        }
    }
    let done = prog.begin_block();
    prog.emit(Instr::JmpMimd { target: 2 });
    prog.end_block();
    prog.emit(Instr::StartPes);
    for (k, (id, mask, spin)) in blocks.into_iter().enumerate() {
        prog.emit(Instr::SetMask { mask });
        prog.emit(Instr::Enqueue { block: id.0 });
        if spin {
            prog.emit(Instr::Moveq {
                value: rng.below(40) as i8,
                dst: D1,
            });
            let l = prog.here(format!("spin{k}"));
            prog.emit(Instr::Nop);
            prog.branch(Instr::Dbra { dst: D1, target: 0 }, l);
        }
    }
    prog.emit(Instr::SetMask { mask: live });
    prog.emit(Instr::Enqueue { block: done.0 });
    prog.emit(Instr::Halt);
    m.load_mc_program(mc, prog.build().unwrap());

    for p in m.group_pes(mc).collect::<Vec<_>>() {
        if live & (1 << m.group_bit(p)) == 0 {
            continue;
        }
        m.load_pe_program(p, pe.clone());
        let cpu = m.pe_cpu_mut(p);
        cpu.d[2] = rng.below(1 << 16) as u32;
        cpu.d[5] = rng.below(30) as u32;
        cpu.a[0] = 0x100 + 2 * rng.below(64) as u32;
    }
}

/// Seeded differential test of the SIMD group step against the
/// per-instruction interpreter, on random programs and machine shapes the
/// registered kernels never produce: several heads released in one pass,
/// drained entries, heads a PE releases while later PEs of its group have
/// not run the current one, zero-cycle instructions with zero release
/// overhead (so a new release ties the current one), instant controller
/// moves, 4-word queues, PEs left out of the group, dead PEs, two MCs. The
/// complete run state must match.
#[test]
fn random_simd_programs_match_the_interpreter() {
    check_random_simd_programs(1..=2000);
}

/// [`random_simd_programs_match_the_interpreter`] over 20 000 seeds, for a
/// release build (`ci.sh` runs it): the group step's skipped release and
/// controller checks are exact only as far as this generator reaches.
#[test]
#[ignore]
fn random_simd_programs_match_the_interpreter_20k_seeds() {
    check_random_simd_programs(1..=20_000);
}

fn check_random_simd_programs(seeds: std::ops::RangeInclusive<u64>) {
    for seed in seeds {
        let run = |fast: bool| {
            let mut rng = TestRng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1);
            let n_mcs = 1 + rng.below(2) as usize;
            let cfg = MachineConfig {
                n_mcs,
                queue_capacity_words: [4, 5, 16, 512][rng.below(4) as usize],
                fuc_cycles_per_word: rng.below(4),
                fuc_command_cycles: rng.below(6),
                simd_release_cycles: [0, 0, 3][rng.below(3) as usize],
                max_cycles: 5_000_000,
                ..MachineConfig::small()
            };
            let mut m = Machine::new(cfg);
            m.set_fast_path(fast);
            if rng.below(4) == 0 {
                let dead = rng.below(4) as usize;
                m.apply_fault_plan(&FaultPlan::pe_single(dead, PeFault::Dead))
                    .unwrap();
            }
            let group = 4 / n_mcs;
            for mc in 0..n_mcs {
                let mut live = 0u16;
                for j in 0..group {
                    let p = j * n_mcs + mc;
                    if rng.below(5) != 0 && !m.is_dead(p) {
                        live |= 1 << j;
                    }
                }
                if live == 0 {
                    continue;
                }
                random_simd_job(&mut m, &mut rng, mc, live);
            }
            let result = m.run();
            let cpus: Vec<String> = (0..4).map(|p| format!("{:?}", m.pe_cpu(p))).collect();
            (result, cpus)
        };
        let (fast, interp) = (run(true), run(false));
        assert!(
            fast == interp,
            "seed {seed}: group step diverged from the interpreter\nfast:   {fast:?}\ninterp: {interp:?}"
        );
    }
}
