//! Cross-crate network tests: the Extra-Stage Cube under the full machine —
//! fault injection, reconfiguration, and end-to-end correctness on a degraded
//! network.

use pasm::kernels::matmul::{input_words, Matmul};
use pasm::{Kernel, Machine, MachineConfig, Mode};
use pasm_prog::matmul::select_vm;
use pasm_prog::Matrix;

#[test]
fn matmul_survives_an_interior_stage_fault() {
    // Break a box in an interior stage, reconfigure per the ESC rules, and run
    // the full S/MIMD matrix multiplication over the degraded network.
    let cfg = MachineConfig::prototype();
    let params = pasm::Params::new(16, 4);
    let a = Matrix::uniform(16, 21);
    let b = Matrix::uniform(16, 22);

    let mut machine = Machine::new(cfg.clone());
    machine.network_mut().set_fault(2, 1, true);
    machine.network_mut().reconfigure_for_faults();
    assert!(machine.network_mut().extra_enabled());

    let vm = select_vm(&cfg, 4);
    Matmul
        .load(&mut machine, Mode::Smimd, params, &vm, &input_words(&a, &b))
        .expect("ring must route around the fault");
    machine.run().expect("run on degraded network");
    assert_eq!(
        Matmul.read_output(&machine, Mode::Smimd, params, &vm),
        a.multiply(&b).words()
    );
}

#[test]
fn output_stage_fault_forces_extra_stage_and_still_works() {
    let cfg = MachineConfig::prototype();
    let mut machine = Machine::new(cfg);
    machine.network_mut().set_fault(4, 3, true);
    machine.network_mut().reconfigure_for_faults();
    assert!(machine.network_mut().extra_enabled());
    assert!(!machine.network_mut().output_enabled());
    // All ring patterns of the experiments must still establish.
    for p in [4usize, 8, 16] {
        let vm = select_vm(machine.config(), p);
        machine
            .connect_ring(&vm.pes)
            .unwrap_or_else(|e| panic!("ring p={p}: {e}"));
        machine.network_mut().release_all();
    }
}

#[test]
fn ring_circuits_coexist_for_every_experiment_size() {
    let cfg = MachineConfig::prototype();
    for p in [2usize, 4, 8, 16] {
        let mut machine = Machine::new(cfg.clone());
        let vm = select_vm(&cfg, p);
        machine
            .connect_ring(&vm.pes)
            .unwrap_or_else(|e| panic!("ring p={p}: {e}"));
    }
}

#[test]
fn bytes_flow_in_ring_order() {
    // Each PE sends its own id left around the ring; every PE must receive the
    // id of its right neighbour.
    use pasm_isa::asm::assemble;
    let cfg = MachineConfig::prototype();
    let mut machine = Machine::new(cfg.clone());
    let vm = select_vm(&cfg, 4);
    machine.connect_ring(&vm.pes).unwrap();
    for (l, &pe) in vm.pes.iter().enumerate() {
        let src = format!(
            "
            MOVE.B  #{l},$00E00000.L     ; send my logical id
        poll: MOVE.B $00E00004.L,D6
            AND.W   #2,D6
            BEQ     poll
            MOVE.B  $00E00002.L,D0       ; receive
            HALT
            "
        );
        machine.load_pe_program(pe, assemble(&src).unwrap());
        machine.start_pe(pe, 0);
    }
    machine.run().unwrap();
    for (l, &pe) in vm.pes.iter().enumerate() {
        let expect = ((l + 1) % 4) as u32;
        assert_eq!(machine.pe_cpu(pe).d[0] & 0xFF, expect, "logical PE {l}");
    }
}

#[test]
fn network_stats_count_transfers() {
    // One full matmul at n=16, p=4 moves n words per rotation step per PE:
    // n rotations × n elements × 2 bytes = 512 bytes per PE.
    let cfg = MachineConfig::prototype();
    let matmul = pasm::kernels::find(pasm::MATMUL).unwrap();
    let input = matmul.generate(16, 5);
    let params = pasm::Params::new(16, 4);
    let opts = pasm::RunOptions::default();
    let out = pasm::run_kernel_opts(&cfg, matmul, pasm::Mode::Mimd, params, &input, &opts).unwrap();
    for t in out.run.pe.iter().filter(|t| t.instrs > 0) {
        assert_eq!(t.net_bytes_sent, 16 * 16 * 2);
    }
}
