//! The Extra-Stage Cube's reason for existing: tolerate any single interchange
//! box fault. This example breaks boxes in each kind of stage, applies the ESC
//! reconfiguration rules, and shows the network still routes every pair — then
//! runs a full matrix multiplication over a degraded network and reports the
//! measured price of the fault (see `docs/FAULTS.md`).
//!
//! ```sh
//! cargo run --release --example fault_tolerance
//! ```

use pasm::kernels::matmul::{input_words, Matmul};
use pasm::{ExperimentKey, FaultPlan, Kernel, Machine, MachineConfig, Mode, Params};
use pasm_net::EscNetwork;
use pasm_prog::matmul::select_vm;
use pasm_prog::Matrix;

fn demonstrate(stage: u32, box_idx: usize, label: &str) {
    let mut net = EscNetwork::new(16);
    net.set_fault(stage, box_idx, true);
    net.reconfigure_for_faults();
    let mut ok = 0;
    for s in 0..16 {
        for d in 0..16 {
            if let Ok(id) = net.establish(s, d) {
                ok += 1;
                net.release(id).unwrap();
            }
        }
    }
    println!(
        "{label}: fault at (stage {stage}, box {box_idx}) -> extra stage {}, output stage {}; {ok}/256 pairs routable",
        if net.extra_enabled() { "ENABLED" } else { "bypassed" },
        if net.output_enabled() { "enabled" } else { "BYPASSED" },
    );
}

fn main() {
    println!("Extra-Stage Cube single-fault tolerance (N=16: 5 stages x 8 boxes)\n");
    demonstrate(0, 2, "extra-stage fault   ");
    demonstrate(2, 5, "interior-stage fault");
    demonstrate(4, 1, "output-stage fault  ");

    // Full application run over a network with an interior fault.
    println!("\nRunning S/MIMD matrix multiplication (n=16, p=4) over the degraded network...");
    let cfg = MachineConfig::prototype();
    let mut machine = Machine::new(cfg.clone());
    machine.network_mut().set_fault(2, 5, true);
    machine.network_mut().reconfigure_for_faults();

    let params = Params::new(16, 4);
    let a = Matrix::uniform(16, 1);
    let b = Matrix::uniform(16, 2);
    let vm = select_vm(&cfg, 4);
    Matmul
        .load(&mut machine, Mode::Smimd, params, &vm, &input_words(&a, &b))
        .expect("ring routed around the fault");
    let run = machine.run().expect("run");
    let correct = Matmul.read_output(&machine, Mode::Smimd, params, &vm) == a.multiply(&b).words();
    println!(
        "completed in {:.2} ms of machine time; result {} against the host reference.",
        pasm_isa::cycles_to_ms(run.makespan),
        if correct { "VERIFIED" } else { "WRONG" }
    );
    assert!(correct);

    // The same experiment through the keyed runner: a `FaultPlan` in the key
    // makes `run_keyed` also run the fault-free twin and report the price.
    println!("\nMeasured cost of the fault (keyed runner, `fault` in the key):");
    let key = ExperimentKey {
        config: cfg,
        mode: Mode::Smimd,
        params,
        seed: 1988,
        fault: FaultPlan::parse("box:2:5").unwrap(),
        workload: pasm::MATMUL,
    };
    let result = pasm::run_keyed(&key).expect("faulted keyed run");
    println!(
        "fault {}: {} cycles vs {} fault-free -> slowdown {:.4}, {} cycles in the fault_detour bucket",
        result.fault,
        result.cycles,
        result.baseline_cycles,
        result.slowdown,
        result.pe_buckets[pasm_machine::Bucket::FaultDetour as usize],
    );
    assert!(result.slowdown >= 1.0);
}
