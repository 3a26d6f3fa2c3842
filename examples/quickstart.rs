//! Quickstart: multiply two matrices on the simulated PASM prototype in all
//! four of the paper's modes and compare their timing.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use pasm::kernels::matmul::Matmul;
use pasm::{run_kernel_opts, Breakdown, Kernel, Mode, Params, RunOptions};
use pasm_machine::MachineConfig;

fn main() {
    // The 16-PE / 4-MC prototype with the calibrated memory timings.
    let cfg = MachineConfig::prototype();

    // The paper's workload: identity in A (the multiplicand value does not
    // affect MULU timing), seeded uniform-random 16-bit data in B.
    let n = 64;
    let input = Matmul.generate(n, 1988);
    let run = |mode, p| {
        let out = run_kernel_opts(
            &cfg,
            &Matmul,
            mode,
            Params::new(n, p),
            &input,
            &RunOptions::default(),
        )
        .unwrap();
        out.verify(&input).unwrap();
        out
    };

    println!("matrix multiplication, n={n}, p=4, one multiply per inner loop\n");
    println!("mode     time(ms)   multiply   comm     other    PE instrs");

    let serial = run(Mode::Serial, 1);
    for mode in Mode::ALL {
        let p = if mode == Mode::Serial { 1 } else { 4 };
        let out = run(mode, p);
        let br = Breakdown::of(&out);
        println!(
            "{:<8} {:>8.2} {:>9.2} {:>8.2} {:>8.2} {:>11}",
            mode.to_string(),
            out.millis(),
            pasm_isa::cycles_to_ms(br.multiply),
            pasm_isa::cycles_to_ms(br.communication),
            pasm_isa::cycles_to_ms(br.other),
            out.run.pe_instrs(),
        );
        if mode != Mode::Serial {
            println!(
                "         speed-up {:.2}, efficiency {:.3}{}",
                pasm::speedup(serial.cycles, out.cycles),
                pasm::efficiency(serial.cycles, out.cycles, p),
                if pasm::efficiency(serial.cycles, out.cycles, p) > 1.0 {
                    "  <- superlinear (control flow hidden on the MCs)"
                } else {
                    ""
                }
            );
        }
    }
    println!("\nEvery run's product was verified against a host-side reference multiply.");
}
