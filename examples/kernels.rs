//! Tour the kernel registry: run every registered workload in all three
//! parallel modes on the 16-PE prototype and print where each one lands on
//! the SIMD ↔ MIMD spectrum, verified against the scalar host reference.
//!
//! ```sh
//! cargo run --release --example kernels [n] [p]
//! ```
//!
//! (`n` is scaled per kernel when the given value does not satisfy the
//! kernel's shape constraints — bitonic needs power-of-two blocks, smoothing
//! a multiple of the partition size.)

use pasm::{run_kernel_opts, MachineConfig, Mode, Params, RunOptions};

fn main() {
    let n: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(64);
    let p: usize = std::env::args()
        .nth(2)
        .and_then(|s| s.parse().ok())
        .unwrap_or(4);
    let cfg = MachineConfig::prototype();
    let seed = pasm::figures::DEFAULT_SEED;

    println!(
        "kernel registry on the {}-PE prototype, p={p}:\n",
        cfg.n_pes
    );
    println!(
        "{:<10} {:<42} {:>10} {:>10} {:>10}  winner",
        "kernel", "description", "SIMD", "MIMD", "S/MIMD"
    );
    for kernel in pasm::kernels::kernels().iter().copied() {
        // Walk n down until the kernel's shape constraints accept it.
        let mut kn = n;
        while kn >= p * 2 && kernel.validate(kn, p).is_err() {
            kn /= 2;
        }
        if kernel.validate(kn, p).is_err() {
            println!("{:<10} skipped: no valid n near {n}", kernel.name());
            continue;
        }
        let input = kernel.generate(kn, seed);
        let mut cycles = Vec::new();
        for mode in [Mode::Simd, Mode::Mimd, Mode::Smimd] {
            let params = Params::new(kn, p);
            let out = run_kernel_opts(&cfg, kernel, mode, params, &input, &RunOptions::default())
                .unwrap_or_else(|e| panic!("{} {mode}: {e}", kernel.name()));
            out.verify(&input)
                .unwrap_or_else(|e| panic!("{} {mode}: {e}", kernel.name()));
            cycles.push(out.cycles);
        }
        let winner = match cycles
            .iter()
            .enumerate()
            .min_by_key(|(_, c)| **c)
            .map(|(i, _)| i)
        {
            Some(0) => "SIMD",
            Some(1) => "MIMD",
            _ => "S/MIMD",
        };
        println!(
            "{:<10} {:<42} {:>10} {:>10} {:>10}  {winner} (n={kn})",
            kernel.name(),
            kernel.description(),
            cycles[0],
            cycles[1],
            cycles[2],
        );
    }
    println!(
        "\nFixed-time stencils broadcast well (SIMD); data-dependent comparators\n\
         want private control flow (MIMD); S/MIMD buys back synchronization\n\
         only at the phase boundaries. See docs/KERNELS.md."
    );
}
