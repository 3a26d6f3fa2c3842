//! PASM = *Partitionable* SIMD/MIMD: carve the 16-PE prototype into
//! independent virtual machines and run different kernels — in different
//! parallelism modes — at the same time.
//!
//! ```sh
//! cargo run --release --example partitioning
//! ```

use pasm::kernels::matmul::{input_words, Matmul};
use pasm::kernels::reduce::Reduce;
use pasm::{run_kernel_opts, run_placements, Kernel, Mode, Params, Placement, RunOptions};
use pasm_machine::MachineConfig;
use pasm_prog::Matrix;

fn main() {
    let cfg = MachineConfig::prototype();

    // Three-way partition: an 8-PE SIMD matmul, a 4-PE S/MIMD matmul of two
    // random matrices, and a 4-PE MIMD global sum, each on its own MC
    // group(s).
    let placements = [
        Placement {
            kernel: &Matmul,
            mode: Mode::Simd,
            params: Params::new(32, 8),
            mcs: Some(vec![0, 1]),
            input: Matmul.generate(32, 1),
        },
        Placement {
            kernel: &Matmul,
            mode: Mode::Smimd,
            params: Params::new(16, 4),
            mcs: Some(vec![2]),
            input: input_words(&Matrix::uniform(16, 2), &Matrix::uniform(16, 3)),
        },
        Placement {
            kernel: &Reduce,
            mode: Mode::Mimd,
            params: Params::new(256, 4),
            mcs: Some(vec![3]),
            input: Reduce.generate(256, 4),
        },
    ];

    println!(
        "running {} jobs simultaneously on one 16-PE prototype:\n",
        placements.len()
    );
    let outcomes =
        run_placements(&cfg, &placements, &RunOptions::default()).expect("partitioned run");

    for (pl, out) in placements.iter().zip(&outcomes) {
        let correct = out.verify(&pl.input).is_ok();
        println!(
            "  {:<7} {:<7} n={:<3} p={:<2} on MCs {:?}: {:>9.2} ms  result {}",
            pl.kernel.name(),
            pl.mode.to_string(),
            pl.params.n,
            pl.params.p,
            pl.mcs.as_deref().unwrap_or_default(),
            out.millis(),
            if correct { "VERIFIED" } else { "WRONG" }
        );
        assert!(correct);
    }

    // Timing isolation: the S/MIMD job takes exactly as long as it would alone.
    let solo = run_kernel_opts(
        &cfg,
        &Matmul,
        Mode::Smimd,
        Params::new(16, 4),
        &placements[1].input,
        &RunOptions::default(),
    )
    .expect("solo run");
    println!(
        "\ntiming isolation: S/MIMD job solo {} cycles, partitioned {} cycles ({})",
        solo.cycles,
        outcomes[1].cycles,
        if solo.cycles == outcomes[1].cycles {
            "identical"
        } else {
            "DIFFERENT!"
        }
    );
    assert_eq!(solo.cycles, outcomes[1].cycles);
}
