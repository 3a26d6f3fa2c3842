//! Criterion benchmarks of end-to-end experiment runs (host cost per
//! simulated run, by mode) — the unit of work of every figure sweep.

use bench::micro::{BenchmarkId, Criterion};
use bench::{criterion_group, criterion_main};
use pasm::kernels::{matmul::Matmul, reduce::Reduce, Kernel};
use pasm::{run_kernel_opts, Mode, Params, RunOptions};
use pasm_machine::MachineConfig;

fn bench_modes(c: &mut Criterion) {
    let cfg = MachineConfig::prototype();
    let n = 16;
    let input = Matmul.generate(n, 1);
    let mut g = c.benchmark_group("run_matmul_n16_p4");
    for mode in Mode::ALL {
        let p = if mode == Mode::Serial { 1 } else { 4 };
        g.bench_function(BenchmarkId::from_parameter(mode), |bch| {
            bch.iter(|| {
                let opts = RunOptions::default();
                run_kernel_opts(&cfg, &Matmul, mode, Params::new(n, p), &input, &opts)
                    .unwrap()
                    .cycles
            })
        });
    }
    g.finish();
}

fn bench_reduction(c: &mut Criterion) {
    let cfg = MachineConfig::prototype();
    let input: Vec<u16> = (0..4).flat_map(|i| [i as u16; 64]).collect();
    let mut g = c.benchmark_group("run_reduction_k64_p4");
    for mode in [Mode::Simd, Mode::Mimd, Mode::Smimd] {
        g.bench_function(BenchmarkId::from_parameter(mode), |bch| {
            bch.iter(|| {
                let opts = RunOptions::default();
                run_kernel_opts(&cfg, &Reduce, mode, Params::new(256, 4), &input, &opts)
                    .unwrap()
                    .cycles
            })
        });
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(15);
    targets = bench_modes, bench_reduction
}
criterion_main!(benches);
