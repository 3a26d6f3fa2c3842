//! Criterion benchmarks of the Fetch-Unit release path under both release
//! rules, and of the queue machinery at different capacities. (The *measured
//! machine time* ablations — A1/A2/A3 of DESIGN.md — are the `ablations`
//! binary; these benches track the host cost of the mechanisms.)

use bench::micro::{BenchmarkId, Criterion};
use bench::{criterion_group, criterion_main};
use pasm::kernels::matmul::Matmul;
use pasm::{run_kernel_opts, Kernel, Mode, Params, RunOptions};
use pasm_machine::{MachineConfig, ReleaseMode};

fn bench_release_modes(c: &mut Criterion) {
    let n = 16;
    let input = Matmul.generate(n, 1);
    let mut g = c.benchmark_group("simd_release_rule");
    for (name, mode) in [
        ("lockstep", ReleaseMode::Lockstep),
        ("decoupled", ReleaseMode::Decoupled),
    ] {
        let cfg = MachineConfig {
            release_mode: mode,
            ..MachineConfig::prototype()
        };
        g.bench_function(BenchmarkId::from_parameter(name), |bch| {
            bch.iter(|| {
                let opts = RunOptions::default();
                run_kernel_opts(&cfg, &Matmul, Mode::Simd, Params::new(n, 4), &input, &opts)
                    .unwrap()
                    .cycles
            })
        });
    }
    g.finish();
}

fn bench_queue_capacity(c: &mut Criterion) {
    let n = 16;
    let input = Matmul.generate(n, 1);
    let mut g = c.benchmark_group("queue_capacity");
    for cap in [8u32, 64, 512] {
        let cfg = MachineConfig {
            queue_capacity_words: cap,
            ..MachineConfig::prototype()
        };
        g.bench_function(BenchmarkId::from_parameter(cap), |bch| {
            bch.iter(|| {
                let opts = RunOptions::default();
                run_kernel_opts(&cfg, &Matmul, Mode::Simd, Params::new(n, 4), &input, &opts)
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
    targets = bench_release_modes, bench_queue_capacity
}
criterion_main!(benches);
