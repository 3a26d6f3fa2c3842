//! Criterion benchmarks of the simulator itself (host-side performance):
//! instruction-interpretation throughput in each machine mode, and the
//! assembler. These guard the simulator's usability for the large paper-scale
//! sweeps (n = 256 runs execute hundreds of millions of instructions).

use bench::micro::{BenchmarkId, Criterion, Throughput};
use bench::{criterion_group, criterion_main};
use pasm_machine::{Machine, MachineConfig};
use pasm_prog::codegen::simd_bootstrap;
use pasm_prog::microbench::{self, MipsKind};

fn bench_interpreter(c: &mut Criterion) {
    let mut g = c.benchmark_group("interpreter");
    const UNROLL: usize = 64;
    const REPS: usize = 500;
    g.throughput(Throughput::Elements((UNROLL * REPS) as u64));

    g.bench_function(BenchmarkId::new("mimd", "add_reg"), |b| {
        let prog = microbench::mimd_program(MipsKind::AddRegister, UNROLL, REPS);
        b.iter(|| {
            let mut m = Machine::new(MachineConfig::small());
            m.load_pe_program(0, prog.clone());
            m.start_pe(0, 0);
            m.run().unwrap().makespan
        })
    });

    g.bench_function(BenchmarkId::new("mimd", "move_mem"), |b| {
        let prog = microbench::mimd_program(MipsKind::MoveMemory, UNROLL, REPS);
        b.iter(|| {
            let mut m = Machine::new(MachineConfig::small());
            m.load_pe_program(0, prog.clone());
            m.start_pe(0, 0);
            m.run().unwrap().makespan
        })
    });

    g.bench_function(BenchmarkId::new("simd_broadcast", "add_reg"), |b| {
        let pe = simd_bootstrap();
        let mc = microbench::simd_mc_program(MipsKind::AddRegister, UNROLL, REPS, 0xF);
        b.iter(|| {
            let mut m = Machine::new(MachineConfig::small());
            for i in 0..4 {
                m.load_pe_program(i, pe.clone());
            }
            m.load_mc_program(0, mc.clone());
            m.run().unwrap().makespan
        })
    });
    g.finish();
}

fn bench_assembler(c: &mut Criterion) {
    let src = "
        start:  MOVEQ   #0,D0
                MOVE.W  #99,D1
        loop:   MOVE.W  (A0)+,D2
                MULU    D2,D0
                ADD.W   D0,(A1)+
                CMPI.W  #5,D2
                BNE     skip
                ADDQ.W  #1,D3
        skip:   DBRA    D1,loop
                HALT
    ";
    c.bench_function("assembler/small_program", |b| {
        b.iter(|| pasm_isa::asm::assemble(src).unwrap().instrs.len())
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_interpreter, bench_assembler
}
criterion_main!(benches);
