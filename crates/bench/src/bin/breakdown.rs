//! Regenerates the paper's **SIMD-vs-MIMD multiply analysis** from the
//! cycle-accounting buckets: in SIMD the Fetch Unit releases every broadcast
//! instruction in lockstep, so each data-dependent multiply costs the
//! **maximum** variance over the PEs (the equalization shows up as
//! `barrier_wait` on the faster PEs), while in MIMD every PE pays only the
//! **sum of its own** variances and the MAC-loop durations drift apart.
//!
//! Prints a per-PE bucket table for each mode and checks the paper's
//! qualitative claims, exiting nonzero on violation (so the `ci.sh`
//! smoke-run is a real regression gate):
//!
//! 1. per-PE buckets sum exactly to the PE's busy window
//!    (`started_at + Σ buckets == finished_at`),
//! 2. `barrier_wait` is zero in Serial and MIMD (polling synchronization
//!    burns `compute`, not barrier time) and nonzero in SIMD and S/MIMD,
//! 3. SIMD MAC-loop spans are identical across the PEs of each Fetch-Unit
//!    group (lockstep max), MIMD MAC-loop spans are not (each PE's own
//!    timing).

use pasm::kernels::matmul::Matmul;
use pasm::{run_kernel_opts, Kernel, MachineConfig, Mode, Params, RunOptions};
use pasm_machine::{Bucket, MachineAccounts, BUCKET_NAMES, N_BUCKETS};
use pasm_prog::codegen::PHASE_MUL;
use pasm_util::{Json, ToJson};

/// Per-phase cycles of one PE, summed over that phase's recorded spans.
fn phase_cycles(accounts: &MachineAccounts, pe: usize, phase: u8) -> u64 {
    accounts.pe[pe]
        .spans
        .iter()
        .filter(|s| s.phase == phase)
        .map(|s| s.end - s.start)
        .sum()
}

struct ModeRow {
    mode: Mode,
    cycles: u64,
    /// (pe index, buckets, busy total, mac-loop cycles) for active PEs.
    pes: Vec<(usize, [u64; N_BUCKETS], u64, u64)>,
}

impl ToJson for ModeRow {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("mode", self.mode.to_json()),
            ("cycles", self.cycles.to_json()),
            (
                "pes",
                Json::Arr(
                    self.pes
                        .iter()
                        .map(|(pe, buckets, total, mac)| {
                            let mut pairs = vec![("pe", pe.to_json())];
                            pairs.extend(
                                BUCKET_NAMES
                                    .iter()
                                    .zip(buckets.iter())
                                    .map(|(n, v)| (*n, v.to_json())),
                            );
                            pairs.push(("total", total.to_json()));
                            pairs.push(("mac_loop", mac.to_json()));
                            Json::obj(pairs)
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

fn main() {
    let quick = bench::quick_mode();
    let cfg = MachineConfig::prototype();
    let (n, p) = if quick { (4, 4) } else { (16, 16) };
    let seed = 1988;
    let input = Matmul.generate(n, seed);

    let mut rows = Vec::new();
    let mut failures = Vec::new();

    for mode in Mode::ALL {
        let params = Params::new(n, p);
        let out = run_kernel_opts(&cfg, &Matmul, mode, params, &input, &RunOptions::default())
            .expect("run");
        let accounts = out
            .run
            .accounts
            .as_ref()
            .expect("accounting is on by default");

        let mut pes = Vec::new();
        for (i, trace) in out.run.pe.iter().enumerate() {
            if trace.instrs == 0 {
                continue;
            }
            let acc = &accounts.pe[i];
            let total = acc.total();
            if acc.started_at + total != trace.finished_at {
                failures.push(format!(
                    "{mode} pe{i}: buckets sum to {} but busy window is {}..{}",
                    total, acc.started_at, trace.finished_at
                ));
            }
            pes.push((
                i,
                *acc.buckets(),
                total,
                phase_cycles(accounts, i, PHASE_MUL),
            ));
        }

        let barrier: u64 = pes
            .iter()
            .map(|(_, b, _, _)| b[Bucket::BarrierWait as usize])
            .sum();
        match mode {
            Mode::Serial | Mode::Mimd => {
                if barrier != 0 {
                    failures.push(format!(
                        "{mode}: barrier_wait should be zero (got {barrier})"
                    ));
                }
            }
            Mode::Simd | Mode::Smimd => {
                if barrier == 0 {
                    failures.push(format!("{mode}: barrier_wait should be nonzero"));
                }
            }
        }

        match mode {
            Mode::Simd => {
                // Lockstep release is per Fetch Unit: every PE of an MC group
                // (PEs congruent mod `n_mcs`) sees identical release times, so
                // MAC-loop spans must be equal within each group.
                for mc in 0..cfg.n_mcs {
                    let macs: Vec<u64> = pes
                        .iter()
                        .filter(|(pe, ..)| pe % cfg.n_mcs == mc)
                        .map(|r| r.3)
                        .collect();
                    if !macs.windows(2).all(|w| w[0] == w[1]) {
                        failures.push(format!(
                            "SIMD group {mc}: MAC-loop spans should be \
                             lockstep-equalized, got {macs:?}"
                        ));
                    }
                }
            }
            Mode::Mimd => {
                let macs: Vec<u64> = pes.iter().map(|r| r.3).collect();
                if macs.windows(2).all(|w| w[0] == w[1]) {
                    failures.push(format!(
                        "MIMD: MAC-loop spans should reflect each PE's own \
                         data-dependent sum, but all PEs took {} cycles",
                        macs.first().copied().unwrap_or(0)
                    ));
                }
            }
            _ => {}
        }

        print_table(mode, out.cycles, &pes);
        rows.push(ModeRow {
            mode,
            cycles: out.cycles,
            pes,
        });
    }

    println!(
        "SIMD equalizes the MAC loop at the max over PEs (faster PEs accrue\n\
         barrier_wait); MIMD PEs each pay the sum of their own multiply\n\
         variances, so their MAC-loop durations differ."
    );

    bench::save_bench_json(
        "breakdown",
        1,
        Json::obj(vec![
            ("preset", Json::Str("prototype".to_string())),
            ("n", Json::Int(n as i64)),
            ("p", Json::Int(p as i64)),
            ("seed", Json::Int(seed as i64)),
        ]),
        Json::obj(vec![(
            "modes",
            Json::Arr(rows.iter().map(ToJson::to_json).collect()),
        )]),
    );

    if !failures.is_empty() {
        for f in &failures {
            eprintln!("FAIL: {f}");
        }
        std::process::exit(1);
    }
}

fn print_table(mode: Mode, cycles: u64, pes: &[(usize, [u64; N_BUCKETS], u64, u64)]) {
    println!("== {mode} (makespan {cycles} cycles) ==");
    print!("{:>4}", "pe");
    for name in BUCKET_NAMES {
        print!("{name:>18}");
    }
    println!("{:>12}{:>12}", "total", "mac_loop");
    for (pe, buckets, total, mac) in pes {
        print!("{pe:>4}");
        for v in buckets {
            print!("{v:>18}");
        }
        println!("{total:>12}{mac:>12}");
    }
    println!();
}
