//! The grid the validation contract tests walk: every registered kernel ×
//! mode × machine preset × `(n, p)`, with each kernel's boundary sizes (the
//! ends of its block-size range, its divisibility edges, and where its
//! memory footprint meets a PE's memory on either preset).
//!
//! `ExperimentKey::validate` sorts the grid. The `pasm` tests run every
//! key it accepts and drive `pasm-run` with the keys it rejects; the
//! `pasm-server` tests submit every rejected key over HTTP.

// Each test binary compiles this module and uses a different subset of it.
#![allow(dead_code)]

use pasm::{ExperimentKey, FaultPlan, MachineConfig, Mode, Params};

/// One point of the grid.
#[derive(Debug, Clone, Copy)]
pub struct Case {
    pub kernel: &'static str,
    pub mode: Mode,
    /// The `small` preset (4 PEs, 64 KiB per PE) instead of the prototype.
    pub small: bool,
    pub n: usize,
    pub p: usize,
}

/// Sizes per kernel: each range end, one step past it, and the sizes where
/// the footprint crosses a PE's memory.
const SIZES: [(&str, &[usize]); 4] = [
    // Serial: 1 and 102 fit the small preset, 103 does not; 417 fits the
    // prototype, 418 does not. Parallel: 126/128 (p=2) and 176/180 (p=4)
    // straddle 64 KiB, 510/512 (p=2) straddle 1 MiB; 513 is past 1..=512.
    (
        "matmul",
        &[
            0, 1, 2, 16, 102, 103, 126, 128, 176, 180, 256, 417, 418, 510, 512, 513,
        ],
    ),
    // K = n/p in 2..=1024.
    ("smooth", &[0, 4, 6, 2048, 2050, 16384]),
    // K in 1..=4096.
    ("reduce", &[0, 2, 3, 8192, 8194, 65536, 65552]),
    // K a power of two in 2..=128.
    ("bitonic", &[0, 2, 4, 24, 256, 512, 2048, 4096]),
];

/// `p` values: below the ring minimum, non-powers of two, the small
/// preset's 4 PEs and one past it, the prototype's 16 and one past it.
const PS: [usize; 7] = [1, 2, 3, 4, 8, 16, 32];

/// The whole grid. Serial cases have `p = 1`, as both entry points force.
pub fn cases() -> Vec<Case> {
    let mut out = Vec::new();
    for (kernel, sizes) in SIZES {
        for mode in Mode::ALL {
            for small in [false, true] {
                for &n in sizes {
                    let ps: &[usize] = if mode == Mode::Serial { &[1] } else { &PS };
                    for &p in ps {
                        out.push(Case {
                            kernel,
                            mode,
                            small,
                            n,
                            p,
                        });
                    }
                }
            }
        }
    }
    out
}

impl Case {
    /// The mode as both entry points spell it (`Mode::parse` ignores case).
    fn mode_name(&self) -> String {
        format!("{:?}", self.mode)
    }

    /// The key the HTTP protocol and `pasm-run` build for this case.
    pub fn key(&self) -> ExperimentKey {
        ExperimentKey {
            config: if self.small {
                MachineConfig::small()
            } else {
                MachineConfig::prototype()
            },
            mode: self.mode,
            params: Params::new(self.n, self.p),
            seed: pasm::figures::DEFAULT_SEED,
            fault: FaultPlan::default(),
            workload: pasm::kernels::find(self.kernel)
                .expect("registered kernel")
                .name(),
        }
    }

    /// The `/submit` body naming this case.
    pub fn body(&self) -> String {
        format!(
            r#"{{"mode":"{}","kernel":"{}","n":{},"p":{}{}}}"#,
            self.mode_name(),
            self.kernel,
            self.n,
            self.p,
            if self.small {
                r#","config":{"preset":"small"}"#
            } else {
                ""
            }
        )
    }

    /// `pasm-run` arguments naming this case (the CLI runs the prototype
    /// only).
    pub fn cli_args(&self) -> Vec<String> {
        assert!(!self.small, "pasm-run has no preset flag");
        [
            "--mode",
            &self.mode_name(),
            "--kernel",
            self.kernel,
            "--n",
            &self.n.to_string(),
            "--p",
            &self.p.to_string(),
        ]
        .map(str::to_string)
        .to_vec()
    }
}

/// Five inputs the HTTP protocol or `pasm-run` used to accept and then
/// panic on, in the matmul layout or (serial `n = 0`) in the run.
pub fn former_panics() -> [Case; 5] {
    let matmul = |mode, small, n, p| Case {
        kernel: "matmul",
        mode,
        small,
        n,
        p,
    };
    [
        matmul(Mode::Serial, false, 512, 1),
        matmul(Mode::Simd, false, 512, 2),
        matmul(Mode::Simd, true, 256, 4),
        matmul(Mode::Serial, false, 0, 1),
        matmul(Mode::Serial, false, 418, 1),
    ]
}
