//! The operation generator: which `(kernel, mode, n, p)` cells each
//! workload runs, and the seeds their inputs come from.
//!
//! Cells come from a grid filtered through [`Kernel::validate`], so the
//! benchmark never sends a request the program is right to refuse (for
//! example bitonic n=4 with p=4).

use crate::{Scale, Workload};
use pasm::{ExperimentKey, FaultPlan, Kernel, MachineConfig, Mode, Params};
use pasm_util::Rng;

/// Seed of the fixed pinned run of each cell (see [`crate::gate::Pins`]).
/// Operation seeds are always `>= 1 << 47`, so they never repeat it.
pub const PIN_SEED: u64 = 1;

/// One `(kernel, mode, n, p)` combination on one machine.
#[derive(Clone, Copy)]
pub struct Cell {
    pub kernel: &'static dyn Kernel,
    pub mode: Mode,
    pub n: usize,
    pub p: usize,
    /// On `MachineConfig::small()` (4 PEs, 64 KiB memories) rather than
    /// the 16-PE prototype.
    pub small: bool,
}

impl std::fmt::Debug for Cell {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.label())
    }
}

pub fn mode_name(mode: Mode) -> &'static str {
    match mode {
        Mode::Serial => "serial",
        Mode::Simd => "simd",
        Mode::Mimd => "mimd",
        Mode::Smimd => "smimd",
    }
}

impl Cell {
    /// Stable name, e.g. `simd/matmul/n32/p4` (`small/...` on the small
    /// machine).
    pub fn label(&self) -> String {
        format!(
            "{}{}/{}/n{}/p{}",
            if self.small { "small/" } else { "" },
            mode_name(self.mode),
            self.kernel.name(),
            self.n,
            self.p
        )
    }

    pub fn params(&self) -> Params {
        Params::new(self.n, self.p)
    }

    pub fn config(&self) -> MachineConfig {
        if self.small {
            MachineConfig::small()
        } else {
            MachineConfig::prototype()
        }
    }

    /// The library key of this cell's run with input seed `seed`.
    pub fn key(&self, seed: u64) -> ExperimentKey {
        ExperimentKey {
            config: self.config(),
            mode: self.mode,
            params: self.params(),
            seed,
            fault: FaultPlan::default(),
            workload: self.kernel.name(),
        }
    }

    /// The `POST /submit` body of the same run.
    pub fn body(&self, seed: u64) -> String {
        format!(
            r#"{{"kernel":"{}","mode":"{}","n":{},"p":{},"seed":{seed}{}}}"#,
            self.kernel.name(),
            mode_name(self.mode),
            self.n,
            self.p,
            if self.small {
                r#","config":{"preset":"small"}"#
            } else {
                ""
            }
        )
    }
}

/// Every combination of `sizes × modes × ps` that the kernel accepts and
/// the machine can hold.
fn grid(sizes: &[(&str, usize)], modes: &[Mode], ps: &[usize], small: bool) -> Vec<Cell> {
    let mut cells = Vec::new();
    for &mode in modes {
        for &(name, n) in sizes {
            let kernel = pasm::kernels::find(name).expect("registered kernel");
            for &p in ps {
                let cell = Cell {
                    kernel,
                    mode,
                    n,
                    p,
                    small,
                };
                if p <= cell.config().n_pes && kernel.validate(n, p).is_ok() {
                    cells.push(cell);
                }
            }
        }
    }
    cells
}

/// The cells a workload cycles through, one operation per cell per round.
pub fn cells(workload: Workload, scale: Scale) -> Vec<Cell> {
    let sim_sizes: &[(&str, usize)] = match scale {
        Scale::Full => &[
            ("matmul", 32),
            ("smooth", 4096),
            ("reduce", 16384),
            ("bitonic", 256),
        ],
        Scale::Tiny => &[
            ("matmul", 8),
            ("smooth", 64),
            ("reduce", 64),
            ("bitonic", 32),
        ],
    };
    // Small cells on the small machine: a cold job (machine set-up,
    // simulation, five durable appends) then ends well within one 5 ms
    // accept-loop tick of the server, so a cold submit's latency does not
    // jump between whole ticks as the host's speed drifts.
    let serve_sizes: &[(&str, usize)] = &[
        ("matmul", 4),
        ("smooth", 16),
        ("reduce", 16),
        ("bitonic", 4),
    ];
    let ps: &[usize] = match scale {
        Scale::Full => &[4, 8, 16],
        Scale::Tiny => &[4],
    };
    let serve_ps: &[usize] = match scale {
        Scale::Full => &[2, 4, 8],
        Scale::Tiny => &[4],
    };
    let all_modes = [Mode::Simd, Mode::Mimd, Mode::Smimd];
    match workload {
        Workload::SimLockstep => grid(sim_sizes, &[Mode::Simd], ps, false),
        Workload::SimAutonomous => grid(sim_sizes, &[Mode::Mimd, Mode::Smimd], ps, false),
        Workload::ServeMixed => grid(serve_sizes, &all_modes, serve_ps, true),
    }
}

/// Input seeds of the operations, drawn from the workload seed.
pub struct SeedStream(Rng);

impl SeedStream {
    pub fn new(workload: Workload, seed: u64) -> SeedStream {
        // Mix the workload in, so two workloads run with one seed differ.
        let salt = pasm_util::fnv1a(workload.name().as_bytes());
        SeedStream(Rng::seed_from_u64(seed ^ salt))
    }

    /// A fresh 48-bit seed (a JSON-safe integer) that never equals
    /// [`PIN_SEED`].
    pub fn next_seed(&mut self) -> u64 {
        (self.0.gen_u64() >> 17) | (1 << 47)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_generated_cell_validates() {
        for w in Workload::ALL {
            for scale in [Scale::Full, Scale::Tiny] {
                let cells = cells(w, scale);
                assert!(!cells.is_empty());
                for c in cells {
                    assert!(c.kernel.validate(c.n, c.p).is_ok(), "{}", c.label());
                }
            }
        }
    }

    #[test]
    fn invalid_combinations_are_left_out() {
        let serve = cells(Workload::ServeMixed, Scale::Full);
        assert!(
            !serve.iter().any(|c| c.p == 8),
            "the small machine has 4 PEs"
        );
        assert!(!serve
            .iter()
            .any(|c| c.label() == "small/simd/bitonic/n4/p4"));
        assert!(serve
            .iter()
            .any(|c| c.label() == "small/simd/bitonic/n4/p2"));
        assert_eq!(serve.len(), 21);
        assert_eq!(cells(Workload::SimLockstep, Scale::Full).len(), 12);
        assert_eq!(cells(Workload::SimAutonomous, Scale::Full).len(), 24);
    }

    #[test]
    fn seed_stream_is_deterministic_per_seed_and_workload() {
        let draw = |w, s| {
            let mut st = SeedStream::new(w, s);
            (0..16).map(|_| st.next_seed()).collect::<Vec<_>>()
        };
        assert_eq!(draw(Workload::ServeMixed, 7), draw(Workload::ServeMixed, 7));
        assert_ne!(draw(Workload::ServeMixed, 7), draw(Workload::ServeMixed, 8));
        assert_ne!(
            draw(Workload::SimLockstep, 7),
            draw(Workload::ServeMixed, 7)
        );
        assert!(draw(Workload::SimLockstep, 3)
            .iter()
            .all(|&s| s != PIN_SEED && s < (1 << 48)));
    }

    #[test]
    fn submit_body_names_the_same_key_as_the_library() {
        for c in cells(Workload::ServeMixed, Scale::Full) {
            let body = pasm_util::json::parse(&c.body(99)).unwrap();
            let spec = pasm_server::JobSpec::from_json(&body).expect("server accepts the cell");
            assert_eq!(spec.key.fingerprint(), c.key(99).fingerprint(), "{c:?}");
        }
    }
}
