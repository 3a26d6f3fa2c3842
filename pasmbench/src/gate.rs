//! The correctness gate every operation passes through.
//!
//! Two checks, both computed outside the timers:
//!
//! * **Output.** A result's `c_checksum` must equal the checksum of the
//!   kernel's scalar host reference for the same input.
//! * **Simulated statistics.** Each cell's run at [`PIN_SEED`] must
//!   reproduce the digest of its simulated statistics (cycles, phase
//!   cycles, instructions, cycle buckets, checksum) pinned in `pins.tsv`.
//!   Host-only changes must leave every simulated statistic as it is, so a
//!   mismatch fails every operation of that cell in the run.
//!
//! Regenerate `pins.tsv` only together with a deliberate timing-model
//! change: `cargo run --release --manifest-path pasmbench/Cargo.toml --
//! --write-pins`.

use crate::cells::{self, Cell, PIN_SEED};
use crate::{Scale, Workload};
use pasm::ExperimentResult;
use pasm_util::Fnv1a;
use std::collections::BTreeMap;
use std::hash::Hasher;

/// Checksum of the kernel's host reference output for `cell` at `seed`.
pub fn reference_checksum(cell: &Cell, seed: u64) -> u64 {
    let input = cell.kernel.generate(cell.n, seed);
    pasm_kernels::checksum(&cell.kernel.reference(cell.params(), &input))
}

/// Digest of every simulated statistic a result carries.
pub fn digest(r: &ExperimentResult) -> u64 {
    let mut h = Fnv1a::new();
    for v in [
        r.cycles,
        r.multiply_cycles,
        r.communication_cycles,
        r.pe_instrs,
        r.c_checksum,
    ] {
        h.write(&v.to_le_bytes());
    }
    for b in r.pe_buckets {
        h.write(&b.to_le_bytes());
    }
    h.finish()
}

/// Check one result against its cell, seed and reference checksum.
pub fn check_result(
    cell: &Cell,
    seed: u64,
    r: &ExperimentResult,
    expected_checksum: u64,
) -> Result<(), String> {
    let label = cell.label();
    if r.workload != cell.kernel.name()
        || r.mode != cell.mode
        || r.n != cell.n
        || r.p != cell.p
        || r.seed != seed
    {
        return Err(format!("{label} seed {seed}: result names another run"));
    }
    if r.cycles == 0 || r.pe_instrs == 0 {
        return Err(format!("{label} seed {seed}: empty run"));
    }
    if r.c_checksum != expected_checksum {
        return Err(format!(
            "{label} seed {seed}: output checksum {:016x}, reference {expected_checksum:016x}",
            r.c_checksum
        ));
    }
    Ok(())
}

/// Pinned statistic digests, one per cell label, at [`PIN_SEED`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Pins(BTreeMap<String, u64>);

impl Pins {
    /// The pins checked in beside the benchmark.
    pub fn builtin() -> Pins {
        Pins::parse(include_str!("../pins.tsv")).expect("pins.tsv parses")
    }

    /// Parse `label<TAB>digest-hex` lines; `#` starts a comment line.
    pub fn parse(text: &str) -> Result<Pins, String> {
        let mut map = BTreeMap::new();
        for (i, line) in text.lines().enumerate() {
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (label, hex) = line
                .split_once('\t')
                .ok_or_else(|| format!("pins line {}: expected label<TAB>digest", i + 1))?;
            let digest = u64::from_str_radix(hex, 16)
                .map_err(|_| format!("pins line {}: bad digest {hex:?}", i + 1))?;
            map.insert(label.to_string(), digest);
        }
        Ok(Pins(map))
    }

    pub fn render(&self) -> String {
        let mut out = String::from(
            "# Digest of the simulated statistics of each cell's run at the pin seed\n\
             # (see src/gate.rs). Written by `pasmbench --write-pins`.\n",
        );
        for (label, d) in &self.0 {
            out.push_str(&format!("{label}\t{d:016x}\n"));
        }
        out
    }

    /// Check a cell's pinned run.
    pub fn check(&self, cell: &Cell, r: &ExperimentResult) -> Result<(), String> {
        let label = cell.label();
        check_result(cell, PIN_SEED, r, reference_checksum(cell, PIN_SEED))?;
        match self.0.get(&label) {
            None => Err(format!("{label}: no pinned digest")),
            Some(&want) if want != digest(r) => Err(format!(
                "{label}: simulated statistics digest {:016x}, pinned {want:016x}",
                digest(r)
            )),
            Some(_) => Ok(()),
        }
    }

    /// Pins for every cell of every workload and scale, computed now.
    pub fn compute() -> Result<Pins, String> {
        let mut map = BTreeMap::new();
        for w in Workload::ALL {
            for scale in [Scale::Full, Scale::Tiny] {
                for cell in cells::cells(w, scale) {
                    let label = cell.label();
                    if map.contains_key(&label) {
                        continue;
                    }
                    let r = pasm::run_keyed(&cell.key(PIN_SEED))
                        .map_err(|e| format!("{label}: {e:?}"))?;
                    check_result(&cell, PIN_SEED, &r, reference_checksum(&cell, PIN_SEED))?;
                    map.insert(label, digest(&r));
                }
            }
        }
        Ok(Pins(map))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cell() -> Cell {
        cells::cells(Workload::SimLockstep, Scale::Tiny)[0]
    }

    #[test]
    fn gate_passes_a_true_result() {
        let cell = tiny_cell();
        let r = pasm::run_keyed(&cell.key(PIN_SEED)).unwrap();
        assert_eq!(
            check_result(&cell, PIN_SEED, &r, reference_checksum(&cell, PIN_SEED)),
            Ok(())
        );
        assert_eq!(Pins::builtin().check(&cell, &r), Ok(()));
    }

    #[test]
    fn gate_trips_on_a_corrupted_checksum() {
        let cell = tiny_cell();
        let mut r = pasm::run_keyed(&cell.key(PIN_SEED)).unwrap();
        r.c_checksum ^= 1;
        let expected = reference_checksum(&cell, PIN_SEED);
        assert!(check_result(&cell, PIN_SEED, &r, expected).is_err());
        assert!(Pins::builtin().check(&cell, &r).is_err());
    }

    #[test]
    fn gate_trips_on_a_moved_simulated_statistic() {
        let cell = tiny_cell();
        let clean = pasm::run_keyed(&cell.key(PIN_SEED)).unwrap();
        let mut moved = clean.clone();
        moved.cycles += 1;
        assert!(Pins::builtin().check(&cell, &moved).is_err());
        let mut moved = clean.clone();
        moved.pe_buckets[0] += 1;
        assert!(Pins::builtin().check(&cell, &moved).is_err());
    }

    #[test]
    fn gate_trips_on_a_corrupted_pin() {
        let cell = tiny_cell();
        let r = pasm::run_keyed(&cell.key(PIN_SEED)).unwrap();
        let text = Pins::builtin().render();
        let want = format!("{}\t{:016x}", cell.label(), digest(&r));
        assert!(text.contains(&want));
        let bad = text.replace(&want, &format!("{}\t{:016x}", cell.label(), digest(&r) ^ 1));
        assert!(Pins::parse(&bad).unwrap().check(&cell, &r).is_err());
        assert!(Pins::parse("x\tnot-hex\n").is_err());
    }

    #[test]
    fn pins_cover_every_cell() {
        let pins = Pins::builtin();
        for w in Workload::ALL {
            for scale in [Scale::Full, Scale::Tiny] {
                for cell in cells::cells(w, scale) {
                    assert!(pins.0.contains_key(&cell.label()), "{}", cell.label());
                }
            }
        }
    }
}
