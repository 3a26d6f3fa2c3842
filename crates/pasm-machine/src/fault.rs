//! Machine-level fault plans: network element faults plus PE fault models.
//!
//! A [`FaultPlan`] is the injectable description of everything wrong with a
//! machine before a run starts: a set of ESC network faults
//! ([`pasm_net::NetFault`]: interchange boxes and inter-stage links) and a set
//! of per-PE fault models ([`PeFault`]):
//!
//! * **dead** — the PE never starts. It is masked out of Fetch-Unit release
//!   decisions, so SIMD broadcasts to the surviving PEs still release instead
//!   of waiting forever on a request that will never come.
//! * **slow** — every operand memory access costs `extra_wait` additional
//!   wait states (a marginal DRAM bank, a failing refresh circuit), at most
//!   [`MAX_SLOW_WAIT`]. The extra cycles are charged to the `fault_detour`
//!   bucket.
//! * **stuck-tx** — the PE's network output port wedges: transmits never
//!   complete. Barrier-mode programs end in a clean deadlock report; polling
//!   programs hit the cycle limit.
//!
//! Plans are hashable so they can participate in experiment cache keys, and
//! parseable from the compact CLI spelling `box:S:I`, `link:B:L`, `dead:P`,
//! `slow:P:W`, `stuck:P` (comma-separated).

use pasm_net::NetFault;
use std::fmt;

/// Largest `extra_wait` of a slow PE. The model's own wait states are single
/// digits; the bound keeps every surcharge (`extra_wait` × an instruction's
/// operand accesses) far from `u64` overflow.
pub const MAX_SLOW_WAIT: u64 = 65_535;

/// One PE's fault model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PeFault {
    /// The PE never starts; it is masked out of Fetch-Unit barriers.
    Dead,
    /// Every operand memory access pays `extra_wait` additional cycles.
    Slow { extra_wait: u64 },
    /// The network transmit port never accepts a word.
    StuckTx,
}

/// A PE fault bound to a physical PE number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PeFaultSpec {
    pub pe: usize,
    pub kind: PeFault,
}

/// Everything injected into a machine before a run: network faults and PE
/// faults. The empty plan (the default) is the fault-free machine.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct FaultPlan {
    /// ESC network element faults.
    pub net: Vec<NetFault>,
    /// Per-PE fault models.
    pub pe: Vec<PeFaultSpec>,
}

impl FaultPlan {
    /// A plan with a single network fault (the fault-sweep workhorse).
    pub fn net_single(fault: NetFault) -> Self {
        FaultPlan {
            net: vec![fault],
            pe: Vec::new(),
        }
    }

    /// A plan with a single PE fault.
    pub fn pe_single(pe: usize, kind: PeFault) -> Self {
        FaultPlan {
            net: Vec::new(),
            pe: vec![PeFaultSpec { pe, kind }],
        }
    }

    /// True if nothing is injected.
    pub fn is_empty(&self) -> bool {
        self.net.is_empty() && self.pe.is_empty()
    }

    /// Validate every element against a machine with `n_pes` PEs (whose ESC
    /// network has `n_pes.max(2)` endpoints).
    pub fn validate(&self, n_pes: usize) -> Result<(), String> {
        let net_size = n_pes.max(2);
        for f in &self.net {
            f.validate(net_size)?;
        }
        for s in &self.pe {
            if s.pe >= n_pes {
                return Err(format!("PE {} out of range 0..{n_pes}", s.pe));
            }
            if let PeFault::Slow { extra_wait } = s.kind {
                if extra_wait > MAX_SLOW_WAIT {
                    return Err(format!("slow-PE wait {extra_wait} above {MAX_SLOW_WAIT}"));
                }
            }
        }
        let mut pes: Vec<usize> = self.pe.iter().map(|s| s.pe).collect();
        pes.sort_unstable();
        pes.dedup();
        if pes.len() != self.pe.len() {
            return Err("duplicate PE fault entries".into());
        }
        Ok(())
    }

    /// Parse the comma-separated CLI spelling, e.g. `box:2:1,dead:3`.
    /// Whitespace around items is ignored; the empty string is the empty plan.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let mut plan = FaultPlan::default();
        for item in spec.split(',').map(str::trim).filter(|s| !s.is_empty()) {
            let parts: Vec<&str> = item.split(':').collect();
            let num = |s: &str| -> Result<u64, String> {
                s.parse::<u64>()
                    .map_err(|_| format!("bad number {s:?} in fault {item:?}"))
            };
            match parts.as_slice() {
                ["box", s, i] => plan.net.push(NetFault::Box {
                    stage: num(s)? as u32,
                    box_idx: num(i)? as usize,
                }),
                ["link", b, l] => plan.net.push(NetFault::Link {
                    boundary: num(b)? as u32,
                    line: num(l)? as usize,
                }),
                ["dead", p] => plan.pe.push(PeFaultSpec {
                    pe: num(p)? as usize,
                    kind: PeFault::Dead,
                }),
                ["slow", p, w] => plan.pe.push(PeFaultSpec {
                    pe: num(p)? as usize,
                    kind: PeFault::Slow {
                        extra_wait: num(w)?,
                    },
                }),
                ["stuck", p] => plan.pe.push(PeFaultSpec {
                    pe: num(p)? as usize,
                    kind: PeFault::StuckTx,
                }),
                _ => {
                    return Err(format!(
                        "unknown fault {item:?} (expected box:S:I, link:B:L, \
                         dead:P, slow:P:W, or stuck:P)"
                    ))
                }
            }
        }
        Ok(plan)
    }
}

impl fmt::Display for FaultPlan {
    /// The same compact spelling [`FaultPlan::parse`] accepts (round-trips).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        let mut sep = |f: &mut fmt::Formatter<'_>| -> fmt::Result {
            if !first {
                write!(f, ",")?;
            }
            first = false;
            Ok(())
        };
        for n in &self.net {
            sep(f)?;
            write!(f, "{n}")?;
        }
        for s in &self.pe {
            sep(f)?;
            match s.kind {
                PeFault::Dead => write!(f, "dead:{}", s.pe)?,
                PeFault::Slow { extra_wait } => write!(f, "slow:{}:{extra_wait}", s.pe)?,
                PeFault::StuckTx => write!(f, "stuck:{}", s.pe)?,
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trips() {
        let spec = "box:2:1,link:1:7,dead:3,slow:1:4,stuck:2";
        let plan = FaultPlan::parse(spec).unwrap();
        assert_eq!(plan.net.len(), 2);
        assert_eq!(plan.pe.len(), 3);
        assert_eq!(plan.to_string(), spec);
        assert_eq!(FaultPlan::parse(&plan.to_string()).unwrap(), plan);
    }

    #[test]
    fn empty_spec_is_empty_plan() {
        let plan = FaultPlan::parse("").unwrap();
        assert!(plan.is_empty());
        assert_eq!(plan.to_string(), "");
        assert_eq!(plan, FaultPlan::default());
    }

    #[test]
    fn parse_rejects_malformed_items() {
        assert!(FaultPlan::parse("box:1").is_err());
        assert!(FaultPlan::parse("flood:3").is_err());
        assert!(FaultPlan::parse("slow:x:2").is_err());
    }

    #[test]
    fn validate_checks_ranges_and_duplicates() {
        assert!(FaultPlan::parse("dead:3").unwrap().validate(4).is_ok());
        assert!(FaultPlan::parse("dead:4").unwrap().validate(4).is_err());
        assert!(FaultPlan::parse("box:9:0").unwrap().validate(4).is_err());
        assert!(FaultPlan::parse("slow:0:65535")
            .unwrap()
            .validate(4)
            .is_ok());
        assert!(FaultPlan::parse("slow:0:18446744073709551615")
            .unwrap()
            .validate(4)
            .is_err());
        assert!(FaultPlan::parse("dead:1,slow:1:2")
            .unwrap()
            .validate(4)
            .is_err());
    }
}
