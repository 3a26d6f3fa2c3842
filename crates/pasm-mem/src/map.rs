//! The PE address map of the simulated prototype.
//!
//! On the real machine the interesting regions are:
//!
//! * **main memory** — the PE's own DRAM (data always; instructions in MIMD),
//! * **SIMD instruction space** — a reserved area; any instruction fetch or
//!   data read hitting it is converted by PE logic into a request to the MC's
//!   Fetch Unit, released only when all enabled PEs have requested (paper §3),
//! * **network registers** — the transmit register (DTR), receive register
//!   (DRR) and a status register of the circuit-switched network interface,
//! * **timer** — the MC68230 used for the paper's time measurements; modeled
//!   as a read-only cycle counter.
//!
//! The exact base addresses are simulator conventions, not prototype values;
//! nothing in the experiments depends on them.

/// Base of the reserved SIMD instruction space.
pub const SIMD_SPACE_BASE: u32 = 0x00F0_0000;
/// Exclusive end of the SIMD instruction space.
pub const SIMD_SPACE_END: u32 = 0x00F1_0000;

/// Network data transmit register (byte-wide on the prototype).
pub const NET_DTR: u32 = 0x00E0_0000;
/// Network data receive register.
pub const NET_DRR: u32 = 0x00E0_0002;
/// Network status register: bit 0 = transmitter ready, bit 1 = receive valid.
pub const NET_STATUS: u32 = 0x00E0_0004;

/// Timer register: reads return the low 32 bits of the global cycle counter.
pub const TIMER: u32 = 0x00D0_0000;

// [`MemMap::region`] decodes every address below the timer as main memory.
const _: () = assert!(TIMER < NET_DTR && TIMER < NET_DRR && TIMER < NET_STATUS);
const _: () = assert!(TIMER < SIMD_SPACE_BASE);

/// Which network register an address refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetReg {
    /// Data transmit register.
    Dtr,
    /// Data receive register.
    Drr,
    /// Status register.
    Status,
}

/// Classification of a PE bus address.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Region {
    /// Ordinary PE main memory (DRAM).
    Main,
    /// The reserved SIMD instruction space (Fetch Unit request).
    SimdSpace,
    /// A network interface register.
    Net(NetReg),
    /// The timer register.
    Timer,
}

/// Address decoder for the PE bus.
#[derive(Debug, Clone, Copy, Default)]
pub struct MemMap;

impl MemMap {
    /// Classify an address. Everything below [`TIMER`], the lowest
    /// memory-mapped base, is main memory: the common case costs one
    /// compare.
    #[inline]
    pub fn region(self, addr: u32) -> Region {
        if addr < TIMER {
            Region::Main
        } else if (SIMD_SPACE_BASE..SIMD_SPACE_END).contains(&addr) {
            Region::SimdSpace
        } else if addr == NET_DTR || addr == NET_DTR + 1 {
            Region::Net(NetReg::Dtr)
        } else if addr == NET_DRR || addr == NET_DRR + 1 {
            Region::Net(NetReg::Drr)
        } else if addr == NET_STATUS || addr == NET_STATUS + 1 {
            Region::Net(NetReg::Status)
        } else if (TIMER..TIMER + 4).contains(&addr) {
            Region::Timer
        } else {
            Region::Main
        }
    }

    /// True if the address is in ordinary main memory.
    #[inline]
    pub fn is_main(self, addr: u32) -> bool {
        matches!(self.region(addr), Region::Main)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classifies_regions() {
        let m = MemMap;
        assert_eq!(m.region(0), Region::Main);
        assert_eq!(m.region(0x1000), Region::Main);
        assert_eq!(m.region(SIMD_SPACE_BASE), Region::SimdSpace);
        assert_eq!(m.region(SIMD_SPACE_END - 2), Region::SimdSpace);
        assert_eq!(m.region(SIMD_SPACE_END), Region::Main);
        assert_eq!(m.region(NET_DTR), Region::Net(NetReg::Dtr));
        assert_eq!(m.region(NET_DRR), Region::Net(NetReg::Drr));
        assert_eq!(m.region(NET_STATUS), Region::Net(NetReg::Status));
        assert_eq!(m.region(TIMER), Region::Timer);
        assert_eq!(m.region(TIMER + 3), Region::Timer);
        assert_eq!(m.region(TIMER + 4), Region::Main);
        assert_eq!(m.region(TIMER - 1), Region::Main);
        assert_eq!(m.region(u32::MAX), Region::Main);
    }

    #[test]
    fn main_predicate() {
        let m = MemMap;
        assert!(m.is_main(0x42));
        assert!(!m.is_main(NET_STATUS));
        assert!(!m.is_main(SIMD_SPACE_BASE + 100));
    }
}
