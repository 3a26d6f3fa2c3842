//! Memory timing: wait states and DRAM refresh.
//!
//! The MC68000 bus takes a minimum of 4 clock cycles per 16-bit access; the
//! instruction-timing tables of `pasm-isa` already include those minimum
//! cycles. What they do *not* include is prototype-specific slowness:
//!
//! * **wait states** — extra cycles the memory inserts per access. The PASM
//!   prototype's PE dynamic RAM needs one more wait state than the Fetch Unit
//!   queue's static RAM (paper §3), which is the constant part of the SIMD
//!   instruction-fetch advantage;
//! * **refresh** — the PE DRAMs are refreshed simultaneously in all PEs and
//!   mostly invisibly, but an access colliding with a refresh window is
//!   delayed until the window closes.
//!
//! [`MemTiming`] holds these parameters and computes the extra delay for an
//! access at a given cycle time. Refresh windows are global (same clock in all
//! PEs), which mirrors the prototype's synchronized refresh design — and means
//! refresh does **not** add cross-PE variance, only a small uniform slowdown.

/// Timing parameters of a memory technology as seen from the CPU bus.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MemTiming {
    /// Extra cycles inserted per 16-bit access (wait states).
    pub wait_states: u32,
    /// Cycle distance between the starts of consecutive refresh windows.
    /// `0` disables refresh (static RAM).
    pub refresh_interval: u64,
    /// Length of each refresh window in cycles.
    pub refresh_duration: u64,
}

impl MemTiming {
    /// PE main memory on the prototype: dynamic RAM with two wait states and a
    /// periodic refresh. With a 2 ms / 128-row refresh at 8 MHz a row refresh
    /// is due every ~125 cycles; the 10-cycle window models the refresh cycle
    /// plus arbitration. These two constants were *calibrated* (see
    /// EXPERIMENTS.md): together with the queue's one-fewer wait state they
    /// reproduce the paper's Fig. 7 crossover at ~14 added multiplies and the
    /// superlinear SIMD efficiency of Fig. 11.
    pub const PE_DRAM: MemTiming = MemTiming {
        wait_states: 2,
        refresh_interval: 125,
        refresh_duration: 10,
    };

    /// Fetch Unit queue: static RAM, exactly one wait state fewer than the PE
    /// DRAM (paper §3) and no refresh.
    pub const FU_SRAM: MemTiming = MemTiming {
        wait_states: 1,
        refresh_interval: 0,
        refresh_duration: 0,
    };

    /// MC program memory: modeled like the PE DRAM (the MCs use the same
    /// memory technology for their own instruction store).
    pub const MC_DRAM: MemTiming = MemTiming::PE_DRAM;

    /// Ideal zero-wait memory (useful as an ablation baseline).
    pub const IDEAL: MemTiming = MemTiming {
        wait_states: 0,
        refresh_interval: 0,
        refresh_duration: 0,
    };

    /// Extra delay (beyond the CPU-core cycles) for one 16-bit access that
    /// *starts* at absolute cycle `now`: wait states plus any refresh-window
    /// collision.
    #[inline]
    pub fn access_delay(&self, now: u64) -> u64 {
        self.wait_states as u64 + self.refresh_delay(now)
    }

    /// Delay due to refresh only: if `now` falls inside a refresh window, the
    /// access waits until the window ends.
    #[inline]
    pub fn refresh_delay(&self, now: u64) -> u64 {
        if self.refresh_interval == 0 {
            return 0;
        }
        let phase = now % self.refresh_interval;
        self.refresh_duration.saturating_sub(phase)
    }

    /// Total extra delay for `accesses` back-to-back 16-bit accesses starting
    /// at cycle `now`, assuming each access takes the MC68000 minimum of 4
    /// cycles plus its own delay. This is what the machine charges on top of
    /// the core instruction time for instruction fetch and operand traffic.
    pub fn burst_delay(&self, mut now: u64, accesses: u32) -> u64 {
        let start = now;
        for _ in 0..accesses {
            now += self.access_delay(now);
            now += 4; // the access itself, already costed in the core tables
        }
        // Only the *extra* cycles are returned.
        now - start - 4 * accesses as u64
    }

    /// Long-run average extra cycles per access: the wait states plus the
    /// exact mean of [`MemTiming::refresh_delay`] over one refresh interval,
    /// i.e. for an access starting on a uniformly random cycle. The delay is
    /// discrete (`duration − phase` cycles at phases `0..duration`), so the
    /// mean is `duration·(duration+1) / (2·interval)` when the window fits in
    /// the interval — 55/125 = 0.44 cycles for [`MemTiming::PE_DRAM`]. Used
    /// for analytical cross-checks.
    pub fn mean_overhead_per_access(&self) -> f64 {
        let (interval, dur) = (self.refresh_interval, self.refresh_duration);
        let refresh = if interval == 0 {
            0.0
        } else {
            // Σ over phases 0..interval of dur.saturating_sub(phase): the
            // k = min(dur, interval) terms dur, dur − 1, …, dur − k + 1.
            let k = dur.min(interval);
            let sum = k * (2 * dur + 1 - k) / 2;
            sum as f64 / interval as f64
        };
        self.wait_states as f64 + refresh
    }
}

impl Default for MemTiming {
    fn default() -> Self {
        MemTiming::PE_DRAM
    }
}

/// Incremental refresh-phase tracker for hot simulation loops.
///
/// [`MemTiming::burst_delay`] only ever reads the clock through
/// `now % refresh_interval`, so a loop that advances one component's clock
/// monotonically can carry the phase across instructions instead of
/// re-dividing per access. `BurstClock` does exactly that: it produces
/// **identical** delays to calling `timing.burst_delay(now, accesses)` at
/// the tracked `now` (the equivalence is property-tested below), with the
/// modulo replaced by conditional subtraction on the small per-instruction
/// increments.
#[derive(Debug, Clone, Copy)]
pub struct BurstClock {
    timing: MemTiming,
    /// `now % refresh_interval` of the tracked clock; 0 when refresh is off.
    phase: u64,
}

impl BurstClock {
    /// Track `timing`'s refresh phase starting at absolute cycle `now`.
    pub fn new(timing: MemTiming, now: u64) -> Self {
        let phase = if timing.refresh_interval == 0 {
            0
        } else {
            now % timing.refresh_interval
        };
        BurstClock { timing, phase }
    }

    /// Reduce a phase that may have stepped past the interval. Increments are
    /// at most one instruction's duration — usually far below the interval —
    /// so a subtraction almost always suffices; the modulo is a cold fallback
    /// for pathological configurations.
    #[inline]
    fn wrap(&self, mut phase: u64) -> u64 {
        let interval = self.timing.refresh_interval;
        if phase >= interval {
            phase -= interval;
            if phase >= interval {
                phase %= interval;
            }
        }
        phase
    }

    /// Advance the tracked clock by `cycles` without memory traffic.
    #[inline]
    pub fn advance(&mut self, cycles: u64) {
        if self.timing.refresh_interval != 0 {
            self.phase = self.wrap(self.phase + cycles);
        }
    }

    /// `timing.burst_delay(now + skew, accesses)` for the tracked `now`.
    /// The `skew` covers the machine's charging order, which prices an
    /// instruction's operand burst at `now + fetch_wait` without advancing
    /// the clock in between. Does not advance the tracked clock.
    ///
    /// A burst that starts past the refresh window and whose last access
    /// starts before the next one — access `k` starts `k·(wait_states + 4)`
    /// cycles in — meets no window and costs exactly its wait states; that
    /// is the common case and takes one compare. Any other burst is walked
    /// access by access.
    #[inline]
    pub fn burst_delay(&self, skew: u64, accesses: u32) -> u64 {
        let t = &self.timing;
        let ws = t.wait_states as u64;
        if t.refresh_interval == 0 {
            return ws * accesses as u64;
        }
        let mut phase = self.wrap(self.phase + skew);
        let last = (accesses as u64).saturating_sub(1) * (ws + 4);
        if phase >= t.refresh_duration && phase + last < t.refresh_interval {
            return ws * accesses as u64;
        }
        let mut extra = 0u64;
        for _ in 0..accesses {
            let d = ws + t.refresh_duration.saturating_sub(phase);
            extra += d;
            phase = self.wrap(phase + d + 4);
        }
        extra
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The shipped timings, a pathological one whose refresh window is
    /// longer than its interval, and a refresh with an empty window.
    const TIMINGS: [MemTiming; 5] = [
        MemTiming::PE_DRAM,
        MemTiming::FU_SRAM,
        MemTiming::IDEAL,
        MemTiming {
            wait_states: 3,
            refresh_interval: 7,
            refresh_duration: 11,
        },
        MemTiming {
            wait_states: 1,
            refresh_interval: 9,
            refresh_duration: 0,
        },
    ];

    #[test]
    fn burst_clock_matches_burst_delay_everywhere() {
        // The fast path's incremental phase tracker must be indistinguishable
        // from the modulo-per-access reference, including pathological
        // timings where one step crosses several refresh intervals.
        for t in TIMINGS {
            let mut now = 0u64;
            let mut clock = BurstClock::new(t, now);
            let mut rng = 0x2545_F491_4F6C_DD1Du64;
            for _ in 0..2000 {
                rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1);
                let accesses = (rng >> 33) as u32 % 6;
                let skew = (rng >> 49) % 40;
                assert_eq!(
                    clock.burst_delay(skew, accesses),
                    t.burst_delay(now + skew, accesses),
                    "{t:?} now={now} skew={skew} accesses={accesses}"
                );
                let step = (rng >> 21) % 300;
                clock.advance(step);
                now += step;
            }
        }
    }

    #[test]
    fn sram_has_exactly_one_less_wait_state_and_no_refresh() {
        let t = MemTiming::FU_SRAM;
        assert_eq!(t.wait_states + 1, MemTiming::PE_DRAM.wait_states);
        for now in [0u64, 1, 124, 125, 10_000] {
            assert_eq!(
                t.access_delay(now),
                t.wait_states as u64,
                "no refresh component"
            );
        }
        assert_eq!(t.mean_overhead_per_access(), t.wait_states as f64);
    }

    #[test]
    fn dram_wait_state_always_charged() {
        let t = MemTiming::PE_DRAM;
        // Out of any refresh window: exactly the wait states.
        assert_eq!(t.access_delay(20), t.wait_states as u64);
        assert_eq!(t.access_delay(124), t.wait_states as u64);
    }

    #[test]
    fn refresh_window_delays_until_close() {
        let t = MemTiming {
            wait_states: 0,
            refresh_interval: 100,
            refresh_duration: 4,
        };
        assert_eq!(t.refresh_delay(0), 4);
        assert_eq!(t.refresh_delay(1), 3);
        assert_eq!(t.refresh_delay(3), 1);
        assert_eq!(t.refresh_delay(4), 0);
        assert_eq!(t.refresh_delay(100), 4);
        assert_eq!(t.refresh_delay(199), 0);
    }

    #[test]
    fn burst_delay_accumulates() {
        let t = MemTiming {
            wait_states: 1,
            refresh_interval: 0,
            refresh_duration: 0,
        };
        assert_eq!(t.burst_delay(0, 3), 3);
        let t = MemTiming {
            wait_states: 0,
            refresh_interval: 8,
            refresh_duration: 2,
        };
        // First access at 0 hits the window (wait 2), then proceeds.
        assert!(t.burst_delay(0, 1) >= 2);
    }

    /// Every burst length at every phase of one interval, against the
    /// reference: covers both sides of the one-compare no-window case.
    #[test]
    fn burst_clock_matches_burst_delay_at_every_phase() {
        for t in TIMINGS {
            for now in 0..t.refresh_interval.max(1) {
                let clock = BurstClock::new(t, now);
                for accesses in 0..8 {
                    assert_eq!(
                        clock.burst_delay(0, accesses),
                        t.burst_delay(now, accesses),
                        "{t:?} now={now} accesses={accesses}"
                    );
                }
            }
        }
    }

    /// The mean overhead is the average of [`MemTiming::access_delay`] over
    /// one full refresh interval.
    #[test]
    fn mean_overhead_is_the_average_access_delay() {
        for t in TIMINGS {
            let interval = t.refresh_interval.max(1);
            let total: u64 = (0..interval).map(|now| t.access_delay(now)).sum();
            let mean = total as f64 / interval as f64;
            assert!(
                (t.mean_overhead_per_access() - mean).abs() < 1e-12,
                "{t:?}: {} vs {mean}",
                t.mean_overhead_per_access()
            );
        }
        assert!((MemTiming::PE_DRAM.mean_overhead_per_access() - 2.44).abs() < 1e-12);
    }

    #[test]
    fn dram_beats_sram_never() {
        // Sanity: DRAM overhead is at least SRAM overhead at every cycle.
        for now in 0..1000u64 {
            assert!(MemTiming::PE_DRAM.access_delay(now) >= MemTiming::FU_SRAM.access_delay(now));
        }
    }
}
