//! The MC Fetch Unit: mask register, Fetch Unit Controller, FIFO queue.
//!
//! Paper §3 (Figure 1): the MC CPU writes the Mask Register, then writes a
//! control word naming a block of SIMD instructions in the Fetch Unit RAM.
//! The Fetch Unit Controller moves the block into the FIFO queue word by word
//! — tagging every word with the current mask — while the MC CPU proceeds.
//! PEs consume the queue through instruction-fetch requests; an entry is
//! *released* only when every PE enabled by its mask has requested it, which
//! is the implicit hardware barrier that makes SIMD cost `Σ maxₖ tⱼₖ`.
//!
//! The same machinery doubles as barrier synchronization for MIMD programs:
//! the MC pre-enqueues `R` arbitrary data words and PEs read them from SIMD
//! space; each read completes only when all PEs have read (paper §3, used by
//! the S/MIMD matrix multiply).
//!
//! The queue is **finite**; the paper points out that SIMD superlinearity
//! exists only while the MC keeps it non-empty. Both the capacity stall (full)
//! and the empty stall are modeled and counted.

use crate::block::InstrMeta;
use std::collections::VecDeque;

/// What a queue entry carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EntryKind {
    /// A broadcast SIMD instruction, named by its index into the MC's
    /// compiled SIMD blocks (`CompiledProgram::simd`).
    Instr(u32),
    /// An arbitrary data word (barrier synchronization).
    Data,
}

/// One entry of the Fetch Unit queue.
#[derive(Debug, Clone, Copy)]
pub struct QueueEntry {
    pub kind: EntryKind,
    /// Mask latched when the word was enqueued (bit k = PE k of this group).
    pub mask: u16,
    /// Width in 16-bit words (capacity accounting; data words are 1).
    pub words: u32,
    /// Cycle at which the controller finished moving it into the queue.
    pub ready_at: u64,
    /// PEs (group-local bits) that have consumed it (decoupled mode only).
    pub consumed: u16,
}

/// An item the controller still has to move from Fetch Unit RAM to the queue.
#[derive(Debug, Clone, Copy)]
pub struct FucItem {
    pub kind: EntryKind,
    pub mask: u16,
    pub words: u32,
    /// Earliest cycle the controller may start on it (MC command latency).
    pub earliest: u64,
}

/// Aggregate Fetch Unit statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FuStats {
    /// Entries that passed through the queue.
    pub entries: u64,
    /// Peak queue occupancy in words.
    pub max_depth_words: u32,
    /// Cycles PEs spent waiting because the queue was empty (release gated by
    /// `ready_at` rather than by the slowest PE's request).
    pub empty_stall_cycles: u64,
    /// Number of releases gated by the queue being empty.
    pub empty_stalls: u64,
    /// Number of releases gated by the slowest PE (the lockstep barrier).
    pub barrier_stalls: u64,
}

/// One MC's Fetch Unit.
#[derive(Debug)]
pub struct FetchUnit {
    /// Current mask register value.
    pub mask: u16,
    /// The FIFO queue.
    pub queue: VecDeque<QueueEntry>,
    /// Occupancy in words.
    pub occupancy_words: u32,
    /// Capacity in words.
    pub capacity_words: u32,
    /// Items the controller has yet to move into the queue.
    pub pending: VecDeque<FucItem>,
    /// When the controller finishes its current word move.
    pub fuc_free_at: u64,
    /// Controller blocked on queue space.
    pub fuc_blocked: bool,
    /// When space last became available while the controller was blocked.
    pub space_available_at: u64,
    /// Statistics.
    pub stats: FuStats,
}

impl FetchUnit {
    pub fn new(capacity_words: u32) -> Self {
        FetchUnit {
            mask: 0xFFFF,
            queue: VecDeque::new(),
            occupancy_words: 0,
            capacity_words,
            pending: VecDeque::new(),
            fuc_free_at: 0,
            fuc_blocked: false,
            space_available_at: 0,
            stats: FuStats::default(),
        }
    }

    /// True when the controller has nothing left to move (the MC may issue the
    /// next enqueue command).
    pub fn command_done(&self) -> bool {
        self.pending.is_empty()
    }

    /// Queue an MC command: move `block` (compiled SIMD entries, the first
    /// of which is entry `first`) starting no earlier than `earliest`.
    pub fn command_block(&mut self, first: u32, block: &[InstrMeta], earliest: u64) {
        for (k, m) in (first..).zip(block) {
            self.pending.push_back(FucItem {
                kind: EntryKind::Instr(k),
                mask: self.mask,
                words: m.split.fetch_words.max(1),
                earliest,
            });
        }
    }

    /// Queue an MC command: enqueue `count` arbitrary data words.
    pub fn command_data_words(&mut self, count: u16, earliest: u64) {
        for _ in 0..count {
            self.pending.push_back(FucItem {
                kind: EntryKind::Data,
                mask: self.mask,
                words: 1,
                earliest,
            });
        }
    }

    /// When the controller could next complete a move, if it has work and the
    /// queue has room. `None` = idle or blocked on space.
    pub fn next_move_completion(&mut self, cycles_per_word: u64) -> Option<u64> {
        let head = self.pending.front()?;
        if self.occupancy_words + head.words > self.capacity_words {
            self.fuc_blocked = true;
            return None;
        }
        let start = self
            .fuc_free_at
            .max(head.earliest)
            .max(self.space_available_at);
        Some(start + head.words as u64 * cycles_per_word)
    }

    /// Perform the controller move whose completion time was computed by
    /// [`Self::next_move_completion`].
    pub fn do_move(&mut self, completion: u64) {
        let item = self
            .pending
            .pop_front()
            .expect("do_move without pending item");
        self.fuc_free_at = completion;
        self.occupancy_words += item.words;
        self.stats.max_depth_words = self.stats.max_depth_words.max(self.occupancy_words);
        self.stats.entries += 1;
        self.queue.push_back(QueueEntry {
            kind: item.kind,
            mask: item.mask,
            words: item.words,
            ready_at: completion,
            consumed: 0,
        });
    }

    /// Remove the head entry (it has been released), freeing its words at
    /// `release_time`.
    pub fn pop_head(&mut self, release_time: u64) {
        let e = self.queue.pop_front().expect("pop_head on empty queue");
        self.occupancy_words -= e.words;
        if self.fuc_blocked {
            self.space_available_at = self.space_available_at.max(release_time);
            self.fuc_blocked = false;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pasm_isa::Instr;

    fn metas(instrs: &[Instr]) -> Vec<InstrMeta> {
        instrs.iter().map(|&i| InstrMeta::of(i)).collect()
    }

    #[test]
    fn commands_snapshot_mask() {
        let mut fu = FetchUnit::new(64);
        fu.mask = 0b0101;
        fu.command_block(0, &metas(&[Instr::Nop]), 0);
        fu.mask = 0b1111;
        fu.command_data_words(1, 0);
        assert_eq!(fu.pending[0].mask, 0b0101);
        assert_eq!(fu.pending[1].mask, 0b1111);
    }

    #[test]
    fn controller_moves_in_fifo_order() {
        let mut fu = FetchUnit::new(64);
        fu.command_block(0, &metas(&[Instr::Nop, Instr::Halt]), 10);
        let c1 = fu.next_move_completion(2).unwrap();
        assert_eq!(c1, 10 + 2); // NOP = 1 word * 2 cycles, starting at 10
        fu.do_move(c1);
        assert_eq!(fu.queue.len(), 1);
        assert_eq!(fu.queue[0].ready_at, 12);
        let c2 = fu.next_move_completion(2).unwrap();
        assert_eq!(c2, 12 + 2);
        fu.do_move(c2);
        assert!(fu.command_done());
        assert_eq!(fu.occupancy_words, 2);
    }

    #[test]
    fn capacity_blocks_and_pop_unblocks() {
        let mut fu = FetchUnit::new(2);
        fu.command_block(0, &metas(&[Instr::Nop; 3]), 0);
        let c = fu.next_move_completion(1).unwrap();
        fu.do_move(c);
        let c = fu.next_move_completion(1).unwrap();
        fu.do_move(c);
        // Queue full: third word blocked.
        assert!(fu.next_move_completion(1).is_none());
        assert!(fu.fuc_blocked);
        fu.pop_head(100);
        assert!(!fu.fuc_blocked);
        let c = fu.next_move_completion(1).unwrap();
        assert!(
            c >= 100,
            "move resumes only after space appears at t=100, got {c}"
        );
    }

    #[test]
    fn stats_track_depth_and_entries() {
        let mut fu = FetchUnit::new(64);
        fu.command_data_words(3, 0);
        while let Some(c) = fu.next_move_completion(1) {
            fu.do_move(c);
        }
        assert_eq!(fu.stats.entries, 3);
        assert_eq!(fu.stats.max_depth_words, 3);
    }
}
