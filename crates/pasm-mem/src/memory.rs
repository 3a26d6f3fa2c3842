//! Big-endian byte storage for PE and MC memories.

/// Smallest step by which a memory's written prefix grows.
const MIN_GROWTH: usize = 4096;

/// A zero-initialized, big-endian memory of a configured size.
///
/// Addresses are byte addresses; word/long accesses must be even-aligned, as on
/// the MC68000 (odd word access raised an address-error trap on the real CPU —
/// here it panics in debug and is the caller's bug).
///
/// Storage is materialized on demand: only the prefix up to the highest byte
/// written so far is backed by host memory (grown by amortized doubling, at
/// least 4 KiB, at most the configured size), and every byte beyond it reads
/// as zero. Bounds, [`Memory::len`] and every value read are those of a
/// fully allocated zeroed memory of the configured size.
#[derive(Debug, Clone)]
pub struct Memory {
    /// Configured size in bytes: the bound every access is checked against.
    size: usize,
    /// The written prefix; never longer than `size`.
    bytes: Vec<u8>,
}

impl Memory {
    /// A zeroed memory of `size` bytes. Allocates nothing until written.
    pub fn new(size: usize) -> Self {
        Memory {
            size,
            bytes: Vec::new(),
        }
    }

    /// Size in bytes.
    pub fn len(&self) -> usize {
        self.size
    }

    /// True if the memory has zero size.
    pub fn is_empty(&self) -> bool {
        self.size == 0
    }

    fn check(&self, addr: u32, n: u32) {
        assert!(
            (addr as usize) + (n as usize) <= self.size,
            "memory access at {:#X}+{} out of bounds ({} bytes)",
            addr,
            n,
            self.size
        );
    }

    /// Slow path of every read that does not lie inside the written prefix:
    /// bounds-checks against the configured size, then reads the `N` bytes
    /// with zeros past the prefix (a read may straddle its end).
    #[cold]
    #[inline(never)]
    fn read_past<const N: usize>(&self, addr: u32) -> [u8; N] {
        self.check(addr, N as u32);
        let mut out = [0; N];
        let a = (addr as usize).min(self.bytes.len());
        let b = (addr as usize + N).min(self.bytes.len());
        out[..b - a].copy_from_slice(&self.bytes[a..b]);
        out
    }

    /// Slow path of every write that does not lie inside the written prefix:
    /// bounds-checks against the configured size and grows the prefix to
    /// cover the write.
    #[cold]
    #[inline(never)]
    fn write_past(&mut self, addr: u32, src: &[u8]) {
        self.check(addr, src.len() as u32);
        let end = addr as usize + src.len();
        let grown = end.max(2 * self.bytes.len()).max(MIN_GROWTH).min(self.size);
        self.bytes.resize(grown, 0);
        self.bytes[addr as usize..end].copy_from_slice(src);
    }

    #[inline]
    fn read_n<const N: usize>(&self, addr: u32) -> [u8; N] {
        let a = addr as usize;
        match self.bytes.get(a..a + N) {
            Some(s) => s.try_into().expect("an N-byte range is N bytes long"),
            None => self.read_past(addr),
        }
    }

    #[inline]
    fn write_n<const N: usize>(&mut self, addr: u32, v: [u8; N]) {
        let a = addr as usize;
        match self.bytes.get_mut(a..a + N) {
            Some(s) => s.copy_from_slice(&v),
            None => self.write_past(addr, &v),
        }
    }

    /// Read one byte.
    #[inline]
    pub fn read_byte(&self, addr: u32) -> u8 {
        self.read_n::<1>(addr)[0]
    }

    /// Write one byte.
    #[inline]
    pub fn write_byte(&mut self, addr: u32, v: u8) {
        self.write_n(addr, [v]);
    }

    /// Read a big-endian 16-bit word from an even address.
    #[inline]
    pub fn read_word(&self, addr: u32) -> u16 {
        debug_assert!(addr.is_multiple_of(2), "odd word read at {addr:#X}");
        u16::from_be_bytes(self.read_n(addr))
    }

    /// Write a big-endian 16-bit word to an even address.
    #[inline]
    pub fn write_word(&mut self, addr: u32, v: u16) {
        debug_assert!(addr.is_multiple_of(2), "odd word write at {addr:#X}");
        self.write_n(addr, v.to_be_bytes());
    }

    /// Read a big-endian 32-bit long word from an even address.
    #[inline]
    pub fn read_long(&self, addr: u32) -> u32 {
        debug_assert!(addr.is_multiple_of(2), "odd long read at {addr:#X}");
        u32::from_be_bytes(self.read_n(addr))
    }

    /// Write a big-endian 32-bit long word to an even address.
    #[inline]
    pub fn write_long(&mut self, addr: u32, v: u32) {
        debug_assert!(addr.is_multiple_of(2), "odd long write at {addr:#X}");
        self.write_n(addr, v.to_be_bytes());
    }

    /// Read a value of `size` bytes (1, 2, or 4) zero-extended to 32 bits.
    pub fn read(&self, addr: u32, size: Size) -> u32 {
        match size {
            Size::Byte => self.read_byte(addr) as u32,
            Size::Word => self.read_word(addr) as u32,
            Size::Long => self.read_long(addr),
        }
    }

    /// Write the low `size` bytes of `v`.
    pub fn write(&mut self, addr: u32, v: u32, size: Size) {
        match size {
            Size::Byte => self.write_byte(addr, v as u8),
            Size::Word => self.write_word(addr, v as u16),
            Size::Long => self.write_long(addr, v),
        }
    }

    /// Bulk-load 16-bit words starting at `addr` (test/workload setup helper).
    pub fn load_words(&mut self, addr: u32, words: &[u16]) {
        for (i, w) in words.iter().enumerate() {
            self.write_word(addr + 2 * i as u32, *w);
        }
    }

    /// Bulk-read `count` 16-bit words starting at `addr`.
    pub fn dump_words(&self, addr: u32, count: usize) -> Vec<u16> {
        (0..count)
            .map(|i| self.read_word(addr + 2 * i as u32))
            .collect()
    }

    /// Zero a byte range. Bytes past the written prefix already read as zero.
    pub fn clear_range(&mut self, addr: u32, len: u32) {
        self.check(addr, len);
        let end = (addr as usize + len as usize).min(self.bytes.len());
        if let Some(s) = self.bytes.get_mut(addr as usize..end) {
            s.fill(0);
        }
    }
}

pub use pasm_isa::Size;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn big_endian_layout() {
        let mut m = Memory::new(16);
        m.write_word(0, 0x1234);
        assert_eq!(m.read_byte(0), 0x12);
        assert_eq!(m.read_byte(1), 0x34);
        m.write_long(4, 0xDEADBEEF);
        assert_eq!(m.read_word(4), 0xDEAD);
        assert_eq!(m.read_word(6), 0xBEEF);
        assert_eq!(m.read_long(4), 0xDEADBEEF);
    }

    #[test]
    fn sized_access() {
        let mut m = Memory::new(8);
        m.write(0, 0xAABBCCDD, Size::Long);
        assert_eq!(m.read(0, Size::Byte), 0xAA);
        assert_eq!(m.read(0, Size::Word), 0xAABB);
        assert_eq!(m.read(0, Size::Long), 0xAABBCCDD);
        m.write(2, 0x11, Size::Byte);
        assert_eq!(m.read(0, Size::Long), 0xAABB11DD);
    }

    #[test]
    fn bulk_words_roundtrip() {
        let mut m = Memory::new(64);
        let data = [1u16, 2, 3, 0xFFFF];
        m.load_words(8, &data);
        assert_eq!(m.dump_words(8, 4), data);
        m.clear_range(8, 8);
        assert_eq!(m.dump_words(8, 4), [0, 0, 0, 0]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_panics() {
        let m = Memory::new(4);
        m.read_long(2);
    }

    #[test]
    fn len_and_empty() {
        assert_eq!(Memory::new(128).len(), 128);
        assert!(Memory::new(0).is_empty());
    }

    #[test]
    fn new_allocates_nothing_and_reads_zero() {
        let m = Memory::new(1 << 20);
        assert!(m.bytes.is_empty());
        assert_eq!(m.len(), 1 << 20);
        assert_eq!(m.read_long((1 << 20) - 4), 0);
        assert_eq!(m.dump_words(0x8000, 4), [0; 4]);
        assert!(m.bytes.is_empty(), "reads must not materialize storage");
    }

    #[test]
    fn prefix_grows_by_doubling_within_the_configured_size() {
        let mut m = Memory::new(1 << 20);
        m.write_byte(0, 1);
        assert_eq!(m.bytes.len(), MIN_GROWTH);
        m.write_word(MIN_GROWTH as u32, 2);
        assert_eq!(m.bytes.len(), 2 * MIN_GROWTH);
        // A write far past the prefix grows just enough to cover it.
        m.write_long(0x9000, 3);
        assert_eq!(m.bytes.len(), 0x9004);
        m.write_byte((1 << 20) - 1, 4);
        assert_eq!(m.bytes.len(), 1 << 20);
        let mut small = Memory::new(10);
        small.write_byte(0, 1);
        assert_eq!(small.bytes.len(), 10, "growth is capped at the size");
    }

    #[test]
    fn long_read_straddles_the_end_of_the_prefix() {
        let mut m = Memory::new(1 << 16);
        m.write_long(5000, 0x1122_3344);
        assert_eq!(m.bytes.len(), 5004);
        assert_eq!(m.read_long(5002), 0x3344_0000);
        assert_eq!(m.read_word(5004), 0);
        assert_eq!(m.read_long(5000), 0x1122_3344);
    }

    #[test]
    fn writes_at_the_last_valid_byte() {
        let mut m = Memory::new(3 * MIN_GROWTH + 6);
        let last = m.len() as u32 - 1;
        m.write_byte(last, 0xEE);
        assert_eq!(m.read_byte(last), 0xEE);
        assert_eq!(m.bytes.len(), m.len());
        m.write_word(last - 1, 0xABCD);
        m.write_long(last - 5, 0x0102_0304);
        assert_eq!(m.read_long(last - 3), 0x0304_ABCD);
    }

    #[test]
    fn clear_range_past_the_prefix() {
        let mut m = Memory::new(1 << 16);
        m.load_words(MIN_GROWTH as u32 - 4, &[0xAAAA, 0xBBBB]);
        assert_eq!(m.bytes.len(), MIN_GROWTH);
        m.clear_range(MIN_GROWTH as u32 - 2, 100);
        assert_eq!(m.dump_words(MIN_GROWTH as u32 - 4, 2), [0xAAAA, 0]);
        m.clear_range(2 * MIN_GROWTH as u32, 100);
        assert_eq!(m.bytes.len(), MIN_GROWTH, "clearing never grows");
        m.clear_range(0, 1 << 16);
        assert_eq!(m.read_word(MIN_GROWTH as u32 - 4), 0);
    }

    /// Seeded random byte, word and long reads and writes, `clear_range`,
    /// `load_words`, `dump_words` and clones against a flat `Vec<u8>` model
    /// of the same size. Addresses cluster around the end of the written
    /// prefix and the end of the memory, where the demand-grown layout
    /// differs from a flat one.
    #[test]
    fn matches_a_flat_reference_under_random_access() {
        use pasm_util::Rng;
        for seed in 0..48u64 {
            let mut rng = Rng::seed_from_u64(seed);
            let sizes = [1 << 16, 3 * MIN_GROWTH + 6, 2 * MIN_GROWTH, 1030];
            let size = sizes[rng.gen_range(sizes.len())];
            let mut m = Memory::new(size);
            let mut flat = vec![0u8; size];
            for step in 0..1500 {
                let width = [1usize, 2, 4][rng.gen_range(3)];
                let base = match rng.gen_range(4) {
                    0 => rng.gen_range(size),
                    1 => m.bytes.len(),
                    2 => size,
                    _ => rng.gen_range(64),
                };
                let addr = (base + rng.gen_range(9))
                    .saturating_sub(4)
                    .min(size - width);
                let addr = if width > 1 { addr & !1 } else { addr };
                let a = addr as u32;
                match rng.gen_range(6) {
                    0 => {
                        let v = rng.gen_u32();
                        m.write(a, v, [Size::Byte, Size::Word, Size::Long][width / 2]);
                        let be = v.to_be_bytes();
                        flat[addr..addr + width].copy_from_slice(&be[4 - width..]);
                    }
                    1 => {
                        let want = flat[addr..addr + width]
                            .iter()
                            .fold(0u32, |v, &b| (v << 8) | b as u32);
                        let sz = [Size::Byte, Size::Word, Size::Long][width / 2];
                        assert_eq!(m.read(a, sz), want, "seed {seed} step {step}");
                    }
                    2 => {
                        let len = rng.gen_range(size - addr + 1);
                        m.clear_range(a, len as u32);
                        flat[addr..addr + len].fill(0);
                    }
                    3 => {
                        let a = a & !1;
                        let n = rng.gen_range((size - a as usize) / 2 + 1).min(40);
                        let words: Vec<u16> = (0..n).map(|_| rng.gen_u16()).collect();
                        m.load_words(a, &words);
                        for (k, w) in words.iter().enumerate() {
                            let o = a as usize + 2 * k;
                            flat[o..o + 2].copy_from_slice(&w.to_be_bytes());
                        }
                    }
                    4 => {
                        let a = a & !1;
                        let n = rng.gen_range((size - a as usize) / 2 + 1).min(40);
                        let want: Vec<u16> = (0..n)
                            .map(|k| {
                                let o = a as usize + 2 * k;
                                u16::from_be_bytes([flat[o], flat[o + 1]])
                            })
                            .collect();
                        assert_eq!(m.dump_words(a, n), want, "seed {seed} step {step}");
                    }
                    _ => m = m.clone(),
                }
                assert!(m.bytes.len() <= size);
            }
            let copy = m.clone();
            assert_eq!(copy.len(), size);
            for (addr, &b) in flat.iter().enumerate() {
                assert_eq!(m.read_byte(addr as u32), b, "seed {seed} byte {addr:#X}");
                assert_eq!(
                    copy.read_byte(addr as u32),
                    b,
                    "seed {seed} clone {addr:#X}"
                );
            }
        }
    }

    /// A memory whose written prefix is shorter than its size.
    fn partly_written() -> Memory {
        let mut m = Memory::new(2 * MIN_GROWTH);
        m.write_byte(0, 1);
        assert_eq!(m.bytes.len(), MIN_GROWTH);
        m
    }

    #[test]
    #[should_panic(expected = "out of bounds (8192 bytes)")]
    fn read_past_the_size_panics_although_the_prefix_is_shorter() {
        partly_written().read_long(2 * MIN_GROWTH as u32 - 2);
    }

    #[test]
    #[should_panic(expected = "out of bounds (8192 bytes)")]
    fn byte_read_at_the_size_panics() {
        partly_written().read_byte(2 * MIN_GROWTH as u32);
    }

    #[test]
    #[should_panic(expected = "out of bounds (8192 bytes)")]
    fn write_past_the_size_panics() {
        partly_written().write_word(2 * MIN_GROWTH as u32, 7);
    }

    #[test]
    #[should_panic(expected = "out of bounds (8192 bytes)")]
    fn clear_range_past_the_size_panics() {
        partly_written().clear_range(MIN_GROWTH as u32, MIN_GROWTH as u32 + 1);
    }
}
