//! A compact bit vector used as the backing store for configuration memory.
//!
//! Configuration memories run to millions of bits (≈5.9 Mbit for the
//! XQVR1000-class geometry), and fault-injection campaigns clone them per
//! worker, so the representation is a plain `Vec<u64>` with no per-bit
//! bookkeeping.

/// A fixed-length vector of bits packed into 64-bit words.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitVec {
    words: Vec<u64>,
    len: usize,
}

impl BitVec {
    /// An all-zero bit vector of `len` bits.
    pub fn zeros(len: usize) -> Self {
        BitVec {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// Number of bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the vector has no bits.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Read bit `i`. Panics if out of range.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "bit index {i} out of range {}", self.len);
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Write bit `i`. Panics if out of range.
    #[inline]
    pub fn set(&mut self, i: usize, v: bool) {
        assert!(i < self.len, "bit index {i} out of range {}", self.len);
        let w = &mut self.words[i / 64];
        let mask = 1u64 << (i % 64);
        if v {
            *w |= mask;
        } else {
            *w &= !mask;
        }
    }

    /// Flip bit `i`, returning its new value.
    #[inline]
    pub fn flip(&mut self, i: usize) -> bool {
        assert!(i < self.len, "bit index {i} out of range {}", self.len);
        self.words[i / 64] ^= 1u64 << (i % 64);
        self.get(i)
    }

    /// Extract up to 64 bits starting at `i` (little-endian within the run).
    /// Bits past the end read as zero.
    #[inline]
    pub fn get_bits(&self, i: usize, n: usize) -> u64 {
        debug_assert!(n <= 64);
        if i >= self.len {
            return 0;
        }
        self.load(i, n.min(self.len - i))
    }

    /// Store the low `n` bits of `v` starting at bit `i`.
    #[inline]
    pub fn set_bits(&mut self, i: usize, n: usize, v: u64) {
        debug_assert!(n <= 64);
        if n == 0 {
            return;
        }
        self.check_range(i, n);
        self.store(i, n, v);
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Serialize a bit range into bytes, LSB-first within each byte.
    pub fn range_to_bytes(&self, start: usize, n: usize) -> Vec<u8> {
        self.check_range(start, n);
        let mut out = vec![0u8; n.div_ceil(8)];
        for (c, chunk) in out.chunks_mut(8).enumerate() {
            let k = c * 64;
            let word = self.load(start + k, (n - k).min(64));
            chunk.copy_from_slice(&word.to_le_bytes()[..chunk.len()]);
        }
        out
    }

    /// Overwrite a bit range from bytes, LSB-first within each byte.
    pub fn range_from_bytes(&mut self, start: usize, n: usize, bytes: &[u8]) {
        assert!(bytes.len() * 8 >= n, "byte slice too short for {n} bits");
        self.check_range(start, n);
        for (c, chunk) in bytes[..n.div_ceil(8)].chunks(8).enumerate() {
            let k = c * 64;
            let mut le = [0u8; 8];
            le[..chunk.len()].copy_from_slice(chunk);
            self.store(start + k, (n - k).min(64), u64::from_le_bytes(le));
        }
    }

    /// Indices of bits that differ between `self` and `other` within a range.
    pub fn diff_range(&self, other: &BitVec, start: usize, n: usize) -> Vec<usize> {
        self.check_range(start, n);
        other.check_range(start, n);
        let mut out = Vec::new();
        for k in (0..n).step_by(64) {
            let m = (n - k).min(64);
            let mut x = self.load(start + k, m) ^ other.load(start + k, m);
            while x != 0 {
                out.push(start + k + x.trailing_zeros() as usize);
                x &= x - 1;
            }
        }
        out
    }

    /// Panics unless `[start, start + n)` lies inside the vector (an empty
    /// range always passes, as it touches no bit).
    #[inline]
    fn check_range(&self, start: usize, n: usize) {
        assert!(
            n == 0 || start + n <= self.len,
            "bit range {start}..{} out of range {}",
            start + n,
            self.len
        );
    }

    /// The `n` (0..=64) bits at `i..i + n`, gathered from at most two
    /// words. The range must lie inside the vector.
    #[inline]
    fn load(&self, i: usize, n: usize) -> u64 {
        let (w, s) = (i / 64, i % 64);
        let mut v = self.words[w] >> s;
        if s + n > 64 {
            v |= self.words[w + 1] << (64 - s);
        }
        v & low_mask(n)
    }

    /// Overwrite bits `i..i + n` (n in 1..=64) with the low `n` bits of
    /// `v`, touching at most two words. The range must lie inside the
    /// vector.
    #[inline]
    fn store(&mut self, i: usize, n: usize, v: u64) {
        let (w, s) = (i / 64, i % 64);
        let v = v & low_mask(n);
        let m = low_mask(n) << s;
        self.words[w] = (self.words[w] & !m) | (v << s);
        if s + n > 64 {
            let m = low_mask(s + n - 64);
            self.words[w + 1] = (self.words[w + 1] & !m) | (v >> (64 - s));
        }
    }
}

/// A word with its low `n` (0..=64) bits set.
#[inline]
fn low_mask(n: usize) -> u64 {
    if n >= 64 {
        u64::MAX
    } else {
        (1u64 << n) - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_flip() {
        let mut bv = BitVec::zeros(130);
        assert!(!bv.get(0));
        bv.set(0, true);
        bv.set(129, true);
        assert!(bv.get(0) && bv.get(129));
        assert_eq!(bv.count_ones(), 2);
        assert!(!bv.flip(0));
        assert_eq!(bv.count_ones(), 1);
    }

    #[test]
    fn get_set_bits_field() {
        let mut bv = BitVec::zeros(100);
        bv.set_bits(10, 16, 0xBEEF);
        assert_eq!(bv.get_bits(10, 16), 0xBEEF);
        assert_eq!(bv.get_bits(10, 8), 0xEF);
        // neighbours untouched
        assert!(!bv.get(9));
        assert!(!bv.get(26));
    }

    #[test]
    fn byte_roundtrip() {
        let mut bv = BitVec::zeros(77);
        for i in (0..77).step_by(3) {
            bv.set(i, true);
        }
        let bytes = bv.range_to_bytes(0, 77);
        let mut bv2 = BitVec::zeros(77);
        bv2.range_from_bytes(0, 77, &bytes);
        assert_eq!(bv, bv2);
    }

    #[test]
    fn diff_range_finds_flips() {
        let mut a = BitVec::zeros(64);
        let b = a.clone();
        a.flip(5);
        a.flip(63);
        assert_eq!(a.diff_range(&b, 0, 64), vec![5, 63]);
        assert_eq!(a.diff_range(&b, 6, 50), Vec::<usize>::new());
    }

    #[test]
    fn bits_past_end_read_zero() {
        let bv = BitVec::zeros(10);
        assert_eq!(bv.get_bits(8, 8), 0);
    }
}

/// Bit-at-a-time reference bodies of the word kernels, kept only as test
/// oracles: each property below drives a kernel and its oracle with the
/// same random vector and range.
#[cfg(test)]
mod oracle {
    use super::BitVec;
    use proptest::prelude::*;

    fn get_bits(bv: &BitVec, i: usize, n: usize) -> u64 {
        let mut out = 0u64;
        for k in 0..n {
            let idx = i + k;
            if idx < bv.len() && bv.get(idx) {
                out |= 1 << k;
            }
        }
        out
    }

    fn set_bits(bv: &mut BitVec, i: usize, n: usize, v: u64) {
        for k in 0..n {
            bv.set(i + k, (v >> k) & 1 == 1);
        }
    }

    fn range_to_bytes(bv: &BitVec, start: usize, n: usize) -> Vec<u8> {
        let mut out = vec![0u8; n.div_ceil(8)];
        for k in 0..n {
            if bv.get(start + k) {
                out[k / 8] |= 1 << (k % 8);
            }
        }
        out
    }

    fn range_from_bytes(bv: &mut BitVec, start: usize, n: usize, bytes: &[u8]) {
        for k in 0..n {
            bv.set(start + k, (bytes[k / 8] >> (k % 8)) & 1 == 1);
        }
    }

    fn diff_range(a: &BitVec, b: &BitVec, start: usize, n: usize) -> Vec<usize> {
        (start..start + n)
            .filter(|&i| a.get(i) != b.get(i))
            .collect()
    }

    /// A vector of `len` bits filled from `seed` (splitmix64 words).
    fn random_bits(len: usize, seed: u64) -> BitVec {
        let mut bv = BitVec::zeros(len);
        let mut s = seed;
        for i in (0..len).step_by(64) {
            s = s.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = s;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            let n = (len - i).min(64);
            set_bits(&mut bv, i, n, z);
        }
        bv
    }

    /// A range inside `0..len` from two raw draws. One case in four ends
    /// exactly at `len`, the rest start and end anywhere, so ranges cross
    /// word boundaries at every alignment.
    fn range_in(len: usize, a: usize, b: usize) -> (usize, usize) {
        let start = a % (len + 1);
        let n = if b % 4 == 0 {
            len - start
        } else {
            b % (len - start + 1)
        };
        (start, n)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn get_bits_matches_oracle(len in 1usize..400, seed: u64, i in 0usize..420, n in 0usize..65) {
            let bv = random_bits(len, seed);
            prop_assert_eq!(bv.get_bits(i, n), get_bits(&bv, i, n), "len {} at {}+{}", len, i, n);
        }

        #[test]
        fn set_bits_matches_oracle(len in 1usize..400, seed: u64, a: usize, n in 0usize..65, v: u64) {
            let start = a % len;
            let n = n.min(len - start);
            let mut fast = random_bits(len, seed);
            let mut slow = fast.clone();
            fast.set_bits(start, n, v);
            set_bits(&mut slow, start, n, v);
            prop_assert_eq!(fast, slow, "len {} at {}+{}", len, start, n);
        }

        #[test]
        fn range_to_bytes_matches_oracle(len in 1usize..700, seed: u64, a: usize, b: usize) {
            let bv = random_bits(len, seed);
            let (start, n) = range_in(len, a, b);
            prop_assert_eq!(bv.range_to_bytes(start, n), range_to_bytes(&bv, start, n));
        }

        #[test]
        fn range_from_bytes_matches_oracle(len in 1usize..700, seed: u64, a: usize, b: usize, pad in 0usize..3) {
            let (start, n) = range_in(len, a, b);
            // Random bytes, possibly longer than the range needs; only the
            // first `n` bits may land.
            let bytes = random_bits(n.div_ceil(8) * 8 + pad * 8, seed ^ 0x5A5A)
                .range_to_bytes(0, n.div_ceil(8) * 8 + pad * 8);
            let mut fast = random_bits(len, seed);
            let mut slow = fast.clone();
            fast.range_from_bytes(start, n, &bytes);
            range_from_bytes(&mut slow, start, n, &bytes);
            prop_assert_eq!(fast, slow, "len {} at {}+{}", len, start, n);
        }

        #[test]
        fn diff_range_matches_oracle(len in 1usize..700, seed: u64, flips in proptest::collection::vec(any::<usize>(), 0..12), a: usize, b: usize) {
            let x = random_bits(len, seed);
            let mut y = x.clone();
            for f in flips {
                y.flip(f % len);
            }
            let (start, n) = range_in(len, a, b);
            prop_assert_eq!(x.diff_range(&y, start, n), diff_range(&x, &y, start, n));
        }
    }
}
