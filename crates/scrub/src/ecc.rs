//! Hamming SECDED (72,64) — the error-control coding the paper's FLASH
//! module uses "to mitigate SEUs that might occur while the memory is
//! being accessed" (§II).
//!
//! 64 data bits are spread over a 72-bit codeword: 7 Hamming check bits at
//! power-of-two positions plus one overall-parity bit. Single-bit errors
//! (data *or* check) are corrected; double-bit errors are detected.

/// Decode outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EccOutcome {
    /// Codeword was clean.
    Clean,
    /// A single-bit error was corrected.
    Corrected,
    /// An uncorrectable (double-bit) error was detected.
    Uncorrectable,
}

/// A 72-bit SECDED codeword: 64 data bits + 8 check bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CodeWord {
    pub data: u64,
    pub check: u8,
}

/// 1-based codeword positions of the 64 data bits: 3..=71, skipping the
/// power-of-two positions, which hold check bits. Built at compile time.
const POSITIONS: [usize; 64] = {
    let mut p = [0usize; 64];
    let mut pos = 0usize;
    let mut i = 0;
    while i < 64 {
        pos += 1;
        if !pos.is_power_of_two() {
            p[i] = pos;
            i += 1;
        }
    }
    p
};

/// `PARITY_MASKS[c]` selects the data bits whose codeword position has bit
/// `c` set — the bits Hamming check bit `c` covers.
const PARITY_MASKS: [u64; 7] = {
    let mut masks = [0u64; 7];
    let mut i = 0;
    while i < 64 {
        let mut c = 0;
        while c < 7 {
            if POSITIONS[i] & (1 << c) != 0 {
                masks[c] |= 1 << i;
            }
            c += 1;
        }
        i += 1;
    }
    masks
};

/// Encode 64 data bits into a SECDED codeword.
pub fn encode(data: u64) -> CodeWord {
    // Hamming check bits p1..p64 (7 of them): each is the parity of the
    // data bits it covers.
    let mut check = 0u8;
    for (c, mask) in PARITY_MASKS.iter().enumerate() {
        check |= (((data & mask).count_ones() & 1) as u8) << c;
    }
    // Overall parity over data + the 7 check bits.
    let overall = (data.count_ones() + u32::from(check).count_ones()) & 1 == 1;
    if overall {
        check |= 0x80;
    }
    CodeWord { data, check }
}

/// Decode a codeword, correcting a single-bit error if present. Returns
/// the (possibly corrected) data and the outcome.
pub fn decode(word: CodeWord) -> (u64, EccOutcome) {
    let recomputed = encode(word.data);
    let syndrome = (recomputed.check ^ word.check) & 0x7f;
    // Overall parity of *all received bits* (data + 7 check bits + parity
    // bit). Odd ⇒ an odd number of bit errors (i.e. a single error for the
    // SECDED guarantee); even with a non-zero syndrome ⇒ double error.
    let received_parity = (word.data.count_ones() + u32::from(word.check).count_ones()) & 1 == 1;
    let parity_err = received_parity;

    if syndrome == 0 && !parity_err {
        return (word.data, EccOutcome::Clean);
    }
    if syndrome == 0 && parity_err {
        // The overall parity bit itself flipped.
        return (word.data, EccOutcome::Corrected);
    }
    if !parity_err {
        // Non-zero syndrome with even overall parity ⇒ double error.
        return (word.data, EccOutcome::Uncorrectable);
    }
    // Single error at codeword position `syndrome`.
    let p = syndrome as usize;
    if p.is_power_of_two() && p <= 64 {
        // A check bit flipped; data is intact.
        return (word.data, EccOutcome::Corrected);
    }
    if let Some(i) = POSITIONS.iter().position(|&q| q == p) {
        return (word.data ^ (1u64 << i), EccOutcome::Corrected);
    }
    (word.data, EccOutcome::Uncorrectable)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The bit-at-a-time reference body of [`encode`], kept only as a test
    /// oracle.
    fn encode_oracle(data: u64) -> CodeWord {
        let mut check = 0u8;
        for c in 0..7 {
            let mask = 1usize << c;
            let mut parity = false;
            for (i, &p) in POSITIONS.iter().enumerate() {
                if p & mask != 0 && (data >> i) & 1 == 1 {
                    parity = !parity;
                }
            }
            if parity {
                check |= 1 << c;
            }
        }
        let overall = (data.count_ones() + u32::from(check).count_ones()) & 1 == 1;
        if overall {
            check |= 0x80;
        }
        CodeWord { data, check }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        #[test]
        fn encode_matches_oracle(data: u64) {
            prop_assert_eq!(encode(data), encode_oracle(data));
        }
    }

    fn sample_words() -> Vec<u64> {
        vec![
            0,
            u64::MAX,
            0xDEAD_BEEF_CAFE_F00D,
            0x0123_4567_89AB_CDEF,
            1,
            1 << 63,
            0x5555_5555_5555_5555,
        ]
    }

    #[test]
    fn clean_roundtrip() {
        for w in sample_words() {
            let cw = encode(w);
            assert_eq!(decode(cw), (w, EccOutcome::Clean));
        }
    }

    #[test]
    fn corrects_any_single_data_bit() {
        for w in sample_words() {
            let cw = encode(w);
            for b in 0..64 {
                let bad = CodeWord {
                    data: cw.data ^ (1 << b),
                    check: cw.check,
                };
                let (fixed, outcome) = decode(bad);
                assert_eq!(outcome, EccOutcome::Corrected, "word {w:#x} bit {b}");
                assert_eq!(fixed, w);
            }
        }
    }

    #[test]
    fn corrects_any_single_check_bit() {
        for w in sample_words() {
            let cw = encode(w);
            for b in 0..8 {
                let bad = CodeWord {
                    data: cw.data,
                    check: cw.check ^ (1 << b),
                };
                let (fixed, outcome) = decode(bad);
                assert_eq!(outcome, EccOutcome::Corrected, "word {w:#x} check {b}");
                assert_eq!(fixed, w);
            }
        }
    }

    #[test]
    fn detects_double_bit_errors() {
        let w = 0xA5A5_5A5A_1234_8765u64;
        let cw = encode(w);
        // Flip pairs of data bits.
        for (a, b) in [(0usize, 1usize), (5, 40), (62, 63), (13, 27)] {
            let bad = CodeWord {
                data: cw.data ^ (1 << a) ^ (1 << b),
                check: cw.check,
            };
            let (_, outcome) = decode(bad);
            assert_eq!(outcome, EccOutcome::Uncorrectable, "pair {a},{b}");
        }
        // Data + check bit.
        let bad = CodeWord {
            data: cw.data ^ 1,
            check: cw.check ^ 2,
        };
        assert_eq!(decode(bad).1, EccOutcome::Uncorrectable);
    }

    #[test]
    fn data_positions_are_distinct_non_powers() {
        let mut seen = std::collections::HashSet::new();
        for &p in POSITIONS.iter() {
            assert!(!p.is_power_of_two(), "data at check position {p}");
            assert!((3..=71).contains(&p));
            assert!(seen.insert(p));
        }
    }
}
