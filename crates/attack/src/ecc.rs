//! Error-corrected LSB payloads: CRC-guarded interleaved repetition and
//! Hamming(7,4) coding over the [`crate::lsb`] channel.
//!
//! The raw LSB attack of §II-B dies to *any* perturbation of the released
//! weights. These codes buy it a measurable flip budget: the payload (plus
//! a CRC-32 integrity tag) is expanded into a redundant bit stream, block
//! interleaved so that a contiguous burst of damaged weights touches each
//! code block at most once, and embedded with the existing carrier
//! machinery. Extraction reverses the pipeline, corrects what the code can
//! correct, counts what it corrected, and verifies the CRC so the
//! adversary knows whether the recovered bytes are trustworthy.
//!
//! Guarantees (see the proptests): with [`Ecc::Repetition`] at `copies`
//! and frame bit-length `L`, any set of flips that hits each frame bit in
//! fewer than `⌈copies/2⌉` of its copies is corrected — in particular any
//! contiguous burst shorter than `L` bits. [`Ecc::Hamming74`] corrects one
//! flip per 7-bit codeword, i.e. any burst shorter than the codeword
//! count.

use crate::{AttackError, Result};

/// The error-correcting code protecting an LSB payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ecc {
    /// Each frame bit is stored `copies` times (odd, ≥ 3), copy-major so
    /// the copies sit maximally far apart; decoded by majority vote.
    Repetition {
        /// Number of copies per bit.
        copies: usize,
    },
    /// Hamming(7,4): every payload nibble becomes a 7-bit codeword that
    /// corrects any single flipped bit; codewords are block interleaved.
    Hamming74,
}

impl Ecc {
    /// Checks the code configuration (repetition copy counts must be odd
    /// and at least 3).
    ///
    /// # Errors
    ///
    /// Returns [`AttackError::InvalidGroups`] describing the bad
    /// parameter.
    pub fn validate(&self) -> Result<()> {
        if let Ecc::Repetition { copies } = *self {
            if copies < 3 || copies % 2 == 0 {
                return Err(AttackError::InvalidGroups {
                    reason: format!("repetition copies {copies} must be odd and >= 3"),
                });
            }
        }
        Ok(())
    }

    /// Picks an ECC budget sized to a measured raw bit-error rate.
    ///
    /// The brackets come from the `for_ber_budgets_hold_at_their_rated_ber`
    /// test, which decodes a 32-byte payload under seeded random flips:
    ///
    /// | budget | expansion | measured ceiling (worst BER with CRC-clean decode) |
    /// |---|---|---|
    /// | [`Ecc::Hamming74`] | 1.75× | ~1% — blocks fail at two flips per 7-bit codeword (≈ 21·p²) |
    /// | `Repetition { copies: 5 }` | 5× | ~5% — per-bit failure ≈ 10·p³ |
    /// | `Repetition { copies: 9 }` | 9× | ~12% — majority of 9 needs 5 aligned flips |
    ///
    /// Above ~20% raw BER the channel is effectively random and no budget
    /// the carrier can afford recovers it; callers should treat the CRC
    /// failure as the answer.
    #[must_use]
    pub fn for_ber(ber: f64) -> Ecc {
        if ber <= 0.01 {
            Ecc::Hamming74
        } else if ber <= 0.05 {
            Ecc::Repetition { copies: 5 }
        } else {
            Ecc::Repetition { copies: 9 }
        }
    }

    /// Coded length in bits for a frame of `frame_bits` bits.
    fn coded_bits(&self, frame_bits: usize) -> usize {
        match *self {
            Ecc::Repetition { copies } => frame_bits * copies,
            // Frames are whole bytes, so frame_bits is a multiple of 4.
            Ecc::Hamming74 => frame_bits / 4 * 7,
        }
    }
}

/// What an error-corrected extraction found out about the channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EccReport {
    /// Number of bit errors the code corrected.
    pub corrected_bits: usize,
    /// Whether the recovered payload's CRC-32 matched — the adversary's
    /// signal that the flip budget was not exceeded.
    pub crc_ok: bool,
}

/// CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`) of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &byte in data {
        crc ^= u32::from(byte);
        for _ in 0..8 {
            let low = crc & 1;
            crc >>= 1;
            if low == 1 {
                crc ^= 0xEDB8_8320;
            }
        }
    }
    !crc
}

fn bytes_to_bits(bytes: &[u8]) -> Vec<bool> {
    let mut bits = Vec::with_capacity(bytes.len() * 8);
    for &b in bytes {
        for i in 0..8 {
            bits.push((b >> i) & 1 == 1);
        }
    }
    bits
}

fn bits_to_bytes(bits: &[bool]) -> Vec<u8> {
    let mut bytes = vec![0u8; bits.len().div_ceil(8)];
    for (i, &bit) in bits.iter().enumerate() {
        if bit {
            bytes[i / 8] |= 1 << (i % 8);
        }
    }
    bytes
}

/// Block interleaver: treats `bits` as a `rows × cols` matrix written
/// row-major and reads it out column-major, so the `cols` bits of one row
/// (codeword / copy set) end up `rows` positions apart.
fn interleave(bits: &[bool], cols: usize) -> Vec<bool> {
    let rows = bits.len() / cols;
    let mut out = Vec::with_capacity(bits.len());
    for c in 0..cols {
        for r in 0..rows {
            out.push(bits[r * cols + c]);
        }
    }
    out
}

fn deinterleave(bits: &[bool], cols: usize) -> Vec<bool> {
    let rows = bits.len() / cols;
    let mut out = vec![false; bits.len()];
    let mut pos = 0;
    for c in 0..cols {
        for r in 0..rows {
            out[r * cols + c] = bits[pos];
            pos += 1;
        }
    }
    out
}

/// Encodes one nibble (low 4 bits of `d`) into a 7-bit Hamming codeword
/// `[p1, p2, d1, p3, d2, d3, d4]`.
fn hamming_encode_nibble(d: u8) -> [bool; 7] {
    let d1 = d & 1 == 1;
    let d2 = (d >> 1) & 1 == 1;
    let d3 = (d >> 2) & 1 == 1;
    let d4 = (d >> 3) & 1 == 1;
    let p1 = d1 ^ d2 ^ d4;
    let p2 = d1 ^ d3 ^ d4;
    let p3 = d2 ^ d3 ^ d4;
    [p1, p2, d1, p3, d2, d3, d4]
}

/// Decodes a 7-bit codeword, correcting at most one flipped bit. Returns
/// the nibble and whether a correction happened.
fn hamming_decode_nibble(cw: &[bool]) -> (u8, bool) {
    let mut cw = [cw[0], cw[1], cw[2], cw[3], cw[4], cw[5], cw[6]];
    let s1 = cw[0] ^ cw[2] ^ cw[4] ^ cw[6];
    let s2 = cw[1] ^ cw[2] ^ cw[5] ^ cw[6];
    let s3 = cw[3] ^ cw[4] ^ cw[5] ^ cw[6];
    let syndrome = usize::from(s1) | usize::from(s2) << 1 | usize::from(s3) << 2;
    let corrected = syndrome != 0;
    if corrected {
        cw[syndrome - 1] = !cw[syndrome - 1];
    }
    let nibble =
        u8::from(cw[2]) | u8::from(cw[4]) << 1 | u8::from(cw[5]) << 2 | u8::from(cw[6]) << 3;
    (nibble, corrected)
}

/// Number of *coded* bytes [`encode`] produces for a `payload_len`-byte
/// payload (frame = payload + 4 CRC bytes).
pub fn coded_len(payload_len: usize, ecc: &Ecc) -> usize {
    ecc.coded_bits((payload_len + 4) * 8).div_ceil(8)
}

/// Expands `payload` into a CRC-guarded, ECC-coded, interleaved byte
/// stream ready for [`crate::lsb::embed`].
///
/// # Errors
///
/// Returns [`AttackError::InvalidGroups`] for an invalid code
/// configuration or [`AttackError::InconsistentImages`] for an empty
/// payload.
pub fn encode(payload: &[u8], ecc: &Ecc) -> Result<Vec<u8>> {
    ecc.validate()?;
    if payload.is_empty() {
        return Err(AttackError::InconsistentImages {
            reason: "empty ECC payload".to_string(),
        });
    }
    let mut frame = payload.to_vec();
    frame.extend_from_slice(&crc32(payload).to_le_bytes());
    let frame_bits = bytes_to_bits(&frame);
    let coded = match *ecc {
        Ecc::Repetition { copies } => {
            // Copy-major: all first copies, then all second copies, … —
            // equivalent to a frame_bits × copies block interleave.
            let mut out = Vec::with_capacity(frame_bits.len() * copies);
            for _ in 0..copies {
                out.extend_from_slice(&frame_bits);
            }
            out
        }
        Ecc::Hamming74 => {
            let mut codewords = Vec::with_capacity(frame_bits.len() / 4 * 7);
            for chunk in frame.iter().flat_map(|&b| [b & 0xF, b >> 4]) {
                codewords.extend_from_slice(&hamming_encode_nibble(chunk));
            }
            interleave(&codewords, 7)
        }
    };
    Ok(bits_to_bytes(&coded))
}

/// Recovers a `payload_len`-byte payload from [`encode`] output, majority
/// voting / syndrome correcting as the code allows.
///
/// # Errors
///
/// Returns [`AttackError::InvalidGroups`] for an invalid code
/// configuration or [`AttackError::PayloadTooLarge`] if `coded` is shorter
/// than the code requires.
pub fn decode(coded: &[u8], payload_len: usize, ecc: &Ecc) -> Result<(Vec<u8>, EccReport)> {
    ecc.validate()?;
    let frame_len = payload_len + 4;
    let n_coded_bits = ecc.coded_bits(frame_len * 8);
    if coded.len() * 8 < n_coded_bits {
        return Err(AttackError::PayloadTooLarge {
            capacity_bits: coded.len() * 8,
            needed_bits: n_coded_bits,
        });
    }
    let bits = &bytes_to_bits(coded)[..n_coded_bits];
    let mut corrected_bits = 0usize;
    let frame_bits = match *ecc {
        Ecc::Repetition { copies } => {
            let l = frame_len * 8;
            (0..l)
                .map(|i| {
                    let votes = (0..copies).filter(|&c| bits[c * l + i]).count();
                    let bit = votes * 2 > copies;
                    // Minority copies were flips the vote overruled.
                    corrected_bits += if bit { copies - votes } else { votes };
                    bit
                })
                .collect::<Vec<bool>>()
        }
        Ecc::Hamming74 => {
            let codewords = deinterleave(bits, 7);
            let mut out = Vec::with_capacity(frame_len * 8);
            for cw in codewords.chunks_exact(7) {
                let (nibble, fixed) = hamming_decode_nibble(cw);
                corrected_bits += usize::from(fixed);
                for i in 0..4 {
                    out.push((nibble >> i) & 1 == 1);
                }
            }
            out
        }
    };
    let frame = bits_to_bytes(&frame_bits);
    let payload = frame[..payload_len].to_vec();
    let tag = u32::from_le_bytes([
        frame[payload_len],
        frame[payload_len + 1],
        frame[payload_len + 2],
        frame[payload_len + 3],
    ]);
    let crc_ok = crc32(&payload) == tag;
    Ok((
        payload,
        EccReport {
            corrected_bits,
            crc_ok,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn payload(n: usize) -> Vec<u8> {
        (0..n).map(|i| (i * 37 + 11) as u8).collect()
    }

    #[test]
    fn crc32_known_vector() {
        // The classic check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(&[]), 0);
    }

    #[test]
    fn clean_round_trip_both_codes() {
        let data = payload(40);
        for ecc in [Ecc::Repetition { copies: 3 }, Ecc::Hamming74] {
            let coded = encode(&data, &ecc).unwrap();
            assert_eq!(coded.len(), coded_len(data.len(), &ecc));
            let (back, report) = decode(&coded, data.len(), &ecc).unwrap();
            assert_eq!(back, data, "{ecc:?}");
            assert!(report.crc_ok);
            assert_eq!(report.corrected_bits, 0);
        }
    }

    #[test]
    fn repetition_corrects_bursts() {
        let data = payload(32);
        let ecc = Ecc::Repetition { copies: 3 };
        let frame_bits = (data.len() + 4) * 8;
        let mut coded = encode(&data, &ecc).unwrap();
        // A burst shorter than the frame hits each bit's copies at most
        // once; flip a whole frame-length-minus-one window.
        for bit in 17..17 + frame_bits - 1 {
            coded[bit / 8] ^= 1 << (bit % 8);
        }
        let (back, report) = decode(&coded, data.len(), &ecc).unwrap();
        assert_eq!(back, data);
        assert!(report.crc_ok);
        assert_eq!(report.corrected_bits, frame_bits - 1);
    }

    #[test]
    fn hamming_corrects_one_flip_per_codeword() {
        let data = payload(16);
        let ecc = Ecc::Hamming74;
        let mut coded = encode(&data, &ecc).unwrap();
        let codewords = (data.len() + 4) * 2;
        // Interleaved layout: bit `i` of the stream belongs to codeword
        // `i % codewords`, so a burst of `codewords` bits hits each
        // codeword exactly once.
        for bit in 5..5 + codewords {
            coded[bit / 8] ^= 1 << (bit % 8);
        }
        let (back, report) = decode(&coded, data.len(), &ecc).unwrap();
        assert_eq!(back, data);
        assert!(report.crc_ok);
        assert_eq!(report.corrected_bits, codewords);
    }

    #[test]
    fn crc_flags_uncorrectable_damage() {
        let data = payload(24);
        let ecc = Ecc::Repetition { copies: 3 };
        let mut coded = encode(&data, &ecc).unwrap();
        let l = (data.len() + 4) * 8;
        // Hit the same frame bit in two of its three copies: the vote
        // flips the bit and the CRC catches it.
        for copy in 0..2 {
            let bit = copy * l + 9;
            coded[bit / 8] ^= 1 << (bit % 8);
        }
        let (back, report) = decode(&coded, data.len(), &ecc).unwrap();
        assert_ne!(back, data);
        assert!(!report.crc_ok);
    }

    #[test]
    fn hamming_flags_a_burst_longer_than_the_codeword_count() {
        let data = payload(16);
        let ecc = Ecc::Hamming74;
        let mut coded = encode(&data, &ecc).unwrap();
        let codewords = (data.len() + 4) * 2;
        // One codeword-count-sized burst is the exact repair ceiling; a
        // burst half again as long lands a second flip in some codewords,
        // which Hamming(7,4) miscorrects and the CRC must catch.
        for bit in 0..codewords + codewords / 2 {
            coded[bit / 8] ^= 1 << (bit % 8);
        }
        let (_, report) = decode(&coded, data.len(), &ecc).unwrap();
        assert!(!report.crc_ok);
    }

    /// Seeded random flips at rate `ber` over the coded stream — the
    /// measurement behind the [`Ecc::for_ber`] brackets.
    fn decodes_under_ber(ecc: Ecc, ber: f64, seed: u64) -> bool {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        let data = payload(32);
        let mut coded = encode(&data, &ecc).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        for bit in 0..coded.len() * 8 {
            if rng.random_bool(ber) {
                coded[bit / 8] ^= 1 << (bit % 8);
            }
        }
        let (back, report) = decode(&coded, data.len(), &ecc).unwrap();
        report.crc_ok && back == data
    }

    #[test]
    fn for_ber_budgets_hold_at_their_rated_ber() {
        // Ceilings are probabilistic: at the rated BER a budget must
        // decode the large majority of (seeded, deterministic) channel
        // draws, and comfortably below it all of them.
        let survival = |ecc: Ecc, ber: f64| -> usize {
            (0..10u64)
                .filter(|&s| decodes_under_ber(ecc, ber, s))
                .count()
        };
        assert_eq!(survival(Ecc::for_ber(0.002), 0.002), 10);
        assert!(survival(Ecc::for_ber(0.01), 0.01) >= 8);
        assert!(survival(Ecc::for_ber(0.04), 0.04) >= 8);
        assert!(survival(Ecc::for_ber(0.10), 0.10) >= 8);
        // The cheap budget must NOT be rated for the harsh channel —
        // otherwise the adaptive ladder is pointless.
        assert!(survival(Ecc::Hamming74, 0.10) <= 2);
    }

    #[test]
    fn validation_errors() {
        assert!(encode(&[], &Ecc::Hamming74).is_err());
        assert!(encode(&[1], &Ecc::Repetition { copies: 2 }).is_err());
        assert!(encode(&[1], &Ecc::Repetition { copies: 1 }).is_err());
        let coded = encode(&[1, 2], &Ecc::Hamming74).unwrap();
        assert!(decode(&coded[..2], 2, &Ecc::Hamming74).is_err());
    }
}
