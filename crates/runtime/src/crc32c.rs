//! CRC32C (Castagnoli): the SSE4.2 `crc32` instruction, with a software
//! slice-by-8 kernel as the other arm and as its test oracle.
//!
//! The end-to-end integrity layer of the transport checksums every wire
//! frame's header and payload (window epochs included) with CRC32C — the
//! polynomial chosen by iSCSI, ext4 and Btrfs for exactly this job:
//! detecting the single- and few-bit flips that TCP's 16-bit checksum
//! and silent DRAM corruption let through. The workspace's x86-64-v2
//! baseline includes SSE4.2, so an x86-64 build takes the instruction
//! without a run-time check; any other target runs the slice-by-8 kernel,
//! whose eight 256-entry tables a `const` evaluator builds at compile
//! time. No external crate either way.
//!
//! Guarantees relied on by the tests and the chaos matrix: CRC32C
//! detects **every** single-bit error and every burst error up to 32
//! bits, for any message length — so a `flip-bit` fault injected after
//! the checksum is sealed is detected with certainty, not probability.

/// The Castagnoli polynomial, reversed (LSB-first) representation.
const POLY: u32 = 0x82F6_3B78;

/// Eight lookup tables: `TABLES[0]` is the classic byte-at-a-time table,
/// `TABLES[k][b]` is the CRC of byte `b` followed by `k` zero bytes.
static TABLES: [[u32; 256]; 8] = build_tables();

const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut b = 0usize;
    while b < 256 {
        let mut crc = b as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ POLY } else { crc >> 1 };
            bit += 1;
        }
        tables[0][b] = crc;
        b += 1;
    }
    let mut t = 1usize;
    while t < 8 {
        let mut b = 0usize;
        while b < 256 {
            let prev = tables[t - 1][b];
            tables[t][b] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            b += 1;
        }
        t += 1;
    }
    tables
}

/// CRC32C of `data` (initial value 0, output XOR-finalized — the
/// standard Castagnoli convention, matching RFC 3720's test vectors).
#[inline]
pub fn crc32c(data: &[u8]) -> u32 {
    crc32c_append(0, data)
}

/// Continues a CRC32C over more data: `crc32c_append(crc32c(a), b)`
/// equals `crc32c` of `a` followed by `b`.
#[cfg(all(target_arch = "x86_64", target_feature = "sse4.2"))]
pub fn crc32c_append(crc: u32, data: &[u8]) -> u32 {
    use std::arch::x86_64::{_mm_crc32_u64, _mm_crc32_u8};
    let mut chunks = data.chunks_exact(8);
    // SAFETY: `crc32` is an SSE4.2 instruction, and this function exists
    // only under `cfg(target_feature = "sse4.2")`.
    unsafe {
        let mut crc = !crc as u64;
        for chunk in &mut chunks {
            crc = _mm_crc32_u64(crc, u64::from_le_bytes(chunk.try_into().unwrap()));
        }
        let mut crc = crc as u32;
        for &byte in chunks.remainder() {
            crc = _mm_crc32_u8(crc, byte);
        }
        !crc
    }
}

/// Continues a CRC32C over more data: `crc32c_append(crc32c(a), b)`
/// equals `crc32c` of `a` followed by `b`.
#[cfg(not(all(target_arch = "x86_64", target_feature = "sse4.2")))]
pub fn crc32c_append(crc: u32, data: &[u8]) -> u32 {
    slice_by_8(crc, data)
}

/// The software kernel: eight input bytes a step through [`TABLES`]
/// (the hardware arm's test oracle on x86-64).
#[cfg_attr(all(target_arch = "x86_64", target_feature = "sse4.2"), allow(dead_code))]
fn slice_by_8(crc: u32, data: &[u8]) -> u32 {
    let mut crc = !crc;
    let mut chunks = data.chunks_exact(8);
    for chunk in &mut chunks {
        let lo = u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]) ^ crc;
        let hi = u32::from_le_bytes([chunk[4], chunk[5], chunk[6], chunk[7]]);
        crc = TABLES[7][(lo & 0xFF) as usize]
            ^ TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ TABLES[4][(lo >> 24) as usize]
            ^ TABLES[3][(hi & 0xFF) as usize]
            ^ TABLES[2][((hi >> 8) & 0xFF) as usize]
            ^ TABLES[1][((hi >> 16) & 0xFF) as usize]
            ^ TABLES[0][(hi >> 24) as usize];
    }
    for &byte in chunks.remainder() {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ byte as u32) & 0xFF) as usize];
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Bit-at-a-time reference implementation.
    fn crc32c_ref(data: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &byte in data {
            crc ^= byte as u32;
            for _ in 0..8 {
                crc = if crc & 1 != 0 { (crc >> 1) ^ POLY } else { crc >> 1 };
            }
        }
        !crc
    }

    #[test]
    fn known_vectors() {
        // RFC 3720 appendix B.4 test vectors.
        assert_eq!(crc32c(&[]), 0);
        assert_eq!(crc32c(b"123456789"), 0xE306_9283);
        assert_eq!(crc32c(&[0u8; 32]), 0x8A91_36AA);
        assert_eq!(crc32c(&[0xFFu8; 32]), 0x62A8_AB43);
        let ascending: Vec<u8> = (0..32u8).collect();
        assert_eq!(crc32c(&ascending), 0x46DD_794E);
    }

    #[test]
    fn slice_by_8_matches_bitwise_reference() {
        // Cover every (length mod 8) alignment and the chunked kernel.
        let data: Vec<u8> = (0..257u32).map(|i| (i.wrapping_mul(167) >> 3) as u8).collect();
        for len in 0..data.len() {
            assert_eq!(slice_by_8(0, &data[..len]), crc32c_ref(&data[..len]), "len {len}");
            assert_eq!(crc32c(&data[..len]), crc32c_ref(&data[..len]), "len {len}");
        }
    }

    #[test]
    fn kernel_matches_slice_by_8_at_every_length_and_alignment() {
        let data: Vec<u8> = (0..264u32).map(|i| (i.wrapping_mul(167) >> 3) as u8).collect();
        for offset in 0..8 {
            for len in 0..=256 {
                let bytes = &data[offset..offset + len];
                for seed in [0, 0x1234_5678, u32::MAX] {
                    assert_eq!(
                        crc32c_append(seed, bytes),
                        slice_by_8(seed, bytes),
                        "{offset} {len}"
                    );
                }
            }
        }
        // Random buffers, a xorshift stream.
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for len in [1000, 4096, 65_537] {
            let bytes: Vec<u8> = (0..len)
                .map(|_| {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    x as u8
                })
                .collect();
            assert_eq!(crc32c(&bytes), slice_by_8(0, &bytes), "len {len}");
        }
    }

    #[test]
    fn append_composes() {
        let data = b"the quick brown fox jumps over the lazy dog";
        for split in 0..data.len() {
            let (a, b) = data.split_at(split);
            assert_eq!(crc32c_append(crc32c(a), b), crc32c(data), "split {split}");
        }
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        let data: Vec<u8> = (0..64u8).map(|i| i.wrapping_mul(37)).collect();
        let clean = crc32c(&data);
        let mut flipped = data.clone();
        for byte in 0..data.len() {
            for bit in 0..8 {
                flipped[byte] ^= 1 << bit;
                assert_ne!(crc32c(&flipped), clean, "flip at byte {byte} bit {bit}");
                flipped[byte] ^= 1 << bit;
            }
        }
        assert_eq!(flipped, data);
    }
}
