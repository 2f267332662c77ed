//! Checksums of the on-disk format: CRC-32 for single-block structures
//! and XXH64 for a log batch's data blocks.
//!
//! Both are implemented locally so the on-disk format has no dependency
//! on external crate behavior.
//!
//! [`crc32`] (IEEE 802.3 polynomial, slice-by-8) guards the superblock
//! and every summary block. [`xxh64`] guards the data blocks of a batch:
//! every flush pushes up to a segment's worth of data through it, so it
//! has to run at memory speed — the reason it is not another CRC.

/// Slice-by-8 tables for the reflected IEEE polynomial: `TABLES[0]` is
/// the classic byte-at-a-time table, `TABLES[k][b]` the CRC of byte `b`
/// followed by `k` zero bytes.
static TABLES: [[u32; 256]; 8] = build_tables();

const fn build_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            bit += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

/// Computes the CRC-32 of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    let t = &TABLES;
    let mut c = 0xFFFF_FFFFu32;
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let lo = u32::from_le_bytes([w[0], w[1], w[2], w[3]]) ^ c;
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

const XXH_PRIME_1: u64 = 0x9E37_79B1_85EB_CA87;
const XXH_PRIME_2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const XXH_PRIME_3: u64 = 0x1656_67B1_9E37_79F9;
const XXH_PRIME_4: u64 = 0x85EB_CA77_C2B2_AE63;
const XXH_PRIME_5: u64 = 0x27D4_EB2F_1656_67C5;

fn xxh_round(acc: u64, lane: u64) -> u64 {
    acc.wrapping_add(lane.wrapping_mul(XXH_PRIME_2))
        .rotate_left(31)
        .wrapping_mul(XXH_PRIME_1)
}

fn xxh_merge(h: u64, acc: u64) -> u64 {
    (h ^ xxh_round(0, acc))
        .wrapping_mul(XXH_PRIME_1)
        .wrapping_add(XXH_PRIME_4)
}

fn le64(b: &[u8]) -> u64 {
    u64::from_le_bytes(b[..8].try_into().expect("8-byte lane"))
}

/// Computes XXH64 (seed 0) of `data` — the checksum a batch summary
/// stores over the batch's data blocks.
pub fn xxh64(data: &[u8]) -> u64 {
    let mut stripes = data.chunks_exact(32);
    let mut h = if data.len() >= 32 {
        let mut v1 = XXH_PRIME_1.wrapping_add(XXH_PRIME_2);
        let mut v2 = XXH_PRIME_2;
        let mut v3 = 0u64;
        let mut v4 = 0u64.wrapping_sub(XXH_PRIME_1);
        for s in &mut stripes {
            v1 = xxh_round(v1, le64(&s[0..8]));
            v2 = xxh_round(v2, le64(&s[8..16]));
            v3 = xxh_round(v3, le64(&s[16..24]));
            v4 = xxh_round(v4, le64(&s[24..32]));
        }
        let h = v1
            .rotate_left(1)
            .wrapping_add(v2.rotate_left(7))
            .wrapping_add(v3.rotate_left(12))
            .wrapping_add(v4.rotate_left(18));
        xxh_merge(xxh_merge(xxh_merge(xxh_merge(h, v1), v2), v3), v4)
    } else {
        XXH_PRIME_5
    };
    h = h.wrapping_add(data.len() as u64);

    let mut lanes = stripes.remainder().chunks_exact(8);
    for l in &mut lanes {
        h = (h ^ xxh_round(0, le64(l)))
            .rotate_left(27)
            .wrapping_mul(XXH_PRIME_1)
            .wrapping_add(XXH_PRIME_4);
    }
    let mut tail = lanes.remainder();
    if tail.len() >= 4 {
        let w = u32::from_le_bytes(tail[..4].try_into().expect("4-byte lane")) as u64;
        h = (h ^ w.wrapping_mul(XXH_PRIME_1))
            .rotate_left(23)
            .wrapping_mul(XXH_PRIME_2)
            .wrapping_add(XXH_PRIME_3);
        tail = &tail[4..];
    }
    for &b in tail {
        h = (h ^ (b as u64).wrapping_mul(XXH_PRIME_5))
            .rotate_left(11)
            .wrapping_mul(XXH_PRIME_1);
    }

    h ^= h >> 33;
    h = h.wrapping_mul(XXH_PRIME_2);
    h ^= h >> 29;
    h = h.wrapping_mul(XXH_PRIME_3);
    h ^ (h >> 32)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // Standard check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn sensitive_to_single_bit_flip() {
        let mut data = vec![0u8; 4096];
        let a = crc32(&data);
        data[2048] ^= 0x01;
        assert_ne!(a, crc32(&data));
    }

    /// The sliced loop and the bytewise tail agree with a bytewise
    /// reference at every length and alignment around the 8-byte step.
    #[test]
    fn sliced_crc_matches_bytewise_reference() {
        fn reference(data: &[u8]) -> u32 {
            let mut c = 0xFFFF_FFFFu32;
            for &b in data {
                c = TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
            }
            c ^ 0xFFFF_FFFF
        }
        let data: Vec<u8> = (0..200u32).map(|i| (i * 37 + 11) as u8).collect();
        for start in 0..9 {
            for end in start..data.len() {
                assert_eq!(crc32(&data[start..end]), reference(&data[start..end]));
            }
        }
    }

    #[test]
    fn xxh64_known_vectors() {
        assert_eq!(xxh64(b""), 0xEF46_DB37_51D8_E999);
        assert_eq!(xxh64(b"abc"), 0x44BC_2CF5_AD77_0999);
        // Exercises the 32-byte stripe loop, one 8-byte lane, the 4-byte
        // lane and the byte tail (reference implementation's test text).
        assert_eq!(
            xxh64(b"Nobody inspects the spammish repetition"),
            0xFBCE_A83C_8A37_8BF1
        );
    }

    #[test]
    fn xxh64_differs_on_a_one_bit_change_at_every_block_boundary() {
        let mut data: Vec<u8> = (0..16 * 4096u32).map(|i| (i % 251) as u8).collect();
        let clean = xxh64(&data);
        for block in 0..16 {
            // First and last byte of each 4 KiB block.
            for at in [block * 4096, block * 4096 + 4095] {
                data[at] ^= 0x01;
                assert_ne!(xxh64(&data), clean, "flip at byte {at} undetected");
                data[at] ^= 0x01;
            }
        }
        assert_eq!(xxh64(&data), clean);
    }
}
