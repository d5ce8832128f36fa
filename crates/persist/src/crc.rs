//! CRC32 (IEEE 802.3, reflected, polynomial `0xEDB88320`) — the
//! checksum guarding every snapshot section, WAL record and term-log
//! record. Slicing-by-16 and dependency-free: sixteen 256-entry tables
//! (16 KiB) built at compile time let one step fold 16 input bytes, and
//! the tail under 16 bytes runs the classic bytewise loop on table 0.

const fn make_tables() -> [[u32; 256]; 16] {
    let mut tables = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    // `tables[k][i]` is the CRC contribution of byte `i` followed by `k`
    // zero bytes: table k-1's entry pushed one more byte through table 0.
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = tables[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        k += 1;
    }
    tables
}

static TABLES: [[u32; 256]; 16] = make_tables();

/// Streaming CRC32 state.
///
/// ```
/// use tir_persist::Crc32;
///
/// let mut c = Crc32::new();
/// c.update(b"123456789");
/// assert_eq!(c.finish(), 0xCBF4_3926); // the IEEE check value
/// ```
#[derive(Debug, Clone)]
pub struct Crc32(u32);

impl Default for Crc32 {
    fn default() -> Self {
        Crc32::new()
    }
}

impl Crc32 {
    /// Fresh state.
    pub fn new() -> Crc32 {
        Crc32(0xFFFF_FFFF)
    }

    /// Feeds `bytes` into the checksum.
    pub fn update(&mut self, bytes: &[u8]) {
        let t = &TABLES;
        let mut c = self.0;
        let mut blocks = bytes.chunks_exact(16);
        for b in &mut blocks {
            // The running CRC folds into the block's first four bytes;
            // byte j of the block then still has 15 - j bytes to pass.
            let x = c ^ u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
            c = t[15][(x & 0xFF) as usize]
                ^ t[14][((x >> 8) & 0xFF) as usize]
                ^ t[13][((x >> 16) & 0xFF) as usize]
                ^ t[12][(x >> 24) as usize]
                ^ t[11][usize::from(b[4])]
                ^ t[10][usize::from(b[5])]
                ^ t[9][usize::from(b[6])]
                ^ t[8][usize::from(b[7])]
                ^ t[7][usize::from(b[8])]
                ^ t[6][usize::from(b[9])]
                ^ t[5][usize::from(b[10])]
                ^ t[4][usize::from(b[11])]
                ^ t[3][usize::from(b[12])]
                ^ t[2][usize::from(b[13])]
                ^ t[1][usize::from(b[14])]
                ^ t[0][usize::from(b[15])];
        }
        for &b in blocks.remainder() {
            c = t[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
        }
        self.0 = c;
    }

    /// The final checksum value.
    pub fn finish(&self) -> u32 {
        self.0 ^ 0xFFFF_FFFF
    }
}

/// One-shot CRC32 of a byte slice.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(bytes);
    c.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The bytewise table loop the sliced one replaced, kept as the
    /// reference it must equal (`known_vectors` pins table 0 itself).
    fn reference(bytes: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in bytes {
            c = TABLES[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
        }
        c ^ 0xFFFF_FFFF
    }

    /// Seeded xorshift bytes: the same buffer on every run.
    fn seeded_bytes(len: usize, mut x: u64) -> Vec<u8> {
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x.to_le_bytes()[3]
            })
            .collect()
    }

    #[test]
    fn known_vectors() {
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn sliced_equals_bytewise_at_every_length_and_split() {
        let data = seeded_bytes(64, 0x9E37_79B9_7F4A_7C15);
        for len in 0..=64 {
            let whole = reference(&data[..len]);
            assert_eq!(crc32(&data[..len]), whole, "len {len}");
            for split in 0..=len {
                let mut c = Crc32::new();
                c.update(&data[..split]);
                c.update(&data[split..len]);
                assert_eq!(c.finish(), whole, "len {len} split {split}");
            }
        }
    }

    #[test]
    fn sliced_equals_bytewise_on_a_mebibyte() {
        let data = seeded_bytes(1 << 20, 42);
        assert_eq!(crc32(&data), reference(&data));
        // Odd-sized pieces put every block boundary off the buffer's.
        let mut c = Crc32::new();
        for piece in data.chunks(4093) {
            c.update(piece);
        }
        assert_eq!(c.finish(), reference(&data));
    }

    #[test]
    fn streaming_equals_oneshot() {
        let data = b"hello temporal world";
        let mut c = Crc32::new();
        c.update(&data[..7]);
        c.update(&data[7..]);
        assert_eq!(c.finish(), crc32(data));
    }

    #[test]
    fn sensitive_to_single_bit() {
        let a = crc32(b"snapshot");
        let mut flipped = *b"snapshot";
        flipped[3] ^= 1;
        assert_ne!(a, crc32(&flipped));
    }
}
