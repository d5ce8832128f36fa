//! Safe zero-copy typed views over little-endian byte columns.
//!
//! A snapshot section holding a `u32`/`u64` SoA column is just bytes;
//! these wrappers give it typed, bounds-checked access without copying
//! and without `unsafe` — `from_le_bytes` over a 4/8-byte window
//! compiles to a plain load on little-endian targets.

/// A borrowed little-endian `u32` column.
#[derive(Debug, Clone, Copy)]
pub struct U32Col<'a>(&'a [u8]);

impl<'a> U32Col<'a> {
    /// Wraps `bytes`; fails unless the length is a multiple of 4.
    pub fn new(bytes: &'a [u8]) -> Option<U32Col<'a>> {
        if bytes.len().is_multiple_of(4) {
            Some(U32Col(bytes))
        } else {
            None
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.0.len() / 4
    }

    /// Element `i`; panics past the end like slice indexing.
    pub fn get(&self, i: usize) -> u32 {
        let b = &self.0[i * 4..i * 4 + 4];
        u32::from_le_bytes([b[0], b[1], b[2], b[3]])
    }

    /// Iterates the column in order.
    pub fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        self.0
            .chunks_exact(4)
            .map(|b| u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }
}

/// A borrowed little-endian `u64` column.
#[derive(Debug, Clone, Copy)]
pub struct U64Col<'a>(&'a [u8]);

impl<'a> U64Col<'a> {
    /// Wraps `bytes`; fails unless the length is a multiple of 8.
    pub fn new(bytes: &'a [u8]) -> Option<U64Col<'a>> {
        if bytes.len().is_multiple_of(8) {
            Some(U64Col(bytes))
        } else {
            None
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.0.len() / 8
    }

    /// Element `i`; panics past the end like slice indexing.
    pub fn get(&self, i: usize) -> u64 {
        let b = &self.0[i * 8..i * 8 + 8];
        u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]])
    }
}

/// Appends `v` to a byte buffer in little-endian order.
pub fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends `v` to a byte buffer in little-endian order.
pub fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Reads a `u32` at byte offset `at`, if in bounds.
pub fn read_u32(bytes: &[u8], at: usize) -> Option<u32> {
    let b = bytes.get(at..at + 4)?;
    Some(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
}

/// Reads a `u64` at byte offset `at`, if in bounds.
pub fn read_u64(bytes: &[u8], at: usize) -> Option<u64> {
    let b = bytes.get(at..at + 8)?;
    Some(u64::from_le_bytes([
        b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
    ]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn u32_roundtrip() {
        let vals = [3u32, 9, 12, 900, 7_000_000];
        let mut buf = Vec::new();
        for &v in &vals {
            put_u32(&mut buf, v);
        }
        let col = U32Col::new(&buf).expect("aligned");
        assert_eq!(col.len(), vals.len());
        assert_eq!(col.iter().collect::<Vec<u32>>(), vals);
        assert_eq!(col.get(3), 900);
    }

    #[test]
    fn u64_roundtrip() {
        let vals = [0u64, u64::MAX, 42, 1 << 40];
        let mut buf = Vec::new();
        for &v in &vals {
            put_u64(&mut buf, v);
        }
        let col = U64Col::new(&buf).expect("aligned");
        assert_eq!(col.len(), vals.len());
        assert_eq!(col.get(1), u64::MAX);
        assert_eq!(col.get(3), 1 << 40);
    }

    #[test]
    fn misaligned_lengths_are_rejected() {
        assert!(U32Col::new(&[1, 2, 3]).is_none());
        assert!(U64Col::new(&[1, 2, 3, 4]).is_none());
        assert!(U32Col::new(&[]).is_some());
    }

    #[test]
    fn offset_reads() {
        let mut buf = vec![0xEE];
        put_u32(&mut buf, 77);
        put_u64(&mut buf, 1 << 33);
        assert_eq!(read_u32(&buf, 1), Some(77));
        assert_eq!(read_u64(&buf, 5), Some(1 << 33));
        assert_eq!(read_u32(&buf, 100), None);
    }
}
