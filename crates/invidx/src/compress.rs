//! Compressed postings lists: stream-vbyte [`BlockPostings`] with
//! per-block skip bounds for id lists, delta + LEB128 varint triples
//! ([`CompressedTemporalPostings`]) for time-aware lists.
//!
//! The paper leaves inverted-file compression as future work (Section 7);
//! this module provides the standard techniques so the IR-first indexes
//! can trade CPU for space. Lists are immutable once encoded — dynamic
//! updates go to an uncompressed overlay (see `tir-core`'s
//! `CompressedTif`). [`BlockPostings`] arranges id deltas in the
//! stream-vbyte layout (control bytes and data bytes in separate
//! streams, [`BLOCK_LEN`] ids per block with its first/last id kept
//! uncompressed) so blocks decode through the SSSE3 kernel in
//! [`crate::simd`] and blocks that cannot intersect the candidate set
//! are skipped without decoding at all.

use crate::simd;

/// Appends `v` as a LEB128 varint.
#[inline]
fn put_varint(data: &mut Vec<u8>, mut v: u64) {
    loop {
        // analyze:allow(unguarded-cast): masked to 7 bits on the previous operation
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            data.push(byte);
            break;
        }
        data.push(byte | 0x80);
    }
}

/// Reads a LEB128 varint at `pos`, advancing it.
#[inline]
fn get_varint(data: &[u8], pos: &mut usize) -> u64 {
    let mut v = 0u64;
    let mut shift = 0;
    loop {
        let byte = data[*pos];
        *pos += 1;
        v |= ((byte & 0x7f) as u64) << shift;
        if byte & 0x80 == 0 {
            return v;
        }
        shift += 7;
    }
}

/// Ids per [`BlockPostings`] block (the final block may be shorter).
/// 128 ids is 32 control bytes — deep enough to amortize the vector
/// decode, small enough that skip bounds prune effectively.
pub const BLOCK_LEN: usize = 128;

/// Stream-vbyte block-compressed postings: strictly ascending clean ids
/// (no tombstones — deletions live in the caller's overlay), cut into
/// [`BLOCK_LEN`]-id blocks. Each block keeps its first and last id
/// uncompressed, so intersection skips whole blocks by range without
/// touching their bytes, and the remaining deltas decode through
/// [`crate::simd::svb_decode_into`] — one control byte per 4 deltas, a
/// `pshufb`-driven expand, and an in-register prefix sum.
#[derive(Debug, Clone, Default)]
pub struct BlockPostings {
    firsts: Vec<u32>,
    lasts: Vec<u32>,
    ctrl_offs: Vec<u32>,
    data_offs: Vec<u32>,
    ctrl: Vec<u8>,
    data: Vec<u8>,
    len: u32,
}

/// Encodes the deltas of a strictly ascending chunk (`ids[1..] -
/// ids[..]`) in stream-vbyte layout: per delta a 2-bit byte-length code
/// packed 4-per-control-byte, the little-endian value bytes appended to
/// `data`. Unused lanes of a final partial control byte encode length 1
/// and consume no data bytes on decode.
fn svb_encode_deltas(ids: &[u32], ctrl: &mut Vec<u8>, data: &mut Vec<u8>) {
    let mut i = 1usize;
    while i < ids.len() {
        let mut c = 0u8;
        let mut lane = 0usize;
        while lane < 4 && i < ids.len() {
            let v = ids[i] - ids[i - 1];
            let nbytes = 4 - (v.leading_zeros() / 8).min(3) as usize;
            // analyze:allow(unguarded-cast): nbytes - 1 is 0..=3, two bits
            c |= ((nbytes - 1) as u8) << (2 * lane);
            data.extend_from_slice(&v.to_le_bytes()[..nbytes]);
            i += 1;
            lane += 1;
        }
        ctrl.push(c);
    }
}

impl BlockPostings {
    /// Encodes a sorted, duplicate-free, tombstone-free id list.
    pub fn encode(ids: &[u32]) -> Self {
        debug_assert!(
            ids.windows(2).all(|w| w[0] < w[1]),
            "ids must be strictly ascending"
        );
        let mut bp = BlockPostings {
            // analyze:allow(unguarded-cast): posting count is bounded by the u32 id space
            len: ids.len() as u32,
            ..BlockPostings::default()
        };
        for chunk in ids.chunks(BLOCK_LEN) {
            bp.firsts.push(chunk[0]);
            bp.lasts.push(*chunk.last().expect("chunks are non-empty"));
            // analyze:allow(unguarded-cast): stream length <= 5 bytes per u32 posting
            bp.ctrl_offs.push(bp.ctrl.len() as u32);
            // analyze:allow(unguarded-cast): stream length <= 5 bytes per u32 posting
            bp.data_offs.push(bp.data.len() as u32);
            svb_encode_deltas(chunk, &mut bp.ctrl, &mut bp.data);
        }
        // Terminal padding: the vector decoder loads 16 data bytes at a
        // time, so the last groups of the last block stay in bounds and
        // every block decodes fully vectorized.
        bp.data.resize(bp.data.len() + 16, 0);
        bp
    }

    /// Number of encoded postings.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// True if no posting is encoded.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of blocks.
    #[inline]
    pub fn num_blocks(&self) -> usize {
        self.firsts.len()
    }

    /// First id of block `b`.
    #[inline]
    pub fn block_first(&self, b: usize) -> u32 {
        self.firsts[b]
    }

    /// Last id of block `b`.
    #[inline]
    pub fn block_last(&self, b: usize) -> u32 {
        self.lasts[b]
    }

    /// The first block whose last id is at least `id` (`num_blocks()` if
    /// none): the only block that can hold `id`.
    #[inline]
    pub(crate) fn first_block_reaching(&self, id: u32) -> usize {
        self.lasts.partition_point(|&l| l < id)
    }

    /// Ids stored in block `b`.
    #[inline]
    fn block_len(&self, b: usize) -> usize {
        if b + 1 == self.num_blocks() {
            self.len as usize - b * BLOCK_LEN
        } else {
            BLOCK_LEN
        }
    }

    /// Decodes block `b` into `out` (cleared first); returns the id
    /// count. Decoding reads the shared suffix of the control/data
    /// streams and stops after the block's ids — the terminal padding
    /// keeps the vector loads of the last block in bounds.
    pub fn decode_block_into(&self, b: usize, out: &mut Vec<u32>) -> usize {
        let count = self.block_len(b);
        out.clear();
        out.resize(count, 0);
        simd::svb_decode_into(
            self.firsts[b],
            &self.ctrl[self.ctrl_offs[b] as usize..],
            &self.data[self.data_offs[b] as usize..],
            out,
        );
        count
    }

    /// Scalar walk of one block's ids in ascending order, no scratch
    /// allocation; stops early when `f` returns false. Point probes and
    /// full scans share this so neither touches the heap.
    fn walk_block(&self, b: usize, mut f: impl FnMut(u32) -> bool) {
        let count = self.block_len(b);
        let mut acc = self.firsts[b];
        if !f(acc) {
            return;
        }
        let ctrl = &self.ctrl[self.ctrl_offs[b] as usize..];
        let data = &self.data[self.data_offs[b] as usize..];
        let mut pos = 0usize;
        for j in 0..count - 1 {
            let nbytes = ((ctrl[j / 4] >> (2 * (j % 4))) & 3) as usize + 1;
            let mut v = 0u32;
            for (sh, &byte) in data[pos..pos + nbytes].iter().enumerate() {
                v |= u32::from(byte) << (8 * sh);
            }
            pos += nbytes;
            acc = acc.wrapping_add(v);
            if !f(acc) {
                return;
            }
        }
    }

    /// True if `id` is encoded. Binary-searches the block bounds, then
    /// walks at most one block without decoding it into a buffer.
    pub fn contains(&self, id: u32) -> bool {
        let b = self.first_block_reaching(id);
        if b == self.num_blocks() || self.firsts[b] > id {
            return false;
        }
        if self.firsts[b] == id || self.lasts[b] == id {
            return true;
        }
        let mut found = false;
        self.walk_block(b, |v| {
            if v >= id {
                found = v == id;
                false
            } else {
                true
            }
        });
        found
    }

    /// Calls `f(id)` for every encoded id, ascending (validators and
    /// introspection; queries mark decoded blocks in a planner run round,
    /// [`crate::planner::RunMarker::mark_blocks`]).
    pub fn for_each(&self, mut f: impl FnMut(u32)) {
        for b in 0..self.num_blocks() {
            self.walk_block(b, |id| {
                f(id);
                true
            });
        }
    }

    /// The raw control/data streams (introspection for validators,
    /// which re-walk them with bounds checking — the production decoder
    /// indexes unchecked and must never see possibly corrupt bytes).
    pub fn raw_streams(&self) -> (&[u8], &[u8]) {
        (&self.ctrl, &self.data)
    }

    /// Stream start offsets `(ctrl, data)` of block `b` (introspection
    /// for validators).
    pub fn block_offsets(&self, b: usize) -> (usize, usize) {
        (self.ctrl_offs[b] as usize, self.data_offs[b] as usize)
    }

    /// Deliberately desyncs the first block's skip bound — used by
    /// `tir-check`'s property tests to prove the validator notices.
    #[cfg(feature = "testing")]
    pub fn testing_corrupt_skip_bound(&mut self) {
        if let Some(l) = self.lasts.first_mut() {
            *l += 1;
        }
    }

    /// Encoded size in bytes.
    pub fn size_bytes(&self) -> usize {
        self.ctrl.capacity()
            + self.data.capacity()
            + (self.firsts.capacity()
                + self.lasts.capacity()
                + self.ctrl_offs.capacity()
                + self.data_offs.capacity())
                * 4
            + std::mem::size_of::<Self>()
    }
}

/// A compressed *temporal* postings list: `(id delta, st, end - st)`
/// varint triples, id-sorted.
#[derive(Debug, Clone, Default)]
pub struct CompressedTemporalPostings {
    data: Vec<u8>,
    len: u32,
}

impl CompressedTemporalPostings {
    /// Encodes parallel arrays sorted by strictly ascending id.
    pub fn encode(ids: &[u32], sts: &[u64], ends: &[u64]) -> Self {
        assert_eq!(ids.len(), sts.len());
        assert_eq!(ids.len(), ends.len());
        debug_assert!(ids.windows(2).all(|w| w[0] < w[1]));
        let mut data = Vec::with_capacity(ids.len() * 6);
        let mut prev = 0u32;
        for i in 0..ids.len() {
            let delta = if i == 0 { ids[i] } else { ids[i] - prev };
            put_varint(&mut data, delta as u64);
            put_varint(&mut data, sts[i]);
            put_varint(&mut data, ends[i] - sts[i]);
            prev = ids[i];
        }
        data.shrink_to_fit();
        CompressedTemporalPostings {
            data,
            // analyze:allow(unguarded-cast): posting count is bounded by the u32 id space
            len: ids.len() as u32,
        }
    }

    /// Number of encoded postings.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Calls `f(id, st, end)` for every posting.
    pub fn for_each(&self, mut f: impl FnMut(u32, u64, u64)) {
        let mut pos = 0;
        let mut acc = 0u32;
        for i in 0..self.len {
            // analyze:allow(unguarded-cast): deltas were encoded from u32 ids, so each fits on decode
            let delta = get_varint(&self.data, &mut pos) as u32;
            acc = if i == 0 { delta } else { acc + delta };
            let st = get_varint(&self.data, &mut pos);
            let dur = get_varint(&self.data, &mut pos);
            f(acc, st, st + dur);
        }
    }

    /// Encoded size in bytes.
    pub fn size_bytes(&self) -> usize {
        self.data.capacity() + std::mem::size_of::<Self>()
    }

    /// The raw encoded bytes (introspection for validators, which
    /// re-walk the varint stream with bounds checking).
    pub fn raw_bytes(&self) -> &[u8] {
        &self.data
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::intersect_merge_into;
    use crate::planner::{PlanStats, QueryScratch};

    #[test]
    fn temporal_roundtrip() {
        let ids = vec![5u32, 9, 1000];
        let sts = vec![100u64, 0, 1 << 40];
        let ends = vec![200u64, 7, (1 << 40) + 3];
        let c = CompressedTemporalPostings::encode(&ids, &sts, &ends);
        let mut got = Vec::new();
        c.for_each(|id, st, end| got.push((id, st, end)));
        assert_eq!(
            got,
            vec![(5, 100, 200), (9, 0, 7), (1000, 1 << 40, (1 << 40) + 3)]
        );
    }

    #[test]
    fn block_roundtrip_and_bounds() {
        let ids: Vec<u32> = (0..300u32).map(|i| i * 7 + (i % 3)).collect();
        let bp = BlockPostings::encode(&ids);
        assert_eq!(bp.len(), 300);
        assert_eq!(bp.num_blocks(), 3);
        let mut got = Vec::new();
        bp.for_each(|id| got.push(id));
        assert_eq!(got, ids);
        assert_eq!(bp.block_first(0), ids[0]);
        assert_eq!(bp.block_last(0), ids[127]);
        assert_eq!(bp.block_first(2), ids[256]);
        assert_eq!(bp.block_last(2), ids[299]);
        assert!(bp.contains(ids[200]));
        assert!(!bp.contains(ids[200] + 1), "gap ids are absent");
        assert!(!bp.contains(ids[299] + 1), "past the last block");
    }

    /// One planner run round over `bp`'s blocks with `dead` listed: the
    /// surviving candidates and the round's counters.
    fn block_round(bp: &BlockPostings, cands: &[u32], dead: &[u32]) -> (Vec<u32>, PlanStats) {
        let mut s = QueryScratch::default();
        s.cands.extend_from_slice(cands);
        s.intersect_runs(|runs| runs.mark_blocks(bp, dead));
        let mut out = Vec::new();
        s.take_into(&mut out);
        (out, s.last_stats())
    }

    #[test]
    fn block_intersection_skips_blocks() {
        // 8 blocks of evens; candidates confined to one block's range.
        let ids: Vec<u32> = (0..1024u32).map(|i| i * 2).collect();
        let bp = BlockPostings::encode(&ids);
        assert_eq!(bp.num_blocks(), 8);
        let cands: Vec<u32> = (600..700u32).collect();
        let (out, st) = block_round(&bp, &cands, &[]);
        let mut merged = Vec::new();
        intersect_merge_into(&cands, &ids, &mut merged);
        let want: Vec<u32> = (600..700).filter(|c| c % 2 == 0).collect();
        assert_eq!(out, want);
        assert_eq!(out, merged, "the round agrees with the merge");
        assert_eq!(st.blocks_decoded, 1, "other 7 blocks skip by range");
        assert_eq!(st.steps(), 1, "one step per decoded block");
        assert!(st.scanned > 0);
        assert_eq!(st.kernel_scanned_sum(), st.scanned);

        // Dead ids at the block's first and last position drop out; a dead
        // id in a skipped block costs nothing.
        let (first, last) = (bp.block_first(2), bp.block_last(2));
        assert_eq!((first, last), (512, 766));
        let (out, st) = block_round(&bp, &cands, &[4, first, 620, last]);
        let want: Vec<u32> = want.into_iter().filter(|&c| c != 620).collect();
        assert_eq!(out, want);
        assert_eq!(st.blocks_decoded, 1);
        let (out, _) = block_round(&bp, &[first, first + 2, last], &[first, last]);
        assert_eq!(out, vec![first + 2]);
    }

    #[test]
    fn block_empty_and_single() {
        let bp = BlockPostings::encode(&[]);
        assert!(bp.is_empty());
        assert_eq!(bp.num_blocks(), 0);
        assert!(!bp.contains(0));
        let (out, st) = block_round(&bp, &[1, 2, 3], &[]);
        assert!(out.is_empty() && st.blocks_decoded == 0 && st.steps() == 0);

        let bp = BlockPostings::encode(&[42]);
        assert_eq!(bp.len(), 1);
        assert!(bp.contains(42) && !bp.contains(41));
        let (out, st) = block_round(&bp, &[41, 42, 43], &[]);
        assert_eq!(out, vec![42]);
        assert_eq!(st.blocks_decoded, 1);
        let (out, st) = block_round(&bp, &[42], &[42]);
        assert!(out.is_empty(), "a dead single id");
        assert_eq!(st.blocks_decoded, 1);
        let (out, st) = block_round(&bp, &[], &[]);
        assert!(out.is_empty() && st.blocks_decoded == 0);
    }

    #[test]
    fn block_roundtrip_on_large_deltas() {
        let ids: Vec<u32> = (0..500u32)
            .scan(3u32, |acc, i| {
                *acc = acc.wrapping_add(1 + i * 8191 % 100_000);
                Some(*acc)
            })
            .collect();
        assert!(ids.windows(2).all(|w| w[0] < w[1]));
        let bp = BlockPostings::encode(&ids);
        let mut got = Vec::new();
        bp.for_each(|id| got.push(id));
        assert_eq!(got, ids);
    }

    #[test]
    fn varint_boundaries() {
        for v in [0u64, 1, 127, 128, 16_383, 16_384, u32::MAX as u64, u64::MAX] {
            let mut data = Vec::new();
            put_varint(&mut data, v);
            let mut pos = 0;
            assert_eq!(get_varint(&data, &mut pos), v);
            assert_eq!(pos, data.len());
        }
    }
}
