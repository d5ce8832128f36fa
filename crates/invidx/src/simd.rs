//! Vectorized intersection and decode kernels with runtime dispatch.
//!
//! This is the **only module in the workspace allowed to contain
//! `unsafe`** (the `unsafe-code` rule of `tir-analyze` machine-checks
//! the allowlist). Everything here is `core::arch::x86_64` intrinsics
//! behind runtime CPU-feature detection, and every entry point has a
//! scalar fallback in [`crate::kernels`] that remains the source of
//! truth: the differential proptests in `tests/prop_kernels.rs` pit
//! each vector path against its scalar twin and a `BTreeSet` oracle.
//!
//! Dispatch is decided once per process ([`level`]) from CPUID, and can
//! be forced down with the `TIR_SIMD` environment variable
//! (`off`/`0`/`scalar`, `sse2`, `ssse3`, `avx2`) — CI runs the kernel
//! suite with `TIR_SIMD=off` to keep the scalar fallback honest.
//!
//! Kernels:
//!
//! * [`merge_into`] — SSE2 block-wise merge intersection (Schlegel-style
//!   cyclic-shift compare of 4-id blocks, all 16 lane pairs per round),
//!   tombstone-aware via the sign bit;
//! * [`gallop_into`] — AVX2 galloping intersection: 8-id block-granular
//!   exponential search plus a single 8-lane compare in the final block;
//! * [`and_words`] — AVX2 `dst & present & !deleted` over 4 × u64 lanes
//!   with a folded population count;
//! * [`svb_decode_into`] — SSSE3 stream-vbyte delta decode (per-control
//!   `pshufb` shuffle from a 256-entry table) with an in-register
//!   prefix sum, used by [`crate::compress::BlockPostings`].

#![allow(unsafe_code)]

use std::sync::OnceLock;

use crate::kernels;

/// The vector instruction tier selected for this process.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SimdLevel {
    /// No vector kernels: scalar fallbacks only.
    Scalar,
    /// SSE2 (x86-64 baseline): block merge intersection.
    Sse2,
    /// SSSE3: adds the `pshufb` stream-vbyte decoder.
    Ssse3,
    /// AVX2: adds 8-wide gallop probes and 256-bit word-AND.
    Avx2,
}

/// The dispatch level, decided once per process: the best tier CPUID
/// reports, capped by the `TIR_SIMD` environment variable (`off`, `0`
/// or `scalar` force [`SimdLevel::Scalar`]; `sse2`/`ssse3`/`avx2` cap
/// at that tier; anything else is ignored).
pub fn level() -> SimdLevel {
    static LEVEL: OnceLock<SimdLevel> = OnceLock::new();
    *LEVEL.get_or_init(detect)
}

fn detect() -> SimdLevel {
    let cap = detect_cpu();
    match std::env::var("TIR_SIMD").ok().as_deref() {
        Some("off") | Some("0") | Some("scalar") => SimdLevel::Scalar,
        Some("sse2") => cap.min(SimdLevel::Sse2),
        Some("ssse3") => cap.min(SimdLevel::Ssse3),
        Some("avx2") => cap.min(SimdLevel::Avx2),
        _ => cap,
    }
}

#[cfg(target_arch = "x86_64")]
fn detect_cpu() -> SimdLevel {
    if std::arch::is_x86_feature_detected!("avx2") {
        SimdLevel::Avx2
    } else if std::arch::is_x86_feature_detected!("ssse3") {
        SimdLevel::Ssse3
    } else {
        // SSE2 is part of the x86-64 baseline — always present.
        SimdLevel::Sse2
    }
}

#[cfg(not(target_arch = "x86_64"))]
fn detect_cpu() -> SimdLevel {
    SimdLevel::Scalar
}

/// Inputs shorter than this run the scalar kernel directly: below one
/// or two vector blocks the dispatch and tail handling cost more than
/// they save, and keeping tiny steps on the scalar counters stops the
/// `SimdMerge` stats from being dominated by trivial intersections.
pub const SIMD_MIN_LEN: usize = 16;

/// Minimum length of the *shorter* side before the SSE2 merge beats the
/// scalar zipper. Measured on the density grid across three universes:
/// the block kernel wins 2-3× when both sides hold at least a few
/// thousand ids ((8‰,8‰) of 2^20: 29µs vs 85µs) but loses up to 1.5×
/// on short inputs, where the scalar loop's predictable branches win
/// ((1‰,1‰): 1.14 vs 1.74 ns/elem). The crossover sits near 4k on the
/// shorter side (BENCH_kernels.json).
pub const SIMD_MERGE_MIN: usize = 4096;

/// Minimum postings length before the AVX2 gallop probe beats scalar
/// galloping. In gallop's selected regime (postings at least
/// `GALLOP_RATIO` × cands) the 8-lane probe wins from ~512 postings
/// ((1‰,8‰) of 65536: 523ns vs 640ns) and widens with size; below that
/// the block search costs more than the two scalar binary searches.
pub const SIMD_GALLOP_MIN: usize = 512;

/// Merge intersection with the same contract as
/// [`kernels::intersect_merge_into`] (clean sorted candidates, postings
/// raw-id-sorted with optional bit-31 tombstones, matches appended to
/// `out`). Returns `true` if the SSE2 block kernel ran, `false` if the
/// scalar fallback did — callers attribute the step to
/// `Kernel::SimdMerge` or `Kernel::Merge` accordingly.
#[inline]
pub fn merge_into(cands: &[u32], postings: &[u32], out: &mut Vec<u32>) -> bool {
    if cands.len().min(postings.len()) >= SIMD_MERGE_MIN {
        return merge_into_forced(cands, postings, out);
    }
    kernels::intersect_merge_into(cands, postings, out);
    false
}

/// [`merge_into`] without the [`SIMD_MERGE_MIN`] size gate: the vector
/// kernel runs whenever the CPU supports it, at any length. For the
/// grid harness (which measures the crossover the gate encodes) and the
/// differential tests (which must cover vector tails at small lengths);
/// production dispatch goes through [`merge_into`].
#[inline]
pub fn merge_into_forced(cands: &[u32], postings: &[u32], out: &mut Vec<u32>) -> bool {
    #[cfg(target_arch = "x86_64")]
    if !cands.is_empty() && !postings.is_empty() && level() >= SimdLevel::Sse2 {
        // SAFETY: SSE2 is unconditionally available on x86-64 (and
        // `level()` reports at least Sse2 only on that arch).
        // analyze:allow(unsafe-code): target-feature call gated by runtime dispatch; sse2 is the x86-64 baseline
        unsafe { x86::merge_sse2(cands, postings, out) };
        return true;
    }
    kernels::intersect_merge_into(cands, postings, out);
    false
}

/// Galloping intersection with the same contract as
/// [`kernels::intersect_gallop_into`]. Returns `true` if the AVX2 block
/// kernel ran. The step stays attributed to `Kernel::Gallop` either
/// way — the grid harness benches both variants directly.
#[inline]
pub fn gallop_into(cands: &[u32], postings: &[u32], out: &mut Vec<u32>) -> bool {
    if postings.len() >= SIMD_GALLOP_MIN {
        return gallop_into_forced(cands, postings, out);
    }
    kernels::intersect_gallop_into(cands, postings, out);
    false
}

/// [`gallop_into`] without the [`SIMD_GALLOP_MIN`] size gate — same
/// purpose as [`merge_into_forced`].
#[inline]
pub fn gallop_into_forced(cands: &[u32], postings: &[u32], out: &mut Vec<u32>) -> bool {
    #[cfg(target_arch = "x86_64")]
    if !cands.is_empty() && !postings.is_empty() && level() >= SimdLevel::Avx2 {
        // SAFETY: AVX2 support was verified by CPUID via `level()`.
        // analyze:allow(unsafe-code): target-feature call gated by runtime avx2 detection
        unsafe { x86::gallop_avx2(cands, postings, out) };
        return true;
    }
    kernels::intersect_gallop_into(cands, postings, out);
    false
}

/// Computes `dst[k] = dst[k] & present[k] & !deleted[k]` over the
/// common prefix of the three slices and returns the total popcount of
/// the result — one fused pass over the planner's word-AND chain. Uses
/// 256-bit lanes under AVX2, a scalar loop otherwise.
#[inline]
pub fn and_words(dst: &mut [u64], present: &[u64], deleted: &[u64]) -> u64 {
    let n = dst.len().min(present.len()).min(deleted.len());
    #[cfg(target_arch = "x86_64")]
    if n >= 8 && level() >= SimdLevel::Avx2 {
        // SAFETY: AVX2 support was verified by CPUID via `level()`.
        // analyze:allow(unsafe-code): target-feature call gated by runtime avx2 detection
        return unsafe { x86::and_words_avx2(&mut dst[..n], &present[..n], &deleted[..n]) };
    }
    let mut count = 0u64;
    for ((d, &p), &t) in dst[..n].iter_mut().zip(&present[..n]).zip(&deleted[..n]) {
        let v = *d & p & !t;
        *d = v;
        count += u64::from(v.count_ones());
    }
    count
}

/// Decodes one stream-vbyte block: writes `first` to `out[0]`, then
/// applies the `out.len() - 1` encoded deltas cumulatively (stream-vbyte
/// layout: one control byte per 4 deltas, 2 bits each giving the
/// little-endian byte length minus one, data bytes in a separate
/// stream). Returns `(ctrl_bytes, data_bytes)` consumed.
///
/// The SSSE3 path reads `data` 16 bytes at a time and only runs while a
/// full 16-byte load stays in bounds — encoders that pad their data
/// stream (see `BlockPostings`) decode fully vectorized, unpadded
/// callers fall back to the scalar tail for the last few groups.
#[inline]
pub fn svb_decode_into(first: u32, ctrl: &[u8], data: &[u8], out: &mut [u32]) -> (usize, usize) {
    if out.is_empty() {
        return (0, 0);
    }
    #[cfg(target_arch = "x86_64")]
    if out.len() > SIMD_MIN_LEN && level() >= SimdLevel::Ssse3 {
        // SAFETY: SSSE3 support was verified by CPUID via `level()`.
        // analyze:allow(unsafe-code): target-feature call gated by runtime ssse3 detection
        return unsafe { x86::svb_decode_ssse3(first, ctrl, data, out) };
    }
    out[0] = first;
    svb_decode_tail(1, 0, 0, first, ctrl, data, out)
}

/// Scalar stream-vbyte decode resuming from mid-stream state: fills
/// `out[k..]` starting from running id `base`, cursors `ci` into `ctrl`
/// and `pos` into `data` (with `k - 1` values already consumed from the
/// current group when `(k - 1) % 4 != 0`). Shared by the scalar path
/// and the vector kernel's tail. Returns the final `(ci, pos)`.
fn svb_decode_tail(
    mut k: usize,
    mut ci: usize,
    mut pos: usize,
    mut base: u32,
    ctrl: &[u8],
    data: &[u8],
    out: &mut [u32],
) -> (usize, usize) {
    let n = out.len();
    while k < n {
        let c = ctrl[ci];
        ci += 1;
        let mut lane = 0;
        while lane < 4 && k < n {
            let nbytes = ((c >> (2 * lane)) & 3) as usize + 1;
            let mut v = 0u32;
            for (shift, &byte) in data[pos..pos + nbytes].iter().enumerate() {
                v |= u32::from(byte) << (8 * shift);
            }
            pos += nbytes;
            base = base.wrapping_add(v);
            out[k] = base;
            k += 1;
            lane += 1;
        }
    }
    (ci, pos)
}

/// Stream-vbyte shuffle tables, one entry per control byte: the 16-lane
/// `pshufb` mask expanding the packed little-endian bytes of 4 values
/// to 4 × u32 (0x80 lanes zero-fill), and the total data bytes the
/// control byte consumes.
#[cfg(target_arch = "x86_64")]
struct SvbTables {
    shuffle: [[u8; 16]; 256],
    len: [u8; 256],
}

#[cfg(target_arch = "x86_64")]
static SVB_TABLES: SvbTables = build_svb_tables();

#[cfg(target_arch = "x86_64")]
const fn build_svb_tables() -> SvbTables {
    let mut shuffle = [[0x80u8; 16]; 256];
    let mut len = [0u8; 256];
    let mut c = 0usize;
    while c < 256 {
        let mut src = 0u8;
        let mut value = 0usize;
        while value < 4 {
            // analyze:allow(unguarded-cast): masked to 2 bits, fits u8
            let nbytes = ((c >> (2 * value)) & 3) as u8 + 1;
            let mut b = 0u8;
            while b < 4 {
                shuffle[c][value * 4 + b as usize] = if b < nbytes { src + b } else { 0x80 };
                b += 1;
            }
            src += nbytes;
            value += 1;
        }
        len[c] = src;
        c += 1;
    }
    SvbTables { shuffle, len }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{svb_decode_tail, SVB_TABLES};
    use crate::kernels::{live, raw, TOMBSTONE};
    use std::arch::x86_64::{
        __m128i, __m256i, _mm256_and_si256, _mm256_andnot_si256, _mm256_castsi256_ps,
        _mm256_cmpeq_epi32, _mm256_cmpgt_epi32, _mm256_extract_epi64, _mm256_loadu_si256,
        _mm256_movemask_ps, _mm256_or_si256, _mm256_set1_epi32, _mm256_srai_epi32,
        _mm256_storeu_si256, _mm_add_epi32, _mm_and_si128, _mm_andnot_si128, _mm_castsi128_ps,
        _mm_cmpeq_epi32, _mm_cvtsi128_si32, _mm_loadu_si128, _mm_movemask_ps, _mm_or_si128,
        _mm_set1_epi32, _mm_shuffle_epi32, _mm_shuffle_epi8, _mm_slli_si128, _mm_srai_epi32,
        _mm_storeu_si128,
    };

    /// Rotate-left-by-k lane orders for `_mm_shuffle_epi32` (result lane
    /// `i` takes source lane `(i + k) & 3`): lane selectors [1,2,3,0],
    /// [2,3,0,1] and [3,0,1,2] packed 2 bits each.
    const ROT1: i32 = 0x39;
    const ROT2: i32 = 0x4E;
    const ROT3: i32 = 0x93;

    /// SSE2 block-wise merge intersection. Compares every candidate in a
    /// 4-id block against every posting in a 4-id block (4 rotations ×
    /// 4 lanes = all 16 pairs), masking tombstoned postings via their
    /// sign bit, then advances whichever block's last id is smaller —
    /// the classic cyclic-shift merge. Ids are unique per side, so each
    /// candidate matches at most once and output order stays ascending.
    ///
    /// SAFETY contract (upheld by the `merge_into` wrapper): SSE2 must
    /// be available, which is guaranteed on every x86-64 CPU. All
    /// pointer arithmetic stays in bounds: vector loads read lanes
    /// `i..i + 4` / `j..j + 4` only while `i + 4 <= cands.len()` and
    /// `j + 4 <= postings.len()`.
    // analyze:allow(unsafe-code): sse2 intrinsics on bounds-checked 4-id blocks; sse2 is the x86-64 baseline
    #[target_feature(enable = "sse2")]
    pub(super) unsafe fn merge_sse2(cands: &[u32], postings: &[u32], out: &mut Vec<u32>) {
        // analyze:allow(unguarded-cast): !TOMBSTONE = 0x7fff_ffff, bit-identical as i32
        let raw_mask = _mm_set1_epi32(!TOMBSTONE as i32);
        let (mut i, mut j) = (0usize, 0usize);
        let (na, nb) = (cands.len(), postings.len());
        while i + 4 <= na && j + 4 <= nb {
            let va = _mm_loadu_si128(cands.as_ptr().add(i).cast::<__m128i>());
            let vb_stored = _mm_loadu_si128(postings.as_ptr().add(j).cast::<__m128i>());
            let vb = _mm_and_si128(vb_stored, raw_mask);
            // Tombstone bit is the sign bit: arithmetic shift smears it
            // into an all-ones lane mask for deleted postings.
            let dead = _mm_srai_epi32(vb_stored, 31);
            let mut hit = _mm_andnot_si128(dead, _mm_cmpeq_epi32(va, vb));
            let b1 = _mm_shuffle_epi32::<ROT1>(vb);
            let d1 = _mm_shuffle_epi32::<ROT1>(dead);
            hit = _mm_or_si128(hit, _mm_andnot_si128(d1, _mm_cmpeq_epi32(va, b1)));
            let b2 = _mm_shuffle_epi32::<ROT2>(vb);
            let d2 = _mm_shuffle_epi32::<ROT2>(dead);
            hit = _mm_or_si128(hit, _mm_andnot_si128(d2, _mm_cmpeq_epi32(va, b2)));
            let b3 = _mm_shuffle_epi32::<ROT3>(vb);
            let d3 = _mm_shuffle_epi32::<ROT3>(dead);
            hit = _mm_or_si128(hit, _mm_andnot_si128(d3, _mm_cmpeq_epi32(va, b3)));
            // analyze:allow(unguarded-cast): movemask_ps yields 4 low bits
            let mut m = _mm_movemask_ps(_mm_castsi128_ps(hit)) as u32;
            while m != 0 {
                out.push(cands[i + m.trailing_zeros() as usize]);
                m &= m - 1;
            }
            let a_last = cands[i + 3];
            let b_last = raw(postings[j + 3]);
            // Advance the block(s) whose last id cannot match anything
            // further: both on a tie.
            if a_last <= b_last {
                i += 4;
            }
            if b_last <= a_last {
                j += 4;
            }
        }
        crate::kernels::intersect_merge_into(&cands[i..], &postings[j..], out);
    }

    /// AVX2 galloping intersection: per candidate, an exponential search
    /// over 8-id blocks (comparing only each block's last raw id),
    /// narrowed by binary search to one block, which a single 8-lane
    /// compare resolves — equality, liveness, and the next start
    /// position all come out of three movemasks.
    ///
    /// SAFETY contract (upheld by the `gallop_into` wrapper): AVX2 must
    /// be available (runtime-detected). The vector load reads lanes
    /// `l..l + 8` only when `l + 8 <= postings.len()`.
    // analyze:allow(unsafe-code): avx2 intrinsics on bounds-checked 8-id blocks, avx2 runtime-detected by the caller
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn gallop_avx2(cands: &[u32], postings: &[u32], out: &mut Vec<u32>) {
        let n = postings.len();
        // analyze:allow(unguarded-cast): !TOMBSTONE = 0x7fff_ffff, bit-identical as i32
        let raw_mask = _mm256_set1_epi32(!TOMBSTONE as i32);
        let mut lo = 0usize;
        for &c in cands {
            if lo >= n {
                break;
            }
            // Exponential search on block-last ids: find a window
            // [lo, hi) whose last block can hold the first raw id >= c.
            let mut step = 8usize;
            let mut hi = lo + 8;
            while hi <= n && raw(postings[hi - 1]) < c {
                lo = hi;
                hi = lo + step;
                step <<= 1;
            }
            hi = hi.min(n);
            if lo >= hi {
                break;
            }
            // Binary search down to one 8-id block. Invariant: the first
            // posting with raw id >= c (if any) has index in [lo, hi].
            while hi - lo > 8 {
                let mid = lo + (hi - lo) / 2;
                if raw(postings[mid]) < c {
                    lo = mid + 1;
                } else {
                    hi = mid + 1;
                }
            }
            if lo + 8 <= n {
                let stored = _mm256_loadu_si256(postings.as_ptr().add(lo).cast::<__m256i>());
                let vb = _mm256_and_si256(stored, raw_mask);
                let dead = _mm256_srai_epi32(stored, 31);
                // analyze:allow(unguarded-cast): broadcasting a raw id < 2^31, bit-identical as i32
                let vc = _mm256_set1_epi32(c as i32);
                let eq = _mm256_cmpeq_epi32(vb, vc);
                // Raw ids fit in 31 bits, so signed compare is exact.
                let ge = _mm256_or_si256(eq, _mm256_cmpgt_epi32(vb, vc));
                // analyze:allow(unguarded-cast): movemask_ps yields 8 low bits
                let ge_m = _mm256_movemask_ps(_mm256_castsi256_ps(ge)) as u32;
                if ge_m == 0 {
                    // Whole block < c; resume after it.
                    lo += 8;
                    continue;
                }
                let k = ge_m.trailing_zeros() as usize;
                // analyze:allow(unguarded-cast): movemask_ps yields 8 low bits
                let eq_m = _mm256_movemask_ps(_mm256_castsi256_ps(eq)) as u32;
                // analyze:allow(unguarded-cast): movemask_ps yields 8 low bits
                let live_m = !(_mm256_movemask_ps(_mm256_castsi256_ps(dead)) as u32);
                if (eq_m >> k) & 1 == 1 {
                    if (live_m >> k) & 1 == 1 {
                        out.push(c);
                    }
                    lo += k + 1;
                } else {
                    lo += k;
                }
            } else {
                // Fewer than 8 postings left: scalar resolve.
                let idx = lo + postings[lo..n].partition_point(|&p| raw(p) < c);
                if idx < n && raw(postings[idx]) == c {
                    if live(postings[idx]) {
                        out.push(c);
                    }
                    lo = idx + 1;
                } else {
                    lo = idx;
                }
            }
        }
    }

    /// AVX2 fused AND-ANDNOT-popcount over u64 words (see
    /// `super::and_words`). All three slices have equal length.
    ///
    /// SAFETY contract (upheld by the `and_words` wrapper): AVX2 must be
    /// available (runtime-detected). Vector loads/stores touch lanes
    /// `k..k + 4` only while `k + 4 <= len`; `dst` is `&mut` so it
    /// cannot alias the shared inputs.
    // analyze:allow(unsafe-code): avx2 intrinsics on bounds-checked 4-word lanes, avx2 runtime-detected by the caller
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn and_words_avx2(dst: &mut [u64], present: &[u64], deleted: &[u64]) -> u64 {
        let n = dst.len();
        debug_assert!(present.len() == n && deleted.len() == n);
        let mut count = 0u64;
        let mut k = 0usize;
        while k + 4 <= n {
            let d = _mm256_loadu_si256(dst.as_ptr().add(k).cast::<__m256i>());
            let p = _mm256_loadu_si256(present.as_ptr().add(k).cast::<__m256i>());
            let t = _mm256_loadu_si256(deleted.as_ptr().add(k).cast::<__m256i>());
            let v = _mm256_andnot_si256(t, _mm256_and_si256(d, p));
            _mm256_storeu_si256(dst.as_mut_ptr().add(k).cast::<__m256i>(), v);
            count += u64::from((_mm256_extract_epi64::<0>(v) as u64).count_ones());
            count += u64::from((_mm256_extract_epi64::<1>(v) as u64).count_ones());
            count += u64::from((_mm256_extract_epi64::<2>(v) as u64).count_ones());
            count += u64::from((_mm256_extract_epi64::<3>(v) as u64).count_ones());
            k += 4;
        }
        while k < n {
            let v = dst[k] & present[k] & !deleted[k];
            dst[k] = v;
            count += u64::from(v.count_ones());
            k += 1;
        }
        count
    }

    /// SSSE3 stream-vbyte decode (see `super::svb_decode_into`): one
    /// `pshufb` per control byte expands 4 packed deltas to u32 lanes,
    /// an in-register shift-add pair turns them into a prefix sum, and
    /// the running base rides in lane 3 between groups. Falls back to
    /// the scalar tail when fewer than 4 values remain or a full
    /// 16-byte data load would run out of bounds.
    ///
    /// SAFETY contract (upheld by the `svb_decode_into` wrapper): SSSE3
    /// must be available (runtime-detected). The 16-byte data load at
    /// `pos` only happens while `pos + 16 <= data.len()`, and the store
    /// writes `out[k..k + 4]` only while `k + 4 <= out.len()`.
    // analyze:allow(unsafe-code): ssse3 intrinsics; every 16-byte load and 4-lane store is bounds-checked in the loop condition
    #[target_feature(enable = "ssse3")]
    pub(super) unsafe fn svb_decode_ssse3(
        first: u32,
        ctrl: &[u8],
        data: &[u8],
        out: &mut [u32],
    ) -> (usize, usize) {
        let n = out.len();
        out[0] = first;
        // analyze:allow(unguarded-cast): id < 2^31 broadcast, bit-identical as i32
        let mut base = _mm_set1_epi32(first as i32);
        let (mut k, mut ci, mut pos) = (1usize, 0usize, 0usize);
        while k + 4 <= n && ci < ctrl.len() && pos + 16 <= data.len() {
            let c = ctrl[ci] as usize;
            let shuf = _mm_loadu_si128(SVB_TABLES.shuffle[c].as_ptr().cast::<__m128i>());
            let packed = _mm_loadu_si128(data.as_ptr().add(pos).cast::<__m128i>());
            let deltas = _mm_shuffle_epi8(packed, shuf);
            // In-register prefix sum of the 4 deltas.
            let s1 = _mm_add_epi32(deltas, _mm_slli_si128::<4>(deltas));
            let s2 = _mm_add_epi32(s1, _mm_slli_si128::<8>(s1));
            let ids = _mm_add_epi32(s2, base);
            _mm_storeu_si128(out.as_mut_ptr().add(k).cast::<__m128i>(), ids);
            // Splat lane 3 (the last id) as the next group's base.
            base = _mm_shuffle_epi32::<0xFF>(ids);
            ci += 1;
            pos += SVB_TABLES.len[c] as usize;
            k += 4;
        }
        // analyze:allow(unguarded-cast): lane 3 of a u32-id vector, bit-identical as u32
        let running = _mm_cvtsi128_si32(base) as u32;
        svb_decode_tail(k, ci, pos, running, ctrl, data, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::TOMBSTONE;

    #[test]
    fn level_is_stable_and_at_least_scalar() {
        assert_eq!(level(), level());
        assert!(level() >= SimdLevel::Scalar);
    }

    #[test]
    fn merge_matches_scalar_on_blocky_input() {
        let cands: Vec<u32> = (0..256).map(|i| i * 2).collect();
        let postings: Vec<u32> = (0..256)
            .map(|i| {
                if i % 7 == 0 {
                    (i * 3) | TOMBSTONE
                } else {
                    i * 3
                }
            })
            .collect();
        let mut want = Vec::new();
        kernels::intersect_merge_into(&cands, &postings, &mut want);
        let mut got = Vec::new();
        merge_into_forced(&cands, &postings, &mut got);
        assert_eq!(got, want);
    }

    #[test]
    fn gallop_matches_scalar_on_skewed_input() {
        let postings: Vec<u32> = (0..4096)
            .map(|i| {
                if i % 5 == 0 {
                    (i * 2) | TOMBSTONE
                } else {
                    i * 2
                }
            })
            .collect();
        let cands: Vec<u32> = (0..64).map(|i| i * 131).collect();
        let mut want = Vec::new();
        kernels::intersect_gallop_into(&cands, &postings, &mut want);
        let mut got = Vec::new();
        gallop_into_forced(&cands, &postings, &mut got);
        assert_eq!(got, want);
    }

    #[test]
    fn and_words_matches_scalar() {
        let present: Vec<u64> = (0..33)
            .map(|i| 0x9e37_79b9_7f4a_7c15u64.rotate_left(i))
            .collect();
        let deleted: Vec<u64> = (0..33)
            .map(|i| 0x0123_4567_89ab_cdefu64.rotate_right(i))
            .collect();
        let mut dst: Vec<u64> = (0..33).map(|i| u64::MAX >> (i % 17)).collect();
        let mut want = dst.clone();
        let mut want_count = 0u64;
        for ((w, &p), &t) in want.iter_mut().zip(&present).zip(&deleted) {
            *w &= p & !t;
            want_count += u64::from(w.count_ones());
        }
        let got_count = and_words(&mut dst, &present, &deleted);
        assert_eq!(dst, want);
        assert_eq!(got_count, want_count);
    }

    #[test]
    fn svb_round_trip_with_and_without_pad() {
        let ids: Vec<u32> = (0..321u32)
            .scan(7u32, |acc, i| {
                *acc += 1 + i.wrapping_mul(2654435761u32.wrapping_mul(i)) % 1000;
                Some(*acc)
            })
            .collect();
        let mut ctrl = Vec::new();
        let mut data = Vec::new();
        // Inline encoder mirroring crate::compress::svb_encode_deltas.
        for chunk in ids
            .windows(2)
            .map(|w| w[1] - w[0])
            .collect::<Vec<_>>()
            .chunks(4)
        {
            let mut c = 0u8;
            for (lane, &v) in chunk.iter().enumerate() {
                let nbytes = (4 - (v.leading_zeros() / 8).min(3)) as usize;
                c |= ((nbytes - 1) as u8) << (2 * lane);
                data.extend_from_slice(&v.to_le_bytes()[..nbytes]);
            }
            ctrl.push(c);
        }
        for pad in [0usize, 16] {
            let mut padded = data.clone();
            padded.resize(data.len() + pad, 0);
            let mut out = vec![0u32; ids.len()];
            let (ci, pos) = svb_decode_into(ids[0], &ctrl, &padded, &mut out);
            assert_eq!(out, ids);
            assert_eq!(ci, ctrl.len());
            assert_eq!(pos, data.len());
        }
    }
}
