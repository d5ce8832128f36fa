//! The vectorized stream-vbyte decoder, with runtime dispatch.
//!
//! This is the **only module in the workspace allowed to contain
//! `unsafe`** (the `unsafe-code` rule of `tir-analyze` machine-checks
//! the allowlist). It holds one `core::arch::x86_64` kernel behind
//! runtime CPU-feature detection, [`svb_decode_into`]: an SSSE3
//! stream-vbyte delta decode (per-control `pshufb` shuffle from a
//! 256-entry table) with an in-register prefix sum, used by
//! [`crate::compress::BlockPostings`]. Its scalar twin in this module
//! stays the source of truth, and the decode round-trip tests hold both
//! to the same encoded ids.
//!
//! Set intersection has no vector kernel: every conjunction step, array
//! or run, runs on the scalar kernels of [`crate::kernels`].
//!
//! Dispatch is decided once per process ([`level`]) from CPUID, and can
//! be forced down with the `TIR_SIMD` environment variable
//! (`off`/`0`/`scalar`) — CI runs the kernel suite with `TIR_SIMD=off`
//! to keep the scalar decode honest.

#![allow(unsafe_code)]

use std::sync::OnceLock;

/// The vector instruction tier selected for this process.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SimdLevel {
    /// No vector kernel: the scalar decode only.
    Scalar,
    /// SSSE3: the `pshufb` stream-vbyte decoder.
    Ssse3,
}

/// The dispatch level, decided once per process: the best tier CPUID
/// reports, unless the `TIR_SIMD` environment variable is `off`, `0` or
/// `scalar`, which force [`SimdLevel::Scalar`] (anything else is
/// ignored).
pub fn level() -> SimdLevel {
    static LEVEL: OnceLock<SimdLevel> = OnceLock::new();
    *LEVEL.get_or_init(detect)
}

fn detect() -> SimdLevel {
    match std::env::var("TIR_SIMD").ok().as_deref() {
        Some("off") | Some("0") | Some("scalar") => SimdLevel::Scalar,
        _ => detect_cpu(),
    }
}

#[cfg(target_arch = "x86_64")]
fn detect_cpu() -> SimdLevel {
    if std::arch::is_x86_feature_detected!("ssse3") {
        SimdLevel::Ssse3
    } else {
        SimdLevel::Scalar
    }
}

#[cfg(not(target_arch = "x86_64"))]
fn detect_cpu() -> SimdLevel {
    SimdLevel::Scalar
}

/// Blocks of at most this many ids decode on the scalar path: below a
/// few vector groups the dispatch costs more than it saves.
pub const SIMD_MIN_LEN: usize = 16;

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
    use std::arch::x86_64::{
        __m128i, _mm_add_epi32, _mm_cvtsi128_si32, _mm_loadu_si128, _mm_set1_epi32,
        _mm_shuffle_epi32, _mm_shuffle_epi8, _mm_slli_si128, _mm_storeu_si128,
    };

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

    #[test]
    fn level_is_stable_and_at_least_scalar() {
        assert_eq!(level(), level());
        assert!(level() >= SimdLevel::Scalar);
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
