//! SIMD tier detection: one CPU probe per process, cached in one atomic.
//!
//! Every kernel in this crate that has a hand-written SIMD body picks it
//! from [`level`]. Probing once and caching keeps every call in a process
//! on the same tier, which the bit-determinism contracts in
//! [`crate::kernels`] rest on: blocked and per-query scores agree only
//! because both go through the same dispatch.

use std::sync::atomic::{AtomicU8, Ordering};

/// The SIMD tier this process runs its kernels at. Tiers are ordered: a
/// higher tier has every instruction set of the lower ones.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// No hand-written SIMD: the unrolled scalar bodies.
    Portable,
    /// AVX2 and FMA: the 8-lane ymm kernels.
    Avx2Fma,
    /// AVX2, FMA and AVX-512 F, VL, DQ and VNNI: adds the zmm row-pair
    /// `gemm_nt` tile and the VNNI int8 screen.
    Avx512,
}

/// Cached [`Level`]: 0 = not yet probed, otherwise `level as u8 + 1`.
static LEVEL: AtomicU8 = AtomicU8::new(0);

/// The tier this process dispatches to (probed on first call, then cached).
#[inline]
pub fn level() -> Level {
    match LEVEL.load(Ordering::Relaxed) {
        1 => Level::Portable,
        2 => Level::Avx2Fma,
        3 => Level::Avx512,
        _ => {
            // Relaxed: the value publishes no other data, and racing
            // first callers all probe the same CPU.
            let level = detect();
            LEVEL.store(level as u8 + 1, Ordering::Relaxed);
            level
        }
    }
}

fn detect() -> Level {
    #[cfg(target_arch = "x86_64")]
    {
        use std::is_x86_feature_detected as has;
        if has!("avx2") && has!("fma") {
            let avx512 =
                has!("avx512f") && has!("avx512vl") && has!("avx512dq") && has!("avx512vnni");
            return if avx512 {
                Level::Avx512
            } else {
                Level::Avx2Fma
            };
        }
    }
    Level::Portable
}
