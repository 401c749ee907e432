//! Blocked, SIMD-friendly evaluation kernels.
//!
//! Link-prediction ranking reduces to scoring a small matrix of query
//! contexts against the whole entity table — a tall-skinny `A · Bᵀ`. The
//! kernels here make that memory-bandwidth-bound instead of latency-bound:
//!
//! * [`dot_fast`] / [`trilinear_fast`] / [`hadamard_axpy_fast`] — unrolled
//!   multi-accumulator variants of the `vecops` kernels. Eight independent
//!   f32 lanes break the serial dependency chain of the classic
//!   one-accumulator loop, so the autovectorizer maps them onto full-width
//!   SIMD FMAs.
//! * [`gemm_nt`] — a cache-blocked `out = A · Bᵀ` over row-major inputs
//!   that streams each block of B (the entity table) through L2 exactly
//!   once per block of A rows (the packed query contexts), and scores it in
//!   register tiles of several (query, entity) pairs at once.
//!
//! # Determinism contract
//!
//! Every element of [`gemm_nt`]'s output is computed by the *same*
//! reduction (same lane count, same combine tree, same FMA usage) as one
//! [`dot_fast`] call on the corresponding rows. Blocking and register
//! tiling only reorder *which* (row, column) pairs are computed when, and
//! how many at once — never the arithmetic inside one pair — so the blocked
//! evaluation path produces bit-identical scores to the per-query path
//! within a process. On x86-64 the kernels dispatch once (cached, see
//! [`crate::dispatch`]) to one of three tiers, and both callers go through
//! the same dispatch, preserving the bit-identity:
//!
//! * **AVX-512** runs `gemm_nt` in zmm tiles whose two 256-bit halves are
//!   two independent 8-lane accumulators; every other f32 kernel here runs
//!   its AVX2 body. Its results equal the AVX2 tier's bit for bit.
//! * **AVX2+FMA** runs the hand-written ymm kernels.
//! * **Portable** runs the unrolled scalar bodies. It may differ from both
//!   SIMD tiers in the last bit — the contract is within a process, not
//!   across machines.

use crate::dispatch::{level, Level};

/// Number of independent accumulator lanes. Eight f32 lanes fill one AVX2
/// register (or two SSE2 registers) and are enough to hide FMA latency.
const LANES: usize = 8;

/// Whether the AVX2+FMA kernels are active (the [`Level::Avx2Fma`] tier or
/// above, detected once per process).
#[inline]
pub fn avx2_fma_enabled() -> bool {
    level() >= Level::Avx2Fma
}

/// The shared dot-product body: eight independent accumulators over
/// `chunks_exact(8)`, a fixed pairwise combine tree, then the scalar tail.
/// `FMA = true` uses `f32::mul_add` (a single hardware instruction only
/// inside a `target_feature(enable = "fma")` context — calling it without
/// FMA enabled would lower to a slow libm call, hence the const split).
#[inline(always)]
fn dot_body<const FMA: bool>(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = [0.0f32; LANES];
    let ca = a.chunks_exact(LANES);
    let cb = b.chunks_exact(LANES);
    let (ra, rb) = (ca.remainder(), cb.remainder());
    for (xa, xb) in ca.zip(cb) {
        for l in 0..LANES {
            if FMA {
                acc[l] = xa[l].mul_add(xb[l], acc[l]);
            } else {
                acc[l] += xa[l] * xb[l];
            }
        }
    }
    let mut tail = 0.0f32;
    for (x, y) in ra.iter().zip(rb) {
        if FMA {
            tail = x.mul_add(*y, tail);
        } else {
            tail += x * y;
        }
    }
    (((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7]))) + tail
}

/// Trilinear body, same lane structure as [`dot_body`].
#[inline(always)]
fn trilinear_body<const FMA: bool>(a: &[f32], b: &[f32], c: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    debug_assert_eq!(a.len(), c.len());
    let mut acc = [0.0f32; LANES];
    let ca = a.chunks_exact(LANES);
    let cb = b.chunks_exact(LANES);
    let cc = c.chunks_exact(LANES);
    let (ra, rb, rc) = (ca.remainder(), cb.remainder(), cc.remainder());
    for ((xa, xb), xc) in ca.zip(cb).zip(cc) {
        for l in 0..LANES {
            if FMA {
                acc[l] = (xa[l] * xb[l]).mul_add(xc[l], acc[l]);
            } else {
                acc[l] += xa[l] * xb[l] * xc[l];
            }
        }
    }
    let mut tail = 0.0f32;
    for ((x, y), z) in ra.iter().zip(rb).zip(rc) {
        if FMA {
            tail = (x * y).mul_add(*z, tail);
        } else {
            tail += x * y * z;
        }
    }
    (((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7]))) + tail
}

/// Hadamard-AXPY body: `out[d] += alpha · a[d] · b[d]`.
#[inline(always)]
fn hadamard_axpy_body<const FMA: bool>(alpha: f32, a: &[f32], b: &[f32], out: &mut [f32]) {
    debug_assert_eq!(a.len(), b.len());
    debug_assert_eq!(a.len(), out.len());
    for ((o, x), y) in out.iter_mut().zip(a).zip(b) {
        if FMA {
            *o = (alpha * x).mul_add(*y, *o);
        } else {
            *o += alpha * x * y;
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    //! Hand-written AVX2+FMA kernels, plus the AVX-512 `gemm_nt` tile. Four
    //! 256-bit accumulators hide the FMA latency chain; the horizontal
    //! reduction order is fixed, so the same inputs always produce the same
    //! bits on this path. Callers must check [`super::avx2_fma_enabled`]
    //! first, and the [`Level::Avx512`](crate::dispatch::Level::Avx512)
    //! tier before [`gemm_nt_avx512`].
    use super::rows_per_block;
    use std::arch::x86_64::*;

    /// Shared dot kernel: the one reduction [`dot`] runs and every
    /// `gemm_nt` tile replicates, which is what makes blocked and
    /// per-query scores bit-identical.
    #[inline]
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn dot_inner(a: *const f32, b: *const f32, len: usize) -> f32 {
        let mut acc0 = _mm256_setzero_ps();
        let mut acc1 = _mm256_setzero_ps();
        let mut acc2 = _mm256_setzero_ps();
        let mut acc3 = _mm256_setzero_ps();
        let mut i = 0usize;
        while i + 32 <= len {
            acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(a.add(i)), _mm256_loadu_ps(b.add(i)), acc0);
            acc1 = _mm256_fmadd_ps(
                _mm256_loadu_ps(a.add(i + 8)),
                _mm256_loadu_ps(b.add(i + 8)),
                acc1,
            );
            acc2 = _mm256_fmadd_ps(
                _mm256_loadu_ps(a.add(i + 16)),
                _mm256_loadu_ps(b.add(i + 16)),
                acc2,
            );
            acc3 = _mm256_fmadd_ps(
                _mm256_loadu_ps(a.add(i + 24)),
                _mm256_loadu_ps(b.add(i + 24)),
                acc3,
            );
            i += 32;
        }
        let mut acc = _mm256_add_ps(_mm256_add_ps(acc0, acc1), _mm256_add_ps(acc2, acc3));
        while i + 8 <= len {
            acc = _mm256_fmadd_ps(_mm256_loadu_ps(a.add(i)), _mm256_loadu_ps(b.add(i)), acc);
            i += 8;
        }
        let mut lanes = [0.0f32; 8];
        _mm256_storeu_ps(lanes.as_mut_ptr(), acc);
        let mut s = ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3]))
            + ((lanes[4] + lanes[5]) + (lanes[6] + lanes[7]));
        while i < len {
            s = (*a.add(i)).mul_add(*b.add(i), s);
            i += 1;
        }
        s
    }

    #[target_feature(enable = "avx2", enable = "fma")]
    pub(super) unsafe fn dot(a: &[f32], b: &[f32]) -> f32 {
        debug_assert_eq!(a.len(), b.len());
        dot_inner(a.as_ptr(), b.as_ptr(), a.len())
    }

    #[target_feature(enable = "avx2", enable = "fma")]
    pub(super) unsafe fn trilinear(a: &[f32], b: &[f32], c: &[f32]) -> f32 {
        debug_assert_eq!(a.len(), b.len());
        debug_assert_eq!(a.len(), c.len());
        let (pa, pb, pc) = (a.as_ptr(), b.as_ptr(), c.as_ptr());
        let len = a.len();
        let mut acc0 = _mm256_setzero_ps();
        let mut acc1 = _mm256_setzero_ps();
        let mut i = 0usize;
        while i + 16 <= len {
            let p0 = _mm256_mul_ps(_mm256_loadu_ps(pa.add(i)), _mm256_loadu_ps(pb.add(i)));
            let p1 =
                _mm256_mul_ps(_mm256_loadu_ps(pa.add(i + 8)), _mm256_loadu_ps(pb.add(i + 8)));
            acc0 = _mm256_fmadd_ps(p0, _mm256_loadu_ps(pc.add(i)), acc0);
            acc1 = _mm256_fmadd_ps(p1, _mm256_loadu_ps(pc.add(i + 8)), acc1);
            i += 16;
        }
        let mut acc = _mm256_add_ps(acc0, acc1);
        while i + 8 <= len {
            let p = _mm256_mul_ps(_mm256_loadu_ps(pa.add(i)), _mm256_loadu_ps(pb.add(i)));
            acc = _mm256_fmadd_ps(p, _mm256_loadu_ps(pc.add(i)), acc);
            i += 8;
        }
        let mut lanes = [0.0f32; 8];
        _mm256_storeu_ps(lanes.as_mut_ptr(), acc);
        let mut s = ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3]))
            + ((lanes[4] + lanes[5]) + (lanes[6] + lanes[7]));
        while i < len {
            s = (*pa.add(i) * *pb.add(i)).mul_add(*pc.add(i), s);
            i += 1;
        }
        s
    }

    #[target_feature(enable = "avx2", enable = "fma")]
    pub(super) unsafe fn hadamard_axpy(alpha: f32, a: &[f32], b: &[f32], out: &mut [f32]) {
        debug_assert_eq!(a.len(), b.len());
        debug_assert_eq!(a.len(), out.len());
        let (pa, pb, po) = (a.as_ptr(), b.as_ptr(), out.as_mut_ptr());
        let len = out.len();
        let valpha = _mm256_set1_ps(alpha);
        let mut i = 0usize;
        while i + 8 <= len {
            let p = _mm256_mul_ps(valpha, _mm256_loadu_ps(pa.add(i)));
            let o = _mm256_fmadd_ps(p, _mm256_loadu_ps(pb.add(i)), _mm256_loadu_ps(po.add(i)));
            _mm256_storeu_ps(po.add(i), o);
            i += 8;
        }
        while i < len {
            *po.add(i) = (alpha * *pa.add(i)).mul_add(*pb.add(i), *po.add(i));
            i += 1;
        }
    }

    /// `entry[d] = base(entry[d]) + (coef·grad[d] + l2·params[d])` with
    /// plain mul/add (NO FMA — must match the scalar expression bit for
    /// bit). `WRITE = true` replaces `base(entry[d])` with literal `0.0`,
    /// the first-touch form for a fresh accumulator row. (Non-temporal
    /// stores were tried here and lost: gradient rows are re-read by the
    /// optimizer step moments later, and 16-byte-aligned slab rows force
    /// partial write-combining flushes.)
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn scale_add_l2<const WRITE: bool>(
        entry: &mut [f32],
        grad: &[f32],
        coef: f32,
        l2: f32,
        params: &[f32],
    ) {
        debug_assert_eq!(entry.len(), grad.len());
        debug_assert_eq!(entry.len(), params.len());
        let (pe, pg, pp) = (entry.as_mut_ptr(), grad.as_ptr(), params.as_ptr());
        let len = entry.len();
        let (vc, vl) = (_mm256_set1_ps(coef), _mm256_set1_ps(l2));
        let mut i = 0usize;
        while i + 8 <= len {
            let s = _mm256_add_ps(
                _mm256_mul_ps(vc, _mm256_loadu_ps(pg.add(i))),
                _mm256_mul_ps(vl, _mm256_loadu_ps(pp.add(i))),
            );
            let base = if WRITE { _mm256_setzero_ps() } else { _mm256_loadu_ps(pe.add(i)) };
            _mm256_storeu_ps(pe.add(i), _mm256_add_ps(base, s));
            i += 8;
        }
        while i < len {
            let s = coef * *pg.add(i) + l2 * *pp.add(i);
            *pe.add(i) = if WRITE { 0.0 + s } else { *pe.add(i) + s };
            i += 1;
        }
    }

    /// `entry[d] += alpha·params[d]` with plain mul/add (no FMA), matching
    /// the scalar AXPY expression bitwise.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn axpy(alpha: f32, params: &[f32], entry: &mut [f32]) {
        debug_assert_eq!(entry.len(), params.len());
        let (pe, pp) = (entry.as_mut_ptr(), params.as_ptr());
        let len = entry.len();
        let va = _mm256_set1_ps(alpha);
        let mut i = 0usize;
        while i + 8 <= len {
            let s = _mm256_mul_ps(va, _mm256_loadu_ps(pp.add(i)));
            _mm256_storeu_ps(pe.add(i), _mm256_add_ps(_mm256_loadu_ps(pe.add(i)), s));
            i += 8;
        }
        while i < len {
            *pe.add(i) += alpha * *pp.add(i);
            i += 1;
        }
    }

    /// First-touch form of [`hadamard_axpy`]:
    /// `out[d] = fma(alpha·a[d], b[d], 0.0)` — exactly what
    /// [`hadamard_axpy`] computes against a zeroed accumulator, fused into
    /// a single store.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(super) unsafe fn hadamard_write(alpha: f32, a: &[f32], b: &[f32], out: &mut [f32]) {
        debug_assert_eq!(a.len(), b.len());
        debug_assert_eq!(a.len(), out.len());
        let (pa, pb, po) = (a.as_ptr(), b.as_ptr(), out.as_mut_ptr());
        let len = out.len();
        let valpha = _mm256_set1_ps(alpha);
        let zero = _mm256_setzero_ps();
        let mut i = 0usize;
        while i + 8 <= len {
            let p = _mm256_mul_ps(valpha, _mm256_loadu_ps(pa.add(i)));
            _mm256_storeu_ps(po.add(i), _mm256_fmadd_ps(p, _mm256_loadu_ps(pb.add(i)), zero));
            i += 8;
        }
        while i < len {
            *po.add(i) = (alpha * *pa.add(i)).mul_add(*pb.add(i), 0.0);
            i += 1;
        }
    }

    /// Fused sparse-Adam row update, the SIMD twin of the scalar loop in
    /// [`super::adam_update_body`]. Every operation is a plain mul / add /
    /// div / sqrt (NO FMA): all four are exactly rounded by IEEE 754, so
    /// each lane computes bit-identically to the scalar expression — the
    /// property the cross-thread-count training parity contract rests on.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn adam_update(
        params: &mut [f32],
        grads: &[f32],
        m: &mut [f32],
        v: &mut [f32],
        h: &super::AdamParams,
    ) {
        debug_assert_eq!(params.len(), grads.len());
        debug_assert_eq!(params.len(), m.len());
        debug_assert_eq!(params.len(), v.len());
        let len = params.len();
        let (pp, pg, pm, pv) =
            (params.as_mut_ptr(), grads.as_ptr(), m.as_mut_ptr(), v.as_mut_ptr());
        let vb1 = _mm256_set1_ps(h.beta1);
        let vb2 = _mm256_set1_ps(h.beta2);
        let vo1 = _mm256_set1_ps(1.0 - h.beta1);
        let vo2 = _mm256_set1_ps(1.0 - h.beta2);
        let vbc1 = _mm256_set1_ps(h.bc1);
        let vbc2 = _mm256_set1_ps(h.bc2);
        let vlr = _mm256_set1_ps(h.lr);
        let veps = _mm256_set1_ps(h.eps);
        let mut i = 0usize;
        while i + 8 <= len {
            let g = _mm256_loadu_ps(pg.add(i));
            // m ← β₁·m + (1−β₁)·g
            let mn = _mm256_add_ps(
                _mm256_mul_ps(vb1, _mm256_loadu_ps(pm.add(i))),
                _mm256_mul_ps(vo1, g),
            );
            _mm256_storeu_ps(pm.add(i), mn);
            // v ← β₂·v + ((1−β₂)·g)·g  (left-associated like the scalar)
            let vn = _mm256_add_ps(
                _mm256_mul_ps(vb2, _mm256_loadu_ps(pv.add(i))),
                _mm256_mul_ps(_mm256_mul_ps(vo2, g), g),
            );
            _mm256_storeu_ps(pv.add(i), vn);
            // θ ← θ − (lr·(m/bc1)) / (√(v/bc2) + ε)
            let m_hat = _mm256_div_ps(mn, vbc1);
            let v_hat = _mm256_div_ps(vn, vbc2);
            let denom = _mm256_add_ps(_mm256_sqrt_ps(v_hat), veps);
            let delta = _mm256_div_ps(_mm256_mul_ps(vlr, m_hat), denom);
            _mm256_storeu_ps(pp.add(i), _mm256_sub_ps(_mm256_loadu_ps(pp.add(i)), delta));
            i += 8;
        }
        while i < len {
            let g = *pg.add(i);
            let mn = h.beta1 * *pm.add(i) + (1.0 - h.beta1) * g;
            *pm.add(i) = mn;
            let vn = h.beta2 * *pv.add(i) + (1.0 - h.beta2) * g * g;
            *pv.add(i) = vn;
            let m_hat = mn / h.bc1;
            let v_hat = vn / h.bc2;
            *pp.add(i) -= h.lr * m_hat / (v_hat.sqrt() + h.eps);
            i += 1;
        }
    }

    #[target_feature(enable = "avx2", enable = "fma")]
    pub(super) unsafe fn dot_gather(
        a: &[f32],
        b: &[f32],
        k: usize,
        pairs: &[(u32, u32)],
        out: &mut [f32],
    ) {
        let (pa, pb) = (a.as_ptr(), b.as_ptr());
        for (slot, &(ai, bi)) in out.iter_mut().zip(pairs) {
            *slot = dot_inner(pa.add(ai as usize * k), pb.add(bi as usize * k), k);
        }
    }

    /// [`dot_inner`]'s lane-combine tree
    /// `((l0+l1)+(l2+l3)) + ((l4+l5)+(l6+l7))` in three shuffle-and-add
    /// steps. Every add takes the lower lane as its first operand, so each
    /// step rounds exactly like the scalar tree.
    #[inline]
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn combine8(v: __m256) -> f32 {
        // Lane 2j ← l(2j) + l(2j+1), then lane 4j ← t(4j) + t(4j+2).
        let t = _mm256_add_ps(v, _mm256_permute_ps::<0b10_11_00_01>(v));
        let u = _mm256_add_ps(t, _mm256_permute_ps::<0b01_00_11_10>(t));
        _mm_cvtss_f32(_mm_add_ss(_mm256_castps256_ps128(u), _mm256_extractf128_ps::<1>(u)))
    }

    /// `R` query rows against one entity row: each 8-float entity chunk is
    /// loaded once for the `4·R` accumulators it feeds. Per output this is
    /// [`dot_inner`] step for step: four accumulators over 32-float
    /// strides, `(acc0+acc1)+(acc2+acc3)`, the 8-float remainder FMAs, the
    /// lane combine and the scalar FMA tail.
    ///
    /// # Safety
    /// AVX2 and FMA must be available; `a` must point at `R` rows of `len`
    /// floats each, back to back, and `b` at one row of `len` floats.
    #[inline]
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn rows_tile<const R: usize>(a: *const f32, b: *const f32, len: usize) -> [f32; R] {
        let mut acc = [[_mm256_setzero_ps(); 4]; R];
        let mut i = 0usize;
        while i + 32 <= len {
            for q in 0..4 {
                let bv = _mm256_loadu_ps(b.add(i + 8 * q));
                for (r, acc_r) in acc.iter_mut().enumerate() {
                    let av = _mm256_loadu_ps(a.add(r * len + i + 8 * q));
                    acc_r[q] = _mm256_fmadd_ps(av, bv, acc_r[q]);
                }
            }
            i += 32;
        }
        let mut tot = [_mm256_setzero_ps(); R];
        for (t, q4) in tot.iter_mut().zip(&acc) {
            *t = _mm256_add_ps(_mm256_add_ps(q4[0], q4[1]), _mm256_add_ps(q4[2], q4[3]));
        }
        while i + 8 <= len {
            let bv = _mm256_loadu_ps(b.add(i));
            for (r, t) in tot.iter_mut().enumerate() {
                *t = _mm256_fmadd_ps(_mm256_loadu_ps(a.add(r * len + i)), bv, *t);
            }
            i += 8;
        }
        let mut s = [0.0f32; R];
        for (r, (s_r, t)) in s.iter_mut().zip(&tot).enumerate() {
            *s_r = combine8(*t);
            for d in i..len {
                *s_r = (*a.add(r * len + d)).mul_add(*b.add(d), *s_r);
            }
        }
        s
    }

    /// The `R` query rows `arows` against every entity row of one block.
    /// Output row `r` starts at `orows[r·n]`, and this block's columns at
    /// `j0` within it.
    #[inline]
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn rows_block<const R: usize>(
        arows: &[f32],
        bblock: &[f32],
        k: usize,
        orows: &mut [f32],
        n: usize,
        j0: usize,
    ) {
        assert_eq!(arows.len(), R * k, "a {R}-row tile needs {R} rows of {k}");
        for j in 0..bblock.len() / k {
            let s = rows_tile::<R>(arows.as_ptr(), bblock.as_ptr().add(j * k), k);
            for (r, v) in s.into_iter().enumerate() {
                orows[r * n + j0 + j] = v;
            }
        }
    }

    /// AVX2 `gemm_nt`: per L2 block of entity rows, tiles of three query
    /// rows × one entity row (twelve ymm accumulators), then a two- or
    /// one-row tile for the ragged rows.
    ///
    /// # Safety
    /// AVX2 and FMA must be available; shapes as [`super::gemm_nt`] checks.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(super) unsafe fn gemm_nt_avx2(a: &[f32], b: &[f32], k: usize, out: &mut [f32]) {
        let m = a.len() / k;
        let n = b.len() / k;
        let nb = rows_per_block(k);
        for (block_idx, bblock) in b.chunks(nb * k).enumerate() {
            let j0 = block_idx * nb;
            let mut i = 0usize;
            while i < m {
                let w = (m - i).min(3);
                let arows = &a[i * k..(i + w) * k];
                let orows = &mut out[i * n..(i + w) * n];
                match w {
                    3 => rows_block::<3>(arows, bblock, k, orows, n, j0),
                    2 => rows_block::<2>(arows, bblock, k, orows, n, j0),
                    _ => rows_block::<1>(arows, bblock, k, orows, n, j0),
                }
                i += w;
            }
        }
    }

    /// One 8-float chunk of a query row pair: row `2p`'s chunk in the low
    /// half, row `2p+1`'s in the high half. 64-byte aligned, so each chunk
    /// is one aligned zmm load.
    #[derive(Clone, Copy)]
    #[repr(C, align(64))]
    struct PairChunk([f32; 16]);

    /// [`combine8`] on both 256-bit halves of `v` at once, in three
    /// shuffle-and-add steps whose adds keep the lower lane first. Returns
    /// the low half's sum, then the high half's.
    #[inline]
    #[target_feature(enable = "avx512f,avx512vl,avx512dq,avx2,fma")]
    unsafe fn combine8x2(v: __m512) -> (f32, f32) {
        let t = _mm512_add_ps(v, _mm512_permute_ps::<0b10_11_00_01>(v));
        let u = _mm512_add_ps(t, _mm512_permute_ps::<0b01_00_11_10>(t));
        // Lanes 0 and 8 ← u0 + u4 and u8 + u12.
        let w = _mm512_add_ps(u, _mm512_shuffle_f32x4::<0b00_11_00_01>(u, u));
        (_mm512_cvtss_f32(w), _mm_cvtss_f32(_mm512_extractf32x4_ps::<2>(w)))
    }

    /// `P` query row pairs × `E` entity rows. Each zmm accumulator holds
    /// the two independent 8-lane accumulators of one row pair, and each
    /// 8-float entity chunk is broadcast into both halves, so per output
    /// this is [`dot_inner`] step for step (see [`rows_tile`]).
    ///
    /// # Safety
    /// AVX-512 F/VL/DQ, AVX2 and FMA must be available. `pa` must point at
    /// the pairs' `P·(len/8)` chunks (pair `p`'s chunk `c` at
    /// `pa + p·(len/8) + c`), `a` at their `2P` unpacked rows of `len`
    /// floats (read by the scalar tail), `b` at `E` entity rows of `len`
    /// floats, and `o + r·n + e` must be writable for every row `r < 2P`
    /// and entity `e < E`.
    #[inline]
    #[target_feature(enable = "avx512f,avx512vl,avx512dq,avx2,fma")]
    unsafe fn pair_tile<const P: usize, const E: usize>(
        pa: *const PairChunk,
        a: *const f32,
        b: *const f32,
        len: usize,
        o: *mut f32,
        n: usize,
    ) {
        let chunks = len / 8;
        let mut acc = [[[_mm512_setzero_ps(); 4]; P]; E];
        let mut av = [_mm512_setzero_ps(); P];
        let mut i = 0usize;
        while i + 32 <= len {
            for q in 0..4 {
                for (p, v) in av.iter_mut().enumerate() {
                    *v = _mm512_load_ps(pa.add(p * chunks + i / 8 + q) as *const f32);
                }
                for (e, acc_e) in acc.iter_mut().enumerate() {
                    let bv = _mm512_broadcast_f32x8(_mm256_loadu_ps(b.add(e * len + i + 8 * q)));
                    for (acc_ep, v) in acc_e.iter_mut().zip(&av) {
                        acc_ep[q] = _mm512_fmadd_ps(*v, bv, acc_ep[q]);
                    }
                }
            }
            i += 32;
        }
        let mut tot = [[_mm512_setzero_ps(); P]; E];
        for (tot_e, acc_e) in tot.iter_mut().zip(&acc) {
            for (t, q4) in tot_e.iter_mut().zip(acc_e) {
                *t = _mm512_add_ps(_mm512_add_ps(q4[0], q4[1]), _mm512_add_ps(q4[2], q4[3]));
            }
        }
        while i + 8 <= len {
            for (p, v) in av.iter_mut().enumerate() {
                *v = _mm512_load_ps(pa.add(p * chunks + i / 8) as *const f32);
            }
            for (e, tot_e) in tot.iter_mut().enumerate() {
                let bv = _mm512_broadcast_f32x8(_mm256_loadu_ps(b.add(e * len + i)));
                for (t, v) in tot_e.iter_mut().zip(&av) {
                    *t = _mm512_fmadd_ps(*v, bv, *t);
                }
            }
            i += 8;
        }
        for (e, tot_e) in tot.iter().enumerate() {
            for (p, t) in tot_e.iter().enumerate() {
                let (lo, hi) = combine8x2(*t);
                for (h, mut s) in [lo, hi].into_iter().enumerate() {
                    let r = 2 * p + h;
                    for d in i..len {
                        s = (*a.add(r * len + d)).mul_add(*b.add(e * len + d), s);
                    }
                    *o.add(r * n + e) = s;
                }
            }
        }
    }

    /// The `P` row pairs `pairs` (unpacked: `arows`) against every entity
    /// row of one block: three entities per tile, then a narrower tile for
    /// the ragged end. Output row `r` starts at `orows[r·n]`, and this
    /// block's columns at `j0` within it.
    #[inline]
    #[target_feature(enable = "avx512f,avx512vl,avx512dq,avx2,fma")]
    unsafe fn pair_block<const P: usize>(
        pairs: &[PairChunk],
        arows: &[f32],
        bblock: &[f32],
        k: usize,
        orows: &mut [f32],
        n: usize,
        j0: usize,
    ) {
        let bn = bblock.len() / k;
        assert!(
            arows.len() == 2 * P * k
                && pairs.len() == P * (k / 8)
                && orows.len() == 2 * P * n
                && j0 + bn <= n,
            "{P}-pair tile shapes disagree"
        );
        let (pa, a, b) = (pairs.as_ptr(), arows.as_ptr(), bblock.as_ptr());
        let o = orows.as_mut_ptr().add(j0);
        let mut j = 0usize;
        while j + 3 <= bn {
            pair_tile::<P, 3>(pa, a, b.add(j * k), k, o.add(j), n);
            j += 3;
        }
        match bn - j {
            2 => pair_tile::<P, 2>(pa, a, b.add(j * k), k, o.add(j), n),
            1 => pair_tile::<P, 1>(pa, a, b.add(j * k), k, o.add(j), n),
            _ => {}
        }
    }

    /// AVX-512 `gemm_nt`: the query block is packed into row pairs once
    /// per call (at most `m·k` floats), then per L2 block of entity rows,
    /// tiles of two pairs (four query rows) × three entity rows — 24 zmm
    /// accumulators — with a one-pair tile and the AVX2 one-row tile for
    /// the ragged rows. Below two rows there is nothing to pair, so the
    /// AVX2 path runs.
    ///
    /// # Safety
    /// AVX-512 F/VL/DQ, AVX2 and FMA must be available; shapes as
    /// [`super::gemm_nt`] checks.
    #[target_feature(enable = "avx512f,avx512vl,avx512dq,avx2,fma")]
    pub(super) unsafe fn gemm_nt_avx512(a: &[f32], b: &[f32], k: usize, out: &mut [f32]) {
        let m = a.len() / k;
        if m < 2 {
            return gemm_nt_avx2(a, b, k, out);
        }
        let n = b.len() / k;
        let (npairs, chunks) = (m / 2, k / 8);
        let mut packed = Vec::with_capacity(npairs * chunks);
        for pair in a.chunks_exact(2 * k) {
            let (r0, r1) = pair.split_at(k);
            for (c0, c1) in r0.chunks_exact(8).zip(r1.chunks_exact(8)) {
                let mut chunk = PairChunk([0.0; 16]);
                chunk.0[..8].copy_from_slice(c0);
                chunk.0[8..].copy_from_slice(c1);
                packed.push(chunk);
            }
        }
        let nb = rows_per_block(k);
        for (block_idx, bblock) in b.chunks(nb * k).enumerate() {
            let j0 = block_idx * nb;
            let mut p = 0usize;
            while p < npairs {
                let w = (npairs - p).min(2);
                let pairs = &packed[p * chunks..(p + w) * chunks];
                let arows = &a[2 * p * k..2 * (p + w) * k];
                let orows = &mut out[2 * p * n..2 * (p + w) * n];
                match w {
                    2 => pair_block::<2>(pairs, arows, bblock, k, orows, n, j0),
                    _ => pair_block::<1>(pairs, arows, bblock, k, orows, n, j0),
                }
                p += w;
            }
            if m % 2 == 1 {
                let i = m - 1;
                rows_block::<1>(&a[i * k..m * k], bblock, k, &mut out[i * n..m * n], n, j0);
            }
        }
    }

    /// `out += W·B` (row-major, no transpose): the no-FMA [`axpy`] is the
    /// inner op, dispatched once for the whole product instead of once per
    /// row pair. Same blocking as the scalar body.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn gemm_nn_acc(w: &[f32], b: &[f32], k: usize, out: &mut [f32]) {
        let n = b.len() / k;
        let m = out.len() / k;
        let nb = rows_per_block(k);
        for (block_idx, bblock) in b.chunks(nb * k).enumerate() {
            let e0 = block_idx * nb;
            let bn = bblock.len() / k;
            for i in 0..m {
                let orow = &mut out[i * k..(i + 1) * k];
                for e in 0..bn {
                    axpy(*w.get_unchecked(i * n + e0 + e), &bblock[e * k..(e + 1) * k], orow);
                }
            }
        }
    }

    /// Row range `[e0, e0 + out_rows)` of `out += Wᵀ·C`: no-FMA [`axpy`]
    /// inner op, one dispatch for the whole scatter. Same blocking as the
    /// scalar body.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn gemm_tn_acc(
        w: &[f32],
        n: usize,
        ctxs: &[f32],
        k: usize,
        e0: usize,
        out: &mut [f32],
    ) {
        let m = ctxs.len() / k;
        let rows = out.len() / k;
        let gb = rows_per_block(k);
        let mut g0 = 0usize;
        while g0 < m {
            let gn = gb.min(m - g0);
            for e in 0..rows {
                let orow = &mut out[e * k..(e + 1) * k];
                for g in g0..g0 + gn {
                    axpy(*w.get_unchecked(g * n + e0 + e), &ctxs[g * k..(g + 1) * k], orow);
                }
            }
            g0 += gn;
        }
    }
}

/// Unrolled dot product `Σ_d a[d]·b[d]` with eight independent f32
/// accumulator lanes. Same value in every call within a process (the
/// AVX2+FMA dispatch is detected once and cached), but *not* bit-identical
/// to [`crate::vecops::dot`], which accumulates serially in f64.
#[inline]
pub fn dot_fast(a: &[f32], b: &[f32]) -> f32 {
    #[cfg(target_arch = "x86_64")]
    if avx2_fma_enabled() {
        // SAFETY: dispatch guarantees AVX2+FMA are available.
        return unsafe { x86::dot(a, b) };
    }
    dot_body::<false>(a, b)
}

/// Unrolled trilinear product `Σ_d a[d]·b[d]·c[d]` (lane structure of
/// [`dot_fast`]).
#[inline]
pub fn trilinear_fast(a: &[f32], b: &[f32], c: &[f32]) -> f32 {
    #[cfg(target_arch = "x86_64")]
    if avx2_fma_enabled() {
        // SAFETY: dispatch guarantees AVX2+FMA are available.
        return unsafe { x86::trilinear(a, b, c) };
    }
    trilinear_body::<false>(a, b, c)
}

/// Unrolled in-place scaled Hadamard accumulation
/// `out[d] += alpha · a[d] · b[d]` (the interaction-context builder's
/// workhorse).
#[inline]
pub fn hadamard_axpy_fast(alpha: f32, a: &[f32], b: &[f32], out: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    if avx2_fma_enabled() {
        // SAFETY: dispatch guarantees AVX2+FMA are available.
        return unsafe { x86::hadamard_axpy(alpha, a, b, out) };
    }
    hadamard_axpy_body::<false>(alpha, a, b, out)
}

/// Fused gradient-row update body:
/// `entry[d] = base + (coef·grad[d] + l2·params[d])` where `base` is the
/// existing value (`WRITE = false`) or literal `0.0` (`WRITE = true`).
/// Plain mul/add only — bit-identical to the scalar accumulate loop of
/// the per-example gradient reference.
#[inline(always)]
fn scale_add_l2_body<const WRITE: bool>(
    entry: &mut [f32],
    grad: &[f32],
    coef: f32,
    l2: f32,
    params: &[f32],
) {
    debug_assert_eq!(entry.len(), grad.len());
    debug_assert_eq!(entry.len(), params.len());
    for i in 0..entry.len() {
        let s = coef * grad[i] + l2 * params[i];
        entry[i] = if WRITE { 0.0 + s } else { entry[i] + s };
    }
}

/// AXPY body: `entry[d] += alpha · params[d]`, plain mul/add.
#[inline(always)]
fn axpy_body(alpha: f32, params: &[f32], entry: &mut [f32]) {
    debug_assert_eq!(entry.len(), params.len());
    for (e, p) in entry.iter_mut().zip(params) {
        *e += alpha * p;
    }
}

/// Fused gradient-row accumulate
/// `entry[d] += coef·grad[d] + l2·params[d]` — one pass over three rows
/// instead of the two passes a separate scale-add + AXPY would take.
///
/// Uses plain mul/add on every path (no FMA), so the result is
/// bit-identical to the scalar expression `entry[d] += coef·grad[d] +
/// l2·params[d]` evaluated left to right.
#[inline]
pub fn scale_add_l2_fast(entry: &mut [f32], grad: &[f32], coef: f32, l2: f32, params: &[f32]) {
    #[cfg(target_arch = "x86_64")]
    if avx2_fma_enabled() {
        // SAFETY: dispatch guarantees AVX2 is available.
        return unsafe { x86::scale_add_l2::<false>(entry, grad, coef, l2, params) };
    }
    scale_add_l2_body::<false>(entry, grad, coef, l2, params)
}

/// First-touch variant of [`scale_add_l2_fast`] for rows whose previous
/// contents are garbage: `entry[d] = 0.0 + (coef·grad[d] + l2·params[d])`.
/// Bit-identical to zero-filling `entry` and then calling
/// [`scale_add_l2_fast`] (`0.0 + x == x` for every `x` the trainer
/// produces; `-0.0` inputs still round-trip because IEEE `0.0 + -0.0` is
/// `0.0`, exactly what the zero-filled accumulate computes).
#[inline]
pub fn scale_write_l2_fast(entry: &mut [f32], grad: &[f32], coef: f32, l2: f32, params: &[f32]) {
    #[cfg(target_arch = "x86_64")]
    if avx2_fma_enabled() {
        // SAFETY: dispatch guarantees AVX2 is available.
        return unsafe { x86::scale_add_l2::<true>(entry, grad, coef, l2, params) };
    }
    scale_add_l2_body::<true>(entry, grad, coef, l2, params)
}

/// Plain-multiply AXPY `entry[d] += alpha · params[d]` (no FMA — matches
/// the scalar L2 fold loop bitwise).
#[inline]
pub fn axpy_fast(alpha: f32, params: &[f32], entry: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    if avx2_fma_enabled() {
        // SAFETY: dispatch guarantees AVX2 is available.
        return unsafe { x86::axpy(alpha, params, entry) };
    }
    axpy_body(alpha, params, entry)
}

/// First-touch form of [`hadamard_axpy_fast`]:
/// `out[d] = alpha · a[d] · b[d]` computed with the same instruction
/// sequence [`hadamard_axpy_fast`] would run against a zeroed `out`, so
/// it is bit-identical to `out.fill(0.0)` followed by that call but
/// touches `out` once instead of twice.
#[inline]
pub fn hadamard_write_fast(alpha: f32, a: &[f32], b: &[f32], out: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    if avx2_fma_enabled() {
        // SAFETY: dispatch guarantees AVX2+FMA are available.
        return unsafe { x86::hadamard_write(alpha, a, b, out) };
    }
    for ((o, x), y) in out.iter_mut().zip(a).zip(b) {
        *o = 0.0 + alpha * x * y;
    }
}

/// Hyperparameters of one sparse-Adam update, with the step-dependent bias
/// corrections `bc1 = 1 − β₁ᵗ` and `bc2 = 1 − β₂ᵗ` already baked in, so the
/// kernel itself is a pure elementwise function of its inputs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdamParams {
    /// Learning rate.
    pub lr: f32,
    /// First-moment decay β₁.
    pub beta1: f32,
    /// Second-moment decay β₂.
    pub beta2: f32,
    /// Denominator stabilizer ε.
    pub eps: f32,
    /// First-moment bias correction `1 − β₁ᵗ` for the current step `t`.
    pub bc1: f32,
    /// Second-moment bias correction `1 − β₂ᵗ` for the current step `t`.
    pub bc2: f32,
}

/// Scalar reference body of the fused Adam row update — the exact
/// expression sequence the sparse Adam optimizer historically ran, kept as
/// the bitwise ground truth the AVX2 variant is validated against.
#[inline(always)]
fn adam_update_body(params: &mut [f32], grads: &[f32], m: &mut [f32], v: &mut [f32], h: &AdamParams) {
    for i in 0..params.len() {
        let g = grads[i];
        m[i] = h.beta1 * m[i] + (1.0 - h.beta1) * g;
        v[i] = h.beta2 * v[i] + (1.0 - h.beta2) * g * g;
        let m_hat = m[i] / h.bc1;
        let v_hat = v[i] / h.bc2;
        params[i] -= h.lr * m_hat / (v_hat.sqrt() + h.eps);
    }
}

/// Fused sparse-Adam row update: in one pass over the row,
/// `m ← β₁·m + (1−β₁)·g`, `v ← β₂·v + (1−β₂)·g·g`, then
/// `θ ← θ − lr·(m/bc1) / (√(v/bc2) + ε)`.
///
/// Every path uses only exactly-rounded operations (mul, add, div, sqrt —
/// no FMA), so the result is bit-identical to the scalar loop regardless
/// of dispatch, and per-element, so updating disjoint rows in any order or
/// from any number of threads cannot change a single bit.
///
/// # Panics
/// Panics when the four slices disagree in length.
#[inline]
pub fn adam_update_fast(params: &mut [f32], grads: &[f32], m: &mut [f32], v: &mut [f32], h: &AdamParams) {
    assert_eq!(params.len(), grads.len(), "adam_update: grads length mismatch");
    assert_eq!(params.len(), m.len(), "adam_update: m length mismatch");
    assert_eq!(params.len(), v.len(), "adam_update: v length mismatch");
    #[cfg(target_arch = "x86_64")]
    if avx2_fma_enabled() {
        // SAFETY: dispatch guarantees AVX2 is available.
        return unsafe { x86::adam_update(params, grads, m, v, h) };
    }
    adam_update_body(params, grads, m, v, h)
}

/// Target working-set size for one column block of B: sized so a block of
/// entity rows stays resident in L2 while every query row streams past it.
const BLOCK_BYTES: usize = 256 * 1024;

/// Rows of B per cache block for inner dimension `k`.
#[inline]
fn rows_per_block(k: usize) -> usize {
    (BLOCK_BYTES / (std::mem::size_of::<f32>() * k.max(1))).clamp(8, 8192)
}

#[inline(always)]
fn gemm_nt_body<const FMA: bool>(a: &[f32], b: &[f32], k: usize, out: &mut [f32]) {
    let m = a.len() / k;
    let n = b.len() / k;
    let nb = rows_per_block(k);
    for (block_idx, bblock) in b.chunks(nb * k).enumerate() {
        let j0 = block_idx * nb;
        let bn = bblock.len() / k;
        for i in 0..m {
            let arow = &a[i * k..(i + 1) * k];
            let orow = &mut out[i * n + j0..i * n + j0 + bn];
            for (j, slot) in orow.iter_mut().enumerate() {
                *slot = dot_body::<FMA>(arow, &bblock[j * k..(j + 1) * k]);
            }
        }
    }
}

/// Cache-blocked `out = A · Bᵀ` for row-major `A` (`m×k`) and `B` (`n×k`):
/// `out[i·n + j] = Σ_d A[i,d]·B[j,d]`.
///
/// `B`'s rows are processed in L2-sized blocks and every `A` row visits the
/// hot block before the next one is loaded, so `B` (the entity table, which
/// at WN18 scale is tens of MB) is streamed from memory once per `m`-row
/// block of queries instead of once per query. Each output element is
/// reduced exactly like one [`dot_fast`] call on the corresponding rows —
/// see the module-level determinism contract.
///
/// # Panics
/// Panics when `a.len()` or `b.len()` is not a multiple of `k`, or when
/// `out.len() != (a.len()/k) · (b.len()/k)`.
pub fn gemm_nt(a: &[f32], b: &[f32], k: usize, out: &mut [f32]) {
    assert!(k > 0, "gemm_nt needs a positive inner dimension");
    assert_eq!(a.len() % k, 0, "A length {} is not a multiple of k = {k}", a.len());
    assert_eq!(b.len() % k, 0, "B length {} is not a multiple of k = {k}", b.len());
    assert_eq!(
        out.len(),
        (a.len() / k) * (b.len() / k),
        "out must hold m×n = {}×{} scores",
        a.len() / k,
        b.len() / k
    );
    #[cfg(target_arch = "x86_64")]
    match level() {
        // SAFETY: each tier is detected only where its instruction sets
        // are available; shapes were checked above.
        Level::Avx512 => return unsafe { x86::gemm_nt_avx512(a, b, k, out) },
        Level::Avx2Fma => return unsafe { x86::gemm_nt_avx2(a, b, k, out) },
        Level::Portable => {}
    }
    gemm_nt_body::<false>(a, b, k, out)
}

/// Gathered batch of dot products over row-major tables: for each index
/// pair `(ai, bi)` in `pairs`,
/// `out[p] = Σ_d A[ai,d]·B[bi,d]` where `A` is `a` viewed as `m×k` and `B`
/// is `b` viewed as `n×k`.
///
/// This is the trainer's forward kernel: `a` holds one anchor context per
/// (entity, relation) group, `b` is the entity table, and `pairs` selects
/// (context, candidate) combinations — an irregular access pattern that
/// [`gemm_nt`] (dense `m×n`) cannot express without scoring every entity.
/// The AVX2+FMA dispatch is hoisted out of the loop, and each output
/// element is reduced exactly like one [`dot_fast`] call on the
/// corresponding rows — see the module-level determinism contract.
///
/// # Panics
/// Panics when `a.len()` or `b.len()` is not a multiple of `k`, when
/// `out.len() != pairs.len()`, or when any index in `pairs` is out of
/// range for its table.
pub fn dot_gather(a: &[f32], b: &[f32], k: usize, pairs: &[(u32, u32)], out: &mut [f32]) {
    assert!(k > 0, "dot_gather needs a positive inner dimension");
    assert_eq!(a.len() % k, 0, "A length {} is not a multiple of k = {k}", a.len());
    assert_eq!(b.len() % k, 0, "B length {} is not a multiple of k = {k}", b.len());
    assert_eq!(out.len(), pairs.len(), "out must hold one score per index pair");
    let (m, n) = (a.len() / k, b.len() / k);
    for &(ai, bi) in pairs {
        assert!((ai as usize) < m, "row index {ai} out of range for A ({m} rows)");
        assert!((bi as usize) < n, "row index {bi} out of range for B ({n} rows)");
    }
    #[cfg(target_arch = "x86_64")]
    if avx2_fma_enabled() {
        // SAFETY: dispatch guarantees AVX2+FMA are available, and every
        // index was bounds-checked above.
        return unsafe { x86::dot_gather(a, b, k, pairs, out) };
    }
    for (slot, &(ai, bi)) in out.iter_mut().zip(pairs) {
        *slot = dot_body::<false>(&a[ai as usize * k..(ai as usize + 1) * k], &b[bi as usize * k..(bi as usize + 1) * k]);
    }
}

/// Scalar body of [`gemm_nn_acc`]: same blocking as the AVX2 variant,
/// plain mul/add AXPY inner op.
#[inline(always)]
fn gemm_nn_acc_body(w: &[f32], b: &[f32], k: usize, out: &mut [f32]) {
    let n = b.len() / k;
    let m = out.len() / k;
    let nb = rows_per_block(k);
    for (block_idx, bblock) in b.chunks(nb * k).enumerate() {
        let e0 = block_idx * nb;
        let bn = bblock.len() / k;
        for i in 0..m {
            let orow = &mut out[i * k..(i + 1) * k];
            for e in 0..bn {
                axpy_body(w[i * n + e0 + e], &bblock[e * k..(e + 1) * k], orow);
            }
        }
    }
}

/// Cache-blocked `out += W · B` for row-major `W` (`m×n`) and `B` (`n×k`):
/// `out[i·k + d] += Σ_e W[i,e]·B[e,d]`.
///
/// This is the k-vs-all backward's **pass A**: `W` holds softmax residuals,
/// `B` is the entity table, and each output row becomes the gradient of the
/// loss w.r.t. one anchor context. `B`'s rows are processed in L2-sized
/// blocks (each block visits every output row before the next block
/// loads), which only changes *when* a given `(i, e)` rank-1 contribution
/// happens — per output row the reduction over `e` is always ascending,
/// for **any** block size, because the block loop itself walks `e`
/// ascending. Combined with the plain mul/add (no-FMA) AXPY inner op —
/// whose SIMD lanes are bit-equal to the scalar expression — the result is
/// bit-identical to the naive ascending scalar loop.
///
/// # Panics
/// Panics when the shapes disagree (`b.len()` not a multiple of `k`,
/// `out.len()` not a multiple of `k`, or `w.len() != (out.len()/k) ·
/// (b.len()/k)`).
pub fn gemm_nn_acc(w: &[f32], b: &[f32], k: usize, out: &mut [f32]) {
    assert!(k > 0, "gemm_nn_acc needs a positive inner dimension");
    assert_eq!(b.len() % k, 0, "B length {} is not a multiple of k = {k}", b.len());
    assert_eq!(out.len() % k, 0, "out length {} is not a multiple of k = {k}", out.len());
    let (m, n) = (out.len() / k, b.len() / k);
    assert_eq!(w.len(), m * n, "W must hold m×n = {m}×{n} weights");
    #[cfg(target_arch = "x86_64")]
    if avx2_fma_enabled() {
        // SAFETY: dispatch guarantees AVX2 is available; shapes were
        // checked above.
        return unsafe { x86::gemm_nn_acc(w, b, k, out) };
    }
    gemm_nn_acc_body(w, b, k, out)
}

/// Scalar body of [`gemm_tn_acc`]: same blocking as the AVX2 variant,
/// plain mul/add AXPY inner op.
#[inline(always)]
fn gemm_tn_acc_body(w: &[f32], n: usize, ctxs: &[f32], k: usize, e0: usize, out: &mut [f32]) {
    let m = ctxs.len() / k;
    let rows = out.len() / k;
    let gb = rows_per_block(k);
    let mut g0 = 0usize;
    while g0 < m {
        let gn = gb.min(m - g0);
        for e in 0..rows {
            let orow = &mut out[e * k..(e + 1) * k];
            for g in g0..g0 + gn {
                axpy_body(w[g * n + e0 + e], &ctxs[g * k..(g + 1) * k], orow);
            }
        }
        g0 += gn;
    }
}

/// Row range `[e0, e0 + out.len()/k)` of the cache-blocked
/// `out += Wᵀ · C` for row-major `W` (`m×n`) and `C` (`m×k`):
/// `out[(e−e0)·k + d] += Σ_g W[g,e]·C[g,d]`.
///
/// This is the k-vs-all backward's **pass B**: `W` holds softmax
/// residuals, `C` the anchor contexts, and output row `e − e0` accumulates
/// the gradient of the loss w.r.t. entity `e`'s embedding row. The row
/// range lets callers shard the entity table across workers: each output
/// row's reduction over `g` is a single ascending scan regardless of
/// `e0`/range split *and* of the `C`-block size (the block loop walks `g`
/// ascending), so any sharding produces identical bits. Inner op is the
/// plain mul/add (no-FMA) AXPY, bit-equal to the scalar expression per
/// element.
///
/// # Panics
/// Panics when shapes disagree (`ctxs.len()` not a multiple of `k`,
/// `out.len()` not a multiple of `k`, `w.len() != (ctxs.len()/k)·n`, or
/// the row range `[e0, e0 + out.len()/k)` falling outside `[0, n)`).
pub fn gemm_tn_acc(w: &[f32], n: usize, ctxs: &[f32], k: usize, e0: usize, out: &mut [f32]) {
    assert!(k > 0, "gemm_tn_acc needs a positive inner dimension");
    assert_eq!(ctxs.len() % k, 0, "C length {} is not a multiple of k = {k}", ctxs.len());
    assert_eq!(out.len() % k, 0, "out length {} is not a multiple of k = {k}", out.len());
    let m = ctxs.len() / k;
    assert_eq!(w.len(), m * n, "W must hold m×n = {m}×{n} weights");
    assert!(e0 + out.len() / k <= n, "row range [{e0}, {}) exceeds n = {n}", e0 + out.len() / k);
    #[cfg(target_arch = "x86_64")]
    if avx2_fma_enabled() {
        // SAFETY: dispatch guarantees AVX2 is available; shapes were
        // checked above.
        return unsafe { x86::gemm_tn_acc(w, n, ctxs, k, e0, out) };
    }
    gemm_tn_acc_body(w, n, ctxs, k, e0, out)
}

/// Straightforward f64-accumulating reference for [`gemm_nt`], used by
/// tests and benchmarks as the ground truth.
pub fn gemm_nt_ref(a: &[f32], b: &[f32], k: usize, out: &mut [f32]) {
    assert!(k > 0);
    assert_eq!(a.len() % k, 0);
    assert_eq!(b.len() % k, 0);
    let (m, n) = (a.len() / k, b.len() / k);
    assert_eq!(out.len(), m * n);
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f64;
            for d in 0..k {
                acc += f64::from(a[i * k + d]) * f64::from(b[j * k + d]);
            }
            out[i * n + j] = acc as f32;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vecops;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_vec(rng: &mut StdRng, len: usize) -> Vec<f32> {
        (0..len).map(|_| rng.gen_range(-1.0f32..1.0)).collect()
    }

    #[test]
    fn dot_fast_matches_reference_within_tolerance() {
        let mut rng = StdRng::seed_from_u64(1);
        for len in [0, 1, 7, 8, 9, 63, 400, 401] {
            let a = random_vec(&mut rng, len);
            let b = random_vec(&mut rng, len);
            let fast = dot_fast(&a, &b);
            let reference = vecops::dot(&a, &b);
            assert!(
                (fast - reference).abs() <= 1e-4 * (1.0 + reference.abs()),
                "len {len}: {fast} vs {reference}"
            );
        }
    }

    #[test]
    fn trilinear_fast_matches_reference_within_tolerance() {
        let mut rng = StdRng::seed_from_u64(2);
        for len in [0, 3, 8, 17, 100, 400] {
            let a = random_vec(&mut rng, len);
            let b = random_vec(&mut rng, len);
            let c = random_vec(&mut rng, len);
            let fast = trilinear_fast(&a, &b, &c);
            let reference = vecops::trilinear(&a, &b, &c);
            assert!(
                (fast - reference).abs() <= 1e-4 * (1.0 + reference.abs()),
                "len {len}: {fast} vs {reference}"
            );
        }
    }

    #[test]
    fn hadamard_axpy_fast_matches_reference_within_tolerance() {
        let mut rng = StdRng::seed_from_u64(3);
        for len in [0, 5, 8, 33, 200] {
            let a = random_vec(&mut rng, len);
            let b = random_vec(&mut rng, len);
            let mut fast = random_vec(&mut rng, len);
            let mut reference = fast.clone();
            hadamard_axpy_fast(0.7, &a, &b, &mut fast);
            vecops::hadamard_axpy(0.7, &a, &b, &mut reference);
            for (f, r) in fast.iter().zip(&reference) {
                assert!((f - r).abs() <= 1e-5 * (1.0 + r.abs()), "len {len}: {f} vs {r}");
            }
        }
    }

    /// A `gemm_nt` tier with the dot product its outputs must equal.
    type Tier = (&'static str, fn(&[f32], &[f32], usize, &mut [f32]), fn(&[f32], &[f32]) -> f32);

    /// The dispatched `gemm_nt` plus every tier this CPU runs, called
    /// directly, so the AVX2 tile stays tested on AVX-512 hosts. The SIMD
    /// tiers must reproduce `dot_fast`; the portable body reproduces the
    /// portable dot.
    fn gemm_tiers() -> Vec<Tier> {
        let mut tiers: Vec<Tier> = vec![
            ("dispatched", gemm_nt, dot_fast),
            ("portable", gemm_nt_body::<false>, dot_body::<false>),
        ];
        #[cfg(target_arch = "x86_64")]
        {
            if level() >= Level::Avx2Fma {
                // SAFETY: the level check guarantees AVX2 and FMA.
                tiers.push(("avx2", |a, b, k, out| unsafe { x86::gemm_nt_avx2(a, b, k, out) }, dot_fast));
            }
            if level() >= Level::Avx512 {
                // SAFETY: the level check guarantees AVX-512 F/VL/DQ, AVX2 and FMA.
                tiers.push(("avx512", |a, b, k, out| unsafe { x86::gemm_nt_avx512(a, b, k, out) }, dot_fast));
            }
        }
        tiers
    }

    #[test]
    fn gemm_matches_per_row_dot_bitwise() {
        // The determinism contract: every gemm output element must be the
        // exact bits the dot kernel produces on the same rows. The shapes
        // sit on every tile edge: m around the 3-row and 4-row tiles and
        // the odd row, k around the 8- and 32-float strides, and n ragged
        // against the 3-entity tile in the last block. At the eval widths
        // (k = 400, 404) n spans two cache blocks; (2, 9000, 64) and
        // (5, 70_000, 12) cross many.
        let mut rng = StdRng::seed_from_u64(4);
        let mut shapes = vec![(1, 1, 1), (3, 5, 7), (4, 300, 8), (2, 9000, 64), (5, 70_000, 12)];
        for k in [1, 7, 8, 9, 31, 32, 33, 400, 404] {
            let n = if k >= 400 { rows_per_block(k) + 4 } else { 7 };
            for m in [1, 2, 3, 4, 5, 32, 33] {
                shapes.push((m, n, k));
            }
        }
        let tiers = gemm_tiers();
        for (m, n, k) in shapes {
            let a = random_vec(&mut rng, m * k);
            let b = random_vec(&mut rng, n * k);
            let mut out = vec![0.0f32; m * n];
            for &(tier, gemm, dot) in &tiers {
                out.fill(f32::NAN);
                gemm(&a, &b, k, &mut out);
                for i in 0..m {
                    for j in 0..n {
                        let expect = dot(&a[i * k..(i + 1) * k], &b[j * k..(j + 1) * k]);
                        assert_eq!(
                            out[i * n + j].to_bits(),
                            expect.to_bits(),
                            "{tier} ({m},{n},{k}) element ({i},{j}): {} vs {expect}",
                            out[i * n + j]
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn gemm_matches_scalar_reference_within_tolerance() {
        let mut rng = StdRng::seed_from_u64(5);
        for (m, n, k) in [(2, 3, 4), (8, 1000, 400), (1, 17, 31)] {
            let a = random_vec(&mut rng, m * k);
            let b = random_vec(&mut rng, n * k);
            let mut fast = vec![0.0f32; m * n];
            let mut reference = vec![0.0f32; m * n];
            gemm_nt(&a, &b, k, &mut fast);
            gemm_nt_ref(&a, &b, k, &mut reference);
            for (f, r) in fast.iter().zip(&reference) {
                assert!(
                    (f - r).abs() <= 1e-5 * (1.0 + r.abs()),
                    "({m},{n},{k}): {f} vs {r}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "out must hold")]
    fn gemm_rejects_wrong_output_shape() {
        gemm_nt(&[1.0, 2.0], &[3.0, 4.0], 2, &mut [0.0, 0.0]);
    }

    #[test]
    fn dot_gather_matches_dot_fast_bitwise() {
        // Same contract as gemm: every gathered score must carry the exact
        // bits dot_fast produces on the same rows, including duplicate and
        // out-of-order index pairs and lengths that exercise the SIMD tail.
        let mut rng = StdRng::seed_from_u64(6);
        for (m, n, k) in [(1, 1, 1), (4, 9, 13), (7, 300, 8), (3, 1000, 400)] {
            let a = random_vec(&mut rng, m * k);
            let b = random_vec(&mut rng, n * k);
            let pairs: Vec<(u32, u32)> = (0..64)
                .map(|_| (rng.gen_range(0..m as u32), rng.gen_range(0..n as u32)))
                .collect();
            let mut out = vec![0.0f32; pairs.len()];
            dot_gather(&a, &b, k, &pairs, &mut out);
            for (p, &(ai, bi)) in pairs.iter().enumerate() {
                let (ai, bi) = (ai as usize, bi as usize);
                let expect = dot_fast(&a[ai * k..(ai + 1) * k], &b[bi * k..(bi + 1) * k]);
                assert_eq!(
                    out[p].to_bits(),
                    expect.to_bits(),
                    "({m},{n},{k}) pair {p} = ({ai},{bi}): {} vs {expect}",
                    out[p]
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn dot_gather_rejects_out_of_range_indices() {
        let mut out = [0.0f32];
        dot_gather(&[1.0, 2.0], &[3.0, 4.0], 2, &[(0, 1)], &mut out);
    }

    /// The naive ascending reference both backward kernels must reproduce
    /// bitwise: per output row, accumulate rank-1 contributions in
    /// ascending reduction order with the plain mul/add expression.
    fn naive_wsum_rows(w: &[f32], rows: &[f32], k: usize, n: usize, out: &mut [f32]) {
        for (i, orow) in out.chunks_mut(k).enumerate() {
            for e in 0..n {
                let alpha = w[i * n + e];
                for (o, p) in orow.iter_mut().zip(&rows[e * k..(e + 1) * k]) {
                    *o += alpha * p;
                }
            }
        }
    }

    #[test]
    fn gemm_nn_acc_matches_naive_ascending_bitwise() {
        // Shapes that cross the cache-block boundary (rows_per_block(k)
        // for small k caps at 8192; k = 64 gives 1024-row blocks, so
        // n = 3000 spans three blocks). Blocking must not change bits.
        let mut rng = StdRng::seed_from_u64(31);
        for (m, n, k) in [(1, 1, 1), (3, 5, 7), (4, 300, 8), (2, 3000, 64), (5, 900, 13)] {
            let w = random_vec(&mut rng, m * n);
            let b = random_vec(&mut rng, n * k);
            let base = random_vec(&mut rng, m * k);
            let mut fast = base.clone();
            gemm_nn_acc(&w, &b, k, &mut fast);
            let mut reference = base;
            naive_wsum_rows(&w, &b, k, n, &mut reference);
            for (i, (f, r)) in fast.iter().zip(&reference).enumerate() {
                assert_eq!(f.to_bits(), r.to_bits(), "({m},{n},{k})[{i}]: {f} vs {r}");
            }
        }
    }

    #[test]
    fn gemm_tn_acc_matches_naive_ascending_bitwise() {
        // Wᵀ·C restricted to every row: per entity e, reduce over g
        // ascending. m = 3000 with k = 64 spans three g-blocks.
        let mut rng = StdRng::seed_from_u64(32);
        for (m, n, k) in [(1, 1, 1), (5, 3, 7), (300, 4, 8), (3000, 2, 64), (900, 5, 13)] {
            let w = random_vec(&mut rng, m * n);
            let ctxs = random_vec(&mut rng, m * k);
            let base = random_vec(&mut rng, n * k);
            let mut fast = base.clone();
            gemm_tn_acc(&w, n, &ctxs, k, 0, &mut fast);
            // Reference: transpose W and reuse the naive row-sum form —
            // out[e] += Σ_g ascending wT[e*m + g]·ctxs[g].
            let mut wt = vec![0.0f32; w.len()];
            for g in 0..m {
                for e in 0..n {
                    wt[e * m + g] = w[g * n + e];
                }
            }
            let mut reference = base;
            naive_wsum_rows(&wt, &ctxs, k, m, &mut reference);
            for (i, (f, r)) in fast.iter().zip(&reference).enumerate() {
                assert_eq!(f.to_bits(), r.to_bits(), "({m},{n},{k})[{i}]: {f} vs {r}");
            }
        }
    }

    #[test]
    fn gemm_tn_acc_row_range_split_is_bitwise_invariant() {
        // Sharding the output rows across any split must reproduce the
        // full-range bits — the property the parallel pass-B driver rests
        // on.
        let mut rng = StdRng::seed_from_u64(33);
        let (m, n, k) = (37, 23, 19);
        let w = random_vec(&mut rng, m * n);
        let ctxs = random_vec(&mut rng, m * k);
        let base = random_vec(&mut rng, n * k);
        let mut full = base.clone();
        gemm_tn_acc(&w, n, &ctxs, k, 0, &mut full);
        for splits in [2usize, 3, 5, 23] {
            let mut sharded = base.clone();
            let per = n.div_ceil(splits);
            let mut e0 = 0usize;
            while e0 < n {
                let e1 = (e0 + per).min(n);
                gemm_tn_acc(&w, n, &ctxs, k, e0, &mut sharded[e0 * k..e1 * k]);
                e0 = e1;
            }
            for (i, (f, r)) in sharded.iter().zip(&full).enumerate() {
                assert_eq!(f.to_bits(), r.to_bits(), "{splits} splits, [{i}]: {f} vs {r}");
            }
        }
    }

    #[test]
    fn gemm_backward_kernels_track_f64_reference() {
        // Tolerance check against an f64 ground truth, to catch a wrong
        // formula that a self-consistent bitwise test would miss.
        let mut rng = StdRng::seed_from_u64(34);
        let (m, n, k) = (6, 250, 40);
        let w = random_vec(&mut rng, m * n);
        let b = random_vec(&mut rng, n * k);
        let mut a_out = vec![0.0f32; m * k];
        gemm_nn_acc(&w, &b, k, &mut a_out);
        for i in 0..m {
            for d in 0..k {
                let mut acc = 0.0f64;
                for e in 0..n {
                    acc += f64::from(w[i * n + e]) * f64::from(b[e * k + d]);
                }
                let got = f64::from(a_out[i * k + d]);
                assert!((got - acc).abs() <= 1e-4 * (1.0 + acc.abs()), "A[{i},{d}]: {got} vs {acc}");
            }
        }
        let ctxs = random_vec(&mut rng, m * k);
        let mut t_out = vec![0.0f32; n * k];
        gemm_tn_acc(&w, n, &ctxs, k, 0, &mut t_out);
        for e in 0..n {
            for d in 0..k {
                let mut acc = 0.0f64;
                for g in 0..m {
                    acc += f64::from(w[g * n + e]) * f64::from(ctxs[g * k + d]);
                }
                let got = f64::from(t_out[e * k + d]);
                assert!((got - acc).abs() <= 1e-4 * (1.0 + acc.abs()), "B[{e},{d}]: {got} vs {acc}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "row range")]
    fn gemm_tn_acc_rejects_out_of_range_rows() {
        let mut out = [0.0f32; 4];
        gemm_tn_acc(&[1.0, 2.0], 1, &[1.0, 2.0, 3.0, 4.0], 2, 1, &mut out);
    }

    #[test]
    fn scale_add_l2_matches_scalar_bitwise() {
        // The fused row update must reproduce the exact bits of the scalar
        // accumulate loop it replaces, on lengths that hit the SIMD tail.
        let mut rng = StdRng::seed_from_u64(11);
        for len in [1usize, 7, 8, 31, 200, 400] {
            let grad = random_vec(&mut rng, len);
            let params = random_vec(&mut rng, len);
            let base = random_vec(&mut rng, len);
            let (coef, l2) = (-0.37f32, 1.25e-3f32);
            let mut fast = base.clone();
            scale_add_l2_fast(&mut fast, &grad, coef, l2, &params);
            let mut reference = base.clone();
            for i in 0..len {
                reference[i] += coef * grad[i] + l2 * params[i];
            }
            for (f, r) in fast.iter().zip(&reference) {
                assert_eq!(f.to_bits(), r.to_bits(), "len {len}: {f} vs {r}");
            }
        }
    }

    #[test]
    fn scale_write_l2_matches_zeroed_accumulate_bitwise() {
        let mut rng = StdRng::seed_from_u64(12);
        for len in [1usize, 8, 13, 200, 400] {
            let grad = random_vec(&mut rng, len);
            let params = random_vec(&mut rng, len);
            // Garbage contents must be irrelevant in write mode.
            let mut fast = random_vec(&mut rng, len);
            scale_write_l2_fast(&mut fast, &grad, 0.81, -2.5e-2, &params);
            let mut reference = vec![0.0f32; len];
            scale_add_l2_fast(&mut reference, &grad, 0.81, -2.5e-2, &params);
            for (f, r) in fast.iter().zip(&reference) {
                assert_eq!(f.to_bits(), r.to_bits(), "len {len}: {f} vs {r}");
            }
        }
    }

    #[test]
    fn axpy_fast_matches_scalar_bitwise() {
        let mut rng = StdRng::seed_from_u64(13);
        for len in [1usize, 8, 31, 200, 400] {
            let params = random_vec(&mut rng, len);
            let base = random_vec(&mut rng, len);
            let mut fast = base.clone();
            axpy_fast(-1.7e-2, &params, &mut fast);
            let mut reference = base;
            for (e, p) in reference.iter_mut().zip(&params) {
                *e += -1.7e-2 * p;
            }
            for (f, r) in fast.iter().zip(&reference) {
                assert_eq!(f.to_bits(), r.to_bits(), "len {len}: {f} vs {r}");
            }
        }
    }

    #[test]
    fn hadamard_write_matches_zeroed_axpy_bitwise() {
        let mut rng = StdRng::seed_from_u64(14);
        for len in [1usize, 8, 17, 200, 400] {
            let a = random_vec(&mut rng, len);
            let b = random_vec(&mut rng, len);
            let mut fast = random_vec(&mut rng, len); // garbage must not leak
            hadamard_write_fast(0.6, &a, &b, &mut fast);
            let mut reference = vec![0.0f32; len];
            hadamard_axpy_fast(0.6, &a, &b, &mut reference);
            for (f, r) in fast.iter().zip(&reference) {
                assert_eq!(f.to_bits(), r.to_bits(), "len {len}: {f} vs {r}");
            }
        }
    }

    /// The canonical Adam hyperparameters at step t = 3.
    fn adam_params() -> AdamParams {
        AdamParams {
            lr: 1e-3,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            bc1: 1.0 - 0.9f32.powi(3),
            bc2: 1.0 - 0.999f32.powi(3),
        }
    }

    /// Runs the scalar reference loop on clones and asserts the fast
    /// kernel reproduces every output array bit for bit.
    fn assert_adam_matches_scalar(params: &[f32], grads: &[f32], m: &[f32], v: &[f32]) {
        let h = adam_params();
        let (mut fp, mut fm, mut fv) = (params.to_vec(), m.to_vec(), v.to_vec());
        adam_update_fast(&mut fp, grads, &mut fm, &mut fv, &h);
        let (mut rp, mut rm, mut rv) = (params.to_vec(), m.to_vec(), v.to_vec());
        for i in 0..rp.len() {
            let g = grads[i];
            rm[i] = h.beta1 * rm[i] + (1.0 - h.beta1) * g;
            rv[i] = h.beta2 * rv[i] + (1.0 - h.beta2) * g * g;
            let m_hat = rm[i] / h.bc1;
            let v_hat = rv[i] / h.bc2;
            rp[i] -= h.lr * m_hat / (v_hat.sqrt() + h.eps);
        }
        for (name, fast, reference) in [("params", &fp, &rp), ("m", &fm, &rm), ("v", &fv, &rv)] {
            for (i, (f, r)) in fast.iter().zip(reference).enumerate() {
                assert_eq!(f.to_bits(), r.to_bits(), "{name}[{i}] (len {}): {f} vs {r}", fp.len());
            }
        }
    }

    #[test]
    fn adam_update_matches_scalar_bitwise() {
        let mut rng = StdRng::seed_from_u64(21);
        for len in [1usize, 7, 8, 31, 200, 400] {
            let params = random_vec(&mut rng, len);
            let grads = random_vec(&mut rng, len);
            let m = random_vec(&mut rng, len);
            let v: Vec<f32> = random_vec(&mut rng, len).iter().map(|x| x * x).collect();
            assert_adam_matches_scalar(&params, &grads, &m, &v);
        }
    }

    #[test]
    fn adam_update_matches_scalar_on_adversarial_inputs() {
        // Denormals, zeros of both signs, huge magnitudes, and moment
        // states that drive the sqrt/div corner cases — the SIMD lanes
        // must track the scalar loop through all of them.
        let params = [1.0f32, -1.0, 0.0, -0.0, 3.4e38, 1e-40, 2.5, -7.125];
        let grads = [0.0f32, -0.0, 1e-42, -1e-42, 1e19, -1e19, 1e-30, 5.0];
        let m = [0.0f32, 1e-40, -1e-40, 0.5, -0.5, 1e38, 0.0, -2.0];
        let v = [0.0f32, 1e-40, 1e-40, 0.25, 0.25, 1e38, 0.0, 4.0];
        assert_adam_matches_scalar(&params, &grads, &m, &v);
        // Zero grads on zero moments: the row must still move only by the
        // exact scalar amount (which is 0 − lr·0/(0+ε) = -0·... = 0-ish).
        let zeros = [0.0f32; 8];
        assert_adam_matches_scalar(&params, &zeros, &zeros, &zeros);
    }

    #[test]
    fn rows_per_block_is_sane() {
        assert!(rows_per_block(400) >= 8);
        assert!(rows_per_block(1) <= 8192);
        // WN18 shape: a block must be much smaller than the 41k-row table.
        assert!(rows_per_block(400) < 41_000);
    }

    #[test]
    fn dispatch_is_stable() {
        let first = (avx2_fma_enabled(), crate::avx512_vnni_enabled());
        for _ in 0..10 {
            assert_eq!((avx2_fma_enabled(), crate::avx512_vnni_enabled()), first);
        }
        // The tiers nest: the AVX-512 tier also runs every AVX2 body.
        assert!(!first.1 || first.0, "AVX-512 tier without AVX2+FMA");
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// gemm_nt tracks the f64 scalar reference within 1e-5 relative
            /// tolerance for arbitrary shapes and values.
            #[test]
            fn gemm_tracks_reference(
                m in 1usize..6,
                n in 1usize..40,
                k in 1usize..70,
                seed in 0u64..1000
            ) {
                let mut rng = StdRng::seed_from_u64(seed);
                let a = random_vec(&mut rng, m * k);
                let b = random_vec(&mut rng, n * k);
                let mut fast = vec![0.0f32; m * n];
                let mut reference = vec![0.0f32; m * n];
                gemm_nt(&a, &b, k, &mut fast);
                gemm_nt_ref(&a, &b, k, &mut reference);
                for (f, r) in fast.iter().zip(&reference) {
                    prop_assert!((f - r).abs() <= 1e-5 * (1.0 + r.abs()), "{f} vs {r}");
                }
            }

            /// The unrolled dot is invariant to being computed via gemm
            /// with any m and n (neither blocking nor the register tile
            /// changes per-pair bits).
            #[test]
            fn single_row_gemm_is_dot(
                m in 1usize..8,
                n in 1usize..40,
                k in 1usize..100,
                seed in 0u64..1000
            ) {
                let mut rng = StdRng::seed_from_u64(seed);
                let a = random_vec(&mut rng, m * k);
                let b = random_vec(&mut rng, n * k);
                let mut out = vec![0.0f32; m * n];
                gemm_nt(&a, &b, k, &mut out);
                for i in 0..m {
                    for j in 0..n {
                        let expect = dot_fast(&a[i * k..(i + 1) * k], &b[j * k..(j + 1) * k]);
                        prop_assert_eq!(out[i * n + j].to_bits(), expect.to_bits());
                    }
                }
            }
        }
    }
}
