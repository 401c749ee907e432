//! Int8 screening kernels: the low-precision half of the quantized
//! candidate-generation pipeline (`mei-quant` → `mei-serve`).
//!
//! At serving time the exact ranking pass is a tall-skinny f32 `A · Bᵀ`
//! against the whole entity table ([`crate::kernels::gemm_nt`]). At
//! million-entity scale that pass is memory-bandwidth-bound — the table no
//! longer fits any cache, so throughput is `bytes_of_table / bandwidth` per
//! batch. Quantizing the table to per-row symmetric int8 cuts the streamed
//! bytes 4× and lets AVX2 multiply 16 candidate weights per `vpmaddwd`
//! instead of 8 per FMA; the survivors are then rescored in exact f32.
//!
//! # Determinism contract
//!
//! Everything here accumulates in **i32 integer** arithmetic. Integer
//! addition is associative and exact, so — unlike the f32 kernels, whose
//! bit-pattern depends on the reduction tree — every variant (scalar,
//! AVX2, any cache blocking, any shard split) of these kernels produces
//! **identical results by construction**. The tests still pin
//! AVX2-vs-scalar equality as a regression guard against saturation bugs
//! (`vpmaddwd` operates on sign-extended i16 lanes precisely so no
//! intermediate can saturate: `|a|,|b| ≤ 127 ⇒ |a·b| ≤ 16129`, and a pair
//! sum `≤ 32258` fits i32 with room for any practical inner dimension).

use crate::dispatch::{level, Level};
use crate::kernels::avx2_fma_enabled;

/// Whether the AVX-512 VNNI packed-GEMM fast path is active: the
/// [`Level::Avx512`] tier, detected once per process. It needs `avx512f`
/// for the 512-bit integer plumbing and `avx512vnni` for `vpdpbusd`.
#[inline]
pub fn avx512_vnni_enabled() -> bool {
    level() == Level::Avx512
}

/// Exact i32 dot product of two i8 rows: `Σ_d a[d]·b[d]`.
///
/// # Panics
/// Panics when the slices differ in length.
#[inline]
pub fn dot_i8(a: &[i8], b: &[i8]) -> i32 {
    assert_eq!(a.len(), b.len(), "dot_i8 needs equal-length rows");
    #[cfg(target_arch = "x86_64")]
    if avx2_fma_enabled() {
        // SAFETY: dispatch guarantees AVX2 is available.
        return unsafe { x86::dot_i8(a, b) };
    }
    dot_i8_ref(a, b)
}

/// Scalar reference for [`dot_i8`] — the ground truth the SIMD variant
/// must match bit for bit (trivially, since i32 accumulation is exact).
pub fn dot_i8_ref(a: &[i8], b: &[i8]) -> i32 {
    a.iter().zip(b).map(|(&x, &y)| i32::from(x) * i32::from(y)).sum()
}

/// Bytes of quantized entity rows per cache block. The i8 table packs 4×
/// more rows per block than the f32 table, so the same 256 KiB working set
/// covers 4× the candidates before the next block streams in.
const QBLOCK_BYTES: usize = 256 * 1024;

/// Rows of B per cache block for inner dimension `k`.
#[inline]
fn qrows_per_block(k: usize) -> usize {
    (QBLOCK_BYTES / k.max(1)).clamp(8, 32768)
}

/// Cache-blocked `out = A · Bᵀ` over row-major **i8** inputs with exact
/// **i32** accumulation: `out[i·n + j] = Σ_d A[i,d]·B[j,d]`.
///
/// `A` is the block of quantized query contexts (`m×k`), `B` the quantized
/// entity-table shard (`n×k`). Like [`crate::kernels::gemm_nt`], `B`'s rows
/// are processed in L2-sized blocks and every `A` row visits the hot block
/// before the next one loads, so the shard streams from memory once per
/// batch of queries instead of once per query. Integer accumulation makes
/// the result independent of blocking, lane count, and instruction set —
/// see the module-level determinism contract.
///
/// # Panics
/// Panics when `a.len()` or `b.len()` is not a multiple of `k`, or when
/// `out.len() != (a.len()/k) · (b.len()/k)`.
pub fn gemm_i8_nt(a: &[i8], b: &[i8], k: usize, out: &mut [i32]) {
    assert!(k > 0, "gemm_i8_nt needs a positive inner dimension");
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
    if avx2_fma_enabled() {
        // SAFETY: dispatch guarantees AVX2 is available; shapes checked.
        return unsafe { x86::gemm_i8_nt(a, b, k, out) };
    }
    gemm_i8_nt_body(a, b, k, out)
}

/// Scalar body of [`gemm_i8_nt`]: same blocking, [`dot_i8_ref`] inner op.
fn gemm_i8_nt_body(a: &[i8], b: &[i8], k: usize, out: &mut [i32]) {
    let m = a.len() / k;
    let n = b.len() / k;
    let nb = qrows_per_block(k);
    for (block_idx, bblock) in b.chunks(nb * k).enumerate() {
        let j0 = block_idx * nb;
        let bn = bblock.len() / k;
        for i in 0..m {
            let arow = &a[i * k..(i + 1) * k];
            let orow = &mut out[i * n + j0..i * n + j0 + bn];
            for (j, slot) in orow.iter_mut().enumerate() {
                *slot = dot_i8_ref(arow, &bblock[j * k..(j + 1) * k]);
            }
        }
    }
}

/// Straightforward reference for [`gemm_i8_nt`], used by tests as ground
/// truth (no blocking at all).
pub fn gemm_i8_nt_ref(a: &[i8], b: &[i8], k: usize, out: &mut [i32]) {
    assert!(k > 0);
    assert_eq!(a.len() % k, 0);
    assert_eq!(b.len() % k, 0);
    let (m, n) = (a.len() / k, b.len() / k);
    assert_eq!(out.len(), m * n);
    for i in 0..m {
        for j in 0..n {
            out[i * n + j] = dot_i8_ref(&a[i * k..(i + 1) * k], &b[j * k..(j + 1) * k]);
        }
    }
}

/// Rows interleaved per panel in [`PackedI8`] — one i32 lane of a 512-bit
/// `vpdpbusd` per row.
const PANEL_ROWS: usize = 16;

/// Entity-table rows repacked for the VNNI screen GEMM.
///
/// The flat row-major layout forces a horizontal reduction per `(query,
/// row)` dot product. Packing interleaves `PANEL_ROWS = 16` rows so that one
/// 64-byte panel chunk holds 4 consecutive elements of 16 *different*
/// rows: a single `vpdpbusd` then advances 16 dot products at once, each
/// in its own i32 lane, and the finished panel stores straight to the
/// output — no reduction anywhere.
///
/// The kernel feeds the query side as `a ^ 0x80` (an unsigned `a + 128`
/// offset, exact for all of i8 including `-128`), so each accumulated
/// value is `Σ (a+128)·b = a·b + 128·Σb`. The pack precomputes
/// `128·Σb` per row (`sum128`) and the kernel subtracts it on store,
/// recovering the exact integer dot — same determinism contract as
/// [`gemm_i8_nt`], and bit-identical to it by construction.
///
/// Rows are padded to a multiple of `PANEL_ROWS` and the inner dimension
/// to a multiple of 4, both with zeros (zero rows have `sum128 = 0`, so
/// padding never leaks into real outputs).
#[derive(Debug, Clone)]
pub struct PackedI8 {
    panels: Vec<i8>,
    sum128: Vec<i32>,
    rows: usize,
    k: usize,
    /// `k` rounded up to a multiple of 4 (one `vpdpbusd` byte quad).
    kp: usize,
}

impl PackedI8 {
    /// Packs a row-major `n×k` i8 table (`n = b.len() / k`).
    ///
    /// # Panics
    /// Panics when `k == 0` or `b.len()` is not a multiple of `k`.
    pub fn pack(b: &[i8], k: usize) -> Self {
        assert!(k > 0, "PackedI8 needs a positive inner dimension");
        assert_eq!(b.len() % k, 0, "B length {} is not a multiple of k = {k}", b.len());
        let rows = b.len() / k;
        let kp = k.next_multiple_of(4);
        let npanels = rows.div_ceil(PANEL_ROWS);
        let mut panels = vec![0i8; npanels * PANEL_ROWS * kp];
        let mut sum128 = vec![0i32; npanels * PANEL_ROWS];
        for j in 0..rows {
            let row = &b[j * k..(j + 1) * k];
            sum128[j] = 128 * row.iter().map(|&v| i32::from(v)).sum::<i32>();
            let (p, lane) = (j / PANEL_ROWS, j % PANEL_ROWS);
            let base = p * PANEL_ROWS * kp + lane * 4;
            let full = k / 4;
            // One unaligned 4-byte copy per quad, stride 64 — the safe
            // slice form re-checks bounds per quad and costs more than
            // streaming the whole table.
            // SAFETY: the furthest write ends at
            // `base + (kp/4 − 1)·64 + 4 ≤ (p+1)·PANEL_ROWS·kp ≤ len`.
            unsafe {
                let src = row.as_ptr();
                let dst = panels.as_mut_ptr().add(base);
                for c in 0..full {
                    std::ptr::copy_nonoverlapping(src.add(c * 4), dst.add(c * PANEL_ROWS * 4), 4);
                }
            }
            for t in full * 4..k {
                panels[base + (t / 4) * PANEL_ROWS * 4 + (t % 4)] = row[t];
            }
        }
        Self { panels, sum128, rows, k, kp }
    }

    /// Number of (unpadded) table rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Row length (elements per row, unpadded).
    pub fn row_len(&self) -> usize {
        self.k
    }

    /// Heap footprint in bytes (panel codes + row-sum corrections).
    pub fn memory_bytes(&self) -> usize {
        self.panels.len() + self.sum128.len() * std::mem::size_of::<i32>()
    }

    /// `out = A · Bᵀ` against packed rows `j0..j1`, exact i32 accumulation:
    /// `out[i·(j1−j0) + (j−j0)] = Σ_d A[i,d]·B[j,d]` — bit-identical to
    /// [`gemm_i8_nt`] over the same rows, on every dispatch path.
    ///
    /// # Panics
    /// Panics when `j0` is not panel-aligned (multiple of 16), the range is
    /// out of bounds, `a.len()` is not a multiple of the packed row length,
    /// or `out` is not `m × (j1−j0)`.
    pub fn gemm(&self, a: &[i8], j0: usize, j1: usize, out: &mut [i32]) {
        assert_eq!(j0 % PANEL_ROWS, 0, "row range must start on a panel boundary, got {j0}");
        assert!(j0 <= j1 && j1 <= self.rows, "row range {j0}..{j1} out of 0..{}", self.rows);
        assert_eq!(a.len() % self.k, 0, "A length {} is not a multiple of k = {}", a.len(), self.k);
        let m = a.len() / self.k;
        assert_eq!(out.len(), m * (j1 - j0), "out must hold m×n = {m}×{}", j1 - j0);
        if m == 0 || j0 == j1 {
            return;
        }
        // Offset the query block into u8 once (`a + 128`, via XOR on the
        // sign bit), padding to the packed inner dimension. The padded B
        // columns are zero, so the pad bytes contribute nothing.
        let mut au = vec![0x80u8; m * self.kp];
        for (src, dst) in a.chunks(self.k).zip(au.chunks_mut(self.kp)) {
            for (d, &v) in dst.iter_mut().zip(src) {
                *d = (v as u8) ^ 0x80;
            }
        }
        #[cfg(target_arch = "x86_64")]
        if avx512_vnni_enabled() {
            // SAFETY: dispatch guarantees AVX-512 VNNI; shapes checked.
            unsafe { x86::gemm_i8_pk(self, &au, m, j0, j1, out) };
            return;
        }
        self.gemm_scalar_body(&au, m, j0, j1, out);
    }

    /// Portable body of [`Self::gemm`]: walks the panel layout with the
    /// same offset-and-correct arithmetic as the VNNI kernel.
    fn gemm_scalar_body(&self, au: &[u8], m: usize, j0: usize, j1: usize, out: &mut [i32]) {
        let n = j1 - j0;
        for j in j0..j1 {
            let (p, lane) = (j / PANEL_ROWS, j % PANEL_ROWS);
            let panel = &self.panels[p * PANEL_ROWS * self.kp..];
            for i in 0..m {
                let arow = &au[i * self.kp..(i + 1) * self.kp];
                let mut acc = 0i32;
                for c in 0..self.kp / 4 {
                    let quad = &panel[c * PANEL_ROWS * 4 + lane * 4..][..4];
                    for t in 0..4 {
                        acc += i32::from(arow[c * 4 + t]) * i32::from(quad[t]);
                    }
                }
                out[i * n + (j - j0)] = acc - self.sum128[j];
            }
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::qrows_per_block;
    use super::{PackedI8, PANEL_ROWS};
    #[cfg(target_arch = "x86_64")]
    use std::arch::x86_64::*;

    /// i32 dot of two i8 rows: 32 bytes per iteration, each 16-byte half
    /// sign-extended to i16 lanes and reduced pairwise into i32 by
    /// `vpmaddwd`. No step can saturate (see module docs), so the result
    /// equals the scalar i32 sum exactly.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn dot_i8_inner(a: *const i8, b: *const i8, len: usize) -> i32 {
        let mut acc = _mm256_setzero_si256();
        let mut i = 0usize;
        while i + 32 <= len {
            let a0 = _mm256_cvtepi8_epi16(_mm_loadu_si128(a.add(i) as *const __m128i));
            let b0 = _mm256_cvtepi8_epi16(_mm_loadu_si128(b.add(i) as *const __m128i));
            acc = _mm256_add_epi32(acc, _mm256_madd_epi16(a0, b0));
            let a1 = _mm256_cvtepi8_epi16(_mm_loadu_si128(a.add(i + 16) as *const __m128i));
            let b1 = _mm256_cvtepi8_epi16(_mm_loadu_si128(b.add(i + 16) as *const __m128i));
            acc = _mm256_add_epi32(acc, _mm256_madd_epi16(a1, b1));
            i += 32;
        }
        if i + 16 <= len {
            let a0 = _mm256_cvtepi8_epi16(_mm_loadu_si128(a.add(i) as *const __m128i));
            let b0 = _mm256_cvtepi8_epi16(_mm_loadu_si128(b.add(i) as *const __m128i));
            acc = _mm256_add_epi32(acc, _mm256_madd_epi16(a0, b0));
            i += 16;
        }
        let mut lanes = [0i32; 8];
        _mm256_storeu_si256(lanes.as_mut_ptr() as *mut __m256i, acc);
        let mut s = lanes.iter().sum::<i32>();
        while i < len {
            s += i32::from(*a.add(i)) * i32::from(*b.add(i));
            i += 1;
        }
        s
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn dot_i8(a: &[i8], b: &[i8]) -> i32 {
        dot_i8_inner(a.as_ptr(), b.as_ptr(), a.len())
    }

    #[target_feature(enable = "avx2")]
    unsafe fn hsum_epi32(v: __m256i) -> i32 {
        let s = _mm_add_epi32(_mm256_castsi256_si128(v), _mm256_extracti128_si256(v, 1));
        let s = _mm_add_epi32(s, _mm_srli_si128(s, 8));
        let s = _mm_add_epi32(s, _mm_srli_si128(s, 4));
        _mm_cvtsi128_si32(s)
    }

    /// Four pre-widened (i16) query rows against one i8 entity row in a
    /// single sweep. Each 16-byte chunk of `b` is loaded and sign-extended
    /// **once** and multiplied into four accumulators; the query rows were
    /// widened ahead of time, so they enter via plain loads instead of
    /// `vpmovsxbw` — the widening instruction is shuffle-port-bound and
    /// would otherwise serialize the whole loop. The batch screen is bound
    /// by this kernel at million-entity scale.
    #[target_feature(enable = "avx2")]
    unsafe fn dot4_i8_inner(
        a0: *const i16,
        a1: *const i16,
        a2: *const i16,
        a3: *const i16,
        b: *const i8,
        len: usize,
    ) -> [i32; 4] {
        let mut acc0 = _mm256_setzero_si256();
        let mut acc1 = _mm256_setzero_si256();
        let mut acc2 = _mm256_setzero_si256();
        let mut acc3 = _mm256_setzero_si256();
        let mut i = 0usize;
        while i + 16 <= len {
            let bv = _mm256_cvtepi8_epi16(_mm_loadu_si128(b.add(i) as *const __m128i));
            let v0 = _mm256_loadu_si256(a0.add(i) as *const __m256i);
            acc0 = _mm256_add_epi32(acc0, _mm256_madd_epi16(v0, bv));
            let v1 = _mm256_loadu_si256(a1.add(i) as *const __m256i);
            acc1 = _mm256_add_epi32(acc1, _mm256_madd_epi16(v1, bv));
            let v2 = _mm256_loadu_si256(a2.add(i) as *const __m256i);
            acc2 = _mm256_add_epi32(acc2, _mm256_madd_epi16(v2, bv));
            let v3 = _mm256_loadu_si256(a3.add(i) as *const __m256i);
            acc3 = _mm256_add_epi32(acc3, _mm256_madd_epi16(v3, bv));
            i += 16;
        }
        let mut sums = [hsum_epi32(acc0), hsum_epi32(acc1), hsum_epi32(acc2), hsum_epi32(acc3)];
        while i < len {
            let bb = i32::from(*b.add(i));
            sums[0] += i32::from(*a0.add(i)) * bb;
            sums[1] += i32::from(*a1.add(i)) * bb;
            sums[2] += i32::from(*a2.add(i)) * bb;
            sums[3] += i32::from(*a3.add(i)) * bb;
            i += 1;
        }
        sums
    }

    /// Eight query rows per entity row: same structure as
    /// [`dot4_i8_inner`] with the B-chunk widening amortized twice as far.
    /// Eight accumulators plus the two live operands still fit the sixteen
    /// ymm registers.
    #[target_feature(enable = "avx2")]
    unsafe fn dot8_i8_inner(a: [*const i16; 8], b: *const i8, len: usize) -> [i32; 8] {
        let mut acc = [_mm256_setzero_si256(); 8];
        let mut i = 0usize;
        while i + 16 <= len {
            let bv = _mm256_cvtepi8_epi16(_mm_loadu_si128(b.add(i) as *const __m128i));
            for (r, slot) in acc.iter_mut().enumerate() {
                let v = _mm256_loadu_si256(a[r].add(i) as *const __m256i);
                *slot = _mm256_add_epi32(*slot, _mm256_madd_epi16(v, bv));
            }
            i += 16;
        }
        let mut sums = [0i32; 8];
        for (r, s) in sums.iter_mut().enumerate() {
            *s = hsum_epi32(acc[r]);
        }
        while i < len {
            let bb = i32::from(*b.add(i));
            for (r, s) in sums.iter_mut().enumerate() {
                *s += i32::from(*a[r].add(i)) * bb;
            }
            i += 1;
        }
        sums
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn gemm_i8_nt(a: &[i8], b: &[i8], k: usize, out: &mut [i32]) {
        let m = a.len() / k;
        let n = b.len() / k;
        let nb = qrows_per_block(k);
        // Widen the (small) query block to i16 once so the hot loop pays a
        // single sign-extend per B chunk instead of five.
        let a16: Vec<i16> = a.iter().map(|&v| i16::from(v)).collect();
        for (block_idx, bblock) in b.chunks(nb * k).enumerate() {
            let j0 = block_idx * nb;
            let bn = bblock.len() / k;
            let mut i = 0usize;
            while i + 8 <= m {
                let rows = std::array::from_fn(|r| a16.as_ptr().add((i + r) * k));
                for j in 0..bn {
                    let sums = dot8_i8_inner(rows, bblock.as_ptr().add(j * k), k);
                    for (r, s) in sums.into_iter().enumerate() {
                        out[(i + r) * n + j0 + j] = s;
                    }
                }
                i += 8;
            }
            while i + 4 <= m {
                let (a0, a1, a2, a3) = (
                    a16.as_ptr().add(i * k),
                    a16.as_ptr().add((i + 1) * k),
                    a16.as_ptr().add((i + 2) * k),
                    a16.as_ptr().add((i + 3) * k),
                );
                for j in 0..bn {
                    let sums = dot4_i8_inner(a0, a1, a2, a3, bblock.as_ptr().add(j * k), k);
                    for (r, s) in sums.into_iter().enumerate() {
                        out[(i + r) * n + j0 + j] = s;
                    }
                }
                i += 4;
            }
            while i < m {
                let arow = a.as_ptr().add(i * k);
                let orow = &mut out[i * n + j0..i * n + j0 + bn];
                for (j, slot) in orow.iter_mut().enumerate() {
                    *slot = dot_i8_inner(arow, bblock.as_ptr().add(j * k), k);
                }
                i += 1;
            }
        }
    }

    /// One query tile (`R ≤ 8` rows) against every panel in `p0..p1`.
    ///
    /// Per 64-byte panel chunk: one load, then per query row a 4-byte
    /// broadcast and one `vpdpbusd` that advances 16 dot products — the
    /// whole panel finishes with a straight 512-bit store (masked on the
    /// ragged last panel), so the kernel has no horizontal reductions and
    /// streams B exactly once.
    #[target_feature(enable = "avx512f,avx512vnni")]
    unsafe fn panel_tile<const R: usize>(
        pk: &PackedI8,
        au: &[u8],
        i0: usize,
        n: usize,
        j0: usize,
        j1: usize,
        out: &mut [i32],
    ) {
        let kp = pk.kp;
        for p in j0 / PANEL_ROWS..j1.div_ceil(PANEL_ROWS) {
            let pd = pk.panels.as_ptr().add(p * PANEL_ROWS * kp);
            let mut acc = [_mm512_setzero_si512(); R];
            for c in 0..kp / 4 {
                let pv = _mm512_loadu_si512(pd.add(c * PANEL_ROWS * 4) as *const __m512i);
                for (r, slot) in acc.iter_mut().enumerate() {
                    let w = (au.as_ptr().add((i0 + r) * kp + c * 4) as *const i32).read_unaligned();
                    *slot = _mm512_dpbusd_epi32(*slot, _mm512_set1_epi32(w), pv);
                }
            }
            let corr =
                _mm512_loadu_si512(pk.sum128.as_ptr().add(p * PANEL_ROWS) as *const __m512i);
            let jbase = p * PANEL_ROWS;
            let valid = (j1 - jbase).min(PANEL_ROWS);
            for (r, &a) in acc.iter().enumerate() {
                let res = _mm512_sub_epi32(a, corr);
                let dst = out.as_mut_ptr().add((i0 + r) * n + (jbase - j0));
                if valid == PANEL_ROWS {
                    _mm512_storeu_si512(dst as *mut __m512i, res);
                } else {
                    _mm512_mask_storeu_epi32(dst, (1u16 << valid) - 1, res);
                }
            }
        }
    }

    /// AVX-512 VNNI body of [`PackedI8::gemm`]: query rows in tiles of
    /// eight (enough accumulators to hide `vpdpbusd` latency while leaving
    /// registers for the panel stream), remainder handled by narrower
    /// monomorphized tiles.
    #[target_feature(enable = "avx512f,avx512vnni")]
    pub(super) unsafe fn gemm_i8_pk(
        pk: &PackedI8,
        au: &[u8],
        m: usize,
        j0: usize,
        j1: usize,
        out: &mut [i32],
    ) {
        let n = j1 - j0;
        let mut i = 0usize;
        while i + 8 <= m {
            panel_tile::<8>(pk, au, i, n, j0, j1, out);
            i += 8;
        }
        match m - i {
            0 => {}
            1 => panel_tile::<1>(pk, au, i, n, j0, j1, out),
            2 => panel_tile::<2>(pk, au, i, n, j0, j1, out),
            3 => panel_tile::<3>(pk, au, i, n, j0, j1, out),
            4 => panel_tile::<4>(pk, au, i, n, j0, j1, out),
            5 => panel_tile::<5>(pk, au, i, n, j0, j1, out),
            6 => panel_tile::<6>(pk, au, i, n, j0, j1, out),
            7 => panel_tile::<7>(pk, au, i, n, j0, j1, out),
            _ => unreachable!("tile loop leaves a remainder below 8"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_i8(rng: &mut StdRng, len: usize) -> Vec<i8> {
        (0..len).map(|_| rng.gen_range(-127i32..=127) as i8).collect()
    }

    #[test]
    fn dot_i8_matches_scalar_reference_exactly() {
        let mut rng = StdRng::seed_from_u64(1);
        for len in [0, 1, 15, 16, 17, 31, 32, 33, 63, 64, 100, 400, 401] {
            let a = random_i8(&mut rng, len);
            let b = random_i8(&mut rng, len);
            assert_eq!(dot_i8(&a, &b), dot_i8_ref(&a, &b), "len {len}");
        }
    }

    #[test]
    fn dot_i8_extreme_values_cannot_saturate() {
        // Worst case for the i16 pair sums inside vpmaddwd: every product
        // is 127·127 (or mixed signs). The sign-extended path must carry
        // these exactly.
        for (x, y) in [(127i8, 127i8), (-127, -127), (127, -127), (-128, -128)] {
            for len in [16, 32, 48, 1024] {
                let a = vec![x; len];
                let b = vec![y; len];
                assert_eq!(dot_i8(&a, &b), dot_i8_ref(&a, &b), "x={x} y={y} len={len}");
                assert_eq!(dot_i8_ref(&a, &b), i32::from(x) * i32::from(y) * len as i32);
            }
        }
    }

    #[test]
    fn gemm_i8_nt_is_bit_identical_to_reference() {
        let mut rng = StdRng::seed_from_u64(2);
        for (m, n, k) in [(1, 1, 1), (3, 7, 5), (2, 40, 16), (4, 300, 33), (1, 2000, 64)] {
            let a = random_i8(&mut rng, m * k);
            let b = random_i8(&mut rng, n * k);
            let mut fast = vec![0i32; m * n];
            let mut reference = vec![0i32; m * n];
            gemm_i8_nt(&a, &b, k, &mut fast);
            gemm_i8_nt_ref(&a, &b, k, &mut reference);
            assert_eq!(fast, reference, "m={m} n={n} k={k}");
        }
    }

    #[test]
    fn gemm_i8_nt_scalar_body_matches_reference_across_block_splits() {
        // The blocked scalar body must agree with the unblocked reference
        // regardless of where block boundaries fall (exercised by shapes
        // around the rows-per-block clamp).
        let mut rng = StdRng::seed_from_u64(3);
        let k = 24;
        for n in [7, 8, 9, 4095, 4096, 4097] {
            let a = random_i8(&mut rng, 2 * k);
            let b = random_i8(&mut rng, n * k);
            let mut blocked = vec![0i32; 2 * n];
            let mut reference = vec![0i32; 2 * n];
            gemm_i8_nt_body(&a, &b, k, &mut blocked);
            gemm_i8_nt_ref(&a, &b, k, &mut reference);
            assert_eq!(blocked, reference, "n={n}");
        }
    }

    #[test]
    #[should_panic(expected = "multiple of k")]
    fn gemm_i8_nt_rejects_ragged_inputs() {
        let mut out = [0i32; 1];
        gemm_i8_nt(&[1, 2, 3], &[1, 2], 2, &mut out);
    }

    #[test]
    fn packed_gemm_is_bit_identical_to_reference() {
        // Shapes straddle every padding boundary: ragged last panel
        // (n % 16), ragged byte quad (k % 4), and m around the 8-row tile.
        let mut rng = StdRng::seed_from_u64(4);
        for (m, n, k) in
            [(1, 1, 1), (3, 15, 5), (8, 16, 4), (9, 17, 7), (2, 100, 33), (5, 2000, 256)]
        {
            let a = random_i8(&mut rng, m * k);
            let b = random_i8(&mut rng, n * k);
            let packed = PackedI8::pack(&b, k);
            assert_eq!(packed.rows(), n);
            assert_eq!(packed.row_len(), k);
            let mut fast = vec![0i32; m * n];
            let mut reference = vec![0i32; m * n];
            packed.gemm(&a, 0, n, &mut fast);
            gemm_i8_nt_ref(&a, &b, k, &mut reference);
            assert_eq!(fast, reference, "m={m} n={n} k={k}");
        }
    }

    #[test]
    fn packed_gemm_handles_full_i8_range() {
        // The u8 offset trick (`a ^ 0x80`) must be exact for every code
        // point, including -128 on both sides.
        let k = 12;
        let a: Vec<i8> = (0..2 * k).map(|i| [-128i8, 127, -1, 0][i % 4]).collect();
        let b: Vec<i8> = (0..5 * k).map(|i| [127i8, -128, 1, -127, 0][i % 5]).collect();
        let packed = PackedI8::pack(&b, k);
        let mut fast = vec![0i32; 2 * 5];
        let mut reference = vec![0i32; 2 * 5];
        packed.gemm(&a, 0, 5, &mut fast);
        gemm_i8_nt_ref(&a, &b, k, &mut reference);
        assert_eq!(fast, reference);
    }

    #[test]
    fn packed_gemm_row_ranges_match_full_pass() {
        // Shard-style panel-aligned sub-ranges must agree with the
        // corresponding columns of a whole-table pass.
        let mut rng = StdRng::seed_from_u64(5);
        let (m, n, k) = (3, 70, 24);
        let a = random_i8(&mut rng, m * k);
        let b = random_i8(&mut rng, n * k);
        let packed = PackedI8::pack(&b, k);
        let mut full = vec![0i32; m * n];
        packed.gemm(&a, 0, n, &mut full);
        for (j0, j1) in [(0, 16), (16, 48), (48, 70), (64, 70), (16, 16)] {
            let mut part = vec![0i32; m * (j1 - j0)];
            packed.gemm(&a, j0, j1, &mut part);
            for i in 0..m {
                assert_eq!(
                    &part[i * (j1 - j0)..(i + 1) * (j1 - j0)],
                    &full[i * n + j0..i * n + j1],
                    "rows {j0}..{j1}"
                );
            }
        }
    }

    #[test]
    fn packed_gemm_scalar_body_matches_reference() {
        // The portable body must stay exact on machines where the VNNI
        // dispatch would normally shadow it.
        let mut rng = StdRng::seed_from_u64(6);
        let (m, n, k) = (4, 33, 10);
        let a = random_i8(&mut rng, m * k);
        let b = random_i8(&mut rng, n * k);
        let packed = PackedI8::pack(&b, k);
        let kp = k.next_multiple_of(4);
        let mut au = vec![0x80u8; m * kp];
        for (src, dst) in a.chunks(k).zip(au.chunks_mut(kp)) {
            for (d, &v) in dst.iter_mut().zip(src) {
                *d = (v as u8) ^ 0x80;
            }
        }
        let mut scalar = vec![0i32; m * n];
        let mut reference = vec![0i32; m * n];
        packed.gemm_scalar_body(&au, m, 0, n, &mut scalar);
        gemm_i8_nt_ref(&a, &b, k, &mut reference);
        assert_eq!(scalar, reference);
    }

    #[test]
    #[should_panic(expected = "panel boundary")]
    fn packed_gemm_rejects_unaligned_range() {
        let packed = PackedI8::pack(&[1i8; 64], 2);
        let mut out = [0i32; 2];
        packed.gemm(&[1, 2], 7, 9, &mut out);
    }
}
