//! `math` layer replays: each kernel a workload issues, timed alone at the
//! workload's shapes on seeded inputs, with flops (or int8 ops) computed
//! from the shape; plus two machine peaks measured on the same box — an
//! FMA-bound loop and a stream-bandwidth loop — to read them against.

use std::time::Instant;

use mei_math::kernels::{dot_gather, gemm_nt};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::stats::median;
use crate::trace::Tracer;
use crate::Outcome;

/// Each measurement repeats its call until this much time has passed.
const MIN_SECS: f64 = 0.2;
/// ... and at least this many times.
const MIN_REPS: usize = 5;

/// Achieved kernel rates at one workload's shapes (0 = not issued).
#[derive(Debug, Default, Clone, Copy)]
pub struct Rates {
    /// GFLOP/s.
    pub gemm_nt: f64,
    /// GFLOP/s.
    pub dot_gather: f64,
    /// GOP/s (one op = one int8 multiply or add).
    pub gemm_i8: f64,
}

impl Rates {
    /// Sets the `math.*` metrics, measuring the two peaks.
    pub fn report(&self, out: &mut Outcome, tracer: &mut Tracer) {
        let t0 = Instant::now();
        let fma = peak_fma_gflops();
        let stream = stream_gbps();
        tracer.record("replay.math.peaks", None, 0, 2, t0, Instant::now());
        out.set("math.gemm_nt.gflops", self.gemm_nt);
        out.set("math.dot_gather.gflops", self.dot_gather);
        out.set("math.gemm_i8.gops", self.gemm_i8);
        out.set("math.peak_fma_gflops", fma);
        out.set("math.stream_gbps", stream);
        out.notes.push(format!(
            "math: gemm_nt {:.2} dot_gather {:.2} GFLOP/s, gemm_i8 {:.2} GOP/s; \
             peaks: FMA {fma:.2} GFLOP/s, stream {stream:.2} GB/s",
            self.gemm_nt, self.dot_gather, self.gemm_i8
        ));
    }
}

fn random_f32(len: usize, rng: &mut StdRng) -> Vec<f32> {
    (0..len).map(|_| rng.gen_range(-1.0f32..1.0)).collect()
}

fn random_i8(len: usize, rng: &mut StdRng) -> Vec<i8> {
    (0..len)
        .map(|_| rng.gen_range(-127i32..=127) as i8)
        .collect()
}

/// Median seconds per call of `f`.
fn time_call(mut f: impl FnMut()) -> f64 {
    f();
    let started = Instant::now();
    let mut per_call = Vec::new();
    while per_call.len() < MIN_REPS || started.elapsed().as_secs_f64() < MIN_SECS {
        let t = Instant::now();
        f();
        per_call.push(t.elapsed().as_secs_f64());
    }
    median(&per_call)
}

/// `gemm_nt` at `m` queries × `n` entities × `k`.
pub fn gemm_nt_gflops(m: usize, n: usize, k: usize, seed: u64) -> f64 {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x6e74);
    let a = random_f32(m * k, &mut rng);
    let b = random_f32(n * k, &mut rng);
    let mut out = vec![0.0f32; m * n];
    let t = time_call(|| gemm_nt(&a, &b, k, std::hint::black_box(&mut out)));
    2.0 * (m * n * k) as f64 / t / 1e9
}

/// `dot_gather` as the blocked negative-sampling forward issues it: one
/// call per (positive, negative) group — two contexts, two gathered
/// entity rows — for a batch of `batch` groups against an `n×k` table.
pub fn dot_gather_gflops(n: usize, k: usize, batch: usize, seed: u64) -> f64 {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x6467);
    let table = random_f32(n * k, &mut rng);
    let ctxs: Vec<Vec<f32>> = (0..batch).map(|_| random_f32(2 * k, &mut rng)).collect();
    let pairs: Vec<[(u32, u32); 2]> = (0..batch)
        .map(|_| {
            [
                (0, rng.gen_range(0..n as u32)),
                (1, rng.gen_range(0..n as u32)),
            ]
        })
        .collect();
    let mut out = [0.0f32; 2];
    let t = time_call(|| {
        for (ctx, p) in ctxs.iter().zip(&pairs) {
            dot_gather(ctx, &table, k, p, std::hint::black_box(&mut out));
        }
    });
    2.0 * (2 * batch * k) as f64 / t / 1e9
}

/// The int8 screen GEMM at `m` queries × one `n`-row shard × `k`, on the
/// path `ScreenIndex` takes on this machine (VNNI panels when available).
pub fn gemm_i8_gops(m: usize, n: usize, k: usize, seed: u64) -> f64 {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x6938);
    let a = random_i8(m * k, &mut rng);
    let b = random_i8(n * k, &mut rng);
    let mut out = vec![0i32; m * n];
    let t = if mei_math::avx512_vnni_enabled() {
        let packed = mei_math::PackedI8::pack(&b, k);
        time_call(|| packed.gemm(&a, 0, n, std::hint::black_box(&mut out)))
    } else {
        time_call(|| mei_math::gemm_i8_nt(&a, &b, k, std::hint::black_box(&mut out)))
    };
    2.0 * (m * n * k) as f64 / t / 1e9
}

/// Single-thread FMA peak: twelve independent 8-lane FMA chains.
pub fn peak_fma_gflops() -> f64 {
    #[cfg(target_arch = "x86_64")]
    if mei_math::kernels::avx2_fma_enabled() {
        const ITERS: usize = 2_000_000;
        // SAFETY: AVX2 and FMA availability was checked at runtime above.
        let t = time_call(|| unsafe {
            std::hint::black_box(fma_chains(
                std::hint::black_box(ITERS),
                std::hint::black_box(1.0),
            ));
        });
        return 2.0 * 8.0 * 12.0 * ITERS as f64 / t / 1e9;
    }
    // Portable fallback: scalar mul/add chains.
    const ITERS: usize = 20_000_000;
    let t = time_call(|| {
        let mut acc = [std::hint::black_box(1.0f32); 8];
        for _ in 0..std::hint::black_box(ITERS) {
            for a in &mut acc {
                *a = *a * 0.999_999 + 1e-7;
            }
        }
        std::hint::black_box(acc);
    });
    2.0 * 8.0 * ITERS as f64 / t / 1e9
}

/// # Safety
/// The CPU must support AVX2 and FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn fma_chains(iters: usize, start: f32) -> f32 {
    use std::arch::x86_64::*;
    let mul = _mm256_set1_ps(0.999_999);
    let add = _mm256_set1_ps(1e-7);
    let mut acc = [_mm256_set1_ps(start); 12];
    for (i, a) in acc.iter_mut().enumerate() {
        *a = _mm256_add_ps(*a, _mm256_set1_ps(i as f32));
    }
    for _ in 0..iters {
        for a in &mut acc {
            *a = _mm256_fmadd_ps(*a, mul, add);
        }
    }
    let mut sum = _mm256_setzero_ps();
    for a in acc {
        sum = _mm256_add_ps(sum, a);
    }
    let mut lanes = [0.0f32; 8];
    _mm256_storeu_ps(lanes.as_mut_ptr(), sum);
    lanes.iter().sum()
}

/// Single-thread stream triad `a = b + s·c` over arrays larger than the
/// last-level cache; bytes counted as two reads and one write.
pub fn stream_gbps() -> f64 {
    const LEN: usize = 8 << 20;
    let b = vec![1.0f32; LEN];
    let c = vec![2.0f32; LEN];
    let mut a = vec![0.0f32; LEN];
    let t = time_call(|| {
        for ((x, y), z) in a.iter_mut().zip(&b).zip(&c) {
            *x = y + 0.5 * z;
        }
        std::hint::black_box(&mut a);
    });
    3.0 * 4.0 * LEN as f64 / t / 1e9
}
