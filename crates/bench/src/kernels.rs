//! The kernel rows of `BENCH_kernels.json`, written by `repro bench-kernels`.
//!
//! Each row times one `mei-math` kernel at the shape a workload issues it
//! and reads the rate against two machine peaks measured in the same run:
//! an FMA-bound loop and a stream triad. The §2.2.3 rows time scoring
//! against the embedding size D (ComplEx) and against the number of
//! embeddings n at a fixed n·D (DistMult, ComplEx, quaternion): the
//! paper's claim that trilinear-product models "scale linearly with
//! respect to embedding size".
//!
//! Every row is the median and quartiles of [`KernelShapes::samples`]
//! timed samples taken after one warm-up call. `score_triple` runs far
//! below a microsecond, so each of its samples times
//! [`KernelShapes::batch`] calls; otherwise `Instant::now` would dominate.

use std::hint::black_box;
use std::time::Instant;

use mei_core::{ModelConfig, MultiEmbedModel, WeightPreset};
use mei_eval::{BlockQuery, TripleScorer};
use mei_kg::{EntityId, RelationId, Triple};
use mei_math::kernels::{dot_gather, gemm_nn_acc, gemm_nt, gemm_tn_acc};
use mei_obs::json::build as json;
use mei_obs::JsonValue;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::binary_fingerprint;

/// A GEMM-shaped problem: `m` rows of A, `n` rows of B, inner size `k`.
#[derive(Debug, Clone, Copy)]
pub struct Gemm {
    /// Rows of A (queries, contexts or groups).
    pub m: usize,
    /// Rows of B (entities).
    pub n: usize,
    /// Inner size (n·D).
    pub k: usize,
}

/// The shapes [`bench_kernels`] times.
#[derive(Debug, Clone)]
pub struct KernelShapes {
    /// `gemm_nt`: one filtered-eval score block.
    pub gemm_nt: Gemm,
    /// `dot_gather`: `m` groups of two (context, entity) pairs into an
    /// `n×k` table, one call per group.
    pub dot_gather: Gemm,
    /// `gemm_nn_acc` and `gemm_tn_acc`: the two k-vs-all backward passes.
    pub backward: Gemm,
    /// The int8 screen GEMM over one shard, on the dispatched path.
    pub gemm_i8: Gemm,
    /// Embedding sizes D of the ComplEx sweep.
    pub dims: Vec<usize>,
    /// Entities of every sweep model: the candidates of the one-query
    /// `score_block`.
    pub entities: usize,
    /// n·D of the sweep over the number of embeddings.
    pub budget: usize,
    /// Timed samples per row.
    pub samples: usize,
    /// `score_triple` calls per sample.
    pub batch: usize,
    /// Iterations of the FMA peak loop.
    pub fma_iters: usize,
    /// f32 elements in each array of the stream triad.
    pub stream_len: usize,
}

impl KernelShapes {
    /// The shapes the benchmark workloads issue:
    /// - `gemm_nt` at 32 × 40,000 × 400, the eval block of `paper-wn18`;
    /// - `dot_gather` at 4,096 groups into 40,000 × 400, the sampled
    ///   forward of `paper-wn18`;
    /// - the k-vs-all backward at 64 × 40,000 × 400 (no workload runs it);
    /// - `gemm_i8` at 1 × 16,384 × 128, one screen shard of
    ///   `serve-screened-100k`;
    /// - D ∈ {25, 50, 100, 200, 400} over 40,000 candidates, and n·D = 128.
    pub fn workload() -> Self {
        KernelShapes {
            gemm_nt: Gemm { m: 32, n: 40_000, k: 400 },
            dot_gather: Gemm { m: 4096, n: 40_000, k: 400 },
            backward: Gemm { m: 64, n: 40_000, k: 400 },
            gemm_i8: Gemm { m: 1, n: 16_384, k: 128 },
            dims: vec![25, 50, 100, 200, 400],
            entities: 40_000,
            budget: 128,
            samples: 21,
            batch: 1000,
            fma_iters: 2_000_000,
            // 32 MiB per array: three arrays well past the last-level cache.
            stream_len: 8 << 20,
        }
    }
}

/// Median and quartiles of one measured quantity.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Quartiles {
    p25: f64,
    median: f64,
    p75: f64,
}

impl Quartiles {
    /// Nearest-rank quartiles of a non-empty sample.
    fn of(mut values: Vec<f64>) -> Self {
        values.sort_by(f64::total_cmp);
        let n = values.len();
        let at = |p: f64| values[((p * n as f64).ceil() as usize).clamp(1, n) - 1];
        Quartiles { p25: at(0.25), median: at(0.5), p75: at(0.75) }
    }

    /// `work` per unit of this quantity: turns seconds per call into a
    /// rate, which swaps the quartiles.
    fn rate(self, work: f64) -> Self {
        Quartiles { p25: work / self.p75, median: work / self.median, p75: work / self.p25 }
    }

    fn scaled(self, s: f64) -> Self {
        Quartiles { p25: self.p25 * s, median: self.median * s, p75: self.p75 * s }
    }

    fn to_json(self) -> JsonValue {
        json::obj([
            ("p25", json::num(self.p25)),
            ("median", json::num(self.median)),
            ("p75", json::num(self.p75)),
        ])
    }
}

/// Seconds per call of `f`: one warm-up call, then `samples` samples of
/// `calls` back-to-back calls each.
fn secs_per_call(samples: usize, calls: usize, mut f: impl FnMut()) -> Quartiles {
    f();
    Quartiles::of(
        (0..samples)
            .map(|_| {
                let t = Instant::now();
                for _ in 0..calls {
                    f();
                }
                t.elapsed().as_secs_f64() / calls as f64
            })
            .collect(),
    )
}

fn random_f32(len: usize, rng: &mut StdRng) -> Vec<f32> {
    (0..len).map(|_| rng.gen_range(-1.0f32..1.0)).collect()
}

/// One kernel row: `work` operations per call, reported in `unit`
/// (giga-operations per second).
fn kernel_row(
    kernel: &str,
    role: &str,
    g: Gemm,
    unit: &str,
    work: f64,
    secs: Quartiles,
) -> JsonValue {
    let rate = secs.rate(work / 1e9);
    json::obj([
        ("kernel", json::str(kernel)),
        ("role", json::str(role)),
        ("m", json::int(g.m)),
        ("n", json::int(g.n)),
        ("k", json::int(g.k)),
        ("unit", json::str(unit)),
        ("p25", json::num(rate.p25)),
        ("median", json::num(rate.median)),
        ("p75", json::num(rate.p75)),
    ])
}

fn gemm_nt_row(g: Gemm, samples: usize, rng: &mut StdRng) -> JsonValue {
    let a = random_f32(g.m * g.k, rng);
    let b = random_f32(g.n * g.k, rng);
    let mut out = vec![0.0f32; g.m * g.n];
    let secs = secs_per_call(samples, 1, || gemm_nt(&a, &b, g.k, black_box(&mut out)));
    let work = 2.0 * (g.m * g.n * g.k) as f64;
    kernel_row("gemm_nt", "filtered-eval score block", g, "GF/s", work, secs)
}

/// One sample scores every group, as the negative-sampling forward does:
/// one call per (positive, negative) group, each with its two contexts
/// and two gathered entity rows.
fn dot_gather_row(g: Gemm, samples: usize, rng: &mut StdRng) -> JsonValue {
    let table = random_f32(g.n * g.k, rng);
    let ctxs: Vec<Vec<f32>> = (0..g.m).map(|_| random_f32(2 * g.k, rng)).collect();
    let pairs: Vec<[(u32, u32); 2]> = (0..g.m)
        .map(|_| [(0, rng.gen_range(0..g.n as u32)), (1, rng.gen_range(0..g.n as u32))])
        .collect();
    let mut out = [0.0f32; 2];
    let secs = secs_per_call(samples, 1, || {
        for (ctx, p) in ctxs.iter().zip(&pairs) {
            dot_gather(ctx, &table, g.k, p, black_box(&mut out));
        }
    });
    let work = 2.0 * (2 * g.m * g.k) as f64;
    kernel_row("dot_gather", "negative-sampling forward", g, "GF/s", work, secs)
}

/// Both backward passes over one residual matrix `W` (`m×n`): pass A
/// (`gemm_nn_acc`, context gradients) and pass B (`gemm_tn_acc`, the
/// whole entity-table gradient).
fn backward_rows(g: Gemm, samples: usize, rng: &mut StdRng) -> [JsonValue; 2] {
    let w = random_f32(g.m * g.n, rng);
    let work = 2.0 * (g.m * g.n * g.k) as f64;
    let nn = {
        let b = random_f32(g.n * g.k, rng);
        let mut out = vec![0.0f32; g.m * g.k];
        let secs = secs_per_call(samples, 1, || gemm_nn_acc(&w, &b, g.k, black_box(&mut out)));
        kernel_row("gemm_nn_acc", "k-vs-all backward, context gradients", g, "GF/s", work, secs)
    };
    let tn = {
        let ctxs = random_f32(g.m * g.k, rng);
        let mut out = vec![0.0f32; g.n * g.k];
        let secs =
            secs_per_call(samples, 1, || gemm_tn_acc(&w, g.n, &ctxs, g.k, 0, black_box(&mut out)));
        kernel_row("gemm_tn_acc", "k-vs-all backward, entity gradients", g, "GF/s", work, secs)
    };
    [nn, tn]
}

/// The int8 screen GEMM on the path `ScreenIndex` takes on this CPU:
/// VNNI panels where available (packed once, outside the timing), the
/// flat kernel otherwise.
fn gemm_i8_row(g: Gemm, samples: usize, rng: &mut StdRng) -> JsonValue {
    let mut random_i8 =
        |len: usize| -> Vec<i8> { (0..len).map(|_| rng.gen_range(-127i32..=127) as i8).collect() };
    let a = random_i8(g.m * g.k);
    let b = random_i8(g.n * g.k);
    let mut out = vec![0i32; g.m * g.n];
    let secs = if mei_math::avx512_vnni_enabled() {
        let packed = mei_math::PackedI8::pack(&b, g.k);
        secs_per_call(samples, 1, || packed.gemm(&a, 0, g.n, black_box(&mut out)))
    } else {
        secs_per_call(samples, 1, || mei_math::gemm_i8_nt(&a, &b, g.k, black_box(&mut out)))
    };
    let work = 2.0 * (g.m * g.n * g.k) as f64;
    kernel_row("gemm_i8", "int8 screen, one shard", g, "GOP/s", work, secs)
}

/// Nanoseconds per `score_triple` call on one fixed triple.
fn score_triple_ns(model: &MultiEmbedModel, shapes: &KernelShapes) -> Quartiles {
    let triple = Triple::new(1, 2, 3);
    secs_per_call(shapes.samples, shapes.batch, || {
        black_box(model.score_triple(black_box(triple)));
    })
    .scaled(1e9)
}

/// §2.2.3 by embedding size: ComplEx `score_triple` (ns) and a one-query
/// `score_block` over every entity (ms), at each D.
fn scaling_by_dim(shapes: &KernelShapes, rng: &mut StdRng) -> Vec<JsonValue> {
    shapes
        .dims
        .iter()
        .map(|&dim| {
            let model =
                MultiEmbedModel::from_preset(WeightPreset::ComplEx, shapes.entities, 18, dim, rng);
            let query = [BlockQuery::tails(EntityId(3), RelationId(0))];
            let mut out = vec![0.0f32; shapes.entities];
            let rank = secs_per_call(shapes.samples, 1, || {
                model.score_block(black_box(&query), black_box(&mut out))
            });
            json::obj([
                ("dim", json::int(dim)),
                ("score_triple_ns", score_triple_ns(&model, shapes).to_json()),
                ("score_block_ms", rank.scaled(1e3).to_json()),
            ])
        })
        .collect()
}

/// §2.2.3 by number of embeddings: `score_triple` at n·D = budget, each
/// preset at the n it trains with ([`WeightPreset::effective_interaction`]).
fn scaling_by_n(shapes: &KernelShapes, rng: &mut StdRng) -> Vec<JsonValue> {
    [WeightPreset::DistMult, WeightPreset::ComplEx, WeightPreset::Quaternion]
        .into_iter()
        .map(|preset| {
            let (n, omega) = preset.effective_interaction();
            let dim = shapes.budget / n;
            let cfg = ModelConfig { num_entities: shapes.entities, num_relations: 18, n, dim };
            let model = MultiEmbedModel::with_fixed_weights(cfg, omega, rng);
            json::obj([
                ("preset", json::str(preset.name())),
                ("n", json::int(n)),
                ("dim", json::int(dim)),
                ("score_triple_ns", score_triple_ns(&model, shapes).to_json()),
            ])
        })
        .collect()
}

/// Single-thread FMA peak in GF/s: twelve independent 8-lane FMA chains
/// where AVX2+FMA is available, eight scalar mul-add chains otherwise.
fn peak_fma_gflops(iters: usize, samples: usize) -> Quartiles {
    #[cfg(target_arch = "x86_64")]
    if mei_math::kernels::avx2_fma_enabled() {
        // SAFETY: AVX2 and FMA availability was checked just above.
        let secs = secs_per_call(samples, 1, || unsafe {
            black_box(fma_chains(black_box(iters), black_box(1.0)));
        });
        return secs.rate(2.0 * 8.0 * 12.0 * iters as f64 / 1e9);
    }
    let secs = secs_per_call(samples, 1, || {
        let mut acc = [black_box(1.0f32); 8];
        for _ in 0..black_box(iters) {
            for a in &mut acc {
                *a = *a * 0.999_999 + 1e-7;
            }
        }
        black_box(acc);
    });
    secs.rate(2.0 * 8.0 * iters as f64 / 1e9)
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

/// Single-thread stream triad `a = b + s·c` in GB/s, counting two reads
/// and one write per element.
fn stream_gbps(len: usize, samples: usize) -> Quartiles {
    let b = vec![1.0f32; len];
    let c = vec![2.0f32; len];
    let mut a = vec![0.0f32; len];
    let secs = secs_per_call(samples, 1, || {
        for ((x, y), z) in a.iter_mut().zip(&b).zip(&c) {
            *x = y + 0.5 * z;
        }
        black_box(&mut a);
    });
    secs.rate(3.0 * 4.0 * len as f64 / 1e9)
}

/// Times every kernel row and both §2.2.3 sweeps at `shapes` on inputs
/// drawn from `seed`. The returned object is `BENCH_kernels.json`.
pub fn bench_kernels(shapes: &KernelShapes, seed: u64) -> JsonValue {
    let samples = shapes.samples;
    let mut rng = StdRng::seed_from_u64(seed);
    let peaks = json::obj([
        ("fma_gflops", peak_fma_gflops(shapes.fma_iters, samples).to_json()),
        ("stream_gbps", stream_gbps(shapes.stream_len, samples).to_json()),
    ]);
    let [nn, tn] = backward_rows(shapes.backward, samples, &mut rng);
    let kernels = vec![
        gemm_nt_row(shapes.gemm_nt, samples, &mut rng),
        dot_gather_row(shapes.dot_gather, samples, &mut rng),
        nn,
        tn,
        gemm_i8_row(shapes.gemm_i8, samples, &mut rng),
    ];
    json::obj([
        ("bench", json::str("kernels")),
        ("seed", json::int(seed as usize)),
        ("samples", json::int(samples)),
        ("score_triple_batch", json::int(shapes.batch)),
        ("simd_level", json::str(format!("{:?}", mei_math::dispatch::level()))),
        ("peaks", peaks),
        ("kernels", JsonValue::Arr(kernels)),
        ("scaling_by_dim", JsonValue::Arr(scaling_by_dim(shapes, &mut rng))),
        ("scaling_by_n", JsonValue::Arr(scaling_by_n(shapes, &mut rng))),
        ("binary", binary_fingerprint()),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> KernelShapes {
        KernelShapes {
            gemm_nt: Gemm { m: 3, n: 40, k: 24 },
            dot_gather: Gemm { m: 16, n: 40, k: 24 },
            backward: Gemm { m: 4, n: 40, k: 24 },
            gemm_i8: Gemm { m: 1, n: 64, k: 32 },
            dims: vec![4, 8],
            entities: 20,
            budget: 8,
            samples: 3,
            batch: 10,
            fma_iters: 1000,
            stream_len: 4096,
        }
    }

    /// The three quartiles of `q` are finite, positive and ordered.
    fn assert_quartiles(q: &JsonValue, what: &str) {
        let get = |name: &str| {
            q.get(name).and_then(|v| v.as_f64()).unwrap_or_else(|| panic!("{what}: no {name}"))
        };
        let (p25, median, p75) = (get("p25"), get("median"), get("p75"));
        for v in [p25, median, p75] {
            assert!(v.is_finite() && v > 0.0, "{what}: {v}");
        }
        assert!(p25 <= median && median <= p75, "{what}: {p25} {median} {p75}");
    }

    #[test]
    fn every_row_has_finite_positive_ordered_quartiles() {
        let report = bench_kernels(&tiny(), 3);
        let peaks = report.get("peaks").expect("peaks");
        assert_quartiles(peaks.get("fma_gflops").expect("fma peak"), "fma");
        assert_quartiles(peaks.get("stream_gbps").expect("stream"), "stream");

        let kernels = report.get("kernels").and_then(|v| v.as_arr()).expect("kernel rows");
        let names: Vec<&str> =
            kernels.iter().map(|r| r.get("kernel").and_then(|v| v.as_str()).unwrap()).collect();
        assert_eq!(names, ["gemm_nt", "dot_gather", "gemm_nn_acc", "gemm_tn_acc", "gemm_i8"]);
        for (row, name) in kernels.iter().zip(names) {
            assert_quartiles(row, name);
        }

        let by_dim = report.get("scaling_by_dim").and_then(|v| v.as_arr()).expect("D sweep");
        assert_eq!(by_dim.len(), 2);
        for row in by_dim {
            assert_quartiles(row.get("score_triple_ns").expect("triple"), "score_triple");
            assert_quartiles(row.get("score_block_ms").expect("block"), "score_block");
        }
        let by_n = report.get("scaling_by_n").and_then(|v| v.as_arr()).expect("n sweep");
        let ns: Vec<usize> =
            by_n.iter().map(|r| r.get("n").and_then(|v| v.as_usize()).unwrap()).collect();
        assert_eq!(ns, [1, 2, 4]);
        for row in by_n {
            assert_quartiles(row.get("score_triple_ns").expect("triple"), "score_triple by n");
        }
        assert!(report.get("simd_level").and_then(|v| v.as_str()).is_some());
        assert!(report.get("binary").and_then(|b| b.get("content_hash")).is_some());
    }

    #[test]
    fn quartiles_are_nearest_rank_and_rates_swap_them() {
        let q = Quartiles::of(vec![5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!(q, Quartiles { p25: 2.0, median: 3.0, p75: 4.0 });
        let r = q.rate(12.0);
        assert_eq!(r, Quartiles { p25: 3.0, median: 4.0, p75: 6.0 });
    }
}
