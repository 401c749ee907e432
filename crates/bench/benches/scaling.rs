//! Embedding-size scaling ablation.
//!
//! §2.2.3 claims trilinear-product models "scale linearly with respect to
//! embedding size in both time and space". This bench sweeps D for scoring
//! and for the ranking fast path; Criterion's reports make the linear trend
//! (or any deviation) visible.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use mei_core::{MultiEmbedModel, WeightPreset};
use mei_eval::{BlockQuery, TripleScorer};
use mei_kg::{EntityId, RelationId, Triple};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench_scaling(c: &mut Criterion) {
    let mut score_group = c.benchmark_group("scaling/score_triple_complex");
    for dim in [25usize, 50, 100, 200, 400] {
        let mut rng = StdRng::seed_from_u64(1);
        let model = MultiEmbedModel::from_preset(WeightPreset::ComplEx, 500, 18, dim, &mut rng);
        score_group.bench_with_input(BenchmarkId::from_parameter(dim), &dim, |b, _| {
            b.iter(|| model.score_triple(black_box(Triple::new(1, 2, 3))))
        });
    }
    score_group.finish();

    let mut rank_group = c.benchmark_group("scaling/rank_all_tails_complex");
    for dim in [25usize, 50, 100, 200] {
        let mut rng = StdRng::seed_from_u64(1);
        let model = MultiEmbedModel::from_preset(WeightPreset::ComplEx, 500, 18, dim, &mut rng);
        let mut out = vec![0.0f32; 500];
        let query = [BlockQuery::tails(EntityId(3), RelationId(0))];
        rank_group.bench_with_input(BenchmarkId::from_parameter(dim), &dim, |b, _| {
            b.iter(|| {
                model.score_block(black_box(&query), &mut out);
                out[0]
            })
        });
    }
    rank_group.finish();

    // n-sweep at fixed total budget (parameter parity): n·D = 128.
    let mut n_group = c.benchmark_group("scaling/fixed_budget_by_n");
    for preset in [WeightPreset::DistMult, WeightPreset::ComplEx, WeightPreset::Quaternion] {
        let dim = 128 / preset.n();
        let mut rng = StdRng::seed_from_u64(1);
        let model = MultiEmbedModel::from_preset(preset, 500, 18, dim, &mut rng);
        n_group.bench_function(preset.name(), |b| {
            b.iter(|| model.score_triple(black_box(Triple::new(1, 2, 3))))
        });
    }
    n_group.finish();
}

criterion_group!(benches, bench_scaling);
criterion_main!(benches);
