//! Benchmarks of the evaluation protocol: scoring every entity as a
//! corruption through `score_block` — the blocked GEMM path against the
//! trait's pointwise default — and the full raw + filtered protocol.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use mei_core::{MultiEmbedModel, WeightPreset};
use mei_eval::ranking::{evaluate, EvalConfig};
use mei_eval::{BlockQuery, TripleScorer};
use mei_kg::{EntityId, RelationId};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench_ranking(c: &mut Criterion) {
    let dataset = mei_datagen::SynthWnConfig::at_scale(mei_datagen::SynthWnScale::Tiny, 3).generate();
    let mut rng = StdRng::seed_from_u64(1);
    let model = MultiEmbedModel::from_preset(
        WeightPreset::ComplEx,
        dataset.num_entities(),
        dataset.num_relations(),
        64,
        &mut rng,
    );
    let filter = dataset.filter_store();
    let query = [BlockQuery::tails(EntityId(3), RelationId(0))];

    let mut group = c.benchmark_group("ranking");

    // Fast path: context precompute + one GEMM row over the entity table.
    group.bench_function("score_block (1 query)", |b| {
        let mut out = vec![0.0f32; model.num_entities()];
        b.iter(|| {
            model.score_block(black_box(&query), &mut out);
            out[0]
        })
    });

    // Naive path: the trait's default, one pointwise score per entity.
    struct Naive<'a>(&'a MultiEmbedModel);
    impl TripleScorer for Naive<'_> {
        fn num_entities(&self) -> usize {
            self.0.num_entities()
        }
        fn score(&self, h: EntityId, t: EntityId, r: RelationId) -> f32 {
            self.0.score(h, t, r)
        }
        // no score_block override: exercises the default loop
    }
    group.bench_function("score_block (1 query, naive)", |b| {
        let naive = Naive(&model);
        let mut out = vec![0.0f32; model.num_entities()];
        b.iter(|| {
            naive.score_block(black_box(&query), &mut out);
            out[0]
        })
    });

    // Blocked path: one GEMM over a whole block of queries. Single-query
    // blocks show the kernel cost; the evaluate benches below exercise the
    // real multi-query blocking.
    group.bench_function("score_block (blocked gemm, 8 queries)", |b| {
        let queries: Vec<BlockQuery> = (0..8)
            .map(|i| BlockQuery::tails(EntityId(i), RelationId(i % 4)))
            .collect();
        let mut out = vec![0.0f32; queries.len() * model.num_entities()];
        b.iter(|| {
            model.score_block(black_box(&queries), &mut out);
            out[0]
        })
    });

    // Full protocol over the test split (raw + filtered in one pass).
    group.sample_size(10);
    group.bench_function("evaluate test split (blocked)", |b| {
        b.iter(|| evaluate(&model, &dataset.test, &filter, &EvalConfig::default()))
    });

    group.finish();
}

criterion_group!(benches, bench_ranking);
criterion_main!(benches);
