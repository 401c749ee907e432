//! End-to-end evaluation-pipeline benchmark at WN18-like shape:
//! |E| ≈ 41k entities, n·D = 400, ranking through `evaluate_with_stats`.
//!
//! The scorer is a synthetic matrix model (entity table + per-query
//! context) rather than mei-core's full model — mei-core depends on this
//! crate, so the bench rebuilds the same compute shape from mei-math
//! kernels and times the blocked `score_block` GEMM pipeline.

use criterion::{criterion_group, criterion_main, Criterion};
use mei_eval::ranking::evaluate_with_stats;
use mei_eval::{BlockQuery, EvalConfig, TripleScorer};
use mei_kg::{EntityId, RelationId, Triple, TripleStore};
use mei_math::kernels::{dot_fast, gemm_nt};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const NUM_ENTITIES: usize = 41_000;
const K: usize = 400;
const NUM_TRIPLES: usize = 64;

/// Entity table + a cheap deterministic context per `(anchor, relation)`:
/// `ctx = (1 + r/4) · row(anchor)`, scored as `dot(ctx, row(e))` — the
/// same `dot_fast`/`gemm_nt` reduction mei-core's model uses.
struct MatScorer {
    ne: usize,
    table: Vec<f32>,
}

impl MatScorer {
    fn context(&self, anchor: EntityId, relation: RelationId, ctx: &mut [f32]) {
        let row = &self.table[anchor.idx() * K..(anchor.idx() + 1) * K];
        let s = 1.0 + 0.25 * relation.0 as f32;
        for (c, v) in ctx.iter_mut().zip(row) {
            *c = s * *v;
        }
    }
}

impl TripleScorer for MatScorer {
    fn num_entities(&self) -> usize {
        self.ne
    }

    fn score(&self, head: EntityId, tail: EntityId, relation: RelationId) -> f32 {
        let mut ctx = vec![0.0f32; K];
        self.context(head, relation, &mut ctx);
        dot_fast(&ctx, &self.table[tail.idx() * K..(tail.idx() + 1) * K])
    }

    fn score_block(&self, queries: &[BlockQuery], out: &mut [f32]) {
        let mut ctxs = vec![0.0f32; queries.len() * K];
        for (q, ctx) in queries.iter().zip(ctxs.chunks_mut(K)) {
            self.context(q.anchor, q.relation, ctx);
        }
        gemm_nt(&ctxs, &self.table, K, out);
    }
}

fn bench_eval_pipeline(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(23);
    let scorer = MatScorer {
        ne: NUM_ENTITIES,
        table: (0..NUM_ENTITIES * K).map(|_| rng.gen_range(-0.1f32..0.1)).collect(),
    };
    let triples: Vec<Triple> = (0..NUM_TRIPLES as u32)
        .map(|i| {
            Triple::new(
                rng.gen_range(0..NUM_ENTITIES as u32),
                rng.gen_range(0..NUM_ENTITIES as u32),
                i % 11,
            )
        })
        .collect();
    let filter: TripleStore = triples.iter().copied().collect();
    let config = EvalConfig::default();

    let (_, filt, _) = evaluate_with_stats(&scorer, &triples, &filter, &config);
    assert_eq!(filt.num_queries, 2 * NUM_TRIPLES);

    let mut group = c.benchmark_group("eval_41000e_400d");
    group.sample_size(10);
    group.bench_function("evaluate (blocked gemm)", |b| {
        b.iter(|| evaluate_with_stats(&scorer, &triples, &filter, &config))
    });
    group.finish();
}

criterion_group!(benches, bench_eval_pipeline);
criterion_main!(benches);
