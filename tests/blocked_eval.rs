//! Regression tests for the blocked evaluation pipeline: the GEMM-backed
//! `score_block` path must reproduce the per-query oracle bit-for-bit, and
//! — on exact-arithmetic (grid-quantized) models — the naive `score()`
//! loop too, under every tie policy.

use mei::eval::ranking::{evaluate_with_stats, rank_triple_detailed};
use mei::eval::{BlockQuery, EvalConfig, Side, TiePolicy};
use mei::math::dot_fast;
use mei::prelude::*;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The per-query oracle: one interaction context per query, then
/// `dot_fast` against every entity row. `gemm_nt` reduces each score
/// exactly like `dot_fast`, so the blocked path must match it bit for bit.
struct PerQuery<'a>(&'a MultiEmbedModel);

impl TripleScorer for PerQuery<'_> {
    fn num_entities(&self) -> usize {
        self.0.num_entities()
    }
    fn score(&self, h: EntityId, t: EntityId, r: RelationId) -> f32 {
        self.0.score(h, t, r)
    }
    fn score_block(&self, queries: &[BlockQuery], out: &mut [f32]) {
        let model = self.0;
        let mut ctx = vec![0.0f32; model.entities.row_len()];
        for (q, row) in queries.iter().zip(out.chunks_mut(model.num_entities())) {
            match q.side {
                Side::Tail => model.tail_context(q.anchor, q.relation, &mut ctx),
                Side::Head => model.head_context(q.anchor, q.relation, &mut ctx),
            }
            for (e, slot) in row.iter_mut().enumerate() {
                *slot = dot_fast(&ctx, model.entities.row(e));
            }
        }
    }
}

/// Only `score()`: the fully naive per-candidate evaluation path.
struct Naive<'a>(&'a MultiEmbedModel);

impl TripleScorer for Naive<'_> {
    fn num_entities(&self) -> usize {
        self.0.num_entities()
    }
    fn score(&self, h: EntityId, t: EntityId, r: RelationId) -> f32 {
        self.0.score(h, t, r)
    }
}

fn assert_results_bitwise_equal(
    a: &LinkPredictionResults,
    b: &LinkPredictionResults,
    what: &str,
) {
    assert_eq!(a.mrr.to_bits(), b.mrr.to_bits(), "{what}: MRR diverged");
    assert_eq!(a.mr.to_bits(), b.mr.to_bits(), "{what}: MR diverged");
    assert_eq!(a.num_queries, b.num_queries, "{what}: query count diverged");
    assert_eq!(a.mrr_head_side.to_bits(), b.mrr_head_side.to_bits(), "{what}: head MRR diverged");
    assert_eq!(a.mrr_tail_side.to_bits(), b.mrr_tail_side.to_bits(), "{what}: tail MRR diverged");
    assert_eq!(a.hits.len(), b.hits.len());
    for ((ka, va), (kb, vb)) in a.hits.iter().zip(&b.hits) {
        assert_eq!(ka, kb);
        assert_eq!(va.to_bits(), vb.to_bits(), "{what}: Hit@{ka} diverged");
    }
    for (rel, va) in &a.per_relation_mrr {
        let vb = b.per_relation_mrr[rel];
        assert_eq!(va.to_bits(), vb.to_bits(), "{what}: per-relation MRR diverged for {rel:?}");
    }
}

/// The headline acceptance check: on a synthetic WN-style dataset, the
/// blocked scores, the blocked pipeline's raw AND filtered metrics, and
/// every piece of telemetry except wall time are bitwise identical to the
/// per-query oracle, under every tie policy. At dim 200 (n·D = 400) the
/// entity table outgrows one `gemm_nt` cache block, so scores cross a
/// block boundary.
#[test]
fn blocked_metrics_are_bitwise_identical_to_per_query_path() {
    let ds = SynthWnConfig::at_scale(SynthWnScale::Tiny, 9).generate();
    let filter = ds.filter_store();
    for dim in [24, 200] {
        let mut rng = StdRng::seed_from_u64(42);
        let model = MultiEmbedModel::from_preset(
            WeightPreset::ComplEx,
            ds.num_entities(),
            ds.num_relations(),
            dim,
            &mut rng,
        );
        // gemm_nt streams the entity table in 256 KB blocks.
        let blocks = (4 * model.entities.len()).div_ceil(256 * 1024);
        assert_eq!(blocks, if dim == 200 { 2 } else { 1 });
        // The scores themselves, not only the metrics: a last-bit change
        // in one score rarely moves a rank. Both sides' queries of every
        // test triple, in the evaluator's blocks of 32 queries.
        let queries: Vec<BlockQuery> = ds
            .test
            .iter()
            .flat_map(|t| {
                [BlockQuery::tails(t.head, t.relation), BlockQuery::heads(t.tail, t.relation)]
            })
            .collect();
        let ne = model.num_entities();
        let (mut blocked, mut per_query) = (Vec::new(), Vec::new());
        for block in queries.chunks(32) {
            blocked.resize(block.len() * ne, 0.0f32);
            per_query.resize(block.len() * ne, 0.0f32);
            model.score_block(block, &mut blocked);
            PerQuery(&model).score_block(block, &mut per_query);
            for (i, (b, q)) in blocked.iter().zip(&per_query).enumerate() {
                assert_eq!(
                    b.to_bits(),
                    q.to_bits(),
                    "dim {dim}, {:?}, entity {}: blocked {b} vs per-query {q}",
                    block[i / ne],
                    i % ne
                );
            }
        }
        for policy in [TiePolicy::Optimistic, TiePolicy::Average, TiePolicy::Pessimistic] {
            let config = EvalConfig { hits_at: vec![1, 3, 10], tie_policy: policy };
            let (raw_b, filt_b, stats_b) = evaluate_with_stats(&model, &ds.test, &filter, &config);
            let (raw_q, filt_q, stats_q) =
                evaluate_with_stats(&PerQuery(&model), &ds.test, &filter, &config);
            let label = format!("dim {dim}, policy {}", policy.name());
            assert_results_bitwise_equal(&raw_b, &raw_q, &format!("{label} raw"));
            assert_results_bitwise_equal(&filt_b, &filt_q, &format!("{label} filtered"));
            assert_eq!(stats_b.queries, stats_q.queries);
            assert_eq!(stats_b.tied_queries, stats_q.tied_queries);
            assert_eq!(stats_b.head_ranks, stats_q.head_ranks);
            assert_eq!(stats_b.tail_ranks, stats_q.tail_ranks);
        }
    }
}

/// Snaps every embedding parameter to the k/16 grid. With small dims all
/// products and sums stay within f32's 24-bit significand, so every
/// scoring path computes the *exact* real number — making rank and tie
/// comparisons against the naive `score()` loop meaningful bit-for-bit
/// (random f32 models could legitimately flip ranks between summation
/// orders on last-bit score differences).
fn quantize(model: &mut MultiEmbedModel) {
    let ne = model.num_entities();
    for e in 0..ne {
        for v in model.entities.row_mut(e) {
            *v = (*v * 16.0).round() / 16.0;
        }
    }
    let nr = model.relations.num_items();
    for r in 0..nr {
        for v in model.relations.row_mut(r) {
            *v = (*v * 16.0).round() / 16.0;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// On quantized models the blocked kernel and the naive score() loop
    /// produce identical score vectors, identical raw/filtered ranks, and
    /// identical tie counts under every policy.
    #[test]
    fn blocked_ranks_match_naive_scoring_on_quantized_models(
        seed in 0u64..10_000,
        preset_idx in 0usize..3,
    ) {
        let preset =
            [WeightPreset::DistMult, WeightPreset::ComplEx, WeightPreset::Cp][preset_idx];
        let mut rng = StdRng::seed_from_u64(seed);
        let ne = 30usize;
        let mut model = MultiEmbedModel::from_preset(preset, ne, 4, 4, &mut rng);
        quantize(&mut model);

        let triples: Vec<Triple> = (0..12u32)
            .map(|i| Triple::new(i % ne as u32, (i * 7 + seed as u32) % ne as u32, i % 4))
            .collect();
        let filter: TripleStore = triples.iter().copied().collect();
        let naive = Naive(&model);

        // Score vectors agree bitwise between blocked rows and the naive
        // loop (exact arithmetic ⇒ summation order cannot matter).
        let queries: Vec<BlockQuery> = triples
            .iter()
            .flat_map(|t| {
                [BlockQuery::tails(t.head, t.relation), BlockQuery::heads(t.tail, t.relation)]
            })
            .collect();
        let mut blocked = vec![0.0f32; queries.len() * ne];
        model.score_block(&queries, &mut blocked);
        let mut naive_row = vec![0.0f32; ne];
        for (q, brow) in queries.iter().zip(blocked.chunks(ne)) {
            naive.score_block(std::slice::from_ref(q), &mut naive_row);
            for (a, b) in brow.iter().zip(&naive_row) {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
            // Identical raw/filtered ranks and tie counts for every policy.
            let known = match q.side {
                Side::Tail => filter.tails_of(q.anchor, q.relation),
                Side::Head => filter.heads_of(q.anchor, q.relation),
            };
            // Every true entity of the group, not just one, must rank
            // identically.
            for &truth in known {
                for policy in
                    [TiePolicy::Optimistic, TiePolicy::Average, TiePolicy::Pessimistic]
                {
                    let ob = rank_triple_detailed(brow, truth, known, policy);
                    let on = rank_triple_detailed(&naive_row, truth, known, policy);
                    prop_assert_eq!(ob, on);
                }
            }
        }

        // And the full pipeline agrees end to end.
        for policy in [TiePolicy::Optimistic, TiePolicy::Average, TiePolicy::Pessimistic] {
            let config = EvalConfig { hits_at: vec![1, 3, 10], tie_policy: policy };
            let (raw_b, filt_b, stats_b) =
                evaluate_with_stats(&model, &triples, &filter, &config);
            let (raw_n, filt_n, stats_n) =
                evaluate_with_stats(&naive, &triples, &filter, &config);
            prop_assert_eq!(raw_b.mrr.to_bits(), raw_n.mrr.to_bits());
            prop_assert_eq!(filt_b.mrr.to_bits(), filt_n.mrr.to_bits());
            prop_assert_eq!(filt_b.hits, filt_n.hits);
            prop_assert_eq!(stats_b.tied_queries, stats_n.tied_queries);
        }
    }
}
