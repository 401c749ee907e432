//! Property tests over the multi-embedding interaction model itself:
//! algebraic identities that must hold for every shape, seed and ω.

use mei::core::serialize::{model_from_bytes, model_to_bytes};
use mei::eval::BlockQuery;
use mei::prelude::*;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn arb_omega(n: usize) -> impl Strategy<Value = Vec<f32>> {
    proptest::collection::vec(-2.0f32..2.0, n * n * n)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Eq. 8 is linear in ω: S_{ω₁+ω₂} = S_{ω₁} + S_{ω₂} for shared
    /// embeddings.
    #[test]
    fn score_is_linear_in_omega(
        seed in 0u64..500,
        w1 in arb_omega(2),
        w2 in arb_omega(2),
    ) {
        let cfg = ModelConfig { num_entities: 6, num_relations: 3, n: 2, dim: 5 };
        let mut rng = StdRng::seed_from_u64(seed);
        let base = MultiEmbedModel::with_fixed_weights(
            cfg, WeightVector::new(2, w1.clone()), &mut rng);
        let mut m1 = base.clone();
        m1.raw_omega_mut().dense_mut().copy_from_slice(&w1);
        m1.refresh_omega();
        let mut m2 = base.clone();
        m2.raw_omega_mut().dense_mut().copy_from_slice(&w2);
        m2.refresh_omega();
        let sum: Vec<f32> = w1.iter().zip(&w2).map(|(a, b)| a + b).collect();
        let mut ms = base.clone();
        ms.raw_omega_mut().dense_mut().copy_from_slice(&sum);
        ms.refresh_omega();
        for (h, t, r) in [(0u32, 1, 0u32), (3, 5, 2), (4, 4, 1)] {
            let triple = Triple::new(h, t, r);
            let lhs = ms.score_triple(triple);
            let rhs = m1.score_triple(triple) + m2.score_triple(triple);
            prop_assert!((lhs - rhs).abs() < 1e-3 * (1.0 + rhs.abs()),
                "{lhs} vs {rhs}");
        }
    }

    /// The factorized candidate-scoring contexts reproduce pointwise
    /// scores for arbitrary ω (including dense random ones, not just the
    /// sparse presets) — the eval fast path is exact, not approximate.
    #[test]
    fn contexts_reproduce_scores_for_random_omega(
        seed in 0u64..500,
        omega in arb_omega(2),
    ) {
        let cfg = ModelConfig { num_entities: 8, num_relations: 2, n: 2, dim: 4 };
        let mut rng = StdRng::seed_from_u64(seed);
        let model = MultiEmbedModel::with_fixed_weights(
            cfg, WeightVector::new(2, omega), &mut rng);
        let queries = [
            BlockQuery::tails(EntityId(3), RelationId(1)),
            BlockQuery::heads(EntityId(2), RelationId(0)),
        ];
        let mut out = vec![0.0f32; 2 * 8];
        model.score_block(&queries, &mut out);
        let (tails, heads) = out.split_at(8);
        for e in 0..8u32 {
            let pt = model.score_triple(Triple::new(3, e, 1));
            prop_assert!((tails[e as usize] - pt).abs() < 1e-4);
            let ph = model.score_triple(Triple::new(e, 2, 0));
            prop_assert!((heads[e as usize] - ph).abs() < 1e-4);
        }
    }

    /// Serialization round-trips bit-exactly for arbitrary shapes,
    /// including the non-cubic CP grid.
    #[test]
    fn serialization_round_trips_arbitrary_shapes(
        seed in 0u64..1000,
        ne in 1usize..12,
        nr in 1usize..5,
        dim in 1usize..9,
        preset_idx in 0usize..14,
    ) {
        let preset = WeightPreset::all()[preset_idx % WeightPreset::all().len()];
        let (n, omega) = preset.effective_interaction();
        let cfg = ModelConfig { num_entities: ne, num_relations: nr, n, dim };
        let mut rng = StdRng::seed_from_u64(seed);
        let model = MultiEmbedModel::with_fixed_weights(cfg, omega, &mut rng);
        let restored = model_from_bytes(model_to_bytes(&model)).unwrap();
        prop_assert_eq!(model.entities.as_slice(), restored.entities.as_slice());
        prop_assert_eq!(model.relations.as_slice(), restored.relations.as_slice());
        prop_assert_eq!(model.omega().dense(), restored.omega().dense());
        let t = Triple::new(0, (ne - 1) as u32, (nr - 1) as u32);
        prop_assert_eq!(model.score_triple(t), restored.score_triple(t));
    }

    /// Scaling every relation embedding by c scales every score by c for
    /// any single-relation-component model (multilinearity in r).
    #[test]
    fn score_is_linear_in_relation_embedding(
        seed in 0u64..500,
        c in -3.0f32..3.0,
    ) {
        let cfg = ModelConfig { num_entities: 5, num_relations: 2, n: 2, dim: 4 };
        let mut rng = StdRng::seed_from_u64(seed);
        let base = MultiEmbedModel::with_fixed_weights(
            cfg, WeightPreset::ComplEx.weight_vector(), &mut rng);
        let mut scaled = base.clone();
        for item in 0..2 {
            for comp in 0..2 {
                for v in scaled.relations.vec_mut(item, comp) {
                    *v *= c;
                }
            }
        }
        for (h, t, r) in [(0u32, 1, 0u32), (2, 4, 1)] {
            let triple = Triple::new(h, t, r);
            let lhs = scaled.score_triple(triple);
            let rhs = c * base.score_triple(triple);
            prop_assert!((lhs - rhs).abs() < 1e-3 * (1.0 + rhs.abs()));
        }
    }
}
