//! Integration tests for the extension surface: leakage removal, grid
//! search, margin loss, Bernoulli sampling and the octonion model —
//! exercised together through the public facade, the way a downstream
//! experiment would compose them.

use mei::core::tuning::{grid_search, Grid};
use mei::eval::ranking::evaluate_filtered;
use mei::kg::dedup::{remove_leaky_relations, DedupConfig};
use mei::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn dedup_removes_synthwn_hierarchy_pairs_and_lowers_leakage() {
    let ds = SynthWnConfig::at_scale(SynthWnScale::Tiny, 3).generate();
    let before = ds.test_inverse_leakage();
    let (hard, report) = remove_leaky_relations(&ds, DedupConfig::default());
    // The tiny preset has 2 hierarchy pairs → 2 removals.
    assert_eq!(report.removed_inverse.len(), 2, "{:?}", report.removed_inverse);
    assert!(report.triples_removed > 100);
    hard.validate().unwrap();
    let after = hard.test_inverse_leakage();
    assert!(
        after < before - 0.1,
        "leakage should drop materially: {before:.3} → {after:.3}"
    );
    // Symmetric relations survive (WN18RR kept _similar_to).
    assert!(hard.relations.get("_similar_to_0").is_some());
    assert!(hard.relations.get("_hypernym_0").is_none() || hard.relations.get("_hyponym_0").is_none());
}

#[test]
fn training_on_hard_variant_caps_complex_at_the_new_ceiling() {
    let ds = SynthWnConfig::at_scale(SynthWnScale::Tiny, 3).generate();
    let (hard, _) = remove_leaky_relations(&ds, DedupConfig::default());
    let filter = hard.filter_store();
    let mut rng = StdRng::seed_from_u64(1);
    let mut model = MultiEmbedModel::from_preset(
        WeightPreset::ComplEx,
        hard.num_entities(),
        hard.num_relations(),
        16,
        &mut rng,
    );
    let cfg = TrainConfig {
        max_epochs: 150,
        batch_size: 512,
        learning_rate: 1e-2,
        eval_every: 50,
        patience: 100,
        ..TrainConfig::default()
    };
    Trainer::new(cfg).train(&mut model, &hard, &filter);
    let res = evaluate_filtered(&model, &hard.test, &filter, &EvalConfig::default());
    // The remaining predictable structure is symmetric self-leakage; the
    // model should sit near that ceiling, far below the full-SynthWN MRR.
    let ceiling = hard.test_inverse_leakage();
    assert!(
        res.mrr < ceiling + 0.25,
        "MRR {:.3} suspiciously above the leakage ceiling {:.3}",
        res.mrr,
        ceiling
    );
}

#[test]
fn grid_search_prefers_sane_hyperparameters_on_synthwn() {
    let ds = SynthWnConfig::at_scale(SynthWnScale::Tiny, 5).generate();
    let filter = ds.filter_store();
    let cfg = ModelConfig {
        num_entities: ds.num_entities(),
        num_relations: ds.num_relations(),
        n: 2,
        dim: 8,
    };
    let base = TrainConfig { max_epochs: 30, eval_every: 15, patience: 30, ..TrainConfig::default() };
    let grid = Grid {
        learning_rates: vec![1e-2, 1e-6], // second is hopeless at 30 epochs
        l2_lambdas: vec![1e-3],
        batch_sizes: vec![512],
    };
    let result = grid_search(cfg, WeightPreset::ComplEx.weight_vector(), &ds, &filter, &base, &grid);
    assert_eq!(result.best.learning_rate, 1e-2);
    assert_eq!(result.sweep.len(), 2);
}

#[test]
fn margin_loss_and_bernoulli_sampling_compose() {
    let ds = SynthWnConfig::at_scale(SynthWnScale::Tiny, 7).generate();
    let filter = ds.filter_store();
    let mut rng = StdRng::seed_from_u64(11);
    let mut model = MultiEmbedModel::from_preset(
        WeightPreset::ComplEx,
        ds.num_entities(),
        ds.num_relations(),
        16,
        &mut rng,
    );
    let cfg = TrainConfig {
        max_epochs: 100,
        batch_size: 512,
        learning_rate: 1e-2,
        eval_every: 50,
        patience: 100,
        loss: LossKind::MarginRanking { margin: 1.0 },
        sampling: SamplingStrategy::Bernoulli,
        ..TrainConfig::default()
    };
    let report = Trainer::new(cfg).train(&mut model, &ds, &filter);
    assert!(
        report.best_valid_mrr > 0.1,
        "margin + bernoulli training should learn something: {:.3}",
        report.best_valid_mrr
    );
}

#[test]
fn octonion_model_trains_and_serializes() {
    let ds = SynthWnConfig::at_scale(SynthWnScale::Tiny, 13).generate();
    let filter = ds.filter_store();
    let mut rng = StdRng::seed_from_u64(17);
    let mut model = MultiEmbedModel::from_preset(
        WeightPreset::Octonion,
        ds.num_entities(),
        ds.num_relations(),
        4, // n = 8 components of 4 dims each
        &mut rng,
    );
    assert_eq!(model.omega().terms().len(), 64);
    let cfg = TrainConfig {
        max_epochs: 40,
        batch_size: 512,
        learning_rate: 1e-2,
        eval_every: 20,
        patience: 40,
        ..TrainConfig::default()
    };
    let report = Trainer::new(cfg).train(&mut model, &ds, &filter);
    assert!(report.best_valid_mrr.is_finite());
    let restored = mei::core::serialize::model_from_bytes(
        mei::core::serialize::model_to_bytes(&model),
    )
    .unwrap();
    let t = Triple::new(0, 1, 0);
    assert_eq!(model.score_triple(t), restored.score_triple(t));
}
