//! End-to-end behavioural tests: train real models on small structured
//! graphs and assert the *learnability separations* the paper's analysis
//! predicts (§2.2.3, §6.1).
//!
//! These are the integration-level counterparts of Table 2: cheap enough
//! for CI, strong enough to catch a broken trainer, sampler, evaluator or
//! weight preset.

use mei::eval::ranking::evaluate_filtered;
use mei::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// An antisymmetric "points_to" cycle plus its inverse relation —
/// miniature WN18 structure.
fn inverse_pair_dataset(n: u32) -> Dataset {
    let entities = Dictionary::from_names((0..n).map(|i| format!("e{i}")));
    let relations = Dictionary::from_names(["next", "prev"]);
    let mut train = Vec::new();
    let mut test = Vec::new();
    let mut valid = Vec::new();
    for i in 0..n {
        let j = (i + 1) % n;
        // Keep every "prev" edge in train; hold out some "next" edges whose
        // inverse is therefore still visible — the WN18 leakage pattern.
        train.push(Triple::new(j, i, 1));
        match i % 10 {
            7 => test.push(Triple::new(i, j, 0)),
            3 => valid.push(Triple::new(i, j, 0)),
            _ => train.push(Triple::new(i, j, 0)),
        }
    }
    Dataset { entities, relations, train, valid, test }
}

fn train_preset(
    preset: WeightPreset,
    ds: &Dataset,
    dim: usize,
    epochs: usize,
) -> (MultiEmbedModel, TripleStore) {
    let mut rng = StdRng::seed_from_u64(42);
    let (train_ds, filter);
    if preset == WeightPreset::Cph {
        let aug = AugmentedDataset::from_dataset(ds);
        filter = aug.dataset.filter_store();
        train_ds = aug.dataset;
    } else {
        filter = ds.filter_store();
        train_ds = ds.clone();
    }
    let mut model = MultiEmbedModel::from_preset(
        if preset == WeightPreset::Cph { WeightPreset::Cp } else { preset },
        train_ds.num_entities(),
        train_ds.num_relations(),
        dim,
        &mut rng,
    );
    let cfg = TrainConfig {
        max_epochs: epochs,
        batch_size: 256,
        learning_rate: 1e-2,
        eval_every: epochs / 4,
        patience: epochs,
        ..TrainConfig::default()
    };
    Trainer::new(cfg).train(&mut model, &train_ds, &filter);
    (model, filter)
}

#[test]
fn complex_exploits_inverse_structure_distmult_saturates() {
    let ds = inverse_pair_dataset(60);
    let eval_cfg = EvalConfig::default();

    let (cx, f_cx) = train_preset(WeightPreset::ComplEx, &ds, 16, 400);
    let cx_res = evaluate_filtered(&cx, &ds.test, &f_cx, &eval_cfg);

    let (dm, f_dm) = train_preset(WeightPreset::DistMult, &ds, 32, 400);
    let dm_res = evaluate_filtered(&dm, &ds.test, &f_dm, &eval_cfg);

    assert!(
        cx_res.mrr > dm_res.mrr + 0.1,
        "ComplEx ({:.3}) should clearly beat DistMult ({:.3}) on inverse-structured data",
        cx_res.mrr,
        dm_res.mrr
    );
    assert!(cx_res.mrr > 0.5, "ComplEx should solve the cycle: {:.3}", cx_res.mrr);
}

#[test]
fn cph_augmentation_rescues_cp() {
    let ds = inverse_pair_dataset(60);
    let eval_cfg = EvalConfig::default();

    let (cp, f_cp) = train_preset(WeightPreset::Cp, &ds, 16, 400);
    let cp_res = evaluate_filtered(&cp, &ds.test, &f_cp, &eval_cfg);

    let (cph, f_cph) = train_preset(WeightPreset::Cph, &ds, 16, 400);
    let cph_res = evaluate_filtered(&cph, &ds.test, &f_cph, &eval_cfg);

    assert!(
        cph_res.mrr > cp_res.mrr + 0.15,
        "CPh ({:.3}) should dominate CP ({:.3}) — the Table 2 gap",
        cph_res.mrr,
        cp_res.mrr
    );
}

#[test]
fn cp_fits_train_but_not_test() {
    // §6.1.1's diagnosis: CP's problem is generalization, not capacity.
    let ds = inverse_pair_dataset(60);
    let eval_cfg = EvalConfig::default();
    let (cp, filter) = train_preset(WeightPreset::Cp, &ds, 16, 400);
    let train_res = evaluate_filtered(&cp, &ds.train, &filter, &eval_cfg);
    let test_res = evaluate_filtered(&cp, &ds.test, &filter, &eval_cfg);
    assert!(
        train_res.mrr > 0.6,
        "CP must be able to FIT the training data (capacity): {:.3}",
        train_res.mrr
    );
    assert!(
        train_res.mrr > test_res.mrr + 0.3,
        "CP must show a large train-test gap (overfitting): train {:.3} vs test {:.3}",
        train_res.mrr,
        test_res.mrr
    );
}

#[test]
fn quaternion_model_learns_the_structure() {
    let ds = inverse_pair_dataset(60);
    let eval_cfg = EvalConfig::default();
    let (q, filter) = train_preset(WeightPreset::Quaternion, &ds, 8, 400);
    let res = evaluate_filtered(&q, &ds.test, &filter, &eval_cfg);
    assert!(res.mrr > 0.5, "quaternion model should solve the cycle: {:.3}", res.mrr);
}

#[test]
fn no_model_beats_chance_on_structureless_data() {
    // Null benchmark: random triples ⇒ nothing transfers from train to
    // test. Anything above loose chance bounds indicates harness leakage.
    let ds = mei::datagen::random::random_graph(150, 3, 1500, 0.1, 0.1, 9);
    let eval_cfg = EvalConfig::default();
    let (m, filter) = train_preset(WeightPreset::ComplEx, &ds, 16, 100);
    let res = evaluate_filtered(&m, &ds.test, &filter, &eval_cfg);
    // Chance-level MRR for 150 candidates is ≈ (1/150)·H₁₅₀ ≈ 0.04.
    assert!(
        res.mrr < 0.15,
        "suspiciously high MRR {:.3} on random data — evaluation leakage?",
        res.mrr
    );
}

#[test]
fn symmetric_relation_is_easy_for_all_trilinear_models() {
    // A pure similarity graph: pairs (2i, 2i+1) mutually similar.
    let n = 80u32;
    let entities = Dictionary::from_names((0..n).map(|i| format!("e{i}")));
    let relations = Dictionary::from_names(["similar"]);
    let mut train = Vec::new();
    let mut test = Vec::new();
    for i in (0..n).step_by(2) {
        train.push(Triple::new(i, i + 1, 0));
        if i % 8 == 0 {
            test.push(Triple::new(i + 1, i, 0));
        } else {
            train.push(Triple::new(i + 1, i, 0));
        }
    }
    let valid = vec![train.pop().unwrap()];
    let ds = Dataset { entities, relations, train, valid, test };
    let eval_cfg = EvalConfig::default();

    for preset in [WeightPreset::DistMult, WeightPreset::ComplEx] {
        let (m, filter) = train_preset(preset, &ds, 16, 300);
        let res = evaluate_filtered(&m, &ds.test, &filter, &eval_cfg);
        assert!(
            res.mrr > 0.5,
            "{} should solve symmetric similarity, got {:.3}",
            preset.name(),
            res.mrr
        );
    }
}
