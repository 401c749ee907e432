//! The full evaluation toolbox on one trained model: filtered vs raw
//! ranking, per-category breakdown (1-1 / 1-N / N-1 / N-N), and NTN-style
//! triple classification with tuned thresholds.
//!
//! Run with: `cargo run --release --example evaluation_suite`

use mei::eval::ranking::evaluate;
use mei::eval::{categorize_relations, labeled_with_negatives, mrr_by_category, TripleClassifier};
use mei::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    // Train ComplEx on a SynthFB-style benchmark (typed domains, long-tail
    // relations, reciprocal twins).
    let dataset = mei::datagen::SynthFbConfig {
        num_entities: 400,
        num_domains: 4,
        num_relations: 16,
        num_triples: 6000,
        seed: 9,
        ..mei::datagen::SynthFbConfig::default()
    }
    .generate();
    println!("dataset: {}", dataset.stats());
    println!("inverse leakage: {:.2}", dataset.test_inverse_leakage());

    let filter = dataset.filter_store();
    let mut rng = StdRng::seed_from_u64(1);
    let mut model = MultiEmbedModel::from_preset(
        WeightPreset::ComplEx,
        dataset.num_entities(),
        dataset.num_relations(),
        32,
        &mut rng,
    );
    let config = TrainConfig {
        max_epochs: 200,
        batch_size: 1024,
        learning_rate: 1e-2,
        eval_every: 50,
        patience: 100,
        ..TrainConfig::default()
    };
    Trainer::new(config).train(&mut model, &dataset, &filter);

    // 1. Ranking: raw vs filtered (§5.2's two protocols side by side).
    let (raw, filtered) = evaluate(&model, &dataset.test, &filter, &EvalConfig::default());
    println!("\nraw:      {raw}");
    println!("filtered: {filtered}");
    println!(
        "head-side MRR {:.3} vs tail-side MRR {:.3}",
        filtered.mrr_head_side, filtered.mrr_tail_side
    );

    // 2. Relation-category breakdown.
    let cats = categorize_relations(&dataset.train, dataset.num_relations(), 1.5);
    println!("\nfiltered MRR by relation category:");
    let mut rows: Vec<_> = mrr_by_category(&filtered, &cats).into_iter().collect();
    rows.sort_by_key(|(c, _)| c.label());
    for (cat, mrr) in rows {
        let count = cats.iter().filter(|c| **c == cat).count();
        println!("  {:<4} MRR {mrr:.3}  ({count} relations)", cat.label());
    }

    // 3. Triple classification: thresholds tuned on valid, accuracy on test.
    let mut rng = StdRng::seed_from_u64(2);
    let fit_set = labeled_with_negatives(&mut rng, &dataset.valid, dataset.num_entities(), &filter);
    let test_set = labeled_with_negatives(&mut rng, &dataset.test, dataset.num_entities(), &filter);
    let clf = TripleClassifier::fit(&model, &fit_set);
    println!("\ntriple classification accuracy: {:.3}", clf.accuracy(&model, &test_set));
}
