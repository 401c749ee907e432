//! A miniature Table 2: train every derived weight preset on one dataset
//! and compare filtered test metrics side by side.
//!
//! Run with: `cargo run --release --example model_zoo`
//! (The full-scale reproduction with the paper's protocol lives in the
//! `repro` binary of `mei-bench`.)

use mei::eval::ranking::evaluate_filtered;
use mei::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let dataset = SynthWnConfig::at_scale(SynthWnScale::Tiny, 123).generate();
    println!("dataset: {}\n", dataset.stats());
    let filter = dataset.filter_store();
    let eval_cfg = EvalConfig::default();

    let train_cfg = TrainConfig {
        max_epochs: 300,
        batch_size: 512,
        learning_rate: 5e-3,
        eval_every: 50,
        patience: 100,
        ..TrainConfig::default()
    };

    println!(
        "{:<34} {:>7} {:>7} {:>7} {:>7}",
        "model", "MRR", "H@1", "H@3", "H@10"
    );

    // Parameter parity (§5.3): fix total parameters across n.
    // n=2 → D=32; n=4 → D=16.
    for preset in [
        WeightPreset::DistMult,
        WeightPreset::ComplEx,
        WeightPreset::Cp,
        WeightPreset::Cph,
        WeightPreset::Quaternion,
    ] {
        // Parameter parity via the effective grid (DistMult is one-
        // embedding, CP has a single relation vector — §2.2.3).
        let (n, omega) = preset.effective_interaction();
        let dim = 64 / n;
        let mut rng = StdRng::seed_from_u64(7);
        let cfg = ModelConfig {
            num_entities: dataset.num_entities(),
            num_relations: dataset.num_relations(),
            n,
            dim,
        };
        let mut model = MultiEmbedModel::with_fixed_weights(cfg, omega, &mut rng);
        Trainer::new(train_cfg.clone()).train(&mut model, &dataset, &filter);
        let results = evaluate_filtered(&model, &dataset.test, &filter, &eval_cfg);
        print_row(preset.name(), &results);
    }
}

fn print_row(name: &str, r: &LinkPredictionResults) {
    println!(
        "{:<34} {:>7.3} {:>7.3} {:>7.3} {:>7.3}",
        name,
        r.mrr,
        r.hits_at(1).unwrap_or(0.0),
        r.hits_at(3).unwrap_or(0.0),
        r.hits_at(10).unwrap_or(0.0)
    );
}
