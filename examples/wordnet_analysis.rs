//! Embedding-space data analysis — §3.2's payoff: once ComplEx is
//! understood as two real embedding vectors per item, the vectors can be
//! "concatenated to form a longer vector for use in visualization and data
//! analysis", fed to any algorithm that expects plain real features.
//!
//! This example trains the quaternion four-embedding model (§3.4) on a
//! WordNet-like graph, then:
//!   * finds nearest neighbors in concatenated-embedding space,
//!   * checks that hierarchy siblings are closer than random pairs,
//!   * profiles the dataset's relations (symmetry, cardinality, inverse
//!     pairs) with `mei_kg::analysis`.
//!
//! Run with: `cargo run --release --example wordnet_analysis`

use mei::kg::analysis::{detect_inverse_pairs, profile_relations};
use mei::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let dataset = SynthWnConfig::at_scale(SynthWnScale::Tiny, 5).generate();
    println!("dataset: {}", dataset.stats());

    // Relation structure analysis (what drives Table 2's outcomes).
    let all: Vec<Triple> =
        dataset.train.iter().chain(&dataset.valid).chain(&dataset.test).copied().collect();
    println!("\nrelation profiles:");
    for p in profile_relations(&all) {
        println!(
            "  {:<18} {:>5} triples | symmetry {:.2} | tails/head {:.1} | heads/tail {:.1}",
            dataset.relations.name(p.relation.0).unwrap_or("?"),
            p.count,
            p.symmetry,
            p.tails_per_head,
            p.heads_per_tail
        );
    }
    println!("\ndetected inverse pairs (overlap ≥ 0.9):");
    for (a, b, overlap) in detect_inverse_pairs(&all, dataset.num_relations(), 0.9) {
        println!(
            "  {} <-> {} ({overlap:.2})",
            dataset.relations.name(a.0).unwrap_or("?"),
            dataset.relations.name(b.0).unwrap_or("?")
        );
    }

    // Train the quaternion-based four-embedding model (Eq. 13–14).
    let mut rng = StdRng::seed_from_u64(9);
    let mut model = MultiEmbedModel::from_preset(
        WeightPreset::Quaternion,
        dataset.num_entities(),
        dataset.num_relations(),
        16, // n = 4 embeddings of D = 16 each
        &mut rng,
    );
    let filter = dataset.filter_store();
    let config = TrainConfig {
        max_epochs: 150,
        batch_size: 512,
        learning_rate: 5e-3,
        eval_every: 25,
        patience: 50,
        ..TrainConfig::default()
    };
    let report = Trainer::new(config).train(&mut model, &dataset, &filter);
    println!(
        "\nquaternion model: trained {} epochs, best valid MRR {:.3}",
        report.epochs_run, report.best_valid_mrr
    );

    // Nearest neighbors in concatenated embedding space (cosine).
    println!("\nnearest neighbors by concatenated embedding (4 × 16 = 64-dim):");
    for probe in [0u32, 10, 20] {
        let mut sims: Vec<(u32, f32)> = (0..dataset.num_entities() as u32)
            .filter(|e| *e != probe)
            .map(|e| (e, model.entity_cosine(EntityId(probe), EntityId(e))))
            .collect();
        sims.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
        let top: Vec<String> = sims
            .iter()
            .take(3)
            .map(|(e, s)| format!("{} ({s:.2})", dataset.entities.name(*e).unwrap_or("?")))
            .collect();
        println!(
            "  {} -> {}",
            dataset.entities.name(probe).unwrap_or("?"),
            top.join(", ")
        );
    }

    // Quantitative check: entities sharing a hyponym-parent ("siblings")
    // should be closer in embedding space than random pairs.
    let train_store = dataset.train_store();
    let mut sibling_sim = 0.0f64;
    let mut sibling_n = 0usize;
    let hypo = RelationId(0); // _hyponym_0
    for parent in 0..dataset.num_entities() as u32 {
        let children = train_store.heads_of(EntityId(parent), hypo);
        for pair in children.windows(2).take(3) {
            sibling_sim += f64::from(model.entity_cosine(pair[0], pair[1]));
            sibling_n += 1;
        }
    }
    let mut random_sim = 0.0f64;
    let mut random_n = 0usize;
    for i in (0..dataset.num_entities() as u32).step_by(7) {
        let j = (i * 31 + 13) % dataset.num_entities() as u32;
        if i != j {
            random_sim += f64::from(model.entity_cosine(EntityId(i), EntityId(j)));
            random_n += 1;
        }
    }
    if sibling_n > 0 && random_n > 0 {
        println!(
            "\nmean cosine: siblings {:.3} ({} pairs) vs random {:.3} ({} pairs)",
            sibling_sim / sibling_n as f64,
            sibling_n,
            random_sim / random_n as f64,
            random_n
        );
    }
}
