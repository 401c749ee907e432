//! Microbenchmarks of the per-triple score kernels of the trilinear-product
//! family: all O(n·D) per triple with small constants (§2.2's "simple,
//! efficient").

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use mei_core::{MultiEmbedModel, WeightPreset};
use mei_kg::Triple;
use rand::rngs::StdRng;
use rand::SeedableRng;

const NUM_ENTITIES: usize = 1000;
const NUM_RELATIONS: usize = 18;
const BUDGET: usize = 128;

fn bench_scoring(c: &mut Criterion) {
    let mut group = c.benchmark_group("score_triple");
    let triples: Vec<Triple> =
        (0..64).map(|i| Triple::new(i % 1000, (i * 7 + 3) % 1000, i % 18)).collect();

    for preset in [
        WeightPreset::DistMult,
        WeightPreset::ComplEx,
        WeightPreset::Cp,
        WeightPreset::Quaternion,
    ] {
        let mut rng = StdRng::seed_from_u64(1);
        let dim = BUDGET / preset.n();
        let model =
            MultiEmbedModel::from_preset(preset, NUM_ENTITIES, NUM_RELATIONS, dim, &mut rng);
        group.bench_function(preset.name(), |b| {
            b.iter(|| {
                let mut acc = 0.0f32;
                for t in &triples {
                    acc += model.score_triple(black_box(*t));
                }
                acc
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_scoring);
criterion_main!(benches);
