//! The per-example reference the sampled gradient path is pinned
//! against, bit for bit.
//!
//! The reference scores each example through its own anchor context
//! (`tail_context`/`head_context` + [`mei_math::kernels::dot_fast`]),
//! adds every gradient into zero-initialized rows of a per-chunk
//! `HashMap` with plain scalar loops, and merges chunks in order — the
//! first chunk to touch a row moves it in, later chunks add. Chunks are
//! the same shape-derived `SCHEDULE_CHUNKS`-way split the production path
//! uses. No context sharing, no slot interning, no write-form kernels, no
//! threads: if [`GradWorkspace::compute`] matches this, its fast paths
//! change nothing but speed.

use std::collections::HashMap;

use mei_kg::Triple;
use mei_math::kernels::{dot_fast, hadamard_axpy_fast, trilinear_fast};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use super::{candidate_of, chunk_len, side_of, GradWorkspace, RowKey};
use crate::loss::{logistic_loss, logistic_loss_grad, Label};
use crate::model::{ModelConfig, MultiEmbedModel};
use crate::trainer::LossKind;
use crate::weights::{WeightPreset, WeightRestriction};
use mei_eval::Side;

/// Row gradients, the dense effective-ω gradient and the total loss.
type Reference = (HashMap<RowKey, Vec<f32>>, Vec<f32>, f64);

/// The reference gradients of a labeled batch grouped with stride
/// `group_len` (see [`GradWorkspace::compute`]).
fn reference_grads(
    model: &MultiEmbedModel,
    examples: &[(Triple, Label)],
    l2_coef: f32,
    loss_kind: LossKind,
    group_len: usize,
) -> Reference {
    let n3 = model.omega().dense().len();
    let kdim = model.config().n * model.config().dim;
    let mut rows: HashMap<RowKey, Vec<f32>> = HashMap::new();
    let mut omega = vec![0.0f32; n3];
    let mut loss = 0.0f64;
    for chunk in examples.chunks(chunk_len(examples.len(), group_len)) {
        let mut c_rows = HashMap::new();
        let mut c_omega = vec![0.0f32; n3];
        let mut c_loss = 0.0f64;
        let mut ctx_a = vec![0.0f32; kdim];
        let mut ctx_b = vec![0.0f32; kdim];
        let mut acc = |ex, side, ctx: &[f32], coef| {
            accumulate(model, ex, side, ctx, coef, l2_coef, &mut c_rows, &mut c_omega)
        };
        for group in chunk.chunks(group_len) {
            let pos = group[0].0;
            match loss_kind {
                LossKind::Logistic => {
                    for &(ex, label) in group {
                        let side = side_of(pos, ex);
                        let score = score(model, ex, side, &mut ctx_a);
                        c_loss += f64::from(logistic_loss(score, label));
                        acc(ex, side, &ctx_a, logistic_loss_grad(score, label));
                    }
                }
                LossKind::MarginRanking { margin } => {
                    let pos_score = score(model, pos, Side::Tail, &mut ctx_a);
                    for &(neg, _) in &group[1..] {
                        let side = side_of(pos, neg);
                        let neg_score = score(model, neg, side, &mut ctx_b);
                        let pair_loss = (margin - pos_score + neg_score).max(0.0);
                        c_loss += f64::from(pair_loss);
                        if pair_loss > 0.0 {
                            acc(pos, Side::Tail, &ctx_a, -1.0);
                            acc(neg, side, &ctx_b, 1.0);
                        }
                    }
                }
                LossKind::SoftmaxCrossEntropy { .. } => unreachable!("k-vs-all has no sampled oracle"),
            }
        }
        loss += c_loss;
        for (o, g) in omega.iter_mut().zip(&c_omega) {
            *o += g;
        }
        for (key, v) in c_rows {
            match rows.get_mut(&key) {
                Some(row) => row.iter_mut().zip(&v).for_each(|(a, b)| *a += b),
                None => {
                    rows.insert(key, v);
                }
            }
        }
    }
    (rows, omega, loss)
}

/// Builds `ex`'s `side` context into `ctx` and scores the candidate.
fn score(model: &MultiEmbedModel, ex: Triple, side: Side, ctx: &mut [f32]) -> f32 {
    match side {
        Side::Tail => model.tail_context(ex.head, ex.relation, ctx),
        Side::Head => model.head_context(ex.tail, ex.relation, ctx),
    }
    dot_fast(ctx, model.entities.row(candidate_of(ex, side)))
}

/// Adds `coef · ∂S/∂θ` plus per-row L2 for one example: candidate row,
/// anchor row, relation row, then ω, each row zero-initialized on first
/// touch.
#[allow(clippy::too_many_arguments)]
fn accumulate(
    model: &MultiEmbedModel,
    ex: Triple,
    side: Side,
    ctx: &[f32],
    coef: f32,
    l2_coef: f32,
    rows: &mut HashMap<RowKey, Vec<f32>>,
    omega: &mut [f32],
) {
    let d = model.config().dim;
    let sub = |c: usize| c * d..(c + 1) * d;
    let h = model.entities.row(ex.head.idx());
    let t = model.entities.row(ex.tail.idx());
    let r = model.relations.row(ex.relation.idx());
    let (cand, anchor) = match side {
        Side::Tail => (ex.tail.idx(), ex.head.idx()),
        Side::Head => (ex.head.idx(), ex.tail.idx()),
    };
    let params = model.entities.row(cand);
    let entry = zeroed_row(rows, RowKey::Entity(cand), params.len());
    for i in 0..entry.len() {
        entry[i] += coef * ctx[i] + l2_coef * params[i];
    }

    let params = model.entities.row(anchor);
    let entry = zeroed_row(rows, RowKey::Entity(anchor), params.len());
    for &(i, j, k, w) in model.terms() {
        if w != 0.0 {
            let (s, x) = match side {
                Side::Tail => (i, &t[sub(j)]),
                Side::Head => (j, &h[sub(i)]),
            };
            hadamard_axpy_fast(coef * w, x, &r[sub(k)], &mut entry[sub(s)]);
        }
    }
    for i in 0..entry.len() {
        entry[i] += l2_coef * params[i];
    }

    let entry = zeroed_row(rows, RowKey::Relation(ex.relation.idx()), r.len());
    for &(i, j, k, w) in model.terms() {
        if w != 0.0 {
            hadamard_axpy_fast(coef * w, &h[sub(i)], &t[sub(j)], &mut entry[sub(k)]);
        }
    }
    for i in 0..entry.len() {
        entry[i] += l2_coef * r[i];
    }

    if model.trainable_omega() {
        let n = model.config().n;
        let nr = model.omega().n_rel();
        for &(i, j, k, _) in model.terms() {
            omega[(i * n + j) * nr + k] += coef * trilinear_fast(&h[sub(i)], &t[sub(j)], &r[sub(k)]);
        }
    }
}

/// The accumulator row for `key`, zero-filled on first touch.
fn zeroed_row(rows: &mut HashMap<RowKey, Vec<f32>>, key: RowKey, len: usize) -> &mut [f32] {
    rows.entry(key).or_insert_with(|| vec![0.0; len])
}

/// Runs the workspace and the reference on `batch` and asserts
/// byte-identical loss, row gradients, touched-row sets (through both row
/// iterators) and ω gradient.
fn assert_matches_reference(
    model: &MultiEmbedModel,
    batch: &[(Triple, Label)],
    l2_coef: f32,
    loss_kind: LossKind,
    group_len: usize,
) {
    let (rows, omega, loss) = reference_grads(model, batch, l2_coef, loss_kind, group_len);
    let mut ws = GradWorkspace::new();
    let got_loss = ws.compute(model, batch, l2_coef, loss_kind, group_len, None);
    assert_eq!(loss.to_bits(), got_loss.to_bits(), "loss diverged under {loss_kind:?}");
    let mut seen = 0usize;
    ws.for_each_row(|key, grad| {
        seen += 1;
        let want = rows.get(&key).unwrap_or_else(|| panic!("{key:?} touched, reference did not"));
        assert_eq!(
            want.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            grad.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            "row {key:?} diverged under {loss_kind:?}"
        );
    });
    assert_eq!(rows.len(), seen, "touched-row sets diverged under {loss_kind:?}");
    // The sorted iterator visits the same rows, each once, ascending.
    let mut want_keys: Vec<RowKey> = rows.keys().copied().collect();
    want_keys.sort_unstable();
    let mut sorted_keys = Vec::with_capacity(seen);
    ws.for_each_row_sorted(|key, grad| {
        let want = rows[&key].iter().map(|v| v.to_bits());
        assert!(want.eq(grad.iter().map(|v| v.to_bits())), "sorted row {key:?} diverged");
        sorted_keys.push(key);
    });
    assert_eq!(want_keys, sorted_keys, "sorted iteration diverged under {loss_kind:?}");
    assert_eq!(
        omega.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        ws.omega_grads().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        "omega diverged under {loss_kind:?}"
    );
}

/// Snaps every embedding parameter to the k/16 grid: small dims keep all
/// products exact in f32, so any divergence a test catches is a real
/// ordering difference, not noise — though the contract must hold for
/// arbitrary floats too.
fn quantize(model: &mut MultiEmbedModel) {
    for v in model.entities.as_mut_slice().iter_mut().chain(model.relations.as_mut_slice()) {
        *v = (*v * 16.0).round() / 16.0;
    }
}

/// SplitMix64 draws in `0..m` — cheap, deterministic, dependency-free.
fn splitmix(seed: u64) -> impl FnMut(u32) -> u32 {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
    move |m| {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        ((z ^ (z >> 31)) % u64::from(m)) as u32
    }
}

/// A batch shaped exactly like the trainer's: each positive followed by
/// `negatives` corruptions of its head or tail.
fn trainer_shaped_batch(
    seed: u64,
    num_entities: u32,
    num_relations: u32,
    positives: usize,
    negatives: usize,
) -> Vec<(Triple, Label)> {
    let mut next = splitmix(seed);
    let mut batch = Vec::with_capacity(positives * (1 + negatives));
    for _ in 0..positives {
        let pos = Triple::new(next(num_entities), next(num_entities), next(num_relations));
        batch.push((pos, Label::Positive));
        for _ in 0..negatives {
            let mut neg = pos;
            if next(2) == 0 {
                neg.head = mei_kg::EntityId(next(num_entities));
            } else {
                neg.tail = mei_kg::EntityId(next(num_entities));
            }
            batch.push((neg, Label::Negative));
        }
    }
    batch
}

const LOSSES: [LossKind; 2] = [LossKind::Logistic, LossKind::MarginRanking { margin: 1.0 }];

/// Tail and head corruptions plus a self-loop, whose candidate and anchor
/// share one accumulator row.
#[test]
fn toy_batch_matches_reference() {
    let mut rng = StdRng::seed_from_u64(7);
    let model = MultiEmbedModel::from_preset(WeightPreset::ComplEx, 9, 3, 4, &mut rng);
    let batch = vec![
        (Triple::new(0, 1, 0), Label::Positive),
        (Triple::new(0, 5, 0), Label::Negative),
        (Triple::new(2, 3, 1), Label::Positive),
        (Triple::new(7, 3, 1), Label::Negative),
        (Triple::new(4, 4, 2), Label::Positive),
        (Triple::new(4, 8, 2), Label::Negative),
    ];
    for loss in LOSSES {
        assert_matches_reference(&model, &batch, 0.01, loss, 2);
    }
}

/// The sorted iterator reports each row of a multi-chunk trainer-shaped
/// batch once, in ascending [`RowKey`] order, and visits the same set as
/// the unsorted one.
#[test]
fn sorted_iteration_matches_unsorted_set() {
    let mut rng = StdRng::seed_from_u64(5);
    let model = MultiEmbedModel::from_preset(WeightPreset::ComplEx, 15, 3, 6, &mut rng);
    let batch = trainer_shaped_batch(5, 15, 3, 9, 1);
    let mut ws = GradWorkspace::new();
    ws.compute(&model, &batch, 1e-3, LossKind::Logistic, 2, None);
    let mut unsorted: Vec<RowKey> = Vec::new();
    ws.for_each_row(|k, _| unsorted.push(k));
    let mut sorted_keys: Vec<RowKey> = Vec::new();
    ws.for_each_row_sorted(|k, _| sorted_keys.push(k));
    assert!(sorted_keys.windows(2).all(|w| w[0] < w[1]));
    unsorted.sort();
    assert_eq!(unsorted, sorted_keys);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Trainer-shaped batches on quantized fixed-ω presets.
    #[test]
    fn trainer_shaped_batches_match_reference(
        seed in 0u64..10_000,
        preset_idx in 0usize..3,
        negatives in 1usize..3,
    ) {
        let preset =
            [WeightPreset::DistMult, WeightPreset::ComplEx, WeightPreset::Cp][preset_idx];
        let mut rng = StdRng::seed_from_u64(seed);
        let mut model = MultiEmbedModel::from_preset(preset, 30, 4, 4, &mut rng);
        quantize(&mut model);
        let batch = trainer_shaped_batch(seed, 30, 4, 17, negatives);
        for loss in LOSSES {
            assert_matches_reference(&model, &batch, 1e-3, loss, 1 + negatives);
        }
    }

    /// Arbitrary random triples (no corrupt-one-side structure, self-loops
    /// and duplicate rows included): the context directory may not assume
    /// the trainer's batch shape.
    #[test]
    fn arbitrary_random_groups_match_reference(
        seed in 0u64..10_000,
        group_len in 1usize..5,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut model = MultiEmbedModel::from_preset(WeightPreset::ComplEx, 12, 3, 4, &mut rng);
        quantize(&mut model);
        let mut next = splitmix(seed ^ 0x5eed);
        let batch: Vec<(Triple, Label)> = (0..23)
            .map(|i| {
                let t = Triple::new(next(12), next(12), next(3));
                let label = if i % group_len == 0 { Label::Positive } else { Label::Negative };
                (t, label)
            })
            .collect();
        for loss in LOSSES {
            assert_matches_reference(&model, &batch, 5e-4, loss, group_len);
        }
    }

    /// Learned ω: the ω gradient (every grid cell, not just the nonzero
    /// terms) matches too.
    #[test]
    fn trainable_omega_matches_reference(
        seed in 0u64..10_000,
        restriction_idx in 0usize..3,
    ) {
        let restriction = [
            WeightRestriction::None,
            WeightRestriction::Tanh,
            WeightRestriction::Softmax,
        ][restriction_idx];
        let mut rng = StdRng::seed_from_u64(seed);
        let cfg = ModelConfig { num_entities: 20, num_relations: 3, n: 2, dim: 4 };
        let mut model = MultiEmbedModel::with_learned_weights(cfg, restriction, 0.5, &mut rng);
        quantize(&mut model);
        model.refresh_omega();
        let batch = trainer_shaped_batch(seed, 20, 3, 11, 1);
        for loss in LOSSES {
            assert_matches_reference(&model, &batch, 1e-3, loss, 2);
        }
    }
}
