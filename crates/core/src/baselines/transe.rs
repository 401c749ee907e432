//! TransE (Bordes et al., 2013) — the archetypal translation-based model.
//!
//! `S(h, t, r) = −‖h + r − t‖_p` (Eq. 1 of the paper). Trained with the
//! margin ranking loss of the original paper:
//! `max(0, γ + ‖h + r − t‖ − ‖h' + r − t'‖)` over corrupted pairs, with
//! entity embeddings renormalized to the unit sphere each step.
//!
//! §2.2.1 notes these models are "simple and efficient" but with weak
//! modeling capacity (the translation assumption); the benches show exactly
//! that on SynthWN's symmetric relations, where `h + r ≈ t` and
//! `t + r ≈ h` force `r ≈ 0`.

use mei_eval::{BlockQuery, Side, TripleScorer};
use mei_kg::negative::CorruptionSide;
use mei_kg::{Dataset, EntityId, NegativeSampler, RelationId, Triple};
use mei_math::init::Init;
use mei_math::vecops::{l2_norm, lp_distance, normalize_l2};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use crate::embedding::EmbeddingTable;

/// TransE hyperparameters.
#[derive(Debug, Clone)]
pub struct TransEConfig {
    /// Embedding dimensionality.
    pub dim: usize,
    /// Margin γ of the ranking loss.
    pub margin: f32,
    /// Lp norm: 1 or 2.
    pub norm: u8,
    /// SGD learning rate.
    pub learning_rate: f32,
    /// Training epochs.
    pub epochs: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for TransEConfig {
    fn default() -> Self {
        Self { dim: 50, margin: 1.0, norm: 2, learning_rate: 0.01, epochs: 100, seed: 0 }
    }
}

/// The TransE model: one embedding vector per entity and per relation.
#[derive(Debug, Clone)]
pub struct TransE {
    /// Entity embeddings (`n = 1`).
    pub entities: EmbeddingTable,
    /// Relation embeddings (`n = 1`).
    pub relations: EmbeddingTable,
    cfg: TransEConfig,
}

impl TransE {
    /// Initializes a TransE model.
    pub fn new<R: Rng + ?Sized>(
        num_entities: usize,
        num_relations: usize,
        cfg: TransEConfig,
        rng: &mut R,
    ) -> Self {
        let init = Init::EmbeddingUniform { dim: cfg.dim };
        let mut entities = EmbeddingTable::init(num_entities, 1, cfg.dim, init, rng);
        let relations = EmbeddingTable::init(num_relations, 1, cfg.dim, init, rng);
        for e in 0..num_entities {
            entities.normalize_item(e);
        }
        Self { entities, relations, cfg }
    }

    /// The (negated-distance) score.
    pub fn score_triple(&self, t: Triple) -> f32 {
        let h = self.entities.vec(t.head.idx(), 0);
        let ta = self.entities.vec(t.tail.idx(), 0);
        let r = self.relations.vec(t.relation.idx(), 0);
        let mut translated = vec![0.0f32; self.cfg.dim];
        for d in 0..self.cfg.dim {
            translated[d] = h[d] + r[d];
        }
        -lp_distance(&translated, ta, self.cfg.norm)
    }

    /// Trains with margin ranking loss and per-step entity normalization.
    /// Returns the mean loss of the final epoch.
    pub fn train(&mut self, dataset: &Dataset) -> f32 {
        let mut rng = StdRng::seed_from_u64(self.cfg.seed);
        let sampler = NegativeSampler::new(self.entities.num_items(), CorruptionSide::Both);
        let dim = self.cfg.dim;
        let lr = self.cfg.learning_rate;
        let mut order: Vec<usize> = (0..dataset.train.len()).collect();
        let mut last_epoch_loss = 0.0f32;

        for _ in 0..self.cfg.epochs {
            order.shuffle(&mut rng);
            let mut epoch_loss = 0.0f64;
            for &idx in &order {
                let pos = dataset.train[idx];
                let neg = sampler.corrupt(&mut rng, pos);
                let dp = -self.score_triple(pos);
                let dn = -self.score_triple(neg);
                let loss = (self.cfg.margin + dp - dn).max(0.0);
                epoch_loss += f64::from(loss);
                if loss <= 0.0 {
                    continue;
                }
                // Gradient of the L2 distance: ∂‖v‖/∂v = v/‖v‖; for L1 the
                // sign. v = h + r − t.
                let grad_residual = |h: &[f32], t: &[f32], r: &[f32]| -> Vec<f32> {
                    let mut v = vec![0.0f32; dim];
                    for d in 0..dim {
                        v[d] = h[d] + r[d] - t[d];
                    }
                    match self.cfg.norm {
                        1 => v.iter().map(|x| x.signum()).collect(),
                        _ => {
                            let n = l2_norm(&v).max(1e-9);
                            v.iter().map(|x| x / n).collect()
                        }
                    }
                };
                let gp = grad_residual(
                    self.entities.vec(pos.head.idx(), 0),
                    self.entities.vec(pos.tail.idx(), 0),
                    self.relations.vec(pos.relation.idx(), 0),
                );
                let gn = grad_residual(
                    self.entities.vec(neg.head.idx(), 0),
                    self.entities.vec(neg.tail.idx(), 0),
                    self.relations.vec(neg.relation.idx(), 0),
                );
                // Positive distance is minimized, negative maximized.
                let apply = |vecs: &mut EmbeddingTable, item: usize, g: &[f32], sign: f32| {
                    let row = vecs.vec_mut(item, 0);
                    for d in 0..dim {
                        row[d] -= lr * sign * g[d];
                    }
                };
                apply(&mut self.entities, pos.head.idx(), &gp, 1.0);
                apply(&mut self.entities, pos.tail.idx(), &gp, -1.0);
                apply(&mut self.relations, pos.relation.idx(), &gp, 1.0);
                apply(&mut self.entities, neg.head.idx(), &gn, -1.0);
                apply(&mut self.entities, neg.tail.idx(), &gn, 1.0);
                apply(&mut self.relations, neg.relation.idx(), &gn, -1.0);

                for e in [pos.head, pos.tail, neg.head, neg.tail] {
                    normalize_l2(self.entities.vec_mut(e.idx(), 0));
                }
            }
            last_epoch_loss =
                (epoch_loss / dataset.train.len().max(1) as f64) as f32;
        }
        last_epoch_loss
    }
}

impl TripleScorer for TransE {
    fn num_entities(&self) -> usize {
        self.entities.num_items()
    }

    fn score(&self, head: EntityId, tail: EntityId, relation: RelationId) -> f32 {
        self.score_triple(Triple { head, tail, relation })
    }

    /// Translates each query's anchor once — `h + r` for tails, `t − r`
    /// for heads, since ‖h′ + r − t‖ = ‖h′ − (t − r)‖ — then measures its
    /// distance to every candidate.
    fn score_block(&self, queries: &[BlockQuery], out: &mut [f32]) {
        let ne = self.num_entities();
        let mut target = vec![0.0f32; self.cfg.dim];
        for (q, row) in queries.iter().zip(out.chunks_mut(ne)) {
            let a = self.entities.vec(q.anchor.idx(), 0);
            let r = self.relations.vec(q.relation.idx(), 0);
            for (x, (a, r)) in target.iter_mut().zip(a.iter().zip(r)) {
                *x = match q.side {
                    Side::Tail => a + r,
                    Side::Head => a - r,
                };
            }
            for (e, slot) in row.iter_mut().enumerate() {
                let candidate = self.entities.vec(e, 0);
                *slot = -match q.side {
                    Side::Tail => lp_distance(&target, candidate, self.cfg.norm),
                    Side::Head => lp_distance(candidate, &target, self.cfg.norm),
                };
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mei_kg::Dictionary;

    fn chain_dataset() -> Dataset {
        // e_i --next--> e_{i+1} on a line of 10 entities.
        let entities = Dictionary::from_names((0..10).map(|i| format!("e{i}")));
        let relations = Dictionary::from_names(["next"]);
        let train: Vec<Triple> = (0..9).map(|i| Triple::new(i, i + 1, 0)).collect();
        Dataset { entities, relations, train, valid: vec![], test: vec![] }
    }

    #[test]
    fn score_is_negative_distance() {
        let mut rng = StdRng::seed_from_u64(1);
        let m = TransE::new(4, 2, TransEConfig::default(), &mut rng);
        let s = m.score_triple(Triple::new(0, 1, 0));
        assert!(s <= 0.0);
    }

    #[test]
    fn perfect_translation_scores_zero() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut m =
            TransE::new(2, 1, TransEConfig { dim: 3, ..TransEConfig::default() }, &mut rng);
        m.entities.vec_mut(0, 0).copy_from_slice(&[0.1, 0.2, 0.3]);
        m.relations.vec_mut(0, 0).copy_from_slice(&[0.5, 0.0, -0.1]);
        m.entities.vec_mut(1, 0).copy_from_slice(&[0.6, 0.2, 0.2]);
        assert!(m.score_triple(Triple::new(0, 1, 0)).abs() < 1e-6);
    }

    #[test]
    fn training_improves_positive_over_negative_margin() {
        let ds = chain_dataset();
        let mut rng = StdRng::seed_from_u64(3);
        let cfg = TransEConfig { dim: 16, epochs: 200, learning_rate: 0.02, ..TransEConfig::default() };
        let mut m = TransE::new(ds.num_entities(), ds.num_relations(), cfg, &mut rng);
        m.train(&ds);
        let mut pos = 0.0;
        let mut neg = 0.0;
        for t in &ds.train {
            pos += m.score_triple(*t);
            neg += m.score_triple(Triple::new(t.head.0, (t.tail.0 + 4) % 10, 0));
        }
        assert!(pos > neg, "TransE failed to separate: {pos} vs {neg}");
    }

    #[test]
    fn batched_scoring_matches_pointwise() {
        let mut rng = StdRng::seed_from_u64(5);
        let m = TransE::new(6, 2, TransEConfig { dim: 8, ..TransEConfig::default() }, &mut rng);
        let queries = [
            BlockQuery::tails(EntityId(1), RelationId(0)),
            BlockQuery::heads(EntityId(2), RelationId(1)),
        ];
        let mut out = vec![0.0f32; 2 * 6];
        m.score_block(&queries, &mut out);
        let (tails, heads) = out.split_at(6);
        for e in 0..6u32 {
            assert!((tails[e as usize] - m.score(EntityId(1), EntityId(e), RelationId(0))).abs() < 1e-5);
            assert!((heads[e as usize] - m.score(EntityId(e), EntityId(2), RelationId(1))).abs() < 1e-5);
        }
    }

    #[test]
    fn l1_variant_works() {
        let mut rng = StdRng::seed_from_u64(7);
        let cfg = TransEConfig { norm: 1, dim: 8, epochs: 30, ..TransEConfig::default() };
        let ds = chain_dataset();
        let mut m = TransE::new(ds.num_entities(), ds.num_relations(), cfg, &mut rng);
        let loss = m.train(&ds);
        assert!(loss.is_finite());
    }

    #[test]
    fn symmetric_relation_forces_relation_toward_zero() {
        // Train on a symmetric relation: a↔b for many pairs. The optimal
        // translation is r ≈ 0 — the §2.2.1 weakness made visible.
        let entities = Dictionary::from_names((0..20).map(|i| format!("e{i}")));
        let relations = Dictionary::from_names(["sym"]);
        let mut train = Vec::new();
        for i in (0..20).step_by(2) {
            train.push(Triple::new(i, i + 1, 0));
            train.push(Triple::new(i + 1, i, 0));
        }
        let ds = Dataset { entities, relations, train, valid: vec![], test: vec![] };
        let mut rng = StdRng::seed_from_u64(11);
        let cfg = TransEConfig { dim: 8, epochs: 300, learning_rate: 0.05, ..TransEConfig::default() };
        let mut m = TransE::new(ds.num_entities(), ds.num_relations(), cfg, &mut rng);
        m.train(&ds);
        let r_norm = l2_norm(m.relations.vec(0, 0));
        // Entity vectors live on the unit sphere; the relation collapses
        // well below that scale.
        assert!(r_norm < 0.5, "symmetric relation norm should collapse, got {r_norm}");
    }
}
