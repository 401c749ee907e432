//! TransH (Wang et al., 2014) — translation on relation-specific
//! hyperplanes.
//!
//! §2.2.1 lists TransH among the extensions of TransE done "by linear
//! transformation of the entities into a relation-specific space before
//! translation". TransH projects entities onto the hyperplane with unit
//! normal `w_r` before translating:
//!
//! `S(h, t, r) = −‖(h − (w_rᵀh)w_r) + d_r − (t − (w_rᵀt)w_r)‖₂²`
//!
//! which lets a single entity behave differently per relation and repairs
//! TransE's collapse on N-to-1 / symmetric relations (partially — the
//! tests demonstrate the improvement over TransE on a symmetric toy).

use mei_eval::{BlockQuery, Side, TripleScorer};
use mei_kg::negative::CorruptionSide;
use mei_kg::{Dataset, EntityId, NegativeSampler, RelationId, Triple};
use mei_math::init::Init;
use mei_math::vecops::{dot, normalize_l2};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use crate::embedding::EmbeddingTable;

/// TransH hyperparameters.
#[derive(Debug, Clone)]
pub struct TransHConfig {
    /// Embedding dimensionality.
    pub dim: usize,
    /// Margin γ of the ranking loss.
    pub margin: f32,
    /// SGD learning rate.
    pub learning_rate: f32,
    /// Training epochs.
    pub epochs: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for TransHConfig {
    fn default() -> Self {
        Self { dim: 50, margin: 1.0, learning_rate: 0.01, epochs: 100, seed: 0 }
    }
}

/// The TransH model: entity vectors, per-relation translation `d_r` and
/// hyperplane normal `w_r`.
#[derive(Debug, Clone)]
pub struct TransH {
    /// Entity embeddings (`n = 1`).
    pub entities: EmbeddingTable,
    /// Relation translation vectors `d_r` (`n = 1`).
    pub translations: EmbeddingTable,
    /// Relation hyperplane normals `w_r`, kept unit-norm (`n = 1`).
    pub normals: EmbeddingTable,
    cfg: TransHConfig,
}

impl TransH {
    /// Initializes a TransH model.
    pub fn new<R: Rng + ?Sized>(
        num_entities: usize,
        num_relations: usize,
        cfg: TransHConfig,
        rng: &mut R,
    ) -> Self {
        let init = Init::EmbeddingUniform { dim: cfg.dim };
        let mut entities = EmbeddingTable::init(num_entities, 1, cfg.dim, init, rng);
        let translations = EmbeddingTable::init(num_relations, 1, cfg.dim, init, rng);
        let mut normals = EmbeddingTable::init(num_relations, 1, cfg.dim, init, rng);
        for e in 0..num_entities {
            entities.normalize_item(e);
        }
        for r in 0..num_relations {
            normals.normalize_item(r);
        }
        Self { entities, translations, normals, cfg }
    }

    /// Projects `v` onto the hyperplane of relation `r`: `v − (wᵀv)·w`.
    fn project(&self, v: &[f32], r: usize, out: &mut [f32]) {
        let w = self.normals.vec(r, 0);
        let c = dot(w, v);
        for i in 0..v.len() {
            out[i] = v[i] - c * w[i];
        }
    }

    /// Negated squared distance on the relation hyperplane.
    pub fn score_triple(&self, t: Triple) -> f32 {
        let d = self.cfg.dim;
        let mut hp = vec![0.0f32; d];
        let mut tp = vec![0.0f32; d];
        self.project(self.entities.vec(t.head.idx(), 0), t.relation.idx(), &mut hp);
        self.project(self.entities.vec(t.tail.idx(), 0), t.relation.idx(), &mut tp);
        let dr = self.translations.vec(t.relation.idx(), 0);
        let mut acc = 0.0f64;
        for i in 0..d {
            let v = hp[i] + dr[i] - tp[i];
            acc += f64::from(v) * f64::from(v);
        }
        -(acc as f32)
    }

    /// Trains with margin ranking loss; returns the final epoch mean loss.
    ///
    /// Gradients are taken through the projections w.r.t. entities and
    /// `d_r`; the normals are updated by their gradient too, then
    /// renormalized to unit length (the soft-constraint scheme of the
    /// original paper, simplified).
    pub fn train(&mut self, dataset: &Dataset) -> f32 {
        let mut rng = StdRng::seed_from_u64(self.cfg.seed);
        let sampler = NegativeSampler::new(self.entities.num_items(), CorruptionSide::Both);
        let d = self.cfg.dim;
        let lr = self.cfg.learning_rate;
        let mut order: Vec<usize> = (0..dataset.train.len()).collect();
        let mut last = 0.0f32;
        // Workhorse buffers.
        let mut hp = vec![0.0f32; d];
        let mut tp = vec![0.0f32; d];
        let mut resid = vec![0.0f32; d];

        for _ in 0..self.cfg.epochs {
            order.shuffle(&mut rng);
            let mut epoch_loss = 0.0f64;
            for &idx in &order {
                let pos = dataset.train[idx];
                let neg = sampler.corrupt(&mut rng, pos);
                let loss = self.cfg.margin - self.score_triple(pos) + self.score_triple(neg);
                // score = −dist²  ⇒ loss = γ + dist²(pos) − dist²(neg).
                epoch_loss += f64::from(loss.max(0.0));
                if loss <= 0.0 {
                    continue;
                }
                for (triple, sign) in [(pos, 1.0f32), (neg, -1.0f32)] {
                    let r = triple.relation.idx();
                    self.project(self.entities.vec(triple.head.idx(), 0), r, &mut hp);
                    self.project(self.entities.vec(triple.tail.idx(), 0), r, &mut tp);
                    let dr = self.translations.vec(r, 0);
                    for i in 0..d {
                        resid[i] = hp[i] + dr[i] - tp[i];
                    }
                    // ∂dist²/∂(projected h) = 2·resid; chain through the
                    // projection (I − wwᵀ) for entities.
                    let w = self.normals.vec(r, 0).to_vec();
                    let wr = dot(&w, &resid);
                    let step = 2.0 * lr * sign;
                    {
                        let hrow = self.entities.vec_mut(triple.head.idx(), 0);
                        for i in 0..d {
                            hrow[i] -= step * (resid[i] - wr * w[i]);
                        }
                    }
                    {
                        let trow = self.entities.vec_mut(triple.tail.idx(), 0);
                        for i in 0..d {
                            trow[i] += step * (resid[i] - wr * w[i]);
                        }
                    }
                    {
                        let drow = self.translations.vec_mut(r, 0);
                        for i in 0..d {
                            drow[i] -= step * resid[i];
                        }
                    }
                    // ∂dist²/∂w = −2·[(wᵀh)·resid + (residᵀ(h−t))·w-ish];
                    // use the exact derivative of resid w.r.t. w:
                    // resid = h + d_r − t − w·wᵀ(h−t), so
                    // ∂resid/∂w applied to 2·resid gives
                    // −2·[(wᵀ(h−t))·resid + (residᵀ(h−t))·w].
                    let h = self.entities.vec(triple.head.idx(), 0).to_vec();
                    let t = self.entities.vec(triple.tail.idx(), 0).to_vec();
                    let mut hmt = vec![0.0f32; d];
                    for i in 0..d {
                        hmt[i] = h[i] - t[i];
                    }
                    let w_hmt = dot(&w, &hmt);
                    let resid_hmt = dot(&resid, &hmt);
                    {
                        let wrow = self.normals.vec_mut(r, 0);
                        for i in 0..d {
                            let grad = -2.0 * (w_hmt * resid[i] + resid_hmt * w[i]);
                            wrow[i] -= lr * sign * grad;
                        }
                        normalize_l2(wrow);
                    }
                    for e in [triple.head, triple.tail] {
                        normalize_l2(self.entities.vec_mut(e.idx(), 0));
                    }
                }
            }
            last = (epoch_loss / dataset.train.len().max(1) as f64) as f32;
        }
        last
    }
}

impl TripleScorer for TransH {
    fn num_entities(&self) -> usize {
        self.entities.num_items()
    }

    fn score(&self, head: EntityId, tail: EntityId, relation: RelationId) -> f32 {
        self.score_triple(Triple { head, tail, relation })
    }

    /// Projects each query's anchor onto the relation hyperplane once and
    /// shifts it by `d_r` (`+` for tails, `−` for heads); every candidate
    /// is then projected and compared against that target.
    fn score_block(&self, queries: &[BlockQuery], out: &mut [f32]) {
        let ne = self.num_entities();
        let d = self.cfg.dim;
        let (mut target, mut projected) = (vec![0.0f32; d], vec![0.0f32; d]);
        for (q, row) in queries.iter().zip(out.chunks_mut(ne)) {
            let r = q.relation.idx();
            self.project(self.entities.vec(q.anchor.idx(), 0), r, &mut target);
            for (x, dr) in target.iter_mut().zip(self.translations.vec(r, 0)) {
                match q.side {
                    Side::Tail => *x += dr,
                    Side::Head => *x -= dr,
                }
            }
            for (e, slot) in row.iter_mut().enumerate() {
                self.project(self.entities.vec(e, 0), r, &mut projected);
                let mut acc = 0.0f64;
                for (t, p) in target.iter().zip(&projected) {
                    let v = t - p;
                    acc += f64::from(v) * f64::from(v);
                }
                *slot = -(acc as f32);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mei_kg::Dictionary;

    #[test]
    fn projection_removes_normal_component() {
        let mut rng = StdRng::seed_from_u64(1);
        let m = TransH::new(2, 1, TransHConfig { dim: 4, ..TransHConfig::default() }, &mut rng);
        let v = [1.0f32, -2.0, 0.5, 3.0];
        let mut out = [0.0f32; 4];
        m.project(&v, 0, &mut out);
        let w = m.normals.vec(0, 0);
        assert!(dot(w, &out).abs() < 1e-5, "projected vector must be ⊥ to the normal");
    }

    #[test]
    fn perfect_translation_on_hyperplane_scores_zero() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut m = TransH::new(2, 1, TransHConfig { dim: 3, ..TransHConfig::default() }, &mut rng);
        // Normal along z; h, t in the xy-plane; d_r = t − h.
        m.normals.vec_mut(0, 0).copy_from_slice(&[0.0, 0.0, 1.0]);
        m.entities.vec_mut(0, 0).copy_from_slice(&[0.1, 0.2, 0.9]);
        m.entities.vec_mut(1, 0).copy_from_slice(&[0.5, -0.3, -0.4]);
        m.translations.vec_mut(0, 0).copy_from_slice(&[0.4, -0.5, 0.0]);
        assert!(m.score_triple(Triple::new(0, 1, 0)).abs() < 1e-6);
    }

    fn symmetric_dataset() -> Dataset {
        let entities = Dictionary::from_names((0..20).map(|i| format!("e{i}")));
        let relations = Dictionary::from_names(["sym"]);
        let mut train = Vec::new();
        for i in (0..20).step_by(2) {
            train.push(Triple::new(i, i + 1, 0));
            train.push(Triple::new(i + 1, i, 0));
        }
        Dataset { entities, relations, train, valid: vec![], test: vec![] }
    }

    #[test]
    fn training_reduces_margin_loss() {
        let ds = symmetric_dataset();
        let mut rng = StdRng::seed_from_u64(3);
        let cfg = TransHConfig { dim: 8, epochs: 1, ..TransHConfig::default() };
        let mut m1 = TransH::new(ds.num_entities(), ds.num_relations(), cfg, &mut rng);
        let first = m1.train(&ds);
        let mut rng = StdRng::seed_from_u64(3);
        let cfg = TransHConfig { dim: 8, epochs: 150, ..TransHConfig::default() };
        let mut m = TransH::new(ds.num_entities(), ds.num_relations(), cfg, &mut rng);
        let last = m.train(&ds);
        assert!(last < first, "loss did not drop: {first} → {last}");
    }

    #[test]
    fn normals_stay_unit_after_training() {
        let ds = symmetric_dataset();
        let mut rng = StdRng::seed_from_u64(5);
        let cfg = TransHConfig { dim: 8, epochs: 20, ..TransHConfig::default() };
        let mut m = TransH::new(ds.num_entities(), ds.num_relations(), cfg, &mut rng);
        m.train(&ds);
        let n = mei_math::l2_norm(m.normals.vec(0, 0));
        assert!((n - 1.0).abs() < 1e-4, "normal norm {n}");
    }

    #[test]
    fn batched_scoring_matches_pointwise() {
        let mut rng = StdRng::seed_from_u64(7);
        let m = TransH::new(6, 2, TransHConfig { dim: 5, ..TransHConfig::default() }, &mut rng);
        let queries = [
            BlockQuery::tails(EntityId(1), RelationId(0)),
            BlockQuery::heads(EntityId(2), RelationId(1)),
        ];
        let mut out = vec![0.0f32; 2 * 6];
        m.score_block(&queries, &mut out);
        let (tails, heads) = out.split_at(6);
        for e in 0..6u32 {
            assert!(
                (tails[e as usize] - m.score(EntityId(1), EntityId(e), RelationId(0))).abs() < 1e-4
            );
            assert!(
                (heads[e as usize] - m.score(EntityId(e), EntityId(2), RelationId(1))).abs() < 1e-4
            );
        }
    }
}
