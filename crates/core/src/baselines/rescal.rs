//! RESCAL (Nickel et al., 2011) — the bilinear ancestor of the
//! trilinear-product family.
//!
//! §2.2.2 cites RESCAL as the linear model that NTN generalizes. Its score
//! is the full bilinear form `S(h, t, r) = hᵀ · W_r · t` with one dense
//! `D × D` matrix per relation — the model DistMult simplifies by
//! restricting `W_r` to a diagonal (§2.2.3: `hᵀ·diag(r)·t`). Having RESCAL
//! here makes that lineage executable: the benches compare its `O(D²)`
//! per-triple cost against the trilinear models' `O(D)`.

use mei_eval::{BlockQuery, Side, TripleScorer};
use mei_kg::negative::CorruptionSide;
use mei_kg::{Dataset, EntityId, NegativeSampler, RelationId, Triple};
use mei_math::init::Init;
use mei_math::matrix::Matrix;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use crate::embedding::EmbeddingTable;
use crate::loss::{logistic_loss, logistic_loss_grad, Label};

/// RESCAL hyperparameters.
#[derive(Debug, Clone)]
pub struct RescalConfig {
    /// Entity embedding dimensionality (relation matrices are `dim × dim`).
    pub dim: usize,
    /// SGD learning rate.
    pub learning_rate: f32,
    /// Training epochs.
    pub epochs: usize,
    /// L2 regularization strength on all parameters.
    pub l2: f32,
    /// RNG seed.
    pub seed: u64,
}

impl Default for RescalConfig {
    fn default() -> Self {
        Self { dim: 24, learning_rate: 0.02, epochs: 100, l2: 1e-4, seed: 0 }
    }
}

/// The RESCAL model: entity vectors + one dense matrix per relation.
#[derive(Debug, Clone)]
pub struct Rescal {
    /// Entity embeddings (`n = 1`).
    pub entities: EmbeddingTable,
    relation_matrices: Vec<Matrix>,
    cfg: RescalConfig,
}

impl Rescal {
    /// Initializes a RESCAL model.
    pub fn new<R: Rng + ?Sized>(
        num_entities: usize,
        num_relations: usize,
        cfg: RescalConfig,
        rng: &mut R,
    ) -> Self {
        let d = cfg.dim;
        let init = Init::EmbeddingUniform { dim: d };
        let entities = EmbeddingTable::init(num_entities, 1, d, init, rng);
        let w_init = Init::XavierUniform { fan_in: d, fan_out: d };
        let relation_matrices =
            (0..num_relations).map(|_| Matrix::from_vec(d, d, w_init.vec(rng, d * d))).collect();
        Self { entities, relation_matrices, cfg }
    }

    /// The relation matrix `W_r`.
    pub fn relation_matrix(&self, r: RelationId) -> &Matrix {
        &self.relation_matrices[r.idx()]
    }

    /// `S(h, t, r) = hᵀ·W_r·t`.
    pub fn score_triple(&self, t: Triple) -> f32 {
        let h = self.entities.vec(t.head.idx(), 0);
        let ta = self.entities.vec(t.tail.idx(), 0);
        let w = &self.relation_matrices[t.relation.idx()];
        let mut wt = vec![0.0f32; self.cfg.dim];
        w.matvec(ta, &mut wt);
        mei_math::dot(h, &wt)
    }

    /// Trains with the logistic loss and uniform negative sampling;
    /// returns the final epoch's mean loss.
    pub fn train(&mut self, dataset: &Dataset) -> f32 {
        let mut rng = StdRng::seed_from_u64(self.cfg.seed);
        let sampler = NegativeSampler::new(self.entities.num_items(), CorruptionSide::Both);
        let d = self.cfg.dim;
        let lr = self.cfg.learning_rate;
        let l2 = self.cfg.l2;
        let mut order: Vec<usize> = (0..dataset.train.len()).collect();
        let mut wt = vec![0.0f32; d];
        let mut wth = vec![0.0f32; d];
        let mut last = 0.0f32;

        for _ in 0..self.cfg.epochs {
            order.shuffle(&mut rng);
            let mut epoch_loss = 0.0f64;
            let mut count = 0usize;
            for &idx in &order {
                let pos = dataset.train[idx];
                let neg = sampler.corrupt(&mut rng, pos);
                for (triple, label) in [(pos, Label::Positive), (neg, Label::Negative)] {
                    let score = self.score_triple(triple);
                    epoch_loss += f64::from(logistic_loss(score, label));
                    count += 1;
                    let coef = logistic_loss_grad(score, label);

                    // Gradients: ∂S/∂h = W·t, ∂S/∂t = Wᵀ·h, ∂S/∂W = h·tᵀ.
                    let w = &self.relation_matrices[triple.relation.idx()];
                    {
                        let tail = self.entities.vec(triple.tail.idx(), 0);
                        w.matvec(tail, &mut wt);
                        let head = self.entities.vec(triple.head.idx(), 0);
                        w.matvec_transposed(head, &mut wth);
                    }
                    // Copy head/tail for the W update before mutating them.
                    let head_copy = self.entities.vec(triple.head.idx(), 0).to_vec();
                    let tail_copy = self.entities.vec(triple.tail.idx(), 0).to_vec();

                    let hrow = self.entities.vec_mut(triple.head.idx(), 0);
                    for i in 0..d {
                        hrow[i] -= lr * (coef * wt[i] + l2 * hrow[i]);
                    }
                    let trow = self.entities.vec_mut(triple.tail.idx(), 0);
                    for i in 0..d {
                        trow[i] -= lr * (coef * wth[i] + l2 * trow[i]);
                    }
                    let w = &mut self.relation_matrices[triple.relation.idx()];
                    w.rank1_update(-lr * coef, &head_copy, &tail_copy);
                    for v in w.as_mut_slice() {
                        *v -= lr * l2 * *v;
                    }
                }
            }
            last = (epoch_loss / count.max(1) as f64) as f32;
        }
        last
    }
}

impl TripleScorer for Rescal {
    fn num_entities(&self) -> usize {
        self.entities.num_items()
    }

    fn score(&self, head: EntityId, tail: EntityId, relation: RelationId) -> f32 {
        self.score_triple(Triple { head, tail, relation })
    }

    /// Folds each query's anchor through `W_r` once — `hᵀ·W` for tails,
    /// `W·t` for heads, O(D²) — then scores every candidate with one O(D)
    /// dot.
    fn score_block(&self, queries: &[BlockQuery], out: &mut [f32]) {
        let ne = self.num_entities();
        let mut folded = vec![0.0f32; self.cfg.dim];
        for (q, row) in queries.iter().zip(out.chunks_mut(ne)) {
            let a = self.entities.vec(q.anchor.idx(), 0);
            let w = &self.relation_matrices[q.relation.idx()];
            match q.side {
                Side::Tail => w.matvec_transposed(a, &mut folded),
                Side::Head => w.matvec(a, &mut folded),
            }
            for (e, slot) in row.iter_mut().enumerate() {
                *slot = mei_math::dot(&folded, self.entities.vec(e, 0));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mei_kg::Dictionary;

    #[test]
    fn score_matches_hand_computed_bilinear_form() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut m = Rescal::new(2, 1, RescalConfig { dim: 2, ..RescalConfig::default() }, &mut rng);
        m.entities.vec_mut(0, 0).copy_from_slice(&[1.0, 2.0]);
        m.entities.vec_mut(1, 0).copy_from_slice(&[3.0, -1.0]);
        m.relation_matrices[0] = Matrix::from_vec(2, 2, vec![1.0, 0.5, -0.5, 2.0]);
        // hᵀ W t = [1,2]·[[1,0.5],[-0.5,2]]·[3,-1]ᵀ
        // W·t = [3 - 0.5, -1.5 - 2] = [2.5, -3.5]; h·(W t) = 2.5 - 7 = -4.5
        let s = m.score_triple(Triple::new(0, 1, 0));
        assert!((s + 4.5).abs() < 1e-6);
    }

    #[test]
    fn rescal_subsumes_distmult() {
        // With a diagonal W_r, RESCAL's score equals the trilinear product.
        let mut rng = StdRng::seed_from_u64(1);
        let mut m = Rescal::new(2, 1, RescalConfig { dim: 3, ..RescalConfig::default() }, &mut rng);
        let r = [0.5f32, -1.0, 2.0];
        let mut w = Matrix::zeros(3, 3);
        for (i, rv) in r.iter().enumerate() {
            w.set(i, i, *rv);
        }
        m.relation_matrices[0] = w;
        let h = m.entities.vec(0, 0).to_vec();
        let t = m.entities.vec(1, 0).to_vec();
        let expect = mei_math::trilinear(&h, &t, &r);
        assert!((m.score_triple(Triple::new(0, 1, 0)) - expect).abs() < 1e-5);
    }

    #[test]
    fn can_model_asymmetric_relations() {
        let mut rng = StdRng::seed_from_u64(2);
        let m = Rescal::new(4, 1, RescalConfig { dim: 4, ..RescalConfig::default() }, &mut rng);
        let fwd = m.score_triple(Triple::new(0, 1, 0));
        let bwd = m.score_triple(Triple::new(1, 0, 0));
        assert!((fwd - bwd).abs() > 1e-7, "random W_r should be asymmetric");
    }

    #[test]
    fn training_separates_positives() {
        let entities = Dictionary::from_names((0..10).map(|i| format!("e{i}")));
        let relations = Dictionary::from_names(["next"]);
        let train: Vec<Triple> = (0..9).map(|i| Triple::new(i, i + 1, 0)).collect();
        let ds = Dataset { entities, relations, train, valid: vec![], test: vec![] };
        let mut rng = StdRng::seed_from_u64(3);
        let cfg = RescalConfig { dim: 8, epochs: 150, ..RescalConfig::default() };
        let mut m = Rescal::new(ds.num_entities(), ds.num_relations(), cfg, &mut rng);
        let final_loss = m.train(&ds);
        assert!(final_loss < 0.5, "loss should drop below ln 2: {final_loss}");
        let mut pos = 0.0f32;
        let mut neg = 0.0f32;
        for t in &ds.train {
            pos += m.score_triple(*t);
            neg += m.score_triple(Triple::new(t.head.0, (t.tail.0 + 4) % 10, 0));
        }
        assert!(pos > neg);
    }

    #[test]
    fn batched_scoring_matches_pointwise() {
        let mut rng = StdRng::seed_from_u64(5);
        let m = Rescal::new(6, 2, RescalConfig { dim: 5, ..RescalConfig::default() }, &mut rng);
        let queries = [
            BlockQuery::tails(EntityId(1), RelationId(0)),
            BlockQuery::heads(EntityId(2), RelationId(1)),
        ];
        let mut out = vec![0.0f32; 2 * 6];
        m.score_block(&queries, &mut out);
        let (tails, heads) = out.split_at(6);
        for e in 0..6u32 {
            assert!(
                (tails[e as usize] - m.score(EntityId(1), EntityId(e), RelationId(0))).abs() < 1e-5
            );
            assert!(
                (heads[e as usize] - m.score(EntityId(e), EntityId(2), RelationId(1))).abs() < 1e-5
            );
        }
    }
}
