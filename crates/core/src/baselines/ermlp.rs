//! ER-MLP (Dong et al., 2014) — the neural-network-based baseline.
//!
//! §2.2.2 / Eq. 2: the triple's three embedding vectors are concatenated
//! and passed through a multi-layer perceptron that outputs the matching
//! score. One hidden `tanh` layer suffices for the reference
//! implementation:
//!
//! `S(h, t, r) = w₂ᵀ · tanh(W₁ · [h; t; r] + b₁)`.
//!
//! The paper's critique — "complicated … black-box universal approximator,
//! usually … difficult to understand and expensive to use" — is visible in
//! the benches: scoring all candidates costs a full MLP forward per entity
//! with no factorized shortcut like the trilinear models enjoy.

use mei_eval::TripleScorer;
use mei_kg::negative::CorruptionSide;
use mei_kg::{Dataset, EntityId, NegativeSampler, RelationId, Triple};
use mei_math::init::Init;
use mei_math::matrix::Matrix;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use crate::embedding::EmbeddingTable;
use crate::loss::{logistic_loss, logistic_loss_grad, Label};

/// ER-MLP hyperparameters.
#[derive(Debug, Clone)]
pub struct ErMlpConfig {
    /// Embedding dimensionality per item.
    pub dim: usize,
    /// Hidden layer width.
    pub hidden: usize,
    /// SGD learning rate.
    pub learning_rate: f32,
    /// Training epochs.
    pub epochs: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for ErMlpConfig {
    fn default() -> Self {
        Self { dim: 24, hidden: 32, learning_rate: 0.02, epochs: 100, seed: 0 }
    }
}

/// The ER-MLP model.
#[derive(Debug, Clone)]
pub struct ErMlp {
    /// Entity embeddings (`n = 1`).
    pub entities: EmbeddingTable,
    /// Relation embeddings (`n = 1`).
    pub relations: EmbeddingTable,
    w1: Matrix,
    b1: Vec<f32>,
    w2: Vec<f32>,
    cfg: ErMlpConfig,
}

impl ErMlp {
    /// Initializes an ER-MLP.
    pub fn new<R: Rng + ?Sized>(
        num_entities: usize,
        num_relations: usize,
        cfg: ErMlpConfig,
        rng: &mut R,
    ) -> Self {
        let d = cfg.dim;
        let init = Init::EmbeddingUniform { dim: d };
        let entities = EmbeddingTable::init(num_entities, 1, d, init, rng);
        let relations = EmbeddingTable::init(num_relations, 1, d, init, rng);
        let w1_init = Init::XavierUniform { fan_in: 3 * d, fan_out: cfg.hidden };
        let w1 = Matrix::from_vec(cfg.hidden, 3 * d, w1_init.vec(rng, cfg.hidden * 3 * d));
        let w2_init = Init::XavierUniform { fan_in: cfg.hidden, fan_out: 1 };
        let w2 = w2_init.vec(rng, cfg.hidden);
        Self { entities, relations, w1, b1: vec![0.0; cfg.hidden], w2, cfg }
    }

    fn concat_input(&self, t: Triple, buf: &mut [f32]) {
        let d = self.cfg.dim;
        buf[..d].copy_from_slice(self.entities.vec(t.head.idx(), 0));
        buf[d..2 * d].copy_from_slice(self.entities.vec(t.tail.idx(), 0));
        buf[2 * d..3 * d].copy_from_slice(self.relations.vec(t.relation.idx(), 0));
    }

    /// Forward pass; fills `hidden_out` with the post-activation hidden
    /// layer for reuse in backprop.
    fn forward(&self, input: &[f32], hidden_out: &mut [f32]) -> f32 {
        self.w1.matvec(input, hidden_out);
        for (hv, b) in hidden_out.iter_mut().zip(&self.b1) {
            *hv = (*hv + b).tanh();
        }
        mei_math::dot(hidden_out, &self.w2)
    }

    /// Scores a triple.
    pub fn score_triple(&self, t: Triple) -> f32 {
        let mut input = vec![0.0f32; 3 * self.cfg.dim];
        self.concat_input(t, &mut input);
        let mut hidden = vec![0.0f32; self.cfg.hidden];
        self.forward(&input, &mut hidden)
    }

    /// Trains with the logistic loss and uniform negative sampling;
    /// returns the mean loss of the final epoch.
    pub fn train(&mut self, dataset: &Dataset) -> f32 {
        let mut rng = StdRng::seed_from_u64(self.cfg.seed);
        let sampler = NegativeSampler::new(self.entities.num_items(), CorruptionSide::Both);
        let d = self.cfg.dim;
        let hdim = self.cfg.hidden;
        let lr = self.cfg.learning_rate;
        let mut order: Vec<usize> = (0..dataset.train.len()).collect();
        let mut input = vec![0.0f32; 3 * d];
        let mut hidden = vec![0.0f32; hdim];
        let mut grad_hidden_pre = vec![0.0f32; hdim];
        let mut grad_input = vec![0.0f32; 3 * d];
        let mut last = 0.0f32;

        for _ in 0..self.cfg.epochs {
            order.shuffle(&mut rng);
            let mut epoch_loss = 0.0f64;
            let mut count = 0usize;
            for &idx in &order {
                let pos = dataset.train[idx];
                let neg = sampler.corrupt(&mut rng, pos);
                for (triple, label) in [(pos, Label::Positive), (neg, Label::Negative)] {
                    self.concat_input(triple, &mut input);
                    let score = self.forward(&input, &mut hidden);
                    epoch_loss += f64::from(logistic_loss(score, label));
                    count += 1;
                    let coef = logistic_loss_grad(score, label);

                    // Backprop: score = w2ᵀ·a, a = tanh(W1·x + b1).
                    for i in 0..hdim {
                        grad_hidden_pre[i] = coef * self.w2[i] * (1.0 - hidden[i] * hidden[i]);
                    }
                    // Parameter grads.
                    for i in 0..hdim {
                        self.w2[i] -= lr * coef * hidden[i];
                        self.b1[i] -= lr * grad_hidden_pre[i];
                    }
                    // ∂L/∂x = W1ᵀ·grad_hidden_pre (before updating W1).
                    self.w1.matvec_transposed(&grad_hidden_pre, &mut grad_input);
                    self.w1.rank1_update(-lr, &grad_hidden_pre, &input);
                    // Embedding grads.
                    let apply = |row: &mut [f32], g: &[f32]| {
                        for (p, gd) in row.iter_mut().zip(g) {
                            *p -= lr * gd;
                        }
                    };
                    apply(self.entities.vec_mut(triple.head.idx(), 0), &grad_input[..d]);
                    apply(self.entities.vec_mut(triple.tail.idx(), 0), &grad_input[d..2 * d]);
                    apply(self.relations.vec_mut(triple.relation.idx(), 0), &grad_input[2 * d..]);
                }
            }
            last = (epoch_loss / count.max(1) as f64) as f32;
        }
        last
    }
}

impl TripleScorer for ErMlp {
    fn num_entities(&self) -> usize {
        self.entities.num_items()
    }

    fn score(&self, head: EntityId, tail: EntityId, relation: RelationId) -> f32 {
        self.score_triple(Triple { head, tail, relation })
    }
    // No batched fast path: the MLP must run per candidate — exactly the
    // §2.2.2 "expensive to use" property, measured in bench `scoring`.
}

#[cfg(test)]
mod tests {
    use super::*;
    use mei_eval::BlockQuery;
    use mei_kg::Dictionary;

    fn parity_dataset() -> Dataset {
        // (i, j, r0) is true iff i and j have the same parity — learnable
        // by an MLP, not linearly separable in the raw ids.
        let entities = Dictionary::from_names((0..12).map(|i| format!("e{i}")));
        let relations = Dictionary::from_names(["same_parity"]);
        let mut train = Vec::new();
        for i in 0..12u32 {
            for j in 0..12u32 {
                if i != j && i % 2 == j % 2 {
                    train.push(Triple::new(i, j, 0));
                }
            }
        }
        Dataset { entities, relations, train, valid: vec![], test: vec![] }
    }

    #[test]
    fn forward_is_finite_and_deterministic() {
        let mut rng = StdRng::seed_from_u64(1);
        let m = ErMlp::new(5, 2, ErMlpConfig::default(), &mut rng);
        let s1 = m.score_triple(Triple::new(0, 1, 0));
        let s2 = m.score_triple(Triple::new(0, 1, 0));
        assert!(s1.is_finite());
        assert_eq!(s1, s2);
    }

    #[test]
    fn training_reduces_loss() {
        let ds = parity_dataset();
        let mut rng = StdRng::seed_from_u64(3);
        let cfg = ErMlpConfig { epochs: 1, ..ErMlpConfig::default() };
        let mut m = ErMlp::new(ds.num_entities(), ds.num_relations(), cfg, &mut rng);
        let first = m.train(&ds);
        let mut rng = StdRng::seed_from_u64(3);
        let cfg = ErMlpConfig { epochs: 60, ..ErMlpConfig::default() };
        let mut m = ErMlp::new(ds.num_entities(), ds.num_relations(), cfg, &mut rng);
        let last = m.train(&ds);
        assert!(last < first, "loss did not drop: {first} → {last}");
    }

    #[test]
    fn learns_to_separate_positives_from_corruptions() {
        let ds = parity_dataset();
        let mut rng = StdRng::seed_from_u64(5);
        let cfg = ErMlpConfig { epochs: 80, ..ErMlpConfig::default() };
        let mut m = ErMlp::new(ds.num_entities(), ds.num_relations(), cfg, &mut rng);
        m.train(&ds);
        let mut pos = 0.0f32;
        let mut neg = 0.0f32;
        let mut n = 0;
        for i in 0..12u32 {
            for j in 0..12u32 {
                if i == j {
                    continue;
                }
                if i % 2 == j % 2 {
                    pos += m.score_triple(Triple::new(i, j, 0));
                } else {
                    neg += m.score_triple(Triple::new(i, j, 0));
                }
                n += 1;
            }
        }
        let _ = n;
        assert!(pos > neg, "ER-MLP failed to separate parity: {pos} vs {neg}");
    }

    #[test]
    fn scorer_trait_default_batching_works() {
        let mut rng = StdRng::seed_from_u64(7);
        let m = ErMlp::new(6, 1, ErMlpConfig::default(), &mut rng);
        let mut out = vec![0.0f32; 6];
        m.score_block(&[BlockQuery::tails(EntityId(0), RelationId(0))], &mut out);
        for (e, v) in out.iter().enumerate() {
            assert_eq!(*v, m.score(EntityId(0), EntityId(e as u32), RelationId(0)));
        }
    }
}
