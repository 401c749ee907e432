//! The model-side interface the evaluator consumes.

use crate::metrics::Side;
use mei_kg::{EntityId, RelationId};

/// One ranking query in a [`TripleScorer::score_block`] batch: score every
/// entity in the vocabulary as a candidate replacement on `side`.
///
/// A tail query fixes the head (`anchor`) and relation and asks for
/// `S(anchor, t', relation)` over all `t'`; a head query fixes the tail and
/// asks for `S(h', anchor, relation)` over all `h'`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BlockQuery {
    /// Which slot is being ranked (the replaced entity).
    pub side: Side,
    /// The fixed entity: the head for tail queries, the tail for head
    /// queries.
    pub anchor: EntityId,
    /// The relation.
    pub relation: RelationId,
}

impl BlockQuery {
    /// A tail-replacement query `(head, ?, relation)`.
    pub fn tails(head: EntityId, relation: RelationId) -> Self {
        Self { side: Side::Tail, anchor: head, relation }
    }

    /// A head-replacement query `(?, tail, relation)`.
    pub fn heads(tail: EntityId, relation: RelationId) -> Self {
        Self { side: Side::Head, anchor: tail, relation }
    }
}

/// A scoring function over triples: higher means "more likely valid"
/// (§2.1's prediction component).
///
/// Evaluation, [`crate::ranking::top_k`] and the serving engine score
/// every candidate row through [`TripleScorer::score_block`].
/// Implementors with a faster path than scoring candidates one by one
/// override it — the multi-embedding models precompute each query's
/// head/relation (or tail/relation) interaction once and score the whole
/// block with one cache-blocked GEMM over the entity table (see
/// `mei-core`).
pub trait TripleScorer: Sync {
    /// Number of entities in the vocabulary (candidates for corruption).
    fn num_entities(&self) -> usize;

    /// Score of a single triple.
    fn score(&self, head: EntityId, tail: EntityId, relation: RelationId) -> f32;

    /// Scores a whole block of queries against every entity.
    ///
    /// `out` is row-major `queries.len() × num_entities`; row `q` receives
    /// the candidate scores of `queries[q]`. The default scores each
    /// candidate pointwise through [`TripleScorer::score`].
    fn score_block(&self, queries: &[BlockQuery], out: &mut [f32]) {
        let ne = self.num_entities();
        debug_assert_eq!(out.len(), queries.len() * ne);
        for (q, row) in queries.iter().zip(out.chunks_mut(ne)) {
            for (i, slot) in row.iter_mut().enumerate() {
                let candidate = EntityId(i as u32);
                *slot = match q.side {
                    Side::Tail => self.score(q.anchor, candidate, q.relation),
                    Side::Head => self.score(candidate, q.anchor, q.relation),
                };
            }
        }
    }
}

/// Blanket impl so `&M` can be passed wherever a scorer is needed.
impl<M: TripleScorer + ?Sized> TripleScorer for &M {
    fn num_entities(&self) -> usize {
        (**self).num_entities()
    }

    fn score(&self, head: EntityId, tail: EntityId, relation: RelationId) -> f32 {
        (**self).score(head, tail, relation)
    }

    fn score_block(&self, queries: &[BlockQuery], out: &mut [f32]) {
        (**self).score_block(queries, out)
    }
}

#[cfg(test)]
pub(crate) mod test_support {
    use super::*;

    /// A deterministic toy scorer: score = f(h, t, r) given by a closure
    /// table, used by ranking tests.
    pub struct TableScorer {
        pub num_entities: usize,
        pub f: fn(u32, u32, u32) -> f32,
    }

    impl TripleScorer for TableScorer {
        fn num_entities(&self) -> usize {
            self.num_entities
        }

        fn score(&self, head: EntityId, tail: EntityId, relation: RelationId) -> f32 {
            (self.f)(head.0, tail.0, relation.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::test_support::TableScorer;
    use super::*;

    #[test]
    fn default_score_block_agrees_with_pointwise() {
        let s = TableScorer { num_entities: 5, f: |h, t, r| (h * 100 + t * 10 + r) as f32 };
        let queries = [BlockQuery::tails(EntityId(2), RelationId(1)), BlockQuery::heads(EntityId(3), RelationId(0))];
        let mut out = vec![0.0; 2 * 5];
        s.score_block(&queries, &mut out);
        for i in 0..5u32 {
            assert_eq!(out[i as usize], s.score(EntityId(2), EntityId(i), RelationId(1)));
            assert_eq!(out[5 + i as usize], s.score(EntityId(i), EntityId(3), RelationId(0)));
        }
    }

    #[test]
    fn reference_impl_delegates() {
        let s = TableScorer { num_entities: 3, f: |h, _, _| h as f32 };
        let r = &s;
        assert_eq!(r.num_entities(), 3);
        assert_eq!(r.score(EntityId(2), EntityId(0), RelationId(0)), 2.0);
    }
}
