//! Link-prediction evaluation (§5.2 of the paper).
//!
//! For each true test triple `(h, t, r)` the protocol replaces `h` and `t`
//! in turn by every entity, ranks the true triple among the corruptions by
//! model score, and aggregates MRR and Hit@k. *Filtered* metrics remove
//! corruptions that are themselves known-true triples (in train ∪ valid ∪
//! test) before ranking, avoiding false-negative penalties.
//!
//! The crate is model-agnostic: anything implementing [`TripleScorer`] can
//! be evaluated. Ranking over all entities is embarrassingly parallel and
//! runs on rayon.
//!
//! # Example
//!
//! Ranking one query's score vector, raw and filtered (§5.2):
//!
//! ```
//! use mei_eval::{rank_triple, TiePolicy};
//! use mei_kg::EntityId;
//!
//! // Candidate scores for every entity; the true answer is entity 1.
//! let scores = [0.9f32, 0.5, 0.7];
//! // Entity 0 is a *known-true* corruption (it appears in train/valid/
//! // test), so the filtered protocol removes it before ranking.
//! let known_true = [EntityId(0), EntityId(1)];
//! let rank = rank_triple(&scores, EntityId(1), &known_true, TiePolicy::Average);
//! assert_eq!(rank.raw, 3.0);
//! assert_eq!(rank.filtered, 2.0);
//! ```

#![warn(missing_docs)]

pub mod categories;
pub mod classification;
pub mod metrics;
pub mod ranking;
pub mod scorer;

pub use categories::{categorize_relations, mrr_by_category, RelationCategory};
pub use classification::{labeled_with_negatives, TripleClassifier};
pub use metrics::{LinkPredictionResults, MetricsAccumulator, Side};
pub use ranking::{
    evaluate, evaluate_with_stats, rank_from_counts, rank_triple, rank_triple_detailed,
    rank_triple_detailed_presorted, select_top_k, top_k, top_k_heads, top_k_reference,
    top_k_tails, EvalConfig, EvalStats, RankObservation, RankPair, TiePolicy,
};
pub use scorer::{BlockQuery, TripleScorer};
