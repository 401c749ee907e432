//! The ranking protocol: corrupt, score, rank, filter.
//!
//! Evaluation is planned, not streamed: test triples are first grouped by
//! their distinct `(side, anchor, relation)` query so each interaction
//! context is computed once, queries are scored in blocks through
//! [`TripleScorer::score_block`] (which models back with a cache-blocked
//! GEMM over the entity table), and the resulting ranks are aggregated in
//! a fixed sequential order so metrics are bit-reproducible regardless of
//! how rayon splits the work.

use std::collections::HashMap;

use mei_kg::{EntityId, RelationId, Triple, TripleStore};
use mei_obs::RankHistogram;
use rayon::prelude::*;

use crate::metrics::{LinkPredictionResults, MetricsAccumulator, Side};
use crate::scorer::{BlockQuery, TripleScorer};

/// How candidates scoring exactly the true score are counted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TiePolicy {
    /// rank = 1 + |better| — the most favorable reading.
    Optimistic,
    /// rank = 1 + |better| + |tied| — the least favorable.
    Pessimistic,
    /// rank = 1 + |better| + |tied|/2 — expected rank under random
    /// tie-breaking (the default; immune to constant-score degenerate
    /// models inflating their metrics).
    #[default]
    Average,
}

impl TiePolicy {
    /// Stable lowercase label, used in run logs and CLI output.
    pub fn name(self) -> &'static str {
        match self {
            TiePolicy::Optimistic => "optimistic",
            TiePolicy::Pessimistic => "pessimistic",
            TiePolicy::Average => "average",
        }
    }
}

/// Evaluation configuration.
#[derive(Debug, Clone)]
pub struct EvalConfig {
    /// `k` values for Hit@k. The paper reports k ∈ {1, 3, 10}.
    pub hits_at: Vec<usize>,
    /// Tie handling.
    pub tie_policy: TiePolicy,
}

impl Default for EvalConfig {
    fn default() -> Self {
        Self { hits_at: vec![1, 3, 10], tie_policy: TiePolicy::Average }
    }
}

/// The raw and filtered rank of one query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RankPair {
    /// Rank among all corruptions.
    pub raw: f64,
    /// Rank after removing known-true corruptions (§5.2's filtered
    /// protocol).
    pub filtered: f64,
}

/// Turns `(better, tied)` candidate counts into a rank under `policy` —
/// the kernel every ranking path reduces to.
pub fn rank_from_counts(better: usize, tied: usize, policy: TiePolicy) -> f64 {
    match policy {
        TiePolicy::Optimistic => 1.0 + better as f64,
        TiePolicy::Pessimistic => 1.0 + better as f64 + tied as f64,
        TiePolicy::Average => 1.0 + better as f64 + tied as f64 / 2.0,
    }
}

/// One query's ranks plus the tie diagnostics behind them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RankObservation {
    /// The raw and filtered ranks.
    pub pair: RankPair,
    /// Competitors tied with the true score (raw protocol).
    pub tied: usize,
    /// Competitors tied with the true score after filtering.
    pub filtered_tied: usize,
}

/// Ranks the true entity for one side of one triple.
///
/// `scores` holds the score of every candidate entity; `true_entity` is the
/// entity being ranked; `known_true` lists entities that form known-true
/// triples for this `(fixed-entity, relation)` slot and are therefore
/// excluded by the filtered metric (the true entity itself is always kept).
pub fn rank_triple(
    scores: &[f32],
    true_entity: EntityId,
    known_true: &[EntityId],
    policy: TiePolicy,
) -> RankPair {
    rank_triple_detailed(scores, true_entity, known_true, policy).pair
}

/// Like [`rank_triple`], but also reports how many candidates tied with
/// the true score — the signal behind the evaluator's tie-rate metric
/// (a high tie-rate means the model is degenerating toward constant
/// scores and the tie policy is doing the ranking).
pub fn rank_triple_detailed(
    scores: &[f32],
    true_entity: EntityId,
    known_true: &[EntityId],
    policy: TiePolicy,
) -> RankObservation {
    // The list may contain duplicates (callers can pass arbitrary slices),
    // so deduplicate before counting — otherwise the filtered subtraction
    // could underflow.
    let mut known: Vec<EntityId> = known_true.to_vec();
    known.sort_unstable();
    known.dedup();
    rank_triple_detailed_presorted(scores, true_entity, &known, policy)
}

/// Like [`rank_triple_detailed`], but `known_true` must already be sorted
/// and deduplicated. The evaluator's query planner prepares each group's
/// exclusion set exactly once, so the per-query sort/dedup of the generic
/// entry point is skipped.
pub fn rank_triple_detailed_presorted(
    scores: &[f32],
    true_entity: EntityId,
    known_true: &[EntityId],
    policy: TiePolicy,
) -> RankObservation {
    debug_assert!(
        known_true.windows(2).all(|w| w[0] < w[1]),
        "known_true must be sorted and deduplicated"
    );
    let true_score = scores[true_entity.idx()];
    let mut better = 0usize;
    let mut tied = 0usize;
    for &s in scores {
        if s > true_score {
            better += 1;
        } else if s == true_score {
            tied += 1;
        }
    }
    tied -= 1; // the true entity itself
    let raw = rank_from_counts(better, tied, policy);

    // Filtered: discount known-true competitors.
    let mut better_known = 0usize;
    let mut tied_known = 0usize;
    for &e in known_true {
        if e == true_entity {
            continue;
        }
        let s = scores[e.idx()];
        if s > true_score {
            better_known += 1;
        } else if s == true_score {
            tied_known += 1;
        }
    }
    let filtered_better = better - better_known;
    let filtered_tied = tied - tied_known;
    let filtered = rank_from_counts(filtered_better, filtered_tied, policy);
    RankObservation { pair: RankPair { raw, filtered }, tied, filtered_tied }
}

/// Side-channel telemetry from one evaluation pass.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EvalStats {
    /// Ranking queries answered (2 per triple: head-side + tail-side).
    pub queries: usize,
    /// Queries whose true entity tied with ≥ 1 surviving competitor in
    /// the filtered protocol.
    pub tied_queries: usize,
    /// `tied_queries / queries` (0 when no queries ran).
    pub tie_rate: f64,
    /// Filtered rank distribution of head-replacement queries.
    pub head_ranks: RankHistogram,
    /// Filtered rank distribution of tail-replacement queries.
    pub tail_ranks: RankHistogram,
    /// Wall-clock seconds for the pass.
    pub wall_secs: f64,
    /// `queries / wall_secs` (0 when no queries ran).
    pub queries_per_sec: f64,
}

/// Per-shard stats accumulator used inside the parallel fold.
#[derive(Debug, Clone, Default)]
struct StatsAccum {
    queries: usize,
    tied_queries: usize,
    head_ranks: RankHistogram,
    tail_ranks: RankHistogram,
}

impl StatsAccum {
    fn push(&mut self, side: Side, obs: &RankObservation) {
        self.queries += 1;
        if obs.filtered_tied > 0 {
            self.tied_queries += 1;
        }
        match side {
            Side::Head => self.head_ranks.record(obs.pair.filtered),
            Side::Tail => self.tail_ranks.record(obs.pair.filtered),
        }
    }
}

/// Queries scored per [`TripleScorer::score_block`] call. Sized so a block
/// of score rows stays a few MB even at WN18 scale (~41k entities) while
/// giving the GEMM enough rows to amortize each pass over the entity table.
const QUERY_BLOCK: usize = 32;

/// One distinct ranking query plus everything needed to rank its group:
/// the precomputed (sorted, deduplicated) filtered-protocol exclusion set
/// and the `(observation slot, true entity)` of every test triple that
/// shares the query.
struct QueryGroup {
    query: BlockQuery,
    known: Vec<EntityId>,
    members: Vec<(usize, EntityId)>,
}

/// Groups the head- and tail-replacement queries of `triples` by their
/// distinct `(side, anchor, relation)` key.
///
/// Test sets repeat anchors heavily (every relation has popular entities),
/// so grouping lets the scorer compute each interaction context once and
/// lets the filtered exclusion set be sorted/deduplicated once per group
/// instead of once per query. Observation slot `2·i` is triple `i`'s
/// tail-side query, `2·i + 1` its head-side query.
fn plan_queries(triples: &[Triple], filter: &TripleStore) -> Vec<QueryGroup> {
    let mut index: HashMap<BlockQuery, usize> = HashMap::new();
    let mut groups: Vec<QueryGroup> = Vec::new();
    for (i, t) in triples.iter().enumerate() {
        for (query, slot, truth) in [
            (BlockQuery::tails(t.head, t.relation), 2 * i, t.tail),
            (BlockQuery::heads(t.tail, t.relation), 2 * i + 1, t.head),
        ] {
            let gi = *index.entry(query).or_insert_with(|| {
                let known = match query.side {
                    Side::Tail => filter.tails_of(query.anchor, query.relation),
                    Side::Head => filter.heads_of(query.anchor, query.relation),
                };
                let mut known = known.to_vec();
                known.sort_unstable();
                known.dedup();
                groups.push(QueryGroup { query, known, members: Vec::new() });
                groups.len() - 1
            });
            groups[gi].members.push((slot, truth));
        }
    }
    // Fix the processing order so runs are reproducible regardless of the
    // hash map's per-process seed. Scores are block-composition-independent
    // (each row is one context·table pass), so this only pins scheduling.
    groups.sort_unstable_by_key(|g| (g.query.side as u8, g.query.anchor.0, g.query.relation.0));
    groups
}

/// Evaluates `scorer` on `triples` with both head- and tail-replacement
/// queries, returning `(raw, filtered)` results.
///
/// `filter` must contain every known-true triple (train ∪ valid ∪ test) for
/// faithful filtered metrics (§5.2). Work is parallelized over triples.
pub fn evaluate<S: TripleScorer>(
    scorer: &S,
    triples: &[Triple],
    filter: &TripleStore,
    config: &EvalConfig,
) -> (LinkPredictionResults, LinkPredictionResults) {
    let (raw, filt, _) = evaluate_with_stats(scorer, triples, filter, config);
    (raw, filt)
}

/// [`evaluate`] plus throughput and rank-distribution telemetry
/// ([`EvalStats`]): queries/sec, per-side filtered rank histograms, and
/// the tie-rate under the active [`TiePolicy`].
pub fn evaluate_with_stats<S: TripleScorer>(
    scorer: &S,
    triples: &[Triple],
    filter: &TripleStore,
    config: &EvalConfig,
) -> (LinkPredictionResults, LinkPredictionResults, EvalStats) {
    let started = std::time::Instant::now();
    let ne = scorer.num_entities();
    let policy = config.tie_policy;
    let groups = plan_queries(triples, filter);

    // Score planned queries block-by-block and rank every group member
    // against its score row. The fold state carries the query and score
    // scratch buffers, so each rayon job allocates them once instead of
    // once per query. Ranks are scattered into per-query slots afterwards:
    // the final aggregation below runs in original triple order, making
    // every f64 sum independent of rayon's split decisions and identical
    // between the blocked path and any per-query fallback that produces
    // the same scores.
    let mut ranked: Vec<Vec<(usize, RankObservation)>> = Vec::new();
    groups
        .par_chunks(QUERY_BLOCK)
        .fold(
            || (Vec::new(), Vec::<BlockQuery>::new(), Vec::<f32>::new()),
            |(mut done, mut queries, mut scores), chunk: &[QueryGroup]| {
                queries.clear();
                queries.extend(chunk.iter().map(|g| g.query));
                scores.resize(queries.len() * ne, 0.0);
                scorer.score_block(&queries, &mut scores);
                for (g, row) in chunk.iter().zip(scores.chunks(ne)) {
                    for &(slot, truth) in &g.members {
                        done.push((slot, rank_triple_detailed_presorted(row, truth, &g.known, policy)));
                    }
                }
                (done, queries, scores)
            },
        )
        .map(|(done, _, _)| done)
        .collect_into_vec(&mut ranked);
    let mut observations: Vec<Option<RankObservation>> = vec![None; triples.len() * 2];
    for (slot, obs) in ranked.into_iter().flatten() {
        observations[slot] = Some(obs);
    }

    let mut raw_acc = MetricsAccumulator::new(&config.hits_at);
    let mut filt_acc = MetricsAccumulator::new(&config.hits_at);
    let mut stats_acc = StatsAccum::default();
    for (i, t) in triples.iter().enumerate() {
        for (side, slot) in [(Side::Tail, 2 * i), (Side::Head, 2 * i + 1)] {
            let obs = observations[slot].expect("planner covers every query");
            raw_acc.push(t.relation, side, obs.pair.raw);
            filt_acc.push(t.relation, side, obs.pair.filtered);
            stats_acc.push(side, &obs);
        }
    }
    let wall_secs = started.elapsed().as_secs_f64();
    let stats = EvalStats {
        queries: stats_acc.queries,
        tied_queries: stats_acc.tied_queries,
        tie_rate: if stats_acc.queries == 0 {
            0.0
        } else {
            stats_acc.tied_queries as f64 / stats_acc.queries as f64
        },
        head_ranks: stats_acc.head_ranks,
        tail_ranks: stats_acc.tail_ranks,
        wall_secs,
        queries_per_sec: if stats_acc.queries == 0 || wall_secs <= 0.0 {
            0.0
        } else {
            stats_acc.queries as f64 / wall_secs
        },
    };
    (raw_acc.finish(), filt_acc.finish(), stats)
}

/// Convenience: filtered results only (the headline numbers in Tables 2–4).
pub fn evaluate_filtered<S: TripleScorer>(
    scorer: &S,
    triples: &[Triple],
    filter: &TripleStore,
    config: &EvalConfig,
) -> LinkPredictionResults {
    evaluate(scorer, triples, filter, config).1
}

/// Selects the top-`k` `(entity, score)` pairs from a dense score row,
/// skipping entities in `excluded` (which must be sorted and deduplicated).
///
/// Ordering is score-descending with ties broken by ascending entity id —
/// exactly the order a full `sort_by(score desc, id asc)` over all
/// candidates would produce, but in one bounded-insertion pass (`O(|E|·k)`
/// worst case, `O(|E| + k log k)`-ish in practice) instead of an
/// `O(|E| log |E|)` sort plus an `|E|`-element allocation per request.
/// The serving engine and the prediction CLI both answer through this
/// function, so batched and per-query answers are comparable element by
/// element. NaN scores are unsupported (scorers never produce them).
pub fn select_top_k(scores: &[f32], k: usize, excluded: &[EntityId]) -> Vec<(EntityId, f32)> {
    debug_assert!(
        excluded.windows(2).all(|w| w[0] < w[1]),
        "excluded must be sorted and deduplicated"
    );
    // No answer can hold more than every candidate, so an oversized `k`
    // (straight off the wire or the command line) reserves nothing extra.
    let mut top: Vec<(EntityId, f32)> = Vec::with_capacity(k.min(scores.len()) + 1);
    if k == 0 {
        return top;
    }
    for (i, &s) in scores.iter().enumerate() {
        // Ids ascend, so a candidate tying the current worst entry can
        // never displace it; only strictly better scores are admitted once
        // the buffer is full.
        if top.len() == k && s <= top[k - 1].1 {
            continue;
        }
        let e = EntityId(i as u32);
        if excluded.binary_search(&e).is_ok() {
            continue;
        }
        let pos = top.partition_point(|&(pe, ps)| ps > s || (ps == s && pe < e));
        top.insert(pos, (e, s));
        if top.len() > k {
            top.pop();
        }
    }
    top
}

/// Ranks candidates for one side of a `(?, t, r)` / `(h, ?, r)` query and
/// returns the top-`k` entities with scores, excluding known-true entities
/// from `exclude` — the prediction API behind `mei predict` and the
/// `mei-serve` engine.
///
/// The query is scored through [`TripleScorer::score_block`], so scorers
/// with a matrix fast path (the blocked GEMM in `mei-core`) use it even
/// for a single query, and results are bit-identical to what a batched
/// serving block produces for the same query.
pub fn top_k<S: TripleScorer>(
    scorer: &S,
    side: Side,
    anchor: EntityId,
    relation: RelationId,
    k: usize,
    exclude: &TripleStore,
) -> Vec<(EntityId, f32)> {
    let ne = scorer.num_entities();
    let mut scores = vec![0.0f32; ne];
    let query = match side {
        Side::Tail => BlockQuery::tails(anchor, relation),
        Side::Head => BlockQuery::heads(anchor, relation),
    };
    scorer.score_block(std::slice::from_ref(&query), &mut scores);
    let mut excluded: Vec<EntityId> = match side {
        Side::Tail => exclude.tails_of(anchor, relation),
        Side::Head => exclude.heads_of(anchor, relation),
    }
    .to_vec();
    excluded.sort_unstable();
    excluded.dedup();
    select_top_k(&scores, k, &excluded)
}

/// Top-`k` tails for a `(h, ?, r)` query — [`top_k`] on [`Side::Tail`].
pub fn top_k_tails<S: TripleScorer>(
    scorer: &S,
    head: EntityId,
    relation: RelationId,
    k: usize,
    exclude: &TripleStore,
) -> Vec<(EntityId, f32)> {
    top_k(scorer, Side::Tail, head, relation, k, exclude)
}

/// Top-`k` heads for a `(?, t, r)` query — [`top_k`] on [`Side::Head`].
pub fn top_k_heads<S: TripleScorer>(
    scorer: &S,
    tail: EntityId,
    relation: RelationId,
    k: usize,
    exclude: &TripleStore,
) -> Vec<(EntityId, f32)> {
    top_k(scorer, Side::Head, tail, relation, k, exclude)
}

/// The serving oracle: scores the one query through
/// [`TripleScorer::score_block`], then filters, fully sorts and truncates
/// every candidate instead of running [`select_top_k`]'s bounded
/// insertion.
///
/// The serving correctness tests and `repro bench-serve` require batched
/// and cached engine answers to match it element for element.
pub fn top_k_reference<S: TripleScorer>(
    scorer: &S,
    side: Side,
    anchor: EntityId,
    relation: RelationId,
    k: usize,
    exclude: &TripleStore,
) -> Vec<(EntityId, f32)> {
    let ne = scorer.num_entities();
    let mut scores = vec![0.0f32; ne];
    let (query, excluded) = match side {
        Side::Tail => (BlockQuery::tails(anchor, relation), exclude.tails_of(anchor, relation)),
        Side::Head => (BlockQuery::heads(anchor, relation), exclude.heads_of(anchor, relation)),
    };
    scorer.score_block(std::slice::from_ref(&query), &mut scores);
    let mut candidates: Vec<(EntityId, f32)> = (0..ne)
        .map(|i| (EntityId(i as u32), scores[i]))
        .filter(|(e, _)| !excluded.contains(e))
        .collect();
    candidates
        .sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal).then(a.0.cmp(&b.0)));
    candidates.truncate(k);
    candidates
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scorer::test_support::TableScorer;

    #[test]
    fn rank_counts_better_candidates() {
        // Scores: entity 0 → 5, 1 → 3, 2 → 9, 3 → 3. True entity is 1.
        let scores = [5.0f32, 3.0, 9.0, 3.0];
        let pair = rank_triple(&scores, EntityId(1), &[], TiePolicy::Optimistic);
        assert_eq!(pair.raw, 3.0); // better: {0, 2}
        let pair = rank_triple(&scores, EntityId(1), &[], TiePolicy::Pessimistic);
        assert_eq!(pair.raw, 4.0); // plus tie with entity 3
        let pair = rank_triple(&scores, EntityId(1), &[], TiePolicy::Average);
        assert_eq!(pair.raw, 3.5);
    }

    #[test]
    fn filtering_removes_known_true() {
        let scores = [5.0f32, 3.0, 9.0, 3.0];
        // Entity 2 (score 9) is a known-true triple: filtered rank improves.
        let pair = rank_triple(&scores, EntityId(1), &[EntityId(2)], TiePolicy::Optimistic);
        assert_eq!(pair.raw, 3.0);
        assert_eq!(pair.filtered, 2.0);
    }

    #[test]
    fn filtering_never_hurts() {
        let scores = [1.0f32, 2.0, 3.0, 4.0, 2.0];
        for te in 0..5u32 {
            for known in [&[][..], &[EntityId(0)][..], &[EntityId(3), EntityId(4)][..]] {
                let p = rank_triple(&scores, EntityId(te), known, TiePolicy::Average);
                assert!(p.filtered <= p.raw, "filtered {} > raw {}", p.filtered, p.raw);
                assert!(p.filtered >= 1.0);
            }
        }
    }

    #[test]
    fn true_entity_in_known_list_is_ignored() {
        let scores = [5.0f32, 3.0];
        let p = rank_triple(&scores, EntityId(1), &[EntityId(1)], TiePolicy::Optimistic);
        assert_eq!(p.filtered, 2.0);
        assert_eq!(p.raw, 2.0);
    }

    #[test]
    fn perfect_scorer_gets_mrr_one() {
        // Scorer that gives the true pattern h + 1 == t maximum score.
        let s = TableScorer {
            num_entities: 10,
            f: |h, t, _| if t == h + 1 { 10.0 } else { -(t as f32) },
        };
        let triples: Vec<Triple> = (0..5).map(|i| Triple::new(i, i + 1, 0)).collect();
        let filter: TripleStore = triples.iter().copied().collect();
        let (_raw, filt) = evaluate(&s, &triples, &filter, &EvalConfig::default());
        // Tail-side queries are perfectly ranked.
        assert!((filt.mrr_tail_side - 1.0).abs() < 1e-9, "{}", filt.mrr_tail_side);
        assert_eq!(filt.num_queries, 10);
    }

    #[test]
    fn constant_scorer_has_chance_level_average_rank() {
        let s = TableScorer { num_entities: 100, f: |_, _, _| 0.0 };
        let triples = vec![Triple::new(0, 1, 0)];
        let filter: TripleStore = triples.iter().copied().collect();
        let (raw, _) = evaluate(&s, &triples, &filter, &EvalConfig::default());
        // All tied: average policy puts the true entity mid-pack.
        assert!((raw.mr - 50.5).abs() < 1e-9, "mr={}", raw.mr);
    }

    #[test]
    fn filtered_beats_raw_when_true_competitors_exist() {
        // Two true tails for (0, ·, 0): entities 1 and 2, model scores both
        // highest. Filtered MRR must be 1, raw cannot be.
        let s = TableScorer {
            num_entities: 10,
            f: |h, t, _| if h == 0 && (t == 1 || t == 2) { 5.0 + t as f32 } else { 0.0 },
        };
        let triples = vec![Triple::new(0, 1, 0), Triple::new(0, 2, 0)];
        let filter: TripleStore = triples.iter().copied().collect();
        let (raw, filt) = evaluate(&s, &triples, &filter, &EvalConfig::default());
        assert!(filt.mrr_tail_side > raw.mrr_tail_side);
        assert!((filt.mrr_tail_side - 1.0).abs() < 1e-9);
    }

    #[test]
    fn top_k_orders_and_excludes() {
        let s = TableScorer { num_entities: 5, f: |_, t, _| t as f32 };
        let exclude: TripleStore = [Triple::new(0, 4, 0)].into_iter().collect();
        let top = top_k_tails(&s, EntityId(0), RelationId(0), 2, &exclude);
        assert_eq!(top.len(), 2);
        assert_eq!(top[0].0, EntityId(3)); // 4 excluded
        assert_eq!(top[1].0, EntityId(2));
    }

    #[test]
    fn top_k_heads_ranks_the_head_slot() {
        let s = TableScorer { num_entities: 5, f: |h, _, _| -(h as f32) };
        let exclude: TripleStore = [Triple::new(1, 0, 0)].into_iter().collect();
        let top = top_k_heads(&s, EntityId(0), RelationId(0), 3, &exclude);
        // Head scores descend with id; head 1 is a known-true and skipped.
        assert_eq!(top.iter().map(|(e, _)| e.0).collect::<Vec<_>>(), vec![0, 2, 3]);
        assert_eq!(top[1].1, -2.0);
    }

    #[test]
    fn top_k_matches_reference_on_both_sides() {
        let s = TableScorer {
            num_entities: 30,
            f: |h, t, r| (((h * 17 + t * 5 + r * 3) % 7) as f32) - 3.0, // many ties
        };
        let exclude: TripleStore =
            (0..10).map(|i| Triple::new(i % 4, (i * 3) % 30, i % 2)).collect();
        for side in [Side::Tail, Side::Head] {
            for anchor in 0..4u32 {
                for k in [0usize, 1, 3, 12, 100] {
                    let fast = top_k(&s, side, EntityId(anchor), RelationId(0), k, &exclude);
                    let slow =
                        top_k_reference(&s, side, EntityId(anchor), RelationId(0), k, &exclude);
                    assert_eq!(fast.len(), slow.len());
                    for (a, b) in fast.iter().zip(&slow) {
                        assert_eq!(a.0, b.0);
                        assert_eq!(a.1.to_bits(), b.1.to_bits());
                    }
                }
            }
        }
    }

    #[test]
    fn select_top_k_zero_k_and_full_exclusion() {
        let scores = [3.0f32, 1.0, 2.0];
        assert!(select_top_k(&scores, 0, &[]).is_empty());
        let all: Vec<EntityId> = (0..3).map(EntityId).collect();
        assert!(select_top_k(&scores, 2, &all).is_empty());
    }

    #[test]
    fn select_top_k_beyond_the_candidates_returns_them_all() {
        let scores = [3.0f32, 1.0, 2.0];
        let want = vec![(EntityId(0), 3.0), (EntityId(2), 2.0), (EntityId(1), 1.0)];
        for k in [3, 1 << 60, usize::MAX] {
            assert_eq!(select_top_k(&scores, k, &[]), want, "k = {k}");
        }
    }

    mod properties {
        use super::super::*;
        use proptest::prelude::*;

        proptest! {
            /// For any score vector and any filter set: ranks are ≥ 1,
            /// filtered ≤ raw, and the tie policies are ordered
            /// optimistic ≤ average ≤ pessimistic.
            #[test]
            fn rank_invariants(
                scores in proptest::collection::vec(-10.0f32..10.0, 2..40),
                true_idx_seed in 0usize..1000,
                known_seed in proptest::collection::vec(0usize..1000, 0..10)
            ) {
                let n = scores.len();
                let true_entity = EntityId((true_idx_seed % n) as u32);
                let known: Vec<EntityId> =
                    known_seed.iter().map(|k| EntityId((k % n) as u32)).collect();
                let opt = rank_triple(&scores, true_entity, &known, TiePolicy::Optimistic);
                let avg = rank_triple(&scores, true_entity, &known, TiePolicy::Average);
                let pes = rank_triple(&scores, true_entity, &known, TiePolicy::Pessimistic);
                for p in [opt, avg, pes] {
                    prop_assert!(p.raw >= 1.0);
                    prop_assert!(p.filtered >= 1.0);
                    prop_assert!(p.filtered <= p.raw);
                    prop_assert!(p.raw <= n as f64);
                }
                prop_assert!(opt.raw <= avg.raw && avg.raw <= pes.raw);
                prop_assert!(opt.filtered <= avg.filtered && avg.filtered <= pes.filtered);
            }

            /// Filtering with ALL other entities known-true always yields
            /// rank 1 (only the true entity competes with itself).
            #[test]
            fn full_filter_gives_rank_one(
                scores in proptest::collection::vec(-5.0f32..5.0, 2..30),
                true_idx_seed in 0usize..1000
            ) {
                let n = scores.len();
                let true_entity = EntityId((true_idx_seed % n) as u32);
                let known: Vec<EntityId> = (0..n as u32).map(EntityId).collect();
                let p = rank_triple(&scores, true_entity, &known, TiePolicy::Pessimistic);
                prop_assert_eq!(p.filtered, 1.0);
            }

            /// More better-scoring competitors can only worsen the rank,
            /// under every tie policy.
            #[test]
            fn rank_is_monotone_in_better_count(
                better in 0usize..10_000,
                extra in 0usize..10_000,
                tied in 0usize..10_000
            ) {
                for policy in
                    [TiePolicy::Optimistic, TiePolicy::Average, TiePolicy::Pessimistic]
                {
                    let lo = rank_from_counts(better, tied, policy);
                    let hi = rank_from_counts(better + extra, tied, policy);
                    prop_assert!(lo >= 1.0);
                    prop_assert!(hi >= lo);
                }
            }

            /// The three policies bracket each other:
            /// optimistic ≤ average ≤ pessimistic for any counts.
            #[test]
            fn tie_policies_are_ordered(
                better in 0usize..10_000,
                tied in 0usize..10_000
            ) {
                let opt = rank_from_counts(better, tied, TiePolicy::Optimistic);
                let avg = rank_from_counts(better, tied, TiePolicy::Average);
                let pes = rank_from_counts(better, tied, TiePolicy::Pessimistic);
                prop_assert!(opt <= avg && avg <= pes);
                // The spread is exactly the tie count.
                prop_assert_eq!(pes - opt, tied as f64);
            }

            /// With no ties, the policy cannot matter.
            #[test]
            fn policies_agree_without_ties(better in 0usize..100_000) {
                let opt = rank_from_counts(better, 0, TiePolicy::Optimistic);
                let avg = rank_from_counts(better, 0, TiePolicy::Average);
                let pes = rank_from_counts(better, 0, TiePolicy::Pessimistic);
                prop_assert_eq!(opt, avg);
                prop_assert_eq!(avg, pes);
                prop_assert_eq!(opt, 1.0 + better as f64);
            }

            /// Bounded top-k selection reproduces the full-sort reference
            /// exactly — same ids, same order, same score bits — for any
            /// score vector (ties included) and any exclusion set.
            #[test]
            fn select_top_k_matches_full_sort(
                scores in proptest::collection::vec(-4.0f32..4.0, 1..60),
                quantize in proptest::bool::ANY,
                k in 0usize..70,
                excluded_seed in proptest::collection::vec(0usize..1000, 0..12)
            ) {
                // Quantizing forces heavy ties so the id tie-break is hit.
                let scores: Vec<f32> = if quantize {
                    scores.iter().map(|s| s.round()).collect()
                } else {
                    scores
                };
                let n = scores.len();
                let mut excluded: Vec<EntityId> =
                    excluded_seed.iter().map(|e| EntityId((e % n) as u32)).collect();
                excluded.sort_unstable();
                excluded.dedup();
                let fast = select_top_k(&scores, k, &excluded);
                let mut reference: Vec<(EntityId, f32)> = (0..n)
                    .map(|i| (EntityId(i as u32), scores[i]))
                    .filter(|(e, _)| !excluded.contains(e))
                    .collect();
                reference.sort_by(|a, b| {
                    b.1.partial_cmp(&a.1)
                        .unwrap_or(std::cmp::Ordering::Equal)
                        .then(a.0.cmp(&b.0))
                });
                reference.truncate(k);
                prop_assert_eq!(fast.len(), reference.len());
                for (a, b) in fast.iter().zip(&reference) {
                    prop_assert_eq!(a.0, b.0);
                    prop_assert_eq!(a.1.to_bits(), b.1.to_bits());
                }
            }

            /// With every score tied, the top-k is exactly the first `k`
            /// non-excluded ids in ascending order — the deterministic
            /// tie-break contract the quantized screened serving path
            /// relies on to agree with the exact path byte for byte.
            #[test]
            fn all_ties_yield_ascending_ids(
                n in 1usize..80,
                k in 0usize..90,
                excluded_seed in proptest::collection::vec(0usize..1000, 0..10)
            ) {
                let scores = vec![1.25f32; n];
                let mut excluded: Vec<EntityId> =
                    excluded_seed.iter().map(|e| EntityId((e % n) as u32)).collect();
                excluded.sort_unstable();
                excluded.dedup();
                let top = select_top_k(&scores, k, &excluded);
                let rerun = select_top_k(&scores, k, &excluded);
                prop_assert_eq!(&top, &rerun, "repeat runs must be byte-identical");
                let expect: Vec<EntityId> = (0..n as u32)
                    .map(EntityId)
                    .filter(|e| excluded.binary_search(e).is_err())
                    .take(k)
                    .collect();
                prop_assert_eq!(top.len(), expect.len());
                for (got, want) in top.iter().zip(&expect) {
                    prop_assert_eq!(got.0, *want);
                    prop_assert_eq!(got.1.to_bits(), 1.25f32.to_bits());
                }
            }

            /// Raising the true entity's score never worsens its rank.
            #[test]
            fn rank_is_monotone_in_true_score(
                mut scores in proptest::collection::vec(-5.0f32..5.0, 3..30),
                true_idx_seed in 0usize..1000,
                boost in 0.1f32..5.0
            ) {
                let n = scores.len();
                let idx = true_idx_seed % n;
                let before =
                    rank_triple(&scores, EntityId(idx as u32), &[], TiePolicy::Average);
                scores[idx] += boost;
                let after =
                    rank_triple(&scores, EntityId(idx as u32), &[], TiePolicy::Average);
                prop_assert!(after.raw <= before.raw);
            }
        }
    }

    #[test]
    fn evaluate_on_empty_triples() {
        let s = TableScorer { num_entities: 3, f: |_, _, _| 0.0 };
        let filter = TripleStore::new();
        let (raw, filt) = evaluate(&s, &[], &filter, &EvalConfig::default());
        assert_eq!(raw.num_queries, 0);
        assert_eq!(filt.mrr, 0.0);
        let (_, _, stats) = evaluate_with_stats(&s, &[], &filter, &EvalConfig::default());
        assert_eq!(stats.queries, 0);
        assert_eq!(stats.queries_per_sec, 0.0);
        assert_eq!(stats.tie_rate, 0.0);
    }

    #[test]
    fn constant_scorer_has_full_tie_rate() {
        let s = TableScorer { num_entities: 50, f: |_, _, _| 0.0 };
        let triples = vec![Triple::new(0, 1, 0), Triple::new(2, 3, 0)];
        let filter: TripleStore = triples.iter().copied().collect();
        let (_, _, stats) = evaluate_with_stats(&s, &triples, &filter, &EvalConfig::default());
        assert_eq!(stats.queries, 4);
        assert_eq!(stats.tied_queries, 4);
        assert_eq!(stats.tie_rate, 1.0);
        assert_eq!(stats.head_ranks.total(), 2);
        assert_eq!(stats.tail_ranks.total(), 2);
        assert!(stats.queries_per_sec > 0.0);
        assert!(stats.wall_secs > 0.0);
    }

    #[test]
    fn perfect_scorer_has_rank_one_histograms_and_no_ties() {
        let s = TableScorer {
            num_entities: 10,
            f: |h, t, _| if t == h + 1 { 10.0 } else { -(t as f32) },
        };
        let triples: Vec<Triple> = (0..5).map(|i| Triple::new(i, i + 1, 0)).collect();
        let filter: TripleStore = triples.iter().copied().collect();
        let (_, _, stats) = evaluate_with_stats(&s, &triples, &filter, &EvalConfig::default());
        assert_eq!(stats.tie_rate, 0.0);
        // Every tail-side query ranks the true entity first.
        assert_eq!(stats.tail_ranks.buckets[0], 5);
    }

    #[test]
    fn planner_groups_shared_queries_and_keeps_duplicates() {
        // Three triples sharing the (0, ·, 0) tail query, one of them a
        // duplicate: the tail side plans 2 distinct groups (anchors 0 and
        // 2), and every triple occurrence keeps its own observation slot.
        let triples =
            vec![Triple::new(0, 1, 0), Triple::new(0, 2, 0), Triple::new(0, 1, 0), Triple::new(2, 3, 0)];
        let filter: TripleStore = triples.iter().copied().collect();
        let groups = plan_queries(&triples, &filter);
        let tail_groups: Vec<_> =
            groups.iter().filter(|g| g.query.side == Side::Tail).collect();
        assert_eq!(tail_groups.len(), 2);
        let g0 = tail_groups.iter().find(|g| g.query.anchor == EntityId(0)).unwrap();
        assert_eq!(g0.members.len(), 3); // slots 0, 2, 4
        assert_eq!(g0.known, vec![EntityId(1), EntityId(2)]);
        let slots: Vec<usize> = groups.iter().flat_map(|g| g.members.iter().map(|m| m.0)).collect();
        let mut sorted = slots.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn duplicate_test_triples_are_each_ranked() {
        let s = TableScorer { num_entities: 6, f: |_, t, _| -(t as f32) };
        let triples = vec![Triple::new(0, 1, 0), Triple::new(0, 1, 0)];
        let filter: TripleStore = triples.iter().copied().collect();
        let (raw, _, stats) = evaluate_with_stats(&s, &triples, &filter, &EvalConfig::default());
        assert_eq!(raw.num_queries, 4);
        assert_eq!(stats.queries, 4);
    }

    #[test]
    fn presorted_rank_matches_generic_entry_point() {
        let scores = [5.0f32, 3.0, 9.0, 3.0, 7.0];
        let known = [EntityId(4), EntityId(2), EntityId(2), EntityId(0)];
        let mut sorted = known.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        for policy in [TiePolicy::Optimistic, TiePolicy::Average, TiePolicy::Pessimistic] {
            let generic = rank_triple_detailed(&scores, EntityId(1), &known, policy);
            let fast = rank_triple_detailed_presorted(&scores, EntityId(1), &sorted, policy);
            assert_eq!(generic, fast);
        }
    }

    #[test]
    fn blocked_evaluation_matches_manual_per_query_loop() {
        // The planner + score_block pipeline must reproduce exactly what a
        // naive per-triple loop over pointwise scores computes.
        let s = TableScorer {
            num_entities: 12,
            f: |h, t, r| ((h * 31 + t * 7 + r * 3) % 13) as f32 - 6.0,
        };
        let triples: Vec<Triple> =
            (0..9).map(|i| Triple::new(i % 4, (i * 3 + 1) % 12, i % 2)).collect();
        let filter: TripleStore = triples.iter().copied().collect();
        let config = EvalConfig::default();
        let (raw, filt, _) = evaluate_with_stats(&s, &triples, &filter, &config);

        let mut raw_ref = MetricsAccumulator::new(&config.hits_at);
        let mut filt_ref = MetricsAccumulator::new(&config.hits_at);
        let mut buf = vec![0.0f32; s.num_entities()];
        for t in &triples {
            for (e, slot) in buf.iter_mut().enumerate() {
                *slot = s.score(t.head, EntityId(e as u32), t.relation);
            }
            let obs =
                rank_triple_detailed(&buf, t.tail, filter.tails_of(t.head, t.relation), config.tie_policy);
            raw_ref.push(t.relation, Side::Tail, obs.pair.raw);
            filt_ref.push(t.relation, Side::Tail, obs.pair.filtered);
            for (e, slot) in buf.iter_mut().enumerate() {
                *slot = s.score(EntityId(e as u32), t.tail, t.relation);
            }
            let obs =
                rank_triple_detailed(&buf, t.head, filter.heads_of(t.tail, t.relation), config.tie_policy);
            raw_ref.push(t.relation, Side::Head, obs.pair.raw);
            filt_ref.push(t.relation, Side::Head, obs.pair.filtered);
        }
        let (raw_ref, filt_ref) = (raw_ref.finish(), filt_ref.finish());
        assert_eq!(raw.mrr.to_bits(), raw_ref.mrr.to_bits());
        assert_eq!(filt.mrr.to_bits(), filt_ref.mrr.to_bits());
        assert_eq!(raw.mr.to_bits(), raw_ref.mr.to_bits());
        assert_eq!(filt.hits, filt_ref.hits);
        assert_eq!(filt.per_relation_mrr, filt_ref.per_relation_mrr);
    }

    #[test]
    fn detailed_rank_reports_tie_counts() {
        let scores = [5.0f32, 3.0, 9.0, 3.0, 3.0];
        let obs = rank_triple_detailed(&scores, EntityId(1), &[], TiePolicy::Average);
        assert_eq!(obs.tied, 2);
        assert_eq!(obs.filtered_tied, 2);
        // Filtering out one tied competitor drops the tie count.
        let obs = rank_triple_detailed(&scores, EntityId(1), &[EntityId(3)], TiePolicy::Average);
        assert_eq!(obs.tied, 2);
        assert_eq!(obs.filtered_tied, 1);
        assert_eq!(obs.pair.filtered, obs.pair.raw - 0.5);
    }
}
