//! Typed records emitted by instrumented train/eval loops.
//!
//! Each record serializes to one self-describing JSON object (a `"type"`
//! tag plus flat fields) and parses back losslessly, so JSONL run logs
//! can be consumed by external tooling or re-loaded for regression
//! checks. Field order is fixed, making serialized records byte-stable
//! across runs — the determinism tests compare raw lines.

use crate::json::{build, parse, JsonValue};

/// Wall-clock seconds spent in each training phase during one epoch.
///
/// The phase meanings depend on the training mode. On the
/// negative-sampling path, `forward` covers the fused forward+backward
/// example pass (scores and per-example gradients are produced
/// together), so `backward` stays 0 — its work is folded into
/// `forward`/`merge`. In k-vs-all mode the passes are separate GEMMs:
/// `forward` is the group-vs-all-entities scoring GEMM plus the softmax
/// residual, `backward` is the two GEMM-shaped gradient passes
/// (residual × entity table, residualᵀ × contexts). `merge` is the
/// deterministic cross-chunk gradient combine in both modes.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PhaseBreakdown {
    /// Negative sampling / batch materialization (k-vs-all: batch
    /// grouping and target lookup).
    pub sampling: f64,
    /// Fused forward + per-example gradient pass (k-vs-all: the scoring
    /// GEMM + softmax-CE residual).
    pub forward: f64,
    /// Cross-chunk gradient merge.
    pub merge: f64,
    /// Negative sampling: 0 (the backward work is fused into `forward`).
    /// K-vs-all: the two GEMM backward passes.
    pub backward: f64,
    /// Optimizer row updates.
    pub step: f64,
    /// Entity renormalization / projection. 0: the fused optimizer tail
    /// projects each entity row right after its update, timed as `step`.
    pub project: f64,
}

impl PhaseBreakdown {
    /// Total seconds across all phases.
    pub fn total(&self) -> f64 {
        self.sampling + self.forward + self.merge + self.backward + self.step + self.project
    }

    fn to_json_value(self) -> JsonValue {
        build::obj([
            ("sampling", build::num(self.sampling)),
            ("forward", build::num(self.forward)),
            ("merge", build::num(self.merge)),
            ("backward", build::num(self.backward)),
            ("step", build::num(self.step)),
            ("project", build::num(self.project)),
        ])
    }

    fn from_json_value(v: &JsonValue) -> Option<Self> {
        Some(PhaseBreakdown {
            sampling: v.get("sampling")?.as_f64()?,
            forward: v.get("forward")?.as_f64()?,
            merge: v.get("merge")?.as_f64()?,
            backward: v.get("backward")?.as_f64()?,
            step: v.get("step")?.as_f64()?,
            project: v.get("project")?.as_f64()?,
        })
    }
}

/// Per-epoch training telemetry.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EpochRecord {
    /// Zero-based epoch index.
    pub epoch: usize,
    /// Mean per-example loss over the epoch.
    pub mean_loss: f64,
    /// Examples (positive + negative) processed this epoch.
    pub examples: usize,
    /// Examples per wall-clock second.
    pub examples_per_sec: f64,
    /// Positive (training) triples per wall-clock second — the
    /// throughput number BENCH_train.json and the paper's protocol care
    /// about; `examples_per_sec / (1 + negatives_per_positive)`.
    pub triples_per_sec: f64,
    /// L2 norm of the summed entity/relation gradients, when tracked.
    pub grad_norm: Option<f64>,
    /// Learning rate in effect this epoch.
    pub learning_rate: f64,
    /// Phase timing breakdown.
    pub phases: PhaseBreakdown,
    /// Best validation epoch so far (early stopping state).
    pub best_epoch: Option<usize>,
    /// Best validation MRR so far.
    pub best_valid_mrr: Option<f64>,
    /// Eval rounds since the best epoch.
    pub evals_since_improvement: usize,
    /// Wall-clock seconds for the whole epoch.
    pub wall_secs: f64,
}

fn opt_num(v: Option<f64>) -> JsonValue {
    match v {
        Some(n) => build::num(n),
        None => JsonValue::Null,
    }
}

fn opt_int(v: Option<usize>) -> JsonValue {
    match v {
        Some(n) => build::int(n),
        None => JsonValue::Null,
    }
}

impl EpochRecord {
    /// Serializes to one compact JSON object.
    pub fn to_json(&self) -> String {
        build::obj([
            ("type", build::str("epoch")),
            ("epoch", build::int(self.epoch)),
            ("mean_loss", build::num(self.mean_loss)),
            ("examples", build::int(self.examples)),
            ("examples_per_sec", build::num(self.examples_per_sec)),
            ("triples_per_sec", build::num(self.triples_per_sec)),
            ("grad_norm", opt_num(self.grad_norm)),
            ("learning_rate", build::num(self.learning_rate)),
            ("phases", self.phases.to_json_value()),
            ("best_epoch", opt_int(self.best_epoch)),
            ("best_valid_mrr", opt_num(self.best_valid_mrr)),
            ("evals_since_improvement", build::int(self.evals_since_improvement)),
            ("wall_secs", build::num(self.wall_secs)),
        ])
        .to_json()
    }

    /// Parses a record serialized by [`EpochRecord::to_json`].
    pub fn from_json(text: &str) -> Result<Self, String> {
        let v = parse(text)?;
        if v.get("type").and_then(JsonValue::as_str) != Some("epoch") {
            return Err("not an epoch record".into());
        }
        let field = |name: &str| v.get(name).ok_or_else(|| format!("missing field {name:?}"));
        Ok(EpochRecord {
            epoch: field("epoch")?.as_usize().ok_or("epoch not an integer")?,
            mean_loss: field("mean_loss")?.as_f64().ok_or("mean_loss not a number")?,
            examples: field("examples")?.as_usize().ok_or("examples not an integer")?,
            examples_per_sec: field("examples_per_sec")?
                .as_f64()
                .ok_or("examples_per_sec not a number")?,
            triples_per_sec: field("triples_per_sec")?
                .as_f64()
                .ok_or("triples_per_sec not a number")?,
            grad_norm: field("grad_norm")?.as_f64(),
            learning_rate: field("learning_rate")?.as_f64().ok_or("learning_rate not a number")?,
            phases: PhaseBreakdown::from_json_value(field("phases")?)
                .ok_or("phases malformed")?,
            best_epoch: field("best_epoch")?.as_usize(),
            best_valid_mrr: field("best_valid_mrr")?.as_f64(),
            evals_since_improvement: field("evals_since_improvement")?
                .as_usize()
                .ok_or("evals_since_improvement not an integer")?,
            wall_secs: field("wall_secs")?.as_f64().ok_or("wall_secs not a number")?,
        })
    }
}

/// A histogram of ranks bucketed at the cut-offs standard KGE metrics
/// care about: 1, 3, 10, 100, and everything above.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RankHistogram {
    /// Counts for rank ≤ 1, ≤ 3, ≤ 10, ≤ 100, > 100.
    pub buckets: [u64; 5],
}

impl RankHistogram {
    /// Bucket upper bounds (the last bucket is unbounded).
    pub const BOUNDS: [f64; 4] = [1.0, 3.0, 10.0, 100.0];

    /// Records one rank.
    pub fn record(&mut self, rank: f64) {
        let idx = Self::BOUNDS.iter().position(|b| rank <= *b).unwrap_or(4);
        self.buckets[idx] += 1;
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &RankHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
    }

    /// Total ranks recorded.
    pub fn total(&self) -> u64 {
        self.buckets.iter().sum()
    }

    fn to_json_value(self) -> JsonValue {
        build::ints(self.buckets)
    }

    fn from_json_value(v: &JsonValue) -> Option<Self> {
        let arr = v.as_arr()?;
        if arr.len() != 5 {
            return None;
        }
        let mut buckets = [0u64; 5];
        for (slot, item) in buckets.iter_mut().zip(arr) {
            *slot = item.as_usize()? as u64;
        }
        Some(RankHistogram { buckets })
    }
}

/// One evaluation pass's telemetry.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EvalRecord {
    /// Epoch the evaluation ran after (or 0 for standalone eval).
    pub epoch: usize,
    /// Which split was evaluated ("valid", "test", ...).
    pub split: String,
    /// Ranking queries answered (2 per triple: head-side + tail-side).
    pub queries: usize,
    /// Queries per wall-clock second.
    pub queries_per_sec: f64,
    /// Filtered MRR across both sides.
    pub mrr: f64,
    /// Filtered MRR over head-replacement queries only.
    pub mrr_head_side: f64,
    /// Filtered MRR over tail-replacement queries only.
    pub mrr_tail_side: f64,
    /// Fraction of queries whose true entity tied with ≥1 other candidate
    /// under the active tie policy's comparison.
    pub tie_rate: f64,
    /// Tie policy in effect ("optimistic" | "pessimistic" | "average").
    pub tie_policy: String,
    /// Head-side filtered rank distribution.
    pub head_ranks: RankHistogram,
    /// Tail-side filtered rank distribution.
    pub tail_ranks: RankHistogram,
    /// Wall-clock seconds for the evaluation pass.
    pub wall_secs: f64,
}

impl EvalRecord {
    /// Serializes to one compact JSON object.
    pub fn to_json(&self) -> String {
        build::obj([
            ("type", build::str("eval")),
            ("epoch", build::int(self.epoch)),
            ("split", build::str(self.split.clone())),
            ("queries", build::int(self.queries)),
            ("queries_per_sec", build::num(self.queries_per_sec)),
            ("mrr", build::num(self.mrr)),
            ("mrr_head_side", build::num(self.mrr_head_side)),
            ("mrr_tail_side", build::num(self.mrr_tail_side)),
            ("tie_rate", build::num(self.tie_rate)),
            ("tie_policy", build::str(self.tie_policy.clone())),
            ("head_ranks", self.head_ranks.to_json_value()),
            ("tail_ranks", self.tail_ranks.to_json_value()),
            ("wall_secs", build::num(self.wall_secs)),
        ])
        .to_json()
    }

    /// Parses a record serialized by [`EvalRecord::to_json`].
    pub fn from_json(text: &str) -> Result<Self, String> {
        let v = parse(text)?;
        if v.get("type").and_then(JsonValue::as_str) != Some("eval") {
            return Err("not an eval record".into());
        }
        let field = |name: &str| v.get(name).ok_or_else(|| format!("missing field {name:?}"));
        Ok(EvalRecord {
            epoch: field("epoch")?.as_usize().ok_or("epoch not an integer")?,
            split: field("split")?.as_str().ok_or("split not a string")?.to_owned(),
            queries: field("queries")?.as_usize().ok_or("queries not an integer")?,
            queries_per_sec: field("queries_per_sec")?
                .as_f64()
                .ok_or("queries_per_sec not a number")?,
            mrr: field("mrr")?.as_f64().ok_or("mrr not a number")?,
            mrr_head_side: field("mrr_head_side")?.as_f64().ok_or("mrr_head_side not a number")?,
            mrr_tail_side: field("mrr_tail_side")?.as_f64().ok_or("mrr_tail_side not a number")?,
            tie_rate: field("tie_rate")?.as_f64().ok_or("tie_rate not a number")?,
            tie_policy: field("tie_policy")?.as_str().ok_or("tie_policy not a string")?.to_owned(),
            head_ranks: RankHistogram::from_json_value(field("head_ranks")?)
                .ok_or("head_ranks malformed")?,
            tail_ranks: RankHistogram::from_json_value(field("tail_ranks")?)
                .ok_or("tail_ranks malformed")?,
            wall_secs: field("wall_secs")?.as_f64().ok_or("wall_secs not a number")?,
        })
    }
}

/// End-of-run summary.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunSummary {
    /// Epochs actually trained (may be fewer than configured when early
    /// stopping fires).
    pub epochs_run: usize,
    /// Whether early stopping ended the run.
    pub stopped_early: bool,
    /// Best validation epoch, when validation ran.
    pub best_epoch: Option<usize>,
    /// Best validation MRR, when validation ran.
    pub best_valid_mrr: Option<f64>,
    /// Total wall-clock seconds of the run.
    pub wall_secs: f64,
}

impl RunSummary {
    /// Serializes to one compact JSON object.
    pub fn to_json(&self) -> String {
        build::obj([
            ("type", build::str("run_end")),
            ("epochs_run", build::int(self.epochs_run)),
            ("stopped_early", JsonValue::Bool(self.stopped_early)),
            ("best_epoch", opt_int(self.best_epoch)),
            ("best_valid_mrr", opt_num(self.best_valid_mrr)),
            ("wall_secs", build::num(self.wall_secs)),
        ])
        .to_json()
    }

    /// Parses a record serialized by [`RunSummary::to_json`].
    pub fn from_json(text: &str) -> Result<Self, String> {
        let v = parse(text)?;
        if v.get("type").and_then(JsonValue::as_str) != Some("run_end") {
            return Err("not a run_end record".into());
        }
        let field = |name: &str| v.get(name).ok_or_else(|| format!("missing field {name:?}"));
        Ok(RunSummary {
            epochs_run: field("epochs_run")?.as_usize().ok_or("epochs_run not an integer")?,
            stopped_early: matches!(field("stopped_early")?, JsonValue::Bool(true)),
            best_epoch: field("best_epoch")?.as_usize(),
            best_valid_mrr: field("best_valid_mrr")?.as_f64(),
            wall_secs: field("wall_secs")?.as_f64().ok_or("wall_secs not a number")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_epoch() -> EpochRecord {
        EpochRecord {
            epoch: 12,
            mean_loss: 0.3271,
            examples: 6400,
            examples_per_sec: 12873.5,
            triples_per_sec: 6436.75,
            grad_norm: Some(4.25),
            learning_rate: 0.05,
            phases: PhaseBreakdown {
                sampling: 0.01,
                forward: 0.2,
                merge: 0.02,
                backward: 0.05,
                step: 0.03,
                project: 0.004,
            },
            best_epoch: Some(10),
            best_valid_mrr: Some(0.812),
            evals_since_improvement: 1,
            wall_secs: 0.31,
        }
    }

    #[test]
    fn epoch_record_round_trips() {
        let rec = sample_epoch();
        let text = rec.to_json();
        assert_eq!(EpochRecord::from_json(&text).unwrap(), rec);
    }

    #[test]
    fn epoch_record_optionals_round_trip_as_null() {
        let rec = EpochRecord { grad_norm: None, best_epoch: None, ..sample_epoch() };
        let text = rec.to_json();
        assert!(text.contains("\"grad_norm\":null"));
        assert_eq!(EpochRecord::from_json(&text).unwrap(), rec);
    }

    #[test]
    fn eval_record_round_trips() {
        let mut head_ranks = RankHistogram::default();
        let mut tail_ranks = RankHistogram::default();
        for r in [1.0, 2.0, 7.0, 200.0] {
            head_ranks.record(r);
        }
        tail_ranks.record(1.0);
        let rec = EvalRecord {
            epoch: 40,
            split: "valid".into(),
            queries: 512,
            queries_per_sec: 9000.0,
            mrr: 0.71,
            mrr_head_side: 0.66,
            mrr_tail_side: 0.76,
            tie_rate: 0.015,
            tie_policy: "average".into(),
            head_ranks,
            tail_ranks,
            wall_secs: 0.056,
        };
        let text = rec.to_json();
        assert_eq!(EvalRecord::from_json(&text).unwrap(), rec);
    }

    #[test]
    fn run_summary_round_trips() {
        let rec = RunSummary {
            epochs_run: 87,
            stopped_early: true,
            best_epoch: Some(62),
            best_valid_mrr: Some(0.834),
            wall_secs: 42.7,
        };
        assert_eq!(RunSummary::from_json(&rec.to_json()).unwrap(), rec);
    }

    #[test]
    fn rank_histogram_buckets_at_standard_cutoffs() {
        let mut h = RankHistogram::default();
        for r in [1.0, 1.0, 2.0, 3.0, 4.0, 10.0, 11.0, 100.0, 101.0, 5000.0] {
            h.record(r);
        }
        assert_eq!(h.buckets, [2, 2, 2, 2, 2]);
        assert_eq!(h.total(), 10);
        let mut merged = RankHistogram::default();
        merged.merge(&h);
        merged.merge(&h);
        assert_eq!(merged.total(), 20);
    }

    #[test]
    fn records_reject_wrong_type_tag() {
        let epoch_text = sample_epoch().to_json();
        assert!(EvalRecord::from_json(&epoch_text).is_err());
        assert!(RunSummary::from_json(&epoch_text).is_err());
        assert!(EpochRecord::from_json("{}").is_err());
    }

    #[test]
    fn serialization_is_byte_stable() {
        assert_eq!(sample_epoch().to_json(), sample_epoch().to_json());
    }
}
