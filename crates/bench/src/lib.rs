//! Shared harness code for the `repro` binary: the paper's tables and the
//! measurements behind the checked-in `BENCH_*.json` files.
//!
//! The functions here encapsulate the paper's experimental protocol (§5):
//! build a model for a table row, train it with the Eq. 16 stack, and
//! evaluate filtered MRR / Hit@{1,3,10} on test *and* on a training-set
//! sample (the "on train" rows of Tables 2 and 4 that expose CP's
//! overfitting).
//!
//! # Example
//!
//! The protocol fixes the §5.3 parameter-parity budget `n·D` so every
//! model spends the same number of embedding parameters per item:
//!
//! ```
//! use mei_bench::Protocol;
//!
//! let p = Protocol::full(); // the paper's WN18-scale settings
//! assert_eq!(p.budget, 400);
//! assert_eq!(p.dim_for(1), 400); // DistMult-style, 1 embedding
//! assert_eq!(p.dim_for(2), 200); // ComplEx/CP, 2 embeddings
//! assert_eq!(p.dim_for(4), 100); // quaternion, 4 embeddings
//! ```

#![warn(missing_docs)]

pub mod kernels;

use std::fmt;
use std::sync::Arc;

use mei_core::regularizer::DirichletRegularizer;
use mei_core::{ModelConfig, WeightRestriction};
use mei_core::{
    BlockTermShape, LossKind, MultiEmbedModel, SamplingStrategy, TrainConfig, Trainer,
    WeightPreset, WeightVector,
};
use mei_eval::ranking::{evaluate_filtered, evaluate_with_stats, top_k_reference};
use mei_eval::{BlockQuery, EvalConfig, LinkPredictionResults, Side, TripleScorer};
use mei_kg::{AugmentedDataset, Dataset, TripleStore};
use mei_obs::json::build as json;
use mei_obs::{EpochRecord, EvalRecord, JsonValue, MetricsRegistry, TrainObserver};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One row of a results table.
#[derive(Debug, Clone)]
pub struct TableRow {
    /// Row label, matching the paper's wording.
    pub label: String,
    /// The ω tuple printed next to the label (when applicable).
    pub weights: Option<Vec<f32>>,
    /// Filtered metrics on the test split.
    pub test: LinkPredictionResults,
    /// Filtered metrics on a training sample ("on train" rows), when
    /// requested.
    pub train: Option<LinkPredictionResults>,
}

impl TableRow {
    /// Formats the row like the paper's tables.
    pub fn format(&self) -> String {
        let w = self
            .weights
            .as_ref()
            .map(|ws| {
                let inner: Vec<String> = ws.iter().map(|v| format!("{}", *v as i64)).collect();
                format!("({})", inner.join(", "))
            })
            .unwrap_or_default();
        let mut s = format!(
            "{:<34} {:<28} {:>6.3} {:>6.3} {:>6.3} {:>6.3}",
            self.label,
            w,
            self.test.mrr,
            self.test.hits_at(1).unwrap_or(0.0),
            self.test.hits_at(3).unwrap_or(0.0),
            self.test.hits_at(10).unwrap_or(0.0),
        );
        if let Some(tr) = &self.train {
            s.push_str(&format!(
                "\n{:<34} {:<28} {:>6.3} {:>6.3} {:>6.3} {:>6.3}",
                format!("{} on train", self.label),
                "",
                tr.mrr,
                tr.hits_at(1).unwrap_or(0.0),
                tr.hits_at(3).unwrap_or(0.0),
                tr.hits_at(10).unwrap_or(0.0),
            ));
        }
        s
    }
}

/// Experiment-wide settings shared by all table rows.
#[derive(Clone)]
pub struct Protocol {
    /// Total embedding budget per item: `n·D` is held constant across
    /// models (§5.3's parameter parity: the paper uses 400 = 1×400 = 2×200
    /// = 4×100).
    pub budget: usize,
    /// Training hyperparameters.
    pub train: TrainConfig,
    /// Size of the training sample used for "on train" rows (the paper
    /// evaluates on training data; sampling keeps that tractable).
    pub train_eval_sample: usize,
    /// Base RNG seed.
    pub seed: u64,
    /// Observer attached to every training run (phase profiling, JSONL
    /// metrics). `None` keeps the runs unobserved.
    pub observer: Option<Arc<dyn TrainObserver>>,
}

impl fmt::Debug for Protocol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Protocol")
            .field("budget", &self.budget)
            .field("train", &self.train)
            .field("train_eval_sample", &self.train_eval_sample)
            .field("seed", &self.seed)
            .field("observer", &self.observer.as_ref().map(|_| "<dyn TrainObserver>"))
            .finish()
    }
}

impl Protocol {
    /// A fast protocol for the Small SynthWN scale.
    pub fn small() -> Self {
        Self {
            budget: 256,
            train: TrainConfig {
                max_epochs: 1000,
                batch_size: 2048,
                learning_rate: 1e-2,
                l2_lambda: 1e-3,
                eval_every: 50,
                patience: 100,
                verbose: std::env::var_os("MEI_VERBOSE").is_some(),
                ..TrainConfig::default()
            },
            train_eval_sample: 2000,
            seed: 0,
            observer: None,
        }
    }

    /// The paper's WN18-scale protocol (slower; for `--scale full`).
    pub fn full() -> Self {
        Self {
            budget: 400,
            train: TrainConfig {
                max_epochs: 1000,
                batch_size: 4096,
                learning_rate: 1e-3,
                l2_lambda: 1e-3,
                eval_every: 50,
                patience: 100,
                verbose: std::env::var_os("MEI_VERBOSE").is_some(),
                ..TrainConfig::default()
            },
            train_eval_sample: 5000,
            seed: 0,
            observer: None,
        }
    }

    /// Per-embedding dimension for a model with `n` embeddings under the
    /// parity budget.
    pub fn dim_for(&self, n: usize) -> usize {
        (self.budget / n).max(1)
    }
}

/// Trainer for a protocol, with the protocol's observer (if any) attached.
fn trainer_for(train: TrainConfig, protocol: &Protocol) -> Trainer {
    let mut trainer = Trainer::new(train);
    if let Some(obs) = &protocol.observer {
        trainer = trainer.with_observer(Arc::clone(obs));
    }
    trainer
}

/// The six trainer phases, in pipeline order.
const PHASES: [&str; 6] = ["sampling", "forward", "merge", "backward", "step", "project"];

/// Per-epoch phase seconds land in these histogram buckets.
const PHASE_BUCKETS: [f64; 6] = [1e-4, 1e-3, 1e-2, 0.1, 1.0, 10.0];

/// Aggregates the trainer's per-epoch [`mei_obs::PhaseBreakdown`]s across
/// every run of a `repro` invocation, backed by a [`MetricsRegistry`].
/// Attach via [`Protocol::observer`]; read back with [`PhaseProfiler::report`]
/// or inspect the raw registry.
#[derive(Default)]
pub struct PhaseProfiler {
    registry: MetricsRegistry,
}

impl PhaseProfiler {
    /// An empty profiler.
    pub fn new() -> Self {
        Self::default()
    }

    /// The backing registry (phase histograms plus run/epoch/example
    /// counters), e.g. for a JSON snapshot.
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    fn phase_histogram(&self, name: &str) -> std::sync::Arc<mei_obs::Histogram> {
        self.registry.histogram(&format!("phase_secs/{name}"), &PHASE_BUCKETS)
    }

    /// Formats the accumulated phase breakdown: total seconds and share of
    /// instrumented time per phase, plus run/epoch/eval totals.
    pub fn report(&self) -> String {
        let epochs = self.registry.counter("epochs").get();
        if epochs == 0 {
            return "phase breakdown: no instrumented training ran".to_owned();
        }
        let totals: Vec<(&str, f64)> =
            PHASES.iter().map(|p| (*p, self.phase_histogram(p).sum())).collect();
        let instrumented: f64 = totals.iter().map(|(_, s)| s).sum();
        let mut out = format!(
            "phase breakdown ({} run(s), {epochs} epoch(s), {} example(s)):\n",
            self.registry.counter("runs").get(),
            self.registry.counter("examples").get(),
        );
        for (name, secs) in totals {
            let share = if instrumented > 0.0 { 100.0 * secs / instrumented } else { 0.0 };
            out.push_str(&format!("  {name:<10} {secs:>9.3}s  ({share:>5.1}%)\n"));
        }
        out.push_str(&format!("  {:<10} {instrumented:>9.3}s", "total"));
        let queries = self.registry.counter("eval_queries").get();
        if queries > 0 {
            out.push_str(&format!(
                "\n  in-training eval: {queries} queries in {:.3}s",
                self.registry.histogram("eval_secs", &PHASE_BUCKETS).sum()
            ));
        }
        out
    }
}

impl TrainObserver for PhaseProfiler {
    fn on_epoch(&self, record: &EpochRecord) {
        let p = &record.phases;
        for (name, secs) in PHASES
            .iter()
            .zip([p.sampling, p.forward, p.merge, p.backward, p.step, p.project])
        {
            self.phase_histogram(name).observe(secs);
        }
        self.registry.counter("epochs").inc();
        self.registry.counter("examples").add(record.examples as u64);
    }

    fn on_eval(&self, record: &EvalRecord) {
        self.registry.counter("eval_queries").add(record.queries as u64);
        self.registry.histogram("eval_secs", &PHASE_BUCKETS).observe(record.wall_secs);
    }

    fn on_run_end(&self, _record: &mei_obs::RunSummary) {
        self.registry.counter("runs").inc();
    }
}

/// Deterministically samples `k` training triples for "on train"
/// evaluation.
pub fn train_sample(dataset: &Dataset, k: usize) -> Vec<mei_kg::Triple> {
    let n = dataset.train.len();
    if n <= k {
        return dataset.train.clone();
    }
    let step = n / k;
    dataset.train.iter().step_by(step.max(1)).take(k).copied().collect()
}

/// Trains a fixed-ω model and evaluates it (test + optional train rows).
///
/// `dataset` is what the model trains on (possibly augmented);
/// `eval_dataset` supplies the test split and train-sample (always the
/// original).
#[allow(clippy::too_many_arguments)]
pub fn run_fixed_weights(
    label: &str,
    omega: WeightVector,
    n: usize,
    dataset: &Dataset,
    eval_dataset: &Dataset,
    filter: &TripleStore,
    protocol: &Protocol,
    with_train_eval: bool,
) -> TableRow {
    let mut rng = StdRng::seed_from_u64(protocol.seed);
    let cfg = ModelConfig {
        num_entities: dataset.num_entities(),
        num_relations: dataset.num_relations(),
        n,
        dim: protocol.dim_for(n),
    };
    let weights_tuple = if omega.dense().len() == 8 { Some(omega.dense().to_vec()) } else { None };
    let mut model = MultiEmbedModel::with_fixed_weights(cfg, omega, &mut rng);
    trainer_for(protocol.train.clone(), protocol).train(&mut model, dataset, filter);
    finish_row(label, weights_tuple, model, eval_dataset, filter, protocol, with_train_eval)
}

/// Trains a learned-ω model (Table 3 rows); returns the row and the
/// learned effective ω.
pub fn run_learned_weights(
    label: &str,
    restriction: WeightRestriction,
    dirichlet: Option<DirichletRegularizer>,
    dataset: &Dataset,
    filter: &TripleStore,
    protocol: &Protocol,
) -> (TableRow, Vec<f32>) {
    let mut rng = StdRng::seed_from_u64(protocol.seed);
    let cfg = ModelConfig {
        num_entities: dataset.num_entities(),
        num_relations: dataset.num_relations(),
        n: 2,
        dim: protocol.dim_for(2),
    };
    let mut model = MultiEmbedModel::with_learned_weights(cfg, restriction, 0.1, &mut rng);
    let mut train_cfg = protocol.train.clone();
    train_cfg.dirichlet = dirichlet;
    trainer_for(train_cfg, protocol).train(&mut model, dataset, filter);
    let learned = model.omega().dense().to_vec();
    let row = finish_row(label, None, model, dataset, filter, protocol, false);
    (row, learned)
}

/// Runs a Table-1/2/4 preset: handles CPh's data augmentation (the preset
/// trains CP's score on the augmented dataset, per Eq. 7/11) and parameter
/// parity. `with_train_eval` adds the "on train" row.
pub fn run_preset(
    preset: WeightPreset,
    dataset: &Dataset,
    protocol: &Protocol,
    with_train_eval: bool,
) -> TableRow {
    // All presets — including CPh — train as their ω form on the original
    // dataset. For CPh, ω = (0,0,1,0,0,1,0,0) realizes Eq. 11: the score
    // sums the forward CP term and the inverse term with r⁽²⁾ playing the
    // role of the augmented relation r⁽ᵃ⁾; this is exactly how Table 2
    // treats it. (The literal data-augmentation variant of Eq. 7 is
    // available separately via [`run_cph_augmented`].)
    let (n, omega) = preset.effective_interaction();
    let filter = dataset.filter_store();
    let mut row = run_fixed_weights(
        preset.name(),
        omega,
        n,
        dataset,
        dataset,
        &filter,
        protocol,
        with_train_eval,
    );
    if preset.n() == 2 {
        row.weights = Some(preset.omega());
    }
    row
}

/// A scorer that combines a CP model trained on an inverse-augmented
/// vocabulary: `S(h,t,r) = S_cp(h,t,r) + S_cp(t,h,r⁽ᵃ⁾)` — the evaluation
/// counterpart of Eq. 7's data augmentation (Lacroix et al.'s reciprocal
/// trick).
pub struct ReciprocalScorer<'a> {
    model: &'a MultiEmbedModel,
    original_num_relations: usize,
}

impl TripleScorer for ReciprocalScorer<'_> {
    fn num_entities(&self) -> usize {
        self.model.num_entities()
    }

    fn score(
        &self,
        head: mei_kg::EntityId,
        tail: mei_kg::EntityId,
        relation: mei_kg::RelationId,
    ) -> f32 {
        let inv = mei_kg::RelationId(relation.0 + self.original_num_relations as u32);
        self.model.score(head, tail, relation) + self.model.score(tail, head, inv)
    }

    fn score_block(&self, queries: &[BlockQuery], out: &mut [f32]) {
        // Forward CP pass, blocked through the model's GEMM path.
        self.model.score_block(queries, out);
        // Inverse pass: S_cp(t', h, r⁽ᵃ⁾) over all t' is the head ranking
        // of (?, h, r⁽ᵃ⁾), so flipping the replaced side scores the same
        // candidates under r⁽ᵃ⁾ and both passes stay blocked.
        let inverse: Vec<BlockQuery> = queries
            .iter()
            .map(|q| {
                let inv = mei_kg::RelationId(q.relation.0 + self.original_num_relations as u32);
                match q.side {
                    Side::Tail => BlockQuery::heads(q.anchor, inv),
                    Side::Head => BlockQuery::tails(q.anchor, inv),
                }
            })
            .collect();
        let mut extra = vec![0.0f32; out.len()];
        self.model.score_block(&inverse, &mut extra);
        for (o, e) in out.iter_mut().zip(&extra) {
            *o += e;
        }
    }
}

impl<'a> ReciprocalScorer<'a> {
    /// Wraps a CP model trained on the inverse-augmented vocabulary;
    /// `original_num_relations` is the relation count before augmentation.
    pub fn new(model: &'a MultiEmbedModel, original_num_relations: usize) -> Self {
        Self { model, original_num_relations }
    }
}

/// Measures link-prediction ranking throughput of the blocked GEMM
/// pipeline on `dataset` with a seeded random ComplEx model at budget
/// `n·D`. That blocked and per-query scoring agree bit for bit is checked
/// by `tests/blocked_eval.rs`, not here.
///
/// `limit` caps the evaluated test triples (0 = all). The returned object
/// is the `BENCH_eval.json` artifact written by `repro bench-eval`.
pub fn bench_eval_throughput(dataset: &Dataset, budget: usize, seed: u64, limit: usize) -> JsonValue {
    let filter = dataset.filter_store();
    let triples: &[mei_kg::Triple] = if limit > 0 && limit < dataset.test.len() {
        &dataset.test[..limit]
    } else {
        &dataset.test
    };
    let cfg = ModelConfig {
        num_entities: dataset.num_entities(),
        num_relations: dataset.num_relations(),
        n: 2,
        dim: (budget / 2).max(1),
    };
    let mut rng = StdRng::seed_from_u64(seed);
    let model = MultiEmbedModel::with_fixed_weights(cfg, WeightPreset::ComplEx.weight_vector(), &mut rng);
    let (_, filt, stats) = evaluate_with_stats(&model, triples, &filter, &EvalConfig::default());
    json::obj([
        ("bench", json::str("eval_throughput")),
        ("num_entities", json::int(dataset.num_entities())),
        ("embedding_budget_nd", json::int(budget)),
        ("test_triples", json::int(triples.len())),
        ("seed", json::int(seed as usize)),
        (
            "blocked_gemm",
            json::obj([
                ("queries", json::int(stats.queries)),
                ("wall_secs", json::num(stats.wall_secs)),
                ("queries_per_sec", json::num(stats.queries_per_sec)),
                ("filtered_mrr", json::num(filt.mrr)),
            ]),
        ),
    ])
}

/// Collects every [`EpochRecord`] a training run emits, so the bench can
/// read phase timings and throughput off the same records JSONL carries.
#[derive(Default)]
struct RecordingObserver {
    records: std::sync::Mutex<Vec<EpochRecord>>,
}

impl TrainObserver for RecordingObserver {
    fn on_epoch(&self, record: &EpochRecord) {
        self.records.lock().expect("record lock").push(record.clone());
    }
}

/// One training-throughput arm: final parameters plus the per-epoch
/// records the arm's observer captured.
struct TrainArm {
    records: Vec<EpochRecord>,
    wall_secs: f64,
    entities: Vec<f32>,
    relations: Vec<f32>,
    omega: Vec<f32>,
    /// Flat interaction-norm state (`[γ | β | mean | var]`), empty when
    /// the model trains without batch norm.
    norm: Vec<f32>,
}

impl TrainArm {
    /// Train triples per second through the gradient machinery alone
    /// (forward + merge + backward phase seconds), isolated from
    /// sampling/step/project.
    fn grad_triples_per_sec(&self, negatives: usize) -> f64 {
        let positives: usize =
            self.records.iter().map(|r| r.examples / (1 + negatives)).sum();
        let grad_secs: f64 = self
            .records
            .iter()
            .map(|r| r.phases.forward + r.phases.merge + r.phases.backward)
            .sum();
        positives as f64 / grad_secs.max(f64::MIN_POSITIVE)
    }

    /// End-to-end positives per second (whole epochs, all phases).
    fn epoch_triples_per_sec(&self, negatives: usize) -> f64 {
        let positives: usize =
            self.records.iter().map(|r| r.examples / (1 + negatives)).sum();
        let wall: f64 = self.records.iter().map(|r| r.wall_secs).sum();
        positives as f64 / wall.max(f64::MIN_POSITIVE)
    }

    /// Per-phase seconds summed over the arm's epochs.
    fn phase_secs(&self) -> JsonValue {
        let sum = |f: fn(&mei_obs::PhaseBreakdown) -> f64| {
            json::num(self.records.iter().map(|r| f(&r.phases)).sum::<f64>())
        };
        json::obj([
            ("sampling", sum(|p| p.sampling)),
            ("forward", sum(|p| p.forward)),
            ("merge", sum(|p| p.merge)),
            ("backward", sum(|p| p.backward)),
            ("step", sum(|p| p.step)),
            ("project", sum(|p| p.project)),
        ])
    }

    fn report(&self, negatives: usize) -> JsonValue {
        json::obj([
            ("epochs", json::int(self.records.len())),
            ("wall_secs", json::num(self.wall_secs)),
            ("triples_per_sec_grad", json::num(self.grad_triples_per_sec(negatives))),
            ("triples_per_sec_epoch", json::num(self.epoch_triples_per_sec(negatives))),
            ("phase_secs", self.phase_secs()),
        ])
    }
}

/// The model every training-bench arm shares: fixed-ω ComplEx, `n` = 2,
/// deterministically seeded — so independently built arms (and the
/// kill-and-resume victim) start from bit-identical parameters.
fn arm_model(dataset: &Dataset, dim: usize, seed: u64) -> MultiEmbedModel {
    let cfg = ModelConfig {
        num_entities: dataset.num_entities(),
        num_relations: dataset.num_relations(),
        n: 2,
        dim,
    };
    let mut rng = StdRng::seed_from_u64(seed);
    MultiEmbedModel::with_fixed_weights(cfg, WeightPreset::ComplEx.weight_vector(), &mut rng)
}

/// Trains one arm with `threads` workers and snapshots the final
/// parameters.
fn run_train_arm(
    dataset: &Dataset,
    train: &TrainConfig,
    dim: usize,
    seed: u64,
    threads: usize,
) -> TrainArm {
    run_model_arm(dataset, train, arm_model(dataset, dim, seed), threads)
}

/// Trains one arm on a caller-supplied model (block-term arms build their
/// own) and snapshots the final parameters, including any norm state.
fn run_model_arm(
    dataset: &Dataset,
    train: &TrainConfig,
    mut model: MultiEmbedModel,
    threads: usize,
) -> TrainArm {
    let mut train = train.clone();
    train.threads = threads;
    let filter = dataset.filter_store();
    let observer = Arc::new(RecordingObserver::default());
    let trainer =
        Trainer::new(train).with_observer(Arc::clone(&observer) as Arc<dyn TrainObserver>);
    let t0 = std::time::Instant::now();
    trainer.train(&mut model, dataset, &filter);
    let wall_secs = t0.elapsed().as_secs_f64();
    let records = std::mem::take(&mut *observer.records.lock().expect("record lock"));
    TrainArm {
        records,
        wall_secs,
        entities: model.entities.as_slice().to_vec(),
        relations: model.relations.as_slice().to_vec(),
        omega: model.omega().dense().to_vec(),
        norm: model.interaction_norm().map(|nrm| nrm.flat()).unwrap_or_default(),
    }
}

/// `a` and `b` are bitwise-identical f32 slices (NaN-safe, −0.0 ≠ +0.0).
fn bits_equal(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// The thread-scaling sweep every training arm shares: reruns the arm at
/// each worker count in `sweep` (count 1 reuses `base`, the 1-thread
/// run), asserts that its final parameters and norm state are
/// bit-identical to `base`'s — the deterministic parallel-schedule
/// contract (DESIGN.md §11) — and emits one row per count. `rates` gives
/// the arm's rate fields, which sit between `wall_secs` and `phase_secs`.
fn thread_sweep(
    what: &str,
    sweep: &[usize],
    base: &TrainArm,
    run: impl Fn(usize) -> TrainArm,
    rates: impl Fn(&TrainArm) -> Vec<(&'static str, JsonValue)>,
) -> JsonValue {
    let rows = sweep.iter().map(|&t| {
        let rerun = (t != 1).then(|| run(t));
        let arm = rerun.as_ref().unwrap_or(base);
        let parity = bits_equal(&arm.entities, &base.entities)
            && bits_equal(&arm.relations, &base.relations)
            && bits_equal(&arm.omega, &base.omega)
            && bits_equal(&arm.norm, &base.norm);
        assert!(
            parity,
            "{what} {t}-thread run diverged from the 1-thread run (params or norm state)"
        );
        let mut row = vec![("threads", json::int(t)), ("wall_secs", json::num(arm.wall_secs))];
        row.extend(rates(arm));
        row.push(("phase_secs", arm.phase_secs()));
        row.push(("final_params_bitwise_identical_to_1_thread", JsonValue::Bool(parity)));
        json::obj(row)
    });
    JsonValue::Arr(rows.collect())
}

/// Measures negative-sampling training throughput on `dataset` over
/// `epochs` full epochs (`dot_gather` forward + flat slot-indexed
/// gradient slabs with a parallel deterministic merge, then the fused
/// step/project tail): positives/sec through the gradient machinery
/// (forward + merge + backward phases) and through whole epochs. The
/// returned object is the `BENCH_train.json` artifact written by
/// `repro bench-train`.
///
/// `threads` lists worker counts for the thread-scaling sweep (empty picks
/// 1/2/4/8); each count reruns the blocked arm and asserts its final
/// parameters are bit-identical to the 1-thread run — the deterministic
/// parallel-schedule contract (DESIGN.md §11).
///
/// The artifact also carries a `"kvsall"` section — the k-vs-all
/// full-softmax trainer measured at the same dataset's full candidate
/// axis by [`bench_kvsall_throughput`] (DESIGN.md §12) — and a
/// `"block_term"` section — the regularized block-term MEI family
/// measured by [`bench_block_term_throughput`] (DESIGN.md §17).
pub fn bench_train_throughput(
    dataset: &Dataset,
    protocol: &Protocol,
    seed: u64,
    epochs: usize,
    threads: &[usize],
) -> JsonValue {
    let epochs = if epochs == 0 { 3 } else { epochs };
    let default_sweep = [1usize, 2, 4, 8];
    let sweep: &[usize] = if threads.is_empty() { &default_sweep } else { threads };
    // Strip the held-out splits: no in-training eval, so the arms measure
    // the train loop alone and the final parameters are the live ones.
    let mut bench_ds = dataset.clone();
    bench_ds.valid.clear();
    bench_ds.test.clear();

    let mut train = protocol.train.clone();
    train.max_epochs = epochs;
    train.eval_every = epochs + 1;
    train.negatives_per_positive = 1; // the paper's §5.3 setting
    train.checkpoint_every = 0;
    train.verbose = false;
    train.seed = seed;
    let dim = protocol.dim_for(2);

    let blocked = run_train_arm(&bench_ds, &train, dim, seed, 1);
    let negatives = train.negatives_per_positive;

    let thread_scaling = thread_sweep(
        "negative-sampling",
        sweep,
        &blocked,
        |t| run_train_arm(&bench_ds, &train, dim, seed, t),
        |arm| vec![("triples_per_sec_epoch", json::num(arm.epoch_triples_per_sec(negatives)))],
    );

    // The k-vs-all section: the same artifact also reports the
    // full-softmax trainer at the GEMM shape. Two epochs keep the
    // full-|E| arms affordable; the kvsall sweep pins threads {1, 2}.
    let kvsall = bench_kvsall_throughput(dataset, protocol, seed, 2, &[1, 2]);
    // The block-term section: the MEI family on the same shape with the
    // full regularizer stack (input dropout + batch norm + context
    // dropout) live, thread parity asserted in-bench (DESIGN.md §17).
    let block_term = bench_block_term_throughput(dataset, protocol, seed, 2, &[1, 2]);

    json::obj([
        ("bench", json::str("train_throughput")),
        ("num_entities", json::int(bench_ds.num_entities())),
        ("train_triples", json::int(bench_ds.train.len())),
        ("embedding_budget_nd", json::int(protocol.budget)),
        ("epochs", json::int(epochs)),
        ("batch_size", json::int(train.batch_size)),
        ("negatives_per_positive", json::int(negatives)),
        ("seed", json::int(seed as usize)),
        ("blocked_flat", blocked.report(negatives)),
        ("thread_scaling", thread_scaling),
        ("kvsall", kvsall),
        ("block_term", block_term),
        ("binary", binary_fingerprint()),
    ])
}

/// Caps the kvsall bench's training split: 1024 triples at batch 1024
/// give one full-width batch per epoch — every epoch is a handful of
/// (side, anchor, relation)-group GEMMs against all |E| candidates —
/// while bounding wall time at the |E| = 40k shape.
const KVSALL_TRAIN_CAP: usize = 1024;

/// The forward GEMM must clear this many multiples of the
/// negative-sampling path's effective per-candidate scoring rate at the
/// WN18 shape (the tentpole speedup contract).
const KVSALL_MIN_SPEEDUP: f64 = 3.0;

/// Candidate axes below this skip the speedup gate: sub-millisecond
/// phase timings on tiny CI shapes are too noisy to enforce a ratio,
/// though it is still recorded.
const KVSALL_SPEEDUP_GATE_MIN_ENTITIES: usize = 10_000;

/// Candidate-scoring rates of one kvsall arm. Every group is scored
/// against all |E| entities, so throughput is *candidate scores per
/// second*: groups × |E| divided into the forward GEMM phase and the two
/// backward GEMM passes (the cross-chunk merge is reported separately in
/// `phase_secs` but counted in the combined grad rate).
struct KvRates {
    groups: usize,
    candidate_scores: f64,
    forward_secs: f64,
    backward_secs: f64,
    merge_secs: f64,
}

impl KvRates {
    fn of(arm: &TrainArm, num_entities: usize) -> Self {
        let groups: usize = arm.records.iter().map(|r| r.examples).sum();
        let sum = |f: fn(&mei_obs::PhaseBreakdown) -> f64| {
            arm.records.iter().map(|r| f(&r.phases)).sum::<f64>()
        };
        KvRates {
            groups,
            candidate_scores: groups as f64 * num_entities as f64,
            forward_secs: sum(|p| p.forward),
            backward_secs: sum(|p| p.backward),
            merge_secs: sum(|p| p.merge),
        }
    }

    fn forward_per_sec(&self) -> f64 {
        self.candidate_scores / self.forward_secs.max(f64::MIN_POSITIVE)
    }

    fn backward_per_sec(&self) -> f64 {
        self.candidate_scores / self.backward_secs.max(f64::MIN_POSITIVE)
    }

    fn grad_per_sec(&self) -> f64 {
        let total = self.forward_secs + self.backward_secs + self.merge_secs;
        self.candidate_scores / total.max(f64::MIN_POSITIVE)
    }

    /// The rate fields of one k-vs-all thread-scaling row.
    fn sweep_fields(arm: &TrainArm, num_entities: usize) -> Vec<(&'static str, JsonValue)> {
        let r = KvRates::of(arm, num_entities);
        vec![
            ("forward_candidate_scores_per_sec", json::num(r.forward_per_sec())),
            ("backward_candidate_scores_per_sec", json::num(r.backward_per_sec())),
        ]
    }
}

/// Monotonic tag for kvsall scratch dirs, so concurrent tests in one
/// process never share a checkpoint path.
static KVSALL_SCRATCH_TAG: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);

/// Kills a checkpointed kvsall run halfway (2 workers, checkpoint at the
/// midpoint epoch, then the process "dies") and resumes it at 1 worker;
/// the resumed parameters must be bit-identical to `reference`, the arm
/// that was never interrupted. Proves the kvsall path draws no
/// per-example RNG the checkpoint could lose, and that the optimizer
/// state (including any decayed learning rate) round-trips.
fn kvsall_resume_check(
    bench_ds: &Dataset,
    train: &TrainConfig,
    dim: usize,
    seed: u64,
    reference: &TrainArm,
) -> bool {
    let tag = KVSALL_SCRATCH_TAG.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let dir = std::env::temp_dir()
        .join(format!("mei_bench_kvsall_{}_{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("kvsall scratch dir");
    let ckpt = dir.join("victim.ckpt");
    let filter = bench_ds.filter_store();
    let half = (train.max_epochs / 2).max(1);

    // Victim: checkpoint at epoch `half`, then stop — exactly the state a
    // kill right after the checkpoint write leaves behind.
    let mut victim_cfg = train.clone();
    victim_cfg.threads = 2;
    victim_cfg.max_epochs = half;
    victim_cfg.checkpoint_every = half;
    victim_cfg.checkpoint_path = Some(ckpt.clone());
    let mut victim = arm_model(bench_ds, dim, seed);
    Trainer::new(victim_cfg).train(&mut victim, bench_ds, &filter);

    // Resume at a different worker count than the one that wrote the
    // checkpoint and run to the full epoch budget.
    let cp = mei_core::load_checkpoint(&ckpt).expect("victim checkpoint must exist");
    assert_eq!(cp.epoch, half, "victim checkpointed at an unexpected epoch");
    let mut resume_cfg = train.clone();
    resume_cfg.threads = 1;
    let mut resumed = arm_model(bench_ds, dim, seed);
    Trainer::new(resume_cfg)
        .resume(&mut resumed, bench_ds, &filter, cp)
        .expect("kvsall resume must succeed");
    std::fs::remove_dir_all(&dir).ok();

    let ok = bits_equal(resumed.entities.as_slice(), &reference.entities)
        && bits_equal(resumed.relations.as_slice(), &reference.relations)
        && bits_equal(resumed.omega().dense(), &reference.omega);
    assert!(ok, "kvsall kill-and-resume diverged from the uninterrupted run");
    ok
}

/// Measures the k-vs-all full-softmax trainer (DESIGN.md §12) at the GEMM
/// shape: the train split is capped at `KVSALL_TRAIN_CAP` triples with
/// batch = cap, while the candidate axis keeps the dataset's full |E| —
/// so each epoch scores every batch group against every entity through
/// `gemm_nt` and runs the two GEMM-shaped backward passes.
///
/// Reports candidate scores per second for the forward and backward
/// phases (the `backward` field of the phase breakdown is live in this
/// mode), runs a negative-sampling arm at the same shape for a
/// per-candidate scoring-rate baseline, and asserts in-bench that
/// (a) every worker count in `threads` (empty picks {1, 2}) leaves
/// parameters bit-identical to the 1-thread run, (b) a run checkpointed
/// halfway at 2 workers resumes at 1 worker bit-exactly, and (c) at
/// |E| ≥ `KVSALL_SPEEDUP_GATE_MIN_ENTITIES` the forward rate clears
/// `KVSALL_MIN_SPEEDUP`× the negative path's effective scoring rate.
/// The returned object is the `"kvsall"` section of `BENCH_train.json`.
pub fn bench_kvsall_throughput(
    dataset: &Dataset,
    protocol: &Protocol,
    seed: u64,
    epochs: usize,
    threads: &[usize],
) -> JsonValue {
    // ≥ 2 epochs so the resume check has a midpoint to checkpoint at.
    let epochs = if epochs == 0 { 2 } else { epochs.max(2) };
    let default_sweep = [1usize, 2];
    let sweep: &[usize] = if threads.is_empty() { &default_sweep } else { threads };

    let mut bench_ds = dataset.clone();
    bench_ds.valid.clear();
    bench_ds.test.clear();
    bench_ds.train.truncate(KVSALL_TRAIN_CAP);
    let ne = bench_ds.num_entities();
    let dim = protocol.dim_for(2);

    let mut train = protocol.train.clone();
    train.max_epochs = epochs;
    train.eval_every = epochs + 1;
    train.batch_size = KVSALL_TRAIN_CAP;
    train.sampling = SamplingStrategy::KvsAll;
    train.loss = LossKind::SoftmaxCrossEntropy { label_smooth: 0.1 };
    train.checkpoint_every = 0;
    train.verbose = false;
    train.seed = seed;

    let base = run_train_arm(&bench_ds, &train, dim, seed, 1);
    let rates = KvRates::of(&base, ne);
    assert!(rates.groups > 0, "kvsall arm scored no groups");
    assert!(
        rates.backward_secs > 0.0,
        "kvsall arm reported an empty backward phase — the GEMM backward must be timed"
    );

    // Baseline: the negative-sampling path on the same triples and batch.
    // Its effective scoring rate is examples/sec through the gradient
    // machinery — each example is one scored candidate (the positive or
    // its sampled negative), the apples-to-apples unit for the GEMM rate.
    let mut neg_train = protocol.train.clone();
    neg_train.max_epochs = epochs;
    neg_train.eval_every = epochs + 1;
    neg_train.batch_size = KVSALL_TRAIN_CAP;
    neg_train.sampling = SamplingStrategy::Uniform;
    neg_train.loss = LossKind::Logistic;
    neg_train.negatives_per_positive = 1;
    neg_train.checkpoint_every = 0;
    neg_train.verbose = false;
    neg_train.seed = seed;
    let neg = run_train_arm(&bench_ds, &neg_train, dim, seed, 1);
    let neg_scores: usize = neg.records.iter().map(|r| r.examples).sum();
    let neg_grad_secs: f64 = neg
        .records
        .iter()
        .map(|r| r.phases.forward + r.phases.merge + r.phases.backward)
        .sum();
    let neg_rate = neg_scores as f64 / neg_grad_secs.max(f64::MIN_POSITIVE);
    let speedup = rates.forward_per_sec() / neg_rate.max(f64::MIN_POSITIVE);
    if ne >= KVSALL_SPEEDUP_GATE_MIN_ENTITIES {
        assert!(
            speedup >= KVSALL_MIN_SPEEDUP,
            "kvsall forward scored {:.3e} candidates/sec, under {KVSALL_MIN_SPEEDUP}x the \
             negative path's {neg_rate:.3e}/sec",
            rates.forward_per_sec()
        );
    }

    // Cross-thread parity: every worker count must land bit-identical to
    // the 1-thread arm (DESIGN.md §12's determinism contract).
    let thread_scaling = thread_sweep(
        "kvsall",
        sweep,
        &base,
        |t| run_train_arm(&bench_ds, &train, dim, seed, t),
        |arm| KvRates::sweep_fields(arm, ne),
    );

    let resume_ok = kvsall_resume_check(&bench_ds, &train, dim, seed, &base);

    json::obj([
        ("bench", json::str("kvsall_throughput")),
        ("num_entities", json::int(ne)),
        ("train_triples", json::int(bench_ds.train.len())),
        ("batch_size", json::int(train.batch_size)),
        ("epochs", json::int(epochs)),
        ("label_smooth", json::num(0.1)),
        ("seed", json::int(seed as usize)),
        ("groups_scored", json::int(rates.groups)),
        ("candidate_scores", json::num(rates.candidate_scores)),
        ("wall_secs", json::num(base.wall_secs)),
        ("phase_secs", base.phase_secs()),
        ("forward_candidate_scores_per_sec", json::num(rates.forward_per_sec())),
        ("backward_candidate_scores_per_sec", json::num(rates.backward_per_sec())),
        ("grad_candidate_scores_per_sec", json::num(rates.grad_per_sec())),
        ("negative_path_scores_per_sec", json::num(neg_rate)),
        ("speedup_vs_negative_scoring", json::num(speedup)),
        ("final_params_bitwise_identical", JsonValue::Bool(true)),
        ("resume_bitwise_identical", JsonValue::Bool(resume_ok)),
        ("thread_scaling", thread_scaling),
    ])
}

/// The block-term MEI arm's shape in the training bench: K = 2 partitions
/// of Ce = 2 entity / Cr = 2 relation components — the smallest shape
/// that exercises the partition sum, ragged core contraction and
/// per-partition zero-skip all at once.
const BLOCK_TERM_BENCH_SHAPE: BlockTermShape = BlockTermShape { k: 2, ce: 2, cr: 2 };

/// Builds the deterministic block-term arm model shared by every thread
/// count in the block-term bench.
fn block_term_arm_model(dataset: &Dataset, dim: usize, seed: u64) -> MultiEmbedModel {
    let mut rng = StdRng::seed_from_u64(seed);
    MultiEmbedModel::block_term(
        dataset.num_entities(),
        dataset.num_relations(),
        BLOCK_TERM_BENCH_SHAPE,
        dim,
        0.5,
        &mut rng,
    )
}

/// Measures the block-term MEI family (DESIGN.md §17) on the k-vs-all
/// path with the full regularizer stack live — input dropout 0.1, batch
/// norm on the interaction vectors, context dropout 0.1 — at the same
/// capped-train / full-|E| GEMM shape as [`bench_kvsall_throughput`].
///
/// Asserts in-bench that every worker count in `threads` (empty picks
/// {1, 2}) leaves parameters **and the batch-norm state** (γ, β, running
/// mean/var) bit-identical to the 1-thread run: the counter-based dropout
/// RNG and the sequential f64 moment reductions make the regularized path
/// as schedule-independent as the plain one. The bitwise K=1 reduction to
/// the learned-ω trilinear model is asserted separately in
/// `crates/core/tests/block_term_parity.rs`.
/// The returned object is the `"block_term"` section of
/// `BENCH_train.json`.
pub fn bench_block_term_throughput(
    dataset: &Dataset,
    protocol: &Protocol,
    seed: u64,
    epochs: usize,
    threads: &[usize],
) -> JsonValue {
    let epochs = if epochs == 0 { 2 } else { epochs };
    let default_sweep = [1usize, 2];
    let sweep: &[usize] = if threads.is_empty() { &default_sweep } else { threads };
    let shape = BLOCK_TERM_BENCH_SHAPE;

    let mut bench_ds = dataset.clone();
    bench_ds.valid.clear();
    bench_ds.test.clear();
    bench_ds.train.truncate(KVSALL_TRAIN_CAP);
    let ne = bench_ds.num_entities();
    let dim = protocol.dim_for(shape.n());

    let mut train = protocol.train.clone();
    train.max_epochs = epochs;
    train.eval_every = epochs + 1;
    train.batch_size = KVSALL_TRAIN_CAP;
    train.sampling = SamplingStrategy::KvsAll;
    train.loss = LossKind::SoftmaxCrossEntropy { label_smooth: 0.1 };
    train.dropout = 0.1;
    train.input_dropout = 0.1;
    train.batch_norm = true;
    train.checkpoint_every = 0;
    train.verbose = false;
    train.seed = seed;

    let base = run_model_arm(
        &bench_ds,
        &train,
        block_term_arm_model(&bench_ds, dim, seed),
        1,
    );
    let rates = KvRates::of(&base, ne);
    assert!(rates.groups > 0, "block-term arm scored no groups");
    assert!(!base.norm.is_empty(), "block-term arm trained without batch-norm state");

    let thread_scaling = thread_sweep(
        "block-term",
        sweep,
        &base,
        |t| run_model_arm(&bench_ds, &train, block_term_arm_model(&bench_ds, dim, seed), t),
        |arm| KvRates::sweep_fields(arm, ne),
    );

    json::obj([
        ("bench", json::str("block_term_throughput")),
        ("k", json::int(shape.k)),
        ("ce", json::int(shape.ce)),
        ("cr", json::int(shape.cr)),
        ("dim", json::int(dim)),
        ("num_entities", json::int(ne)),
        ("train_triples", json::int(bench_ds.train.len())),
        ("batch_size", json::int(train.batch_size)),
        ("epochs", json::int(epochs)),
        ("dropout", json::num(0.1)),
        ("input_dropout", json::num(0.1)),
        ("batch_norm", JsonValue::Bool(true)),
        ("groups_scored", json::int(rates.groups)),
        ("candidate_scores", json::num(rates.candidate_scores)),
        ("wall_secs", json::num(base.wall_secs)),
        ("phase_secs", base.phase_secs()),
        ("forward_candidate_scores_per_sec", json::num(rates.forward_per_sec())),
        ("backward_candidate_scores_per_sec", json::num(rates.backward_per_sec())),
        ("grad_candidate_scores_per_sec", json::num(rates.grad_per_sec())),
        ("final_params_bitwise_identical", JsonValue::Bool(true)),
        ("norm_state_bitwise_identical", JsonValue::Bool(true)),
        ("thread_scaling", thread_scaling),
    ])
}

/// Identifies the running benchmark binary: the git commit it was built
/// from (baked in by `build.rs`) and an FNV-1a content hash of the
/// executable itself. Printed by every `repro bench-*` command and
/// embedded in the JSON artifacts, so a stale binary — rebuilt source but
/// an old `target/release/repro` — is visible instead of silently
/// producing numbers for code that no longer exists. `scripts/rebench.sh`
/// forces the rebuild.
pub fn binary_fingerprint() -> JsonValue {
    let git = option_env!("MEI_BUILD_GIT_HASH").unwrap_or("unknown");
    let content = std::env::current_exe()
        .ok()
        .and_then(|p| std::fs::read(p).ok())
        .map(|bytes| {
            // FNV-1a 64-bit: tiny, dependency-free, stable.
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for b in bytes {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
            format!("fnv1a64:{h:016x}")
        })
        .unwrap_or_else(|| "unavailable".to_string());
    json::obj([
        ("build_git_hash", json::str(git)),
        ("content_hash", json::str(content)),
    ])
}

/// `sorted` must be ascending; linear-interpolation-free nearest-rank
/// percentile (p in [0, 1]).
fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx]
}

/// Latencies + wall time of one serving-bench arm.
struct ArmStats {
    wall_secs: f64,
    latencies: Vec<f64>,
}

impl ArmStats {
    fn report(&self, requests: usize) -> JsonValue {
        let mut sorted = self.latencies.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
        json::obj([
            ("requests", json::int(requests)),
            ("wall_secs", json::num(self.wall_secs)),
            ("qps", json::num(requests as f64 / self.wall_secs.max(f64::MIN_POSITIVE))),
            ("p50_latency_secs", json::num(percentile(&sorted, 0.50))),
            ("p99_latency_secs", json::num(percentile(&sorted, 0.99))),
        ])
    }

    fn qps(&self, requests: usize) -> f64 {
        requests as f64 / self.wall_secs.max(f64::MIN_POSITIVE)
    }
}

/// Drives `workload` (indices into `pool`) through a serving engine from
/// `clients` concurrent threads, recording per-request latency.
fn run_serve_arm(
    engine: &mei_serve::Engine,
    pool: &[(Side, mei_kg::EntityId, mei_kg::RelationId)],
    workload: &[usize],
    clients: usize,
    k: usize,
) -> ArmStats {
    use std::time::Instant;
    let t0 = Instant::now();
    let latencies: Vec<f64> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                scope.spawn(move || {
                    let mut lats = Vec::new();
                    // Client c takes every clients-th request — interleaved,
                    // so concurrent clients issue a mix of queries.
                    for &qi in workload.iter().skip(c).step_by(clients) {
                        let (side, anchor, relation) = pool[qi];
                        let t = Instant::now();
                        engine
                            .predict(side, anchor, relation, k)
                            .expect("bench query failed");
                        lats.push(t.elapsed().as_secs_f64());
                    }
                    lats
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("bench client panicked")).collect()
    });
    ArmStats { wall_secs: t0.elapsed().as_secs_f64(), latencies }
}

/// Measures serving throughput of two arms on `dataset` at the same shape
/// `bench_eval_throughput` uses — the micro-batching engine with the
/// result cache disabled, and the engine with the cache on — and asserts
/// the engine's answers are bit-identical to the [`top_k_reference`]
/// oracle for every distinct query in the workload.
///
/// `requests` is the total request count (0 picks the 512 default). The
/// returned object is the `BENCH_serve.json` artifact written by
/// `repro bench-serve`.
pub fn bench_serve_throughput(dataset: &Dataset, budget: usize, seed: u64, requests: usize) -> JsonValue {
    use mei_serve::{Engine, ServeConfig, Snapshot};
    use rand::Rng;

    const K: usize = 10;
    const CLIENTS: usize = 8;
    let requests = if requests == 0 { 512 } else { requests };

    let cfg = ModelConfig {
        num_entities: dataset.num_entities(),
        num_relations: dataset.num_relations(),
        n: 2,
        dim: (budget / 2).max(1),
    };
    let mut rng = StdRng::seed_from_u64(seed);
    let model =
        MultiEmbedModel::with_fixed_weights(cfg, WeightPreset::ComplEx.weight_vector(), &mut rng);
    let exclude = dataset.filter_store();

    // The query pool: distinct (side, anchor, relation) queries taken from
    // the test split, alternating sides. The workload draws from the pool
    // with repetition, giving the cached arm a realistic re-ask rate while
    // keeping enough distinct queries that batching, not caching, carries
    // the uncached arm.
    let pool_target = (requests / 4).clamp(1, 256);
    let mut pool: Vec<(Side, mei_kg::EntityId, mei_kg::RelationId)> = Vec::new();
    let mut seen = std::collections::HashSet::new();
    for (i, t) in dataset.test.iter().cycle().take(dataset.test.len() * 2).enumerate() {
        let q = if i % 2 == 0 {
            (Side::Tail, t.head, t.relation)
        } else {
            (Side::Head, t.tail, t.relation)
        };
        if seen.insert(q) {
            pool.push(q);
        }
        if pool.len() >= pool_target {
            break;
        }
    }
    assert!(!pool.is_empty(), "dataset has no test triples to build a workload from");
    let mut workload_rng = StdRng::seed_from_u64(seed ^ 0x5e7e);
    let workload: Vec<usize> =
        (0..requests).map(|_| workload_rng.gen_range(0..pool.len())).collect();

    let serve_config = |cache: bool| ServeConfig { workers: 1, cache, ..ServeConfig::default() };
    let snapshot = || {
        Snapshot::new(
            model.clone(),
            dataset.entities.clone(),
            dataset.relations.clone(),
            exclude.clone(),
        )
    };

    // Arm 1: the batching engine, cache off — every request is scored,
    // concurrency comes from CLIENTS threads filling the batch queue.
    let engine = Engine::start(snapshot(), serve_config(false));
    let batched = run_serve_arm(&engine, &pool, &workload, CLIENTS, K);
    let batch_hist = engine.metrics_snapshot();
    let mean_batch = batch_hist
        .get("serve/batch_size")
        .map(|h| {
            let sum = h.get("sum").and_then(|v| v.as_f64()).unwrap_or(0.0);
            let count = h.get("count").and_then(|v| v.as_f64()).unwrap_or(0.0);
            if count > 0.0 { sum / count } else { 0.0 }
        })
        .unwrap_or(0.0);

    // The acceptance contract: for every distinct query, the batched
    // engine's answer equals the oracle's element for element (ids,
    // order, and bitwise-equal scores).
    for &(side, anchor, relation) in &pool {
        let got = engine.predict(side, anchor, relation, K).expect("identity query failed");
        let want = top_k_reference(&model, side, anchor, relation, K, &exclude);
        assert_eq!(
            *got.results, want,
            "batched answer diverged from the reference path for {side:?} {anchor:?} {relation:?}"
        );
    }
    engine.shutdown();

    // Arm 2: cache on — repeats in the workload are served from the
    // sharded LRU without touching the scorer.
    let engine = Engine::start(snapshot(), serve_config(true));
    let cached = run_serve_arm(&engine, &pool, &workload, CLIENTS, K);
    let cache_stats = engine.cache_stats();
    engine.shutdown();

    let mut batched_report = match batched.report(requests) {
        JsonValue::Obj(pairs) => pairs,
        _ => unreachable!("report is an object"),
    };
    batched_report.push(("mean_batch_size".to_owned(), json::num(mean_batch)));
    let mut cached_report = match cached.report(requests) {
        JsonValue::Obj(pairs) => pairs,
        _ => unreachable!("report is an object"),
    };
    cached_report.push(("cache_hit_rate".to_owned(), json::num(cache_stats.hit_rate())));

    json::obj([
        ("bench", json::str("serve_throughput")),
        ("num_entities", json::int(dataset.num_entities())),
        ("embedding_budget_nd", json::int(budget)),
        ("requests", json::int(requests)),
        ("distinct_queries", json::int(pool.len())),
        ("clients", json::int(CLIENTS)),
        ("k", json::int(K)),
        ("seed", json::int(seed as usize)),
        ("batched", JsonValue::Obj(batched_report)),
        ("batched_cached", JsonValue::Obj(cached_report)),
        ("batched_identical_to_reference", JsonValue::Bool(true)),
    ])
}

/// Saturates a deliberately small bounded queue (`repro bench-serve
/// --overload`) and measures how the engine degrades: more clients than
/// queue slots hammer one slow worker, so a fraction of arrivals must be
/// shed with `ServeError::Overloaded` while the rest are served normally.
///
/// The invariants asserted here *are* the backpressure contract:
/// every request is either served or explicitly rejected (nothing hangs,
/// nothing is silently dropped), the `serve/rejected` counter agrees with
/// the client-observed rejection count, and under sustained overload at
/// least one rejection actually happens (the bound is real, not
/// decorative). The returned object lands in `BENCH_serve.json` under
/// `"overload"`.
pub fn bench_serve_overload(dataset: &Dataset, budget: usize, seed: u64) -> JsonValue {
    use mei_serve::{Engine, ServeConfig, ServeError, Snapshot};
    use rand::Rng;

    const K: usize = 10;
    // More clients than queue slots: each blocked client parks at most one
    // request, so overrunning the bound requires clients > max_queue.
    const CLIENTS: usize = 16;
    const MAX_QUEUE: usize = 4;
    const PER_CLIENT: usize = 64;

    let cfg = ModelConfig {
        num_entities: dataset.num_entities(),
        num_relations: dataset.num_relations(),
        n: 2,
        dim: (budget / 2).max(1),
    };
    let mut rng = StdRng::seed_from_u64(seed);
    let model =
        MultiEmbedModel::with_fixed_weights(cfg, WeightPreset::ComplEx.weight_vector(), &mut rng);
    let exclude = dataset.filter_store();

    let mut pool: Vec<(Side, mei_kg::EntityId, mei_kg::RelationId)> = Vec::new();
    for (i, t) in dataset.test.iter().take(256).enumerate() {
        pool.push(if i % 2 == 0 {
            (Side::Tail, t.head, t.relation)
        } else {
            (Side::Head, t.tail, t.relation)
        });
    }
    assert!(!pool.is_empty(), "dataset has no test triples to build a workload from");

    // One worker, tiny queue, cache off: every request pays the full
    // scoring cost, so arrivals outrun the drain rate by construction.
    let engine = Engine::start(
        Snapshot::new(
            model,
            dataset.entities.clone(),
            dataset.relations.clone(),
            exclude,
        ),
        ServeConfig { workers: 1, cache: false, max_queue: MAX_QUEUE, ..ServeConfig::default() },
    );

    let t0 = std::time::Instant::now();
    let (served, rejected) = std::thread::scope(|scope| {
        let engine = &engine;
        let pool = &pool;
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                scope.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(seed ^ (0xb0de + c as u64));
                    let (mut served, mut rejected) = (0usize, 0usize);
                    for _ in 0..PER_CLIENT {
                        let (side, anchor, relation) = pool[rng.gen_range(0..pool.len())];
                        match engine.predict(side, anchor, relation, K) {
                            Ok(_) => served += 1,
                            Err(ServeError::Overloaded { .. }) => rejected += 1,
                            Err(e) => panic!("unexpected serve error under overload: {e}"),
                        }
                    }
                    (served, rejected)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("overload client panicked")).fold(
            (0, 0),
            |(s, r), (cs, cr)| (s + cs, r + cr),
        )
    });
    let wall_secs = t0.elapsed().as_secs_f64().max(f64::MIN_POSITIVE);

    let offered = CLIENTS * PER_CLIENT;
    assert_eq!(served + rejected, offered, "requests neither served nor rejected");
    let counter = engine.metrics().counter("serve/rejected").get();
    assert_eq!(
        counter, rejected as u64,
        "serve/rejected counter disagrees with client-observed rejections"
    );
    assert!(rejected > 0, "overload run never tripped the queue bound");
    assert!(served > 0, "overload run served nothing — backpressure became an outage");
    engine.shutdown();

    json::obj([
        ("clients", json::int(CLIENTS)),
        ("max_queue", json::int(MAX_QUEUE)),
        ("offered", json::int(offered)),
        ("served", json::int(served)),
        ("rejected", json::int(rejected)),
        ("rejection_rate", json::num(rejected as f64 / offered as f64)),
        ("wall_secs", json::num(wall_secs)),
        ("served_qps", json::num(served as f64 / wall_secs)),
        ("offered_qps", json::num(offered as f64 / wall_secs)),
        ("rejected_counter_matches", JsonValue::Bool(true)),
    ])
}

/// Answers every pool query through `engine` at width `k` from `clients`
/// concurrent threads (so the engine batches them), returning the answers
/// in pool order.
fn collect_answers(
    engine: &mei_serve::Engine,
    pool: &[(Side, mei_kg::EntityId, mei_kg::RelationId)],
    k: usize,
    clients: usize,
) -> Vec<Vec<(mei_kg::EntityId, f32)>> {
    let per_query: Vec<(usize, Vec<(mei_kg::EntityId, f32)>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                scope.spawn(move || {
                    pool.iter()
                        .enumerate()
                        .skip(c)
                        .step_by(clients)
                        .map(|(qi, &(side, anchor, relation))| {
                            let r = engine
                                .predict(side, anchor, relation, k)
                                .expect("ground-truth query failed");
                            (qi, r.results.to_vec())
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("answer client panicked")).collect()
    });
    let mut answers = vec![Vec::new(); pool.len()];
    for (qi, a) in per_query {
        answers[qi] = a;
    }
    answers
}

/// Fraction of the exact top-`k` that survives in the screened top-`k`.
fn recall_at(exact: &[(mei_kg::EntityId, f32)], screened: &[(mei_kg::EntityId, f32)], k: usize) -> f64 {
    let cut = k.min(exact.len());
    if cut == 0 {
        return 1.0;
    }
    let want: std::collections::HashSet<mei_kg::EntityId> =
        exact[..cut].iter().map(|p| p.0).collect();
    let got = screened[..k.min(screened.len())].iter().filter(|p| want.contains(&p.0)).count();
    got as f64 / cut as f64
}

/// The screened-serving recall contract (`repro bench-serve`): on a
/// synthetic ComplEx model with `num_entities` rows, measure how much of
/// the exact top-k the int8 screen→rescore path recovers, and (unless
/// `smoke`) how much faster it answers than the exact uncached engine.
///
/// Ground truth is the exact engine's top-100 per distinct query; the
/// screened engine answers the same queries with `screen_k` survivors.
/// The function **asserts the recall floor** — mean recall@10 ≥ 0.99 —
/// so a quantizer or merge regression fails the bench rather than
/// degrading silently. `smoke` skips the timing arms (CI runs it on
/// shared runners where wall-clock is meaningless) but keeps the recall
/// assertion; the full run also records qps/latency for both arms. The
/// returned object lands in `BENCH_serve.json` under `"screened"`.
pub fn bench_serve_screened(
    num_entities: usize,
    budget: usize,
    seed: u64,
    requests: usize,
    screen_k: usize,
    smoke: bool,
) -> JsonValue {
    use mei_serve::{Engine, ScreenParams, ServeConfig, Snapshot};
    use rand::Rng;

    const K_TRUTH: usize = 100;
    const K_SERVE: usize = 10;
    const CLIENTS: usize = 8;

    let cfg = ModelConfig {
        num_entities,
        num_relations: 11,
        n: 2,
        dim: (budget / 2).max(1),
    };
    let mut rng = StdRng::seed_from_u64(seed);
    let model =
        MultiEmbedModel::with_fixed_weights(cfg, WeightPreset::ComplEx.weight_vector(), &mut rng);

    // Distinct queries over random anchors, alternating sides.
    let pool_target = if smoke { 24 } else { 64 };
    let mut pool: Vec<(Side, mei_kg::EntityId, mei_kg::RelationId)> = Vec::new();
    let mut seen = std::collections::HashSet::new();
    while pool.len() < pool_target {
        let side = if pool.len().is_multiple_of(2) { Side::Tail } else { Side::Head };
        let anchor = mei_kg::EntityId(rng.gen_range(0..num_entities as u32));
        let relation = mei_kg::RelationId(rng.gen_range(0..cfg.num_relations as u32));
        if seen.insert((side, anchor, relation)) {
            pool.push((side, anchor, relation));
        }
    }

    let params = ScreenParams { screen_k, threads: 1 };
    let exact = Engine::start(
        Snapshot::with_ids(model.clone(), TripleStore::new()),
        ServeConfig { workers: 1, cache: false, ..ServeConfig::default() },
    );
    let screened_engine = Engine::start(
        Snapshot::with_ids(model, TripleStore::new()),
        ServeConfig { workers: 1, cache: false, screen: Some(params), ..ServeConfig::default() },
    );
    // Force the one-time index build out of the timed/recall section and
    // record what it costs — it runs on this path at every snapshot swap.
    let t_build = std::time::Instant::now();
    let (snap, _) = screened_engine.snapshot();
    let index = snap.screen_index();
    let index_build_secs = t_build.elapsed().as_secs_f64();
    let index_bytes = index.memory_bytes();
    drop((snap, index));

    let truth = collect_answers(&exact, &pool, K_TRUTH, CLIENTS);
    let screened_answers = collect_answers(&screened_engine, &pool, K_TRUTH, CLIENTS);
    let mean_recall = |k: usize| {
        truth
            .iter()
            .zip(&screened_answers)
            .map(|(t, s)| recall_at(t, s, k))
            .sum::<f64>()
            / pool.len() as f64
    };
    let (recall_1, recall_10, recall_100) = (mean_recall(1), mean_recall(10), mean_recall(100));
    assert!(
        recall_10 >= 0.99,
        "screened recall@10 = {recall_10:.4} fell below the 0.99 contract \
         (|E| = {num_entities}, screen_k = {screen_k})"
    );

    let mut pairs = vec![
        ("num_entities".to_owned(), json::int(num_entities)),
        ("embedding_budget_nd".to_owned(), json::int(budget)),
        ("screen_k".to_owned(), json::int(screen_k)),
        ("distinct_queries".to_owned(), json::int(pool.len())),
        ("k".to_owned(), json::int(K_SERVE)),
        ("seed".to_owned(), json::int(seed as usize)),
        ("index_build_secs".to_owned(), json::num(index_build_secs)),
        ("index_bytes".to_owned(), json::int(index_bytes)),
        ("recall_at_1".to_owned(), json::num(recall_1)),
        ("recall_at_10".to_owned(), json::num(recall_10)),
        ("recall_at_100".to_owned(), json::num(recall_100)),
        ("smoke".to_owned(), JsonValue::Bool(smoke)),
    ];

    if !smoke {
        let requests = if requests == 0 {
            if num_entities >= 250_000 { 160 } else { 512 }
        } else {
            requests
        };
        let mut workload_rng = StdRng::seed_from_u64(seed ^ 0x5c4e);
        let workload: Vec<usize> =
            (0..requests).map(|_| workload_rng.gen_range(0..pool.len())).collect();
        let exact_stats = run_serve_arm(&exact, &pool, &workload, CLIENTS, K_SERVE);
        let screened_stats = run_serve_arm(&screened_engine, &pool, &workload, CLIENTS, K_SERVE);
        let speedup =
            screened_stats.qps(requests) / exact_stats.qps(requests).max(f64::MIN_POSITIVE);
        pairs.push(("requests".to_owned(), json::int(requests)));
        pairs.push(("clients".to_owned(), json::int(CLIENTS)));
        pairs.push(("exact_uncached".to_owned(), exact_stats.report(requests)));
        pairs.push(("screened".to_owned(), screened_stats.report(requests)));
        pairs.push(("speedup_screened_vs_exact".to_owned(), json::num(speedup)));
    }
    exact.shutdown();
    screened_engine.shutdown();
    JsonValue::Obj(pairs)
}

/// Connection-scaling section of `repro bench-serve`: opens `conns`
/// simultaneous TCP connections against one epoll-event-loop server and
/// drives a scoring round trip over every one of them, asserting every
/// response arrives ok and every connection is reaped afterwards.
///
/// This is the load shape that broke the thread-per-connection frontend
/// (one OS thread and one leaked `JoinHandle` per connection); the event
/// loop holds the same `conns` as one thread plus per-connection state
/// machines. `smoke` skips the wall-clock fields (CI runners make them
/// meaningless) but keeps every correctness assertion — served count,
/// structured responses, gauge back to zero. The returned object lands in
/// `BENCH_serve.json` under `"conn_scaling"`.
pub fn bench_serve_conn_scaling(
    num_entities: usize,
    budget: usize,
    seed: u64,
    conns: usize,
    smoke: bool,
) -> JsonValue {
    use mei_serve::{Engine, ServeConfig, Server, ServerConfig, Snapshot};
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpStream;
    use std::time::Duration;

    const K: usize = 10;
    const ROUNDS: usize = 2;

    let cfg = ModelConfig {
        num_entities,
        num_relations: 11,
        n: 2,
        dim: (budget / 2).max(1),
    };
    let mut rng = StdRng::seed_from_u64(seed);
    let model =
        MultiEmbedModel::with_fixed_weights(cfg, WeightPreset::ComplEx.weight_vector(), &mut rng);
    let engine = Arc::new(Engine::start(
        Snapshot::with_ids(model, TripleStore::new()),
        ServeConfig { workers: 1, cache: false, max_queue: conns.max(1024), ..ServeConfig::default() },
    ));
    // Long timeouts: with thousands of connections sharing one scoring
    // worker, tail responses legitimately wait.
    let mut server = Server::start_with(
        Arc::clone(&engine),
        "127.0.0.1:0",
        ServerConfig {
            read_timeout: Some(Duration::from_secs(60)),
            write_timeout: Some(Duration::from_secs(60)),
            ..ServerConfig::default()
        },
    )
    .expect("bench server failed to start");
    let addr = server.local_addr();

    // Phase 1: open every connection and keep it open.
    let mut clients = Vec::with_capacity(conns);
    for i in 0..conns {
        let c = TcpStream::connect(addr)
            .unwrap_or_else(|e| panic!("connect {i}/{conns} failed: {e}"));
        c.set_read_timeout(Some(Duration::from_secs(120))).unwrap();
        c.set_write_timeout(Some(Duration::from_secs(120))).unwrap();
        clients.push(c);
    }
    // The event loop has registered them all once the accepted counter
    // catches up (accept is asynchronous to connect returning).
    let accept_deadline = std::time::Instant::now() + Duration::from_secs(60);
    while (engine.metrics().counter("serve/accepted").get() as usize) < conns {
        assert!(
            std::time::Instant::now() < accept_deadline,
            "event loop accepted only {} of {conns} connections",
            engine.metrics().counter("serve/accepted").get()
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    let peak_tracked = engine.metrics().gauge("serve/connections").get() as usize;

    // Phase 2: drive ROUNDS scoring round trips over every connection,
    // sharded across a bounded pool of driver threads.
    let drivers = conns.clamp(1, 64);
    let t0 = std::time::Instant::now();
    let mut handles = Vec::with_capacity(drivers);
    let chunk = conns.div_ceil(drivers);
    let mut clients_iter = clients.into_iter();
    for d in 0..drivers {
        let mine: Vec<TcpStream> = clients_iter.by_ref().take(chunk).collect();
        if mine.is_empty() {
            break;
        }
        handles.push(std::thread::spawn(move || {
            let mut ok = 0usize;
            for (ci, c) in mine.iter().enumerate() {
                let mut w = c.try_clone().expect("clone stream");
                let mut r = BufReader::new(c);
                for round in 0..ROUNDS {
                    let anchor = (d * 7919 + ci * 31 + round) % num_entities;
                    let rel = (d + ci + round) % 11;
                    writeln!(
                        w,
                        "{{\"op\":\"predict\",\"side\":\"tail\",\"anchor\":{anchor},\
                         \"relation\":{rel},\"k\":{K}}}"
                    )
                    .expect("write request");
                    let mut line = String::new();
                    r.read_line(&mut line).expect("read response");
                    let parsed = mei_obs::json::parse(line.trim_end()).expect("parse response");
                    if parsed.get("ok") == Some(&JsonValue::Bool(true)) {
                        ok += 1;
                    }
                }
            }
            ok
            // `mine` drops here: all connections close.
        }));
    }
    let served: usize = handles.into_iter().map(|h| h.join().expect("driver panicked")).sum();
    let wall_secs = t0.elapsed().as_secs_f64();
    let requests = conns * ROUNDS;
    assert_eq!(served, requests, "not every connection got every answer");

    // Phase 3: every disconnect is reaped — the lifecycle-leak contract.
    let reap_deadline = std::time::Instant::now() + Duration::from_secs(60);
    while engine.metrics().gauge("serve/connections").get() != 0.0 {
        assert!(
            std::time::Instant::now() < reap_deadline,
            "{} connections never reaped after close",
            engine.metrics().gauge("serve/connections").get()
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    let wakes = engine.metrics().counter("serve/epoll_wakes").get();
    server.shutdown();

    let mut pairs = vec![
        ("bench".to_owned(), json::str("serve_conn_scaling")),
        ("num_entities".to_owned(), json::int(num_entities)),
        ("embedding_budget_nd".to_owned(), json::int(budget)),
        ("conns".to_owned(), json::int(conns)),
        ("requests".to_owned(), json::int(requests)),
        ("served_ok".to_owned(), json::int(served)),
        ("peak_tracked_connections".to_owned(), json::int(peak_tracked)),
        ("driver_threads".to_owned(), json::int(drivers)),
        ("epoll_wakes".to_owned(), json::int(wakes as usize)),
        ("all_connections_reaped".to_owned(), JsonValue::Bool(true)),
        ("seed".to_owned(), json::int(seed as usize)),
        ("smoke".to_owned(), JsonValue::Bool(smoke)),
    ];
    if !smoke {
        pairs.push(("wall_secs".to_owned(), json::num(wall_secs)));
        pairs.push(("qps".to_owned(), json::num(requests as f64 / wall_secs.max(1e-9))));
    }
    JsonValue::Obj(pairs)
}

/// Snapshot hot-swap latency at scale (`repro bench-serve`): loads the
/// same `num_entities`-row v4 model file through the owned deserializer
/// and through the zero-copy mapped loader, times load and swap for each,
/// and asserts the served answers are bit-identical before and after both
/// swaps.
///
/// The swap critical path under the event loop is compat-check + `Arc`
/// install + epoch bump; what the formats differ on is the *load*: the
/// owned path copies and parses every `f32`, the mapped path hashes the
/// file once and borrows the page cache. The returned object lands in
/// `BENCH_serve.json` under `"swap_latency"` and records the measured
/// speedup; `mapped_faster` makes a regression (mmap slower than a full
/// deserialize) visible in the artifact.
pub fn bench_serve_swap_latency(num_entities: usize, budget: usize, seed: u64) -> JsonValue {
    use mei_core::serialize::{load_model, load_model_mapped, save_model};
    use mei_serve::{Engine, ServeConfig, Snapshot};

    const K: usize = 10;
    let cfg = ModelConfig {
        num_entities,
        num_relations: 11,
        n: 2,
        dim: (budget / 2).max(1),
    };
    let mut rng = StdRng::seed_from_u64(seed);
    let model =
        MultiEmbedModel::with_fixed_weights(cfg, WeightPreset::ComplEx.weight_vector(), &mut rng);

    let path = std::env::temp_dir()
        .join(format!("mei_bench_swap_{num_entities}_{}.bin", std::process::id()));
    save_model(&model, &path).expect("save bench model");
    let file_bytes = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);

    let engine = Engine::start(
        Snapshot::with_ids(model, TripleStore::new()),
        ServeConfig { workers: 1, cache: false, ..ServeConfig::default() },
    );
    let queries: Vec<(Side, mei_kg::EntityId, mei_kg::RelationId)> = (0..4u32)
        .map(|i| {
            let side = if i % 2 == 0 { Side::Tail } else { Side::Head };
            (side, mei_kg::EntityId((i * 2654435761) % num_entities as u32), mei_kg::RelationId(i % 11))
        })
        .collect();
    let answers = |engine: &Engine| -> Vec<Vec<(mei_kg::EntityId, f32)>> {
        queries
            .iter()
            .map(|&(s, a, r)| (*engine.predict(s, a, r, K).expect("bench query").results).clone())
            .collect()
    };
    let baseline = answers(&engine);

    // Arm 1: owned deserialize + swap (the pre-v4 path).
    let t = std::time::Instant::now();
    let owned = load_model(&path).expect("owned load");
    let load_owned_secs = t.elapsed().as_secs_f64();
    let snap = Snapshot::with_ids(owned, TripleStore::new());
    let t = std::time::Instant::now();
    engine.swap_snapshot(snap).expect("owned swap");
    let swap_owned_secs = t.elapsed().as_secs_f64();
    assert_eq!(baseline, answers(&engine), "owned swap changed answers");

    // Arm 2: mapped load + swap (map + checksum + pointer install).
    let t = std::time::Instant::now();
    let mapped = load_model_mapped(&path).expect("mapped load");
    let load_mapped_secs = t.elapsed().as_secs_f64();
    let was_mapped = mapped.entities.is_mapped();
    let snap = Snapshot::with_ids(mapped, TripleStore::new());
    let t = std::time::Instant::now();
    engine.swap_snapshot(snap).expect("mapped swap");
    let swap_mapped_secs = t.elapsed().as_secs_f64();
    assert_eq!(baseline, answers(&engine), "mapped swap changed answers");

    // The engine timed its own critical sections into the histogram.
    let hist = engine.metrics().histogram("serve/swap_latency_secs", &[]);
    let (swap_count, swap_mean) = (hist.count(), hist.mean());
    engine.shutdown();
    std::fs::remove_file(&path).ok();

    let owned_total = load_owned_secs + swap_owned_secs;
    let mapped_total = load_mapped_secs + swap_mapped_secs;
    json::obj([
        ("bench", json::str("serve_swap_latency")),
        ("num_entities", json::int(num_entities)),
        ("embedding_budget_nd", json::int(budget)),
        ("model_file_bytes", json::int(file_bytes as usize)),
        ("seed", json::int(seed as usize)),
        ("load_owned_secs", json::num(load_owned_secs)),
        ("swap_owned_secs", json::num(swap_owned_secs)),
        ("load_mapped_secs", json::num(load_mapped_secs)),
        ("swap_mapped_secs", json::num(swap_mapped_secs)),
        ("entities_served_mapped", JsonValue::Bool(was_mapped)),
        ("swap_critical_count", json::int(swap_count as usize)),
        ("swap_critical_mean_secs", json::num(swap_mean)),
        ("speedup_mapped_vs_owned", json::num(owned_total / mapped_total.max(1e-12))),
        ("mapped_faster", JsonValue::Bool(mapped_total < owned_total)),
        ("answers_bit_identical_across_swaps", JsonValue::Bool(true)),
    ])
}

/// Ablation: CPh via the literal Eq. 7 data augmentation — CP trained on
/// the doubled dataset, evaluated with the reciprocal combined score.
pub fn run_cph_augmented(
    dataset: &Dataset,
    protocol: &Protocol,
    with_train_eval: bool,
) -> TableRow {
    let aug = AugmentedDataset::from_dataset(dataset);
    let filter = aug.dataset.filter_store();
    let mut rng = StdRng::seed_from_u64(protocol.seed);
    let cfg = ModelConfig {
        num_entities: aug.dataset.num_entities(),
        num_relations: aug.dataset.num_relations(),
        n: 2,
        dim: protocol.dim_for(2),
    };
    let mut model =
        MultiEmbedModel::with_fixed_weights(cfg, WeightPreset::Cp.weight_vector(), &mut rng);
    trainer_for(protocol.train.clone(), protocol).train(&mut model, &aug.dataset, &filter);
    let scorer = ReciprocalScorer { model: &model, original_num_relations: dataset.num_relations() };
    let eval_cfg = EvalConfig::default();
    let test = evaluate_filtered(&scorer, &dataset.test, &filter, &eval_cfg);
    let train = with_train_eval.then(|| {
        let sample = train_sample(dataset, protocol.train_eval_sample);
        evaluate_filtered(&scorer, &sample, &filter, &eval_cfg)
    });
    TableRow {
        label: "CPh (data augmentation, Eq. 7)".to_owned(),
        weights: None,
        test,
        train,
    }
}

fn finish_row(
    label: &str,
    weights: Option<Vec<f32>>,
    model: MultiEmbedModel,
    eval_dataset: &Dataset,
    filter: &TripleStore,
    protocol: &Protocol,
    with_train_eval: bool,
) -> TableRow {
    let eval_cfg = EvalConfig::default();
    let test = evaluate_filtered(&model, &eval_dataset.test, filter, &eval_cfg);
    let train = with_train_eval.then(|| {
        let sample = train_sample(eval_dataset, protocol.train_eval_sample);
        evaluate_filtered(&model, &sample, filter, &eval_cfg)
    });
    TableRow { label: label.to_owned(), weights, test, train }
}

/// Prints a table header matching [`TableRow::format`].
pub fn print_header(title: &str) {
    println!("\n=== {title} ===");
    println!(
        "{:<34} {:<28} {:>6} {:>6} {:>6} {:>6}",
        "Weight setting", "ω", "MRR", "H@1", "H@3", "H@10"
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use mei_datagen::{SynthWnConfig, SynthWnScale};

    fn quick_protocol() -> Protocol {
        let mut p = Protocol::small();
        p.budget = 32;
        p.train.max_epochs = 40;
        p.train.eval_every = 20;
        p.train.learning_rate = 5e-3;
        p.train_eval_sample = 100;
        p
    }

    #[test]
    fn run_preset_produces_metrics() {
        let ds = SynthWnConfig::at_scale(SynthWnScale::Tiny, 1).generate();
        let row = run_preset(WeightPreset::ComplEx, &ds, &quick_protocol(), true);
        assert!(row.test.mrr > 0.0 && row.test.mrr <= 1.0);
        assert!(row.train.is_some());
        assert!(row.format().contains("ComplEx"));
    }

    #[test]
    fn cph_preset_trains_on_augmented_but_reports_original_test() {
        let ds = SynthWnConfig::at_scale(SynthWnScale::Tiny, 1).generate();
        let row = run_preset(WeightPreset::Cph, &ds, &quick_protocol(), false);
        // Evaluated on the un-augmented test split.
        assert_eq!(row.test.num_queries, ds.test.len() * 2);
        assert_eq!(row.weights, Some(WeightPreset::Cph.omega()));
    }

    #[test]
    fn learned_weights_row_reports_omega() {
        let ds = SynthWnConfig::at_scale(SynthWnScale::Tiny, 1).generate();
        let filter = ds.filter_store();
        let (row, omega) = run_learned_weights(
            "Auto weight",
            WeightRestriction::Softmax,
            None,
            &ds,
            &filter,
            &quick_protocol(),
        );
        assert_eq!(omega.len(), 8);
        assert!((omega.iter().sum::<f32>() - 1.0).abs() < 1e-4);
        assert!(row.test.mrr >= 0.0);
    }

    #[test]
    fn phase_profiler_accumulates_across_runs() {
        let ds = SynthWnConfig::at_scale(SynthWnScale::Tiny, 1).generate();
        let profiler = Arc::new(PhaseProfiler::new());
        assert!(profiler.report().contains("no instrumented training"));

        let mut p = quick_protocol();
        p.train.max_epochs = 5;
        p.observer = Some(Arc::clone(&profiler) as Arc<dyn TrainObserver>);
        run_preset(WeightPreset::ComplEx, &ds, &p, false);
        run_preset(WeightPreset::DistMult, &ds, &p, false);

        assert_eq!(profiler.registry().counter("runs").get(), 2);
        assert_eq!(profiler.registry().counter("epochs").get(), 10);
        assert!(profiler.registry().counter("examples").get() > 0);
        let report = profiler.report();
        assert!(report.contains("2 run(s), 10 epoch(s)"));
        for phase in PHASES {
            assert!(report.contains(phase), "missing {phase} in report:\n{report}");
        }
    }

    #[test]
    fn parity_budget_divides() {
        let p = Protocol::small();
        assert_eq!(p.dim_for(1), p.budget);
        assert_eq!(p.dim_for(2), p.budget / 2);
        assert_eq!(p.dim_for(4), p.budget / 4);
    }

    #[test]
    fn reciprocal_score_block_matches_pointwise_scores() {
        let ds = SynthWnConfig::at_scale(SynthWnScale::Tiny, 2).generate();
        let aug = AugmentedDataset::from_dataset(&ds);
        let mut rng = StdRng::seed_from_u64(5);
        let cfg = ModelConfig {
            num_entities: aug.dataset.num_entities(),
            num_relations: aug.dataset.num_relations(),
            n: 2,
            dim: 10,
        };
        let model =
            MultiEmbedModel::with_fixed_weights(cfg, WeightPreset::Cp.weight_vector(), &mut rng);
        let scorer = ReciprocalScorer::new(&model, ds.num_relations());
        let ne = scorer.num_entities();
        let queries = [
            BlockQuery::tails(mei_kg::EntityId(0), mei_kg::RelationId(0)),
            BlockQuery::heads(mei_kg::EntityId(3), mei_kg::RelationId(1)),
            BlockQuery::tails(mei_kg::EntityId(7), mei_kg::RelationId(2)),
        ];
        let mut blocked = vec![0.0f32; queries.len() * ne];
        scorer.score_block(&queries, &mut blocked);
        for (q, blocked_row) in queries.iter().zip(blocked.chunks(ne)) {
            for (e, got) in blocked_row.iter().enumerate() {
                let candidate = mei_kg::EntityId(e as u32);
                let want = match q.side {
                    Side::Tail => scorer.score(q.anchor, candidate, q.relation),
                    Side::Head => scorer.score(candidate, q.anchor, q.relation),
                };
                assert!((got - want).abs() <= 1e-5 * (1.0 + want.abs()), "{q:?} {e}: {got} vs {want}");
            }
        }
    }

    #[test]
    fn bench_eval_throughput_reports_the_blocked_path() {
        let ds = SynthWnConfig::at_scale(SynthWnScale::Tiny, 4).generate();
        let report = bench_eval_throughput(&ds, 32, 0, 50);
        assert_eq!(report.get("test_triples").and_then(JsonValue::as_usize), Some(50));
        let blocked = report.get("blocked_gemm").expect("blocked_gemm section");
        assert_eq!(blocked.get("queries").and_then(JsonValue::as_usize), Some(100));
        assert!(blocked.get("queries_per_sec").and_then(JsonValue::as_f64).unwrap() > 0.0);
        let mrr = blocked.get("filtered_mrr").and_then(JsonValue::as_f64).unwrap();
        assert!(mrr > 0.0 && mrr <= 1.0, "{mrr}");
        assert!(report.to_json().contains("eval_throughput"));
    }

    #[test]
    fn bench_train_throughput_asserts_thread_parity_and_reports_the_arm() {
        let ds = SynthWnConfig::at_scale(SynthWnScale::Tiny, 4).generate();
        let mut proto = quick_protocol();
        proto.budget = 16;
        // The call itself asserts bit-identical final parameters across
        // the 1/3-thread sweep; it would panic here if that broke.
        let report = bench_train_throughput(&ds, &proto, 0, 2, &[1, 3]);
        assert_eq!(report.get("epochs").and_then(JsonValue::as_usize), Some(2));
        let a = report.get("blocked_flat").expect("missing blocked_flat");
        assert_eq!(a.get("epochs").and_then(JsonValue::as_usize), Some(2));
        assert!(a.get("triples_per_sec_grad").and_then(JsonValue::as_f64).unwrap() > 0.0);
        let phases = a.get("phase_secs").expect("phase_secs");
        for p in PHASES {
            assert!(phases.get(p).is_some(), "missing phase {p}");
        }
        let scaling = report
            .get("thread_scaling")
            .and_then(JsonValue::as_arr)
            .expect("thread_scaling array");
        assert_eq!(scaling.len(), 2);
        for (row, expect_t) in scaling.iter().zip([1usize, 3]) {
            assert_eq!(row.get("threads").and_then(JsonValue::as_usize), Some(expect_t));
            assert_eq!(
                row.get("final_params_bitwise_identical_to_1_thread"),
                Some(&JsonValue::Bool(true))
            );
            assert!(row.get("triples_per_sec_epoch").and_then(JsonValue::as_f64).unwrap() > 0.0);
        }
        let binary = report.get("binary").expect("binary fingerprint");
        assert!(binary.get("build_git_hash").and_then(JsonValue::as_str).is_some());
        assert!(report.to_json().contains("train_throughput"));
        // The artifact carries the kvsall section (checked in depth by
        // bench_kvsall_throughput_reports_rates_and_parity).
        let kv = report.get("kvsall").expect("kvsall section");
        assert_eq!(kv.get("bench").and_then(JsonValue::as_str), Some("kvsall_throughput"));
    }

    #[test]
    fn bench_kvsall_throughput_reports_rates_and_parity() {
        let ds = SynthWnConfig::at_scale(SynthWnScale::Tiny, 4).generate();
        let mut proto = quick_protocol();
        proto.budget = 16;
        // The call itself asserts the contracts: bit parity across the
        // 1/3-thread sweep and bitwise kill-and-resume.
        let report = bench_kvsall_throughput(&ds, &proto, 0, 2, &[1, 3]);
        assert_eq!(report.get("epochs").and_then(JsonValue::as_usize), Some(2));
        assert_eq!(
            report.get("num_entities").and_then(JsonValue::as_usize),
            Some(ds.num_entities())
        );
        assert!(report.get("groups_scored").and_then(JsonValue::as_usize).unwrap() > 0);
        for rate in [
            "forward_candidate_scores_per_sec",
            "backward_candidate_scores_per_sec",
            "grad_candidate_scores_per_sec",
            "negative_path_scores_per_sec",
            "speedup_vs_negative_scoring",
        ] {
            assert!(
                report.get(rate).and_then(JsonValue::as_f64).unwrap() > 0.0,
                "{rate} not positive"
            );
        }
        // The kvsall path populates the backward phase (the GEMM backward
        // passes have their own timer); the negative path keeps it at 0.
        let phases = report.get("phase_secs").expect("phase_secs");
        assert!(phases.get("backward").and_then(JsonValue::as_f64).unwrap() > 0.0);
        assert_eq!(
            report.get("resume_bitwise_identical"),
            Some(&JsonValue::Bool(true))
        );
        let scaling = report
            .get("thread_scaling")
            .and_then(JsonValue::as_arr)
            .expect("thread_scaling array");
        assert_eq!(scaling.len(), 2);
        for (row, expect_t) in scaling.iter().zip([1usize, 3]) {
            assert_eq!(row.get("threads").and_then(JsonValue::as_usize), Some(expect_t));
            assert_eq!(
                row.get("final_params_bitwise_identical_to_1_thread"),
                Some(&JsonValue::Bool(true))
            );
        }
    }

    #[test]
    fn train_sample_is_deterministic_and_bounded() {
        let ds = SynthWnConfig::at_scale(SynthWnScale::Tiny, 1).generate();
        let a = train_sample(&ds, 50);
        let b = train_sample(&ds, 50);
        assert_eq!(a, b);
        assert!(a.len() <= 51);
        let all = train_sample(&ds, 10_000_000);
        assert_eq!(all.len(), ds.train.len());
    }
}
