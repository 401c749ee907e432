//! The training loop (§4–5.3 of the paper).
//!
//! Per positive triple: draw corrupted negatives (1 in the paper), compute
//! the logistic loss (Eq. 16), backpropagate analytically into the touched
//! embedding rows (and ω when learnable), apply per-triple L2
//! regularization `λ/n_D·‖Θ‖²`, step the optimizer (Adam by default), then
//! project entity embeddings back onto the unit sphere. Early stopping
//! monitors filtered MRR on the validation split.

use std::collections::HashSet;
use std::sync::Arc;
use std::time::Instant;

use mei_eval::{evaluate, evaluate_with_stats, EvalConfig, Side};
use mei_kg::negative::CorruptionSide;
use mei_kg::{BernoulliSampler, Dataset, NegativeSampler, SortedTargets, Triple, TripleStore};
use mei_obs::{EpochRecord, EvalRecord, PhaseBreakdown, RunSummary, TrainObserver};
use mei_optim::OptimizerKind;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{RngCore, SeedableRng};

use crate::checkpoint::{save_checkpoint, BestSnapshot, TrainCheckpoint};
use crate::embedding::EmbeddingTable;
use crate::grads::{GradPath, GradWorkspace, KvQuery, KvRegConfig};
use crate::loss::Label;
use crate::model::MultiEmbedModel;
use crate::regularizer::DirichletRegularizer;
use crate::serialize::SerializeError;
use crate::weights::WeightVector;

/// The per-example objective optimized by the trainer.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum LossKind {
    /// Logistic / softplus negative log-likelihood (Eq. 15–16) — the
    /// paper's loss.
    #[default]
    Logistic,
    /// Margin ranking loss `max(0, γ − S(pos) + S(neg))` over each
    /// positive/negative pair — the translation-family objective, exposed
    /// here so loss choice can be ablated independently of the model.
    MarginRanking {
        /// Margin γ.
        margin: f32,
    },
    /// Full-softmax cross-entropy over all entities with multi-label
    /// (k-vs-all) targets: every known true completion of the `(h, r)` /
    /// `(t, r)` query shares the target mass. Requires
    /// [`SamplingStrategy::KvsAll`] — there are no sampled negatives; the
    /// whole entity table is the candidate set.
    SoftmaxCrossEntropy {
        /// Label smoothing ε: targets become `ε/|E| + (1−ε)·multi-hot/|T|`.
        /// `0.0` disables smoothing.
        label_smooth: f32,
    },
}

/// How negatives are drawn during training.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SamplingStrategy {
    /// Uniform entity replacement, head or tail with probability ½ (the
    /// paper's protocol, §4).
    #[default]
    Uniform,
    /// The TransH "bern" strategy: per-relation head/tail corruption
    /// probabilities from tails-per-head vs heads-per-tail statistics,
    /// reducing false negatives on skewed relations.
    Bernoulli,
    /// No sampling at all: every `(anchor, relation)` group in the batch is
    /// scored against the full entity table on the GEMM path and trained
    /// with [`LossKind::SoftmaxCrossEntropy`] (the ConvE/1-N "k-vs-all"
    /// regime). Consumes no per-negative RNG draws — only the epoch
    /// shuffle — so checkpoints still resume bitwise.
    KvsAll,
}

/// When [`TrainConfig::lr_decay`] fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LrDecayMode {
    /// At validation checkpoints (every `eval_every` epochs and the final
    /// epoch) — the original behavior.
    #[default]
    Checkpoint,
    /// After every epoch — the exponential per-epoch schedule common in
    /// k-vs-all setups (e.g. decay 0.99775 each epoch).
    Epoch,
}

/// Hyperparameters for [`Trainer`].
#[derive(Debug, Clone)]
pub struct TrainConfig {
    /// Maximum number of epochs.
    pub max_epochs: usize,
    /// Minibatch size (the paper grid-searches 2¹² and 2¹⁴).
    pub batch_size: usize,
    /// Learning rate (the paper grid-searches 10⁻³ and 10⁻⁴).
    pub learning_rate: f32,
    /// Optimizer (the paper uses Adam).
    pub optimizer: OptimizerKind,
    /// Embedding L2 strength λ of Eq. 16.
    pub l2_lambda: f32,
    /// Negatives per positive (1 in the paper, §5.3).
    pub negatives_per_positive: usize,
    /// Negative-sampling strategy (the paper uses uniform).
    pub sampling: SamplingStrategy,
    /// Training objective (the paper uses the logistic loss).
    pub loss: LossKind,
    /// Project entity embeddings to unit L2 norm after each step (§5.3).
    pub unit_norm_entities: bool,
    /// Validate every this many epochs (the paper: 50).
    pub eval_every: usize,
    /// Stop after this many epochs without validation improvement
    /// (the paper: 100).
    pub patience: usize,
    /// Multiplicative learning-rate decay (1.0 disables decay; the paper
    /// relies on Adam's auto-tuning instead, §5.3). When it fires is
    /// governed by [`TrainConfig::lr_decay_mode`].
    pub lr_decay: f32,
    /// Whether `lr_decay` fires at validation checkpoints (the original
    /// behavior, default) or after every epoch (the exponential schedule).
    /// The decayed rate lives in the optimizer state, so it round-trips
    /// through checkpoints unchanged.
    pub lr_decay_mode: LrDecayMode,
    /// Optional Dirichlet sparsity regularizer on learned ω (Eq. 12).
    /// Incompatible with block-term models (its gradient touches
    /// off-support ω cells).
    pub dirichlet: Option<DirichletRegularizer>,
    /// Dropout probability on the interaction context vectors (after
    /// batch norm, before the score GEMM). `0.0` disables. Requires
    /// [`SamplingStrategy::KvsAll`]; masks are counter-based, so runs
    /// stay bit-identical across thread counts and checkpoint resumes.
    pub dropout: f32,
    /// Dropout probability on the anchor/relation embedding rows feeding
    /// each context build. `0.0` disables. Requires
    /// [`SamplingStrategy::KvsAll`].
    pub input_dropout: f32,
    /// Batch-normalize the interaction context vectors (ConvE-style
    /// training regularization). Training uses batch statistics; eval and
    /// serving apply the running statistics the trainer maintains on the
    /// model's [`crate::model::InteractionNorm`] (enabled automatically
    /// when absent). Requires [`SamplingStrategy::KvsAll`].
    pub batch_norm: bool,
    /// RNG seed for shuffling and negative sampling.
    pub seed: u64,
    /// Print one progress line per validation check.
    pub verbose: bool,
    /// Write a crash-safe checkpoint every this many epochs (0 disables
    /// checkpointing). Requires [`TrainConfig::checkpoint_path`].
    pub checkpoint_every: usize,
    /// Where the latest checkpoint lives. Each write atomically replaces
    /// the previous one, so the file is always a complete checkpoint.
    pub checkpoint_path: Option<std::path::PathBuf>,
    /// Inert: negative sampling has a single gradient implementation, so
    /// [`GradPath`] has one value and this field selects nothing. It stays
    /// so that configurations naming it still build.
    pub grad_path: GradPath,
    /// Worker threads for gradient computation, the cross-chunk merge,
    /// and the fused step/project pass (`0` = all available cores).
    /// Purely a speed knob: results are bit-identical for every value —
    /// checkpoints taken at one thread count resume at any other (see the
    /// [`crate::grads`] module docs and `tests/parallel_parity.rs`).
    pub threads: usize,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self {
            max_epochs: 200,
            batch_size: 1024,
            learning_rate: 1e-3,
            optimizer: OptimizerKind::Adam,
            l2_lambda: 1e-3,
            negatives_per_positive: 1,
            sampling: SamplingStrategy::Uniform,
            loss: LossKind::Logistic,
            unit_norm_entities: true,
            eval_every: 25,
            patience: 50,
            lr_decay: 1.0,
            lr_decay_mode: LrDecayMode::Checkpoint,
            dirichlet: None,
            dropout: 0.0,
            input_dropout: 0.0,
            batch_norm: false,
            seed: 0,
            verbose: false,
            checkpoint_every: 0,
            checkpoint_path: None,
            grad_path: GradPath::default(),
            threads: 0,
        }
    }
}

/// What training produced.
#[derive(Debug, Clone)]
pub struct TrainReport {
    /// Epochs actually run.
    pub epochs_run: usize,
    /// Best validation filtered MRR seen.
    pub best_valid_mrr: f64,
    /// Epoch of the best validation MRR.
    pub best_epoch: usize,
    /// `(epoch, mean train loss)` history.
    pub loss_history: Vec<(usize, f64)>,
    /// `(epoch, validation filtered MRR)` history.
    pub valid_history: Vec<(usize, f64)>,
}

/// Snapshot of all trainable state, for best-model restoration.
struct Snapshot {
    entities: EmbeddingTable,
    relations: EmbeddingTable,
    raw_omega: WeightVector,
    /// Interaction-norm state (`[γ|β|mean|var]`) when the model carries
    /// one — running stats are state, not derived values, so the best
    /// model is only reproducible with them.
    norm: Option<Vec<f32>>,
}

/// Mid-run state reconstructed from a [`TrainCheckpoint`] — everything
/// [`Trainer::run`] needs to continue a run bitwise-identically.
struct ResumeState {
    start_epoch: usize,
    optimizer: Box<dyn mei_optim::Optimizer + Send>,
    rng: StdRng,
    order: Vec<usize>,
    best_epoch: usize,
    best_valid_mrr: f64,
    evals_since_improvement: usize,
    loss_history: Vec<(usize, f64)>,
    valid_history: Vec<(usize, f64)>,
    best: Option<Snapshot>,
}

/// Orchestrates training of a [`MultiEmbedModel`] on a [`Dataset`].
#[derive(Clone)]
pub struct Trainer {
    /// Hyperparameters.
    pub config: TrainConfig,
    /// Telemetry sink. `None` keeps the hot loop free of metric
    /// collection entirely (no timers, no gradient norms).
    observer: Option<Arc<dyn TrainObserver>>,
}

impl std::fmt::Debug for Trainer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Trainer")
            .field("config", &self.config)
            .field("observer", &self.observer.as_ref().map(|_| "dyn TrainObserver"))
            .finish()
    }
}

impl Trainer {
    /// Creates a trainer with no observer attached.
    pub fn new(config: TrainConfig) -> Self {
        Self { config, observer: None }
    }

    /// Attaches a telemetry sink; epoch, eval, and run-end records flow
    /// to it during [`Trainer::train`]. Collection of gradient norms and
    /// phase timings is enabled only when an observer is present, so the
    /// unobserved path keeps its full throughput.
    pub fn with_observer(mut self, observer: Arc<dyn TrainObserver>) -> Self {
        self.observer = Some(observer);
        self
    }

    /// Trains `model` on `dataset.train`, early-stopping on
    /// `dataset.valid` filtered MRR with `filter` as the known-true set.
    /// On return the model holds the best-validation parameters.
    pub fn train(
        &self,
        model: &mut MultiEmbedModel,
        dataset: &Dataset,
        filter: &TripleStore,
    ) -> TrainReport {
        self.run(model, dataset, filter, None)
    }

    /// Continues an interrupted run from `checkpoint`. The model is
    /// overwritten with the checkpointed parameters and training picks up
    /// at the next epoch with the exact optimizer moments, RNG state, and
    /// shuffle permutation the interrupted run had — the continuation is
    /// bitwise identical to a run that was never interrupted, provided
    /// `self.config` and `dataset` match the original run's.
    pub fn resume(
        &self,
        model: &mut MultiEmbedModel,
        dataset: &Dataset,
        filter: &TripleStore,
        checkpoint: TrainCheckpoint,
    ) -> Result<TrainReport, SerializeError> {
        if checkpoint.order.len() != dataset.train.len() {
            return Err(SerializeError::Format(format!(
                "checkpoint shuffle order covers {} triples but the training set has {} — \
                 this checkpoint belongs to a different dataset",
                checkpoint.order.len(),
                dataset.train.len()
            )));
        }
        let cp_model = &checkpoint.model;
        let omega_params =
            if cp_model.trainable_omega() { cp_model.raw_omega().dense().len() } else { 0 };
        // A model carries an interaction norm exactly when it trains with
        // batch norm (see `run`).
        match (self.config.batch_norm, cp_model.interaction_norm().is_some()) {
            (true, false) => {
                return Err(SerializeError::Format(
                    "config asks for batch_norm but the checkpoint model carries no interaction \
                     norm"
                        .to_owned(),
                ))
            }
            (false, true) => {
                return Err(SerializeError::Format(
                    "the checkpoint model carries an interaction norm but the config has \
                     batch_norm off"
                        .to_owned(),
                ))
            }
            _ => {}
        }
        let norm_params = cp_model.interaction_norm().map_or(0, |nrm| 2 * nrm.kdim());
        let expected =
            cp_model.entities.len() + cp_model.relations.len() + omega_params + norm_params;
        if checkpoint.optimizer.len != expected {
            return Err(SerializeError::Format(format!(
                "checkpoint optimizer covers {} parameters but the model has {}",
                checkpoint.optimizer.len, expected
            )));
        }
        if checkpoint.optimizer.kind != self.config.optimizer {
            return Err(SerializeError::Format(format!(
                "checkpoint was taken with optimizer {:?} but the config asks for {:?}",
                checkpoint.optimizer.kind, self.config.optimizer
            )));
        }
        let optimizer = checkpoint.optimizer.build().map_err(SerializeError::Format)?;

        let cfg_model = cp_model.config();
        let n_rel = cp_model.raw_omega().n_rel();
        let best = checkpoint.best.as_ref().map(|b| {
            let mut entities =
                EmbeddingTable::zeros(cfg_model.num_entities, cfg_model.n, cfg_model.dim);
            entities.as_mut_slice().copy_from_slice(&b.entities);
            let mut relations =
                EmbeddingTable::zeros(cfg_model.num_relations, n_rel, cfg_model.dim);
            relations.as_mut_slice().copy_from_slice(&b.relations);
            Snapshot {
                entities,
                relations,
                raw_omega: WeightVector::with_dims(cfg_model.n, n_rel, b.raw_omega.clone()),
                norm: b.norm.clone(),
            }
        });

        let resume = ResumeState {
            start_epoch: checkpoint.epoch,
            optimizer,
            rng: StdRng::from_state(checkpoint.rng_state),
            order: checkpoint.order,
            best_epoch: checkpoint.best_epoch,
            best_valid_mrr: checkpoint.best_valid_mrr,
            evals_since_improvement: checkpoint.evals_since_improvement,
            loss_history: checkpoint.loss_history,
            valid_history: checkpoint.valid_history,
            best,
        };
        *model = checkpoint.model;
        Ok(self.run(model, dataset, filter, Some(resume)))
    }

    /// The shared training loop behind [`Trainer::train`] (fresh start)
    /// and [`Trainer::resume`] (continue from checkpointed state).
    fn run(
        &self,
        model: &mut MultiEmbedModel,
        dataset: &Dataset,
        filter: &TripleStore,
        resume: Option<ResumeState>,
    ) -> TrainReport {
        let cfg = &self.config;
        let ent_params = model.entities.len();
        let rel_params = model.relations.len();
        let omega_params = if model.trainable_omega() { model.raw_omega().dense().len() } else { 0 };

        let n_d = model.num_embedding_params() as f32;
        let l2_coef = 2.0 * cfg.l2_lambda / n_d;

        // Training-stack regularizers (dropout / batch norm) run on the
        // k-vs-all path only; validate the knobs before any state moves.
        assert!(
            (0.0..1.0).contains(&cfg.dropout) && (0.0..1.0).contains(&cfg.input_dropout),
            "dropout probabilities must lie in [0, 1)"
        );
        let kv_reg = KvRegConfig {
            dropout: cfg.dropout,
            input_dropout: cfg.input_dropout,
            batch_norm: cfg.batch_norm,
            mask_seed: 0,
        };
        assert!(
            !kv_reg.is_active() || cfg.sampling == SamplingStrategy::KvsAll,
            "dropout/batch_norm regularizers require SamplingStrategy::KvsAll"
        );
        assert!(
            cfg.dirichlet.is_none() || model.block_term_shape().is_none(),
            "the Dirichlet ω regularizer is incompatible with block-term models: its gradient \
             would touch off-support ω cells"
        );
        assert!(
            cfg.batch_norm || model.interaction_norm().is_none(),
            "the model carries an interaction norm but batch_norm is off: scoring would apply \
             the norm's running statistics while the gradients differentiate the raw context"
        );
        if cfg.batch_norm && model.interaction_norm().is_none() {
            model.enable_interaction_norm(0.1, 1e-5);
        }
        let norm_params = if cfg.batch_norm {
            2 * model.interaction_norm().expect("enabled above").kdim()
        } else {
            0
        };

        let uniform = NegativeSampler::new(model.config().num_entities, CorruptionSide::Both);
        let bernoulli = (cfg.sampling == SamplingStrategy::Bernoulli).then(|| {
            BernoulliSampler::from_triples(
                model.config().num_entities,
                model.config().num_relations,
                &dataset.train,
            )
        });

        // k-vs-all: the multi-label targets come from the *training* split
        // only — using the filter store here would leak validation/test
        // triples into the loss. Built once and reused every epoch.
        let kv_targets = match (cfg.sampling, cfg.loss) {
            (SamplingStrategy::KvsAll, LossKind::SoftmaxCrossEntropy { .. }) => {
                Some(SortedTargets::from_store(&dataset.train_store()))
            }
            (SamplingStrategy::KvsAll, other) => panic!(
                "SamplingStrategy::KvsAll requires LossKind::SoftmaxCrossEntropy, got {other:?}"
            ),
            (other, LossKind::SoftmaxCrossEntropy { .. }) => panic!(
                "LossKind::SoftmaxCrossEntropy requires SamplingStrategy::KvsAll, got {other:?}"
            ),
            _ => None,
        };
        let label_smooth = match cfg.loss {
            LossKind::SoftmaxCrossEntropy { label_smooth } => label_smooth,
            _ => 0.0,
        };

        // Fresh runs start from the seed; resumed runs pick up the exact
        // mid-run state (optimizer moments, RNG words, live permutation,
        // early-stopping bookkeeping) the checkpoint captured.
        let (start_epoch, mut optimizer, mut rng, mut order, mut report, mut best, mut evals_since_improvement);
        match resume {
            None => {
                start_epoch = 0;
                optimizer = cfg
                    .optimizer
                    .build(ent_params + rel_params + omega_params + norm_params, cfg.learning_rate);
                rng = StdRng::seed_from_u64(cfg.seed);
                order = (0..dataset.train.len()).collect();
                report = TrainReport {
                    epochs_run: 0,
                    best_valid_mrr: f64::NEG_INFINITY,
                    best_epoch: 0,
                    loss_history: Vec::new(),
                    valid_history: Vec::new(),
                };
                best = None;
                evals_since_improvement = 0;
            }
            Some(state) => {
                start_epoch = state.start_epoch;
                optimizer = state.optimizer;
                rng = state.rng;
                order = state.order;
                report = TrainReport {
                    epochs_run: state.start_epoch,
                    best_valid_mrr: state.best_valid_mrr,
                    best_epoch: state.best_epoch,
                    loss_history: state.loss_history,
                    valid_history: state.valid_history,
                };
                best = state.best;
                evals_since_improvement = state.evals_since_improvement;
            }
        }
        let eval_cfg = EvalConfig::default();

        let observer = self.observer.as_deref();
        let observing = observer.is_some();
        let run_started = Instant::now();
        let mut stopped_early = false;

        // All per-batch gradient scratch lives in the workspace and is
        // recycled across batches.
        let mut workspace = GradWorkspace::with_threads(cfg.threads);
        let mut grad_raw_scratch = vec![0.0f32; omega_params];
        let mut norm_param_scratch = vec![0.0f32; norm_params];
        let mut norm_grad_scratch = vec![0.0f32; norm_params];

        for epoch in (start_epoch + 1)..=cfg.max_epochs {
            let epoch_started = Instant::now();
            let mut phases = PhaseBreakdown::default();
            let mut grad_sq = 0.0f64;
            order.shuffle(&mut rng);
            let mut epoch_loss = 0.0f64;
            let mut epoch_examples = 0usize;
            let mut epoch_positives = 0usize;

            for batch in order.chunks(cfg.batch_size) {
                let batch_loss = if let Some(targets) = &kv_targets {
                    // k-vs-all: group the batch by (side, anchor, relation)
                    // — first-touch order over the shuffled batch keeps the
                    // query list deterministic — then score every group
                    // against the full entity table on the GEMM path.
                    // Draws no RNG, so the stream stays in lockstep with
                    // checkpoints.
                    let span = observing.then(Instant::now);
                    let mut queries: Vec<KvQuery> = Vec::with_capacity(batch.len() * 2);
                    let mut seen: HashSet<(Side, u32, u32)> =
                        HashSet::with_capacity(batch.len() * 2);
                    for &idx in batch {
                        let pos = dataset.train[idx];
                        for (side, anchor) in [(Side::Tail, pos.head), (Side::Head, pos.tail)] {
                            if seen.insert((side, anchor.0, pos.relation.0)) {
                                queries.push(KvQuery {
                                    side,
                                    anchor,
                                    relation: pos.relation,
                                });
                            }
                        }
                    }
                    if let Some(t0) = span {
                        phases.sampling += t0.elapsed().as_secs_f64();
                    }
                    // "forward" covers the context build + the score GEMM +
                    // the softmax; "backward" the two GEMM-shaped gradient
                    // passes; "merge" the deterministic cross-chunk combine.
                    // Regularized batches draw exactly one RNG word (the
                    // batch mask seed); plain batches draw none — each
                    // regime's stream stays in lockstep with its own
                    // checkpoints.
                    let reg = KvRegConfig {
                        mask_seed: if kv_reg.is_active() { rng.next_u64() } else { 0 },
                        ..kv_reg
                    };
                    let loss = workspace.compute_kvsall(
                        model,
                        &queries,
                        targets,
                        l2_coef,
                        label_smooth,
                        &reg,
                        observing.then_some(&mut phases),
                    );
                    epoch_examples += queries.len();
                    loss
                } else {
                    // Materialize the labeled batch sequentially so the RNG
                    // stream (and thus the whole run) is deterministic.
                    let span = observing.then(Instant::now);
                    let mut examples: Vec<(Triple, Label)> =
                        Vec::with_capacity(batch.len() * (1 + cfg.negatives_per_positive));
                    for &idx in batch {
                        let pos = dataset.train[idx];
                        examples.push((pos, Label::Positive));
                        for _ in 0..cfg.negatives_per_positive {
                            let neg = match &bernoulli {
                                Some(b) => b.corrupt(&mut rng, pos),
                                None => uniform.corrupt(&mut rng, pos),
                            };
                            examples.push((neg, Label::Negative));
                        }
                    }
                    if let Some(t0) = span {
                        phases.sampling += t0.elapsed().as_secs_f64();
                    }

                    // Parallel gradient computation, sequential application.
                    // "forward" covers the fused forward+backward example
                    // pass (the per-example gradients come out of the same
                    // traversal as the scores); "merge" covers the
                    // deterministic cross-chunk combine.
                    let loss = workspace.compute(
                        model,
                        &examples,
                        l2_coef,
                        cfg.loss,
                        1 + cfg.negatives_per_positive,
                        observing.then_some(&mut phases),
                    );
                    epoch_examples += examples.len();
                    loss
                };
                epoch_loss += batch_loss;
                epoch_positives += batch.len();

                if observing {
                    // Accumulate in sorted row order so the reported norm
                    // is identical across same-seed runs (storage order
                    // is not, and f64 addition is not associative).
                    workspace.for_each_row_sorted(|_, grad| {
                        grad_sq +=
                            grad.iter().map(|g| f64::from(*g) * f64::from(*g)).sum::<f64>();
                    });
                    if model.trainable_omega() {
                        grad_sq += workspace
                            .omega_grads()
                            .iter()
                            .map(|g| f64::from(*g) * f64::from(*g))
                            .sum::<f64>();
                    }
                }

                let span = observing.then(Instant::now);
                optimizer.step_begin();
                if kv_targets.is_some() {
                    // Full-softmax batches touch every entity row (the
                    // softmax gives all candidates gradient mass), so the
                    // step walks the dense entity slab plus the sparse
                    // relation rows.
                    crate::fused::fused_step_project_kvsall(
                        model,
                        &workspace,
                        optimizer.as_mut(),
                        cfg.unit_norm_entities,
                        ent_params,
                        workspace.threads(),
                    );
                    if cfg.batch_norm {
                        // γ/β live after the embeddings and ω in the flat
                        // optimizer parameter space, packed [γ|β]. Same
                        // borrow dance as the ω step: update a scratch
                        // copy, then write back.
                        let kdim = norm_params / 2;
                        let (ggamma, gbeta) = workspace.reg_norm_grads();
                        norm_grad_scratch[..kdim].copy_from_slice(ggamma);
                        norm_grad_scratch[kdim..].copy_from_slice(gbeta);
                        {
                            let nrm = model.interaction_norm().expect("enabled above");
                            norm_param_scratch[..kdim].copy_from_slice(&nrm.gamma);
                            norm_param_scratch[kdim..].copy_from_slice(&nrm.beta);
                        }
                        let offset = ent_params + rel_params + omega_params;
                        optimizer.update(offset, &mut norm_param_scratch, &norm_grad_scratch);
                        let (mean, var, q) = workspace.reg_batch_stats();
                        let nrm = model.interaction_norm_mut().expect("enabled above");
                        nrm.gamma.copy_from_slice(&norm_param_scratch[..kdim]);
                        nrm.beta.copy_from_slice(&norm_param_scratch[kdim..]);
                        // Running stats track the batch statistics with
                        // momentum; the variance is unbiased (×Q/(Q−1))
                        // before it enters the running estimate, matching
                        // standard batch-norm eval semantics.
                        let m = nrm.momentum;
                        let unbias = if q > 1 { q as f32 / (q as f32 - 1.0) } else { 1.0 };
                        for f in 0..kdim {
                            nrm.running_mean[f] = (1.0 - m) * nrm.running_mean[f] + m * mean[f];
                            nrm.running_var[f] =
                                (1.0 - m) * nrm.running_var[f] + m * (var[f] * unbias);
                        }
                    }
                } else {
                    // One sweep over the touched rows, sharded across the
                    // worker pool, with the unit-sphere projection applied
                    // right after each entity row's update. Timed entirely
                    // under "step" (the separate "project" phase is 0).
                    crate::fused::fused_step_project(
                        model,
                        &workspace,
                        optimizer.as_mut(),
                        cfg.unit_norm_entities,
                        ent_params,
                        workspace.threads(),
                    );
                }
                if let Some(t0) = span {
                    phases.step += t0.elapsed().as_secs_f64();
                }
                if model.trainable_omega() {
                    // "backward": the chain-rule transform from the
                    // effective-ω gradient back to raw parameters.
                    let span = observing.then(Instant::now);
                    let grad_eff = workspace.omega_grads_mut();
                    if let Some(reg) = &cfg.dirichlet {
                        reg.accumulate_grad(model.omega().dense(), grad_eff);
                    }
                    grad_raw_scratch.fill(0.0);
                    model.omega_grad_raw(grad_eff, &mut grad_raw_scratch);
                    if let Some(t0) = span {
                        phases.backward += t0.elapsed().as_secs_f64();
                    }
                    let span = observing.then(Instant::now);
                    let offset = ent_params + rel_params;
                    // Borrow dance: update a scratch copy, then write back.
                    let mut raw = model.raw_omega().dense().to_vec();
                    optimizer.update(offset, &mut raw, &grad_raw_scratch);
                    model.raw_omega_mut().dense_mut().copy_from_slice(&raw);
                    model.refresh_omega();
                    if let Some(t0) = span {
                        phases.step += t0.elapsed().as_secs_f64();
                    }
                }
            }

            report.epochs_run = epoch;
            let mean_loss = if epoch_examples == 0 { 0.0 } else { epoch_loss / epoch_examples as f64 };
            report.loss_history.push((epoch, mean_loss));

            let is_eval_epoch = epoch % cfg.eval_every == 0 || epoch == cfg.max_epochs;
            let decay_now = match cfg.lr_decay_mode {
                LrDecayMode::Checkpoint => is_eval_epoch,
                LrDecayMode::Epoch => true,
            };
            if decay_now && cfg.lr_decay != 1.0 {
                // The decayed rate lives inside the optimizer, which
                // `export_state` serializes — so it survives checkpoint
                // round-trips without separate bookkeeping.
                let lr = optimizer.learning_rate() * cfg.lr_decay;
                optimizer.set_learning_rate(lr);
            }
            if is_eval_epoch && !dataset.valid.is_empty() {
                let filtered = if let Some(obs) = observer {
                    let (_, filtered, stats) =
                        evaluate_with_stats(&*model, &dataset.valid, filter, &eval_cfg);
                    obs.on_eval(&EvalRecord {
                        epoch,
                        split: "valid".to_owned(),
                        queries: stats.queries,
                        queries_per_sec: stats.queries_per_sec,
                        mrr: filtered.mrr,
                        mrr_head_side: filtered.mrr_head_side,
                        mrr_tail_side: filtered.mrr_tail_side,
                        tie_rate: stats.tie_rate,
                        tie_policy: eval_cfg.tie_policy.name().to_owned(),
                        head_ranks: stats.head_ranks,
                        tail_ranks: stats.tail_ranks,
                        wall_secs: stats.wall_secs,
                    });
                    filtered
                } else {
                    evaluate(&*model, &dataset.valid, filter, &eval_cfg).1
                };
                report.valid_history.push((epoch, filtered.mrr));
                if cfg.verbose {
                    eprintln!(
                        "epoch {epoch:4}  loss {mean_loss:.4}  valid filtered MRR {:.4}",
                        filtered.mrr
                    );
                }
                if filtered.mrr > report.best_valid_mrr {
                    report.best_valid_mrr = filtered.mrr;
                    report.best_epoch = epoch;
                    evals_since_improvement = 0;
                    best = Some(Snapshot {
                        entities: model.entities.clone(),
                        relations: model.relations.clone(),
                        raw_omega: model.raw_omega().clone(),
                        norm: model.interaction_norm().map(|nrm| nrm.flat()),
                    });
                } else {
                    evals_since_improvement += 1;
                    if epoch - report.best_epoch >= cfg.patience {
                        stopped_early = true;
                    }
                }
            }

            if let Some(obs) = observer {
                let wall_secs = epoch_started.elapsed().as_secs_f64();
                obs.on_epoch(&EpochRecord {
                    epoch,
                    mean_loss,
                    examples: epoch_examples,
                    examples_per_sec: if wall_secs > 0.0 {
                        epoch_examples as f64 / wall_secs
                    } else {
                        0.0
                    },
                    triples_per_sec: if wall_secs > 0.0 {
                        epoch_positives as f64 / wall_secs
                    } else {
                        0.0
                    },
                    grad_norm: Some(grad_sq.sqrt()),
                    learning_rate: f64::from(optimizer.learning_rate()),
                    phases,
                    best_epoch: best.as_ref().map(|_| report.best_epoch),
                    best_valid_mrr: best.as_ref().map(|_| report.best_valid_mrr),
                    evals_since_improvement,
                    wall_secs,
                });
            }

            // Checkpoint at the end of the epoch body: the RNG has made
            // all of this epoch's draws and the next draw is the next
            // epoch's shuffle, so restoring here continues bit-for-bit.
            // Skipped when early stopping fired — the run is complete and
            // the existing checkpoint still resumes to this same end.
            if cfg.checkpoint_every > 0 && epoch % cfg.checkpoint_every == 0 && !stopped_early {
                if let Some(path) = &cfg.checkpoint_path {
                    let cp = TrainCheckpoint {
                        epoch,
                        model: model.clone(),
                        optimizer: optimizer.export_state(),
                        rng_state: rng.state(),
                        order: order.clone(),
                        best_epoch: report.best_epoch,
                        best_valid_mrr: report.best_valid_mrr,
                        evals_since_improvement,
                        loss_history: report.loss_history.clone(),
                        valid_history: report.valid_history.clone(),
                        best: best.as_ref().map(|s| BestSnapshot {
                            entities: s.entities.as_slice().to_vec(),
                            relations: s.relations.as_slice().to_vec(),
                            raw_omega: s.raw_omega.dense().to_vec(),
                            norm: s.norm.clone(),
                        }),
                    };
                    // A failed checkpoint write must not kill hours of
                    // training — warn and keep going; the previous
                    // checkpoint (if any) is still intact thanks to the
                    // atomic writer.
                    if let Err(e) = save_checkpoint(&cp, path) {
                        eprintln!(
                            "warning: checkpoint write to {} failed at epoch {epoch}: {e}",
                            path.display()
                        );
                    }
                }
            }
            if stopped_early {
                break;
            }
        }

        if let Some(snap) = best {
            model.entities = snap.entities;
            model.relations = snap.relations;
            *model.raw_omega_mut() = snap.raw_omega;
            if let Some(flat) = &snap.norm {
                model
                    .interaction_norm_mut()
                    .expect("snapshot carries norm state, so the model carries a norm")
                    .restore_flat(flat);
            }
            model.refresh_omega();
        }
        if let Some(obs) = observer {
            obs.on_run_end(&RunSummary {
                epochs_run: report.epochs_run,
                stopped_early,
                best_epoch: (!report.valid_history.is_empty()).then_some(report.best_epoch),
                best_valid_mrr: (!report.valid_history.is_empty()).then_some(report.best_valid_mrr),
                wall_secs: run_started.elapsed().as_secs_f64(),
            });
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::ModelConfig;
    use crate::weights::{WeightPreset, WeightRestriction};
    use mei_eval::{BlockQuery, TripleScorer};
    use mei_kg::Dictionary;

    /// A 12-entity graph with a deterministic "successor" relation and its
    /// inverse — small enough to fit in seconds, structured enough that a
    /// capable model must fit it.
    fn ring_dataset() -> Dataset {
        let n = 12u32;
        let entities = Dictionary::from_names((0..n).map(|i| format!("e{i}")));
        let relations = Dictionary::from_names(["succ", "pred"]);
        let mut train = Vec::new();
        for i in 0..n {
            let j = (i + 1) % n;
            train.push(Triple::new(i, j, 0));
            train.push(Triple::new(j, i, 1));
        }
        // Hold out two triples for validation.
        let valid = vec![train.pop().unwrap(), train.remove(3)];
        Dataset { entities, relations, train, valid, test: vec![] }
    }

    fn quick_config() -> TrainConfig {
        TrainConfig {
            max_epochs: 120,
            batch_size: 8,
            learning_rate: 0.05,
            optimizer: OptimizerKind::Adam,
            l2_lambda: 1e-4,
            negatives_per_positive: 2,
            sampling: SamplingStrategy::Uniform,
            loss: LossKind::Logistic,
            unit_norm_entities: true,
            eval_every: 30,
            patience: 90,
            lr_decay: 1.0,
            lr_decay_mode: LrDecayMode::Checkpoint,
            dirichlet: None,
            dropout: 0.0,
            input_dropout: 0.0,
            batch_norm: false,
            seed: 7,
            verbose: false,
            checkpoint_every: 0,
            checkpoint_path: None,
            grad_path: GradPath::default(),
            threads: 0,
        }
    }

    #[test]
    fn training_reduces_loss_and_learns_the_ring() {
        let ds = ring_dataset();
        let mut rng = StdRng::seed_from_u64(3);
        let mut model = MultiEmbedModel::from_preset(
            WeightPreset::ComplEx,
            ds.num_entities(),
            ds.num_relations(),
            16,
            &mut rng,
        );
        let filter = ds.filter_store();
        let report = Trainer::new(quick_config()).train(&mut model, &ds, &filter);
        let first = report.loss_history.first().unwrap().1;
        let last = report.loss_history.last().unwrap().1;
        assert!(last < first * 0.6, "loss did not drop: {first} → {last}");
        // The held-out successor triples should rank well.
        assert!(report.best_valid_mrr > 0.5, "valid MRR {}", report.best_valid_mrr);
    }

    #[test]
    fn training_separates_true_from_corrupted_scores() {
        let ds = ring_dataset();
        let mut rng = StdRng::seed_from_u64(5);
        let mut model = MultiEmbedModel::from_preset(
            WeightPreset::Cph,
            ds.num_entities(),
            ds.num_relations(),
            16,
            &mut rng,
        );
        let filter = ds.filter_store();
        Trainer::new(quick_config()).train(&mut model, &ds, &filter);
        let mut pos_mean = 0.0f32;
        let mut neg_mean = 0.0f32;
        for t in &ds.train {
            pos_mean += model.score_triple(*t);
            neg_mean += model.score_triple(Triple::new(t.head.0, (t.head.0 + 5) % 12, t.relation.0));
        }
        assert!(
            pos_mean > neg_mean,
            "positives should outscore corruptions: {pos_mean} vs {neg_mean}"
        );
    }

    #[test]
    fn unit_norm_constraint_is_enforced() {
        let ds = ring_dataset();
        let mut rng = StdRng::seed_from_u64(9);
        let mut model = MultiEmbedModel::from_preset(
            WeightPreset::DistMult,
            ds.num_entities(),
            ds.num_relations(),
            8,
            &mut rng,
        );
        let filter = ds.filter_store();
        let mut cfg = quick_config();
        cfg.max_epochs = 5;
        cfg.eval_every = 100; // skip snapshots: inspect the live parameters
        Trainer::new(cfg).train(&mut model, &ds, &filter);
        for e in 0..ds.num_entities() {
            for c in 0..model.config().n {
                let norm = mei_math::l2_norm(model.entities.vec(e, c));
                assert!((norm - 1.0).abs() < 1e-3, "entity {e} comp {c}: {norm}");
            }
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let ds = ring_dataset();
        let run = || {
            let mut rng = StdRng::seed_from_u64(11);
            let mut model = MultiEmbedModel::from_preset(
                WeightPreset::ComplEx,
                ds.num_entities(),
                ds.num_relations(),
                8,
                &mut rng,
            );
            let filter = ds.filter_store();
            let mut cfg = quick_config();
            cfg.max_epochs = 10;
            Trainer::new(cfg).train(&mut model, &ds, &filter);
            model.score_triple(Triple::new(0, 1, 0))
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn lr_decay_shrinks_the_learning_rate_but_still_trains() {
        let ds = ring_dataset();
        let mut rng = StdRng::seed_from_u64(31);
        let mut model = MultiEmbedModel::from_preset(
            WeightPreset::ComplEx,
            ds.num_entities(),
            ds.num_relations(),
            8,
            &mut rng,
        );
        let filter = ds.filter_store();
        let mut cfg = quick_config();
        cfg.lr_decay = 0.5;
        let report = Trainer::new(cfg).train(&mut model, &ds, &filter);
        let first = report.loss_history.first().unwrap().1;
        let last = report.loss_history.last().unwrap().1;
        assert!(last < first, "decayed training did not reduce loss");
    }

    #[test]
    fn margin_ranking_loss_trains_the_ring() {
        let ds = ring_dataset();
        let mut rng = StdRng::seed_from_u64(29);
        let mut model = MultiEmbedModel::from_preset(
            WeightPreset::ComplEx,
            ds.num_entities(),
            ds.num_relations(),
            16,
            &mut rng,
        );
        let filter = ds.filter_store();
        let mut cfg = quick_config();
        cfg.loss = LossKind::MarginRanking { margin: 1.0 };
        let report = Trainer::new(cfg).train(&mut model, &ds, &filter);
        assert!(
            report.best_valid_mrr > 0.4,
            "margin-trained ComplEx should learn the ring: {}",
            report.best_valid_mrr
        );
        // Margin loss actually decreased.
        let first = report.loss_history.first().unwrap().1;
        let last = report.loss_history.last().unwrap().1;
        assert!(last < first, "margin loss did not drop: {first} → {last}");
    }

    #[test]
    fn bernoulli_sampling_trains_comparably() {
        let ds = ring_dataset();
        let mut rng = StdRng::seed_from_u64(23);
        let mut model = MultiEmbedModel::from_preset(
            WeightPreset::ComplEx,
            ds.num_entities(),
            ds.num_relations(),
            8,
            &mut rng,
        );
        let filter = ds.filter_store();
        let mut cfg = quick_config();
        cfg.sampling = SamplingStrategy::Bernoulli;
        let report = Trainer::new(cfg).train(&mut model, &ds, &filter);
        let first = report.loss_history.first().unwrap().1;
        let last = report.loss_history.last().unwrap().1;
        assert!(last < first, "bernoulli-sampled training did not reduce loss");
    }

    #[test]
    fn learned_omega_moves_during_training() {
        let ds = ring_dataset();
        let mut rng = StdRng::seed_from_u64(13);
        let cfg_model = ModelConfig {
            num_entities: ds.num_entities(),
            num_relations: ds.num_relations(),
            n: 2,
            dim: 8,
        };
        let mut model =
            MultiEmbedModel::with_learned_weights(cfg_model, WeightRestriction::None, 0.3, &mut rng);
        let before: Vec<f32> = model.omega().dense().to_vec();
        let filter = ds.filter_store();
        let mut cfg = quick_config();
        cfg.max_epochs = 20;
        Trainer::new(cfg).train(&mut model, &ds, &filter);
        let after = model.omega().dense();
        let moved: f32 = before.iter().zip(after).map(|(a, b)| (a - b).abs()).sum();
        assert!(moved > 1e-3, "ω did not move: {moved}");
    }

    #[test]
    fn early_stopping_restores_best_snapshot() {
        let ds = ring_dataset();
        let mut rng = StdRng::seed_from_u64(17);
        let mut model = MultiEmbedModel::from_preset(
            WeightPreset::ComplEx,
            ds.num_entities(),
            ds.num_relations(),
            8,
            &mut rng,
        );
        let filter = ds.filter_store();
        let mut cfg = quick_config();
        cfg.max_epochs = 60;
        cfg.eval_every = 10;
        cfg.patience = 20;
        let report = Trainer::new(cfg).train(&mut model, &ds, &filter);
        // The restored model must reproduce the reported best MRR.
        let (_, filtered) =
            evaluate(&model, &ds.valid, &filter, &EvalConfig::default());
        assert!(
            (filtered.mrr - report.best_valid_mrr).abs() < 1e-9,
            "restored model MRR {} != best {}",
            filtered.mrr,
            report.best_valid_mrr
        );
    }

    fn kvsall_config() -> TrainConfig {
        let mut cfg = quick_config();
        cfg.sampling = SamplingStrategy::KvsAll;
        cfg.loss = LossKind::SoftmaxCrossEntropy { label_smooth: 0.1 };
        cfg
    }

    #[test]
    fn kvsall_training_learns_the_ring() {
        let ds = ring_dataset();
        let mut rng = StdRng::seed_from_u64(37);
        let mut model = MultiEmbedModel::from_preset(
            WeightPreset::ComplEx,
            ds.num_entities(),
            ds.num_relations(),
            16,
            &mut rng,
        );
        let filter = ds.filter_store();
        let report = Trainer::new(kvsall_config()).train(&mut model, &ds, &filter);
        let first = report.loss_history.first().unwrap().1;
        let last = report.loss_history.last().unwrap().1;
        assert!(last < first, "kvsall loss did not drop: {first} → {last}");
        assert!(report.best_valid_mrr > 0.5, "valid MRR {}", report.best_valid_mrr);
    }

    #[test]
    fn regularized_kvsall_training_learns_the_ring() {
        let ds = ring_dataset();
        let mut rng = StdRng::seed_from_u64(53);
        let mut model = MultiEmbedModel::from_preset(
            WeightPreset::ComplEx,
            ds.num_entities(),
            ds.num_relations(),
            16,
            &mut rng,
        );
        let filter = ds.filter_store();
        let mut cfg = kvsall_config();
        cfg.dropout = 0.1;
        cfg.input_dropout = 0.1;
        cfg.batch_norm = true;
        let report = Trainer::new(cfg).train(&mut model, &ds, &filter);
        let first = report.loss_history.first().unwrap().1;
        let last = report.loss_history.last().unwrap().1;
        assert!(last < first, "regularized kvsall loss did not drop: {first} → {last}");
        assert!(report.best_valid_mrr > 0.4, "valid MRR {}", report.best_valid_mrr);
        // Training touched the norm: running stats moved off the identity
        // init and γ/β took optimizer steps.
        let nrm = model.interaction_norm().expect("batch_norm enables the norm");
        assert!(nrm.running_mean.iter().any(|&v| v != 0.0), "running mean never updated");
        assert!(nrm.gamma.iter().any(|&v| v != 1.0), "γ never stepped");
    }

    #[test]
    fn regularized_training_is_thread_count_invariant() {
        let ds = ring_dataset();
        let filter = ds.filter_store();
        let run = |threads: usize| {
            let mut rng = StdRng::seed_from_u64(59);
            let mut model = MultiEmbedModel::from_preset(
                WeightPreset::ComplEx,
                ds.num_entities(),
                ds.num_relations(),
                8,
                &mut rng,
            );
            let mut cfg = kvsall_config();
            cfg.max_epochs = 4;
            cfg.eval_every = 100;
            cfg.dropout = 0.2;
            cfg.input_dropout = 0.1;
            cfg.batch_norm = true;
            cfg.threads = threads;
            Trainer::new(cfg).train(&mut model, &ds, &filter);
            model.entities.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        };
        assert_eq!(run(1), run(4), "regularized training diverged across thread counts");
    }

    #[test]
    #[should_panic(expected = "require SamplingStrategy::KvsAll")]
    fn reg_knobs_reject_sampled_training() {
        let ds = ring_dataset();
        let mut rng = StdRng::seed_from_u64(1);
        let mut model = MultiEmbedModel::from_preset(
            WeightPreset::ComplEx,
            ds.num_entities(),
            ds.num_relations(),
            4,
            &mut rng,
        );
        let filter = ds.filter_store();
        let mut cfg = quick_config();
        cfg.dropout = 0.2; // sampling left Uniform
        Trainer::new(cfg).train(&mut model, &ds, &filter);
    }

    #[test]
    #[should_panic(expected = "requires LossKind::SoftmaxCrossEntropy")]
    fn kvsall_sampling_rejects_pointwise_losses() {
        let ds = ring_dataset();
        let mut rng = StdRng::seed_from_u64(1);
        let mut model = MultiEmbedModel::from_preset(
            WeightPreset::ComplEx,
            ds.num_entities(),
            ds.num_relations(),
            4,
            &mut rng,
        );
        let filter = ds.filter_store();
        let mut cfg = quick_config();
        cfg.sampling = SamplingStrategy::KvsAll; // loss left Logistic
        Trainer::new(cfg).train(&mut model, &ds, &filter);
    }

    #[test]
    #[should_panic(expected = "carries an interaction norm but batch_norm is off")]
    fn a_norm_without_batch_norm_is_rejected() {
        let ds = ring_dataset();
        let mut rng = StdRng::seed_from_u64(1);
        let mut model = MultiEmbedModel::from_preset(
            WeightPreset::ComplEx,
            ds.num_entities(),
            ds.num_relations(),
            4,
            &mut rng,
        );
        model.enable_interaction_norm(0.1, 1e-5);
        let filter = ds.filter_store();
        Trainer::new(kvsall_config()).train(&mut model, &ds, &filter);
    }

    #[test]
    fn epoch_mode_decays_the_lr_every_epoch() {
        // With eval_every past max_epochs, Checkpoint mode only decays on
        // the final epoch; Epoch mode must compound every epoch. The 0.5
        // factor is exact in f32, so the expectation is exact too.
        let mut ds = ring_dataset();
        ds.valid.clear();
        let dir = std::env::temp_dir().join(format!("mei_lrdecay_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("decay.meic");
        let mut rng = StdRng::seed_from_u64(41);
        let mut model = MultiEmbedModel::from_preset(
            WeightPreset::ComplEx,
            ds.num_entities(),
            ds.num_relations(),
            8,
            &mut rng,
        );
        let filter = ds.filter_store();
        let mut cfg = quick_config();
        cfg.max_epochs = 4;
        cfg.eval_every = 100;
        cfg.lr_decay = 0.5;
        cfg.lr_decay_mode = LrDecayMode::Epoch;
        cfg.checkpoint_every = 4;
        cfg.checkpoint_path = Some(path.clone());
        Trainer::new(cfg).train(&mut model, &ds, &filter);
        let cp = crate::checkpoint::load_checkpoint(&path).unwrap();
        assert_eq!(cp.optimizer.lr, 0.05 * 0.5f32.powi(4), "lr after 4 epoch decays");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn epoch_decayed_lr_roundtrips_through_checkpoints_bitwise() {
        // Interrupt an epoch-decay kvsall run at epoch 3 of 6 and resume:
        // the continuation must be bit-identical to the uninterrupted run,
        // which in particular proves the decayed lr survives the MEIC
        // round-trip (a stale lr would skew epochs 4–6).
        let mut ds = ring_dataset();
        ds.valid.clear();
        let filter = ds.filter_store();
        let build = || {
            let mut rng = StdRng::seed_from_u64(43);
            MultiEmbedModel::from_preset(
                WeightPreset::ComplEx,
                ds.num_entities(),
                ds.num_relations(),
                8,
                &mut rng,
            )
        };
        let mut cfg = kvsall_config();
        cfg.max_epochs = 6;
        cfg.eval_every = 100;
        cfg.lr_decay = 0.75;
        cfg.lr_decay_mode = LrDecayMode::Epoch;

        let mut straight = build();
        Trainer::new(cfg.clone()).train(&mut straight, &ds, &filter);

        let dir = std::env::temp_dir().join(format!("mei_lrresume_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("victim.meic");
        let mut victim_cfg = cfg.clone();
        victim_cfg.max_epochs = 3;
        victim_cfg.checkpoint_every = 3;
        victim_cfg.checkpoint_path = Some(path.clone());
        let mut resumed = build();
        Trainer::new(victim_cfg).train(&mut resumed, &ds, &filter);
        let cp = crate::checkpoint::load_checkpoint(&path).unwrap();
        Trainer::new(cfg).resume(&mut resumed, &ds, &filter, cp).unwrap();

        assert_eq!(
            straight.entities.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            resumed.entities.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            "resumed entity table diverged"
        );
        assert_eq!(
            straight.relations.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            resumed.relations.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            "resumed relation table diverged"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn scorer_trait_is_usable_through_trainer_output() {
        let ds = ring_dataset();
        let mut rng = StdRng::seed_from_u64(19);
        let mut model = MultiEmbedModel::from_preset(
            WeightPreset::ComplEx,
            ds.num_entities(),
            ds.num_relations(),
            8,
            &mut rng,
        );
        let filter = ds.filter_store();
        let mut cfg = quick_config();
        cfg.max_epochs = 3;
        Trainer::new(cfg).train(&mut model, &ds, &filter);
        let mut out = vec![0.0; model.num_entities()];
        let query = BlockQuery::tails(mei_kg::EntityId(0), mei_kg::RelationId(0));
        model.score_block(&[query], &mut out);
        assert!(out.iter().all(|v| v.is_finite()));
    }
}
