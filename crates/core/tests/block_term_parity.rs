//! Bit-parity contracts of the block-term MEI family (DESIGN.md §17).
//!
//! Four guarantees, each asserted down to the byte:
//!
//! 1. **Special-case equivalence** — a `K = 1` block-term shape spanning
//!    the full grid is the learned-ω trilinear model: same serialized
//!    bytes, same scores, same training trajectory, same checkpoints.
//! 2. **Thread invariance** — block-term training with the full
//!    regularizer stack live (input dropout, batch norm, context dropout)
//!    produces byte-identical parameters *and batch-norm state* at every
//!    worker count, on a WN18RR-shaped synthetic benchmark.
//! 3. **Kill-and-resume** — a run checkpointed mid-flight and resumed at
//!    a different worker count lands exactly where the uninterrupted run
//!    lands, batch-norm running statistics included.
//! 4. **Support discipline** — across a (K, Ce, Cr) shape sweep
//!    (ragged dims included), off-support ω cells are exactly zero before
//!    *and after* training (zero gradient ⇒ zero Adam moments ⇒ zero
//!    update), and the blocked `score_block` path is bitwise the
//!    per-triple path.
//!
//! CI reruns this suite under pinned worker counts via the
//! `MEI_PARITY_THREADS` env var (appended to the sweep when set).

use std::path::PathBuf;
use std::sync::Arc;

use mei_core::checkpoint::load_checkpoint;
use mei_core::model::{BlockTermShape, ModelConfig, MultiEmbedModel};
use mei_core::serialize::model_to_bytes;
use mei_core::trainer::{LossKind, SamplingStrategy, TrainConfig, Trainer};
use mei_core::weights::WeightRestriction;
use mei_eval::{BlockQuery, TripleScorer};
use mei_kg::{Dataset, EntityId, RelationId};
use mei_math::kernels::dot_fast;
use mei_obs::{EpochRecord, EvalRecord, JsonlObserver, RunSummary, TrainObserver};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The WN18RR-shaped synthetic benchmark, small enough that each parity
/// arm trains in milliseconds but still sparse, multi-relational, and
/// free of inverse leakage.
fn wnrr_dataset() -> Dataset {
    mei_datagen::SynthWnRrConfig {
        num_entities: 80,
        num_triples: 220,
        ..mei_datagen::SynthWnRrConfig::default()
    }
    .generate()
}

/// Worker counts every parity check sweeps (see `kvsall_parity.rs`),
/// plus whatever count CI pins via `MEI_PARITY_THREADS`.
fn thread_counts() -> Vec<usize> {
    let mut counts = vec![1usize, 2, 8];
    if let Ok(v) = std::env::var("MEI_PARITY_THREADS") {
        let t: usize = v.parse().expect("MEI_PARITY_THREADS must be a positive int");
        assert!(t > 0, "MEI_PARITY_THREADS must be positive");
        if !counts.contains(&t) {
            counts.push(t);
        }
    }
    counts
}

/// k-vs-all training with the full regularizer stack live: input dropout
/// and context dropout exercise the counter-based mask RNG, batch norm
/// exercises the sequential f64 moment reductions and the γ/β optimizer
/// tail.
fn reg_config(seed: u64) -> TrainConfig {
    TrainConfig {
        max_epochs: 4,
        batch_size: 64,
        learning_rate: 0.05,
        sampling: SamplingStrategy::KvsAll,
        loss: LossKind::SoftmaxCrossEntropy { label_smooth: 0.1 },
        eval_every: 2,
        patience: 100,
        seed,
        dropout: 0.1,
        input_dropout: 0.1,
        batch_norm: true,
        ..TrainConfig::default()
    }
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("mei_bt_parity_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn bits(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// Strips the wall-clock-derived fields; everything else must be
/// byte-identical across arms.
fn normalize(line: &str) -> String {
    if let Ok(mut rec) = EpochRecord::from_json(line) {
        rec.examples_per_sec = 0.0;
        rec.triples_per_sec = 0.0;
        rec.wall_secs = 0.0;
        rec.phases = Default::default();
        return rec.to_json();
    }
    if let Ok(mut rec) = EvalRecord::from_json(line) {
        rec.queries_per_sec = 0.0;
        rec.wall_secs = 0.0;
        return rec.to_json();
    }
    if let Ok(mut rec) = RunSummary::from_json(line) {
        rec.wall_secs = 0.0;
        return rec.to_json();
    }
    panic!("unrecognized record: {line}");
}

/// Everything one training run leaves behind that the parity contract
/// covers: parameters, the batch-norm state, the metrics stream, and the
/// final checkpoint bytes (optimizer moments, RNG state, histories —
/// and, for batch-norm runs, γ/β/running mean/running var).
struct RunOutput {
    entities: Vec<u32>,
    relations: Vec<u32>,
    omega: Vec<u32>,
    norm: Vec<u32>,
    jsonl: Vec<String>,
    ckpt_bytes: Vec<u8>,
    loss_history: Vec<(usize, f64)>,
}

/// Trains `model` at `threads` workers under `cfg` and captures its full
/// footprint.
fn run_arm(
    ds: &Dataset,
    cfg: &TrainConfig,
    mut model: MultiEmbedModel,
    threads: usize,
    dir: &std::path::Path,
    tag: &str,
) -> RunOutput {
    let ckpt = dir.join(format!("{tag}_t{threads}.ckpt"));
    let mut cfg = cfg.clone();
    cfg.threads = threads;
    cfg.checkpoint_every = cfg.max_epochs;
    cfg.checkpoint_path = Some(ckpt.clone());
    let filter = ds.filter_store();
    let sink = Arc::new(JsonlObserver::in_memory());
    let report = Trainer::new(cfg)
        .with_observer(Arc::clone(&sink) as Arc<dyn TrainObserver>)
        .train(&mut model, ds, &filter);
    let ckpt_bytes = std::fs::read(&ckpt).expect("final checkpoint must exist");
    std::fs::remove_file(&ckpt).ok();
    RunOutput {
        entities: bits(model.entities.as_slice()),
        relations: bits(model.relations.as_slice()),
        omega: bits(model.omega().dense()),
        norm: bits(&model.interaction_norm().map(|n| n.flat()).unwrap_or_default()),
        jsonl: sink.contents().lines().map(normalize).collect(),
        ckpt_bytes,
        loss_history: report.loss_history,
    }
}

fn assert_same_run(a: &RunOutput, b: &RunOutput, what: &str) {
    assert_eq!(a.entities, b.entities, "{what}: entity bits diverged");
    assert_eq!(a.relations, b.relations, "{what}: relation bits diverged");
    assert_eq!(a.omega, b.omega, "{what}: omega bits diverged");
    assert_eq!(a.norm, b.norm, "{what}: batch-norm state bits diverged");
    assert_eq!(a.jsonl, b.jsonl, "{what}: JSONL metrics diverged");
    assert_eq!(
        a.ckpt_bytes, b.ckpt_bytes,
        "{what}: checkpoint bytes (optimizer moments / RNG / norm state) diverged"
    );
}

/// The matching pair of models for the special-case contract: a `K = 1`
/// block-term spanning the full `n = Ce` grid, and the plain learned-ω
/// trilinear model on the identical cubic config, built from identically
/// seeded RNGs.
fn k1_pair(ds: &Dataset, n: usize, dim: usize, seed: u64) -> (MultiEmbedModel, MultiEmbedModel) {
    let shape = BlockTermShape { k: 1, ce: n, cr: n };
    let mut rng = StdRng::seed_from_u64(seed);
    let bt = MultiEmbedModel::block_term(
        ds.num_entities(),
        ds.num_relations(),
        shape,
        dim,
        0.3,
        &mut rng,
    );
    let cfg = ModelConfig {
        num_entities: ds.num_entities(),
        num_relations: ds.num_relations(),
        n,
        dim,
    };
    let mut rng = StdRng::seed_from_u64(seed);
    let tri = MultiEmbedModel::with_learned_weights(cfg, WeightRestriction::None, 0.3, &mut rng);
    (bt, tri)
}

/// Special case, construction level: the `K = 1` block-term model and the
/// learned-ω trilinear model are the same model — same serialized bytes,
/// same per-triple scores, same blocked `score_block` rows.
#[test]
fn k1_reduces_bytewise_to_the_learned_trilinear_model() {
    let ds = wnrr_dataset();
    let (bt, tri) = k1_pair(&ds, 2, 6, 5);

    assert_eq!(
        model_to_bytes(&bt).as_ref(),
        model_to_bytes(&tri).as_ref(),
        "K=1 block-term must serialize to the trilinear model's exact bytes"
    );

    let ne = ds.num_entities();
    for t in ds.train.iter().take(32) {
        assert_eq!(
            bt.score_triple(*t).to_bits(),
            tri.score_triple(*t).to_bits(),
            "score diverged on {t}"
        );
    }
    let queries: Vec<BlockQuery> = ds
        .train
        .iter()
        .take(8)
        .flat_map(|t| {
            [
                BlockQuery::tails(EntityId(t.head.0), RelationId(t.relation.0)),
                BlockQuery::heads(EntityId(t.tail.0), RelationId(t.relation.0)),
            ]
        })
        .collect();
    let mut bt_scores = vec![0.0f32; queries.len() * ne];
    let mut tri_scores = vec![0.0f32; queries.len() * ne];
    bt.score_block(&queries, &mut bt_scores);
    tri.score_block(&queries, &mut tri_scores);
    assert_eq!(bits(&bt_scores), bits(&tri_scores), "score_block rows diverged");
}

/// Special case, training level: under the identical regularized k-vs-all
/// config the two models follow the same gradient trajectory — final
/// parameters, batch-norm state, per-epoch metrics, and checkpoint bytes
/// all match exactly.
#[test]
fn k1_training_matches_trilinear_bitwise_including_checkpoints() {
    let ds = wnrr_dataset();
    let dir = scratch_dir("k1_train");
    let (bt, tri) = k1_pair(&ds, 2, 6, 9);
    let cfg = reg_config(17);
    let a = run_arm(&ds, &cfg, bt, 2, &dir, "bt");
    let b = run_arm(&ds, &cfg, tri, 2, &dir, "tri");
    assert_same_run(&a, &b, "K=1 block-term vs learned trilinear");
    std::fs::remove_dir_all(&dir).ok();
}

/// A `K > 1` (ragged: Cr ≠ Ce) block-term model trains end-to-end on the
/// WN18RR-shaped synth with the regularizer stack live, and every worker
/// count reproduces the 1-thread run byte for byte — norm state included.
#[test]
fn block_term_reg_training_is_bitwise_thread_invariant_on_synthwnrr() {
    let ds = wnrr_dataset();
    let dir = scratch_dir("threads");
    let shape = BlockTermShape { k: 3, ce: 2, cr: 1 };
    let build = || {
        let mut rng = StdRng::seed_from_u64(23);
        MultiEmbedModel::block_term(
            ds.num_entities(),
            ds.num_relations(),
            shape,
            4,
            0.5,
            &mut rng,
        )
    };
    let cfg = reg_config(31);
    let reference = run_arm(&ds, &cfg, build(), 1, &dir, "ref");
    assert!(!reference.norm.is_empty(), "batch-norm state must be live");
    assert!(
        reference.loss_history.last().unwrap().1 < reference.loss_history.first().unwrap().1,
        "block-term training must reduce the loss: {:?}",
        reference.loss_history
    );
    for threads in thread_counts() {
        let arm = run_arm(&ds, &cfg, build(), threads, &dir, "arm");
        assert_same_run(&reference, &arm, &format!("block-term threads={threads}"));
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Kill-and-resume with batch norm: a block-term run checkpointed at 2
/// workers mid-flight resumes at other worker counts and lands exactly on
/// the uninterrupted 1-thread run — proving the running mean/var and γ/β
/// survive the MEIC round-trip bit-exactly.
#[test]
fn block_term_checkpoint_kill_and_resume_restores_norm_state_bitwise() {
    let ds = wnrr_dataset();
    let filter = ds.filter_store();
    let dir = scratch_dir("resume");
    let ckpt = dir.join("victim.ckpt");
    let shape = BlockTermShape { k: 2, ce: 2, cr: 2 };
    let build = |seed: u64| {
        let mut rng = StdRng::seed_from_u64(seed);
        MultiEmbedModel::block_term(
            ds.num_entities(),
            ds.num_relations(),
            shape,
            4,
            0.5,
            &mut rng,
        )
    };
    let mut cfg = reg_config(7);
    cfg.max_epochs = 6;

    // Uninterrupted 1-thread baseline.
    let mut baseline_model = build(3);
    let baseline_sink = Arc::new(JsonlObserver::in_memory());
    let mut baseline_cfg = cfg.clone();
    baseline_cfg.threads = 1;
    Trainer::new(baseline_cfg)
        .with_observer(Arc::clone(&baseline_sink) as Arc<dyn TrainObserver>)
        .train(&mut baseline_model, &ds, &filter);
    let baseline_lines: Vec<String> =
        baseline_sink.contents().lines().map(normalize).collect();
    let baseline_norm =
        bits(&baseline_model.interaction_norm().expect("norm must be live").flat());

    // Victim: 2 workers, checkpoint at epoch 4, "killed" before epoch 6.
    let mut victim_cfg = cfg.clone();
    victim_cfg.threads = 2;
    victim_cfg.checkpoint_every = 4;
    victim_cfg.checkpoint_path = Some(ckpt.clone());
    let victim_sink = Arc::new(JsonlObserver::in_memory());
    let mut victim_model = build(3);
    Trainer::new(victim_cfg)
        .with_observer(Arc::clone(&victim_sink) as Arc<dyn TrainObserver>)
        .train(&mut victim_model, &ds, &filter);
    let victim_lines: Vec<String> = victim_sink.contents().lines().map(normalize).collect();
    assert_eq!(baseline_lines, victim_lines, "2-worker run diverged before the kill");

    // What a kill right after the epoch-4 checkpoint leaves flushed.
    let survivor: Vec<String> = {
        let mut out = Vec::new();
        for line in victim_sink.contents().lines() {
            out.push(normalize(line));
            if EpochRecord::from_json(line).is_ok_and(|r| r.epoch == 4) {
                break;
            }
        }
        out
    };

    for resume_threads in [8usize, 1] {
        let cp = load_checkpoint(&ckpt).expect("checkpoint must load");
        assert_eq!(cp.epoch, 4);
        let mut resume_cfg = cfg.clone();
        resume_cfg.threads = resume_threads;
        let mut resumed_model = build(999); // overwritten on resume
        let resume_sink = Arc::new(JsonlObserver::in_memory());
        Trainer::new(resume_cfg)
            .with_observer(Arc::clone(&resume_sink) as Arc<dyn TrainObserver>)
            .resume(&mut resumed_model, &ds, &filter, cp)
            .expect("resume must succeed");

        let mut stitched = survivor.clone();
        stitched.extend(resume_sink.contents().lines().map(normalize));
        assert_eq!(
            stitched, baseline_lines,
            "stitched JSONL diverged resuming at {resume_threads} threads"
        );
        assert_eq!(
            bits(resumed_model.entities.as_slice()),
            bits(baseline_model.entities.as_slice()),
            "entities diverged resuming at {resume_threads} threads"
        );
        assert_eq!(
            bits(resumed_model.relations.as_slice()),
            bits(baseline_model.relations.as_slice()),
            "relations diverged resuming at {resume_threads} threads"
        );
        assert_eq!(
            bits(&resumed_model.interaction_norm().expect("norm must be live").flat()),
            baseline_norm,
            "batch-norm state diverged resuming at {resume_threads} threads"
        );
    }

    std::fs::remove_dir_all(&dir).ok();
}

/// The off-support cells of a shape's ω grid: every `(i, j, k)` whose
/// three indices do not fall in the same partition's block.
fn off_support_cells(shape: BlockTermShape) -> Vec<usize> {
    let n = shape.n();
    let nr = shape.n_rel();
    let mut cells = Vec::new();
    for i in 0..n {
        for j in 0..n {
            for k in 0..nr {
                let same = i / shape.ce == j / shape.ce && i / shape.ce == k / shape.cr;
                if !same {
                    cells.push((i * n + j) * nr + k);
                }
            }
        }
    }
    cells
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// Shape sweep over (K, Ce, Cr) — ragged dims included: off-support ω
    /// cells are exactly zero before and after training (the zero-moment
    /// invariant that makes the support restriction a real architecture,
    /// not an initialization), `score_block` is bitwise the per-triple
    /// path, and an arbitrary worker count reproduces the 1-thread run
    /// byte for byte.
    #[test]
    fn shape_sweep_trains_bitwise_and_keeps_off_support_zero(
        k in 1usize..=3,
        ce in 1usize..=3,
        cr in 1usize..=3,
        seed in 0u64..10_000,
        threads in 2usize..10,
    ) {
        let ds = wnrr_dataset();
        let shape = BlockTermShape { k, ce, cr };
        let dir = scratch_dir(&format!("sweep_{k}_{ce}_{cr}_{seed}_{threads}"));
        let build = || {
            let mut rng = StdRng::seed_from_u64(seed);
            MultiEmbedModel::block_term(
                ds.num_entities(),
                ds.num_relations(),
                shape,
                3,
                0.5,
                &mut rng,
            )
        };

        let fresh = build();
        let off = off_support_cells(shape);
        for &cell in &off {
            prop_assert_eq!(fresh.raw_omega().dense()[cell].to_bits(), 0.0f32.to_bits());
            prop_assert_eq!(fresh.omega().dense()[cell].to_bits(), 0.0f32.to_bits());
        }

        // Blocked scoring is bitwise the per-query context path on both
        // sides — the contract that lets eval, serving, and screening
        // ride the GEMM without a block-term special case.
        let ne = ds.num_entities();
        let t = ds.train[0];
        let queries = [
            BlockQuery::tails(EntityId(t.head.0), RelationId(t.relation.0)),
            BlockQuery::heads(EntityId(t.tail.0), RelationId(t.relation.0)),
        ];
        let mut blocked = vec![0.0f32; queries.len() * ne];
        fresh.score_block(&queries, &mut blocked);
        let mut ctx = vec![0.0f32; fresh.entities.row_len()];
        let per_query = |ctx: &[f32]| -> Vec<f32> {
            (0..ne).map(|e| dot_fast(ctx, fresh.entities.row(e))).collect()
        };
        fresh.tail_context(EntityId(t.head.0), RelationId(t.relation.0), &mut ctx);
        prop_assert_eq!(bits(&blocked[..ne]), bits(&per_query(&ctx)));
        fresh.head_context(EntityId(t.tail.0), RelationId(t.relation.0), &mut ctx);
        prop_assert_eq!(bits(&blocked[ne..]), bits(&per_query(&ctx)));

        let mut cfg = reg_config(seed ^ 0x9e37);
        cfg.max_epochs = 3;
        let reference = run_arm(&ds, &cfg, build(), 1, &dir, "ref");
        let arm = run_arm(&ds, &cfg, build(), threads, &dir, "arm");
        assert_same_run(
            &reference,
            &arm,
            &format!("shape K={k} Ce={ce} Cr={cr} seed={seed} threads={threads}"),
        );

        // Train once more to inspect the final model directly: the
        // off-support cells must still be exactly zero.
        let mut model = build();
        let filter = ds.filter_store();
        let mut solo = cfg.clone();
        solo.threads = 1;
        Trainer::new(solo).train(&mut model, &ds, &filter);
        for &cell in &off {
            prop_assert_eq!(model.omega().dense()[cell].to_bits(), 0.0f32.to_bits());
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
