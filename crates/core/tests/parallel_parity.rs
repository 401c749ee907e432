//! Cross-core bit-parity matrix for the deterministic parallel trainer.
//!
//! The contract under test (DESIGN.md §11): `--threads` is a speed knob
//! and nothing else. For every worker count the trainer must produce the
//! **byte-identical** run — same final parameters, same optimizer moments
//! (compared through the serialized checkpoint, which carries them), same
//! JSONL metrics stream — as the 1-thread run, under both loss kinds,
//! with fixed and learned ω. And a checkpoint
//! written by a run at T workers must resume at any other worker count
//! and land bit-identical to the run that was never interrupted.
//!
//! CI reruns this matrix under pinned worker counts via the
//! `MEI_PARITY_THREADS` env var (appended to the sweep when set).

use std::path::PathBuf;
use std::sync::Arc;

use mei_core::checkpoint::load_checkpoint;
use mei_core::model::{ModelConfig, MultiEmbedModel};
use mei_core::trainer::{LossKind, TrainConfig, Trainer};
use mei_core::weights::{WeightPreset, WeightRestriction};
use mei_kg::{Dataset, Dictionary, Triple};
use mei_obs::{EpochRecord, EvalRecord, JsonlObserver, RunSummary, TrainObserver};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

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
    let valid = vec![train.pop().unwrap(), train.remove(3)];
    Dataset { entities, relations, train, valid, test: vec![] }
}

/// Worker counts every parity check sweeps: a fixed spread (1 is the
/// reference, 2/3 exercise uneven shard splits, 8 oversubscribes the
/// queue) plus whatever count CI pins via `MEI_PARITY_THREADS`.
fn thread_counts() -> Vec<usize> {
    let mut counts = vec![1usize, 2, 3, 8];
    if let Ok(v) = std::env::var("MEI_PARITY_THREADS") {
        let t: usize = v.parse().expect("MEI_PARITY_THREADS must be a positive int");
        assert!(t > 0, "MEI_PARITY_THREADS must be positive");
        if !counts.contains(&t) {
            counts.push(t);
        }
    }
    counts
}

fn base_config(loss: LossKind, seed: u64) -> TrainConfig {
    TrainConfig {
        max_epochs: 5,
        batch_size: 8,
        learning_rate: 0.05,
        eval_every: 2,
        patience: 100,
        seed,
        loss,
        ..TrainConfig::default()
    }
}

/// Fixed-ω ComplEx or a learned-ω (tanh-restricted) model on the ring.
fn build_model(ds: &Dataset, learned_omega: bool, seed: u64) -> MultiEmbedModel {
    let mut rng = StdRng::seed_from_u64(seed);
    if learned_omega {
        let cfg = ModelConfig {
            num_entities: ds.num_entities(),
            num_relations: ds.num_relations(),
            n: 2,
            dim: 4,
        };
        MultiEmbedModel::with_learned_weights(cfg, WeightRestriction::Tanh, 0.5, &mut rng)
    } else {
        MultiEmbedModel::from_preset(
            WeightPreset::ComplEx,
            ds.num_entities(),
            ds.num_relations(),
            8,
            &mut rng,
        )
    }
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("mei_parity_test_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Strips the wall-clock-derived fields; everything else must be
/// byte-identical across thread counts.
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
/// covers: parameters, the metrics stream, and the final checkpoint file
/// — whose bytes include the optimizer moments, RNG state, shuffle
/// permutation, and histories, so `ckpt_bytes` equality is the
/// optimizer-moment comparison the matrix requires.
struct RunOutput {
    entities: Vec<u32>,
    relations: Vec<u32>,
    omega: Vec<u32>,
    jsonl: Vec<String>,
    ckpt_bytes: Vec<u8>,
}

fn bits(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// Trains one arm at `threads` workers and captures its full footprint.
/// `checkpoint_every` is pinned to the final epoch so the run always
/// leaves exactly one checkpoint carrying the end-of-run optimizer state.
fn run_arm(
    ds: &Dataset,
    cfg: &TrainConfig,
    learned_omega: bool,
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
    let mut model = build_model(ds, learned_omega, 3);
    let sink = Arc::new(JsonlObserver::in_memory());
    Trainer::new(cfg)
        .with_observer(Arc::clone(&sink) as Arc<dyn TrainObserver>)
        .train(&mut model, ds, &filter);
    let ckpt_bytes = std::fs::read(&ckpt).expect("final checkpoint must exist");
    std::fs::remove_file(&ckpt).ok();
    RunOutput {
        entities: bits(model.entities.as_slice()),
        relations: bits(model.relations.as_slice()),
        omega: bits(model.omega().dense()),
        jsonl: sink.contents().lines().map(normalize).collect(),
        ckpt_bytes,
    }
}

fn assert_same_run(a: &RunOutput, b: &RunOutput, what: &str) {
    assert_eq!(a.entities, b.entities, "{what}: entity bits diverged");
    assert_eq!(a.relations, b.relations, "{what}: relation bits diverged");
    assert_eq!(a.omega, b.omega, "{what}: omega bits diverged");
    assert_eq!(a.jsonl, b.jsonl, "{what}: JSONL metrics diverged");
    assert_eq!(
        a.ckpt_bytes, b.ckpt_bytes,
        "{what}: checkpoint bytes (optimizer moments / RNG / histories) diverged"
    );
}

const LOSSES: [LossKind; 2] = [LossKind::Logistic, LossKind::MarginRanking { margin: 1.0 }];

/// The full matrix: threads × loss kind × fixed/learned ω. Every cell
/// must be byte-identical to the 1-thread run of the same (loss, ω)
/// configuration.
#[test]
fn full_matrix_is_bitwise_identical_across_threads_losses_and_omega() {
    let ds = ring_dataset();
    let dir = scratch_dir("matrix");
    for (li, loss) in LOSSES.into_iter().enumerate() {
        for learned_omega in [false, true] {
            let tag = format!("l{li}_w{learned_omega}");
            let reference =
                run_arm(&ds, &base_config(loss, 11), learned_omega, 1, &dir, &format!("ref_{tag}"));
            for threads in thread_counts() {
                let arm = run_arm(
                    &ds,
                    &base_config(loss, 11),
                    learned_omega,
                    threads,
                    &dir,
                    &format!("arm_{tag}"),
                );
                assert_same_run(
                    &reference,
                    &arm,
                    &format!("loss={loss:?} learned_omega={learned_omega} threads={threads}"),
                );
            }
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Kill-and-resume across thread counts: a run checkpointed at T workers
/// and "killed" must resume at any other worker count and land exactly
/// where the uninterrupted 1-thread run lands — same parameters, same
/// report, same stitched JSONL. Thread count is not training state; the
/// MEIC checkpoint doesn't even record it.
#[test]
fn checkpoint_written_at_t_threads_resumes_bitwise_at_any_thread_count() {
    let ds = ring_dataset();
    let filter = ds.filter_store();
    let dir = scratch_dir("resume");
    let ckpt = dir.join("victim.ckpt");

    let mut cfg = base_config(LossKind::Logistic, 7);
    cfg.max_epochs = 6;

    // Uninterrupted 1-thread baseline.
    let mut baseline_model = build_model(&ds, false, 3);
    let baseline_sink = Arc::new(JsonlObserver::in_memory());
    let mut baseline_cfg = cfg.clone();
    baseline_cfg.threads = 1;
    let baseline_report = Trainer::new(baseline_cfg)
        .with_observer(Arc::clone(&baseline_sink) as Arc<dyn TrainObserver>)
        .train(&mut baseline_model, &ds, &filter);
    let baseline_lines: Vec<String> =
        baseline_sink.contents().lines().map(normalize).collect();

    // Victim: 3 workers, checkpoint at epoch 4, "killed" before epoch 6.
    let mut victim_cfg = cfg.clone();
    victim_cfg.threads = 3;
    victim_cfg.checkpoint_every = 4;
    victim_cfg.checkpoint_path = Some(ckpt.clone());
    let victim_sink = Arc::new(JsonlObserver::in_memory());
    let mut victim_model = build_model(&ds, false, 3);
    Trainer::new(victim_cfg)
        .with_observer(Arc::clone(&victim_sink) as Arc<dyn TrainObserver>)
        .train(&mut victim_model, &ds, &filter);
    let victim_lines: Vec<String> = victim_sink.contents().lines().map(normalize).collect();
    assert_eq!(baseline_lines, victim_lines, "3-worker run diverged before the kill");

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

    // Resume the epoch-4 checkpoint at a different worker count than the
    // one that wrote it — 8, then 1 — and demand bitwise convergence.
    for resume_threads in [8usize, 1] {
        let cp = load_checkpoint(&ckpt).expect("checkpoint must load");
        assert_eq!(cp.epoch, 4);
        let mut resume_cfg = cfg.clone();
        resume_cfg.threads = resume_threads;
        let mut resumed_model = build_model(&ds, false, 999); // overwritten on resume
        let resume_sink = Arc::new(JsonlObserver::in_memory());
        let resumed_report = Trainer::new(resume_cfg)
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
            resumed_report.best_valid_mrr.to_bits(),
            baseline_report.best_valid_mrr.to_bits()
        );
        assert_eq!(resumed_report.loss_history, baseline_report.loss_history);
    }

    std::fs::remove_dir_all(&dir).ok();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Randomized corner of the matrix: arbitrary seeds and worker counts
    /// (2..=9, beyond the fixed sweep) must still reproduce the 1-thread
    /// run byte for byte.
    #[test]
    fn random_seeds_and_thread_counts_stay_bitwise_identical(
        seed in 0u64..10_000,
        threads in 2usize..10,
    ) {
        let ds = ring_dataset();
        let dir = scratch_dir(&format!("prop_{seed}_{threads}"));
        let reference = run_arm(&ds, &base_config(LossKind::Logistic, seed), false, 1, &dir, "ref");
        let arm = run_arm(&ds, &base_config(LossKind::Logistic, seed), false, threads, &dir, "arm");
        assert_same_run(&reference, &arm, &format!("seed={seed} threads={threads}"));
        std::fs::remove_dir_all(&dir).ok();
    }
}
