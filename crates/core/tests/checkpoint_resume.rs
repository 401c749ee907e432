//! Crash-safety fault injection for training checkpoints.
//!
//! Three properties are proven here:
//!
//! 1. **Bitwise-identical resume** — a run "killed" after its last
//!    checkpoint and resumed from that checkpoint emits exactly the same
//!    epoch/eval/summary JSONL (modulo wall-clock fields) as a run that
//!    was never interrupted, and ends with bit-identical model scores.
//! 2. **Torn writes are rejected, never loaded** — a checkpoint truncated
//!    at every 1/8th boundary (and bit-flipped anywhere) fails to load
//!    with `Format`/`Checksum`; no panic, no partial state.
//! 3. **A crash mid-write cannot hurt the previous checkpoint** — the
//!    atomic writer stages into a temp file, so leftover temp garbage
//!    (what a SIGKILL mid-write leaves behind) coexists with a fully
//!    valid previous checkpoint at the real path.

use std::path::PathBuf;
use std::sync::Arc;

use mei_core::checkpoint::{checkpoint_from_bytes, load_checkpoint};
use mei_core::model::MultiEmbedModel;
use mei_core::serialize::SerializeError;
use mei_core::trainer::{LossKind, SamplingStrategy, TrainConfig, Trainer};
use mei_core::weights::WeightPreset;
use mei_kg::{Dataset, Dictionary, Triple};
use mei_obs::{EpochRecord, EvalRecord, JsonlObserver, RunSummary, TrainObserver};
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

fn config() -> TrainConfig {
    TrainConfig {
        max_epochs: 10,
        batch_size: 8,
        learning_rate: 0.05,
        eval_every: 3,
        patience: 100,
        seed: 7,
        ..TrainConfig::default()
    }
}

fn fresh_model(seed: u64, ds: &Dataset) -> MultiEmbedModel {
    let mut rng = StdRng::seed_from_u64(seed);
    MultiEmbedModel::from_preset(
        WeightPreset::ComplEx,
        ds.num_entities(),
        ds.num_relations(),
        8,
        &mut rng,
    )
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mei_ckpt_test_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Strips the wall-clock-derived fields (the PR-1 determinism harness);
/// everything else must be byte-identical.
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

/// Records for epochs 1..=`epoch` form a strict prefix of the JSONL
/// stream (eval records precede their epoch's record); this returns that
/// prefix — everything a process killed right after checkpointing `epoch`
/// would have already flushed.
fn lines_through_epoch(log: &str, epoch: usize) -> Vec<String> {
    let mut out = Vec::new();
    for line in log.lines() {
        out.push(line.to_owned());
        if EpochRecord::from_json(line).is_ok_and(|r| r.epoch == epoch) {
            return out;
        }
    }
    panic!("no epoch record for epoch {epoch} in log");
}

#[test]
fn killed_and_resumed_run_is_bitwise_identical_to_uninterrupted() {
    let ds = ring_dataset();
    let filter = ds.filter_store();
    let dir = scratch_dir("resume");
    let ckpt = dir.join("train.ckpt");

    // Uninterrupted baseline, no checkpointing.
    let mut baseline_model = fresh_model(3, &ds);
    let baseline_sink = Arc::new(JsonlObserver::in_memory());
    let baseline_report = Trainer::new(config())
        .with_observer(Arc::clone(&baseline_sink) as Arc<dyn TrainObserver>)
        .train(&mut baseline_model, &ds, &filter);

    // The "victim" run: same seed, checkpointing every 7 epochs. With
    // max_epochs = 10 the only checkpoint on disk afterwards is epoch 7 —
    // exactly what a crash between epochs 7 and 10 would leave behind.
    let mut victim_model = fresh_model(3, &ds);
    let victim_sink = Arc::new(JsonlObserver::in_memory());
    let mut cfg = config();
    cfg.checkpoint_every = 7;
    cfg.checkpoint_path = Some(ckpt.clone());
    Trainer::new(cfg.clone())
        .with_observer(Arc::clone(&victim_sink) as Arc<dyn TrainObserver>)
        .train(&mut victim_model, &ds, &filter);

    // Checkpointing must not perturb training in any way.
    let baseline_lines: Vec<String> = baseline_sink.contents().lines().map(normalize).collect();
    let victim_lines: Vec<String> = victim_sink.contents().lines().map(normalize).collect();
    assert_eq!(baseline_lines, victim_lines, "checkpointing perturbed the run");

    // Simulate the kill: keep only what was flushed by the end of epoch 7,
    // then resume from the checkpoint with a fresh process's state.
    let survivor = lines_through_epoch(&victim_sink.contents(), 7);
    let cp = load_checkpoint(&ckpt).expect("checkpoint must load");
    assert_eq!(cp.epoch, 7);

    let mut resumed_model = fresh_model(999, &ds); // contents are overwritten
    let resume_sink = Arc::new(JsonlObserver::in_memory());
    let resumed_report = Trainer::new(cfg)
        .with_observer(Arc::clone(&resume_sink) as Arc<dyn TrainObserver>)
        .resume(&mut resumed_model, &ds, &filter, cp)
        .expect("resume must succeed");
    assert_eq!(resumed_report.epochs_run, baseline_report.epochs_run);

    // Stitched JSONL (pre-kill prefix + resumed continuation) must be
    // byte-identical to the uninterrupted run, record for record.
    let mut stitched: Vec<String> = survivor.iter().map(|l| normalize(l)).collect();
    stitched.extend(resume_sink.contents().lines().map(normalize));
    assert_eq!(stitched.len(), baseline_lines.len());
    for (i, (s, b)) in stitched.iter().zip(&baseline_lines).enumerate() {
        assert_eq!(s, b, "record {i} diverged after resume");
    }

    // And the resumed model itself matches bit for bit.
    assert_eq!(
        resumed_model.entities.as_slice(),
        baseline_model.entities.as_slice(),
        "resumed entity table diverged"
    );
    assert_eq!(resumed_model.relations.as_slice(), baseline_model.relations.as_slice());
    assert_eq!(
        resumed_report.best_valid_mrr.to_bits(),
        baseline_report.best_valid_mrr.to_bits()
    );
    assert_eq!(resumed_report.loss_history, baseline_report.loss_history);

    std::fs::remove_dir_all(&dir).ok();
}

/// Produces a real on-disk checkpoint from a short training run.
fn write_real_checkpoint(dir: &std::path::Path) -> PathBuf {
    write_checkpoint(dir, config())
}

/// Trains the ring for 6 epochs under `cfg` and checkpoints once, at
/// epoch 5.
fn write_checkpoint(dir: &std::path::Path, mut cfg: TrainConfig) -> PathBuf {
    let ds = ring_dataset();
    let filter = ds.filter_store();
    let ckpt = dir.join("victim.ckpt");
    cfg.max_epochs = 6;
    cfg.checkpoint_every = 5; // single checkpoint at epoch 5
    cfg.checkpoint_path = Some(ckpt.clone());
    let mut model = fresh_model(3, &ds);
    Trainer::new(cfg).train(&mut model, &ds, &filter);
    assert!(ckpt.exists());
    ckpt
}

#[test]
fn truncated_checkpoints_are_rejected_at_every_eighth_boundary() {
    let dir = scratch_dir("truncate");
    let ckpt = write_real_checkpoint(&dir);
    let full = std::fs::read(&ckpt).unwrap();
    assert!(load_checkpoint(&ckpt).is_ok(), "the untouched checkpoint must load");

    for i in 0..8 {
        let cut = full.len() * i / 8;
        let err = checkpoint_from_bytes(bytes::Bytes::from(full[..cut].to_vec()))
            .expect_err(&format!("truncation to {cut}/{} bytes must fail", full.len()));
        assert!(
            matches!(err, SerializeError::Format(_) | SerializeError::Checksum { .. }),
            "truncation to {cut} bytes produced the wrong error: {err}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bit_flips_anywhere_in_the_payload_are_rejected() {
    let dir = scratch_dir("bitflip");
    let ckpt = write_real_checkpoint(&dir);
    let full = std::fs::read(&ckpt).unwrap();
    // Flip one bit at a handful of positions spread across the file
    // (header, model payload, optimizer slots, histories).
    for frac in [17, 29, 41, 53, 61, 73] {
        let idx = full.len() * frac / 100;
        let mut corrupt = full.clone();
        corrupt[idx] ^= 0x08;
        let result = checkpoint_from_bytes(bytes::Bytes::from(corrupt));
        assert!(result.is_err(), "bit flip at byte {idx} was silently accepted");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn crash_mid_write_leaves_previous_checkpoint_loadable() {
    let dir = scratch_dir("midwrite");
    let ckpt = write_real_checkpoint(&dir);
    let good = std::fs::read(&ckpt).unwrap();

    // A SIGKILL mid-write leaves a partial temp file next to the real
    // one — exactly what the atomic writer stages before its rename.
    // The checkpoint at the real path must be untouched by it.
    let tmp = dir.join(".victim.ckpt.tmp.12345");
    std::fs::write(&tmp, &good[..good.len() / 3]).unwrap();
    let cp = load_checkpoint(&ckpt).expect("previous checkpoint must survive a torn write");
    assert_eq!(cp.epoch, 5);
    assert_eq!(std::fs::read(&ckpt).unwrap(), good);

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn resume_rejects_mismatched_dataset_and_optimizer() {
    let dir = scratch_dir("mismatch");
    let ckpt = write_real_checkpoint(&dir);
    let ds = ring_dataset();
    let filter = ds.filter_store();

    // Wrong dataset size: drop a training triple.
    let mut smaller = ring_dataset();
    smaller.train.pop();
    let cp = load_checkpoint(&ckpt).unwrap();
    let mut model = fresh_model(1, &ds);
    let err = Trainer::new(config())
        .resume(&mut model, &smaller, &filter, cp)
        .expect_err("mismatched dataset must be rejected");
    assert!(err.to_string().contains("different dataset"), "{err}");

    // Wrong optimizer kind in the resuming config.
    let cp = load_checkpoint(&ckpt).unwrap();
    let mut cfg = config();
    cfg.optimizer = mei_optim::OptimizerKind::Sgd;
    let err = Trainer::new(cfg)
        .resume(&mut model, &ds, &filter, cp)
        .expect_err("mismatched optimizer must be rejected");
    assert!(err.to_string().contains("optimizer"), "{err}");

    std::fs::remove_dir_all(&dir).ok();
}

/// The checkpoint model must carry an interaction norm exactly when the
/// resuming config asks for batch norm; either mismatch is an error, not
/// a panic mid-run. A batch-norm checkpoint's optimizer covers the norm,
/// so only the norm check catches the second case.
#[test]
fn resume_rejects_a_norm_mismatch_with_batch_norm() {
    let dir = scratch_dir("normmismatch");
    let bn_dir = scratch_dir("normmismatch_bn");
    let ds = ring_dataset();
    let filter = ds.filter_store();
    let mut model = fresh_model(1, &ds);

    let cp = load_checkpoint(write_real_checkpoint(&dir)).unwrap();
    let mut cfg = config();
    cfg.batch_norm = true;
    let err = Trainer::new(cfg)
        .resume(&mut model, &ds, &filter, cp)
        .expect_err("batch_norm without a checkpointed norm must be rejected");
    assert!(err.to_string().contains("carries no interaction norm"), "{err}");

    let mut bn_cfg = config();
    bn_cfg.sampling = SamplingStrategy::KvsAll;
    bn_cfg.loss = LossKind::SoftmaxCrossEntropy { label_smooth: 0.1 };
    bn_cfg.batch_norm = true;
    let cp = load_checkpoint(write_checkpoint(&bn_dir, bn_cfg.clone())).unwrap();
    assert!(cp.model.interaction_norm().is_some());
    bn_cfg.batch_norm = false;
    let err = Trainer::new(bn_cfg)
        .resume(&mut model, &ds, &filter, cp)
        .expect_err("a checkpointed norm without batch_norm must be rejected");
    assert!(err.to_string().contains("batch_norm off"), "{err}");

    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&bn_dir).ok();
}
