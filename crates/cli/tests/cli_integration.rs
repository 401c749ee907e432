//! End-to-end tests of the `mei` binary: spawn the real executable and
//! drive the generate → stats → train → eval → predict → export pipeline
//! through its public command-line surface.

use std::path::PathBuf;
use std::process::{Command, Output};

fn mei(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_mei")).args(args).output().expect("failed to spawn mei")
}

fn stdout(o: &Output) -> String {
    String::from_utf8_lossy(&o.stdout).into_owned()
}

fn stderr(o: &Output) -> String {
    String::from_utf8_lossy(&o.stderr).into_owned()
}

fn workdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mei_cli_it_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn help_and_models_commands() {
    for alias in ["help", "--help", "-h"] {
        let help = mei(&[alias]);
        assert!(help.status.success(), "{alias}");
        assert!(stdout(&help).contains("subcommands:"), "{alias}");
    }

    let models = mei(&["models"]);
    assert!(models.status.success());
    let out = stdout(&models);
    assert!(out.contains("ComplEx"));
    assert!(out.contains("Quaternion"));
    assert!(out.contains("Octonion"));
}

#[test]
fn unknown_subcommand_fails_with_usage() {
    let o = mei(&["frobnicate"]);
    assert!(!o.status.success());
    assert!(stderr(&o).contains("unknown subcommand"));
    assert!(stderr(&o).contains("subcommands:"));
}

#[test]
fn missing_required_flag_is_reported() {
    let o = mei(&["train", "--dataset", "/nonexistent"]);
    assert!(!o.status.success());
    assert!(stderr(&o).contains("--out") || stderr(&o).contains("I/O error"));
}

/// A mistyped flag or one the CLI no longer has fails with usage before
/// any work starts, instead of being ignored (`--epoch 5` would otherwise
/// train for the default number of epochs).
#[test]
fn unknown_and_retired_flags_are_rejected() {
    let dir = workdir("flags");
    let data = dir.join("data");
    let data_s = data.to_str().unwrap();
    let gen = mei(&["generate", "--out", data_s, "--scale", "tiny", "--grad-path", "legacy", "--bogus-flag", "7"]);
    assert_eq!(gen.status.code(), Some(2), "stderr: {}", stderr(&gen));
    assert!(stderr(&gen).contains("unknown flag --bogus-flag"), "stderr: {}", stderr(&gen));
    assert!(stderr(&gen).contains("subcommands:"));
    assert!(!data.exists(), "a rejected command must not write its output");

    assert!(mei(&["generate", "--out", data_s, "--scale", "tiny", "--seed", "5"]).status.success());
    let model = dir.join("m.bin");
    let model_s = model.to_str().unwrap();
    for (flag, value) in [("--grad-path", "legacy"), ("--epoch", "5")] {
        let o = mei(&["train", "--dataset", data_s, "--out", model_s, "--dim", "4", flag, value]);
        assert_eq!(o.status.code(), Some(2), "{flag}: stderr: {}", stderr(&o));
        assert!(stderr(&o).contains(&format!("unknown flag {flag}")), "stderr: {}", stderr(&o));
        assert!(!model.exists(), "{flag}: a rejected train must not save a model");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn full_pipeline_generate_train_eval_predict_export() {
    let dir = workdir("pipeline");
    let data = dir.join("data");
    let data_s = data.to_str().unwrap();

    // generate
    let o = mei(&["generate", "--out", data_s, "--scale", "tiny", "--seed", "5"]);
    assert!(o.status.success(), "generate failed: {}", stderr(&o));
    assert!(data.join("train.txt").exists());

    // stats
    let o = mei(&["stats", "--dataset", data_s]);
    assert!(o.status.success());
    let out = stdout(&o);
    assert!(out.contains("inverse leakage"));
    assert!(out.contains("_hyponym_0"));

    // train (few epochs; quiet)
    let model = dir.join("model.bin");
    let model_s = model.to_str().unwrap();
    let o = mei(&[
        "train", "--dataset", data_s, "--out", model_s, "--model", "cph", "--epochs", "40",
        "--dim", "16", "--quiet", "true",
    ]);
    assert!(o.status.success(), "train failed: {}", stderr(&o));
    assert!(model.exists());

    // eval with all report options
    let o = mei(&[
        "eval",
        "--dataset",
        data_s,
        "--model-file",
        model_s,
        "--categories",
        "true",
        "--classification",
        "true",
    ]);
    assert!(o.status.success(), "eval failed: {}", stderr(&o));
    let out = stdout(&o);
    assert!(out.contains("filtered: MRR"));
    assert!(out.contains("by relation category"));
    assert!(out.contains("classification accuracy"));

    // predict for a known entity/relation
    let o = mei(&[
        "predict",
        "--dataset",
        data_s,
        "--model-file",
        model_s,
        "--head",
        "synset_000001",
        "--relation",
        "_hyponym_0",
        "--topk",
        "3",
    ]);
    assert!(o.status.success(), "predict failed: {}", stderr(&o));
    assert!(stdout(&o).contains("top-3 predicted tails"));

    // export embeddings
    let tsv = dir.join("emb.tsv");
    let o = mei(&[
        "export", "--dataset", data_s, "--model-file", model_s, "--out", tsv.to_str().unwrap(),
    ]);
    assert!(o.status.success(), "export failed: {}", stderr(&o));
    let contents = std::fs::read_to_string(&tsv).unwrap();
    assert_eq!(contents.lines().count(), 200); // tiny scale has 200 entities

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn train_and_eval_emit_parseable_jsonl_metrics() {
    use mei_obs::{EpochRecord, EvalRecord, RunSummary};

    let dir = workdir("metrics");
    let data = dir.join("data");
    let data_s = data.to_str().unwrap();
    assert!(mei(&["generate", "--out", data_s, "--scale", "tiny", "--seed", "5"])
        .status
        .success());

    let model = dir.join("model.bin");
    let train_log = dir.join("train.jsonl");
    let o = mei(&[
        "train", "--dataset", data_s, "--out", model.to_str().unwrap(), "--model", "complex",
        "--epochs", "6", "--eval-every", "3", "--dim", "8", "--quiet", "true",
        "--metrics-out", train_log.to_str().unwrap(), "--log-every", "2",
    ]);
    assert!(o.status.success(), "train failed: {}", stderr(&o));
    // --log-every routes per-epoch progress lines to stderr.
    assert!(stderr(&o).contains("epoch"));

    let log = std::fs::read_to_string(&train_log).unwrap();
    let lines: Vec<&str> = log.lines().collect();
    let epochs: Vec<EpochRecord> =
        lines.iter().filter_map(|l| EpochRecord::from_json(l).ok()).collect();
    let evals: Vec<EvalRecord> =
        lines.iter().filter_map(|l| EvalRecord::from_json(l).ok()).collect();
    let runs: Vec<RunSummary> =
        lines.iter().filter_map(|l| RunSummary::from_json(l).ok()).collect();
    assert_eq!(epochs.len() + evals.len() + runs.len(), lines.len());
    assert_eq!(epochs.len(), 6);
    assert_eq!(evals.len(), 2); // epochs 3 and 6
    assert_eq!(runs.len(), 1);
    for rec in &epochs {
        assert!(rec.mean_loss.is_finite());
        assert!(rec.examples_per_sec > 0.0);
        assert!(rec.phases.total() > 0.0);
    }
    assert!(evals.iter().all(|r| r.split == "valid" && r.queries_per_sec > 0.0));

    let eval_log = dir.join("eval.jsonl");
    let o = mei(&[
        "eval",
        "--dataset",
        data_s,
        "--model-file",
        model.to_str().unwrap(),
        "--metrics-out",
        eval_log.to_str().unwrap(),
    ]);
    assert!(o.status.success(), "eval failed: {}", stderr(&o));
    assert!(stdout(&o).contains("tie-rate"));
    let log = std::fs::read_to_string(&eval_log).unwrap();
    let rec = EvalRecord::from_json(log.trim()).unwrap();
    assert_eq!(rec.split, "test");
    assert!(rec.queries > 0);
    assert_eq!(rec.head_ranks.total() + rec.tail_ranks.total(), rec.queries as u64);

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn predict_reports_unknown_names() {
    let dir = workdir("unknown");
    let data = dir.join("data");
    let data_s = data.to_str().unwrap();
    assert!(mei(&["generate", "--out", data_s, "--scale", "tiny"]).status.success());
    let model = dir.join("m.bin");
    assert!(mei(&[
        "train", "--dataset", data_s, "--out", model.to_str().unwrap(), "--epochs", "2",
        "--dim", "4", "--quiet", "true"
    ])
    .status
    .success());
    let o = mei(&[
        "predict",
        "--dataset",
        data_s,
        "--model-file",
        model.to_str().unwrap(),
        "--head",
        "no_such_entity",
        "--relation",
        "_hyponym_0",
    ]);
    assert!(!o.status.success());
    assert!(stderr(&o).contains("unknown entity"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn eval_rejects_mismatched_model_and_dataset() {
    let dir = workdir("mismatch");
    let data_a = dir.join("a");
    let data_b = dir.join("b");
    assert!(mei(&["generate", "--out", data_a.to_str().unwrap(), "--scale", "tiny"])
        .status
        .success());
    // A recsys dataset has a different entity count.
    assert!(mei(&["generate", "--out", data_b.to_str().unwrap(), "--kind", "recsys"])
        .status
        .success());
    let model = dir.join("m.bin");
    assert!(mei(&[
        "train",
        "--dataset",
        data_a.to_str().unwrap(),
        "--out",
        model.to_str().unwrap(),
        "--epochs",
        "2",
        "--dim",
        "4",
        "--quiet",
        "true"
    ])
    .status
    .success());
    let o = mei(&[
        "eval",
        "--dataset",
        data_b.to_str().unwrap(),
        "--model-file",
        model.to_str().unwrap(),
    ]);
    assert!(!o.status.success());
    assert!(stderr(&o).contains("wrong pairing"));
    std::fs::remove_dir_all(&dir).ok();
}
