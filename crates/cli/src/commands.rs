//! Implementations of the `mei` subcommands.

use std::error::Error;

use std::sync::Arc;

use mei_core::serialize::{load_model, load_model_mapped, save_model};
use mei_core::{LossKind, LrDecayMode, MultiEmbedModel, SamplingStrategy, TrainConfig, Trainer, WeightPreset};
use mei_eval::ranking::{evaluate_with_stats, top_k};
use mei_eval::Side;
use mei_eval::{categorize_relations, labeled_with_negatives, mrr_by_category, EvalConfig, TripleClassifier};
use mei_obs::{ConsoleObserver, EvalRecord, FanoutObserver, JsonlObserver, TrainObserver};
use mei_kg::analysis::{detect_inverse_pairs, profile_relations};
use mei_kg::io::{load_benchmark_dir, save_benchmark_dir, ColumnOrder};
use mei_kg::{Dataset, EntityId, RelationId, Triple};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::args::Args;

/// CLI usage text.
pub const USAGE: &str = "\
mei — multi-embedding interaction knowledge graph embedding

subcommands:
  generate --out DIR [--kind synthwn|synthfb|synthwnrr|synthfb237|recsys|random]
           [--scale tiny|small|full] [--seed N]
  stats    --dataset DIR [--order hrt|htr]
  train    --dataset DIR --out model.bin [--model NAME] [--dim N] [--epochs N]
           [--lr F] [--l2 F] [--batch N] [--seed N] [--sampling uniform|bern|kvsall]
           [--loss logistic|softmax-ce] [--label-smooth F] [--quiet true]
           [--lr-decay F] [--lr-decay-mode checkpoint|epoch]
           [--eval-every N] [--metrics-out run.jsonl] [--log-every N]
           [--checkpoint train.ckpt] [--checkpoint-every N] [--resume train.ckpt]
           [--threads N]
           [--bt-k K --bt-ce CE --bt-cr CR [--bt-init F]]   (block-term MEI)
           [--dropout F] [--input-dropout F] [--batch-norm true]  (kvsall only)
  eval     --dataset DIR --model-file model.bin [--split test|valid]
           [--categories true] [--classification true] [--metrics-out run.jsonl]
  predict  --dataset DIR --model-file model.bin --relation NAME [--topk K]
           (--head NAME to rank tails | --tail NAME to rank heads)
  serve    --dataset DIR --model-file model.bin [--addr HOST:PORT] [--workers N]
           [--max-batch N] [--cache-shards N] [--cache-capacity N] [--cache true|false]
           [--max-queue N] [--read-timeout-ms N] [--write-timeout-ms N]
           [--max-line-bytes N] [--metrics-out serve.jsonl]
           [--screen K] [--screen-threads N] [--precompute-hot N]
  export   --dataset DIR --model-file model.bin --out embeddings.tsv
  models   list available model presets

run `mei models` for the preset names accepted by --model.
`mei serve` answers newline-delimited JSON over TCP; see DESIGN.md §8.
`mei train --resume` continues a crashed run bitwise-identically from a
--checkpoint file; see DESIGN.md §9.
`mei train --threads` caps the training worker pool (default: all cores);
any value produces bit-identical results — see DESIGN.md §11.
`mei train --sampling kvsall` scores each batch group against all entities
with the full-softmax cross-entropy loss (implies --loss softmax-ce);
see DESIGN.md §12.
`mei serve --screen K` screens candidates through the per-row int8
quantized pass and rescores the top K survivors exactly (0 = exact
serving); `--precompute-hot N` refreshes the N hottest queries into the
result cache on every snapshot swap — see DESIGN.md §13.
`mei train --model block-term` (or any --bt-* flag) trains the MEI
block-term family: K partitions of Ce-dim entity / Cr-dim relation
blocks contracted through a learned core tensor; K=1 with Ce=Cr=n is
bitwise-identical to the learned-ω trilinear model — see DESIGN.md §17.
`mei train --dropout/--input-dropout/--batch-norm` add the ConvE-style
training regularizers on the k-vs-all path; eval and serving apply the
norm's running statistics automatically — see DESIGN.md §17.
`mei generate --kind synthwnrr|synthfb237` build the leakage-free
WN18RR/FB15k-237-shaped benchmarks (--scale is ignored for these).";

type CmdResult = Result<(), Box<dyn Error>>;

/// One `mei` subcommand: the flags (without `--`) it accepts and its
/// handler. Every subcommand that loads a dataset also takes `--order`.
pub struct Subcommand {
    /// The name given on the command line.
    pub name: &'static str,
    /// Accepted flags; any other flag is a usage error.
    pub flags: &'static [&'static str],
    /// Runs the subcommand.
    pub run: fn(&Args) -> CmdResult,
}

/// Every subcommand, in `USAGE` order.
pub const SUBCOMMANDS: &[Subcommand] = &[
    Subcommand { name: "generate", flags: &["out", "kind", "scale", "seed"], run: generate },
    Subcommand { name: "stats", flags: &["dataset", "order"], run: stats },
    Subcommand {
        name: "train",
        flags: &[
            "dataset", "order", "out", "model", "dim", "epochs", "lr", "l2", "batch", "seed",
            "sampling", "loss", "label-smooth", "quiet", "lr-decay", "lr-decay-mode",
            "eval-every", "metrics-out", "log-every", "checkpoint", "checkpoint-every", "resume",
            "threads", "bt-k", "bt-ce", "bt-cr", "bt-init", "dropout", "input-dropout",
            "batch-norm",
        ],
        run: train,
    },
    Subcommand {
        name: "eval",
        flags: &[
            "dataset", "order", "model-file", "split", "categories", "classification",
            "metrics-out",
        ],
        run: eval,
    },
    Subcommand {
        name: "predict",
        flags: &["dataset", "order", "model-file", "relation", "topk", "head", "tail"],
        run: predict,
    },
    Subcommand {
        name: "serve",
        flags: &[
            "dataset", "order", "model-file", "addr", "workers", "max-batch", "cache-shards",
            "cache-capacity", "cache", "max-queue", "read-timeout-ms", "write-timeout-ms",
            "max-line-bytes", "metrics-out", "screen", "screen-threads", "precompute-hot",
        ],
        run: serve,
    },
    Subcommand { name: "export", flags: &["dataset", "order", "model-file", "out"], run: export },
    Subcommand { name: "models", flags: &[], run: models },
    Subcommand { name: "help", flags: &[], run: help },
];

/// The subcommand called `name` (`--help` and `-h` are `help`).
pub fn subcommand(name: &str) -> Option<&'static Subcommand> {
    let name = if matches!(name, "--help" | "-h") { "help" } else { name };
    SUBCOMMANDS.iter().find(|c| c.name == name)
}

fn column_order(args: &Args) -> Result<ColumnOrder, Box<dyn Error>> {
    match args.get("order").unwrap_or("hrt") {
        "hrt" => Ok(ColumnOrder::HeadRelTail),
        "htr" => Ok(ColumnOrder::HeadTailRel),
        other => Err(format!("unknown --order {other:?} (expected hrt or htr)").into()),
    }
}

fn load_dataset(args: &Args) -> Result<Dataset, Box<dyn Error>> {
    let dir = args.require("dataset")?;
    Ok(load_benchmark_dir(dir, column_order(args)?)?)
}

fn preset_by_name(name: &str) -> Option<WeightPreset> {
    let norm = name.to_ascii_lowercase().replace(['-', '_', ' '], "");
    WeightPreset::all().iter().copied().find(|p| {
        p.name().to_ascii_lowercase().replace(['-', '_', ' ', '.'], "").starts_with(&norm)
            && !norm.is_empty()
    })
}

/// `mei help`.
fn help(_args: &Args) -> CmdResult {
    println!("{USAGE}");
    Ok(())
}

/// `mei models`.
fn models(_args: &Args) -> CmdResult {
    println!("{:<34} {:>3} {:>6}", "preset", "n", "terms");
    for p in WeightPreset::all() {
        println!("{:<34} {:>3} {:>6}", p.name(), p.n(), p.weight_vector().terms().len());
    }
    Ok(())
}

/// `mei generate`.
fn generate(args: &Args) -> CmdResult {
    use mei_datagen::{RecsysConfig, SynthWnConfig, SynthWnScale};
    let out = args.require("out")?;
    let seed: u64 = args.get_parsed("seed", 0)?;
    let scale = match args.get("scale").unwrap_or("small") {
        "tiny" => SynthWnScale::Tiny,
        "small" => SynthWnScale::Small,
        "full" => SynthWnScale::Full,
        other => return Err(format!("unknown --scale {other:?}").into()),
    };
    let dataset = match args.get("kind").unwrap_or("synthwn") {
        "synthwn" => SynthWnConfig::at_scale(scale, seed).generate(),
        "recsys" => RecsysConfig { seed, ..RecsysConfig::default() }.generate().dataset,
        "synthfb" => mei_datagen::SynthFbConfig { seed, ..mei_datagen::SynthFbConfig::default() }
            .generate(),
        "synthwnrr" => {
            mei_datagen::SynthWnRrConfig { seed, ..mei_datagen::SynthWnRrConfig::default() }
                .generate()
        }
        "synthfb237" => {
            let mut cfg = mei_datagen::SynthFb237Config::default();
            cfg.base.seed = seed;
            cfg.generate()
        }
        "random" => mei_datagen::random::random_graph(2000, 18, 30_000, 0.05, 0.05, seed),
        other => return Err(format!("unknown --kind {other:?}").into()),
    };
    save_benchmark_dir(&dataset, out, ColumnOrder::HeadRelTail)?;
    println!("wrote {} to {out}", dataset.stats());
    Ok(())
}

/// `mei stats`.
fn stats(args: &Args) -> CmdResult {
    let ds = load_dataset(args)?;
    println!("{}", ds.stats());
    println!("test-train inverse leakage: {:.3}", ds.test_inverse_leakage());
    let all: Vec<Triple> = ds.train.iter().chain(&ds.valid).chain(&ds.test).copied().collect();
    println!("\nrelation profiles:");
    println!(
        "{:<30} {:>8} {:>9} {:>11} {:>11}",
        "relation", "triples", "symmetry", "tails/head", "heads/tail"
    );
    for p in profile_relations(&all) {
        println!(
            "{:<30} {:>8} {:>9.2} {:>11.2} {:>11.2}",
            ds.relations.name(p.relation.0).unwrap_or("?"),
            p.count,
            p.symmetry,
            p.tails_per_head,
            p.heads_per_tail
        );
    }
    let pairs = detect_inverse_pairs(&all, ds.num_relations(), 0.8);
    if !pairs.is_empty() {
        println!("\ninverse pairs (overlap ≥ 0.8):");
        for (a, b, overlap) in pairs {
            println!(
                "  {} <-> {}  ({overlap:.2})",
                ds.relations.name(a.0).unwrap_or("?"),
                ds.relations.name(b.0).unwrap_or("?")
            );
        }
    }
    Ok(())
}

/// `mei train`.
fn train(args: &Args) -> CmdResult {
    let ds = load_dataset(args)?;
    let out = args.require("out")?;
    let model_name = args.get("model").unwrap_or("complex");
    // Any --bt-* flag (or --model block-term) selects the MEI block-term
    // family instead of a fixed-ω preset; see DESIGN.md §17.
    let block_term = matches!(model_name, "block-term" | "blockterm" | "mei")
        || args.get("bt-k").is_some()
        || args.get("bt-ce").is_some()
        || args.get("bt-cr").is_some();
    let bt_shape = if block_term {
        let shape = mei_core::BlockTermShape {
            k: args.get_parsed("bt-k", 4usize)?,
            ce: args.get_parsed("bt-ce", 2usize)?,
            cr: args.get_parsed("bt-cr", 2usize)?,
        };
        if shape.k == 0 || shape.ce == 0 || shape.cr == 0 {
            return Err("--bt-k, --bt-ce and --bt-cr must all be >= 1".into());
        }
        Some(shape)
    } else {
        None
    };
    let preset = if block_term {
        None
    } else {
        Some(
            preset_by_name(model_name)
                .ok_or_else(|| format!("unknown model {model_name:?}; see `mei models`"))?,
        )
    };
    let n = match bt_shape {
        Some(shape) => shape.n(),
        None => preset.expect("preset set when not block-term").effective_interaction().0,
    };
    let dim: usize = args.get_parsed("dim", (128 / n).max(1))?;
    let sampling = match args.get("sampling").unwrap_or("uniform") {
        // "negative" is an alias for the default per-triple sampled path.
        "uniform" | "negative" => SamplingStrategy::Uniform,
        "bern" | "bernoulli" => SamplingStrategy::Bernoulli,
        "kvsall" | "1-n" => SamplingStrategy::KvsAll,
        other => return Err(format!("unknown --sampling {other:?}").into()),
    };
    // kvsall trains with the full-softmax loss; the flags must agree, and
    // --loss defaults to whatever the sampling mode implies.
    let kvsall = sampling == SamplingStrategy::KvsAll;
    let label_smooth: f32 = args.get_parsed("label-smooth", 0.0f32)?;
    if !(0.0..1.0).contains(&label_smooth) {
        return Err(format!("--label-smooth must be in [0, 1), got {label_smooth}").into());
    }
    let loss = match args.get("loss").unwrap_or(if kvsall { "softmax-ce" } else { "logistic" }) {
        "softmax-ce" | "softmax" => {
            if !kvsall {
                return Err("--loss softmax-ce requires --sampling kvsall".into());
            }
            LossKind::SoftmaxCrossEntropy { label_smooth }
        }
        "logistic" => {
            if kvsall {
                return Err("--sampling kvsall requires --loss softmax-ce".into());
            }
            LossKind::Logistic
        }
        other => return Err(format!("unknown --loss {other:?}").into()),
    };
    if label_smooth > 0.0 && !matches!(loss, LossKind::SoftmaxCrossEntropy { .. }) {
        return Err("--label-smooth only applies to --loss softmax-ce".into());
    }
    // ConvE-style regularizers; the whole stack rides the k-vs-all path.
    let dropout: f32 = args.get_parsed("dropout", 0.0f32)?;
    let input_dropout: f32 = args.get_parsed("input-dropout", 0.0f32)?;
    let batch_norm: bool = args.get_parsed("batch-norm", false)?;
    if !(0.0..1.0).contains(&dropout) || !(0.0..1.0).contains(&input_dropout) {
        return Err("--dropout/--input-dropout must be in [0, 1)".into());
    }
    if (dropout > 0.0 || input_dropout > 0.0 || batch_norm) && !kvsall {
        return Err("--dropout/--input-dropout/--batch-norm require --sampling kvsall".into());
    }
    let lr_decay: f32 = args.get_parsed("lr-decay", 1.0f32)?;
    let lr_decay_mode = match args.get("lr-decay-mode").unwrap_or("checkpoint") {
        "checkpoint" => LrDecayMode::Checkpoint,
        "epoch" => LrDecayMode::Epoch,
        other => return Err(format!("unknown --lr-decay-mode {other:?}").into()),
    };
    // --checkpoint-every defaults to 10 once a checkpoint path is given,
    // so `--checkpoint train.ckpt` alone already makes the run resumable.
    let checkpoint_path = args.get("checkpoint").map(std::path::PathBuf::from);
    let checkpoint_every: usize =
        args.get_parsed("checkpoint-every", if checkpoint_path.is_some() { 10 } else { 0 })?;
    if checkpoint_every > 0 && checkpoint_path.is_none() {
        return Err("--checkpoint-every needs --checkpoint PATH".into());
    }
    let config = TrainConfig {
        max_epochs: args.get_parsed("epochs", 500)?,
        batch_size: args.get_parsed("batch", 1024)?,
        learning_rate: args.get_parsed("lr", 1e-2f32)?,
        l2_lambda: args.get_parsed("l2", 1e-3f32)?,
        seed: args.get_parsed("seed", 0)?,
        sampling,
        loss,
        lr_decay,
        lr_decay_mode,
        eval_every: args.get_parsed("eval-every", 50)?,
        patience: 100,
        verbose: !args.get_parsed("quiet", false)?,
        checkpoint_every,
        checkpoint_path,
        dropout,
        input_dropout,
        batch_norm,
        // Speed knob only: the parallel schedule is bit-stable across
        // thread counts (DESIGN.md §11).
        threads: args.get_parsed("threads", 0)?,
        ..TrainConfig::default()
    };

    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut model = match bt_shape {
        Some(shape) => {
            let core_init: f32 = args.get_parsed("bt-init", 0.5f32)?;
            let m = MultiEmbedModel::block_term(
                ds.num_entities(),
                ds.num_relations(),
                shape,
                dim,
                core_init,
                &mut rng,
            );
            println!(
                "training block-term MEI (K = {}, Ce = {}, Cr = {}, D = {dim}, {} parameters) on {}",
                shape.k,
                shape.ce,
                shape.cr,
                m.num_params(),
                ds.stats()
            );
            m
        }
        None => {
            let preset = preset.expect("preset set when not block-term");
            let (_, omega) = preset.effective_interaction();
            let cfg = mei_core::ModelConfig {
                num_entities: ds.num_entities(),
                num_relations: ds.num_relations(),
                n,
                dim,
            };
            let m = MultiEmbedModel::with_fixed_weights(cfg, omega, &mut rng);
            println!(
                "training {} (n = {n}, D = {dim}, {} parameters) on {}",
                preset.name(),
                m.num_params(),
                ds.stats()
            );
            m
        }
    };
    let filter = ds.filter_store();
    let mut trainer = Trainer::new(config);
    let mut sinks: Vec<Arc<dyn TrainObserver>> = Vec::new();
    if let Some(path) = args.get("metrics-out") {
        let sink = JsonlObserver::create(path)
            .map_err(|e| format!("cannot open --metrics-out {path}: {e}"))?;
        sinks.push(Arc::new(sink));
        println!("writing per-epoch metrics to {path}");
    }
    let log_every: usize = args.get_parsed("log-every", 0)?;
    if log_every > 0 {
        sinks.push(Arc::new(ConsoleObserver::new(log_every)));
    }
    trainer = match sinks.len() {
        0 => trainer,
        1 => trainer.with_observer(sinks.pop().expect("len checked")),
        _ => trainer.with_observer(Arc::new(
            sinks.into_iter().fold(FanoutObserver::new(), FanoutObserver::with),
        )),
    };
    let report = match args.get("resume") {
        Some(ckpt) => {
            let cp = mei_core::load_checkpoint(ckpt)
                .map_err(|e| format!("cannot resume from {ckpt}: {e}"))?;
            println!("resuming from {ckpt} at epoch {}", cp.epoch);
            trainer
                .resume(&mut model, &ds, &filter, cp)
                .map_err(|e| format!("cannot resume from {ckpt}: {e}"))?
        }
        None => trainer.train(&mut model, &ds, &filter),
    };
    println!(
        "done: {} epochs, best validation MRR {:.4} at epoch {}",
        report.epochs_run, report.best_valid_mrr, report.best_epoch
    );
    save_model(&model, out)?;
    println!("model saved to {out}");
    Ok(())
}

/// `mei eval`.
fn eval(args: &Args) -> CmdResult {
    let ds = load_dataset(args)?;
    let model = load_model(args.require("model-file")?)?;
    if model.config().num_entities != ds.num_entities() {
        return Err(format!(
            "model has {} entities but dataset has {} — wrong pairing?",
            model.config().num_entities,
            ds.num_entities()
        )
        .into());
    }
    let split_name = args.get("split").unwrap_or("test");
    let split: &[Triple] = match split_name {
        "test" => &ds.test,
        "valid" => &ds.valid,
        "train" => &ds.train,
        other => return Err(format!("unknown --split {other:?}").into()),
    };
    let filter = ds.filter_store();
    let eval_cfg = EvalConfig::default();
    let (raw, filtered, stats) = evaluate_with_stats(&model, split, &filter, &eval_cfg);
    println!("filtered: {filtered}");
    println!("raw:      {raw}");
    println!(
        "{} queries in {:.2}s ({:.0} queries/sec, tie-rate {:.4})",
        stats.queries, stats.wall_secs, stats.queries_per_sec, stats.tie_rate
    );

    if let Some(path) = args.get("metrics-out") {
        let sink = JsonlObserver::create(path)
            .map_err(|e| format!("cannot open --metrics-out {path}: {e}"))?;
        sink.on_eval(&EvalRecord {
            epoch: 0,
            split: split_name.to_owned(),
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
        println!("metrics written to {path}");
    }

    if args.get_parsed("categories", false)? {
        let cats = categorize_relations(&ds.train, ds.num_relations(), 1.5);
        println!("\nfiltered MRR by relation category:");
        let mut rows: Vec<_> = mrr_by_category(&filtered, &cats).into_iter().collect();
        rows.sort_by_key(|(c, _)| c.label());
        for (cat, mrr) in rows {
            println!("  {:<4} {mrr:.3}", cat.label());
        }
    }

    if args.get_parsed("classification", false)? {
        let mut rng = StdRng::seed_from_u64(7);
        let fit_set = labeled_with_negatives(&mut rng, &ds.valid, ds.num_entities(), &filter);
        let test_set = labeled_with_negatives(&mut rng, split, ds.num_entities(), &filter);
        let clf = TripleClassifier::fit(&model, &fit_set);
        println!(
            "\ntriple classification accuracy: {:.3} (thresholds fit on valid)",
            clf.accuracy(&model, &test_set)
        );
    }
    Ok(())
}

/// `mei predict`.
fn predict(args: &Args) -> CmdResult {
    let ds = load_dataset(args)?;
    let model = load_model(args.require("model-file")?)?;
    let (side, anchor_name) = match (args.get("head"), args.get("tail")) {
        (Some(h), None) => (Side::Tail, h),
        (None, Some(t)) => (Side::Head, t),
        (Some(_), Some(_)) => return Err("pass --head or --tail, not both".into()),
        (None, None) => return Err("missing required argument --head (or --tail)".into()),
    };
    let rel_name = args.require("relation")?;
    let topk: usize = args.get_parsed("topk", 10)?;
    let anchor = ds
        .entities
        .get(anchor_name)
        .ok_or_else(|| format!("unknown entity {anchor_name:?}"))?;
    let relation = ds
        .relations
        .get(rel_name)
        .ok_or_else(|| format!("unknown relation {rel_name:?}"))?;
    let known = ds.train_store();
    let preds = top_k(&model, side, EntityId(anchor), RelationId(relation), topk, &known);
    match side {
        Side::Tail => println!("top-{topk} predicted tails for ({anchor_name}, ?, {rel_name}):"),
        Side::Head => println!("top-{topk} predicted heads for (?, {anchor_name}, {rel_name}):"),
    }
    for (rank, (e, score)) in preds.iter().enumerate() {
        println!(
            "{:>3}. {:<30} score {score:.4}  p(valid) {:.3}",
            rank + 1,
            ds.entities.name(e.0).unwrap_or("?"),
            mei_core::loss::predict_probability(*score)
        );
    }
    Ok(())
}

/// `mei serve`.
fn serve(args: &Args) -> CmdResult {
    use mei_serve::{Engine, ServeConfig, Server, ServerConfig, Snapshot};
    use std::time::Duration;

    let ds = load_dataset(args)?;
    // Serving reads embeddings, never writes them: map the file so a
    // million-entity model starts serving after a checksum pass instead
    // of a gigabyte copy (old formats fall back to an owned read).
    let model = load_model_mapped(args.require("model-file")?)?;
    if model.config().num_entities != ds.num_entities()
        || model.config().num_relations != ds.num_relations()
    {
        return Err(format!(
            "model shape {}x{} (entities x relations) does not match dataset {}x{} — wrong pairing?",
            model.config().num_entities,
            model.config().num_relations,
            ds.num_entities(),
            ds.num_relations()
        )
        .into());
    }
    let defaults = ServeConfig::default();
    // --screen 0 (the default) serves exactly; --screen K enables the
    // quantized screen→rescore path with K survivors per query.
    let screen_k: usize = args.get_parsed("screen", 0)?;
    let screen_threads: usize = args.get_parsed("screen-threads", 1)?;
    let config = ServeConfig {
        // workers: 0 is an engine test mode (nothing drains the queue);
        // a real server always gets at least one.
        workers: args.get_parsed("workers", defaults.workers)?.max(1),
        max_batch: args.get_parsed("max-batch", defaults.max_batch)?,
        cache_shards: args.get_parsed("cache-shards", defaults.cache_shards)?,
        cache_capacity: args.get_parsed("cache-capacity", defaults.cache_capacity)?,
        cache: args.get_parsed("cache", defaults.cache)?,
        max_queue: args.get_parsed("max-queue", defaults.max_queue)?,
        screen: (screen_k > 0)
            .then_some(mei_serve::ScreenParams { screen_k, threads: screen_threads }),
        precompute_hot: args.get_parsed("precompute-hot", defaults.precompute_hot)?,
    };
    let server_defaults = ServerConfig::default();
    // Timeout 0 means "no timeout" for operators who really want the old
    // unbounded behavior.
    let timeout = |ms: u64| (ms > 0).then(|| Duration::from_millis(ms));
    let default_ms =
        |d: Option<Duration>| d.map(|t| t.as_millis() as u64).unwrap_or(0);
    let server_config = ServerConfig {
        read_timeout: timeout(args.get_parsed(
            "read-timeout-ms",
            default_ms(server_defaults.read_timeout),
        )?),
        write_timeout: timeout(args.get_parsed(
            "write-timeout-ms",
            default_ms(server_defaults.write_timeout),
        )?),
        max_line_bytes: args.get_parsed("max-line-bytes", server_defaults.max_line_bytes)?,
    };
    // Known-true triples from every split are excluded from answers: the
    // server predicts *new* edges (the filtered protocol, applied online).
    let snapshot =
        Snapshot::new(model, ds.entities.clone(), ds.relations.clone(), ds.filter_store());
    let engine = Arc::new(Engine::start(snapshot, config));
    let addr = args.get("addr").unwrap_or("127.0.0.1:7878");
    let server = Server::start_with(Arc::clone(&engine), addr, server_config)
        .map_err(|e| format!("cannot bind {addr}: {e}"))?;
    // Scripts (and the e2e test) parse this line for the ephemeral port.
    println!("serving on {} (epoch {})", server.local_addr(), engine.epoch());
    use std::io::Write as _;
    std::io::stdout().flush().ok();
    server.wait();
    if let Some(path) = args.get("metrics-out") {
        let line = engine.metrics_snapshot().to_json();
        std::fs::write(path, line + "\n")
            .map_err(|e| format!("cannot write --metrics-out {path}: {e}"))?;
        println!("serving metrics written to {path}");
    }
    println!("server stopped");
    Ok(())
}

/// `mei export`.
fn export(args: &Args) -> CmdResult {
    let ds = load_dataset(args)?;
    let model = load_model(args.require("model-file")?)?;
    let out = args.require("out")?;
    let f = std::fs::File::create(out)?;
    let w = std::io::BufWriter::new(f);
    mei_core::serialize::export_entity_embeddings_tsv(
        &model,
        |e| ds.entities.name(e).unwrap_or("?").to_owned(),
        w,
    )?;
    println!(
        "wrote {} × {} embedding matrix to {out}",
        model.config().num_entities,
        model.config().n * model.config().dim
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preset_lookup_is_forgiving() {
        assert_eq!(preset_by_name("complex"), Some(WeightPreset::ComplEx));
        assert_eq!(preset_by_name("ComplEx"), Some(WeightPreset::ComplEx));
        assert_eq!(preset_by_name("distmult"), Some(WeightPreset::DistMult));
        assert_eq!(preset_by_name("cph"), Some(WeightPreset::Cph));
        assert_eq!(preset_by_name("quaternion"), Some(WeightPreset::Quaternion));
        assert_eq!(preset_by_name("octonion"), Some(WeightPreset::Octonion));
        assert_eq!(preset_by_name("no-such-model"), None);
        assert_eq!(preset_by_name(""), None);
    }

    #[test]
    fn cp_resolves_to_cp_not_cph() {
        assert_eq!(preset_by_name("cp"), Some(WeightPreset::Cp));
    }

    /// `USAGE` documents every subcommand but `help` with exactly the
    /// flags it accepts (`--order` comes with `--dataset`).
    #[test]
    fn usage_documents_exactly_the_accepted_flags() {
        let block = USAGE.split("subcommands:\n").nth(1).unwrap().split("\n\n").next().unwrap();
        let mut documented: Vec<(&str, Vec<&str>)> = Vec::new();
        for line in block.lines() {
            if !line.starts_with("   ") {
                documented.push((line.split_whitespace().next().unwrap(), Vec::new()));
            }
            let flags = &mut documented.last_mut().unwrap().1;
            flags.extend(
                line.split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
                    .filter_map(|w| w.strip_prefix("--")),
            );
        }
        let names: Vec<&str> = documented.iter().map(|(name, _)| *name).collect();
        let table: Vec<&str> =
            SUBCOMMANDS.iter().map(|c| c.name).filter(|&name| name != "help").collect();
        assert_eq!(names, table);
        for (name, mut flags) in documented {
            if flags.contains(&"dataset") {
                flags.push("order");
            }
            flags.sort_unstable();
            flags.dedup();
            let mut accepted = subcommand(name).unwrap().flags.to_vec();
            accepted.sort_unstable();
            assert_eq!(flags, accepted, "{name}");
        }
    }
}
