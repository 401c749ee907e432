//! The training workload `paper-wn18`: the paper's §5 protocol on
//! WN18-shaped SynthWN.
//!
//! One op is a `Trainer::train` call over a fixed number of epochs from
//! the same seeded initial model, so every op must leave bit-identical
//! parameters. After each op the trained model is published the way a
//! trainer hands a model to serving — `model_to_bytes`, a plain write,
//! `load_model_mapped` with its checksum — and the mapped copy must match.

use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use mei_core::serialize::{load_model_mapped, model_to_bytes};
use mei_core::{
    GradPath, LossKind, ModelConfig, MultiEmbedModel,
    SamplingStrategy, TrainConfig, Trainer, WeightPreset,
};
use mei_datagen::synthwn::{SynthWnConfig, SynthWnScale};
use mei_eval::ranking::rank_triple_detailed_presorted;
use mei_eval::{evaluate_with_stats, BlockQuery, EvalConfig, Side, TripleScorer};
use mei_kg::{Dataset, EntityId, Triple, TripleStore};
use mei_obs::{EpochRecord, PhaseBreakdown, TrainObserver};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::kernels;
use crate::stats::{self, median, percentile, secs};
use crate::trace::{SpanId, Tracer};
use crate::{Args, Outcome};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Fewest ops a run makes, whatever `--seconds` says (a traced run makes
/// twice as many: half of them with the epoch observer, half without).
const MIN_OPS: usize = 3;
/// Most ops a run makes (fewer than 20, so no percentile above the median
/// would have ten samples beyond it).
const MAX_OPS: usize = 19;
/// `op_tail_ms` is this quantile of the op times. A run makes too few ops
/// for a tail percentile with ten samples beyond it, and their maximum
/// reads one slow spell of the machine; the upper quartile has a quarter
/// of the ops beyond it.
const TAIL_QUANTILE: f64 = 0.75;
/// The quality check: trained MRR must reach this multiple of the
/// random-ranking MRR.
const QUALITY_OVER_RANDOM: f64 = 10.0;

/// Quality is measured on this many test triples, the first of the split.
const TEST_SLICE: usize = 1000;
/// The test slice is evaluated in this many equal chunks: one pass of
/// about 0.5 s after each op, rotating through the chunks. Every op leaves
/// bit-identical parameters (checked), so the chunks' passes together
/// evaluate one model on the whole slice, and `eval_queries_per_s` is the
/// median pass of the run. Spread over the timed phase, the passes do not
/// all land in one slow spell of the machine.
const EVAL_CHUNKS: usize = 8;

/// One training workload.
struct Spec {
    name: &'static str,
    /// Builds the graph for a seed.
    generate: fn(u64) -> Dataset,
    /// Builds the seeded initial model.
    model: fn(&Dataset, u64) -> MultiEmbedModel,
    config: TrainConfig,
}

/// The paper's protocol (§5): ComplEx at n·D = 400, batch 4096, one
/// uniform negative, logistic loss, Adam, unit-norm projection, blocked
/// grad path, one worker thread.
fn paper_spec(seed: u64) -> Spec {
    Spec {
        name: "paper-wn18",
        generate: |seed| SynthWnConfig::at_scale(SynthWnScale::Full, seed).generate(),
        model: |ds, seed| {
            let cfg = ModelConfig {
                num_entities: ds.num_entities(),
                num_relations: ds.num_relations(),
                n: 2,
                dim: 200,
            };
            let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed_0001);
            MultiEmbedModel::with_fixed_weights(
                cfg,
                WeightPreset::ComplEx.weight_vector(),
                &mut rng,
            )
        },
        config: TrainConfig {
            max_epochs: 1,
            batch_size: 4096,
            learning_rate: 1e-2,
            l2_lambda: 1e-3,
            negatives_per_positive: 1,
            sampling: SamplingStrategy::Uniform,
            loss: LossKind::Logistic,
            unit_norm_entities: true,
            eval_every: usize::MAX,
            patience: usize::MAX,
            grad_path: GradPath::Blocked,
            threads: 1,
            seed,
            ..TrainConfig::default()
        },
    }
}

/// `paper-wn18`.
pub fn paper_wn18(args: &Args) -> Result<Outcome, String> {
    run(args, &paper_spec(args.seed))
}

/// Everything the timed phase needs.
struct Setup {
    dataset: Dataset,
    /// The train split alone: no in-training validation, so an op times
    /// the train loop and leaves the final parameters.
    train_only: Dataset,
    filter: TripleStore,
    model0: MultiEmbedModel,
    generate_s: f64,
    filter_s: f64,
}

fn set_up(spec: &Spec, seed: u64) -> Setup {
    let t = Instant::now();
    let dataset = (spec.generate)(seed);
    let generate_s = secs(t);
    let t = Instant::now();
    let filter = dataset.filter_store();
    let filter_s = secs(t);
    let train_only = Dataset {
        entities: dataset.entities.clone(),
        relations: dataset.relations.clone(),
        train: dataset.train.clone(),
        valid: Vec::new(),
        test: Vec::new(),
    };
    let model0 = (spec.model)(&dataset, seed);
    // Warm-up: one epoch over the first batches, so allocator, page cache
    // and kernel dispatch are settled before the first timed op.
    let mut warm = train_only.clone();
    warm.train.truncate(2 * spec.config.batch_size);
    let mut model = model0.clone();
    Trainer::new(TrainConfig {
        max_epochs: 1,
        ..spec.config.clone()
    })
    .train(&mut model, &warm, &filter);
    Setup {
        dataset,
        train_only,
        filter,
        model0,
        generate_s,
        filter_s,
    }
}

fn param_hash(model: &MultiEmbedModel) -> u64 {
    let mut h = stats::hash_f32(stats::FNV_START, model.entities.as_slice());
    h = stats::hash_f32(h, model.relations.as_slice());
    h = stats::hash_f32(h, model.omega().dense());
    if let Some(norm) = model.interaction_norm() {
        h = stats::hash_f32(h, &norm.flat());
    }
    h
}

/// Collects the trainer's per-epoch records, phase timings included.
#[derive(Default)]
struct EpochLog(Mutex<Vec<EpochRecord>>);

impl TrainObserver for EpochLog {
    fn on_epoch(&self, record: &EpochRecord) {
        self.0.lock().expect("epoch log").push(record.clone());
    }
}

/// What the timed phase measured.
struct Phase {
    /// `Trainer::train` seconds of every op.
    op_secs: Vec<f64>,
    /// Whether each op ran with the epoch observer attached.
    observed: Vec<bool>,
    publish_ms: Vec<f64>,
    hashes: Vec<u64>,
    publish_ok: bool,
    model: MultiEmbedModel,
    /// The epochs of the observed ops, as the trainer reported them.
    epochs: Vec<EpochRecord>,
    /// Every evaluation pass, in the order they ran.
    eval_runs: Vec<EvalRun>,
    /// The evaluation passes' spans (traced runs only).
    eval_spans: Vec<SpanId>,
}

impl Phase {
    /// Median `Trainer::train` seconds over the ops with (`true`) or
    /// without (`false`) the observer.
    fn op_p50(&self, observed: bool) -> f64 {
        median(
            &self
                .op_secs
                .iter()
                .zip(&self.observed)
                .filter(|(_, o)| **o == observed)
                .map(|(s, _)| *s)
                .collect::<Vec<_>>(),
        )
    }
}

/// One filtered evaluation pass over one chunk of the quality split.
struct EvalRun {
    chunk: usize,
    mrr: f64,
    tie_rate: f64,
    queries: usize,
    secs: f64,
}

/// Runs ops, each followed by one evaluation pass on the next chunk of the
/// test slice, until `seconds` have passed (within `MIN_OPS..=MAX_OPS`);
/// then evaluates any chunk not yet covered. In a traced
/// run every other op attaches an observer, so the trainer reports each
/// epoch's phase timings live; the ops without it are the baseline for
/// the tracing overhead. Each observed op becomes a `train.op` span whose
/// children are the trainer's phases and the publish.
fn timed_phase(
    spec: &Spec,
    setup: &Setup,
    chunks: &[&[Triple]],
    seconds: f64,
    tracer: &mut Tracer,
    scratch: &Path,
) -> Phase {
    let plain = Trainer::new(spec.config.clone());
    let log = Arc::new(EpochLog::default());
    let observed = Trainer::new(spec.config.clone()).with_observer(log.clone());
    let min_ops = if tracer.enabled() {
        2 * MIN_OPS
    } else {
        MIN_OPS
    };
    let started = Instant::now();
    let mut phase = Phase {
        op_secs: Vec::new(),
        observed: Vec::new(),
        publish_ms: Vec::new(),
        hashes: Vec::new(),
        publish_ok: true,
        model: setup.model0.clone(),
        epochs: Vec::new(),
        eval_runs: Vec::new(),
        eval_spans: Vec::new(),
    };
    while phase.op_secs.len() < MAX_OPS
        && (phase.op_secs.len() < min_ops || secs(started) < seconds)
    {
        let op = phase.op_secs.len() as u64;
        let observe = tracer.enabled() && op % 2 == 1;
        let trainer = if observe { &observed } else { &plain };
        let mut model = setup.model0.clone();
        let t0 = Instant::now();
        trainer.train(&mut model, &setup.train_only, &setup.filter);
        let t1 = Instant::now();
        phase.op_secs.push((t1 - t0).as_secs_f64());
        phase.observed.push(observe);
        let hash = param_hash(&model);
        phase.hashes.push(hash);

        let path = scratch.join(format!("{}-published.bin", spec.name));
        let p0 = Instant::now();
        let loaded = std::fs::write(&path, &model_to_bytes(&model)[..])
            .map_err(|e| e.to_string())
            .and_then(|()| load_model_mapped(&path).map_err(|e| e.to_string()));
        let p1 = Instant::now();
        phase.publish_ms.push((p1 - p0).as_secs_f64() * 1e3);
        phase.publish_ok &= matches!(loaded, Ok(ref m) if param_hash(m) == hash);
        phase.model = model;

        if observe {
            let epochs = std::mem::take(&mut *log.0.lock().expect("epoch log"));
            let root = tracer.record("train.op", None, op, 1, t0, p1);
            let train = tracer.record("core.trainer.train", root, op, epochs.len() as u64, t0, t1);
            if let Some(train) = train {
                let sum = |f: fn(&PhaseBreakdown) -> f64| -> f64 {
                    epochs.iter().map(|e| f(&e.phases)).sum()
                };
                let examples = epochs.iter().map(|e| e.examples as u64).sum();
                for (name, secs) in [
                    ("core.trainer.sampling", sum(|p| p.sampling)),
                    ("core.grads.forward", sum(|p| p.forward)),
                    ("core.grads.backward", sum(|p| p.backward)),
                    ("core.grads.merge", sum(|p| p.merge)),
                    ("core.trainer.step", sum(|p| p.step)),
                    ("core.trainer.project", sum(|p| p.project)),
                ] {
                    tracer.attach(name, train, op, examples, secs, false);
                }
            }
            tracer.record("core.serialize.publish", root, op, 1, p0, p1);
            phase.epochs.extend(epochs);
        }

        eval_pass(&mut phase, chunks, &setup.filter, tracer);
    }
    while phase.eval_runs.len() < chunks.len() {
        eval_pass(&mut phase, chunks, &setup.filter, tracer);
    }
    phase
}

/// Evaluates the phase's model on the next chunk in rotation.
fn eval_pass(phase: &mut Phase, chunks: &[&[Triple]], filter: &TripleStore, tracer: &mut Tracer) {
    let rep = phase.eval_runs.len();
    let chunk = rep % chunks.len();
    let t0 = Instant::now();
    let run = evaluate(&phase.model, chunks[chunk], filter, chunk);
    let t1 = Instant::now();
    if let Some(span) = tracer.record("eval", None, rep as u64, run.queries as u64, t0, t1) {
        phase.eval_spans.push(span);
    }
    phase.eval_runs.push(run);
}


/// One filtered evaluation pass of `chunk`, on one thread.
fn evaluate(model: &MultiEmbedModel, triples: &[Triple], filter: &TripleStore, chunk: usize) -> EvalRun {
    stats::on_one_cpu(|| {
        let t = Instant::now();
        let (_, filtered, st) = evaluate_with_stats(model, triples, filter, &EvalConfig::default());
        EvalRun {
            chunk,
            mrr: filtered.mrr,
            tie_rate: st.tie_rate,
            queries: st.queries,
            secs: secs(t),
        }
    })
}

/// The first pass of each chunk, by chunk.
fn first_passes(runs: &[EvalRun], chunks: usize) -> Vec<&EvalRun> {
    (0..chunks)
        .map(|c| runs.iter().find(|r| r.chunk == c).expect("every chunk evaluated"))
        .collect()
}

/// Query-weighted mean of `f` over the chunks' first passes: the value for
/// the whole quality split.
fn whole_split(firsts: &[&EvalRun], f: fn(&EvalRun) -> f64) -> f64 {
    let queries: usize = firsts.iter().map(|r| r.queries).sum();
    firsts.iter().map(|r| f(r) * r.queries as f64).sum::<f64>() / queries.max(1) as f64
}

fn run(args: &Args, spec: &Spec) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let started = Instant::now();
    let mut setup_secs = Vec::new();
    let mut setup = None;
    for _ in 0..SETUP_REPS {
        drop(setup.take());
        let t = Instant::now();
        setup = Some(set_up(spec, args.seed));
        setup_secs.push(secs(t));
    }
    let setup = setup.expect("at least one set-up");
    out.notes.push(format!(
        "setup {}: {} entities, {} relations, {} train triples; set-ups {:?} s (run start to first op {:.3} s)",
        spec.name,
        setup.dataset.num_entities(),
        setup.dataset.num_relations(),
        setup.dataset.train.len(),
        setup_secs,
        secs(started)
    ));

    let scratch = args
        .out_dir
        .join(format!("{}-{}", spec.name, std::process::id()));
    std::fs::create_dir_all(&scratch).map_err(|e| format!("{}: {e}", scratch.display()))?;
    let result = measure(args, spec, &setup, &setup_secs, &scratch, &mut out);
    let _ = std::fs::remove_dir_all(&scratch);
    result?;
    Ok(out)
}

fn measure(
    args: &Args,
    spec: &Spec,
    setup: &Setup,
    setup_secs: &[f64],
    scratch: &Path,
    out: &mut Outcome,
) -> Result<(), String> {
    let triples_per_op = (setup.train_only.train.len() * spec.config.max_epochs) as f64;
    let quality_set: Vec<Triple> = setup.dataset.test.iter().take(TEST_SLICE).copied().collect();
    let chunks: Vec<&[Triple]> = quality_set
        .chunks(quality_set.len().div_ceil(EVAL_CHUNKS))
        .collect();

    let mut tracer = Tracer::new(args.trace);
    let phase = timed_phase(spec, setup, &chunks, args.seconds, &mut tracer, scratch);
    let eval_runs = &phase.eval_runs;
    let firsts = first_passes(eval_runs, chunks.len());
    let mrr = whole_split(&firsts, |r| r.mrr);
    let eval_qps = median(
        &eval_runs
            .iter()
            .map(|r| r.queries as f64 / r.secs)
            .collect::<Vec<_>>(),
    );

    // Output checks.
    let ops = phase.op_secs.len() as u64;
    out.attempted = ops + eval_runs.len() as u64;
    let identical = phase.hashes.iter().all(|h| *h == phase.hashes[0]);
    let mismatched = phase
        .hashes
        .iter()
        .filter(|h| **h != phase.hashes[0])
        .count() as u64;
    out.failed = mismatched + u64::from(!phase.publish_ok);
    out.check(
        "train ops bit-identical",
        identical,
        format!("{ops} ops, parameter hash {:016x}", phase.hashes[0]),
    );
    out.check(
        "published model maps back bit-identical",
        phase.publish_ok,
        format!("{ops} publishes"),
    );
    let floor = QUALITY_OVER_RANDOM * stats::random_mrr(setup.dataset.num_entities());
    out.check(
        "quality over random",
        mrr >= floor,
        format!("filtered MRR {mrr:.4} vs {QUALITY_OVER_RANDOM}x random {floor:.5}"),
    );
    out.check(
        "eval passes agree",
        eval_runs
            .iter()
            .all(|r| r.mrr.to_bits() == firsts[r.chunk].mrr.to_bits()),
        format!("{} passes over {} chunks", eval_runs.len(), chunks.len()),
    );

    let op_p50 = median(&phase.op_secs);
    out.notes.push(format!(
        "{}: {ops} ops of {} epochs, op seconds {:?}, eval {:.1} queries/s (passes {:?}), MRR {mrr:.4}",
        spec.name,
        spec.config.max_epochs,
        phase.op_secs,
        eval_qps,
        eval_runs
            .iter()
            .map(|r| (r.queries as f64 / r.secs).round())
            .collect::<Vec<_>>()
    ));
    if !args.trace {
        out.set("setup_s", median(setup_secs));
        out.set("throughput_per_s", triples_per_op / op_p50);
        out.set("eval_queries_per_s", eval_qps);
        out.set("op_p50_ms", op_p50 * 1e3);
        out.set("op_tail_ms", percentile(&phase.op_secs, TAIL_QUANTILE) * 1e3);
        out.set("swap_p50_ms", median(&phase.publish_ms));
        out.set("quality", mrr);
        return Ok(());
    }

    // Traced run. The trainer's own phase timers split the observed
    // epochs; the ops without the observer are the overhead baseline.
    let (plain_s, observed_s) = (phase.op_p50(false), phase.op_p50(true));
    let overhead = (observed_s - plain_s) / plain_s;
    out.set("trace.overhead_share", overhead);
    out.notes.push(format!(
        "tracing overhead: Trainer::train p50 {plain_s:.3} s without the observer vs {observed_s:.3} s with it \
         ({:+.2}%)",
        100.0 * overhead
    ));
    out.set("datagen.generate_s", setup.generate_s);
    out.set("kg.filter_build_s", setup.filter_s);

    let epochs = phase.epochs.len().max(1) as f64;
    let per_epoch = |f: fn(&EpochRecord) -> f64| phase.epochs.iter().map(f).sum::<f64>() / epochs;
    let examples = per_epoch(|e| e.examples as f64);
    let ne = setup.model0.num_entities();
    out.set("core.grads.forward_s", per_epoch(|e| e.phases.forward));
    out.set("core.grads.merge_s", per_epoch(|e| e.phases.merge));
    out.set("core.grads.examples", examples);
    out.set("core.trainer.epoch_s", per_epoch(|e| e.wall_secs));
    out.set(
        "core.trainer.tail_s",
        per_epoch(|e| e.phases.sampling + e.phases.step + e.phases.project),
    );

    // Each chunk replayed once; its layers are attached under every pass
    // of that chunk. The metrics are per pass, averaged over the chunks.
    let replays: Vec<EvalReplay> = chunks
        .iter()
        .map(|c| replay_eval(&phase.model, c, &setup.filter, &mut tracer))
        .collect();
    let per_pass = |f: fn(&EvalReplay) -> f64| replays.iter().map(f).sum::<f64>() / replays.len() as f64;
    let busy = median(&eval_runs.iter().map(|r| r.secs).collect::<Vec<_>>());
    out.set("eval.busy_s", busy);
    out.set("eval.queries", per_pass(|e| e.queries as f64));
    out.set("eval.groups", per_pass(|e| e.groups as f64));
    out.set("eval.score_block_s", per_pass(|e| e.score_block_s));
    out.set("eval.filter_rank_s", per_pass(|e| e.filter_rank_s));
    out.set("eval.tie_rate", whole_split(&firsts, |r| r.tie_rate));
    for ((rep, &span), run) in phase.eval_spans.iter().enumerate().zip(eval_runs) {
        let rep = rep as u64;
        let eval = &replays[run.chunk];
        tracer.attach(
            "eval.score_block",
            span,
            rep,
            eval.groups,
            eval.score_block_s,
            true,
        );
        tracer.attach(
            "eval.filter_rank",
            span,
            rep,
            eval.queries,
            eval.filter_rank_s,
            true,
        );
    }

    let k = setup.model0.entities.row_len();
    kernels::Rates {
        gemm_nt: kernels::gemm_nt_gflops(EVAL_QUERY_BLOCK, ne, k, args.seed),
        dot_gather: kernels::dot_gather_gflops(ne, k, spec.config.batch_size, args.seed),
        ..kernels::Rates::default()
    }
    .report(out, &mut tracer);

    let tables = [
        tracer.table(
            &format!(
                "{} observed op wall: Trainer::train plus publish (other: the parameter hash between them)",
                spec.name
            ),
            "train.op",
            1.0,
            "s",
        ),
        tracer.table(
            &format!("{} evaluate_with_stats wall", spec.name),
            "eval",
            1.0,
            "s",
        ),
    ];
    let mut extra = Vec::new();
    for t in &tables {
        out.notes.push(t.render());
        extra.push(t.to_json());
    }
    extra.push(format!("{{\"tracing_overhead_share\":{overhead}}}"));
    let path = args
        .out_dir
        .join(format!("trace-{}-seed{}.jsonl", spec.name, args.seed));
    tracer
        .write(&path, &extra)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    out.notes
        .push(format!("spans written to {}", path.display()));
    Ok(())
}

/// The evaluation pass replayed by layer: `score_block` over the same
/// query groups, then the filtered ranking of every group member.
struct EvalReplay {
    groups: u64,
    queries: u64,
    score_block_s: f64,
    filter_rank_s: f64,
}

/// Rows per `score_block` call — the evaluator's query block.
const EVAL_QUERY_BLOCK: usize = 32;

fn replay_eval(
    model: &MultiEmbedModel,
    triples: &[Triple],
    filter: &TripleStore,
    tracer: &mut Tracer,
) -> EvalReplay {
    // Group the head- and tail-side queries by distinct (side, anchor,
    // relation), in the evaluator's processing order.
    let mut groups: Vec<(BlockQuery, Vec<EntityId>)> = Vec::new();
    let mut index = std::collections::HashMap::new();
    for t in triples {
        for (query, truth) in [
            (BlockQuery::tails(t.head, t.relation), t.tail),
            (BlockQuery::heads(t.tail, t.relation), t.head),
        ] {
            let gi = *index.entry(query).or_insert_with(|| {
                groups.push((query, Vec::new()));
                groups.len() - 1
            });
            groups[gi].1.push(truth);
        }
    }
    groups.sort_unstable_by_key(|(q, _)| (q.side as u8, q.anchor.0, q.relation.0));
    let ne = model.num_entities();
    let policy = EvalConfig::default().tie_policy;
    let mut out = EvalReplay {
        groups: groups.len() as u64,
        queries: 0,
        score_block_s: 0.0,
        filter_rank_s: 0.0,
    };
    let mut scores = Vec::new();
    let started = Instant::now();
    let root = tracer.record("replay.eval", None, 0, 0, started, started);
    let mut checksum = 0.0f64;
    for (c, chunk) in groups.chunks(EVAL_QUERY_BLOCK).enumerate() {
        let queries: Vec<BlockQuery> = chunk.iter().map(|g| g.0).collect();
        scores.resize(queries.len() * ne, 0.0);
        let t0 = Instant::now();
        model.score_block(&queries, &mut scores);
        let t1 = Instant::now();
        for ((query, truths), row) in chunk.iter().zip(scores.chunks(ne)) {
            let known = match query.side {
                Side::Tail => filter.tails_of(query.anchor, query.relation),
                Side::Head => filter.heads_of(query.anchor, query.relation),
            };
            let mut known = known.to_vec();
            known.sort_unstable();
            known.dedup();
            for &truth in truths {
                let obs = rank_triple_detailed_presorted(row, truth, &known, policy);
                checksum += obs.pair.filtered;
                out.queries += 1;
            }
        }
        let t2 = Instant::now();
        out.score_block_s += (t1 - t0).as_secs_f64();
        out.filter_rank_s += (t2 - t1).as_secs_f64();
        tracer.record(
            "replay.eval.score_block",
            root,
            c as u64,
            queries.len() as u64,
            t0,
            t1,
        );
        tracer.record(
            "replay.eval.filter_rank",
            root,
            c as u64,
            queries.len() as u64,
            t1,
            t2,
        );
    }
    std::hint::black_box(checksum);
    out
}
