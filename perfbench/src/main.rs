//! `perfbench` — seeded end-to-end and per-layer benchmark of the mei
//! training, evaluation and serving stack.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Workloads: `paper-wn18`, `serve-screened-100k` (see
//! `perfbench/NOTES.md` for why each exists).
//! With `--trace 0` the last stdout line carries every end-to-end metric;
//! with `--trace 1` it carries every per-layer metric, and the spans and
//! layer tables land in `perfbench/out/`. A failed output check prints
//! `"correct":false` and exits 1.

mod kernels;
mod serving;
mod stats;
mod trace;
mod training;

use std::collections::BTreeMap;
use std::path::PathBuf;

/// End-to-end metrics, reported by every workload with `--trace 0`.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("eval_queries_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("swap_p50_ms", "ms"),
    ("quality", "score"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, reported by every workload with `--trace 1`
/// (0 where the workload does not run the layer).
pub const PER_LAYER: [(&str, &str); 33] = [
    ("math.gemm_nt.gflops", "GFLOP/s"),
    ("math.dot_gather.gflops", "GFLOP/s"),
    ("math.gemm_i8.gops", "GOP/s"),
    ("math.peak_fma_gflops", "GFLOP/s"),
    ("math.stream_gbps", "GB/s"),
    ("core.grads.forward_s", "s"),
    ("core.grads.merge_s", "s"),
    ("core.grads.examples", "count"),
    ("core.trainer.epoch_s", "s"),
    ("core.trainer.tail_s", "s"),
    ("eval.busy_s", "s"),
    ("eval.queries", "count"),
    ("eval.groups", "count"),
    ("eval.score_block_s", "s"),
    ("eval.filter_rank_s", "s"),
    ("eval.tie_rate", "ratio"),
    ("serve.server.overhead_ms", "ms"),
    ("serve.server.epoll_wakes_per_req", "count"),
    ("serve.server.held_responses", "count"),
    ("serve.engine.batch_size_mean", "count"),
    ("serve.engine.queue_wait_ms", "ms"),
    ("serve.engine.rejected", "count"),
    ("serve.cache.hit_rate", "ratio"),
    ("core.serialize.map_load_ms", "ms"),
    ("serve.snapshot.install_us", "us"),
    ("quant.index_build_s", "s"),
    ("quant.screen_ms", "ms"),
    ("quant.rescore_ms", "ms"),
    ("quant.survivors_per_query", "count"),
    ("quant.recall_at_10", "ratio"),
    ("datagen.generate_s", "s"),
    ("kg.filter_build_s", "s"),
    ("trace.overhead_share", "ratio"),
];

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed: the same seed generates the same inputs.
    pub seed: u64,
    /// Length of the timed phase in seconds.
    pub seconds: f64,
    /// Run the traced variant (per-layer metrics) instead of the plain one.
    pub trace: bool,
    /// Where traces and scratch files go.
    pub out_dir: PathBuf,
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// `(check, passed, detail)`.
    pub checks: Vec<(String, bool, String)>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed (refusals included).
    pub failed: u64,
    /// Operations refused by admission control.
    pub refused: u64,
    /// Metric values by name.
    pub values: BTreeMap<&'static str, f64>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records an output check.
    pub fn check(&mut self, name: &str, passed: bool, detail: String) {
        self.checks.push((name.to_owned(), passed, detail));
    }

    /// Sets a metric value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }
}

const USAGE: &str =
    "usage: perfbench --workload <paper-wn18|serve-screened-100k> \
                     --seed <u64> --seconds <1..=600> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("flag {flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(1.0..=600.0).contains(&s) {
                    return Err(format!("--seconds must lie in 1..=600, got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
        out_dir: PathBuf::from("perfbench").join("out"),
    })
}

extern "C" {
    fn mallopt(param: i32, value: i32) -> i32;
}

/// glibc's `M_MMAP_THRESHOLD`.
const M_MMAP_THRESHOLD: i32 = -3;
/// glibc's default mmap threshold, 128 KiB.
const MMAP_THRESHOLD_BYTES: i32 = 128 * 1024;

fn main() {
    // Pin glibc's mmap threshold at its default. Left dynamic, glibc raises
    // it after the first large free, and whether a later large buffer lands
    // in the heap or in a mapping of its own then depends on the order of
    // allocations: on a k-vs-all training run over a 1,000-entity graph
    // that moved the peak between 17.8 and 21.9 MiB from one seed to the
    // next. Pinned, large buffers are always mapped and unmapped, and the
    // peak follows the live data.
    // SAFETY: `mallopt` takes two ints and only sets allocator parameters;
    // it runs here before any other thread exists.
    unsafe { mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD_BYTES) };
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.out_dir) {
        eprintln!("perfbench: cannot create {}: {e}", args.out_dir.display());
        std::process::exit(1);
    }
    let env = format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"binary\":\"{}\",\"nproc\":{},\
         \"kernels\":\"{}\"}}",
        args.workload,
        args.seed,
        args.seconds,
        args.trace,
        stats::binary_fingerprint(),
        stats::nproc(),
        stats::kernel_path()
    );
    println!("env {env}");
    let result = match args.workload.as_str() {
        "paper-wn18" => training::paper_wn18(&args),
        "serve-screened-100k" => serving::screened_100k(&args),
        other => {
            eprintln!("perfbench: unknown workload {other}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let mut outcome = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            std::process::exit(1);
        }
    };
    outcome.set("peak_rss_mb", stats::peak_rss_mb());
    std::process::exit(report(&args, &outcome));
}

/// Prints the notes, checks and the final result line; returns the exit
/// code.
fn report(args: &Args, outcome: &Outcome) -> i32 {
    for line in &outcome.notes {
        println!("{line}");
    }
    let mut correct = true;
    for (name, passed, detail) in &outcome.checks {
        println!(
            "check {name}: {} ({detail})",
            if *passed { "ok" } else { "FAILED" }
        );
        correct &= passed;
    }
    println!(
        "ops attempted {} failed {} refused {}",
        outcome.attempted, outcome.failed, outcome.refused
    );
    let catalog: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut metrics = Vec::with_capacity(catalog.len());
    for (name, unit) in catalog {
        let value = match outcome.values.get(name) {
            Some(v) => *v,
            // Per-layer metrics of layers the workload does not run are 0;
            // every end-to-end metric must have been measured.
            None if args.trace => 0.0,
            None => {
                eprintln!("perfbench: {} did not measure {name}", args.workload);
                return 1;
            }
        };
        if !value.is_finite() {
            eprintln!("perfbench: {name} is not finite ({value})");
            return 1;
        }
        metrics.push(format!(
            "\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"
        ));
    }
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        outcome.attempted,
        outcome.failed,
        metrics.join(",")
    );
    if correct {
        0
    } else {
        1
    }
}
