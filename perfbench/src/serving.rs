//! The serving workload `serve-screened-100k`, against an in-process
//! `mei_serve` server on loopback: int8 screen → rescore at |E| = 100,000
//! (n·D = 128) with the result cache on; one connection pipelines bursts
//! of uniform queries, each burst written at once, and waits for every
//! answer. The timed phase runs in `SEGMENTS` segments with the client
//! paused in between, while the benchmark times the prediction path in
//! process and makes one wire swap.
//!
//! Every client socket sets TCP_NODELAY and writes each frame (or burst)
//! with one `write_all`, so the client never waits on its own delayed ACK;
//! the server side is left as the program ships it.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use mei_core::serialize::{load_model_mapped, model_to_bytes};
use mei_core::{ModelConfig, MultiEmbedModel, WeightPreset};
use mei_eval::{top_k, Side};
use mei_kg::{EntityId, RelationId, TripleStore};
use mei_obs::json::parse;
use mei_obs::JsonValue;
use mei_quant::{quantize_row, screened_top_k, ScreenParams};
use mei_serve::{Engine, ServeConfig, Server, Snapshot};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::kernels;
use crate::stats::{self, median, percentile, secs};
use crate::trace::Tracer;
use crate::{Args, Outcome};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Answers per predict.
const K: usize = 10;
/// Closed-loop pings in the start-up loopback check.
const PING_PROBES: usize = 200;
/// The start-up check fails above this ping p50: on loopback a request
/// that takes longer is waiting on a delayed ACK.
const PING_LIMIT_MS: f64 = 1.0;
/// A response is held when its client latency exceeds its engine latency
/// by at least this much.
const HOLD_MS: f64 = 30.0;
/// The timed phase runs in this many equal segments. Between two
/// segments the client pauses, and the benchmark times the in-process
/// prediction path for `PREDICT_SLICE_SECS` and makes one wire swap.
/// Those samples then come from the whole run, not from one stretch after
/// it, and `throughput_per_s` and `op_tail_ms` are medians over the
/// segments, so one slow spell of the shared machine moves one segment,
/// not the result.
const SEGMENTS: usize = 9;
/// In-process timing of the prediction path in each pause.
const PREDICT_SLICE_SECS: f64 = 0.4;
/// How long a client waits for the server to accept or answer.
const IO_TIMEOUT: Duration = Duration::from_secs(30);

/// Entities of `serve-screened-100k`.
const SCREEN_ENTITIES: usize = 100_000;
/// Relations of `serve-screened-100k` (WN18's count).
const SCREEN_RELATIONS: usize = 18;
/// Components per role of the `serve-screened-100k` ComplEx model (n·D =
/// 128). Each request streams the whole int8 table, 100,000 × 128 bytes =
/// 12.8 MB, which stays in the shared L3. At n·D = 400 the table is 40 MB,
/// and a request's cost followed how much of the L3 other tenants left:
/// segment rates within one run ranged 145–313 requests/s.
const SCREEN_DIM: usize = 64;
/// Survivors kept per query by the int8 screen.
const SCREEN_K: usize = 1024;
/// Requests per pipelined burst. At this size a burst's service time is
/// several delayed-ACK timeouts long, so the responses the server holds
/// back (accepted sockets keep Nagle on) add a bounded share to each burst
/// instead of setting its length; with short bursts every burst waits one
/// full client delayed-ACK timeout and the screen's speed stops showing.
const BURST: usize = 128;
/// Warm-up bursts before the first timed `serve-screened-100k` burst.
const SCREEN_WARMUP_BURSTS: usize = 4;
/// Every this-many-th screened answer keeps its results for the recall
/// check.
const SCREEN_SAMPLE_EVERY: u64 = 8;
/// Most screened answers checked against the exact path per run.
const RECALL_CHECKS: usize = 100;
/// Least recall@10 of screened answers against the exact path.
const MIN_RECALL: f64 = 0.99;

/// One ranking query in id space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Query {
    side: Side,
    anchor: u32,
    relation: u32,
}

impl Query {
    fn frame(self, id: u64) -> String {
        let side = match self.side {
            Side::Tail => "tail",
            Side::Head => "head",
        };
        format!(
            "{{\"op\":\"predict\",\"side\":\"{side}\",\"anchor\":{},\"relation\":{},\"k\":{K},\"id\":{id}}}\n",
            self.anchor, self.relation
        )
    }

    fn excluded(self, exclude: &TripleStore) -> Vec<EntityId> {
        let mut v = match self.side {
            Side::Tail => exclude.tails_of(EntityId(self.anchor), RelationId(self.relation)),
            Side::Head => exclude.heads_of(EntityId(self.anchor), RelationId(self.relation)),
        }
        .to_vec();
        v.sort_unstable();
        v.dedup();
        v
    }
}

fn swap_frame(path: &Path) -> String {
    format!(
        "{{\"op\":\"swap\",\"model_file\":\"{}\"}}\n",
        path.display()
    )
}

/// A served answer as `(entity id, score)` pairs, best first.
type Answer = Vec<(u32, f32)>;

/// What the server answered.
#[derive(Debug, Clone)]
enum Reply {
    Answer {
        results: Option<Answer>,
    },
    Swapped,
    Error {
        kind: String,
    },
}

impl Reply {
    fn parse(v: &JsonValue, keep_results: bool) -> Reply {
        if !matches!(v.get("ok"), Some(JsonValue::Bool(true))) {
            let kind = v
                .get("kind")
                .and_then(JsonValue::as_str)
                .unwrap_or("unknown");
            return Reply::Error {
                kind: kind.to_owned(),
            };
        }
        match v.get("results").and_then(JsonValue::as_arr) {
            Some(results) => Reply::Answer {
                results: keep_results.then(|| {
                    results
                        .iter()
                        .map(|r| {
                            let id = r
                                .get("id")
                                .and_then(JsonValue::as_usize)
                                .unwrap_or(usize::MAX);
                            let score = r
                                .get("score")
                                .and_then(JsonValue::as_f64)
                                .unwrap_or(f64::NAN);
                            (id as u32, score as f32)
                        })
                        .collect()
                }),
            },
            None => Reply::Swapped,
        }
    }

    fn ok(&self) -> bool {
        !matches!(self, Reply::Error { .. })
    }
}

/// One predict as the client saw it.
#[derive(Debug, Clone)]
struct Record {
    /// Sequence number.
    seq: u64,
    /// Burst the request went out in.
    burst: u64,
    query: Query,
    /// When the request (or its burst) was written.
    sent: Instant,
    /// When its response line arrived.
    done: Instant,
    reply: Reply,
}

impl Record {
    fn latency_ms(&self) -> f64 {
        (self.done - self.sent).as_secs_f64() * 1e3
    }
}

/// A client connection: TCP_NODELAY on, one `write_all` per frame or
/// burst, line-oriented reads.
struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    line: String,
}

impl Conn {
    /// Connects, retrying until the server accepts: readiness is polled by
    /// connecting, never assumed after a fixed sleep.
    fn open(addr: SocketAddr) -> Result<Conn, String> {
        let started = Instant::now();
        let stream = loop {
            match TcpStream::connect_timeout(&addr, IO_TIMEOUT) {
                Ok(s) => break s,
                // Back off briefly between attempts instead of spinning.
                Err(_) if started.elapsed() < IO_TIMEOUT => {
                    std::thread::sleep(Duration::from_millis(1))
                }
                Err(e) => return Err(format!("server at {addr} never accepted: {e}")),
            }
        };
        let io = |e: std::io::Error| format!("socket set-up: {e}");
        stream.set_nodelay(true).map_err(io)?;
        stream.set_read_timeout(Some(IO_TIMEOUT)).map_err(io)?;
        let reader = BufReader::new(stream.try_clone().map_err(io)?);
        Ok(Conn {
            writer: stream,
            reader,
            line: String::new(),
        })
    }

    fn send(&mut self, frame: &[u8]) -> Result<(), String> {
        self.writer
            .write_all(frame)
            .map_err(|e| format!("send: {e}"))
    }

    fn recv(&mut self) -> Result<JsonValue, String> {
        self.line.clear();
        let n = self
            .reader
            .read_line(&mut self.line)
            .map_err(|e| format!("receive: {e}"))?;
        if n == 0 {
            return Err("server closed the connection".to_owned());
        }
        parse(self.line.trim_end())
    }
}

/// Closed-loop loopback pings; fails when their p50 shows a delayed-ACK
/// wait, which would otherwise swamp every latency the run reports.
fn check_loopback(conn: &mut Conn) -> Result<f64, String> {
    let mut lat = Vec::with_capacity(PING_PROBES);
    for _ in 0..PING_PROBES {
        let t = Instant::now();
        conn.send(b"{\"op\":\"ping\"}\n")?;
        conn.recv()?;
        lat.push(secs(t) * 1e3);
    }
    let p50 = median(&lat);
    if p50 > PING_LIMIT_MS {
        return Err(format!(
            "closed-loop loopback ping p50 is {p50:.3} ms (limit {PING_LIMIT_MS} ms): requests are \
             waiting on TCP delayed ACK; each frame must go out in one write with TCP_NODELAY set"
        ));
    }
    Ok(p50)
}

/// Engine counters and histogram sums, read before and after a phase.
#[derive(Debug, Default, Clone, Copy)]
struct Counters {
    requests: u64,
    hits: u64,
    misses: u64,
    rejected: u64,
    errors: u64,
    wakes: u64,
    batch_sum: f64,
    batch_n: u64,
    latency_sum: f64,
    latency_n: u64,
    install_sum: f64,
    install_n: u64,
}

impl Counters {
    fn read(engine: &Engine) -> Counters {
        let m = engine.metrics();
        let c = |name: &str| m.counter(name).get();
        let h = |name: &str| {
            let h = m.histogram(name, &[]);
            (h.sum(), h.count())
        };
        let (batch_sum, batch_n) = h("serve/batch_size");
        let (latency_sum, latency_n) = h("serve/latency_secs");
        let (install_sum, install_n) = h("serve/swap_latency_secs");
        let cache = engine.cache_stats();
        Counters {
            requests: c("serve/requests"),
            hits: cache.hits,
            misses: cache.misses,
            rejected: c("serve/rejected"),
            errors: c("serve/errors"),
            wakes: c("serve/epoll_wakes"),
            batch_sum,
            batch_n,
            latency_sum,
            latency_n,
            install_sum,
            install_n,
        }
    }

    fn since(self, before: Counters) -> Counters {
        Counters {
            requests: self.requests - before.requests,
            hits: self.hits - before.hits,
            misses: self.misses - before.misses,
            rejected: self.rejected - before.rejected,
            errors: self.errors - before.errors,
            wakes: self.wakes - before.wakes,
            batch_sum: self.batch_sum - before.batch_sum,
            batch_n: self.batch_n - before.batch_n,
            latency_sum: self.latency_sum - before.latency_sum,
            latency_n: self.latency_n - before.latency_n,
            install_sum: self.install_sum - before.install_sum,
            install_n: self.install_n - before.install_n,
        }
    }
}

/// Predict latencies in ms of `records`, in order; a failed request counts
/// as over every limit.
fn latencies<'a>(records: impl Iterator<Item = &'a Record>) -> Vec<f64> {
    records
        .map(|r| {
            if r.reply.ok() {
                r.latency_ms()
            } else {
                f64::INFINITY
            }
        })
        .collect()
}

/// Times `predict` back to back for `PREDICT_SLICE_SECS`, adding each
/// call's seconds to `per_call`.
fn time_slice(per_call: &mut Vec<f64>, mut predict: impl FnMut()) {
    let started = Instant::now();
    while secs(started) < PREDICT_SLICE_SECS {
        let t = Instant::now();
        predict();
        per_call.push(secs(t));
    }
}

/// A timed phase: every record, the segments it ran in, the engine
/// counters it moved and the in-process samples taken in its pauses.
struct Phase {
    records: Vec<Record>,
    /// Start and end of each segment; requests go out only inside them.
    segments: Vec<(Instant, Instant)>,
    counters: Counters,
    /// Seconds per in-process call of the prediction path, timed in the
    /// pauses.
    predict_secs: Vec<f64>,
}

impl Phase {
    /// Seconds the segments took together.
    fn wall_s(&self) -> f64 {
        self.segments
            .iter()
            .map(|(a, b)| (*b - *a).as_secs_f64())
            .sum()
    }

    /// The records sent in each segment. Nothing is sent in a pause, so a
    /// record belongs to the first segment that ends after it was sent
    /// (a client may send its first request of a segment a moment before
    /// the main thread notes the segment's start).
    fn by_segment(&self) -> Vec<Vec<&Record>> {
        let mut out = vec![Vec::new(); self.segments.len()];
        for r in &self.records {
            if let Some(i) = self.segments.iter().position(|(_, end)| r.sent < *end) {
                out[i].push(r);
            }
        }
        out
    }

    /// The p99 predict latency of each segment, median over the segments.
    /// A segment holds over 1,000 requests, so each p99 has more than ten
    /// samples beyond it.
    fn tail_ms(&self) -> f64 {
        median(
            &self
                .by_segment()
                .iter()
                .map(|seg| percentile(&latencies(seg.iter().copied()), 0.99))
                .collect::<Vec<_>>(),
        )
    }

    /// Answered requests ÷ wall of each segment.
    fn segment_rates(&self) -> Vec<f64> {
        self.by_segment()
            .iter()
            .zip(&self.segments)
            .map(|(seg, (a, b))| {
                seg.iter().filter(|r| r.reply.ok()).count() as f64 / (*b - *a).as_secs_f64()
            })
            .collect()
    }

    /// Median over the segments of answered requests ÷ segment wall.
    fn throughput(&self) -> f64 {
        median(&self.segment_rates())
    }

    /// Queries/s of the prediction path, in process: the inverse of the
    /// median call time over every pause.
    fn predict_qps(&self) -> f64 {
        1.0 / median(&self.predict_secs)
    }

    /// Predict latencies in ms, in send order.
    fn predict_latencies(&self) -> Vec<f64> {
        latencies(self.records.iter())
    }

    /// Sets attempted/failed/refused and cross-checks them against the
    /// engine's own counters.
    fn account(&self, out: &mut Outcome) {
        let predict_errors = self.records.iter().filter(|r| !r.reply.ok()).count() as u64;
        let refused = self
            .records
            .iter()
            .filter(|r| matches!(&r.reply, Reply::Error { kind } if kind == "overloaded"))
            .count() as u64;
        out.attempted += self.records.len() as u64;
        out.failed += predict_errors;
        out.refused += refused;
        let c = self.counters;
        out.check(
            "client counts match the engine",
            c.requests == self.records.len() as u64 && c.rejected == refused && c.errors == predict_errors,
            format!(
                "engine saw {} predicts, {} rejected, {} errors; client sent {}, {} refused, {} errors",
                c.requests,
                c.rejected,
                c.errors,
                self.records.len(),
                refused,
                predict_errors
            ),
        );
    }
}

/// A seeded ComplEx model (n = 2) with `dim` components per role.
fn complex_model(num_entities: usize, num_relations: usize, dim: usize, seed: u64) -> MultiEmbedModel {
    let cfg = ModelConfig {
        num_entities,
        num_relations,
        n: 2,
        dim,
    };
    let mut rng = StdRng::seed_from_u64(seed);
    MultiEmbedModel::with_fixed_weights(cfg, WeightPreset::ComplEx.weight_vector(), &mut rng)
}

/// Writes a model the way a trainer publishes a snapshot: serialized
/// bytes, one plain write (no fsync).
fn write_snapshot(model: &MultiEmbedModel, path: &Path) -> Result<(), String> {
    std::fs::write(path, &model_to_bytes(model)[..]).map_err(|e| format!("{}: {e}", path.display()))
}

/// Runs `f` against a per-process scratch directory, removing it after.
fn with_scratch<T>(args: &Args, f: impl FnOnce(&Path) -> Result<T, String>) -> Result<T, String> {
    let dir = args
        .out_dir
        .join(format!("{}-{}", args.workload, std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let result = f(&dir);
    let _ = std::fs::remove_dir_all(&dir);
    result
}

/// Runs `set_up` `SETUP_REPS` times, shutting down all but the last.
fn repeated_setup<S>(
    mut set_up: impl FnMut() -> Result<S, String>,
) -> Result<(S, Vec<f64>), String> {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..SETUP_REPS {
        drop(last.take());
        let t = Instant::now();
        last = Some(set_up()?);
        times.push(secs(t));
    }
    Ok((last.expect("at least one set-up"), times))
}

/// A running server and the engine behind it. Dropping it stops both and
/// joins their threads.
struct Service {
    server: Server,
    engine: Arc<Engine>,
}

impl Service {
    fn start(snapshot: Snapshot, config: ServeConfig) -> Result<Service, String> {
        let engine = Arc::new(Engine::start(snapshot, config));
        let server =
            Server::start(Arc::clone(&engine), "127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
        Ok(Service { server, engine })
    }

    fn addr(&self) -> SocketAddr {
        self.server.local_addr()
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        self.server.shutdown();
    }
}

/// Prints the layer tables and writes the spans. The serving spans are
/// built after the timed phase from the records every run keeps, so the
/// traced timed phase runs exactly the untraced code: the tracing overhead
/// is 0 by construction.
fn finish_trace(
    args: &Args,
    tracer: &Tracer,
    tables: &[crate::trace::LayerTable],
    out: &mut Outcome,
) -> Result<(), String> {
    out.set("trace.overhead_share", 0.0);
    out.notes.push(
        "tracing overhead: 0 (spans are built from the timed phase's records after it ends)"
            .to_owned(),
    );
    let mut extra = Vec::new();
    for t in tables {
        out.notes.push(t.render());
        extra.push(t.to_json());
    }
    extra.push("{\"tracing_overhead_share\":0}".to_owned());
    let path = args
        .out_dir
        .join(format!("trace-{}-seed{}.jsonl", args.workload, args.seed));
    tracer
        .write(&path, &extra)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    out.notes
        .push(format!("spans written to {}", path.display()));
    Ok(())
}

// ---------------------------------------------------------------------------
// serve-screened-100k
// ---------------------------------------------------------------------------

/// The result cache is on so that the cache layer runs in some workload;
/// uniform queries over 3.6 million keys almost never hit it.
fn screened_config() -> ServeConfig {
    ServeConfig {
        workers: 1,
        cache: true,
        screen: Some(ScreenParams {
            screen_k: SCREEN_K,
            threads: 1,
        }),
        precompute_hot: 0,
        ..ServeConfig::default()
    }
}

struct ScreenSetup {
    service: Service,
    model: MultiEmbedModel,
    file: PathBuf,
    exclude: TripleStore,
    index_build_s: f64,
    ping_p50_ms: f64,
}

fn screened_setup(seed: u64, dir: &Path) -> Result<ScreenSetup, String> {
    let model = complex_model(SCREEN_ENTITIES, SCREEN_RELATIONS, SCREEN_DIM, seed ^ 0x5c4e);
    let file = dir.join("snapshot.bin");
    write_snapshot(&model, &file)?;
    let exclude = TripleStore::new();
    let service = Service::start(
        Snapshot::with_ids(model.clone(), exclude.clone()),
        screened_config(),
    )?;
    let t = Instant::now();
    service.engine.snapshot().0.screen_index();
    let index_build_s = secs(t);
    let mut conn = Conn::open(service.addr())?;
    let ping_p50_ms = check_loopback(&mut conn)?;
    let mut rng = StdRng::seed_from_u64(seed ^ 0x3b3b);
    for _ in 0..SCREEN_WARMUP_BURSTS {
        let burst: Vec<Query> = (0..BURST).map(|_| uniform_query(&mut rng)).collect();
        let frame: String = burst
            .iter()
            .enumerate()
            .map(|(i, q)| q.frame(i as u64))
            .collect();
        conn.send(frame.as_bytes())?;
        for _ in 0..BURST {
            conn.recv()?;
        }
    }
    Ok(ScreenSetup {
        service,
        model,
        file,
        exclude,
        index_build_s,
        ping_p50_ms,
    })
}

fn uniform_query(rng: &mut StdRng) -> Query {
    Query {
        side: if rng.gen_bool(0.5) {
            Side::Tail
        } else {
            Side::Head
        },
        anchor: rng.gen_range(0..SCREEN_ENTITIES as u32),
        relation: rng.gen_range(0..SCREEN_RELATIONS as u32),
    }
}

/// The bulk caller: bursts of `BURST` predicts written at once on one
/// connection; the next burst goes out when every answer is in. Runs for
/// `seconds` in `SEGMENTS` segments. Each pause times `screened_top_k` in
/// process on uniform queries and the serving snapshot, then makes one
/// wire swap (mapped load + checksum + install + screen-index rebuild) on
/// a connection of its own, opened for it because the server drops a
/// connection idle for longer than its read timeout. Returns the phase and
/// the swap latencies in ms.
fn screened_phase(setup: &ScreenSetup, seed: u64, seconds: f64) -> Result<(Phase, Vec<f64>), String> {
    let engine = &setup.service.engine;
    let before = Counters::read(engine);
    let mut conn = Conn::open(setup.service.addr())?;
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0b0b);
    let mut timing_rng = StdRng::seed_from_u64(seed ^ 0x7e7e);
    let params = screened_config().screen.expect("screened serving");
    let segment = Duration::from_secs_f64(seconds / SEGMENTS as f64);
    let mut segments = Vec::with_capacity(SEGMENTS);
    let mut predict_secs = Vec::new();
    let mut swaps = Vec::with_capacity(SEGMENTS);
    let mut records = Vec::new();
    let mut seq = 0u64;
    let mut burst = 0u64;
    for _ in 0..SEGMENTS {
        let start = Instant::now();
        let deadline = start + segment;
        while Instant::now() < deadline {
            let queries: Vec<Query> = (0..BURST).map(|_| uniform_query(&mut rng)).collect();
            let frame: String = queries
                .iter()
                .enumerate()
                .map(|(i, q)| q.frame(seq + i as u64))
                .collect();
            let sent = Instant::now();
            conn.send(frame.as_bytes())?;
            for q in queries {
                let v = conn.recv()?;
                let done = Instant::now();
                let reply = Reply::parse(&v, seq.is_multiple_of(SCREEN_SAMPLE_EVERY));
                records.push(Record {
                    seq,
                    burst,
                    query: q,
                    sent,
                    done,
                    reply,
                });
                seq += 1;
            }
            burst += 1;
        }
        segments.push((start, Instant::now()));

        let (snap, _) = engine.snapshot();
        let index = snap.screen_index();
        time_slice(&mut predict_secs, || {
            let q = uniform_query(&mut timing_rng);
            std::hint::black_box(screened_top_k(
                &snap.model,
                &index,
                q.side,
                EntityId(q.anchor),
                RelationId(q.relation),
                K,
                &setup.exclude,
                &params,
            ));
        });
        drop((snap, index));
        let mut swap_conn = Conn::open(setup.service.addr())?;
        let t = Instant::now();
        swap_conn.send(swap_frame(&setup.file).as_bytes())?;
        let ok = Reply::parse(&swap_conn.recv()?, false).ok();
        swaps.push(if ok { secs(t) * 1e3 } else { f64::INFINITY });
    }
    let counters = Counters::read(engine).since(before);
    let phase = Phase {
        records,
        segments,
        counters,
        predict_secs,
    };
    Ok((phase, swaps))
}

/// `serve-screened-100k`.
pub fn screened_100k(args: &Args) -> Result<Outcome, String> {
    with_scratch(args, |dir| {
        let (setup, setup_secs) = repeated_setup(|| screened_setup(args.seed, dir))?;
        let mut out = Outcome::default();
        out.notes.push(format!(
            "setup serve-screened-100k: {SCREEN_ENTITIES} entities, index build {:.3} s, loopback ping p50 {:.3} ms, \
             set-ups {setup_secs:?} s",
            setup.index_build_s, setup.ping_p50_ms
        ));
        // Created before the phase: span times are offsets from its origin.
        let tracer = Tracer::new(args.trace);
        let (phase, swaps) = screened_phase(&setup, args.seed, args.seconds)?;
        phase.account(&mut out);
        out.attempted += swaps.len() as u64;
        out.failed += swaps.iter().filter(|l| !l.is_finite()).count() as u64;
        out.check(
            "every swap succeeded",
            swaps.iter().all(|l| l.is_finite()),
            format!("{} swaps", swaps.len()),
        );

        let (recall, checked) = screened_recall(&setup, &phase);
        out.check(
            "screened recall@10 against the exact path",
            checked > 0 && recall >= MIN_RECALL,
            format!("recall@10 {recall:.4} over {checked} answers (contract >= {MIN_RECALL})"),
        );
        let lat = phase.predict_latencies();
        out.notes.push(format!(
            "answered per second in each segment: {:?}",
            phase.segment_rates()
        ));
        out.notes.push(format!(
            "serve-screened-100k: {} requests in {} bursts over {:.2} s, p50 {:.3} ms p99 {:.3} ms, swaps p50 {:.1} ms",
            lat.len(),
            phase.records.last().map_or(0, |r| r.burst + 1),
            phase.wall_s(),
            median(&lat),
            percentile(&lat, 0.99),
            median(&swaps)
        ));
        if !args.trace {
            out.set("setup_s", median(&setup_secs));
            out.set("throughput_per_s", phase.throughput());
            out.set("eval_queries_per_s", phase.predict_qps());
            out.set("op_p50_ms", median(&lat));
            out.set("op_tail_ms", phase.tail_ms());
            out.set("swap_p50_ms", median(&swaps));
            out.set("quality", recall);
            return Ok(out);
        }
        screened_layers(args, tracer, &setup, &phase, recall, &mut out)?;
        Ok(out)
    })
}

/// Recall@10 of sampled screened answers against the exact f32 path:
/// `(recall, answers checked)`.
fn screened_recall(setup: &ScreenSetup, phase: &Phase) -> (f64, usize) {
    let sampled: Vec<(&Query, &Answer)> = phase
        .records
        .iter()
        .filter_map(|r| match &r.reply {
            Reply::Answer {
                results: Some(res), ..
            } => Some((&r.query, res)),
            _ => None,
        })
        .collect();
    let stride = sampled.len().div_ceil(RECALL_CHECKS).max(1);
    let mut hits = 0usize;
    let mut checked = 0usize;
    for (q, served) in sampled.into_iter().step_by(stride) {
        let exact = top_k(
            &setup.model,
            q.side,
            EntityId(q.anchor),
            RelationId(q.relation),
            K,
            &setup.exclude,
        );
        hits += exact
            .iter()
            .filter(|(e, _)| served.iter().any(|s| s.0 == e.0))
            .count();
        checked += 1;
    }
    (hits as f64 / (checked * K).max(1) as f64, checked)
}

/// The quant layer replayed on one query: `(screen s, rescore s,
/// survivors, answer)`, the steps `screened_answers` takes.
fn quant_replay(
    setup: &ScreenSetup,
    index: &mei_quant::ScreenIndex,
    q: Query,
) -> (f64, f64, usize, Vec<(u32, f32)>) {
    let model = &setup.model;
    let k = model.entities.row_len();
    let mut ctx = vec![0.0f32; k];
    match q.side {
        Side::Tail => model.tail_context(EntityId(q.anchor), RelationId(q.relation), &mut ctx),
        Side::Head => model.head_context(EntityId(q.anchor), RelationId(q.relation), &mut ctx),
    }
    let mut qctx = vec![0i8; k];
    let scale = quantize_row(&ctx, &mut qctx);
    let excluded = q.excluded(&setup.exclude);
    let t0 = Instant::now();
    let mut survivors = index
        .screen_block(&qctx, &[scale], &[&excluded], SCREEN_K, 1)
        .pop()
        .unwrap_or_default();
    let t1 = Instant::now();
    let count = survivors.len();
    for (e, score) in survivors.iter_mut() {
        *score = mei_math::dot_fast(&ctx, model.entities.row(e.0 as usize));
    }
    survivors.sort_unstable_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    survivors.truncate(K);
    let t2 = Instant::now();
    let answer = survivors.into_iter().map(|(e, s)| (e.0, s)).collect();
    (
        (t1 - t0).as_secs_f64(),
        (t2 - t1).as_secs_f64(),
        count,
        answer,
    )
}

fn screened_layers(
    args: &Args,
    mut tracer: Tracer,
    setup: &ScreenSetup,
    phase: &Phase,
    recall: f64,
    out: &mut Outcome,
) -> Result<(), String> {
    out.set("quant.index_build_s", setup.index_build_s);

    // Engine replay: the same sequence through `Engine::predict` in process.
    let engine = Engine::start(
        Snapshot::with_ids(setup.model.clone(), setup.exclude.clone()),
        screened_config(),
    );
    engine.snapshot().0.screen_index();
    let mut engine_s = Vec::with_capacity(phase.records.len());
    for r in &phase.records {
        let q = r.query;
        let t = Instant::now();
        engine
            .predict(q.side, EntityId(q.anchor), RelationId(q.relation), K)
            .map_err(|e| format!("replay predict: {e}"))?;
        engine_s.push(secs(t));
    }
    let index = engine.snapshot().0.screen_index();
    engine.shutdown();

    // Quant replay of every request, and its answers against the served
    // ones where those were kept.
    let mut screen_s = Vec::new();
    let mut rescore_s = Vec::new();
    let mut survivors = Vec::new();
    let mut same = true;
    for r in &phase.records {
        let (s, rs, n, answer) = quant_replay(setup, &index, r.query);
        screen_s.push(s);
        rescore_s.push(rs);
        survivors.push(n as f64);
        if let Reply::Answer {
            results: Some(served),
            ..
        } = &r.reply
        {
            same &= answer.len() == served.len()
                && answer
                    .iter()
                    .zip(served)
                    .all(|(a, b)| a.0 == b.0 && a.1.to_bits() == b.1.to_bits());
        }
    }
    out.check(
        "quant replay reproduces the served answers",
        same,
        format!("{} requests", screen_s.len()),
    );

    // Per burst: the connection serves its requests one at a time, so a
    // request's engine time is counted from the burst's send through
    // every earlier request of the burst.
    let mut held = 0u64;
    let mut overhead = Vec::new();
    let mut i = 0;
    while i < phase.records.len() {
        let b = phase.records[i].burst;
        let end = phase.records[i..]
            .iter()
            .position(|r| r.burst != b)
            .map_or(phase.records.len(), |p| i + p);
        let burst = &phase.records[i..end];
        let last = burst.iter().map(|r| r.done).max().expect("non-empty burst");
        let root = tracer
            .record(
                "client.burst",
                None,
                b,
                burst.len() as u64,
                burst[0].sent,
                last,
            )
            .expect("on");
        let mut cumulative_ms = 0.0;
        for (j, r) in burst.iter().enumerate() {
            let idx = i + j;
            let p = tracer
                .attach("serve.engine.predict", root, r.seq, 1, engine_s[idx], true)
                .expect("on");
            tracer.attach("quant.screen", p, r.seq, 1, screen_s[idx], true);
            tracer.attach("quant.rescore", p, r.seq, 1, rescore_s[idx], true);
            cumulative_ms += engine_s[idx] * 1e3;
            if r.reply.ok() {
                held += u64::from(r.latency_ms() - cumulative_ms >= HOLD_MS);
            }
        }
        let wall_ms = (last - burst[0].sent).as_secs_f64() * 1e3;
        overhead.push((wall_ms - cumulative_ms) / burst.len() as f64);
        i = end;
    }

    // The snapshot layer: the mapped load + checksum each wire swap
    // starts with, replayed on the same file, and the install the engine
    // timed itself (`serve/swap_latency_secs`).
    let mut map_load_ms = Vec::with_capacity(SEGMENTS);
    for _ in 0..SEGMENTS {
        let t = Instant::now();
        load_model_mapped(&setup.file).map_err(|e| format!("replay map load: {e}"))?;
        map_load_ms.push(secs(t) * 1e3);
    }

    let c = phase.counters;
    let replay_sum: f64 = engine_s.iter().sum();
    out.set(
        "serve.cache.hit_rate",
        c.hits as f64 / (c.hits + c.misses).max(1) as f64,
    );
    out.set("core.serialize.map_load_ms", median(&map_load_ms));
    out.set(
        "serve.snapshot.install_us",
        c.install_sum / c.install_n.max(1) as f64 * 1e6,
    );
    out.set("serve.server.overhead_ms", stats::mean(&overhead));
    out.set(
        "serve.server.epoll_wakes_per_req",
        c.wakes as f64 / phase.records.len().max(1) as f64,
    );
    out.set("serve.server.held_responses", held as f64);
    out.set(
        "serve.engine.batch_size_mean",
        c.batch_sum / c.batch_n.max(1) as f64,
    );
    out.set(
        "serve.engine.queue_wait_ms",
        (c.latency_sum - replay_sum) * 1e3 / c.requests.max(1) as f64,
    );
    out.set("serve.engine.rejected", c.rejected as f64);
    out.set("quant.screen_ms", stats::mean(&screen_s) * 1e3);
    out.set("quant.rescore_ms", stats::mean(&rescore_s) * 1e3);
    out.set("quant.survivors_per_query", stats::mean(&survivors));
    out.set("quant.recall_at_10", recall);

    let k = setup.model.entities.row_len();
    let shard = SCREEN_ENTITIES.min(16384);
    kernels::Rates {
        gemm_i8: kernels::gemm_i8_gops(1, shard, k, args.seed),
        ..kernels::Rates::default()
    }
    .report(out, &mut tracer);
    let tables = [tracer.table(
        "serve-screened-100k burst wall (other: frontend, wire, loopback, held responses)",
        "client.burst",
        1e3,
        "ms",
    )];
    finish_trace(args, &tracer, &tables, out)
}
