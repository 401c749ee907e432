//! The batching engine: request queue, worker pool, cache, and swap cell.
//!
//! [`Engine::predict`] is the single entry point every frontend funnels
//! through. A request loads the current `(snapshot, epoch)` pair, consults
//! the epoch-tagged cache, and on a miss parks itself on the shared queue;
//! worker threads drain the queue in batches of up to
//! [`ServeConfig::max_batch`] requests, deduplicate identical
//! `(side, anchor, relation)` queries, and score each distinct query row
//! through one [`TripleScorer::score_block`] call — the same blocked GEMM
//! the evaluator uses — before answering every parked request with
//! [`mei_eval::select_top_k`]. A query's scores are the same bits whether
//! it is scored alone or in a block (`gemm_nt` reduces every score
//! independently of its neighbours), so batched answers equal single-query
//! ones; the proptests in `tests/` pin this against the
//! [`mei_eval::top_k_reference`] oracle.

use crate::cache::{CacheKey, CacheStats, CachedAnswer, ShardedLruCache};
use crate::snapshot::{Snapshot, SnapshotSwap};
use mei_eval::{select_top_k, BlockQuery, Side, TripleScorer};
use mei_kg::{EntityId, RelationId};
use mei_quant::{screened_answers, ScreenParams};
use mei_obs::{Counter, Gauge, Histogram, JsonValue, MetricsRegistry};
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// Request latencies land in these histogram buckets (seconds).
const LATENCY_BUCKETS: [f64; 8] = [1e-5, 1e-4, 1e-3, 5e-3, 1e-2, 0.1, 1.0, 10.0];
/// Drained batch sizes land in these histogram buckets.
const BATCH_BUCKETS: [f64; 8] = [1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0];
/// Snapshot-install latencies land in these histogram buckets (seconds).
/// The install is a pointer swap plus an epoch bump, so the interesting
/// range is microseconds to single-digit milliseconds.
const SWAP_BUCKETS: [f64; 8] = [1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1.0, 10.0];

/// Tuning knobs for [`Engine::start`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Scoring worker threads draining the batch queue. `0` starts no
    /// workers at all — requests park until shutdown — which exists so
    /// fault-injection tests can saturate the queue deterministically;
    /// production frontends must pass at least 1.
    pub workers: usize,
    /// Most requests scored per `score_block` call. 32 is the sweet spot
    /// measured at WN18 shape (larger blocks stop paying for themselves
    /// once the entity-table pass no longer dominates).
    pub max_batch: usize,
    /// Number of independent cache shards.
    pub cache_shards: usize,
    /// LRU capacity per shard.
    pub cache_capacity: usize,
    /// Whether the result cache is consulted at all (disabled for the
    /// uncached arms of `repro bench-serve`).
    pub cache: bool,
    /// Most requests allowed to wait on the batch queue at once. Arrivals
    /// beyond this are rejected immediately with
    /// [`ServeError::Overloaded`] instead of growing the queue without
    /// bound — explicit backpressure beats an OOM kill under a traffic
    /// spike.
    pub max_queue: usize,
    /// Quantized screen→rescore candidate generation (`mei-quant`).
    /// `None` serves every query through the exact f32 pass over all
    /// entities; `Some(params)` screens in int8 first and rescores the top
    /// [`ScreenParams::screen_k`] survivors exactly — sublinear in streamed
    /// bytes, with ranking quality governed by the measured recall
    /// contract (`repro bench-serve`).
    pub screen: Option<ScreenParams>,
    /// Number of hottest `(side, anchor, relation, k)` request identities
    /// to precompute into the result cache on every snapshot swap (0 =
    /// off). Precomputed entries carry the new epoch, so the epoch-tagged
    /// invalidation that makes stale cached answers unservable applies to
    /// them unchanged.
    pub precompute_hot: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            workers: 1,
            max_batch: 32,
            cache_shards: 8,
            cache_capacity: 512,
            cache: true,
            max_queue: 1024,
            screen: None,
            precompute_hot: 0,
        }
    }
}

/// Why a request could not be answered.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The anchor entity id is outside the snapshot's vocabulary.
    InvalidEntity {
        /// The offending id.
        id: u32,
        /// The vocabulary size it must be below.
        num_entities: usize,
    },
    /// The relation id is outside the snapshot's vocabulary.
    InvalidRelation {
        /// The offending id.
        id: u32,
        /// The vocabulary size it must be below.
        num_relations: usize,
    },
    /// A swap was attempted with a snapshot whose vocabulary sizes differ
    /// from the serving one.
    IncompatibleSnapshot {
        /// `(entities, relations)` currently served.
        current: (usize, usize),
        /// `(entities, relations)` of the rejected snapshot.
        offered: (usize, usize),
    },
    /// The engine is shutting down; the request was not scored.
    ShuttingDown,
    /// The batch queue is full; the request was rejected at admission so
    /// the server degrades by shedding load instead of growing without
    /// bound. Clients should back off and retry.
    Overloaded {
        /// Requests already waiting when this one was rejected.
        queue_depth: usize,
        /// The configured queue bound ([`ServeConfig::max_queue`]).
        max_queue: usize,
    },
}

impl ServeError {
    /// Short machine-readable tag carried in wire error responses, so
    /// clients can branch without parsing prose.
    pub fn kind(&self) -> &'static str {
        match self {
            ServeError::InvalidEntity { .. } => "invalid_entity",
            ServeError::InvalidRelation { .. } => "invalid_relation",
            ServeError::IncompatibleSnapshot { .. } => "incompatible_snapshot",
            ServeError::ShuttingDown => "shutting_down",
            ServeError::Overloaded { .. } => "overloaded",
        }
    }
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::InvalidEntity { id, num_entities } => {
                write!(f, "entity id {id} out of range (vocabulary has {num_entities} entities)")
            }
            ServeError::InvalidRelation { id, num_relations } => {
                write!(f, "relation id {id} out of range (vocabulary has {num_relations} relations)")
            }
            ServeError::IncompatibleSnapshot { current, offered } => write!(
                f,
                "snapshot vocabulary mismatch: serving {}x{} (entities x relations), offered {}x{}",
                current.0, current.1, offered.0, offered.1
            ),
            ServeError::ShuttingDown => write!(f, "engine is shutting down"),
            ServeError::Overloaded { queue_depth, max_queue } => write!(
                f,
                "server overloaded: {queue_depth} requests already queued (limit {max_queue}); \
                 back off and retry"
            ),
        }
    }
}

impl std::error::Error for ServeError {}

/// A served answer.
#[derive(Debug, Clone, PartialEq)]
pub struct Prediction {
    /// `(entity, score)` pairs, best first, known-true entities excluded.
    pub results: CachedAnswer,
    /// Epoch of the snapshot that produced (or cached) the answer.
    pub epoch: u64,
    /// Whether the answer came from the result cache.
    pub cached: bool,
}

/// A request parked on the batch queue, waiting for a worker.
struct Pending {
    query: BlockQuery,
    k: usize,
    snap: Arc<Snapshot>,
    slot: Arc<ResponseSlot>,
}

/// Completion callback installed by a nonblocking submitter: invoked
/// exactly once, after the answer (or shutdown error) lands in the slot.
/// The event-loop frontend uses it to push the connection id onto its
/// completion list and kick the wakeup fd.
pub type Waker = Box<dyn FnOnce() + Send + 'static>;

/// One-shot rendezvous between a parked request and the worker that
/// answers it.
struct ResponseSlot {
    result: Mutex<Option<Result<CachedAnswer, ServeError>>>,
    ready: Condvar,
    /// Taken and invoked by `fulfill`. Installed at construction —
    /// before the request is queued — so the callback can never race
    /// with a worker that answers immediately.
    waker: Mutex<Option<Waker>>,
}

impl ResponseSlot {
    fn new(waker: Option<Waker>) -> Arc<Self> {
        Arc::new(Self {
            result: Mutex::new(None),
            ready: Condvar::new(),
            waker: Mutex::new(waker),
        })
    }

    fn fulfill(&self, value: Result<CachedAnswer, ServeError>) {
        {
            let mut slot = self.result.lock().unwrap();
            *slot = Some(value);
            self.ready.notify_all();
        }
        // Outside the result lock: the waker takes other locks (the
        // frontend's completion list) and must observe the stored result.
        let waker = self.waker.lock().unwrap().take();
        if let Some(wake) = waker {
            wake();
        }
    }

    fn wait(&self) -> Result<CachedAnswer, ServeError> {
        let mut slot = self.result.lock().unwrap();
        loop {
            if let Some(result) = slot.take() {
                return result;
            }
            slot = self.ready.wait(slot).unwrap();
        }
    }

    /// Nonblocking counterpart of `wait`: the answer if it has landed.
    fn try_take(&self) -> Option<Result<CachedAnswer, ServeError>> {
        self.result.lock().unwrap().take()
    }
}

/// Outcome of a nonblocking [`Engine::submit`].
pub enum Submission {
    /// Answered synchronously: cache hit, validation error, overload
    /// rejection, or shutdown. No worker involvement, no waker call.
    Ready(Result<Prediction, ServeError>),
    /// Parked on the batch queue. The waker passed to `submit` fires
    /// when the answer lands; redeem the ticket with
    /// [`Engine::try_finish`].
    Parked(Ticket),
}

/// A claim on a parked request's eventual answer.
pub struct Ticket {
    slot: Arc<ResponseSlot>,
    key: CacheKey,
    epoch: u64,
    started: Instant,
}

/// Frequency sketch of recent request identities, feeding the
/// precompute-on-swap pass. A bounded count map with periodic halving
/// decay: when the map outgrows its cap every count is halved and zeros
/// are dropped, so sustained-hot keys dominate one-off bursts and the map
/// never grows without bound.
struct HotTracker {
    counts: HashMap<CacheKey, u64>,
    cap: usize,
}

impl HotTracker {
    fn new(cap: usize) -> Self {
        Self { counts: HashMap::new(), cap: cap.max(1) }
    }

    fn record(&mut self, key: CacheKey) {
        *self.counts.entry(key).or_insert(0) += 1;
        if self.counts.len() > self.cap {
            self.counts.retain(|_, c| {
                *c /= 2;
                *c > 0
            });
        }
    }

    /// The `n` hottest keys, count-descending with a total key order on
    /// ties so the precompute set is deterministic for a given history.
    fn hottest(&self, n: usize) -> Vec<CacheKey> {
        let order = |k: &CacheKey| {
            (
                match k.query.side {
                    Side::Head => 0u8,
                    Side::Tail => 1,
                },
                k.query.anchor.0,
                k.query.relation.0,
                k.k,
            )
        };
        let mut keys: Vec<(&CacheKey, &u64)> = self.counts.iter().collect();
        keys.sort_by(|a, b| b.1.cmp(a.1).then_with(|| order(a.0).cmp(&order(b.0))));
        keys.into_iter().take(n).map(|(k, _)| *k).collect()
    }
}

/// State shared between the public [`Engine`] handle and its workers.
struct Shared {
    swap: SnapshotSwap,
    cache: ShardedLruCache,
    cache_enabled: bool,
    max_batch: usize,
    max_queue: usize,
    screen: Option<ScreenParams>,
    precompute_hot: usize,
    hot: Mutex<HotTracker>,
    queue: Mutex<VecDeque<Pending>>,
    available: Condvar,
    stop: AtomicBool,
    metrics: MetricsRegistry,
    requests: Arc<Counter>,
    cache_hits: Arc<Counter>,
    cache_misses: Arc<Counter>,
    swaps: Arc<Counter>,
    errors: Arc<Counter>,
    rejected: Arc<Counter>,
    screened_queries: Arc<Counter>,
    precomputed: Arc<Counter>,
    latency_secs: Arc<Histogram>,
    batch_size: Arc<Histogram>,
    swap_latency: Arc<Histogram>,
    epoch_gauge: Arc<Gauge>,
}

/// The sorted, deduplicated known-true exclusion list for one query.
fn sorted_exclusions(snap: &Snapshot, q: &BlockQuery) -> Vec<EntityId> {
    let mut excluded: Vec<EntityId> = match q.side {
        Side::Tail => snap.exclude.tails_of(q.anchor, q.relation),
        Side::Head => snap.exclude.heads_of(q.anchor, q.relation),
    }
    .to_vec();
    excluded.sort_unstable();
    excluded.dedup();
    excluded
}

impl Shared {
    /// The worker loop: sleep until requests arrive, drain up to
    /// `max_batch`, score, answer.
    fn work(&self) {
        let mut scratch: Vec<f32> = Vec::new();
        loop {
            let batch = {
                let mut queue = self.queue.lock().unwrap();
                loop {
                    if !queue.is_empty() {
                        let take = queue.len().min(self.max_batch);
                        break queue.drain(..take).collect::<Vec<Pending>>();
                    }
                    if self.stop.load(Ordering::Acquire) {
                        return;
                    }
                    queue = self.available.wait(queue).unwrap();
                }
            };
            self.batch_size.observe(batch.len() as f64);
            self.score_batch(batch, &mut scratch);
        }
    }

    /// Scores one drained batch. Requests are grouped by the snapshot they
    /// loaded (a swap mid-flight may leave a batch straddling two
    /// snapshots; each group scores against exactly the snapshot its
    /// requests observed), identical queries within a group are scored
    /// once at the widest requested `k`, and every request is answered
    /// with a prefix of its query's answer — identical to what a
    /// per-request `select_top_k` would return, since both orders are the
    /// `(score desc, id asc)` truncation of the same candidate ranking.
    fn score_batch(&self, mut batch: Vec<Pending>, scratch: &mut Vec<f32>) {
        while !batch.is_empty() {
            let snap = Arc::clone(&batch[0].snap);
            let (group, rest): (Vec<Pending>, Vec<Pending>) =
                batch.into_iter().partition(|p| Arc::ptr_eq(&p.snap, &snap));
            batch = rest;

            let mut rows: HashMap<BlockQuery, usize> = HashMap::with_capacity(group.len());
            let mut queries: Vec<BlockQuery> = Vec::with_capacity(group.len());
            let mut ks: Vec<usize> = Vec::with_capacity(group.len());
            for p in &group {
                let row = *rows.entry(p.query).or_insert_with(|| {
                    queries.push(p.query);
                    ks.push(0);
                    queries.len() - 1
                });
                ks[row] = ks[row].max(p.k);
            }
            let answers = self.answer_distinct(&snap, &queries, &ks, scratch);

            for p in group {
                let row = rows[&p.query];
                let mut list = answers[row].clone();
                list.truncate(p.k);
                p.slot.fulfill(Ok(Arc::new(list)));
            }
        }
    }

    /// Answers a set of *distinct* queries at per-query depths `ks` —
    /// through the quantized screen→rescore path when configured, the
    /// exact blocked f32 pass otherwise. Both paths order candidates
    /// `(score desc, id asc)`; the screened answer is bit-identical to the
    /// exact one whenever its survivor set covers the true top-`ks[i]`.
    fn answer_distinct(
        &self,
        snap: &Snapshot,
        queries: &[BlockQuery],
        ks: &[usize],
        scratch: &mut Vec<f32>,
    ) -> Vec<Vec<(EntityId, f32)>> {
        let excluded: Vec<Vec<EntityId>> =
            queries.iter().map(|q| sorted_exclusions(snap, q)).collect();
        if let Some(params) = self.screen {
            let refs: Vec<&[EntityId]> = excluded.iter().map(Vec::as_slice).collect();
            let index = snap.screen_index();
            self.screened_queries.add(queries.len() as u64);
            return screened_answers(&snap.model, &index, queries, ks, &refs, &params);
        }
        let ne = snap.model.num_entities();
        scratch.clear();
        scratch.resize(queries.len() * ne, 0.0);
        snap.model.score_block(queries, scratch);
        queries
            .iter()
            .enumerate()
            .map(|(row, _)| {
                select_top_k(&scratch[row * ne..(row + 1) * ne], ks[row], &excluded[row])
            })
            .collect()
    }

    /// Recomputes the hottest request identities against the snapshot
    /// installed at `epoch` and parks the answers in the result cache under
    /// that epoch — so post-swap traffic on hot keys hits the cache
    /// immediately instead of each paying a full scoring pass. If another
    /// swap raced past, the reload sees a newer epoch and the precompute is
    /// skipped; had it raced *after* the reload, the entries would be
    /// born-stale and unservable anyway (epoch-tagged lookup).
    fn precompute_hot_keys(&self, epoch: u64) {
        if self.precompute_hot == 0 || !self.cache_enabled {
            return;
        }
        let keys = self.hot.lock().unwrap().hottest(self.precompute_hot);
        if keys.is_empty() {
            return;
        }
        let (snap, loaded) = self.swap.load();
        if loaded != epoch {
            return;
        }
        let mut rows: HashMap<BlockQuery, usize> = HashMap::with_capacity(keys.len());
        let mut queries: Vec<BlockQuery> = Vec::with_capacity(keys.len());
        let mut ks: Vec<usize> = Vec::with_capacity(keys.len());
        for key in &keys {
            let row = *rows.entry(key.query).or_insert_with(|| {
                queries.push(key.query);
                ks.push(0);
                queries.len() - 1
            });
            ks[row] = ks[row].max(key.k);
        }
        let mut scratch = Vec::new();
        let answers = self.answer_distinct(&snap, &queries, &ks, &mut scratch);
        for key in keys {
            let row = rows[&key.query];
            let mut list = answers[row].clone();
            list.truncate(key.k);
            self.cache.insert(key, epoch, Arc::new(list));
            self.precomputed.inc();
        }
    }
}

/// The serving engine: owns the worker pool and the shared state.
///
/// Dropping the engine shuts it down; [`Engine::shutdown`] does the same
/// explicitly and is idempotent.
pub struct Engine {
    shared: Arc<Shared>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl Engine {
    /// Spins up the worker pool and returns the engine handle.
    pub fn start(initial: Snapshot, config: ServeConfig) -> Self {
        let metrics = MetricsRegistry::new();
        let shared = Arc::new(Shared {
            swap: SnapshotSwap::new(initial),
            cache: ShardedLruCache::new(config.cache_shards, config.cache_capacity),
            cache_enabled: config.cache,
            max_batch: config.max_batch.max(1),
            max_queue: config.max_queue.max(1),
            screen: config.screen,
            precompute_hot: config.precompute_hot,
            hot: Mutex::new(HotTracker::new((config.precompute_hot * 8).max(64))),
            queue: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            stop: AtomicBool::new(false),
            requests: metrics.counter("serve/requests"),
            cache_hits: metrics.counter("serve/cache_hits"),
            cache_misses: metrics.counter("serve/cache_misses"),
            swaps: metrics.counter("serve/swaps"),
            errors: metrics.counter("serve/errors"),
            rejected: metrics.counter("serve/rejected"),
            screened_queries: metrics.counter("serve/screened_queries"),
            precomputed: metrics.counter("serve/precomputed"),
            latency_secs: metrics.histogram("serve/latency_secs", &LATENCY_BUCKETS),
            batch_size: metrics.histogram("serve/batch_size", &BATCH_BUCKETS),
            swap_latency: metrics.histogram("serve/swap_latency_secs", &SWAP_BUCKETS),
            epoch_gauge: metrics.gauge("serve/epoch"),
            metrics,
        });
        let workers = (0..config.workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("mei-serve-worker-{i}"))
                    .spawn(move || shared.work())
                    .expect("spawn serve worker")
            })
            .collect();
        Self { shared, workers: Mutex::new(workers) }
    }

    /// Answers one top-`k` query: the `k` best entities for the open slot
    /// of `(side, anchor, relation)`, known-true triples excluded. Blocks
    /// until the answer lands; built on [`Engine::submit`], so the
    /// blocking and event-loop frontends share every admission, cache,
    /// and metrics decision.
    pub fn predict(
        &self,
        side: Side,
        anchor: EntityId,
        relation: RelationId,
        k: usize,
    ) -> Result<Prediction, ServeError> {
        match self.submit(side, anchor, relation, k, None) {
            Submission::Ready(outcome) => outcome,
            Submission::Parked(ticket) => {
                let result = ticket.slot.wait();
                self.finish(&ticket, result)
            }
        }
    }

    /// Nonblocking admission of one top-`k` query. Cache hits, validation
    /// errors, overload rejections, and shutdown resolve synchronously as
    /// [`Submission::Ready`]; everything else parks on the batch queue and
    /// returns a [`Ticket`]. If `waker` is supplied it fires exactly once,
    /// when the parked answer (or shutdown error) lands — after which
    /// [`Engine::try_finish`] redeems the ticket without blocking.
    pub fn submit(
        &self,
        side: Side,
        anchor: EntityId,
        relation: RelationId,
        k: usize,
        waker: Option<Waker>,
    ) -> Submission {
        let started = Instant::now();
        let shared = &self.shared;
        shared.requests.inc();
        let ready = |outcome: Result<Prediction, ServeError>| {
            if outcome.is_err() {
                shared.errors.inc();
            }
            shared.latency_secs.observe(started.elapsed().as_secs_f64());
            Submission::Ready(outcome)
        };
        if shared.stop.load(Ordering::Acquire) {
            return ready(Err(ServeError::ShuttingDown));
        }
        let (snap, epoch) = shared.swap.load();
        let cfg = snap.model.config();
        if anchor.idx() >= cfg.num_entities {
            return ready(Err(ServeError::InvalidEntity {
                id: anchor.0,
                num_entities: cfg.num_entities,
            }));
        }
        if relation.idx() >= cfg.num_relations {
            return ready(Err(ServeError::InvalidRelation {
                id: relation.0,
                num_relations: cfg.num_relations,
            }));
        }

        // No query can return more than |E| entities, so clamping changes
        // no answer; it keeps an absurd wire `k` out of the cache key, the
        // screen width and the top-k reservations.
        let k = k.min(cfg.num_entities);
        let query = match side {
            Side::Tail => BlockQuery::tails(anchor, relation),
            Side::Head => BlockQuery::heads(anchor, relation),
        };
        let key = CacheKey { query, k };
        if shared.precompute_hot > 0 && shared.cache_enabled {
            // Count hits and misses alike: a key that keeps hitting the
            // cache is exactly the kind worth precomputing after a swap.
            shared.hot.lock().unwrap().record(key);
        }
        if shared.cache_enabled {
            if let Some(results) = shared.cache.get(&key, epoch) {
                shared.cache_hits.inc();
                return ready(Ok(Prediction { results, epoch, cached: true }));
            }
            shared.cache_misses.inc();
        }

        let slot = ResponseSlot::new(waker);
        {
            let mut queue = shared.queue.lock().unwrap();
            if shared.stop.load(Ordering::Acquire) {
                return ready(Err(ServeError::ShuttingDown));
            }
            // Admission control under the same lock that guards the push:
            // the queue can never exceed its bound, and overload is
            // reported immediately instead of stalling the client.
            if queue.len() >= shared.max_queue {
                shared.rejected.inc();
                return ready(Err(ServeError::Overloaded {
                    queue_depth: queue.len(),
                    max_queue: shared.max_queue,
                }));
            }
            queue.push_back(Pending { query, k, snap, slot: Arc::clone(&slot) });
        }
        shared.available.notify_one();
        Submission::Parked(Ticket { slot, key, epoch, started })
    }

    /// Redeems a ticket whose waker has fired. Returns `Err(ticket)` if
    /// the answer has not actually landed yet (a spurious wake), so the
    /// caller can re-park it.
    pub fn try_finish(&self, ticket: Ticket) -> Result<Result<Prediction, ServeError>, Ticket> {
        match ticket.slot.try_take() {
            Some(result) => Ok(self.finish(&ticket, result)),
            None => Err(ticket),
        }
    }

    /// Completion bookkeeping shared by the blocking and nonblocking
    /// paths: cache fill, error count, latency observation.
    fn finish(
        &self,
        ticket: &Ticket,
        result: Result<CachedAnswer, ServeError>,
    ) -> Result<Prediction, ServeError> {
        let shared = &self.shared;
        let outcome = result.map(|results| {
            if shared.cache_enabled {
                // Tagged with the epoch loaded at admission: if a swap
                // landed while we were scoring, the entry is born stale
                // and can never be served.
                shared.cache.insert(ticket.key, ticket.epoch, Arc::clone(&results));
            }
            Prediction { results, epoch: ticket.epoch, cached: false }
        });
        if outcome.is_err() {
            shared.errors.inc();
        }
        shared.latency_secs.observe(ticket.started.elapsed().as_secs_f64());
        outcome
    }

    /// Atomically installs a new snapshot, invalidating all cached answers
    /// via the epoch bump, and returns the new epoch. The snapshot must
    /// have the same vocabulary sizes as the serving one.
    ///
    /// The install itself — pointer swap plus epoch bump, timed into
    /// `serve/swap_latency_secs` — is kept deliberately cheap so a
    /// million-entity redeploy is visible to traffic immediately. The
    /// int8 screen-index build and the hot-key precompute run *after*
    /// the bump (still synchronously, so callers like the wire `swap` op
    /// observe a fully warm engine on return): queries racing the index
    /// build pay a one-time quantization stall at worst, instead of every
    /// swap paying it before the new epoch can serve at all.
    pub fn swap_snapshot(&self, next: Snapshot) -> Result<u64, ServeError> {
        let (current, _) = self.shared.swap.load();
        if !current.compatible_with(&next) {
            self.shared.errors.inc();
            return Err(ServeError::IncompatibleSnapshot {
                current: (current.entities.len(), current.relations.len()),
                offered: (next.entities.len(), next.relations.len()),
            });
        }
        let next = Arc::new(next);
        let install_started = Instant::now();
        let epoch = self.shared.swap.swap_arc(Arc::clone(&next));
        self.shared.swap_latency.observe(install_started.elapsed().as_secs_f64());
        self.shared.swaps.inc();
        self.shared.epoch_gauge.set(epoch as f64);
        if self.shared.screen.is_some() {
            next.screen_index();
        }
        self.shared.precompute_hot_keys(epoch);
        Ok(epoch)
    }

    /// The configured screen parameters (`None` = exact serving).
    pub fn screen_params(&self) -> Option<ScreenParams> {
        self.shared.screen
    }

    /// How many hot request identities are precomputed on each swap.
    pub fn precompute_hot(&self) -> usize {
        self.shared.precompute_hot
    }

    /// The currently served snapshot and its epoch.
    pub fn snapshot(&self) -> (Arc<Snapshot>, u64) {
        self.shared.swap.load()
    }

    /// The current epoch.
    pub fn epoch(&self) -> u64 {
        self.shared.swap.epoch()
    }

    /// Requests currently parked on the batch queue.
    pub fn queue_depth(&self) -> usize {
        self.shared.queue.lock().unwrap().len()
    }

    /// The engine's metrics registry — frontends hang their own counters
    /// (I/O timeouts, oversize lines) here so one `stats` snapshot covers
    /// the whole serving stack.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.shared.metrics
    }

    /// Result-cache hit/miss counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.shared.cache.stats()
    }

    /// One JSON object with every serving metric (counters, latency and
    /// batch-size histograms, epoch gauge) — the payload behind the wire
    /// `stats` op and the JSONL observer line.
    pub fn metrics_snapshot(&self) -> JsonValue {
        self.shared.epoch_gauge.set(self.epoch() as f64);
        self.shared.metrics.snapshot()
    }

    /// Stops the workers and fails any still-parked requests with
    /// [`ServeError::ShuttingDown`]. Idempotent.
    pub fn shutdown(&self) {
        self.shared.stop.store(true, Ordering::Release);
        self.shared.available.notify_all();
        let workers = std::mem::take(&mut *self.workers.lock().unwrap());
        for handle in workers {
            let _ = handle.join();
        }
        // Workers are gone; anything still queued will never be scored.
        let leftovers: Vec<Pending> =
            self.shared.queue.lock().unwrap().drain(..).collect();
        for p in leftovers {
            p.slot.fulfill(Err(ServeError::ShuttingDown));
        }
    }
}

impl Drop for Engine {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mei_core::{MultiEmbedModel, WeightPreset};
    use mei_kg::{Triple, TripleStore};
    use rand::{rngs::StdRng, SeedableRng};

    fn snapshot(seed: u64, exclude: TripleStore) -> Snapshot {
        let mut rng = StdRng::seed_from_u64(seed);
        let model = MultiEmbedModel::from_preset(WeightPreset::ComplEx, 20, 3, 8, &mut rng);
        Snapshot::with_ids(model, exclude)
    }

    #[test]
    fn predict_matches_reference_both_sides() {
        let exclude: TripleStore = [Triple::new(0, 3, 1)].into_iter().collect();
        let snap = snapshot(7, exclude.clone());
        let engine = Engine::start(snapshot(7, exclude.clone()), ServeConfig::default());
        for side in [Side::Tail, Side::Head] {
            let got = engine.predict(side, EntityId(0), RelationId(1), 5).unwrap();
            let want =
                mei_eval::top_k_reference(&snap.model, side, EntityId(0), RelationId(1), 5, &exclude);
            assert_eq!(*got.results, want, "side {side:?}");
        }
        engine.shutdown();
    }

    #[test]
    fn cache_hits_on_repeat_and_misses_after_swap() {
        let engine = Engine::start(snapshot(1, TripleStore::new()), ServeConfig::default());
        let first = engine.predict(Side::Tail, EntityId(2), RelationId(0), 4).unwrap();
        assert!(!first.cached);
        let second = engine.predict(Side::Tail, EntityId(2), RelationId(0), 4).unwrap();
        assert!(second.cached);
        assert_eq!(*first.results, *second.results);

        let epoch = engine.swap_snapshot(snapshot(2, TripleStore::new())).unwrap();
        assert_eq!(epoch, 1);
        let third = engine.predict(Side::Tail, EntityId(2), RelationId(0), 4).unwrap();
        assert!(!third.cached, "swap must invalidate the cache");
        assert_eq!(third.epoch, 1);
        engine.shutdown();
    }

    #[test]
    fn out_of_range_ids_are_rejected() {
        let engine = Engine::start(snapshot(1, TripleStore::new()), ServeConfig::default());
        assert_eq!(
            engine.predict(Side::Tail, EntityId(99), RelationId(0), 3),
            Err(ServeError::InvalidEntity { id: 99, num_entities: 20 })
        );
        assert_eq!(
            engine.predict(Side::Head, EntityId(0), RelationId(9), 3),
            Err(ServeError::InvalidRelation { id: 9, num_relations: 3 })
        );
        engine.shutdown();
    }

    #[test]
    fn incompatible_swap_is_rejected() {
        let engine = Engine::start(snapshot(1, TripleStore::new()), ServeConfig::default());
        let mut rng = StdRng::seed_from_u64(3);
        let small = MultiEmbedModel::from_preset(WeightPreset::ComplEx, 5, 3, 8, &mut rng);
        let err = engine
            .swap_snapshot(Snapshot::with_ids(small, TripleStore::new()))
            .unwrap_err();
        assert!(matches!(err, ServeError::IncompatibleSnapshot { .. }));
        assert_eq!(engine.epoch(), 0);
        engine.shutdown();
    }

    #[test]
    fn predict_after_shutdown_fails_fast() {
        let engine = Engine::start(snapshot(1, TripleStore::new()), ServeConfig::default());
        engine.shutdown();
        assert_eq!(
            engine.predict(Side::Tail, EntityId(0), RelationId(0), 1),
            Err(ServeError::ShuttingDown)
        );
    }

    #[test]
    fn saturated_queue_rejects_with_overloaded_and_counts_it() {
        // workers: 0 → nothing drains, so the queue fills deterministically.
        let cfg = ServeConfig { workers: 0, cache: false, max_queue: 3, ..ServeConfig::default() };
        let engine = Arc::new(Engine::start(snapshot(1, TripleStore::new()), cfg));

        // Park exactly max_queue requests on the queue from helper threads.
        let parked: Vec<_> = (0..3)
            .map(|i| {
                let engine = Arc::clone(&engine);
                std::thread::spawn(move || {
                    engine.predict(Side::Tail, EntityId(i), RelationId(0), 2)
                })
            })
            .collect();
        while engine.queue_depth() < 3 {
            std::thread::yield_now();
        }

        // The next arrival must be shed, not queued.
        let err = engine.predict(Side::Tail, EntityId(9), RelationId(0), 2).unwrap_err();
        assert_eq!(err, ServeError::Overloaded { queue_depth: 3, max_queue: 3 });
        assert_eq!(err.kind(), "overloaded");
        assert_eq!(engine.queue_depth(), 3, "rejection must not grow the queue");

        let metrics = engine.metrics_snapshot();
        let counter = |name: &str| {
            metrics.get(name).and_then(|v| v.get("value")).and_then(|v| v.as_usize())
        };
        assert_eq!(counter("serve/rejected"), Some(1));

        // Shutdown fails the parked requests fast instead of hanging them.
        engine.shutdown();
        for handle in parked {
            assert_eq!(handle.join().unwrap(), Err(ServeError::ShuttingDown));
        }
    }

    #[test]
    fn metrics_snapshot_reports_counters() {
        let engine = Engine::start(snapshot(1, TripleStore::new()), ServeConfig::default());
        engine.predict(Side::Tail, EntityId(0), RelationId(0), 2).unwrap();
        engine.predict(Side::Tail, EntityId(0), RelationId(0), 2).unwrap();
        let snap = engine.metrics_snapshot();
        let counter = |name: &str| {
            snap.get(name).and_then(|v| v.get("value")).and_then(|v| v.as_usize())
        };
        assert_eq!(counter("serve/requests"), Some(2));
        assert_eq!(counter("serve/cache_hits"), Some(1));
        engine.shutdown();
    }
}
