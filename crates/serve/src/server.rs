//! The TCP frontend: one epoll event loop, no async runtime.
//!
//! A single loop thread owns every connection: nonblocking accept, a
//! per-connection read/write state machine over the bounded line framing
//! in [`crate::frame`], and epoll-deadline timeouts. Concurrency in the
//! scoring path still comes from the engine's batch queue — a predict
//! that misses the cache is *submitted* ([`Engine::submit`]) rather than
//! blocked on, parking a ticket on the connection; when a worker answers,
//! the engine's completion waker pushes the connection id onto the
//! loop's completion list and kicks an eventfd, and the loop writes the
//! response on its next wake. One connection therefore costs a few
//! hundred bytes of state instead of a parked thread, and connection
//! churn leaves nothing behind to reap (the `JoinHandle`-accumulation
//! leak of the thread-per-connection frontend is gone structurally).
//!
//! The loop never blocks on anything but `epoll_wait`:
//!
//! * timeouts are deadlines on a min-heap (lazy deletion; the earliest
//!   live deadline bounds the `epoll_wait` timeout) — an idle or stalled
//!   client is dropped without a dedicated thread noticing;
//! * a wire `swap` runs on a short-lived task thread (a million-entity
//!   model load must not freeze every other connection) and completes
//!   through the same waker path as predicts;
//! * persistent accept errors (e.g. `EMFILE`) deregister the listener
//!   and re-arm it after a bounded exponential backoff, counted in
//!   `serve/accept_errors` — the busy-spin of the old accept loop is
//!   structurally impossible.
//!
//! Shutdown is cooperative: [`Server::shutdown`] (or the wire `shutdown`
//! op) flips the stop flag and wakes the loop, which closes every socket
//! and exits; the engine is shut down after the loop is joined, failing
//! any still-parked tickets with `ShuttingDown`.
//!
//! The frontend trusts nobody ([`ServerConfig`]): request lines are
//! framed through a hard byte cap (a client streaming bytes with no
//! newline is answered with a structured `line_too_long` error and
//! disconnected the moment it crosses the cap), reads reset a deadline
//! that evicts idle and slow-loris connections, and pending output above
//! a high-water mark pauses reads so a client that pipelines requests
//! without reading responses cannot balloon the outbuf.

use crate::engine::{Engine, Submission, Ticket};
use crate::frame::{Frame, LineFramer, Pump};
use crate::poll::{Poller, WakeFd, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT, EPOLLRDHUP};
use crate::wire::{self, Dispatch, PredictCall};
use mei_obs::{Counter, Gauge};
use parking_lot::Mutex;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::io::{self, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::unix::io::{AsRawFd, RawFd};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Per-connection I/O limits for [`Server::start_with`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// How long a connection may sit without delivering bytes before it
    /// is dropped (every received byte resets the clock). `None` waits
    /// forever (the pre-hardening behavior; not recommended).
    pub read_timeout: Option<Duration>,
    /// How long a pending response may sit unflushed against a stalled
    /// client before the connection is dropped.
    pub write_timeout: Option<Duration>,
    /// Longest accepted request line in bytes; longer lines get a
    /// `line_too_long` wire error and the connection is closed.
    pub max_line_bytes: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            read_timeout: Some(Duration::from_secs(5)),
            write_timeout: Some(Duration::from_secs(5)),
            max_line_bytes: 1 << 20, // 1 MiB
        }
    }
}

/// The accept side of the listener, as the event loop sees it: a
/// nonblocking accept plus the fd to register for accept readiness.
///
/// `TcpListener` is the production implementation; tests inject failing
/// acceptors to pin the backoff behavior under persistent accept errors
/// (`EMFILE` and friends) without actually exhausting fds.
pub trait Acceptor: Send + 'static {
    /// Accepts one pending connection. Must be nonblocking: return
    /// `WouldBlock` when the backlog is empty.
    fn accept(&self) -> io::Result<TcpStream>;
    /// The bound address.
    fn local_addr(&self) -> io::Result<SocketAddr>;
    /// The fd to register with epoll for accept readiness.
    fn raw_fd(&self) -> RawFd;
}

impl Acceptor for TcpListener {
    fn accept(&self) -> io::Result<TcpStream> {
        TcpListener::accept(self).map(|(stream, _)| stream)
    }

    fn local_addr(&self) -> io::Result<SocketAddr> {
        TcpListener::local_addr(self)
    }

    fn raw_fd(&self) -> RawFd {
        self.as_raw_fd()
    }
}

/// Most connections accepted per listener wake (level-triggered epoll
/// re-reports the rest, so this only bounds time-per-wake).
const ACCEPT_BATCH: usize = 256;
/// Most bytes pumped from one connection per wake, for the same reason.
const READ_BUDGET: usize = 256 * 1024;
/// Pending-output high-water mark: above this, the connection's reads
/// are paused until the client drains responses.
const OUT_HIGH_WATER: usize = 256 * 1024;
/// Most events drained per `epoll_wait`.
const MAX_EVENTS: usize = 1024;
/// First accept-error backoff; doubles per consecutive error.
const ACCEPT_BACKOFF_BASE: Duration = Duration::from_millis(1);
/// Accept-error backoff ceiling.
const ACCEPT_BACKOFF_MAX: Duration = Duration::from_millis(250);

const TOKEN_LISTENER: u64 = 0;
const TOKEN_WAKER: u64 = 1;
const TOKEN_FIRST_CONN: u64 = 2;

struct ServerShared {
    engine: Arc<Engine>,
    config: ServerConfig,
    stop: AtomicBool,
    addr: SocketAddr,
    /// Wakes the loop out of `epoll_wait` (shutdown, completions).
    waker: WakeFd,
    /// Connection ids whose in-flight work (predict ticket or swap task)
    /// has completed since the loop last looked.
    completions: Mutex<Vec<u64>>,
    conn_gauge: Arc<Gauge>,
    accepted: Arc<Counter>,
    accept_errors: Arc<Counter>,
    epoll_wakes: Arc<Counter>,
}

impl ServerShared {
    fn begin_shutdown(&self) {
        if self.stop.swap(true, Ordering::AcqRel) {
            return;
        }
        self.waker.wake();
    }

    fn complete(&self, conn_id: u64) {
        self.completions.lock().push(conn_id);
        self.waker.wake();
    }
}

/// A running NDJSON-over-TCP server wrapping an [`Engine`].
pub struct Server {
    shared: Arc<ServerShared>,
    loop_thread: Option<JoinHandle<()>>,
}

impl Server {
    /// Binds `addr` (port 0 picks an ephemeral port) and starts accepting
    /// with the default [`ServerConfig`] limits.
    pub fn start<A: ToSocketAddrs>(engine: Arc<Engine>, addr: A) -> io::Result<Self> {
        Self::start_with(engine, addr, ServerConfig::default())
    }

    /// [`Server::start`] with explicit per-connection limits.
    pub fn start_with<A: ToSocketAddrs>(
        engine: Arc<Engine>,
        addr: A,
        config: ServerConfig,
    ) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        Self::start_with_acceptor(engine, listener, config)
    }

    /// [`Server::start_with`] over any [`Acceptor`] — the seam the
    /// accept-error fault-injection tests use. The acceptor must already
    /// be nonblocking.
    pub fn start_with_acceptor<A: Acceptor>(
        engine: Arc<Engine>,
        acceptor: A,
        config: ServerConfig,
    ) -> io::Result<Self> {
        let addr = acceptor.local_addr()?;
        let poller = Poller::new()?;
        let waker = WakeFd::new()?;
        let metrics = engine.metrics();
        let shared = Arc::new(ServerShared {
            conn_gauge: metrics.gauge("serve/connections"),
            accepted: metrics.counter("serve/accepted"),
            accept_errors: metrics.counter("serve/accept_errors"),
            epoll_wakes: metrics.counter("serve/epoll_wakes"),
            engine,
            config,
            stop: AtomicBool::new(false),
            addr,
            waker,
            completions: Mutex::new(Vec::new()),
        });
        poller.add(acceptor.raw_fd(), TOKEN_LISTENER, EPOLLIN)?;
        poller.add(shared.waker.raw_fd(), TOKEN_WAKER, EPOLLIN)?;
        let loop_shared = Arc::clone(&shared);
        let loop_thread = std::thread::Builder::new()
            .name("mei-serve-loop".to_owned())
            .spawn(move || EventLoop::new(acceptor, poller, loop_shared).run())?;
        Ok(Self { shared, loop_thread: Some(loop_thread) })
    }

    /// The bound address (useful after binding port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// Whether a shutdown has been requested (locally or over the wire).
    pub fn is_shutting_down(&self) -> bool {
        self.shared.stop.load(Ordering::Acquire)
    }

    /// Stops accepting, disconnects clients, joins the event loop, and
    /// shuts down the engine (failing any still-parked predicts with
    /// `ShuttingDown`). Idempotent. Joining before the engine shutdown is
    /// safe because the loop never blocks inside `predict` — parked
    /// requests are tickets, not threads.
    pub fn shutdown(&mut self) {
        self.shared.begin_shutdown();
        if let Some(handle) = self.loop_thread.take() {
            let _ = handle.join();
        }
        self.shared.engine.shutdown();
    }

    /// Blocks until the event loop exits (i.e. until a wire `shutdown`
    /// op or a local [`Server::shutdown`] call), then completes the
    /// shutdown sequence. This is what `mei serve` parks on.
    pub fn wait(mut self) {
        if let Some(handle) = self.loop_thread.take() {
            let _ = handle.join();
        }
        self.shutdown();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Work a connection is waiting on before it can frame its next request.
enum InFlight {
    /// A predict parked on the engine's batch queue, plus the resolved
    /// call context its response will be rendered from.
    Predict(Ticket, PredictCall),
    /// An off-loop task (wire `swap`); the thread deposits the response
    /// line here and signals completion.
    Task(Arc<Mutex<Option<String>>>),
}

/// Per-connection state machine.
struct Conn {
    stream: TcpStream,
    framer: LineFramer,
    out: Vec<u8>,
    out_pos: usize,
    inflight: Option<InFlight>,
    /// The deadline currently armed for this connection, if any. Heap
    /// entries not matching this exact instant are stale and skipped.
    deadline: Option<Instant>,
    /// Interest mask currently registered with epoll.
    interest: u32,
    close_after_flush: bool,
    saw_eof: bool,
}

impl Conn {
    fn out_pending(&self) -> usize {
        self.out.len() - self.out_pos
    }
}

enum FlushState {
    Flushed,
    Pending,
    Dead,
}

struct EventLoop<A: Acceptor> {
    acceptor: A,
    poller: Poller,
    shared: Arc<ServerShared>,
    conns: HashMap<u64, Conn>,
    next_conn_id: u64,
    /// Min-heap of `(deadline, conn_id)` with lazy deletion.
    timers: BinaryHeap<Reverse<(Instant, u64)>>,
    /// When accepting is paused after errors, the instant to resume at.
    accept_resume: Option<Instant>,
    consecutive_accept_errors: u32,
    listener_registered: bool,
    events: Vec<crate::poll::EpollEvent>,
}

impl<A: Acceptor> EventLoop<A> {
    fn new(acceptor: A, poller: Poller, shared: Arc<ServerShared>) -> Self {
        Self {
            acceptor,
            poller,
            shared,
            conns: HashMap::new(),
            next_conn_id: TOKEN_FIRST_CONN,
            timers: BinaryHeap::new(),
            accept_resume: None,
            consecutive_accept_errors: 0,
            listener_registered: true,
            events: Vec::new(),
        }
    }

    fn run(mut self) {
        loop {
            if self.shared.stop.load(Ordering::Acquire) {
                break;
            }
            let timeout = self.next_timeout_ms();
            let n = match self.poller.wait(&mut self.events, timeout, MAX_EVENTS) {
                Ok(n) => n,
                Err(_) => break, // epoll itself failed; nothing to serve with
            };
            self.shared.epoll_wakes.inc();
            let events = std::mem::take(&mut self.events);
            for ev in &events[..n] {
                match ev.token {
                    TOKEN_LISTENER => self.do_accept(),
                    TOKEN_WAKER => self.shared.waker.drain(),
                    id => self.on_conn_event(id, ev.events),
                }
                if self.shared.stop.load(Ordering::Acquire) {
                    break;
                }
            }
            self.events = events;
            if self.shared.stop.load(Ordering::Acquire) {
                break;
            }
            self.drain_completions();
            self.fire_timers();
        }
        // Close everything; parked tickets are failed by the engine
        // shutdown that follows the loop join.
        for (_, conn) in self.conns.drain() {
            self.poller.del(conn.stream.as_raw_fd());
        }
        self.shared.conn_gauge.set(0.0);
    }

    /// Milliseconds until the earliest live deadline (conn deadlines and
    /// the accept-backoff resume), or -1 for "sleep until woken".
    fn next_timeout_ms(&mut self) -> i32 {
        let mut next: Option<Instant> = self.accept_resume;
        while let Some(Reverse((t, id))) = self.timers.peek().copied() {
            match self.conns.get(&id) {
                Some(c) if c.deadline == Some(t) => {
                    next = Some(next.map_or(t, |n| n.min(t)));
                    break;
                }
                _ => {
                    self.timers.pop(); // stale entry
                }
            }
        }
        match next {
            None => -1,
            Some(t) => {
                let now = Instant::now();
                if t <= now {
                    0
                } else {
                    // +1 so we wake at-or-after the deadline, not just before.
                    (t - now).as_millis().min(i32::MAX as u128 - 1) as i32 + 1
                }
            }
        }
    }

    fn fire_timers(&mut self) {
        let now = Instant::now();
        if let Some(resume) = self.accept_resume {
            if resume <= now {
                self.accept_resume = None;
                if !self.listener_registered
                    && self
                        .poller
                        .add(self.acceptor.raw_fd(), TOKEN_LISTENER, EPOLLIN)
                        .is_ok()
                {
                    self.listener_registered = true;
                }
                // Drain whatever queued up while accepting was paused.
                self.do_accept();
            }
        }
        while let Some(Reverse((t, id))) = self.timers.peek().copied() {
            if t > now {
                break;
            }
            self.timers.pop();
            let live = matches!(self.conns.get(&id), Some(c) if c.deadline == Some(t));
            if live {
                // Timed out: same outcome as the blocking frontend's
                // read/write timeout — drop the connection.
                self.close_conn(id);
            }
        }
    }

    fn do_accept(&mut self) {
        for _ in 0..ACCEPT_BATCH {
            match self.acceptor.accept() {
                Ok(stream) => {
                    self.consecutive_accept_errors = 0;
                    self.register_conn(stream);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    // Persistent accept errors (EMFILE, ENFILE, …) must
                    // not busy-spin the loop: count, deregister the
                    // listener, and retry after a bounded backoff.
                    self.shared.accept_errors.inc();
                    self.consecutive_accept_errors = self.consecutive_accept_errors.saturating_add(1);
                    let shift = self.consecutive_accept_errors.saturating_sub(1).min(16);
                    let delay = ACCEPT_BACKOFF_BASE
                        .saturating_mul(1u32 << shift)
                        .min(ACCEPT_BACKOFF_MAX);
                    self.accept_resume = Some(Instant::now() + delay);
                    if self.listener_registered {
                        self.poller.del(self.acceptor.raw_fd());
                        self.listener_registered = false;
                    }
                    break;
                }
            }
        }
    }

    fn register_conn(&mut self, stream: TcpStream) {
        if stream.set_nonblocking(true).is_err() {
            return;
        }
        // Nagle off: with it on, a response written while an earlier one
        // is unacknowledged waits for the client's delayed ACK (tens of
        // ms) in a pipelined burst. A socket that refuses the option is
        // still served, only with that delay.
        let _ = stream.set_nodelay(true);
        let id = self.next_conn_id;
        self.next_conn_id += 1;
        let interest = EPOLLIN | EPOLLRDHUP;
        if self.poller.add(stream.as_raw_fd(), id, interest).is_err() {
            return;
        }
        let mut conn = Conn {
            stream,
            framer: LineFramer::new(self.shared.config.max_line_bytes),
            out: Vec::new(),
            out_pos: 0,
            inflight: None,
            deadline: None,
            interest,
            close_after_flush: false,
            saw_eof: false,
        };
        if let Some(t) = self.shared.config.read_timeout {
            let deadline = Instant::now() + t;
            conn.deadline = Some(deadline);
            self.timers.push(Reverse((deadline, id)));
        }
        self.conns.insert(id, conn);
        self.shared.accepted.inc();
        self.shared.conn_gauge.set(self.conns.len() as f64);
    }

    fn close_conn(&mut self, id: u64) {
        if let Some(conn) = self.conns.remove(&id) {
            self.poller.del(conn.stream.as_raw_fd());
            self.shared.conn_gauge.set(self.conns.len() as f64);
        }
    }

    fn on_conn_event(&mut self, id: u64, mask: u32) {
        if !self.conns.contains_key(&id) {
            return; // stale event for a connection closed this wake
        }
        if mask & (EPOLLERR | EPOLLHUP) != 0 {
            self.close_conn(id);
            return;
        }
        if mask & (EPOLLIN | EPOLLRDHUP) != 0 && !self.on_readable(id) {
            return;
        }
        // EPOLLOUT needs no dedicated handler: process() ends in
        // update_io(), which flushes whatever is pending.
        self.process(id);
    }

    /// Pumps available bytes into the framer. Returns false if the
    /// connection died (and was closed) in the process.
    fn on_readable(&mut self, id: u64) -> bool {
        let conn = match self.conns.get_mut(&id) {
            Some(c) => c,
            None => return false,
        };
        if conn.inflight.is_some() || conn.saw_eof {
            // Not reading right now (request in flight, or stream already
            // ended); interest should already exclude EPOLLIN.
            return true;
        }
        match pump_stream(conn) {
            Pump::Drained { .. } => true,
            Pump::Eof { .. } => {
                conn.saw_eof = true;
                // `BufRead::lines` semantics: a final unterminated line is
                // still a request. Terminate it so the framer yields it;
                // a spurious blank line is skipped by process().
                if conn.framer.buffered() > 0 {
                    conn.framer.push(b"\n");
                }
                true
            }
            Pump::Err(_) => {
                self.close_conn(id);
                false
            }
        }
    }

    /// Frames and dispatches buffered request lines until the connection
    /// parks (in-flight work), runs out of complete lines, backs up on
    /// output, or dies. Ends by reconciling flush/interest/deadline state.
    fn process(&mut self, id: u64) {
        loop {
            let conn = match self.conns.get_mut(&id) {
                Some(c) => c,
                None => return,
            };
            if conn.inflight.is_some() || conn.out_pending() > OUT_HIGH_WATER {
                break;
            }
            match conn.framer.next_line() {
                Frame::NeedMore => {
                    if conn.saw_eof {
                        conn.close_after_flush = true;
                    }
                    break;
                }
                Frame::TooLong => {
                    // Tell the client why, then drop the connection;
                    // resyncing on a stream that already violated the
                    // framing contract is not worth carrying state for.
                    let response = wire::oversize_line_response(self.shared.config.max_line_bytes);
                    queue_response(conn, &response);
                    conn.close_after_flush = true;
                    break;
                }
                Frame::Line(line) => {
                    if line.trim().is_empty() {
                        continue;
                    }
                    match wire::dispatch_line(&self.shared.engine, &line) {
                        Dispatch::Respond(response, stop) => {
                            queue_response(conn, &response);
                            if stop {
                                self.flush_final(id);
                                self.shared.begin_shutdown();
                                return;
                            }
                        }
                        Dispatch::Predict(call) => {
                            let waker = {
                                let shared = Arc::clone(&self.shared);
                                Box::new(move || shared.complete(id))
                            };
                            match self.shared.engine.submit(
                                call.side,
                                call.anchor,
                                call.relation,
                                call.k,
                                Some(waker),
                            ) {
                                Submission::Ready(outcome) => {
                                    let response = wire::predict_line(&call, outcome);
                                    queue_response(conn, &response);
                                }
                                Submission::Parked(ticket) => {
                                    conn.inflight = Some(InFlight::Predict(ticket, call));
                                    break;
                                }
                            }
                        }
                        Dispatch::Swap { model_file } => {
                            // A swap loads (maps) a whole model; run it off
                            // the loop so every other connection keeps
                            // being served, and complete it like a predict.
                            let slot = Arc::new(Mutex::new(None));
                            let task_slot = Arc::clone(&slot);
                            let shared = Arc::clone(&self.shared);
                            let spawned = std::thread::Builder::new()
                                .name("mei-serve-swap".to_owned())
                                .spawn(move || {
                                    let response = wire::swap_line(&shared.engine, &model_file);
                                    *task_slot.lock() = Some(response);
                                    shared.complete(id);
                                });
                            match spawned {
                                Ok(_) => {
                                    let conn = self.conns.get_mut(&id).expect("conn vanished");
                                    conn.inflight = Some(InFlight::Task(slot));
                                    break;
                                }
                                Err(_) => {
                                    let conn = self.conns.get_mut(&id).expect("conn vanished");
                                    queue_response(
                                        conn,
                                        &wire::error_line("unavailable", "cannot spawn swap task"),
                                    );
                                }
                            }
                        }
                    }
                }
            }
        }
        self.update_io(id);
    }

    /// Resolves completed in-flight work signalled through the waker path.
    fn drain_completions(&mut self) {
        let ids: Vec<u64> = std::mem::take(&mut *self.shared.completions.lock());
        for id in ids {
            let conn = match self.conns.get_mut(&id) {
                Some(c) => c,
                None => continue, // completed after the client vanished
            };
            let response = match conn.inflight.take() {
                None => continue,
                Some(InFlight::Predict(ticket, call)) => {
                    match self.shared.engine.try_finish(ticket) {
                        Ok(outcome) => wire::predict_line(&call, outcome),
                        Err(ticket) => {
                            // Spurious wake; re-park.
                            conn.inflight = Some(InFlight::Predict(ticket, call));
                            continue;
                        }
                    }
                }
                Some(InFlight::Task(slot)) => {
                    let ready = slot.lock().take();
                    match ready {
                        Some(response) => response,
                        None => {
                            conn.inflight = Some(InFlight::Task(slot));
                            continue;
                        }
                    }
                }
            };
            queue_response(conn, &response);
            // The connection may have more pipelined requests buffered.
            self.process(id);
        }
    }

    /// Reconciles a connection's epoll interest, deadline, and pending
    /// output after any activity, closing it if its work is done.
    fn update_io(&mut self, id: u64) {
        let conn = match self.conns.get_mut(&id) {
            Some(c) => c,
            None => return,
        };
        if conn.out_pending() > 0 {
            match flush_conn(conn) {
                FlushState::Dead => {
                    self.close_conn(id);
                    return;
                }
                FlushState::Flushed | FlushState::Pending => {}
            }
        }
        let conn = self.conns.get_mut(&id).expect("conn vanished");
        let out_pending = conn.out_pending() > 0;
        if !out_pending && conn.close_after_flush {
            self.close_conn(id);
            return;
        }
        if !out_pending && conn.saw_eof && conn.inflight.is_none() {
            // Stream ended and every buffered request was answered.
            self.close_conn(id);
            return;
        }
        let mut interest = 0u32;
        let reading =
            conn.inflight.is_none() && !conn.saw_eof && conn.out_pending() <= OUT_HIGH_WATER;
        if reading {
            interest |= EPOLLIN | EPOLLRDHUP;
        }
        if out_pending {
            interest |= EPOLLOUT;
        }
        if interest != conn.interest {
            let fd = conn.stream.as_raw_fd();
            if self.poller.modify(fd, id, interest).is_err() {
                self.close_conn(id);
                return;
            }
            let conn = self.conns.get_mut(&id).expect("conn vanished");
            conn.interest = interest;
        }
        let conn = self.conns.get_mut(&id).expect("conn vanished");
        let deadline = if out_pending {
            self.shared.config.write_timeout.map(|t| Instant::now() + t)
        } else if conn.inflight.is_some() {
            // The engine owns the wait; no I/O deadline while parked.
            None
        } else {
            self.shared.config.read_timeout.map(|t| Instant::now() + t)
        };
        conn.deadline = deadline;
        if let Some(t) = deadline {
            self.timers.push(Reverse((t, id)));
        }
    }

    /// Best-effort synchronous flush of the shutdown acknowledgement:
    /// the loop is about to exit, so briefly reverting this one socket
    /// to blocking writes (bounded by the write timeout) is simpler and
    /// safer than racing the teardown.
    fn flush_final(&mut self, id: u64) {
        if let Some(mut conn) = self.conns.remove(&id) {
            self.poller.del(conn.stream.as_raw_fd());
            self.shared.conn_gauge.set(self.conns.len() as f64);
            let _ = conn.stream.set_nonblocking(false);
            let budget = self.shared.config.write_timeout.unwrap_or(Duration::from_secs(1));
            let _ = conn.stream.set_write_timeout(Some(budget));
            let pending = conn.out[conn.out_pos..].to_vec();
            let _ = conn.stream.write_all(&pending).and_then(|_| conn.stream.flush());
        }
    }
}

fn pump_stream(conn: &mut Conn) -> Pump {
    crate::frame::pump(&mut (&conn.stream), &mut conn.framer, READ_BUDGET)
}

fn queue_response(conn: &mut Conn, line: &str) {
    conn.out.extend_from_slice(line.as_bytes());
    conn.out.push(b'\n');
}

fn flush_conn(conn: &mut Conn) -> FlushState {
    while conn.out_pos < conn.out.len() {
        match (&conn.stream).write(&conn.out[conn.out_pos..]) {
            Ok(0) => return FlushState::Dead,
            Ok(n) => conn.out_pos += n,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                // Reclaim flushed prefix space before parking the rest.
                if conn.out_pos > 4096 {
                    conn.out.drain(..conn.out_pos);
                    conn.out_pos = 0;
                }
                return FlushState::Pending;
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => return FlushState::Dead,
        }
    }
    conn.out.clear();
    conn.out_pos = 0;
    FlushState::Flushed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::ServeConfig;
    use crate::snapshot::Snapshot;
    use mei_core::{MultiEmbedModel, WeightPreset};
    use mei_kg::TripleStore;
    use mei_obs::json::parse;
    use mei_obs::JsonValue;
    use rand::{rngs::StdRng, SeedableRng};
    use std::io::{BufRead, BufReader};

    fn server() -> Server {
        let mut rng = StdRng::seed_from_u64(21);
        let model = MultiEmbedModel::from_preset(WeightPreset::ComplEx, 15, 2, 4, &mut rng);
        let engine =
            Arc::new(Engine::start(Snapshot::with_ids(model, TripleStore::new()), ServeConfig::default()));
        Server::start(engine, "127.0.0.1:0").unwrap()
    }

    fn roundtrip(stream: &mut TcpStream, line: &str) -> JsonValue {
        stream.write_all(line.as_bytes()).unwrap();
        stream.write_all(b"\n").unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut response = String::new();
        reader.read_line(&mut response).unwrap();
        parse(response.trim_end()).unwrap()
    }

    #[test]
    fn serves_ping_and_predict_over_tcp() {
        let mut server = server();
        let mut client = TcpStream::connect(server.local_addr()).unwrap();
        let pong = roundtrip(&mut client, r#"{"op":"ping"}"#);
        assert_eq!(pong.get("ok"), Some(&JsonValue::Bool(true)));
        let answer = roundtrip(
            &mut client,
            r#"{"op":"predict","side":"tail","anchor":0,"relation":0,"k":2}"#,
        );
        assert_eq!(answer.get("ok"), Some(&JsonValue::Bool(true)));
        assert_eq!(answer.get("results").and_then(|r| r.as_arr()).map(|r| r.len()), Some(2));
        server.shutdown();
    }

    #[test]
    fn wire_shutdown_stops_the_server() {
        let server = server();
        let addr = server.local_addr();
        let mut client = TcpStream::connect(addr).unwrap();
        let ack = roundtrip(&mut client, r#"{"op":"shutdown"}"#);
        assert_eq!(ack.get("ok"), Some(&JsonValue::Bool(true)));
        // wait() returns because the event loop exits.
        server.wait();
        // The port no longer answers.
        assert!(TcpStream::connect(addr).is_err() || {
            // A connect may still succeed momentarily on some kernels if
            // the backlog drains late; a subsequent read must then EOF.
            let s = TcpStream::connect(addr);
            match s {
                Ok(sock) => {
                    let mut r = BufReader::new(sock);
                    let mut line = String::new();
                    r.read_line(&mut line).map(|n| n == 0).unwrap_or(true)
                }
                Err(_) => true,
            }
        });
    }

    #[test]
    fn local_shutdown_is_idempotent_and_unblocks_clients() {
        let mut server = server();
        let _idle = TcpStream::connect(server.local_addr()).unwrap();
        server.shutdown();
        server.shutdown();
        assert!(server.is_shutting_down());
    }

    fn tiny_limits_server(max_line_bytes: usize) -> Server {
        let mut rng = StdRng::seed_from_u64(21);
        let model = MultiEmbedModel::from_preset(WeightPreset::ComplEx, 15, 2, 4, &mut rng);
        let engine =
            Arc::new(Engine::start(Snapshot::with_ids(model, TripleStore::new()), ServeConfig::default()));
        let config = ServerConfig {
            read_timeout: Some(Duration::from_millis(300)),
            write_timeout: Some(Duration::from_millis(300)),
            max_line_bytes,
        };
        Server::start_with(engine, "127.0.0.1:0", config).unwrap()
    }

    #[test]
    fn oversize_request_line_gets_a_structured_error_then_disconnect() {
        let mut server = tiny_limits_server(64);
        let mut client = TcpStream::connect(server.local_addr()).unwrap();
        // 200 bytes, no newline needed for the cap to trip.
        client.write_all(&[b'x'; 200]).unwrap();
        client.flush().unwrap();
        let mut reader = BufReader::new(client.try_clone().unwrap());
        let mut response = String::new();
        reader.read_line(&mut response).unwrap();
        let parsed = parse(response.trim_end()).unwrap();
        assert_eq!(parsed.get("ok"), Some(&JsonValue::Bool(false)));
        assert_eq!(
            parsed.get("kind").and_then(|k| k.as_str()),
            Some("line_too_long")
        );
        // The connection is closed afterwards: the next read EOFs.
        let mut rest = String::new();
        assert_eq!(reader.read_line(&mut rest).unwrap(), 0);
        server.shutdown();
    }

    #[test]
    fn a_line_exactly_at_the_cap_still_works() {
        let mut server = tiny_limits_server(r#"{"op":"ping"}"#.len());
        let mut client = TcpStream::connect(server.local_addr()).unwrap();
        let pong = roundtrip(&mut client, r#"{"op":"ping"}"#);
        assert_eq!(pong.get("ok"), Some(&JsonValue::Bool(true)));
        server.shutdown();
    }

    #[test]
    fn idle_connection_is_dropped_by_the_read_timeout() {
        let mut server = tiny_limits_server(1 << 20);
        let client = TcpStream::connect(server.local_addr()).unwrap();
        // Send nothing. The 300ms server read deadline must fire and the
        // loop must close the connection, observed as EOF client-side.
        // The client-side timeout is only a backstop so a regression fails
        // the test instead of hanging it.
        client.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let mut reader = BufReader::new(client);
        let mut line = String::new();
        match reader.read_line(&mut line) {
            Ok(0) => {} // EOF: the server dropped us, as required
            Ok(n) => panic!("unexpected {n}-byte response on an idle connection: {line:?}"),
            Err(e) => panic!("server never dropped the idle connection: {e}"),
        }
        server.shutdown();
    }

    #[test]
    fn pipelined_requests_are_answered_in_order() {
        let mut server = server();
        let mut client = TcpStream::connect(server.local_addr()).unwrap();
        // One write carrying several requests (plus a blank line, which
        // must be skipped, not answered).
        let mut batch = String::new();
        for i in 0..5 {
            batch.push_str(&format!(
                "{{\"op\":\"predict\",\"side\":\"tail\",\"anchor\":{i},\"relation\":0,\"k\":2,\"id\":{i}}}\n"
            ));
        }
        batch.push('\n');
        batch.push_str("{\"op\":\"ping\"}\n");
        client.write_all(batch.as_bytes()).unwrap();
        let mut reader = BufReader::new(client);
        for i in 0..5 {
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            let v = parse(line.trim_end()).unwrap();
            assert_eq!(v.get("ok"), Some(&JsonValue::Bool(true)));
            assert_eq!(v.get("id").and_then(|x| x.as_usize()), Some(i), "responses must be FIFO");
        }
        let mut pong = String::new();
        reader.read_line(&mut pong).unwrap();
        assert_eq!(parse(pong.trim_end()).unwrap().get("ok"), Some(&JsonValue::Bool(true)));
        server.shutdown();
    }

    #[test]
    fn trailing_line_without_newline_is_served_before_close() {
        let mut server = server();
        let mut client = TcpStream::connect(server.local_addr()).unwrap();
        client.write_all(br#"{"op":"ping"}"#).unwrap(); // no newline
        client.shutdown(std::net::Shutdown::Write).unwrap();
        let mut reader = BufReader::new(client);
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert_eq!(parse(line.trim_end()).unwrap().get("ok"), Some(&JsonValue::Bool(true)));
        let mut rest = String::new();
        assert_eq!(reader.read_line(&mut rest).unwrap(), 0, "connection must close after EOF");
        server.shutdown();
    }
}
