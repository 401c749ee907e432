//! Connection-lifecycle regression suite for the epoll frontend.
//!
//! The thread-per-connection server leaked in three ways: handler
//! `JoinHandle`s accumulated unjoined for the life of the process, a
//! failing `accept` (EMFILE under fd pressure) busy-spun the accept loop
//! at 100% CPU, and shutdown raced the accept loop over the listener.
//! These tests pin the event-loop replacements: connection churn leaves
//! no threads or tracked connections behind, accept errors back off and
//! are counted, shutdown-vs-accept races resolve cleanly, and a
//! memory-mapped snapshot swap serves bit-identical answers.

use mei_core::serialize::save_model;
use mei_core::{MultiEmbedModel, WeightPreset};
use mei_kg::TripleStore;
use mei_obs::json::parse;
use mei_obs::JsonValue;
use mei_serve::{Acceptor, Engine, ServeConfig, Server, ServerConfig, Snapshot};
use rand::{rngs::StdRng, SeedableRng};
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn engine(config: ServeConfig) -> Arc<Engine> {
    let mut rng = StdRng::seed_from_u64(23);
    let model = MultiEmbedModel::from_preset(WeightPreset::ComplEx, 20, 3, 4, &mut rng);
    Arc::new(Engine::start(Snapshot::with_ids(model, TripleStore::new()), config))
}

fn send_line(stream: &mut TcpStream, line: &str) {
    stream.write_all(line.as_bytes()).unwrap();
    stream.write_all(b"\n").unwrap();
    stream.flush().unwrap();
}

fn read_response(stream: &TcpStream) -> JsonValue {
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    parse(line.trim_end()).unwrap()
}

/// Current thread count of this process, from /proc (Linux).
fn thread_count() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").unwrap();
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
        .expect("Threads: line in /proc/self/status")
}

/// Waits (bounded) for an eventually-true condition driven by the event
/// loop, which processes disconnects asynchronously.
fn wait_until(what: &str, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(20);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn a_thousand_connect_disconnect_cycles_leak_nothing() {
    let engine = engine(ServeConfig::default());
    let mut server = Server::start(Arc::clone(&engine), "127.0.0.1:0").unwrap();
    let addr = server.local_addr();

    // Warm up one connection so lazily-started machinery is counted in
    // the baseline, then measure.
    {
        let mut c = TcpStream::connect(addr).unwrap();
        send_line(&mut c, r#"{"op":"ping"}"#);
        read_response(&c);
    }
    wait_until("warmup disconnect", || engine.metrics().gauge("serve/connections").get() == 0.0);
    let threads_before = thread_count();

    for i in 0..1000 {
        let mut c = TcpStream::connect(addr).unwrap();
        c.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        // Alternate a pure control op with a real scoring round trip so
        // churn exercises both the inline and the parked-ticket paths.
        if i % 2 == 0 {
            send_line(&mut c, r#"{"op":"ping"}"#);
        } else {
            send_line(&mut c, r#"{"op":"predict","side":"tail","anchor":0,"relation":0,"k":2}"#);
        }
        let resp = read_response(&c);
        assert_eq!(resp.get("ok"), Some(&JsonValue::Bool(true)), "cycle {i}: {resp:?}");
    }

    // Every disconnect is eventually reaped: the gauge returns to zero
    // and no per-connection threads (the old design's leak) remain.
    wait_until("all disconnects reaped", || {
        engine.metrics().gauge("serve/connections").get() == 0.0
    });
    assert_eq!(engine.metrics().counter("serve/accepted").get(), 1001);
    let threads_after = thread_count();
    assert!(
        threads_after <= threads_before + 4,
        "thread count grew across churn: {threads_before} -> {threads_after} \
         (thread-per-connection regression?)"
    );
    server.shutdown();
}

/// An acceptor whose first `failures` accept calls fail with EMFILE —
/// the fd-exhaustion shape that busy-spun the old accept loop.
struct FlakyAcceptor {
    listener: TcpListener,
    remaining_failures: AtomicUsize,
}

impl Acceptor for FlakyAcceptor {
    fn accept(&self) -> io::Result<TcpStream> {
        let left = self.remaining_failures.load(Ordering::Relaxed);
        if left > 0 {
            self.remaining_failures.store(left - 1, Ordering::Relaxed);
            return Err(io::Error::from_raw_os_error(24)); // EMFILE
        }
        self.listener.accept().map(|(s, _)| s)
    }

    fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    fn raw_fd(&self) -> std::os::unix::io::RawFd {
        use std::os::unix::io::AsRawFd;
        self.listener.as_raw_fd()
    }
}

#[test]
fn accept_errors_back_off_are_counted_and_do_not_spin() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    listener.set_nonblocking(true).unwrap();
    let acceptor =
        FlakyAcceptor { listener, remaining_failures: AtomicUsize::new(5) };
    let engine = engine(ServeConfig::default());
    let mut server =
        Server::start_with_acceptor(Arc::clone(&engine), acceptor, ServerConfig::default())
            .unwrap();

    // Connect while accept is failing: the SYN backlog holds the
    // connection, the loop backs off (1ms, 2ms, 4ms, ...) instead of
    // spinning, and once accept heals the client is served.
    let mut c = TcpStream::connect(server.local_addr()).unwrap();
    c.set_read_timeout(Some(Duration::from_secs(20))).unwrap();
    send_line(&mut c, r#"{"op":"ping"}"#);
    let resp = read_response(&c);
    assert_eq!(resp.get("ok"), Some(&JsonValue::Bool(true)));

    assert_eq!(engine.metrics().counter("serve/accept_errors").get(), 5);
    assert_eq!(engine.metrics().counter("serve/accepted").get(), 1);
    // Busy-spin regression guard: five backoff rounds plus the serving
    // round trip is a handful of wakeups, not thousands.
    let wakes = engine.metrics().counter("serve/epoll_wakes").get();
    assert!(wakes < 500, "event loop spun through {wakes} wakeups during accept backoff");
    server.shutdown();
}

/// An acceptor that keeps a clone of every accepted stream, so a test can
/// read back the socket options the event loop set on it.
struct RecordingAcceptor {
    listener: TcpListener,
    accepted: Arc<std::sync::Mutex<Vec<TcpStream>>>,
}

impl Acceptor for RecordingAcceptor {
    fn accept(&self) -> io::Result<TcpStream> {
        let (stream, _) = self.listener.accept()?;
        self.accepted.lock().expect("recording lock poisoned").push(stream.try_clone()?);
        Ok(stream)
    }

    fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    fn raw_fd(&self) -> std::os::unix::io::RawFd {
        use std::os::unix::io::AsRawFd;
        self.listener.as_raw_fd()
    }
}

#[test]
fn accepted_sockets_have_nagle_off() {
    // With Nagle on, a pipelined response written while an earlier one is
    // unacknowledged waits for the client's delayed ACK.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    listener.set_nonblocking(true).unwrap();
    let accepted = Arc::new(std::sync::Mutex::new(Vec::new()));
    let acceptor = RecordingAcceptor { listener, accepted: Arc::clone(&accepted) };
    let engine = engine(ServeConfig::default());
    let mut server =
        Server::start_with_acceptor(Arc::clone(&engine), acceptor, ServerConfig::default())
            .unwrap();
    let mut c = TcpStream::connect(server.local_addr()).unwrap();
    c.set_read_timeout(Some(Duration::from_secs(20))).unwrap();
    send_line(&mut c, r#"{"op":"ping"}"#);
    assert_eq!(read_response(&c).get("ok"), Some(&JsonValue::Bool(true)));
    let streams = accepted.lock().unwrap();
    assert_eq!(streams.len(), 1);
    assert!(streams[0].nodelay().unwrap(), "accepted socket still has Nagle on");
    drop(streams);
    server.shutdown();
}

#[test]
fn shutdown_racing_a_connection_storm_never_hangs_or_panics() {
    // The old server raced `shutdown` against the accept thread over the
    // listener fd. Run the race repeatedly: connectors hammer while the
    // server tears down at a random-ish point; every iteration must
    // terminate (bounded client timeouts are the watchdog) with the
    // engine's worker threads fully joined.
    for round in 0..50 {
        let engine = engine(ServeConfig::default());
        let mut server = Server::start(Arc::clone(&engine), "127.0.0.1:0").unwrap();
        let addr = server.local_addr();

        let stormer = std::thread::spawn(move || {
            // Keep connecting until the listener dies; failures are the
            // expected end state, not errors.
            for _ in 0..100 {
                match TcpStream::connect(addr) {
                    Ok(mut c) => {
                        c.set_read_timeout(Some(Duration::from_secs(5))).ok();
                        c.set_write_timeout(Some(Duration::from_secs(5))).ok();
                        let _ = c.write_all(b"{\"op\":\"ping\"}\n");
                        let mut buf = String::new();
                        let _ = BufReader::new(c).read_line(&mut buf);
                    }
                    Err(_) => break,
                }
            }
        });

        // Stagger the teardown point across rounds to move the race.
        std::thread::sleep(Duration::from_millis(round % 7));
        server.shutdown();
        stormer.join().expect("connection stormer panicked");
    }
}

#[test]
fn mapped_snapshot_swap_serves_bit_identical_answers() {
    let mut rng = StdRng::seed_from_u64(23);
    let model = MultiEmbedModel::from_preset(WeightPreset::ComplEx, 20, 3, 4, &mut rng);
    let path = std::env::temp_dir().join(format!("mei_lifecycle_swap_{}.bin", std::process::id()));
    save_model(&model, &path).unwrap();

    let engine = Arc::new(Engine::start(
        Snapshot::with_ids(model, TripleStore::new()),
        ServeConfig { cache: false, ..ServeConfig::default() },
    ));
    let mut server = Server::start(Arc::clone(&engine), "127.0.0.1:0").unwrap();
    let mut c = TcpStream::connect(server.local_addr()).unwrap();
    c.set_read_timeout(Some(Duration::from_secs(20))).unwrap();

    let predict = r#"{"op":"predict","side":"tail","anchor":3,"relation":1,"k":5}"#;
    send_line(&mut c, predict);
    let before = read_response(&c);
    assert_eq!(before.get("ok"), Some(&JsonValue::Bool(true)));

    // Swap in the same parameters from the v4 file: the wire handler
    // loads it memory-mapped (checksum-first), installs it, and bumps
    // the epoch. Answers must be bit-identical to the owned snapshot's.
    send_line(
        &mut c,
        &format!(r#"{{"op":"swap","model_file":"{}"}}"#, path.display()),
    );
    let swapped = read_response(&c);
    assert_eq!(swapped.get("ok"), Some(&JsonValue::Bool(true)), "{swapped:?}");
    assert_eq!(swapped.get("epoch").and_then(|v| v.as_f64()), Some(1.0));

    send_line(&mut c, predict);
    let after = read_response(&c);
    assert_eq!(after.get("ok"), Some(&JsonValue::Bool(true)));
    assert_eq!(
        after.get("results"),
        before.get("results"),
        "mapped swap changed answers: {before:?} vs {after:?}"
    );
    assert_eq!(after.get("epoch").and_then(|v| v.as_f64()), Some(1.0));

    // The swap critical path was timed into the latency histogram.
    let hist = engine.metrics().histogram("serve/swap_latency_secs", &[]);
    assert_eq!(hist.count(), 1);

    server.shutdown();
    std::fs::remove_file(&path).ok();
}
