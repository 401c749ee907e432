//! Fault injection for the serving frontend and engine backpressure.
//!
//! Every test here plays a misbehaving client against a live TCP server
//! and asserts the failure is *contained*: the offender gets a structured
//! wire error (or a disconnect), the process neither panics nor grows
//! without bound, and well-behaved clients keep getting correct answers.

use mei_core::{MultiEmbedModel, WeightPreset};
use mei_kg::TripleStore;
use mei_obs::json::parse;
use mei_obs::JsonValue;
use mei_serve::{Engine, ServeConfig, Server, ServerConfig, Snapshot};
use rand::{rngs::StdRng, SeedableRng};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn engine(config: ServeConfig) -> Arc<Engine> {
    let mut rng = StdRng::seed_from_u64(11);
    let model = MultiEmbedModel::from_preset(WeightPreset::ComplEx, 20, 3, 4, &mut rng);
    Arc::new(Engine::start(Snapshot::with_ids(model, TripleStore::new()), config))
}

fn server(engine: Arc<Engine>, server_config: ServerConfig) -> Server {
    Server::start_with(engine, "127.0.0.1:0", server_config).unwrap()
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

fn kind_of(v: &JsonValue) -> Option<&str> {
    v.get("kind").and_then(|k| k.as_str())
}

#[test]
fn garbage_bytes_get_a_structured_error_and_the_connection_survives() {
    let mut server = server(engine(ServeConfig::default()), ServerConfig::default());
    let mut client = TcpStream::connect(server.local_addr()).unwrap();

    // Binary junk that is not even UTF-8, followed by a newline.
    client.write_all(b"\x00\xff\xfe{{{[[not json\n").unwrap();
    client.flush().unwrap();
    let response = read_response(&client);
    assert_eq!(response.get("ok"), Some(&JsonValue::Bool(false)));
    assert_eq!(kind_of(&response), Some("bad_request"));

    // Same connection, a valid request right after: must still work.
    send_line(&mut client, r#"{"op":"ping"}"#);
    let pong = read_response(&client);
    assert_eq!(pong.get("ok"), Some(&JsonValue::Bool(true)));
    server.shutdown();
}

#[test]
fn saturated_queue_rejects_over_the_wire_and_counts_rejections() {
    // workers: 0 means nothing ever drains the queue, so saturation is
    // deterministic: the first predict parks its handler thread, the
    // second must be turned away at the door.
    let engine = engine(ServeConfig {
        workers: 0,
        cache: false,
        max_queue: 1,
        ..ServeConfig::default()
    });
    // Generous read timeout: the parked handler is *supposed* to wait.
    let config = ServerConfig {
        read_timeout: Some(Duration::from_secs(30)),
        write_timeout: Some(Duration::from_secs(30)),
        ..ServerConfig::default()
    };
    let mut server = server(Arc::clone(&engine), config);

    let mut occupant = TcpStream::connect(server.local_addr()).unwrap();
    send_line(&mut occupant, r#"{"op":"predict","side":"tail","anchor":0,"relation":0,"k":2}"#);
    // Wait until that request is actually sitting in the engine queue.
    let deadline = Instant::now() + Duration::from_secs(10);
    while engine.queue_depth() < 1 {
        assert!(Instant::now() < deadline, "occupant request never reached the queue");
        std::thread::sleep(Duration::from_millis(5));
    }

    let mut rejected = TcpStream::connect(server.local_addr()).unwrap();
    send_line(&mut rejected, r#"{"op":"predict","side":"tail","anchor":1,"relation":0,"k":2}"#);
    let response = read_response(&rejected);
    assert_eq!(response.get("ok"), Some(&JsonValue::Bool(false)));
    assert_eq!(kind_of(&response), Some("overloaded"));
    assert_eq!(engine.metrics().counter("serve/rejected").get(), 1);

    // Control operations bypass the scoring queue: ping still answers.
    send_line(&mut rejected, r#"{"op":"ping"}"#);
    let pong = read_response(&rejected);
    assert_eq!(pong.get("ok"), Some(&JsonValue::Bool(true)));

    // Shutdown must unblock the parked occupant and join every thread.
    server.shutdown();
}

#[test]
fn slow_loris_without_newlines_is_cut_off_by_the_line_cap() {
    // A trickling sender defeats idle timeouts (every byte resets the
    // read clock), so the line cap is what bounds the damage.
    let config = ServerConfig {
        read_timeout: Some(Duration::from_secs(30)),
        write_timeout: Some(Duration::from_secs(30)),
        max_line_bytes: 64,
    };
    let mut server = server(engine(ServeConfig::default()), config);
    let mut client = TcpStream::connect(server.local_addr()).unwrap();
    client.set_read_timeout(Some(Duration::from_secs(10))).unwrap();

    // Trickle 16 bytes at a time, never sending a newline.
    let mut reader = BufReader::new(client.try_clone().unwrap());
    let mut response = String::new();
    let mut write_failed = false;
    for _ in 0..32 {
        if client.write_all(&[b'x'; 16]).and_then(|_| client.flush()).is_err() {
            write_failed = true; // server already hung up on us
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    match reader.read_line(&mut response) {
        Ok(0) => {} // disconnected without a readable error: contained
        Ok(_) => {
            let parsed = parse(response.trim_end()).unwrap();
            assert_eq!(parsed.get("ok"), Some(&JsonValue::Bool(false)));
            assert_eq!(kind_of(&parsed), Some("line_too_long"));
        }
        // Writing into a closed socket earns an RST that can discard the
        // buffered error line; the failed write already proves the server
        // cut the connection, which is the property under test.
        Err(e) if write_failed => {
            eprintln!("error line lost to connection reset (acceptable): {e}");
        }
        Err(e) => panic!("server never reacted to the slow loris: {e}"),
    }

    // The server is still healthy for everyone else.
    let mut fresh = TcpStream::connect(server.local_addr()).unwrap();
    send_line(&mut fresh, r#"{"op":"ping"}"#);
    assert_eq!(read_response(&fresh).get("ok"), Some(&JsonValue::Bool(true)));
    server.shutdown();
}

#[test]
fn overload_recovers_once_the_queue_drains() {
    // Same saturation setup, but with a real worker: once the backlog
    // clears, previously-rejected clients succeed on retry.
    let engine = engine(ServeConfig {
        workers: 1,
        cache: false,
        max_queue: 2,
        ..ServeConfig::default()
    });
    let mut server = server(Arc::clone(&engine), ServerConfig::default());
    let addr = server.local_addr();

    // Hammer from several threads; some requests may be rejected.
    let clients: Vec<_> = (0..6)
        .map(|i| {
            std::thread::spawn(move || {
                let mut c = TcpStream::connect(addr).unwrap();
                send_line(
                    &mut c,
                    &format!(r#"{{"op":"predict","side":"tail","anchor":{i},"relation":0,"k":2}}"#),
                );
                let first = read_response(&c);
                if first.get("ok") == Some(&JsonValue::Bool(true)) {
                    return true;
                }
                assert_eq!(kind_of(&first), Some("overloaded"), "unexpected failure: {first:?}");
                // Retry with increasing, client-staggered backoff. A fixed
                // shared delay would make every rejected client's retry
                // land in the same instant and re-trip the bound (observed
                // on single-core runners); eventual success is the
                // property, not success on one synchronized retry.
                for attempt in 1..=10u64 {
                    std::thread::sleep(Duration::from_millis(50 * attempt + 17 * i as u64));
                    send_line(
                        &mut c,
                        &format!(
                            r#"{{"op":"predict","side":"tail","anchor":{i},"relation":0,"k":2}}"#
                        ),
                    );
                    let retry = read_response(&c);
                    if retry.get("ok") == Some(&JsonValue::Bool(true)) {
                        return true;
                    }
                    assert_eq!(kind_of(&retry), Some("overloaded"), "unexpected failure: {retry:?}");
                }
                false
            })
        })
        .collect();
    for handle in clients {
        assert!(handle.join().unwrap(), "a client failed even after the queue drained");
    }
    server.shutdown();
}

/// Reads one response line, failing the test if none arrives within 5 s.
fn read_response_within_5s(stream: &TcpStream) -> JsonValue {
    stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    read_response(stream)
}

#[test]
fn oversized_k_is_clamped_and_the_connection_keeps_answering() {
    // The engine's model has 20 entities and no exclusions, so any k past
    // 20 must answer with all 20 — without sizing anything by k itself.
    let mut server = server(engine(ServeConfig::default()), ServerConfig::default());
    let mut client = TcpStream::connect(server.local_addr()).unwrap();
    for k in ["1000000000000000000", "2000000000000000000", "3"] {
        send_line(
            &mut client,
            &format!(r#"{{"op":"predict","side":"tail","anchor":0,"relation":0,"k":{k}}}"#),
        );
        let response = read_response_within_5s(&client);
        assert_eq!(response.get("ok"), Some(&JsonValue::Bool(true)), "k={k}: {response:?}");
        let results = response.get("results").and_then(JsonValue::as_arr).unwrap();
        assert_eq!(results.len(), if k == "3" { 3 } else { 20 }, "k={k}");
    }
    server.shutdown();
}

/// A 106-byte model file under format version 3 with a valid FNV-1a
/// checksum, whose header declares n = n_rel = 1, dim = |E| = 2³¹ and
/// |R| = 1 — an entity span of 2⁶⁴ bytes, which wraps to 0 unchecked.
fn wrapping_span_v3_file() -> Vec<u8> {
    let mut payload = Vec::new();
    for field in [1u32, 1, 1 << 31, 1 << 31, 1] {
        payload.extend_from_slice(&field.to_le_bytes());
    }
    payload.extend_from_slice(&[0, 0]); // restriction, trainable
    payload.extend_from_slice(&1.0f32.to_le_bytes()); // ω
    payload.extend_from_slice(&[0u8; 64]);
    let checksum = payload.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    });
    let mut file = b"MEIM".to_vec();
    file.extend_from_slice(&3u32.to_le_bytes());
    file.extend_from_slice(&checksum.to_le_bytes());
    file.extend_from_slice(&payload);
    assert_eq!(file.len(), 106);
    file
}

#[test]
fn swap_to_an_unsupported_version_file_is_rejected_and_the_connection_survives() {
    let path = std::env::temp_dir().join(format!("mei_hardening_v3_{}.bin", std::process::id()));
    std::fs::write(&path, wrapping_span_v3_file()).unwrap();
    let mut server = server(engine(ServeConfig::default()), ServerConfig::default());
    let mut client = TcpStream::connect(server.local_addr()).unwrap();

    send_line(&mut client, &format!(r#"{{"op":"swap","model_file":"{}"}}"#, path.display()));
    let response = read_response_within_5s(&client);
    assert_eq!(response.get("ok"), Some(&JsonValue::Bool(false)), "{response:?}");
    assert_eq!(kind_of(&response), Some("model_invalid"), "{response:?}");

    send_line(&mut client, r#"{"op":"ping"}"#);
    assert_eq!(read_response_within_5s(&client).get("ok"), Some(&JsonValue::Bool(true)));
    server.shutdown();
    std::fs::remove_file(&path).ok();
}
