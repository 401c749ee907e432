//! The newline-delimited JSON wire protocol.
//!
//! Each request is one JSON object on one line; each response is one JSON
//! object on one line. The protocol is deliberately boring — any client
//! that can speak `printf | nc` can query the server:
//!
//! ```text
//! → {"op":"predict","side":"tail","anchor":"e3","relation":"r0","k":5}
//! ← {"ok":true,"epoch":0,"cached":false,"results":[{"entity":"e7","id":7,"score":1.25},…]}
//! ```
//!
//! Operations:
//!
//! * `predict` — top-k query. `side` is `"tail"` (rank tails of
//!   `(anchor, ?, relation)`) or `"head"` (rank heads of
//!   `(?, anchor, relation)`). `anchor` and `relation` accept either a
//!   vocabulary name (string) or a raw dense id (integer). An optional
//!   `id` field is echoed back verbatim so pipelined clients can match
//!   responses to requests.
//! * `stats` — one object with the full serving metrics snapshot plus
//!   cache hit/miss counters.
//! * `ping` — liveness probe.
//! * `swap` — hot-swaps the model from `model_file` through
//!   `load_model_mapped`, which validates the header, checksum and every
//!   table span *before* any table is trusted, so a truncated, corrupt or
//!   unsupported-version file is answered with a `model_invalid` error
//!   without disturbing the serving snapshot. Dictionaries and the
//!   exclusion set are carried over from the current snapshot (a swap
//!   replaces parameters, not the vocabulary).
//! * `shutdown` — acknowledges, then stops the server.
//!
//! Errors come back as `{"ok":false,"error":"…"}` and never kill the
//! connection; malformed JSON gets the same treatment.

use crate::engine::{Engine, Prediction, ServeError};
use crate::snapshot::Snapshot;
use mei_eval::Side;
use mei_kg::{Dictionary, EntityId, RelationId};
use mei_obs::json::{build, parse};
use mei_obs::JsonValue;

/// A wire-level failure: a machine-readable `kind` tag (clients branch on
/// it) plus a human-readable message.
#[derive(Debug, Clone, PartialEq)]
pub struct WireError {
    /// Stable tag, e.g. `"bad_request"`, `"overloaded"`, `"line_too_long"`.
    pub kind: &'static str,
    /// Prose for humans and logs.
    pub message: String,
}

impl WireError {
    /// A malformed or unresolvable request.
    pub fn bad_request(message: String) -> Self {
        Self { kind: "bad_request", message }
    }
}

impl From<ServeError> for WireError {
    fn from(e: ServeError) -> Self {
        Self { kind: e.kind(), message: e.to_string() }
    }
}

/// A vocabulary reference from the wire: either an interned name or a raw
/// dense id.
#[derive(Debug, Clone, PartialEq)]
pub enum RequestName {
    /// Look the id up in the dictionary.
    Name(String),
    /// Use the id directly.
    Id(u32),
}

impl RequestName {
    fn resolve(&self, dict: &Dictionary, what: &str) -> Result<u32, String> {
        match self {
            RequestName::Id(id) => Ok(*id),
            RequestName::Name(name) => dict
                .get(name)
                .ok_or_else(|| format!("unknown {what} {name:?}")),
        }
    }
}

/// A parsed wire request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Top-k prediction.
    Predict {
        /// Which slot to rank.
        side: Side,
        /// The fixed entity.
        anchor: RequestName,
        /// The relation.
        relation: RequestName,
        /// How many results to return.
        k: usize,
        /// Opaque client tag echoed back in the response.
        id: Option<JsonValue>,
    },
    /// Metrics snapshot.
    Stats,
    /// Liveness probe.
    Ping,
    /// Hot-swap the model from a checkpoint file.
    Swap {
        /// Path to the checkpoint, readable by the server process.
        model_file: String,
    },
    /// Stop the server.
    Shutdown,
}

fn parse_name(v: &JsonValue, field: &str) -> Result<RequestName, String> {
    match v {
        JsonValue::Str(s) => Ok(RequestName::Name(s.clone())),
        JsonValue::Num(n) if n.fract() == 0.0 && *n >= 0.0 && *n <= u32::MAX as f64 => {
            Ok(RequestName::Id(*n as u32))
        }
        _ => Err(format!("field {field:?} must be a name string or a non-negative integer id")),
    }
}

/// Parses one request line.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let value = parse(line).map_err(|e| format!("invalid JSON: {e}"))?;
    let op = value
        .get("op")
        .and_then(|v| v.as_str())
        .ok_or_else(|| "missing string field \"op\"".to_owned())?;
    match op {
        "predict" => {
            let side = match value.get("side").and_then(|v| v.as_str()) {
                Some("tail") => Side::Tail,
                Some("head") => Side::Head,
                _ => return Err("field \"side\" must be \"tail\" or \"head\"".to_owned()),
            };
            let anchor =
                parse_name(value.get("anchor").ok_or("missing field \"anchor\"")?, "anchor")?;
            let relation = parse_name(
                value.get("relation").ok_or("missing field \"relation\"")?,
                "relation",
            )?;
            let k = value
                .get("k")
                .and_then(|v| v.as_usize())
                .ok_or("field \"k\" must be a non-negative integer")?;
            Ok(Request::Predict { side, anchor, relation, k, id: value.get("id").cloned() })
        }
        "stats" => Ok(Request::Stats),
        "ping" => Ok(Request::Ping),
        "swap" => {
            let model_file = value
                .get("model_file")
                .and_then(|v| v.as_str())
                .ok_or("missing string field \"model_file\"")?
                .to_owned();
            Ok(Request::Swap { model_file })
        }
        "shutdown" => Ok(Request::Shutdown),
        other => Err(format!("unknown op {other:?}")),
    }
}

fn error_response(err: WireError) -> JsonValue {
    build::obj([
        ("ok", JsonValue::Bool(false)),
        ("error", JsonValue::Str(err.message)),
        ("kind", build::str(err.kind)),
    ])
}

/// The one-line response for a request line that exceeded the server's
/// line-length cap. Exposed for the TCP frontend, which detects the
/// overflow before the line ever reaches [`handle_line`].
pub fn oversize_line_response(max_bytes: usize) -> String {
    error_response(WireError {
        kind: "line_too_long",
        message: format!(
            "request line exceeds the {max_bytes}-byte limit; closing the connection"
        ),
    })
    .to_json()
}

/// A fully resolved predict request: names translated to dense ids
/// against `snap`, ready for [`Engine::submit`] or [`Engine::predict`].
/// The snapshot is kept so the response renders entity names from the
/// same vocabulary the ids were resolved against, even if the answer
/// lands after a swap.
pub(crate) struct PredictCall {
    /// The snapshot the names were resolved against.
    pub snap: std::sync::Arc<Snapshot>,
    /// Which slot to rank.
    pub side: Side,
    /// Resolved anchor entity.
    pub anchor: EntityId,
    /// Resolved relation.
    pub relation: RelationId,
    /// Result depth.
    pub k: usize,
    /// Opaque client tag echoed back in the response.
    pub tag: Option<JsonValue>,
}

/// Resolves a parsed predict request's names against the current
/// snapshot.
pub(crate) fn resolve_predict(engine: &Engine, req: &Request) -> Result<PredictCall, WireError> {
    let Request::Predict { side, anchor, relation, k, id } = req else { unreachable!() };
    let (snap, _) = engine.snapshot();
    let anchor_id = anchor.resolve(&snap.entities, "entity").map_err(WireError::bad_request)?;
    let relation_id =
        relation.resolve(&snap.relations, "relation").map_err(WireError::bad_request)?;
    Ok(PredictCall {
        snap,
        side: *side,
        anchor: EntityId(anchor_id),
        relation: RelationId(relation_id),
        k: *k,
        tag: id.clone(),
    })
}

/// Renders one predict outcome — success or error — as a response line.
pub(crate) fn predict_line(call: &PredictCall, outcome: Result<Prediction, ServeError>) -> String {
    let prediction = match outcome {
        Ok(p) => p,
        Err(e) => return error_response(e.into()).to_json(),
    };
    let results: Vec<JsonValue> = prediction
        .results
        .iter()
        .map(|&(e, score)| {
            build::obj([
                ("entity", build::str(call.snap.entities.name(e.0).unwrap_or("?"))),
                ("id", build::int(e.idx())),
                ("score", build::num(score as f64)),
            ])
        })
        .collect();
    let mut pairs = vec![
        ("ok", JsonValue::Bool(true)),
        ("epoch", build::int(prediction.epoch as usize)),
        ("cached", JsonValue::Bool(prediction.cached)),
        ("results", JsonValue::Arr(results)),
    ];
    if let Some(tag) = &call.tag {
        pairs.push(("id", tag.clone()));
    }
    build::obj(pairs).to_json()
}

fn swap_response(engine: &Engine, model_file: &str) -> Result<JsonValue, WireError> {
    let invalid = |e: mei_core::serialize::SerializeError| WireError {
        kind: "model_invalid",
        message: e.to_string(),
    };
    // The mapped loader validates the header, checksum and table spans
    // before any table is trusted (checksum-before-trust), so a bad file
    // is rejected without disturbing the serving snapshot — and a valid
    // one is installed as zero-copy mapped views instead of a copy.
    let model = mei_core::serialize::load_model_mapped(model_file).map_err(invalid)?;
    let (current, _) = engine.snapshot();
    let next = Snapshot {
        model,
        entities: current.entities.clone(),
        relations: current.relations.clone(),
        exclude: current.exclude.clone(),
        // Fresh cell: the screen index (when enabled) is rebuilt from the
        // incoming model's entity table, never carried across a swap.
        screen_index: Default::default(),
    };
    let epoch = engine.swap_snapshot(next)?;
    Ok(build::obj([("ok", JsonValue::Bool(true)), ("epoch", build::int(epoch as usize))]))
}

fn stats_response(engine: &Engine) -> JsonValue {
    let cache = engine.cache_stats();
    let screen = match engine.screen_params() {
        Some(p) => build::obj([
            ("enabled", JsonValue::Bool(true)),
            ("screen_k", build::int(p.screen_k)),
            ("threads", build::int(p.threads)),
            ("precompute_hot", build::int(engine.precompute_hot())),
        ]),
        None => build::obj([
            ("enabled", JsonValue::Bool(false)),
            ("precompute_hot", build::int(engine.precompute_hot())),
        ]),
    };
    build::obj([
        ("ok", JsonValue::Bool(true)),
        ("epoch", build::int(engine.epoch() as usize)),
        ("cache_hits", build::int(cache.hits as usize)),
        ("cache_misses", build::int(cache.misses as usize)),
        ("cache_hit_rate", build::num(cache.hit_rate())),
        ("screen", screen),
        ("metrics", engine.metrics_snapshot()),
    ])
}

/// Renders an ad-hoc wire error line from a kind tag and message.
pub(crate) fn error_line(kind: &'static str, message: &str) -> String {
    error_response(WireError { kind, message: message.to_owned() }).to_json()
}

/// Executes a `swap` op and renders its response line. Factored out so
/// the event-loop frontend can run it on a task thread (a swap maps and
/// validates a whole model file; the loop must keep serving meanwhile).
pub(crate) fn swap_line(engine: &Engine, model_file: &str) -> String {
    match swap_response(engine, model_file) {
        Ok(v) => v.to_json(),
        Err(e) => error_response(e).to_json(),
    }
}

/// How one request line should be carried out — split so the event-loop
/// frontend can route predicts through the nonblocking
/// [`Engine::submit`] path and swaps onto a task thread, while cheap
/// control ops answer inline.
pub(crate) enum Dispatch {
    /// Answer with this line; the flag means "shut the server down after
    /// the response is flushed".
    Respond(String, bool),
    /// A resolved predict, ready for submission.
    Predict(PredictCall),
    /// A swap op, to be executed via [`swap_line`] wherever the caller
    /// can afford to block.
    Swap {
        /// Path to the checkpoint to install.
        model_file: String,
    },
}

/// Parses and (for predicts) resolves one request line. Ping, stats and
/// shutdown are answered here; predicts and swaps are returned for the
/// caller to execute however it blocks (or doesn't).
pub(crate) fn dispatch_line(engine: &Engine, line: &str) -> Dispatch {
    let request = match parse_request(line) {
        Ok(r) => r,
        Err(e) => {
            return Dispatch::Respond(error_response(WireError::bad_request(e)).to_json(), false)
        }
    };
    let (response, shutdown) = match &request {
        Request::Ping => (Ok(build::obj([("ok", JsonValue::Bool(true))])), false),
        Request::Stats => (Ok(stats_response(engine)), false),
        Request::Predict { .. } => match resolve_predict(engine, &request) {
            Ok(call) => return Dispatch::Predict(call),
            Err(e) => (Err(e), false),
        },
        Request::Swap { model_file } => {
            return Dispatch::Swap { model_file: model_file.clone() }
        }
        Request::Shutdown => (Ok(build::obj([("ok", JsonValue::Bool(true))])), true),
    };
    match response {
        Ok(v) => Dispatch::Respond(v.to_json(), shutdown),
        Err(e) => Dispatch::Respond(error_response(e).to_json(), false),
    }
}

/// Handles one request line against `engine`, blocking for predicts and
/// swaps. Returns the one-line JSON response (without trailing newline)
/// and whether the client asked the server to shut down.
pub fn handle_line(engine: &Engine, line: &str) -> (String, bool) {
    match dispatch_line(engine, line) {
        Dispatch::Respond(line, stop) => (line, stop),
        Dispatch::Predict(call) => {
            let outcome = engine.predict(call.side, call.anchor, call.relation, call.k);
            (predict_line(&call, outcome), false)
        }
        Dispatch::Swap { model_file } => (swap_line(engine, &model_file), false),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::ServeConfig;
    use mei_core::{MultiEmbedModel, WeightPreset};
    use mei_kg::TripleStore;
    use rand::{rngs::StdRng, SeedableRng};

    fn engine() -> Engine {
        let mut rng = StdRng::seed_from_u64(11);
        let model = MultiEmbedModel::from_preset(WeightPreset::ComplEx, 12, 2, 4, &mut rng);
        Engine::start(Snapshot::with_ids(model, TripleStore::new()), ServeConfig::default())
    }

    #[test]
    fn parse_accepts_names_and_ids() {
        let req = parse_request(
            r#"{"op":"predict","side":"head","anchor":"e3","relation":1,"k":4,"id":"q1"}"#,
        )
        .unwrap();
        assert_eq!(
            req,
            Request::Predict {
                side: Side::Head,
                anchor: RequestName::Name("e3".into()),
                relation: RequestName::Id(1),
                k: 4,
                id: Some(JsonValue::Str("q1".into())),
            }
        );
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse_request("not json").unwrap_err().contains("invalid JSON"));
        assert!(parse_request(r#"{"k":1}"#).unwrap_err().contains("op"));
        assert!(parse_request(r#"{"op":"dance"}"#).unwrap_err().contains("unknown op"));
        assert!(parse_request(r#"{"op":"predict","side":"left"}"#)
            .unwrap_err()
            .contains("side"));
    }

    #[test]
    fn predict_round_trip_over_the_handler() {
        let engine = engine();
        let (line, stop) = handle_line(
            &engine,
            r#"{"op":"predict","side":"tail","anchor":"e0","relation":"r1","k":3,"id":7}"#,
        );
        assert!(!stop);
        let v = parse(&line).unwrap();
        assert_eq!(v.get("ok"), Some(&JsonValue::Bool(true)));
        assert_eq!(v.get("id").and_then(|x| x.as_usize()), Some(7));
        let results = v.get("results").and_then(|x| x.as_arr()).unwrap();
        assert_eq!(results.len(), 3);
        // Names round-trip through the dictionary.
        let first = &results[0];
        let id = first.get("id").and_then(|x| x.as_usize()).unwrap();
        assert_eq!(first.get("entity").and_then(|x| x.as_str()), Some(format!("e{id}").as_str()));
        engine.shutdown();
    }

    #[test]
    fn unknown_names_and_ops_surface_as_errors() {
        let engine = engine();
        for line in [
            r#"{"op":"predict","side":"tail","anchor":"nope","relation":0,"k":1}"#,
            r#"{"op":"predict","side":"tail","anchor":0,"relation":99,"k":1}"#,
            "}{",
        ] {
            let (resp, stop) = handle_line(&engine, line);
            assert!(!stop);
            let v = parse(&resp).unwrap();
            assert_eq!(v.get("ok"), Some(&JsonValue::Bool(false)), "line: {line}");
            assert!(v.get("error").is_some());
        }
        engine.shutdown();
    }

    #[test]
    fn stats_report_screen_config() {
        let engine = engine();
        let (resp, _) = handle_line(&engine, r#"{"op":"stats"}"#);
        let v = parse(&resp).unwrap();
        let screen = v.get("screen").expect("stats must carry the screen config");
        assert_eq!(screen.get("enabled"), Some(&JsonValue::Bool(false)));
        assert_eq!(screen.get("precompute_hot").and_then(|x| x.as_usize()), Some(0));
        engine.shutdown();

        let mut rng = StdRng::seed_from_u64(11);
        let model = MultiEmbedModel::from_preset(WeightPreset::ComplEx, 12, 2, 4, &mut rng);
        let screened = Engine::start(
            Snapshot::with_ids(model, TripleStore::new()),
            ServeConfig {
                screen: Some(mei_quant::ScreenParams { screen_k: 7, threads: 3 }),
                precompute_hot: 5,
                ..ServeConfig::default()
            },
        );
        let (resp, _) = handle_line(&screened, r#"{"op":"stats"}"#);
        let v = parse(&resp).unwrap();
        let screen = v.get("screen").unwrap();
        assert_eq!(screen.get("enabled"), Some(&JsonValue::Bool(true)));
        assert_eq!(screen.get("screen_k").and_then(|x| x.as_usize()), Some(7));
        assert_eq!(screen.get("threads").and_then(|x| x.as_usize()), Some(3));
        assert_eq!(screen.get("precompute_hot").and_then(|x| x.as_usize()), Some(5));
        screened.shutdown();
    }

    #[test]
    fn shutdown_op_signals_the_server() {
        let engine = engine();
        let (resp, stop) = handle_line(&engine, r#"{"op":"shutdown"}"#);
        assert!(stop);
        assert_eq!(parse(&resp).unwrap().get("ok"), Some(&JsonValue::Bool(true)));
        engine.shutdown();
    }

    #[test]
    fn errors_carry_machine_readable_kinds() {
        let engine = engine();
        let (resp, _) = handle_line(&engine, "}{");
        assert_eq!(parse(&resp).unwrap().get("kind").and_then(|k| k.as_str()), Some("bad_request"));
        let (resp, _) =
            handle_line(&engine, r#"{"op":"predict","side":"tail","anchor":99,"relation":0,"k":1}"#);
        assert_eq!(
            parse(&resp).unwrap().get("kind").and_then(|k| k.as_str()),
            Some("invalid_entity")
        );
        let (resp, _) = handle_line(&engine, r#"{"op":"swap","model_file":"/nonexistent"}"#);
        assert_eq!(
            parse(&resp).unwrap().get("kind").and_then(|k| k.as_str()),
            Some("model_invalid")
        );
        let oversize = parse(&oversize_line_response(1024)).unwrap();
        assert_eq!(oversize.get("ok"), Some(&JsonValue::Bool(false)));
        assert_eq!(oversize.get("kind").and_then(|k| k.as_str()), Some("line_too_long"));
        engine.shutdown();
    }

    #[test]
    fn swap_rejects_missing_and_corrupt_files() {
        let engine = engine();
        let (resp, _) = handle_line(&engine, r#"{"op":"swap","model_file":"/nonexistent"}"#);
        assert_eq!(parse(&resp).unwrap().get("ok"), Some(&JsonValue::Bool(false)));
        assert_eq!(engine.epoch(), 0);
        engine.shutdown();
    }
}
