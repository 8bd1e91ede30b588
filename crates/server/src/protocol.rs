//! The versioned JSON wire protocol — frame types, encoding, parsing.
//!
//! This module is the Rust image of the normative spec in
//! `docs/protocol.md`; every variant of [`Request`] and [`Response`]
//! corresponds to one `"type"` tag there, and a test fails the build of
//! this crate if the spec ever drops a frame the code knows about (or
//! vice versa — the [`Request::KINDS`] / [`Response::KINDS`] arrays are
//! the machine-readable frame inventory).
//!
//! Frames travel one per line (LF-terminated, UTF-8, no embedded
//! newlines — [`json_escape`] guarantees that) in both directions. The
//! encoders here emit exactly one line without the terminator; the
//! parsers accept a line with or without it.

use axml_core::trace::{json_escape, parse_json, Histogram, JsonValue};
use std::fmt::Write as _;

/// The protocol version this build speaks. Clients state the version
/// they want in `hello`; the server refuses mismatches with an
/// `unsupported-version` error (see the compatibility policy in
/// `docs/protocol.md`).
pub const PROTOCOL_VERSION: u64 = 1;

/// Machine-readable error codes carried by `error` frames. Every code
/// the server can emit is listed in [`ERROR_CODES`] and documented in
/// `docs/protocol.md`.
pub mod codes {
    /// The line is not valid JSON.
    pub const BAD_JSON: &str = "bad-json";
    /// Valid JSON, but not an object with a string `"type"` field.
    pub const BAD_FRAME: &str = "bad-frame";
    /// The `"type"` tag names no known request frame.
    pub const UNKNOWN_TYPE: &str = "unknown-type";
    /// A field is missing or has the wrong JSON type / value.
    pub const BAD_FIELD: &str = "bad-field";
    /// `hello` asked for a protocol version this server does not speak.
    pub const UNSUPPORTED_VERSION: &str = "unsupported-version";
    /// The named session does not exist.
    pub const UNKNOWN_SESSION: &str = "unknown-session";
    /// `open` named a session that already exists.
    pub const SESSION_EXISTS: &str = "session-exists";
    /// A document or service in `open` failed to parse or load.
    pub const BAD_SYSTEM: &str = "bad-system";
    /// A query string failed to parse.
    pub const BAD_QUERY: &str = "bad-query";
    /// The engine reported an error while running the session.
    pub const ENGINE_FAILED: &str = "engine-failed";
    /// An admission limit (connections, sessions, batch size) was hit.
    pub const OVERLOADED: &str = "overloaded";
    /// A frame exceeded the server's `max_frame_bytes`.
    pub const TOO_LARGE: &str = "too-large";
    /// The server is shutting down and accepts no further work.
    pub const SHUTTING_DOWN: &str = "shutting-down";
}

/// All error codes the server can emit, for the spec-coverage test.
pub const ERROR_CODES: [&str; 13] = [
    codes::BAD_JSON,
    codes::BAD_FRAME,
    codes::UNKNOWN_TYPE,
    codes::BAD_FIELD,
    codes::UNSUPPORTED_VERSION,
    codes::UNKNOWN_SESSION,
    codes::SESSION_EXISTS,
    codes::BAD_SYSTEM,
    codes::BAD_QUERY,
    codes::ENGINE_FAILED,
    codes::OVERLOADED,
    codes::TOO_LARGE,
    codes::SHUTTING_DOWN,
];

/// A protocol-level failure: an error `code` from [`codes`] plus a
/// human-readable message. Converts to an `error` response frame via
/// [`Response::from_error`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProtoError {
    /// One of the [`codes`] constants.
    pub code: &'static str,
    /// Human-readable detail (never parsed by clients).
    pub message: String,
}

impl ProtoError {
    /// A new error with the given code and message.
    pub fn new(code: &'static str, message: impl Into<String>) -> ProtoError {
        ProtoError {
            code,
            message: message.into(),
        }
    }
}

/// A compact latency digest carried by `stats_ok`: sample count plus
/// p50/p99/max in nanoseconds, extracted from a core
/// [`Histogram`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LatencySummary {
    /// Samples recorded.
    pub count: u64,
    /// Median latency (ns).
    pub p50_ns: u64,
    /// 99th-percentile latency (ns).
    pub p99_ns: u64,
    /// Worst observed latency (ns).
    pub max_ns: u64,
}

impl LatencySummary {
    /// Digest a histogram (all zeros when it holds no samples).
    pub fn from_histogram(h: &Histogram) -> LatencySummary {
        if h.count() == 0 {
            return LatencySummary::default();
        }
        LatencySummary {
            count: h.count(),
            p50_ns: h.quantile(0.5),
            p99_ns: h.quantile(0.99),
            max_ns: h.max(),
        }
    }

    fn push_fields(&self, o: &mut String) {
        let _ = write!(
            o,
            r#""count":{},"p50_ns":{},"p99_ns":{},"max_ns":{}"#,
            self.count, self.p50_ns, self.p99_ns, self.max_ns
        );
    }

    fn parse_fields(v: &JsonValue) -> Result<LatencySummary, ProtoError> {
        Ok(LatencySummary {
            count: opt_u64(v, "count")?.unwrap_or(0),
            p50_ns: opt_u64(v, "p50_ns")?.unwrap_or(0),
            p99_ns: opt_u64(v, "p99_ns")?.unwrap_or(0),
            max_ns: opt_u64(v, "max_ns")?.unwrap_or(0),
        })
    }
}

/// A client→server frame. See `docs/protocol.md` for the normative
/// description of each; the `id` is an opaque client-chosen correlation
/// token echoed verbatim on every response the frame provokes (0 when
/// the client omitted it).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request {
    /// `hello` — version negotiation; must be the first frame.
    Hello {
        /// Correlation id.
        id: u64,
        /// Protocol version the client speaks.
        version: u64,
        /// Free-form client identification (may be empty).
        client: String,
    },
    /// `open` — create a named session holding a fresh AXML system.
    Open {
        /// Correlation id.
        id: u64,
        /// Session name (server-wide; shared across connections).
        session: String,
        /// Documents to load: `(name, AXML text)`.
        docs: Vec<(String, String)>,
        /// Services to install: `(name, rule text)`.
        services: Vec<(String, String)>,
    },
    /// `run` — drive the session's rewriting to its fixpoint (or a
    /// budget).
    Run {
        /// Correlation id.
        id: u64,
        /// Target session.
        session: String,
        /// Accepted for v1 clients and ignored: `"naive"` or `"delta"`
        /// (anything else fails `bad-field`). The engine has one mode.
        mode: Option<String>,
        /// Invocation budget, in call visits; at most the server's own
        /// (`too-large` otherwise).
        max_invocations: Option<u64>,
    },
    /// `query` — evaluate one snapshot query; batching-eligible.
    Query {
        /// Correlation id.
        id: u64,
        /// Target session.
        session: String,
        /// Query text (`head :- body` service-query syntax).
        query: String,
    },
    /// `batch` — evaluate several queries under one session lock.
    Batch {
        /// Correlation id.
        id: u64,
        /// Target session.
        session: String,
        /// Query texts, answered in order.
        queries: Vec<String>,
    },
    /// `subscribe` — stream fixpoint deltas for a continuous query.
    Subscribe {
        /// Correlation id (also the subscription id in trace events).
        id: u64,
        /// Target session.
        session: String,
        /// Query text whose fresh answers are pushed per round.
        query: String,
    },
    /// `close` — drop a session.
    Close {
        /// Correlation id.
        id: u64,
        /// Session to drop.
        session: String,
    },
    /// `stats` — server-wide counters.
    Stats {
        /// Correlation id.
        id: u64,
    },
    /// `health` — liveness probe (uptime, sessions, journal drops).
    Health {
        /// Correlation id.
        id: u64,
    },
    /// `trace_tail` — stream live trace events as they are recorded.
    TraceTail {
        /// Correlation id (identifies the tail on this connection).
        id: u64,
        /// Only events of this category (a chrome `cat` name, e.g.
        /// `"server"`, `"invoke"`); absent = all categories.
        cat: Option<String>,
        /// Only events attributed to this session; absent = all.
        session: Option<String>,
        /// Stop after this many `trace` frames; absent = until the
        /// connection closes or the server drains.
        limit: Option<u64>,
    },
    /// `shutdown` — stop accepting connections; drain and exit.
    Shutdown {
        /// Correlation id.
        id: u64,
    },
}

/// A server→client frame. Every response carries the `id` of the
/// request it answers (0 for server-initiated errors with no request
/// context).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Response {
    /// `hello_ok` — version accepted.
    HelloOk {
        /// Correlation id.
        id: u64,
        /// Protocol version the server speaks.
        version: u64,
        /// Server identification string.
        server: String,
    },
    /// `open_ok` — session created.
    OpenOk {
        /// Correlation id.
        id: u64,
        /// Session name.
        session: String,
        /// Documents loaded.
        docs: u64,
        /// Services installed.
        services: u64,
    },
    /// `run_ok` — rewriting finished.
    RunOk {
        /// Correlation id.
        id: u64,
        /// Session name.
        session: String,
        /// `"terminated"`, `"invocation-budget"`, or `"node-budget"`.
        status: String,
        /// Complete rounds executed.
        rounds: u64,
        /// Call visits, the invocations charged to `max_invocations`:
        /// the calls evaluated plus those skipped as no-ops.
        invocations: u64,
        /// Session version stamp after the run (sum of document
        /// versions — the delta stamp).
        version: u64,
    },
    /// `answers` — the result of one `query` request.
    Answers {
        /// Correlation id.
        id: u64,
        /// Session name.
        session: String,
        /// Answer trees, compact AXML text, reduced, in derivation
        /// order.
        trees: Vec<String>,
    },
    /// `batch_ok` — the results of one `batch` request, in query order.
    BatchOk {
        /// Correlation id.
        id: u64,
        /// Session name.
        session: String,
        /// One answer-tree list per query.
        answers: Vec<Vec<String>>,
    },
    /// `sub_ok` — subscription accepted; `delta` frames follow.
    SubOk {
        /// Correlation id.
        id: u64,
        /// Session name.
        session: String,
    },
    /// `delta` — fresh answers derived since the previous push.
    Delta {
        /// Correlation id (the `subscribe` id).
        id: u64,
        /// Session name.
        session: String,
        /// Engine round the delta was observed after (0 = the state
        /// before the first round).
        round: u64,
        /// Session version stamp at push time.
        version: u64,
        /// Fresh answer trees, compact AXML text.
        trees: Vec<String>,
    },
    /// `sub_done` — the subscription's fixpoint was reached.
    SubDone {
        /// Correlation id (the `subscribe` id).
        id: u64,
        /// Session name.
        session: String,
        /// Final engine status (as in `run_ok`).
        status: String,
        /// Rounds driven by the subscription.
        rounds: u64,
        /// `delta` frames pushed.
        pushes: u64,
    },
    /// `closed` — session dropped.
    Closed {
        /// Correlation id.
        id: u64,
        /// Session name.
        session: String,
    },
    /// `stats_ok` — server-wide counters plus the extended metrics
    /// snapshot (engine counters, latency digests).
    StatsOk {
        /// Correlation id.
        id: u64,
        /// Live sessions.
        sessions: u64,
        /// Frames received.
        requests: u64,
        /// Frames served successfully.
        served: u64,
        /// Error frames emitted.
        errors: u64,
        /// Batches formed (dataloader coalescing + explicit `batch`).
        batches: u64,
        /// Subscription `delta` frames pushed.
        pushes: u64,
        /// Engine/server counters from the metrics registry, as
        /// `(name, value)` pairs in a stable order.
        counters: Vec<(String, u64)>,
        /// Request-latency digest over all served frames.
        latency: LatencySummary,
        /// Per-service invocation-latency digests, `(service, digest)`.
        services: Vec<(String, LatencySummary)>,
        /// Per-session request-latency digests, `(session, digest)`.
        session_stats: Vec<(String, LatencySummary)>,
    },
    /// `health_ok` — liveness snapshot for load balancers.
    HealthOk {
        /// Correlation id.
        id: u64,
        /// Server identification string (as in `hello_ok`).
        server: String,
        /// Milliseconds since the server started.
        uptime_ms: u64,
        /// Live sessions.
        sessions: u64,
        /// Open connections.
        conns: u64,
        /// Events currently retained in the trace ring.
        journal_len: u64,
        /// Events dropped by the ring (evictions + sampling) so far.
        journal_dropped: u64,
    },
    /// `tail_ok` — the `trace_tail` is registered; `trace` frames
    /// follow.
    TailOk {
        /// Correlation id (the `trace_tail` id).
        id: u64,
    },
    /// `trace` — one live trace event on a `trace_tail` stream.
    Trace {
        /// Correlation id (the `trace_tail` id).
        id: u64,
        /// The journal's sequence stamp.
        seq: u64,
        /// Nanoseconds since the server's trace epoch.
        ts_ns: u64,
        /// Reserved; always 0. Kept on the wire because protocol v1
        /// clients require the field.
        worker: u64,
        /// Request-scoped trace id (0 = unattributed).
        trace: u64,
        /// Event category (a chrome `cat` name).
        cat: String,
        /// Human-readable event label (as in the chrome export).
        name: String,
        /// Session the event is attributed to (empty = none).
        session: String,
    },
    /// `tail_done` — the `trace_tail` stream ended.
    TailDone {
        /// Correlation id (the `trace_tail` id).
        id: u64,
        /// `trace` frames delivered.
        sent: u64,
        /// Live events dropped because the stream could not keep up.
        dropped: u64,
    },
    /// `shutdown_ok` — the server is draining.
    ShutdownOk {
        /// Correlation id.
        id: u64,
    },
    /// `error` — the request failed; `code` is from [`codes`].
    Error {
        /// Correlation id of the failing request (0 if unknowable).
        id: u64,
        /// Machine-readable error code.
        code: String,
        /// Human-readable detail.
        message: String,
    },
}

/// All request frame `"type"` tags, in spec order.
pub const REQUEST_KINDS: [&str; 11] = [
    "hello",
    "open",
    "run",
    "query",
    "batch",
    "subscribe",
    "close",
    "stats",
    "health",
    "trace_tail",
    "shutdown",
];

/// All response frame `"type"` tags, in spec order.
pub const RESPONSE_KINDS: [&str; 16] = [
    "hello_ok",
    "open_ok",
    "run_ok",
    "answers",
    "batch_ok",
    "sub_ok",
    "delta",
    "sub_done",
    "closed",
    "stats_ok",
    "health_ok",
    "tail_ok",
    "trace",
    "tail_done",
    "shutdown_ok",
    "error",
];

impl Request {
    /// The machine-readable frame inventory (same as [`REQUEST_KINDS`]).
    pub const KINDS: [&'static str; 11] = REQUEST_KINDS;

    /// This frame's `"type"` tag.
    pub fn kind(&self) -> &'static str {
        match self {
            Request::Hello { .. } => "hello",
            Request::Open { .. } => "open",
            Request::Run { .. } => "run",
            Request::Query { .. } => "query",
            Request::Batch { .. } => "batch",
            Request::Subscribe { .. } => "subscribe",
            Request::Close { .. } => "close",
            Request::Stats { .. } => "stats",
            Request::Health { .. } => "health",
            Request::TraceTail { .. } => "trace_tail",
            Request::Shutdown { .. } => "shutdown",
        }
    }

    /// The correlation id the client attached (0 when omitted).
    pub fn id(&self) -> u64 {
        match self {
            Request::Hello { id, .. }
            | Request::Open { id, .. }
            | Request::Run { id, .. }
            | Request::Query { id, .. }
            | Request::Batch { id, .. }
            | Request::Subscribe { id, .. }
            | Request::Close { id, .. }
            | Request::Stats { id }
            | Request::Health { id }
            | Request::TraceTail { id, .. }
            | Request::Shutdown { id } => *id,
        }
    }

    /// The session the frame targets, if it targets one. A
    /// `trace_tail`'s `session` is a stream *filter*, not a target, so
    /// it returns `None` here.
    pub fn session(&self) -> Option<&str> {
        match self {
            Request::Open { session, .. }
            | Request::Run { session, .. }
            | Request::Query { session, .. }
            | Request::Batch { session, .. }
            | Request::Subscribe { session, .. }
            | Request::Close { session, .. } => Some(session),
            Request::Hello { .. }
            | Request::Stats { .. }
            | Request::Health { .. }
            | Request::TraceTail { .. }
            | Request::Shutdown { .. } => None,
        }
    }

    /// Encode as one wire line (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut o = String::new();
        match self {
            Request::Hello {
                id,
                version,
                client,
            } => {
                let _ = write!(
                    o,
                    r#"{{"type":"hello","id":{id},"version":{version},"client":"{}"}}"#,
                    json_escape(client)
                );
            }
            Request::Open {
                id,
                session,
                docs,
                services,
            } => {
                let _ = write!(
                    o,
                    r#"{{"type":"open","id":{id},"session":"{}","docs":["#,
                    json_escape(session)
                );
                push_named(&mut o, docs, "text");
                o.push_str(r#"],"services":["#);
                push_named(&mut o, services, "rule");
                o.push_str("]}");
            }
            Request::Run {
                id,
                session,
                mode,
                max_invocations,
            } => {
                let _ = write!(
                    o,
                    r#"{{"type":"run","id":{id},"session":"{}""#,
                    json_escape(session)
                );
                if let Some(m) = mode {
                    let _ = write!(o, r#","mode":"{}""#, json_escape(m));
                }
                if let Some(b) = max_invocations {
                    let _ = write!(o, r#","max_invocations":{b}"#);
                }
                o.push('}');
            }
            Request::Query { id, session, query } => {
                let _ = write!(
                    o,
                    r#"{{"type":"query","id":{id},"session":"{}","query":"{}"}}"#,
                    json_escape(session),
                    json_escape(query)
                );
            }
            Request::Batch {
                id,
                session,
                queries,
            } => {
                let _ = write!(
                    o,
                    r#"{{"type":"batch","id":{id},"session":"{}","queries":"#,
                    json_escape(session)
                );
                push_str_arr(&mut o, queries);
                o.push('}');
            }
            Request::Subscribe { id, session, query } => {
                let _ = write!(
                    o,
                    r#"{{"type":"subscribe","id":{id},"session":"{}","query":"{}"}}"#,
                    json_escape(session),
                    json_escape(query)
                );
            }
            Request::Close { id, session } => {
                let _ = write!(
                    o,
                    r#"{{"type":"close","id":{id},"session":"{}"}}"#,
                    json_escape(session)
                );
            }
            Request::Stats { id } => {
                let _ = write!(o, r#"{{"type":"stats","id":{id}}}"#);
            }
            Request::Health { id } => {
                let _ = write!(o, r#"{{"type":"health","id":{id}}}"#);
            }
            Request::TraceTail {
                id,
                cat,
                session,
                limit,
            } => {
                let _ = write!(o, r#"{{"type":"trace_tail","id":{id}"#);
                if let Some(c) = cat {
                    let _ = write!(o, r#","cat":"{}""#, json_escape(c));
                }
                if let Some(s) = session {
                    let _ = write!(o, r#","session":"{}""#, json_escape(s));
                }
                if let Some(n) = limit {
                    let _ = write!(o, r#","limit":{n}"#);
                }
                o.push('}');
            }
            Request::Shutdown { id } => {
                let _ = write!(o, r#"{{"type":"shutdown","id":{id}}}"#);
            }
        }
        o
    }

    /// Parse one wire line into a request frame.
    pub fn parse(line: &str) -> Result<Request, ProtoError> {
        let v = parse_json(line.trim_end_matches(['\n', '\r']))
            .map_err(|e| ProtoError::new(codes::BAD_JSON, e))?;
        let ty = frame_type(&v)?;
        let id = opt_u64(&v, "id")?.unwrap_or(0);
        match ty.as_str() {
            "hello" => Ok(Request::Hello {
                id,
                version: req_u64(&v, "version")?,
                client: opt_str(&v, "client")?.unwrap_or_default(),
            }),
            "open" => Ok(Request::Open {
                id,
                session: req_str(&v, "session")?,
                docs: named_pairs(&v, "docs", "text")?,
                services: named_pairs(&v, "services", "rule")?,
            }),
            "run" => Ok(Request::Run {
                id,
                session: req_str(&v, "session")?,
                mode: opt_str(&v, "mode")?,
                max_invocations: opt_u64(&v, "max_invocations")?,
            }),
            "query" => Ok(Request::Query {
                id,
                session: req_str(&v, "session")?,
                query: req_str(&v, "query")?,
            }),
            "batch" => Ok(Request::Batch {
                id,
                session: req_str(&v, "session")?,
                queries: str_arr(&v, "queries")?,
            }),
            "subscribe" => Ok(Request::Subscribe {
                id,
                session: req_str(&v, "session")?,
                query: req_str(&v, "query")?,
            }),
            "close" => Ok(Request::Close {
                id,
                session: req_str(&v, "session")?,
            }),
            "stats" => Ok(Request::Stats { id }),
            "health" => Ok(Request::Health { id }),
            "trace_tail" => Ok(Request::TraceTail {
                id,
                cat: opt_str(&v, "cat")?,
                session: opt_str(&v, "session")?,
                limit: opt_u64(&v, "limit")?,
            }),
            "shutdown" => Ok(Request::Shutdown { id }),
            other => Err(ProtoError::new(
                codes::UNKNOWN_TYPE,
                format!("unknown request frame type {other:?}"),
            )),
        }
    }
}

impl Response {
    /// The machine-readable frame inventory (same as [`RESPONSE_KINDS`]).
    pub const KINDS: [&'static str; 16] = RESPONSE_KINDS;

    /// This frame's `"type"` tag.
    pub fn kind(&self) -> &'static str {
        match self {
            Response::HelloOk { .. } => "hello_ok",
            Response::OpenOk { .. } => "open_ok",
            Response::RunOk { .. } => "run_ok",
            Response::Answers { .. } => "answers",
            Response::BatchOk { .. } => "batch_ok",
            Response::SubOk { .. } => "sub_ok",
            Response::Delta { .. } => "delta",
            Response::SubDone { .. } => "sub_done",
            Response::Closed { .. } => "closed",
            Response::StatsOk { .. } => "stats_ok",
            Response::HealthOk { .. } => "health_ok",
            Response::TailOk { .. } => "tail_ok",
            Response::Trace { .. } => "trace",
            Response::TailDone { .. } => "tail_done",
            Response::ShutdownOk { .. } => "shutdown_ok",
            Response::Error { .. } => "error",
        }
    }

    /// The `error` frame for a [`ProtoError`] answering request `id`.
    pub fn from_error(id: u64, e: ProtoError) -> Response {
        Response::Error {
            id,
            code: e.code.to_string(),
            message: e.message,
        }
    }

    /// Encode as one wire line (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut o = String::new();
        match self {
            Response::HelloOk {
                id,
                version,
                server,
            } => {
                let _ = write!(
                    o,
                    r#"{{"type":"hello_ok","id":{id},"version":{version},"server":"{}"}}"#,
                    json_escape(server)
                );
            }
            Response::OpenOk {
                id,
                session,
                docs,
                services,
            } => {
                let _ = write!(
                    o,
                    r#"{{"type":"open_ok","id":{id},"session":"{}","docs":{docs},"services":{services}}}"#,
                    json_escape(session)
                );
            }
            Response::RunOk {
                id,
                session,
                status,
                rounds,
                invocations,
                version,
            } => {
                let _ = write!(
                    o,
                    r#"{{"type":"run_ok","id":{id},"session":"{}","status":"{}","rounds":{rounds},"invocations":{invocations},"version":{version}}}"#,
                    json_escape(session),
                    json_escape(status)
                );
            }
            Response::Answers { id, session, trees } => {
                let _ = write!(
                    o,
                    r#"{{"type":"answers","id":{id},"session":"{}","trees":"#,
                    json_escape(session)
                );
                push_str_arr(&mut o, trees);
                o.push('}');
            }
            Response::BatchOk {
                id,
                session,
                answers,
            } => {
                let _ = write!(
                    o,
                    r#"{{"type":"batch_ok","id":{id},"session":"{}","answers":["#,
                    json_escape(session)
                );
                for (i, trees) in answers.iter().enumerate() {
                    if i > 0 {
                        o.push(',');
                    }
                    push_str_arr(&mut o, trees);
                }
                o.push_str("]}");
            }
            Response::SubOk { id, session } => {
                let _ = write!(
                    o,
                    r#"{{"type":"sub_ok","id":{id},"session":"{}"}}"#,
                    json_escape(session)
                );
            }
            Response::Delta {
                id,
                session,
                round,
                version,
                trees,
            } => {
                let _ = write!(
                    o,
                    r#"{{"type":"delta","id":{id},"session":"{}","round":{round},"version":{version},"trees":"#,
                    json_escape(session)
                );
                push_str_arr(&mut o, trees);
                o.push('}');
            }
            Response::SubDone {
                id,
                session,
                status,
                rounds,
                pushes,
            } => {
                let _ = write!(
                    o,
                    r#"{{"type":"sub_done","id":{id},"session":"{}","status":"{}","rounds":{rounds},"pushes":{pushes}}}"#,
                    json_escape(session),
                    json_escape(status)
                );
            }
            Response::Closed { id, session } => {
                let _ = write!(
                    o,
                    r#"{{"type":"closed","id":{id},"session":"{}"}}"#,
                    json_escape(session)
                );
            }
            Response::StatsOk {
                id,
                sessions,
                requests,
                served,
                errors,
                batches,
                pushes,
                counters,
                latency,
                services,
                session_stats,
            } => {
                let _ = write!(
                    o,
                    r#"{{"type":"stats_ok","id":{id},"sessions":{sessions},"requests":{requests},"served":{served},"errors":{errors},"batches":{batches},"pushes":{pushes},"counters":["#
                );
                for (i, (name, value)) in counters.iter().enumerate() {
                    if i > 0 {
                        o.push(',');
                    }
                    let _ = write!(o, r#"{{"name":"{}","value":{value}}}"#, json_escape(name));
                }
                o.push_str(r#"],"latency":{"#);
                latency.push_fields(&mut o);
                o.push_str("},\"services\":[");
                push_summaries(&mut o, services);
                o.push_str(r#"],"session_latency":["#);
                push_summaries(&mut o, session_stats);
                o.push_str("]}");
            }
            Response::HealthOk {
                id,
                server,
                uptime_ms,
                sessions,
                conns,
                journal_len,
                journal_dropped,
            } => {
                let _ = write!(
                    o,
                    r#"{{"type":"health_ok","id":{id},"server":"{}","uptime_ms":{uptime_ms},"sessions":{sessions},"conns":{conns},"journal_len":{journal_len},"journal_dropped":{journal_dropped}}}"#,
                    json_escape(server)
                );
            }
            Response::TailOk { id } => {
                let _ = write!(o, r#"{{"type":"tail_ok","id":{id}}}"#);
            }
            Response::Trace {
                id,
                seq,
                ts_ns,
                worker,
                trace,
                cat,
                name,
                session,
            } => {
                let _ = write!(
                    o,
                    r#"{{"type":"trace","id":{id},"seq":{seq},"ts_ns":{ts_ns},"worker":{worker},"trace":{trace},"cat":"{}","name":"{}""#,
                    json_escape(cat),
                    json_escape(name)
                );
                if !session.is_empty() {
                    let _ = write!(o, r#","session":"{}""#, json_escape(session));
                }
                o.push('}');
            }
            Response::TailDone { id, sent, dropped } => {
                let _ = write!(
                    o,
                    r#"{{"type":"tail_done","id":{id},"sent":{sent},"dropped":{dropped}}}"#
                );
            }
            Response::ShutdownOk { id } => {
                let _ = write!(o, r#"{{"type":"shutdown_ok","id":{id}}}"#);
            }
            Response::Error { id, code, message } => {
                let _ = write!(
                    o,
                    r#"{{"type":"error","id":{id},"code":"{}","message":"{}"}}"#,
                    json_escape(code),
                    json_escape(message)
                );
            }
        }
        o
    }

    /// Parse one wire line into a response frame (the client half, used
    /// by `axml-load` and the tests).
    pub fn parse(line: &str) -> Result<Response, ProtoError> {
        let v = parse_json(line.trim_end_matches(['\n', '\r']))
            .map_err(|e| ProtoError::new(codes::BAD_JSON, e))?;
        let ty = frame_type(&v)?;
        let id = opt_u64(&v, "id")?.unwrap_or(0);
        match ty.as_str() {
            "hello_ok" => Ok(Response::HelloOk {
                id,
                version: req_u64(&v, "version")?,
                server: req_str(&v, "server")?,
            }),
            "open_ok" => Ok(Response::OpenOk {
                id,
                session: req_str(&v, "session")?,
                docs: req_u64(&v, "docs")?,
                services: req_u64(&v, "services")?,
            }),
            "run_ok" => Ok(Response::RunOk {
                id,
                session: req_str(&v, "session")?,
                status: req_str(&v, "status")?,
                rounds: req_u64(&v, "rounds")?,
                invocations: req_u64(&v, "invocations")?,
                version: req_u64(&v, "version")?,
            }),
            "answers" => Ok(Response::Answers {
                id,
                session: req_str(&v, "session")?,
                trees: str_arr(&v, "trees")?,
            }),
            "batch_ok" => {
                let arr = v
                    .get("answers")
                    .and_then(JsonValue::as_arr)
                    .ok_or_else(|| miss("answers", "array"))?;
                let mut answers = Vec::with_capacity(arr.len());
                for inner in arr {
                    let trees = inner.as_arr().ok_or_else(|| miss("answers[i]", "array"))?;
                    answers.push(
                        trees
                            .iter()
                            .map(|t| {
                                t.as_str()
                                    .map(str::to_string)
                                    .ok_or_else(|| miss("answers[i][j]", "string"))
                            })
                            .collect::<Result<Vec<_>, _>>()?,
                    );
                }
                Ok(Response::BatchOk {
                    id,
                    session: req_str(&v, "session")?,
                    answers,
                })
            }
            "sub_ok" => Ok(Response::SubOk {
                id,
                session: req_str(&v, "session")?,
            }),
            "delta" => Ok(Response::Delta {
                id,
                session: req_str(&v, "session")?,
                round: req_u64(&v, "round")?,
                version: req_u64(&v, "version")?,
                trees: str_arr(&v, "trees")?,
            }),
            "sub_done" => Ok(Response::SubDone {
                id,
                session: req_str(&v, "session")?,
                status: req_str(&v, "status")?,
                rounds: req_u64(&v, "rounds")?,
                pushes: req_u64(&v, "pushes")?,
            }),
            "closed" => Ok(Response::Closed {
                id,
                session: req_str(&v, "session")?,
            }),
            "stats_ok" => Ok(Response::StatsOk {
                id,
                sessions: req_u64(&v, "sessions")?,
                requests: req_u64(&v, "requests")?,
                served: req_u64(&v, "served")?,
                errors: req_u64(&v, "errors")?,
                batches: req_u64(&v, "batches")?,
                pushes: req_u64(&v, "pushes")?,
                // The extended snapshot fields are additive (see the
                // compatibility policy): absent means empty, so old
                // servers still parse.
                counters: counter_pairs(&v, "counters")?,
                latency: match v.get("latency") {
                    None | Some(JsonValue::Null) => LatencySummary::default(),
                    Some(l) => LatencySummary::parse_fields(l)?,
                },
                services: summary_pairs(&v, "services")?,
                session_stats: summary_pairs(&v, "session_latency")?,
            }),
            "health_ok" => Ok(Response::HealthOk {
                id,
                server: req_str(&v, "server")?,
                uptime_ms: req_u64(&v, "uptime_ms")?,
                sessions: req_u64(&v, "sessions")?,
                conns: req_u64(&v, "conns")?,
                journal_len: req_u64(&v, "journal_len")?,
                journal_dropped: req_u64(&v, "journal_dropped")?,
            }),
            "tail_ok" => Ok(Response::TailOk { id }),
            "trace" => Ok(Response::Trace {
                id,
                seq: req_u64(&v, "seq")?,
                ts_ns: req_u64(&v, "ts_ns")?,
                worker: req_u64(&v, "worker")?,
                trace: req_u64(&v, "trace")?,
                cat: req_str(&v, "cat")?,
                name: req_str(&v, "name")?,
                session: opt_str(&v, "session")?.unwrap_or_default(),
            }),
            "tail_done" => Ok(Response::TailDone {
                id,
                sent: req_u64(&v, "sent")?,
                dropped: req_u64(&v, "dropped")?,
            }),
            "shutdown_ok" => Ok(Response::ShutdownOk { id }),
            "error" => Ok(Response::Error {
                id,
                code: req_str(&v, "code")?,
                message: req_str(&v, "message")?,
            }),
            other => Err(ProtoError::new(
                codes::UNKNOWN_TYPE,
                format!("unknown response frame type {other:?}"),
            )),
        }
    }
}

// ---------------------------------------------------------------- helpers

fn push_str_arr(o: &mut String, items: &[String]) {
    o.push('[');
    for (i, s) in items.iter().enumerate() {
        if i > 0 {
            o.push(',');
        }
        let _ = write!(o, "\"{}\"", json_escape(s));
    }
    o.push(']');
}

fn push_summaries(o: &mut String, pairs: &[(String, LatencySummary)]) {
    for (i, (name, s)) in pairs.iter().enumerate() {
        if i > 0 {
            o.push(',');
        }
        let _ = write!(o, r#"{{"name":"{}","#, json_escape(name));
        s.push_fields(o);
        o.push('}');
    }
}

fn counter_pairs(v: &JsonValue, key: &str) -> Result<Vec<(String, u64)>, ProtoError> {
    match v.get(key) {
        None | Some(JsonValue::Null) => Ok(Vec::new()),
        Some(f) => {
            let arr = f.as_arr().ok_or_else(|| miss(key, "array"))?;
            arr.iter()
                .map(|e| {
                    let name = req_str(e, "name")
                        .map_err(|_| miss(&format!("{key}[i].name"), "string"))?;
                    let value = req_u64(e, "value")
                        .map_err(|_| miss(&format!("{key}[i].value"), "non-negative integer"))?;
                    Ok((name, value))
                })
                .collect()
        }
    }
}

fn summary_pairs(v: &JsonValue, key: &str) -> Result<Vec<(String, LatencySummary)>, ProtoError> {
    match v.get(key) {
        None | Some(JsonValue::Null) => Ok(Vec::new()),
        Some(f) => {
            let arr = f.as_arr().ok_or_else(|| miss(key, "array"))?;
            arr.iter()
                .map(|e| {
                    let name = req_str(e, "name")
                        .map_err(|_| miss(&format!("{key}[i].name"), "string"))?;
                    Ok((name, LatencySummary::parse_fields(e)?))
                })
                .collect()
        }
    }
}

fn push_named(o: &mut String, pairs: &[(String, String)], value_key: &str) {
    for (i, (name, text)) in pairs.iter().enumerate() {
        if i > 0 {
            o.push(',');
        }
        let _ = write!(
            o,
            r#"{{"name":"{}","{value_key}":"{}"}}"#,
            json_escape(name),
            json_escape(text)
        );
    }
}

fn frame_type(v: &JsonValue) -> Result<String, ProtoError> {
    if !matches!(v, JsonValue::Obj(_)) {
        return Err(ProtoError::new(
            codes::BAD_FRAME,
            "frame is not a JSON object",
        ));
    }
    v.get("type")
        .and_then(JsonValue::as_str)
        .map(str::to_string)
        .ok_or_else(|| ProtoError::new(codes::BAD_FRAME, "frame has no string \"type\" field"))
}

fn miss(key: &str, want: &str) -> ProtoError {
    ProtoError::new(
        codes::BAD_FIELD,
        format!("field {key:?} missing or not a {want}"),
    )
}

fn req_str(v: &JsonValue, key: &str) -> Result<String, ProtoError> {
    v.get(key)
        .and_then(JsonValue::as_str)
        .map(str::to_string)
        .ok_or_else(|| miss(key, "string"))
}

fn opt_str(v: &JsonValue, key: &str) -> Result<Option<String>, ProtoError> {
    match v.get(key) {
        None | Some(JsonValue::Null) => Ok(None),
        Some(f) => f
            .as_str()
            .map(|s| Some(s.to_string()))
            .ok_or_else(|| miss(key, "string")),
    }
}

fn req_u64(v: &JsonValue, key: &str) -> Result<u64, ProtoError> {
    v.get(key)
        .and_then(JsonValue::as_u64)
        .ok_or_else(|| miss(key, "non-negative integer"))
}

fn opt_u64(v: &JsonValue, key: &str) -> Result<Option<u64>, ProtoError> {
    match v.get(key) {
        None | Some(JsonValue::Null) => Ok(None),
        Some(f) => f
            .as_u64()
            .map(Some)
            .ok_or_else(|| miss(key, "non-negative integer")),
    }
}

fn str_arr(v: &JsonValue, key: &str) -> Result<Vec<String>, ProtoError> {
    let arr = v
        .get(key)
        .and_then(JsonValue::as_arr)
        .ok_or_else(|| miss(key, "array"))?;
    arr.iter()
        .map(|s| {
            s.as_str()
                .map(str::to_string)
                .ok_or_else(|| miss(key, "array of strings"))
        })
        .collect()
}

fn named_pairs(
    v: &JsonValue,
    key: &str,
    value_key: &str,
) -> Result<Vec<(String, String)>, ProtoError> {
    match v.get(key) {
        None | Some(JsonValue::Null) => Ok(Vec::new()),
        Some(f) => {
            let arr = f.as_arr().ok_or_else(|| miss(key, "array"))?;
            arr.iter()
                .map(|e| {
                    let name = req_str(e, "name")
                        .map_err(|_| miss(&format!("{key}[i].name"), "string"))?;
                    let text = req_str(e, value_key)
                        .map_err(|_| miss(&format!("{key}[i].{value_key}"), "string"))?;
                    Ok((name, text))
                })
                .collect()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_requests() -> Vec<Request> {
        vec![
            Request::Hello {
                id: 1,
                version: PROTOCOL_VERSION,
                client: "test \"quoted\"\nclient".into(),
            },
            Request::Open {
                id: 2,
                session: "s1".into(),
                docs: vec![("edges".into(), r#"r{t{from{"1"},to{"2"}}, @tc}"#.into())],
                services: vec![("tc".into(), "t{from{$x},to{$y}} :- edges/r{}".into())],
            },
            Request::Run {
                id: 3,
                session: "s1".into(),
                mode: Some("delta".into()),
                max_invocations: Some(500),
            },
            Request::Query {
                id: 4,
                session: "s1".into(),
                query: "hit{$x} :- edges/r{t{from{$x}}}".into(),
            },
            Request::Batch {
                id: 5,
                session: "s1".into(),
                queries: vec!["a{$x} :- d/r{a{$x}}".into(), "b{$y} :- d/r{b{$y}}".into()],
            },
            Request::Subscribe {
                id: 6,
                session: "s1".into(),
                query: "hit{$x} :- edges/r{t{to{$x}}}".into(),
            },
            Request::Close {
                id: 7,
                session: "s1".into(),
            },
            Request::Stats { id: 8 },
            Request::Health { id: 9 },
            Request::TraceTail {
                id: 10,
                cat: Some("server".into()),
                session: Some("s1".into()),
                limit: Some(100),
            },
            Request::Shutdown { id: 11 },
        ]
    }

    fn all_responses() -> Vec<Response> {
        vec![
            Response::HelloOk {
                id: 1,
                version: PROTOCOL_VERSION,
                server: "axml-server/0.1.0".into(),
            },
            Response::OpenOk {
                id: 2,
                session: "s1".into(),
                docs: 1,
                services: 1,
            },
            Response::RunOk {
                id: 3,
                session: "s1".into(),
                status: "terminated".into(),
                rounds: 4,
                invocations: 12,
                version: 9,
            },
            Response::Answers {
                id: 4,
                session: "s1".into(),
                trees: vec![r#"hit{"1"}"#.into(), r#"hit{"2"}"#.into()],
            },
            Response::BatchOk {
                id: 5,
                session: "s1".into(),
                answers: vec![vec![r#"a{"1"}"#.into()], vec![]],
            },
            Response::SubOk {
                id: 6,
                session: "s1".into(),
            },
            Response::Delta {
                id: 6,
                session: "s1".into(),
                round: 2,
                version: 7,
                trees: vec![r#"hit{"3"}"#.into()],
            },
            Response::SubDone {
                id: 6,
                session: "s1".into(),
                status: "terminated".into(),
                rounds: 3,
                pushes: 2,
            },
            Response::Closed {
                id: 7,
                session: "s1".into(),
            },
            Response::StatsOk {
                id: 8,
                sessions: 1,
                requests: 20,
                served: 19,
                errors: 1,
                batches: 3,
                pushes: 2,
                counters: vec![("invocations".into(), 12), ("rounds".into(), 4)],
                latency: LatencySummary {
                    count: 19,
                    p50_ns: 65_000,
                    p99_ns: 410_000,
                    max_ns: 1_200_000,
                },
                services: vec![(
                    "tc".into(),
                    LatencySummary {
                        count: 12,
                        p50_ns: 9_000,
                        p99_ns: 31_000,
                        max_ns: 40_000,
                    },
                )],
                session_stats: vec![(
                    "s1".into(),
                    LatencySummary {
                        count: 19,
                        p50_ns: 65_000,
                        p99_ns: 410_000,
                        max_ns: 1_200_000,
                    },
                )],
            },
            Response::HealthOk {
                id: 9,
                server: "axml-server/0.1.0".into(),
                uptime_ms: 52_000,
                sessions: 1,
                conns: 2,
                journal_len: 4_096,
                journal_dropped: 137,
            },
            Response::TailOk { id: 10 },
            Response::Trace {
                id: 10,
                seq: 991,
                ts_ns: 7_000_123,
                worker: 0,
                trace: 42,
                cat: "server".into(),
                name: "serve query".into(),
                session: "s1".into(),
            },
            Response::TailDone {
                id: 10,
                sent: 100,
                dropped: 3,
            },
            Response::ShutdownOk { id: 11 },
            Response::Error {
                id: 4,
                code: codes::BAD_QUERY.into(),
                message: "parse error at 3".into(),
            },
        ]
    }

    #[test]
    fn every_request_round_trips() {
        let reqs = all_requests();
        assert_eq!(reqs.len(), Request::KINDS.len());
        for (req, kind) in reqs.iter().zip(Request::KINDS) {
            assert_eq!(req.kind(), kind, "fixture order matches KINDS");
            let line = req.to_json();
            assert!(!line.contains('\n'), "one frame per line: {line}");
            let back = Request::parse(&line).expect(kind);
            assert_eq!(&back, req, "round trip of {kind}: {line}");
        }
    }

    #[test]
    fn every_response_round_trips() {
        let resps = all_responses();
        assert_eq!(resps.len(), Response::KINDS.len());
        for (resp, kind) in resps.iter().zip(Response::KINDS) {
            assert_eq!(resp.kind(), kind, "fixture order matches KINDS");
            let line = resp.to_json();
            assert!(!line.contains('\n'), "one frame per line: {line}");
            let back = Response::parse(&line).expect(kind);
            assert_eq!(&back, resp, "round trip of {kind}: {line}");
        }
    }

    #[test]
    fn parse_accepts_line_terminators_and_defaults() {
        let r = Request::parse("{\"type\":\"stats\"}\r\n").unwrap();
        assert_eq!(r, Request::Stats { id: 0 });
        // `client`, `docs`, `services`, `mode`, `max_invocations` are
        // optional.
        let r = Request::parse(r#"{"type":"open","id":1,"session":"s"}"#).unwrap();
        assert_eq!(
            r,
            Request::Open {
                id: 1,
                session: "s".into(),
                docs: vec![],
                services: vec![]
            }
        );
        let r = Request::parse(r#"{"type":"run","session":"s"}"#).unwrap();
        assert_eq!(
            r,
            Request::Run {
                id: 0,
                session: "s".into(),
                mode: None,
                max_invocations: None
            }
        );
    }

    #[test]
    fn stats_ok_extended_fields_are_additive() {
        // A v1 stats_ok from before the extended snapshot still
        // parses: the new fields default to empty/zero (compatibility
        // policy: clients ignore fields they do not know; absent means
        // the old behavior).
        let old = r#"{"type":"stats_ok","id":8,"sessions":1,"requests":20,"served":19,"errors":1,"batches":3,"pushes":2}"#;
        let r = Response::parse(old).unwrap();
        match r {
            Response::StatsOk {
                counters,
                latency,
                services,
                session_stats,
                ..
            } => {
                assert!(counters.is_empty());
                assert_eq!(latency, LatencySummary::default());
                assert!(services.is_empty());
                assert!(session_stats.is_empty());
            }
            other => panic!("expected stats_ok, got {other:?}"),
        }
        // The other direction: fields this client does not know, such
        // as the `placement` rows and `peers` count older servers
        // sent, are ignored.
        let old = r#"{"type":"stats_ok","id":8,"sessions":1,"requests":20,"served":19,"errors":1,"batches":3,"pushes":2,"placement":[{"peer":"peer-0","docs_placed":3,"deltas_pushed":11,"bytes_pushed":2048,"rebalance_moves":0}]}"#;
        assert!(matches!(
            Response::parse(old),
            Ok(Response::StatsOk { sessions: 1, .. })
        ));
        let old = r#"{"type":"health_ok","id":9,"server":"x","uptime_ms":1,"sessions":0,"conns":1,"journal_len":0,"journal_dropped":0,"peers":4}"#;
        assert!(matches!(
            Response::parse(old),
            Ok(Response::HealthOk { conns: 1, .. })
        ));
        // A trace frame with no session omits the key on the wire and
        // parses back to the empty string.
        let t = Response::Trace {
            id: 1,
            seq: 0,
            ts_ns: 5,
            worker: 0,
            trace: 0,
            cat: "engine".into(),
            name: "round 0".into(),
            session: String::new(),
        };
        let line = t.to_json();
        assert!(!line.contains("session"), "{line}");
        assert_eq!(Response::parse(&line).unwrap(), t);
    }

    #[test]
    fn ids_above_2_pow_53_echo_verbatim() {
        // docs/protocol.md: the id is echoed verbatim; f64 would round
        // anything above 2^53, so the whole u64 range must round-trip.
        for id in [u64::MAX, (1 << 53) + 1] {
            let line = format!(r#"{{"type":"query","id":{id},"session":"s","query":"q"}}"#);
            let req = Request::parse(&line).unwrap();
            assert_eq!(req.id(), id);
            let resp = Response::Answers {
                id,
                session: "s".into(),
                trees: vec![],
            };
            let back = Response::parse(&resp.to_json()).unwrap();
            assert_eq!(back, resp, "response id {id} survives the wire");
        }
    }

    #[test]
    fn malformed_frames_map_to_error_codes() {
        let cases: &[(&str, &str)] = &[
            ("{not json", codes::BAD_JSON),
            ("[1,2,3]", codes::BAD_FRAME),
            (r#"{"id":1}"#, codes::BAD_FRAME),
            (r#"{"type":7}"#, codes::BAD_FRAME),
            (r#"{"type":"frobnicate"}"#, codes::UNKNOWN_TYPE),
            (r#"{"type":"query","session":"s"}"#, codes::BAD_FIELD),
            (
                r#"{"type":"query","session":9,"query":"q"}"#,
                codes::BAD_FIELD,
            ),
            (r#"{"type":"hello","version":-1}"#, codes::BAD_FIELD),
            (r#"{"type":"hello","version":1.5}"#, codes::BAD_FIELD),
            (
                r#"{"type":"batch","session":"s","queries":"q"}"#,
                codes::BAD_FIELD,
            ),
            (
                r#"{"type":"batch","session":"s","queries":[1]}"#,
                codes::BAD_FIELD,
            ),
            (
                r#"{"type":"open","session":"s","docs":[{"name":"d"}]}"#,
                codes::BAD_FIELD,
            ),
            (r#"{"type":"stats"} trailing"#, codes::BAD_JSON),
            (r#"{"type":"trace_tail","cat":7}"#, codes::BAD_FIELD),
            (r#"{"type":"trace_tail","limit":"many"}"#, codes::BAD_FIELD),
        ];
        for (line, want) in cases {
            let err = Request::parse(line).expect_err(line);
            assert_eq!(err.code, *want, "{line} → {err:?}");
            // A parse failure becomes an `error` frame that itself
            // round-trips.
            let frame = Response::from_error(0, err);
            let back = Response::parse(&frame.to_json()).unwrap();
            assert_eq!(back, frame);
        }
    }

    #[test]
    fn error_codes_are_distinct() {
        let mut seen = std::collections::HashSet::new();
        for c in ERROR_CODES {
            assert!(seen.insert(c), "duplicate error code {c}");
        }
    }
}
