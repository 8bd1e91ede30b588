//! The served engine: TCP accept loop, session table, dataloader
//! batching, and streaming subscriptions.
//!
//! One OS thread per connection (plus a reader thread feeding it
//! through a channel — the queue the dataloader drains), sessions in a
//! server-wide table shared across connections, and a [`SharedSink`]
//! funneling both server-lifecycle and (optionally) engine trace events
//! into one [`Journal`] + [`MetricsRegistry`] pair behind a mutex.
//!
//! The batching discipline is the dataloader one: the handler blocks
//! for the first frame, then drains whatever else has already arrived;
//! consecutive `query` frames for the same session inside that drain
//! are served against a single committed [`SystemSnapshot`] as one
//! batch (one [`EventKind::BatchFormed`] event). An explicit `batch`
//! frame is always its own batch. Answers are bit-for-bit what a
//! direct [`axml_core::snapshot`] against the same system returns.
//!
//! Each connection keeps a table of prepared queries (`Prepared`): a
//! query text is parsed and compiled the first time the connection
//! sends it, and every later `query` or `batch` frame repeating it runs
//! the compiled program. Every reply frame leaves in one socket write.
//!
//! Locking discipline (see `docs/mvcc.md`): each session splits into a
//! `writer` mutex — held by `run`/`subscribe` for a whole fixpoint
//! drive — and a `published` slot holding the latest committed
//! snapshot, swapped after every committed round. Readers never touch
//! the writer lock, so `query`/`stats` frames are answered while a
//! fixpoint is mid-round.

use crate::protocol::{codes, LatencySummary, ProtoError, Request, Response, PROTOCOL_VERSION};
use axml_core::compile::compile_traced;
use axml_core::display::compact;
use axml_core::engine::{EngineConfig, RunStatus};
use axml_core::eval::{prepared_query_sym, snapshot_prepared};
use axml_core::trace::{
    chrome_trace, chrome_trace_to, EventCategory, EventKind, Histogram, Journal, JournalConfig,
    MetricsRegistry, ReqKind, TraceEvent, TraceSink, Tracer,
};
use axml_core::{
    parse_query, AxmlError, CompiledQuery, Env, MatchStrategy, Query, QueryCursor, RoundRunner,
    Sym, System, SystemSnapshot,
};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// The server identification string sent in `hello_ok`.
pub const SERVER_IDENT: &str = concat!("axml-server/", env!("CARGO_PKG_VERSION"));

/// Admission-control knobs and engine defaults. See `docs/server.md`.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Connections accepted concurrently; further ones are refused
    /// with an `overloaded` error frame.
    pub max_conns: usize,
    /// Live sessions server-wide; further `open`s fail `overloaded`.
    pub max_sessions: usize,
    /// Most queries served against one committed snapshot — the cap
    /// both on explicit `batch` frames and on dataloader coalescing.
    pub max_batch: usize,
    /// Longest accepted frame line, bytes; longer ones fail
    /// `too-large` and the connection is closed (the stream can no
    /// longer be framed).
    pub max_frame_bytes: usize,
    /// Engine configuration sessions run with (`run` may lower, never
    /// raise, the invocation budget per request).
    pub engine: EngineConfig,
    /// Record engine-internal events (rounds, invocations, grafts …)
    /// in the server journal too, not only the server-lifecycle
    /// events. Verbose; off by default.
    pub trace_engine: bool,
    /// Socket write timeout. `subscribe` writes delta frames while
    /// holding the session's writer lock, so a client that stops
    /// reading would wedge other *writers* (queries keep flowing from
    /// the published snapshot); after this long stuck in one write the
    /// connection errors out and is closed instead. `None` disables
    /// the bound.
    pub write_timeout: Option<Duration>,
    /// Retention policy of the server journal. The default is the
    /// production profile — a bounded ring (~64k events, no sampling)
    /// — so always-on tracing cannot grow without bound; drops are
    /// counted and exposed via `health` and the metrics endpoint.
    pub journal: JournalConfig,
    /// When set, serve the Prometheus text exposition format on this
    /// address (e.g. `"127.0.0.1:9464"`) for scraping. `None` (the
    /// default) disables the listener.
    pub metrics_addr: Option<String>,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            max_conns: 64,
            max_sessions: 256,
            max_batch: 256,
            max_frame_bytes: 1 << 20,
            engine: EngineConfig::default(),
            trace_engine: false,
            write_timeout: Some(Duration::from_secs(30)),
            journal: JournalConfig::default(),
            metrics_addr: None,
        }
    }
}

/// A `Sync` trace sink: one [`Journal`] and one [`MetricsRegistry`]
/// behind a mutex, so connection threads (and, with
/// [`ServerConfig::trace_engine`], the engine itself) can record into a
/// single timeline. Sequence numbers are stamped in lock-acquisition
/// order, which keeps the journal strictly ordered. The journal is the
/// bounded production ring by default ([`JournalConfig::default`]);
/// every recorded event — retained or dropped — is also fanned out to
/// live `trace_tail` subscribers.
pub struct SharedSink {
    inner: Mutex<SinkInner>,
}

struct SinkInner {
    journal: Journal,
    metrics: MetricsRegistry,
    tails: Vec<TailSub>,
    next_tail: u64,
}

/// One live `trace_tail` stream: a bounded channel to the serving
/// thread plus the subscription's filters. Events the channel cannot
/// absorb are counted in `dropped`, never blocked on — recording must
/// stay non-blocking whatever a slow consumer does.
struct TailSub {
    id: u64,
    tx: mpsc::SyncSender<TraceEvent>,
    cat: Option<EventCategory>,
    session: Option<Sym>,
    dropped: Arc<AtomicU64>,
}

/// Buffered events per `trace_tail` subscriber before overflow counts
/// as drops.
const TAIL_BUFFER: usize = 1024;

impl SharedSink {
    /// A fresh sink with its own epoch and the production ring journal
    /// ([`JournalConfig::default`]).
    pub fn new() -> SharedSink {
        SharedSink::with_config(JournalConfig::default())
    }

    /// A fresh sink whose journal follows `cfg` (e.g.
    /// [`JournalConfig::unbounded`] for tests that assert on every
    /// event).
    pub fn with_config(cfg: JournalConfig) -> SharedSink {
        SharedSink {
            inner: Mutex::new(SinkInner {
                journal: Journal::with_config(cfg),
                metrics: MetricsRegistry::new(),
                tails: Vec::new(),
                next_tail: 0,
            }),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, SinkInner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Register a live tail over the event stream, filtered by
    /// category and/or session (attributed via
    /// [`EventKind::session`]). Returns the tail id (for
    /// [`SharedSink::unsubscribe_tail`]), the receiving end, and the
    /// overflow counter.
    pub fn subscribe_tail(
        &self,
        cat: Option<EventCategory>,
        session: Option<Sym>,
    ) -> (u64, mpsc::Receiver<TraceEvent>, Arc<AtomicU64>) {
        let (tx, rx) = mpsc::sync_channel(TAIL_BUFFER);
        let dropped = Arc::new(AtomicU64::new(0));
        let mut inner = self.lock();
        inner.next_tail += 1;
        let id = inner.next_tail;
        inner.tails.push(TailSub {
            id,
            tx,
            cat,
            session,
            dropped: Arc::clone(&dropped),
        });
        (id, rx, dropped)
    }

    /// Drop a live tail (idempotent).
    pub fn unsubscribe_tail(&self, id: u64) {
        self.lock().tails.retain(|t| t.id != id);
    }

    fn fan_out(tails: &mut Vec<TailSub>, ev: TraceEvent) {
        tails.retain(|t| {
            if t.cat.is_some_and(|c| c != ev.kind.category()) {
                return true;
            }
            if t.session.is_some_and(|s| ev.kind.session() != Some(s)) {
                return true;
            }
            match t.tx.try_send(ev) {
                Ok(()) => true,
                Err(mpsc::TrySendError::Full(_)) => {
                    t.dropped.fetch_add(1, Ordering::Relaxed);
                    true
                }
                // Receiver gone without unsubscribing: reap the tail.
                Err(mpsc::TrySendError::Disconnected(_)) => false,
            }
        });
    }

    /// The metrics report (includes the `server:` line once any
    /// request was served).
    pub fn report(&self, title: &str) -> String {
        self.lock().metrics.render_report(title)
    }

    /// The journal exported as a Chrome trace (server events on the
    /// dedicated server lane).
    pub fn chrome_trace(&self) -> String {
        chrome_trace(&self.lock().journal.snapshot())
    }

    /// Stream the Chrome trace export to `w` without assembling it in
    /// memory first — the right call for dumping a full ring.
    pub fn chrome_trace_to(&self, w: &mut impl Write) -> std::io::Result<()> {
        let events = self.lock().journal.snapshot();
        chrome_trace_to(&events, w)
    }

    /// Events retained in the journal so far.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.lock().journal.snapshot()
    }

    /// Events currently retained in the ring.
    pub fn journal_len(&self) -> usize {
        self.lock().journal.len()
    }

    /// Events dropped by the ring so far (evictions + sampling).
    pub fn journal_dropped(&self) -> u64 {
        self.lock().journal.dropped()
    }

    /// The all-sessions request-latency histogram (nanoseconds).
    pub fn request_latency(&self) -> Histogram {
        self.lock().metrics.request_latency()
    }

    /// A snapshot of the global metric counters.
    pub fn globals(&self) -> axml_core::trace::GlobalMetrics {
        self.lock().metrics.globals()
    }

    /// Per-service invocation-latency histograms, name-sorted.
    pub fn service_latencies(&self) -> Vec<(String, Histogram)> {
        let inner = self.lock();
        let mut v: Vec<(String, Histogram)> = inner
            .metrics
            .service_names()
            .into_iter()
            .filter_map(|s| {
                inner
                    .metrics
                    .service(s)
                    .map(|m| (s.as_str().to_string(), m.latency_ns))
            })
            .collect();
        v.sort_by(|a, b| a.0.cmp(&b.0));
        v
    }

    /// Per-session request-latency histograms, name-sorted.
    pub fn session_latencies(&self) -> Vec<(String, Histogram)> {
        let inner = self.lock();
        let mut v: Vec<(String, Histogram)> = inner
            .metrics
            .session_names()
            .into_iter()
            .filter_map(|s| {
                inner
                    .metrics
                    .session(s)
                    .map(|m| (s.as_str().to_string(), m.latency_ns))
            })
            .collect();
        v.sort_by(|a, b| a.0.cmp(&b.0));
        v
    }
}

impl Default for SharedSink {
    fn default() -> SharedSink {
        SharedSink::new()
    }
}

impl TraceSink for SharedSink {
    fn record(&self, kind: EventKind) {
        self.record_traced(kind, 0);
    }

    fn record_traced(&self, kind: EventKind, trace: u64) {
        let mut inner = self.lock();
        let ev = inner.journal.record_event(kind, trace);
        inner.metrics.record(kind);
        Self::fan_out(&mut inner.tails, ev);
    }
}

/// One session: a named AXML [`System`] shared by every connection
/// that names it, split MVCC-style into a writer side and a published
/// read side so the critical section readers contend on is commit-only.
///
/// * `writer` serializes mutating frames (`run`, `subscribe`): one
///   writer drives the fixpoint at a time, exactly the old one-lock
///   discipline.
/// * `published` holds the latest *committed* state as an O(1)
///   [`SystemSnapshot`]. The writer swaps it after every committed
///   round; `query`/`batch` readers lock it just long enough to clone
///   the `Arc` and evaluate entirely off-lock — concurrently with an
///   in-flight fixpoint, and with each other.
struct Session {
    writer: Mutex<System>,
    published: Mutex<SystemSnapshot>,
}

impl Session {
    fn new(sys: System) -> Session {
        let published = sys.snapshot();
        Session {
            writer: Mutex::new(sys),
            published: Mutex::new(published),
        }
    }

    /// The latest committed state — a few pointer bumps under a lock
    /// held for nanoseconds, never blocked on a running fixpoint.
    fn read(&self) -> SystemSnapshot {
        lock(&self.published).clone()
    }

    /// Publish a committed state for concurrent readers.
    fn publish(&self, snap: SystemSnapshot) {
        *lock(&self.published) = snap;
    }
}

struct Shared {
    cfg: ServerConfig,
    sink: SharedSink,
    sessions: Mutex<HashMap<String, Arc<Session>>>,
    conns: AtomicUsize,
    shutdown: AtomicBool,
    listen_addr: SocketAddr,
    /// Server start time — the `health` uptime reference.
    epoch: Instant,
    /// Request-scoped trace-id source: every parsed request frame gets
    /// the next id, carried through every event it provokes.
    next_trace: AtomicU64,
    /// Query texts compiled into a connection's `Prepared` table, over
    /// all connections.
    prepared_compiles: AtomicU64,
    /// Times a connection's `Prepared` table was cleared to stay within
    /// its byte bound, over all connections.
    prepared_clears: AtomicU64,
}

/// The server entry point — see [`Server::spawn`].
pub struct Server;

/// A handle on a spawned server: its bound address, a shutdown switch,
/// and access to the shared trace sink for reports and Chrome-trace
/// export.
pub struct ServerHandle {
    addr: SocketAddr,
    metrics_addr: Option<SocketAddr>,
    shared: Arc<Shared>,
    accept: Option<thread::JoinHandle<()>>,
    metrics: Option<thread::JoinHandle<()>>,
    conn_threads: Arc<Mutex<Vec<thread::JoinHandle<()>>>>,
}

impl Server {
    /// Bind `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// serve on a background thread. Returns once the listener is
    /// bound, so [`ServerHandle::addr`] is immediately connectable.
    /// With [`ServerConfig::metrics_addr`] set, the Prometheus
    /// exposition listener is bound here too.
    pub fn spawn(addr: impl ToSocketAddrs, cfg: ServerConfig) -> std::io::Result<ServerHandle> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let journal = cfg.journal.clone();
        let metrics_listener = match &cfg.metrics_addr {
            Some(maddr) => {
                let l = TcpListener::bind(maddr.as_str())?;
                // Non-blocking so the loop can poll the shutdown flag.
                l.set_nonblocking(true)?;
                Some(l)
            }
            None => None,
        };
        let metrics_addr = metrics_listener.as_ref().and_then(|l| l.local_addr().ok());
        let shared = Arc::new(Shared {
            cfg,
            sink: SharedSink::with_config(journal),
            sessions: Mutex::new(HashMap::new()),
            conns: AtomicUsize::new(0),
            shutdown: AtomicBool::new(false),
            listen_addr: addr,
            epoch: Instant::now(),
            next_trace: AtomicU64::new(0),
            prepared_compiles: AtomicU64::new(0),
            prepared_clears: AtomicU64::new(0),
        });
        let conn_threads = Arc::new(Mutex::new(Vec::new()));
        let accept = {
            let shared = Arc::clone(&shared);
            let conn_threads = Arc::clone(&conn_threads);
            thread::spawn(move || accept_loop(listener, shared, conn_threads))
        };
        let metrics = metrics_listener.map(|l| {
            let shared = Arc::clone(&shared);
            thread::spawn(move || metrics_loop(l, shared))
        });
        Ok(ServerHandle {
            addr,
            metrics_addr,
            shared,
            accept: Some(accept),
            metrics,
            conn_threads,
        })
    }
}

impl ServerHandle {
    /// The bound listen address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The bound Prometheus exposition address, when enabled.
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.metrics_addr
    }

    /// Whether a `shutdown` frame (or [`ServerHandle::shutdown`]) has
    /// stopped admission.
    pub fn is_shutting_down(&self) -> bool {
        self.shared.shutdown.load(Ordering::SeqCst)
    }

    /// Stop accepting connections (idempotent). Existing connections
    /// are served until their client disconnects.
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        // Poke the accept loop out of `accept()`.
        let _ = TcpStream::connect(self.addr);
    }

    /// Wait for the accept loop and every connection thread to finish.
    /// Call after [`ServerHandle::shutdown`] once clients have
    /// disconnected; blocks while any connection is still open.
    pub fn join(&mut self) {
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        if let Some(h) = self.metrics.take() {
            let _ = h.join();
        }
        let handles = std::mem::take(&mut *lock(&self.conn_threads));
        for h in handles {
            let _ = h.join();
        }
    }

    /// The metrics report rendered from the shared sink.
    pub fn report(&self, title: &str) -> String {
        self.shared.sink.report(title)
    }

    /// The shared sink (journal + metrics) for trace export.
    pub fn sink(&self) -> &SharedSink {
        &self.shared.sink
    }
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

fn accept_loop(
    listener: TcpListener,
    shared: Arc<Shared>,
    conn_threads: Arc<Mutex<Vec<thread::JoinHandle<()>>>>,
) {
    for stream in listener.incoming() {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        // Request/response frames are small; Nagle's algorithm would
        // stall each one behind the peer's delayed ACK.
        let _ = stream.set_nodelay(true);
        let prev = shared.conns.fetch_add(1, Ordering::SeqCst);
        if prev >= shared.cfg.max_conns {
            shared.conns.fetch_sub(1, Ordering::SeqCst);
            refuse(stream, codes::OVERLOADED, "connection limit reached");
            continue;
        }
        // A subscriber that stops reading would hold its session lock
        // across a blocked write forever; with a timeout the write
        // fails instead and the connection is dropped, releasing the
        // lock.
        let _ = stream.set_write_timeout(shared.cfg.write_timeout);
        let shared = Arc::clone(&shared);
        let h = thread::spawn(move || {
            let _ = handle_connection(&stream, &shared);
            drop(stream);
            shared.conns.fetch_sub(1, Ordering::SeqCst);
        });
        let mut threads = lock(&conn_threads);
        // Reap finished handles so a long-lived server does not grow
        // this Vec one entry per connection it ever served.
        threads.retain(|h| !h.is_finished());
        threads.push(h);
    }
}

fn refuse(mut stream: TcpStream, code: &'static str, msg: &str) {
    let _ = write_frame(
        &mut stream,
        &Response::from_error(0, ProtoError::new(code, msg)),
    );
}

/// The Prometheus exposition listener: a minimal HTTP/1.0 responder
/// serving one text-format document per connection, hand-rolled over
/// `std::net` like the rest of the server. Polls `accept` so the
/// shutdown flag ends the loop within one poll interval.
fn metrics_loop(listener: TcpListener, shared: Arc<Shared>) {
    while !shared.shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => serve_scrape(stream, &shared),
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                thread::sleep(Duration::from_millis(25));
            }
            Err(_) => thread::sleep(Duration::from_millis(25)),
        }
    }
}

/// Answer one scrape: drain the request head, render the snapshot,
/// write one `HTTP/1.0 200` with `Content-Length` and close.
fn serve_scrape(mut stream: TcpStream, shared: &Arc<Shared>) {
    let _ = stream.set_nonblocking(false);
    let _ = stream.set_read_timeout(Some(Duration::from_secs(2)));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(10)));
    // The request head is irrelevant — every path gets the same
    // document — but must be consumed before some clients will read.
    let mut head = Vec::new();
    let mut buf = [0u8; 512];
    while !head.windows(4).any(|w| w == b"\r\n\r\n") && head.len() < 8 * 1024 {
        match stream.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(n) => head.extend_from_slice(&buf[..n]),
        }
    }
    let body = render_scrape(shared);
    let _ = write!(
        stream,
        "HTTP/1.0 200 OK\r\nContent-Type: text/plain; version=0.0.4\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    let _ = stream.write_all(body.as_bytes());
    let _ = stream.flush();
}

fn render_scrape(shared: &Arc<Shared>) -> String {
    crate::metrics::render_prometheus(&server_snapshot(shared))
}

/// What the scrape page and the `stats` frame report, copied now.
fn server_snapshot(shared: &Shared) -> crate::metrics::ServerSnapshot {
    crate::metrics::ServerSnapshot {
        globals: shared.sink.globals(),
        request_latency: shared.sink.request_latency(),
        services: shared.sink.service_latencies(),
        sessions: lock(&shared.sessions).len() as u64,
        conns: shared.conns.load(Ordering::SeqCst) as u64,
        journal_len: shared.sink.journal_len() as u64,
        journal_dropped: shared.sink.journal_dropped(),
        uptime: shared.epoch.elapsed(),
        prepared_compiles: shared.prepared_compiles.load(Ordering::Relaxed),
        prepared_clears: shared.prepared_clears.load(Ordering::Relaxed),
    }
}

/// What the reader thread hands the serving loop: a parsed request
/// paired with its freshly assigned trace id, or the protocol error
/// its line produced. `RequestRecv` is emitted at read time, so
/// receive timestamps are honest under batching.
type Inbound = Result<(Request, u64), ProtoError>;

fn handle_connection(stream: &TcpStream, shared: &Arc<Shared>) -> std::io::Result<()> {
    let mut out = stream.try_clone()?;
    let (tx, rx) = mpsc::channel::<Inbound>();
    let reader_shared = Arc::clone(shared);
    let reader_stream = stream.try_clone()?;
    let reader = thread::spawn(move || read_loop(reader_stream, &reader_shared, &tx));

    let mut prepared = Prepared::new(shared.cfg.max_frame_bytes);
    let mut pending: std::collections::VecDeque<Inbound> = std::collections::VecDeque::new();
    'serve: loop {
        if pending.is_empty() {
            match rx.recv() {
                Ok(m) => pending.push_back(m),
                Err(_) => break 'serve, // reader hung up: EOF or I/O error
            }
        }
        while let Ok(m) = rx.try_recv() {
            pending.push_back(m);
        }
        let first = pending.pop_front().expect("refilled above");
        match first {
            Err(e) => {
                // Unparseable frames get an error frame on the wire but
                // no RequestRecv/RequestServed pair — the metrics track
                // frames the protocol could attribute.
                let fatal = e.code == codes::TOO_LARGE;
                write_frame(&mut out, &Response::from_error(0, e))?;
                if fatal {
                    break 'serve; // framing is lost; the stream is unusable
                }
            }
            Ok((req @ Request::Query { .. }, trace)) => {
                // Dataloader coalescing: drain consecutive already-arrived
                // queries for the same session into one batch.
                let mut group = vec![(req, trace)];
                while group.len() < shared.cfg.max_batch {
                    match pending.front() {
                        Some(Ok((Request::Query { session, .. }, _)))
                            if Some(session.as_str()) == group[0].0.session() =>
                        {
                            let Some(Ok(q)) = pending.pop_front() else {
                                unreachable!()
                            };
                            group.push(q);
                        }
                        _ => break,
                    }
                }
                serve_query_group(shared, &mut out, &mut prepared, &group)?;
            }
            Ok((req, trace)) => serve_one(shared, &mut out, &mut prepared, req, trace)?,
        }
    }
    drop(rx); // unblocks the reader's send() if it is mid-frame
    let _ = stream.shutdown(std::net::Shutdown::Both);
    let _ = reader.join();
    Ok(())
}

/// Read frames off the socket, parse them, emit `RequestRecv`, and
/// queue them for the serving loop. Runs on its own thread so frames
/// arriving while the server is busy pile up in the channel — the
/// queue the dataloader batches from.
fn read_loop(stream: TcpStream, shared: &Arc<Shared>, tx: &mpsc::Sender<Inbound>) {
    let max = shared.cfg.max_frame_bytes as u64;
    let mut reader = BufReader::new(stream).take(0);
    let mut line = String::new();
    loop {
        line.clear();
        reader.set_limit(max + 1);
        match reader.read_line(&mut line) {
            Ok(0) => return, // EOF
            Ok(_) => {}
            Err(_) => return,
        }
        if !line.ends_with('\n') && line.len() as u64 > max {
            let e = ProtoError::new(
                codes::TOO_LARGE,
                format!("frame exceeds max_frame_bytes ({max})"),
            );
            let _ = tx.send(Err(e));
            return; // cannot resynchronize on the stream
        }
        let msg = match Request::parse(&line) {
            Ok(req) => {
                // One trace id per request frame, assigned at receive
                // time; every event the request provokes carries it.
                let trace = shared.next_trace.fetch_add(1, Ordering::Relaxed) + 1;
                shared.sink.record_traced(
                    EventKind::RequestRecv {
                        session: session_sym(req.session()),
                        kind: req_kind(&req),
                        id: req.id(),
                    },
                    trace,
                );
                Ok((req, trace))
            }
            Err(e) => Err(e),
        };
        if tx.send(msg).is_err() {
            return; // server side of the connection is gone
        }
    }
}

fn session_sym(name: Option<&str>) -> Sym {
    Sym::intern(name.unwrap_or("-"))
}

fn req_kind(req: &Request) -> ReqKind {
    match req {
        Request::Hello { .. } => ReqKind::Hello,
        Request::Open { .. } => ReqKind::Open,
        Request::Run { .. } => ReqKind::Run,
        Request::Query { .. } => ReqKind::Query,
        Request::Batch { .. } => ReqKind::Batch,
        Request::Subscribe { .. } => ReqKind::Subscribe,
        Request::Close { .. } => ReqKind::Close,
        Request::Stats { .. } => ReqKind::Stats,
        Request::Health { .. } => ReqKind::Health,
        Request::TraceTail { .. } => ReqKind::TraceTail,
        Request::Shutdown { .. } => ReqKind::Shutdown,
    }
}

/// Send one frame with one write: its JSON line and the newline that
/// ends it leave as one buffer, so a reply is one segment on the wire
/// (`TCP_NODELAY` sends each write at once).
fn write_frame(out: &mut TcpStream, frame: &Response) -> std::io::Result<()> {
    out.write_all(frame_line(frame).as_bytes())
}

/// The wire line of `frame`: its JSON and the newline that ends it.
fn frame_line(frame: &Response) -> String {
    let mut line = frame.to_json();
    line.push('\n');
    line
}

#[allow(clippy::too_many_arguments)]
fn served(
    shared: &Shared,
    session: Sym,
    kind: ReqKind,
    id: u64,
    ok: bool,
    started: Instant,
    trace: u64,
) {
    shared.sink.record_traced(
        EventKind::RequestServed {
            session,
            kind,
            id,
            ok,
            dur_ns: started.elapsed().as_nanos() as u64,
        },
        trace,
    );
}

/// Serve one non-query request (queries batch through
/// [`serve_query_group`]). The connection always stays open — even
/// after `shutdown`, the client decides when to hang up.
fn serve_one(
    shared: &Arc<Shared>,
    out: &mut TcpStream,
    prepared: &mut Prepared,
    req: Request,
    trace: u64,
) -> std::io::Result<()> {
    let started = Instant::now();
    let (id, kind) = (req.id(), req_kind(&req));
    let sym = session_sym(req.session());
    let reply = dispatch(shared, out, prepared, &req, trace)?;
    match reply {
        Ok(frame) => {
            write_frame(out, &frame)?;
            served(shared, sym, kind, id, true, started, trace);
        }
        Err(e) => {
            write_frame(out, &Response::from_error(id, e))?;
            served(shared, sym, kind, id, false, started, trace);
        }
    }
    Ok(())
}

/// Serve every request frame except `query` (those batch through
/// [`serve_query_group`]). `subscribe` writes its own stream of frames
/// and reports the terminal `sub_done` as its reply.
fn dispatch(
    shared: &Arc<Shared>,
    out: &mut TcpStream,
    prepared: &mut Prepared,
    req: &Request,
    trace: u64,
) -> std::io::Result<Result<Response, ProtoError>> {
    Ok(match req {
        Request::Hello {
            id,
            version,
            client: _,
        } => {
            if *version == PROTOCOL_VERSION {
                Ok(Response::HelloOk {
                    id: *id,
                    version: PROTOCOL_VERSION,
                    server: SERVER_IDENT.to_string(),
                })
            } else {
                Err(ProtoError::new(
                    codes::UNSUPPORTED_VERSION,
                    format!(
                        "server speaks protocol v{PROTOCOL_VERSION}, client asked for v{version}"
                    ),
                ))
            }
        }
        Request::Open {
            id,
            session,
            docs,
            services,
        } => open_session(shared, *id, session, docs, services),
        Request::Run {
            id,
            session,
            mode,
            max_invocations,
        } => run_session(
            shared,
            *id,
            session,
            mode.as_deref(),
            *max_invocations,
            trace,
        ),
        Request::Batch {
            id,
            session,
            queries,
        } => serve_batch_frame(shared, prepared, *id, session, queries, trace),
        Request::Subscribe { id, session, query } => {
            return serve_subscribe(shared, out, *id, session, query, trace)
        }
        Request::Close { id, session } => match lock(&shared.sessions).remove(session) {
            Some(_) => Ok(Response::Closed {
                id: *id,
                session: session.clone(),
            }),
            None => Err(unknown_session(session)),
        },
        Request::Stats { id } => {
            let snap = server_snapshot(shared);
            let g = &snap.globals;
            Ok(Response::StatsOk {
                id: *id,
                sessions: snap.sessions,
                requests: g.requests_recv,
                served: g.requests_served,
                errors: g.request_errors,
                batches: g.batches_formed,
                pushes: g.subscription_pushes,
                counters: crate::metrics::counters(&snap)
                    .into_iter()
                    .map(|(n, v)| (n.to_string(), v))
                    .collect(),
                latency: LatencySummary::from_histogram(&snap.request_latency),
                services: snap
                    .services
                    .iter()
                    .map(|(n, h)| (n.clone(), LatencySummary::from_histogram(h)))
                    .collect(),
                session_stats: shared
                    .sink
                    .session_latencies()
                    .into_iter()
                    .map(|(n, h)| (n, LatencySummary::from_histogram(&h)))
                    .collect(),
            })
        }
        Request::Health { id } => Ok(Response::HealthOk {
            id: *id,
            server: SERVER_IDENT.to_string(),
            uptime_ms: shared.epoch.elapsed().as_millis() as u64,
            sessions: lock(&shared.sessions).len() as u64,
            conns: shared.conns.load(Ordering::SeqCst) as u64,
            journal_len: shared.sink.journal_len() as u64,
            journal_dropped: shared.sink.journal_dropped(),
        }),
        Request::TraceTail {
            id,
            cat,
            session,
            limit,
        } => return serve_trace_tail(shared, out, *id, cat.as_deref(), session.as_deref(), *limit),
        Request::Shutdown { id } => {
            if shared.shutdown.swap(true, Ordering::SeqCst) {
                Err(ProtoError::new(
                    codes::SHUTTING_DOWN,
                    "already shutting down",
                ))
            } else {
                // Poke the accept loop so it notices the flag.
                let _ = TcpStream::connect(shared.listen_addr);
                Ok(Response::ShutdownOk { id: *id })
            }
        }
        Request::Query { .. } => unreachable!("queries go through serve_query_group"),
    })
}

fn unknown_session(session: &str) -> ProtoError {
    ProtoError::new(codes::UNKNOWN_SESSION, format!("no session {session:?}"))
}

/// Serve a `trace_tail`: validate the filters, reply `tail_ok`, then
/// forward live events as `trace` frames until the limit is reached,
/// the server drains, or the connection dies; finish with `tail_done`.
/// Runs on the connection's serving thread, so a tailing connection
/// serves nothing else until the tail ends — open a second connection
/// to keep issuing requests while observing them.
fn serve_trace_tail(
    shared: &Arc<Shared>,
    out: &mut TcpStream,
    id: u64,
    cat: Option<&str>,
    session: Option<&str>,
    limit: Option<u64>,
) -> std::io::Result<Result<Response, ProtoError>> {
    let cat = match cat {
        None => None,
        Some(name) => match EventCategory::parse(name) {
            Some(c) => Some(c),
            None => {
                return Ok(Err(ProtoError::new(
                    codes::BAD_FIELD,
                    format!("unknown trace category {name:?}"),
                )))
            }
        },
    };
    let session = session.map(Sym::intern);
    let (tail_id, rx, dropped) = shared.sink.subscribe_tail(cat, session);
    write_frame(out, &Response::TailOk { id })?;
    let mut sent = 0u64;
    while limit.is_none_or(|n| sent < n) {
        match rx.recv_timeout(Duration::from_millis(50)) {
            Ok(ev) => {
                let frame = Response::Trace {
                    id,
                    seq: ev.seq,
                    ts_ns: ev.ts_ns,
                    worker: 0,
                    trace: ev.trace,
                    cat: ev.kind.category().name().to_string(),
                    name: ev.kind.label(),
                    session: ev
                        .kind
                        .session()
                        .map(|s| s.as_str().to_string())
                        .unwrap_or_default(),
                };
                if write_frame(out, &frame).is_err() {
                    break; // subscriber gone; tail_done will fail too
                }
                sent += 1;
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    break;
                }
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => break,
        }
    }
    shared.sink.unsubscribe_tail(tail_id);
    Ok(Ok(Response::TailDone {
        id,
        sent,
        dropped: dropped.load(Ordering::Relaxed),
    }))
}

fn open_session(
    shared: &Shared,
    id: u64,
    session: &str,
    docs: &[(String, String)],
    services: &[(String, String)],
) -> Result<Response, ProtoError> {
    if shared.shutdown.load(Ordering::SeqCst) {
        return Err(ProtoError::new(codes::SHUTTING_DOWN, "server is draining"));
    }
    let mut sys = System::new();
    for (name, text) in docs {
        sys.add_document_text(name, text)
            .map_err(|e| ProtoError::new(codes::BAD_SYSTEM, format!("document {name:?}: {e}")))?;
    }
    for (name, rule) in services {
        sys.add_service_text(name, rule)
            .map_err(|e| ProtoError::new(codes::BAD_SYSTEM, format!("service {name:?}: {e}")))?;
    }
    let mut table = lock(&shared.sessions);
    if table.len() >= shared.cfg.max_sessions {
        return Err(ProtoError::new(codes::OVERLOADED, "session limit reached"));
    }
    if table.contains_key(session) {
        return Err(ProtoError::new(
            codes::SESSION_EXISTS,
            format!("session {session:?} already exists"),
        ));
    }
    table.insert(session.to_string(), Arc::new(Session::new(sys)));
    Ok(Response::OpenOk {
        id,
        session: session.to_string(),
        docs: docs.len() as u64,
        services: services.len() as u64,
    })
}

fn get_session(shared: &Shared, session: &str) -> Result<Arc<Session>, ProtoError> {
    lock(&shared.sessions)
        .get(session)
        .cloned()
        .ok_or_else(|| unknown_session(session))
}

fn engine_cfg(
    base: &EngineConfig,
    mode: Option<&str>,
    max_invocations: Option<u64>,
) -> Result<EngineConfig, ProtoError> {
    let mut cfg = *base;
    // The engine has one mode. A v1 client may still name either of the
    // two it once had: with the budget counting call visits, both give
    // the same documents at every budget.
    match mode {
        None | Some("naive") | Some("delta") => {}
        Some(other) => {
            return Err(ProtoError::new(
                codes::BAD_FIELD,
                format!("mode must be \"naive\" or \"delta\", got {other:?}"),
            ))
        }
    }
    // The server's own budget is a ceiling: a client may lower it per
    // request, never raise it.
    if let Some(b) = max_invocations {
        if b > base.max_invocations as u64 {
            return Err(ProtoError::new(
                codes::TOO_LARGE,
                format!(
                    "max_invocations {b} exceeds the server ceiling {}",
                    base.max_invocations
                ),
            ));
        }
        cfg.max_invocations = b as usize;
    }
    Ok(cfg)
}

fn status_str(status: RunStatus) -> &'static str {
    match status {
        RunStatus::Terminated => "terminated",
        RunStatus::InvocationBudget => "invocation-budget",
        RunStatus::NodeBudget => "node-budget",
    }
}

/// The tracer a request's engine work reports to: the shared sink under
/// the request's trace id with [`ServerConfig::trace_engine`], else none.
fn engine_tracer(shared: &Shared, trace: u64) -> Tracer<'_> {
    if shared.cfg.trace_engine {
        Tracer::new(&shared.sink).with_trace(trace)
    } else {
        Tracer::disabled()
    }
}

fn run_session(
    shared: &Shared,
    id: u64,
    session: &str,
    mode: Option<&str>,
    max_invocations: Option<u64>,
    trace: u64,
) -> Result<Response, ProtoError> {
    let cfg = engine_cfg(&shared.cfg.engine, mode, max_invocations)?;
    let sess = get_session(shared, session)?;
    // Writer lock: one fixpoint drive at a time. Readers never take
    // it — they follow the published snapshot, which is swapped below
    // after every committed round.
    let mut sys = lock(&sess.writer);
    let tracer = engine_tracer(shared, trace);
    let mut runner = RoundRunner::new(&cfg);
    let status = loop {
        match runner.step(&mut sys, tracer) {
            Ok(step) => {
                // Commit-only critical section: each committed round is
                // republished (O(1)) so concurrent `query`/`batch`
                // frames see the freshest consistent state mid-run.
                if let Some(snap) = runner.snapshot() {
                    sess.publish(snap);
                }
                if let Some(status) = step {
                    break status;
                }
            }
            Err(e) => return Err(ProtoError::new(codes::ENGINE_FAILED, e.to_string())),
        }
    };
    let stats = runner.stats(&sys);
    Ok(Response::RunOk {
        id,
        session: session.to_string(),
        status: status_str(status).to_string(),
        rounds: stats.rounds as u64,
        invocations: (stats.invocations + stats.skipped) as u64,
        version: sys.version(),
    })
}

/// A connection's prepared queries, keyed by query text: each text is
/// parsed and compiled ([`MatchStrategy::Indexed`]) the first time the
/// connection sends it, and run from here by every frame that repeats
/// it. A program reads no document, so one entry serves every session
/// the connection names; the documents a query names are still checked
/// per frame, against that frame's session. The keys hold at most
/// [`ServerConfig::max_frame_bytes`] of text: an insert that would pass
/// the bound clears the table first.
struct Prepared {
    table: HashMap<Box<str>, (Query, CompiledQuery)>,
    /// Bytes of query text held as keys.
    bytes: usize,
    max_bytes: usize,
}

impl Prepared {
    fn new(max_bytes: usize) -> Prepared {
        Prepared {
            table: HashMap::new(),
            bytes: 0,
            max_bytes,
        }
    }

    /// The parsed query and program of `text`, compiled on a miss (which
    /// emits [`EventKind::PlanCompiled`] into `tracer`). A text that does
    /// not parse is a `bad-query` and is not kept.
    fn get(
        &mut self,
        text: &str,
        shared: &Shared,
        tracer: Tracer<'_>,
    ) -> Result<&(Query, CompiledQuery), ProtoError> {
        if !self.table.contains_key(text) {
            let q =
                parse_query(text).map_err(|e| ProtoError::new(codes::BAD_QUERY, e.to_string()))?;
            if self.bytes + text.len() > self.max_bytes {
                self.table.clear();
                self.bytes = 0;
                shared.prepared_clears.fetch_add(1, Ordering::Relaxed);
            }
            let (compiled, _) =
                compile_traced(&q, MatchStrategy::Indexed, prepared_query_sym(), tracer);
            shared.prepared_compiles.fetch_add(1, Ordering::Relaxed);
            self.bytes += text.len();
            self.table.insert(text.into(), (q, compiled));
        }
        Ok(&self.table[text])
    }
}

/// Answer one query text against `sys` through the connection's
/// prepared program, each answer tree rendered once.
fn eval_query(
    shared: &Shared,
    prepared: &mut Prepared,
    sys: &System,
    text: &str,
    trace: u64,
) -> Result<Vec<String>, ProtoError> {
    let tracer = engine_tracer(shared, trace);
    let (q, compiled) = prepared.get(text, shared, tracer)?;
    check_docs(q, sys)?;
    let env = Env::for_system(sys);
    let forest = snapshot_prepared(q, &env, compiled, tracer)
        .map_err(|e| ProtoError::new(codes::ENGINE_FAILED, e.to_string()))?;
    Ok(forest.trees().iter().map(compact).collect())
}

/// A query naming a document the session does not hold is a bad query,
/// whatever the data: resolved up front, every body atom, before
/// anything is evaluated (the evaluator would report it as an engine
/// error, or not at all once an earlier atom came back empty).
fn check_docs(q: &Query, sys: &System) -> Result<(), ProtoError> {
    match q.body.iter().find(|a| sys.doc(a.doc).is_none()) {
        Some(a) => Err(ProtoError::new(
            codes::BAD_QUERY,
            AxmlError::UnknownDocument(a.doc).to_string(),
        )),
        None => Ok(()),
    }
}

/// Serve a dataloader batch of `query` frames: one session lock, one
/// [`EventKind::BatchFormed`], one `answers` (or `error`) frame per
/// member, in arrival order.
fn serve_query_group(
    shared: &Shared,
    out: &mut TcpStream,
    prepared: &mut Prepared,
    group: &[(Request, u64)],
) -> std::io::Result<()> {
    let batch_start = Instant::now();
    let session = group[0].0.session().expect("queries carry a session");
    let sym = session_sym(Some(session));
    let sess = get_session(shared, session);
    // One snapshot for the whole group — every member answers against
    // the same committed system state (docs/protocol.md, Batching
    // semantics). No writer lock is taken: queries are served from the
    // published MVCC snapshot even while another connection is driving
    // a fixpoint over the same session.
    let snap = sess.as_ref().ok().map(|s| s.read());
    for (req, trace) in group {
        let Request::Query { id, query, .. } = req else {
            unreachable!()
        };
        let started = Instant::now();
        let reply = match &snap {
            Some(s) => eval_query(shared, prepared, s.system(), query, *trace).map(|trees| {
                Response::Answers {
                    id: *id,
                    session: session.to_string(),
                    trees,
                }
            }),
            None => Err(sess
                .as_ref()
                .err()
                .cloned()
                .expect("no snapshot only when the session lookup failed")),
        };
        let ok = reply.is_ok();
        match reply {
            Ok(frame) => write_frame(out, &frame)?,
            Err(e) => write_frame(out, &Response::from_error(*id, e))?,
        }
        served(shared, sym, ReqKind::Query, *id, ok, started, *trace);
    }
    // The group event carries the first member's trace id — the frame
    // whose arrival opened the batch window.
    shared.sink.record_traced(
        EventKind::BatchFormed {
            session: sym,
            size: group.len() as u32,
            dur_ns: batch_start.elapsed().as_nanos() as u64,
        },
        group[0].1,
    );
    Ok(())
}

/// Serve an explicit `batch` frame: all queries against one committed
/// snapshot, answers gathered into a single `batch_ok`. One bad query
/// fails the whole frame (the batch is atomic on the wire).
fn serve_batch_frame(
    shared: &Shared,
    prepared: &mut Prepared,
    id: u64,
    session: &str,
    queries: &[String],
    trace: u64,
) -> Result<Response, ProtoError> {
    let started = Instant::now();
    if queries.len() > shared.cfg.max_batch {
        return Err(ProtoError::new(
            codes::OVERLOADED,
            format!(
                "batch of {} exceeds max_batch {}",
                queries.len(),
                shared.cfg.max_batch
            ),
        ));
    }
    // One snapshot for the whole frame: atomic on the wire, and served
    // off the writer lock so an in-flight `run` never delays it.
    let snap = get_session(shared, session)?.read();
    let mut answers = Vec::with_capacity(queries.len());
    for q in queries {
        answers.push(eval_query(shared, prepared, snap.system(), q, trace)?);
    }
    shared.sink.record_traced(
        EventKind::BatchFormed {
            session: session_sym(Some(session)),
            size: queries.len() as u32,
            dur_ns: started.elapsed().as_nanos() as u64,
        },
        trace,
    );
    Ok(Response::BatchOk {
        id,
        session: session.to_string(),
        answers,
    })
}

/// Serve a `subscribe`: `sub_ok`, then drive the session's rewriting
/// round by round, pushing a `delta` frame whenever the continuous
/// query's answer set grew, and finish with `sub_done`. The writer
/// lock is held for the whole drive — the fixpoint the subscriber
/// observes is exactly one fair run — but every committed round is
/// republished, and the delta pushes themselves are computed
/// snapshot-to-snapshot, so concurrent `query`/`stats` frames are
/// answered while the fixpoint is still in flight.
fn serve_subscribe(
    shared: &Shared,
    out: &mut TcpStream,
    id: u64,
    session: &str,
    query: &str,
    trace: u64,
) -> std::io::Result<Result<Response, ProtoError>> {
    let q = match parse_query(query) {
        Ok(q) => q,
        Err(e) => return Ok(Err(ProtoError::new(codes::BAD_QUERY, e.to_string()))),
    };
    let sess = match get_session(shared, session) {
        Ok(s) => s,
        Err(e) => return Ok(Err(e)),
    };
    // Writer lock for the whole drive (one fair run), republishing a
    // snapshot after every committed round.
    let mut sys = lock(&sess.writer);
    if let Err(e) = check_docs(&q, &sys) {
        return Ok(Err(e));
    }
    let sym = session_sym(Some(session));
    write_frame(
        out,
        &Response::SubOk {
            id,
            session: session.to_string(),
        },
    )?;
    let mut cursor = QueryCursor::new(q);
    let mut runner = RoundRunner::new(&shared.cfg.engine);
    let tracer = engine_tracer(shared, trace);
    let mut pushes = 0u64;
    let mut done: Option<RunStatus> = None;
    // Deltas are computed snapshot-to-snapshot: `cur` starts at the
    // state visible when the subscription opened and advances to each
    // committed round's published snapshot.
    let mut cur = sys.snapshot();
    let status = loop {
        // Poll before the first round (answers already present in the
        // opened system are the round-0 delta) and after every round,
        // the terminal one included (it may still have derived
        // answers). A round that moved no document the query reads
        // costs its poll nothing: the cursor answers it without
        // evaluating.
        let fresh = match cursor.poll(cur.system()) {
            Ok(fresh) => fresh,
            Err(e) => return Ok(Err(ProtoError::new(codes::ENGINE_FAILED, e.to_string()))),
        };
        if !fresh.is_empty() {
            let trees: Vec<String> = fresh.iter().map(compact).collect();
            shared.sink.record_traced(
                EventKind::SubscriptionPush {
                    session: sym,
                    sub: id,
                    trees: trees.len() as u32,
                    round: runner.rounds() as u64,
                    version: cur.version(),
                },
                trace,
            );
            write_frame(
                out,
                &Response::Delta {
                    id,
                    session: session.to_string(),
                    round: runner.rounds() as u64,
                    version: cur.version(),
                    trees,
                },
            )?;
            pushes += 1;
        }
        if let Some(status) = done {
            break status;
        }
        match runner.step(&mut sys, tracer) {
            Ok(step) => {
                if let Some(snap) = runner.snapshot() {
                    sess.publish(snap.clone());
                    cur = snap;
                }
                done = step;
            }
            Err(e) => return Ok(Err(ProtoError::new(codes::ENGINE_FAILED, e.to_string()))),
        }
    };
    Ok(Ok(Response::SubDone {
        id,
        session: session.to_string(),
        status: status_str(status).to_string(),
        rounds: runner.rounds() as u64,
        pushes,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_frame_is_one_line_ending_in_its_newline() {
        let frames = [
            Response::Answers {
                id: 7,
                session: "s".into(),
                trees: vec![r#"hit{"a\nb"}"#.into(), "x{y}".into()],
            },
            Response::from_error(3, ProtoError::new(codes::BAD_QUERY, "line one\nline two")),
        ];
        for frame in frames {
            let line = frame_line(&frame);
            assert_eq!(line.matches('\n').count(), 1, "{line:?}");
            let json = line.strip_suffix('\n').expect("ends in its newline");
            assert_eq!(json, frame.to_json());
            assert_eq!(Response::parse(json).unwrap(), frame);
        }
    }
}
