//! Structured observability: a trace journal, per-service metrics, and
//! exporters — the instrumentation layer behind the engine's claims.
//!
//! The paper's central results (Theorem 2.1 confluence, Proposition 3.1
//! monotonicity, the §4 lazy-evaluation analyses) are statements about
//! *invocation sequences*: which call fired when, what it read, and what
//! it grafted. [`crate::engine::RunStats`] only reports aggregate
//! counters; this module records the sequence itself.
//!
//! * [`EventKind`] / [`TraceEvent`] — the event taxonomy: engine phases
//!   (round start/end), call selection and delta-skips, match-cache
//!   traffic, grafts, reductions, subsumption checks, p2p message
//!   send/receive, and the `axml-server` request lifecycle
//!   (receive/serve/batch/subscription-push). Every recorded event
//!   carries a strictly increasing sequence number and a monotone
//!   nanosecond timestamp.
//! * [`TraceSink`] — where events go. Implementations: [`Journal`]
//!   (an in-memory ordered log, the basis for exporters and for tests
//!   asserting on event streams), [`MetricsRegistry`] (aggregation into
//!   counters and log-scale [`Histogram`]s, no event storage), and
//!   [`Fanout`] (both at once).
//! * [`Tracer`] — the cheap handle threaded through
//!   [`crate::engine::run_traced`],
//!   [`crate::invoke::invoke_node_with_provenance`] and the p2p backends.
//!   A disabled tracer is a `None` check per event site; event
//!   construction closures never run, so tracing costs nothing when off.
//! * [`chrome_trace`] — export a journal as Chrome `trace_event` JSON,
//!   loadable in `chrome://tracing` or <https://ui.perfetto.dev>;
//!   [`validate_chrome_trace`] checks an export without a browser.
//! * [`MetricsRegistry::render_report`] — a human-readable run report
//!   (the format behind the `EXPERIMENTS.md` tables).
//!
//! See `docs/observability.md` for the guide (taxonomy, capturing a
//! trace of an experiment, overhead measurements).
//!
//! # Example
//!
//! ```
//! use axml_core::engine::{run_traced, EngineConfig};
//! use axml_core::trace::{EventKind, Journal, Tracer};
//! use axml_core::system::System;
//!
//! let mut sys = System::new();
//! sys.add_document_text("d", "out{@hello}").unwrap();
//! sys.add_service_text("hello", r#"greeting{"hi"} :-"#).unwrap();
//!
//! let journal = Journal::new();
//! run_traced(&mut sys, &EngineConfig::default(), Tracer::new(&journal)).unwrap();
//!
//! let events = journal.snapshot();
//! assert!(events.iter().any(|e| matches!(e.kind, EventKind::Invoke { .. })));
//! // Sequence numbers order the journal strictly.
//! assert!(events.windows(2).all(|w| w[0].seq < w[1].seq));
//! ```

use crate::sym::{FxHashMap, Sym};
use crate::tree::NodeId;
use std::cell::RefCell;
use std::fmt::Write as _;
use std::time::Instant;

/// The kind of a p2p message, for [`EventKind::MsgSend`] /
/// [`EventKind::MsgRecv`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MsgKind {
    /// A service invocation request (caller → provider).
    Call,
    /// A result forest (provider → caller).
    Response,
    /// A change notification ("my documents moved; re-pull me").
    Changed,
    /// A coordinator poll.
    Poll,
}

impl MsgKind {
    /// Short lowercase name (used by exporters).
    pub fn name(self) -> &'static str {
        match self {
            MsgKind::Call => "call",
            MsgKind::Response => "response",
            MsgKind::Changed => "changed",
            MsgKind::Poll => "poll",
        }
    }
}

/// The kind of a server request frame, for [`EventKind::RequestRecv`] /
/// [`EventKind::RequestServed`]. Mirrors the request catalogue of
/// `docs/protocol.md` (the `axml-server` wire spec).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReqKind {
    /// Protocol handshake (`hello`).
    Hello,
    /// Session creation (`open`).
    Open,
    /// Run a session's system to fixpoint or budget (`run`).
    Run,
    /// One snapshot query (`query`).
    Query,
    /// An explicit batch of snapshot queries (`batch`).
    Batch,
    /// A streaming continuous query (`subscribe`).
    Subscribe,
    /// Session teardown (`close`).
    Close,
    /// Server/session counters (`stats`).
    Stats,
    /// Liveness probe (`health`).
    Health,
    /// Streaming trace-event subscription (`trace_tail`).
    TraceTail,
    /// Server shutdown (`shutdown`).
    Shutdown,
}

impl ReqKind {
    /// Short lowercase name, matching the frame's `type` tag on the
    /// wire (used by exporters).
    pub fn name(self) -> &'static str {
        match self {
            ReqKind::Hello => "hello",
            ReqKind::Open => "open",
            ReqKind::Run => "run",
            ReqKind::Query => "query",
            ReqKind::Batch => "batch",
            ReqKind::Subscribe => "subscribe",
            ReqKind::Close => "close",
            ReqKind::Stats => "stats",
            ReqKind::Health => "health",
            ReqKind::TraceTail => "trace_tail",
            ReqKind::Shutdown => "shutdown",
        }
    }
}

/// What happened. Each variant is one point in the engine's (or the p2p
/// network's) execution; see the module docs for the taxonomy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// A fair round began (engine) — `round` counts from 0.
    RoundStart {
        /// Round index, counting from 0.
        round: u64,
    },
    /// The round ended; `changed` is false exactly at a fixpoint round.
    RoundEnd {
        /// Round index, matching the corresponding [`EventKind::RoundStart`].
        round: u64,
        /// Did any invocation of this round strictly grow a document?
        changed: bool,
    },
    /// The scheduler selected a live call for invocation.
    CallSelected {
        /// Host document.
        doc: Sym,
        /// The function node inside `doc`.
        node: NodeId,
        /// The service the node calls.
        service: Sym,
    },
    /// The engine skipped a call whose read set is unchanged since its
    /// previous invocation (see [`crate::engine`]).
    CallSkipped {
        /// Host document.
        doc: Sym,
        /// The function node inside `doc`.
        node: NodeId,
        /// The service the node calls.
        service: Sym,
    },
    /// One completed invocation (the engine's unit of work). The
    /// `(doc, doc_version)` pair identifies the host document state
    /// *after* the step; `dur_ns` is the wall-clock invocation latency.
    Invoke {
        /// Host document.
        doc: Sym,
        /// The invoked function node.
        node: NodeId,
        /// The invoked service.
        service: Sym,
        /// Did the document strictly grow (a real rewriting step)?
        changed: bool,
        /// Result trees grafted (not subsumed by existing siblings).
        grafted: u32,
        /// Trees in the service's result forest.
        result_trees: u32,
        /// The host document's version counter after the step.
        doc_version: u64,
        /// Wall-clock latency of the invocation, in nanoseconds.
        dur_ns: u64,
    },
    /// A per-atom match-cache hit ([`crate::eval::MatchCache`]).
    CacheHit {
        /// The service whose body is being evaluated.
        service: Sym,
        /// Index of the body atom answered from cache.
        atom: u32,
    },
    /// A per-atom match-cache miss: the matcher ran.
    CacheMiss {
        /// The service whose body is being evaluated.
        service: Sym,
        /// Index of the body atom that had to be matched.
        atom: u32,
    },
    /// One result tree was checked for subsumption against the call
    /// node's existing siblings (invocation phase 2).
    SubsumeCheck {
        /// Host document.
        doc: Sym,
        /// Was the result tree already subsumed (hence not grafted)?
        subsumed: bool,
    },
    /// Result trees were grafted beside a call node.
    Graft {
        /// Host document.
        doc: Sym,
        /// The document's version counter after the grafts.
        doc_version: u64,
        /// Number of trees grafted.
        trees: u32,
    },
    /// The host document was reduced after grafting.
    Reduce {
        /// Host document.
        doc: Sym,
        /// Live nodes before reduction.
        nodes_before: u32,
        /// Live nodes after reduction.
        nodes_after: u32,
    },
    /// One matcher run's document-index usage and work during snapshot
    /// evaluation (see [`crate::matcher::MatchStats`] and
    /// [`mod@crate::index`]).
    IndexLookup {
        /// The service whose body is being evaluated.
        service: Sym,
        /// Index of the body atom the matcher ran for.
        atom: u32,
        /// Marking-index bucket reads (an anchor's bucket).
        probes: u32,
        /// Probes whose bucket was non-empty.
        probe_hits: u32,
        /// Indexed-mode runs that found the document unindexed.
        fallbacks: u32,
        /// Candidate nodes examined by a marking test.
        scanned: u32,
    },
    /// Incremental index maintenance performed on a host document over
    /// one invocation (graft + reduce), measured as counter deltas.
    IndexMaintain {
        /// Host document.
        doc: Sym,
        /// Index entries added during the invocation.
        adds: u32,
        /// Index entries removed during the invocation.
        removes: u32,
        /// Estimated index heap footprint after the invocation, bytes.
        bytes: u64,
    },
    /// A p2p message left a peer.
    MsgSend {
        /// Sending peer.
        from: Sym,
        /// Receiving peer.
        to: Sym,
        /// Message kind.
        kind: MsgKind,
    },
    /// A p2p message was processed by a peer.
    MsgRecv {
        /// Receiving (processing) peer.
        peer: Sym,
        /// Message kind.
        kind: MsgKind,
    },
    /// A provider evaluated one of its services for a remote caller.
    PeerEval {
        /// The provider peer.
        peer: Sym,
        /// The evaluated service (unqualified name).
        service: Sym,
        /// Wall-clock latency of the evaluation, in nanoseconds.
        dur_ns: u64,
    },
    /// A service query was lowered, optimized, and emitted as a
    /// [`crate::compile::MatchProgram`].
    PlanCompiled {
        /// The service whose query was compiled.
        service: Sym,
        /// Body atoms retained after conjunct elimination.
        atoms: u32,
        /// Ops in the emitted program, one per retained pattern node.
        ops: u32,
        /// Wall-clock compile time, nanoseconds.
        dur_ns: u64,
    },
    /// A [`crate::compile::ProgramCache`] lookup was answered from
    /// cache.
    ProgramCacheHit {
        /// The service whose program was served.
        service: Sym,
    },
    /// A [`crate::compile::ProgramCache`] lookup missed (first
    /// compilation, or the held program was emitted for another
    /// strategy); a [`EventKind::PlanCompiled`] follows.
    ProgramCacheMiss {
        /// The service whose program was (re)compiled.
        service: Sym,
    },
    /// An `axml-server` request frame was received and admitted. The
    /// matching [`EventKind::RequestServed`] carries the latency.
    RequestRecv {
        /// Session the request addresses (`-` for session-less frames
        /// such as `hello` and `shutdown`).
        session: Sym,
        /// Request frame kind.
        kind: ReqKind,
        /// Client-chosen request id echoed on the response (0 if the
        /// frame carried none).
        id: u64,
    },
    /// An `axml-server` request was served: the response (or error)
    /// frame was written back to the client.
    RequestServed {
        /// Session the request addressed (`-` for session-less frames).
        session: Sym,
        /// Request frame kind.
        kind: ReqKind,
        /// Client-chosen request id echoed on the response (0 if none).
        id: u64,
        /// `false` iff the response was an `error` frame.
        ok: bool,
        /// Wall-clock receive-to-response latency, nanoseconds.
        dur_ns: u64,
    },
    /// The server's dataloader coalesced `size` compatible query
    /// requests into one batch evaluated under a single session lock
    /// (one snapshot, shared caches) — see `docs/protocol.md`.
    BatchFormed {
        /// Session the batch evaluated against.
        session: Sym,
        /// Query requests coalesced into the batch.
        size: u32,
        /// Wall-clock evaluation time for the whole batch, nanoseconds.
        dur_ns: u64,
    },
    /// A subscription delta push: `trees` not-yet-seen answer trees
    /// streamed to the subscriber after engine round `round`, with the
    /// subscribed system at version `version` (the delta stamp).
    SubscriptionPush {
        /// Session the subscription reads.
        session: Sym,
        /// Client-chosen subscription id.
        sub: u64,
        /// New answer trees in this push.
        trees: u32,
        /// Engine round after which the delta was extracted.
        round: u64,
        /// The subscribed system's version counter (sum of document
        /// versions) at push time.
        version: u64,
    },
}

/// The coarse category of an [`EventKind`] — the same taxonomy the
/// Chrome-trace exporter stamps as `cat` on every row, reused by the
/// [`Journal`]'s drop counters and the `trace_tail` wire filter.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventCategory {
    /// Round start/end markers.
    Engine,
    /// Call selection and delta-skips.
    Schedule,
    /// Completed invocations.
    Invoke,
    /// Match-cache hits and misses.
    Cache,
    /// Grafts and subsumption checks.
    Graft,
    /// In-place reductions.
    Reduce,
    /// Document-index lookups and maintenance.
    Index,
    /// P2p message traffic and provider evaluations.
    P2p,
    /// Query compilation and program-cache traffic.
    Compile,
    /// `axml-server` request lifecycle events.
    Server,
}

impl EventCategory {
    /// Every category, in stable order — the index into the
    /// [`Journal`]'s drop-counter array.
    pub const ALL: [EventCategory; 10] = [
        EventCategory::Engine,
        EventCategory::Schedule,
        EventCategory::Invoke,
        EventCategory::Cache,
        EventCategory::Graft,
        EventCategory::Reduce,
        EventCategory::Index,
        EventCategory::P2p,
        EventCategory::Compile,
        EventCategory::Server,
    ];

    /// Short lowercase name — identical to the Chrome-trace `cat`
    /// string of events in this category.
    pub fn name(self) -> &'static str {
        match self {
            EventCategory::Engine => "engine",
            EventCategory::Schedule => "schedule",
            EventCategory::Invoke => "invoke",
            EventCategory::Cache => "cache",
            EventCategory::Graft => "graft",
            EventCategory::Reduce => "reduce",
            EventCategory::Index => "index",
            EventCategory::P2p => "p2p",
            EventCategory::Compile => "compile",
            EventCategory::Server => "server",
        }
    }

    /// Parse a category [`EventCategory::name`] back (`None` on unknown
    /// names).
    pub fn parse(s: &str) -> Option<EventCategory> {
        EventCategory::ALL.iter().copied().find(|c| c.name() == s)
    }
}

impl EventKind {
    /// This event's [`EventCategory`] — always the `cat` the
    /// Chrome-trace export stamps on the corresponding row.
    pub fn category(&self) -> EventCategory {
        match self {
            EventKind::RoundStart { .. } | EventKind::RoundEnd { .. } => EventCategory::Engine,
            EventKind::CallSelected { .. } | EventKind::CallSkipped { .. } => {
                EventCategory::Schedule
            }
            EventKind::Invoke { .. } => EventCategory::Invoke,
            EventKind::CacheHit { .. } | EventKind::CacheMiss { .. } => EventCategory::Cache,
            EventKind::SubsumeCheck { .. } | EventKind::Graft { .. } => EventCategory::Graft,
            EventKind::Reduce { .. } => EventCategory::Reduce,
            EventKind::IndexLookup { .. } | EventKind::IndexMaintain { .. } => EventCategory::Index,
            EventKind::MsgSend { .. } | EventKind::MsgRecv { .. } | EventKind::PeerEval { .. } => {
                EventCategory::P2p
            }
            EventKind::PlanCompiled { .. }
            | EventKind::ProgramCacheHit { .. }
            | EventKind::ProgramCacheMiss { .. } => EventCategory::Compile,
            EventKind::RequestRecv { .. }
            | EventKind::RequestServed { .. }
            | EventKind::BatchFormed { .. }
            | EventKind::SubscriptionPush { .. } => EventCategory::Server,
        }
    }

    /// The server session this event belongs to, for the
    /// [`EventCategory::Server`] lifecycle events (`None` elsewhere).
    pub fn session(&self) -> Option<Sym> {
        match self {
            EventKind::RequestRecv { session, .. }
            | EventKind::RequestServed { session, .. }
            | EventKind::BatchFormed { session, .. }
            | EventKind::SubscriptionPush { session, .. } => Some(*session),
            _ => None,
        }
    }

    /// A short human label for the event — the same `name` the
    /// Chrome-trace export uses (e.g. `invoke tc`, `recv query`,
    /// `round 3`), rendered without the args payload. This is what the
    /// `trace_tail` wire frames carry.
    pub fn label(&self) -> String {
        match self {
            EventKind::RoundStart { round } | EventKind::RoundEnd { round, .. } => {
                format!("round {round}")
            }
            EventKind::CallSelected { service, .. } => format!("select {service}"),
            EventKind::CallSkipped { service, .. } => format!("skip {service}"),
            EventKind::Invoke { service, .. } => format!("invoke {service}"),
            EventKind::CacheHit { service, atom } => format!("hit {service}#{atom}"),
            EventKind::CacheMiss { service, atom } => format!("miss {service}#{atom}"),
            EventKind::SubsumeCheck { .. } => "subsume-check".to_string(),
            EventKind::Graft { .. } => "graft".to_string(),
            EventKind::Reduce { .. } => "reduce".to_string(),
            EventKind::IndexLookup { service, atom, .. } => format!("index {service}#{atom}"),
            EventKind::IndexMaintain { .. } => "index-maintain".to_string(),
            EventKind::MsgSend { kind, .. } => format!("send {}", kind.name()),
            EventKind::MsgRecv { kind, .. } => format!("recv {}", kind.name()),
            EventKind::PeerEval { service, .. } => format!("eval {service}"),
            EventKind::PlanCompiled { service, .. } => format!("compile {service}"),
            EventKind::ProgramCacheHit { service } => format!("program hit {service}"),
            EventKind::ProgramCacheMiss { service } => format!("program miss {service}"),
            EventKind::RequestRecv { kind, .. } => format!("recv {}", kind.name()),
            EventKind::RequestServed { kind, .. } => format!("serve {}", kind.name()),
            EventKind::BatchFormed { .. } => "batch".to_string(),
            EventKind::SubscriptionPush { .. } => "push".to_string(),
        }
    }
}

/// One journal entry: an [`EventKind`] stamped by the recording sink
/// with a strictly increasing sequence number and a monotone timestamp
/// (nanoseconds since the sink's epoch).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Strictly increasing per-sink sequence number (journal order).
    pub seq: u64,
    /// Monotone nanoseconds since the sink's epoch.
    pub ts_ns: u64,
    /// The request-scoped trace id the event belongs to (0 =
    /// unattributed). `axml-server` stamps one per request frame and
    /// threads it through engine rounds, invocations and p2p calls, so
    /// one query's end-to-end derivation is reconstructable from a
    /// merged journal.
    pub trace: u64,
    /// The event itself.
    pub kind: EventKind,
}

/// Where trace events go. Implementations stamp and store (or
/// aggregate) events; the instrumented code only constructs
/// [`EventKind`]s, and only when a sink is attached.
///
/// `record` takes `&self` so one sink can be shared by every
/// instrumentation site of a single-threaded run without threading
/// `&mut` borrows through the engine; implementations use interior
/// mutability.
pub trait TraceSink {
    /// Record one event.
    fn record(&self, kind: EventKind);

    /// Record one event attributed to request trace id `trace` (0 =
    /// unattributed). Storing sinks stamp the id onto the stored
    /// [`TraceEvent`]; the default drops the id and forwards to
    /// [`TraceSink::record`], which is correct for aggregators that
    /// never store events.
    fn record_traced(&self, kind: EventKind, trace: u64) {
        let _ = trace;
        self.record(kind);
    }
}

/// The cheap tracing handle threaded through the engine. Copyable;
/// either disabled (no sink — every `emit` is one branch, the
/// event-constructing closure never runs) or bound to a [`TraceSink`].
#[derive(Clone, Copy, Default)]
pub struct Tracer<'a> {
    sink: Option<&'a dyn TraceSink>,
    trace: u64,
}

impl<'a> Tracer<'a> {
    /// A tracer bound to `sink`.
    pub fn new(sink: &'a dyn TraceSink) -> Tracer<'a> {
        Tracer {
            sink: Some(sink),
            trace: 0,
        }
    }

    /// The no-op tracer: every emission is a predictable-false branch.
    pub fn disabled() -> Tracer<'a> {
        Tracer {
            sink: None,
            trace: 0,
        }
    }

    /// This tracer, stamping every emitted event with request trace id
    /// `trace` (0 = unattributed, the default). Copy-cheap: the server
    /// derives one per request from its shared tracer.
    pub fn with_trace(self, trace: u64) -> Tracer<'a> {
        Tracer { trace, ..self }
    }

    /// The trace id this tracer stamps (0 = unattributed).
    #[inline]
    pub fn trace_id(&self) -> u64 {
        self.trace
    }

    /// Is a sink attached? Use to guard measurement work (e.g. an
    /// `Instant::now` pair) that only exists to enrich events.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.sink.is_some()
    }

    /// Record the event produced by `f` — `f` runs only when enabled.
    #[inline]
    pub fn emit(&self, f: impl FnOnce() -> EventKind) {
        if let Some(sink) = self.sink {
            sink.record_traced(f(), self.trace);
        }
    }
}

/// Retention policy of a [`Journal`]: an optional ring capacity, for
/// always-on production tracing with bounded memory. The [`Default`] is
/// the production profile (a ~64k-event ring); use
/// [`JournalConfig::unbounded`] — what [`Journal::new`] does — to keep
/// everything, as tests and offline experiments want.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JournalConfig {
    /// Most events retained at once; when full, the *oldest* event is
    /// evicted (and counted per category). `None` = unbounded.
    pub capacity: Option<usize>,
}

/// The production default ring capacity (events).
pub const DEFAULT_JOURNAL_CAPACITY: usize = 65_536;

impl Default for JournalConfig {
    fn default() -> JournalConfig {
        JournalConfig {
            capacity: Some(DEFAULT_JOURNAL_CAPACITY),
        }
    }
}

impl JournalConfig {
    /// Keep every event forever — the test/experiment profile.
    pub fn unbounded() -> JournalConfig {
        JournalConfig { capacity: None }
    }
}

struct JournalInner {
    seq: u64,
    events: std::collections::VecDeque<TraceEvent>,
    /// Events evicted by the ring capacity, per category.
    evicted: [u64; EventCategory::ALL.len()],
}

/// An in-memory ordered event log. The canonical [`TraceSink`]: stamps
/// each event with a sequence number and a monotone timestamp and feeds
/// the exporters ([`chrome_trace`]) and the event-stream assertions in
/// tests. [`Journal::new`] keeps everything; [`Journal::with_config`]
/// bounds retention with a ring capacity (evicted events are counted,
/// and sequence numbers stay strictly monotone over whatever is
/// retained, so exports and replay stay sound).
pub struct Journal {
    epoch: Instant,
    cfg: JournalConfig,
    inner: RefCell<JournalInner>,
}

impl Default for Journal {
    fn default() -> Journal {
        Journal::new()
    }
}

impl Journal {
    /// An empty unbounded journal; timestamps count from now. Keeps
    /// every event — use [`Journal::with_config`] for the bounded
    /// production profile.
    pub fn new() -> Journal {
        Journal {
            epoch: Instant::now(),
            cfg: JournalConfig::unbounded(),
            inner: RefCell::new(JournalInner {
                seq: 0,
                events: std::collections::VecDeque::new(),
                evicted: [0; EventCategory::ALL.len()],
            }),
        }
    }

    /// An empty journal with the given retention policy; timestamps
    /// count from now.
    pub fn with_config(cfg: JournalConfig) -> Journal {
        Journal {
            cfg,
            ..Journal::new()
        }
    }

    /// An empty ring journal holding at most `capacity` events (oldest
    /// evicted first).
    pub fn bounded(capacity: usize) -> Journal {
        Journal::with_config(JournalConfig {
            capacity: Some(capacity),
        })
    }

    /// The retention policy.
    pub fn config(&self) -> &JournalConfig {
        &self.cfg
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.inner.borrow().events.len()
    }

    /// Is the journal empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total events evicted by the ring capacity.
    pub fn dropped(&self) -> u64 {
        self.inner.borrow().evicted.iter().sum()
    }

    /// Per-category eviction counters: `(category, evicted)`, in
    /// [`EventCategory::ALL`] order, categories with no evictions
    /// included.
    pub fn dropped_by_category(&self) -> Vec<(EventCategory, u64)> {
        let inner = self.inner.borrow();
        EventCategory::ALL
            .iter()
            .map(|&c| (c, inner.evicted[c as usize]))
            .collect()
    }

    /// A copy of the retained events, in journal order.
    pub fn snapshot(&self) -> Vec<TraceEvent> {
        self.inner.borrow().events.iter().copied().collect()
    }

    /// Consume the journal, returning the retained events.
    pub fn into_events(self) -> Vec<TraceEvent> {
        self.inner.into_inner().events.into_iter().collect()
    }

    /// Stamp `kind` with the next sequence number, the monotone
    /// timestamp and `trace`, then retain it subject to the capacity
    /// policy. Returns the stamped
    /// event whether or not it was retained — the server's tail
    /// subscriptions forward it to live observers either way.
    pub fn record_event(&self, kind: EventKind, trace: u64) -> TraceEvent {
        let ts_ns = self.epoch.elapsed().as_nanos() as u64;
        let mut inner = self.inner.borrow_mut();
        let seq = inner.seq;
        inner.seq += 1;
        let ev = TraceEvent {
            seq,
            ts_ns,
            trace,
            kind,
        };
        self.store(&mut inner, ev);
        ev
    }

    /// The ring phase. The caller already consumed a sequence number
    /// for `ev`.
    fn store(&self, inner: &mut JournalInner, ev: TraceEvent) {
        if let Some(capacity) = self.cfg.capacity {
            if capacity == 0 {
                inner.evicted[ev.kind.category() as usize] += 1;
                return;
            }
            while inner.events.len() >= capacity {
                if let Some(old) = inner.events.pop_front() {
                    inner.evicted[old.kind.category() as usize] += 1;
                }
            }
        }
        inner.events.push_back(ev);
    }
}

impl TraceSink for Journal {
    fn record(&self, kind: EventKind) {
        self.record_event(kind, 0);
    }

    fn record_traced(&self, kind: EventKind, trace: u64) {
        self.record_event(kind, trace);
    }
}

/// Fan one event stream out to several sinks (e.g. a [`Journal`] for
/// export *and* a [`MetricsRegistry`] for the run report).
pub struct Fanout<'a> {
    sinks: Vec<&'a dyn TraceSink>,
}

impl<'a> Fanout<'a> {
    /// A fanout over the given sinks, notified in order.
    pub fn new(sinks: Vec<&'a dyn TraceSink>) -> Fanout<'a> {
        Fanout { sinks }
    }
}

impl TraceSink for Fanout<'_> {
    fn record(&self, kind: EventKind) {
        for s in &self.sinks {
            s.record(kind);
        }
    }

    fn record_traced(&self, kind: EventKind, trace: u64) {
        for s in &self.sinks {
            s.record_traced(kind, trace);
        }
    }
}

/// A log-scale (power-of-two buckets) histogram of `u64` samples. No
/// external deps: 65 buckets cover the full `u64` range; bucket `i > 0`
/// holds values `v` with `floor(log2(v)) == i - 1` (bucket 0 holds 0).
///
/// ```
/// use axml_core::trace::Histogram;
/// let mut h = Histogram::new();
/// for v in [1u64, 2, 3, 900, 1_000, 1_100] {
///     h.record(v);
/// }
/// assert_eq!(h.count(), 6);
/// assert_eq!(h.max(), 1_100);
/// // The median falls in the bucket covering 512..=1023.
/// assert!(h.quantile(0.5) >= 3 && h.quantile(0.5) <= 1023);
/// ```
#[derive(Clone, Debug)]
pub struct Histogram {
    buckets: [u64; 65],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram {
            buckets: [0; 65],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// The bucket index for value `v`: 0 for 0, else `floor(log2 v) + 1`.
    pub fn bucket_index(v: u64) -> usize {
        if v == 0 {
            0
        } else {
            64 - v.leading_zeros() as usize
        }
    }

    /// The largest value a bucket holds (its inclusive upper bound).
    pub fn bucket_upper_bound(i: usize) -> u64 {
        if i == 0 {
            0
        } else if i >= 64 {
            u64::MAX
        } else {
            (1u64 << i) - 1
        }
    }

    /// Record one sample.
    pub fn record(&mut self, v: u64) {
        self.buckets[Self::bucket_index(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest recorded sample (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded sample.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean of recorded samples (0 when empty).
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }

    /// An upper bound on the `q`-quantile (0 ≤ q ≤ 1): the upper bound
    /// of the first bucket whose cumulative count reaches `q·count`,
    /// clamped to the recorded maximum. Exact to within one power of
    /// two — the usual latency-histogram trade.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= rank {
                return Self::bucket_upper_bound(i).min(self.max);
            }
        }
        self.max
    }

    /// Merge another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        if other.count > 0 {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
    }
}

/// Per-service aggregates maintained by a [`MetricsRegistry`].
#[derive(Clone, Debug, Default)]
pub struct ServiceMetrics {
    /// Completed invocations ([`EventKind::Invoke`]).
    pub invocations: u64,
    /// Invocations that strictly grew a document.
    pub productive: u64,
    /// Skipped no-op visits ([`EventKind::CallSkipped`]).
    pub skipped: u64,
    /// Match-cache hits while evaluating this service's body.
    pub cache_hits: u64,
    /// Match-cache misses while evaluating this service's body.
    pub cache_misses: u64,
    /// Result trees grafted across invocations.
    pub grafted: u64,
    /// Result trees returned across invocations.
    pub result_trees: u64,
    /// Invocation latency distribution, nanoseconds
    /// (p2p: provider-side evaluation latency).
    pub latency_ns: Histogram,
}

/// Global (service-independent) counters maintained by a
/// [`MetricsRegistry`].
#[derive(Clone, Copy, Debug, Default)]
pub struct GlobalMetrics {
    /// Engine/network rounds completed.
    pub rounds: u64,
    /// Calls selected for invocation.
    pub calls_selected: u64,
    /// Calls skipped by the delta scheduler.
    pub calls_skipped: u64,
    /// Subsumption checks performed while grafting.
    pub subsume_checks: u64,
    /// Result trees found already subsumed (not grafted).
    pub subsumed_results: u64,
    /// Graft batches.
    pub grafts: u64,
    /// In-place reductions.
    pub reduces: u64,
    /// Live nodes removed by reductions, total.
    pub nodes_pruned: u64,
    /// P2p messages sent.
    pub msgs_sent: u64,
    /// P2p messages received/processed.
    pub msgs_recv: u64,
    /// Marking-index bucket reads by the matcher (anchor buckets).
    pub index_probes: u64,
    /// Index probes that found a non-empty bucket.
    pub index_probe_hits: u64,
    /// Indexed-mode matcher runs that found the document unindexed.
    pub index_fallbacks: u64,
    /// Candidate nodes the matcher examined by a marking test.
    pub index_scanned: u64,
    /// Index maintenance reports ([`EventKind::IndexMaintain`]).
    pub index_maintains: u64,
    /// Index entries added by incremental maintenance.
    pub index_adds: u64,
    /// Index entries removed by incremental maintenance.
    pub index_removes: u64,
    /// Peak estimated index heap footprint over any host document, bytes.
    pub index_bytes_peak: u64,
    /// Match programs compiled ([`EventKind::PlanCompiled`]).
    pub programs_compiled: u64,
    /// Program-cache lookups served from cache.
    pub program_cache_hits: u64,
    /// Program-cache lookups that missed (and compiled).
    pub program_cache_misses: u64,
    /// Ops across all compiled programs.
    pub program_ops: u64,
    /// Total wall-clock time spent compiling programs, ns.
    pub compile_ns: u64,
    /// Server request frames received ([`EventKind::RequestRecv`]).
    pub requests_recv: u64,
    /// Server requests served ([`EventKind::RequestServed`]).
    pub requests_served: u64,
    /// Served requests whose response was an `error` frame.
    pub request_errors: u64,
    /// Query batches formed by the server's dataloader
    /// ([`EventKind::BatchFormed`]).
    pub batches_formed: u64,
    /// Query requests coalesced into those batches, total.
    pub batched_requests: u64,
    /// Largest batch coalesced.
    pub batch_max: u32,
    /// Subscription delta pushes ([`EventKind::SubscriptionPush`]).
    pub subscription_pushes: u64,
    /// Answer trees streamed across all subscription pushes.
    pub pushed_trees: u64,
}

/// Per-session aggregates maintained by a [`MetricsRegistry`] from the
/// `axml-server` request events, from a session's first request until its
/// `close` is served.
#[derive(Clone, Debug, Default)]
pub struct SessionMetrics {
    /// Request frames received for this session.
    pub requests: u64,
    /// Requests answered with an `error` frame.
    pub errors: u64,
    /// Query batches evaluated against this session.
    pub batches: u64,
    /// Subscription delta pushes from this session.
    pub pushes: u64,
    /// Answer trees streamed to this session's subscribers.
    pub pushed_trees: u64,
    /// Receive-to-response request latency distribution, nanoseconds.
    pub latency_ns: Histogram,
}

struct MetricsInner {
    services: FxHashMap<Sym, ServiceMetrics>,
    globals: GlobalMetrics,
    /// Per-session server request aggregates.
    sessions: FxHashMap<Sym, SessionMetrics>,
    /// Server request latency across all sessions (the p50/p99 source).
    requests: Histogram,
}

/// A [`TraceSink`] that aggregates the event stream into per-service
/// metrics and global counters instead of storing it. Attach alone for
/// cheap always-on metrics, or behind a [`Fanout`] next to a
/// [`Journal`].
pub struct MetricsRegistry {
    inner: RefCell<MetricsInner>,
}

impl Default for MetricsRegistry {
    fn default() -> MetricsRegistry {
        MetricsRegistry::new()
    }
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry {
            inner: RefCell::new(MetricsInner {
                services: FxHashMap::default(),
                globals: GlobalMetrics::default(),
                sessions: FxHashMap::default(),
                requests: Histogram::new(),
            }),
        }
    }

    /// The aggregates for one service, if it appeared in the stream.
    pub fn service(&self, name: Sym) -> Option<ServiceMetrics> {
        self.inner.borrow().services.get(&name).cloned()
    }

    /// The server-request aggregates for one session, if it appeared in
    /// the stream and no successful `close` of it has been served since.
    pub fn session(&self, name: Sym) -> Option<SessionMetrics> {
        self.inner.borrow().sessions.get(&name).cloned()
    }

    /// Names of the sessions seen and not closed since, sorted by name.
    pub fn session_names(&self) -> Vec<Sym> {
        let mut names: Vec<Sym> = self.inner.borrow().sessions.keys().copied().collect();
        names.sort_unstable_by_key(|s| s.as_str());
        names
    }

    /// The all-sessions server request latency histogram (nanoseconds),
    /// fed by [`EventKind::RequestServed`] — the p50/p99 source of the
    /// `server:` report line and the X19 experiment.
    pub fn request_latency(&self) -> Histogram {
        self.inner.borrow().requests.clone()
    }

    /// Names of all services seen, sorted by name.
    pub fn service_names(&self) -> Vec<Sym> {
        let mut names: Vec<Sym> = self.inner.borrow().services.keys().copied().collect();
        names.sort_unstable_by_key(|s| s.as_str());
        names
    }

    /// The global counters.
    pub fn globals(&self) -> GlobalMetrics {
        self.inner.borrow().globals
    }

    /// Render the human-readable run report: global counters followed by
    /// one row per service with invocation counts and latency quantiles
    /// (µs). This is the format the `EXPERIMENTS.md` observability
    /// tables are generated from.
    pub fn render_report(&self, title: &str) -> String {
        let inner = self.inner.borrow();
        let g = &inner.globals;
        let mut out = String::new();
        let _ = writeln!(out, "== run report: {title} ==");
        let _ = writeln!(
            out,
            "rounds {}  selected {}  skipped {}  grafts {}  reduces {} (pruned {})  \
             subsume-checks {} (subsumed {})  msgs {}/{}",
            g.rounds,
            g.calls_selected,
            g.calls_skipped,
            g.grafts,
            g.reduces,
            g.nodes_pruned,
            g.subsume_checks,
            g.subsumed_results,
            g.msgs_sent,
            g.msgs_recv,
        );
        let hit_rate = if g.index_probes == 0 {
            0.0
        } else {
            100.0 * g.index_probe_hits as f64 / g.index_probes as f64
        };
        let _ = writeln!(
            out,
            "index: probes {} (hit rate {:.1}%)  fallbacks {}  scanned {}  maintains {} (+{} -{})  peak {} B",
            g.index_probes,
            hit_rate,
            g.index_fallbacks,
            g.index_scanned,
            g.index_maintains,
            g.index_adds,
            g.index_removes,
            g.index_bytes_peak,
        );
        if g.programs_compiled > 0 || g.program_cache_hits + g.program_cache_misses > 0 {
            let lookups = g.program_cache_hits + g.program_cache_misses;
            let hit_rate = if lookups == 0 {
                0.0
            } else {
                100.0 * g.program_cache_hits as f64 / lookups as f64
            };
            let _ = writeln!(
                out,
                "compile: programs {}  ops {}  cache hits {} / {} (hit rate {:.1}%)  \
                 compile time {} us",
                g.programs_compiled,
                g.program_ops,
                g.program_cache_hits,
                lookups,
                hit_rate,
                g.compile_ns / 1_000,
            );
        }
        if g.requests_recv > 0 || g.requests_served > 0 {
            let h = &inner.requests;
            let _ = writeln!(
                out,
                "server: requests {} served {} (errors {})  p50 {} us  p99 {} us  max {} us  \
                 batches {} (reqs {} max {})  pushes {} ({} trees)",
                g.requests_recv,
                g.requests_served,
                g.request_errors,
                h.quantile(0.5) / 1_000,
                h.quantile(0.99) / 1_000,
                h.max() / 1_000,
                g.batches_formed,
                g.batched_requests,
                g.batch_max,
                g.subscription_pushes,
                g.pushed_trees,
            );
            let mut names: Vec<Sym> = inner.sessions.keys().copied().collect();
            names.sort_unstable_by_key(|s| s.as_str());
            for name in names {
                let s = &inner.sessions[&name];
                let _ = writeln!(
                    out,
                    "  session {:<14} requests {:>6} (errors {})  batches {:>5}  \
                     pushes {:>5} ({} trees)  p50 {} us  p99 {} us",
                    name.as_str(),
                    s.requests,
                    s.errors,
                    s.batches,
                    s.pushes,
                    s.pushed_trees,
                    s.latency_ns.quantile(0.5) / 1_000,
                    s.latency_ns.quantile(0.99) / 1_000,
                );
            }
        }
        let _ = writeln!(
            out,
            "{:<16} {:>7} {:>10} {:>8} {:>6} {:>7} {:>8} {:>9} {:>9} {:>9}",
            "service",
            "invocs",
            "productive",
            "skipped",
            "hits",
            "misses",
            "grafted",
            "p50(us)",
            "p99(us)",
            "max(us)"
        );
        let mut names: Vec<Sym> = inner.services.keys().copied().collect();
        names.sort_unstable_by_key(|s| s.as_str());
        for name in names {
            let m = &inner.services[&name];
            let _ = writeln!(
                out,
                "{:<16} {:>7} {:>10} {:>8} {:>6} {:>7} {:>8} {:>9} {:>9} {:>9}",
                name.as_str(),
                m.invocations,
                m.productive,
                m.skipped,
                m.cache_hits,
                m.cache_misses,
                m.grafted,
                m.latency_ns.quantile(0.5) / 1_000,
                m.latency_ns.quantile(0.99) / 1_000,
                m.latency_ns.max() / 1_000,
            );
        }
        out
    }
}

impl TraceSink for MetricsRegistry {
    fn record(&self, kind: EventKind) {
        let mut inner = self.inner.borrow_mut();
        match kind {
            EventKind::RoundStart { .. } => {}
            EventKind::RoundEnd { .. } => inner.globals.rounds += 1,
            EventKind::CallSelected { .. } => inner.globals.calls_selected += 1,
            EventKind::CallSkipped { service, .. } => {
                inner.globals.calls_skipped += 1;
                inner.services.entry(service).or_default().skipped += 1;
            }
            EventKind::Invoke {
                service,
                changed,
                grafted,
                result_trees,
                dur_ns,
                ..
            } => {
                let m = inner.services.entry(service).or_default();
                m.invocations += 1;
                m.productive += u64::from(changed);
                m.grafted += u64::from(grafted);
                m.result_trees += u64::from(result_trees);
                m.latency_ns.record(dur_ns);
            }
            EventKind::CacheHit { service, .. } => {
                inner.services.entry(service).or_default().cache_hits += 1;
            }
            EventKind::CacheMiss { service, .. } => {
                inner.services.entry(service).or_default().cache_misses += 1;
            }
            EventKind::SubsumeCheck { subsumed, .. } => {
                inner.globals.subsume_checks += 1;
                inner.globals.subsumed_results += u64::from(subsumed);
            }
            EventKind::Graft { .. } => inner.globals.grafts += 1,
            EventKind::Reduce {
                nodes_before,
                nodes_after,
                ..
            } => {
                inner.globals.reduces += 1;
                inner.globals.nodes_pruned += u64::from(nodes_before.saturating_sub(nodes_after));
            }
            EventKind::IndexLookup {
                probes,
                probe_hits,
                fallbacks,
                scanned,
                ..
            } => {
                inner.globals.index_probes += u64::from(probes);
                inner.globals.index_probe_hits += u64::from(probe_hits);
                inner.globals.index_fallbacks += u64::from(fallbacks);
                inner.globals.index_scanned += u64::from(scanned);
            }
            EventKind::IndexMaintain {
                adds,
                removes,
                bytes,
                ..
            } => {
                inner.globals.index_maintains += 1;
                inner.globals.index_adds += u64::from(adds);
                inner.globals.index_removes += u64::from(removes);
                inner.globals.index_bytes_peak = inner.globals.index_bytes_peak.max(bytes);
            }
            EventKind::MsgSend { .. } => inner.globals.msgs_sent += 1,
            EventKind::MsgRecv { .. } => inner.globals.msgs_recv += 1,
            EventKind::PeerEval {
                service, dur_ns, ..
            } => {
                let m = inner.services.entry(service).or_default();
                m.invocations += 1;
                m.latency_ns.record(dur_ns);
            }
            EventKind::PlanCompiled { ops, dur_ns, .. } => {
                inner.globals.programs_compiled += 1;
                inner.globals.program_ops += u64::from(ops);
                inner.globals.compile_ns = inner.globals.compile_ns.saturating_add(dur_ns);
            }
            EventKind::ProgramCacheHit { .. } => {
                inner.globals.program_cache_hits += 1;
            }
            EventKind::ProgramCacheMiss { .. } => {
                inner.globals.program_cache_misses += 1;
            }
            EventKind::RequestRecv { session, .. } => {
                inner.globals.requests_recv += 1;
                inner.sessions.entry(session).or_default().requests += 1;
            }
            EventKind::RequestServed {
                session,
                kind,
                ok,
                dur_ns,
                ..
            } => {
                inner.globals.requests_served += 1;
                inner.globals.request_errors += u64::from(!ok);
                inner.requests.record(dur_ns);
                // A closed session's row would describe nothing that
                // exists, and keeping it would grow the registry with
                // every session a client ever opens.
                if kind == ReqKind::Close && ok {
                    inner.sessions.remove(&session);
                } else {
                    let s = inner.sessions.entry(session).or_default();
                    s.errors += u64::from(!ok);
                    s.latency_ns.record(dur_ns);
                }
            }
            EventKind::BatchFormed { session, size, .. } => {
                inner.globals.batches_formed += 1;
                inner.globals.batched_requests += u64::from(size);
                inner.globals.batch_max = inner.globals.batch_max.max(size);
                inner.sessions.entry(session).or_default().batches += 1;
            }
            EventKind::SubscriptionPush { session, trees, .. } => {
                inner.globals.subscription_pushes += 1;
                inner.globals.pushed_trees += u64::from(trees);
                let s = inner.sessions.entry(session).or_default();
                s.pushes += 1;
                s.pushed_trees += u64::from(trees);
            }
        }
    }
}

/// Escape a string for embedding between JSON double quotes (the
/// exporter-side counterpart of the in-repo parser; also used by the
/// `axml-server` wire layer).
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

fn us(ts_ns: u64) -> f64 {
    ts_ns as f64 / 1_000.0
}

/// The fixed Chrome-trace thread lane (`tid`) of the `axml-server`
/// request events — above the peer lanes (2+), so peer numbering does
/// not shift when a trace mixes both.
pub const SERVER_TID: u64 = 500;

/// Export a journal as Chrome `trace_event` JSON (the
/// `{"traceEvents": [...]}` object format). Load the result in
/// `chrome://tracing` or <https://ui.perfetto.dev>:
///
/// * rounds become nested `B`/`E` duration slices;
/// * invocations and peer evaluations become `X` complete slices with
///   their measured latency and `(doc, version)` / outcome args;
/// * skips, cache traffic, grafts, reductions, subsumption checks and
///   p2p messages become instant (`i`) events on the same timeline.
///
/// All engine events share `pid` 1 / `tid` 1 (the engine is
/// single-threaded); p2p events get one `tid` lane per peer (assigned
/// in order of first appearance, tids 2+). `axml-server` request events
/// ([`EventKind::RequestRecv`] / [`EventKind::RequestServed`] /
/// [`EventKind::BatchFormed`] / [`EventKind::SubscriptionPush`]) share
/// the fixed `tid` 500 — the "server" swimlane. The export leads
/// with `ph:"M"` metadata events naming the process and every thread
/// lane, and stable-sorts the events by sequence number so an
/// out-of-order slice (e.g. a hand-merged journal) still renders
/// deterministically.
pub fn chrome_trace(events: &[TraceEvent]) -> String {
    let mut out = Vec::new();
    chrome_trace_to(events, &mut out).expect("Vec<u8> writes are infallible");
    String::from_utf8(out).expect("chrome rows are UTF-8")
}

/// Streaming variant of [`chrome_trace`]: writes the export directly to
/// `w` (one row at a time) instead of assembling one giant `String`, so
/// dumping a large ring journal does not double peak memory. Same
/// output, byte for byte.
pub fn chrome_trace_to(events: &[TraceEvent], w: &mut impl std::io::Write) -> std::io::Result<()> {
    // Stable order: by the journal's own seq stamp. Merged journals
    // are already seq-ordered; this makes the export robust to callers
    // concatenating event slices themselves.
    let mut ordered: Vec<&TraceEvent> = events.iter().collect();
    ordered.sort_by_key(|e| e.seq);
    // Lane assignment: tid 1 is the engine; each peer acting in an
    // event (sender, receiver, or evaluator) gets its own tid. The
    // metadata header must name every lane before the rows stream out,
    // so a first pass assigns lanes and a second pass renders.
    let mut lanes: Vec<(Sym, u64)> = Vec::new();
    let mut server_lane = false;
    let lane = |lanes: &mut Vec<(Sym, u64)>, peer: Sym| -> u64 {
        if let Some(&(_, t)) = lanes.iter().find(|(p, _)| *p == peer) {
            return t;
        }
        let t = lanes.len() as u64 + 2;
        lanes.push((peer, t));
        t
    };
    for ev in &ordered {
        match ev.kind {
            EventKind::MsgSend { from, .. } => {
                lane(&mut lanes, from);
            }
            EventKind::MsgRecv { peer, .. } | EventKind::PeerEval { peer, .. } => {
                lane(&mut lanes, peer);
            }
            EventKind::RequestRecv { .. }
            | EventKind::RequestServed { .. }
            | EventKind::BatchFormed { .. }
            | EventKind::SubscriptionPush { .. } => server_lane = true,
            _ => {}
        }
    }
    // Second-pass lane lookup: every lane is assigned by now.
    let tid_of = |ev: &TraceEvent| -> u64 {
        match ev.kind {
            EventKind::MsgSend { from, .. } => lanes
                .iter()
                .find(|(p, _)| *p == from)
                .map_or(1, |&(_, t)| t),
            EventKind::MsgRecv { peer, .. } | EventKind::PeerEval { peer, .. } => lanes
                .iter()
                .find(|(p, _)| *p == peer)
                .map_or(1, |&(_, t)| t),
            EventKind::RequestRecv { .. }
            | EventKind::RequestServed { .. }
            | EventKind::BatchFormed { .. }
            | EventKind::SubscriptionPush { .. } => SERVER_TID,
            _ => 1,
        }
    };

    w.write_all(b"{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n")?;
    w.write_all(
        b"{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\
          \"args\":{\"name\":\"positive-axml\"}},\n\
          {\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,\
          \"args\":{\"name\":\"engine\"}}",
    )?;
    for (peer, tid) in &lanes {
        write!(
            w,
            ",\n{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\
             \"tid\":{tid},\"args\":{{\"name\":\"{}\"}}}}",
            json_escape(peer.as_str())
        )?;
    }
    if server_lane {
        write!(
            w,
            ",\n{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\
             \"tid\":{SERVER_TID},\"args\":{{\"name\":\"server\"}}}}",
        )?;
    }
    for ev in &ordered {
        let row = chrome_row(ev, tid_of(ev));
        if row.is_empty() {
            continue;
        }
        w.write_all(b",\n")?;
        w.write_all(row.as_bytes())?;
    }
    w.write_all(b"\n]}\n")
}

fn chrome_row(ev: &TraceEvent, tid: u64) -> String {
    with_trace_arg(chrome_row_inner(ev, tid), ev.trace)
}

/// Append `"trace":N` to a rendered row's `args` object (adding the
/// object when the row has none) so request-scoped trace ids survive
/// the chrome export. Rows always end with either `…"args":{…}}` or a
/// bare `…}` (only `RoundStart` rows lack args), so suffix surgery is
/// unambiguous.
fn with_trace_arg(row: String, trace: u64) -> String {
    if trace == 0 || row.is_empty() {
        return row;
    }
    if let Some(stripped) = row.strip_suffix("}}") {
        let comma = if stripped.ends_with('{') { "" } else { "," };
        format!("{stripped}{comma}\"trace\":{trace}}}}}")
    } else if let Some(stripped) = row.strip_suffix('}') {
        format!("{stripped},\"args\":{{\"trace\":{trace}}}}}")
    } else {
        row
    }
}

fn chrome_row_inner(ev: &TraceEvent, tid: u64) -> String {
    let common = |name: &str, ph: &str, cat: &str, ts: f64| {
        format!(
            "{{\"name\":\"{}\",\"ph\":\"{ph}\",\"cat\":\"{cat}\",\"ts\":{ts:.3},\"pid\":1,\"tid\":{tid}",
            json_escape(name)
        )
    };
    let instant = |name: &str, cat: &str, args: String| {
        format!(
            "{},\"s\":\"t\",\"args\":{{{args}}}}}",
            common(name, "i", cat, us(ev.ts_ns))
        )
    };
    match ev.kind {
        EventKind::RoundStart { round } => {
            format!(
                "{}}}",
                common(&format!("round {round}"), "B", "engine", us(ev.ts_ns))
            )
        }
        EventKind::RoundEnd { round, changed } => format!(
            "{},\"args\":{{\"round\":{round},\"changed\":{changed}}}}}",
            common(&format!("round {round}"), "E", "engine", us(ev.ts_ns))
        ),
        EventKind::CallSelected { doc, node, service } => instant(
            &format!("select {service}"),
            "schedule",
            format!(
                "\"doc\":\"{}\",\"node\":{}",
                json_escape(doc.as_str()),
                node.0
            ),
        ),
        EventKind::CallSkipped { doc, node, service } => instant(
            &format!("skip {service}"),
            "schedule",
            format!(
                "\"doc\":\"{}\",\"node\":{}",
                json_escape(doc.as_str()),
                node.0
            ),
        ),
        EventKind::Invoke {
            doc,
            node,
            service,
            changed,
            grafted,
            result_trees,
            doc_version,
            dur_ns,
        } => {
            let start = us(ev.ts_ns.saturating_sub(dur_ns));
            format!(
                "{},\"dur\":{:.3},\"args\":{{\"doc\":\"{}\",\"version\":{doc_version},\
                 \"node\":{},\"changed\":{changed},\"grafted\":{grafted},\"results\":{result_trees}}}}}",
                common(&format!("invoke {service}"), "X", "invoke", start),
                us(dur_ns),
                json_escape(doc.as_str()),
                node.0,
            )
        }
        EventKind::CacheHit { service, atom } => instant(
            &format!("hit {service}#{atom}"),
            "cache",
            format!("\"atom\":{atom}"),
        ),
        EventKind::CacheMiss { service, atom } => instant(
            &format!("miss {service}#{atom}"),
            "cache",
            format!("\"atom\":{atom}"),
        ),
        EventKind::SubsumeCheck { doc, subsumed } => instant(
            "subsume-check",
            "graft",
            format!(
                "\"doc\":\"{}\",\"subsumed\":{subsumed}",
                json_escape(doc.as_str())
            ),
        ),
        EventKind::Graft {
            doc,
            doc_version,
            trees,
        } => instant(
            "graft",
            "graft",
            format!(
                "\"doc\":\"{}\",\"version\":{doc_version},\"trees\":{trees}",
                json_escape(doc.as_str())
            ),
        ),
        EventKind::Reduce {
            doc,
            nodes_before,
            nodes_after,
        } => instant(
            "reduce",
            "reduce",
            format!(
                "\"doc\":\"{}\",\"before\":{nodes_before},\"after\":{nodes_after}",
                json_escape(doc.as_str())
            ),
        ),
        EventKind::IndexLookup {
            service,
            atom,
            probes,
            probe_hits,
            fallbacks,
            scanned,
        } => instant(
            &format!("index {service}#{atom}"),
            "index",
            format!(
                "\"probes\":{probes},\"probe_hits\":{probe_hits},\"fallbacks\":{fallbacks},\"scanned\":{scanned}"
            ),
        ),
        EventKind::IndexMaintain {
            doc,
            adds,
            removes,
            bytes,
        } => instant(
            "index-maintain",
            "index",
            format!(
                "\"doc\":\"{}\",\"adds\":{adds},\"removes\":{removes},\"bytes\":{bytes}",
                json_escape(doc.as_str())
            ),
        ),
        EventKind::MsgSend { from, to, kind } => instant(
            &format!("send {}", kind.name()),
            "p2p",
            format!(
                "\"from\":\"{}\",\"to\":\"{}\"",
                json_escape(from.as_str()),
                json_escape(to.as_str())
            ),
        ),
        EventKind::MsgRecv { peer, kind } => instant(
            &format!("recv {}", kind.name()),
            "p2p",
            format!("\"peer\":\"{}\"", json_escape(peer.as_str())),
        ),
        EventKind::PeerEval {
            peer,
            service,
            dur_ns,
        } => {
            let start = us(ev.ts_ns.saturating_sub(dur_ns));
            format!(
                "{},\"dur\":{:.3},\"args\":{{\"peer\":\"{}\"}}}}",
                common(&format!("eval {service}"), "X", "p2p", start),
                us(dur_ns),
                json_escape(peer.as_str()),
            )
        }
        EventKind::PlanCompiled {
            service,
            atoms,
            ops,
            dur_ns,
        } => {
            let start = us(ev.ts_ns.saturating_sub(dur_ns));
            format!(
                "{},\"dur\":{:.3},\"args\":{{\"atoms\":{atoms},\"ops\":{ops}}}}}",
                common(&format!("compile {service}"), "X", "compile", start),
                us(dur_ns),
            )
        }
        EventKind::ProgramCacheHit { service } => {
            instant(&format!("program hit {service}"), "compile", String::new())
        }
        EventKind::ProgramCacheMiss { service } => {
            instant(&format!("program miss {service}"), "compile", String::new())
        }
        EventKind::RequestRecv { session, kind, id } => instant(
            &format!("recv {}", kind.name()),
            "server",
            format!(
                "\"session\":\"{}\",\"id\":{id}",
                json_escape(session.as_str())
            ),
        ),
        EventKind::RequestServed {
            session,
            kind,
            id,
            ok,
            dur_ns,
        } => {
            let start = us(ev.ts_ns.saturating_sub(dur_ns));
            format!(
                "{},\"dur\":{:.3},\"args\":{{\"session\":\"{}\",\"id\":{id},\"ok\":{ok}}}}}",
                common(&format!("serve {}", kind.name()), "X", "server", start),
                us(dur_ns),
                json_escape(session.as_str()),
            )
        }
        EventKind::BatchFormed {
            session,
            size,
            dur_ns,
        } => {
            let start = us(ev.ts_ns.saturating_sub(dur_ns));
            format!(
                "{},\"dur\":{:.3},\"args\":{{\"session\":\"{}\",\"size\":{size}}}}}",
                common("batch", "X", "server", start),
                us(dur_ns),
                json_escape(session.as_str()),
            )
        }
        EventKind::SubscriptionPush {
            session,
            sub,
            trees,
            round,
            version,
        } => instant(
            "push",
            "server",
            format!(
                "\"session\":\"{}\",\"sub\":{sub},\"trees\":{trees},\
                 \"round\":{round},\"version\":{version}",
                json_escape(session.as_str())
            ),
        ),
    }
}

// ---------------------------------------------------------------------
// Chrome-trace validation: a minimal JSON parser (no external deps)
// plus the structural checks chrome://tracing / Perfetto rely on.
// ---------------------------------------------------------------------

/// Deepest array/object nesting [`parse_json`] accepts. The parser
/// recurses once per level, and a stack overflow aborts the process
/// rather than unwinding, so hostile wire text must be cut off well
/// before a connection thread's stack runs out.
pub const MAX_JSON_DEPTH: usize = 1_000;

struct JsonParser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays/objects currently open around `pos`.
    depth: usize,
}

impl<'a> JsonParser<'a> {
    fn new(s: &'a str) -> JsonParser<'a> {
        JsonParser {
            bytes: s.as_bytes(),
            pos: 0,
            depth: 0,
        }
    }

    fn err(&self, msg: &str) -> String {
        format!("{msg} at byte {}", self.pos)
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let mut v = 0u32;
        for _ in 0..4 {
            match self.peek().and_then(|h| (h as char).to_digit(16)) {
                Some(d) => {
                    v = v * 16 + d;
                    self.pos += 1;
                }
                None => return Err(self.err("bad \\u escape")),
            }
        }
        Ok(v)
    }

    fn parse_string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'u') => {
                            self.pos += 1;
                            let hi = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // High surrogate: a \uXXXX low surrogate
                                // must follow to complete the pair.
                                self.expect(b'\\').and_then(|()| self.expect(b'u'))?;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(self.err("bad low surrogate"));
                                }
                                let cp = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                                char::from_u32(cp).expect("paired surrogates are valid")
                            } else if (0xDC00..0xE000).contains(&hi) {
                                return Err(self.err("lone low surrogate"));
                            } else {
                                char::from_u32(hi).expect("non-surrogate BMP scalar")
                            };
                            out.push(c);
                        }
                        Some(e @ (b'"' | b'\\' | b'/')) => {
                            self.pos += 1;
                            out.push(e as char);
                        }
                        Some(b'b') => {
                            self.pos += 1;
                            out.push('\u{0008}');
                        }
                        Some(b'f') => {
                            self.pos += 1;
                            out.push('\u{000C}');
                        }
                        Some(b'n') => {
                            self.pos += 1;
                            out.push('\n');
                        }
                        Some(b'r') => {
                            self.pos += 1;
                            out.push('\r');
                        }
                        Some(b't') => {
                            self.pos += 1;
                            out.push('\t');
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                }
                Some(b) if b < 0x80 => {
                    out.push(b as char);
                    self.pos += 1;
                }
                Some(_) => {
                    // Multi-byte UTF-8 scalar: the input came in as a
                    // &str, so the sequence is valid — copy it through.
                    let start = self.pos;
                    self.pos += 1;
                    while matches!(self.peek(), Some(b) if b & 0xC0 == 0x80) {
                        self.pos += 1;
                    }
                    out.push_str(
                        std::str::from_utf8(&self.bytes[start..self.pos]).expect("input is a str"),
                    );
                }
            }
        }
    }

    fn parse_number(&mut self) -> Result<JsonValue, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b) if b.is_ascii_digit()) {
            self.pos += 1;
        }
        let mut integral = true;
        if self.peek() == Some(b'.') {
            integral = false;
            self.pos += 1;
            while matches!(self.peek(), Some(b) if b.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            integral = false;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b) if b.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if self.pos == start {
            return Err(self.err("expected number"));
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("digits are ASCII");
        // Integral numbers spanning the full i64/u64 range are kept
        // lossless — request ids must be echoed verbatim
        // (docs/protocol.md) and f64 rounds above 2^53.
        if integral {
            if let Ok(n) = text.parse::<i128>() {
                if (i64::MIN as i128..=u64::MAX as i128).contains(&n) {
                    return Ok(JsonValue::Int(n));
                }
            }
        }
        text.parse::<f64>()
            .map(JsonValue::Num)
            .map_err(|_| self.err("bad number"))
    }

    /// Parse any JSON value into a [`JsonValue`] tree.
    fn parse_value(&mut self) -> Result<JsonValue, String> {
        self.skip_ws();
        match self.peek() {
            Some(open @ (b'{' | b'[')) => {
                if self.depth == MAX_JSON_DEPTH {
                    return Err(self.err(&format!("nesting deeper than {MAX_JSON_DEPTH}")));
                }
                self.pos += 1;
                self.depth += 1;
                let v = if open == b'{' {
                    self.parse_object()
                } else {
                    self.parse_array()
                };
                self.depth -= 1;
                v
            }
            Some(b'"') => Ok(JsonValue::Str(self.parse_string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(_) => self.parse_number(),
            None => Err(self.err("unexpected end of input")),
        }
    }

    /// The rest of an object, its `{` already consumed.
    fn parse_object(&mut self) -> Result<JsonValue, String> {
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.parse_value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    /// The rest of an array, its `[` already consumed.
    fn parse_array(&mut self) -> Result<JsonValue, String> {
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Arr(items));
        }
        loop {
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn literal(&mut self, lit: &str, v: JsonValue) -> Result<JsonValue, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.err("bad literal"))
        }
    }
}

/// A fully-decoded JSON value (strings with their escapes resolved,
/// including `\uXXXX` surrogate pairs). Parsed by [`parse_json`]; the
/// decode side of the trace exporters and the `axml-server` wire layer.
#[derive(Clone, Debug, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integral number within the `i64`/`u64` span, kept lossless
    /// (`i128` covers both ends) so 64-bit ids survive a round trip.
    Int(i128),
    /// Any other number (fractional, exponent form, or beyond 64-bit
    /// integer range), as an IEEE double.
    Num(f64),
    /// A string, escapes resolved.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object: fields in source order (duplicate keys preserved;
    /// lookups take the first).
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Object-field lookup by key (first match; `None` on non-objects).
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number (lossy above 2^53 for
    /// [`JsonValue::Int`] values outside `f64`'s exact-integer range).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(n) => Some(*n),
            JsonValue::Int(n) => Some(*n as f64),
            _ => None,
        }
    }

    /// The numeric payload as a `u64`, if this is a non-negative
    /// integral number in `u64` range. Lossless for
    /// [`JsonValue::Int`] — the variant every plain integer literal
    /// parses into.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Int(n) => u64::try_from(*n).ok(),
            JsonValue::Num(n) if n.fract() == 0.0 && *n >= 0.0 && *n <= 1.8e19 => Some(*n as u64),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_arr(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Render a scalar for [`ChromeEvent::args`]; containers summarize.
    fn render(&self) -> String {
        match self {
            JsonValue::Null => "null".to_string(),
            JsonValue::Bool(b) => b.to_string(),
            JsonValue::Int(n) => n.to_string(),
            JsonValue::Num(n) => {
                if n.fract() == 0.0 && n.abs() < 9.0e15 {
                    format!("{}", *n as i64)
                } else {
                    n.to_string()
                }
            }
            JsonValue::Str(s) => s.clone(),
            JsonValue::Arr(items) => format!("[{} items]", items.len()),
            JsonValue::Obj(fields) => format!("{{{} keys}}", fields.len()),
        }
    }
}

/// Parse one complete JSON document into a [`JsonValue`], rejecting
/// trailing non-whitespace — the in-repo replacement for a JSON
/// dependency, shared by [`parse_chrome_trace`] and the `axml-server`
/// frame decoder. Errors carry the byte offset of the failure.
pub fn parse_json(s: &str) -> Result<JsonValue, String> {
    let mut p = JsonParser::new(s);
    let v = p.parse_value()?;
    p.skip_ws();
    if p.peek().is_some() {
        return Err(p.err("trailing content after JSON document"));
    }
    Ok(v)
}

/// One event parsed back from a [`chrome_trace`] export.
///
/// Metadata events (`ph == "M"`) carry no timestamp; their `ts` reads
/// as `0.0` and `tid` defaults to `0` when absent (`process_name`).
/// `args` values are scalars rendered to strings.
#[derive(Clone, Debug, PartialEq)]
pub struct ChromeEvent {
    /// Event name (e.g. `invoke f`, `send call`, `thread_name`).
    pub name: String,
    /// Phase: `B`/`E` durations, `X` complete, `i` instant, `M` metadata.
    pub ph: String,
    /// Category (`engine`, `schedule`, `invoke`, `cache`, `graft`,
    /// `reduce`, `p2p`); empty when absent (metadata events).
    pub cat: String,
    /// Timestamp in microseconds (0.0 for metadata events).
    pub ts: f64,
    /// Process id lane.
    pub pid: i64,
    /// Thread id lane (tid 1 = engine, 2+ = one per peer).
    pub tid: i64,
    /// The event's `args` object, with scalar values stringified.
    pub args: Vec<(String, String)>,
}

impl ChromeEvent {
    /// Look up an `args` entry by key.
    pub fn arg(&self, key: &str) -> Option<&str> {
        self.args
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// Parse a [`chrome_trace`] export back into its events, decoding all
/// string escapes — the round-trip counterpart of the exporter. Every
/// event must carry the keys the trace viewers require: `name`/`ph`/
/// `pid` always, plus `ts`/`tid` for non-metadata phases.
pub fn parse_chrome_trace(json: &str) -> Result<Vec<ChromeEvent>, String> {
    let mut p = JsonParser::new(json);
    let top = p.parse_value()?;
    p.skip_ws();
    if p.peek().is_some() {
        return Err(p.err("trailing content after JSON document"));
    }
    let JsonValue::Obj(fields) = top else {
        return Err("top level is not an object".to_string());
    };
    let Some((_, events)) = fields.iter().find(|(k, _)| k == "traceEvents") else {
        return Err("missing \"traceEvents\" key".to_string());
    };
    let JsonValue::Arr(items) = events else {
        return Err("traceEvents is not an array".to_string());
    };
    let mut out = Vec::with_capacity(items.len());
    for (i, item) in items.iter().enumerate() {
        let JsonValue::Obj(fields) = item else {
            return Err("traceEvents contains non-object elements".to_string());
        };
        let get = |k: &str| fields.iter().find(|(f, _)| f == k).map(|(_, v)| v);
        let str_field = |k: &str| match get(k) {
            Some(JsonValue::Str(s)) => Ok(s.clone()),
            Some(_) => Err(format!("event {i}: key \"{k}\" is not a string")),
            None => Err(format!("event {i} is missing key \"{k}\"")),
        };
        let num_field = |k: &str| match get(k).map(JsonValue::as_f64) {
            Some(Some(n)) => Ok(n),
            Some(None) => Err(format!("event {i}: key \"{k}\" is not a number")),
            None => Err(format!("event {i} is missing key \"{k}\"")),
        };
        let name = str_field("name")?;
        let ph = str_field("ph")?;
        let cat = str_field("cat").unwrap_or_default();
        let pid = num_field("pid")? as i64;
        let (ts, tid) = if ph == "M" {
            // Metadata events have no timeline position; tid is
            // optional (process_name applies to the whole process).
            (0.0, num_field("tid").unwrap_or(0.0) as i64)
        } else {
            (num_field("ts")?, num_field("tid")? as i64)
        };
        let args = match get("args") {
            Some(JsonValue::Obj(kvs)) => kvs.iter().map(|(k, v)| (k.clone(), v.render())).collect(),
            _ => Vec::new(),
        };
        out.push(ChromeEvent {
            name,
            ph,
            cat,
            ts,
            pid,
            tid,
            args,
        });
    }
    Ok(out)
}

/// Validate a [`chrome_trace`] export without a browser: the string must
/// be well-formed JSON, a top-level object with a `traceEvents` array,
/// and every event object must carry the keys the trace viewers
/// require (`name`/`ph`/`ts`/`pid`/`tid`; metadata events only
/// `name`/`ph`/`pid`). Returns the number of non-metadata events, i.e.
/// the number of journal events the export represents.
pub fn validate_chrome_trace(json: &str) -> Result<usize, String> {
    let events = parse_chrome_trace(json)?;
    Ok(events.iter().filter(|e| e.ph != "M").count())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sym(s: &str) -> Sym {
        Sym::intern(s)
    }

    #[test]
    fn histogram_bucketing_is_log2() {
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(1), 1);
        assert_eq!(Histogram::bucket_index(2), 2);
        assert_eq!(Histogram::bucket_index(3), 2);
        assert_eq!(Histogram::bucket_index(4), 3);
        assert_eq!(Histogram::bucket_index(1023), 10);
        assert_eq!(Histogram::bucket_index(1024), 11);
        assert_eq!(Histogram::bucket_index(u64::MAX), 64);
        // Upper bounds are inclusive and aligned with the index map.
        for v in [0u64, 1, 2, 3, 7, 8, 1023, 1024, u64::MAX] {
            let i = Histogram::bucket_index(v);
            assert!(v <= Histogram::bucket_upper_bound(i), "v={v} i={i}");
            if i > 0 {
                assert!(v > Histogram::bucket_upper_bound(i - 1), "v={v} i={i}");
            }
        }
    }

    #[test]
    fn histogram_stats_and_quantiles() {
        let mut h = Histogram::new();
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!((h.count(), h.min(), h.max(), h.mean()), (0, 0, 0, 0));
        for v in 1..=100u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 100);
        assert_eq!(h.min(), 1);
        assert_eq!(h.max(), 100);
        assert_eq!(h.sum(), 5050);
        assert_eq!(h.mean(), 50);
        // The true median is 50; the log bucket answer is its bucket's
        // upper bound (63), clamped within [median, 2*median).
        let p50 = h.quantile(0.5);
        assert!((50..100).contains(&p50), "p50={p50}");
        // p100 is exactly the max.
        assert_eq!(h.quantile(1.0), 100);
        // Quantiles are monotone in q.
        assert!(h.quantile(0.1) <= h.quantile(0.9));
    }

    #[test]
    fn histogram_merge_accumulates() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record(4);
        a.record(5);
        b.record(1_000);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.min(), 4);
        assert_eq!(a.max(), 1_000);
        assert_eq!(a.sum(), 1_009);
        let empty = Histogram::new();
        a.merge(&empty);
        assert_eq!(a.count(), 3);
        assert_eq!(a.min(), 4);
    }

    #[test]
    fn histogram_empty_is_all_zeros() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.sum(), 0);
        assert_eq!(h.min(), 0, "empty min reads 0, not the u64::MAX sentinel");
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0);
        for q in [0.0, 0.25, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile(q), 0, "q={q}");
        }
    }

    #[test]
    fn histogram_single_sample_pins_every_stat() {
        let mut h = Histogram::new();
        h.record(42);
        assert_eq!((h.count(), h.min(), h.max()), (1, 42, 42));
        assert_eq!(h.mean(), 42);
        // Every quantile of a one-sample distribution is that sample
        // (the bucket bound 63 is clamped to the recorded max).
        for q in [0.0, 0.5, 1.0] {
            assert_eq!(h.quantile(q), 42, "q={q}");
        }
        // A zero-valued sample exercises bucket 0 exactly.
        let mut z = Histogram::new();
        z.record(0);
        assert_eq!((z.count(), z.min(), z.max(), z.quantile(0.5)), (1, 0, 0, 0));
    }

    #[test]
    fn histogram_saturates_at_the_top_bucket() {
        let mut h = Histogram::new();
        h.record(u64::MAX);
        h.record(u64::MAX);
        assert_eq!(Histogram::bucket_index(u64::MAX), 64);
        assert_eq!(Histogram::bucket_upper_bound(64), u64::MAX);
        assert_eq!(h.max(), u64::MAX);
        assert_eq!(h.quantile(1.0), u64::MAX);
        // The sum saturates instead of wrapping, so the mean stays an
        // upper bound rather than garbage.
        assert_eq!(h.sum(), u64::MAX);
        assert_eq!(h.mean(), u64::MAX / 2);
    }

    #[test]
    fn histogram_merge_of_disjoint_ranges() {
        // a holds only tiny samples, b only huge ones: the merge must
        // keep both tails intact.
        let mut a = Histogram::new();
        for v in [0u64, 1, 2, 3] {
            a.record(v);
        }
        let mut b = Histogram::new();
        for v in [1u64 << 40, (1 << 40) + 1, u64::MAX] {
            b.record(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), 7);
        assert_eq!(a.min(), 0);
        assert_eq!(a.max(), u64::MAX);
        assert_eq!(a.quantile(0.0), 0);
        assert_eq!(a.quantile(1.0), u64::MAX);
        // The low quantiles still resolve inside the small buckets.
        assert!(a.quantile(0.5) <= 3, "p50={}", a.quantile(0.5));
        // Merging the other way agrees on the aggregate stats.
        let mut c = Histogram::new();
        for v in [1u64 << 40, (1 << 40) + 1, u64::MAX] {
            c.record(v);
        }
        let mut d = Histogram::new();
        for v in [0u64, 1, 2, 3] {
            c.record(v);
            d.record(v);
        }
        d.merge(&b);
        assert_eq!(c.count(), d.count());
        assert_eq!(c.min(), d.min());
        assert_eq!(c.max(), d.max());
        assert_eq!(c.sum(), d.sum());
    }

    #[test]
    fn journal_orders_events_strictly() {
        let j = Journal::new();
        for i in 0..100u64 {
            j.record(EventKind::RoundStart { round: i });
        }
        let events = j.snapshot();
        assert_eq!(events.len(), 100);
        for w in events.windows(2) {
            assert!(w[0].seq < w[1].seq, "seq must strictly increase");
            assert!(w[0].ts_ns <= w[1].ts_ns, "timestamps must be monotone");
        }
        assert_eq!(events[0].seq, 0);
        assert_eq!(events[99].seq, 99);
        assert_eq!(j.len(), 100);
        assert_eq!(j.into_events().len(), 100);
    }

    #[test]
    fn disabled_tracer_never_constructs_events() {
        let t = Tracer::disabled();
        assert!(!t.enabled());
        t.emit(|| panic!("closure must not run when disabled"));
    }

    #[test]
    fn ring_journal_evicts_oldest_and_counts_drops() {
        let j = Journal::bounded(10);
        for i in 0..25u64 {
            j.record(EventKind::RoundStart { round: i });
        }
        let events = j.snapshot();
        assert_eq!(j.len(), 10);
        // The *newest* 10 events survive, seq stamps intact.
        let seqs: Vec<u64> = events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, (15..25).collect::<Vec<u64>>());
        assert_eq!(j.dropped(), 15);
        let by_cat = j.dropped_by_category();
        let engine = by_cat
            .iter()
            .find(|(c, _)| *c == EventCategory::Engine)
            .unwrap();
        assert_eq!(engine.1, 15);
        // Seq numbers keep advancing past evictions.
        let ev = j.record_event(EventKind::RoundStart { round: 99 }, 7);
        assert_eq!(ev.seq, 25);
        assert_eq!(ev.trace, 7);
    }

    #[test]
    fn default_journal_config_is_a_bounded_ring() {
        let cfg = JournalConfig::default();
        assert_eq!(cfg.capacity, Some(DEFAULT_JOURNAL_CAPACITY));
        let j = Journal::bounded(2);
        for round in 0..5u64 {
            j.record(EventKind::RoundStart { round });
        }
        assert_eq!(j.len(), 2);
        assert_eq!(j.dropped(), 3);
    }

    #[test]
    fn event_categories_parse_and_cover_the_taxonomy() {
        for &cat in &EventCategory::ALL {
            assert_eq!(EventCategory::parse(cat.name()), Some(cat));
        }
        assert_eq!(EventCategory::parse("nope"), None);
    }

    #[test]
    fn tracer_stamps_trace_ids_on_emitted_events() {
        let j = Journal::new();
        let t = Tracer::new(&j).with_trace(42);
        assert_eq!(t.trace_id(), 42);
        t.emit(|| EventKind::RoundStart { round: 0 });
        let events = j.snapshot();
        assert_eq!(events[0].trace, 42);
        // with_trace_arg surfaces the id in the chrome export.
        let json = chrome_trace(&events);
        assert!(json.contains("\"trace\":42"), "{json}");
        assert!(validate_chrome_trace(&json).is_ok());
    }

    #[test]
    fn fanout_feeds_every_sink() {
        let j = Journal::new();
        let m = MetricsRegistry::new();
        let fan = Fanout::new(vec![&j, &m]);
        let t = Tracer::new(&fan);
        assert!(t.enabled());
        t.emit(|| EventKind::Invoke {
            doc: sym("d"),
            node: NodeId(1),
            service: sym("f"),
            changed: true,
            grafted: 2,
            result_trees: 3,
            doc_version: 7,
            dur_ns: 1_500,
        });
        assert_eq!(j.len(), 1);
        let sm = m.service(sym("f")).unwrap();
        assert_eq!(sm.invocations, 1);
        assert_eq!(sm.productive, 1);
        assert_eq!(sm.grafted, 2);
        assert_eq!(sm.result_trees, 3);
        assert_eq!(sm.latency_ns.count(), 1);
    }

    #[test]
    fn metrics_aggregate_the_taxonomy() {
        let m = MetricsRegistry::new();
        m.record(EventKind::RoundStart { round: 0 });
        m.record(EventKind::CallSelected {
            doc: sym("d"),
            node: NodeId(0),
            service: sym("f"),
        });
        m.record(EventKind::CacheMiss {
            service: sym("f"),
            atom: 0,
        });
        m.record(EventKind::CacheHit {
            service: sym("f"),
            atom: 1,
        });
        m.record(EventKind::SubsumeCheck {
            doc: sym("d"),
            subsumed: false,
        });
        m.record(EventKind::Graft {
            doc: sym("d"),
            doc_version: 3,
            trees: 2,
        });
        m.record(EventKind::Reduce {
            doc: sym("d"),
            nodes_before: 10,
            nodes_after: 8,
        });
        m.record(EventKind::Invoke {
            doc: sym("d"),
            node: NodeId(0),
            service: sym("f"),
            changed: false,
            grafted: 0,
            result_trees: 1,
            doc_version: 3,
            dur_ns: 10,
        });
        m.record(EventKind::CallSkipped {
            doc: sym("d"),
            node: NodeId(0),
            service: sym("f"),
        });
        m.record(EventKind::MsgSend {
            from: sym("a"),
            to: sym("b"),
            kind: MsgKind::Call,
        });
        m.record(EventKind::MsgRecv {
            peer: sym("b"),
            kind: MsgKind::Call,
        });
        m.record(EventKind::PeerEval {
            peer: sym("b"),
            service: sym("g"),
            dur_ns: 99,
        });
        m.record(EventKind::RoundEnd {
            round: 0,
            changed: true,
        });
        let g = m.globals();
        assert_eq!(g.rounds, 1);
        assert_eq!(g.calls_selected, 1);
        assert_eq!(g.calls_skipped, 1);
        assert_eq!(g.subsume_checks, 1);
        assert_eq!(g.subsumed_results, 0);
        assert_eq!(g.grafts, 1);
        assert_eq!(g.reduces, 1);
        assert_eq!(g.nodes_pruned, 2);
        assert_eq!(g.msgs_sent, 1);
        assert_eq!(g.msgs_recv, 1);
        let f = m.service(sym("f")).unwrap();
        assert_eq!(f.invocations, 1);
        assert_eq!(f.skipped, 1);
        assert_eq!(f.cache_hits, 1);
        assert_eq!(f.cache_misses, 1);
        let report = m.render_report("test");
        assert!(report.contains("run report: test"));
        assert!(report.contains("f"));
        assert!(report.contains("g"));
        assert_eq!(m.service_names(), vec![sym("f"), sym("g")]);
    }

    #[test]
    fn closed_sessions_leave_the_registry() {
        let m = MetricsRegistry::new();
        let request = |session: &str, kind: ReqKind, ok: bool| {
            m.record(EventKind::RequestRecv {
                session: sym(session),
                kind,
                id: 0,
            });
            m.record(EventKind::RequestServed {
                session: sym(session),
                kind,
                id: 0,
                ok,
                dur_ns: 10,
            });
        };
        request("kept", ReqKind::Open, true);
        request("gone", ReqKind::Open, true);
        request("gone", ReqKind::Query, true);
        // A failed close leaves the session open, so its row stays.
        request("kept", ReqKind::Close, false);
        request("gone", ReqKind::Close, true);
        assert_eq!(m.session_names(), vec![sym("kept")]);
        assert_eq!(m.session(sym("kept")).unwrap().errors, 1);
        // Server-wide aggregates still count the closed session's work.
        assert_eq!(m.globals().requests_served, 5);
        assert_eq!(m.request_latency().count(), 5);
    }

    #[test]
    fn chrome_export_validates_and_counts() {
        let j = Journal::new();
        let t = Tracer::new(&j);
        t.emit(|| EventKind::RoundStart { round: 0 });
        t.emit(|| EventKind::CallSelected {
            doc: sym("d\"quoted\""),
            node: NodeId(4),
            service: sym("f"),
        });
        t.emit(|| EventKind::Invoke {
            doc: sym("d\"quoted\""),
            node: NodeId(4),
            service: sym("f"),
            changed: true,
            grafted: 1,
            result_trees: 1,
            doc_version: 1,
            dur_ns: 2_000,
        });
        t.emit(|| EventKind::CacheMiss {
            service: sym("f"),
            atom: 0,
        });
        t.emit(|| EventKind::Reduce {
            doc: sym("d\"quoted\""),
            nodes_before: 5,
            nodes_after: 5,
        });
        t.emit(|| EventKind::MsgSend {
            from: sym("a"),
            to: sym("b"),
            kind: MsgKind::Response,
        });
        t.emit(|| EventKind::RoundEnd {
            round: 0,
            changed: true,
        });
        let json = chrome_trace(&j.snapshot());
        let n = validate_chrome_trace(&json).expect("export must validate");
        assert_eq!(n, 7);
    }

    #[test]
    fn validator_rejects_malformed_traces() {
        assert!(validate_chrome_trace("").is_err());
        assert!(validate_chrome_trace("[]").is_err(), "array at top level");
        assert!(
            validate_chrome_trace("{\"foo\": 1}").is_err(),
            "no traceEvents"
        );
        assert!(
            validate_chrome_trace("{\"traceEvents\": [{\"name\":\"x\"}]}").is_err(),
            "event missing required keys"
        );
        assert!(
            validate_chrome_trace("{\"traceEvents\": [1,2]}").is_err(),
            "non-object events"
        );
        assert!(validate_chrome_trace("{\"traceEvents\": []}").unwrap() == 0);
        let ok = "{\"traceEvents\": [{\"name\":\"x\",\"ph\":\"i\",\"ts\":0.5,\
                  \"pid\":1,\"tid\":1,\"s\":\"t\",\"args\":{\"k\":\"v\"}}]}";
        assert_eq!(validate_chrome_trace(ok).unwrap(), 1);
        assert!(validate_chrome_trace("{\"traceEvents\": []} trailing").is_err());
    }

    #[test]
    fn json_escape_handles_specials() {
        assert_eq!(json_escape("plain"), "plain");
        assert_eq!(json_escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(json_escape("n\nl"), "n\\nl");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn parser_keeps_64_bit_integers_lossless() {
        // Above 2^53 an f64 rounds; ids must round-trip verbatim.
        for id in [u64::MAX, u64::MAX - 1, (1 << 53) + 1, 0] {
            let v = parse_json(&id.to_string()).unwrap();
            assert_eq!(v, JsonValue::Int(id as i128), "{id}");
            assert_eq!(v.as_u64(), Some(id), "{id}");
            assert_eq!(v.render(), id.to_string(), "{id}");
        }
        assert_eq!(
            parse_json("-9223372036854775808").unwrap(),
            JsonValue::Int(i64::MIN as i128)
        );
        assert_eq!(parse_json("-1").unwrap().as_u64(), None);
        // Fractional, exponent-form, and beyond-64-bit numbers stay
        // doubles.
        assert_eq!(parse_json("1.5").unwrap(), JsonValue::Num(1.5));
        assert_eq!(parse_json("1e3").unwrap(), JsonValue::Num(1000.0));
        assert_eq!(parse_json("2.0").unwrap().as_u64(), Some(2));
        assert_eq!(
            parse_json("99999999999999999999999").unwrap(),
            JsonValue::Num(1e23)
        );
        assert_eq!(
            parse_json("18446744073709551615").unwrap().as_f64(),
            Some(u64::MAX as f64)
        );
    }

    #[test]
    fn parser_decodes_escapes_and_unicode() {
        let mut p = JsonParser::new(r#""a\"b\\c\/d\n\tAé""#);
        assert_eq!(p.parse_string().unwrap(), "a\"b\\c/d\n\tAé");
        // Surrogate pair: U+1F600.
        let mut p = JsonParser::new(r#""😀""#);
        assert_eq!(p.parse_string().unwrap(), "😀");
        // Raw (unescaped) multi-byte UTF-8 passes through verbatim.
        let mut p = JsonParser::new("\"héllo — 日本語\"");
        assert_eq!(p.parse_string().unwrap(), "héllo — 日本語");
        // Lone surrogates are rejected.
        assert!(JsonParser::new(r#""\ud83d""#).parse_string().is_err());
        assert!(JsonParser::new(r#""\ude00""#).parse_string().is_err());
        assert!(JsonParser::new(r#""\ud83dx""#).parse_string().is_err());
    }

    /// Build a journal around a doc/peer name and export it.
    fn trace_with_names(doc: &str, peer: &str) -> (String, usize) {
        let j = Journal::new();
        let t = Tracer::new(&j);
        t.emit(|| EventKind::RoundStart { round: 0 });
        t.emit(|| EventKind::CallSelected {
            doc: sym(doc),
            node: NodeId(3),
            service: sym("f"),
        });
        t.emit(|| EventKind::MsgSend {
            from: sym(peer),
            to: sym("other"),
            kind: MsgKind::Call,
        });
        t.emit(|| EventKind::RoundEnd {
            round: 0,
            changed: false,
        });
        let n = j.len();
        (chrome_trace(&j.snapshot()), n)
    }

    #[test]
    fn chrome_trace_round_trips_hostile_names() {
        // Doc and peer names bearing quotes, backslashes, control
        // characters, and non-ASCII must survive export → parse intact.
        for name in [
            "doc \"quoted\" \\slashed\\",
            "tab\there\nnewline",
            "héllo — 日本語 😀",
            "ctrl\u{1}\u{1f}end",
        ] {
            let (json, n) = trace_with_names(name, name);
            assert_eq!(validate_chrome_trace(&json).unwrap(), n, "name={name:?}");
            let events = parse_chrome_trace(&json).unwrap();
            let select = events
                .iter()
                .find(|e| e.name == "select f")
                .expect("CallSelected row survives");
            assert_eq!(select.arg("doc"), Some(name), "doc arg round-trips");
            let send = events
                .iter()
                .find(|e| e.name == "send call")
                .expect("MsgSend row survives");
            assert_eq!(send.arg("from"), Some(name), "peer arg round-trips");
            // The peer's thread_name metadata carries the same name.
            let lane = events
                .iter()
                .find(|e| e.ph == "M" && e.name == "thread_name" && e.tid == send.tid)
                .expect("peer lane is named");
            assert_eq!(lane.arg("name"), Some(name));
        }
    }

    #[test]
    fn chrome_trace_gives_each_peer_its_own_lane() {
        let j = Journal::new();
        let t = Tracer::new(&j);
        t.emit(|| EventKind::RoundStart { round: 0 });
        for (a, b) in [("p1", "p2"), ("p2", "p1"), ("p3", "p1")] {
            t.emit(|| EventKind::MsgSend {
                from: sym(a),
                to: sym(b),
                kind: MsgKind::Call,
            });
            t.emit(|| EventKind::MsgRecv {
                peer: sym(b),
                kind: MsgKind::Call,
            });
        }
        t.emit(|| EventKind::PeerEval {
            peer: sym("p2"),
            service: sym("f"),
            dur_ns: 10,
        });
        t.emit(|| EventKind::RoundEnd {
            round: 0,
            changed: false,
        });
        let json = chrome_trace(&j.snapshot());
        let events = parse_chrome_trace(&json).unwrap();
        // Engine events sit on tid 1; each peer has a distinct tid ≥ 2.
        let tid_of = |name: &str| {
            events
                .iter()
                .find(|e| e.ph == "M" && e.name == "thread_name" && e.arg("name") == Some(name))
                .map(|e| e.tid)
        };
        assert_eq!(tid_of("engine"), Some(1));
        let tids: Vec<i64> = ["p1", "p2", "p3"]
            .iter()
            .map(|p| tid_of(p).expect("every peer gets a lane"))
            .collect();
        assert_eq!(tids, vec![2, 3, 4], "lanes in order of first appearance");
        assert!(events
            .iter()
            .any(|e| e.ph == "M" && e.name == "process_name"));
        for e in &events {
            match e.name.as_str() {
                "round 0" => assert_eq!(e.tid, 1),
                n if n.starts_with("send") => {
                    assert!(e.tid >= 2, "p2p events leave the engine lane")
                }
                _ => {}
            }
        }
        // The eval slice sits on its evaluator's lane.
        let eval = events.iter().find(|e| e.name == "eval f").unwrap();
        assert_eq!(Some(eval.tid), tid_of("p2"));
    }
}
