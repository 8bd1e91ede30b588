//! The shadow pipeline: sampled ops replayed in-process through the
//! same public calls the server makes for them, each call wrapped in a
//! span. The server itself carries no spans yet, so this is where the
//! per-layer times come from; what the replay cannot see (sockets,
//! thread hand-offs, locks, the journal) is the residual.
//!
//! The replay mirrors `crates/server/src/server.rs`: `read_loop`
//! (`Request::parse`), `open_session`, `run_session`, `eval_query`,
//! `serve_batch_frame`, `serve_subscribe`, `write_frame`
//! (`Response::to_json`). When the server's request path changes, this
//! file follows it.

use crate::gen::{Closure, Linear, Probe};
use crate::stats::{median_of, self_times, Span};
use axml_core::engine::{RoundRunner, RunStats};
use axml_core::trace::{parse_json, Tracer};
use axml_core::{parse_document, parse_query, snapshot, Env, QueryCursor, System, SystemSnapshot};
use axml_server::protocol::{Request, Response};
use axml_server::server::ServerConfig;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::Write;
use std::time::Instant;

/// The `op` of spans recorded while the replica is set up.
pub const SETUP_OP: u32 = 0;

pub struct Recorder {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn begin(&mut self, name: &'static str, parent: Option<usize>, op: u32) -> usize {
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            op,
        });
        self.spans.len() - 1
    }

    fn end(&mut self, id: usize) {
        self.spans[id].end_ns = self.now();
    }

    /// Time `f` as a child span of `parent`.
    fn span<T>(&mut self, name: &'static str, parent: usize, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name, Some(parent), self.spans[parent].op);
        let out = f();
        self.end(id);
        out
    }

    /// `{"workload": …, "spans": [{"name", "start_ns", "end_ns", "parent", "op"}, …]}`
    pub fn write_json(&self, workload: &str, w: &mut impl Write) -> std::io::Result<()> {
        writeln!(w, "{{\"workload\": \"{workload}\", \"spans\": [")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let comma = if i + 1 < self.spans.len() { "," } else { "" };
            writeln!(
                w,
                "{{\"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"op\": {}}}{comma}",
                s.name, s.start_ns, s.end_ns, s.op
            )?;
        }
        writeln!(w, "]}}")
    }
}

/// The decode half of serving a frame, as `read_loop` does it. The
/// server calls `parse_json` inside `Request::parse`; from outside the
/// two can only be timed one after the other, so the JSON parse is
/// timed alone first and entered as a child covering that much of the
/// `request_parse` span.
fn decode(rec: &mut Recorder, parent: usize, req: &Request) {
    let line = rec.span("load.request_encode", parent, || req.to_json());
    let t0 = Instant::now();
    black_box(parse_json(&line).expect("own frame is JSON"));
    let json_ns = t0.elapsed().as_nanos() as u64;
    let id = rec.begin(
        "server.protocol.request_parse",
        Some(parent),
        rec.spans[parent].op,
    );
    black_box(Request::parse(&line).expect("own frame parses"));
    rec.end(id);
    let (start_ns, end_ns) = (rec.spans[id].start_ns, rec.spans[id].end_ns);
    rec.spans.push(Span {
        name: "core.trace.json.parse",
        start_ns,
        end_ns: end_ns.min(start_ns + json_ns),
        parent: Some(id),
        op: rec.spans[id].op,
    });
}

/// The encode half (`write_frame`), then the generator's own parse.
fn encode(rec: &mut Recorder, parent: usize, resp: &Response) {
    let line = rec.span("server.protocol.response_encode", parent, || resp.to_json());
    rec.span("load.response_parse", parent, || {
        black_box(Response::parse(&line).expect("own frame parses"));
    });
}

/// `eval_query`: parse the query text, evaluate it on the snapshot,
/// print the answer trees.
fn eval_query(rec: &mut Recorder, parent: usize, sys: &System, query: &str) -> Vec<String> {
    let q = rec.span("core.parse.query", parent, || {
        parse_query(query).expect("generated query parses")
    });
    let forest = rec.span("core.query.snapshot", parent, || {
        snapshot(&q, &Env::for_system(sys)).expect("generated query evaluates")
    });
    rec.span("core.display.to_string", parent, || {
        forest.trees().iter().map(|t| t.to_string()).collect()
    })
}

/// `open_session` + `Session::new`.
fn open_frame(
    rec: &mut Recorder,
    parent: usize,
    session: &str,
    doc: (&str, &str),
    service: Option<(&str, &str)>,
) -> System {
    let to_pairs = |p: (&str, &str)| (p.0.to_string(), p.1.to_string());
    decode(
        rec,
        parent,
        &Request::Open {
            id: 1,
            session: session.to_string(),
            docs: vec![to_pairs(doc)],
            services: service.map(to_pairs).into_iter().collect(),
        },
    );
    let mut sys = System::new();
    let tree = rec.span("core.parse.document", parent, || {
        parse_document(doc.1).expect("generated document parses")
    });
    rec.span("core.reduce.add_document", parent, || {
        sys.add_document(doc.0, tree).expect("fresh system")
    });
    if let Some((name, rule)) = service {
        rec.span("core.parse.query", parent, || {
            sys.add_service_text(name, rule)
                .expect("generated rule parses")
        });
    }
    black_box(rec.span("core.tree.snapshot", parent, || sys.snapshot()));
    encode(
        rec,
        parent,
        &Response::OpenOk {
            id: 1,
            session: session.to_string(),
            docs: 1,
            services: u64::from(service.is_some()),
        },
    );
    sys
}

/// `close`: drop the session's system.
fn close_frame(rec: &mut Recorder, parent: usize, session: &str, sys: System) {
    let req = Request::Close {
        id: 4,
        session: session.to_string(),
    };
    decode(rec, parent, &req);
    rec.span("server.session.close", parent, || drop(sys));
    encode(
        rec,
        parent,
        &Response::Closed {
            id: 4,
            session: session.to_string(),
        },
    );
}

/// One engine round and the snapshot republished after it; returns the
/// engine's verdict and how many arena chunks the round copied.
fn round(
    rec: &mut Recorder,
    parent: usize,
    runner: &mut RoundRunner,
    sys: &mut System,
    prev: &mut SystemSnapshot,
    tally: &mut WriteTally,
) -> bool {
    let step = rec.span("core.engine.round", parent, || {
        runner.step(sys, Tracer::disabled()).expect("round runs")
    });
    let snap = rec.span("core.tree.snapshot", parent, || runner.snapshot());
    if let Some(snap) = snap {
        tally.rounds += 1;
        for &name in snap.doc_names() {
            if let (Some(new), Some(old)) = (snap.doc(name), prev.doc(name)) {
                tally.chunks_copied += (new.chunk_count() - new.shared_chunks_with(old)) as u64;
            }
        }
        *prev = snap;
    }
    step.is_some()
}

/// What the write-side replays saw, summed over ops.
#[derive(Default)]
pub struct WriteTally {
    pub ops: u64,
    pub rounds: u64,
    pub chunks_copied: u64,
    pub productive: u64,
    pub match_cache_hits: u64,
    pub match_cache_misses: u64,
    pub final_nodes: u64,
}

impl WriteTally {
    fn add(&mut self, stats: &RunStats) {
        self.ops += 1;
        self.productive += stats.productive as u64;
        self.match_cache_hits += stats.cache_hits as u64;
        self.match_cache_misses += stats.cache_misses as u64;
        self.final_nodes += stats.final_nodes as u64;
    }
}

pub struct Shadow {
    pub rec: Recorder,
    /// Ops of the workload's primary kind (what `op_p50_us` times).
    pub primary: Vec<u32>,
    /// `mixed_subscribe`'s writer cycles.
    pub cycles: Vec<u32>,
    pub write: WriteTally,
    /// Answer trees returned over the primary ops.
    pub trees: u64,
}

impl Shadow {
    fn new() -> Shadow {
        Shadow {
            rec: Recorder::new(),
            primary: Vec::new(),
            cycles: Vec::new(),
            write: WriteTally::default(),
            trees: 0,
        }
    }

    fn next_op(&self) -> u32 {
        (self.primary.len() + self.cycles.len()) as u32 + 1
    }

    fn query_op(&mut self, sys: &System, session: &str, probe: &Probe) {
        let op = self.next_op();
        self.primary.push(op);
        let rec = &mut self.rec;
        let root = rec.begin("op", None, op);
        decode(
            rec,
            root,
            &Request::Query {
                id: u64::from(op),
                session: session.to_string(),
                query: probe.query.clone(),
            },
        );
        let trees = eval_query(rec, root, sys, &probe.query);
        self.trees += trees.len() as u64;
        encode(
            rec,
            root,
            &Response::Answers {
                id: u64::from(op),
                session: session.to_string(),
                trees,
            },
        );
        rec.end(root);
    }

    /// `wire_small`, `scan_large`: open the document once (set-up
    /// spans), then replay `ops` queries against it.
    pub fn read(doc: &str, probes: &[Probe], ops: usize) -> Shadow {
        let mut sh = Shadow::new();
        let root = sh.rec.begin("setup", None, SETUP_OP);
        let sys = open_frame(&mut sh.rec, root, "read", ("db", doc), None);
        sh.rec.end(root);
        sh.write.final_nodes = sys.node_count() as u64;
        sh.write.ops = 1;
        for i in 0..ops {
            sh.query_op(&sys, "read", &probes[i % probes.len()]);
        }
        sh
    }

    /// `fixpoint_write`: every op is open → run → query → close.
    pub fn fixpoint(inputs: &Closure, ops: usize) -> Shadow {
        let cfg = ServerConfig::default().engine;
        let mut sh = Shadow::new();
        for _ in 0..ops {
            let op = sh.next_op();
            sh.primary.push(op);
            let session = format!("fw-{op:08}");
            let rec = &mut sh.rec;
            let root = rec.begin("op", None, op);
            let mut sys = open_frame(
                rec,
                root,
                &session,
                ("edges", &inputs.doc),
                Some(("tc", &inputs.rule)),
            );
            decode(
                rec,
                root,
                &Request::Run {
                    id: 2,
                    session: session.clone(),
                    mode: None,
                    max_invocations: None,
                },
            );
            let mut runner = RoundRunner::new(&cfg);
            let mut prev = sys.snapshot();
            while !round(rec, root, &mut runner, &mut sys, &mut prev, &mut sh.write) {}
            let stats = runner.stats(&sys);
            sh.write.add(&stats);
            encode(
                rec,
                root,
                &Response::RunOk {
                    id: 2,
                    session: session.clone(),
                    status: "terminated".to_string(),
                    rounds: stats.rounds as u64,
                    invocations: stats.invocations as u64,
                    version: sys.version(),
                },
            );
            let query = Request::Query {
                id: 3,
                session: session.clone(),
                query: inputs.probe.query.clone(),
            };
            decode(rec, root, &query);
            let trees = eval_query(rec, root, &prev, &inputs.probe.query);
            sh.trees += trees.len() as u64;
            encode(
                rec,
                root,
                &Response::Answers {
                    id: 3,
                    session: session.clone(),
                    trees,
                },
            );
            close_frame(rec, root, &session, sys);
            rec.end(root);
        }
        sh
    }

    /// `mixed_subscribe`: `cycles` writer cycles (open → subscribe to
    /// the fixpoint → close), then `reads` reader batches dealt over the
    /// round-by-round snapshots of the last cycle, as live reads land on
    /// whichever round is committed when they arrive.
    pub fn mixed(inputs: &Linear, cycles: usize, reads: usize) -> Shadow {
        let cfg = ServerConfig::default().engine;
        let mut sh = Shadow::new();
        let mut states: Vec<SystemSnapshot> = Vec::new();
        for _ in 0..cycles {
            let op = sh.next_op();
            sh.cycles.push(op);
            let session = format!("rw-{op:08}");
            let rec = &mut sh.rec;
            let root = rec.begin("cycle", None, op);
            let mut sys = open_frame(
                rec,
                root,
                &session,
                ("edges", &inputs.doc),
                Some(("lc", &inputs.rule)),
            );
            decode(
                rec,
                root,
                &Request::Subscribe {
                    id: 2,
                    session: session.clone(),
                    query: inputs.subscription.query.clone(),
                },
            );
            let q = rec.span("core.parse.query", root, || {
                parse_query(&inputs.subscription.query).expect("generated query parses")
            });
            let mut cursor = QueryCursor::new(q);
            let mut runner = RoundRunner::new(&cfg);
            let mut cur = rec.span("core.tree.snapshot", root, || sys.snapshot());
            states.clear();
            let (mut must_poll, mut done, mut pushes) = (true, false, 0u64);
            loop {
                states.push(cur.clone());
                let fresh = if must_poll {
                    rec.span("core.query.cursor_poll", root, || {
                        cursor.poll(cur.system()).expect("subscription evaluates")
                    })
                } else {
                    Vec::new()
                };
                if !fresh.is_empty() {
                    let trees: Vec<String> = rec.span("core.display.to_string", root, || {
                        fresh.iter().map(|t| t.to_string()).collect()
                    });
                    pushes += 1;
                    encode(
                        rec,
                        root,
                        &Response::Delta {
                            id: 2,
                            session: session.clone(),
                            round: runner.rounds() as u64,
                            version: cur.version(),
                            trees,
                        },
                    );
                }
                if done {
                    break;
                }
                done = round(rec, root, &mut runner, &mut sys, &mut cur, &mut sh.write);
                must_poll = done || !runner.round_deltas().is_empty();
            }
            let stats = runner.stats(&sys);
            sh.write.add(&stats);
            encode(
                rec,
                root,
                &Response::SubDone {
                    id: 2,
                    session: session.clone(),
                    status: "terminated".to_string(),
                    rounds: stats.rounds as u64,
                    pushes,
                },
            );
            close_frame(rec, root, &session, sys);
            rec.end(root);
        }
        for i in 0..reads {
            let op = sh.next_op();
            sh.primary.push(op);
            let batch = &inputs.batches[i % inputs.batches.len()];
            let state = &states[i % states.len()];
            let rec = &mut sh.rec;
            let root = rec.begin("op", None, op);
            decode(
                rec,
                root,
                &Request::Batch {
                    id: u64::from(op),
                    session: "rw".to_string(),
                    queries: batch.iter().map(|(_, q)| q.clone()).collect(),
                },
            );
            let answers: Vec<Vec<String>> = batch
                .iter()
                .map(|(_, q)| eval_query(rec, root, state, q))
                .collect();
            sh.trees += answers.iter().map(Vec::len).sum::<usize>() as u64;
            encode(
                rec,
                root,
                &Response::BatchOk {
                    id: u64::from(op),
                    session: "rw".to_string(),
                    answers,
                },
            );
            rec.end(root);
        }
        sh
    }

    pub fn layers(&self) -> Layers {
        let selfs = self_times(&self.rec.spans);
        let mut by_op: BTreeMap<u32, BTreeMap<&'static str, (u64, u64)>> = BTreeMap::new();
        for (s, &self_ns) in self.rec.spans.iter().zip(&selfs) {
            let e = by_op.entry(s.op).or_default().entry(s.name).or_default();
            e.0 += self_ns;
            e.1 += 1;
        }
        Layers { by_op }
    }
}

/// Self time by op and span name: `(nanoseconds, spans)`.
pub struct Layers {
    by_op: BTreeMap<u32, BTreeMap<&'static str, (u64, u64)>>,
}

impl Layers {
    /// Median over `ops` of the self time spans named `name` took in
    /// the op, µs — per op, or per span (`per_call`) when the op makes
    /// the call a varying number of times. `None` when no op has one.
    pub fn median_us(&self, name: &str, ops: &[u32], per_call: bool) -> Option<f64> {
        let values: Vec<f64> = ops
            .iter()
            .filter_map(|op| self.by_op.get(op)?.get(name))
            .map(|&(ns, n)| ns as f64 / 1e3 / if per_call { n as f64 } else { 1.0 })
            .collect();
        (!values.is_empty()).then(|| median_of(values))
    }

    /// Sum over every server-side span name (`server.*`, `core.*`) of
    /// its per-op median: the part of an op the replay explains.
    pub fn explained_us(&self, ops: &[u32]) -> f64 {
        let names: std::collections::BTreeSet<&str> = ops
            .iter()
            .filter_map(|op| self.by_op.get(op))
            .flat_map(|m| m.keys().copied())
            .filter(|n| n.starts_with("server.") || n.starts_with("core."))
            .collect();
        names
            .into_iter()
            .filter_map(|n| self.median_us(n, ops, false))
            .sum()
    }

    /// Duration of the first span of this name in the whole trace, µs.
    pub fn first_us(spans: &[Span], name: &str) -> f64 {
        spans
            .iter()
            .find(|s| s.name == name)
            .map_or(0.0, |s| (s.end_ns - s.start_ns) as f64 / 1e3)
    }
}
