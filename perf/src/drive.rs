//! The four workloads as drivers of a server on a loopback port. Every
//! answer is checked against the generator's ground truth; a mismatch
//! or an `error` frame is a failed op, an I/O error (a timeout too)
//! ends the run.

use crate::gen::{canon, Closure, Linear, Probe};
use crate::stats::{series_quantile, WindowStats};
use crate::wire::{encode, unexpected, Client, WireCounts};
use axml_server::protocol::{Request, Response};
use std::collections::BTreeSet;
use std::io;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Ops attempted and failed over the whole run.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// The first failure, for the error message.
    pub first_failure: Option<String>,
}

impl Tally {
    fn op(&mut self, verdict: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = verdict {
            self.failed += 1;
            self.first_failure.get_or_insert(why);
        }
    }

    fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        if self.first_failure.is_none() {
            self.first_failure = other.first_failure;
        }
    }
}

/// What one window of the timed phase saw. Latency series hold one
/// value per op; the last three are `mixed_subscribe`'s writer side and
/// stay empty elsewhere.
#[derive(Debug, Default)]
pub struct Window {
    pub len_s: f64,
    /// Client-observed op latency, µs (open loop: from the due time).
    pub op_us: Vec<f64>,
    /// Closed-loop ops completed (the numerator of `ops_per_s`).
    pub closed_ops: u64,
    /// How late the open-loop generator sent each op, µs.
    pub sched_lag_us: Vec<f64>,
    pub first_delta_us: Vec<f64>,
    pub sub_done_ms: Vec<f64>,
    pub deltas: u64,
}

impl Window {
    /// Reduce the raw samples to the window's statistics.
    pub fn stats(mut self) -> WindowStats {
        WindowStats {
            samples: self.op_us.len() as u64,
            op_p50_us: series_quantile(&mut self.op_us, 0.5),
            op_p90_us: series_quantile(&mut self.op_us, 0.9),
            op_p99_us: series_quantile(&mut self.op_us, 0.99),
            ops_per_s: self.closed_ops as f64 / self.len_s,
            sched_lag_p50_us: series_quantile(&mut self.sched_lag_us, 0.5),
            first_delta_p50_us: series_quantile(&mut self.first_delta_us, 0.5),
            sub_done_p50_ms: series_quantile(&mut self.sub_done_ms, 0.5),
            deltas_per_s: self.deltas as f64 / self.len_s,
        }
    }
}

pub trait Driver {
    /// Ops in one full pass over the workload's queries.
    fn cycle_ops(&self) -> u64;
    /// Run exactly `n` ops one after another, untimed: the warm-up and
    /// the counted phase, whose counts must repeat exactly. Returns how
    /// many of them were closed-loop ops.
    fn run_ops(&mut self, n: u64, tally: &mut Tally) -> io::Result<u64>;
    /// Run ops for at least `len`, ending on an op boundary (the read
    /// workloads: on a whole pass over their queries).
    fn window(&mut self, len: Duration, tally: &mut Tally) -> io::Result<Window>;
    /// Bytes and frames over every connection so far.
    fn wire(&self) -> WireCounts;
    /// Close the sessions and hang up, so the server can be joined.
    fn finish(self: Box<Self>) -> io::Result<()>;
}

/// Answers must be exactly the expected set: nothing missing, nothing
/// extra, nothing twice.
pub fn check_exact(trees: &[String], expected: &BTreeSet<String>) -> Result<(), String> {
    let got = distinct_set(trees)?;
    if &got != expected {
        let missing: Vec<_> = expected.difference(&got).take(3).collect();
        let extra: Vec<_> = got.difference(expected).take(3).collect();
        return Err(format!(
            "answer set differs: got {}, expected {}; missing {missing:?}, extra {extra:?}",
            got.len(),
            expected.len()
        ));
    }
    Ok(())
}

fn canon_set(trees: &[String]) -> Result<BTreeSet<String>, String> {
    trees.iter().map(|t| canon(t)).collect()
}

/// The answers of one query as a set; the same tree twice is an error.
fn distinct_set(trees: &[String]) -> Result<BTreeSet<String>, String> {
    let got = canon_set(trees)?;
    if got.len() != trees.len() {
        return Err(format!("{} answers, {} distinct", trees.len(), got.len()));
    }
    Ok(got)
}

fn ok_frame(resp: &Response, want: &str) -> Result<(), String> {
    if resp.kind() == want {
        Ok(())
    } else {
        Err(format!("expected {want}, got {}", resp.to_json()))
    }
}

/// The one-connection closed loop shared by three workloads: the next
/// op is sent only after the previous one completed.
trait ClosedOp {
    fn cycle_ops(&self) -> u64;
    /// Windows end on a multiple of this many ops, so that every window
    /// holds the same mix of queries.
    fn window_align(&self) -> u64;
    /// One op: its send→last-byte time (summed over its frames) and the
    /// oracle's verdict.
    fn op(&mut self) -> io::Result<(Duration, Result<(), String>)>;
    fn client(&self) -> &Client;
    fn finish(self) -> io::Result<()>;
}

struct Closed<O: ClosedOp>(O);

impl<O: ClosedOp> Driver for Closed<O> {
    fn cycle_ops(&self) -> u64 {
        self.0.cycle_ops()
    }

    fn run_ops(&mut self, n: u64, tally: &mut Tally) -> io::Result<u64> {
        for _ in 0..n {
            let (_, verdict) = self.0.op()?;
            tally.op(verdict);
        }
        Ok(n)
    }

    fn window(&mut self, len: Duration, tally: &mut Tally) -> io::Result<Window> {
        let mut w = Window::default();
        let start = Instant::now();
        let align = self.0.window_align() as usize;
        while start.elapsed() < len || w.op_us.len() % align != 0 {
            let (dt, verdict) = self.0.op()?;
            tally.op(verdict);
            w.op_us.push(dt.as_secs_f64() * 1e6);
        }
        w.len_s = start.elapsed().as_secs_f64();
        w.closed_ops = w.op_us.len() as u64;
        Ok(w)
    }

    fn wire(&self) -> WireCounts {
        self.0.client().counts()
    }

    fn finish(self: Box<Self>) -> io::Result<()> {
        self.0.finish()
    }
}

/// `wire_small` and `scan_large`: one `query` frame per op against a
/// document opened once.
struct QueryLoop {
    client: Client,
    session: String,
    probes: Arc<Vec<Probe>>,
    next: usize,
}

impl ClosedOp for QueryLoop {
    fn cycle_ops(&self) -> u64 {
        self.probes.len() as u64
    }

    fn window_align(&self) -> u64 {
        self.probes.len() as u64
    }

    fn op(&mut self) -> io::Result<(Duration, Result<(), String>)> {
        let probe = &self.probes[self.next % self.probes.len()];
        self.next += 1;
        let (resp, dt) = self.client.timed_call(&Request::Query {
            id: self.next as u64,
            session: self.session.clone(),
            query: probe.query.clone(),
        })?;
        let verdict = match &resp {
            Response::Answers { trees, .. } => check_exact(trees, &probe.expected),
            other => Err(format!("expected answers, got {}", other.to_json())),
        };
        Ok((dt, verdict))
    }

    fn client(&self) -> &Client {
        &self.client
    }

    fn finish(mut self) -> io::Result<()> {
        close(&mut self.client, &self.session)
    }
}

fn close(client: &mut Client, session: &str) -> io::Result<()> {
    match client.call(&Request::Close {
        id: 0,
        session: session.to_string(),
    })? {
        Response::Closed { .. } => Ok(()),
        other => Err(unexpected(&other)),
    }
}

fn open(
    client: &mut Client,
    session: &str,
    docs: Vec<(String, String)>,
    services: Vec<(String, String)>,
) -> io::Result<Response> {
    client.call(&Request::Open {
        id: 1,
        session: session.to_string(),
        docs,
        services,
    })
}

/// Connect, `open` the document, `run`, and answer the first query: the
/// set-up of the two read workloads.
pub fn start_query_loop(
    addr: &str,
    doc: &str,
    probes: &Arc<Vec<Probe>>,
    tally: &mut Tally,
) -> io::Result<Box<dyn Driver>> {
    let mut client = Client::connect(addr)?;
    let session = "read".to_string();
    match open(
        &mut client,
        &session,
        vec![("db".to_string(), doc.to_string())],
        Vec::new(),
    )? {
        Response::OpenOk { .. } => {}
        other => return Err(unexpected(&other)),
    }
    match client.call(&Request::Run {
        id: 2,
        session: session.clone(),
        mode: None,
        max_invocations: None,
    })? {
        Response::RunOk { .. } => {}
        other => return Err(unexpected(&other)),
    }
    let mut driver = Closed(QueryLoop {
        client,
        session,
        probes: Arc::clone(probes),
        next: 0,
    });
    driver.run_ops(1, tally)?;
    // The first op was the last probe's turn: start the cycle afresh.
    driver.0.next = 0;
    Ok(Box::new(driver))
}

/// `fixpoint_write`: every op opens a fresh session, runs it to its
/// fixpoint, asks for the closure and closes it.
struct FixpointLoop {
    client: Client,
    inputs: Arc<Closure>,
    next: u64,
}

impl ClosedOp for FixpointLoop {
    fn cycle_ops(&self) -> u64 {
        // Every op is the same work; a "cycle" is just a batch of them.
        32
    }

    fn window_align(&self) -> u64 {
        1
    }

    fn op(&mut self) -> io::Result<(Duration, Result<(), String>)> {
        // Fixed width, so the frame length does not grow with the count.
        let session = format!("fw-{:08}", self.next);
        self.next += 1;
        let frames = [
            Request::Open {
                id: 1,
                session: session.clone(),
                docs: vec![("edges".to_string(), self.inputs.doc.clone())],
                services: vec![("tc".to_string(), self.inputs.rule.clone())],
            },
            Request::Run {
                id: 2,
                session: session.clone(),
                mode: None,
                max_invocations: None,
            },
            Request::Query {
                id: 3,
                session: session.clone(),
                query: self.inputs.probe.query.clone(),
            },
            Request::Close { id: 4, session },
        ];
        let mut total = Duration::ZERO;
        let mut verdict = Ok(());
        for req in &frames {
            let (resp, dt) = self.client.timed_call(req)?;
            total += dt;
            let v = match (&resp, req) {
                (Response::OpenOk { .. }, Request::Open { .. }) => Ok(()),
                (Response::RunOk { status, .. }, Request::Run { .. }) if status == "terminated" => {
                    Ok(())
                }
                (Response::Answers { trees, .. }, Request::Query { .. }) => {
                    check_exact(trees, &self.inputs.probe.expected)
                }
                (Response::Closed { .. }, Request::Close { .. }) => Ok(()),
                (other, _) => Err(format!("unexpected reply {}", other.to_json())),
            };
            verdict = verdict.and(v);
        }
        Ok((total, verdict))
    }

    fn client(&self) -> &Client {
        &self.client
    }

    fn finish(self) -> io::Result<()> {
        Ok(())
    }
}

pub fn start_fixpoint_loop(
    addr: &str,
    inputs: &Arc<Closure>,
    tally: &mut Tally,
) -> io::Result<Box<dyn Driver>> {
    let mut driver = Closed(FixpointLoop {
        client: Client::connect(addr)?,
        inputs: Arc::clone(inputs),
        next: 0,
    });
    driver.run_ops(1, tally)?;
    Ok(Box::new(driver))
}

/// Reader ops per second in `mixed_subscribe` (open loop).
pub const READER_RATE: u64 = 250;
/// Reader ops that follow each writer cycle in the counted phase.
const COUNTED_READS_PER_CYCLE: u64 = 50;

enum ReaderCmd {
    /// Paced ops until the stop flag rises.
    Paced,
    /// Exactly this many ops, back to back.
    Exactly(u64),
    Quit,
}

#[derive(Default)]
struct ReaderReply {
    op_us: Vec<f64>,
    sched_lag_us: Vec<f64>,
    tally: Tally,
    wire: WireCounts,
}

/// The reader's half: batches of reachability queries against whichever
/// session the writer is driving.
struct Reader {
    client: Client,
    inputs: Arc<Linear>,
    /// Index of the session the writer drives now (`rw-<k>`).
    current: Arc<AtomicU64>,
    stop: Arc<AtomicBool>,
    next: usize,
    /// The session the sizes below belong to.
    seen_session: u64,
    /// Answer-set size last seen per source node: within one session a
    /// source's answers may only grow.
    seen_sizes: Vec<usize>,
}

impl Reader {
    /// One batch op; `due` is when the schedule wanted it sent (latency
    /// counts from there), `None` in the unpaced counted phase.
    fn op(&mut self, due: Option<Instant>) -> io::Result<(Duration, Result<(), String>)> {
        let k = self.current.load(Ordering::SeqCst);
        let inputs = Arc::clone(&self.inputs);
        let batch = &inputs.batches[self.next % inputs.batches.len()];
        self.next += 1;
        let frame = encode(&Request::Batch {
            id: self.next as u64,
            session: format!("rw-{k:08}"),
            queries: batch.iter().map(|(_, q)| q.clone()).collect(),
        });
        let sent = Instant::now();
        self.client.send_line(&frame)?;
        let line = self.client.recv_line()?;
        let dt = due.unwrap_or(sent).elapsed();
        let resp = crate::wire::parse(line)?;
        if self.seen_session != k {
            self.seen_session = k;
            self.seen_sizes.iter_mut().for_each(|s| *s = 0);
        }
        let verdict = match &resp {
            Response::BatchOk { answers, .. } if answers.len() == batch.len() => batch
                .iter()
                .zip(answers)
                .try_for_each(|(&(v, _), trees)| self.check_partial(v, trees)),
            other => Err(format!("expected batch_ok, got {}", other.to_json())),
        };
        Ok((dt, verdict))
    }

    /// A mid-flight answer: a subset of the fixpoint's, and no smaller
    /// than the last one seen for this source in this session.
    fn check_partial(&mut self, v: usize, trees: &[String]) -> Result<(), String> {
        let got = distinct_set(trees)?;
        if let Some(extra) = got.difference(&self.inputs.reach_text[v]).next() {
            return Err(format!("{extra} is not reachable from node {v}"));
        }
        if got.len() < self.seen_sizes[v] {
            return Err(format!(
                "answers for node {v} shrank from {} to {}",
                self.seen_sizes[v],
                got.len()
            ));
        }
        self.seen_sizes[v] = got.len();
        Ok(())
    }

    fn run(&mut self, cmd: &ReaderCmd, reply: &mut ReaderReply) -> io::Result<()> {
        match *cmd {
            ReaderCmd::Quit => {}
            ReaderCmd::Exactly(n) => {
                for _ in 0..n {
                    let (_, verdict) = self.op(None)?;
                    reply.tally.op(verdict);
                }
            }
            ReaderCmd::Paced => {
                let period = Duration::from_nanos(1_000_000_000 / READER_RATE);
                let start = Instant::now();
                for n in 0u32.. {
                    let due = start + period * n;
                    if let Some(wait) = due.checked_duration_since(Instant::now()) {
                        std::thread::sleep(wait);
                    }
                    if self.stop.load(Ordering::SeqCst) {
                        break;
                    }
                    reply.sched_lag_us.push(due.elapsed().as_secs_f64() * 1e6);
                    let (dt, verdict) = self.op(Some(due))?;
                    reply.tally.op(verdict);
                    reply.op_us.push(dt.as_secs_f64() * 1e6);
                }
            }
        }
        Ok(())
    }

    /// The reader thread: one reply per command, until `Quit` or until
    /// the writer's end of either channel is gone.
    fn serve(
        mut self,
        cmds: mpsc::Receiver<ReaderCmd>,
        replies: mpsc::Sender<io::Result<ReaderReply>>,
    ) {
        for cmd in cmds {
            let mut reply = ReaderReply::default();
            let before = self.client.counts();
            let result = self.run(&cmd, &mut reply);
            reply.wire = self.client.counts() - before;
            let quit = matches!(cmd, ReaderCmd::Quit);
            if replies.send(result.map(|()| reply)).is_err() || quit {
                return;
            }
        }
    }
}

/// `mixed_subscribe`: the writer (this thread, closed loop) opens
/// `rw-k`, subscribes and drains deltas to `sub_done`, then closes
/// `rw-(k-1)`; the reader (its own thread and connection, open loop)
/// queries the session the writer is driving.
pub struct Mixed {
    writer: Client,
    inputs: Arc<Linear>,
    current: Arc<AtomicU64>,
    stop: Arc<AtomicBool>,
    cmds: mpsc::Sender<ReaderCmd>,
    replies: mpsc::Receiver<io::Result<ReaderReply>>,
    reader: Option<JoinHandle<()>>,
    reader_wire: WireCounts,
    k: u64,
}

struct Cycle {
    first_delta: Duration,
    sub_done: Duration,
    deltas: u64,
}

impl Mixed {
    fn open_next(&mut self) -> io::Result<Result<(), String>> {
        self.k += 1;
        let resp = open(
            &mut self.writer,
            &format!("rw-{:08}", self.k),
            vec![("edges".to_string(), self.inputs.doc.clone())],
            vec![("lc".to_string(), self.inputs.rule.clone())],
        )?;
        // Only now may the reader follow: the session exists.
        self.current.store(self.k, Ordering::SeqCst);
        Ok(ok_frame(&resp, "open_ok"))
    }

    /// One writer cycle. The previous session is closed only at the end,
    /// a whole fixpoint after the reader was pointed at the new one, so
    /// no read in flight races a close.
    fn cycle(&mut self) -> io::Result<(Cycle, Result<(), String>)> {
        let mut verdict = self.open_next()?;
        let session = format!("rw-{:08}", self.k);
        let frame = encode(&Request::Subscribe {
            id: 2,
            session: session.clone(),
            query: self.inputs.subscription.query.clone(),
        });
        let t0 = Instant::now();
        self.writer.send_line(&frame)?;
        let mut cycle = Cycle {
            first_delta: Duration::ZERO,
            sub_done: Duration::ZERO,
            deltas: 0,
        };
        let mut union = BTreeSet::new();
        loop {
            let line = self.writer.recv_line()?;
            let at = t0.elapsed();
            match crate::wire::parse(line)? {
                Response::SubOk { .. } => {}
                Response::Delta { trees, .. } => {
                    if cycle.deltas == 0 {
                        cycle.first_delta = at;
                    }
                    cycle.deltas += 1;
                    match canon_set(&trees) {
                        Ok(set) => union.extend(set),
                        Err(e) => verdict = verdict.and(Err(e)),
                    }
                }
                Response::SubDone { status, .. } => {
                    cycle.sub_done = at;
                    if status != "terminated" {
                        verdict = verdict.and(Err(format!("subscription ended {status}")));
                    }
                    break;
                }
                other => {
                    verdict = verdict.and(Err(format!("unexpected frame {}", other.to_json())));
                    break;
                }
            }
        }
        if union != self.inputs.subscription.expected {
            verdict = verdict.and(Err(format!(
                "deltas add up to {} trees, the closure has {}",
                union.len(),
                self.inputs.subscription.expected.len()
            )));
        }
        let closed = self.writer.call(&Request::Close {
            id: 3,
            session: format!("rw-{:08}", self.k - 1),
        })?;
        verdict = verdict.and(ok_frame(&closed, "closed"));
        Ok((cycle, verdict))
    }

    fn tell_reader(&self, cmd: ReaderCmd) -> io::Result<()> {
        self.cmds
            .send(cmd)
            .map_err(|_| io::Error::other("reader thread is gone"))
    }

    fn reader_reply(&mut self, tally: &mut Tally) -> io::Result<ReaderReply> {
        let mut reply = self
            .replies
            .recv()
            .map_err(|_| io::Error::other("reader thread is gone"))??;
        tally.merge(std::mem::take(&mut reply.tally));
        self.reader_wire += reply.wire;
        Ok(reply)
    }
}

impl Driver for Mixed {
    fn cycle_ops(&self) -> u64 {
        4 * (1 + COUNTED_READS_PER_CYCLE)
    }

    /// Counts must repeat exactly, and what a mid-flight read returns
    /// depends on timing; so here the two sides take turns: one writer
    /// cycle alone, then reads against its finished session.
    fn run_ops(&mut self, n: u64, tally: &mut Tally) -> io::Result<u64> {
        assert!(n.is_multiple_of(1 + COUNTED_READS_PER_CYCLE));
        let cycles = n / (1 + COUNTED_READS_PER_CYCLE);
        for _ in 0..cycles {
            let (_, verdict) = self.cycle()?;
            tally.op(verdict);
            self.tell_reader(ReaderCmd::Exactly(COUNTED_READS_PER_CYCLE))?;
            self.reader_reply(tally)?;
        }
        Ok(cycles)
    }

    fn window(&mut self, len: Duration, tally: &mut Tally) -> io::Result<Window> {
        let mut w = Window::default();
        self.stop.store(false, Ordering::SeqCst);
        self.tell_reader(ReaderCmd::Paced)?;
        let start = Instant::now();
        let mut result = Ok(());
        while start.elapsed() < len {
            match self.cycle() {
                Ok((c, verdict)) => {
                    tally.op(verdict);
                    w.closed_ops += 1;
                    w.deltas += c.deltas;
                    w.first_delta_us.push(c.first_delta.as_secs_f64() * 1e6);
                    w.sub_done_ms.push(c.sub_done.as_secs_f64() * 1e3);
                }
                Err(e) => {
                    result = Err(e);
                    break;
                }
            }
        }
        w.len_s = start.elapsed().as_secs_f64();
        // Stop the reader whatever happened, so it is never left pacing.
        self.stop.store(true, Ordering::SeqCst);
        let reply = self.reader_reply(tally);
        result?;
        let reply = reply?;
        w.op_us = reply.op_us;
        w.sched_lag_us = reply.sched_lag_us;
        Ok(w)
    }

    fn wire(&self) -> WireCounts {
        let mut total = self.writer.counts();
        total += self.reader_wire;
        total
    }

    fn finish(mut self: Box<Self>) -> io::Result<()> {
        let _ = self.cmds.send(ReaderCmd::Quit);
        let _ = self.replies.recv();
        if let Some(h) = self.reader.take() {
            h.join()
                .map_err(|_| io::Error::other("reader thread panicked"))?;
        }
        close(&mut self.writer, &format!("rw-{:08}", self.k))
    }
}

/// Two connections, the first session opened and run to its fixpoint by
/// a first writer cycle, and the first reader op answered.
pub fn start_mixed(
    addr: &str,
    inputs: &Arc<Linear>,
    tally: &mut Tally,
) -> io::Result<Box<dyn Driver>> {
    let inputs = Arc::clone(inputs);
    let current = Arc::new(AtomicU64::new(0));
    let stop = Arc::new(AtomicBool::new(false));
    let (cmds, cmd_rx) = mpsc::channel();
    let (reply_tx, replies) = mpsc::channel();
    let reader = Reader {
        client: Client::connect(addr)?,
        inputs: Arc::clone(&inputs),
        current: Arc::clone(&current),
        stop: Arc::clone(&stop),
        next: 0,
        seen_session: 0,
        seen_sizes: vec![0; inputs.reach_text.len()],
    };
    let mut mixed = Mixed {
        writer: Client::connect(addr)?,
        inputs,
        current,
        stop,
        cmds,
        replies,
        reader: Some(std::thread::spawn(move || reader.serve(cmd_rx, reply_tx))),
        reader_wire: WireCounts::default(),
        k: 0,
    };
    // The first session exists only for the first cycle to close.
    let verdict = mixed.open_next()?;
    tally.op(verdict);
    let (_, verdict) = mixed.cycle()?;
    tally.op(verdict);
    mixed.tell_reader(ReaderCmd::Exactly(1))?;
    mixed.reader_reply(tally)?;
    Ok(Box::new(mixed))
}
