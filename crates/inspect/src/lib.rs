//! # axml-inspect — rendering for the `axml-inspect` CLI
//!
//! Turns the observability layer's raw artifacts into terminal output:
//!
//! * [`render_events`] — a filtered listing of a Chrome-trace export
//!   (parsed back via [`axml_core::trace::parse_chrome_trace`]);
//! * [`matrix_from_events`] — a per-peer message matrix (who sent how
//!   many calls/responses to whom) from a p2p journal;
//! * [`run_metrics_report`] — a live delta-engine run of the tc-digraph
//!   workload rendered through [`axml_core::trace::MetricsRegistry`];
//! * [`deepest_provenance_dot`] — a live run with provenance enabled,
//!   rendered as the DOT derivation DAG of the deepest explainable
//!   closure answer;
//! * [`render_plan`] — the optimized plan IR and match program every
//!   positive service of the tc-digraph workload (or an ad-hoc rule)
//!   compiles to, via [`axml_core::compile`];
//! * [`serve_report`] — a live in-process `axml-server` driven
//!   closed-loop by the `axml-load` generator, rendered through the
//!   same metrics registry (the `server:` block with p50/p99 request
//!   latency and per-session rows).
//!
//! The binary (`src/main.rs`) is a thin argument parser over these.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt::Write as _;

use axml_core::compile::compile_query;
use axml_core::engine::{run_with_provenance, EngineConfig};
use axml_core::matcher::{match_pattern, MatchStrategy};
use axml_core::provenance::{Provenance, ProvenanceStore};
use axml_core::trace::{
    ChromeEvent, EventKind, Fanout, Journal, MetricsRegistry, MsgKind, TraceEvent, Tracer,
};
use axml_core::{parse_query, Sym};

/// Filter for [`render_events`]; empty fields match everything.
#[derive(Clone, Debug, Default)]
pub struct EventFilter {
    /// Keep only events whose `cat` equals this.
    pub cat: Option<String>,
    /// Keep only events whose `ph` equals this.
    pub ph: Option<String>,
    /// Keep only events whose name contains this substring.
    pub contains: Option<String>,
    /// Stop after this many rows (0 = unlimited).
    pub limit: usize,
}

impl EventFilter {
    fn keep(&self, e: &ChromeEvent) -> bool {
        self.cat.as_deref().is_none_or(|c| e.cat == c)
            && self.ph.as_deref().is_none_or(|p| e.ph == p)
            && self.contains.as_deref().is_none_or(|s| e.name.contains(s))
    }
}

/// Render a filtered listing of parsed Chrome-trace events, one line
/// per event: timestamp, lane, phase, category, name, args.
pub fn render_events(events: &[ChromeEvent], filter: &EventFilter) -> String {
    let mut out = String::new();
    let mut shown = 0usize;
    let total = events.len();
    for e in events.iter().filter(|e| filter.keep(e)) {
        if filter.limit > 0 && shown >= filter.limit {
            let _ = writeln!(out, "... (limit {} reached)", filter.limit);
            break;
        }
        shown += 1;
        let args = e
            .args
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect::<Vec<_>>()
            .join(" ");
        let _ = writeln!(
            out,
            "{:>12.3}us  pid {} tid {}  [{}] {:<8} {}  {}",
            e.ts, e.pid, e.tid, e.ph, e.cat, e.name, args
        );
    }
    let _ = writeln!(out, "{shown} of {total} events shown");
    out
}

/// Render the per-peer message matrix of a p2p journal: one row per
/// sending peer, one column per receiving peer, cells counting the
/// [`EventKind::MsgSend`] events between them (calls + responses).
pub fn matrix_from_events(events: &[TraceEvent]) -> String {
    let mut peers: Vec<Sym> = Vec::new();
    let seen = |peers: &mut Vec<Sym>, p: Sym| {
        if !peers.contains(&p) {
            peers.push(p);
        }
    };
    let mut cells: Vec<(Sym, Sym, MsgKind)> = Vec::new();
    for e in events {
        match e.kind {
            EventKind::MsgSend { from, to, kind } => {
                seen(&mut peers, from);
                seen(&mut peers, to);
                cells.push((from, to, kind));
            }
            EventKind::MsgRecv { peer, .. } => seen(&mut peers, peer),
            _ => {}
        }
    }
    peers.sort_by_key(|p| p.as_str());
    let count = |from: Sym, to: Sym| {
        cells
            .iter()
            .filter(|(f, t, _)| *f == from && *t == to)
            .count()
    };
    let w = peers
        .iter()
        .map(|p| p.as_str().len())
        .max()
        .unwrap_or(4)
        .max(4);
    let mut out = String::new();
    let _ = write!(out, "{:>w$} |", "from");
    for p in &peers {
        let _ = write!(out, " {:>w$}", p.as_str());
    }
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "{}-+{}",
        "-".repeat(w),
        "-".repeat((w + 1) * peers.len())
    );
    for from in &peers {
        let _ = write!(out, "{:>w$} |", from.as_str());
        for to in &peers {
            let n = count(*from, *to);
            if n == 0 {
                let _ = write!(out, " {:>w$}", ".");
            } else {
                let _ = write!(out, " {n:>w$}");
            }
        }
        let _ = writeln!(out);
    }
    let calls = cells.iter().filter(|(_, _, k)| *k == MsgKind::Call).count();
    let resps = cells.len() - calls;
    let _ = writeln!(out, "{calls} calls, {resps} responses");
    out
}

/// Run the tc-digraph closure workload through the engine live and return
/// the rendered metrics report.
pub fn run_metrics_report(n: usize, shards: usize, seed: u64) -> String {
    let journal = Journal::new();
    let metrics = MetricsRegistry::new();
    let fan = Fanout::new(vec![&journal, &metrics]);
    let mut sys = axml_bench::tc_random_digraph(n, shards, seed);
    let (_, stats) =
        axml_core::engine::run_traced(&mut sys, &EngineConfig::default(), Tracer::new(&fan))
            .expect("the tc workload terminates");
    let mut out = metrics.render_report(&format!(
        "tc_random_digraph(n={n}, shards={shards}, seed={seed})"
    ));
    let _ = writeln!(
        out,
        "engine: {} rounds, {} invocations, {} skipped, {} journal events",
        stats.rounds,
        stats.invocations,
        stats.skipped,
        journal.len()
    );
    out
}

/// Spawn an in-process [`axml_server::Server`] on an ephemeral port,
/// drive it closed-loop with the `axml-load` generator (one session
/// per connection, a streaming subscription, then `requests`
/// point-lookup queries at the given batch width), shut it down, and
/// return the load line plus the server's rendered metrics report —
/// the `server:` block with p50/p99 request latency and per-session
/// rows.
pub fn serve_report(conns: usize, requests: usize, batch: usize) -> Result<String, String> {
    serve_report_traced(conns, requests, batch, None)
}

/// [`serve_report`], optionally streaming the server's Chrome trace to
/// `trace_path` after the drive (via
/// [`SharedSink::chrome_trace_to`](axml_server::SharedSink::chrome_trace_to),
/// so a full 64k-event ring is exported without building the JSON in
/// memory first).
pub fn serve_report_traced(
    conns: usize,
    requests: usize,
    batch: usize,
    trace_path: Option<&str>,
) -> Result<String, String> {
    let mut handle =
        axml_server::Server::spawn("127.0.0.1:0", axml_server::ServerConfig::default())
            .map_err(|e| format!("spawn: {e}"))?;
    let cfg = axml_server::load::LoadConfig {
        addr: handle.addr().to_string(),
        conns,
        requests,
        batch,
        subscribe: true,
        shutdown: true,
        ..axml_server::load::LoadConfig::default()
    };
    let report = axml_server::load::run(&cfg).map_err(|e| format!("load: {e}"))?;
    handle.join();
    if let Some(path) = trace_path {
        std::fs::File::create(path)
            .and_then(|f| {
                let mut w = std::io::BufWriter::new(f);
                handle.sink().chrome_trace_to(&mut w)?;
                std::io::Write::flush(&mut w)
            })
            .map_err(|e| format!("{path}: {e}"))?;
    }
    Ok(format!(
        "{}\n{}",
        report.render(&cfg),
        handle.report(&format!(
            "axml-server closed-loop (conns={conns}, requests={requests}, batch={batch})"
        ))
    ))
}

/// Run the tc-digraph closure workload with provenance enabled and
/// return `(dot, summary)`: the DOT derivation DAG of the deepest
/// explainable `path` answer, plus a one-line summary of the run.
pub fn deepest_provenance_dot(n: usize, shards: usize, seed: u64) -> (String, String) {
    let mut sys = axml_bench::tc_random_digraph(n, shards, seed);
    let store = ProvenanceStore::new();
    run_with_provenance(
        &mut sys,
        &EngineConfig::default(),
        Tracer::disabled(),
        Provenance::new(&store),
    )
    .expect("the tc workload terminates");

    let q = parse_query("path{$x,$y} :- d1/r{t{from{$x},to{$y}}}").expect("well-formed query");
    let d1 = Sym::intern("d1");
    let tree = sys.doc(d1).expect("the workload builds d1");
    let mut best = None;
    let mut best_depth = 0usize;
    for b in match_pattern(&q.body[0].pattern, tree) {
        let ex = store.explain_answer(&sys, &q, &b);
        let depth = ex.lineage.invocation_depth();
        if !ex.lineage.is_empty() && (best.is_none() || depth > best_depth) {
            best_depth = depth;
            best = Some(ex);
        }
    }
    let ex = best.expect("the closure produced at least one path answer");
    let summary = format!(
        "{} invocations, {} skips, {} stamped nodes; deepest answer: \
         {} DAG nodes, depth {}, {} seed leaves",
        store.invocation_count(),
        store.skip_count(),
        store.origin_count(),
        ex.lineage.len(),
        best_depth,
        ex.lineage.seed_leaves().len()
    );
    (ex.lineage.to_dot(), summary)
}

/// Compile and pretty-print match programs for the tc-digraph workload:
/// either the ad-hoc `query` rule or every positive service of the
/// system, each [`axml_core::compile::CompiledQuery`]'s plan + program
/// dump. A program reads no document, so nothing is run first.
pub fn render_plan(
    n: usize,
    shards: usize,
    seed: u64,
    query: Option<&str>,
    strategy: MatchStrategy,
) -> Result<String, String> {
    let sys = axml_bench::tc_random_digraph(n, shards, seed);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "workload: tc_random_digraph(n={n}, shards={shards}, seed={seed}), \
         strategy {strategy:?}"
    );
    match query {
        Some(src) => {
            let q = parse_query(src).map_err(|e| e.to_string())?;
            let _ = writeln!(out, "\nquery: {src}");
            out.push_str(&compile_query(&q, strategy).dump());
        }
        None => {
            let mut any = false;
            for &svc in sys.service_names() {
                let Some(q) = sys.service_query(svc) else {
                    continue;
                };
                any = true;
                let _ = writeln!(out, "\nservice {}:", svc.as_str());
                out.push_str(&compile_query(q, strategy).dump());
            }
            if !any {
                let _ = writeln!(out, "\n(no positive services)");
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use axml_core::trace::{chrome_trace, parse_chrome_trace};

    #[test]
    fn event_listing_filters_and_limits() {
        let j = Journal::new();
        let t = Tracer::new(&j);
        t.emit(|| EventKind::RoundStart { round: 0 });
        t.emit(|| EventKind::MsgSend {
            from: Sym::intern("a"),
            to: Sym::intern("b"),
            kind: MsgKind::Call,
        });
        t.emit(|| EventKind::RoundEnd {
            round: 0,
            changed: false,
        });
        let events = parse_chrome_trace(&chrome_trace(&j.snapshot())).unwrap();
        let all = render_events(&events, &EventFilter::default());
        assert!(all.contains("round 0"));
        assert!(all.contains("send call"));
        let p2p_only = render_events(
            &events,
            &EventFilter {
                cat: Some("p2p".into()),
                ..EventFilter::default()
            },
        );
        assert!(p2p_only.contains("send call"));
        assert!(!p2p_only.contains("round 0"));
        assert!(p2p_only.contains("1 of"));
        let limited = render_events(
            &events,
            &EventFilter {
                limit: 1,
                ..EventFilter::default()
            },
        );
        assert!(limited.contains("limit 1 reached"));
    }

    #[test]
    fn matrix_counts_directed_traffic() {
        let j = Journal::new();
        let t = Tracer::new(&j);
        for _ in 0..3 {
            t.emit(|| EventKind::MsgSend {
                from: Sym::intern("portal"),
                to: Sym::intern("store0"),
                kind: MsgKind::Call,
            });
        }
        t.emit(|| EventKind::MsgSend {
            from: Sym::intern("store0"),
            to: Sym::intern("portal"),
            kind: MsgKind::Response,
        });
        let m = matrix_from_events(&j.snapshot());
        assert!(m.contains("portal"));
        assert!(m.contains("store0"));
        assert!(m.contains("3 calls, 1 responses"));
    }

    #[test]
    fn plan_dump_lists_services_and_programs() {
        let out = render_plan(24, 2, 7, None, MatchStrategy::Indexed).unwrap();
        assert!(out.contains("service "));
        assert!(out.contains("plan: "));
        assert!(out.contains("program: "));
        assert!(out.contains("] join "));
        let adhoc = render_plan(
            24,
            2,
            7,
            Some("p{$x} :- d0/r{t{from{$x},to{$x}}}, d0/r{t{from{$x},to{$x}}}"),
            MatchStrategy::Indexed,
        )
        .unwrap();
        assert!(adhoc.contains("1 eliminated"));
        assert!(adhoc.contains("duplicate of #0"));
    }

    #[test]
    fn provenance_dot_renders_a_deep_chain() {
        let (dot, summary) = deepest_provenance_dot(24, 2, 7);
        assert!(dot.starts_with("digraph provenance {"));
        assert!(dot.contains("->"));
        assert!(summary.contains("invocations"));
    }
}
