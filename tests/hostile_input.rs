//! Hostile input against a live server: text nested past the parsers'
//! depth limits is refused with the ordinary error codes instead of
//! overflowing a connection thread's stack (which would abort the whole
//! process), text exactly at the limits is still served, a client
//! cannot raise the invocation budget past the server's own, a
//! divergent run stops where its budget of call visits cuts the fair
//! rewriting, and a query naming an unknown document is a bad query
//! whatever the data, and a stream of distinct query texts cannot grow
//! a connection's table of prepared queries past its byte bound.
//! Below the server, a selective match costs what its answers cost,
//! counted rather than timed, and decoys of its rarest constant cost
//! bounded work.

use positive_axml::core::compile::compile_query;
use positive_axml::core::matcher::{match_pattern_with, MatchStrategy};
use positive_axml::core::parse::MAX_NESTING;
use positive_axml::core::trace::MAX_JSON_DEPTH;
use positive_axml::core::{parse_query, Marking, NodeId};
use positive_axml::server::load::Client;
use positive_axml::server::protocol::{codes, Request, Response};
use positive_axml::server::{Server, ServerConfig, ServerHandle};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;

/// Far past every limit, and deep enough to abort the process when the
/// parsers had none.
const HOSTILE_DEPTH: usize = 30_000;

fn spawn() -> ServerHandle {
    Server::spawn("127.0.0.1:0", ServerConfig::default()).expect("bind ephemeral port")
}

fn connect(handle: &ServerHandle) -> Client {
    Client::connect(&handle.addr().to_string()).expect("connect")
}

/// Send one raw line and read back one frame.
fn raw_call(handle: &ServerHandle, line: &str) -> Response {
    let mut s = TcpStream::connect(handle.addr()).expect("connect");
    s.write_all(line.as_bytes()).unwrap();
    s.write_all(b"\n").unwrap();
    let mut reply = String::new();
    BufReader::new(s).read_line(&mut reply).unwrap();
    Response::parse(&reply).expect("server answers with a frame")
}

fn error_code(resp: &Response) -> Option<&str> {
    match resp {
        Response::Error { code, .. } => Some(code),
        _ => None,
    }
}

/// `a{a{…a{"v"}…}}` with `depth` nested groups.
fn nested_doc(depth: usize) -> String {
    format!("{}\"v\"{}", "a{".repeat(depth), "}".repeat(depth))
}

/// A query whose body pattern has `depth` nested groups, binding the
/// innermost leaf of [`nested_doc`].
fn nested_query(depth: usize) -> String {
    format!(
        "hit{{$x}} :- d/{}$x{}",
        "a{".repeat(depth),
        "}".repeat(depth)
    )
}

fn open(c: &mut Client, session: &str, doc: String) -> Response {
    c.call(&Request::Open {
        id: 1,
        session: session.into(),
        docs: vec![("d".into(), doc)],
        services: vec![],
    })
    .unwrap()
}

#[test]
fn a_megabyte_of_brackets_is_bad_json_and_the_server_lives() {
    let mut handle = spawn();
    let frame = "[".repeat(ServerConfig::default().max_frame_bytes);
    let resp = raw_call(&handle, &frame);
    assert_eq!(error_code(&resp), Some(codes::BAD_JSON), "{resp:?}");

    let mut c = connect(&handle);
    let resp = c.call(&Request::Health { id: 2 }).unwrap();
    assert!(matches!(resp, Response::HealthOk { id: 2, .. }), "{resp:?}");

    handle.shutdown();
    drop(c);
    handle.join();
}

#[test]
fn json_nesting_exactly_at_the_limit_is_served() {
    let mut handle = spawn();
    // The request object is one level; an ignored field fills the rest.
    let frame = |depth: usize| {
        let arrays = depth - 1;
        format!(
            r#"{{"type":"health","id":3,"pad":{}{}}}"#,
            "[".repeat(arrays),
            "]".repeat(arrays)
        )
    };
    let resp = raw_call(&handle, &frame(MAX_JSON_DEPTH));
    assert!(matches!(resp, Response::HealthOk { id: 3, .. }), "{resp:?}");
    let resp = raw_call(&handle, &frame(MAX_JSON_DEPTH + 1));
    assert_eq!(error_code(&resp), Some(codes::BAD_JSON), "{resp:?}");

    handle.shutdown();
    handle.join();
}

#[test]
fn deep_documents_and_queries_are_refused_with_their_codes() {
    let mut handle = spawn();
    let mut c = connect(&handle);

    let resp = open(&mut c, "deep", nested_doc(HOSTILE_DEPTH));
    assert_eq!(error_code(&resp), Some(codes::BAD_SYSTEM), "{resp:?}");
    let resp = open(&mut c, "over", nested_doc(MAX_NESTING + 1));
    assert_eq!(error_code(&resp), Some(codes::BAD_SYSTEM), "{resp:?}");

    // At the limit the document opens and a query at the limit runs.
    let resp = open(&mut c, "edge", nested_doc(MAX_NESTING));
    assert!(matches!(resp, Response::OpenOk { .. }), "{resp:?}");
    let query = |c: &mut Client, depth: usize| {
        c.call(&Request::Query {
            id: 4,
            session: "edge".into(),
            query: nested_query(depth),
        })
        .unwrap()
    };
    let resp = query(&mut c, MAX_NESTING);
    let Response::Answers { trees, .. } = resp else {
        panic!("expected answers, got {resp:?}")
    };
    assert_eq!(trees, vec![r#"hit{"v"}"#.to_string()]);

    let resp = query(&mut c, HOSTILE_DEPTH);
    assert_eq!(error_code(&resp), Some(codes::BAD_QUERY), "{resp:?}");
    let resp = query(&mut c, MAX_NESTING + 1);
    assert_eq!(error_code(&resp), Some(codes::BAD_QUERY), "{resp:?}");

    handle.shutdown();
    drop(c);
    handle.join();
}

#[test]
fn run_budget_cannot_exceed_the_server_ceiling() {
    let mut handle = spawn();
    let mut c = connect(&handle);
    let resp = c
        .call(&Request::Open {
            id: 1,
            session: "tc".into(),
            docs: vec![(
                "edges".into(),
                r#"r{t{from{"1"},to{"2"}}, t{from{"2"},to{"3"}}, @tc}"#.into(),
            )],
            services: vec![(
                "tc".into(),
                "t{from{$x},to{$y}} :- edges/r{t{from{$x},to{$z}}, t{from{$z},to{$y}}}".into(),
            )],
        })
        .unwrap();
    assert!(matches!(resp, Response::OpenOk { .. }), "{resp:?}");

    let ceiling = ServerConfig::default().engine.max_invocations as u64;
    let run = |c: &mut Client, budget: u64| {
        c.call(&Request::Run {
            id: 5,
            session: "tc".into(),
            mode: None,
            max_invocations: Some(budget),
        })
        .unwrap()
    };
    let resp = run(&mut c, ceiling + 1);
    assert_eq!(error_code(&resp), Some(codes::TOO_LARGE), "{resp:?}");
    let resp = run(&mut c, ceiling);
    assert!(
        matches!(resp, Response::RunOk { ref status, .. } if status == "terminated"),
        "{resp:?}"
    );

    handle.shutdown();
    drop(c);
    handle.join();
}

/// Example 2.1's divergent `Spam` under a 200-visit budget. Every call
/// visit, a skipped one too, is an invocation of the fair rewriting, so
/// the run stops after the 19 rounds the rewriting takes to make 200
/// invocations; were skipped visits free, it would go on for 200 rounds,
/// each evaluating only the newest `@Spam`. A v1 client's `mode` is
/// accepted and has no effect; any other value is a bad field.
#[test]
fn a_divergent_run_stops_at_its_visit_budget() {
    let mut handle = spawn();
    let mut c = connect(&handle);
    let mut run = |session: &str, mode: Option<&str>| {
        let resp = c
            .call(&Request::Open {
                id: 1,
                session: session.into(),
                docs: vec![("d".into(), "r{@Spam}".into())],
                services: vec![("Spam".into(), "junk{@Spam} :-".into())],
            })
            .unwrap();
        assert!(matches!(resp, Response::OpenOk { .. }), "{resp:?}");
        c.call(&Request::Run {
            id: 2,
            session: session.into(),
            mode: mode.map(Into::into),
            max_invocations: Some(200),
        })
        .unwrap()
    };
    let resp = run("eager", Some("eager"));
    assert_eq!(error_code(&resp), Some(codes::BAD_FIELD), "{resp:?}");
    for (session, mode) in [
        ("spam", None),
        ("spam-naive", Some("naive")),
        ("spam-delta", Some("delta")),
    ] {
        let resp = run(session, mode);
        assert!(
            matches!(&resp, Response::RunOk { status, rounds: 19, invocations: 200, .. }
                if status == "invocation-budget"),
            "{session}: {resp:?}"
        );
    }

    handle.shutdown();
    drop(c);
    handle.join();
}

/// The rarest constant of [`axml_bench::site_pattern`], `"cK"`, sits at
/// this pattern depth.
const SITE_ANCHOR_DEPTH: u64 = 5;

/// Candidate nodes an anchored descent of [`axml_bench::site_pattern`]
/// examines per answer: the four children of each answer's `item`, once
/// for `name` and once for `price`, and the one child of each of those.
const SITE_SCANNED_PER_ANSWER: u64 = 10;

/// One category of 200 over 20 000 items: the matcher reads the anchor's
/// bucket once and examines candidates per answer, not per item, under
/// both executors (an unanchored descent examines every item's children,
/// 280 604 candidates).
#[test]
fn a_selective_site_query_probes_per_answer_not_per_item() {
    let doc = axml_bench::site_doc(2, 100, 100, 200);
    doc.build_index();
    let p = axml_bench::site_pattern(17);
    let (bindings, stats) = match_pattern_with(&p, &doc, MatchStrategy::Indexed);
    let answers = bindings.len() as u64;
    assert_eq!(answers, 100);
    assert_eq!((stats.probes, stats.probe_hits), (1, 1), "{stats:?}");
    assert!(
        stats.parent_steps <= answers * SITE_ANCHOR_DEPTH,
        "{stats:?}"
    );
    assert!(
        stats.scanned <= SITE_SCANNED_PER_ANSWER * answers,
        "{} candidates examined for {answers} answers",
        stats.scanned
    );
    let q = parse_query(&format!("h :- d/{p}")).unwrap();
    let (compiled, cstats) = compile_query(&q, MatchStrategy::Indexed).run_atom(0, &doc);
    assert_eq!(compiled, bindings);
    assert_eq!(cstats.probes, 1, "{cstats:?}");
    assert!(
        cstats.scanned <= SITE_SCANNED_PER_ANSWER * answers,
        "{cstats:?}"
    );
    let (scan, sstats) = match_pattern_with(&p, &doc, MatchStrategy::Scan);
    assert_eq!(bindings, scan);
    assert!(sstats.scanned > 100 * stats.scanned, "{sstats:?}");
}

/// The anchor constant `"c001"` thousands of times off the pattern's
/// path (under `tag` instead of `cat`, and one level too high): the walk
/// up from its bucket stays within bucket × depth parent steps, and the
/// answers still equal `Scan`'s.
#[test]
fn decoys_of_the_anchor_constant_cost_bounded_parent_steps() {
    let mut doc = axml_bench::site_doc(2, 60, 100, 400);
    let (items, regions): (Vec<NodeId>, Vec<NodeId>) = {
        let all: Vec<NodeId> = doc.iter_live(doc.root()).collect();
        (
            all.iter()
                .copied()
                .filter(|&n| doc.marking(n) == Marking::label("item"))
                .collect(),
            all.iter()
                .copied()
                .filter(|&n| doc.marking(n) == Marking::label("region"))
                .collect(),
        )
    };
    let mut decoy = |parent: NodeId, label: &str| {
        let n = doc.add_child(parent, Marking::label(label)).unwrap();
        doc.add_child(n, Marking::value("c001")).unwrap();
    };
    for &item in items.iter().step_by(8) {
        decoy(item, "tag");
    }
    for i in 0..500 {
        decoy(regions[i % regions.len()], "cat");
    }
    doc.build_index();
    let bucket = doc
        .indexed_nodes_with(Marking::value("c001"))
        .unwrap()
        .len() as u64;
    assert!(bucket > 2_000, "{bucket} decoys and hits");
    let p = axml_bench::site_pattern(1);
    let (bindings, stats) = match_pattern_with(&p, &doc, MatchStrategy::Indexed);
    assert_eq!(bindings.len(), 30);
    assert!(stats.parent_steps > 0, "the anchor did not fire");
    assert!(
        stats.parent_steps <= bucket * SITE_ANCHOR_DEPTH,
        "{} parent steps from a bucket of {bucket}",
        stats.parent_steps
    );
    assert_eq!(
        bindings,
        match_pattern_with(&p, &doc, MatchStrategy::Scan).0
    );
}

/// A query naming a document the session does not hold is `bad-query`
/// under `query`, `batch` and `subscribe` — even when an earlier atom
/// would come back empty — and `subscribe` refuses before `sub_ok`.
#[test]
fn unknown_documents_are_bad_queries_whatever_the_data() {
    let mut handle = spawn();
    let mut c = connect(&handle);
    let resp = c
        .call(&Request::Open {
            id: 1,
            session: "s".into(),
            docs: vec![("db".into(), r#"a{b{"1"}}"#.into())],
            services: vec![],
        })
        .unwrap();
    assert!(matches!(resp, Response::OpenOk { .. }), "{resp:?}");
    let unknown = |resp: &Response| {
        assert_eq!(error_code(resp), Some(codes::BAD_QUERY), "{resp:?}");
        let Response::Error { message, .. } = resp else {
            unreachable!()
        };
        assert!(message.contains("nosuch"), "{message}");
    };
    for query in [
        r#"hit{$x} :- nosuch/a{$x}"#,
        r#"hit{$x} :- db/a{zzz{$x}}, nosuch/a{$x}"#,
    ] {
        let resp = c
            .call(&Request::Query {
                id: 2,
                session: "s".into(),
                query: query.into(),
            })
            .unwrap();
        unknown(&resp);
        let resp = c
            .call(&Request::Batch {
                id: 3,
                session: "s".into(),
                queries: vec![r#"hit{$x} :- db/a{b{$x}}"#.into(), query.into()],
            })
            .unwrap();
        unknown(&resp);
    }
    c.send(&Request::Subscribe {
        id: 4,
        session: "s".into(),
        query: r#"hit{$x} :- nosuch/a{$x}"#.into(),
    })
    .unwrap();
    unknown(&c.recv().unwrap());
    // The connection is still in step: the next reply is the next call's.
    let resp = c.call(&Request::Health { id: 5 }).unwrap();
    assert!(matches!(resp, Response::HealthOk { id: 5, .. }), "{resp:?}");

    handle.shutdown();
    drop(c);
    handle.join();
}

/// Distinct query texts are compiled once each into the connection's
/// prepared table, whose keys never hold more than `max_frame_bytes` of
/// text: the insert that would pass the bound clears the table first.
/// Over three budgets of text the table clears at least twice, and every
/// answer stays correct.
#[test]
fn distinct_query_texts_clear_the_prepared_table_at_its_byte_bound() {
    const BUDGET: usize = 512;
    let cfg = ServerConfig {
        max_frame_bytes: BUDGET,
        ..ServerConfig::default()
    };
    let mut handle = Server::spawn("127.0.0.1:0", cfg).expect("bind ephemeral port");
    let mut c = connect(&handle);
    let items: Vec<String> = (0..8)
        .map(|k| format!(r#"item{{k{{"{k}"}},v{{"v{k}"}}}}"#))
        .collect();
    let resp = open(&mut c, "s", format!("db{{{}}}", items.join(",")));
    assert!(matches!(resp, Response::OpenOk { .. }), "{resp:?}");
    let stats = |c: &mut Client| {
        let Response::StatsOk { counters, .. } = c.call(&Request::Stats { id: 0 }).unwrap() else {
            panic!("expected stats_ok")
        };
        let get = |name: &str| counters.iter().find(|(n, _)| n == name).unwrap().1;
        (get("prepared_compiles"), get("prepared_clears"))
    };
    let text = |i: usize| format!(r#"h{i}{{$v}} :- d/db{{item{{k{{"{}"}},v{{$v}}}}}}"#, i % 8);
    let ask = |c: &mut Client, i: usize| {
        let resp = c
            .call(&Request::Query {
                id: i as u64,
                session: "s".into(),
                query: text(i),
            })
            .unwrap();
        let Response::Answers { trees, .. } = resp else {
            panic!("query {i}: {resp:?}")
        };
        assert_eq!(trees, vec![format!(r#"h{i}{{"v{}"}}"#, i % 8)], "query {i}");
    };
    // The rule the table follows, over the text lengths sent.
    let (mut held, mut clears, mut sent, mut n) = (0, 0, 0, 0);
    while sent <= 3 * BUDGET {
        let len = text(n).len();
        if held + len > BUDGET {
            held = 0;
            clears += 1;
        }
        held += len;
        sent += len;
        ask(&mut c, n);
        n += 1;
    }
    assert!(clears >= 2, "three budgets of text clear the table twice");
    assert_eq!(stats(&mut c), (n as u64, clears));
    // The last text is still held; the first was cleared and compiles
    // again.
    ask(&mut c, n - 1);
    assert_eq!(stats(&mut c), (n as u64, clears));
    ask(&mut c, 0);
    assert_eq!(stats(&mut c).0, n as u64 + 1);
    let resp = c.call(&Request::Health { id: 1 }).unwrap();
    assert!(matches!(resp, Response::HealthOk { id: 1, .. }), "{resp:?}");
    handle.shutdown();
    drop(c);
    handle.join();
}
