//! Served `query` and `batch` frames run each connection's prepared
//! programs: answers equal a direct `snapshot` against the same
//! documents, whether the program was just compiled or taken from the
//! connection's table, and the errors a text provokes come back the same
//! on every repeat. On a traced server, the first frame of a text
//! compiles its program and every frame probes the document index.

use positive_axml::core::display::compact;
use positive_axml::core::eval::prepared_query_sym;
use positive_axml::core::trace::{EventKind, JournalConfig};
use positive_axml::core::{parse_query, snapshot, Env, System};
use positive_axml::server::load::Client;
use positive_axml::server::protocol::{codes, Request, Response};
use positive_axml::server::{Server, ServerConfig, ServerHandle};

/// Two sessions' documents: the same names, different data, and a
/// document `e` only the first holds.
const SESSIONS: [(&str, &[(&str, &str)]); 2] = [
    (
        "s1",
        &[
            (
                "d",
                r#"r{t{a{"1"},b{c{"2"},d{"3"}}}, t{a{"1"},b{c{"3"},e{"3"}}}, t{a{"2"},b{c{"2"},k{"6"}}}}"#,
            ),
            ("dp", r#"a{"1"}"#),
            ("e", r#"a{"x"}"#),
        ],
    ),
    (
        "s2",
        &[
            ("d", r#"r{t{a{"2"},b{c{"9"},f}}, t{a{"5"},b{x{y}}}}"#),
            ("dp", r#"a{"2"}"#),
        ],
    ),
];

/// Queries with value, label and tree variables, inequalities, a text
/// that does not parse, a document no session holds, and one only the
/// first session holds.
const QUERIES: [&str; 7] = [
    "?z :- dp/a{$x}, d/r{t{a{$x},b{?z}}}",
    "#Z :- dp/a{$x}, d/r{t{a{$x},b{#Z}}}",
    "pair{$x,$y} :- d/r{t{a{$x}},t{a{$y}}}, $x != $y",
    r#"r{#X,copy{#X}} :- d/r{t{a{$x},b{#X}}}, $x != "5""#,
    "this is not a query",
    "r{$x} :- nosuch/a{$x}",
    "r{$x} :- e/a{$x}",
];

/// Texts of [`QUERIES`] that parse: the ones a connection compiles.
const PARSEABLE: u64 = 6;

fn spawn(cfg: ServerConfig) -> ServerHandle {
    Server::spawn("127.0.0.1:0", cfg).expect("bind ephemeral port")
}

fn open(c: &mut Client, session: &str, docs: &[(&str, &str)]) {
    let resp = c
        .call(&Request::Open {
            id: 1,
            session: session.into(),
            docs: docs
                .iter()
                .map(|(n, t)| (n.to_string(), t.to_string()))
                .collect(),
            services: vec![],
        })
        .unwrap();
    assert!(matches!(resp, Response::OpenOk { .. }), "{resp:?}");
}

fn system(docs: &[(&str, &str)]) -> System {
    let mut sys = System::new();
    for (name, text) in docs {
        sys.add_document_text(name, text).unwrap();
    }
    sys
}

/// A direct snapshot's answers, rendered, or the error code the server
/// must give.
fn expected(sys: &System, text: &str) -> Result<Vec<String>, &'static str> {
    let q = parse_query(text).map_err(|_| codes::BAD_QUERY)?;
    let forest = snapshot(&q, &Env::for_system(sys)).map_err(|_| codes::BAD_QUERY)?;
    Ok(forest.trees().iter().map(compact).collect())
}

fn counter(c: &mut Client, name: &str) -> u64 {
    let Response::StatsOk { counters, .. } = c.call(&Request::Stats { id: 99 }).unwrap() else {
        panic!("expected stats_ok")
    };
    counters
        .iter()
        .find(|(n, _)| n == name)
        .unwrap_or_else(|| panic!("counter {name} missing"))
        .1
}

#[test]
fn served_answers_equal_snapshots_when_compiled_and_when_repeated() {
    let mut handle = spawn(ServerConfig::default());
    let mut c = Client::connect(&handle.addr().to_string()).unwrap();
    for (session, docs) in SESSIONS {
        open(&mut c, session, docs);
    }
    let mut id = 10;
    let mut answered = 0;
    for round in 0..2 {
        for (session, docs) in SESSIONS {
            let sys = system(docs);
            for text in QUERIES {
                id += 1;
                let resp = c
                    .call(&Request::Query {
                        id,
                        session: session.into(),
                        query: text.into(),
                    })
                    .unwrap();
                let got = match resp {
                    Response::Answers { trees, .. } => Ok(trees),
                    Response::Error { code, .. } => Err(code),
                    other => panic!("unexpected frame {other:?}"),
                };
                let want = expected(&sys, text).map_err(str::to_string);
                assert_eq!(got, want, "round {round}, {session}: {text}");
                answered += usize::from(got.is_ok_and(|t| !t.is_empty()));
            }
            // The texts every session can answer, as one `batch` frame.
            let batch: Vec<String> = QUERIES[..4].iter().map(|q| q.to_string()).collect();
            id += 1;
            let resp = c
                .call(&Request::Batch {
                    id,
                    session: session.into(),
                    queries: batch.clone(),
                })
                .unwrap();
            let Response::BatchOk { answers, .. } = resp else {
                panic!("expected batch_ok, got {resp:?}")
            };
            let want: Vec<Vec<String>> = batch.iter().map(|q| expected(&sys, q).unwrap()).collect();
            assert_eq!(answers, want, "round {round}, {session}: batch");
        }
    }
    // Every text but the two bad ones answers in `s1`, the first four in
    // `s2`; each time, in both rounds.
    assert_eq!(answered, 2 * (5 + 4), "answers were non-empty");
    // One program per parseable text, shared by both sessions and every
    // repeat; the text that does not parse is never kept.
    assert_eq!(counter(&mut c, "prepared_compiles"), PARSEABLE);
    assert_eq!(counter(&mut c, "prepared_clears"), 0);

    // A second connection keeps a table of its own.
    let mut c2 = Client::connect(&handle.addr().to_string()).unwrap();
    let resp = c2
        .call(&Request::Query {
            id: 1,
            session: "s1".into(),
            query: QUERIES[0].into(),
        })
        .unwrap();
    assert!(matches!(resp, Response::Answers { .. }), "{resp:?}");
    assert_eq!(counter(&mut c2, "prepared_compiles"), PARSEABLE + 1);

    handle.shutdown();
    drop((c, c2));
    handle.join();
}

#[test]
fn a_traced_query_compiles_on_its_first_frame_and_probes_the_index_on_every_frame() {
    let cfg = ServerConfig {
        trace_engine: true,
        journal: JournalConfig::unbounded(),
        ..ServerConfig::default()
    };
    let mut handle = spawn(cfg);
    let mut c = Client::connect(&handle.addr().to_string()).unwrap();
    // 40 items of 5 nodes each: well past the size at which a document
    // builds its index.
    let items: Vec<String> = (0..40)
        .map(|i| format!(r#"item{{k{{"{i}"}},v{{"v{i}"}}}}"#))
        .collect();
    let doc = format!("db{{{}}}", items.join(","));
    open(&mut c, "s", &[("d", &doc)]);
    let query = r#"hit{$v} :- d/db{item{k{"7"},v{$v}}}"#;
    let prepared = prepared_query_sym();
    let mut traces = Vec::new();
    for id in [2, 3] {
        let before = handle.sink().events().len();
        let resp = c
            .call(&Request::Query {
                id,
                session: "s".into(),
                query: query.into(),
            })
            .unwrap();
        let Response::Answers { trees, .. } = resp else {
            panic!("expected answers, got {resp:?}")
        };
        assert_eq!(trees, vec![r#"hit{"v7"}"#.to_string()]);
        let events = handle.sink().events();
        let new = &events[before..];
        let compiled = new
            .iter()
            .filter(|e| matches!(e.kind, EventKind::PlanCompiled { service, .. } if service == prepared))
            .count();
        let lookups: Vec<_> = new
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::IndexLookup {
                    service, probes, ..
                } if service == prepared => Some((e.trace, probes)),
                _ => None,
            })
            .collect();
        assert_eq!(
            compiled,
            usize::from(id == 2),
            "frame {id}: PlanCompiled events"
        );
        assert_eq!(lookups.len(), 1, "frame {id}: one IndexLookup per atom");
        assert!(lookups[0].1 >= 1, "frame {id}: the lookup probed the index");
        traces.push(lookups[0].0);
    }
    assert!(
        traces[0] != 0 && traces[0] != traces[1],
        "each frame's events carry its own trace id: {traces:?}"
    );

    handle.shutdown();
    drop(c);
    handle.join();
}
