//! Hostile input against a live server: text nested past the parsers'
//! depth limits is refused with the ordinary error codes instead of
//! overflowing a connection thread's stack (which would abort the whole
//! process), text exactly at the limits is still served, and a client
//! cannot raise the invocation budget past the server's own.

use positive_axml::core::parse::MAX_NESTING;
use positive_axml::core::trace::MAX_JSON_DEPTH;
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
