//! `axml-load` — closed-loop load generator for `axml-server`.
//!
//! ```text
//! axml-load [--addr HOST:PORT] [--conns N] [--requests N] [--batch N]
//!           [--entries N] [--subscribe] [--readers N]
//!           [--shutdown] [--json PATH] [--version]
//! ```
//!
//! Each connection opens its own session, runs it, then issues
//! `--requests` point-lookup queries in frames of `--batch`, measuring
//! the client-observed round trip. Prints a one-line report with
//! p50/p99/max latency and throughput. `--subscribe` additionally
//! streams a transitive-closure fixpoint per connection; `--readers N`
//! appends a mixed phase racing `N` closed-loop `query`/`stats`
//! readers against a writer driving back-to-back fixpoints on one
//! shared session (reader p50/p99 in extra columns); `--shutdown`
//! stops the server afterwards (the CI smoke job uses all three);
//! `--json PATH` also
//! writes the machine-readable summary ([`LoadReport::to_json`]) to
//! `PATH` for benchmark trajectory files.

use axml_server::load::{run, LoadConfig, LoadReport};

fn usage() -> ! {
    eprintln!(
        "usage: axml-load [--addr HOST:PORT] [--conns N] [--requests N] [--batch N]\n\
         \x20                [--entries N] [--subscribe] [--readers N]\n\
         \x20                [--shutdown] [--json PATH] [--version]"
    );
    std::process::exit(2)
}

fn main() {
    let mut cfg = LoadConfig::default();
    let mut json_path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut val = |name: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("missing value for {name}");
                usage()
            })
        };
        match arg.as_str() {
            "--addr" => cfg.addr = val("--addr"),
            "--conns" => cfg.conns = parse(&val("--conns")),
            "--requests" => cfg.requests = parse(&val("--requests")),
            "--batch" => cfg.batch = parse(&val("--batch")).max(1),
            "--entries" => cfg.entries = parse(&val("--entries")).max(1),
            "--subscribe" => cfg.subscribe = true,
            "--readers" => cfg.readers = parse(&val("--readers")),
            "--shutdown" => cfg.shutdown = true,
            "--json" => json_path = Some(val("--json")),
            "--version" | "-V" => {
                println!("axml-load {}", env!("CARGO_PKG_VERSION"));
                return;
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag {other:?}");
                usage()
            }
        }
    }
    match run(&cfg) {
        Ok(report) => {
            println!("{}", report.render(&cfg));
            if let Err(e) = write_json(json_path.as_deref(), &report, &cfg) {
                eprintln!("axml-load: writing --json: {e}");
                std::process::exit(1);
            }
            if report.errors > 0 {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("axml-load: {e}");
            std::process::exit(1);
        }
    }
}

fn write_json(path: Option<&str>, report: &LoadReport, cfg: &LoadConfig) -> std::io::Result<()> {
    let Some(path) = path else { return Ok(()) };
    let mut body = report.to_json(cfg);
    body.push('\n');
    std::fs::write(path, body)
}

fn parse(s: &str) -> usize {
    s.parse().unwrap_or_else(|_| {
        eprintln!("not a number: {s:?}");
        usage()
    })
}
