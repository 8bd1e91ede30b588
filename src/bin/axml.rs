//! `axml` — a command-line driver for the Positive Active XML engine.
//!
//! ```text
//! axml run <file.axml> [--budget N] [--strategy reverse|random:SEED]
//! axml query <file.axml> '<query>' [--lazy]
//! axml decide <file.axml>
//! axml analyze <file.axml> '<query>'
//! axml fire-once <file.axml>
//! axml reduce '<tree>'
//! axml --version
//! ```
//!
//! System files use the `doc`/`service` declaration format of
//! `axml_core::file` (see `examples/portal.axml`).

use positive_axml::core::engine::{run, EngineConfig, RunStatus, Strategy};
use positive_axml::core::eval::{snapshot, Env};
use positive_axml::core::file::from_text;
use positive_axml::core::fireonce::run_fire_once;
use positive_axml::core::graphrepr::{decide_termination, Termination};
use positive_axml::core::lazy::{is_q_stable, lazy_query_eval, weak_relevance, LazyConfig};
use positive_axml::core::query::parse_query;
use positive_axml::core::{parse_tree, reduce, System};
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  axml run <file> [--budget N] [--strategy reverse|random:SEED]\n  \
         axml query <file> '<query>' [--lazy]\n  \
         axml decide <file>\n  \
         axml analyze <file> '<query>'\n  \
         axml fire-once <file>\n  \
         axml reduce '<tree>'\n  \
         axml --version"
    );
    ExitCode::from(2)
}

fn load(path: &str) -> Result<System, String> {
    let src = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let sys = from_text(&src).map_err(|e| format!("{path}: {e}"))?;
    sys.validate().map_err(|e| format!("{path}: {e}"))?;
    Ok(sys)
}

fn print_docs(sys: &System) {
    for &d in sys.doc_names() {
        println!("doc {d} = {}", sys.doc(d).expect("stored"));
    }
}

fn parse_strategy(s: &str) -> Result<Strategy, String> {
    match s {
        "reverse" => Ok(Strategy::Reverse),
        _ => match s.strip_prefix("random:") {
            Some(seed) => seed
                .parse::<u64>()
                .map(Strategy::Random)
                .map_err(|e| format!("bad seed: {e}")),
            None => Err(format!("unknown strategy {s:?}")),
        },
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run_cli(&args) {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn run_cli(args: &[String]) -> Result<ExitCode, String> {
    let Some(cmd) = args.first() else {
        return Ok(usage());
    };
    match cmd.as_str() {
        "run" => {
            let Some(path) = args.get(1) else {
                return Ok(usage());
            };
            let mut budget = 100_000usize;
            let mut strategy = Strategy::RoundRobin;
            let mut i = 2;
            while i < args.len() {
                match args[i].as_str() {
                    "--budget" => {
                        budget = args
                            .get(i + 1)
                            .ok_or("--budget needs a value")?
                            .parse()
                            .map_err(|e| format!("bad budget: {e}"))?;
                        i += 2;
                    }
                    "--strategy" => {
                        strategy =
                            parse_strategy(args.get(i + 1).ok_or("--strategy needs a value")?)?;
                        i += 2;
                    }
                    other => return Err(format!("unknown flag {other:?}")),
                }
            }
            let mut sys = load(path)?;
            let cfg = EngineConfig {
                max_invocations: budget,
                strategy,
                ..EngineConfig::default()
            };
            let (status, stats) = run(&mut sys, &cfg).map_err(|e| e.to_string())?;
            print_docs(&sys);
            eprintln!(
                "status: {status:?} ({} invocations, {} productive, {} rounds)",
                stats.invocations, stats.productive, stats.rounds
            );
            Ok(if status == RunStatus::Terminated {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(3)
            })
        }
        "query" => {
            let (Some(path), Some(qtext)) = (args.get(1), args.get(2)) else {
                return Ok(usage());
            };
            let lazy = args.iter().any(|a| a == "--lazy");
            let mut sys = load(path)?;
            let q = parse_query(qtext).map_err(|e| e.to_string())?;
            let answer = if lazy {
                let (ans, stats) = lazy_query_eval(&mut sys, &q, &LazyConfig::default())
                    .map_err(|e| e.to_string())?;
                eprintln!(
                    "lazy: stable={} after {} invocations / {} rounds",
                    stats.stable, stats.invocations, stats.rounds
                );
                ans
            } else {
                run(&mut sys, &EngineConfig::default()).map_err(|e| e.to_string())?;
                let mut env = Env::new();
                for &d in sys.doc_names() {
                    env.insert(d, sys.doc(d).expect("stored"));
                }
                snapshot(&q, &env).map_err(|e| e.to_string())?
            };
            for t in answer.trees() {
                println!("{t}");
            }
            Ok(ExitCode::SUCCESS)
        }
        "decide" => {
            let Some(path) = args.get(1) else {
                return Ok(usage());
            };
            let sys = load(path)?;
            match decide_termination(&sys).map_err(|e| e.to_string())? {
                Termination::Terminates => {
                    println!("terminates");
                    Ok(ExitCode::SUCCESS)
                }
                Termination::Diverges { cycle_len } => {
                    println!("diverges (cycle of length {cycle_len})");
                    Ok(ExitCode::from(3))
                }
            }
        }
        "analyze" => {
            let (Some(path), Some(qtext)) = (args.get(1), args.get(2)) else {
                return Ok(usage());
            };
            let sys = load(path)?;
            let q = parse_query(qtext).map_err(|e| e.to_string())?;
            let rel = weak_relevance(&sys, &q);
            println!("weakly relevant calls: {}", rel.relevant_calls.len());
            for &(d, n) in &rel.relevant_calls {
                let t = sys.doc(d).expect("stored");
                println!("  {d}: {}", t.marking(n));
            }
            match is_q_stable(&sys, &q) {
                Ok(stable) => println!("q-stable (exact): {stable}"),
                Err(e) => println!("q-stable (exact): unavailable ({e})"),
            }
            Ok(ExitCode::SUCCESS)
        }
        "fire-once" => {
            let Some(path) = args.get(1) else {
                return Ok(usage());
            };
            let mut sys = load(path)?;
            let stats = run_fire_once(&mut sys, 100_000).map_err(|e| e.to_string())?;
            print_docs(&sys);
            eprintln!(
                "fired {} calls once each ({} productive, topological: {})",
                stats.fired, stats.productive, stats.topological
            );
            Ok(ExitCode::SUCCESS)
        }
        "reduce" => {
            let Some(tree) = args.get(1) else {
                return Ok(usage());
            };
            let t = parse_tree(tree).map_err(|e| e.to_string())?;
            println!("{}", reduce(&t));
            Ok(ExitCode::SUCCESS)
        }
        "--version" | "-V" => {
            println!("axml {}", env!("CARGO_PKG_VERSION"));
            Ok(ExitCode::SUCCESS)
        }
        _ => Ok(usage()),
    }
}
