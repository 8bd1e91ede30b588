//! `axml-perf` — the served-path benchmark. See `perf/README.md`.
//!
//! ```text
//! axml-perf --workload W --seed S [--seconds N] [--trace 0|1] [--small] [--out DIR]
//! axml-perf compare BASELINE.json CANDIDATE.json
//! ```

mod compare;
mod drive;
mod gen;
mod host;
mod metrics;
mod run;
mod shadow;
mod stats;
mod wire;

use run::{Options, Workload};
use std::path::PathBuf;
use std::process::ExitCode;

#[global_allocator]
static ALLOC: host::CountingAlloc = host::CountingAlloc;

const USAGE: &str =
    "usage: axml-perf --workload <wire_small|scan_large|fixpoint_write|mixed_subscribe> \
--seed <n> [--seconds <n>] [--trace <0|1>] [--small] [--out <dir>]\n       \
axml-perf compare <baseline.json> <candidate.json>";

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        workload: Workload::WireSmall,
        seed: 0,
        seconds: 20,
        trace: false,
        small: false,
        out: None,
    };
    let (mut have_workload, mut have_seed) = (false, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--small" {
            opts.small = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} takes a whole number, got {value:?}"))
        };
        match flag.as_str() {
            "--workload" => {
                opts.workload =
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?;
                have_workload = true;
            }
            "--seed" => {
                opts.seed = number()?;
                have_seed = true;
            }
            "--seconds" => {
                opts.seconds = number()?;
                if !(1..=120).contains(&opts.seconds) {
                    return Err("--seconds must be between 1 and 120".to_string());
                }
            }
            "--trace" => opts.trace = number()? != 0,
            "--out" => opts.out = Some(PathBuf::from(value)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !have_workload || !have_seed {
        return Err("--workload and --seed are required".to_string());
    }
    Ok(opts)
}

fn run_workload(opts: &Options) -> Result<bool, String> {
    // The two hooks that flip engine defaults from outside must not
    // leak in from the caller's environment.
    std::env::remove_var("AXML_WORKERS");
    std::env::remove_var("AXML_FORCE_INTERPRET");
    // One core for the server and the generator alike, taken before
    // any thread exists so that every thread inherits it; and with one
    // core, one allocator arena.
    let pinned = host::pin_to_one_cpu();
    host::single_malloc_arena();
    let report = run::run(opts, pinned).map_err(|e| format!("run failed: {e}"))?;
    if let Some(dir) = &opts.out {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let file = dir.join(format!(
            "{}.s{}.t{}.json",
            report.workload.name(),
            report.seed,
            u8::from(report.trace)
        ));
        std::fs::write(&file, report.record_line() + "\n")
            .map_err(|e| format!("{}: {e}", file.display()))?;
    }
    println!(
        "workload {}  seed {}  trace {}  pinned_cpu {}  noisy {}",
        report.workload.name(),
        report.seed,
        u8::from(report.trace),
        report.pinned.map_or("none".to_string(), |c| c.to_string()),
        report.noisy
    );
    for (def, value) in report.values.rows() {
        println!(
            "{:<40} {:>16} {}",
            def.name,
            metrics::json_number(value),
            def.unit
        );
    }
    println!(
        "attempted {}  failed {}  failed_op_share {}",
        report.tally.attempted,
        report.tally.failed,
        report.tally.failed as f64 / report.tally.attempted.max(1) as f64
    );
    if let Some(why) = &report.tally.first_failure {
        eprintln!("first failed op: {why}");
    }
    println!("{}", report.result_line());
    Ok(report.correct())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("compare") if args.len() == 3 => compare::compare(&args[1], &args[2]),
        Some("compare") | None => Err(USAGE.to_string()),
        _ => parse_args(&args).and_then(|opts| run_workload(&opts)),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(msg) => {
            eprintln!("axml-perf: {msg}");
            ExitCode::from(2)
        }
    }
}
