//! The shape of one run: inputs from the seed → set-up (repeated and
//! timed) → warm-up → counted phase → timed phase in windows → report.

use crate::drive::{self, Driver, Tally};
use crate::gen;
use crate::host::{self, HostProbe};
use crate::metrics::{Values, END_TO_END, PER_LAYER};
use crate::shadow::{Layers, Shadow, SETUP_OP};
use crate::stats::{median_of, quiet_windows, Quiet, WindowStats};
use crate::wire::WireCounts;
use axml_core::trace::{EventKind, GlobalMetrics, ReqKind, TraceEvent};
use axml_server::server::{Server, ServerConfig, ServerHandle};
use std::io;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    WireSmall,
    ScanLarge,
    FixpointWrite,
    MixedSubscribe,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::WireSmall,
        Workload::ScanLarge,
        Workload::FixpointWrite,
        Workload::MixedSubscribe,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::WireSmall => "wire_small",
            Workload::ScanLarge => "scan_large",
            Workload::FixpointWrite => "fixpoint_write",
            Workload::MixedSubscribe => "mixed_subscribe",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

pub struct Options {
    pub workload: Workload,
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: u64,
    pub trace: bool,
    /// Smoke mode: one set-up, a 2 s timed phase.
    pub small: bool,
    /// Where the run's report (and, traced, its spans) are written.
    pub out: Option<PathBuf>,
}

/// The inputs of one workload, with their ground truth; shared, so
/// that a set-up copies none of it inside its timing.
pub enum Inputs {
    Read {
        doc: String,
        probes: Arc<Vec<gen::Probe>>,
    },
    Fixpoint(Arc<gen::Closure>),
    Mixed(Arc<gen::Linear>),
}

// Sizes. `scan_large`: 2 × 100 × 100 = 20 000 items (about 180 000
// nodes) within the fan-out bound; 200 categories select 100 items each.
const KV_ENTRIES: usize = 8;
const KV_PASSES: usize = 8;
const SITE_ZONES: usize = 2;
const SITE_REGIONS: usize = 100;
const SITE_ITEMS_PER_REGION: usize = 100;
const SITE_CATEGORIES: usize = 200;
const FIXPOINT_CHAIN: usize = 16;
const MIXED_SPINE: usize = 15;
const MIXED_CHORDS: usize = 6;
const MIXED_BATCH: usize = 8;

impl Inputs {
    pub fn generate(workload: Workload, seed: u64) -> Inputs {
        match workload {
            Workload::WireSmall => Inputs::Read {
                doc: axml_server::load::kv_doc(KV_ENTRIES),
                probes: Arc::new(gen::kv_probes(seed, KV_ENTRIES, KV_PASSES)),
            },
            Workload::ScanLarge => {
                let site = gen::site(
                    seed,
                    SITE_ZONES,
                    SITE_REGIONS,
                    SITE_ITEMS_PER_REGION,
                    SITE_CATEGORIES,
                );
                Inputs::Read {
                    doc: site.text,
                    probes: Arc::new(site.probes),
                }
            }
            Workload::FixpointWrite => {
                Inputs::Fixpoint(Arc::new(gen::doubling_closure(seed, FIXPOINT_CHAIN)))
            }
            Workload::MixedSubscribe => Inputs::Mixed(Arc::new(gen::linear_closure(
                seed,
                MIXED_SPINE,
                MIXED_CHORDS,
                MIXED_BATCH,
            ))),
        }
    }

    /// Set-up against a listening server: connect, open the documents,
    /// run, and get the first op answered.
    fn start(&self, addr: &str, tally: &mut Tally) -> io::Result<Box<dyn Driver>> {
        match self {
            Inputs::Read { doc, probes } => drive::start_query_loop(addr, doc, probes, tally),
            Inputs::Fixpoint(c) => drive::start_fixpoint_loop(addr, c, tally),
            Inputs::Mixed(l) => drive::start_mixed(addr, l, tally),
        }
    }
}

/// `ServerConfig::default()` (Delta engine, compiled, sequential,
/// bounded journal) but for a frame cap that fits `scan_large`'s
/// document in one `open`.
fn server_config(trace_engine: bool) -> ServerConfig {
    ServerConfig {
        max_frame_bytes: 8 << 20,
        trace_engine,
        ..ServerConfig::default()
    }
}

/// A server with a workload set up on it.
struct Stack {
    handle: ServerHandle,
    driver: Box<dyn Driver>,
}

impl Stack {
    fn up(inputs: &Inputs, trace_engine: bool, tally: &mut Tally) -> io::Result<Stack> {
        let handle = Server::spawn("127.0.0.1:0", server_config(trace_engine))?;
        let driver = inputs.start(&handle.addr().to_string(), tally)?;
        Ok(Stack { handle, driver })
    }

    fn down(mut self) -> io::Result<()> {
        self.driver.finish()?;
        self.handle.shutdown();
        self.handle.join();
        Ok(())
    }
}

/// Set-up repetitions: at least five, more while they are cheap, so the
/// median of a millisecond-sized set-up is as steady as a second-sized
/// one.
const MIN_SETUPS: usize = 5;
const MAX_SETUPS: usize = 60;
const SETUP_BUDGET: Duration = Duration::from_secs(1);

fn timed_setups(inputs: &Inputs, small: bool, tally: &mut Tally) -> io::Result<(Stack, Vec<f64>)> {
    let began = Instant::now();
    let mut times = Vec::new();
    loop {
        let t0 = Instant::now();
        let stack = Stack::up(inputs, false, tally)?;
        times.push(t0.elapsed().as_secs_f64());
        let enough = times.len() >= MIN_SETUPS
            && (began.elapsed() >= SETUP_BUDGET || times.len() >= MAX_SETUPS);
        if small || enough {
            return Ok((stack, times));
        }
        stack.down()?;
    }
}

const WINDOW: Duration = Duration::from_secs(1);

/// The timed phase: 1 s windows dealt in turn to `drivers`, a host probe
/// before the first and after each. `probes[i]`, `probes[i + 1]`
/// bracket window `i`, which belongs to driver `i % drivers.len()`.
struct Timed {
    windows: Vec<WindowStats>,
    probes: Vec<f64>,
    quiet: Quiet,
    drivers: usize,
}

fn timed_phase(
    drivers: &mut [&mut Box<dyn Driver>],
    seconds: u64,
    tally: &mut Tally,
) -> io::Result<Timed> {
    let probe = HostProbe::new();
    let mut probes = vec![probe.measure()];
    let mut windows = Vec::new();
    let deadline = Instant::now() + Duration::from_secs(seconds);
    // Whole turns only, so every driver gets the same number of windows.
    while windows.len() % drivers.len() != 0 || Instant::now() < deadline {
        let turn = windows.len() % drivers.len();
        windows.push(drivers[turn].window(WINDOW, tally)?.stats());
        probes.push(probe.measure());
    }
    let quiet = quiet_windows(&probes);
    Ok(Timed {
        windows,
        probes,
        quiet,
        drivers: drivers.len(),
    })
}

impl Timed {
    /// Median, over the windows in use that belong to driver `turn`, of
    /// a per-window statistic; windows where it has no value are left
    /// out.
    fn median(&self, turn: usize, stat: impl Fn(&WindowStats) -> Option<f64>) -> f64 {
        median_of(
            self.quiet
                .windows
                .iter()
                .filter(|&&i| i % self.drivers == turn)
                .filter_map(|&i| stat(&self.windows[i])),
        )
    }

    fn probe_best(&self) -> f64 {
        self.probes.iter().copied().fold(f64::INFINITY, f64::min)
    }
}

/// What the counted phase (a fixed number of ops) cost.
struct Counted {
    ops: u64,
    /// Closed-loop ops among them (all of them but on `mixed_subscribe`).
    closed_ops: u64,
    allocs: u64,
    alloc_bytes: u64,
    wire: WireCounts,
}

/// Ops of the warm-up (one pass) and of the counted phase (two); the
/// smoke does a quarter of each.
fn phase_ops(driver: &dyn Driver, small: bool) -> (u64, u64) {
    let pass = driver.cycle_ops();
    if small {
        (pass / 4, pass / 2)
    } else {
        (pass, 2 * pass)
    }
}

fn counted_phase(
    driver: &mut Box<dyn Driver>,
    small: bool,
    tally: &mut Tally,
) -> io::Result<Counted> {
    let (_, ops) = phase_ops(driver.as_ref(), small);
    let (wire0, (allocs0, bytes0)) = (driver.wire(), host::alloc_counts());
    let closed_ops = driver.run_ops(ops, tally)?;
    let (allocs1, bytes1) = host::alloc_counts();
    Ok(Counted {
        ops,
        closed_ops,
        allocs: allocs1 - allocs0,
        alloc_bytes: bytes1 - bytes0,
        wire: driver.wire() - wire0,
    })
}

pub struct Report {
    pub workload: Workload,
    pub seed: u64,
    pub trace: bool,
    pub tally: Tally,
    pub values: Values,
    pub pinned: Option<usize>,
    pub noisy: bool,
}

impl Report {
    pub fn correct(&self) -> bool {
        self.tally.failed == 0
    }

    /// The result line of the contract: exactly these four keys.
    pub fn result_line(&self) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct(),
            self.tally.attempted,
            self.tally.failed,
            self.values.to_json()
        )
    }

    /// The result line plus what identifies the run: what `--out`
    /// stores and `compare` reads.
    pub fn record_line(&self) -> String {
        format!(
            "{{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"noisy\": {}, {}",
            self.workload.name(),
            self.seed,
            u8::from(self.trace),
            self.noisy,
            &self.result_line()[1..]
        )
    }
}

pub fn run(opts: &Options, pinned: Option<usize>) -> io::Result<Report> {
    run_inputs(opts, &Inputs::generate(opts.workload, opts.seed), pinned)
}

fn run_inputs(opts: &Options, inputs: &Inputs, pinned: Option<usize>) -> io::Result<Report> {
    let seconds = if opts.small { 2 } else { opts.seconds };
    let mut tally = Tally::default();
    let (values, noisy) = if opts.trace {
        traced(opts, inputs, seconds, pinned, &mut tally)?
    } else {
        untraced(opts, inputs, seconds, &mut tally)?
    };
    Ok(Report {
        workload: opts.workload,
        seed: opts.seed,
        trace: opts.trace,
        tally,
        values,
        pinned,
        noisy,
    })
}

/// The end-to-end run: tracing off, set-up repeated and timed.
fn untraced(
    opts: &Options,
    inputs: &Inputs,
    seconds: u64,
    tally: &mut Tally,
) -> io::Result<(Values, bool)> {
    let (mut stack, setups) = timed_setups(inputs, opts.small, tally)?;
    let (warm_up, _) = phase_ops(stack.driver.as_ref(), opts.small);
    stack.driver.run_ops(warm_up, tally)?;
    let counted = counted_phase(&mut stack.driver, opts.small, tally)?;
    let timed = timed_phase(&mut [&mut stack.driver], seconds, tally)?;
    stack.down()?;

    let mut values = Values::new(END_TO_END);
    values.set("setup_s", median_of(setups));
    values.set("op_p50_us", timed.median(0, |w| w.op_p50_us));
    values.set("ops_per_s", timed.median(0, |w| Some(w.ops_per_s)));
    values.set(
        "wire_bytes_per_op",
        (counted.wire.bytes_out + counted.wire.bytes_in) as f64 / counted.ops as f64,
    );
    values.set("allocs_per_op", counted.allocs as f64 / counted.ops as f64);
    values.set("peak_rss_mb", host::peak_rss_mib().unwrap_or(0.0));
    eprintln!(
        "{}: {} windows, {} quiet{}, host probe best {:.0} us",
        opts.workload.name(),
        timed.windows.len(),
        (timed.quiet.share * timed.windows.len() as f64).round(),
        if timed.quiet.noisy {
            " (noisy: the calmest used)"
        } else {
            ""
        },
        timed.probe_best(),
    );
    Ok((values, timed.quiet.noisy))
}

/// Ops the shadow pipeline replays: `(primary ops, writer cycles)`.
fn shadow_sample(workload: Workload, small: bool) -> (usize, usize) {
    let (ops, cycles) = match workload {
        Workload::WireSmall | Workload::ScanLarge => (200, 0),
        // A fixpoint op is ~30 ms and a writer cycle ~60 ms: fewer of
        // them keep the replay to a couple of seconds.
        Workload::FixpointWrite => (48, 0),
        Workload::MixedSubscribe => (200, 16),
    };
    if small {
        (ops / 4, cycles / 4)
    } else {
        (ops, cycles)
    }
}

/// The request kinds of one primary op's frames.
fn op_frames(workload: Workload) -> &'static [ReqKind] {
    match workload {
        Workload::WireSmall | Workload::ScanLarge => &[ReqKind::Query],
        Workload::FixpointWrite => &[ReqKind::Open, ReqKind::Run, ReqKind::Query, ReqKind::Close],
        Workload::MixedSubscribe => &[ReqKind::Batch],
    }
}

/// Server-side service time of one op from the server's own
/// `RequestServed` events: the median `dur_ns` of each of the op's
/// frame kinds, added up, µs.
fn service_p50_us(events: &[TraceEvent], frames: &[ReqKind]) -> f64 {
    frames
        .iter()
        .map(|want| {
            median_of(events.iter().filter_map(|e| match e.kind {
                EventKind::RequestServed { kind, dur_ns, .. } if kind == *want => {
                    Some(dur_ns as f64 / 1e3)
                }
                _ => None,
            }))
        })
        .sum()
}

/// The traced run: the same workload on two servers, tracing off and
/// on, taking windows in turn; counters from the traced server's own
/// instruments; layer times from the shadow pipeline.
fn traced(
    opts: &Options,
    inputs: &Inputs,
    seconds: u64,
    pinned: Option<usize>,
    tally: &mut Tally,
) -> io::Result<(Values, bool)> {
    let mut plain = Stack::up(inputs, false, tally)?;
    let mut traced = Stack::up(inputs, true, tally)?;
    for stack in [&mut plain, &mut traced] {
        let (warm_up, _) = phase_ops(stack.driver.as_ref(), opts.small);
        stack.driver.run_ops(warm_up, tally)?;
    }
    let before = traced.handle.sink().globals();
    let counted = counted_phase(&mut traced.driver, opts.small, tally)?;
    let after = traced.handle.sink().globals();
    let timed = timed_phase(&mut [&mut plain.driver, &mut traced.driver], seconds, tally)?;
    let service_us = service_p50_us(&plain.handle.sink().events(), op_frames(opts.workload));
    let journal_dropped = traced.handle.sink().journal_dropped();
    plain.down()?;
    traced.down()?;

    // Servers are down: the replay has the core to itself.
    let (ops, cycles) = shadow_sample(opts.workload, opts.small);
    let shadow = match inputs {
        Inputs::Read { doc, probes } => Shadow::read(doc, probes, ops),
        Inputs::Fixpoint(c) => Shadow::fixpoint(c, ops),
        Inputs::Mixed(l) => Shadow::mixed(l, cycles, ops),
    };
    if let Some(dir) = &opts.out {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("{}.trace.json", opts.workload.name()));
        let mut file = io::BufWriter::new(std::fs::File::create(path)?);
        shadow.rec.write_json(opts.workload.name(), &mut file)?;
        io::Write::flush(&mut file)?;
    }

    let mut v = Values::new(PER_LAYER);
    let layers = shadow.layers();
    // A span name is reported per primary op where the primary op has
    // it, else per writer cycle, else from the replica's set-up.
    let span_us = |name: &str, per_call: bool| {
        [&shadow.primary[..], &shadow.cycles[..], &[SETUP_OP][..]]
            .into_iter()
            .find_map(|ops| layers.median_us(name, ops, per_call))
            .unwrap_or(0.0)
    };
    for (metric, span) in [
        ("load.request_encode_us", "load.request_encode"),
        ("load.response_parse_us", "load.response_parse"),
        (
            "server.protocol.request_parse_us",
            "server.protocol.request_parse",
        ),
        (
            "server.protocol.response_encode_us",
            "server.protocol.response_encode",
        ),
        ("server.session.close_us", "server.session.close"),
        ("core.trace.json.parse_us", "core.trace.json.parse"),
        ("core.parse.query_us", "core.parse.query"),
        ("core.parse.document_us", "core.parse.document"),
        ("core.reduce.add_document_us", "core.reduce.add_document"),
        ("core.query.snapshot_us", "core.query.snapshot"),
        ("core.display.to_string_us", "core.display.to_string"),
    ] {
        v.set(metric, span_us(span, false));
    }
    v.set("core.engine.round_us", span_us("core.engine.round", true));
    v.set(
        "core.query.cursor_poll_us",
        span_us("core.query.cursor_poll", true),
    );
    v.set(
        "core.tree.snapshot_ns",
        span_us("core.tree.snapshot", true) * 1e3,
    );
    v.set(
        "core.index.first_query_us",
        Layers::first_us(&shadow.rec.spans, "core.query.snapshot"),
    );
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    v.set(
        "core.display.trees_per_op",
        ratio(shadow.trees, shadow.primary.len() as u64),
    );
    let w = &shadow.write;
    v.set(
        "core.tree.chunks_copied_per_round",
        ratio(w.chunks_copied, w.rounds),
    );
    v.set("core.tree.final_nodes", ratio(w.final_nodes, w.ops));
    v.set("core.engine.productive", ratio(w.productive, w.ops));
    v.set(
        "core.engine.match_cache_hits",
        ratio(w.match_cache_hits, w.ops),
    );
    v.set(
        "core.engine.match_cache_misses",
        ratio(w.match_cache_misses, w.ops),
    );

    // The traced server's own counters over the counted phase, per
    // closed-loop op.
    let counter = |field: fn(&GlobalMetrics) -> u64| {
        ratio(field(&after) - field(&before), counted.closed_ops)
    };
    v.set("core.subsume.checks", counter(|g| g.subsume_checks));
    v.set("core.subsume.subsumed", counter(|g| g.subsumed_results));
    v.set("core.reduce.reduces", counter(|g| g.reduces));
    v.set("core.reduce.nodes_pruned", counter(|g| g.nodes_pruned));
    v.set(
        "core.compile.programs_compiled",
        counter(|g| g.programs_compiled),
    );
    v.set(
        "core.compile.program_cache_hits",
        counter(|g| g.program_cache_hits),
    );
    v.set(
        "core.compile.program_cache_misses",
        counter(|g| g.program_cache_misses),
    );
    v.set("core.compile.compile_ns", counter(|g| g.compile_ns));
    v.set("core.index.probes", counter(|g| g.index_probes));
    v.set("core.index.probe_hits", counter(|g| g.index_probe_hits));
    v.set("core.index.fallbacks", counter(|g| g.index_fallbacks));
    v.set("core.index.maintains", counter(|g| g.index_maintains));
    v.set("core.index.adds", counter(|g| g.index_adds));
    v.set("core.index.bytes_peak", after.index_bytes_peak as f64);
    v.set("core.engine.rounds", counter(|g| g.rounds));
    v.set("core.engine.invocations", counter(|g| g.calls_selected));
    v.set("core.engine.skipped", counter(|g| g.calls_skipped));
    v.set("core.invoke.grafts", counter(|g| g.grafts));
    v.set(
        "server.subscription_pushes",
        counter(|g| g.subscription_pushes),
    );
    v.set("core.trace.journal_dropped", journal_dropped as f64);

    // Windows: driver 0 is the untraced server, driver 1 the traced one.
    let plain_p50 = timed.median(0, |w| w.op_p50_us);
    let traced_p50 = timed.median(1, |w| w.op_p50_us);
    v.set("trace.op_p50_us", traced_p50);
    v.set("trace.overhead_ratio", traced_p50 / plain_p50);
    v.set("load.op_p90_us", timed.median(0, |w| w.op_p90_us));
    v.set("load.op_p99_us", timed.median(0, |w| w.op_p99_us));
    v.set(
        "load.op_samples",
        timed.median(0, |w| Some(w.samples as f64)),
    );
    v.set(
        "load.sched_lag_p50_us",
        timed.median(0, |w| w.sched_lag_p50_us),
    );
    v.set(
        "sub.first_delta_p50_us",
        timed.median(0, |w| w.first_delta_p50_us),
    );
    v.set(
        "sub.sub_done_p50_ms",
        timed.median(0, |w| w.sub_done_p50_ms),
    );
    v.set(
        "sub.deltas_per_s",
        timed.median(0, |w| Some(w.deltas_per_s)),
    );
    let residual = plain_p50 - layers.explained_us(&shadow.primary);
    v.set("server.transport.residual_us", residual);
    v.set("server.transport.residual_share", residual / plain_p50);
    v.set("server.service_p50_us", service_us);
    let per_op = |total: u64| total as f64 / counted.ops as f64;
    v.set(
        "server.transport.frames_per_op",
        per_op(counted.wire.frames_out + counted.wire.frames_in),
    );
    v.set("server.protocol.bytes_in", per_op(counted.wire.bytes_out));
    v.set("server.protocol.bytes_out", per_op(counted.wire.bytes_in));
    v.set("alloc_kib_per_op", per_op(counted.alloc_bytes) / 1024.0);
    v.set("host_probe_best_us", timed.probe_best());
    v.set(
        "host_probe_median_us",
        median_of(timed.probes.iter().copied()),
    );
    v.set("quiet_window_share", timed.quiet.share);
    v.set("noisy", f64::from(u8::from(timed.quiet.noisy)));
    v.set("pinned", f64::from(u8::from(pinned.is_some())));
    Ok((v, timed.quiet.noisy))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke(workload: Workload, trace: bool) -> Options {
        Options {
            workload,
            seed: 5,
            seconds: 2,
            trace,
            small: true,
            out: None,
        }
    }

    /// The oracle is live: one wrong expected answer fails its ops, and
    /// a run with failed ops is not `correct` (`main` exits non-zero).
    #[test]
    fn a_corrupted_expected_answer_fails_the_run() {
        let opts = smoke(Workload::WireSmall, false);
        let mut inputs = Inputs::generate(opts.workload, opts.seed);
        let good = run_inputs(&opts, &inputs, None).unwrap();
        assert!(good.correct() && good.tally.attempted > 0);

        let Inputs::Read { probes, .. } = &mut inputs else {
            unreachable!()
        };
        Arc::make_mut(probes)[3].expected =
            std::collections::BTreeSet::from(["hit{\"nope\"}".to_string()]);
        let bad = run_inputs(&opts, &inputs, None).unwrap();
        assert!(!bad.correct());
        assert!(bad.tally.failed > 0 && bad.tally.failed < bad.tally.attempted);
        assert!(bad
            .tally
            .first_failure
            .as_ref()
            .unwrap()
            .contains("answer set differs"));
        assert!(bad.result_line().starts_with("{\"correct\": false, "));
    }

    /// Mid-flight answers are held to the closure too.
    #[test]
    fn a_corrupted_closure_fails_mixed_subscribe() {
        let opts = smoke(Workload::MixedSubscribe, false);
        let mut inputs = Inputs::generate(opts.workload, opts.seed);
        let Inputs::Mixed(linear) = &mut inputs else {
            unreachable!()
        };
        // Forget one reachable node of a source that reaches some.
        let reach = &mut Arc::make_mut(linear).reach_text;
        let set = reach.iter_mut().find(|s| s.len() > 1).unwrap();
        let gone = set.iter().next().unwrap().clone();
        set.remove(&gone);
        let bad = run_inputs(&opts, &inputs, None).unwrap();
        assert!(!bad.correct());
        assert!(bad
            .tally
            .first_failure
            .unwrap()
            .contains("is not reachable"));
    }

    /// Every workload runs clean end to end, traced and not, and prints
    /// every metric of its table.
    #[test]
    fn every_workload_smokes_in_both_modes() {
        for workload in Workload::ALL {
            for trace in [false, true] {
                let report = run(&smoke(workload, trace), None).unwrap();
                assert!(report.correct(), "{}: {:?}", workload.name(), report.tally);
                let defs = if trace { PER_LAYER } else { END_TO_END };
                assert_eq!(report.values.rows().count(), defs.len());
                if !trace {
                    for (def, value) in report.values.rows() {
                        assert!(
                            value > 0.0,
                            "{} {} reads {value}",
                            workload.name(),
                            def.name
                        );
                    }
                }
            }
        }
    }
}
