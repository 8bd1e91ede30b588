//! Prometheus text exposition for the server's always-on metrics.
//!
//! `axml-server --metrics-addr HOST:PORT` opens a second listener that
//! answers every HTTP request with a plain-text metrics page in the
//! [Prometheus exposition format, version 0.0.4][fmt]. Everything is
//! hand-rolled — the scrape path must not pull in dependencies the
//! engine itself does not need.
//!
//! The module has three faces:
//!
//! * [`ServerSnapshot`] + [`render_prometheus`] — what the scrape
//!   listener serves: a point-in-time copy of the
//!   [`SharedSink`](crate::server::SharedSink) registry rendered as
//!   `axml_*` series;
//! * [`counters`] — the stable (name, value) flattening of
//!   [`GlobalMetrics`] ([`global_counters`]) and of the server's own
//!   counters, shared by the renderer and the `stats` wire frame, so the
//!   two exposures can never drift apart;
//! * [`validate_prometheus_text`] — an in-repo format checker used by
//!   `axml-inspect prom` and the CI server-smoke job, so the scrape
//!   output is validated without a Prometheus binary in the image.
//!
//! [fmt]: https://prometheus.io/docs/instrumenting/exposition_formats/

use std::fmt::Write as _;
use std::time::Duration;

use axml_core::trace::{GlobalMetrics, Histogram};

/// A point-in-time copy of everything the scrape page reports.
///
/// Built by the server under its locks, then rendered lock-free; the
/// page is therefore internally consistent even while request threads
/// keep recording.
#[derive(Clone, Debug, Default)]
pub struct ServerSnapshot {
    /// Global engine/server counters (the `stats` frame's `counters`).
    pub globals: GlobalMetrics,
    /// End-to-end request service latency, nanoseconds.
    pub request_latency: Histogram,
    /// Per-service invocation latency, name-sorted.
    pub services: Vec<(String, Histogram)>,
    /// Open sessions right now.
    pub sessions: u64,
    /// Live client connections right now.
    pub conns: u64,
    /// Events currently held in the ring journal.
    pub journal_len: u64,
    /// Events dropped by the journal so far (evicted + sampled out).
    pub journal_dropped: u64,
    /// Time since the server started.
    pub uptime: Duration,
    /// Query texts compiled into a connection's prepared-query table.
    pub prepared_compiles: u64,
    /// Clears of a connection's prepared-query table at its byte bound.
    pub prepared_clears: u64,
}

/// Every counter the server reports, in a stable, documented order:
/// [`global_counters`], then the prepared-query table's. Both the
/// `stats` wire frame and [`render_prometheus`] read this list.
pub fn counters(s: &ServerSnapshot) -> Vec<(&'static str, u64)> {
    let mut out = global_counters(&s.globals);
    out.push(("prepared_compiles", s.prepared_compiles));
    out.push(("prepared_clears", s.prepared_clears));
    out
}

/// Flatten [`GlobalMetrics`] into `(name, value)` pairs in a stable,
/// documented order; the head of [`counters`].
pub fn global_counters(g: &GlobalMetrics) -> Vec<(&'static str, u64)> {
    vec![
        ("rounds", g.rounds),
        ("calls_selected", g.calls_selected),
        ("calls_skipped", g.calls_skipped),
        ("subsume_checks", g.subsume_checks),
        ("subsumed_results", g.subsumed_results),
        ("grafts", g.grafts),
        ("reduces", g.reduces),
        ("nodes_pruned", g.nodes_pruned),
        ("msgs_sent", g.msgs_sent),
        ("msgs_recv", g.msgs_recv),
        ("index_probes", g.index_probes),
        ("index_probe_hits", g.index_probe_hits),
        ("index_fallbacks", g.index_fallbacks),
        ("index_scanned", g.index_scanned),
        ("index_maintains", g.index_maintains),
        ("index_adds", g.index_adds),
        ("index_removes", g.index_removes),
        ("index_bytes_peak", g.index_bytes_peak),
        ("programs_compiled", g.programs_compiled),
        ("program_cache_hits", g.program_cache_hits),
        ("program_cache_misses", g.program_cache_misses),
        ("program_ops", g.program_ops),
        ("compile_ns", g.compile_ns),
        ("requests_recv", g.requests_recv),
        ("requests_served", g.requests_served),
        ("request_errors", g.request_errors),
        ("batches_formed", g.batches_formed),
        ("batched_requests", g.batched_requests),
        ("batch_max", u64::from(g.batch_max)),
        ("subscription_pushes", g.subscription_pushes),
        ("pushed_trees", g.pushed_trees),
    ]
}

/// Escape a label value per the exposition format: backslash, double
/// quote, and newline must be backslash-escaped.
fn escape_label(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Nanoseconds → seconds, rendered with enough precision for latency
/// quantiles (Prometheus base units are seconds).
fn secs(ns: u64) -> String {
    format!("{:.9}", ns as f64 / 1e9)
}

/// Write one `summary`-style latency block: `{quantile="0.5"|"0.99"}`
/// samples plus `_sum`/`_count`, all converted to seconds.
fn push_summary(out: &mut String, name: &str, labels: &str, h: &Histogram) {
    let sep = if labels.is_empty() { "" } else { "," };
    let _ = writeln!(
        out,
        "{name}{{{labels}{sep}quantile=\"0.5\"}} {}",
        secs(h.quantile(0.5))
    );
    let _ = writeln!(
        out,
        "{name}{{{labels}{sep}quantile=\"0.99\"}} {}",
        secs(h.quantile(0.99))
    );
    if labels.is_empty() {
        let _ = writeln!(out, "{name}_sum {}", secs(h.sum()));
        let _ = writeln!(out, "{name}_count {}", h.count());
    } else {
        let _ = writeln!(out, "{name}_sum{{{labels}}} {}", secs(h.sum()));
        let _ = writeln!(out, "{name}_count{{{labels}}} {}", h.count());
    }
}

/// Render a [`ServerSnapshot`] as a Prometheus text-format page.
///
/// Every series is prefixed `axml_`; counters from
/// [`counters`] become `axml_<name>_total`, the liveness
/// numbers become gauges, and the latency histograms become summaries
/// with `0.5`/`0.99` quantiles in seconds. The output passes
/// [`validate_prometheus_text`].
pub fn render_prometheus(s: &ServerSnapshot) -> String {
    let mut out = String::with_capacity(4096);
    for (name, value) in counters(s) {
        let _ = writeln!(out, "# TYPE axml_{name}_total counter");
        let _ = writeln!(out, "axml_{name}_total {value}");
    }
    let _ = writeln!(out, "# TYPE axml_sessions gauge");
    let _ = writeln!(out, "axml_sessions {}", s.sessions);
    let _ = writeln!(out, "# TYPE axml_connections gauge");
    let _ = writeln!(out, "axml_connections {}", s.conns);
    let _ = writeln!(out, "# TYPE axml_journal_events gauge");
    let _ = writeln!(out, "axml_journal_events {}", s.journal_len);
    let _ = writeln!(out, "# TYPE axml_journal_dropped_total counter");
    let _ = writeln!(out, "axml_journal_dropped_total {}", s.journal_dropped);
    let _ = writeln!(out, "# TYPE axml_uptime_seconds gauge");
    let _ = writeln!(out, "axml_uptime_seconds {:.3}", s.uptime.as_secs_f64());
    let _ = writeln!(out, "# TYPE axml_request_latency_seconds summary");
    push_summary(
        &mut out,
        "axml_request_latency_seconds",
        "",
        &s.request_latency,
    );
    if !s.services.is_empty() {
        let _ = writeln!(out, "# TYPE axml_service_latency_seconds summary");
        for (service, h) in &s.services {
            let labels = format!("service=\"{}\"", escape_label(service));
            push_summary(&mut out, "axml_service_latency_seconds", &labels, h);
        }
    }
    out
}

/// Is `s` a legal metric name (`[a-zA-Z_:][a-zA-Z0-9_:]*`)?
fn valid_metric_name(s: &str) -> bool {
    let mut chars = s.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

/// Is `s` a legal label name (`[a-zA-Z_][a-zA-Z0-9_]*`)?
fn valid_label_name(s: &str) -> bool {
    let mut chars = s.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
}

/// Check one `{label="value",...}` block; returns the remainder after
/// the closing brace, or an error description.
fn check_labels(mut s: &str) -> Result<&str, String> {
    s = s
        .strip_prefix('{')
        .ok_or_else(|| "expected '{'".to_string())?;
    loop {
        if let Some(rest) = s.strip_prefix('}') {
            return Ok(rest);
        }
        let eq = s.find('=').ok_or_else(|| "label without '='".to_string())?;
        if !valid_label_name(&s[..eq]) {
            return Err(format!("bad label name {:?}", &s[..eq]));
        }
        s = s[eq + 1..]
            .strip_prefix('"')
            .ok_or_else(|| "label value not quoted".to_string())?;
        // Scan the quoted value honoring backslash escapes.
        let mut end = None;
        let mut escaped = false;
        for (i, c) in s.char_indices() {
            if escaped {
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                end = Some(i);
                break;
            }
        }
        let end = end.ok_or_else(|| "unterminated label value".to_string())?;
        s = &s[end + 1..];
        s = s.strip_prefix(',').unwrap_or(s);
    }
}

/// Validate a Prometheus text-format page; on success returns the
/// number of samples seen.
///
/// Checks, line by line: metric and label names are well-formed,
/// label values are quoted with legal escapes, every sample value
/// parses as a float (or `NaN`/`+Inf`/`-Inf`), and every sample whose
/// base name has a `# TYPE` declaration appears *after* it. This is
/// the format contract a real Prometheus scraper enforces, hand-rolled
/// so CI can hold the server to it offline.
pub fn validate_prometheus_text(text: &str) -> Result<usize, String> {
    let mut samples = 0usize;
    let mut typed: Vec<String> = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let n = lineno + 1;
        let line = line.trim_end();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix('#') {
            let rest = rest.trim_start();
            if let Some(decl) = rest.strip_prefix("TYPE ") {
                let mut parts = decl.split_whitespace();
                let name = parts
                    .next()
                    .ok_or_else(|| format!("line {n}: TYPE without a name"))?;
                let kind = parts
                    .next()
                    .ok_or_else(|| format!("line {n}: TYPE without a kind"))?;
                if !valid_metric_name(name) {
                    return Err(format!("line {n}: bad metric name {name:?}"));
                }
                if !matches!(
                    kind,
                    "counter" | "gauge" | "summary" | "histogram" | "untyped"
                ) {
                    return Err(format!("line {n}: unknown TYPE kind {kind:?}"));
                }
                if typed.iter().any(|t| t == name) {
                    return Err(format!("line {n}: duplicate TYPE for {name}"));
                }
                typed.push(name.to_string());
            }
            continue; // HELP and other comments are free-form
        }
        // Sample line: name[{labels}] value [timestamp]
        let name_end = line
            .find(|c: char| c == '{' || c.is_whitespace())
            .unwrap_or(line.len());
        let name = &line[..name_end];
        if !valid_metric_name(name) {
            return Err(format!("line {n}: bad metric name {name:?}"));
        }
        let mut rest = &line[name_end..];
        if rest.starts_with('{') {
            rest = check_labels(rest).map_err(|e| format!("line {n}: {e}"))?;
        }
        let mut fields = rest.split_whitespace();
        let value = fields
            .next()
            .ok_or_else(|| format!("line {n}: sample without a value"))?;
        let value_ok = matches!(value, "NaN" | "+Inf" | "-Inf") || value.parse::<f64>().is_ok();
        if !value_ok {
            return Err(format!("line {n}: bad sample value {value:?}"));
        }
        if let Some(ts) = fields.next() {
            if ts.parse::<i64>().is_err() {
                return Err(format!("line {n}: bad timestamp {ts:?}"));
            }
        }
        if fields.next().is_some() {
            return Err(format!("line {n}: trailing garbage after sample"));
        }
        // A sample for a declared family must follow its TYPE line.
        // Summary samples attach to their base family via the _sum /
        // _count suffixes and quantile series.
        let base = name
            .strip_suffix("_sum")
            .or_else(|| name.strip_suffix("_count"))
            .unwrap_or(name);
        let declared_later = !typed.iter().any(|t| t == base || t == name)
            && text.lines().skip(n).any(|l| {
                l.strip_prefix('#')
                    .map(str::trim_start)
                    .and_then(|r| r.strip_prefix("TYPE "))
                    .and_then(|d| d.split_whitespace().next())
                    .is_some_and(|t| t == base || t == name)
            });
        if declared_later {
            return Err(format!("line {n}: sample for {name} precedes its TYPE"));
        }
        samples += 1;
    }
    Ok(samples)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snapshot() -> ServerSnapshot {
        let globals = GlobalMetrics {
            requests_recv: 31,
            requests_served: 30,
            request_errors: 1,
            ..Default::default()
        };
        let mut request_latency = Histogram::new();
        for v in [1_000u64, 2_000, 1_000_000] {
            request_latency.record(v);
        }
        let mut svc = Histogram::new();
        svc.record(5_000);
        ServerSnapshot {
            globals,
            request_latency,
            services: vec![("tc\"weird\\name".to_string(), svc)],
            sessions: 2,
            conns: 3,
            journal_len: 100,
            journal_dropped: 7,
            uptime: Duration::from_millis(1500),
            prepared_compiles: 4,
            prepared_clears: 1,
        }
    }

    #[test]
    fn rendered_page_passes_the_validator() {
        let page = render_prometheus(&snapshot());
        let samples = validate_prometheus_text(&page).expect("page validates");
        // The counters + 5 gauge/counter singles + request summary (4)
        // + one service summary (4).
        assert_eq!(samples, counters(&snapshot()).len() + 5 + 4 + 4);
        assert!(page.contains("axml_requests_recv_total 31"));
        assert!(page.contains("axml_journal_dropped_total 7"));
        assert!(page.contains("axml_prepared_clears_total 1"));
        assert!(page.contains("axml_sessions 2"));
        assert!(page.contains("service=\"tc\\\"weird\\\\name\""));
        assert!(page.contains("axml_request_latency_seconds_count 3"));
    }

    #[test]
    fn global_counter_names_are_unique_and_legal() {
        let names = counters(&ServerSnapshot::default());
        for (i, (n, _)) in names.iter().enumerate() {
            assert!(valid_metric_name(n), "bad counter name {n}");
            assert!(
                !names[..i].iter().any(|(m, _)| m == n),
                "duplicate counter name {n}"
            );
        }
    }

    #[test]
    fn validator_rejects_malformed_pages() {
        for bad in [
            "1bad_name 3",
            "ok{label=value} 1",
            "ok{label=\"v} 1",
            "ok notanumber",
            "ok 1 2 3",
            "# TYPE ok wat\nok 1",
            "ok 1\n# TYPE ok counter",
            "# TYPE ok counter\n# TYPE ok counter\nok 1",
        ] {
            assert!(
                validate_prometheus_text(bad).is_err(),
                "accepted malformed page {bad:?}"
            );
        }
    }

    #[test]
    fn validator_accepts_standard_shapes() {
        let page = "\
# HELP up whether the target is up\n\
# TYPE up gauge\n\
up 1\n\
lat{quantile=\"0.5\"} 0.002\n\
lat_sum 1.5\n\
lat_count 12\n\
free_form NaN 1700000000\n";
        assert_eq!(validate_prometheus_text(page), Ok(5));
    }
}
