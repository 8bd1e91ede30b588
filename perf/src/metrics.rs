//! Every metric the benchmark prints, by name, with its unit: the one
//! table `BENCHMARK.json`, the run output and `compare` agree on.

use std::fmt::Write as _;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

#[cfg(test)]
impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline's median by which the metric may worsen
    /// before it is a regression; `None` for per-layer metrics.
    pub bound: Option<f64>,
}

const fn gated(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// What a user of the server sees, measured with tracing off.
pub const END_TO_END: &[MetricDef] = &[
    gated("setup_s", "s", Lower, 0.25),
    gated("op_p50_us", "us", Lower, 0.25),
    gated("ops_per_s", "1/s", Higher, 0.25),
    gated("wire_bytes_per_op", "B", Lower, 0.005),
    gated("allocs_per_op", "count", Lower, 0.02),
    gated("peak_rss_mb", "MiB", Lower, 0.15),
];

/// Single layers, from the traced run. Names are module paths.
pub const PER_LAYER: &[MetricDef] = &[
    // The generator itself: subtracted, never blamed on the server.
    layer("load.request_encode_us", "us", Lower),
    layer("load.response_parse_us", "us", Lower),
    layer("load.sched_lag_p50_us", "us", Lower),
    layer("load.op_p90_us", "us", Lower),
    layer("load.op_p99_us", "us", Lower),
    // Primary ops in a 1 s window: what the quantiles above rest on.
    layer("load.op_samples", "count", Higher),
    // mixed_subscribe's writer side (no other workload has one).
    layer("sub.first_delta_p50_us", "us", Lower),
    layer("sub.sub_done_p50_ms", "ms", Lower),
    layer("sub.deltas_per_s", "1/s", Higher),
    layer("server.transport.residual_us", "us", Lower),
    layer("server.transport.residual_share", "ratio", Lower),
    layer("server.transport.frames_per_op", "count", Lower),
    layer("server.service_p50_us", "us", Lower),
    layer("server.protocol.request_parse_us", "us", Lower),
    layer("server.protocol.response_encode_us", "us", Lower),
    layer("server.protocol.bytes_in", "B", Lower),
    layer("server.protocol.bytes_out", "B", Lower),
    layer("core.trace.json.parse_us", "us", Lower),
    layer("core.parse.query_us", "us", Lower),
    layer("core.parse.document_us", "us", Lower),
    layer("core.reduce.add_document_us", "us", Lower),
    layer("core.subsume.checks", "count", Lower),
    layer("core.subsume.subsumed", "count", Lower),
    layer("core.reduce.reduces", "count", Lower),
    layer("core.reduce.nodes_pruned", "count", Lower),
    layer("server.session.close_us", "us", Lower),
    layer("core.tree.snapshot_ns", "ns", Lower),
    layer("core.tree.chunks_copied_per_round", "count", Lower),
    layer("core.tree.final_nodes", "count", Lower),
    layer("core.query.snapshot_us", "us", Lower),
    layer("core.compile.programs_compiled", "count", Lower),
    layer("core.compile.program_cache_hits", "count", Higher),
    layer("core.compile.program_cache_misses", "count", Lower),
    layer("core.compile.compile_ns", "ns", Lower),
    layer("core.index.probes", "count", Lower),
    layer("core.index.probe_hits", "count", Higher),
    layer("core.index.fallbacks", "count", Lower),
    layer("core.index.maintains", "count", Lower),
    layer("core.index.adds", "count", Lower),
    layer("core.index.bytes_peak", "B", Lower),
    layer("core.index.first_query_us", "us", Lower),
    layer("core.engine.round_us", "us", Lower),
    layer("core.engine.rounds", "count", Lower),
    layer("core.engine.invocations", "count", Lower),
    layer("core.engine.skipped", "count", Higher),
    layer("core.engine.productive", "count", Lower),
    layer("core.engine.match_cache_hits", "count", Higher),
    layer("core.engine.match_cache_misses", "count", Lower),
    layer("core.invoke.grafts", "count", Lower),
    layer("core.query.cursor_poll_us", "us", Lower),
    layer("server.subscription_pushes", "count", Lower),
    layer("core.display.to_string_us", "us", Lower),
    layer("core.display.trees_per_op", "count", Lower),
    layer("trace.overhead_ratio", "ratio", Lower),
    layer("trace.op_p50_us", "us", Lower),
    layer("core.trace.journal_dropped", "count", Lower),
    layer("alloc_kib_per_op", "KiB", Lower),
    layer("host_probe_best_us", "us", Lower),
    layer("host_probe_median_us", "us", Lower),
    layer("quiet_window_share", "ratio", Higher),
    layer("noisy", "count", Lower),
    layer("pinned", "count", Higher),
];

/// The measured values of one run, in table order.
pub struct Values {
    defs: &'static [MetricDef],
    values: Vec<Option<f64>>,
}

impl Values {
    pub fn new(defs: &'static [MetricDef]) -> Values {
        Values {
            defs,
            values: vec![None; defs.len()],
        }
    }

    pub fn set(&mut self, name: &str, value: f64) {
        let i = self
            .defs
            .iter()
            .position(|d| d.name == name)
            .unwrap_or_else(|| panic!("{name} is not in the metric table"));
        self.values[i] = Some(value);
    }

    /// `(definition, value)` rows; a metric the workload has no use for
    /// reads 0.
    pub fn rows(&self) -> impl Iterator<Item = (&'static MetricDef, f64)> + '_ {
        self.defs
            .iter()
            .zip(&self.values)
            .map(|(d, v)| (d, v.unwrap_or(0.0)))
    }

    /// `{"name": {"value": v, "unit": "u"}, …}`
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (d, v)) in self.rows().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                d.name,
                json_number(v),
                d.unit
            );
        }
        out.push('}');
        out
    }
}

/// A float as JSON with all its digits (`{}` on an `f64` prints the
/// shortest text that reads back to the same value); non-finite values
/// have no JSON form and read 0.
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use axml_core::trace::{parse_json, JsonValue};

    fn field<'a>(v: &'a JsonValue, key: &str) -> &'a JsonValue {
        v.get(key).unwrap_or_else(|| panic!("no key {key}"))
    }

    fn text(v: &JsonValue) -> &str {
        v.as_str().unwrap_or_else(|| panic!("not a string: {v:?}"))
    }

    /// `BENCHMARK.json` is written by hand; the tables here are what the
    /// binary prints. They must list the same metrics.
    #[test]
    fn benchmark_json_lists_exactly_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let manifest = parse_json(&std::fs::read_to_string(path).unwrap()).unwrap();
        for (key, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let JsonValue::Arr(listed) = field(&manifest, key) else {
                panic!("{key} is not an array")
            };
            assert_eq!(listed.len(), defs.len(), "{key}: count differs");
            for (entry, def) in listed.iter().zip(defs) {
                assert_eq!(text(field(entry, "name")), def.name);
                assert_eq!(text(field(entry, "unit")), def.unit, "{}", def.name);
                assert_eq!(
                    text(field(entry, "better")),
                    def.better.name(),
                    "{}",
                    def.name
                );
                if let Some(bound) = def.bound {
                    assert_eq!(field(entry, "bound").as_f64(), Some(bound), "{}", def.name);
                }
            }
        }
        let JsonValue::Arr(workloads) = field(&manifest, "workloads") else {
            panic!("workloads is not an array")
        };
        let names: Vec<&str> = workloads.iter().map(|w| text(field(w, "name"))).collect();
        assert_eq!(
            names,
            crate::run::Workload::ALL.map(crate::run::Workload::name)
        );
    }

    #[test]
    fn values_print_every_metric_and_parse_back() {
        let mut v = Values::new(END_TO_END);
        v.set("setup_s", 0.812_734_5);
        v.set("op_p50_us", f64::NAN);
        let parsed = parse_json(&v.to_json()).unwrap();
        for d in END_TO_END {
            assert_eq!(text(field(field(&parsed, d.name), "unit")), d.unit);
        }
        assert_eq!(
            field(field(&parsed, "setup_s"), "value"),
            &JsonValue::Num(0.812_734_5)
        );
        assert_eq!(json_number(f64::INFINITY), "0");
    }
}
