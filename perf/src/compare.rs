//! `axml-perf compare BASELINE CANDIDATE`: one row per workload and
//! end-to-end metric. Each file holds run records, one JSON object per
//! line, as `--out` writes them (`cat out/*.json > set.json`).

use crate::metrics::{Better, MetricDef, END_TO_END};
use crate::run::Workload;
use crate::stats::median;
use axml_core::trace::{parse_json, JsonValue};
use std::collections::BTreeMap;

/// The untraced runs of one file, by workload.
#[derive(Default)]
struct Set {
    /// `values[workload][metric]` = one value per run.
    values: BTreeMap<String, BTreeMap<String, Vec<f64>>>,
    /// `(attempted, failed)` summed over a workload's runs.
    ops: BTreeMap<String, (u64, u64)>,
}

fn read_set(path: &str) -> Result<Set, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    parse_set(&text).map_err(|e| format!("{path}: {e}"))
}

fn parse_set(text: &str) -> Result<Set, String> {
    let mut set = Set::default();
    for (n, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let bad = |what: &str| format!("line {}: {what}", n + 1);
        let rec = parse_json(line).map_err(|e| bad(&e))?;
        if rec.get("trace").and_then(JsonValue::as_u64) != Some(0) {
            continue; // per-layer records are not compared
        }
        let workload = rec
            .get("workload")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| bad("no workload"))?;
        let count = |key: &str| {
            rec.get(key)
                .and_then(JsonValue::as_u64)
                .ok_or_else(|| bad(&format!("no {key}")))
        };
        let ops = set.ops.entry(workload.to_string()).or_default();
        ops.0 += count("attempted")?;
        ops.1 += count("failed")?;
        let by_metric = set.values.entry(workload.to_string()).or_default();
        for def in END_TO_END {
            let value = rec
                .get("metrics")
                .and_then(|m| m.get(def.name))
                .and_then(|m| m.get("value"))
                .and_then(JsonValue::as_f64)
                .ok_or_else(|| bad(&format!("no metric {}", def.name)))?;
            by_metric
                .entry(def.name.to_string())
                .or_default()
                .push(value);
        }
    }
    Ok(set)
}

#[derive(Debug, PartialEq, Clone, Copy)]
enum Verdict {
    Ok,
    Worse,
    Unresolved,
}

struct Row {
    base: f64,
    cand: f64,
    /// (candidate − baseline) ÷ baseline, signed as measured.
    change: f64,
    verdict: Verdict,
}

fn judge(def: &MetricDef, base: &[f64], cand: &[f64]) -> Row {
    let bound = def.bound.expect("end-to-end metrics have bounds");
    let (b, c) = (median(&mut base.to_vec()), median(&mut cand.to_vec()));
    let change = (c - b) / b;
    let worse_by = match def.better {
        Better::Lower => change,
        Better::Higher => -change,
    };
    let fold = |v: &[f64], f: fn(f64, f64) -> f64, init| v.iter().copied().fold(init, f);
    let (b_min, b_max) = (
        fold(base, f64::min, f64::INFINITY),
        fold(base, f64::max, 0.0),
    );
    let (c_min, c_max) = (
        fold(cand, f64::min, f64::INFINITY),
        fold(cand, f64::max, 0.0),
    );
    let every_run_better = match def.better {
        Better::Lower => c_max < b_min,
        Better::Higher => c_min > b_max,
    };
    let verdict = if (b_max - b_min) / b > bound && !every_run_better {
        // The baseline disagrees with itself by more than the bound:
        // neither "unchanged" nor "worse" can be told from it.
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    };
    Row {
        base: b,
        cand: c,
        change,
        verdict,
    }
}

/// Prints the table; `Ok(false)` when any metric is worse than its
/// bound allows or a workload fails a larger share of its ops.
pub fn compare(baseline: &str, candidate: &str) -> Result<bool, String> {
    let (base, cand) = (read_set(baseline)?, read_set(candidate)?);
    let mut pass = true;
    println!(
        "{:<16} {:<18} {:>14} {:>14} {:>8} {:>6}  verdict",
        "workload", "metric", "baseline", "candidate", "change", "bound"
    );
    for workload in Workload::ALL.map(Workload::name) {
        let (Some(b), Some(c)) = (base.values.get(workload), cand.values.get(workload)) else {
            println!("{workload:<16} (not in both files)");
            continue;
        };
        for def in END_TO_END {
            let row = judge(def, &b[def.name], &c[def.name]);
            pass &= row.verdict != Verdict::Worse;
            println!(
                "{:<16} {:<18} {:>14.4} {:>14.4} {:>+7.2}% {:>5.1}%  {}",
                workload,
                def.name,
                row.base,
                row.cand,
                row.change * 100.0,
                def.bound.unwrap_or(0.0) * 100.0,
                match row.verdict {
                    Verdict::Ok => "ok",
                    Verdict::Worse => "worse",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
        let share = |(attempted, failed): (u64, u64)| failed as f64 / attempted.max(1) as f64;
        let (bs, cs) = (share(base.ops[workload]), share(cand.ops[workload]));
        let verdict = if cs > bs { "worse" } else { "ok" };
        pass &= cs <= bs;
        println!(
            "{:<16} {:<18} {:>14} {:>14} {:>8} {:>6}  {verdict}",
            workload,
            "failed_op_share",
            format!("{}/{}", base.ops[workload].1, base.ops[workload].0),
            format!("{}/{}", cand.ops[workload].1, cand.ops[workload].0),
            "",
            "0"
        );
    }
    Ok(pass)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A 10 % bound, whatever the table's bounds are today.
    fn def(better: Better) -> MetricDef {
        MetricDef {
            name: "m",
            unit: "u",
            better,
            bound: Some(0.10),
        }
    }

    #[test]
    fn verdicts_follow_direction_bound_and_baseline_spread() {
        let lat = &def(Better::Lower);
        assert_eq!(
            judge(lat, &[100.0, 101.0, 99.0], &[105.0, 104.0, 106.0]).verdict,
            Verdict::Ok
        );
        assert_eq!(
            judge(lat, &[100.0, 101.0, 99.0], &[115.0, 114.0, 116.0]).verdict,
            Verdict::Worse
        );
        assert_eq!(
            judge(lat, &[100.0, 101.0, 99.0], &[50.0, 51.0, 49.0]).verdict,
            Verdict::Ok
        );
        // A baseline that spreads 20 % cannot resolve a 10 % bound …
        assert_eq!(
            judge(lat, &[90.0, 100.0, 110.0], &[115.0, 114.0, 116.0]).verdict,
            Verdict::Unresolved
        );
        assert_eq!(
            judge(lat, &[90.0, 100.0, 110.0], &[100.0, 100.0, 100.0]).verdict,
            Verdict::Unresolved
        );
        // … unless every candidate run beats every baseline run.
        assert_eq!(
            judge(lat, &[90.0, 100.0, 110.0], &[80.0, 85.0, 89.0]).verdict,
            Verdict::Ok
        );

        let thr = &def(Better::Higher);
        let row = judge(thr, &[1000.0, 1010.0, 990.0], &[850.0, 860.0, 840.0]);
        assert_eq!(row.verdict, Verdict::Worse);
        assert!((row.change + 0.15).abs() < 1e-9);
        assert_eq!(
            judge(thr, &[1000.0, 1010.0, 990.0], &[1200.0, 1210.0, 1190.0]).verdict,
            Verdict::Ok
        );
    }

    #[test]
    fn sets_are_read_from_record_lines_and_traced_runs_are_skipped() {
        let metrics: Vec<String> = END_TO_END
            .iter()
            .map(|d| {
                format!(
                    "\"{}\": {{\"value\": 2.5, \"unit\": \"{}\"}}",
                    d.name, d.unit
                )
            })
            .collect();
        let line = |trace: u8, failed: u8| {
            format!(
                "{{\"workload\": \"wire_small\", \"seed\": 1, \"trace\": {trace}, \"noisy\": false, \
                 \"correct\": true, \"attempted\": 10, \"failed\": {failed}, \"metrics\": {{{}}}}}",
                metrics.join(", ")
            )
        };
        let text = format!("{}\n\n{}\n{}\n", line(0, 0), line(0, 1), line(1, 5));
        let set = parse_set(&text).unwrap();
        assert_eq!(set.ops["wire_small"], (20, 1));
        assert_eq!(set.values["wire_small"]["setup_s"], vec![2.5, 2.5]);
        assert!(parse_set("{\"trace\": 0}").is_err());
        assert!(parse_set("not json").is_err());
    }
}
