//! The arithmetic a wrong benchmark hides in: exact quantiles on raw
//! samples, quiet-window selection from host-probe values, and span
//! self time.

/// Exact quantile of raw samples by linear interpolation between the
/// two nearest ranks (the "inclusive" method: q = 0 is the minimum,
/// q = 1 the maximum). Empty input reads 0.
pub fn quantile(samples: &mut [f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_unstable_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (samples.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    samples[lo] + (samples[hi] - samples[lo]) * (pos - lo as f64)
}

pub fn median(samples: &mut [f64]) -> f64 {
    quantile(samples, 0.5)
}

pub fn median_of(values: impl IntoIterator<Item = f64>) -> f64 {
    median(&mut values.into_iter().collect::<Vec<f64>>())
}

/// A window is quiet when both probes that bracket it ran within this
/// share of the reference probe, faster or slower.
pub const QUIET_TOLERANCE: f64 = 0.05;
/// With fewer quiet windows than this (or than half the windows, when
/// the run has fewer than twenty) the calmest this-many are used.
pub const MIN_QUIET_WINDOWS: usize = 10;

/// Which windows of a run the medians are taken over.
#[derive(Debug, PartialEq)]
pub struct Quiet {
    /// Indices of the windows to use, ascending.
    pub windows: Vec<usize>,
    /// True when too few windows were quiet and the calmest are used.
    pub noisy: bool,
    /// Quiet windows ÷ all windows.
    pub share: f64,
}

/// `probes[i]` and `probes[i + 1]` bracket window `i`, so a run of n
/// windows has n + 1 probes.
///
/// The reference is the lower-quartile probe. Not the fastest: this
/// host has rare *fast* phases too (one probe in twenty ran 10 % under
/// the rest), and against the fastest probe such a run has no quiet
/// window at all. Not the median: a slow phase can last most of a run,
/// and then the median probe is itself a disturbed one.
pub fn quiet_windows(probes: &[f64]) -> Quiet {
    let n = probes.len().saturating_sub(1);
    let reference = quantile(&mut probes.to_vec(), 0.25);
    let off = |p: f64| (p - reference).abs() / reference;
    // A window is as disturbed as the worse of its two probes.
    let mut ranked: Vec<(f64, usize)> = (0..n)
        .map(|i| (off(probes[i]).max(off(probes[i + 1])), i))
        .collect();
    ranked.sort_by(|a, b| a.0.total_cmp(&b.0));
    let quiet = ranked.iter().filter(|(d, _)| *d <= QUIET_TOLERANCE).count();
    let need = MIN_QUIET_WINDOWS.min(n.div_ceil(2));
    let mut windows: Vec<usize> = ranked
        .iter()
        .take(quiet.max(need))
        .map(|&(_, i)| i)
        .collect();
    windows.sort_unstable();
    Quiet {
        windows,
        noisy: quiet < need || n == 0,
        share: if n == 0 { 0.0 } else { quiet as f64 / n as f64 },
    }
}

/// What is kept of one window of the timed phase once its raw samples
/// are reduced; a statistic of an empty series is `None`.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct WindowStats {
    /// Primary-op latencies seen.
    pub samples: u64,
    pub op_p50_us: Option<f64>,
    pub op_p90_us: Option<f64>,
    pub op_p99_us: Option<f64>,
    /// Closed-loop ops completed ÷ the window's actual length.
    pub ops_per_s: f64,
    pub sched_lag_p50_us: Option<f64>,
    pub first_delta_p50_us: Option<f64>,
    pub sub_done_p50_ms: Option<f64>,
    pub deltas_per_s: f64,
}

/// Quantile of a series, `None` when it is empty.
pub fn series_quantile(series: &mut [f64], q: f64) -> Option<f64> {
    (!series.is_empty()).then(|| quantile(series, q))
}

/// One traced interval. `parent` indexes the span that caused it; spans
/// of one op share `op`.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op: u32,
}

/// Self time of every span: its duration minus the part of its interval
/// its children cover (overlapping children are not counted twice).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut kids: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            kids[p].push((
                s.start_ns.max(spans[p].start_ns),
                s.end_ns.min(spans[p].end_ns),
            ));
        }
    }
    spans
        .iter()
        .zip(&mut kids)
        .map(|(s, kids)| {
            kids.sort_unstable();
            let (mut covered, mut upto) = (0, s.start_ns);
            for &(a, b) in kids.iter() {
                let a = a.max(upto);
                if b > a {
                    covered += b - a;
                    upto = b;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_are_exact_on_raw_samples() {
        let mut v = vec![4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&mut v, 0.0), 1.0);
        assert_eq!(quantile(&mut v, 1.0), 4.0);
        assert_eq!(median(&mut v), 2.5);
        let mut odd = vec![9.0, 7.0, 8.0];
        assert_eq!(median(&mut odd), 8.0);
        // 0..=100: the q-quantile is 100 q exactly — no bucket rounding.
        let mut r: Vec<f64> = (0..=100).map(f64::from).collect();
        assert_eq!(quantile(&mut r, 0.9), 90.0);
        assert_eq!(quantile(&mut r, 0.99), 99.0);
        assert_eq!(quantile(&mut [], 0.5), 0.0);
        assert_eq!(median_of([5.0]), 5.0);
    }

    #[test]
    fn a_window_is_quiet_only_when_both_its_probes_are() {
        // 21 probes, 20 windows; probe 5 is slow, spoiling windows 4 and
        // 5, and probe 12 is fast, spoiling 11 and 12.
        let mut probes = vec![100.0; 21];
        probes[5] = 120.0;
        probes[12] = 90.0;
        probes[9] = 104.9; // within 5 %: still quiet
        let q = quiet_windows(&probes);
        assert!(!q.noisy);
        assert_eq!(q.windows.len(), 16);
        for spoiled in [4, 5, 11, 12] {
            assert!(!q.windows.contains(&spoiled));
        }
        assert!(q.windows.contains(&8) && q.windows.contains(&9));
        assert_eq!(q.share, 0.8);
    }

    #[test]
    fn too_few_quiet_windows_fall_back_to_the_calmest_and_say_so() {
        // A slow phase covers 15 of 20 windows: the reference stays with
        // the calm quarter, and the ten calmest windows are used.
        let mut probes = vec![130.0; 21];
        for p in &mut probes[..6] {
            *p = 100.0;
        }
        probes[10] = 125.0;
        let q = quiet_windows(&probes);
        assert!(q.noisy);
        assert_eq!(q.share, 0.25);
        assert_eq!(q.windows.len(), 10);
        assert!(
            (0..5).all(|i| q.windows.contains(&i)),
            "the calm windows come first"
        );
        // Nine quiet windows of twenty are one too few; the tenth used
        // is the least disturbed of the rest.
        let mut probes = vec![100.0; 21];
        for i in [1, 3, 5, 7, 9, 11] {
            probes[i] = 130.0;
        }
        probes[11] = 107.0;
        let q = quiet_windows(&probes);
        assert!(q.noisy);
        assert_eq!(q.share, 0.4);
        assert_eq!(q.windows.len(), 10);
        assert!(q.windows.contains(&10) || q.windows.contains(&11));
        // A short run needs half its windows quiet, not ten.
        let q = quiet_windows(&[100.0, 100.0, 100.0, 130.0, 100.0]);
        assert!(!q.noisy);
        assert_eq!(q.windows, vec![0, 1]);
        let q = quiet_windows(&[100.0, 130.0, 100.0, 130.0, 100.0]);
        assert!(q.noisy);
        assert_eq!(q.windows.len(), 2);
        assert!(quiet_windows(&[]).noisy);
    }

    fn span(name: &'static str, a: u64, b: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: a,
            end_ns: b,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_subtracts_what_children_cover_once() {
        let spans = [
            span("op", 0, 100, None),
            span("parse", 10, 40, Some(0)),
            span("json", 10, 25, Some(1)),
            span("eval", 40, 90, Some(0)),
            // Overlaps `eval`: the shared 80..90 is covered once.
            span("encode", 80, 95, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![15, 15, 15, 50, 15]);
        // Self times of a well-nested trace add up to the root.
        let nested = &spans[..4];
        assert_eq!(self_times(nested).iter().sum::<u64>(), 100);
    }
}
