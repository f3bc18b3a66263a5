//! Trace diffing: pairs two traces label-by-label and ranks the deltas
//! so a regression report can name the specific span that moved.
//!
//! Labels are compared on **total** duration (sum over all spans with
//! that label), which is robust to count changes (e.g. more
//! `train.epoch` spans after a config change shows up as a delta on the
//! label, exactly what a regression hunt wants). Labels present in only
//! one trace are flagged rather than silently dropped — a disappeared
//! stage is as significant as a slowed one.

use std::collections::BTreeMap;

use crate::profile::profile;
use crate::trace::Trace;

/// Where a label appeared.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeltaStatus {
    /// Present in both traces.
    Common,
    /// Only in the baseline trace (stage disappeared).
    OnlyBaseline,
    /// Only in the fresh trace (stage appeared).
    OnlyFresh,
}

/// One label's movement between two traces.
#[derive(Debug, Clone, PartialEq)]
pub struct LabelDelta {
    /// Span label.
    pub name: String,
    /// Total milliseconds in the baseline trace (0 when absent).
    pub baseline_ms: f64,
    /// Total milliseconds in the fresh trace (0 when absent).
    pub fresh_ms: f64,
    /// `fresh_ms - baseline_ms`; positive means the label got slower.
    pub delta_ms: f64,
    /// `fresh_ms / baseline_ms` when the baseline is non-zero.
    pub ratio: Option<f64>,
    /// Span count in the baseline trace.
    pub baseline_count: usize,
    /// Span count in the fresh trace.
    pub fresh_count: usize,
    /// Presence classification.
    pub status: DeltaStatus,
}

/// Diffs two traces; sorted by `delta_ms` descending, so the top entry
/// is the label that regressed the most (improvements sink to the
/// bottom). Works on disjoint span sets: every label from either side
/// appears exactly once.
#[must_use]
pub fn diff_traces(baseline: &Trace, fresh: &Trace) -> Vec<LabelDelta> {
    let base: BTreeMap<String, (f64, usize)> = profile(baseline)
        .into_iter()
        .map(|p| (p.name, (p.total_ms, p.count)))
        .collect();
    let new: BTreeMap<String, (f64, usize)> = profile(fresh)
        .into_iter()
        .map(|p| (p.name, (p.total_ms, p.count)))
        .collect();
    let mut names: Vec<&String> = base.keys().chain(new.keys()).collect();
    names.sort();
    names.dedup();
    let mut out: Vec<LabelDelta> = names
        .into_iter()
        .map(|name| {
            let b = base.get(name);
            let f = new.get(name);
            let (b_ms, b_n) = b.copied().unwrap_or((0.0, 0));
            let (f_ms, f_n) = f.copied().unwrap_or((0.0, 0));
            LabelDelta {
                name: name.clone(),
                baseline_ms: b_ms,
                fresh_ms: f_ms,
                delta_ms: f_ms - b_ms,
                ratio: (b_ms > 0.0).then(|| f_ms / b_ms),
                baseline_count: b_n,
                fresh_count: f_n,
                status: match (b.is_some(), f.is_some()) {
                    (true, true) => DeltaStatus::Common,
                    (true, false) => DeltaStatus::OnlyBaseline,
                    _ => DeltaStatus::OnlyFresh,
                },
            }
        })
        .collect();
    out.sort_by(|a, b| b.delta_ms.total_cmp(&a.delta_ms).then(a.name.cmp(&b.name)));
    out
}

/// Renders a human-readable attribution report for the top `top`
/// movers, so a regression names the span whose duration moved, not
/// just a percentage. `obs diff` prints it.
#[must_use]
pub fn attribution_report(baseline: &Trace, fresh: &Trace, top: usize) -> String {
    let deltas = diff_traces(baseline, fresh);
    let mut out = String::from("span-level attribution (fresh vs baseline):\n");
    for d in deltas.iter().take(top.max(1)) {
        let line = match d.status {
            DeltaStatus::OnlyBaseline => format!(
                "  {:<28} {:>9.1} ms -> (absent)      [removed]",
                d.name, d.baseline_ms
            ),
            DeltaStatus::OnlyFresh => format!(
                "  {:<28} (absent)   -> {:>9.1} ms   [added]",
                d.name, d.fresh_ms
            ),
            DeltaStatus::Common => {
                let pct = d.ratio.map_or(String::from("   n/a"), |r| {
                    format!("{:+6.1}%", (r - 1.0) * 100.0)
                });
                format!(
                    "  {:<28} {:>9.1} ms -> {:>9.1} ms  ({:+.1} ms, {pct})",
                    d.name, d.baseline_ms, d.fresh_ms, d.delta_ms
                )
            }
        };
        out.push_str(&line);
        out.push('\n');
    }
    if let Some(worst) = deltas.first().filter(|d| d.delta_ms > 0.0) {
        out.push_str(&format!(
            "top regression: {} ({:+.1} ms)\n",
            worst.name, worst.delta_ms
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace_with(stages: &[(&str, u64)]) -> Trace {
        // One root per label, sequential, closed.
        let mut body = String::new();
        let mut t = 0u64;
        for (i, (name, dur)) in stages.iter().enumerate() {
            let id = i as u64 + 1;
            body += &format!(
                "{{\"ev\":\"span_start\",\"id\":{id},\"name\":\"{name}\",\"thread\":\"main\",\"seq\":{},\"t_us\":{t}}}\n",
                2 * i
            );
            t += dur;
            body += &format!(
                "{{\"ev\":\"span_end\",\"id\":{id},\"name\":\"{name}\",\"dur_us\":{dur},\"seq\":{},\"t_us\":{t}}}\n",
                2 * i + 1
            );
        }
        Trace::parse(&body).unwrap()
    }

    #[test]
    fn doctored_trace_names_slowed_stage_as_top_regression() {
        let baseline = trace_with(&[
            ("flow.select", 1_000),
            ("flow.train", 50_000),
            ("flow.quantize", 5_000),
            ("flow.evaluate", 8_000),
        ]);
        // Doctored: quantize slowed 5 ms → 45 ms, train slightly faster.
        let fresh = trace_with(&[
            ("flow.select", 1_000),
            ("flow.train", 49_000),
            ("flow.quantize", 45_000),
            ("flow.evaluate", 8_000),
        ]);
        let deltas = diff_traces(&baseline, &fresh);
        assert_eq!(deltas[0].name, "flow.quantize");
        assert!((deltas[0].delta_ms - 40.0).abs() < 1e-9);
        assert_eq!(deltas[0].status, DeltaStatus::Common);
        let report = attribution_report(&baseline, &fresh, 3);
        assert!(
            report.contains("top regression: flow.quantize"),
            "report:\n{report}"
        );
    }

    #[test]
    fn disjoint_span_sets_flag_added_and_removed() {
        let baseline = trace_with(&[("old.stage", 10_000)]);
        let fresh = trace_with(&[("new.stage", 12_000)]);
        let deltas = diff_traces(&baseline, &fresh);
        assert_eq!(deltas.len(), 2);
        let added = deltas.iter().find(|d| d.name == "new.stage").unwrap();
        let removed = deltas.iter().find(|d| d.name == "old.stage").unwrap();
        assert_eq!(added.status, DeltaStatus::OnlyFresh);
        assert_eq!(added.baseline_count, 0);
        assert_eq!(added.ratio, None);
        assert_eq!(removed.status, DeltaStatus::OnlyBaseline);
        assert!((removed.delta_ms + 10.0).abs() < 1e-9);
        let report = attribution_report(&baseline, &fresh, 5);
        assert!(report.contains("[added]"), "{report}");
        assert!(report.contains("[removed]"), "{report}");
    }

    #[test]
    fn improvements_sink_and_do_not_claim_top_regression() {
        let baseline = trace_with(&[("a", 30_000), ("b", 20_000)]);
        let fresh = trace_with(&[("a", 10_000), ("b", 20_000)]);
        let deltas = diff_traces(&baseline, &fresh);
        assert_eq!(deltas.last().unwrap().name, "a");
        let report = attribution_report(&baseline, &fresh, 2);
        assert!(!report.contains("top regression"), "{report}");
    }
}
