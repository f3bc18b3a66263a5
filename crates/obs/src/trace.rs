//! Trace model: parses a `QCE_TRACE` JSONL stream into a span forest.
//!
//! Parsing here is deliberately tolerant — unreadable lines are counted
//! and skipped, open spans are kept with an unknown duration — so the
//! profile/flame/diff layers work on the analyzable prefix an aborted
//! run leaves behind. Strictness lives in [`mod@crate::validate`].

use std::collections::HashMap;
use std::path::Path;

use qce_telemetry::json::{parse, JsonValue};

use crate::{ObsError, Result};

/// One reconstructed span.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRec {
    /// Stable span id from the trace.
    pub id: u64,
    /// Parent span id, when the span was nested.
    pub parent: Option<u64>,
    /// Span label (e.g. `flow.train`).
    pub name: String,
    /// Thread attribution string from the emitting thread.
    pub thread: String,
    /// Start timestamp, microseconds since telemetry init.
    pub start_us: u64,
    /// Closed duration in microseconds; `None` when the span never
    /// ended (aborted run).
    pub dur_us: Option<u64>,
    /// Nesting depth (roots are 0).
    pub depth: usize,
    /// Indices into [`Trace::spans`] of direct children, in start order.
    pub children: Vec<usize>,
}

impl SpanRec {
    /// End timestamp for closed spans.
    #[must_use]
    pub fn end_us(&self) -> Option<u64> {
        self.dur_us.map(|d| self.start_us.saturating_add(d))
    }
}

/// A parsed trace: the span forest plus stream-level bookkeeping.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// Every span seen, in `span_start` order.
    pub spans: Vec<SpanRec>,
    /// Indices of spans with no (resolvable) parent.
    pub roots: Vec<usize>,
    /// Total parseable events in the stream (all kinds).
    pub events: usize,
    /// `log` events seen.
    pub logs: usize,
    /// Lines that failed to parse and were skipped (truncation tail).
    pub skipped: usize,
    /// The `manifest` event, when the run completed far enough to
    /// emit one.
    pub manifest: Option<JsonValue>,
    /// Largest `t_us` observed anywhere in the stream; open spans are
    /// assumed to have lasted until here.
    pub end_us: u64,
}

impl Trace {
    /// Parses a JSONL trace body.
    pub fn parse(body: &str) -> Result<Trace> {
        let mut t = Trace::default();
        let mut by_id: HashMap<u64, usize> = HashMap::new();
        for line in body.lines() {
            if line.trim().is_empty() {
                continue;
            }
            let Ok(v) = parse(line) else {
                t.skipped += 1;
                continue;
            };
            t.events += 1;
            if let Some(ts) = v.get("t_us").and_then(JsonValue::as_u64) {
                t.end_us = t.end_us.max(ts);
            }
            match v.get("ev").and_then(JsonValue::as_str) {
                Some("span_start") => {
                    let (Some(id), Some(name)) = (
                        v.get("id").and_then(JsonValue::as_u64),
                        v.get("name").and_then(JsonValue::as_str),
                    ) else {
                        t.skipped += 1;
                        continue;
                    };
                    let idx = t.spans.len();
                    by_id.insert(id, idx);
                    t.spans.push(SpanRec {
                        id,
                        parent: v.get("parent").and_then(JsonValue::as_u64),
                        name: name.to_string(),
                        thread: v
                            .get("thread")
                            .and_then(JsonValue::as_str)
                            .unwrap_or("?")
                            .to_string(),
                        start_us: v.get("t_us").and_then(JsonValue::as_u64).unwrap_or(0),
                        dur_us: None,
                        depth: 0,
                        children: Vec::new(),
                    });
                }
                Some("span_end") => {
                    if let (Some(id), Some(dur)) = (
                        v.get("id").and_then(JsonValue::as_u64),
                        v.get("dur_us").and_then(JsonValue::as_u64),
                    ) {
                        if let Some(&idx) = by_id.get(&id) {
                            t.spans[idx].dur_us = Some(dur);
                        }
                    }
                }
                Some("log") => t.logs += 1,
                Some("manifest") => t.manifest = Some(v),
                _ => {}
            }
        }
        if t.events == 0 {
            return Err(ObsError::Invalid("empty trace".to_string()));
        }
        // Link children; a parent id that never started (dropped prefix)
        // demotes the span to a root so the tree stays connected.
        for idx in 0..t.spans.len() {
            match t.spans[idx].parent.and_then(|p| by_id.get(&p).copied()) {
                Some(p_idx) if p_idx != idx => t.spans[p_idx].children.push(idx),
                _ => t.roots.push(idx),
            }
        }
        // Depths by iterative DFS from each root.
        let mut stack: Vec<(usize, usize)> = t.roots.iter().map(|&r| (r, 0)).collect();
        while let Some((idx, depth)) = stack.pop() {
            t.spans[idx].depth = depth;
            for &c in &t.spans[idx].children.clone() {
                stack.push((c, depth + 1));
            }
        }
        Ok(t)
    }

    /// Reads and parses a trace file.
    pub fn load(path: &Path) -> Result<Trace> {
        let body = std::fs::read_to_string(path)
            .map_err(|e| ObsError::Io(path.display().to_string(), e.to_string()))?;
        Trace::parse(&body)
    }

    /// Duration to charge a span with: its closed duration, or — for a
    /// span cut off by an abort — the stretch from its start to the
    /// last timestamp in the stream.
    #[must_use]
    pub fn effective_dur_us(&self, idx: usize) -> u64 {
        let s = &self.spans[idx];
        s.dur_us
            .unwrap_or_else(|| self.end_us.saturating_sub(s.start_us))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Hand-built trace: root (id 1) with two children (2, 3); 3 never
    /// closes; plus a log line and an unparseable tail.
    pub(crate) const SAMPLE: &str = concat!(
        r#"{"ev":"init","level":"progress","pid":1,"seq":0,"t_us":0}"#,
        "\n",
        r#"{"ev":"span_start","id":1,"name":"flow.run","thread":"main","seq":1,"t_us":10}"#,
        "\n",
        r#"{"ev":"span_start","id":2,"parent":1,"name":"flow.train","thread":"main","seq":2,"t_us":20}"#,
        "\n",
        r#"{"ev":"log","level":"progress","msg":"hi","seq":3,"t_us":25}"#,
        "\n",
        r#"{"ev":"span_end","id":2,"name":"flow.train","dur_us":30,"seq":4,"t_us":50}"#,
        "\n",
        r#"{"ev":"span_start","id":3,"parent":1,"name":"flow.evaluate","thread":"main","seq":5,"t_us":60}"#,
        "\n",
        r#"{"ev":"span_end","id":1,"name":"flow.run","dur_us":90,"seq":6,"t_us":100}"#,
        "\n",
        "{\"ev\":\"log\",\"level\"",
        "\n",
    );

    #[test]
    fn parses_forest_with_open_spans_and_skips_garbage() {
        let t = Trace::parse(SAMPLE).unwrap();
        assert_eq!(t.spans.len(), 3);
        assert_eq!(t.roots, vec![0]);
        assert_eq!(t.skipped, 1);
        assert_eq!(t.logs, 1);
        assert_eq!(t.end_us, 100);
        let root = &t.spans[0];
        assert_eq!(root.name, "flow.run");
        assert_eq!(root.children, vec![1, 2]);
        assert_eq!(root.depth, 0);
        assert_eq!(t.spans[1].depth, 1);
        assert_eq!(t.spans[1].dur_us, Some(30));
        // The open span is charged up to the last observed timestamp.
        assert_eq!(t.spans[2].dur_us, None);
        assert_eq!(t.effective_dur_us(2), 40);
        assert_eq!(t.spans[2].id, 3);
    }

    #[test]
    fn empty_trace_is_an_error() {
        assert!(Trace::parse("").is_err());
        assert!(Trace::parse("\n\n").is_err());
    }

    #[test]
    fn dangling_parent_becomes_root() {
        let body = concat!(
            r#"{"ev":"span_start","id":7,"parent":99,"name":"orphan","thread":"t","seq":0,"t_us":5}"#,
            "\n",
            r#"{"ev":"span_end","id":7,"name":"orphan","dur_us":1,"seq":1,"t_us":6}"#,
            "\n",
        );
        let t = Trace::parse(body).unwrap();
        assert_eq!(t.roots, vec![0]);
        assert_eq!(t.spans[0].depth, 0);
    }
}
