//! Zero-dependency structured telemetry for the qce workspace.
//!
//! Three layers, all strictly observational (nothing here ever feeds
//! back into a computation, so the bit-for-bit determinism contract of
//! `qce_tensor::par` is untouched):
//!
//! - **Spans** — hierarchical wall-time scopes with thread attribution:
//!   `let _s = span!("train.epoch", epoch = e);`. Inert unless a sink is
//!   attached or the level is debug.
//! - **Metrics** — a lock-sharded global registry of monotonic
//!   [`Counter`]s, [`Gauge`]s and fixed-bucket [`Histogram`]s. Handles
//!   are cached atomics; recording is one atomic RMW.
//! - **Sinks** — a human-readable stderr progress sink gated by
//!   `QCE_LOG=off|progress|debug` (default `progress`), and a JSONL
//!   event sink enabled by `QCE_TRACE=path.jsonl`. Tests attach a
//!   [`MemorySink`] programmatically. A [`RunManifest`] summarising the
//!   run (config hash, seed, threads, per-stage wall times and metrics)
//!   is emitted at the end of instrumented flows.
//!
//! A fourth layer, [`alloc`], registers an instrumented global
//! allocator: byte accounting behind `QCE_ALLOC=track` with a pure
//! atomic fast path when unset, plus a peak-RSS probe.
//!
//! The crate is std-only by design: it sits below every other workspace
//! crate, and the vendored `serde` is a marker stub, so [`json`] carries
//! a minimal writer/parser of its own. [`bench`] holds the one
//! `BENCH_*.json` format on top of it.

// `deny` (not `forbid`) so the one unsafe island — the `GlobalAlloc`
// impl in `alloc` — can opt back in with a module-level `allow`,
// mirroring the `qce_tensor::simd` precedent.
#![deny(unsafe_code)]
#![deny(missing_docs)]

pub mod alloc;
pub mod bench;
pub mod json;
mod manifest;
mod metrics;
mod sink;
mod span;

pub use manifest::{emit_manifest, manifest_path_for, RunManifest, StageStat};
pub use metrics::{
    counter, fnv1a, gauge, histogram, reset, snapshot, Counter, Gauge, Histogram,
    HistogramSnapshot, MetricsSnapshot,
};
pub use sink::{
    add_sink, collect_enabled, flush, level, log_line, set_level, trace_path, EventSink,
    FlushGuard, Level, MemorySink,
};
pub use span::{FieldValue, Span};

/// Prints a progress-level line: visible unless `QCE_LOG=off`, and
/// mirrored to any attached JSONL sink. `progress!()` emits a blank
/// line (benches use it for paragraph breaks).
#[macro_export]
macro_rules! progress {
    () => {
        $crate::log_line($crate::Level::Progress, "")
    };
    ($($arg:tt)*) => {
        $crate::log_line($crate::Level::Progress, &format!($($arg)*))
    };
}

/// Prints a debug-level line: visible only under `QCE_LOG=debug`, and
/// mirrored to any attached JSONL sink.
#[macro_export]
macro_rules! debug {
    () => {
        $crate::log_line($crate::Level::Debug, "")
    };
    ($($arg:tt)*) => {
        $crate::log_line($crate::Level::Debug, &format!($($arg)*))
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn macros_format_and_reach_sinks() {
        let sink = MemorySink::shared();
        add_sink(sink.clone());
        progress!("progress {}", 1 + 1);
        debug!("debug {:.1}", 0.25);
        progress!();
        let msgs: Vec<String> = sink
            .lines()
            .iter()
            .filter_map(|l| json::parse(l).ok())
            .filter(|v| v.get("ev").and_then(json::JsonValue::as_str) == Some("log"))
            .filter_map(|v| {
                v.get("msg")
                    .and_then(json::JsonValue::as_str)
                    .map(str::to_string)
            })
            .collect();
        assert!(msgs.iter().any(|m| m == "progress 2"));
        assert!(msgs.iter().any(|m| m == "debug 0.2"));
        assert!(msgs.iter().any(String::is_empty));
    }

    #[test]
    fn collect_enabled_once_sink_attached() {
        add_sink(MemorySink::shared());
        assert!(collect_enabled());
    }
}
