//! Global telemetry state: the `QCE_LOG` level, the `QCE_TRACE` JSONL
//! sink, programmatic sinks for tests, and the event/log entry points.
//!
//! Every JSONL event is stamped under one process-wide ordering lock
//! with a strictly ascending `seq` and a monotonic `t_us` (microseconds
//! since telemetry initialisation), so a trace file is totally ordered
//! even when several threads emit concurrently — the property the
//! `qce-obs` analyzers and validator build on.

use std::fs::File;
use std::io::Write;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock};
use std::time::Instant;

/// Verbosity of the human-readable stderr progress sink.
///
/// Controlled by `QCE_LOG=off|progress|debug`; the default is
/// [`Level::Progress`], which preserves the workspace's historical
/// output (benches narrate, library internals stay quiet).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// Nothing is printed; a run is genuinely quiet.
    Off = 0,
    /// Experiment narration (benches, training heartbeats).
    Progress = 1,
    /// Everything, including per-epoch internals and span closures.
    Debug = 2,
}

impl Level {
    fn from_env(v: &str) -> Option<Level> {
        match v.trim().to_ascii_lowercase().as_str() {
            "off" | "0" | "none" => Some(Level::Off),
            "progress" | "1" => Some(Level::Progress),
            "debug" | "2" => Some(Level::Debug),
            _ => None,
        }
    }

    fn as_str(self) -> &'static str {
        match self {
            Level::Off => "off",
            Level::Progress => "progress",
            Level::Debug => "debug",
        }
    }
}

/// A machine-readable event sink; receives fully rendered JSONL lines.
pub trait EventSink: Send + Sync {
    /// Consumes one rendered JSON line (no trailing newline).
    fn emit_line(&self, line: &str);
    /// Flushes any buffering. Default: no-op.
    fn flush(&self) {}
}

/// An in-memory sink for tests and golden traces.
#[derive(Debug, Default)]
pub struct MemorySink {
    lines: Mutex<Vec<String>>,
}

impl MemorySink {
    /// Creates an empty shared sink.
    #[must_use]
    pub fn shared() -> Arc<MemorySink> {
        Arc::new(MemorySink::default())
    }

    /// A copy of every line captured so far.
    #[must_use]
    pub fn lines(&self) -> Vec<String> {
        self.lines.lock().expect("memory sink").clone()
    }

    /// Drops all captured lines.
    pub fn clear(&self) {
        self.lines.lock().expect("memory sink").clear();
    }
}

impl EventSink for MemorySink {
    fn emit_line(&self, line: &str) {
        self.lines
            .lock()
            .expect("memory sink")
            .push(line.to_string());
    }
}

/// The `QCE_TRACE` file sink. Each event reaches the file as exactly
/// one `write_all` of the whole line (never a `write_fmt` that could
/// split a line across syscalls), so the on-disk prefix is line-aligned
/// at every instant: a run killed hard (`SIGKILL`, `process::exit`,
/// abort-on-panic) leaves an analyzable prefix the `obs check
/// --partial` validator accepts. Event rates are low enough (PR 3
/// measured <2% total tracing overhead with per-line flushing) that
/// eager write-out is the right durability trade.
///
/// The `pending` staging buffer exists so `flush()`/`Drop` have one
/// write-out path shared with any future batching; the panic hook and
/// [`FlushGuard`] drive it for sinks that do buffer.
struct FileSink {
    inner: Mutex<FileBuf>,
}

struct FileBuf {
    file: File,
    pending: String,
}

impl FileBuf {
    fn write_out(&mut self) {
        if !self.pending.is_empty() {
            let _ = self.file.write_all(self.pending.as_bytes());
            self.pending.clear();
        }
        let _ = self.file.flush();
    }
}

impl EventSink for FileSink {
    fn emit_line(&self, line: &str) {
        let mut b = self.inner.lock().expect("trace file");
        b.pending.push_str(line);
        b.pending.push('\n');
        b.write_out();
    }

    fn flush(&self) {
        self.inner.lock().expect("trace file").write_out();
    }
}

impl Drop for FileSink {
    fn drop(&mut self) {
        if let Ok(mut b) = self.inner.lock() {
            b.write_out();
        }
    }
}

/// RAII guard that flushes every attached sink when dropped.
///
/// Instrumented flows hold one so that early `?` returns and unwinding
/// panics both push buffered trace events to disk before the stack
/// frame disappears — aborted runs leave an analyzable prefix.
#[derive(Debug, Default)]
#[non_exhaustive]
pub struct FlushGuard {}

impl FlushGuard {
    /// Creates a guard; dropping it flushes all sinks.
    #[must_use]
    pub fn new() -> FlushGuard {
        FlushGuard {}
    }
}

impl Drop for FlushGuard {
    fn drop(&mut self) {
        flush();
    }
}

pub(crate) struct Global {
    level: AtomicU8,
    sinks: RwLock<Vec<Arc<dyn EventSink>>>,
    /// Where `QCE_TRACE` pointed (manifests are written next to it).
    trace_path: Option<PathBuf>,
    start: Instant,
    span_ids: AtomicU64,
    /// Strictly ascending stamp shared by every emitted event.
    seq: AtomicU64,
    /// Serialises (stamp, render, emit) so `seq` and `t_us` ascend in
    /// file order even under concurrent emitters.
    order: Mutex<()>,
}

impl Global {
    pub(crate) fn level(&self) -> Level {
        match self.level.load(Ordering::Relaxed) {
            0 => Level::Off,
            1 => Level::Progress,
            _ => Level::Debug,
        }
    }

    pub(crate) fn has_sinks(&self) -> bool {
        !self.sinks.read().expect("sinks").is_empty()
    }

    /// Builds one event under the ordering lock and emits it to every
    /// sink. The closure writes the event-specific fields; `seq` and
    /// `t_us` are appended by this method so every event carries them
    /// and they ascend in emission order. No-op without sinks.
    pub(crate) fn emit_event(&self, build: impl FnOnce(&mut crate::json::ObjWriter)) {
        let sinks = self.sinks.read().expect("sinks");
        if sinks.is_empty() {
            return;
        }
        let _order = self.order.lock().expect("event order");
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let mut o = crate::json::ObjWriter::new();
        build(&mut o);
        o.uint("seq", seq).uint("t_us", self.micros_since_start());
        let line = o.finish();
        for sink in sinks.iter() {
            sink.emit_line(&line);
        }
    }

    pub(crate) fn next_span_id(&self) -> u64 {
        self.span_ids.fetch_add(1, Ordering::Relaxed) + 1
    }

    pub(crate) fn micros_since_start(&self) -> u64 {
        u64::try_from(self.start.elapsed().as_micros()).unwrap_or(u64::MAX)
    }
}

/// Installs a panic hook (once) that flushes every sink, so a panicking
/// run pushes its buffered trace tail to disk before the default hook
/// prints and the process unwinds or aborts.
fn install_panic_flush() {
    static HOOK: OnceLock<()> = OnceLock::new();
    HOOK.get_or_init(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            flush();
            prev(info);
        }));
    });
}

pub(crate) fn global() -> &'static Global {
    static GLOBAL: OnceLock<Global> = OnceLock::new();
    let g = GLOBAL.get_or_init(|| {
        let level = std::env::var("QCE_LOG")
            .ok()
            .and_then(|v| Level::from_env(&v))
            .unwrap_or(Level::Progress);
        let mut sinks: Vec<Arc<dyn EventSink>> = Vec::new();
        let mut trace_path = None;
        if let Ok(path) = std::env::var("QCE_TRACE") {
            let path = PathBuf::from(path);
            match File::create(&path) {
                Ok(f) => {
                    sinks.push(Arc::new(FileSink {
                        inner: Mutex::new(FileBuf {
                            file: f,
                            pending: String::new(),
                        }),
                    }));
                    trace_path = Some(path);
                }
                Err(e) => {
                    eprintln!(
                        "qce-telemetry: cannot open QCE_TRACE={}: {e}",
                        path.display()
                    );
                }
            }
        }
        let g = Global {
            level: AtomicU8::new(level as u8),
            sinks: RwLock::new(sinks),
            trace_path,
            start: Instant::now(),
            span_ids: AtomicU64::new(0),
            seq: AtomicU64::new(0),
            order: Mutex::new(()),
        };
        g.emit_event(|o| {
            o.str("ev", "init")
                .str("level", level.as_str())
                .uint("pid", std::process::id().into());
        });
        g
    });
    // Outside the init closure: a panic raised *during* init must not
    // re-enter the OnceLock through the hook's flush().
    if g.trace_path.is_some() {
        install_panic_flush();
    }
    g
}

/// Current progress-sink verbosity.
#[must_use]
pub fn level() -> Level {
    global().level()
}

/// Overrides the progress-sink verbosity (tests; normal runs use
/// `QCE_LOG`).
pub fn set_level(level: Level) {
    global().level.store(level as u8, Ordering::Relaxed);
}

/// Registers an additional machine-readable sink (tests capture traces
/// through a [`MemorySink`] here; `QCE_TRACE` installs a file sink
/// automatically).
pub fn add_sink(sink: Arc<dyn EventSink>) {
    global().sinks.write().expect("sinks").push(sink);
}

/// Whether *costly* instrumentation should run: a trace sink is attached
/// or the stderr sink is at debug. Cheap counters are recorded
/// unconditionally; anything that needs a clock read or an extra scan
/// over data gates on this.
#[must_use]
pub fn collect_enabled() -> bool {
    let g = global();
    g.has_sinks() || g.level() == Level::Debug
}

/// The path `QCE_TRACE` pointed at, if any.
#[must_use]
pub fn trace_path() -> Option<PathBuf> {
    global().trace_path.clone()
}

/// Flushes every attached sink.
pub fn flush() {
    for sink in global().sinks.read().expect("sinks").iter() {
        sink.flush();
    }
}

/// Routes one human-readable line: printed to stderr when `level` is
/// within the current verbosity, and mirrored to the JSONL sinks as a
/// `log` event when any are attached.
pub fn log_line(level: Level, msg: &str) {
    let g = global();
    if level != Level::Off && level <= g.level() {
        eprintln!("{msg}");
    }
    g.emit_event(|o| {
        o.str("ev", "log")
            .str("level", level.as_str())
            .str("msg", msg);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::JsonValue;

    #[test]
    fn level_parsing() {
        assert_eq!(Level::from_env("off"), Some(Level::Off));
        assert_eq!(Level::from_env(" DEBUG "), Some(Level::Debug));
        assert_eq!(Level::from_env("progress"), Some(Level::Progress));
        assert_eq!(Level::from_env("1"), Some(Level::Progress));
        assert_eq!(Level::from_env("nope"), None);
        assert!(Level::Off < Level::Progress && Level::Progress < Level::Debug);
    }

    #[test]
    fn memory_sink_captures_log_events() {
        // Sinks are process-global and other tests log from their own
        // threads, so the line is found by its message, not by position.
        let sink = MemorySink::shared();
        add_sink(sink.clone());
        log_line(Level::Off, "machine-only line");
        let v = sink
            .lines()
            .iter()
            .map(|line| crate::json::parse(line).unwrap())
            .find(|v| v.get("msg").and_then(JsonValue::as_str) == Some("machine-only line"))
            .expect("captured");
        assert_eq!(v.get("ev").unwrap().as_str(), Some("log"));
        assert_eq!(v.get("msg").unwrap().as_str(), Some("machine-only line"));
        assert!(v.get("t_us").unwrap().as_u64().is_some());
        assert!(v.get("seq").unwrap().as_u64().is_some());

        // `clear` is checked on a sink no test registers, which nothing
        // else can write to.
        let private = MemorySink::default();
        private.emit_line("{}");
        assert_eq!(private.lines().len(), 1);
        private.clear();
        assert!(private.lines().is_empty());
    }

    #[test]
    fn span_ids_ascend() {
        let a = global().next_span_id();
        let b = global().next_span_id();
        assert!(b > a);
    }

    #[test]
    fn events_are_seq_stamped_in_emission_order() {
        let sink = MemorySink::shared();
        add_sink(sink.clone());
        sink.clear();
        // Hammer from several threads; the ordering lock must keep seq
        // strictly ascending and t_us non-decreasing in captured order.
        std::thread::scope(|scope| {
            for t in 0..4 {
                scope.spawn(move || {
                    for i in 0..50 {
                        log_line(Level::Off, &format!("seq-test {t}:{i}"));
                    }
                });
            }
        });
        let mut prev_seq = None;
        let mut prev_t = 0u64;
        let mut seen = 0;
        for line in sink.lines() {
            let v = crate::json::parse(&line).unwrap();
            if v.get("msg")
                .and_then(|m| m.as_str())
                .is_none_or(|m| !m.starts_with("seq-test"))
            {
                continue;
            }
            seen += 1;
            let seq = v.get("seq").unwrap().as_u64().unwrap();
            let t = v.get("t_us").unwrap().as_u64().unwrap();
            if let Some(p) = prev_seq {
                assert!(seq > p, "seq went {p} -> {seq}");
            }
            assert!(t >= prev_t, "t_us went {prev_t} -> {t}");
            prev_seq = Some(seq);
            prev_t = t;
        }
        assert_eq!(seen, 200);
    }

    #[test]
    fn flush_guard_flushes_buffered_sinks_on_drop() {
        use std::sync::atomic::AtomicUsize;

        #[derive(Default)]
        struct BufferedSink {
            flushes: AtomicUsize,
        }
        impl EventSink for BufferedSink {
            fn emit_line(&self, _line: &str) {}
            fn flush(&self) {
                self.flushes.fetch_add(1, Ordering::Relaxed);
            }
        }

        let sink = Arc::new(BufferedSink::default());
        add_sink(sink.clone());
        let before = sink.flushes.load(Ordering::Relaxed);
        {
            let _guard = FlushGuard::new();
            log_line(Level::Off, "inside guard");
        }
        assert!(sink.flushes.load(Ordering::Relaxed) > before);
    }
}
