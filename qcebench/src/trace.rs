//! The benchmark's own span recorder.
//!
//! Spans are recorded only by benchmark code, around its calls into the
//! workspace crates' public functions: the program itself is not
//! instrumented for this. Each span has a name, a start, an end, the
//! span that was open on the same thread when it started (its parent),
//! and the id of the op it belongs to. Events stay in memory and are
//! written once, at exit, as `qce-telemetry` JSONL (`init`,
//! `span_start`, `span_end`), so `obs check` and `obs profile` read the
//! file unchanged.
//!
//! Recording is off unless [`enable`] was called; a disabled span costs
//! one relaxed atomic load.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use qce_telemetry::json::ObjWriter;

static ENABLED: AtomicBool = AtomicBool::new(false);

struct Recorder {
    t0: Instant,
    state: Mutex<State>,
}

#[derive(Default)]
struct State {
    next_id: u64,
    events: Vec<Event>,
}

#[derive(Debug, Clone)]
enum Event {
    Start {
        id: u64,
        parent: Option<u64>,
        name: String,
        thread: String,
        op: Option<u64>,
        t_us: u64,
    },
    End {
        id: u64,
        name: String,
        dur_us: u64,
        t_us: u64,
    },
}

thread_local! {
    /// Open spans of this thread, innermost last: `(span id, op id)`.
    static STACK: RefCell<Vec<(u64, Option<u64>)>> = const { RefCell::new(Vec::new()) };
}

static RECORDER: OnceLock<Recorder> = OnceLock::new();

fn recorder() -> &'static Recorder {
    RECORDER.get_or_init(|| Recorder {
        t0: Instant::now(),
        state: Mutex::new(State::default()),
    })
}

/// Turns recording on for the rest of the process.
pub fn enable() {
    recorder();
    ENABLED.store(true, Ordering::Relaxed);
}

/// Turns recording off; already recorded spans are kept.
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
}

/// An open span; dropping it records the end.
#[must_use = "a span ends when the guard drops"]
pub struct Span {
    open: Option<(u64, String, u64)>,
}

/// Opens a span named `name` under the thread's innermost open span,
/// inheriting its op id.
pub fn span(name: &str) -> Span {
    open(name, None)
}

/// Opens the root span of op `op`; spans opened inside it on this
/// thread carry the same op id.
pub fn op_span(name: &str, op: u64) -> Span {
    open(name, Some(op))
}

fn open(name: &str, op: Option<u64>) -> Span {
    if !ENABLED.load(Ordering::Relaxed) {
        return Span { open: None };
    }
    let rec = recorder();
    let (parent, inherited) = STACK.with(|s| s.borrow().last().copied().unzip());
    let op = op.or(inherited.flatten());
    let thread = std::thread::current()
        .name()
        .unwrap_or("unnamed")
        .to_string();
    let mut state = rec.state.lock().expect("trace state");
    state.next_id += 1;
    let id = state.next_id;
    let t_us = rec.t0.elapsed().as_micros() as u64;
    state.events.push(Event::Start {
        id,
        parent,
        name: name.to_string(),
        thread,
        op,
        t_us,
    });
    drop(state);
    STACK.with(|s| s.borrow_mut().push((id, op)));
    Span {
        open: Some((id, name.to_string(), t_us)),
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some((id, name, start_us)) = self.open.take() else {
            return;
        };
        STACK.with(|s| {
            let mut s = s.borrow_mut();
            if let Some(pos) = s.iter().rposition(|&(open, _)| open == id) {
                s.remove(pos);
            }
        });
        let rec = recorder();
        let mut state = rec.state.lock().expect("trace state");
        let t_us = rec.t0.elapsed().as_micros() as u64;
        state.events.push(Event::End {
            id,
            name,
            dur_us: t_us.saturating_sub(start_us),
            t_us,
        });
    }
}

/// One closed span, for computing per-layer figures.
#[derive(Debug, Clone, PartialEq)]
pub struct Closed {
    /// Span id.
    pub id: u64,
    /// Parent span id.
    pub parent: Option<u64>,
    /// Span name.
    pub name: String,
    /// Duration in microseconds.
    pub dur_us: u64,
}

/// Every closed span recorded so far, in start order.
pub fn closed() -> Vec<Closed> {
    let events = events();
    let mut ends: BTreeMap<u64, u64> = BTreeMap::new();
    for e in &events {
        if let Event::End { id, dur_us, .. } = e {
            ends.insert(*id, *dur_us);
        }
    }
    events
        .iter()
        .filter_map(|e| match e {
            Event::Start {
                id, parent, name, ..
            } => ends.get(id).map(|&dur_us| Closed {
                id: *id,
                parent: *parent,
                name: name.clone(),
                dur_us,
            }),
            Event::End { .. } => None,
        })
        .collect()
}

/// Durations in milliseconds of every closed span named `name`.
pub fn durations_ms(spans: &[Closed], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_us as f64 / 1e3)
        .collect()
}

/// A copy of the events recorded so far.
fn events() -> Vec<Event> {
    RECORDER.get().map_or_else(Vec::new, |rec| {
        rec.state.lock().expect("trace state").events.clone()
    })
}

/// Renders the recorded events as `qce-telemetry` JSONL.
pub fn to_jsonl() -> String {
    let mut out = String::new();
    let mut init = ObjWriter::new();
    init.str("ev", "init")
        .str("level", "debug")
        .uint("pid", u64::from(std::process::id()))
        .uint("seq", 0)
        .uint("t_us", 0);
    out.push_str(&init.finish());
    out.push('\n');
    for (i, e) in events().iter().enumerate() {
        let seq = i as u64 + 1;
        let mut w = ObjWriter::new();
        match e {
            Event::Start {
                id,
                parent,
                name,
                thread,
                op,
                t_us,
            } => {
                w.str("ev", "span_start").uint("id", *id);
                if let Some(p) = parent {
                    w.uint("parent", *p);
                }
                w.str("name", name).str("thread", thread);
                if let Some(op) = op {
                    w.uint("op", *op);
                }
                w.uint("seq", seq).uint("t_us", *t_us);
            }
            Event::End {
                id,
                name,
                dur_us,
                t_us,
            } => {
                w.str("ev", "span_end")
                    .uint("id", *id)
                    .str("name", name)
                    .uint("dur_us", *dur_us)
                    .uint("seq", seq)
                    .uint("t_us", *t_us);
            }
        }
        out.push_str(&w.finish());
        out.push('\n');
    }
    out
}
