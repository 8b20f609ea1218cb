//! In-memory span recorder for the traced run.
//!
//! Spans are opened by the benchmark around its own calls into the
//! workspace's public functions; nothing here reaches inside the program.
//! Each span records its name, thread, start and end. A span's *self
//! time* is its duration minus the time its child spans (on the same
//! thread) cover. Aggregates per span name are kept for every span; the
//! begin/end events themselves are kept first-N (a span whose begin did
//! not fit is dropped whole, so the export has no orphan begin or end)
//! and written out as Chrome trace-event JSON in the shape the `mfod-obs`
//! journal uses: `B`/`E` pairs plus drop accounting under `otherData`.
//!
//! The recorder is off until [`enable`] is called, and a disabled
//! [`span`] is a single relaxed load before calling its closure.
//!
//! The `mfod-obs` journal is not reused for this: it records only while
//! the program's own telemetry is on (which would add the program's
//! internal spans and their cost to every traced job), and it keeps
//! events, not the per-name self-time totals the metrics need.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Begin/end events kept for the export before later spans are dropped.
const EVENT_CAPACITY: usize = 100_000;

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_TID: AtomicU64 = AtomicU64::new(1);

/// Per-name totals: summed self time (ns) and the span count.
#[derive(Debug, Clone, Copy, Default)]
pub struct Agg {
    pub self_ns: u64,
    pub count: u64,
}

struct Event {
    ts_ns: u64,
    tid: u64,
    begin: bool,
    name: &'static str,
}

struct State {
    epoch: Instant,
    main_tid: u64,
    agg: BTreeMap<&'static str, Agg>,
    /// Time covered by spans opened with an empty stack on the main
    /// thread — the numerator of the coverage ratio.
    top_level_ns: u64,
    events: Vec<Event>,
    emitted: u64,
    dropped: u64,
}

fn state() -> &'static Mutex<State> {
    static STATE: OnceLock<Mutex<State>> = OnceLock::new();
    STATE.get_or_init(|| {
        Mutex::new(State {
            epoch: Instant::now(),
            main_tid: 0,
            agg: BTreeMap::new(),
            top_level_ns: 0,
            events: Vec::new(),
            emitted: 0,
            dropped: 0,
        })
    })
}

/// Every update of `State` is a single push or add, so the data stays
/// valid even if a thread panicked while holding the lock.
fn lock() -> std::sync::MutexGuard<'static, State> {
    state().lock().unwrap_or_else(|p| p.into_inner())
}

struct Frame {
    name: &'static str,
    start: Instant,
    child_ns: u64,
    recorded: bool,
}

thread_local! {
    static TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
    static STACK: RefCell<Vec<Frame>> = const { RefCell::new(Vec::new()) };
}

fn tid() -> u64 {
    TID.with(|t| *t)
}

/// Turns recording on; the calling thread becomes the main thread whose
/// top-level spans count towards coverage.
pub fn enable() {
    let main = tid();
    lock().main_tid = main;
    ENABLED.store(true, Ordering::Relaxed);
}

/// Turns recording off (aggregates and events are kept).
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
}

/// Runs `f` inside a span named `name` when recording is on.
#[inline]
pub fn span<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    if !ENABLED.load(Ordering::Relaxed) {
        return f();
    }
    begin(name);
    let out = f();
    end();
    out
}

fn begin(name: &'static str) {
    let start = Instant::now();
    let id = tid();
    let recorded = {
        let mut s = lock();
        s.emitted += 2;
        if s.events.len() + 2 <= EVENT_CAPACITY {
            let ts_ns = start.duration_since(s.epoch).as_nanos() as u64;
            s.events.push(Event {
                ts_ns,
                tid: id,
                begin: true,
                name,
            });
            true
        } else {
            s.dropped += 2;
            false
        }
    };
    STACK.with(|st| {
        st.borrow_mut().push(Frame {
            name,
            start,
            child_ns: 0,
            recorded,
        })
    });
}

fn end() {
    let now = Instant::now();
    let id = tid();
    let (frame, depth_after) = STACK.with(|st| {
        let mut st = st.borrow_mut();
        let frame = st.pop().expect("span end without begin");
        let dur = now.duration_since(frame.start).as_nanos() as u64;
        if let Some(parent) = st.last_mut() {
            parent.child_ns += dur;
        }
        (frame, st.len())
    });
    let dur = now.duration_since(frame.start).as_nanos() as u64;
    let mut s = lock();
    let a = s.agg.entry(frame.name).or_default();
    a.self_ns += dur.saturating_sub(frame.child_ns);
    a.count += 1;
    if depth_after == 0 && id == s.main_tid {
        s.top_level_ns += dur;
    }
    if frame.recorded {
        let ts_ns = now.duration_since(s.epoch).as_nanos() as u64;
        s.events.push(Event {
            ts_ns,
            tid: id,
            begin: false,
            name: frame.name,
        });
    }
}

/// Aggregates and main-thread top-level coverage so far.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    pub agg: BTreeMap<&'static str, Agg>,
    pub top_level_ns: u64,
}

impl Snapshot {
    /// Self time of `name` accumulated since `earlier`, in ns.
    pub fn self_ns_since(&self, earlier: &Snapshot, name: &str) -> u64 {
        let now = self.agg.get(name).map_or(0, |a| a.self_ns);
        let then = earlier.agg.get(name).map_or(0, |a| a.self_ns);
        now - then
    }

    /// Top-level main-thread coverage accumulated since `earlier`, in ns.
    pub fn top_level_ns_since(&self, earlier: &Snapshot) -> u64 {
        self.top_level_ns - earlier.top_level_ns
    }

    /// Span names seen since `earlier`.
    pub fn names_since<'a>(
        &'a self,
        earlier: &'a Snapshot,
    ) -> impl Iterator<Item = &'static str> + 'a {
        self.agg
            .iter()
            .filter(|(name, a)| earlier.agg.get(*name).map_or(0, |e| e.count) < a.count)
            .map(|(name, _)| *name)
    }
}

pub fn snapshot() -> Snapshot {
    let s = lock();
    Snapshot {
        agg: s.agg.clone(),
        top_level_ns: s.top_level_ns,
    }
}

/// The recorded spans as Chrome trace-event JSON; `extra` entries are
/// added to `otherData` next to the drop accounting.
pub fn chrome_trace_json(extra: &[(&str, String)]) -> String {
    let s = lock();
    let mut out = String::with_capacity(64 * s.events.len() + 256);
    out.push_str("{\"traceEvents\":[");
    for (i, e) in s.events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n{{\"name\":\"{}\",\"ph\":\"{}\",\"pid\":1,\"tid\":{},\"ts\":{}.{:03}}}",
            e.name,
            if e.begin { "B" } else { "E" },
            e.tid,
            e.ts_ns / 1_000,
            e.ts_ns % 1_000
        );
    }
    let _ = write!(
        out,
        "\n],\"displayTimeUnit\":\"ms\",\"otherData\":{{\"recorded\":{},\"dropped\":{},\"emitted\":{}",
        s.events.len(),
        s.dropped,
        s.emitted
    );
    for (k, v) in extra {
        let _ = write!(out, ",\"{k}\":\"{v}\"");
    }
    out.push_str("}}");
    out
}
