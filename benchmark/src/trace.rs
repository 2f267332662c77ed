//! The traced pass's span recorder.
//!
//! Spans are recorded from the benchmark's own wrappers, around the
//! calls into each layer — never from inside the program under test.
//! Each thread appends to its own buffer (registered in a global list on
//! first use, so spans made on the array's shard-worker threads are
//! found too); buffers stay in memory until [`drain`] collects them
//! after the timed phase. With recording off, [`span`] is one relaxed
//! load and the call.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// One recorded span. `parent` is the enclosing span on the same thread
/// (0 = none); spans of one request on different threads share
/// `trace_id` instead. Device calls carry the device number in `dev`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub trace_id: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub dev: Option<u32>,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// One JSON-lines record, as written to `trace-<workload>.jsonl`.
    pub fn to_json(&self) -> String {
        let dev = self.dev.map_or("null".to_string(), |d| d.to_string());
        format!(
            "{{\"id\":{},\"parent\":{},\"trace_id\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"dev\":{}}}",
            self.id, self.parent, self.trace_id, self.name, self.start_ns, self.end_ns, dev
        )
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_THREAD: AtomicU64 = AtomicU64::new(1);
static SINKS: Mutex<Vec<Arc<Mutex<Vec<Span>>>>> = Mutex::new(Vec::new());
static EPOCH: OnceLock<Instant> = OnceLock::new();

struct Local {
    sink: Arc<Mutex<Vec<Span>>>,
    /// High bits of every id minted on this thread.
    id_base: u64,
    minted: u64,
    /// Ids of the spans currently open on this thread, innermost last.
    open: Vec<u64>,
    /// Trace id inherited by spans opened without one.
    trace_id: u64,
}

thread_local! {
    static LOCAL: RefCell<Option<Local>> = const { RefCell::new(None) };
}

/// Nanoseconds on the clock spans are stamped with.
pub fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Turns recording on or off (off at start).
pub fn set_enabled(on: bool) {
    EPOCH.get_or_init(Instant::now);
    ENABLED.store(on, Ordering::Relaxed);
}

/// True while spans are being recorded.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// A trace id no other caller gets: for stamping a request before it
/// leaves the client, so the span recorded where it arrives can be
/// joined to the one recorded where it left.
pub fn fresh_trace_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    // Far above anything the program's own TraceIdGen mints from a
    // simulated clock, so pre-stamped ids never collide with minted ones.
    (1 << 62) | NEXT.fetch_add(1, Ordering::Relaxed)
}

/// Runs `f` inside a span named `name`. `trace_id` 0 inherits the
/// enclosing span's trace id.
pub fn span<R>(name: &'static str, trace_id: u64, dev: Option<u32>, f: impl FnOnce() -> R) -> R {
    if !ENABLED.load(Ordering::Relaxed) {
        return f();
    }
    let (id, parent, trace_id, outer_trace) = LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        let l = l.get_or_insert_with(|| {
            let sink = Arc::new(Mutex::new(Vec::new()));
            SINKS
                .lock()
                .expect("span sink list poisoned")
                .push(sink.clone());
            Local {
                sink,
                id_base: NEXT_THREAD.fetch_add(1, Ordering::Relaxed) << 40,
                minted: 0,
                open: Vec::new(),
                trace_id: 0,
            }
        });
        l.minted += 1;
        let id = l.id_base | l.minted;
        let parent = l.open.last().copied().unwrap_or(0);
        let outer_trace = l.trace_id;
        if trace_id != 0 {
            l.trace_id = trace_id;
        }
        l.open.push(id);
        (id, parent, l.trace_id, outer_trace)
    });
    let start_ns = now_ns();
    let out = f();
    let end_ns = now_ns();
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        let l = l
            .as_mut()
            .expect("span closed on the thread that opened it");
        l.open.pop();
        l.trace_id = outer_trace;
        l.sink.lock().expect("span sink poisoned").push(Span {
            id,
            parent,
            trace_id,
            name,
            start_ns,
            end_ns,
            dev,
        });
    });
    out
}

/// Takes every span recorded so far, from every thread, leaving the
/// buffers empty. Order is by thread, then by completion.
pub fn drain() -> Vec<Span> {
    let sinks = SINKS.lock().expect("span sink list poisoned");
    let mut out = Vec::new();
    for s in sinks.iter() {
        out.append(&mut s.lock().expect("span sink poisoned"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    // One test: the recorder is process-global state.
    #[test]
    fn spans_nest_inherit_and_cross_threads() {
        assert_eq!(span("off", 0, None, || 5), 5);
        set_enabled(true);
        let tid = fresh_trace_id();
        span("op", 0, None, || {
            span("rpc", tid, None, || {
                span("disk.write", 0, Some(3), || ());
            });
            span("rpc", 0, None, || ());
        });
        std::thread::spawn(move || span("handle", tid, None, || ()))
            .join()
            .unwrap();
        set_enabled(false);
        let spans = drain();
        assert!(drain().is_empty(), "drain empties the buffers");
        let by_name = |n: &str| -> Vec<&Span> { spans.iter().filter(|s| s.name == n).collect() };
        assert!(by_name("off").is_empty());
        let op = by_name("op")[0];
        let rpcs = by_name("rpc");
        let disk = by_name("disk.write")[0];
        let handle = by_name("handle")[0];
        assert_eq!(op.parent, 0);
        assert_eq!(op.trace_id, 0);
        assert_eq!(rpcs[0].parent, op.id);
        assert_eq!(rpcs[0].trace_id, tid);
        assert_eq!(disk.parent, rpcs[0].id);
        assert_eq!(disk.trace_id, tid, "inner span inherits the trace id");
        assert_eq!(disk.dev, Some(3));
        assert_eq!(rpcs[1].parent, op.id);
        assert_eq!(rpcs[1].trace_id, 0, "trace id does not leak to a sibling");
        assert_eq!(handle.trace_id, tid);
        assert_eq!(handle.parent, 0);
        assert_ne!(handle.id >> 40, op.id >> 40, "ids are per-thread");
        assert!(op.start_ns <= rpcs[0].start_ns && rpcs[1].end_ns <= op.end_ns);
        assert!(disk.to_json().contains("\"name\":\"disk.write\""));
        assert!(disk.to_json().contains("\"dev\":3"));
    }
}
