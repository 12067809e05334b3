//! Host-time spans recorded around calls into each layer.
//!
//! A span is `(id, parent, name, thread, start, end)`. Spans nest per
//! thread; when a span closes, its duration minus the time its children
//! covered is its *self time*, summed per name. The first [`KEEP`] spans
//! are kept in memory and written out when the run ends; the per-name
//! totals cover every span.
//!
//! Recording is off unless [`set_enabled`] turned it on, and the untraced
//! runs never call into this module on a hot path, so end-to-end numbers
//! carry no tracing cost.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Spans kept verbatim per run (totals count all of them).
pub const KEEP: usize = 50_000;

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_THREAD: AtomicU64 = AtomicU64::new(0);
static COLLECTED: Mutex<Collected> = Mutex::new(Collected {
    spans: Vec::new(),
    totals: BTreeMap::new(),
});

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// One recorded span; times are nanoseconds since the process's first
/// span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRecord {
    /// Unique id.
    pub id: u64,
    /// Id of the enclosing span on the same thread, 0 for a root.
    pub parent: u64,
    /// Layer call name, e.g. `core.run`.
    pub name: &'static str,
    /// Recording thread (dense index).
    pub thread: u64,
    /// Start, ns.
    pub start_ns: u64,
    /// End, ns.
    pub end_ns: u64,
}

/// Per-name totals.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Total {
    /// Spans (or leaf calls) closed.
    pub count: u64,
    /// Summed duration, ns.
    pub total_ns: u64,
    /// Summed self time (duration minus children), ns.
    pub self_ns: u64,
}

/// Everything recorded, merged across threads.
#[derive(Debug, Default)]
pub struct Collected {
    /// The first [`KEEP`] spans, in close order per thread.
    pub spans: Vec<SpanRecord>,
    /// Totals by name.
    pub totals: BTreeMap<&'static str, Total>,
}

impl Collected {
    /// Totals for `name` (zero when never recorded).
    pub fn total(&self, name: &str) -> Total {
        self.totals.get(name).copied().unwrap_or_default()
    }

    /// The kept spans and the totals as JSON.
    pub fn to_json(&self, header: &str) -> String {
        let mut s = format!(
            "{{\n  \"header\": \"{}\",\n  \"totals\": [\n",
            escape(header)
        );
        for (i, (name, t)) in self.totals.iter().enumerate() {
            let comma = if i + 1 == self.totals.len() { "" } else { "," };
            let _ = writeln!(
                s,
                "    {{\"name\": \"{name}\", \"count\": {}, \"total_ns\": {}, \"self_ns\": {}}}{comma}",
                t.count, t.total_ns, t.self_ns
            );
        }
        s.push_str("  ],\n  \"spans\": [\n");
        for (i, r) in self.spans.iter().enumerate() {
            let comma = if i + 1 == self.spans.len() { "" } else { "," };
            let _ = writeln!(
                s,
                "    {{\"id\": {}, \"parent\": {}, \"name\": \"{}\", \"thread\": {}, \
                 \"start_ns\": {}, \"end_ns\": {}}}{comma}",
                r.id, r.parent, r.name, r.thread, r.start_ns, r.end_ns
            );
        }
        s.push_str("  ]\n}\n");
        s
    }
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

struct Open {
    id: u64,
    parent: u64,
    name: &'static str,
    start: Instant,
    child_ns: u64,
}

struct Recorder {
    thread: u64,
    stack: Vec<Open>,
    spans: Vec<SpanRecord>,
    totals: BTreeMap<&'static str, Total>,
}

thread_local! {
    static RECORDER: RefCell<Recorder> = RefCell::new(Recorder {
        thread: NEXT_THREAD.fetch_add(1, Ordering::Relaxed),
        stack: Vec::new(),
        spans: Vec::new(),
        totals: BTreeMap::new(),
    });
}

/// Turns recording on or off for every thread.
pub fn set_enabled(on: bool) {
    epoch();
    ENABLED.store(on, Ordering::SeqCst);
}

/// Whether spans are being recorded.
fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Closes its span when dropped.
#[must_use = "a span closes when its guard drops"]
pub struct SpanGuard(());

/// Opens a span named `name` on this thread; `None` when recording is
/// off.
pub fn span(name: &'static str) -> Option<SpanGuard> {
    if !enabled() {
        return None;
    }
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        let parent = r.stack.last().map_or(0, |o| o.id);
        r.stack.push(Open {
            id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
            parent,
            name,
            start: Instant::now(),
            child_ns: 0,
        });
    });
    Some(SpanGuard(()))
}

/// Runs `f` inside a span named `name`.
pub fn in_span<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    let _g = span(name);
    f()
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let end = Instant::now();
        RECORDER.with(|r| {
            let mut r = r.borrow_mut();
            let Some(open) = r.stack.pop() else { return };
            let dur = ns(end.duration_since(open.start));
            close(&mut r, open.name, dur, dur.saturating_sub(open.child_ns));
            if r.spans.len() < KEEP {
                let base = epoch();
                let rec = SpanRecord {
                    id: open.id,
                    parent: open.parent,
                    name: open.name,
                    thread: r.thread,
                    start_ns: ns(open.start.duration_since(base)),
                    end_ns: ns(end.duration_since(base)),
                };
                r.spans.push(rec);
            }
        });
    }
}

/// Records `count` calls named `name` totalling `total_ns` that ran
/// inside the current span, without keeping them as individual spans —
/// for calls too frequent to record one by one.
pub fn leaf(name: &'static str, count: u64, total_ns: u64) {
    if !enabled() || count == 0 {
        return;
    }
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        let t = r.totals.entry(name).or_default();
        t.count += count;
        t.total_ns += total_ns;
        t.self_ns += total_ns;
        if let Some(parent) = r.stack.last_mut() {
            parent.child_ns += total_ns;
        }
    });
}

fn close(r: &mut Recorder, name: &'static str, dur: u64, self_ns: u64) {
    let t = r.totals.entry(name).or_default();
    t.count += 1;
    t.total_ns += dur;
    t.self_ns += self_ns;
    if let Some(parent) = r.stack.last_mut() {
        parent.child_ns += dur;
    }
}

fn ns(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Moves this thread's spans and totals into the shared collection. Call
/// at the end of every thread that recorded spans.
pub fn flush_thread() {
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        let spans = std::mem::take(&mut r.spans);
        let totals = std::mem::take(&mut r.totals);
        let mut c = COLLECTED.lock().expect("span collection poisoned");
        let room = KEEP.saturating_sub(c.spans.len());
        c.spans.extend(spans.into_iter().take(room));
        for (name, t) in totals {
            let e = c.totals.entry(name).or_default();
            e.count += t.count;
            e.total_ns += t.total_ns;
            e.self_ns += t.self_ns;
        }
    });
}

/// Flushes the calling thread and takes everything collected so far,
/// leaving the collection empty.
pub fn take() -> Collected {
    flush_thread();
    std::mem::take(&mut *COLLECTED.lock().expect("span collection poisoned"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_leaves() {
        // Recording is process-global; this is the only test that turns
        // it on, and it drains what it recorded.
        set_enabled(true);
        {
            let _outer = span("outer");
            std::thread::sleep(std::time::Duration::from_millis(2));
            {
                let _inner = span("inner");
                std::thread::sleep(std::time::Duration::from_millis(3));
            }
            leaf("leafy", 10, 1_000_000);
        }
        set_enabled(false);
        let c = take();
        let (outer, inner, leafy) = (c.total("outer"), c.total("inner"), c.total("leafy"));
        assert_eq!((outer.count, inner.count, leafy.count), (1, 1, 10));
        assert_eq!(outer.self_ns, outer.total_ns - inner.total_ns - 1_000_000);
        assert!(inner.total_ns >= 3_000_000);
        let spans: Vec<_> = c.spans.iter().map(|s| (s.name, s.parent != 0)).collect();
        assert_eq!(spans, [("inner", true), ("outer", false)]);
        assert!(span("off").is_none(), "disabled recording opens nothing");
    }
}
