//! Tracing from the outside: spans around the benchmark's calls into
//! each layer, and a counting allocator behind a static flag.
//!
//! Spans are kept in memory and written out when the run ends. Both are
//! off in the untraced children that produce the end-to-end metrics: a
//! disabled [`Tracer`] takes no timestamps and the allocator wrapper is a
//! single relaxed load in front of `System`.

use crate::json::{obj, s, Value};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering::Relaxed};
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u32,
    /// The span that was open when this one started.
    pub parent: Option<u32>,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Which pass of the workload the span belongs to (0 = outside any).
    pub pass: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records nested spans on one thread.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    pass: u32,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            pass: 0,
        }
    }

    /// Label the spans that follow with pass number `pass`.
    pub fn set_pass(&mut self, pass: u32) {
        self.pass = pass;
    }

    /// Run `f` inside a span called `name`. Spans opened by `f` through
    /// the tracer it is handed become children. When tracing is off this
    /// is a plain call.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            name: name.to_owned(),
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
            pass: self.pass,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id as usize].end_ns = self.epoch.elapsed().as_nanos() as u64;
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in seconds of every span called `name`, in start order.
    #[cfg(test)]
    pub fn durations_s(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|sp| sp.name == name)
            .map(|sp| sp.duration_ns() as f64 / 1e9)
            .collect()
    }

    /// The spans as the `trace.json` document.
    pub fn to_json(&self, workload: &str) -> Value {
        let spans = self
            .spans
            .iter()
            .map(|sp| {
                obj([
                    ("id", Value::Int(u64::from(sp.id))),
                    (
                        "parent",
                        sp.parent.map_or(Value::Null, |p| Value::Int(u64::from(p))),
                    ),
                    ("name", s(sp.name.as_str())),
                    ("start_ns", Value::Int(sp.start_ns)),
                    ("end_ns", Value::Int(sp.end_ns)),
                    ("self_ns", Value::Int(self_time_ns(&self.spans, sp.id))),
                    ("pass", Value::Int(u64::from(sp.pass))),
                ])
            })
            .collect();
        obj([("workload", s(workload)), ("spans", Value::Arr(spans))])
    }
}

/// A span's self time: its duration minus the part of that interval its
/// direct children cover (overlapping children are counted once).
pub fn self_time_ns(spans: &[Span], id: u32) -> u64 {
    let Some(me) = spans.iter().find(|sp| sp.id == id) else {
        return 0;
    };
    let mut children: Vec<(u64, u64)> = spans
        .iter()
        .filter(|sp| sp.parent == Some(id))
        .map(|sp| (sp.start_ns.max(me.start_ns), sp.end_ns.min(me.end_ns)))
        .filter(|(start, end)| end > start)
        .collect();
    children.sort_unstable();
    let mut covered = 0;
    let mut reach = me.start_ns;
    for (start, end) in children {
        let from = start.max(reach);
        if end > from {
            covered += end - from;
            reach = end;
        }
    }
    me.duration_ns() - covered
}

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);

/// `System` with allocation counters that only run while the static flag
/// is set (traced runs). The counters publish no other data, so relaxed
/// ordering suffices.
pub struct CountingAlloc;

fn note_alloc(size: usize) {
    ALLOCS.fetch_add(1, Relaxed);
    BYTES.fetch_add(size as u64, Relaxed);
    let live = LIVE.fetch_add(size as i64, Relaxed) + size as i64;
    PEAK.fetch_max(live, Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the bookkeeping touches only
// lock-free atomics and never allocates, so it cannot re-enter.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Relaxed) {
            note_alloc(layout.size());
        }
        // SAFETY: the caller's layout is passed through as given.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Relaxed) {
            note_alloc(layout.size());
        }
        // SAFETY: the caller's layout is passed through as given.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if COUNTING.load(Relaxed) {
            LIVE.fetch_sub(layout.size() as i64, Relaxed);
        }
        // SAFETY: `ptr` came from this allocator, i.e. from `System`,
        // with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Relaxed) {
            LIVE.fetch_sub(layout.size() as i64, Relaxed);
            note_alloc(new_size);
        }
        // SAFETY: `ptr` came from `System` with `layout`; `new_size` is
        // the caller's, under the same contract as ours.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Allocation counters at one instant (or the difference of two).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocStats {
    /// Allocation calls (a `realloc` counts as one).
    pub allocs: u64,
    /// Bytes requested.
    pub bytes: u64,
    /// Highest live-byte level above the level when measuring started.
    pub peak_live_bytes: u64,
}

/// Allocation calls counted so far; only moves inside [`count_allocs`].
pub fn allocs_now() -> u64 {
    ALLOCS.load(Relaxed)
}

/// Run `f` with the counters switched on and return what it allocated.
/// Everywhere else they are off — the state end-to-end metrics and the
/// replay timings are measured in.
pub fn count_allocs<T>(f: impl FnOnce() -> T) -> (T, AllocStats) {
    let (allocs, bytes, live) = (
        ALLOCS.load(Relaxed),
        BYTES.load(Relaxed),
        LIVE.load(Relaxed),
    );
    PEAK.store(live, Relaxed);
    let was_on = COUNTING.swap(true, Relaxed);
    let out = f();
    COUNTING.store(was_on, Relaxed);
    let stats = AllocStats {
        allocs: ALLOCS.load(Relaxed) - allocs,
        bytes: BYTES.load(Relaxed) - bytes,
        peak_live_bytes: (PEAK.load(Relaxed) - live).max(0) as u64,
    };
    (out, stats)
}

/// Tests that read the allocation counters hold this lock: the flag is
/// process-wide and `cargo test` runs tests on parallel threads.
#[cfg(test)]
pub static COUNTING_TESTS: std::sync::Mutex<()> = std::sync::Mutex::new(());

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: format!("s{id}"),
            start_ns,
            end_ns,
            pass: 1,
        }
    }

    #[test]
    fn self_time_is_duration_minus_covered_children() {
        let spans = vec![
            span(0, None, 0, 100),
            span(1, Some(0), 10, 30),
            span(2, Some(0), 25, 40), // overlaps span 1: [10,40) covered once
            span(3, Some(0), 60, 70),
            span(4, Some(1), 12, 20),  // grandchild: not subtracted from 0
            span(5, Some(0), 90, 120), // runs past the parent: clipped
        ];
        assert_eq!(self_time_ns(&spans, 0), 100 - 30 - 10 - 10);
        assert_eq!(self_time_ns(&spans, 1), 20 - 8);
        assert_eq!(self_time_ns(&spans, 3), 10);
        assert_eq!(self_time_ns(&spans, 99), 0);
    }

    #[test]
    fn tracer_nests_and_can_be_disabled() {
        let mut t = Tracer::new(true);
        t.set_pass(3);
        let out = t.span("outer", |t| t.span("inner", |_| 1) + t.span("inner", |_| 2));
        assert_eq!(out, 3);
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!((spans[0].name.as_str(), spans[0].parent), ("outer", None));
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans
            .iter()
            .all(|sp| sp.pass == 3 && sp.end_ns >= sp.start_ns));
        assert!(spans[0].end_ns >= spans[2].end_ns);
        assert_eq!(t.durations_s("inner").len(), 2);
        let doc = t.to_json("w");
        assert_eq!(doc.get("spans").map(|v| v.elements().len()), Some(3));

        let mut off = Tracer::new(false);
        assert_eq!(off.span("x", |t| t.span("y", |_| 7)), 7);
        assert!(off.spans().is_empty());
    }
}
