//! In-memory spans recorded by the benchmark around its own calls into each
//! layer. A span has a name, start and end (ns since the run began), the
//! span that was open on the calling thread when it started (its parent),
//! and, for served requests, the request id. Spans stay in memory until the
//! run ends and are then written out as one JSON file.
//!
//! A disabled tracer records nothing, so the same workload code runs with
//! tracing off for the end-to-end metrics.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub request: Option<u64>,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

pub struct Tracer {
    on: bool,
    t0: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

thread_local! {
    /// Ids of the spans open on this thread, innermost last.
    static OPEN: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// Closes its span when dropped.
pub struct SpanGuard<'a> {
    tracer: &'a Tracer,
    id: u64,
    parent: u64,
    name: &'static str,
    start: Instant,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if self.id == 0 {
            return;
        }
        OPEN.with(|s| {
            let mut s = s.borrow_mut();
            if s.last() == Some(&self.id) {
                s.pop();
            }
        });
        self.tracer.push(
            self.id,
            self.parent,
            self.name,
            None,
            self.start,
            Instant::now(),
        );
    }
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Self {
            on,
            t0: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// The innermost span open on this thread (0 = none); pass it to
    /// [`Self::record`] on another thread to keep the parent link.
    pub fn current(&self) -> u64 {
        OPEN.with(|s| s.borrow().last().copied().unwrap_or(0))
    }

    /// Open a span on this thread; it closes when the guard drops.
    pub fn span(&self, name: &'static str) -> SpanGuard<'_> {
        if !self.on {
            return SpanGuard {
                tracer: self,
                id: 0,
                parent: 0,
                name,
                start: self.t0,
            };
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = self.current();
        OPEN.with(|s| s.borrow_mut().push(id));
        SpanGuard {
            tracer: self,
            id,
            parent,
            name,
            start: Instant::now(),
        }
    }

    /// Time `f` under a span named `name`.
    pub fn time<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let _g = self.span(name);
        f()
    }

    /// Record a finished span measured by the caller (served requests,
    /// whose start is the time they were due).
    pub fn record(
        &self,
        name: &'static str,
        parent: u64,
        request: Option<u64>,
        start: Instant,
        end: Instant,
    ) {
        if self.on {
            let id = self.next_id.fetch_add(1, Ordering::Relaxed);
            self.push(id, parent, name, request, start, end);
        }
    }

    fn push(
        &self,
        id: u64,
        parent: u64,
        name: &'static str,
        request: Option<u64>,
        start: Instant,
        end: Instant,
    ) {
        let ns = |t: Instant| t.saturating_duration_since(self.t0).as_nanos() as u64;
        let span = Span {
            id,
            parent,
            name,
            start_ns: ns(start),
            end_ns: ns(end).max(ns(start)),
            request,
        };
        self.spans.lock().expect("span list poisoned").push(span);
    }

    /// Every recorded span with this name, in recording order.
    pub fn spans(&self, name: &str) -> Vec<Span> {
        self.spans
            .lock()
            .expect("span list poisoned")
            .iter()
            .filter(|s| s.name == name)
            .cloned()
            .collect()
    }

    /// Durations in milliseconds of every span with this name.
    pub fn ms(&self, name: &str) -> Vec<f64> {
        self.spans(name).iter().map(Span::ms).collect()
    }

    pub fn to_json(&self) -> String {
        let spans = self.spans.lock().expect("span list poisoned");
        let mut out = String::from("[\n");
        for (i, s) in spans.iter().enumerate() {
            let req = s.request.map_or("null".to_string(), |r| r.to_string());
            out.push_str(&format!(
                "  {{\"id\": {}, \"parent\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"request\": {}}}{}\n",
                s.id,
                s.parent,
                s.name,
                s.start_ns,
                s.end_ns,
                req,
                if i + 1 == spans.len() { "" } else { "," }
            ));
        }
        out.push(']');
        out
    }
}
