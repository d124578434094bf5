//! Runtime observability: structured tracing spans and per-stage counters.
//!
//! This crate is the registry behind `ifet <cmd> --trace/--profile`. It is
//! deliberately dependency-free (only the offline serde shims, for JSON) and
//! designed around three constraints:
//!
//! 1. **Near-zero cost when disabled.** Every entry point starts with a single
//!    relaxed load of the live-capture count; instrumented code reports
//!    *aggregates* (one counter call per slab / frame / round / section, never
//!    per voxel), so the disabled path adds a handful of branches to work
//!    units that each cost milliseconds. The `obs_overhead` bench pins this
//!    below 5%.
//!
//! 2. **A trace describes one capture and nothing else.** [`capture`] creates
//!    a collector and installs it in the calling thread's thread-local. Only
//!    threads that have a collector installed record anything, so concurrent
//!    captures and uncaptured work never mix. Code that fans work out to
//!    other threads takes the handle with [`current`] and calls
//!    [`Scope::enter`] on each worker; a thread that never enters a scope
//!    contributes nothing.
//!
//! 3. **Deterministic counters across thread counts.** Counter deltas buffer
//!    in the recording thread's thread-local and merge into the innermost open
//!    span of its capture when that thread opens or closes a span, or when its
//!    [`ScopeGuard`] drops (u64 addition commutes, so the merge order does not
//!    matter). Counters are sorted by name at span close. Timings and
//!    scheduling-dependent values (scratch-pool hits, barrier waits) are
//!    recorded through [`counter_runtime`] and stripped by
//!    [`Trace::to_stable`], so the *stable* rendering of a trace is
//!    byte-identical across `--threads 1/2/4`.
//!
//! Spans form a tree rooted at the name passed to [`capture`]. Only the
//! thread that called `capture` may open spans (the rayon shim runs
//! `ThreadPool::install` closures on the calling thread, so pipeline stages
//! always satisfy this); worker threads contribute counters only. A collected
//! tree serializes to a versioned JSON document (schema
//! [`TRACE_SCHEMA_VERSION`]) with a strict reader that rejects unknown fields,
//! mirroring the persistence layer's corruption tests.

use std::borrow::Cow;
use std::cell::RefCell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

use serde::value::Number;
use serde::Value;

/// Version of the emitted trace document. Bump on any field change and
/// extend the schema-stability test in `tests/observability.rs`.
pub const TRACE_SCHEMA_VERSION: u32 = 1;

// ---------------------------------------------------------------------------
// Registry state
// ---------------------------------------------------------------------------

/// Captures running anywhere in the process: the disabled fast path is one
/// relaxed load of this count. It publishes no data: a collector reaches
/// another thread only inside a [`Scope`] handed over by a spawn or channel,
/// which orders the count's increment before that thread's load.
static LIVE: AtomicUsize = AtomicUsize::new(0);

#[inline]
fn live() -> bool {
    LIVE.load(Ordering::Relaxed) != 0
}

#[derive(Clone)]
struct OpenSpan {
    name: Cow<'static, str>,
    start: Instant,
    counters: Vec<Counter>,
    children: Vec<Span>,
}

impl OpenSpan {
    fn new(name: Cow<'static, str>) -> Self {
        Self {
            name,
            start: Instant::now(),
            counters: Vec::new(),
            children: Vec::new(),
        }
    }

    fn add(&mut self, name: &str, delta: u64, runtime: bool) {
        match self
            .counters
            .iter_mut()
            .find(|c| c.name == name && c.runtime == runtime)
        {
            Some(c) => c.value += delta,
            None => self.counters.push(Counter {
                name: name.to_owned(),
                value: delta,
                runtime,
            }),
        }
    }

    fn close(mut self) -> Span {
        self.counters
            .sort_by(|a, b| a.name.cmp(&b.name).then(a.runtime.cmp(&b.runtime)));
        Span {
            name: self.name.into_owned(),
            dur_ns: self.start.elapsed().as_nanos() as u64,
            counters: self.counters,
            children: self.children,
        }
    }
}

/// One capture's open spans, root first. Shared by every thread that enters
/// the capture's [`Scope`]; emptied when the capture finishes, so merges
/// arriving later are dropped.
struct Collector {
    stack: Mutex<Vec<OpenSpan>>,
}

impl Collector {
    fn lock(&self) -> MutexGuard<'_, Vec<OpenSpan>> {
        // A panic inside a captured closure can poison the lock; every
        // critical section leaves the stack consistent, so recovery is safe.
        self.stack.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Close every span still open, innermost first, and leave the stack
    /// empty.
    fn finish(&self) -> Option<Trace> {
        let stack = std::mem::take(&mut *self.lock());
        nest(stack.into_iter().map(OpenSpan::close).collect())
    }

    /// Non-destructive [`Collector::finish`].
    fn snapshot(&self) -> Option<Trace> {
        nest(self.lock().iter().cloned().map(OpenSpan::close).collect())
    }
}

/// Fold a root-first chain of spans into a tree: each span becomes the last
/// child of the one before it.
fn nest(chain: Vec<Span>) -> Option<Trace> {
    let root = chain.into_iter().rev().reduce(|child, mut parent| {
        parent.children.push(child);
        parent
    })?;
    Some(Trace {
        schema: TRACE_SCHEMA_VERSION,
        mode: TraceMode::Full,
        root,
    })
}

/// This thread's recording state.
struct Local {
    /// The collector this thread records into, if any.
    scope: Option<Arc<Collector>>,
    /// Whether this thread called [`capture`] for `scope` (and so may open
    /// spans).
    owner: bool,
    /// Counter deltas not yet merged into `scope`: `(name, delta, runtime)`.
    entries: Vec<(&'static str, u64, bool)>,
}

impl Local {
    /// Merge the buffered deltas into the innermost open span of this
    /// thread's collector.
    fn merge(&mut self) {
        if self.entries.is_empty() {
            return;
        }
        if let Some(c) = &self.scope {
            if let Some(top) = c.lock().last_mut() {
                for (name, delta, runtime) in self.entries.drain(..) {
                    top.add(name, delta, runtime);
                }
            }
        }
        self.entries.clear();
    }
}

thread_local! {
    static LOCAL: RefCell<Local> = const {
        RefCell::new(Local { scope: None, owner: false, entries: Vec::new() })
    };
}

/// Make `collector` this thread's recording target until the guard drops.
fn install(collector: &Arc<Collector>, owner: bool) -> ScopeGuard {
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        l.merge();
        let scope = l.scope.replace(Arc::clone(collector));
        let owner = std::mem::replace(&mut l.owner, owner);
        ScopeGuard(Some((scope, owner)))
    })
}

// ---------------------------------------------------------------------------
// Public recording API
// ---------------------------------------------------------------------------

/// Whether the calling thread records into a capture. Use to gate counter
/// *computations* whose value is itself costly (e.g. a mask popcount); plain
/// [`counter`] calls self-gate and do not need this.
#[inline]
pub fn is_enabled() -> bool {
    live() && LOCAL.with(|l| l.borrow().scope.is_some())
}

/// Run `f` under a fresh capture rooted at `root` and return its result with
/// the collected trace. The capture records the calling thread and every
/// thread that enters its [`Scope`] while `f` runs; captures on other threads
/// run concurrently without seeing each other. Spans still open when `f`
/// returns are closed bottom-up. Nests: an enclosing capture on this thread
/// resumes when this one ends.
pub fn capture<R>(root: &'static str, f: impl FnOnce() -> R) -> (R, Trace) {
    struct Live;
    impl Drop for Live {
        fn drop(&mut self) {
            LIVE.fetch_sub(1, Ordering::Relaxed);
        }
    }
    let collector = Arc::new(Collector {
        stack: Mutex::new(vec![OpenSpan::new(Cow::Borrowed(root))]),
    });
    LIVE.fetch_add(1, Ordering::Relaxed);
    let _live = Live;
    let result = {
        let _installed = install(&collector, true);
        f()
    };
    let trace = collector.finish().expect("capture holds its root span");
    (result, trace)
}

/// Handle to the capture the calling thread records into (or to none).
/// Cheap to clone and `Send`: carry it to the threads a work unit fans out
/// to and [`Scope::enter`] it there, so their counters land in this capture.
#[derive(Clone)]
pub struct Scope(Option<Arc<Collector>>);

/// The calling thread's [`Scope`]; empty when it records into no capture.
#[inline]
pub fn current() -> Scope {
    if !live() {
        return Scope(None);
    }
    Scope(LOCAL.with(|l| l.borrow().scope.clone()))
}

impl Scope {
    /// Record this thread's counters into the scope's capture until the
    /// guard drops; the drop merges them into the capture's innermost open
    /// span. Declare the guard first in a work unit so it drops last.
    /// Inert for an empty scope, or when this thread already records into
    /// the same capture (a fan-out that ran inline on the capturing thread).
    pub fn enter(&self) -> ScopeGuard {
        let Some(c) = &self.0 else {
            return ScopeGuard(None);
        };
        let here = LOCAL.with(|l| l.borrow().scope.as_ref().is_some_and(|s| Arc::ptr_eq(s, c)));
        if here {
            ScopeGuard(None)
        } else {
            install(c, false)
        }
    }
}

/// Leaves a [`Scope`] on drop, merging this thread's counters into it and
/// restoring whatever the thread recorded into before.
#[must_use = "dropping the guard immediately leaves the scope"]
pub struct ScopeGuard(Option<(Option<Arc<Collector>>, bool)>);

impl Drop for ScopeGuard {
    fn drop(&mut self) {
        if let Some((scope, owner)) = self.0.take() {
            LOCAL.with(|l| {
                let mut l = l.borrow_mut();
                l.merge();
                l.scope = scope;
                l.owner = owner;
            });
        }
    }
}

/// Open a timed span. The returned guard closes it on drop. Inert (and
/// branch-cheap) unless the calling thread is the one running [`capture`].
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    if !live() {
        return SpanGuard(None);
    }
    span_open(Cow::Borrowed(name))
}

/// [`span`] with a runtime-built name (e.g. a per-section label). Prefer
/// [`span`] anywhere the name is known at compile time.
#[inline]
pub fn span_dyn(name: String) -> SpanGuard {
    if !live() {
        return SpanGuard(None);
    }
    span_open(Cow::Owned(name))
}

fn span_open(name: Cow<'static, str>) -> SpanGuard {
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        if !l.owner {
            return SpanGuard(None);
        }
        l.merge();
        let c = l.scope.clone().expect("an owner thread has a scope");
        c.lock().push(OpenSpan::new(name));
        SpanGuard(Some(c))
    })
}

/// Closes its span on drop. Obtain via [`span`]/[`span_dyn`] or the
/// [`obs_span!`] macro.
#[must_use = "dropping the guard immediately closes the span"]
pub struct SpanGuard(Option<Arc<Collector>>);

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(c) = self.0.take() else { return };
        LOCAL.with(|l| l.borrow_mut().merge());
        let mut stack = c.lock();
        // The root span belongs to `capture`; depth 1 (or 0, once finished)
        // means this guard outlived the capture that opened it.
        if stack.len() > 1 {
            let span = stack.pop().expect("stack depth checked above").close();
            stack
                .last_mut()
                .expect("stack depth checked above")
                .children
                .push(span);
        }
    }
}

/// Open a span for the rest of the enclosing scope:
/// `obs_span!("track.round");`
#[macro_export]
macro_rules! obs_span {
    ($name:literal) => {
        let _obs_span_guard = $crate::span($name);
    };
}

/// Add to a **deterministic** counter: its value must depend only on inputs,
/// never on scheduling. Deterministic counters survive
/// [`Trace::to_stable`] and are pinned byte-identical across thread counts by
/// the observability tests. Buffered thread-locally; merged when this thread
/// opens or closes a span or leaves its [`Scope`].
#[inline]
pub fn counter(name: &'static str, delta: u64) {
    if live() {
        record(name, delta, false);
    }
}

/// Add to a **runtime** counter: scheduling-dependent values (pool hits,
/// wait times). Stripped by [`Trace::to_stable`].
#[inline]
pub fn counter_runtime(name: &'static str, delta: u64) {
    if live() {
        record(name, delta, true);
    }
}

fn record(name: &'static str, delta: u64, runtime: bool) {
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        if l.scope.is_none() {
            return;
        }
        match l
            .entries
            .iter_mut()
            .find(|(n, _, r)| *n == name && *r == runtime)
        {
            Some((_, v, _)) => *v += delta,
            None => l.entries.push((name, delta, runtime)),
        }
    });
}

/// Non-destructive snapshot of the calling thread's capture so far:
/// still-open spans appear with their elapsed-so-far durations, and this
/// thread's buffered counters are merged first (where they would land
/// anyway). `None` if the thread records into no capture.
pub fn snapshot() -> Option<Trace> {
    if !live() {
        return None;
    }
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        l.merge();
        l.scope.as_ref()?.snapshot()
    })
}

/// Fixed-point helper for recording a non-negative float (e.g. a loss) as a
/// deterministic integer counter, in micro-units.
#[inline]
pub fn micros_f32(v: f32) -> u64 {
    if v.is_finite() && v > 0.0 {
        (v as f64 * 1e6).round() as u64
    } else {
        0
    }
}

// ---------------------------------------------------------------------------
// Trace model
// ---------------------------------------------------------------------------

/// Rendering/redaction mode recorded in the trace document.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceMode {
    /// Everything: durations and runtime counters included.
    Full,
    /// Deterministic subset: durations zeroed, runtime counters stripped.
    /// Byte-identical across thread counts.
    Stable,
}

impl TraceMode {
    pub fn as_str(&self) -> &'static str {
        match self {
            TraceMode::Full => "full",
            TraceMode::Stable => "stable",
        }
    }

    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "full" => Some(TraceMode::Full),
            "stable" => Some(TraceMode::Stable),
            _ => None,
        }
    }
}

/// One counter on a span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Counter {
    pub name: String,
    pub value: u64,
    /// Scheduling-dependent (see [`counter_runtime`]); stripped in stable mode.
    pub runtime: bool,
}

/// One node of the span tree.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub dur_ns: u64,
    /// Sorted by name (then runtime flag) at close.
    pub counters: Vec<Counter>,
    pub children: Vec<Span>,
}

impl Span {
    /// Counter value by name, searching this span only.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|c| c.name == name)
            .map(|c| c.value)
    }

    /// Depth-first search for the first descendant (or self) with `name`.
    pub fn find(&self, name: &str) -> Option<&Span> {
        if self.name == name {
            return Some(self);
        }
        self.children.iter().find_map(|c| c.find(name))
    }

    /// All spans (self and descendants) with `name`, in depth-first order.
    pub fn find_all<'a>(&'a self, name: &str, out: &mut Vec<&'a Span>) {
        if self.name == name {
            out.push(self);
        }
        for c in &self.children {
            c.find_all(name, out);
        }
    }
}

/// A complete versioned trace document.
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    pub schema: u32,
    pub mode: TraceMode,
    pub root: Span,
}

impl Trace {
    /// Deterministic redaction: durations zeroed, runtime counters removed.
    /// The stable rendering of a trace is the part pinned across thread
    /// counts by tests and embedded in `.ifet` artifacts.
    pub fn to_stable(&self) -> Trace {
        fn redact(s: &Span) -> Span {
            Span {
                name: s.name.clone(),
                dur_ns: 0,
                counters: s.counters.iter().filter(|c| !c.runtime).cloned().collect(),
                children: s.children.iter().map(redact).collect(),
            }
        }
        Trace {
            schema: self.schema,
            mode: TraceMode::Stable,
            root: redact(&self.root),
        }
    }

    fn span_to_value(s: &Span) -> Value {
        Value::Object(vec![
            ("name".to_string(), Value::String(s.name.clone())),
            ("dur_ns".to_string(), Value::Number(Number::U(s.dur_ns))),
            (
                "counters".to_string(),
                Value::Array(
                    s.counters
                        .iter()
                        .map(|c| {
                            Value::Object(vec![
                                ("name".to_string(), Value::String(c.name.clone())),
                                ("value".to_string(), Value::Number(Number::U(c.value))),
                                ("runtime".to_string(), Value::Bool(c.runtime)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "children".to_string(),
                Value::Array(s.children.iter().map(Self::span_to_value).collect()),
            ),
        ])
    }

    pub fn to_value(&self) -> Value {
        Value::Object(vec![
            (
                "trace_schema".to_string(),
                Value::Number(Number::U(self.schema as u64)),
            ),
            (
                "mode".to_string(),
                Value::String(self.mode.as_str().to_string()),
            ),
            ("root".to_string(), Self::span_to_value(&self.root)),
        ])
    }

    /// Compact JSON. Deterministic: object fields are emitted in fixed order
    /// and counters were sorted at span close.
    pub fn to_json(&self) -> String {
        serde_json::write_compact(&self.to_value())
    }

    /// Indented JSON for `--trace` output files.
    pub fn to_json_pretty(&self) -> String {
        serde_json::write_pretty(&self.to_value())
    }

    /// Strict parser: rejects unknown or missing fields, wrong types, and
    /// documents from a newer schema. This is the fixture reader used by the
    /// schema-stability test — any field change must bump
    /// [`TRACE_SCHEMA_VERSION`] and be reflected here.
    pub fn from_json(text: &str) -> Result<Trace, TraceError> {
        let value =
            serde_json::parse_value(text).map_err(|e| TraceError(format!("bad JSON: {e}")))?;
        let pairs = expect_keys(&value, "trace", &["trace_schema", "mode", "root"])?;
        let schema = as_u64(&pairs[0].1, "trace_schema")?;
        if schema > TRACE_SCHEMA_VERSION as u64 {
            return Err(TraceError(format!(
                "trace schema {schema} is newer than supported {TRACE_SCHEMA_VERSION}"
            )));
        }
        let mode_str = as_str(&pairs[1].1, "mode")?;
        let mode = TraceMode::parse(mode_str)
            .ok_or_else(|| TraceError(format!("unknown trace mode `{mode_str}`")))?;
        Ok(Trace {
            schema: schema as u32,
            mode,
            root: Self::span_from_value(&pairs[2].1)?,
        })
    }

    fn span_from_value(v: &Value) -> Result<Span, TraceError> {
        let pairs = expect_keys(v, "span", &["name", "dur_ns", "counters", "children"])?;
        Ok(Span {
            name: as_str(&pairs[0].1, "span name")?.to_string(),
            dur_ns: as_u64(&pairs[1].1, "dur_ns")?,
            counters: as_vec(&pairs[2].1, "counters", Self::counter_from_value)?,
            children: as_vec(&pairs[3].1, "children", Self::span_from_value)?,
        })
    }

    fn counter_from_value(v: &Value) -> Result<Counter, TraceError> {
        let pairs = expect_keys(v, "counter", &["name", "value", "runtime"])?;
        Ok(Counter {
            name: as_str(&pairs[0].1, "counter name")?.to_string(),
            value: as_u64(&pairs[1].1, "counter value")?,
            runtime: pairs[2]
                .1
                .as_bool()
                .ok_or_else(|| TraceError("counter runtime must be a bool".into()))?,
        })
    }
}

/// Typed field readers for the strict parser; errors name the field.
fn as_u64(v: &Value, what: &str) -> Result<u64, TraceError> {
    v.as_u64()
        .ok_or_else(|| TraceError(format!("{what} must be an unsigned integer")))
}

fn as_str<'a>(v: &'a Value, what: &str) -> Result<&'a str, TraceError> {
    v.as_str()
        .ok_or_else(|| TraceError(format!("{what} must be a string")))
}

fn as_vec<T>(
    v: &Value,
    what: &str,
    item: fn(&Value) -> Result<T, TraceError>,
) -> Result<Vec<T>, TraceError> {
    v.as_array()
        .ok_or_else(|| TraceError(format!("{what} must be an array")))?
        .iter()
        .map(item)
        .collect()
}

/// Require `v` to be an object with exactly `keys`, in exactly that order.
/// Field order is part of the schema (the emitter is deterministic), so the
/// strict reader checks it too — reordering is an unannounced schema change.
fn expect_keys<'a>(
    v: &'a Value,
    what: &str,
    keys: &[&str],
) -> Result<&'a [(String, Value)], TraceError> {
    let pairs = v
        .as_object()
        .ok_or_else(|| TraceError(format!("{what} must be an object")))?;
    if pairs.len() != keys.len() {
        let got: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        return Err(TraceError(format!(
            "{what} must have exactly fields {keys:?}, got {got:?}"
        )));
    }
    for (i, key) in keys.iter().enumerate() {
        if pairs[i].0 != *key {
            return Err(TraceError(format!(
                "{what} field {i} must be `{key}`, got `{}`",
                pairs[i].0
            )));
        }
    }
    Ok(pairs)
}

/// Error from the strict trace reader.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceError(pub String);

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "trace error: {}", self.0)
    }
}

impl std::error::Error for TraceError {}

// ---------------------------------------------------------------------------
// Profile summary
// ---------------------------------------------------------------------------

/// Aggregate the span tree by name into a `--profile` table: one row per
/// span name with call count, total/mean duration, and summed counters.
pub fn profile_table(trace: &Trace) -> String {
    struct Row {
        calls: u64,
        total_ns: u64,
        counters: Vec<(String, u64)>,
    }
    fn walk(s: &Span, rows: &mut Vec<(String, Row)>) {
        match rows.iter_mut().find(|(n, _)| *n == s.name) {
            Some((_, row)) => {
                row.calls += 1;
                row.total_ns += s.dur_ns;
                for c in &s.counters {
                    match row.counters.iter_mut().find(|(n, _)| *n == c.name) {
                        Some((_, v)) => *v += c.value,
                        None => row.counters.push((c.name.clone(), c.value)),
                    }
                }
            }
            None => rows.push((
                s.name.clone(),
                Row {
                    calls: 1,
                    total_ns: s.dur_ns,
                    counters: s
                        .counters
                        .iter()
                        .map(|c| (c.name.clone(), c.value))
                        .collect(),
                },
            )),
        }
        for c in &s.children {
            walk(c, rows);
        }
    }
    let mut rows: Vec<(String, Row)> = Vec::new();
    walk(&trace.root, &mut rows);

    let mut out = String::new();
    out.push_str(&format!(
        "{:<28} {:>7} {:>12} {:>12}  counters\n",
        "span", "calls", "total_ms", "mean_us"
    ));
    for (name, row) in &rows {
        let total_ms = row.total_ns as f64 / 1e6;
        let mean_us = row.total_ns as f64 / row.calls as f64 / 1e3;
        let counters = row
            .counters
            .iter()
            .map(|(n, v)| format!("{n}={v}"))
            .collect::<Vec<_>>()
            .join(" ");
        out.push_str(&format!(
            "{name:<28} {:>7} {total_ms:>12.3} {mean_us:>12.1}  {counters}\n",
            row.calls
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_calls_are_inert() {
        assert!(!is_enabled());
        counter("nope", 1);
        counter_runtime("nope", 1);
        let _g = span("nope");
        drop(_g);
        let _s = current().enter();
        assert!(!is_enabled());
        assert!(snapshot().is_none());
    }

    #[test]
    fn capture_builds_nested_tree_with_merged_counters() {
        let ((), trace) = capture("root", || {
            counter("top", 1);
            {
                let _s = span("stage");
                counter("work", 2);
                counter("work", 3);
                counter_runtime("hits", 7);
                {
                    let _inner = span("inner");
                    counter("deep", 1);
                }
            }
            counter("top", 1);
        });
        assert_eq!(trace.schema, TRACE_SCHEMA_VERSION);
        assert_eq!(trace.root.name, "root");
        assert_eq!(trace.root.counter("top"), Some(2));
        let stage = trace.root.find("stage").expect("stage span");
        assert_eq!(stage.counter("work"), Some(5));
        assert_eq!(stage.counter("hits"), Some(7));
        assert_eq!(stage.children.len(), 1);
        assert_eq!(stage.children[0].name, "inner");
        assert_eq!(stage.children[0].counter("deep"), Some(1));
        assert!(!is_enabled());
    }

    #[test]
    fn worker_thread_counters_merge_into_enclosing_span() {
        let ((), trace) = capture("root", || {
            let _s = span("par");
            let scope = current();
            std::thread::scope(|s| {
                for _ in 0..4 {
                    s.spawn(|| {
                        let _obs = scope.enter();
                        assert!(is_enabled());
                        counter("units", 1);
                    });
                }
            });
        });
        let par = trace.root.find("par").expect("par span");
        assert_eq!(par.counter("units"), Some(4));
    }

    #[test]
    fn worker_threads_cannot_open_spans() {
        let ((), trace) = capture("root", || {
            let scope = current();
            std::thread::scope(|s| {
                s.spawn(|| {
                    let _obs = scope.enter();
                    let _s = span("worker-span");
                    counter("c", 1);
                });
            });
        });
        assert!(trace.root.find("worker-span").is_none());
        // The counter still lands (on the root).
        assert_eq!(trace.root.counter("c"), Some(1));
    }

    #[test]
    fn workers_that_do_not_enter_the_scope_contribute_nothing() {
        let ((), trace) = capture("root", || {
            let _s = span("par");
            std::thread::scope(|s| {
                s.spawn(|| {
                    assert!(!is_enabled());
                    counter("stray", 1);
                    counter_runtime("stray.rt", 1);
                    let _s = span("stray-span");
                });
            });
            counter("own", 1);
        });
        let par = trace.root.find("par").expect("par span");
        assert_eq!(par.counter("own"), Some(1));
        assert_eq!(par.counter("stray"), None);
        assert_eq!(par.counter("stray.rt"), None);
        assert!(trace.root.find("stray-span").is_none());
    }

    #[test]
    fn concurrent_captures_and_uncaptured_work_stay_apart() {
        // Both captures are live, and the uncaptured thread works, between
        // the two barrier waits.
        let both_live = std::sync::Barrier::new(3);
        let run = |tag: &'static str| {
            capture("root", || {
                let _s = span(tag);
                counter(tag, 1);
                both_live.wait();
                let scope = current();
                std::thread::scope(|s| {
                    for _ in 0..2 {
                        s.spawn(|| {
                            let _obs = scope.enter();
                            counter(tag, 1);
                            counter_runtime("rt", 1);
                        });
                    }
                });
                both_live.wait();
            })
            .1
        };
        let (a, b, seen) = std::thread::scope(|s| {
            let a = s.spawn(|| run("a"));
            let b = s.spawn(|| run("b"));
            both_live.wait();
            let _s = span("noise");
            counter("noise", 1);
            counter_runtime("rt", 1);
            let seen = (is_enabled(), snapshot().is_none());
            both_live.wait();
            (a.join().unwrap(), b.join().unwrap(), seen)
        });
        assert_eq!(seen, (false, true));
        for (tag, trace) in [("a", a), ("b", b)] {
            assert_eq!(trace.root.children.len(), 1, "{tag}: {trace:?}");
            let stage = trace.root.find(tag).expect("own span");
            assert_eq!(stage.counters.len(), 2, "{tag}: {trace:?}");
            assert_eq!(stage.counter(tag), Some(3));
            assert_eq!(stage.counter("rt"), Some(2));
        }
    }

    #[test]
    fn uncaptured_thread_sees_nothing_while_another_capture_is_live() {
        use std::sync::mpsc;
        let (live_tx, live_rx) = mpsc::channel();
        let (done_tx, done_rx) = mpsc::channel::<()>();
        let capturing = std::thread::spawn(move || {
            capture("other", || {
                counter("other", 1);
                live_tx.send(()).unwrap();
                let _ = done_rx.recv();
            })
            .1
        });
        live_rx.recv().unwrap();
        let seen = (is_enabled(), snapshot().is_none(), current().0.is_none());
        counter("mine", 1);
        drop(done_tx);
        let trace = capturing.join().unwrap();
        assert_eq!(seen, (false, true, true));
        assert_eq!(trace.root.counter("other"), Some(1));
        assert_eq!(trace.root.counter("mine"), None);
    }

    #[test]
    fn nested_capture_restores_the_outer_one() {
        let ((), outer) = capture("outer", || {
            counter("before", 1);
            let ((), inner) = capture("inner", || counter("inside", 1));
            assert_eq!(inner.root.counter("inside"), Some(1));
            assert_eq!(inner.root.counter("before"), None);
            counter("after", 1);
        });
        assert_eq!(outer.root.counter("before"), Some(1));
        assert_eq!(outer.root.counter("after"), Some(1));
        assert_eq!(outer.root.counter("inside"), None);
    }

    #[test]
    fn stable_mode_strips_runtime_and_timing() {
        let ((), trace) = capture("root", || {
            let _s = span("stage");
            counter("det", 3);
            counter_runtime("sched", 9);
        });
        let stable = trace.to_stable();
        assert_eq!(stable.mode, TraceMode::Stable);
        assert_eq!(stable.root.dur_ns, 0);
        let stage = stable.root.find("stage").unwrap();
        assert_eq!(stage.dur_ns, 0);
        assert_eq!(stage.counter("det"), Some(3));
        assert_eq!(stage.counter("sched"), None);
        // Full trace keeps both.
        let full_stage = trace.root.find("stage").unwrap();
        assert_eq!(full_stage.counter("sched"), Some(9));
    }

    #[test]
    fn json_round_trip_and_strictness() {
        let ((), trace) = capture("root", || {
            let _s = span("stage");
            counter("b", 1);
            counter("a", 2);
            counter_runtime("a", 3);
        });
        let text = trace.to_json_pretty();
        let back = Trace::from_json(&text).expect("round trip");
        assert_eq!(back, trace);

        // Compact form round-trips too.
        assert_eq!(Trace::from_json(&trace.to_json()).unwrap(), trace);

        // Counters sorted: deterministic ones by name, runtime after its twin.
        let stage = back.root.find("stage").unwrap();
        let order: Vec<(&str, bool)> = stage
            .counters
            .iter()
            .map(|c| (c.name.as_str(), c.runtime))
            .collect();
        assert_eq!(order, vec![("a", false), ("a", true), ("b", false)]);
    }

    #[test]
    fn reader_rejects_unknown_fields_and_newer_schema() {
        let good = r#"{"trace_schema":1,"mode":"stable","root":{"name":"r","dur_ns":0,"counters":[],"children":[]}}"#;
        assert!(Trace::from_json(good).is_ok());

        let extra_top = r#"{"trace_schema":1,"mode":"stable","root":{"name":"r","dur_ns":0,"counters":[],"children":[]},"extra":1}"#;
        assert!(Trace::from_json(extra_top).is_err());

        let extra_span = r#"{"trace_schema":1,"mode":"stable","root":{"name":"r","dur_ns":0,"counters":[],"children":[],"self_ns":0}}"#;
        assert!(Trace::from_json(extra_span).is_err());

        let missing =
            r#"{"trace_schema":1,"root":{"name":"r","dur_ns":0,"counters":[],"children":[]}}"#;
        assert!(Trace::from_json(missing).is_err());

        let newer = r#"{"trace_schema":2,"mode":"stable","root":{"name":"r","dur_ns":0,"counters":[],"children":[]}}"#;
        assert!(Trace::from_json(newer).is_err());

        let bad_mode = r#"{"trace_schema":1,"mode":"verbose","root":{"name":"r","dur_ns":0,"counters":[],"children":[]}}"#;
        assert!(Trace::from_json(bad_mode).is_err());
    }

    #[test]
    fn snapshot_is_non_destructive() {
        let ((), trace) = capture("root", || {
            counter("before", 1);
            let snap = snapshot().expect("active capture");
            assert_eq!(snap.root.counter("before"), Some(1));
            counter("after", 1);
        });
        assert_eq!(trace.root.counter("before"), Some(1));
        assert_eq!(trace.root.counter("after"), Some(1));
    }

    #[test]
    fn profile_table_aggregates_by_name() {
        let ((), trace) = capture("root", || {
            for _ in 0..3 {
                let _s = span("round");
                counter("frontier", 10);
            }
        });
        let table = profile_table(&trace);
        assert!(table.contains("round"));
        assert!(table.contains("frontier=30"));
        let round_line = table.lines().find(|l| l.starts_with("round")).unwrap();
        assert!(round_line.contains("      3 "), "3 calls: {round_line}");
    }

    #[test]
    fn micros_helper() {
        assert_eq!(micros_f32(0.25), 250_000);
        assert_eq!(micros_f32(0.0), 0);
        assert_eq!(micros_f32(f32::NAN), 0);
        assert_eq!(micros_f32(-1.0), 0);
    }
}
