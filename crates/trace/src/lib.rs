#![warn(missing_docs)]

//! # trace — zero-dependency structured observability for goldeneye-rs
//!
//! The paper's headline claim is *fast* error analysis; this crate makes
//! the reproduction able to measure and explain its own runtime. It
//! provides, with no external dependencies:
//!
//! - **structured events** with nanosecond timestamps, buffered in a
//!   mutexed ring and optionally mirrored to a JSONL file sink
//!   ([`open_jsonl`]) and/or a human-readable stderr sink;
//! - **spans** ([`span!`]) — RAII guards that emit a `span` event with
//!   `dur_ns` on drop, for campaign/trial/evaluation phases;
//! - **counters and histograms** ([`counter`], [`histogram`]) — lock-free
//!   atomics for hot paths (trials, per-layer hook latency,
//!   format-conversion ns/element, lock-wait time in the parallel
//!   executor), snapshotted into run manifests;
//! - **leveled logging** ([`logln!`], [`outln!`]) backing the CLI's
//!   `--quiet`/`-v`/`--log-level` flags;
//! - **run manifests** ([`RunManifest`]) — machine-readable JSON records
//!   of every campaign/evaluate/DSE run (config, seed, version, wall
//!   time, per-layer results, convergence trace);
//! - **schema validation** ([`validate`]) for manifests and JSONL traces,
//!   used by tests and the CI smoke job.
//!
//! Everything is process-global and thread-safe; when no sink is open and
//! the level gate is closed, the hot-path cost is one relaxed atomic load.

mod json;
mod manifest;
pub mod names;
mod profile;
mod progress;
pub mod validate;

pub use json::{parse, Json, ParseJsonError};
pub use manifest::{version, LayerRecord, RunManifest, StatsSummary, TrialRecord, SCHEMA_VERSION};
pub use profile::{
    profile_folded, profile_from_json, profile_path, profile_snapshot, profile_to_json,
    reset_profile, with_profile_path, PathGuard, ProfileNode,
};
pub use progress::{canonical_progress, set_status_line, status_line_enabled, Progress};
pub use validate::{
    validate_event, validate_manifest, validate_trace, TraceError, TraceErrorKind, TraceSummary,
};

use std::collections::VecDeque;
use std::io::Write as _;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, AtomicU8, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Severity / verbosity of an event or log line.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum Level {
    /// Unrecoverable problems.
    Error = 0,
    /// Suspicious but survivable conditions.
    Warn = 1,
    /// Normal result output (the default level).
    Info = 2,
    /// Per-phase diagnostics (`-v`).
    Debug = 3,
    /// Per-trial firehose (`-vv` / `--log-level trace`).
    Trace = 4,
}

impl Level {
    /// The lowercase name used in JSONL records and `--log-level`.
    pub fn as_str(&self) -> &'static str {
        match self {
            Level::Error => "error",
            Level::Warn => "warn",
            Level::Info => "info",
            Level::Debug => "debug",
            Level::Trace => "trace",
        }
    }

    /// Parses a `--log-level` value.
    pub fn parse(s: &str) -> Option<Level> {
        match s {
            "error" => Some(Level::Error),
            "warn" => Some(Level::Warn),
            "info" => Some(Level::Info),
            "debug" => Some(Level::Debug),
            "trace" => Some(Level::Trace),
            _ => None,
        }
    }

    fn from_u8(v: u8) -> Level {
        match v {
            0 => Level::Error,
            1 => Level::Warn,
            2 => Level::Info,
            3 => Level::Debug,
            _ => Level::Trace,
        }
    }
}

/// One structured event.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Nanoseconds since the process-global trace epoch.
    pub ts_ns: u64,
    /// Severity.
    pub level: Level,
    /// Event kind (`"span"`, `"log"`, `"trial"`, `"range"`, …).
    pub kind: &'static str,
    /// Structured payload (insertion-ordered).
    pub fields: Vec<(&'static str, Json)>,
}

impl Event {
    /// The event as a JSON object (`ts_ns`, `level`, `type`, then fields).
    pub fn to_json(&self) -> Json {
        let mut obj: Vec<(String, Json)> = vec![
            ("ts_ns".into(), Json::from(self.ts_ns)),
            ("level".into(), Json::from(self.level.as_str())),
            ("type".into(), Json::from(self.kind)),
        ];
        for (k, v) in &self.fields {
            obj.push(((*k).to_string(), v.clone()));
        }
        Json::Obj(obj)
    }
}

const RING_CAPACITY: usize = 4096;

struct Sinks {
    ring: VecDeque<Event>,
    jsonl: Option<std::io::BufWriter<std::fs::File>>,
    pretty: bool,
}

struct Tracer {
    epoch: Instant,
    level: AtomicU8,
    /// Fast gate: true iff any structured sink (ring capture or JSONL
    /// file) wants events. One relaxed load on the hot path when off.
    recording: AtomicBool,
    capture: AtomicBool,
    sinks: Mutex<Sinks>,
    metrics: Mutex<Vec<(&'static str, &'static Metric)>>,
}

fn tracer() -> &'static Tracer {
    static TRACER: OnceLock<Tracer> = OnceLock::new();
    TRACER.get_or_init(|| Tracer {
        epoch: Instant::now(),
        level: AtomicU8::new(Level::Info as u8),
        recording: AtomicBool::new(false),
        capture: AtomicBool::new(false),
        sinks: Mutex::new(Sinks { ring: VecDeque::new(), jsonl: None, pretty: false }),
        metrics: Mutex::new(Vec::new()),
    })
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

/// Sets the global level gate (logging macros and event emission).
pub fn set_level(level: Level) {
    tracer().level.store(level as u8, Ordering::Relaxed);
}

/// The current global level.
pub fn level() -> Level {
    Level::from_u8(tracer().level.load(Ordering::Relaxed))
}

/// Whether `level` passes the global gate.
pub fn enabled(level: Level) -> bool {
    (level as u8) <= tracer().level.load(Ordering::Relaxed)
}

/// Whether any structured sink is active (events will be stored).
pub fn recording() -> bool {
    tracer().recording.load(Ordering::Relaxed)
}

fn refresh_recording(s: &Sinks, capture: bool) {
    tracer().recording.store(capture || s.jsonl.is_some(), Ordering::Relaxed);
}

/// Starts capturing events into the in-memory ring buffer (used by tests
/// and the CLI when assembling manifests without a `--trace-out` file).
pub fn capture_events(on: bool) {
    let t = tracer();
    t.capture.store(on, Ordering::Relaxed);
    let s = lock(&t.sinks);
    refresh_recording(&s, on);
}

/// Opens (or truncates) a JSONL file sink at `path`; every subsequent
/// event is appended as one compact JSON line. Installs a panic hook (on
/// first call) that flushes the sink, so a crashed campaign still leaves
/// a valid, parseable trace file.
pub fn open_jsonl(path: &std::path::Path) -> std::io::Result<()> {
    let file = std::fs::File::create(path)?;
    install_panic_flush();
    let t = tracer();
    let mut s = lock(&t.sinks);
    s.jsonl = Some(std::io::BufWriter::new(file));
    refresh_recording(&s, t.capture.load(Ordering::Relaxed));
    Ok(())
}

fn install_panic_flush() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            prev(info);
            // Best-effort: try_lock so a panic raised while the sink lock
            // is held (it never is, outside `emit`) cannot deadlock.
            if let Ok(mut s) = tracer().sinks.try_lock() {
                if let Some(w) = s.jsonl.as_mut() {
                    let _ = w.flush();
                }
            }
        }));
    });
}

/// Mirrors events to stderr in a compact human-readable form (the
/// "pretty sink"). Independent of the JSONL sink.
pub fn set_pretty_sink(on: bool) {
    lock(&tracer().sinks).pretty = on;
}

/// Flushes and closes the JSONL sink (no-op if none is open).
pub fn close_jsonl() {
    let t = tracer();
    let mut s = lock(&t.sinks);
    if let Some(mut w) = s.jsonl.take() {
        let _ = w.flush();
    }
    refresh_recording(&s, t.capture.load(Ordering::Relaxed));
}

/// Flushes the JSONL sink without closing it.
pub fn flush() {
    if let Some(w) = lock(&tracer().sinks).jsonl.as_mut() {
        let _ = w.flush();
    }
}

/// Drains and returns the captured ring-buffer events.
pub fn take_events() -> Vec<Event> {
    lock(&tracer().sinks).ring.drain(..).collect()
}

/// Nanoseconds since the trace epoch (first tracer touch in the process).
pub fn now_ns() -> u64 {
    tracer().epoch.elapsed().as_nanos() as u64
}

/// Emits one structured event (no-op unless [`recording`] and `level`
/// passes the gate).
pub fn emit(level: Level, kind: &'static str, fields: Vec<(&'static str, Json)>) {
    let t = tracer();
    if !t.recording.load(Ordering::Relaxed) || !enabled(level) {
        return;
    }
    let event = Event { ts_ns: now_ns(), level, kind, fields };
    let mut s = lock(&t.sinks);
    if s.pretty {
        let mut line = format!("[{:>12}ns] {:5} {}", event.ts_ns, level.as_str(), kind);
        for (k, v) in &event.fields {
            line.push_str(&format!(" {k}={v}"));
        }
        eprintln!("{line}");
    }
    if let Some(w) = s.jsonl.as_mut() {
        let _ = writeln!(w, "{}", event.to_json().to_compact());
    }
    if t.capture.load(Ordering::Relaxed) {
        if s.ring.len() >= RING_CAPACITY {
            s.ring.pop_front();
        }
        s.ring.push_back(event);
    }
}

/// An in-flight span; emits a `span` event with `dur_ns` when dropped.
///
/// Create via the [`span!`] macro.
#[must_use = "a span measures the scope it lives in"]
pub struct Span {
    name: &'static str,
    fields: Vec<(&'static str, Json)>,
    start: Instant,
    level: Level,
}

impl Span {
    /// Starts a span (prefer the [`span!`] macro). Spans nest: the name
    /// joins the current thread's span path until drop, so the
    /// self-profiler ([`profile_snapshot`]) aggregates a tree.
    pub fn enter(name: &'static str, fields: Vec<(&'static str, Json)>) -> Span {
        profile::span_enter(name);
        Span { name, fields, start: Instant::now(), level: Level::Debug }
    }

    /// Elapsed time since the span began.
    pub fn elapsed(&self) -> std::time::Duration {
        self.start.elapsed()
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let dur_ns = self.start.elapsed().as_nanos() as u64;
        // Profile aggregation is unconditional (a lock-protected map bump
        // per span drop); event emission stays behind the level gate.
        profile::span_exit(self.name, dur_ns);
        if !recording() || !enabled(self.level) {
            return;
        }
        let mut fields: Vec<(&'static str, Json)> =
            vec![("name", Json::from(self.name)), ("dur_ns", Json::from(dur_ns))];
        fields.append(&mut self.fields);
        emit(self.level, "span", fields);
    }
}

/// Opens a [`Span`]: `span!("campaign")` or
/// `span!("batch", layer = 3)`.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::Span::enter($name, ::std::vec::Vec::new())
    };
    ($name:expr, $($k:ident = $v:expr),+ $(,)?) => {
        $crate::Span::enter($name, vec![$((stringify!($k), $crate::Json::from($v))),+])
    };
}

/// Logs a line to **stderr** at `level` (suppressed by the global gate),
/// and mirrors it as a `log` event when recording. This is the trace-layer
/// replacement for ad-hoc `eprintln!` diagnostics.
#[macro_export]
macro_rules! logln {
    ($level:expr, $($arg:tt)*) => {
        if $crate::enabled($level) {
            let msg = format!($($arg)*);
            eprintln!("{msg}");
            $crate::emit($level, "log", vec![("msg", $crate::Json::from(msg))]);
        }
    };
}

/// Prints result output to **stdout** at [`Level::Info`] (so `--quiet`
/// suppresses it); the trace-layer replacement for ad-hoc `println!`.
#[macro_export]
macro_rules! outln {
    () => {
        if $crate::enabled($crate::Level::Info) { println!(); }
    };
    ($($arg:tt)*) => {
        if $crate::enabled($crate::Level::Info) {
            println!($($arg)*);
        }
    };
}

// ---------------------------------------------------------------------------
// Counters and histograms
// ---------------------------------------------------------------------------

/// A metric: a monotonically increasing counter plus value-distribution
/// aggregates (count/sum/min/max), all relaxed atomics — safe and cheap
/// to hammer from campaign worker threads.
#[derive(Debug)]
pub struct Metric {
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicI64,
    max: AtomicI64,
}

impl Metric {
    const fn new() -> Metric {
        Metric {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicI64::new(i64::MAX),
            max: AtomicI64::new(i64::MIN),
        }
    }

    /// Adds `n` occurrences (counter usage).
    pub fn add(&self, n: u64) {
        self.count.fetch_add(n, Ordering::Relaxed);
    }

    /// Records one observation `v` (histogram usage): bumps count, adds to
    /// sum, and folds min/max.
    pub fn record(&self, v: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        let vi = v.min(i64::MAX as u64) as i64;
        self.min.fetch_min(vi, Ordering::Relaxed);
        self.max.fetch_max(vi, Ordering::Relaxed);
    }

    /// Total occurrences / observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of recorded observations.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Mean observation (0.0 when empty).
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum() as f64 / n as f64
        }
    }

    /// Resets the metric to empty.
    pub fn reset(&self) {
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        self.min.store(i64::MAX, Ordering::Relaxed);
        self.max.store(i64::MIN, Ordering::Relaxed);
    }

    /// The metric as a JSON object (`count`, and when observations were
    /// recorded, `sum`/`mean`/`min`/`max`).
    pub fn to_json(&self) -> Json {
        let n = self.count();
        let sum = self.sum();
        if sum == 0 {
            return Json::obj([("count", Json::from(n))]);
        }
        Json::obj([
            ("count", Json::from(n)),
            ("sum", Json::from(sum)),
            ("mean", Json::Num(self.mean())),
            ("min", Json::from(self.min.load(Ordering::Relaxed).max(0) as u64)),
            ("max", Json::from(self.max.load(Ordering::Relaxed).max(0) as u64)),
        ])
    }
}

fn metric(name: &'static str) -> &'static Metric {
    let t = tracer();
    let mut reg = lock(&t.metrics);
    if let Some((_, m)) = reg.iter().find(|(n, _)| *n == name) {
        return m;
    }
    let m: &'static Metric = Box::leak(Box::new(Metric::new()));
    reg.push((name, m));
    m
}

/// Returns the process-global counter registered under `name`, creating
/// it on first use. Cache the returned reference (e.g. in a `OnceLock`)
/// on hot paths to skip the registry lock.
pub fn counter(name: &'static str) -> &'static Metric {
    metric(name)
}

/// Returns the process-global histogram registered under `name`
/// (the same [`Metric`] type; use [`Metric::record`]).
pub fn histogram(name: &'static str) -> &'static Metric {
    metric(name)
}

/// Snapshot of every registered metric, sorted by name (deterministic
/// manifest embedding).
pub fn metrics_snapshot() -> Vec<(String, Json)> {
    let reg = lock(&tracer().metrics);
    let mut out: Vec<(String, Json)> =
        reg.iter().map(|(n, m)| ((*n).to_string(), m.to_json())).collect();
    out.sort_by(|a, b| a.0.cmp(&b.0));
    out
}

/// Resets every registered metric (for overhead measurements in benches).
pub fn reset_metrics() {
    for (_, m) in lock(&tracer().metrics).iter() {
        m.reset();
    }
}

/// Serializes tests (across every module of this crate) that mutate
/// process-global tracer state — level, capture ring, sinks, profile
/// aggregate — so the parallel test runner cannot interleave drains.
#[cfg(test)]
pub(crate) fn test_serial() -> std::sync::MutexGuard<'static, ()> {
    static GATE: Mutex<()> = Mutex::new(());
    GATE.lock().unwrap_or_else(|p| p.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn serialize_tests() -> std::sync::MutexGuard<'static, ()> {
        crate::test_serial()
    }

    #[test]
    fn level_parse_and_order() {
        assert_eq!(Level::parse("debug"), Some(Level::Debug));
        assert_eq!(Level::parse("bogus"), None);
        assert!(Level::Error < Level::Trace);
        assert_eq!(Level::from_u8(Level::Warn as u8), Level::Warn);
    }

    #[test]
    fn capture_ring_records_events() {
        let _gate = serialize_tests();
        capture_events(true);
        set_level(Level::Trace);
        emit(Level::Info, "test_ring", vec![("k", Json::from(1u64))]);
        let events = take_events();
        capture_events(false);
        set_level(Level::Info);
        let e = events.iter().find(|e| e.kind == "test_ring").expect("captured");
        assert_eq!(e.fields[0].1, Json::Num(1.0));
        let j = e.to_json();
        assert_eq!(j.get("type").unwrap().as_str(), Some("test_ring"));
        assert!(j.get("ts_ns").unwrap().as_u64().is_some());
    }

    #[test]
    fn events_dropped_when_not_recording() {
        let _gate = serialize_tests();
        // Not recording → emit is a no-op (take_events stays empty of this
        // kind even after enabling capture later).
        emit(Level::Error, "test_dropped", vec![]);
        capture_events(true);
        let events = take_events();
        capture_events(false);
        assert!(events.iter().all(|e| e.kind != "test_dropped"));
    }

    #[test]
    fn span_emits_duration() {
        let _gate = serialize_tests();
        capture_events(true);
        set_level(Level::Trace);
        {
            let _s = span!("test_span", layer = 3usize);
        }
        let events = take_events();
        capture_events(false);
        set_level(Level::Info);
        let e = events
            .iter()
            .find(|e| {
                e.kind == "span"
                    && e.fields.iter().any(|(k, v)| *k == "name" && *v == Json::from("test_span"))
            })
            .expect("span event");
        let dur = e.fields.iter().find(|(k, _)| *k == "dur_ns").unwrap();
        assert!(dur.1.as_u64().is_some());
        assert!(e.fields.iter().any(|(k, v)| *k == "layer" && *v == Json::Num(3.0)));
    }

    #[test]
    fn metric_counter_and_histogram() {
        let c = counter("test.counter");
        c.reset();
        c.add(2);
        c.add(3);
        assert_eq!(c.count(), 5);
        let h = histogram("test.histogram");
        h.reset();
        h.record(10);
        h.record(30);
        assert_eq!(h.count(), 2);
        assert_eq!(h.sum(), 40);
        assert_eq!(h.mean(), 20.0);
        let j = h.to_json();
        assert_eq!(j.get("min").unwrap().as_u64(), Some(10));
        assert_eq!(j.get("max").unwrap().as_u64(), Some(30));
        // Same name → same metric.
        assert_eq!(counter("test.counter").count(), 5);
        let snap = metrics_snapshot();
        assert!(snap.iter().any(|(n, _)| n == "test.histogram"));
        // Sorted by name.
        let names: Vec<&String> = snap.iter().map(|(n, _)| n).collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted);
    }

    #[test]
    fn jsonl_sink_writes_lines() {
        let _gate = serialize_tests();
        let dir = std::env::temp_dir().join("goldeneye_trace_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sink.jsonl");
        open_jsonl(&path).unwrap();
        set_level(Level::Trace);
        emit(Level::Info, "test_sink", vec![("x", Json::from(7u64))]);
        close_jsonl();
        set_level(Level::Info);
        let text = std::fs::read_to_string(&path).unwrap();
        let line = text.lines().find(|l| l.contains("test_sink")).expect("line written");
        let v = parse(line).unwrap();
        assert_eq!(v.get("x").unwrap().as_u64(), Some(7));
        std::fs::remove_file(&path).ok();
    }
}
