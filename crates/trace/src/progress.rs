//! Streaming progress: periodic `progress` heartbeat events on the active
//! sinks plus an opt-in live stderr status line.
//!
//! Heartbeats are the event stream a future `goldeneye serve` would
//! forward to clients, so their *content* is deterministic: callers emit
//! them at schedule-invariant points (campaign wave-round boundaries, DSE
//! nodes, evaluation batches), and every wall-clock- or schedule-derived
//! field (`elapsed_s`, `per_sec`, `eta_s`, `jobs`, `cache_hit_rate`) is
//! registered in [`crate::names::PROGRESS_VOLATILE_FIELDS`] and stripped
//! by [`canonical_progress`] — the same treatment timestamps get in the
//! serial-vs-parallel byte-identity contract.

use crate::json::Json;
use crate::names;
use crate::Level;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

static STATUS_LINE: AtomicBool = AtomicBool::new(false);

/// Enables/disables the live stderr status line (`--progress`). Off by
/// default: heartbeats then go only to the structured sinks.
pub fn set_status_line(on: bool) {
    STATUS_LINE.store(on, Ordering::Relaxed);
}

/// Whether the live status line is enabled.
pub fn status_line_enabled() -> bool {
    STATUS_LINE.load(Ordering::Relaxed)
}

/// Minimum milliseconds between status-line repaints.
const STATUS_THROTTLE_MS: u128 = 100;

/// A progress tracker for one long-running phase: counts work done,
/// emits `progress` heartbeat events, and repaints the status line.
///
/// Thread-safe: workers call [`Progress::add`] concurrently; heartbeats
/// are emitted from the coordinating thread at deterministic boundaries.
pub struct Progress {
    label: &'static str,
    planned: u64,
    done: AtomicU64,
    start: Instant,
    paint: Mutex<PaintState>,
}

struct PaintState {
    last: Option<Instant>,
    width: usize,
}

impl Progress {
    /// Starts tracking `planned` units of work for the phase `label`.
    pub fn new(label: &'static str, planned: u64) -> Progress {
        Progress {
            label,
            planned,
            done: AtomicU64::new(0),
            start: Instant::now(),
            paint: Mutex::new(PaintState { last: None, width: 0 }),
        }
    }

    /// Records `n` completed units; returns the new total.
    pub fn add(&self, n: u64) -> u64 {
        self.done.fetch_add(n, Ordering::Relaxed) + n
    }

    /// Records `n` completed units and repaints the status line
    /// (throttled) **without** emitting an event — the live path worker
    /// threads call per unit of work. Heartbeat events stay on the
    /// coordinating thread's deterministic schedule.
    pub fn tick(&self, n: u64) -> u64 {
        let done = self.add(n);
        self.paint_status(false);
        done
    }

    /// Units completed so far.
    pub fn done(&self) -> u64 {
        self.done.load(Ordering::Relaxed)
    }

    /// Units planned in total.
    pub fn planned(&self) -> u64 {
        self.planned
    }

    /// Seconds since the tracker started.
    pub fn elapsed_s(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    /// Completed units per second (0.0 before any time has passed).
    pub fn per_sec(&self) -> f64 {
        let dt = self.elapsed_s();
        if dt > 0.0 {
            self.done() as f64 / dt
        } else {
            0.0
        }
    }

    /// Estimated seconds to completion (`None` until throughput exists).
    pub fn eta_s(&self) -> Option<f64> {
        let rate = self.per_sec();
        if rate > 0.0 && self.planned >= self.done() {
            Some((self.planned - self.done()) as f64 / rate)
        } else {
            None
        }
    }

    /// Emits one `progress` heartbeat: deterministic content first
    /// (`phase`, `done`, `planned`, then the caller's `extra` fields),
    /// volatile timing fields last. Repaints the status line (throttled)
    /// and flushes the JSONL sink so a live `tail -f` sees it.
    ///
    /// Call this at schedule-invariant points only — the byte-determinism
    /// contract covers the canonical content of every heartbeat.
    pub fn heartbeat(&self, extra: Vec<(&'static str, Json)>) {
        let done = self.done();
        let mut fields: Vec<(&'static str, Json)> = vec![
            ("phase", Json::from(self.label)),
            ("done", Json::from(done)),
            ("planned", Json::from(self.planned)),
        ];
        fields.extend(extra);
        fields.push(("elapsed_s", Json::Num(self.elapsed_s())));
        fields.push(("per_sec", Json::Num(self.per_sec())));
        if let Some(eta) = self.eta_s() {
            fields.push(("eta_s", Json::Num(eta)));
        }
        crate::emit(Level::Info, names::KIND_PROGRESS, fields);
        crate::flush();
        self.paint_status(false);
    }

    /// Final repaint + newline so the status line doesn't swallow the
    /// next log line. Does not emit an event (the caller's last
    /// [`Progress::heartbeat`] already did).
    pub fn finish(&self) {
        if !status_line_enabled() {
            return;
        }
        self.paint_status(true);
        let mut p = self.paint.lock().unwrap_or_else(|e| e.into_inner());
        if p.width > 0 {
            eprintln!();
            p.width = 0;
        }
    }

    fn paint_status(&self, force: bool) {
        if !status_line_enabled() {
            return;
        }
        let mut p = self.paint.lock().unwrap_or_else(|e| e.into_inner());
        if !force {
            if let Some(last) = p.last {
                if last.elapsed().as_millis() < STATUS_THROTTLE_MS {
                    return;
                }
            }
        }
        p.last = Some(Instant::now());
        let done = self.done();
        let pct = if self.planned > 0 { 100.0 * done as f64 / self.planned as f64 } else { 0.0 };
        let eta = match self.eta_s() {
            Some(s) => format!(" eta {s:.0}s"),
            None => String::new(),
        };
        let line = format!(
            "[{}] {done}/{} ({pct:.1}%) {:.1}/s{eta}",
            self.label,
            self.planned,
            self.per_sec(),
        );
        // Pad over the previous paint so a shrinking line leaves no tail.
        let pad = p.width.saturating_sub(line.len());
        eprint!("\r{line}{}", " ".repeat(pad));
        let _ = std::io::Write::flush(&mut std::io::stderr());
        p.width = line.len();
    }
}

/// The canonical (deterministic) content of a `progress` event: the
/// object with every [`names::PROGRESS_VOLATILE_FIELDS`] key removed,
/// serialized compactly. Two runs of the same campaign at any
/// `--jobs`/batch size produce byte-identical canonical heartbeats.
pub fn canonical_progress(v: &Json) -> String {
    match v {
        Json::Obj(fields) => Json::Obj(
            fields
                .iter()
                .filter(|(k, _)| !names::PROGRESS_VOLATILE_FIELDS.contains(&k.as_str()))
                .cloned()
                .collect(),
        )
        .to_compact(),
        other => other.to_compact(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn progress_counts_and_rates() {
        let p = Progress::new("test_phase", 10);
        assert_eq!(p.add(3), 3);
        assert_eq!(p.add(2), 5);
        assert_eq!(p.done(), 5);
        assert_eq!(p.planned(), 10);
        // Some time has passed by now, so throughput is finite & positive.
        assert!(p.per_sec() >= 0.0);
    }

    #[test]
    fn canonical_progress_strips_volatile_fields() {
        let raw = crate::parse(
            r#"{"ts_ns":1,"level":"info","type":"progress","phase":"campaign","done":64,"planned":128,"wave":2,"jobs":4,"cache_hit_rate":0.5,"elapsed_s":0.1,"per_sec":640.0,"eta_s":0.1}"#,
        )
        .unwrap();
        let canon = canonical_progress(&raw);
        assert_eq!(
            canon,
            r#"{"level":"info","type":"progress","phase":"campaign","done":64,"planned":128,"wave":2}"#
        );
    }

    #[test]
    fn heartbeat_event_validates() {
        // Serialize against other trace tests that toggle global capture.
        let _gate = crate::test_serial();
        crate::capture_events(true);
        let p = Progress::new("test_hb", 4);
        p.add(2);
        p.heartbeat(vec![("wave", Json::from(1u64))]);
        let events = crate::take_events();
        crate::capture_events(false);
        let hb = events.iter().find(|e| e.kind == "progress").expect("heartbeat captured");
        let v = hb.to_json();
        crate::validate::validate_event(&v).expect("heartbeat validates");
        assert_eq!(v.get("done").unwrap().as_u64(), Some(2));
        assert_eq!(v.get("planned").unwrap().as_u64(), Some(4));
        assert_eq!(v.get("phase").unwrap().as_str(), Some("test_hb"));
        assert_eq!(v.get("wave").unwrap().as_u64(), Some(1));
        assert!(v.get("elapsed_s").is_some());
    }
}
