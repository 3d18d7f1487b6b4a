//! The `goldeneye trace` analysis toolchain: offline inspection of
//! `--trace-out` JSONL files and run manifests.
//!
//! Three tools, all pure functions over parsed traces so the test suite
//! drives them without a subprocess:
//!
//! * [`stats_report`] — what a trace contains: per-kind event counts, the
//!   span profile (by name and, when a manifest is embedded, the full
//!   path tree), the progress-heartbeat throughput timeline, and the
//!   slowest trials / layers.
//! * [`diff_manifests`] — metric and profile deltas between two run
//!   manifests, with a relative-threshold regression rule on
//!   `wall_time_s` and `trials_per_sec` (CI fails a PR on a non-empty
//!   [`DiffReport::regressions`]).
//! * [`export_folded`] — the manifest's profile tree in the flamegraph
//!   *folded stack* format (`path;to;span <exclusive_ns>` per line).

use std::collections::HashMap;
use std::fmt::Write as _;

use trace::{profile_folded, Json, ProfileNode, RunManifest};

/// How many rows the per-section leaderboards in [`stats_report`] and
/// [`diff_manifests`] print.
const TOP_N: usize = 10;

/// Renders `ns` as a human-readable duration.
fn fmt_ns(ns: u64) -> String {
    let s = ns as f64 / 1e9;
    if s >= 1.0 {
        format!("{s:.3}s")
    } else if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1}µs", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

/// Signed relative change `a → b` rendered as `+12.3%` (or `n/a` when the
/// baseline is zero).
fn fmt_rel(a: f64, b: f64) -> String {
    if a == 0.0 {
        if b == 0.0 {
            "+0.0%".to_string()
        } else {
            "n/a".to_string()
        }
    } else {
        format!("{:+.1}%", (b - a) / a * 100.0)
    }
}

// ---------------------------------------------------------------------------
// trace stats
// ---------------------------------------------------------------------------

/// Aggregate of all spans sharing one name in a JSONL trace.
#[derive(Debug, Default, Clone)]
struct SpanAgg {
    count: u64,
    total_ns: u64,
    max_ns: u64,
}

/// Validates a JSONL trace and renders the full `trace stats` report.
///
/// `source` is only used to label the report (a path, usually).
pub fn stats_report(source: &str, jsonl: &str) -> Result<String, String> {
    let summary = trace::validate_trace(jsonl)?;
    let mut out = String::new();
    let _ = writeln!(out, "trace stats: {source}");
    let _ = writeln!(
        out,
        "  {} line(s): {} trial(s), {} span(s), {} progress, {} log(s), {} manifest(s)",
        summary.lines,
        summary.trials,
        summary.spans,
        summary.progress,
        summary.logs,
        summary.manifests
    );

    // One decode pass; validate_trace has already guaranteed shape.
    let mut spans: HashMap<String, SpanAgg> = HashMap::new();
    // Every campaign trial is one `trial` span.
    let mut trial_spans: Vec<(u64, u64)> = Vec::new(); // (ns, layer)
    let mut layer_ns: HashMap<u64, (u64, u64)> = HashMap::new(); // layer -> (ns, trials)
    let mut heartbeats: Vec<(u64, String, u64, u64)> = Vec::new(); // (ts, phase, done, planned)
    let mut manifests: Vec<RunManifest> = Vec::new();
    for line in jsonl.lines().map(str::trim).filter(|l| !l.is_empty()) {
        let v = trace::parse(line).map_err(|e| e.to_string())?;
        match v.get("type").and_then(Json::as_str) {
            Some("span") => {
                let name = v.get("name").and_then(Json::as_str).unwrap_or("?");
                let dur = v.get("dur_ns").and_then(Json::as_u64).unwrap_or(0);
                let agg = spans.entry(name.to_string()).or_default();
                agg.count += 1;
                agg.total_ns += dur;
                agg.max_ns = agg.max_ns.max(dur);
                if name == "trial" {
                    let layer = v.get("layer").and_then(Json::as_u64).unwrap_or(0);
                    trial_spans.push((dur, layer));
                    let slot = layer_ns.entry(layer).or_default();
                    slot.0 += dur;
                    slot.1 += 1;
                }
            }
            Some("progress") => {
                heartbeats.push((
                    v.get("ts_ns").and_then(Json::as_u64).unwrap_or(0),
                    v.get("phase").and_then(Json::as_str).unwrap_or("?").to_string(),
                    v.get("done").and_then(Json::as_u64).unwrap_or(0),
                    v.get("planned").and_then(Json::as_u64).unwrap_or(0),
                ));
            }
            Some("manifest") => {
                let inner = v.get("manifest").unwrap_or(&v);
                manifests.push(RunManifest::from_json(inner)?);
            }
            _ => {}
        }
    }

    if !spans.is_empty() {
        let mut rows: Vec<(&String, &SpanAgg)> = spans.iter().collect();
        rows.sort_by(|a, b| b.1.total_ns.cmp(&a.1.total_ns).then(a.0.cmp(b.0)));
        let _ = writeln!(out, "\n  spans (by total time):");
        let _ = writeln!(
            out,
            "    {:<20} {:>8} {:>12} {:>12} {:>12}",
            "name", "count", "total", "mean", "max"
        );
        for (name, agg) in rows.iter().take(TOP_N) {
            let _ = writeln!(
                out,
                "    {:<20} {:>8} {:>12} {:>12} {:>12}",
                name,
                agg.count,
                fmt_ns(agg.total_ns),
                fmt_ns(agg.total_ns / agg.count.max(1)),
                fmt_ns(agg.max_ns)
            );
        }
    }

    if !trial_spans.is_empty() {
        trial_spans.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        let _ = writeln!(out, "\n  slowest trials:");
        for (ns, layer) in trial_spans.iter().take(TOP_N.min(5)) {
            let _ = writeln!(out, "    layer {layer:>3}  {:>10}", fmt_ns(*ns));
        }
        let mut layers: Vec<(u64, (u64, u64))> = layer_ns.into_iter().collect();
        layers.sort_by(|a, b| b.1 .0.cmp(&a.1 .0).then(a.0.cmp(&b.0)));
        let _ = writeln!(out, "\n  slowest layers (summed trial spans):");
        for (layer, (ns, count)) in layers.iter().take(TOP_N.min(5)) {
            let _ = writeln!(
                out,
                "    layer {layer:>3}  {:>12} over {count} trial(s)  ({} mean)",
                fmt_ns(*ns),
                fmt_ns(ns / count.max(&1))
            );
        }
    }

    if heartbeats.len() > 1 {
        let _ = writeln!(out, "\n  throughput timeline (from progress heartbeats):");
        let t0 = heartbeats[0].0;
        let mut prev: Option<(u64, u64)> = None; // (ts, done)
        for (ts, phase, done, planned) in &heartbeats {
            let elapsed = ts.saturating_sub(t0) as f64 / 1e9;
            let rate = match prev {
                Some((pts, pdone)) if *ts > pts && *done >= pdone => {
                    format!("{:>10.1}/s", (done - pdone) as f64 / ((ts - pts) as f64 / 1e9))
                }
                _ => format!("{:>12}", "-"),
            };
            let _ =
                writeln!(out, "    +{elapsed:>8.3}s  {phase:<16} {done:>8}/{planned:<8} {rate}");
            prev = Some((*ts, *done));
        }
    } else if let Some((_, phase, done, planned)) = heartbeats.first() {
        let _ = writeln!(out, "\n  progress: {phase} {done}/{planned} (single heartbeat)");
    }

    for m in &manifests {
        let _ =
            writeln!(out, "\n  manifest: {} ({}), wall {:.3}s", m.tool, m.version, m.wall_time_s);
        if !m.profile.is_empty() {
            let _ = writeln!(out, "  profile (inclusive time per span path):");
            render_profile(&mut out, &m.profile, "    ", m.wall_time_s);
        }
    }
    Ok(out)
}

/// Renders a profile tree with inclusive/exclusive times, indented two
/// spaces per level; `wall_s > 0` adds a percent-of-wall column.
fn render_profile(out: &mut String, roots: &[ProfileNode], indent: &str, wall_s: f64) {
    for node in roots {
        let pct = if wall_s > 0.0 {
            format!("  ({:.1}% of wall)", node.inclusive_ns as f64 / 1e9 / wall_s * 100.0)
        } else {
            String::new()
        };
        let _ = writeln!(
            out,
            "{indent}{:<24} x{:<6} incl {:>12}  excl {:>12}{pct}",
            node.name,
            node.count,
            fmt_ns(node.inclusive_ns),
            fmt_ns(node.exclusive_ns)
        );
        let deeper = format!("{indent}  ");
        render_profile(out, &node.children, &deeper, 0.0);
    }
}

// ---------------------------------------------------------------------------
// trace diff
// ---------------------------------------------------------------------------

/// The outcome of [`diff_manifests`]: a rendered report plus the list of
/// threshold-crossing regressions (empty = pass; CI keys its exit code
/// off [`DiffReport::has_regression`]).
#[derive(Debug, Clone)]
pub struct DiffReport {
    /// The human-readable diff, one section per compared dimension.
    pub text: String,
    /// One line per regression: a headline metric moved the wrong way by
    /// more than the threshold.
    pub regressions: Vec<String>,
}

impl DiffReport {
    /// Whether any headline metric regressed beyond the threshold.
    pub fn has_regression(&self) -> bool {
        !self.regressions.is_empty()
    }
}

/// Numeric extras worth diffing, in display order. The first two are
/// *headline* metrics: moving past the threshold in the bad direction
/// (slower / fewer trials per second) is a regression.
const HEADLINE: [(&str, bool); 2] = [
    // (key, higher_is_better)
    ("wall_time_s", false),
    ("trials_per_sec", true),
];

/// Looks up a numeric field by key in a manifest's extras.
fn extra_num(m: &RunManifest, key: &str) -> Option<f64> {
    m.extra.iter().find(|(k, _)| k == key).and_then(|(_, v)| v.as_f64())
}

/// Flattens a profile tree into `path -> inclusive_ns` (folded-stack path
/// keys, `;`-joined).
fn flatten_profile(roots: &[ProfileNode], prefix: &str, out: &mut Vec<(String, u64)>) {
    for node in roots {
        let path =
            if prefix.is_empty() { node.name.clone() } else { format!("{prefix};{}", node.name) };
        out.push((path.clone(), node.inclusive_ns));
        flatten_profile(&node.children, &path, out);
    }
}

/// Compares two run manifests: headline metrics (with the regression
/// rule), shared numeric extras, counters, and the profile tree.
///
/// `threshold` is the allowed relative change of a headline metric in
/// its bad direction (e.g. `0.10` = 10% slower fails).
pub fn diff_manifests(a: &RunManifest, b: &RunManifest, threshold: f64) -> DiffReport {
    let mut text = String::new();
    let mut regressions = Vec::new();
    let _ = writeln!(
        text,
        "trace diff: {} vs {} (threshold {:.1}%)",
        a.tool,
        b.tool,
        threshold * 100.0
    );

    // Headline metrics drive the exit code. wall_time_s lives on the
    // struct; the rest are numeric extras.
    let mut headline_row = |key: &str, higher_is_better: bool, va: Option<f64>, vb: Option<f64>| {
        let (va, vb) = match (va, vb) {
            (Some(x), Some(y)) => (x, y),
            _ => return,
        };
        let bad = if va > 0.0 {
            if higher_is_better {
                (va - vb) / va > threshold
            } else {
                (vb - va) / va > threshold
            }
        } else {
            false
        };
        let marker = if bad { "  ** REGRESSION **" } else { "" };
        let _ = writeln!(text, "  {key:<20} {va:>12.4} -> {vb:>12.4}  {}{marker}", fmt_rel(va, vb));
        if bad {
            regressions.push(format!("{key}: {va:.4} -> {vb:.4} ({})", fmt_rel(va, vb)));
        }
    };
    for (key, higher_is_better) in HEADLINE {
        let (va, vb) = if key == "wall_time_s" {
            (Some(a.wall_time_s), Some(b.wall_time_s))
        } else {
            (extra_num(a, key), extra_num(b, key))
        };
        headline_row(key, higher_is_better, va, vb);
    }

    // Informational numeric extras shared by both manifests.
    let mut shown = false;
    for (key, va) in &a.extra {
        if HEADLINE.iter().any(|(h, _)| h == key) {
            continue;
        }
        let (va, vb) = match (va.as_f64(), extra_num(b, key)) {
            (Some(x), Some(y)) => (x, y),
            _ => continue,
        };
        if !shown {
            let _ = writeln!(text, "  metrics:");
            shown = true;
        }
        let _ = writeln!(text, "    {key:<20} {va:>12.4} -> {vb:>12.4}  {}", fmt_rel(va, vb));
    }

    // Counters: shared keys whose counts changed, largest relative move
    // first.
    let counters_b: HashMap<&str, f64> = b
        .counters
        .iter()
        .filter_map(|(k, v)| {
            v.get("count").or(Some(v)).and_then(Json::as_f64).map(|n| (k.as_str(), n))
        })
        .collect();
    let mut counter_rows: Vec<(String, f64, f64)> = a
        .counters
        .iter()
        .filter_map(|(k, v)| {
            let va = v.get("count").or(Some(v)).and_then(Json::as_f64)?;
            let vb = *counters_b.get(k.as_str())?;
            (va != vb).then(|| (k.clone(), va, vb))
        })
        .collect();
    counter_rows.sort_by(|x, y| {
        let rx = if x.1 != 0.0 { ((x.2 - x.1) / x.1).abs() } else { f64::INFINITY };
        let ry = if y.1 != 0.0 { ((y.2 - y.1) / y.1).abs() } else { f64::INFINITY };
        ry.partial_cmp(&rx).unwrap_or(std::cmp::Ordering::Equal).then(x.0.cmp(&y.0))
    });
    if !counter_rows.is_empty() {
        let _ = writeln!(text, "  counters (changed):");
        for (k, va, vb) in counter_rows.iter().take(TOP_N) {
            let _ = writeln!(text, "    {k:<36} {va:>12} -> {vb:>12}  {}", fmt_rel(*va, *vb));
        }
    }

    // Profile: inclusive-time deltas on shared span paths.
    let (mut fa, mut fb) = (Vec::new(), Vec::new());
    flatten_profile(&a.profile, "", &mut fa);
    flatten_profile(&b.profile, "", &mut fb);
    let fb: HashMap<String, u64> = fb.into_iter().collect();
    let mut prof_rows: Vec<(String, u64, u64)> =
        fa.into_iter().filter_map(|(path, na)| fb.get(&path).map(|&nb| (path, na, nb))).collect();
    prof_rows.sort_by(|x, y| {
        let dx = x.2.abs_diff(x.1);
        let dy = y.2.abs_diff(y.1);
        dy.cmp(&dx).then(x.0.cmp(&y.0))
    });
    if !prof_rows.is_empty() {
        let _ = writeln!(text, "  profile (inclusive ns, shared paths):");
        for (path, na, nb) in prof_rows.iter().take(TOP_N) {
            let _ = writeln!(
                text,
                "    {path:<36} {:>12} -> {:>12}  {}",
                fmt_ns(*na),
                fmt_ns(*nb),
                fmt_rel(*na as f64, *nb as f64)
            );
        }
    }

    if regressions.is_empty() {
        let _ = writeln!(text, "  result: ok (no headline metric moved past the threshold)");
    } else {
        let _ = writeln!(text, "  result: {} regression(s)", regressions.len());
    }
    DiffReport { text, regressions }
}

// ---------------------------------------------------------------------------
// trace export
// ---------------------------------------------------------------------------

/// The manifest's profile tree as flamegraph folded stacks (one
/// `path;to;span <exclusive_ns>` line per node with self time).
///
/// Returns an error when the manifest carries no profile (nothing to
/// export is almost always a pipeline mistake worth failing loudly).
pub fn export_folded(m: &RunManifest) -> Result<String, String> {
    if m.profile.is_empty() {
        return Err(format!(
            "manifest for `{}` has no profile tree (was it written by an older build?)",
            m.tool
        ));
    }
    Ok(profile_folded(&m.profile))
}

/// Loads a run manifest from a file: either a plain manifest JSON (the
/// `--manifest` artifact) or a JSONL trace whose last manifest event is
/// used (the `--trace-out` artifact).
pub fn load_manifest(path: &str) -> Result<RunManifest, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
    // A pretty-printed manifest parses as one JSON document.
    if let Ok(v) = trace::parse(&text) {
        let inner = v.get("manifest").cloned().unwrap_or(v);
        return RunManifest::from_json(&inner).map_err(|e| format!("{path}: {e}"));
    }
    // Otherwise treat it as JSONL and take the last manifest event.
    let mut last = None;
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let v = trace::parse(line).map_err(|e| format!("{path}: line {}: {e}", i + 1))?;
        if v.get("type").and_then(Json::as_str) == Some("manifest") {
            let inner = v.get("manifest").cloned().unwrap_or(v);
            last = Some(RunManifest::from_json(&inner).map_err(|e| format!("{path}: {e}"))?);
        }
    }
    last.ok_or_else(|| format!("{path}: no manifest found (plain JSON or JSONL event)"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use trace::TrialRecord;

    fn manifest(wall: f64, tps: f64) -> RunManifest {
        let mut m = RunManifest::new("goldeneye campaign")
            .with_config("seed", 0u64)
            .with_extra("avg_delta_loss", 0.25)
            .with_extra("trials_per_sec", tps);
        m.wall_time_s = wall;
        m.counters = vec![("campaign.trials".into(), Json::obj([("count", Json::from(100u64))]))];
        m.profile = vec![ProfileNode {
            name: "campaign".into(),
            count: 1,
            inclusive_ns: (wall * 1e9) as u64,
            exclusive_ns: 1000,
            children: vec![ProfileNode {
                name: "trial".into(),
                count: 100,
                inclusive_ns: (wall * 0.9e9) as u64,
                exclusive_ns: (wall * 0.9e9) as u64,
                children: Vec::new(),
            }],
        }];
        m
    }

    #[test]
    fn diff_identical_manifests_is_clean() {
        let m = manifest(2.0, 50.0);
        let report = diff_manifests(&m, &m, 0.10);
        assert!(!report.has_regression(), "{}", report.text);
        assert!(report.text.contains("wall_time_s"));
        assert!(report.text.contains("result: ok"));
    }

    #[test]
    fn diff_flags_wall_time_regression() {
        let a = manifest(2.0, 50.0);
        let b = manifest(3.0, 50.0); // 50% slower
        let report = diff_manifests(&a, &b, 0.10);
        assert!(report.has_regression(), "{}", report.text);
        assert!(report.regressions[0].contains("wall_time_s"), "{:?}", report.regressions);
        assert!(report.text.contains("** REGRESSION **"));
        // The other direction (faster) is not a regression.
        assert!(!diff_manifests(&b, &a, 0.10).has_regression());
    }

    #[test]
    fn diff_flags_throughput_regression() {
        let a = manifest(2.0, 50.0);
        let b = manifest(2.0, 30.0); // 40% fewer trials/sec
        let report = diff_manifests(&a, &b, 0.10);
        assert!(report.has_regression());
        assert!(report.regressions.iter().any(|r| r.contains("trials_per_sec")));
        // Within threshold: 5% slower passes at 10%.
        let c = manifest(2.1, 48.0);
        assert!(!diff_manifests(&a, &c, 0.10).has_regression());
    }

    #[test]
    fn diff_reports_profile_and_counter_deltas() {
        let a = manifest(2.0, 50.0);
        let mut b = manifest(2.0, 50.0);
        b.counters = vec![("campaign.trials".into(), Json::obj([("count", Json::from(200u64))]))];
        let report = diff_manifests(&a, &b, 0.10);
        assert!(report.text.contains("campaign.trials"), "{}", report.text);
        assert!(report.text.contains("campaign;trial"), "{}", report.text);
    }

    #[test]
    fn export_folded_round_trips_profile() {
        let m = manifest(1.0, 100.0);
        let folded = export_folded(&m).unwrap();
        assert!(folded.contains("campaign 1000\n"), "{folded}");
        assert!(folded.contains("campaign;trial"), "{folded}");
        let empty = RunManifest::new("bare");
        assert!(export_folded(&empty).is_err());
    }

    #[test]
    fn stats_report_covers_spans_progress_and_manifest() {
        let mut m = manifest(2.0, 50.0);
        m.snapshot_counters();
        let trial = TrialRecord {
            layer: 1,
            layer_name: "conv".into(),
            trial: 0,
            site: "value".into(),
            element: Some(3),
            bit: Some(4),
            delta_loss: Some(0.5),
            mismatch: Some(0.1),
            worker: 0,
        };
        let jsonl = format!(
            "{}\n{}\n{}\n{}\n{}\n{}\n{}\n",
            r#"{"ts_ns":1000,"level":"debug","type":"span","name":"trial","layer":1,"dur_ns":4000}"#,
            r#"{"ts_ns":2000,"level":"debug","type":"span","name":"trial","layer":2,"dur_ns":8000}"#,
            r#"{"ts_ns":2500,"level":"debug","type":"span","name":"trial","layer":2,"dur_ns":10000}"#,
            r#"{"ts_ns":3000,"level":"debug","type":"span","name":"campaign","dur_ns":20000}"#,
            r#"{"ts_ns":1000000,"level":"info","type":"progress","phase":"campaign","done":8,"planned":16}"#,
            r#"{"ts_ns":2000000,"level":"info","type":"progress","phase":"campaign","done":16,"planned":16}"#,
            trial.to_json().to_compact(),
        );
        let jsonl = format!("{jsonl}{}\n", m.to_json().to_compact());
        let report = stats_report("test.jsonl", &jsonl).unwrap();
        assert!(report.contains("4 span(s)"), "{report}");
        assert!(report.contains("slowest trials:\n    layer   2      10.0µs\n"), "{report}");
        assert!(report.contains("18.0µs over 2 trial(s)  (9.0µs mean)"), "{report}");
        assert!(report.contains("throughput timeline"), "{report}");
        assert!(report.contains("goldeneye campaign"), "{report}");
        assert!(report.contains("% of wall"), "{report}");
    }

    #[test]
    fn stats_report_rejects_malformed_traces() {
        assert!(stats_report("x", "not json\n").is_err());
        assert!(stats_report("x", "{\"type\":\"wormhole\"}\n").is_err());
    }
}
