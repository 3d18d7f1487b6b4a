//! Run manifests: machine-readable JSON records of every campaign /
//! evaluate / DSE / bench run, so `results/` holds regenerable artifacts
//! instead of hand-pasted text (MPGemmFI-style replayable records).

use crate::json::Json;
use crate::profile::ProfileNode;
use std::borrow::Cow;

/// The manifest schema version this build writes (and the only one it
/// reads). Stamped as the `schema` field; manifests written before the
/// field existed are read as the current version.
pub const SCHEMA_VERSION: u64 = 1;

/// The goldeneye-rs version string embedded in every manifest —
/// git-describe-style when the build sets `GOLDENEYE_GIT_DESCRIBE`,
/// otherwise the crate version.
pub fn version() -> String {
    match option_env!("GOLDENEYE_GIT_DESCRIBE") {
        Some(git) => format!("goldeneye-rs {} ({git})", env!("CARGO_PKG_VERSION")),
        None => format!("goldeneye-rs {}", env!("CARGO_PKG_VERSION")),
    }
}

/// Summary statistics of one observed quantity (a plain-data mirror of
/// `metrics::RunningStats`, so the manifest schema has no cross-crate
/// dependency).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct StatsSummary {
    /// Number of (finite) observations.
    pub count: u64,
    /// Sample mean.
    pub mean: f32,
    /// Sample standard deviation.
    pub std_dev: f32,
    /// Smallest observation, if any.
    pub min: Option<f32>,
    /// Largest observation, if any.
    pub max: Option<f32>,
}

impl StatsSummary {
    /// The summary as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("count", Json::from(self.count)),
            ("mean", Json::from(self.mean)),
            ("std_dev", Json::from(self.std_dev)),
            ("min", Json::from(self.min)),
            ("max", Json::from(self.max)),
        ])
    }

    /// Parses a summary back from its JSON object.
    pub fn from_json(v: &Json) -> Result<StatsSummary, String> {
        let num = |k: &str| v.get(k).and_then(Json::as_f64).ok_or_else(|| format!("missing `{k}`"));
        Ok(StatsSummary {
            count: v.get("count").and_then(Json::as_u64).ok_or("missing `count`")?,
            mean: num("mean")? as f32,
            std_dev: num("std_dev")? as f32,
            min: v.get("min").and_then(Json::as_f64).map(|x| x as f32),
            max: v.get("max").and_then(Json::as_f64).map(|x| x as f32),
        })
    }
}

/// Per-layer result record of an injection campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerRecord {
    /// Instrumented-layer index (or weight-parameter index).
    pub layer: usize,
    /// Layer / parameter name.
    pub name: String,
    /// Injections that actually fired.
    pub injections: usize,
    /// ΔLoss statistics.
    pub delta_loss: StatsSummary,
    /// Mismatch-rate statistics.
    pub mismatch: StatsSummary,
}

impl LayerRecord {
    /// The record as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("layer", Json::from(self.layer)),
            ("name", Json::from(self.name.as_str())),
            ("injections", Json::from(self.injections)),
            ("delta_loss", self.delta_loss.to_json()),
            ("mismatch", self.mismatch.to_json()),
        ])
    }

    /// Parses a record back from its JSON object.
    pub fn from_json(v: &Json) -> Result<LayerRecord, String> {
        Ok(LayerRecord {
            layer: v.get("layer").and_then(Json::as_u64).ok_or("layer record: missing `layer`")?
                as usize,
            name: v
                .get("name")
                .and_then(Json::as_str)
                .ok_or("layer record: missing `name`")?
                .to_string(),
            injections: v
                .get("injections")
                .and_then(Json::as_u64)
                .ok_or("layer record: missing `injections`")? as usize,
            delta_loss: StatsSummary::from_json(
                v.get("delta_loss").ok_or("layer record: missing `delta_loss`")?,
            )?,
            mismatch: StatsSummary::from_json(
                v.get("mismatch").ok_or("layer record: missing `mismatch`")?,
            )?,
        })
    }
}

/// One fault-injection trial: site, bit, outcome — a replayable record
/// (the seed plus `(layer, trial)` regenerate the exact fault).
#[derive(Debug, Clone, PartialEq)]
pub struct TrialRecord {
    /// Instrumented-layer index (or weight-parameter index).
    pub layer: usize,
    /// Layer / parameter name.
    pub layer_name: String,
    /// Trial index within the layer.
    pub trial: usize,
    /// Fault site kind (`"value"` | `"metadata"`). Campaigns borrow the
    /// static name, so a record holds no heap string for it;
    /// [`TrialRecord::from_json`] owns whatever string it reads.
    pub site: Cow<'static, str>,
    /// Flat element index (value faults) or metadata word (metadata
    /// faults); `None` if the injection never fired.
    pub element: Option<usize>,
    /// Bit position flipped; `None` if the injection never fired.
    pub bit: Option<usize>,
    /// ΔLoss outcome; `None` if the injection never fired.
    pub delta_loss: Option<f32>,
    /// Mismatch-rate outcome; `None` if the injection never fired.
    pub mismatch: Option<f32>,
    /// Id of the executor worker that ran the trial (0 in serial runs).
    /// Excluded from [`TrialRecord::canonical_line`], which is what the
    /// serial-vs-parallel bit-identity contract is audited against.
    pub worker: usize,
}

impl TrialRecord {
    fn payload(&self) -> Vec<(&'static str, Json)> {
        vec![
            ("layer", Json::from(self.layer)),
            ("name", Json::from(self.layer_name.as_str())),
            ("trial", Json::from(self.trial)),
            ("site", Json::from(&*self.site)),
            ("element", Json::from(self.element)),
            ("bit", Json::from(self.bit)),
            ("delta_loss", Json::from(self.delta_loss)),
            ("mismatch", Json::from(self.mismatch)),
        ]
    }

    /// The fields of the record's `trial` event: [`TrialRecord::to_json`]
    /// without its `type` key, in the same order.
    pub fn event_fields(&self) -> Vec<(&'static str, Json)> {
        let mut fields = self.payload();
        fields.push(("worker", Json::from(self.worker)));
        fields
    }

    /// The full record as a JSON object (including `worker`).
    pub fn to_json(&self) -> Json {
        Json::obj(std::iter::once(("type", Json::from("trial"))).chain(self.event_fields()))
    }

    /// The canonical single-line serialization: fixed field order,
    /// **without** the worker id or any timestamp — so records from a
    /// parallel run, sorted by `(layer, trial)`, are byte-identical to a
    /// serial run's.
    pub fn canonical_line(&self) -> String {
        Json::obj(self.payload()).to_compact()
    }

    /// Parses a trial record from its JSON object (accepts both the full
    /// and the canonical form; a missing `worker` reads as 0).
    pub fn from_json(v: &Json) -> Result<TrialRecord, String> {
        let opt_usize = |k: &str| v.get(k).and_then(Json::as_u64).map(|n| n as usize);
        let opt_f32 = |k: &str| v.get(k).and_then(Json::as_f64).map(|n| n as f32);
        Ok(TrialRecord {
            layer: v.get("layer").and_then(Json::as_u64).ok_or("trial: missing `layer`")? as usize,
            layer_name: v
                .get("name")
                .and_then(Json::as_str)
                .ok_or("trial: missing `name`")?
                .to_string(),
            trial: v.get("trial").and_then(Json::as_u64).ok_or("trial: missing `trial`")? as usize,
            site: Cow::Owned(
                v.get("site").and_then(Json::as_str).ok_or("trial: missing `site`")?.to_string(),
            ),
            element: opt_usize("element"),
            bit: opt_usize("bit"),
            delta_loss: opt_f32("delta_loss"),
            mismatch: opt_f32("mismatch"),
            worker: opt_usize("worker").unwrap_or(0),
        })
    }
}

/// The run manifest: everything needed to audit or regenerate one
/// campaign / evaluation / DSE / bench run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RunManifest {
    /// What produced the run (`"goldeneye campaign"`, `"bench fig7"`, …).
    pub tool: String,
    /// goldeneye-rs version ([`version`]).
    pub version: String,
    /// The command-line arguments of the run.
    pub command: Vec<String>,
    /// Configuration: seed, format spec/params, jobs, injection counts, …
    pub config: Vec<(String, Json)>,
    /// Wall-clock duration of the run in seconds.
    pub wall_time_s: f64,
    /// Per-layer campaign results (empty for non-campaign runs).
    pub layers: Vec<LayerRecord>,
    /// Running-mean convergence trace of the headline metric, if tracked.
    pub convergence: Vec<f32>,
    /// Snapshot of the trace counters/histograms at the end of the run.
    pub counters: Vec<(String, Json)>,
    /// Self-profiler tree (inclusive/exclusive ns per span path) captured
    /// at the end of the run ([`RunManifest::snapshot_profile`]).
    pub profile: Vec<ProfileNode>,
    /// Experiment-specific payload (sweep rows, DSE nodes, accuracies…).
    pub extra: Vec<(String, Json)>,
}

impl RunManifest {
    /// Starts a manifest for `tool`, stamping version and argv.
    pub fn new(tool: &str) -> RunManifest {
        RunManifest {
            tool: tool.to_string(),
            version: version(),
            command: std::env::args().collect(),
            ..Default::default()
        }
    }

    /// Adds one config entry (builder style).
    #[must_use]
    pub fn with_config(mut self, key: &str, value: impl Into<Json>) -> RunManifest {
        self.config.push((key.to_string(), value.into()));
        self
    }

    /// Adds one extra-payload entry (builder style).
    #[must_use]
    pub fn with_extra(mut self, key: &str, value: impl Into<Json>) -> RunManifest {
        self.extra.push((key.to_string(), value.into()));
        self
    }

    /// Captures the current global metric registry into `counters`.
    pub fn snapshot_counters(&mut self) {
        self.counters = crate::metrics_snapshot();
    }

    /// Captures the current self-profiler tree into `profile`.
    pub fn snapshot_profile(&mut self) {
        self.profile = crate::profile_snapshot();
    }

    /// The manifest as a JSON object.
    pub fn to_json(&self) -> Json {
        let mut fields: Vec<(String, Json)> = vec![
            ("type".into(), Json::from("manifest")),
            ("schema".into(), Json::from(SCHEMA_VERSION)),
            ("tool".into(), Json::from(self.tool.as_str())),
            ("version".into(), Json::from(self.version.as_str())),
            (
                "command".into(),
                Json::Arr(self.command.iter().map(|a| Json::from(a.as_str())).collect()),
            ),
            ("config".into(), Json::Obj(self.config.clone())),
            ("wall_time_s".into(), Json::Num(self.wall_time_s)),
        ];
        if !self.layers.is_empty() {
            fields.push((
                "layers".into(),
                Json::Arr(self.layers.iter().map(LayerRecord::to_json).collect()),
            ));
        }
        if !self.convergence.is_empty() {
            fields.push((
                "convergence".into(),
                Json::Arr(self.convergence.iter().map(|&x| Json::from(x)).collect()),
            ));
        }
        if !self.counters.is_empty() {
            fields.push(("counters".into(), Json::Obj(self.counters.clone())));
        }
        if !self.profile.is_empty() {
            fields.push(("profile".into(), crate::profile_to_json(&self.profile)));
        }
        for (k, v) in &self.extra {
            fields.push((k.clone(), v.clone()));
        }
        Json::Obj(fields)
    }

    /// Parses a manifest back from its JSON object.
    pub fn from_json(v: &Json) -> Result<RunManifest, String> {
        crate::validate::validate_manifest(v)?;
        let str_field = |k: &str| v.get(k).and_then(Json::as_str).unwrap_or_default().to_string();
        let known = [
            "type",
            "schema",
            "tool",
            "version",
            "command",
            "config",
            "wall_time_s",
            "layers",
            "convergence",
            "counters",
            "profile",
        ];
        let mut extra = Vec::new();
        if let Json::Obj(fields) = v {
            for (k, val) in fields {
                if !known.contains(&k.as_str()) {
                    extra.push((k.clone(), val.clone()));
                }
            }
        }
        Ok(RunManifest {
            tool: str_field("tool"),
            version: str_field("version"),
            command: v
                .get("command")
                .and_then(Json::as_arr)
                .map(|a| a.iter().filter_map(|x| x.as_str().map(String::from)).collect())
                .unwrap_or_default(),
            config: match v.get("config") {
                Some(Json::Obj(fields)) => fields.clone(),
                _ => Vec::new(),
            },
            wall_time_s: v.get("wall_time_s").and_then(Json::as_f64).unwrap_or(0.0),
            layers: v
                .get("layers")
                .and_then(Json::as_arr)
                .map(|a| a.iter().map(LayerRecord::from_json).collect::<Result<_, _>>())
                .transpose()?
                .unwrap_or_default(),
            convergence: v
                .get("convergence")
                .and_then(Json::as_arr)
                .map(|a| a.iter().filter_map(|x| x.as_f64().map(|n| n as f32)).collect())
                .unwrap_or_default(),
            counters: match v.get("counters") {
                Some(Json::Obj(fields)) => fields.clone(),
                _ => Vec::new(),
            },
            profile: match v.get("profile") {
                Some(p) => crate::profile_from_json(p)?,
                None => Vec::new(),
            },
            extra,
        })
    }

    /// Parses a manifest from a JSON string.
    pub fn from_json_str(s: &str) -> Result<RunManifest, String> {
        RunManifest::from_json(&crate::parse(s).map_err(|e| e.to_string())?)
    }

    /// Writes the manifest (pretty-printed) to `path`.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        std::fs::write(path, self.to_json().to_pretty() + "\n")
    }

    /// Emits the manifest as a structured `manifest` event on the active
    /// sinks (so a `--trace-out` JSONL is self-describing), then flushes
    /// the JSONL sink — the manifest is usually the last line a run
    /// writes, and it must survive an abnormal exit.
    pub fn emit(&self) {
        crate::emit(crate::Level::Info, "manifest", vec![("manifest", self.to_json())]);
        crate::flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_manifest() -> RunManifest {
        let mut m = RunManifest::new("test campaign")
            .with_config("seed", 7u64)
            .with_config("format", "bfp_e5m5_b16")
            .with_config("jobs", 4u64)
            .with_extra("note", "hello");
        m.wall_time_s = 1.25;
        m.layers = vec![LayerRecord {
            layer: 0,
            name: "stem".into(),
            injections: 5,
            delta_loss: StatsSummary {
                count: 5,
                mean: 0.5,
                std_dev: 0.1,
                min: Some(0.25),
                max: Some(0.75),
            },
            mismatch: StatsSummary {
                count: 5,
                mean: 0.0,
                std_dev: 0.0,
                min: Some(0.0),
                max: Some(0.0),
            },
        }];
        m.convergence = vec![0.5, 0.55, 0.53];
        m.profile = vec![ProfileNode {
            name: "campaign".into(),
            count: 1,
            inclusive_ns: 1000,
            exclusive_ns: 400,
            children: vec![ProfileNode {
                name: "trial".into(),
                count: 5,
                inclusive_ns: 600,
                exclusive_ns: 600,
                children: Vec::new(),
            }],
        }];
        m
    }

    #[test]
    fn manifest_round_trips() {
        let m = sample_manifest();
        let parsed = RunManifest::from_json_str(&m.to_json().to_pretty()).unwrap();
        assert_eq!(parsed.tool, m.tool);
        assert_eq!(parsed.config, m.config);
        assert_eq!(parsed.layers, m.layers);
        assert_eq!(parsed.convergence, m.convergence);
        assert_eq!(parsed.wall_time_s, m.wall_time_s);
        assert_eq!(parsed.profile, m.profile);
        assert_eq!(parsed.extra, m.extra);
        // Byte-stable across a second round trip (the schema stamp and
        // profile tree re-serialize identically).
        assert_eq!(parsed.to_json().to_compact(), m.to_json().to_compact());
    }

    #[test]
    fn version_is_stamped() {
        let m = RunManifest::new("x");
        assert!(m.version.starts_with("goldeneye-rs "));
        assert_eq!(m.tool, "x");
    }

    #[test]
    fn trial_record_round_trips_and_canonicalizes() {
        let t = TrialRecord {
            layer: 2,
            layer_name: "block1.conv2".into(),
            trial: 17,
            site: "value".into(),
            element: Some(1234),
            bit: Some(3),
            delta_loss: Some(0.125),
            mismatch: Some(0.0),
            worker: 3,
        };
        let parsed = TrialRecord::from_json(&t.to_json()).unwrap();
        assert_eq!(parsed, t);
        // Canonical form drops the worker id: two records differing only
        // in worker serialize identically.
        let mut other = t.clone();
        other.worker = 0;
        assert_eq!(t.canonical_line(), other.canonical_line());
        assert!(!t.canonical_line().contains("worker"));
        // A never-fired trial serializes its outcome as nulls.
        let dud =
            TrialRecord { element: None, bit: None, delta_loss: None, mismatch: None, ..t.clone() };
        assert!(dud.canonical_line().contains("\"delta_loss\":null"));
        let reparsed =
            TrialRecord::from_json(&crate::parse(&dud.canonical_line()).unwrap()).unwrap();
        assert_eq!(reparsed.delta_loss, None);
        assert_eq!(reparsed.worker, 0);
    }

    #[test]
    fn trial_record_bytes_do_not_depend_on_who_owns_the_site() {
        // Campaigns borrow the site name, parsed records own it; both
        // serialize to the same pinned bytes.
        let borrowed = TrialRecord {
            layer: 2,
            layer_name: "block1.conv2".into(),
            trial: 17,
            site: Cow::Borrowed("value"),
            element: Some(1234),
            bit: Some(3),
            delta_loss: Some(0.125),
            mismatch: Some(0.0),
            worker: 3,
        };
        let owned = TrialRecord { site: Cow::Owned("value".to_string()), ..borrowed.clone() };
        let canonical = r#"{"layer":2,"name":"block1.conv2","trial":17,"site":"value","element":1234,"bit":3,"delta_loss":0.125,"mismatch":0}"#;
        let full = r#"{"type":"trial","layer":2,"name":"block1.conv2","trial":17,"site":"value","element":1234,"bit":3,"delta_loss":0.125,"mismatch":0,"worker":3}"#;
        for t in [&borrowed, &owned] {
            assert_eq!(t.canonical_line(), canonical);
            assert_eq!(t.to_json().to_compact(), full);
        }
        let parsed = TrialRecord::from_json(&crate::parse(full).unwrap()).unwrap();
        assert!(matches!(parsed.site, Cow::Owned(_)));
        assert_eq!(parsed, borrowed);
        // `from_json` takes any site string, not only the two kinds.
        let other = crate::parse(&full.replace("\"value\"", "\"weight\"")).unwrap();
        assert_eq!(TrialRecord::from_json(&other).unwrap().site, "weight");
    }

    #[test]
    fn manifest_rejects_missing_fields() {
        assert!(RunManifest::from_json_str(r#"{"type":"manifest"}"#).is_err());
        assert!(RunManifest::from_json_str("[1,2]").is_err());
    }
}
