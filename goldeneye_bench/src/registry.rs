//! The metric registry is `BENCHMARK.json` itself, compiled in: every
//! metric's name and unit, and the run length. The
//! harness emits exactly the declared metrics; the tests below hold the
//! two in sync.

use std::collections::BTreeMap;
use trace::Json;

/// One declared metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Decl {
    /// Metric name.
    pub name: String,
    /// Its unit.
    pub unit: String,
    /// Allowed worsening, as a share of the baseline median (end-to-end
    /// metrics only).
    pub bound: Option<f64>,
}

/// The parsed `BENCHMARK.json`.
#[derive(Debug, Clone)]
pub struct Registry {
    /// Metrics reported by an untraced run.
    pub end_to_end: Vec<Decl>,
    /// Metrics reported by a traced run.
    pub per_layer: Vec<Decl>,
    /// Default measurement time of one run.
    pub run_seconds: f64,
}

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// The registry compiled into this binary.
pub fn registry() -> Registry {
    let root = trace::parse(BENCHMARK_JSON).expect("BENCHMARK.json is valid JSON");
    let list = |key: &str| root.get(key).and_then(Json::as_arr).unwrap_or(&[]).to_vec();
    let str_of = |v: &Json, key: &str| v.get(key).and_then(Json::as_str).unwrap_or("").to_string();
    let decls = |key: &str| -> Vec<Decl> {
        list(key)
            .iter()
            .map(|m| Decl {
                name: str_of(m, "name"),
                unit: str_of(m, "unit"),
                bound: m.get("bound").and_then(Json::as_f64),
            })
            .collect()
    };
    Registry {
        end_to_end: decls("end_to_end"),
        per_layer: decls("per_layer"),
        run_seconds: root.get("run_seconds").and_then(Json::as_f64).unwrap_or(10.0),
    }
}

/// The `metrics` object of a result line: every declared metric, in
/// declaration order, with its value and unit.
///
/// # Panics
///
/// Panics if `values` misses a declared metric or holds an undeclared one
/// — the harness and `BENCHMARK.json` disagree.
pub fn metrics_json(decls: &[Decl], values: &BTreeMap<String, f64>) -> Json {
    for name in values.keys() {
        assert!(decls.iter().any(|d| &d.name == name), "metric {name} is not in BENCHMARK.json");
    }
    Json::Obj(
        decls
            .iter()
            .map(|d| {
                let value = *values
                    .get(&d.name)
                    .unwrap_or_else(|| panic!("declared metric {} was not measured", d.name));
                (
                    d.name.clone(),
                    Json::obj([("value", Json::Num(value)), ("unit", Json::from(d.unit.as_str()))]),
                )
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.starts_with(|c: char| c.is_ascii_alphanumeric())
            && s.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn valid_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn declarations_are_well_formed() {
        let r = registry();
        let workloads = declared_workloads();
        let mut names: Vec<&str> = workloads.iter().map(String::as_str).collect();
        for d in r.end_to_end.iter().chain(&r.per_layer) {
            assert!(valid_name(&d.name), "bad metric name {:?}", d.name);
            assert!(valid_unit(&d.unit), "bad unit {:?} of {}", d.unit, d.name);
            names.push(&d.name);
        }
        for d in &r.end_to_end {
            let bound = d.bound.unwrap_or_else(|| panic!("{} has no bound", d.name));
            assert!(bound > 0.0 && bound <= 0.25, "{} bound {bound}", d.name);
        }
        assert!(r.per_layer.iter().all(|d| d.bound.is_none()));
        let setup = r.end_to_end.iter().find(|d| d.name == "setup_s").expect("setup_s declared");
        assert_eq!(setup.unit, "s");
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "a name is declared twice");
    }

    fn declared_workloads() -> Vec<String> {
        let root = trace::parse(BENCHMARK_JSON).unwrap();
        let list = root.get("workloads").and_then(Json::as_arr).unwrap();
        list.iter().map(|w| w.get("name").and_then(Json::as_str).unwrap().to_string()).collect()
    }

    #[test]
    fn workloads_match_the_harness() {
        let declared = declared_workloads();
        let harness: Vec<String> =
            crate::workloads::WORKLOADS.iter().map(|w| w.name.to_string()).collect();
        assert_eq!(declared, harness);
    }

    #[test]
    #[should_panic(expected = "not in BENCHMARK.json")]
    fn undeclared_metric_is_refused() {
        let decls = registry().end_to_end;
        let mut values: BTreeMap<String, f64> =
            decls.iter().map(|d| (d.name.clone(), 1.0)).collect();
        values.insert("no_such_metric".into(), 1.0);
        metrics_json(&decls, &values);
    }
}
