//! `BENCHMARK.json`: the one place metric names, units, directions and
//! bounds are written down. The benchmark reads it at start-up, reports
//! exactly the metrics it names, and refuses to report anything else.

use serde_json::Value;
use std::path::Path;

#[derive(Clone, Debug)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    /// `"lower"` or `"higher"`.
    pub better: String,
    /// Share of the parent's median the metric may worsen by; end-to-end
    /// metrics only.
    pub bound: Option<f64>,
}

#[derive(Clone, Debug)]
pub struct Spec {
    pub run_seconds: u64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
        && name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
}

fn field<'v>(object: &'v Value, key: &str) -> Result<&'v Value, String> {
    object.get(key).ok_or_else(|| format!("BENCHMARK.json: missing {key:?}"))
}

fn text(object: &Value, key: &str) -> Result<String, String> {
    field(object, key)?
        .as_str()
        .map(str::to_owned)
        .ok_or_else(|| format!("BENCHMARK.json: {key:?} is not a string"))
}

fn metrics(root: &Value, key: &str, bounded: bool) -> Result<Vec<MetricSpec>, String> {
    let list = field(root, key)?
        .as_array()
        .ok_or_else(|| format!("BENCHMARK.json: {key:?} not a list"))?;
    list.iter()
        .map(|m| {
            let name = text(m, "name")?;
            if !valid_name(&name) {
                return Err(format!("BENCHMARK.json: bad metric name {name:?}"));
            }
            let bound = match bounded {
                true => Some(
                    field(m, "bound")?
                        .as_f64()
                        .ok_or_else(|| format!("BENCHMARK.json: {name}: bound is not a number"))?,
                ),
                false => None,
            };
            Ok(MetricSpec { name, unit: text(m, "unit")?, better: text(m, "better")?, bound })
        })
        .collect()
}

impl Spec {
    /// Parses the text of a `BENCHMARK.json`.
    ///
    /// # Errors
    ///
    /// A description of the first missing or ill-typed field, or of a
    /// metric name outside `[A-Za-z0-9_.-]+`.
    pub fn parse(json: &str) -> Result<Spec, String> {
        let root: Value = serde_json::from_str(json).map_err(|e| format!("BENCHMARK.json: {e}"))?;
        let workloads = field(&root, "workloads")?
            .as_array()
            .ok_or("BENCHMARK.json: \"workloads\" not a list")?
            .iter()
            .map(|w| text(w, "name"))
            .collect::<Result<_, _>>()?;
        Ok(Spec {
            run_seconds: field(&root, "run_seconds")?
                .as_u64()
                .ok_or("BENCHMARK.json: \"run_seconds\" is not a whole number")?,
            workloads,
            end_to_end: metrics(&root, "end_to_end", true)?,
            per_layer: metrics(&root, "per_layer", false)?,
        })
    }

    /// Loads `BENCHMARK.json` from the repository root, whether the
    /// process runs there or inside `benchmark/`.
    ///
    /// # Errors
    ///
    /// As for [`Spec::parse`], or when the file cannot be read.
    pub fn load() -> Result<Spec, String> {
        let path = ["BENCHMARK.json", "../BENCHMARK.json"]
            .into_iter()
            .map(Path::new)
            .find(|p| p.is_file())
            .ok_or("BENCHMARK.json not found in . or ..")?;
        let json = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        Spec::parse(&json)
    }

    /// The metrics a run reports: end-to-end untraced, per-layer traced.
    pub fn reported(&self, traced: bool) -> &[MetricSpec] {
        if traced {
            &self.per_layer
        } else {
            &self.end_to_end
        }
    }
}
