//! The `musa.request.v1` wire format.
//!
//! A request document describes a campaign the way a *caller* would —
//! builder knobs, not a resolved configuration — so `musa campaign`
//! rebuilds the exact [`Campaign`] a library caller would hold, and
//! every derived artifact (preset label in the report header, the
//! campaign key, validation errors) comes out identically:
//!
//! ```json
//! {
//!   "schema": "musa.request.v1",
//!   "task": "sampling",
//!   "params": { "fraction": 0.5 },
//!   "benches": ["b01", "c17"],
//!   "seed": 7,
//!   "preset": "fast",
//!   "jobs": 2,
//!   "fault_reduce": "on",
//!   "screen": "static"
//! }
//! ```
//!
//! `task` and `benches` are required; everything else is optional and
//! defaults exactly like the builder (seed [`DEFAULT_SEED`], paper
//! preset, all jobs, reduction and screening on). A key the schema does
//! not name is not read: `"engine"` and `"opt"`, which requests once
//! used to pick an executor, key and run like a request without them.
//! Errors are strings meant for a CLI usage message — a malformed
//! request is a *caller* mistake and exits with code 2 before any
//! computation starts.
//!
//! [`DEFAULT_SEED`]: musa_core::DEFAULT_SEED

use musa_circuits::Benchmark;
use musa_core::json::{self, JsonValue};
use musa_core::{Campaign, Task};
use musa_mutation::MutationOperator;

/// The request schema tag.
pub const REQUEST_SCHEMA: &str = "musa.request.v1";

/// Parses a `musa.request.v1` document into a [`Campaign`] builder.
///
/// # Errors
///
/// Returns a human-readable description of the first problem found —
/// suitable for a usage message (exit code 2).
pub fn parse_request(text: &str) -> Result<Campaign, String> {
    let doc = json::parse(text).map_err(|e| format!("request is not valid JSON: {e}"))?;
    let schema = doc
        .get("schema")
        .and_then(JsonValue::as_str)
        .ok_or("request has no \"schema\" field")?;
    if schema != REQUEST_SCHEMA {
        return Err(format!("unsupported request schema `{schema}` (expected {REQUEST_SCHEMA})"));
    }

    let slug = doc
        .get("task")
        .and_then(JsonValue::as_str)
        .ok_or("request has no \"task\" field")?;
    let params = doc.get("params");
    let task = parse_task(slug, params)?;

    let bench_names = doc
        .get("benches")
        .and_then(JsonValue::as_arr)
        .ok_or("request has no \"benches\" array")?;
    if bench_names.is_empty() {
        return Err("request \"benches\" is empty".to_string());
    }
    let mut benches = Vec::with_capacity(bench_names.len());
    for name in bench_names {
        let name = name.as_str().ok_or("request \"benches\" must be strings")?;
        benches.push(
            Benchmark::from_name(name)
                .ok_or_else(|| format!("unknown benchmark `{name}` (see `musa list`)"))?,
        );
    }

    let mut campaign = Campaign::new(benches[0]).benches(&benches).task(task);
    if let Some(v) = doc.get("seed") {
        campaign = campaign.seed(v.as_u64().ok_or("request \"seed\" must be a non-negative integer")?);
    }
    if let Some(v) = doc.get("preset") {
        campaign = match v.as_str() {
            Some("paper") => campaign.paper(),
            Some("fast") => campaign.fast(),
            _ => return Err("request \"preset\" must be \"paper\" or \"fast\"".to_string()),
        };
    }
    if let Some(v) = doc.get("jobs") {
        campaign = campaign.jobs(v.as_usize().ok_or("request \"jobs\" must be a non-negative integer")?);
    }
    if let Some(v) = doc.get("fault_reduce") {
        let on = match v.as_str() {
            Some("on") => true,
            Some("off") => false,
            _ => return Err("request \"fault_reduce\" must be \"on\" or \"off\"".to_string()),
        };
        campaign = campaign.fault_reduce(on);
    }
    if let Some(v) = doc.get("screen") {
        let on = match v.as_str() {
            Some("static") => true,
            Some("off") => false,
            _ => return Err("request \"screen\" must be \"static\" or \"off\"".to_string()),
        };
        campaign = campaign.screen(on);
    }
    Ok(campaign)
}

fn require_params<'a>(slug: &str, params: Option<&'a JsonValue>) -> Result<&'a JsonValue, String> {
    params.ok_or_else(|| format!("task `{slug}` needs a \"params\" object"))
}

fn parse_task(slug: &str, params: Option<&JsonValue>) -> Result<Task, String> {
    let fraction = |params: Option<&JsonValue>| -> Result<f64, String> {
        require_params(slug, params)?
            .get("fraction")
            .and_then(JsonValue::as_f64)
            .ok_or_else(|| format!("task `{slug}` needs params.fraction (a number)"))
    };
    let operators = |params: Option<&JsonValue>| -> Result<Vec<MutationOperator>, String> {
        match require_params(slug, params)?.get("operators") {
            // Omitted operator list = the full catalog, like the CLI.
            None => Ok(MutationOperator::all().to_vec()),
            Some(v) => v
                .as_arr()
                .ok_or_else(|| format!("task `{slug}` params.operators must be an array"))?
                .iter()
                .map(|op| {
                    op.as_str()
                        .and_then(MutationOperator::from_acronym)
                        .ok_or_else(|| "unknown mutation operator in params.operators".to_string())
                })
                .collect(),
        }
    };
    match slug {
        "sampling" => Ok(Task::Sampling { fraction: fraction(params)? }),
        "table2" => Ok(Task::Table2 { fraction: fraction(params)? }),
        "operator-profile" => Ok(Task::OperatorProfile { operators: operators(params)? }),
        "table1" => Ok(Task::Table1 { operators: operators(params)? }),
        "mutation-guided" => Ok(Task::MutationGuided),
        "lint" => Ok(Task::Lint),
        "sweep-fraction" => {
            let fractions = require_params(slug, params)?
                .get("fractions")
                .and_then(JsonValue::as_arr)
                .ok_or("task `sweep-fraction` needs params.fractions (an array of numbers)")?
                .iter()
                .map(JsonValue::as_f64)
                .collect::<Option<Vec<_>>>()
                .ok_or("params.fractions must all be numbers")?;
            Ok(Task::SweepFraction { fractions })
        }
        "coverage-curves" => {
            let points = require_params(slug, params)?
                .get("points")
                .and_then(JsonValue::as_usize)
                .ok_or("task `coverage-curves` needs params.points (a count)")?;
            Ok(Task::CoverageCurves { points })
        }
        "atpg-topup" => {
            let backtrack_limit = require_params(slug, params)?
                .get("backtrack_limit")
                .and_then(JsonValue::as_u64)
                .ok_or("task `atpg-topup` needs params.backtrack_limit (a count)")?;
            Ok(Task::AtpgTopup { backtrack_limit })
        }
        "equivalence-ablation" => {
            let budgets = require_params(slug, params)?
                .get("budgets")
                .and_then(JsonValue::as_arr)
                .ok_or("task `equivalence-ablation` needs params.budgets (an array of counts)")?
                .iter()
                .map(JsonValue::as_usize)
                .collect::<Option<Vec<_>>>()
                .ok_or("params.budgets must all be counts")?;
            Ok(Task::EquivalenceAblation { budgets })
        }
        "bench" => {
            let quick = match params.and_then(|p| p.get("quick")) {
                None => false,
                Some(v) => v.as_bool().ok_or("params.quick must be a boolean")?,
            };
            Ok(Task::Bench { quick })
        }
        other => Err(format!("unknown task `{other}`")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CampaignKey;

    const FULL: &str = r#"{
        "schema": "musa.request.v1",
        "task": "sampling",
        "params": { "fraction": 0.5 },
        "benches": ["c17"],
        "seed": 7,
        "preset": "fast",
        "jobs": 2,
        "fault_reduce": "on",
        "screen": "static"
    }"#;

    #[test]
    fn a_full_request_rebuilds_the_builder_exactly() {
        let campaign = parse_request(FULL).unwrap();
        let direct = Campaign::named("c17")
            .fast()
            .seed(7)
            .jobs(2)
            .fault_reduce(true)
            .screen(true)
            .task(Task::Sampling { fraction: 0.5 });
        let (a, b) = (campaign.plan().unwrap(), direct.plan().unwrap());
        assert_eq!(CampaignKey::of(&a), CampaignKey::of(&b));
        assert_eq!(a.preset, b.preset, "preset label must survive the wire");
        assert_eq!(a.config.jobs, b.config.jobs);
    }

    #[test]
    fn a_retired_engine_key_is_not_read() {
        // Every sweep runs on the lane engine: a request that still
        // names `"engine"`, from when it chose between two engines,
        // plans the same key as one that does not, whatever it says.
        let key = |engine: &str| {
            let text = FULL.replace(r#""jobs": 2,"#, &format!(r#""jobs": 2,{engine}"#));
            CampaignKey::of(&parse_request(&text).unwrap().plan().unwrap())
        };
        for engine in [r#" "engine": "lanes","#, r#" "engine": "scalar","#, r#" "engine": 5,"#] {
            assert_eq!(key(engine), key(""), "{engine}");
        }
    }

    #[test]
    fn optional_knobs_default_like_the_builder() {
        let minimal = r#"{
            "schema": "musa.request.v1",
            "task": "mutation-guided",
            "benches": ["b01"]
        }"#;
        let plan = parse_request(minimal).unwrap().plan().unwrap();
        let direct = Campaign::named("b01").task(Task::MutationGuided).plan().unwrap();
        assert_eq!(CampaignKey::of(&plan), CampaignKey::of(&direct));
        assert_eq!(plan.config.seed, musa_core::DEFAULT_SEED);
    }

    #[test]
    fn every_task_slug_parses() {
        for (slug, params) in [
            ("sampling", r#"{ "fraction": 0.5 }"#),
            ("table2", r#"{ "fraction": 0.1 }"#),
            ("operator-profile", r#"{ "operators": ["LOR", "SDL"] }"#),
            ("table1", r#"{}"#),
            ("mutation-guided", r#"{}"#),
            ("sweep-fraction", r#"{ "fractions": [0.1, 0.2] }"#),
            ("coverage-curves", r#"{ "points": 8 }"#),
            ("atpg-topup", r#"{ "backtrack_limit": 50 }"#),
            ("equivalence-ablation", r#"{ "budgets": [100, 200] }"#),
            ("bench", r#"{ "quick": true }"#),
            ("lint", r#"{}"#),
        ] {
            let text = format!(
                r#"{{ "schema": "musa.request.v1", "task": "{slug}", "params": {params}, "benches": ["c17"] }}"#
            );
            let campaign = parse_request(&text)
                .unwrap_or_else(|e| panic!("task {slug} must parse: {e}"));
            assert_eq!(campaign.plan().unwrap().task.slug(), slug);
        }
    }

    #[test]
    fn malformed_requests_are_described() {
        for (text, needle) in [
            ("{ nope", "not valid JSON"),
            (r#"{ "schema": "musa.request.v2" }"#, "unsupported request schema"),
            (r#"{ "schema": "musa.request.v1", "benches": ["c17"] }"#, "no \"task\""),
            (
                r#"{ "schema": "musa.request.v1", "task": "sampling", "params": {}, "benches": ["c17"] }"#,
                "params.fraction",
            ),
            (
                r#"{ "schema": "musa.request.v1", "task": "sampling", "params": { "fraction": 0.5 }, "benches": ["c99"] }"#,
                "unknown benchmark `c99`",
            ),
            (
                r#"{ "schema": "musa.request.v1", "task": "sampling", "params": { "fraction": 0.5 }, "benches": [] }"#,
                "empty",
            ),
            (
                r#"{ "schema": "musa.request.v1", "task": "warp", "benches": ["c17"] }"#,
                "unknown task `warp`",
            ),
        ] {
            let err = parse_request(text).expect_err(text);
            assert!(err.contains(needle), "error `{err}` must mention `{needle}`");
        }
    }
}
