//! The `musa campaign` subcommand: run one `musa.request.v1` document
//! in process, through [`Campaign::run`], or through the result store
//! ([`RunCached`]) when `--store` is given.
//!
//! The exit-code contract lives here, next to the shared argument
//! parser, so `src/main.rs` stays a dispatcher and the contract is
//! testable: **2** for anything decided before computation starts (bad
//! flags, unreadable or malformed requests), **1** for runtime failures
//! (a failed run, an unusable store directory).

use crate::cli::{parse_args, print_report};
use musa_core::{Campaign, Report};
use musa_store::{RunCached, Store};
use std::io::Read as _;

/// The `musa campaign` usage line.
pub const CAMPAIGN_USAGE: &str = "usage: musa campaign <request.json|-> [--store DIR] [--json]";

/// The flags of `musa campaign`; `-` names the request on stdin.
pub const CAMPAIGN_FLAGS: &[&str] = &["-", "--store", "--json"];

/// A `musa campaign` failure, tagged with its exit-code class.
enum Failure {
    /// A caller mistake, decided before any computation: exit 2.
    Usage(String),
    /// A runtime failure: exit 1.
    Runtime(String),
}

/// Runs `musa campaign` over everything after the subcommand and
/// returns the process exit code: 0 on success, 2 for a usage error
/// (followed by the usage line), 1 for a runtime failure.
pub fn run_campaign(args: &[String]) -> u8 {
    match parse_and_run(args) {
        Ok(()) => 0,
        Err(Failure::Usage(message)) => {
            eprintln!("error: {message}");
            if !message.contains("usage:") {
                eprintln!("{CAMPAIGN_USAGE}");
            }
            2
        }
        Err(Failure::Runtime(message)) => {
            eprintln!("error: {message}");
            1
        }
    }
}

fn parse_and_run(argv: &[String]) -> Result<(), Failure> {
    let args = parse_args(argv, CAMPAIGN_FLAGS, 1).map_err(|e| Failure::Usage(e.to_string()))?;
    let Some(request) = args.positionals.first().filter(|_| !args.help) else {
        return Err(Failure::Usage(CAMPAIGN_USAGE.to_string()));
    };
    let request_text = read_request(request)?;
    let campaign = musa_store::request::parse_request(&request_text).map_err(Failure::Usage)?;
    campaign.plan().map_err(|e| Failure::Usage(e.to_string()))?;
    let report = match &args.store {
        None => campaign.run().map_err(|e| e.to_string()),
        Some(dir) => run_stored(&campaign, dir),
    }
    .map_err(Failure::Runtime)?;
    print_report(&report, args.json);
    Ok(())
}

/// Reads a request document from a path, or stdin for `-`.
fn read_request(path: &str) -> Result<String, Failure> {
    if path == "-" {
        let mut text = String::new();
        std::io::stdin()
            .read_to_string(&mut text)
            .map_err(|e| Failure::Usage(format!("reading request from stdin: {e}")))?;
        Ok(text)
    } else {
        std::fs::read_to_string(path).map_err(|e| Failure::Usage(format!("{path}: {e}")))
    }
}

/// Runs `campaign` through the result store in `dir` and reports on
/// stderr how the store served it (`store: hit <key>`,
/// `store: miss <key>` or `store: bypass`). Shared by `musa campaign
/// --store` and `musa sample --store`.
///
/// # Errors
///
/// A message when the store directory cannot be opened or the
/// campaign fails.
pub fn run_stored(campaign: &Campaign, dir: &str) -> Result<Report, String> {
    let store = Store::open(dir).map_err(|e| format!("--store {dir}: {e}"))?;
    let run = campaign.run_cached(&store).map_err(|e| e.to_string())?;
    match &run.key {
        Some(key) => eprintln!("store: {} {key}", run.outcome.label()),
        None => eprintln!("store: {}", run.outcome.label()),
    }
    Ok(run.report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn campaign_args_parse_and_reject() {
        let args =
            parse_args(&strings(&["req.json", "--store", "d", "--json"]), CAMPAIGN_FLAGS, 1)
                .unwrap();
        assert_eq!(args.positionals, ["req.json"]);
        assert_eq!(args.store.as_deref(), Some("d"));
        assert!(args.json);
        assert_eq!(
            parse_args(&strings(&["-"]), CAMPAIGN_FLAGS, 1).unwrap().positionals,
            ["-"],
            "stdin spelling"
        );
        for flag in CAMPAIGN_FLAGS.iter().filter(|f| f.starts_with("--")) {
            assert!(CAMPAIGN_USAGE.contains(flag), "usage lacks {flag}");
        }
        // Every usage error exits 2 before any request is read.
        for argv in [
            &[][..],
            &["--help"],
            &["req.json", "--store"],
            &["req.json", "--store", "--json"],
            &["a.json", "b.json"],
            &["req.json", "--bogus"],
            &["req.json", "--workers", "2"],
        ] {
            assert_eq!(run_campaign(&strings(argv)), 2, "{argv:?}");
        }
    }
}
