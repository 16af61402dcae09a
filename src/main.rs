//! `musa` — command-line front door to the workspace.
//!
//! ```text
//! musa info   <file.mhdl> <entity>      parse/check/synthesize, print stats
//! musa synth  <file.mhdl> <entity>      emit the synthesized .bench netlist
//! musa mutants <file.mhdl> <entity>     enumerate the mutant population
//! musa faultsim <file.bench> [N] [SEED] grade N LFSR patterns (default 64;
//!                                       N × max(inputs, 1) ≤ 4194304)
//! musa scoap  <file.bench> [TOP]        SCOAP testability, hardest nets
//! musa atpg   <file.bench> [LIMIT]      PODEM over the collapsed faults
//! musa bench  <name>                    stats for a bundled benchmark
//! musa bench  [--quick] [--json]        benchmark trajectory: timed
//!             [--filter <bench>]        workload grid, musa.bench.v1
//!             [--baseline <file>]       report, regression gate against
//!             [--write] [--seed N]      a committed BENCH_<n>.json
//! musa sample <name> [FRACTION]         run a sampling experiment
//!             [--jobs N] [--seed N] [--paper] [--fast] [--json]
//!             [--store DIR]
//! musa campaign <request.json|->        run a musa.request.v1 campaign
//!             [--store DIR] [--json]
//! musa lint   <name>|--all|<file.mhdl>  run the static lint catalog;
//!             [--json]                  exit 1 when findings exist
//! musa list                             list bundled benchmarks
//! musa help                             print the full usage text
//! ```
//!
//! `sample` parses through the shared `musa_bench::cli` layer and runs
//! a `musa_core::Campaign`: repetitions (and each repetition's mutant
//! executions) shard across `--jobs` worker threads, and the lane
//! engine packs up to 63 mutants plus the reference machine into each
//! behavioral simulation pass. The outcome is bit-identical for every
//! job count.
//! `--json` emits the typed campaign report (`musa.campaign.v1`)
//! instead of text.
//!
//! `campaign` runs a request document in process; with `--store` it
//! (like `sample --store`) goes through the `musa_store` result store,
//! where campaigns are content-addressed by their resolved plan and
//! cached results replay byte-identically.

use musa::bench::campaign::{run_campaign, run_stored};
use musa::bench::cli::{
    emit_observability, parse_args, parse_seed, print_report, run_trajectory, BenchCommand,
    CliError, SampleArgs, BENCH_USAGE, LINT_FLAGS, LINT_USAGE,
};
use musa::bench::{out, outln};
use musa::circuits::{Benchmark, Circuit};
use musa::core::{
    lint_report_json, lint_source, render_lint_text, total_findings, Campaign, ReportData, Task,
};
use musa::hdl::{parse, CheckedDesign};
use musa::metrics::CoverageCurve;
use musa::mutation::{count_by_operator, generate_mutants, GenerateOptions};
use musa::netlist::{
    collapsed_faults, fault_simulate, parse_bench, write_bench, Netlist, Testability,
};
use musa::synth::synthesize;
use musa::testgen::{atpg_all, lfsr_patterns};
use std::process::ExitCode;

const USAGE: &str = "\
usage: musa <command> ...

  info     <file.mhdl> <entity>      parse/check/synthesize, print stats
  synth    <file.mhdl> <entity>      emit the synthesized .bench netlist
  mutants  <file.mhdl> <entity>      enumerate the mutant population
  faultsim <file.bench> [N] [SEED]   grade N LFSR patterns (default 64;
                                     N × max(inputs, 1) ≤ 4194304)
  scoap    <file.bench> [TOP]        SCOAP testability, hardest nets
  atpg     <file.bench> [LIMIT]      PODEM over the collapsed faults
  bench    <name>                    stats for one bundled benchmark
  bench    [--quick] [--json] [--filter <bench>] [--baseline <file>]
           [--write] [--seed N]      benchmark trajectory: timed workload
                                     grid, musa.bench.v1 report, regression
                                     gate against a committed BENCH_<n>.json
  bench    --history [--json]        per-cell median wall-time trajectory
           [--filter <bench>]        over the committed BENCH_<n>.json files
  sample   <name> [FRACTION]         run a sampling experiment
           [--jobs N] [--seed N] [--paper] [--fast] [--json]
           [--fault-reduce on|off] [--screen static|off] [--store DIR]
           [--trace FILE] [--trace-format json|chrome] [--profile]
           [--progress]
  campaign <request.json|->          run a musa.request.v1 campaign
           [--store DIR] [--json]    --store caches results in a
                                     content-addressed store (hits replay
                                     byte-identically)
  lint     <name>|--all|<file.mhdl>  run the static lint catalog over a
           [--json]                  benchmark (or every bundled one, or
                                     an .mhdl file); compiler-style text
                                     or musa.lint.v1 JSON; exit 1 when
                                     findings exist
  list                               list bundled benchmarks
  help                               print this text

observability (any command): --profile prints a per-phase wall/count
breakdown after the run and --progress emits coarse stderr progress
lines; `sample` and `bench` additionally accept --trace FILE
[--trace-format json|chrome] to save the collected spans + counters
(musa.trace.v1, or Chrome trace_event for Perfetto)

seeds (--seed N, faultsim's SEED) are decimal or 0x-prefixed hex, as
every report prints them
";

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    // `sample` and `bench` parse the observability flags themselves and
    // host the tracer inside their campaign (which owns the measured
    // wall clock). For every other subcommand, main hosts both: strip
    // `--profile`/`--progress` here, trace the dispatch inside one
    // `command` span, and render the breakdown against the whole
    // command's elapsed time.
    let campaign_owned = matches!(
        args.first().map(String::as_str),
        Some("sample") | Some("bench")
    );
    let mut profile = false;
    if !campaign_owned {
        args.retain(|arg| match arg.as_str() {
            "--profile" => {
                profile = true;
                false
            }
            "--progress" => {
                musa::trace::set_progress(true);
                false
            }
            _ => true,
        });
    }
    if !profile {
        return dispatch(&args);
    }
    let tracer = musa::trace::Tracer::new();
    let started = std::time::Instant::now();
    let code = {
        let _install = tracer.install();
        let _command = musa::trace::span("command");
        dispatch(&args)
    };
    out!("{}", musa::core::render_profile_data(&tracer.finish(), started.elapsed()));
    code
}

fn dispatch(args: &[String]) -> ExitCode {
    let result = match args.first().map(String::as_str) {
        Some("info") => cmd_info(&args[1..]),
        Some("synth") => cmd_synth(&args[1..]),
        Some("mutants") => cmd_mutants(&args[1..]),
        Some("faultsim") => cmd_faultsim(&args[1..]),
        Some("atpg") => cmd_atpg(&args[1..]),
        Some("scoap") => cmd_scoap(&args[1..]),
        Some("bench") => return cmd_bench(&args[1..]),
        Some("sample") => cmd_sample(&args[1..]),
        Some("campaign") => return ExitCode::from(run_campaign(&args[1..])),
        Some("lint") => return cmd_lint(&args[1..]),
        Some("list") => cmd_list(),
        Some("help") | Some("--help") | Some("-h") => {
            out!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        _ => {
            eprintln!(
                "usage: musa <info|synth|mutants|faultsim|atpg|scoap|bench|sample|campaign|lint|list|help> ..."
            );
            eprintln!("run `musa help` for per-command arguments");
            return ExitCode::from(2);
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}

fn load_design(args: &[String]) -> Result<(CheckedDesign, String), String> {
    let [path, entity] = args else {
        return Err("expected <file.mhdl> <entity>".into());
    };
    let source = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let design = parse(&source).map_err(|e| e.render(&source))?;
    let checked = CheckedDesign::new(design).map_err(|e| e.render(&source))?;
    if checked.entity_info(entity).is_none() {
        return Err(format!("no entity `{entity}`"));
    }
    Ok((checked, entity.clone()))
}

fn load_netlist(path: &str) -> Result<Netlist, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    parse_bench(&text, path).map_err(|e| e.to_string())
}

fn print_netlist_stats(nl: &Netlist) {
    outln!(
        "  {} inputs, {} outputs, {} gates, {} flops, depth {}",
        nl.inputs().len(),
        nl.outputs().len(),
        nl.gate_count(),
        nl.dff_count(),
        nl.depth()
    );
    outln!(
        "  collapsed stuck-at faults: {}",
        collapsed_faults(nl).len()
    );
}

fn cmd_info(args: &[String]) -> Result<(), String> {
    let (checked, entity) = load_design(args)?;
    let info = checked.entity_info(&entity).expect("load_design resolved the entity");
    outln!("{entity}:");
    outln!(
        "  {} data inputs ({} bits), {} outputs ({} bits), {}",
        info.data_inputs.len(),
        info.input_bits(),
        info.outputs.len(),
        info.output_bits(),
        if info.is_combinational() {
            "combinational"
        } else {
            "sequential"
        }
    );
    let nl = synthesize(&checked, &entity).map_err(|e| e.to_string())?;
    print_netlist_stats(&nl);
    Ok(())
}

fn cmd_synth(args: &[String]) -> Result<(), String> {
    let (checked, entity) = load_design(args)?;
    let nl = synthesize(&checked, &entity).map_err(|e| e.to_string())?;
    out!("{}", write_bench(&nl));
    Ok(())
}

fn cmd_mutants(args: &[String]) -> Result<(), String> {
    let (checked, entity) = load_design(args)?;
    let mutants = generate_mutants(&checked, &entity, &GenerateOptions::default());
    outln!("{} valid mutants:", mutants.len());
    for (op, count) in count_by_operator(&mutants) {
        outln!("  {:<4} {count:>5}   {}", op.acronym(), op.description());
    }
    Ok(())
}

/// The most pattern bits `musa faultsim` generates: `N` vectors of
/// `max(inputs, 1)` bits each, checked before any is generated.
const MAX_PATTERN_BITS: usize = 1 << 22;

fn cmd_faultsim(args: &[String]) -> Result<(), String> {
    let Some(path) = args.first() else {
        return Err("expected <file.bench> [vectors] [seed]".into());
    };
    let vectors: usize = args.get(1).map_or(Ok(64), |s| s.parse().map_err(|_| "bad vector count"))?;
    let seed: u64 = args.get(2).map_or(Ok(1), |s| parse_seed(s).ok_or("bad seed"))?;
    let nl = load_netlist(path)?;
    let width = nl.inputs().len().max(1);
    if !vectors.checked_mul(width).is_some_and(|bits| bits <= MAX_PATTERN_BITS) {
        return Err(format!(
            "{vectors} vectors of {width} bits exceed the {MAX_PATTERN_BITS}-bit pattern limit"
        ));
    }
    let faults = collapsed_faults(&nl);
    let patterns = lfsr_patterns(nl.inputs().len(), vectors, seed);
    let result = fault_simulate(&nl, &faults, &patterns);
    let curve = CoverageCurve::new(result.coverage_curve());
    outln!(
        "{}: {} faults, {} vectors -> {:.2}% coverage",
        nl.name(),
        faults.len(),
        vectors,
        100.0 * curve.final_coverage()
    );
    for (len, cov) in curve.sample(10) {
        outln!("  {len:>6} : {:>6.2}%", 100.0 * cov);
    }
    Ok(())
}

fn cmd_atpg(args: &[String]) -> Result<(), String> {
    let Some(path) = args.first() else {
        return Err("expected <file.bench> [backtrack-limit]".into());
    };
    let limit: u64 = args.get(1).map_or(Ok(10_000), |s| s.parse().map_err(|_| "bad limit"))?;
    let nl = load_netlist(path)?;
    if !nl.is_combinational() {
        return Err("PODEM targets combinational netlists".into());
    }
    let faults = collapsed_faults(&nl);
    let (_, stats) = atpg_all(&nl, &faults, limit);
    outln!(
        "{}: {} faults -> {} tested, {} untestable, {} aborted ({} backtracks)",
        nl.name(),
        stats.targeted,
        stats.tested,
        stats.untestable,
        stats.aborted,
        stats.backtracks
    );
    Ok(())
}

fn cmd_scoap(args: &[String]) -> Result<(), String> {
    let Some(path) = args.first() else {
        return Err("expected <file.bench> [top]".into());
    };
    let top: usize = args.get(1).map_or(Ok(10), |s| s.parse().map_err(|_| "bad count"))?;
    let nl = load_netlist(path)?;
    let scoap = Testability::analyze(&nl);
    outln!("{}: hardest nets (CC0/CC1/CO, combined effort):", nl.name());
    for (net, effort) in scoap.hardest_nets(&nl, top) {
        outln!(
            "  {:<16} cc0={:<6} cc1={:<6} co={:<6} effort={}",
            nl.net_name(net),
            scoap.cc0(net),
            scoap.cc1(net),
            scoap.co(net),
            effort
        );
    }
    Ok(())
}

fn cmd_bench(args: &[String]) -> ExitCode {
    match BenchCommand::parse(args) {
        Ok(BenchCommand::Legacy(name)) => match bench_stats(&name) {
            Ok(()) => ExitCode::SUCCESS,
            Err(message) => {
                eprintln!("error: {message}");
                ExitCode::FAILURE
            }
        },
        Ok(BenchCommand::Trajectory(trajectory)) if !trajectory.help => {
            ExitCode::from(run_trajectory(&trajectory))
        }
        parsed => usage_error(parsed.err(), BENCH_USAGE),
    }
}

/// A front end's usage error: the parse error (if any), then the usage
/// text, on stderr; exit 2.
fn usage_error(error: Option<CliError>, usage: &str) -> ExitCode {
    if let Some(error) = error {
        eprintln!("error: {error}");
    }
    eprintln!("{usage}");
    ExitCode::from(2)
}

fn bench_stats(name: &str) -> Result<(), String> {
    let bench = Benchmark::from_name(name).ok_or_else(|| format!("unknown benchmark `{name}`"))?;
    let circuit: Circuit = bench.load().map_err(|e| e.to_string())?;
    outln!("{}:", circuit.name);
    print_netlist_stats(&circuit.netlist);
    let mutants = generate_mutants(
        &circuit.checked,
        &circuit.name,
        &GenerateOptions::default(),
    );
    outln!("  mutant population: {}", mutants.len());
    Ok(())
}

/// `musa lint`: exit 0 when every target is clean, 1 when findings (or
/// a parse/check error in file mode) exist, 2 on usage errors and
/// unknown benchmark names — decided before any analysis runs.
fn cmd_lint(argv: &[String]) -> ExitCode {
    let args = match parse_args(argv, LINT_FLAGS, 1) {
        Ok(args) if !args.help && args.all != (args.positionals.len() == 1) => args,
        parsed => return usage_error(parsed.err(), LINT_USAGE),
    };
    let (json, target) = (args.json, args.positionals.first());
    // An explicit .mhdl path lints an on-disk file without a campaign.
    if let Some(path) = target.filter(|t| t.ends_with(".mhdl")) {
        return lint_file(path, json);
    }
    let benches: Vec<Benchmark> = if args.all {
        Benchmark::all().to_vec()
    } else {
        let name = target.expect("checked above: exactly one of --all/<name>");
        match Benchmark::from_name(name) {
            Some(bench) => vec![bench],
            None => {
                eprintln!("error: unknown benchmark `{name}` (see `musa list`)");
                return ExitCode::from(2);
            }
        }
    };
    let campaign = Campaign::new(benches[0]).benches(&benches).task(Task::Lint);
    let report = match campaign.run() {
        Ok(report) => report,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let ReportData::Lint(rows) = &report.data else {
        unreachable!("the lint task yields lint rows");
    };
    let findings = total_findings(rows);
    print_report(&report, json);
    exit_by_findings(findings)
}

/// File mode for `musa lint`: read, parse, check, lint one `.mhdl`.
fn lint_file(path: &str, json: bool) -> ExitCode {
    let source = match std::fs::read_to_string(path) {
        Ok(source) => source,
        Err(e) => {
            eprintln!("error: {path}: {e}");
            return ExitCode::from(2);
        }
    };
    let stem = std::path::Path::new(path)
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or(path)
        .to_string();
    let row = match lint_source(&stem, path, &source) {
        Ok(row) => row,
        Err(e) => {
            eprintln!("error: {}", e.render(&source));
            return ExitCode::FAILURE;
        }
    };
    let findings = total_findings(std::slice::from_ref(&row));
    if json {
        outln!(
            "{}",
            lint_report_json(std::slice::from_ref(&stem), std::slice::from_ref(&row))
        );
    } else {
        out!("{}", render_lint_text(std::slice::from_ref(&row)));
    }
    exit_by_findings(findings)
}

fn exit_by_findings(findings: usize) -> ExitCode {
    if findings == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn cmd_sample(args: &[String]) -> Result<(), String> {
    let sample = SampleArgs::parse(args)?;
    let (json, trace) = (sample.args.json, &sample.args.trace);
    musa::trace::set_progress(trace.progress);
    if let Some(dir) = &sample.args.store {
        let report = run_stored(&sample.campaign(), dir)?;
        print_report(&report, json);
        return Ok(());
    }
    let report = sample.campaign().run().map_err(|e| e.to_string())?;
    print_report(&report, json);
    emit_observability(&report, trace, json)
}

fn cmd_list() -> Result<(), String> {
    for bench in Benchmark::all() {
        outln!("{bench}");
    }
    Ok(())
}
