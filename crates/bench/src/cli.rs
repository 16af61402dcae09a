//! The one argument parser every `musa` CLI front end routes through.
//!
//! The six experiment binaries, `musa sample`, `musa bench`,
//! `musa campaign` and `musa lint` each hand [`parse_args`] the flags
//! they accept and get one [`Args`] back. [`Args::apply`] carries the
//! campaign knobs into a [`musa_core::Campaign`], and [`drive`] runs an
//! experiment binary end to end, so a binary's `main` is one line.
//! Default (non-`--json`) stdout is byte-identical to the pre-redesign
//! binaries — pinned by the CLI diff tests in `tests/cli_diff.rs`.

use musa_circuits::Benchmark;
use musa_core::{
    bench_history_json, chrome_json, compare, next_bench_path, render_bench_history,
    render_profile, trace_json, BenchReport, Campaign, CampaignError, ComparePolicy, Report,
    ReportData, Task, DEFAULT_BENCHES,
};
use musa_mutation::MutationOperator;
use std::fmt;

/// An argument a front end cannot use. Every front end words it the
/// same way; each keeps its own exit code.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CliError {
    /// `flag` had no value, or one it cannot read.
    Value {
        /// The flag as spelled on the command line.
        flag: &'static str,
        /// What the flag takes (`on|off`, `a file path`, …).
        expects: &'static str,
    },
    /// An argument the front end does not accept: a flag outside its
    /// list, or a positional beyond the number it takes.
    Unknown(String),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Value { flag, expects } => write!(f, "{flag} expects {expects}"),
            CliError::Unknown(arg) => write!(f, "unknown argument `{arg}`"),
        }
    }
}

impl std::error::Error for CliError {}

/// On-disk format for `--trace <file>`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum TraceFormat {
    /// The `musa.trace.v1` document (round-trips through
    /// `musa_core::json`).
    #[default]
    Json,
    /// Chrome `trace_event` format, loadable in Perfetto /
    /// `chrome://tracing`.
    Chrome,
}

/// The observability flag set shared by every front end:
/// `--trace <file>`, `--trace-format json|chrome`, `--profile`,
/// `--progress`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceOpts {
    /// `--trace <file>`: write the collected trace here after the run.
    pub trace: Option<String>,
    /// `--trace-format`: the file format for `--trace`.
    pub format: TraceFormat,
    /// `--profile`: print the per-phase breakdown after the run.
    pub profile: bool,
    /// `--progress`: coarse stderr progress lines while running.
    pub progress: bool,
}

impl TraceOpts {
    /// Whether the campaign needs a live tracer (a trace file or the
    /// profile table was requested). When `false` the campaign installs
    /// no tracer and every output stays bit-identical.
    pub fn wants_trace(&self) -> bool {
        self.trace.is_some() || self.profile
    }
}

/// Finishes a run's observability outputs: writes the `--trace` file
/// (in the selected format) and prints the `--profile` table — to
/// stdout normally, to stderr when stdout carries a `--json` document.
///
/// # Errors
///
/// Returns a message when the trace file cannot be written.
pub fn emit_observability(
    report: &Report,
    opts: &TraceOpts,
    json_stdout: bool,
) -> Result<(), String> {
    if let Some(path) = &opts.trace {
        let document = match opts.format {
            TraceFormat::Json => trace_json(report),
            TraceFormat::Chrome => chrome_json(report),
        }
        .expect("wants_trace() enabled the campaign tracer");
        std::fs::write(path, format!("{document}\n"))
            .map_err(|e| format!("--trace {path}: {e}"))?;
    }
    if opts.profile {
        let table = render_profile(report).expect("wants_trace() enabled the campaign tracer");
        if json_stdout {
            eprint!("{table}");
        } else {
            crate::out!("{table}");
        }
    }
    Ok(())
}

/// The flags of the six experiment binaries.
pub const BIN_FLAGS: &[&str] = &[
    "--fast", "--paper", "--json", "--seed", "--jobs", "--fault-reduce", "--screen",
    "--trace", "--trace-format", "--profile", "--progress",
];

/// The flags of `musa sample`: the experiment binaries' plus `--store`.
pub const SAMPLE_FLAGS: &[&str] = &[
    "--fast", "--paper", "--json", "--seed", "--jobs", "--fault-reduce", "--screen",
    "--trace", "--trace-format", "--profile", "--progress", "--store",
];

/// The flags of `musa bench`.
pub const BENCH_FLAGS: &[&str] = &[
    "--quick", "--json", "--filter", "--baseline", "--write", "--seed", "--history",
    "--trace", "--trace-format", "--profile", "--progress",
];

/// The flags of `musa lint`.
pub const LINT_FLAGS: &[&str] = &["--all", "--json"];

/// The `musa lint` usage line.
pub const LINT_USAGE: &str = "usage: musa lint <name>|--all|<file.mhdl> [--json]";

/// Every flag and positional a front end can be given, as parsed. A
/// knob left `None` keeps the campaign preset's value.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Args {
    /// `--help`/`-h` seen; parsing stopped there.
    pub help: bool,
    /// `--fast`: the scaled-down preset.
    pub fast: bool,
    /// `--paper`: the paper-scale preset (passing it *and* `--fast` is
    /// a campaign validation error).
    pub paper: bool,
    /// `--json`: print the report as JSON instead of text.
    pub json: bool,
    /// `--seed N`: master seed, decimal or `0x` hex.
    pub seed: Option<u64>,
    /// `--jobs N`: worker threads (`0` = one per available CPU).
    pub jobs: Option<usize>,
    /// `--fault-reduce on|off`: dominance fault-list reduction.
    pub fault_reduce: Option<bool>,
    /// `--screen static|off`: static equivalent-mutant pre-screening.
    pub screen: Option<bool>,
    /// `--trace`, `--trace-format`, `--profile`, `--progress`.
    pub trace: TraceOpts,
    /// `--store DIR`: run through the content-addressed result store.
    pub store: Option<String>,
    /// `--quick`: 1 warmup + 3 samples per bench cell; the baseline
    /// gate drops absolute wall time.
    pub quick: bool,
    /// `--write`: save the bench report as the next free
    /// `BENCH_<n>.json`.
    pub write: bool,
    /// `--history`: render the committed `BENCH_<n>.json` trajectory
    /// instead of measuring.
    pub history: bool,
    /// `--filter <bench>`: measure one benchmark only.
    pub filter: Option<String>,
    /// `--baseline <file>`: compare against a committed bench report.
    pub baseline: Option<String>,
    /// `--all`: every bundled benchmark.
    pub all: bool,
    /// Non-flag arguments, in order.
    pub positionals: Vec<String>,
}

/// Parses a front end's arguments (everything after the program or
/// subcommand name).
///
/// An argument that starts with `-` is a flag, and a flag outside
/// `accepts` is an error; `-` alone is a positional where `accepts`
/// lists it. `--help`/`-h` stops the parse: it sets [`Args::help`] and
/// leaves the rest of the line unread. A value that names a path never
/// starts with `-`, so a forgotten value never swallows the next flag.
///
/// # Errors
///
/// The [`CliError`] of the first offending argument, including any
/// positional beyond `max_positionals`.
///
/// # Panics
///
/// When `accepts` names a flag this parser does not handle.
pub fn parse_args(
    argv: &[String],
    accepts: &[&str],
    max_positionals: usize,
) -> Result<Args, CliError> {
    let mut args = Args::default();
    let mut rest = argv.iter();
    while let Some(arg) = rest.next() {
        let rest = &mut rest;
        match arg.as_str() {
            "--help" | "-h" => {
                args.help = true;
                break;
            }
            flag if flag.starts_with('-') && !accepts.contains(&flag) => {
                return Err(CliError::Unknown(flag.to_string()));
            }
            "--fast" => args.fast = true,
            "--paper" => args.paper = true,
            "--json" => args.json = true,
            "--quick" => args.quick = true,
            "--write" => args.write = true,
            "--history" => args.history = true,
            "--all" => args.all = true,
            "--profile" => args.trace.profile = true,
            "--progress" => args.trace.progress = true,
            "--seed" => {
                args.seed = Some(value(rest, "--seed", "a decimal or 0x-hex integer", parse_seed)?);
            }
            "--jobs" => {
                args.jobs = Some(value(rest, "--jobs", "a thread count", |v| v.parse().ok())?);
            }
            "--fault-reduce" => {
                args.fault_reduce = Some(value(rest, "--fault-reduce", "on|off", |v| match v {
                    "on" => Some(true),
                    "off" => Some(false),
                    _ => None,
                })?);
            }
            "--screen" => {
                args.screen = Some(value(rest, "--screen", "static|off", |v| match v {
                    "static" => Some(true),
                    "off" => Some(false),
                    _ => None,
                })?);
            }
            "--trace-format" => {
                args.trace.format = value(rest, "--trace-format", "json|chrome", |v| match v {
                    "json" => Some(TraceFormat::Json),
                    "chrome" => Some(TraceFormat::Chrome),
                    _ => None,
                })?;
            }
            "--trace" => args.trace.trace = Some(value(rest, "--trace", "a file path", path)?),
            "--store" => args.store = Some(value(rest, "--store", "a directory", path)?),
            "--filter" => args.filter = Some(value(rest, "--filter", "a benchmark name", path)?),
            "--baseline" => args.baseline = Some(value(rest, "--baseline", "a file path", path)?),
            flag if flag != "-" && flag.starts_with('-') => {
                unreachable!("a flag list names `{flag}`, which parse_args does not handle")
            }
            positional => {
                if args.positionals.len() >= max_positionals {
                    return Err(CliError::Unknown(positional.to_string()));
                }
                args.positionals.push(positional.to_string());
            }
        }
    }
    Ok(args)
}

/// The value after `flag`, when `read` accepts it.
fn value<'a, T>(
    rest: &mut std::slice::Iter<'a, String>,
    flag: &'static str,
    expects: &'static str,
    read: impl FnOnce(&'a str) -> Option<T>,
) -> Result<T, CliError> {
    rest.next().and_then(|v| read(v)).ok_or(CliError::Value { flag, expects })
}

/// A path-like value; one that starts with `-` is the next flag, so
/// the value is missing.
fn path(value: &str) -> Option<String> {
    (!value.starts_with('-')).then(|| value.to_string())
}

/// Reads a seed the way reports print it: decimal, or hexadecimal
/// after `0x`.
pub fn parse_seed(text: &str) -> Option<u64> {
    match text.strip_prefix("0x").or_else(|| text.strip_prefix("0X")) {
        Some(hex) if hex.bytes().all(|b| b.is_ascii_hexdigit()) => {
            u64::from_str_radix(hex, 16).ok()
        }
        Some(_) => None,
        None => text.parse().ok(),
    }
}

impl Args {
    /// `campaign` with the knobs these arguments set: seed, jobs, fault
    /// reduction, screen, preset and tracing.
    /// An unset knob keeps the preset's value.
    pub fn apply(&self, mut campaign: Campaign) -> Campaign {
        if let Some(seed) = self.seed {
            campaign = campaign.seed(seed);
        }
        if let Some(jobs) = self.jobs {
            campaign = campaign.jobs(jobs);
        }
        if let Some(fault_reduce) = self.fault_reduce {
            campaign = campaign.fault_reduce(fault_reduce);
        }
        if let Some(screen) = self.screen {
            campaign = campaign.screen(screen);
        }
        if self.fast {
            campaign = campaign.fast();
        }
        if self.paper {
            campaign = campaign.paper();
        }
        campaign.trace(self.trace.wants_trace())
    }
}

/// The usage text every experiment binary prints for `--help`.
pub const BIN_USAGE: &str = "\
options (shared by every musa_bench experiment binary):
  --fast      scaled-down configuration: seconds instead of minutes
  --paper     paper-scale configuration (the default; conflicts with
              --fast)
  --seed N    master seed, decimal or 0x hex (default 0xDA7E2005);
              every stage derives its own sub-seeds from it
  --jobs N    worker threads (default: one per available CPU);
              results are bit-identical for every value, so this is
              purely a wall-clock knob
  --fault-reduce on|off
              dominance fault-list reduction for the mutation-data
              fault simulation (default on); reported numbers are
              bit-identical either way, only representatives (and
              residuals) occupy simulation lanes
  --screen static|off
              static equivalent-mutant pre-screening (default on);
              statically proven-equivalent mutants skip simulation and
              fold into the E term directly — reported numbers are
              bit-identical either way
  --json      emit the typed campaign report as JSON (stable
              `musa.campaign.v1` schema) instead of text
  --trace FILE
              write the collected spans + counters to FILE after the
              run (`musa.trace.v1` by default); the report itself stays
              bit-identical to an untraced run
  --trace-format json|chrome
              trace file format: `json` (musa.trace.v1, round-trips
              through the musa_core parser) or `chrome` (trace_event,
              open in Perfetto / chrome://tracing)
  --profile   print a per-phase wall/count breakdown after the run
              (stderr when stdout carries the --json document)
  --progress  coarse progress lines on stderr while the run advances
              (bench / repetition / lane-group granularity)
  --help      print this text";

/// `musa sample` arguments: a benchmark name, an optional fraction and
/// the sample flags.
#[derive(Debug, Clone)]
pub struct SampleArgs {
    /// Benchmark name.
    pub name: String,
    /// Sampling fraction (default 10 %).
    pub fraction: f64,
    /// The flags ([`SAMPLE_FLAGS`]).
    pub args: Args,
}

/// The `musa sample` usage line.
pub const SAMPLE_USAGE: &str = "expected <name> [fraction] [--jobs N] [--seed N|0xHEX] \
[--paper] [--fast] [--json] [--fault-reduce on|off] [--screen static|off] \
[--store DIR] [--trace FILE] [--trace-format json|chrome] [--profile] [--progress]";

impl SampleArgs {
    /// Parses `musa sample`'s arguments (everything after the
    /// subcommand).
    ///
    /// # Errors
    ///
    /// The usage line on `--help`, a missing name or extra positionals;
    /// the [`CliError`] message or a fraction or `--store` message
    /// otherwise.
    pub fn parse(argv: &[String]) -> Result<Self, String> {
        let args = parse_args(argv, SAMPLE_FLAGS, 2).map_err(|e| e.to_string())?;
        let Some(name) = args.positionals.first().filter(|_| !args.help).cloned() else {
            return Err(SAMPLE_USAGE.to_string());
        };
        let fraction = match args.positionals.get(1) {
            Some(raw) => raw
                .parse()
                .map_err(|_| "bad fraction (expected a number in (0, 1])".to_string())?,
            None => 0.10,
        };
        if args.store.is_some() && args.trace.wants_trace() {
            return Err(
                "--store cannot be combined with --trace/--profile (a store hit \
replays a cached result and records no trace)"
                    .to_string(),
            );
        }
        Ok(Self { name, fraction, args })
    }

    /// The campaign these arguments select (`musa sample` defaults to
    /// the fast preset; `--paper` upgrades, and passing both flags is
    /// a campaign validation error).
    pub fn campaign(&self) -> Campaign {
        let campaign = self.args.apply(
            Campaign::named(&self.name).task(Task::Sampling { fraction: self.fraction }),
        );
        if self.args.paper {
            campaign
        } else {
            campaign.fast()
        }
    }
}

// ---------------------------------------------------------------------
// `musa bench` — benchmark trajectory
// ---------------------------------------------------------------------

/// The `musa bench` usage text (`musa help` points here too).
pub const BENCH_USAGE: &str = "\
usage: musa bench <name>                 stats for one bundled benchmark
       musa bench [--quick] [--json] [--filter <bench>]
                  [--baseline <file>] [--write] [--seed N]
                  [--trace FILE] [--trace-format json|chrome]
                  [--profile] [--progress]
                                         benchmark trajectory
       musa bench --history [--json] [--filter <bench>]
                                         per-cell median trajectory over
                                         the committed BENCH_<n>.json
trajectory flags:
  --quick            1 warmup + 3 timed samples per cell instead of
                     3 + 9; same grid and invariants, but the baseline
                     gate skips absolute wall time (invariants +
                     scalar/lanes engine ratio only) so a noisy 1-CPU
                     CI runner stays deterministic
  --json             print the report as `musa.bench.v1` JSON
  --filter <bench>   measure one benchmark; baseline cells are
                     filtered to the same benchmark before comparing
  --baseline <file>  compare against a committed BENCH_<n>.json and
                     exit 1 on any gated regression
  --write            write the report to the next free BENCH_<n>.json
  --seed N           master seed, decimal or 0x hex (default
                     0xDA7E2005)
  --history          no measuring: read BENCH_1.json, BENCH_2.json, …
                     from the working directory and print each cell's
                     median wall-time trajectory (text, or
                     `musa.bench.history.v1` with --json)
  --trace FILE       write collected spans + counters to FILE
  --trace-format json|chrome
                     trace file format (default: musa.trace.v1 JSON)
  --profile          per-phase breakdown after the run (stderr with
                     --json)
  --progress         coarse stderr progress lines while measuring";

/// How a `musa bench` invocation routes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BenchCommand {
    /// The legacy contract: `musa bench <name>` prints netlist stats
    /// and the mutant-population size (exit 1 on an unknown name).
    Legacy(String),
    /// Trajectory mode: run the timed grid. It has no help screen, so
    /// the caller treats [`Args::help`] as a usage error.
    Trajectory(Args),
}

impl BenchCommand {
    /// Parses everything after `musa bench`. Exactly one non-flag
    /// argument and nothing else selects the legacy stats contract;
    /// every other argument shape is trajectory mode.
    ///
    /// # Errors
    ///
    /// The [`CliError`] of the offending argument; front ends print it
    /// with [`BENCH_USAGE`] and exit 2.
    pub fn parse(argv: &[String]) -> Result<Self, CliError> {
        let args = parse_args(argv, BENCH_FLAGS, 1)?;
        match args.positionals.as_slice() {
            [name] if argv.len() == 1 => Ok(BenchCommand::Legacy(name.clone())),
            [extra] => Err(CliError::Unknown(extra.clone())),
            _ => Ok(BenchCommand::Trajectory(args)),
        }
    }
}

/// Runs the benchmark trajectory and returns the process exit code:
/// `0` on success, `1` on a campaign failure or any gated regression,
/// `2` on a usage-level error (unknown `--filter` benchmark,
/// unreadable or malformed `--baseline` file).
pub fn run_trajectory(args: &Args) -> u8 {
    if args.history {
        return run_history(args);
    }
    let benches: Vec<Benchmark> = match &args.filter {
        Some(name) => match Benchmark::from_name(name) {
            Some(bench) => vec![bench],
            None => {
                eprintln!(
                    "error: unknown benchmark `{name}` for --filter (see `musa list`)"
                );
                return 2;
            }
        },
        None => DEFAULT_BENCHES.to_vec(),
    };
    // Read the baseline before spending minutes measuring: a malformed
    // file must fail fast.
    let baseline = match &args.baseline {
        Some(path) => {
            let text = match std::fs::read_to_string(path) {
                Ok(text) => text,
                Err(e) => {
                    eprintln!("error: --baseline {path}: {e}");
                    return 2;
                }
            };
            match BenchReport::from_json(&text) {
                Ok(mut report) => {
                    if let Some(name) = &args.filter {
                        report.cells.retain(|c| c.bench == *name);
                    }
                    Some(report)
                }
                Err(e) => {
                    eprintln!("error: --baseline {path}: {e}");
                    return 2;
                }
            }
        }
        None => None,
    };
    musa_trace::set_progress(args.trace.progress);
    let campaign = args.apply(
        Campaign::new(Benchmark::C17).benches(&benches).task(Task::Bench { quick: args.quick }),
    );
    let report = match campaign.run() {
        Ok(report) => report,
        Err(e) => {
            eprintln!("error: {e}");
            return 1;
        }
    };
    print_report(&report, args.json);
    if let Err(message) = emit_observability(&report, &args.trace, args.json) {
        eprintln!("error: {message}");
        return 1;
    }
    let ReportData::Bench(current) = &report.data else {
        unreachable!("Task::Bench always yields ReportData::Bench");
    };
    if args.write {
        let path = next_bench_path(std::path::Path::new("."));
        if let Err(e) = std::fs::write(&path, format!("{}\n", current.to_json())) {
            eprintln!("error: {}: {e}", path.display());
            return 1;
        }
        eprintln!("wrote {}", path.display());
    }
    if let Some(baseline) = &baseline {
        let policy =
            if args.quick { ComparePolicy::quick() } else { ComparePolicy::full() };
        let findings = compare(baseline, current, &policy);
        if !findings.is_empty() {
            for finding in &findings {
                eprintln!("regression: {finding}");
            }
            eprintln!("{} regression(s) against the baseline", findings.len());
            return 1;
        }
        eprintln!(
            "baseline check: {} cells pass ({})",
            baseline.cells.len(),
            if policy.gate_wall {
                "invariants + engine ratio + wall"
            } else {
                "invariants + engine ratio"
            },
        );
    }
    0
}

/// `musa bench --history`: loads the committed `BENCH_<n>.json`
/// sequence from the working directory (numbered contiguously from 1,
/// exactly what `--write` produces) and prints each cell's median
/// wall-time trajectory — the ROADMAP's `dev/bench`-style history
/// renderer. Exit `0` on success, `2` when no reports exist or one is
/// malformed.
fn run_history(args: &Args) -> u8 {
    // Same naming contract as `next_bench_path`: indices may have gaps
    // (they are never reused), so scan the directory instead of
    // counting up from 1.
    let mut indices: Vec<u64> = Vec::new();
    if let Ok(entries) = std::fs::read_dir(".") {
        for entry in entries.flatten() {
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if let Some(n) = name
                .strip_prefix("BENCH_")
                .and_then(|rest| rest.strip_suffix(".json"))
                .and_then(|digits| digits.parse::<u64>().ok())
            {
                indices.push(n);
            }
        }
    }
    indices.sort_unstable();
    let mut labels = Vec::new();
    let mut reports = Vec::new();
    for n in indices {
        let path = format!("BENCH_{n}.json");
        let text = match std::fs::read_to_string(&path) {
            Ok(text) => text,
            Err(e) => {
                eprintln!("error: {path}: {e}");
                return 2;
            }
        };
        match BenchReport::from_json(&text) {
            Ok(mut report) => {
                if let Some(name) = &args.filter {
                    report.cells.retain(|c| c.bench == *name);
                }
                labels.push(format!("BENCH_{n}"));
                reports.push(report);
            }
            Err(e) => {
                eprintln!("error: {path}: {e}");
                return 2;
            }
        }
    }
    if reports.is_empty() {
        eprintln!("error: no BENCH_<n>.json reports in the working directory");
        return 2;
    }
    if args.json {
        crate::outln!("{}", bench_history_json(&labels, &reports));
    } else {
        crate::out!("{}", render_bench_history(&labels, &reports));
    }
    0
}

/// The six experiment binaries, with their per-binary defaults
/// (benchmark sets, task parameters, legacy error wording).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bin {
    /// `table1` — operator fault-coverage efficiency.
    Table1,
    /// `table2` — test-oriented vs random 10 % sampling.
    Table2,
    /// `sweep_fraction` — E1.
    SweepFraction,
    /// `coverage_curves` — E2.
    CoverageCurves,
    /// `atpg_topup` — E3.
    AtpgTopup,
    /// `equivalence_ablation` — E4.
    EquivalenceAblation,
}

impl Bin {
    /// The task this binary runs, with its legacy default parameters.
    pub fn task(self, fast: bool) -> Task {
        match self {
            Bin::Table1 => Task::Table1 {
                operators: MutationOperator::paper_set().to_vec(),
            },
            Bin::Table2 => Task::Table2 { fraction: 0.10 },
            Bin::SweepFraction => Task::SweepFraction {
                fractions: vec![0.05, 0.10, 0.20, 0.50, 1.00],
            },
            Bin::CoverageCurves => Task::CoverageCurves { points: 12 },
            Bin::AtpgTopup => Task::AtpgTopup { backtrack_limit: 50_000 },
            Bin::EquivalenceAblation => Task::EquivalenceAblation {
                budgets: if fast {
                    vec![50, 200, 1_000]
                } else {
                    vec![100, 500, 2_000, 10_000, 50_000]
                },
            },
        }
    }

    /// The benchmark set this binary measures (`--fast` scales it
    /// down, exactly like the pre-redesign binaries did).
    pub fn benches(self, fast: bool) -> Vec<Benchmark> {
        match self {
            Bin::Table1 | Bin::Table2 => Benchmark::paper_set().to_vec(),
            Bin::SweepFraction => {
                if fast {
                    vec![Benchmark::B01, Benchmark::C17]
                } else {
                    Benchmark::paper_set().to_vec()
                }
            }
            Bin::CoverageCurves => {
                if fast {
                    vec![Benchmark::C17, Benchmark::B01]
                } else {
                    Benchmark::paper_set().to_vec()
                }
            }
            Bin::AtpgTopup => {
                // E3 targets the paper's combinational circuits.
                if fast {
                    vec![Benchmark::C17]
                } else {
                    vec![Benchmark::C17, Benchmark::C432, Benchmark::C499]
                }
            }
            Bin::EquivalenceAblation => {
                if fast {
                    vec![Benchmark::C17]
                } else {
                    Benchmark::paper_set().to_vec()
                }
            }
        }
    }

    /// The campaign this binary's arguments select.
    pub fn campaign(self, args: &Args) -> Campaign {
        args.apply(
            Campaign::new(Benchmark::C17)
                .benches(&self.benches(args.fast))
                .task(self.task(args.fast)),
        )
    }

    /// The legacy stderr line for a failure.
    fn error_message(self, error: &CampaignError) -> String {
        let prefix = match self {
            Bin::Table1 => "table1 failed",
            Bin::Table2 => "table2 failed",
            Bin::SweepFraction => "sweep failed",
            Bin::CoverageCurves => "curves failed",
            Bin::AtpgTopup => "atpg_topup failed",
            Bin::EquivalenceAblation => "ablation failed",
        };
        match error {
            CampaignError::Run { bench, source } => {
                format!("{prefix} on {bench}: {source}")
            }
            other => format!("{prefix}: {other}"),
        }
    }
}

/// Parses `std::env::args`, runs the binary's campaign and prints the
/// report (text by default, `--json` for the typed report). The whole
/// `main` of every experiment binary: `--help` prints [`BIN_USAGE`] and
/// exits 0, and an argument error exits 2 with the usage text before
/// anything runs.
pub fn drive(bin: Bin) {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv, BIN_FLAGS, 0) {
        Ok(args) if args.help => {
            crate::outln!("{BIN_USAGE}");
            std::process::exit(0);
        }
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}");
            eprintln!("{BIN_USAGE}");
            std::process::exit(2);
        }
    };
    musa_trace::set_progress(args.trace.progress);
    match bin.campaign(&args).run() {
        Ok(report) => {
            print_report(&report, args.json);
            if let Err(message) = emit_observability(&report, &args.trace, args.json) {
                eprintln!("error: {message}");
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("{}", bin.error_message(&e));
            std::process::exit(1);
        }
    }
}

/// Prints a campaign report the way every front end does: the stable
/// text rendering by default, the `musa.campaign.v1` JSON with
/// `--json`.
pub fn print_report(report: &Report, json: bool) {
    if json {
        crate::outln!("{}", report.to_json());
    } else {
        crate::out!("{}", report.render_text());
    }
}

/// Writes to stdout like `print!`, except that a closed stdout (its
/// reader went away, as `| head -1` does) drops the output quietly
/// instead of panicking, so the command still ends with its own exit
/// code. Any other write error panics as `print!` does.
pub fn write_stdout(args: fmt::Arguments<'_>) {
    use std::io::Write as _;
    if let Err(e) = std::io::stdout().write_fmt(args) {
        assert!(
            e.kind() == std::io::ErrorKind::BrokenPipe,
            "failed printing to stdout: {e}"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use musa_core::{ExperimentConfig, Preset, DEFAULT_SEED};

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    /// The experiment binaries' parse of `args`.
    fn bin_args(args: &[&str]) -> Result<Args, CliError> {
        parse_args(&strings(args), BIN_FLAGS, 0)
    }

    /// The configuration `table2` actually runs with `args`.
    fn config(args: &[&str]) -> ExperimentConfig {
        Bin::Table2.campaign(&bin_args(args).unwrap()).plan().unwrap().config
    }

    #[test]
    fn default_options() {
        let cfg = config(&["--fast", "--seed", "42"]);
        assert_eq!(cfg.seed, 42);
        assert_eq!(cfg.jobs, 0, "0 = one worker per available CPU");
    }

    #[test]
    fn jobs_option_reaches_the_config() {
        assert_eq!(config(&["--seed", "1", "--jobs", "3"]).jobs, 3);
    }

    #[test]
    fn unset_knobs_keep_the_preset() {
        // The pre-parser binaries passed every knob with its default
        // spelled out; leaving them unset must resolve to the same plan.
        let spelled_out = |campaign: Campaign| {
            campaign
                .seed(DEFAULT_SEED)
                .jobs(0)
                .fault_reduce(true)
                .screen(true)
        };
        for fast in [false, true] {
            let argv: &[&str] = if fast { &["--fast"] } else { &[] };
            let args = bin_args(argv).unwrap();
            let bare = Bin::Table2.campaign(&args).plan().unwrap();
            let full = spelled_out(Bin::Table2.campaign(&args)).plan().unwrap();
            assert_eq!(bare.config, full.config, "fast={fast}");
            assert_eq!(bare.preset, full.preset, "fast={fast}");
        }
        // `musa sample` defaults to the fast preset; --paper upgrades.
        let plan = |argv: &[&str]| SampleArgs::parse(&strings(argv)).unwrap().campaign().plan();
        assert_eq!(plan(&["c17"]).unwrap().preset, Preset::Fast);
        assert_eq!(plan(&["c17", "--paper"]).unwrap().preset, Preset::Paper);
        assert_eq!(plan(&["c17", "--fast"]).unwrap().preset, Preset::Fast);
        assert!(plan(&["c17", "--paper", "--fast"]).is_err(), "conflicting presets");
    }

    #[test]
    fn usage_documents_every_flag() {
        for (flags, usage) in [
            (BIN_FLAGS, BIN_USAGE),
            (SAMPLE_FLAGS, SAMPLE_USAGE),
            (BENCH_FLAGS, BENCH_USAGE),
            (LINT_FLAGS, LINT_USAGE),
        ] {
            for flag in flags {
                assert!(usage.contains(flag), "usage lacks {flag}: {usage}");
            }
        }
        assert!(BIN_USAGE.contains("--help"));
    }

    #[test]
    fn shared_parser_handles_the_full_flag_set() {
        let parsed = bin_args(&["--fast", "--seed", "9", "--jobs", "2", "--json"]).unwrap();
        assert!(parsed.fast && parsed.json && !parsed.paper);
        assert_eq!(parsed.seed, Some(9));
        assert_eq!(parsed.jobs, Some(2));
    }

    #[test]
    fn shared_parser_reports_value_errors() {
        let value = |flag, expects| CliError::Value { flag, expects };
        assert_eq!(
            bin_args(&["--seed", "zz"]).unwrap_err(),
            value("--seed", "a decimal or 0x-hex integer")
        );
        assert_eq!(bin_args(&["--jobs"]).unwrap_err(), value("--jobs", "a thread count"));
    }

    #[test]
    fn errors_read_the_same_on_every_front_end() {
        assert_eq!(
            bin_args(&["--fault-reduce", "2"]).unwrap_err().to_string(),
            "--fault-reduce expects on|off"
        );
        assert_eq!(
            SampleArgs::parse(&strings(&["c17", "--fault-reduce", "2"])).unwrap_err(),
            "--fault-reduce expects on|off"
        );
        assert_eq!(
            bin_args(&["--store", "s"]).unwrap_err().to_string(),
            "unknown argument `--store`"
        );
        assert_eq!(
            BenchCommand::parse(&strings(&["--fast"])).unwrap_err().to_string(),
            "unknown argument `--fast`"
        );
    }

    #[test]
    fn seeds_read_decimal_and_hex() {
        assert_eq!(parse_seed("0xDA7E2005"), Some(3_665_698_821));
        assert_eq!(parse_seed("0xda7e2005"), Some(DEFAULT_SEED));
        assert_eq!(parse_seed("195911405"), parse_seed("0x0BAD5EED"));
        assert_eq!(parse_seed("16"), Some(16));
        for bad in ["0x", "0xg", "-1", "", "0x+5", "0x10000000000000000"] {
            assert_eq!(parse_seed(bad), None, "{bad:?}");
        }
        assert_eq!(bin_args(&["--seed", "0x10"]).unwrap().seed, Some(16));
        let sample = SampleArgs::parse(&strings(&["c17", "--seed", "0x10"])).unwrap();
        assert_eq!(sample.args.seed, Some(16));
        let Ok(BenchCommand::Trajectory(bench)) =
            BenchCommand::parse(&strings(&["--seed", "0x10"]))
        else {
            panic!("flags select trajectory mode");
        };
        assert_eq!(bench.seed, Some(16));
    }

    #[test]
    fn fault_reduce_flag_parses_and_reaches_the_config() {
        assert_eq!(bin_args(&["--fault-reduce", "off"]).unwrap().fault_reduce, Some(false));
        assert_eq!(bin_args(&["--fault-reduce", "on"]).unwrap().fault_reduce, Some(true));
        for bad in [&["--fault-reduce"][..], &["--fault-reduce", "maybe"][..]] {
            assert_eq!(
                bin_args(bad).unwrap_err(),
                CliError::Value { flag: "--fault-reduce", expects: "on|off" },
                "{bad:?}"
            );
        }
        assert!(!config(&["--fast", "--fault-reduce", "off"]).fault_reduce);
        let sample = SampleArgs::parse(&strings(&["c17", "--fault-reduce", "off"])).unwrap();
        assert!(!sample.campaign().plan().unwrap().config.fault_reduce);
        // Default: reduction on.
        let sample = SampleArgs::parse(&strings(&["c17"])).unwrap();
        assert!(sample.campaign().plan().unwrap().config.fault_reduce);
    }

    #[test]
    fn screen_flag_parses_and_reaches_the_config() {
        assert_eq!(bin_args(&["--screen", "off"]).unwrap().screen, Some(false));
        assert_eq!(bin_args(&["--screen", "static"]).unwrap().screen, Some(true));
        for bad in [&["--screen"][..], &["--screen", "on"][..]] {
            assert_eq!(
                bin_args(bad).unwrap_err(),
                CliError::Value { flag: "--screen", expects: "static|off" },
                "{bad:?}"
            );
        }
        assert!(!config(&["--fast", "--screen", "off"]).screen);
        let sample = SampleArgs::parse(&strings(&["c17", "--screen", "off"])).unwrap();
        assert!(!sample.campaign().plan().unwrap().config.screen);
        assert!(SampleArgs::parse(&strings(&["c17", "--screen", "on"]))
            .unwrap_err()
            .contains("static|off"));
        // Default: screening on.
        let sample = SampleArgs::parse(&strings(&["c17"])).unwrap();
        assert!(sample.campaign().plan().unwrap().config.screen);
    }

    #[test]
    fn trace_flags_parse_and_reach_the_campaign() {
        let parsed = bin_args(&[
            "--trace", "t.json", "--trace-format", "chrome", "--profile", "--progress",
        ])
        .unwrap();
        assert_eq!(parsed.trace.trace.as_deref(), Some("t.json"));
        assert_eq!(parsed.trace.format, TraceFormat::Chrome);
        assert!(parsed.trace.profile && parsed.trace.progress);
        assert!(parsed.trace.wants_trace());
        let missing = CliError::Value { flag: "--trace", expects: "a file path" };
        assert_eq!(bin_args(&["--trace"]).unwrap_err(), missing);
        assert_eq!(bin_args(&["--trace", "--fast"]).unwrap_err(), missing);
        assert_eq!(
            bin_args(&["--trace-format", "xml"]).unwrap_err(),
            CliError::Value { flag: "--trace-format", expects: "json|chrome" }
        );
        // --profile alone is enough to need a live tracer; the default
        // flag set is not (so untraced runs stay bit-identical).
        let args = SampleArgs::parse(&strings(&["c17", "--profile"])).unwrap();
        assert!(args.args.trace.wants_trace());
        let args = SampleArgs::parse(&strings(&["c17"])).unwrap();
        assert!(!args.args.trace.wants_trace());
        assert!(SampleArgs::parse(&strings(&["c17", "--trace-format", "xml"]))
            .unwrap_err()
            .contains("json|chrome"));
    }

    #[test]
    fn help_short_circuits_before_later_malformed_values() {
        // `--help --seed zz` reports help, not a value error...
        assert!(bin_args(&["--help", "--seed", "zz"]).unwrap().help);
        assert!(bin_args(&["-h", "--frobnicate"]).unwrap().help);
        // ...while an error BEFORE --help still wins.
        assert_eq!(
            bin_args(&["--seed", "zz", "--help"]).unwrap_err(),
            CliError::Value { flag: "--seed", expects: "a decimal or 0x-hex integer" }
        );
    }

    #[test]
    fn unknown_flags_and_extra_positionals_are_errors() {
        let unknown = |arg: &str| CliError::Unknown(arg.into());
        assert_eq!(
            parse_args(&strings(&["--frobnicate"]), SAMPLE_FLAGS, 2).unwrap_err(),
            unknown("--frobnicate")
        );
        assert_eq!(
            parse_args(&strings(&["a", "b", "c"]), SAMPLE_FLAGS, 2).unwrap_err(),
            unknown("c")
        );
        // The experiment binaries take no positionals at all.
        assert_eq!(bin_args(&["--fast", "frobnicate"]).unwrap_err(), unknown("frobnicate"));
        // A single-dash argument is a flag; `-` alone only where listed.
        assert_eq!(bin_args(&["-x"]).unwrap_err(), unknown("-x"));
        assert_eq!(parse_args(&strings(&["-"]), LINT_FLAGS, 1).unwrap_err(), unknown("-"));
        assert_eq!(
            parse_args(&strings(&["-"]), &["-"], 1).unwrap().positionals,
            ["-"]
        );
        // A flag outside the front end's list is unknown there.
        assert_eq!(
            parse_args(&strings(&["--fast"]), LINT_FLAGS, 1).unwrap_err(),
            unknown("--fast")
        );
        assert!(bin_args(&["-h"]).unwrap().help);
    }

    #[test]
    fn sample_args_match_the_legacy_contract() {
        let args = SampleArgs::parse(&strings(&["c17", "0.5", "--jobs", "2", "--seed", "9"]))
            .unwrap();
        assert_eq!(args.name, "c17");
        assert_eq!(args.fraction, 0.5);
        assert_eq!(args.args.jobs, Some(2));
        assert_eq!(args.args.seed, Some(9));
        assert!(!args.args.paper);

        assert_eq!(SampleArgs::parse(&[]).unwrap_err(), SAMPLE_USAGE);
        assert_eq!(
            SampleArgs::parse(&strings(&["c17", "xx"])).unwrap_err(),
            "bad fraction (expected a number in (0, 1])"
        );
        assert_eq!(
            SampleArgs::parse(&strings(&["c17", "--wat"])).unwrap_err(),
            "unknown argument `--wat`"
        );
        assert_eq!(
            SampleArgs::parse(&strings(&["c17", "0.5", "extra"])).unwrap_err(),
            "unknown argument `extra`"
        );
        assert_eq!(SampleArgs::parse(&strings(&["c17", "--help"])).unwrap_err(), SAMPLE_USAGE);
    }

    #[test]
    fn sample_store_flag_parses_and_excludes_tracing() {
        let args = SampleArgs::parse(&strings(&["c17", "--store", ".musa-store"])).unwrap();
        assert_eq!(args.args.store.as_deref(), Some(".musa-store"));
        assert!(SampleArgs::parse(&strings(&["c17"])).unwrap().args.store.is_none());
        // A missing directory is an error, also when the next flag
        // would otherwise be taken for it.
        for missing in [&["c17", "--store"][..], &["c17", "--store", "--json"][..]] {
            assert_eq!(
                SampleArgs::parse(&strings(missing)).unwrap_err(),
                "--store expects a directory"
            );
        }
        for tracing in [&["--trace", "t.json"][..], &["--profile"][..]] {
            let mut tokens = vec!["c17", "--store", "s"];
            tokens.extend_from_slice(tracing);
            assert!(SampleArgs::parse(&strings(&tokens))
                .unwrap_err()
                .contains("--store cannot be combined"));
        }
    }

    #[test]
    fn bench_command_routes_legacy_vs_trajectory() {
        // One bare positional — the legacy stats contract, resolvable
        // or not (the unknown-name error stays an exit-1 runtime path).
        assert_eq!(
            BenchCommand::parse(&strings(&["c432"])).unwrap(),
            BenchCommand::Legacy("c432".into())
        );
        assert_eq!(
            BenchCommand::parse(&strings(&["zz99"])).unwrap(),
            BenchCommand::Legacy("zz99".into())
        );
        // No arguments, or any flag — trajectory mode.
        assert_eq!(
            BenchCommand::parse(&[]).unwrap(),
            BenchCommand::Trajectory(Args::default())
        );
        let parsed = BenchCommand::parse(&strings(&[
            "--quick", "--json", "--filter", "c17", "--baseline", "BENCH_1.json",
            "--write", "--seed", "9", "--history", "--trace", "t.json",
            "--trace-format", "chrome", "--profile", "--progress",
        ]))
        .unwrap();
        assert_eq!(
            parsed,
            BenchCommand::Trajectory(Args {
                quick: true,
                json: true,
                filter: Some("c17".into()),
                baseline: Some("BENCH_1.json".into()),
                write: true,
                seed: Some(9),
                history: true,
                trace: TraceOpts {
                    trace: Some("t.json".into()),
                    format: TraceFormat::Chrome,
                    profile: true,
                    progress: true,
                },
                ..Args::default()
            })
        );
        // Trajectory mode has no help screen: the caller sees `help`.
        for help in ["--help", "-h"] {
            let Ok(BenchCommand::Trajectory(args)) = BenchCommand::parse(&strings(&[help]))
            else {
                panic!("{help} must not select the legacy stats contract");
            };
            assert!(args.help, "{help}");
        }
    }

    #[test]
    fn bench_command_reports_usage_errors() {
        for (args, fragment) in [
            (&["--filter"][..], "--filter expects"),
            (&["--filter", "--quick"][..], "--filter expects"),
            (&["--baseline"][..], "--baseline expects"),
            (&["--seed", "zz"][..], "--seed expects"),
            (&["--trace"][..], "--trace expects"),
            (&["--trace", "--quick"][..], "--trace expects"),
            (&["--trace-format", "xml"][..], "--trace-format expects"),
            (&["--quick", "extra"][..], "unknown argument `extra`"),
            (&["extra", "--quick"][..], "unknown argument `extra`"),
            (&["--frobnicate"][..], "unknown argument `--frobnicate`"),
            (&["-x"][..], "unknown argument `-x`"),
        ] {
            let err = BenchCommand::parse(&strings(args)).unwrap_err().to_string();
            assert!(err.contains(fragment), "{args:?}: {err}");
        }
    }

    #[test]
    fn trajectory_rejects_unknown_filter_before_measuring() {
        let args = Args { filter: Some("zz99".into()), ..Args::default() };
        assert_eq!(run_trajectory(&args), 2);
    }

    #[test]
    fn trajectory_rejects_missing_and_malformed_baselines() {
        let missing = Args {
            baseline: Some("/nonexistent/BENCH_0.json".into()),
            ..Args::default()
        };
        assert_eq!(run_trajectory(&missing), 2);
        let dir = std::env::temp_dir()
            .join(format!("musa-cli-baseline-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("broken.json");
        std::fs::write(&path, "{ not json").unwrap();
        let malformed = Args {
            baseline: Some(path.to_str().unwrap().to_string()),
            ..Args::default()
        };
        assert_eq!(run_trajectory(&malformed), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bins_reproduce_their_legacy_defaults() {
        assert_eq!(
            Bin::Table1.task(false),
            Task::Table1 { operators: MutationOperator::paper_set().to_vec() }
        );
        assert_eq!(Bin::Table2.task(true), Task::Table2 { fraction: 0.10 });
        assert_eq!(
            Bin::SweepFraction.benches(true),
            vec![Benchmark::B01, Benchmark::C17]
        );
        assert_eq!(
            Bin::CoverageCurves.benches(true),
            vec![Benchmark::C17, Benchmark::B01]
        );
        assert_eq!(Bin::AtpgTopup.benches(false).len(), 3);
        assert_eq!(
            Bin::EquivalenceAblation.task(false),
            Task::EquivalenceAblation { budgets: vec![100, 500, 2_000, 10_000, 50_000] }
        );
        // Every bin's campaign validates (no run).
        let args = bin_args(&["--fast", "--seed", "1", "--jobs", "1"]).unwrap();
        for bin in [
            Bin::Table1,
            Bin::Table2,
            Bin::SweepFraction,
            Bin::CoverageCurves,
            Bin::AtpgTopup,
            Bin::EquivalenceAblation,
        ] {
            bin.campaign(&args).validate().unwrap_or_else(|e| panic!("{bin:?}: {e}"));
        }
    }
}
