//! Observability tests: trace counters mirror the pre-existing stats,
//! tracing-off runs stay bit-identical, the `musa.trace.v1` document
//! structure is pinned by a golden file, and the CLI flags
//! (`--trace`, `--trace-format`, `--profile`, `--history`) behave.

use musa::circuits::Benchmark;
use musa::core::{
    render_profile, trace_json_with, validate_trace_document, Campaign, ExperimentConfig,
    ReportData, Task, DEFAULT_SEED,
};
use musa::mutation::{generate_mutants, GenerateOptions, LaneOptions, LanePlan, MutationOperator};
use musa::netlist::{collapsed_faults, fault_simulate};
use musa::testgen::{lfsr_patterns, random_sequence};
use musa::trace::{SpanRecord, TraceData, Tracer};
use std::process::{Command, Output};

fn musa_bin(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_musa"))
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("musa binary runs")
}

fn counter(data: &TraceData, name: &str) -> u64 {
    data.counters
        .iter()
        .find(|(n, _)| *n == name)
        .map_or(0, |&(_, v)| v)
}

/// A single-repetition, single-thread fast config: with one repetition
/// the aggregate means are the raw per-run numbers, so the trace
/// counters must equal the reported outcome fields exactly.
fn one_rep_config() -> ExperimentConfig {
    let mut config = ExperimentConfig::fast(DEFAULT_SEED);
    config.repetitions = 1;
    config.jobs = 1;
    config
}

fn traced_sampling(bench: &str) -> (musa::core::Report, TraceData) {
    let report = Campaign::named(bench)
        .config(one_rep_config())
        .trace(true)
        .task(Task::Sampling { fraction: 0.10 })
        .run()
        .unwrap_or_else(|e| panic!("{bench}: {e}"));
    let data = report.trace.clone().expect("tracing was enabled");
    (report, data)
}

// ---------------------------------------------------------------------
// Counters mirror the existing stats
// ---------------------------------------------------------------------

#[test]
fn lane_counters_equal_lane_stats() {
    let circuit = Benchmark::B01.load().unwrap();
    let mutants = generate_mutants(&circuit.checked, &circuit.name, &GenerateOptions::default());
    let sequence = random_sequence(circuit.info(), 24, 7);
    let tracer = Tracer::new();
    let (_kills, stats) = {
        let _install = tracer.install();
        LanePlan::new(
            &circuit.checked,
            &circuit.name,
            &mutants,
            &LaneOptions::default(),
        )
        .unwrap()
        .first_kills(&sequence, &vec![true; mutants.len()], 1)
        .unwrap()
    };
    let data = tracer.finish();
    assert!(stats.passes > 0);
    assert_eq!(counter(&data, "lane_passes"), stats.passes as u64);
    assert_eq!(counter(&data, "lane_steps"), stats.steps as u64);
    assert_eq!(counter(&data, "lane_ops"), stats.ops);
    assert_eq!(counter(&data, "lane_live_ops"), stats.live_ops);
    assert!(0 < stats.live_ops && stats.live_ops <= stats.ops);
}

#[test]
fn sampling_counters_equal_outcome_fields() {
    for bench in ["b01", "c17", "c432"] {
        let (report, data) = traced_sampling(bench);
        let ReportData::Sampling(rows) = &report.data else {
            panic!("sampling task yields sampling rows");
        };
        let outcome = &rows[0].outcome;
        assert_eq!(
            counter(&data, "faults_simulated"),
            outcome.fault_sim.faults_simulated as u64,
            "{bench}: faults_simulated"
        );
        assert_eq!(
            counter(&data, "faults_total"),
            outcome.fault_sim.faults_total as u64,
            "{bench}: faults_total"
        );
        assert_eq!(
            counter(&data, "screened"),
            outcome.screened as u64,
            "{bench}: screened"
        );
        // One repetition: every unscreened survivor is classified once
        // and nothing is served twice.
        let unscreened_survivors =
            outcome.population - outcome.score.killed - outcome.screened;
        assert_eq!(
            counter(&data, "classify_mutants"),
            unscreened_survivors as u64,
            "{bench}: classify_mutants"
        );
        assert_eq!(counter(&data, "classify_cache_hits"), 0, "{bench}: cache hits");
    }
}

#[test]
fn repetitions_share_one_classification_per_distinct_survivor() {
    let counters = |jobs: usize| {
        let mut config = one_rep_config();
        config.repetitions = 3;
        config.jobs = jobs;
        let report = Campaign::named("b01")
            .config(config)
            .trace(true)
            .task(Task::Sampling { fraction: 0.10 })
            .run()
            .unwrap();
        let data = report.trace.expect("tracing was enabled");
        (
            counter(&data, "classify_mutants"),
            counter(&data, "classify_cache_hits"),
        )
    };
    let (classified, hits) = counters(1);
    assert!(classified > 0, "b01 leaves survivors to classify");
    assert!(hits > 0, "survivors shared between repetitions are classified once");
    for jobs in [2, 4] {
        assert_eq!(counters(jobs), (classified, hits), "jobs={jobs}");
    }
}

#[test]
fn fsim_gate_evals_is_identical_for_every_job_count() {
    let evals = |jobs: usize| {
        let mut config = one_rep_config();
        config.jobs = jobs;
        let report = Campaign::named("c432")
            .config(config)
            .trace(true)
            .task(Task::Sampling { fraction: 0.10 })
            .run()
            .unwrap();
        let data = report.trace.expect("tracing was enabled");
        (
            counter(&data, "fsim_gate_evals"),
            counter(&data, "fsim_roots_propagated"),
        )
    };
    let (serial, roots) = evals(1);
    assert!(serial > 0 && roots > 0, "{serial} evals, {roots} roots");
    for jobs in [2, 4] {
        assert_eq!(evals(jobs), (serial, roots), "jobs={jobs}");
    }
}

/// The sequential engine's frame counters on b03: every job count
/// simulates the same faults over the same frames, and the screen
/// leaves some live faults out of the words.
#[test]
fn fsim_frame_counters_are_identical_for_every_job_count_on_b03() {
    let counters = |jobs: usize| {
        let mut config = one_rep_config();
        config.jobs = jobs;
        let report = Campaign::named("b03")
            .config(config)
            .trace(true)
            .task(Task::Sampling { fraction: 0.10 })
            .run()
            .unwrap();
        let data = report.trace.expect("tracing was enabled");
        (
            counter(&data, "fsim_fault_frames"),
            counter(&data, "fsim_active_fault_frames"),
        )
    };
    let (live, active) = counters(1);
    assert!(
        0 < active && active < live,
        "{active} active of {live} live"
    );
    for jobs in [2, 4] {
        assert_eq!(counters(jobs), (live, active), "jobs={jobs}");
    }
}

/// The baseline counters on a b05 campaign: every job count simulates
/// the same baseline prefixes, which stop short of the patterns the
/// baselines declare.
#[test]
fn fsim_baseline_counters_are_identical_for_every_job_count_on_b05() {
    let run = |jobs: usize| {
        let mut config = one_rep_config();
        config.jobs = jobs;
        let report = Campaign::named("b05")
            .config(config)
            .trace(true)
            .task(Task::Sampling { fraction: 0.10 })
            .run()
            .unwrap();
        let data = report.trace.clone().expect("tracing was enabled");
        let counters = (
            counter(&data, "fsim_baseline_patterns"),
            counter(&data, "fsim_baseline_declared"),
        );
        (report, counters)
    };
    let (report, (patterns, declared)) = run(1);
    let ReportData::Sampling(rows) = &report.data else {
        panic!("sampling task yields sampling rows");
    };
    let config = one_rep_config();
    assert_eq!(
        declared,
        config.baseline_len(rows[0].outcome.data_len) as u64,
        "one repetition declares one baseline"
    );
    assert!(
        0 < patterns && patterns < declared,
        "{patterns} of {declared}"
    );
    for jobs in [2, 4] {
        assert_eq!(run(jobs).1, (patterns, declared), "jobs={jobs}");
    }
}

/// The setup counters on a c432 campaign: `generate_mutants` checks
/// every candidate once (1,630) and rejects the stillborn ones (106),
/// whatever the job count; the lane compiler's checks are not counted.
#[test]
fn setup_counters_count_every_candidate_once_on_c432() {
    let run = |jobs: usize| {
        let mut config = one_rep_config();
        config.jobs = jobs;
        let report = Campaign::named("c432")
            .config(config)
            .trace(true)
            .task(Task::Sampling { fraction: 0.10 })
            .run()
            .unwrap();
        let data = report.trace.expect("tracing was enabled");
        (counter(&data, "mutants_checked"), counter(&data, "mutants_rejected"))
    };
    assert_eq!(run(1), (1630, 106));
    for jobs in [2, 4] {
        assert_eq!(run(jobs), (1630, 106), "jobs={jobs}");
    }
}

/// The lane-op counters on a b05 campaign: every job count computes
/// the same tiles of the same lane groups, and the live lane-ops are a
/// share of all of them.
#[test]
fn lane_op_counters_are_identical_for_every_job_count_on_b05() {
    let run = |jobs: usize| {
        let mut config = one_rep_config();
        config.jobs = jobs;
        let report = Campaign::named("b05")
            .config(config)
            .trace(true)
            .task(Task::Sampling { fraction: 0.10 })
            .run()
            .unwrap();
        let data = report.trace.expect("tracing was enabled");
        (counter(&data, "lane_ops"), counter(&data, "lane_live_ops"))
    };
    let (ops, live_ops) = run(1);
    assert!(0 < live_ops && live_ops <= ops, "{live_ops} live of {ops}");
    for jobs in [2, 4] {
        assert_eq!(run(jobs), (ops, live_ops), "jobs={jobs}");
    }
}

/// Every lane counter of a c432 sampling campaign whose three
/// repetitions share one kill plan, compiled before they fork: every
/// job count compiles the same groups once and runs them over the same
/// tiles.
#[test]
fn lane_counters_are_identical_for_every_job_count_on_c432() {
    let run = |jobs: usize| {
        let mut config = one_rep_config();
        config.repetitions = 3;
        config.jobs = jobs;
        let report = Campaign::named("c432")
            .config(config)
            .trace(true)
            .task(Task::Sampling { fraction: 0.10 })
            .run()
            .unwrap();
        let data = report.trace.expect("tracing was enabled");
        data.counters
            .into_iter()
            .filter(|(name, _)| name.starts_with("lane_"))
            .collect::<Vec<_>>()
    };
    let serial = run(1);
    let names: Vec<&str> = serial.iter().map(|&(name, _)| name).collect();
    assert_eq!(
        names,
        [
            "lane_groups_compiled",
            "lane_live_ops",
            "lane_ops",
            "lane_passes",
            "lane_scalar_ops",
            "lane_steps"
        ]
    );
    assert!(serial.iter().all(|&(_, value)| value > 0), "{serial:?}");
    for jobs in [2, 4] {
        assert_eq!(run(jobs), serial, "jobs={jobs}");
    }
}

#[test]
fn fsim_gate_evals_shows_the_cone_pruning_on_c432() {
    // The whole-netlist-per-fault engine would evaluate every gate for
    // every fault in every 64-pattern batch. PPSFP sweeps the good
    // machine once per batch and then propagates each fanout-free
    // region's root, at most once per batch, through its own cone with
    // event pruning, so it must do strictly less, and at least the good
    // sweeps.
    let circuit = Benchmark::C432.load().unwrap();
    let nl = &circuit.netlist;
    let faults = collapsed_faults(nl);
    let patterns = lfsr_patterns(nl.inputs().len(), 200, 7);
    let tracer = Tracer::new();
    {
        let _install = tracer.install();
        fault_simulate(nl, &faults, &patterns);
    }
    let data = tracer.finish();
    let evals = counter(&data, "fsim_gate_evals");
    let (gates, batches) = (nl.gate_count() as u64, patterns.len().div_ceil(64) as u64);
    assert!(evals >= gates * batches, "{evals}");
    assert!(evals < gates * faults.len() as u64 * batches, "{evals}");
    // A region root: an output, or a net not read by exactly one pin
    // (a flop's D pin counts as one).
    let fanouts = nl.fanouts();
    let roots = nl
        .nets()
        .filter(|n| nl.outputs().contains(n) || fanouts[n.0 as usize].len() != 1)
        .count() as u64;
    let propagated = counter(&data, "fsim_roots_propagated");
    assert!(
        0 < propagated && propagated <= roots * batches,
        "{propagated} of {roots} roots"
    );
}

/// The span `span` records as its parent, wherever it sits.
fn parent_of<'a>(data: &'a TraceData, span: &SpanRecord) -> Option<&'a SpanRecord> {
    let (path, seq) = span.parent.as_ref()?;
    data.spans.iter().find(|s| &s.path == path && s.seq == *seq)
}

/// The `detail` of the `bench` span enclosing `span`, following parent
/// links across fork boundaries.
fn enclosing_bench<'a>(data: &'a TraceData, span: &'a SpanRecord) -> Option<&'a str> {
    let mut current = span;
    while current.name != "bench" {
        current = parent_of(data, current)?;
    }
    current.detail.as_deref()
}

#[test]
fn table2_derives_each_bench_state_once() {
    // Both strategies and the operator profile share one bench's
    // population, fault plan and screen: one `setup` per bench, and
    // every `fault_plan`/`screen` span inside it.
    let benches = [Benchmark::C17, Benchmark::B01];
    let report = Campaign::new(benches[0])
        .benches(&benches)
        .config(one_rep_config())
        .trace(true)
        .task(Task::Table2 { fraction: 0.10 })
        .run()
        .unwrap();
    let data = report.trace.expect("tracing was enabled");
    for name in ["setup", "fault_plan", "screen"] {
        let per_bench: Vec<Option<&str>> = data
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| enclosing_bench(&data, s))
            .collect();
        assert_eq!(per_bench, [Some("c17"), Some("b01")], "{name} spans");
    }
    for setup in data.spans.iter().filter(|s| s.name == "setup") {
        let nested = |name: &str| {
            data.spans
                .iter()
                .filter(|s| s.name == name)
                .filter(|s| s.parent == Some((setup.path.clone(), setup.seq)))
                .count()
        };
        assert_eq!((nested("fault_plan"), nested("screen")), (1, 1));
    }
}

#[test]
fn table2_profile_cells_grade_their_data_like_repetitions() {
    // Every operator-profile cell grades its data through the sequence
    // a sampling repetition uses: one `fault_sim` and one `baseline`
    // span inside each `profile_cell`.
    let report = Campaign::named("c17")
        .config(one_rep_config())
        .trace(true)
        .task(Task::Table2 { fraction: 0.10 })
        .run()
        .unwrap();
    let data = report.trace.expect("tracing was enabled");
    let cells = data.spans.iter().filter(|s| s.name == "profile_cell").count();
    assert!(cells > 0, "Table 2 measures an operator profile");
    for name in ["fault_sim", "baseline"] {
        let in_cells = data
            .spans
            .iter()
            .filter(|s| s.name == name)
            .filter(|s| parent_of(&data, s).is_some_and(|p| p.name == "profile_cell"))
            .count();
        assert_eq!(in_cells, cells, "{name} spans inside profile cells");
    }
}

/// The busy total of the `--profile` table: its `total` row's busy ms.
fn profile_busy_ms(report: &musa::core::Report) -> f64 {
    let table = render_profile(report).expect("tracing was enabled");
    let total = table
        .lines()
        .find(|line| line.starts_with("total"))
        .unwrap_or_else(|| panic!("no total row:\n{table}"));
    total.split_whitespace().nth(2).unwrap().parse().unwrap()
}

#[test]
fn profile_busy_time_adds_up_to_the_root_spans() {
    // At one job nothing overlaps, so each span's self time is counted
    // once: the busy total equals the root spans' summed duration. A
    // parent key that resolves to nothing (a span forked twice, with no
    // span open in the middle context) would count its subtree twice.
    let tasks = [
        Task::Table1 { operators: MutationOperator::paper_set().to_vec() },
        Task::Table2 { fraction: 0.10 },
        Task::Sampling { fraction: 0.10 },
    ];
    for task in tasks {
        let report = Campaign::new(Benchmark::C17)
            .benches(&[Benchmark::C17, Benchmark::B01])
            .config(one_rep_config())
            .trace(true)
            .task(task.clone())
            .run()
            .unwrap();
        let data = report.trace.as_ref().expect("tracing was enabled");
        for span in data.spans.iter().filter(|s| s.parent.is_some()) {
            assert!(
                parent_of(data, span).is_some(),
                "{}: {} at {:?}/{} has no recorded parent {:?}",
                task.slug(),
                span.name,
                span.path,
                span.seq,
                span.parent
            );
        }
        let roots_ms: f64 = data
            .spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| s.dur_ns as f64 / 1e6)
            .sum();
        let busy_ms = profile_busy_ms(&report);
        assert!(
            (busy_ms - roots_ms).abs() <= 0.01 * roots_ms,
            "{}: busy {busy_ms:.2} ms vs root spans {roots_ms:.2} ms",
            task.slug()
        );
    }
}

// ---------------------------------------------------------------------
// Bit-identity with tracing off
// ---------------------------------------------------------------------

#[test]
fn outputs_are_identical_with_tracing_on_and_off() {
    let run = |trace: bool| {
        Campaign::named("c17")
            .config(one_rep_config())
            .trace(trace)
            .task(Task::Sampling { fraction: 0.10 })
            .run()
            .unwrap()
    };
    let off = run(false);
    let on = run(true);
    assert!(off.trace.is_none(), "trace-off runs carry no trace data");
    assert!(on.trace.is_some());
    assert_eq!(off.render_text(), on.render_text());
    // wall_ms differs between runs; everything else must match.
    let strip_wall = |text: String| -> String {
        text.lines()
            .filter(|line| !line.contains("\"wall_ms\""))
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert_eq!(strip_wall(off.to_json()), strip_wall(on.to_json()));
}

// ---------------------------------------------------------------------
// Golden document structure
// ---------------------------------------------------------------------

/// Pins the `musa.trace.v1` structure — span names, context paths,
/// sequence numbers, parent links, and counters — for a fixed c17 run
/// (1 repetition, 1 job, default seed). All clock fields are
/// normalized to 0 so the document is byte-stable across machines.
/// Re-bless with `MUSA_BLESS=1 cargo test --test trace`.
#[test]
fn trace_document_structure_matches_golden() {
    let (report, _) = traced_sampling("c17");
    let actual = format!("{}\n", trace_json_with(&report, true).unwrap());
    validate_trace_document(&actual).unwrap();
    let path = format!(
        "{}/tests/golden/trace_c17.json",
        env!("CARGO_MANIFEST_DIR")
    );
    if std::env::var("MUSA_BLESS").is_ok() {
        std::fs::write(&path, &actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    assert_eq!(actual, expected, "musa.trace.v1 drifted from the golden");
}

#[test]
fn trace_structure_is_identical_for_every_job_count() {
    let traced = |jobs: usize| {
        let mut config = one_rep_config();
        config.jobs = jobs;
        let report = Campaign::named("c17")
            .config(config)
            .trace(true)
            .task(Task::Sampling { fraction: 0.10 })
            .run()
            .unwrap();
        // meta.jobs records the knob itself; everything else —
        // spans, paths, seqs, counters — must not move.
        trace_json_with(&report, true)
            .unwrap()
            .lines()
            .filter(|line| !line.contains("\"jobs\""))
            .collect::<Vec<_>>()
            .join("\n")
    };
    let serial = traced(1);
    assert_eq!(serial, traced(2), "jobs=2 changed the trace structure");
    assert_eq!(serial, traced(4), "jobs=4 changed the trace structure");
}

// ---------------------------------------------------------------------
// CLI surface
// ---------------------------------------------------------------------

#[test]
fn sample_trace_flag_writes_a_valid_document() {
    let dir = std::env::temp_dir().join(format!("musa-trace-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let json_path = dir.join("t.json");
    let out = musa_bin(&["sample", "b01", "--trace", json_path.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let text = std::fs::read_to_string(&json_path).unwrap();
    validate_trace_document(&text).unwrap();

    let chrome_path = dir.join("t.chrome.json");
    let out = musa_bin(&[
        "sample",
        "b01",
        "--trace",
        chrome_path.to_str().unwrap(),
        "--trace-format",
        "chrome",
    ]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let chrome = std::fs::read_to_string(&chrome_path).unwrap();
    assert!(chrome.contains("\"traceEvents\""), "{chrome}");
    assert!(chrome.contains("\"ph\": \"X\""), "{chrome}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn sample_profile_prints_a_phase_table() {
    let out = musa_bin(&["sample", "c17", "--profile"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("phase"), "{stdout}");
    assert!(stdout.contains("campaign"), "{stdout}");
    assert!(stdout.contains("wall ms"), "{stdout}");
    assert!(stdout.contains("counter"), "{stdout}");
    // The lane pipeline has two stages: the compile shows up as a phase
    // row, the lowering via its scalar-prefix counter, and nothing sits
    // between them.
    assert!(stdout.contains("lane_compile"), "{stdout}");
    assert!(stdout.contains("lane_scalar_ops"), "{stdout}");
    assert!(!stdout.contains("lane_opt"), "{stdout}");
    // With --json the table moves to stderr so stdout stays parseable.
    let out = musa_bin(&["sample", "c17", "--profile", "--json"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stdout.contains("musa.campaign.v1"), "{stdout}");
    assert!(!stdout.contains("wall ms"), "{stdout}");
    assert!(stderr.contains("wall ms"), "{stderr}");
}

#[test]
fn non_campaign_profile_renders_via_the_main_level_tracer() {
    // Non-campaign subcommands don't parse --profile themselves; main
    // strips the flag and hosts the tracer around dispatch, inside one
    // `command` span. A campaign such a subcommand runs untraced
    // records into that tracer instead of masking it.
    let phase_rows = |args: &[&str]| {
        let out = musa_bin(args);
        assert_eq!(out.status.code(), Some(0), "{args:?}: {out:?}");
        let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
        assert!(stdout.contains("wall ms"), "{args:?}: {stdout}");
        let rows: Vec<String> = stdout
            .lines()
            .skip_while(|line| !line.starts_with("phase"))
            .skip(1)
            .take_while(|line| !line.starts_with("total"))
            .filter_map(|line| line.split_whitespace().next().map(str::to_string))
            .collect();
        (rows, stdout)
    };
    let (rows, stdout) = phase_rows(&["list", "--profile"]);
    assert_eq!(rows, ["command"], "{stdout}");
    let (rows, stdout) = phase_rows(&["lint", "c17", "--profile"]);
    for phase in ["campaign", "bench", "command"] {
        assert!(rows.iter().any(|row| row == phase), "no {phase} row: {stdout}");
    }
    // Lint reads the source alone: it never loads (synthesizes) a circuit.
    assert!(
        !rows.iter().any(|row| row == "load"),
        "lint loaded a circuit: {stdout}"
    );
    // The simulation has a row of its own; rows sort by busy time.
    let faultsim = ["faultsim", "tests/fixtures/b01.bench", "20", "7", "--profile"];
    let (mut rows, stdout) = phase_rows(&faultsim);
    rows.sort();
    assert_eq!(rows, ["command", "fault_simulate"], "{stdout}");
    assert!(stdout.contains("fsim_gate_evals"), "{stdout}");
}

#[test]
fn bench_history_renders_the_committed_reports() {
    let out = musa_bin(&["bench", "--history"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("cell"), "{stdout}");
    assert!(stdout.contains("BENCH_1"), "{stdout}");
    assert!(stdout.contains("mutant_exec/"), "{stdout}");

    let out = musa_bin(&["bench", "--history", "--json"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("musa.bench.history.v1"), "{stdout}");

    // Outside a directory with committed reports the command fails
    // cleanly.
    let dir = std::env::temp_dir().join(format!("musa-history-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_musa"))
        .args(["bench", "--history"])
        .current_dir(&dir)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn progress_lines_go_to_stderr_only() {
    let quiet = musa_bin(&["sample", "c17", "--seed", "5"]);
    let chatty = musa_bin(&["sample", "c17", "--seed", "5", "--progress"]);
    assert_eq!(quiet.status.code(), Some(0));
    assert_eq!(chatty.status.code(), Some(0));
    assert_eq!(quiet.stdout, chatty.stdout, "--progress must not touch stdout");
    let stderr = String::from_utf8_lossy(&chatty.stderr);
    assert!(stderr.contains("repetition"), "{stderr}");
    assert!(String::from_utf8_lossy(&quiet.stderr).is_empty());
}

/// CI's trace-smoke hook: when `MUSA_TRACE_VALIDATE` names a file, the
/// file must parse as `musa.trace.v1` through the `musa_core::json`
/// parser with every required key present. A no-op otherwise.
#[test]
fn trace_smoke_validates_env_file() {
    let Ok(path) = std::env::var("MUSA_TRACE_VALIDATE") else {
        return;
    };
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    validate_trace_document(&text).unwrap_or_else(|e| panic!("{path}: {e}"));
}
