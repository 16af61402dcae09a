//! CLI contract tests for the `musa` binary: argument parsing, exit
//! codes, the shape of `list`/`bench` output, and the golden-file
//! pins proving the campaign redesign preserved stdout byte-for-byte
//! and keeps the `--json` schema stable.

use std::process::{Command, Output, Stdio};

fn musa(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_musa"))
        .args(args)
        .output()
        .expect("musa binary runs")
}

fn golden(name: &str) -> String {
    let path = format!("{}/tests/golden/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

fn stdout_of(args: &[&str]) -> String {
    let out = musa(args);
    assert_eq!(out.status.code(), Some(0), "{args:?}: {:?}", out);
    String::from_utf8(out.stdout).expect("utf-8 stdout")
}

#[test]
fn no_subcommand_exits_2_with_usage() {
    let out = musa(&[]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("usage: musa"), "stderr: {stderr}");
}

#[test]
fn unknown_subcommand_exits_2() {
    let out = musa(&["frobnicate"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage: musa"));
}

#[test]
fn list_prints_every_bundled_benchmark() {
    let out = musa(&["list"]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    let names: Vec<&str> = stdout.lines().collect();
    assert!(!names.is_empty(), "list output must be non-empty");
    for expected in ["b01", "b03", "c432", "c499"] {
        assert!(names.contains(&expected), "missing {expected}: {names:?}");
    }
}

#[test]
fn bench_subcommand_reports_stats() {
    let out = musa(&["bench", "b01"]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("b01:"), "stdout: {stdout}");
    assert!(stdout.contains("mutant population"), "stdout: {stdout}");
}

#[test]
fn sample_subcommand_reports_experiment_outcome() {
    let out = musa(&["sample", "c17", "0.5", "--jobs", "2", "--seed", "9"]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("c17:"), "stdout: {stdout}");
    assert!(stdout.contains("2 jobs"), "stdout: {stdout}");
    assert!(stdout.contains("MS "), "stdout: {stdout}");
    assert!(stdout.contains("NLFCE "), "stdout: {stdout}");
}

#[test]
fn sample_outcome_is_identical_across_job_counts() {
    let serial = musa(&["sample", "c17", "0.5", "--jobs", "1", "--seed", "7"]);
    let parallel = musa(&["sample", "c17", "0.5", "--jobs", "4", "--seed", "7"]);
    assert_eq!(serial.status.code(), Some(0));
    assert_eq!(parallel.status.code(), Some(0));
    // Everything after the header line (which names the job count) must
    // be byte-identical: the parallel engine guarantees bit-equal
    // outcomes for every job count.
    let tail = |out: &Output| -> String {
        String::from_utf8_lossy(&out.stdout)
            .lines()
            .skip(1)
            .collect::<Vec<_>>()
            .join("\n")
    };
    let serial_tail = tail(&serial);
    assert!(!serial_tail.is_empty());
    assert_eq!(serial_tail, tail(&parallel));
}

// ---------------------------------------------------------------------
// Golden pins: the campaign redesign preserved the CLI byte-for-byte.
// The golden files were captured from the pre-redesign binaries.
// ---------------------------------------------------------------------

#[test]
fn sample_stdout_is_byte_identical_to_pre_campaign_golden() {
    assert_eq!(
        stdout_of(&["sample", "c17", "0.5", "--jobs", "2", "--seed", "7"]),
        golden("sample_c17_text.txt"),
        "musa sample c17 drifted from the pre-redesign stdout"
    );
    assert_eq!(
        stdout_of(&["sample", "b01", "0.3", "--jobs", "2", "--seed", "7"]),
        golden("sample_b01_lanes_text.txt"),
        "musa sample b01 drifted from the pre-redesign stdout"
    );
}

#[test]
fn list_stdout_is_byte_identical_to_pre_campaign_golden() {
    assert_eq!(stdout_of(&["list"]), golden("list.txt"));
}

/// Pins the `musa.campaign.v1` JSON schema: every key, the field
/// order, the float formatting. `wall_ms` (the one nondeterministic
/// value) is normalized to `0` so the golden stays valid JSON.
#[test]
fn sample_json_matches_the_golden_schema() {
    let normalize_wall = |text: &str| -> String {
        text.lines()
            .map(|line| {
                if line.contains("\"wall_ms\":") {
                    "    \"wall_ms\": 0".to_string()
                } else {
                    line.to_string()
                }
            })
            .collect::<Vec<_>>()
            .join("\n")
            + "\n"
    };
    let actual = stdout_of(&["sample", "c17", "0.5", "--seed", "7", "--jobs", "2", "--json"]);
    assert_eq!(normalize_wall(&actual), golden("sample_c17.json"));
}

#[test]
fn sample_json_is_identical_across_jobs() {
    let normalize = |text: String| -> String {
        text.lines()
            .filter(|l| !l.contains("\"wall_ms\":") && !l.contains("\"jobs\":"))
            .collect::<Vec<_>>()
            .join("\n")
    };
    let base = normalize(stdout_of(&["sample", "b01", "0.3", "--seed", "7", "--jobs", "1", "--json"]));
    assert!(base.contains("\"schema\": \"musa.campaign.v1\""));
    let other = normalize(stdout_of(&["sample", "b01", "0.3", "--seed", "7", "--jobs", "2", "--json"]));
    assert_eq!(base, other);
}

#[test]
fn sample_json_is_identical_across_fault_reduce_settings() {
    // Dominance reduction is a lane-occupancy knob, not a numbers knob:
    // apart from the fields that *report* the knob and the occupancy,
    // the reports must match byte for byte.
    let normalize = |text: String| -> String {
        text.lines()
            .filter(|l| {
                !l.contains("\"wall_ms\":")
                    && !l.contains("\"fault_reduce\":")
                    && !l.contains("\"faults_simulated\":")
                    && !l.contains("\"faults_total\"")
            })
            .collect::<Vec<_>>()
            .join("\n")
    };
    let on = stdout_of(&[
        "sample", "b01", "0.3", "--seed", "7", "--fault-reduce", "on", "--json",
    ]);
    assert!(on.contains("\"fault_reduce\": \"on\""));
    assert!(on.contains("\"faults_simulated\": "));
    let off = stdout_of(&[
        "sample", "b01", "0.3", "--seed", "7", "--fault-reduce", "off", "--json",
    ]);
    assert!(off.contains("\"fault_reduce\": \"off\""));
    assert_eq!(normalize(on), normalize(off));
}

#[test]
fn sample_rejects_bad_fault_reduce_value() {
    let out = musa(&["sample", "c17", "--fault-reduce", "sometimes"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("on|off"));
}

#[test]
fn sample_rejects_conflicting_presets() {
    let out = musa(&["sample", "c17", "--paper", "--fast"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("conflicting presets"),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn sample_rejects_unknown_engine() {
    // Every sweep runs on the lane engine, so no engine is there to
    // pick: `--engine` is an unknown argument like `--opt` below,
    // whatever its value.
    for engine in ["lanes", "turbo"] {
        let out = musa(&["sample", "c17", "--engine", engine]);
        assert_eq!(out.status.code(), Some(1), "{engine}");
        assert!(out.stdout.is_empty(), "nothing may run");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("unknown argument `--engine`"), "stderr: {stderr}");
    }
}

#[test]
fn sample_rejects_the_retired_opt_flag() {
    // The lane engine has one executor, so there is no level to pick:
    // `--opt` is an unknown argument like any other (`musa sample`
    // exits 1 on a bad command line; the experiment binaries exit 2).
    let out = musa(&["sample", "c17", "--opt", "full"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(out.stdout.is_empty(), "nothing may run");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown argument `--opt`"), "stderr: {stderr}");
}

#[test]
fn sample_without_benchmark_exits_1_with_usage() {
    let out = musa(&["sample"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("expected <name>"));
}

#[test]
fn sample_rejects_bad_fraction() {
    let out = musa(&["sample", "c17", "1.5"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("fraction"));
}

#[test]
fn sample_names_one_fraction_range_for_unparsable_and_out_of_range_values() {
    for (fraction, message) in [
        ("0x10", "error: bad fraction (expected a number in (0, 1])"),
        ("0", "error: fraction must be in (0, 1]"),
    ] {
        let out = musa(&["sample", "c17", fraction]);
        assert_eq!(out.status.code(), Some(1), "{fraction}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(stderr.lines().next(), Some(message), "{fraction}: {stderr}");
    }
}

#[test]
fn bench_with_unknown_name_exits_1() {
    let out = musa(&["bench", "zz99"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown benchmark"));
}

// ---------------------------------------------------------------------
// `musa bench` trajectory mode and `musa help`
// ---------------------------------------------------------------------

#[test]
fn help_subcommand_lists_every_command_including_bench_trajectory() {
    let stdout = stdout_of(&["help"]);
    for fragment in [
        "usage: musa", "info", "synth", "mutants", "faultsim", "scoap", "atpg",
        "bench", "sample", "lint", "list", "help",
        // ...and the trajectory flags of the new subcommand.
        "--quick", "--baseline", "--filter", "--write",
        // ...and the analysis knobs.
        "--screen static|off", "musa.lint.v1",
        // ...and the result store.
        "campaign", "--store", "musa.request.v1",
    ] {
        assert!(stdout.contains(fragment), "help lacks {fragment}: {stdout}");
    }
    for retired in ["serve", "client", "__worker", "--workers", "--addr", "--once"] {
        assert!(!stdout.contains(retired), "help still lists {retired}: {stdout}");
    }
}

// ---------------------------------------------------------------------
// `musa campaign` argument contract
// ---------------------------------------------------------------------

#[test]
fn campaign_without_request_exits_2_with_usage() {
    let out = musa(&["campaign"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage: musa campaign"));
}

#[test]
fn campaign_rejects_bad_flags_and_missing_files_with_exit_2() {
    let out = musa(&["campaign", "req.json", "--store"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--store expects"));

    let out = musa(&["campaign", "/nonexistent/req.json"]);
    assert_eq!(out.status.code(), Some(2), "unreadable request is a pre-computation decision");
    assert!(String::from_utf8_lossy(&out.stderr).contains("/nonexistent/req.json"));

    let out = musa(&["campaign", "req.json", "--bogus"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown argument `--bogus`"));
}

#[test]
fn campaign_rejects_malformed_requests_with_exit_2() {
    let dir = std::env::temp_dir().join(format!("musa-cli-campaign-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let bad = dir.join("bad.json");
    std::fs::write(&bad, "{\"schema\": \"musa.request.v2\"}").unwrap();
    let out = musa(&["campaign", bad.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2));
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("schema"),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn campaign_rejects_deeply_nested_json_on_stdin_with_exit_2() {
    // 200k open brackets used to overflow the recursive-descent parser's
    // stack and abort the process; the nesting cap makes it a parse error.
    use std::io::Write;
    use std::process::Stdio;
    let mut child = Command::new(env!("CARGO_BIN_EXE_musa"))
        .args(["campaign", "-"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("musa binary runs");
    let hostile = format!("{}\n", "[".repeat(200_000));
    child
        .stdin
        .take()
        .expect("piped stdin")
        .write_all(hostile.as_bytes())
        .expect("request written");
    let out = child.wait_with_output().expect("musa exits");
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("nesting deeper than 512"), "stderr: {stderr}");
}

/// Every campaign runs in process, so `campaign` takes no `--workers`,
/// whatever the request's task.
#[test]
fn campaign_rejects_workers_on_non_sampling_tasks_with_exit_2() {
    let dir = std::env::temp_dir().join(format!("musa-cli-workers-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let req = dir.join("lint.json");
    std::fs::write(
        &req,
        "{\"schema\": \"musa.request.v1\", \"task\": \"lint\", \"benches\": [\"c17\"]}",
    )
    .unwrap();
    let out = musa(&["campaign", req.to_str().unwrap(), "--workers", "2"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("unknown argument `--workers`"),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// `serve` and `client` are not subcommands: any use of them is a usage
/// error.
#[test]
fn serve_and_client_arg_errors_exit_2() {
    for args in [
        &["serve"][..],
        &["serve", "--addr"],
        &["serve", "--once"],
        &["client", "req.json"],
        &["client", "--addr", "127.0.0.1:1"],
    ] {
        let out = musa(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.starts_with("usage: musa <"), "{args:?}: {stderr}");
    }
}

/// `__worker` is not a subcommand: any use of it is a usage error.
#[test]
fn worker_arg_errors_exit_2() {
    for args in [
        &["__worker"][..],
        &["__worker", "--cells"],
        &["__worker", "--cells", "c17:0"],
    ] {
        let out = musa(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.starts_with("usage: musa <"), "{args:?}: {stderr}");
    }
}

#[test]
fn sample_store_conflicts_with_tracing() {
    let out = musa(&["sample", "c17", "--store", "s", "--profile"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--store cannot be combined"));
}

#[test]
fn bench_rejects_unknown_filter_benchmark_with_exit_2() {
    let out = musa(&["bench", "--quick", "--filter", "zz99"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown benchmark `zz99`"), "stderr: {stderr}");
    assert!(stderr.contains("--filter"), "stderr: {stderr}");
}

#[test]
fn bench_rejects_missing_and_malformed_baseline_with_exit_2() {
    let out = musa(&["bench", "--quick", "--baseline", "/nonexistent/BENCH_0.json"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("--baseline /nonexistent/BENCH_0.json:"),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    let dir = std::env::temp_dir().join(format!("musa-cli-bench-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let bad = dir.join("bad.json");
    std::fs::write(&bad, "{\"schema\": \"musa.campaign.v1\"}").unwrap();
    let out = musa(&["bench", "--quick", "--baseline", bad.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2));
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("schema mismatch"),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn bench_rejects_unknown_trajectory_arguments_with_usage() {
    let out = musa(&["bench", "--quick", "extra-positional"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown argument `extra-positional`"), "stderr: {stderr}");
    assert!(stderr.contains("usage: musa bench"), "stderr: {stderr}");
}

#[test]
fn bench_history_has_one_row_per_cell_and_no_lane_gaps() {
    // The committed reports name the lane engine's cells two ways:
    // without an `opt` field (BENCH_1, BENCH_2) and with
    // `"opt": "full"` (BENCH_3, BENCH_4). Both read as one
    // `…/lanes/…` row that spans the whole trajectory.
    let out = Command::new(env!("CARGO_BIN_EXE_musa"))
        .args(["bench", "--history"])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("musa binary runs");
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    assert!(stdout.ends_with(", 18 cell(s); medians in ms\n"), "{stdout}");
    let lane_rows: Vec<&str> = stdout.lines().filter(|l| l.contains("/lanes/")).collect();
    assert_eq!(lane_rows.len(), 6, "{stdout}");
    for row in lane_rows {
        assert!(!row.split_whitespace().any(|field| field == "-"), "gap in {row}");
    }
}

/// Normalizes the `musa.bench.v1` timing and machine fields (the
/// golden was normalized identically at capture time); everything
/// else — structure, field order, invariants — must match exactly.
fn normalize_bench_json(text: &str) -> String {
    let keys = [
        "\"median_ns\":", "\"mad_ns\":", "\"min_ns\":", "\"wall_ms\":",
        "\"cpus\":", "\"git\":", "\"debug\":",
    ];
    text.lines()
        .map(|line| match keys.iter().find(|k| line.contains(*k)) {
            Some(key) => {
                let indent: String =
                    line.chars().take_while(|c| c.is_whitespace()).collect();
                let comma = if line.trim_end().ends_with(',') { "," } else { "" };
                format!("{indent}{key} 0{comma}")
            }
            None => line.to_string(),
        })
        .collect::<Vec<_>>()
        .join("\n")
        + "\n"
}

#[test]
fn bench_json_matches_the_golden_schema() {
    let actual = stdout_of(&["bench", "--quick", "--json", "--filter", "c17", "--seed", "7"]);
    assert_eq!(
        normalize_bench_json(&actual),
        golden("bench_c17_quick.json"),
        "musa.bench.v1 drifted from the golden"
    );
}

#[test]
fn bench_baseline_round_trip_gates_on_invariants() {
    let dir = std::env::temp_dir().join(format!("musa-cli-roundtrip-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let baseline = dir.join("BENCH_1.json");

    // Capture a quick c17 report and use it as its own baseline: an
    // unchanged tree must exit 0.
    let report = stdout_of(&["bench", "--quick", "--json", "--filter", "c17", "--seed", "7"]);
    std::fs::write(&baseline, &report).unwrap();
    let clean = musa(&[
        "bench", "--quick", "--filter", "c17", "--seed", "7",
        "--baseline", baseline.to_str().unwrap(),
    ]);
    assert_eq!(clean.status.code(), Some(0), "{:?}", clean);
    assert!(
        String::from_utf8_lossy(&clean.stderr).contains("baseline check"),
        "stderr: {}",
        String::from_utf8_lossy(&clean.stderr)
    );

    // A synthetically regressed baseline (tampered invariant) must
    // exit 1 and name the drifted field.
    let population = report
        .lines()
        .find(|l| l.contains("\"population\":"))
        .expect("report has a population invariant")
        .trim()
        .trim_end_matches(',')
        .to_string();
    let tampered_value = population.replace(char::is_numeric, "") + "1";
    let tampered = report.replace(&population, &tampered_value);
    assert_ne!(report, tampered, "tampering must change the document");
    std::fs::write(&baseline, &tampered).unwrap();
    let regressed = musa(&[
        "bench", "--quick", "--filter", "c17", "--seed", "7",
        "--baseline", baseline.to_str().unwrap(),
    ]);
    assert_eq!(regressed.status.code(), Some(1), "{:?}", regressed);
    let stderr = String::from_utf8_lossy(&regressed.stderr);
    assert!(stderr.contains("regression:"), "stderr: {stderr}");
    assert!(stderr.contains("invariant `population` changed"), "stderr: {stderr}");
    std::fs::remove_dir_all(&dir).unwrap();
}

// ---------------------------------------------------------------------
// `musa lint` contract: exit 0 clean, 1 findings, 2 usage — and the
// `musa.lint.v1` JSON pinned by goldens.
// ---------------------------------------------------------------------

const DIRTY_FIXTURE: &str = "tests/fixtures/lint_dirty.mhdl";

#[test]
fn lint_without_target_exits_2_with_usage() {
    let out = musa(&["lint"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage: musa lint"));
    // `--all` plus a name is equally a usage error.
    let both = musa(&["lint", "--all", "c17"]);
    assert_eq!(both.status.code(), Some(2));
}

#[test]
fn lint_unknown_bench_exits_2_before_analysis() {
    let out = musa(&["lint", "zz99"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown benchmark `zz99`"), "stderr: {stderr}");
    assert!(out.stdout.is_empty(), "no analysis output before the error");
}

#[test]
fn lint_clean_bench_exits_0_with_clean_line() {
    let out = musa(&["lint", "c17"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    assert_eq!(String::from_utf8_lossy(&out.stdout), "c17.mhdl: clean\n");
}

#[test]
fn lint_all_bundled_benchmarks_are_clean() {
    let out = musa(&["lint", "--all"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 11, "one line per bundled benchmark: {stdout}");
    for line in &lines {
        assert!(line.ends_with(": clean"), "{line}");
    }
}

#[test]
fn lint_dirty_fixture_exits_1_with_file_line_findings() {
    let out = musa(&["lint", DIRTY_FIXTURE]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    // Every finding is a compiler-style `file:line:col: rule: message`
    // line anchored at the fixture path.
    assert!(!stdout.is_empty());
    for line in stdout.lines() {
        assert!(line.starts_with(&format!("{DIRTY_FIXTURE}:")), "{line}");
    }
    for fragment in [
        ":3:8: unread-signal: ",
        ":7:6: constant-condition: ",
        ":8:5: dead-statement: ",
    ] {
        assert!(stdout.contains(fragment), "missing {fragment}: {stdout}");
    }
}

#[test]
fn lint_json_matches_the_goldens() {
    let dirty = musa(&["lint", DIRTY_FIXTURE, "--json"]);
    assert_eq!(dirty.status.code(), Some(1));
    assert_eq!(
        String::from_utf8_lossy(&dirty.stdout),
        golden("lint_dirty.json"),
        "musa.lint.v1 drifted from the dirty golden"
    );
    assert_eq!(
        stdout_of(&["lint", "c17", "--json"]),
        golden("lint_c17.json"),
        "musa.lint.v1 drifted from the clean golden"
    );
}

#[test]
fn lint_missing_file_exits_2_and_broken_file_exits_1() {
    let out = musa(&["lint", "/nonexistent/x.mhdl"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("/nonexistent/x.mhdl"));

    let dir = std::env::temp_dir().join(format!("musa-cli-lint-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let bad = dir.join("bad.mhdl");
    std::fs::write(&bad, "entity nope").unwrap();
    let out = musa(&["lint", bad.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1), "parse errors are failures, not usage");
    assert!(String::from_utf8_lossy(&out.stderr).contains("error:"));

    // Designs the checker rejects fail with its error before any lint
    // rule runs.
    let rejected = [
        (
            "entity e is port(a : in bit; y : out bit);
             comb begin y <= a; end;
             comb begin y <= not a; end;
             end;",
            "`y` is driven by more than one process",
        ),
        (
            "entity e is port(a : in bit; y : out bit);
             signal s : bit;
             signal t : bit;
             comb begin s <= t and a; end;
             comb begin t <= s or a; end;
             comb begin y <= s; end;
             end;",
            "combinational loop between processes",
        ),
        (
            "entity e is port(s : in bits(2); y : out bit);
             comb begin
               case s is
                 when 0 => y <= 1;
                 when 0 => y <= 0;
                 when others => y <= 0;
               end case;
             end;
             end;",
            "duplicate case choice 0",
        ),
        (
            "entity e is port(a : in bits(2); b : in bits(2); y : out bits(2));
             comb begin y <= a & b; end;
             end;",
            "expression has width 4, context requires 2",
        ),
    ];
    let file = dir.join("rejected.mhdl");
    for (source, message) in rejected {
        std::fs::write(&file, source).unwrap();
        let out = musa(&["lint", file.to_str().unwrap()]);
        assert_eq!(out.status.code(), Some(1), "{message}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(message), "{stderr}");
    }
    // The loop and the partial assignment point into the process at
    // fault, and the partial assignment names the first declared of its
    // two unassigned outputs on every run; an undriven output points at
    // its port declaration.
    let located = [
        (
            "entity e is port(a : in bit; y : out bit);\n\
             signal s : bit;\n\
             signal t : bit;\n\
             comb begin s <= t and a; end;\n\
             comb begin t <= s or a; end;\n\
             comb begin y <= s; end;\n\
             end;\n",
            "error: check error at 4:12: combinational loop between processes\n",
        ),
        (
            "entity e is port(a : in bit; y : out bit; z : out bit);\n\
             comb begin\n\
             if a = 1 then y <= 1; z <= 1; end if;\n\
             end;\n\
             end;\n",
            "error: check error at 3:4: combinational process may leave `y` partially \
             unassigned (covered bits 0b0 of 0b1)\n",
        ),
        (
            "entity e is port(a : in bit; y : out bit; z : out bit); comb begin y <= a; end; end;",
            "error: check error at 1:43: output port `z` is never driven\n",
        ),
    ];
    for (source, expected) in located {
        std::fs::write(&file, source).unwrap();
        for _ in 0..4 {
            let out = musa(&["lint", file.to_str().unwrap()]);
            assert_eq!(out.status.code(), Some(1), "{expected}");
            assert_eq!(String::from_utf8_lossy(&out.stderr), expected);
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn sample_json_is_identical_across_screen_settings() {
    // The static pre-screen is a work-avoidance knob, not a numbers
    // knob: apart from the fields that *report* the knob and the
    // screened count, the reports must match byte for byte.
    let normalize = |text: String| -> String {
        text.lines()
            .filter(|l| {
                !l.contains("\"wall_ms\":")
                    && !l.contains("\"screen\":")
                    && !l.contains("\"screened\":")
            })
            .collect::<Vec<_>>()
            .join("\n")
    };
    let on = stdout_of(&[
        "sample", "b01", "0.3", "--seed", "7", "--screen", "static", "--json",
    ]);
    assert!(on.contains("\"screen\": \"static\""));
    let off = stdout_of(&[
        "sample", "b01", "0.3", "--seed", "7", "--screen", "off", "--json",
    ]);
    assert!(off.contains("\"screen\": \"off\""));
    assert!(off.contains("\"screened\": 0"));
    assert_eq!(normalize(on), normalize(off));
}

#[test]
fn sample_rejects_bad_screen_value() {
    let out = musa(&["sample", "c17", "--screen", "sometimes"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("static|off"));
}

#[test]
fn missing_file_reports_error_not_panic() {
    let out = musa(&["faultsim", "/nonexistent/x.bench"]);
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("error:"), "stderr: {stderr}");
}

/// `info`, `synth` and `mutants` resolve the entity before doing any
/// work, so an unknown one is the same error in all three.
#[test]
fn design_commands_reject_an_unknown_entity() {
    for cmd in ["info", "synth", "mutants"] {
        let out = musa(&[cmd, "crates/circuits/src/hdl/c17.mhdl", "nope"]);
        assert_eq!(out.status.code(), Some(1), "{cmd}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("no entity `nope`"), "{cmd}: {stderr}");
        assert!(out.stdout.is_empty(), "{cmd}: {out:?}");
    }
}

/// `musa faultsim` over netlists emitted by `musa synth` from the bundled
/// c432 (combinational: PPSFP) and b01 (sequential: parallel-fault).
/// The goldens predate the compiled fault simulator, and the command
/// passes the path the golden records, so the name line matches too.
#[test]
fn faultsim_stdout_matches_the_goldens() {
    for bench in ["c432", "b01"] {
        assert_eq!(
            stdout_of(&[
                "faultsim",
                &format!("tests/fixtures/{bench}.bench"),
                "200",
                "7"
            ]),
            golden(&format!("faultsim_{bench}.txt")),
            "musa faultsim {bench} drifted"
        );
    }
}

/// Every report prints its seed in hex, so a seed copied from one must
/// read back: `0x` spellings run exactly like their decimal values.
#[test]
fn hex_seeds_equal_their_decimal_spelling() {
    assert_eq!(
        stdout_of(&["faultsim", "tests/fixtures/b01.bench", "200", "0x7"]),
        golden("faultsim_b01.txt")
    );
    assert_eq!(
        stdout_of(&["sample", "c17", "0.5", "--seed", "0x10", "--jobs", "1"]),
        stdout_of(&["sample", "c17", "0.5", "--seed", "16", "--jobs", "1"])
    );
}

/// A vector count whose pattern storage overflows (or would exhaust
/// memory) is refused before any pattern is generated.
#[test]
fn faultsim_rejects_a_vector_count_past_the_pattern_limit() {
    let out = musa(&[
        "faultsim",
        "tests/fixtures/b01.bench",
        "18446744073709551615",
        "7",
    ]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.starts_with("error: ") && stderr.contains("pattern limit"),
        "{stderr}"
    );
    assert!(out.stdout.is_empty(), "{out:?}");
}

#[test]
fn faultsim_grades_netlists_with_no_or_more_than_64_inputs() {
    for fixture in ["wide65", "no_inputs"] {
        let path = format!("tests/fixtures/hostile/{fixture}.bench");
        let stdout = stdout_of(&["faultsim", &path, "100", "3"]);
        assert!(
            stdout.starts_with(&format!("{path}: ")) && stdout.contains("vectors -> "),
            "{fixture}: {stdout}"
        );
        assert!(
            stdout.lines().next().unwrap().ends_with("% coverage"),
            "{stdout}"
        );
    }
}

#[test]
fn deeply_nested_hdl_is_a_parse_error_not_an_abort() {
    // The parser recurses once per nested parenthesis, and the checker
    // and synthesizer once per level of the tree, so 200k nested
    // parentheses or a 200k-link chain would overflow the stack (exit
    // 134); the nesting cap must turn each into a parse error (exit 1).
    let dir = std::env::temp_dir().join(format!("musa-cli-deep-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let bodies = [
        (
            "parens",
            format!("{}a{}", "(".repeat(200_000), ")".repeat(200_000)),
        ),
        ("and", format!("a{}", " and a".repeat(200_000))),
        ("concat", format!("a{}", " & a".repeat(200_000))),
    ];
    for (name, body) in bodies {
        let path = dir.join(format!("{name}.mhdl"));
        std::fs::write(
            &path,
            format!(
                "entity e is port(a : in bit; y : out bit); comb begin y <= {body}; end; end;\n"
            ),
        )
        .unwrap();
        let path = path.to_str().unwrap();
        for args in [vec!["info", path, "e"], vec!["lint", path]] {
            let out = musa(&args);
            assert_eq!(out.status.code(), Some(1), "{name} {args:?}: {out:?}");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(
                stderr.contains("nesting deeper than"),
                "{name} {args:?}: {stderr}"
            );
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// `musa synth` on a sequential design with `case` and nested `if`:
/// its mux order used to follow hash order, so the netlist changed from
/// run to run.
#[test]
fn synth_b05_matches_the_golden() {
    assert_eq!(
        stdout_of(&["synth", "crates/circuits/src/hdl/b05.mhdl", "b05"]),
        golden("synth_b05.bench")
    );
}

#[test]
fn long_elsif_and_case_arm_lists_synthesize() {
    // Synthesis lowered `elsif` and `case` arms recursively, one stack
    // frame per arm, so 20,000 arms overflowed the stack (exit 134).
    const ARMS: usize = 20_000;
    let dir = std::env::temp_dir().join(format!("musa-cli-arms-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let elsif: String = (1..ARMS)
        .map(|i| format!("    elsif a[{}] = {} then y <= {};\n", i % 16, i / 16 % 2, i % 2))
        .collect();
    let case: String = (0..ARMS)
        .map(|i| format!("      when {i} => y <= {};\n", i % 2))
        .collect();
    let bodies = [
        ("elsif", format!("    if a[0] = 1 then y <= 0;\n{elsif}    else y <= 0;\n    end if;\n")),
        ("case", format!("    case a is\n{case}      when others => y <= 0;\n    end case;\n")),
    ];
    for (name, body) in bodies {
        let path = dir.join(format!("{name}.mhdl"));
        std::fs::write(
            &path,
            format!("entity e is\n  port(a : in bits(16); y : out bit);\n  comb begin\n{body}  end;\nend;\n"),
        )
        .unwrap();
        let out = musa(&["info", path.to_str().unwrap(), "e"]);
        assert_eq!(out.status.code(), Some(0), "{name}: {out:?}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Every file-taking subcommand over every file of the hostile corpus,
/// plus an empty and a non-UTF-8 file: malformed input is an error
/// (exit 1 or 2), never a panic (101) or an abort (134).
#[test]
fn hostile_inputs_exit_0_1_or_2_under_every_subcommand() {
    let dir = std::env::temp_dir().join(format!("musa-cli-hostile-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let empty = dir.join("empty.mhdl");
    std::fs::write(&empty, "").unwrap();
    let binary = dir.join("binary.mhdl");
    std::fs::write(&binary, [0xff, 0xfe, 0x00, b'e', 0x80]).unwrap();
    let mut files: Vec<std::path::PathBuf> = std::fs::read_dir("tests/fixtures/hostile")
        .unwrap()
        .map(|entry| entry.unwrap().path())
        .collect();
    files.sort();
    files.extend([empty, binary]);
    for file in &files {
        let path = file.to_str().unwrap();
        for args in [
            &["info", path, "e"][..],
            &["synth", path, "e"],
            &["mutants", path, "e"],
            &["lint", path],
            &["faultsim", path],
            &["scoap", path],
            &["atpg", path],
            &["campaign", path],
            &["bench", "--baseline", path],
        ] {
            let out = musa(args);
            assert!(matches!(out.status.code(), Some(0..=2)), "{args:?}: {out:?}");
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn info_requires_file_and_entity() {
    let out = musa(&["info", "only-one-arg"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("expected <file.mhdl> <entity>"));
}

/// A reader that goes away before `musa` writes (as `| head -1` does
/// once it has its line) must not make it panic: the command ends
/// quietly with its own exit code.
#[test]
fn closed_stdout_ends_quietly_with_the_commands_own_exit_code() {
    let c432 = concat!(env!("CARGO_MANIFEST_DIR"), "/crates/circuits/src/hdl/c432.mhdl");
    for (args, code) in [
        (&["mutants", c432, "c432"][..], 0),
        (&["info", c432, "c432"], 0),
        (&["list"], 0),
        (&["lint", "tests/fixtures/lint_dirty.mhdl"], 1),
    ] {
        let mut child = Command::new(env!("CARGO_BIN_EXE_musa"))
            .args(args)
            .current_dir(env!("CARGO_MANIFEST_DIR"))
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("musa binary runs");
        drop(child.stdout.take());
        let out = child.wait_with_output().expect("musa binary ends");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert!(!stderr.contains("Broken pipe"), "{args:?}: {stderr}");
        assert_ne!(out.status.code(), Some(101), "{args:?}");
        assert_eq!(out.status.code(), Some(code), "{args:?}: {stderr}");
    }
}

/// One combinational `case` over a 16-bit subject with `arms` arms, arm
/// `i` assigning `a xor (i mod 256)`: a single process that grows with
/// the arm count, the shape that made whole-design re-checking
/// quadratic.
fn stress_design(arms: usize) -> String {
    let mut src = String::from(
        "entity stress is\n  port(s : in bits(16); a : in bits(8); y : out bits(8));\n  comb begin\n    case s is\n",
    );
    for i in 0..arms {
        src.push_str(&format!("      when {i} => y <= a xor {};\n", i % 256));
    }
    src.push_str("      when others => y <= a;\n    end case;\n  end;\nend stress;\n");
    src
}

/// `musa mutants` on a 300-arm design: the population is the one
/// whole-design re-checking of every candidate produced, counted per
/// operator, and validating it takes seconds at most in a debug build.
#[test]
fn mutants_scale_to_a_300_arm_case() {
    let dir = std::env::temp_dir().join(format!("musa-stress-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("stress.mhdl");
    std::fs::write(&path, stress_design(300)).unwrap();
    let stdout = stdout_of(&["mutants", path.to_str().unwrap(), "stress"]);
    std::fs::remove_dir_all(&dir).unwrap();
    let expected = [
        "9456 valid mutants:",
        "  LOR   1500   logical operator replacement",
        "  CVR   4832   constant for variable replacement",
        "  CR    2822   constant replacement",
        "  UOI    302   unary operator insertion",
    ];
    assert_eq!(stdout.lines().collect::<Vec<_>>(), expected);
}
