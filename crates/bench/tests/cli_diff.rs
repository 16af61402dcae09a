//! CLI diff tests: every experiment binary's default stdout must be
//! **byte-identical** to the pre-campaign-redesign output (the golden
//! files under `tests/golden/` were captured from the pre-redesign
//! binaries), and the `--json` reports must be bit-identical across
//! every `--jobs` value.

use std::process::Command;

fn run(bin: &str, args: &[&str]) -> String {
    let exe = match bin {
        "table1" => env!("CARGO_BIN_EXE_table1"),
        "table2" => env!("CARGO_BIN_EXE_table2"),
        "sweep_fraction" => env!("CARGO_BIN_EXE_sweep_fraction"),
        "coverage_curves" => env!("CARGO_BIN_EXE_coverage_curves"),
        "atpg_topup" => env!("CARGO_BIN_EXE_atpg_topup"),
        "equivalence_ablation" => env!("CARGO_BIN_EXE_equivalence_ablation"),
        other => panic!("unknown bin {other}"),
    };
    let out = Command::new(exe).args(args).output().expect("binary runs");
    assert!(
        out.status.success(),
        "{bin} {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 stdout")
}

fn golden(name: &str) -> String {
    let path = format!("{}/tests/golden/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// `--fast --jobs 2` stdout of every binary, against the pre-redesign
/// capture. One test per binary so a drift names its binary.
macro_rules! golden_test {
    ($name:ident, $bin:literal, $file:literal) => {
        #[test]
        fn $name() {
            assert_eq!(
                run($bin, &["--fast", "--jobs", "2"]),
                golden($file),
                concat!($bin, " drifted from the pre-redesign stdout")
            );
        }
    };
}

golden_test!(table1_stdout_is_byte_identical, "table1", "table1_fast.txt");
golden_test!(table2_stdout_is_byte_identical, "table2", "table2_fast.txt");
golden_test!(
    sweep_fraction_stdout_is_byte_identical,
    "sweep_fraction",
    "sweep_fraction_fast.txt"
);
golden_test!(
    coverage_curves_stdout_is_byte_identical,
    "coverage_curves",
    "coverage_curves_fast.txt"
);
golden_test!(atpg_topup_stdout_is_byte_identical, "atpg_topup", "atpg_topup_fast.txt");
golden_test!(
    equivalence_ablation_stdout_is_byte_identical,
    "equivalence_ablation",
    "equivalence_ablation_fast.txt"
);

/// Drops the per-run metadata (`wall_ms`) and the knob under test
/// (`jobs`) — everything else must be bit-identical.
fn normalize_json(text: String) -> String {
    text.lines()
        .filter(|l| !l.contains("\"wall_ms\":") && !l.contains("\"jobs\":"))
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn coverage_curves_json_is_identical_across_jobs() {
    let base = normalize_json(run(
        "coverage_curves",
        &["--fast", "--seed", "9", "--jobs", "1", "--json"],
    ));
    assert!(base.contains("\"schema\": \"musa.campaign.v1\""), "{base}");
    assert!(base.contains("\"task\": \"coverage-curves\""), "{base}");
    assert!(base.contains("\"engine\": \"lanes\""), "{base}");
    let other = normalize_json(run(
        "coverage_curves",
        &["--fast", "--seed", "9", "--jobs", "2", "--json"],
    ));
    assert_eq!(base, other);
}

#[test]
fn equivalence_ablation_json_is_identical_across_jobs() {
    let serial = normalize_json(run(
        "equivalence_ablation",
        &["--fast", "--seed", "9", "--jobs", "1", "--json"],
    ));
    let parallel = normalize_json(run(
        "equivalence_ablation",
        &["--fast", "--seed", "9", "--jobs", "2", "--json"],
    ));
    assert_eq!(serial, parallel);
}

#[test]
fn help_exits_zero_and_names_the_shared_flags() {
    let out = Command::new(env!("CARGO_BIN_EXE_table1"))
        .arg("--help")
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    for flag in ["--fast", "--paper", "--seed", "--jobs", "--json"] {
        assert!(stdout.contains(flag), "--help output lacks {flag}");
    }
    assert!(!stdout.contains("--engine"), "--help names a retired flag");
}

#[test]
fn conflicting_presets_exit_nonzero() {
    let out = Command::new(env!("CARGO_BIN_EXE_atpg_topup"))
        .args(["--fast", "--paper"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(1));
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("conflicting presets"),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn unknown_argument_exits_2_with_usage() {
    let out = Command::new(env!("CARGO_BIN_EXE_table1"))
        .arg("--frobnicate")
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "nothing may run");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown argument `--frobnicate`"), "stderr: {stderr}");
    assert!(stderr.contains("--help"), "usage text expected: {stderr}");
}

#[test]
fn retired_engine_flag_exits_2_with_usage() {
    // Every sweep runs on the lane engine: `--engine` is unknown.
    let out = Command::new(env!("CARGO_BIN_EXE_table2"))
        .args(["--fast", "--engine", "lanes"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "nothing may run");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown argument `--engine`"), "stderr: {stderr}");
}

#[test]
fn retired_opt_flag_exits_2_with_usage() {
    // One lane executor, no level to pick: `--opt` is unknown.
    let out = Command::new(env!("CARGO_BIN_EXE_table2"))
        .args(["--fast", "--opt", "off"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "nothing may run");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown argument `--opt`"), "stderr: {stderr}");
}
