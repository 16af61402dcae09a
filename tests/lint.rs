//! The bundled benchmark suite is lint-clean: every `.mhdl` circuit
//! passes the full `musa_analysis` catalog with zero findings. A new
//! rule (or a circuit edit) that trips a finding must either fix the
//! source or consciously amend this pin.

use musa::analysis::LINT_RULES;
use musa::circuits::Benchmark;
use musa::core::{lint_bench, render_lint_text, total_findings, LintRow};

#[test]
fn every_bundled_benchmark_lints_clean() {
    let rows: Vec<LintRow> = Benchmark::all().into_iter().map(lint_bench).collect();
    assert_eq!(rows.len(), 11);
    assert_eq!(
        total_findings(&rows),
        0,
        "bundled circuits must stay lint-clean:\n{}",
        render_lint_text(&rows)
    );
    for (bench, row) in Benchmark::all().into_iter().zip(&rows) {
        assert_eq!(row.bench, bench.name());
        assert_eq!(row.file, format!("{}.mhdl", bench.name()));
    }
}

#[test]
fn rule_slugs_are_unique_and_kebab_case() {
    let mut slugs: Vec<&str> = LINT_RULES.iter().map(|r| r.slug()).collect();
    slugs.sort_unstable();
    let before = slugs.len();
    slugs.dedup();
    assert_eq!(before, slugs.len(), "duplicate rule slug");
    assert_eq!(before, 5, "the catalog has five rules");
    for slug in slugs {
        assert!(
            slug.chars().all(|c| c.is_ascii_lowercase() || c == '-'),
            "{slug}"
        );
    }
}
