//! The lint task behind `musa lint`: run the `musa_analysis` catalog
//! over MiniHDL sources and emit findings as compiler-style text
//! (`file:line:col: rule: message`) or schema'd `musa.lint.v1` JSON.
//!
//! The analysis itself lives in [`musa_analysis::lint_design`]; this
//! module resolves spans against the source text (the analysis crate
//! deals only in byte offsets) and owns the serialized row shapes the
//! CLI contract tests pin.

use crate::json::Json;
use musa_analysis::lint_design;
use musa_circuits::Benchmark;
use musa_hdl::{parse, CheckedDesign, HdlError};

/// The schema tag every lint report carries.
pub const LINT_SCHEMA: &str = "musa.lint.v1";

/// One lint finding with its span resolved to a line/column position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LintFindingRow {
    /// Rule slug (e.g. `dead-statement`); see the catalog in
    /// [`musa_analysis::LINT_RULES`].
    pub rule: String,
    /// Entity the finding is in.
    pub entity: String,
    /// 1-based source line.
    pub line: u32,
    /// 1-based source column.
    pub col: u32,
    /// Human-readable description of the defect.
    pub message: String,
}

/// One linted source file (a bundled benchmark or an on-disk `.mhdl`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LintRow {
    /// Benchmark name (or the file stem for ad-hoc files).
    pub bench: String,
    /// Display path used in the `file:line:col` prefix.
    pub file: String,
    /// Findings in source order (the analysis sorts them).
    pub findings: Vec<LintFindingRow>,
}

/// Lints one source text: parse, check, run the catalog, and resolve
/// every finding's span to a line/column against `source`.
///
/// # Errors
///
/// Returns the [`HdlError`] when the source does not parse or fails
/// semantic checking: the rules run on the checked design.
pub fn lint_source(bench: &str, file: &str, source: &str) -> Result<LintRow, HdlError> {
    let checked = CheckedDesign::new(parse(source)?)?;
    let findings = lint_design(&checked)
        .into_iter()
        .map(|f| {
            let (line, col) = f.span.line_col(source);
            LintFindingRow {
                rule: f.rule.slug().to_string(),
                entity: f.entity,
                line,
                col,
                message: f.message,
            }
        })
        .collect();
    Ok(LintRow {
        bench: bench.to_string(),
        file: file.to_string(),
        findings,
    })
}

/// Lints one bundled benchmark.
pub fn lint_bench(bench: Benchmark) -> LintRow {
    lint_source(
        bench.name(),
        &format!("{}.mhdl", bench.name()),
        bench.source(),
    )
    .expect("bundled benchmarks parse and check (pinned by the circuits tests)")
}

/// Total finding count across rows — the CLI's exit-code discriminant.
pub fn total_findings(rows: &[LintRow]) -> usize {
    rows.iter().map(|r| r.findings.len()).sum()
}

/// Renders rows as compiler-style text: one
/// `file:line:col: rule: message` line per finding, and a
/// `file: clean` line for files without findings.
pub fn render_lint_text(rows: &[LintRow]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for row in rows {
        if row.findings.is_empty() {
            let _ = writeln!(out, "{}: clean", row.file);
        }
        for f in &row.findings {
            let _ = writeln!(
                out,
                "{}:{}:{}: {}: {}",
                row.file, f.line, f.col, f.rule, f.message
            );
        }
    }
    out
}

/// Renders the `musa.lint.v1` document. Like the bench task, lint
/// emits its own schema instead of the campaign envelope, so the
/// document stands alone for downstream tooling. `benches` lists the
/// linted targets (benchmark names, or the file stem in file mode).
pub fn lint_report_json(benches: &[String], rows: &[LintRow]) -> String {
    Json::Obj(vec![
        ("schema", Json::str(LINT_SCHEMA)),
        (
            "meta",
            Json::Obj(vec![
                ("benches", Json::Arr(benches.iter().map(Json::str).collect())),
                ("findings", Json::count(total_findings(rows))),
            ]),
        ),
        (
            "data",
            Json::Arr(
                rows.iter()
                    .map(|row| {
                        Json::Obj(vec![
                            ("bench", Json::str(&row.bench)),
                            ("file", Json::str(&row.file)),
                            (
                                "findings",
                                Json::Arr(
                                    row.findings
                                        .iter()
                                        .map(|f| {
                                            Json::Obj(vec![
                                                ("rule", Json::str(&f.rule)),
                                                ("entity", Json::str(&f.entity)),
                                                ("line", Json::count(f.line as usize)),
                                                ("col", Json::count(f.col as usize)),
                                                ("message", Json::str(&f.message)),
                                            ])
                                        })
                                        .collect(),
                                ),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
    .render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lint_source_resolves_lines_and_columns() {
        let src = "entity e is port(a : in bit; y : out bit);\n\
                   signal ghost : bit := 0;\n\
                   comb begin y <= a; end;\n\
                   end;";
        let row = lint_source("e", "e.mhdl", src).unwrap();
        assert_eq!(row.bench, "e");
        assert_eq!(row.file, "e.mhdl");
        assert_eq!(row.findings.len(), 1, "{:?}", row.findings);
        let f = &row.findings[0];
        assert_eq!(f.rule, "unread-signal");
        assert_eq!(f.line, 2, "the ghost declaration is on line 2");
        assert!(f.message.contains("ghost"), "{}", f.message);
        assert_eq!(total_findings(&[row]), 1);
    }

    #[test]
    fn text_rendering_is_compiler_style() {
        let src = "entity e is port(a : in bit; y : out bit);\n\
                   signal ghost : bit := 0;\n\
                   comb begin y <= a; end;\n\
                   end;";
        let row = lint_source("e", "fix/e.mhdl", src).unwrap();
        let text = render_lint_text(&[row]);
        assert!(
            text.starts_with("fix/e.mhdl:2:"),
            "findings lead with file:line:col — {text}"
        );
        assert!(text.contains(": unread-signal: "), "{text}");
    }

    #[test]
    fn clean_file_renders_a_clean_line() {
        let src = "entity e is port(a : in bit; y : out bit);\n\
                   comb begin y <= a; end;\n\
                   end;";
        let row = lint_source("e", "e.mhdl", src).unwrap();
        assert!(row.findings.is_empty(), "{:?}", row.findings);
        assert_eq!(render_lint_text(&[row]), "e.mhdl: clean\n");
    }

    #[test]
    fn parse_and_check_errors_propagate() {
        assert!(lint_source("x", "x.mhdl", "entity nope").is_err());
        // Well-formed syntax, but `y` is undriven: the checker rejects
        // it before lint rules run.
        assert!(lint_source(
            "x",
            "x.mhdl",
            "entity x is port(a : in bit; y : out bit); end;"
        )
        .is_err());
    }
}
