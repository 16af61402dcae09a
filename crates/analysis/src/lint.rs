//! The lint catalog: span-carrying diagnostics over *checked* designs.
//!
//! Lints run on the [`CheckedDesign`] the checker builds. Whatever the
//! checker rejects (multi-driven values, combinational loops, duplicate
//! case choices, width mismatches) never reaches a rule, so the catalog
//! covers what a well-formed design can still get wrong, and rules read
//! the checker's side tables instead of re-deriving them.

use crate::dataflow::{analyze_dead, fold_expr, ConstEnv, EntityFacts};
use musa_hdl::ast::{Entity, NodeId, Stmt};
use musa_hdl::{CheckedDesign, EntityInfo, Span};
use std::collections::{HashMap, HashSet};

/// One rule of the lint catalog.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum LintRule {
    /// A statement that can never execute (constant guard, matched
    /// constant case subject, or empty loop range).
    DeadStatement,
    /// A signal or constant that is never read anywhere. Unread input
    /// ports are an interface contract, not a bug, and are not reported.
    UnreadSignal,
    /// A signal that is written and read, but whose value can never
    /// reach an output port.
    WriteOnlyCone,
    /// An `if` condition that folds to a constant.
    ConstantCondition,
    /// A `case` without `when others` that does not cover every
    /// subject value (latch inference risk).
    IncompleteCase,
}

/// Every rule, in catalog order.
pub const LINT_RULES: [LintRule; 5] = [
    LintRule::DeadStatement,
    LintRule::UnreadSignal,
    LintRule::WriteOnlyCone,
    LintRule::ConstantCondition,
    LintRule::IncompleteCase,
];

impl LintRule {
    /// Stable kebab-case identifier (used in text and JSON output).
    pub fn slug(self) -> &'static str {
        match self {
            LintRule::DeadStatement => "dead-statement",
            LintRule::UnreadSignal => "unread-signal",
            LintRule::WriteOnlyCone => "write-only-cone",
            LintRule::ConstantCondition => "constant-condition",
            LintRule::IncompleteCase => "incomplete-case",
        }
    }

    /// One-line description for catalogs and docs.
    pub fn description(self) -> &'static str {
        match self {
            LintRule::DeadStatement => "statement can never execute",
            LintRule::UnreadSignal => "signal or constant is never read",
            LintRule::WriteOnlyCone => "signal value never reaches an output",
            LintRule::ConstantCondition => "condition is constant",
            LintRule::IncompleteCase => "case without `when others` misses values",
        }
    }
}

/// One diagnostic produced by [`lint_design`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LintFinding {
    /// The rule that fired.
    pub rule: LintRule,
    /// The entity the finding is in.
    pub entity: String,
    /// Source location (may be [`Span::dummy`] for synthesized nodes).
    pub span: Span,
    /// Human-readable explanation.
    pub message: String,
}

/// Runs the whole catalog over a checked design.
///
/// Findings are sorted by entity (declaration order), then source
/// position, then rule slug, so output is deterministic.
pub fn lint_design(checked: &CheckedDesign) -> Vec<LintFinding> {
    let mut findings: Vec<(usize, LintFinding)> = Vec::new();
    for (idx, (entity, info)) in checked.entities().enumerate() {
        let mut emit = |rule: LintRule, span: Span, message: String| {
            findings.push((
                idx,
                LintFinding {
                    rule,
                    entity: entity.name.name.clone(),
                    span,
                    message,
                },
            ));
        };
        lint_entity(entity, info, &mut emit);
    }
    findings.sort_by(|(ia, a), (ib, b)| {
        (ia, a.span.lo, a.rule.slug()).cmp(&(ib, b.span.lo, b.rule.slug()))
    });
    findings.into_iter().map(|(_, f)| f).collect()
}

fn lint_entity(entity: &Entity, info: &EntityInfo, emit: &mut impl FnMut(LintRule, Span, String)) {
    let env = ConstEnv::from_entity(entity);
    let facts = EntityFacts::new(entity);

    structure_rules(entity, &facts, emit);

    for process in &entity.processes {
        let dead = analyze_dead(&process.body, &env, None);
        for &(_, span) in &dead.roots {
            emit(
                LintRule::DeadStatement,
                span,
                "statement can never execute".to_owned(),
            );
        }
        musa_hdl::ast::walk_stmts(&process.body, &mut |stmt| {
            if dead.nodes.contains(&stmt.id()) {
                return; // already reported as part of a dead region
            }
            stmt_rules(stmt, &env, &info.widths, &dead.nodes, emit);
        });
    }
}

/// Entity-level rules: unread names and write-only cones.
fn structure_rules(
    entity: &Entity,
    facts: &EntityFacts,
    emit: &mut impl FnMut(LintRule, Span, String),
) {
    let read: HashSet<&str> = facts.read_anywhere();

    for signal in &entity.signals {
        if !read.contains(signal.name.name.as_str()) {
            emit(
                LintRule::UnreadSignal,
                signal.name.span,
                format!("signal `{}` is never read", signal.name.name),
            );
        }
    }
    for cst in &entity.consts {
        if !read.contains(cst.name.name.as_str()) {
            emit(
                LintRule::UnreadSignal,
                cst.name.span,
                format!("constant `{}` is never read", cst.name.name),
            );
        }
    }

    let cone = facts.output_cone(entity);
    for signal in &entity.signals {
        let name = signal.name.name.as_str();
        let written = facts.writes.iter().any(|w| w.contains(name));
        if written && read.contains(name) && !cone.contains(name) {
            emit(
                LintRule::WriteOnlyCone,
                signal.name.span,
                format!("signal `{name}` is read but its value never reaches an output"),
            );
        }
    }
}

/// Statement-level rules: constant conditions and incomplete cases.
/// `widths` is the checker's per-expression width table.
fn stmt_rules(
    stmt: &Stmt,
    env: &ConstEnv,
    widths: &HashMap<NodeId, u32>,
    dead: &HashSet<NodeId>,
    emit: &mut impl FnMut(LintRule, Span, String),
) {
    match stmt {
        Stmt::If { arms, .. } => {
            for (cond, _) in arms {
                if dead.contains(&cond.id()) {
                    continue;
                }
                if let Some(v) = fold_expr(cond, env, None) {
                    let verdict = if v.as_bool() { "true" } else { "false" };
                    emit(
                        LintRule::ConstantCondition,
                        cond.span(),
                        format!("condition is always {verdict}"),
                    );
                }
            }
        }
        Stmt::Case {
            subject,
            arms,
            default: None,
            ..
        } => {
            // The checker admits only distinct choices that fit the
            // subject, so counting them counts the covered values.
            let covered: usize = arms.iter().map(|arm| arm.choices.len()).sum();
            let missing = match widths.get(&subject.id()) {
                Some(&w) if w < 64 => ((covered as u64) < (1u64 << w)).then(|| {
                    format!(
                        "case covers {covered} of {} subject values and has no `when others`",
                        1u64 << w
                    )
                }),
                _ => Some(
                    "case over a 64-bit subject cannot cover all values without `when others`"
                        .to_owned(),
                ),
            };
            if let Some(message) = missing {
                emit(LintRule::IncompleteCase, subject.span(), message);
            }
        }
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use musa_hdl::parse;

    fn checked(src: &str) -> CheckedDesign {
        CheckedDesign::new(parse(src).unwrap()).unwrap()
    }

    /// Parses, checks and lints, returning `(slug, message)` pairs in
    /// report order.
    fn lint(src: &str) -> Vec<(&'static str, String)> {
        lint_design(&checked(src))
            .into_iter()
            .map(|f| (f.rule.slug(), f.message))
            .collect()
    }

    fn slugs(src: &str) -> Vec<&'static str> {
        lint(src).into_iter().map(|(s, _)| s).collect()
    }

    #[test]
    fn clean_design_has_no_findings() {
        let src = "
            entity e is
              port(a : in bits(2); y : out bits(2));
            signal t : bits(2);
            comb begin t <= a; end;
            comb begin
              case t is
                when 0 => y <= 1;
                when others => y <= t;
              end case;
            end;
            end;
        ";
        assert!(lint(src).is_empty(), "{:?}", lint(src));
    }

    #[test]
    fn dead_statement_positive_and_negative() {
        let dirty = "
            entity e is
              port(a : in bit; y : out bit);
            constant K : bit := 0;
            comb begin
              if K = 1 then
                y <= not a;
              else
                y <= a;
              end if;
            end;
            end;
        ";
        // The dead arm plus the constant condition that kills it.
        let got = slugs(dirty);
        assert!(got.contains(&"dead-statement"), "{got:?}");
        let clean = "
            entity e is
              port(a : in bit; y : out bit);
            comb begin
              if a = 1 then y <= 0; else y <= 1; end if;
            end;
            end;
        ";
        assert!(!slugs(clean).contains(&"dead-statement"));
    }

    #[test]
    fn unread_signal_positive_and_negative() {
        let dirty = "
            entity e is
              port(a : in bit; y : out bit);
            signal ghost : bit;
            constant K : bits(2) := 1;
            comb begin ghost <= a; y <= a; end;
            end;
        ";
        let got = lint(dirty);
        assert!(
            got.iter()
                .any(|(s, m)| *s == "unread-signal" && m.contains("ghost")),
            "{got:?}"
        );
        assert!(
            got.iter()
                .any(|(s, m)| *s == "unread-signal" && m.contains("K")),
            "{got:?}"
        );
        let clean = "
            entity e is
              port(a : in bit; y : out bit);
            signal t : bit;
            comb begin t <= a; end;
            comb begin y <= t; end;
            end;
        ";
        assert!(!slugs(clean).contains(&"unread-signal"));
    }

    #[test]
    fn write_only_cone_positive_and_negative() {
        // `u` and `v` feed only each other, never an output.
        let dirty = "
            entity e is
              port(a : in bit; y : out bit);
            signal u : bit;
            signal v : bit;
            comb begin u <= a; end;
            comb begin v <= u; end;
            comb begin y <= a; end;
            end;
        ";
        let got = lint(dirty);
        assert!(
            got.iter()
                .any(|(s, m)| *s == "write-only-cone" && m.contains("`u`")),
            "{got:?}"
        );
        let clean = "
            entity e is
              port(a : in bit; y : out bit);
            signal t : bit;
            comb begin t <= a; end;
            comb begin y <= t; end;
            end;
        ";
        assert!(!slugs(clean).contains(&"write-only-cone"));
    }

    #[test]
    fn constant_condition_positive_and_negative() {
        let dirty = "
            entity e is
              port(a : in bit; y : out bit);
            comb begin
              if 0b1 = 1 then y <= a; else y <= 0; end if;
            end;
            end;
        ";
        let got = lint(dirty);
        assert!(
            got.iter()
                .any(|(s, m)| *s == "constant-condition" && m.contains("always true")),
            "{got:?}"
        );
        let clean = "
            entity e is
              port(a : in bit; y : out bit);
            comb begin
              if a = 1 then y <= 0; else y <= 1; end if;
            end;
            end;
        ";
        assert!(!slugs(clean).contains(&"constant-condition"));
    }

    #[test]
    fn incomplete_case_positive_and_negative() {
        let dirty = "
            entity e is
              port(s : in bits(2); y : out bit);
            comb begin
              y <= 0;
              case s is
                when 0 => y <= 1;
                when 1 => y <= 0;
              end case;
            end;
            end;
        ";
        let got = lint(dirty);
        assert!(
            got.iter()
                .any(|(s, m)| *s == "incomplete-case" && m.contains("2 of 4")),
            "{got:?}"
        );
        // Full enumeration without `when others` is complete.
        let clean = "
            entity e is
              port(s : in bit; y : out bit);
            comb begin
              case s is
                when 0 => y <= 1;
                when 1 => y <= 0;
              end case;
            end;
            end;
        ";
        assert!(!slugs(clean).contains(&"incomplete-case"));
    }

    #[test]
    fn incomplete_case_over_a_loop_index_counts_its_checked_width() {
        // The checker gives `k` in 0 .. 3 two bits, so two choices cover
        // two of its four values.
        let src = "
            entity e is
              port(a : in bits(4); y : out bits(4));
            comb begin
              y <= a;
              for k in 0 .. 3 loop
                case k is
                  when 0 => y[0] <= not a[0];
                  when 1 => y[1] <= not a[1];
                end case;
              end loop;
            end;
            end;
        ";
        assert_eq!(
            lint(src),
            vec![(
                "incomplete-case",
                "case covers 2 of 4 subject values and has no `when others`".to_owned()
            )]
        );
    }

    #[test]
    fn findings_are_sorted_and_span_lines_resolve() {
        let src = "entity e is
  port(a : in bit; y : out bit);
signal ghost : bit;
comb begin ghost <= a; y <= a; end;
end;
";
        let findings = lint_design(&checked(src));
        assert_eq!(findings.len(), 1);
        let (line, col) = findings[0].span.line_col(src);
        assert_eq!(line, 3, "ghost is declared on line 3");
        assert!(col > 1);
        assert_eq!(findings[0].entity, "e");
    }
}
