//! Mutant representation and application.
//!
//! A [`Mutant`] is a small, syntactically valid rewrite of the original
//! design, addressed by the [`NodeId`] of the AST node it modifies.
//! Application clones the design and rewrites that node in place,
//! preserving all other node ids so that checker side-tables can be
//! rebuilt deterministically.

use crate::operator::MutationOperator;
use musa_hdl::ast::*;
use musa_hdl::{CheckedDesign, HdlError};
use std::fmt;

/// Identity of a mutant within one generated population.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MutantId(pub u32);

impl fmt::Display for MutantId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "m{}", self.0)
    }
}

/// The concrete rewrite a mutant performs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Rewrite {
    /// Replace a binary operator (LOR/ROR/AOR).
    BinOp {
        /// The replacement operator.
        new: BinOp,
    },
    /// Replace a name reference with another name (VR).
    Ref {
        /// The replacement name.
        new: String,
    },
    /// Replace a name reference with a literal (CVR).
    RefToConst {
        /// The constant value.
        value: u64,
        /// The reference's width (the literal adopts it).
        width: u32,
    },
    /// Replace a literal's value (CR).
    Literal {
        /// The new value.
        value: u64,
    },
    /// Replace the value of a named constant declaration (CR).
    ConstDecl {
        /// The new value.
        value: u64,
    },
    /// Replace one choice of a case arm (CR).
    CaseChoice {
        /// Index into the arm's choice list.
        index: usize,
        /// The new choice value.
        value: u64,
    },
    /// Wrap an expression in `not` (UOI).
    InsertNot,
    /// Remove a `not` (UOD).
    DeleteNot,
    /// Replace an assignment with `null;` (SDL).
    DeleteStmt,
    /// Replace an `if` condition with a constant (CSR).
    StuckCondition {
        /// The forced truth value.
        value: bool,
    },
}

/// One mutant: an operator class, a target node and the rewrite payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Mutant {
    /// Stable identity within the generated population.
    pub id: MutantId,
    /// The operator class that produced this mutant.
    pub operator: MutationOperator,
    /// The AST node the rewrite targets.
    pub site: NodeId,
    /// The rewrite.
    pub rewrite: Rewrite,
    /// Human-readable description (`LOR: and -> or in `b01``).
    pub description: String,
}

/// Error applying a mutant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MutationError {
    /// The target node does not exist in the design.
    SiteNotFound(NodeId),
    /// The rewrite does not fit the node it addresses.
    RewriteMismatch(NodeId),
    /// The mutated design failed semantic re-checking (stillborn mutant).
    Stillborn(HdlError),
    /// The design has no entity with the requested name.
    EntityNotFound(String),
}

impl fmt::Display for MutationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MutationError::SiteNotFound(id) => write!(f, "mutation site {id} not found"),
            MutationError::RewriteMismatch(id) => {
                write!(f, "rewrite does not match node {id}")
            }
            MutationError::Stillborn(e) => write!(f, "mutant fails checking: {e}"),
            MutationError::EntityNotFound(name) => write!(f, "no entity named `{name}`"),
        }
    }
}

impl std::error::Error for MutationError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            MutationError::Stillborn(e) => Some(e),
            _ => None,
        }
    }
}

impl Mutant {
    /// Applies this mutant to (a clone of) the original design and
    /// re-checks it.
    ///
    /// # Errors
    ///
    /// Returns [`MutationError::SiteNotFound`] / `RewriteMismatch` when
    /// the mutant does not address this design, and
    /// [`MutationError::Stillborn`] when the rewrite produces a design
    /// that no longer passes semantic checking (e.g. a `VR` that creates
    /// a combinational loop).
    pub fn apply(&self, original: &CheckedDesign) -> Result<CheckedDesign, MutationError> {
        let mut design = original.design().clone();
        apply_rewrite(&mut design, self.site, &self.rewrite)?;
        CheckedDesign::new(design).map_err(MutationError::Stillborn)
    }
}

impl Rewrite {
    /// Applies this expression-level rewrite to a clone of `expr`, with
    /// [`Mutant::apply`]'s semantics. An inserted `not` gets the id
    /// `NodeId(u32::MAX)`, which no parsed node carries. Returns `None`
    /// when the rewrite does not fit the node or is not expression-level.
    pub fn apply_to_expr(&self, expr: &Expr) -> Option<Expr> {
        let mut rewritten = expr.clone();
        apply_expr_rewrite(&mut rewritten, self, u32::MAX, &mut 0).ok()?;
        Some(rewritten)
    }
}

/// Applies a rewrite to a design in place.
pub(crate) fn apply_rewrite(
    design: &mut Design,
    site: NodeId,
    rewrite: &Rewrite,
) -> Result<(), MutationError> {
    // Constant-declaration rewrites address declarations, not body nodes.
    if let Rewrite::ConstDecl { value } = rewrite {
        for entity in &mut design.entities {
            for cst in &mut entity.consts {
                if cst.id == site {
                    cst.value = *value;
                    return Ok(());
                }
            }
        }
        return Err(MutationError::SiteNotFound(site));
    }

    let fresh_base = design.next_node_id;
    let mut fresh_used = 0u32;
    let mut outcome: Option<Result<(), MutationError>> = None;

    for entity in &mut design.entities {
        for process in &mut entity.processes {
            rewrite_stmts(
                &mut process.body,
                site,
                rewrite,
                fresh_base,
                &mut fresh_used,
                &mut outcome,
            );
        }
    }
    design.next_node_id += fresh_used;
    outcome.unwrap_or(Err(MutationError::SiteNotFound(site)))
}

fn rewrite_stmts(
    stmts: &mut [Stmt],
    site: NodeId,
    rewrite: &Rewrite,
    fresh_base: u32,
    fresh_used: &mut u32,
    outcome: &mut Option<Result<(), MutationError>>,
) {
    for stmt in stmts.iter_mut() {
        if outcome.is_some() {
            return;
        }
        // Statement-level rewrite: SDL addresses the assignment itself.
        if stmt.id() == site {
            if let Rewrite::DeleteStmt = rewrite {
                if matches!(stmt, Stmt::Assign { .. }) {
                    *stmt = Stmt::Null { id: site };
                    *outcome = Some(Ok(()));
                } else {
                    *outcome = Some(Err(MutationError::RewriteMismatch(site)));
                }
                return;
            }
        }
        match stmt {
            Stmt::Assign { target, value, .. } => {
                if let Some(Select::Index(ix)) = &mut target.sel {
                    rewrite_expr(ix, site, rewrite, fresh_base, fresh_used, outcome);
                }
                rewrite_expr(value, site, rewrite, fresh_base, fresh_used, outcome);
            }
            Stmt::If {
                arms, else_body, ..
            } => {
                for (cond, body) in arms.iter_mut() {
                    rewrite_cond(cond, site, rewrite, fresh_base, fresh_used, outcome);
                    rewrite_stmts(body, site, rewrite, fresh_base, fresh_used, outcome);
                }
                if let Some(body) = else_body {
                    rewrite_stmts(body, site, rewrite, fresh_base, fresh_used, outcome);
                }
            }
            Stmt::Case {
                subject,
                arms,
                default,
                ..
            } => {
                rewrite_expr(subject, site, rewrite, fresh_base, fresh_used, outcome);
                for arm in arms.iter_mut() {
                    if arm.id == site {
                        if let Rewrite::CaseChoice { index, value } = rewrite {
                            if *index < arm.choices.len() {
                                arm.choices[*index] = *value;
                                *outcome = Some(Ok(()));
                            } else {
                                *outcome = Some(Err(MutationError::RewriteMismatch(site)));
                            }
                            return;
                        }
                    }
                    rewrite_stmts(&mut arm.body, site, rewrite, fresh_base, fresh_used, outcome);
                }
                if let Some(body) = default {
                    rewrite_stmts(body, site, rewrite, fresh_base, fresh_used, outcome);
                }
            }
            Stmt::For { body, .. } => {
                rewrite_stmts(body, site, rewrite, fresh_base, fresh_used, outcome);
            }
            Stmt::Null { .. } => {}
        }
    }
}

/// Rewrites an `if` condition: CSR replaces the condition itself, and
/// every other rewrite addresses the nodes inside it.
pub(crate) fn rewrite_cond(
    cond: &mut Expr,
    site: NodeId,
    rewrite: &Rewrite,
    fresh_base: u32,
    fresh_used: &mut u32,
    outcome: &mut Option<Result<(), MutationError>>,
) {
    if outcome.is_some() {
        return;
    }
    if let (true, Rewrite::StuckCondition { value }) = (cond.id() == site, rewrite) {
        *cond = Expr::Literal {
            id: site,
            value: *value as u64,
            width: Some(1),
            span: musa_hdl::Span::dummy(),
        };
        *outcome = Some(Ok(()));
        return;
    }
    rewrite_expr(cond, site, rewrite, fresh_base, fresh_used, outcome);
}

/// Rewrites the node `site` inside `expr`, recording in `outcome`
/// whether it was found and whether the rewrite fits it.
pub(crate) fn rewrite_expr(
    expr: &mut Expr,
    site: NodeId,
    rewrite: &Rewrite,
    fresh_base: u32,
    fresh_used: &mut u32,
    outcome: &mut Option<Result<(), MutationError>>,
) {
    if outcome.is_some() {
        return;
    }
    if expr.id() == site {
        let result = apply_expr_rewrite(expr, rewrite, fresh_base, fresh_used);
        *outcome = Some(result);
        return;
    }
    match expr {
        Expr::Literal { .. } | Expr::Ref { .. } => {}
        Expr::Index { base, index, .. } => {
            rewrite_expr(base, site, rewrite, fresh_base, fresh_used, outcome);
            rewrite_expr(index, site, rewrite, fresh_base, fresh_used, outcome);
        }
        Expr::Slice { base, .. } => {
            rewrite_expr(base, site, rewrite, fresh_base, fresh_used, outcome)
        }
        Expr::Unary { arg, .. } | Expr::Reduce { arg, .. } | Expr::Shift { arg, .. } => {
            rewrite_expr(arg, site, rewrite, fresh_base, fresh_used, outcome)
        }
        Expr::Binary { lhs, rhs, .. } | Expr::Concat { lhs, rhs, .. } => {
            rewrite_expr(lhs, site, rewrite, fresh_base, fresh_used, outcome);
            rewrite_expr(rhs, site, rewrite, fresh_base, fresh_used, outcome);
        }
    }
}

fn apply_expr_rewrite(
    expr: &mut Expr,
    rewrite: &Rewrite,
    fresh_base: u32,
    fresh_used: &mut u32,
) -> Result<(), MutationError> {
    let site = expr.id();
    match rewrite {
        Rewrite::BinOp { new } => {
            if let Expr::Binary { op, .. } = expr {
                *op = *new;
                Ok(())
            } else {
                Err(MutationError::RewriteMismatch(site))
            }
        }
        Rewrite::Ref { new } => {
            if let Expr::Ref { name, .. } = expr {
                name.name = new.clone();
                name.span = musa_hdl::Span::dummy();
                Ok(())
            } else {
                Err(MutationError::RewriteMismatch(site))
            }
        }
        Rewrite::RefToConst { value, width } => {
            if matches!(expr, Expr::Ref { .. }) {
                *expr = Expr::Literal {
                    id: site,
                    value: *value,
                    width: Some(*width),
                    span: musa_hdl::Span::dummy(),
                };
                Ok(())
            } else {
                Err(MutationError::RewriteMismatch(site))
            }
        }
        Rewrite::Literal { value } => {
            if let Expr::Literal { value: slot, .. } = expr {
                *slot = *value;
                Ok(())
            } else {
                Err(MutationError::RewriteMismatch(site))
            }
        }
        Rewrite::InsertNot => {
            let inner = expr.clone();
            let fresh = NodeId(fresh_base + *fresh_used);
            *fresh_used += 1;
            *expr = Expr::Unary {
                id: fresh,
                op: UnaryOp::Not,
                arg: Box::new(inner),
            };
            Ok(())
        }
        Rewrite::DeleteNot => {
            if let Expr::Unary {
                op: UnaryOp::Not,
                arg,
                ..
            } = expr
            {
                *expr = (**arg).clone();
                Ok(())
            } else {
                Err(MutationError::RewriteMismatch(site))
            }
        }
        Rewrite::StuckCondition { .. } => {
            // Conditions are rewritten at the statement level; reaching an
            // arbitrary expression with CSR is a mismatch.
            Err(MutationError::RewriteMismatch(site))
        }
        Rewrite::ConstDecl { .. } | Rewrite::CaseChoice { .. } | Rewrite::DeleteStmt => {
            Err(MutationError::RewriteMismatch(site))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use musa_hdl::parse;

    fn checked(src: &str) -> CheckedDesign {
        CheckedDesign::new(parse(src).unwrap()).unwrap()
    }

    const SRC: &str = "
        entity e is
          port(a : in bits(4); b : in bits(4); y : out bits(4); f : out bit);
        constant K : bits(4) := 5;
        comb begin
          if a = K then
            y <= a and b;
          else
            y <= a + b;
          end if;
          f <= not (a < b);
        end;
        end;
    ";

    fn find_binary_site(design: &Design, op: BinOp) -> NodeId {
        let mut found = None;
        for entity in &design.entities {
            for process in &entity.processes {
                walk_exprs(&process.body, &mut |e| {
                    if let Expr::Binary { id, op: o, .. } = e {
                        if *o == op && found.is_none() {
                            found = Some(*id);
                        }
                    }
                });
            }
        }
        found.expect("site must exist")
    }

    #[test]
    fn binop_rewrite_applies() {
        let original = checked(SRC);
        let site = find_binary_site(original.design(), BinOp::And);
        let mutant = Mutant {
            id: MutantId(0),
            operator: MutationOperator::Lor,
            site,
            rewrite: Rewrite::BinOp { new: BinOp::Or },
            description: String::new(),
        };
        let mutated = mutant.apply(&original).unwrap();
        let printed = musa_hdl::pretty::print_design(mutated.design());
        assert!(printed.contains("a or b"), "{printed}");
        // Original untouched.
        let orig_printed = musa_hdl::pretty::print_design(original.design());
        assert!(orig_printed.contains("a and b"));
    }

    #[test]
    fn ref_rewrite_applies_and_rechecks() {
        let original = checked(SRC);
        // Find the `b` ref inside `a and b`.
        let mut site = None;
        for entity in &original.design().entities {
            for process in &entity.processes {
                walk_exprs(&process.body, &mut |e| {
                    if let Expr::Binary { op: BinOp::And, rhs, .. } = e {
                        site = Some(rhs.id());
                    }
                });
            }
        }
        let mutant = Mutant {
            id: MutantId(1),
            operator: MutationOperator::Vr,
            site: site.unwrap(),
            rewrite: Rewrite::Ref { new: "a".into() },
            description: String::new(),
        };
        let mutated = mutant.apply(&original).unwrap();
        let printed = musa_hdl::pretty::print_design(mutated.design());
        assert!(printed.contains("a and a"), "{printed}");
    }

    #[test]
    fn ref_to_unknown_name_is_stillborn() {
        let original = checked(SRC);
        let site = find_binary_site(original.design(), BinOp::And);
        // Grab the lhs ref of the AND.
        let mut ref_site = None;
        for entity in &original.design().entities {
            for process in &entity.processes {
                walk_exprs(&process.body, &mut |e| {
                    if let Expr::Binary { op: BinOp::And, lhs, .. } = e {
                        ref_site = Some(lhs.id());
                    }
                });
            }
        }
        let _ = site;
        let mutant = Mutant {
            id: MutantId(2),
            operator: MutationOperator::Vr,
            site: ref_site.unwrap(),
            rewrite: Rewrite::Ref { new: "nosuch".into() },
            description: String::new(),
        };
        assert!(matches!(
            mutant.apply(&original),
            Err(MutationError::Stillborn(_))
        ));
    }

    #[test]
    fn stuck_condition_applies() {
        let original = checked(SRC);
        // Find the if condition (an Eq binary).
        let site = find_binary_site(original.design(), BinOp::Eq);
        let mutant = Mutant {
            id: MutantId(3),
            operator: MutationOperator::Csr,
            site,
            rewrite: Rewrite::StuckCondition { value: true },
            description: String::new(),
        };
        let mutated = mutant.apply(&original).unwrap();
        let printed = musa_hdl::pretty::print_design(mutated.design());
        assert!(printed.contains("if 0b1 then"), "{printed}");
    }

    #[test]
    fn delete_stmt_applies_only_to_assignments_in_seq() {
        let src = "
            entity s is
              port(clk : in bit; d : in bit; q : out bit);
            signal r : bit;
            seq(clk) begin
              r <= d;
            end;
            comb begin q <= r; end;
            end;
        ";
        let original = checked(src);
        let site = original.design().entities[0].processes[0].body[0].id();
        let mutant = Mutant {
            id: MutantId(4),
            operator: MutationOperator::Sdl,
            site,
            rewrite: Rewrite::DeleteStmt,
            description: String::new(),
        };
        let mutated = mutant.apply(&original).unwrap();
        let printed = musa_hdl::pretty::print_design(mutated.design());
        assert!(printed.contains("null;"), "{printed}");
    }

    #[test]
    fn delete_whole_comb_assignment_is_stillborn() {
        // Deleting the only assignment of a comb output violates
        // full-assignment and must be rejected at apply time.
        let original = checked(SRC);
        let site = original.design().entities[0].processes[0].body[1].id();
        let mutant = Mutant {
            id: MutantId(5),
            operator: MutationOperator::Sdl,
            site,
            rewrite: Rewrite::DeleteStmt,
            description: String::new(),
        };
        assert!(matches!(
            mutant.apply(&original),
            Err(MutationError::Stillborn(_))
        ));
    }

    #[test]
    fn insert_and_delete_not() {
        let original = checked(SRC);
        // f <= not (a < b): delete the not.
        let mut not_site = None;
        for entity in &original.design().entities {
            for process in &entity.processes {
                walk_exprs(&process.body, &mut |e| {
                    if let Expr::Unary { id, .. } = e {
                        not_site = Some(*id);
                    }
                });
            }
        }
        let mutant = Mutant {
            id: MutantId(6),
            operator: MutationOperator::Uod,
            site: not_site.unwrap(),
            rewrite: Rewrite::DeleteNot,
            description: String::new(),
        };
        let mutated = mutant.apply(&original).unwrap();
        let printed = musa_hdl::pretty::print_design(mutated.design());
        assert!(printed.contains("f <= a < b"), "{printed}");

        // Insert a not around the lt.
        let lt_site = find_binary_site(original.design(), BinOp::Lt);
        let mutant = Mutant {
            id: MutantId(7),
            operator: MutationOperator::Uoi,
            site: lt_site,
            rewrite: Rewrite::InsertNot,
            description: String::new(),
        };
        let mutated = mutant.apply(&original).unwrap();
        // Node ids must remain unique after insertion.
        let reprinted = musa_hdl::pretty::print_design(mutated.design());
        assert!(reprinted.contains("not"), "{reprinted}");
    }

    #[test]
    fn const_decl_rewrite() {
        let original = checked(SRC);
        let site = original.design().entities[0].consts[0].id;
        let mutant = Mutant {
            id: MutantId(8),
            operator: MutationOperator::Cr,
            site,
            rewrite: Rewrite::ConstDecl { value: 6 },
            description: String::new(),
        };
        let mutated = mutant.apply(&original).unwrap();
        assert_eq!(mutated.design().entities[0].consts[0].value, 6);
    }

    #[test]
    fn missing_site_reported() {
        let original = checked(SRC);
        let mutant = Mutant {
            id: MutantId(9),
            operator: MutationOperator::Cr,
            site: NodeId(999_999),
            rewrite: Rewrite::Literal { value: 0 },
            description: String::new(),
        };
        assert!(matches!(
            mutant.apply(&original),
            Err(MutationError::SiteNotFound(_))
        ));
    }

    #[test]
    fn rewrite_mismatch_reported() {
        let original = checked(SRC);
        let site = find_binary_site(original.design(), BinOp::And);
        let mutant = Mutant {
            id: MutantId(10),
            operator: MutationOperator::Uod,
            site,
            rewrite: Rewrite::DeleteNot,
            description: String::new(),
        };
        assert!(matches!(
            mutant.apply(&original),
            Err(MutationError::RewriteMismatch(_))
        ));
    }
}
