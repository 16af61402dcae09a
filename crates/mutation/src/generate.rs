//! Deterministic enumeration of the mutant population.
//!
//! [`candidate_mutants`] walks the checked entity and produces every
//! candidate of every operator class, in a fixed order.
//! [`generate_mutants`] keeps the candidates that are not stillborn
//! (e.g. a `VR` creating a combinational loop, or an `SDL` leaving a
//! combinational output unassigned), exactly as a VHDL mutation tool
//! discards syntactically illegal mutants. It asks a [`Validator`],
//! which re-checks each rewrite at its site — the rewritten statement's
//! root expression and the few whole-process rules the rewrite can
//! break — and gives the verdict of [`Mutant::apply`] (clone the design,
//! re-check all of it), which stays the oracle in the tests.

use crate::mutant::{Mutant, MutantId, Rewrite};
use crate::operator::MutationOperator;
use crate::validate::Validator;
use musa_hdl::ast::*;
use musa_hdl::pretty::expr_to_string;
use musa_hdl::{CheckedDesign, EntityInfo, SymbolKind};

/// Options controlling mutant generation.
#[derive(Debug, Clone)]
pub struct GenerateOptions {
    /// Operator classes to enumerate (default: all ten).
    pub operators: Vec<MutationOperator>,
}

impl Default for GenerateOptions {
    fn default() -> Self {
        Self { operators: MutationOperator::all().to_vec() }
    }
}

impl GenerateOptions {
    /// Restricts generation to a single operator class.
    pub fn only(operator: MutationOperator) -> Self {
        Self { operators: vec![operator] }
    }
}

/// Enumerates the valid mutants of `entity` within `checked`: the
/// [`candidate_mutants`] a [`Validator`] accepts, renumbered.
///
/// Returns an empty vector if the entity does not exist. Mutant ids are
/// dense (`0..n`) and the order is deterministic: walk order over the
/// AST, operator class order within each site. Under a tracer, counts
/// the candidates as `mutants_checked` and the stillborn ones as
/// `mutants_rejected`.
///
/// # Examples
///
/// ```
/// use musa_hdl::{parse, CheckedDesign};
/// use musa_mutation::{generate_mutants, GenerateOptions};
///
/// let checked = CheckedDesign::new(parse(
///     "entity g is port(a : in bit; b : in bit; y : out bit);
///        comb begin y <= a and b; end;
///      end;",
/// )?)?;
/// let mutants = generate_mutants(&checked, "g", &GenerateOptions::default());
/// assert!(!mutants.is_empty());
/// // Five LOR alternatives for the single `and`.
/// let lor = mutants
///     .iter()
///     .filter(|m| m.operator == musa_mutation::MutationOperator::Lor)
///     .count();
/// assert_eq!(lor, 5);
/// # Ok::<(), musa_hdl::HdlError>(())
/// ```
pub fn generate_mutants(
    checked: &CheckedDesign,
    entity_name: &str,
    options: &GenerateOptions,
) -> Vec<Mutant> {
    let mut mutants = candidate_mutants(checked, entity_name, options);
    if mutants.is_empty() {
        return mutants;
    }
    let validator = Validator::new(checked);
    let checked_count = mutants.len();
    mutants.retain(|candidate| validator.check(candidate));
    for (i, mutant) in mutants.iter_mut().enumerate() {
        mutant.id = MutantId(i as u32);
    }
    musa_trace::count("mutants_checked", checked_count as u64);
    musa_trace::count("mutants_rejected", (checked_count - mutants.len()) as u64);
    mutants
}

/// Every candidate mutant of `entity` within `checked`, stillborn ones
/// included, in [`generate_mutants`]'s order; ids number the candidates
/// `0..n`. Empty if the entity does not exist.
pub fn candidate_mutants(
    checked: &CheckedDesign,
    entity_name: &str,
    options: &GenerateOptions,
) -> Vec<Mutant> {
    let Some((entity, info)) = checked.entity(entity_name) else {
        return Vec::new();
    };
    let mut gen = Generator {
        info,
        options,
        candidates: Vec::new(),
    };
    gen.walk_entity(entity);
    gen.candidates
        .into_iter()
        .enumerate()
        .map(|(i, (operator, site, rewrite, description))| Mutant {
            id: MutantId(i as u32),
            operator,
            site,
            rewrite,
            description,
        })
        .collect()
}

/// Per-operator population counts (reporting helper).
pub fn count_by_operator(mutants: &[Mutant]) -> Vec<(MutationOperator, usize)> {
    MutationOperator::all()
        .into_iter()
        .map(|op| (op, mutants.iter().filter(|m| m.operator == op).count()))
        .filter(|(_, n)| *n > 0)
        .collect()
}

type Candidate = (MutationOperator, NodeId, Rewrite, String);

struct Generator<'a> {
    info: &'a EntityInfo,
    options: &'a GenerateOptions,
    candidates: Vec<Candidate>,
}

impl Generator<'_> {
    fn enabled(&self, op: MutationOperator) -> bool {
        self.options.operators.contains(&op)
    }

    fn push(&mut self, op: MutationOperator, site: NodeId, rewrite: Rewrite, what: String) {
        self.candidates
            .push((op, site, rewrite, format!("{op}: {what}")));
    }

    fn walk_entity(&mut self, entity: &Entity) {
        // CR on named constant declarations.
        if self.enabled(MutationOperator::Cr) {
            for cst in &entity.consts {
                for new in constant_alternatives(cst.value, cst.width) {
                    self.push(
                        MutationOperator::Cr,
                        cst.id,
                        Rewrite::ConstDecl { value: new },
                        format!("constant {} := {} -> {}", cst.name.name, cst.value, new),
                    );
                }
            }
        }
        for process in &entity.processes {
            self.walk_stmts(&process.body);
        }
    }

    fn walk_stmts(&mut self, stmts: &[Stmt]) {
        for stmt in stmts {
            match stmt {
                Stmt::Assign { id, target, value, .. } => {
                    if self.enabled(MutationOperator::Sdl) {
                        self.push(
                            MutationOperator::Sdl,
                            *id,
                            Rewrite::DeleteStmt,
                            format!("delete `{} <= {}`", target.base.name, expr_to_string(value)),
                        );
                    }
                    if let Some(Select::Index(ix)) = &target.sel {
                        self.walk_expr(ix);
                    }
                    self.walk_expr(value);
                }
                Stmt::If { arms, else_body, .. } => {
                    for (cond, body) in arms {
                        if self.enabled(MutationOperator::Csr) {
                            for value in [false, true] {
                                self.push(
                                    MutationOperator::Csr,
                                    cond.id(),
                                    Rewrite::StuckCondition { value },
                                    format!(
                                        "condition `{}` stuck at {}",
                                        expr_to_string(cond),
                                        value as u8
                                    ),
                                );
                            }
                        }
                        self.walk_expr(cond);
                        self.walk_stmts(body);
                    }
                    if let Some(body) = else_body {
                        self.walk_stmts(body);
                    }
                }
                Stmt::Case {
                    subject,
                    arms,
                    default,
                    ..
                } => {
                    self.walk_expr(subject);
                    let subject_width = self.info.widths.get(&subject.id()).copied();
                    for arm in arms {
                        if self.enabled(MutationOperator::Cr) {
                            if let Some(w) = subject_width {
                                for (index, &choice) in arm.choices.iter().enumerate() {
                                    for new in constant_alternatives(choice, w) {
                                        self.push(
                                            MutationOperator::Cr,
                                            arm.id,
                                            Rewrite::CaseChoice { index, value: new },
                                            format!("case choice {choice} -> {new}"),
                                        );
                                    }
                                }
                            }
                        }
                        self.walk_stmts(&arm.body);
                    }
                    if let Some(body) = default {
                        self.walk_stmts(body);
                    }
                }
                Stmt::For { body, .. } => self.walk_stmts(body),
                Stmt::Null { .. } => {}
            }
        }
    }

    fn walk_expr(&mut self, expr: &Expr) {
        expr.walk(&mut |e| self.visit_expr(e));
    }

    fn visit_expr(&mut self, e: &Expr) {
        match e {
            Expr::Binary { id, op, lhs, rhs } => {
                let classes: &[BinOp] = if op.is_logical() {
                    &[
                        BinOp::And,
                        BinOp::Or,
                        BinOp::Xor,
                        BinOp::Nand,
                        BinOp::Nor,
                        BinOp::Xnor,
                    ]
                } else if op.is_relational() {
                    &[
                        BinOp::Eq,
                        BinOp::Ne,
                        BinOp::Lt,
                        BinOp::Le,
                        BinOp::Gt,
                        BinOp::Ge,
                    ]
                } else {
                    &[BinOp::Add, BinOp::Sub, BinOp::Mul]
                };
                let class_op = if op.is_logical() {
                    MutationOperator::Lor
                } else if op.is_relational() {
                    MutationOperator::Ror
                } else {
                    MutationOperator::Aor
                };
                if self.enabled(class_op) {
                    for &new in classes {
                        if new != *op {
                            self.push(
                                class_op,
                                *id,
                                Rewrite::BinOp { new },
                                format!(
                                    "`{}` {} `{}` -> {}",
                                    expr_to_string(lhs),
                                    op.symbol(),
                                    expr_to_string(rhs),
                                    new.symbol()
                                ),
                            );
                        }
                    }
                }
            }
            Expr::Ref { id, name } => {
                let Some(&sym_id) = self.info.resolved.get(id) else {
                    return;
                };
                let sym = self.info.symbol(sym_id);
                // Only mutate data references (not loop indices or named
                // constants — constants belong to CR).
                let is_data = matches!(
                    sym.kind,
                    SymbolKind::PortIn { clock: false } | SymbolKind::Signal | SymbolKind::Var { .. }
                );
                if !is_data {
                    return;
                }
                if self.enabled(MutationOperator::Vr) {
                    for (i, cand) in self.info.symbols.iter().enumerate() {
                        if i as u32 == sym_id.0 || cand.width != sym.width {
                            continue;
                        }
                        let compatible = match (&sym.kind, &cand.kind) {
                            // Replacement must be readable wherever the
                            // original is: stick to ports/signals, plus
                            // variables of the same process.
                            (_, SymbolKind::PortIn { clock: false } | SymbolKind::Signal) => true,
                            (SymbolKind::Var { process: p1 }, SymbolKind::Var { process: p2 }) => {
                                p1 == p2
                            }
                            _ => false,
                        };
                        if compatible {
                            self.push(
                                MutationOperator::Vr,
                                *id,
                                Rewrite::Ref {
                                    new: cand.name.clone(),
                                },
                                format!("`{}` -> `{}`", name.name, cand.name),
                            );
                        }
                    }
                }
                if self.enabled(MutationOperator::Cvr) {
                    // Candidate constants: the degenerate values, the
                    // walking powers of two and their predecessors (the
                    // classic corner stimuli), plus declared constants of
                    // matching width.
                    let mut consts: Vec<u64> = vec![0, 1, all_ones(sym.width)];
                    for k in 1..sym.width.min(8) {
                        consts.push(1u64 << k);
                        consts.push((1u64 << k) - 1);
                    }
                    for other in &self.info.symbols {
                        if let SymbolKind::Const(v) = other.kind {
                            if other.width == sym.width {
                                consts.push(v);
                            }
                        }
                    }
                    consts.sort_unstable();
                    consts.dedup();
                    for value in consts {
                        self.push(
                            MutationOperator::Cvr,
                            *id,
                            Rewrite::RefToConst {
                                value,
                                width: sym.width,
                            },
                            format!("`{}` -> constant {}", name.name, value),
                        );
                    }
                }
                if self.enabled(MutationOperator::Uoi) {
                    self.push(
                        MutationOperator::Uoi,
                        *id,
                        Rewrite::InsertNot,
                        format!("`{}` -> not `{}`", name.name, name.name),
                    );
                }
            }
            Expr::Index { id, .. } | Expr::Slice { id, .. } | Expr::Reduce { id, .. }
                // UOI also negates compound sub-terms (bit selects,
                // slices, reductions), matching the VHDL operator's scope.
                if self.enabled(MutationOperator::Uoi) => {
                    self.push(
                        MutationOperator::Uoi,
                        *id,
                        Rewrite::InsertNot,
                        "complement sub-expression".to_string(),
                    );
                }
            Expr::Literal { id, value, .. }
                if self.enabled(MutationOperator::Cr) => {
                    let Some(&w) = self.info.widths.get(id) else {
                        return;
                    };
                    // Static index literals carry a synthetic width of 32;
                    // perturbing them is still meaningful but must stay in
                    // range — validation discards out-of-range results.
                    for new in constant_alternatives(*value, w.min(16)) {
                        self.push(
                            MutationOperator::Cr,
                            *id,
                            Rewrite::Literal { value: new },
                            format!("literal {value} -> {new}"),
                        );
                    }
                }
            Expr::Unary { id, op: UnaryOp::Not, arg }
                if self.enabled(MutationOperator::Uod) => {
                    self.push(
                        MutationOperator::Uod,
                        *id,
                        Rewrite::DeleteNot,
                        format!("not `{}` -> `{}`", expr_to_string(arg), expr_to_string(arg)),
                    );
                }
            _ => {}
        }
    }
}

fn all_ones(width: u32) -> u64 {
    if width >= 64 {
        u64::MAX
    } else {
        (1u64 << width) - 1
    }
}

/// CR perturbations of `value` within `width` bits: the off-by-one
/// neighbours, the halved/doubled values, bitwise complement, 0 and
/// all-ones — deduplicated and excluding the original.
fn constant_alternatives(value: u64, width: u32) -> Vec<u64> {
    let mask = all_ones(width);
    let mut alts = vec![
        value.wrapping_add(1) & mask,
        value.wrapping_sub(1) & mask,
        (value << 1) & mask,
        value >> 1,
        !value & mask,
        0,
        mask,
    ];
    alts.sort_unstable();
    alts.dedup();
    alts.retain(|&v| v != value);
    alts
}

#[cfg(test)]
mod tests {
    use super::*;
    use musa_hdl::parse;

    fn checked(src: &str) -> CheckedDesign {
        CheckedDesign::new(parse(src).unwrap()).unwrap()
    }

    const GATE: &str = "
        entity g is
          port(a : in bit; b : in bit; c : in bit; y : out bit);
        comb begin
          y <= (a and b) or c;
        end;
        end;
    ";

    #[test]
    fn lor_enumerates_all_alternatives() {
        let d = checked(GATE);
        let mutants = generate_mutants(&d, "g", &GenerateOptions::only(MutationOperator::Lor));
        // Two logical operators × 5 alternatives.
        assert_eq!(mutants.len(), 10);
        assert!(mutants.iter().all(|m| m.operator == MutationOperator::Lor));
    }

    #[test]
    fn vr_respects_widths_and_scope() {
        let d = checked(
            "entity v is
               port(a : in bits(4); b : in bits(4); w : in bit; y : out bits(4));
             comb begin
               y <= a + b;
             end;
             end;",
        );
        let mutants = generate_mutants(&d, "v", &GenerateOptions::only(MutationOperator::Vr));
        // `a` can become b or y?? no — y is an output but OutPort is not a
        // valid replacement (not readable in comb without self-read);
        // candidates are in-ports/signals of width 4: a↔b only. Two refs,
        // one alternative each.
        assert_eq!(mutants.len(), 2, "{:#?}", mutants);
        // w (width 1) is never offered for width-4 refs.
        assert!(mutants.iter().all(|m| !m.description.contains("`w`")));
    }

    #[test]
    fn cvr_offers_constants_of_matching_width() {
        let d = checked(
            "entity c is
               port(a : in bits(3); y : out bits(3));
             constant K : bits(3) := 5;
             comb begin y <= a + K; end;
             end;",
        );
        let mutants = generate_mutants(&d, "c", &GenerateOptions::only(MutationOperator::Cvr));
        // One data ref (`a`; K is a constant ref): candidates include the
        // degenerate values, powers of two and the declared constant 5.
        let values: Vec<&str> = mutants.iter().map(|m| m.description.as_str()).collect();
        assert!(values.iter().any(|d| d.ends_with("constant 0")));
        assert!(values.iter().any(|d| d.ends_with("constant 5")));
        assert!(values.iter().any(|d| d.ends_with("constant 7")));
        assert!(mutants.len() >= 4, "{:#?}", mutants);
    }

    #[test]
    fn cr_perturbs_literals_constants_and_choices() {
        let d = checked(
            "entity k is
               port(a : in bits(4); y : out bits(4); f : out bit);
             constant LIM : bits(4) := 9;
             comb begin
               case a is
                 when 3 => y <= a + 1;
                 when others => y <= a;
               end case;
               f <= a > LIM;
             end;
             end;",
        );
        let mutants = generate_mutants(&d, "k", &GenerateOptions::only(MutationOperator::Cr));
        let descriptions: Vec<&str> = mutants.iter().map(|m| m.description.as_str()).collect();
        assert!(descriptions.iter().any(|d| d.contains("constant LIM")));
        assert!(descriptions.iter().any(|d| d.contains("case choice 3")));
        assert!(descriptions.iter().any(|d| d.contains("literal 1")));
    }

    #[test]
    fn sdl_only_survives_where_legal() {
        let d = checked(
            "entity s is
               port(clk : in bit; d : in bit; q : out bit);
             signal r : bit;
             seq(clk) begin r <= d; end;
             comb begin q <= r; end;
             end;",
        );
        let mutants = generate_mutants(&d, "s", &GenerateOptions::only(MutationOperator::Sdl));
        // Deleting `r <= d` is legal (register holds); deleting `q <= r`
        // violates full assignment and is discarded as stillborn.
        assert_eq!(mutants.len(), 1, "{:#?}", mutants);
        assert!(mutants[0].description.contains("r <= d"));
    }

    #[test]
    fn csr_generates_both_polarities() {
        let d = checked(
            "entity i is
               port(a : in bit; b : in bit; y : out bit);
             comb begin
               if a = 1 then y <= b; else y <= not b; end if;
             end;
             end;",
        );
        let mutants = generate_mutants(&d, "i", &GenerateOptions::only(MutationOperator::Csr));
        assert_eq!(mutants.len(), 2);
        assert!(mutants[0].description.contains("stuck at 0"));
        assert!(mutants[1].description.contains("stuck at 1"));
    }

    #[test]
    fn uoi_and_uod() {
        let d = checked(
            "entity u is
               port(a : in bit; y : out bit);
             comb begin y <= not a; end;
             end;",
        );
        let uoi = generate_mutants(&d, "u", &GenerateOptions::only(MutationOperator::Uoi));
        assert_eq!(uoi.len(), 1);
        let uod = generate_mutants(&d, "u", &GenerateOptions::only(MutationOperator::Uod));
        assert_eq!(uod.len(), 1);
    }

    #[test]
    fn ids_are_dense_and_ordered() {
        let d = checked(GATE);
        let mutants = generate_mutants(&d, "g", &GenerateOptions::default());
        for (i, m) in mutants.iter().enumerate() {
            assert_eq!(m.id.0 as usize, i);
        }
        assert!(!mutants.is_empty());
    }

    #[test]
    fn generation_is_deterministic() {
        let d = checked(GATE);
        let a = generate_mutants(&d, "g", &GenerateOptions::default());
        let b = generate_mutants(&d, "g", &GenerateOptions::default());
        assert_eq!(a, b);
    }

    #[test]
    fn every_generated_mutant_applies_cleanly() {
        let d = checked(GATE);
        for m in generate_mutants(&d, "g", &GenerateOptions::default()) {
            m.apply(&d).unwrap_or_else(|e| {
                panic!("validated mutant {} failed to apply: {e}", m.description)
            });
        }
    }

    #[test]
    fn unknown_entity_yields_empty() {
        let d = checked(GATE);
        assert!(generate_mutants(&d, "zz", &GenerateOptions::default()).is_empty());
    }

    #[test]
    fn count_by_operator_sums_to_total() {
        let d = checked(GATE);
        let mutants = generate_mutants(&d, "g", &GenerateOptions::default());
        let counts = count_by_operator(&mutants);
        let total: usize = counts.iter().map(|(_, n)| n).sum();
        assert_eq!(total, mutants.len());
    }

    #[test]
    fn constant_alternatives_exclude_original() {
        for value in 0..8u64 {
            for alt in constant_alternatives(value, 3) {
                assert_ne!(alt, value);
                assert!(alt < 8);
            }
        }
        // Degenerate width-1 case.
        assert_eq!(constant_alternatives(0, 1), vec![1]);
        assert_eq!(constant_alternatives(1, 1), vec![0]);
    }
}
