//! Site-local mutant validation.
//!
//! A candidate mutant is stillborn when its rewrite leaves a design the
//! checker rejects. [`Validator::check`] gives [`Mutant::apply`]'s
//! verdict without cloning the design: a node index built once per
//! design finds the statement the rewritten node sits in, and only the
//! rules the rewrite can break run again, through the checker's own
//! rule functions (`musa_hdl::check`):
//!
//! * the statement-level root expression holding the site (an
//!   assignment's value or target index, an `if` condition, a `case`
//!   subject) is rewritten by `apply`'s own code and re-checked in its
//!   statement's scope;
//! * a new port or signal read in a combinational process meets the
//!   self-read rule and a schedule with the one new read edge;
//! * a deleted assignment (SDL) re-runs the target's drivers, the
//!   output-driven rule and, in a combinational process, full
//!   assignment over the owning process, as does a new target index;
//! * a case subject of a new width re-runs the choice rule and full
//!   assignment;
//! * a new case choice must fit and repeat no other choice of its
//!   statement, and a constant's new value must fit.
//!
//! So most candidates cost one re-check of one small expression, and
//! only deletions and target-index rewrites in combinational processes
//! (and subject width changes) cost a pass over their process.
//! [`Mutant::apply`] stays the oracle: the tests assert that both give
//! the same verdict on every candidate of the bundled designs and on
//! random rewrites of random designs.

use crate::mutant::{rewrite_cond, rewrite_expr, Mutant, Rewrite};
use musa_hdl::ast::*;
use musa_hdl::check::{check_case_choice, check_const_value, BodyEdit};
use musa_hdl::{CheckedDesign, EntityInfo, Span, SymbolId, SymbolKind};
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};

/// Decides, one mutant at a time, whether a rewrite of one design is
/// stillborn — exactly as `mutant.apply(checked).is_ok()` would, without
/// the clone and the whole-design re-check.
///
/// ```
/// use musa_hdl::{parse, CheckedDesign};
/// use musa_mutation::{candidate_mutants, GenerateOptions, Validator};
///
/// let checked = CheckedDesign::new(parse(
///     "entity g is port(a : in bit; b : in bit; y : out bit);
///        comb begin y <= a and b; end;
///      end;",
/// )?)?;
/// let validator = Validator::new(&checked);
/// for mutant in candidate_mutants(&checked, "g", &GenerateOptions::default()) {
///     assert_eq!(validator.check(&mutant), mutant.apply(&checked).is_ok());
/// }
/// # Ok::<(), musa_hdl::HdlError>(())
/// ```
#[derive(Debug)]
pub struct Validator<'a> {
    entities: Vec<Facts<'a>>,
    /// Every node a rewrite can address, with where it sits.
    nodes: HashMap<NodeId, Node<'a>>,
    /// Names in scope, by [`Place::scope`]: the process's variables,
    /// then the enclosing loop indices.
    scopes: Vec<Vec<(String, SymbolId)>>,
    /// The choices of each case statement, by the statement's id.
    choices: HashMap<NodeId, HashSet<u64>>,
}

/// What the rules read about one entity besides its checked tables.
#[derive(Debug)]
struct Facts<'a> {
    entity: &'a Entity,
    info: &'a EntityInfo,
    /// [`EntityInfo::comb_reads`], the graph a new read edge extends.
    reads: BTreeMap<usize, BTreeSet<SymbolId>>,
    /// `<=` assignments per (process, target symbol).
    assigns: HashMap<(usize, SymbolId), usize>,
}

/// The entity, process and scope a statement sits in.
#[derive(Debug, Clone, Copy)]
struct Place {
    entity: usize,
    process: usize,
    scope: usize,
}

#[derive(Debug, Clone, Copy)]
enum Node<'a> {
    Const(&'a ConstDecl),
    Stmt(&'a Stmt, Place),
    /// A case arm and the case statement holding it.
    Arm(&'a Stmt, &'a CaseArm, Place),
    /// An expression node, the statement holding it and its root there.
    Expr(&'a Stmt, Root<'a>, Place),
}

/// A statement-level root expression, the unit the checker re-checks.
#[derive(Debug, Clone, Copy)]
enum Root<'a> {
    Value(&'a Expr),
    Index(&'a Expr),
    Cond(&'a Expr),
    Subject(&'a Expr),
}

impl<'a> Root<'a> {
    fn expr(self) -> &'a Expr {
        match self {
            Root::Value(e) | Root::Index(e) | Root::Cond(e) | Root::Subject(e) => e,
        }
    }
}

impl<'a> Validator<'a> {
    /// Indexes every node of `checked` (one pass over the design).
    pub fn new(checked: &'a CheckedDesign) -> Self {
        let mut validator = Validator {
            entities: Vec::new(),
            nodes: HashMap::new(),
            scopes: Vec::new(),
            choices: HashMap::new(),
        };
        for (e, (entity, info)) in checked.entities().enumerate() {
            for cst in &entity.consts {
                validator.nodes.entry(cst.id).or_insert(Node::Const(cst));
            }
            let mut assigns = HashMap::new();
            for (p, process) in entity.processes.iter().enumerate() {
                let vars = process.vars.iter().filter_map(|var| {
                    let is_var = |s: &musa_hdl::Symbol| {
                        s.name == var.name.name && s.kind == SymbolKind::Var { process: p }
                    };
                    let sym = info.symbols.iter().position(is_var)?;
                    Some((var.name.name.clone(), SymbolId(sym as u32)))
                });
                validator.scopes.push(vars.collect());
                let place = Place { entity: e, process: p, scope: validator.scopes.len() - 1 };
                validator.index_stmts(info, &process.body, place, &mut assigns);
            }
            validator.entities.push(Facts { entity, info, reads: info.comb_reads(entity), assigns });
        }
        validator
    }

    fn index_stmts(
        &mut self,
        info: &EntityInfo,
        stmts: &'a [Stmt],
        place: Place,
        assigns: &mut HashMap<(usize, SymbolId), usize>,
    ) {
        for stmt in stmts {
            self.nodes.entry(stmt.id()).or_insert(Node::Stmt(stmt, place));
            match stmt {
                Stmt::Assign { kind, target, value, .. } => {
                    if let Some(Select::Index(index)) = &target.sel {
                        self.index_root(stmt, Root::Index(index), place);
                    }
                    self.index_root(stmt, Root::Value(value), place);
                    if let (AssignKind::Signal, Some(&sym)) = (kind, info.resolved.get(&target.id)) {
                        *assigns.entry((place.process, sym)).or_default() += 1;
                    }
                }
                Stmt::If { arms, else_body, .. } => {
                    for (cond, body) in arms {
                        self.index_root(stmt, Root::Cond(cond), place);
                        self.index_stmts(info, body, place, assigns);
                    }
                    if let Some(body) = else_body {
                        self.index_stmts(info, body, place, assigns);
                    }
                }
                Stmt::Case { id, subject, arms, default } => {
                    self.index_root(stmt, Root::Subject(subject), place);
                    let choices = arms.iter().flat_map(|arm| arm.choices.iter().copied());
                    self.choices.insert(*id, choices.collect());
                    for arm in arms {
                        self.nodes.entry(arm.id).or_insert(Node::Arm(stmt, arm, place));
                        self.index_stmts(info, &arm.body, place, assigns);
                    }
                    if let Some(body) = default {
                        self.index_stmts(info, body, place, assigns);
                    }
                }
                Stmt::For { id, var, body, .. } => {
                    let mut scope = self.scopes[place.scope].clone();
                    if let Some(&sym) = info.loop_indices.get(id) {
                        scope.push((var.name.clone(), sym));
                    }
                    self.scopes.push(scope);
                    let inner = Place { scope: self.scopes.len() - 1, ..place };
                    self.index_stmts(info, body, inner, assigns);
                }
                Stmt::Null { .. } => {}
            }
        }
    }

    fn index_root(&mut self, stmt: &'a Stmt, root: Root<'a>, place: Place) {
        root.expr().walk(&mut |e| {
            self.nodes.entry(e.id()).or_insert(Node::Expr(stmt, root, place));
        });
    }

    /// Whether `mutant` leaves a design the checker accepts: exactly
    /// `mutant.apply(checked).is_ok()`, for any site and rewrite.
    pub fn check(&self, mutant: &Mutant) -> bool {
        match (self.nodes.get(&mutant.site), &mutant.rewrite) {
            (Some(Node::Const(cst)), Rewrite::ConstDecl { value }) => {
                check_const_value(cst, *value).is_ok()
            }
            (Some(&Node::Stmt(stmt, place)), Rewrite::DeleteStmt) => self.deletion(stmt, place),
            (Some(&Node::Arm(case, arm, place)), &Rewrite::CaseChoice { index, value }) => {
                self.choice(case, arm, place, index, value)
            }
            (Some(&Node::Expr(stmt, root, place)), rewrite) => {
                self.expression(mutant.site, rewrite, stmt, root, place)
            }
            _ => false, // no such site, or a rewrite that does not fit it
        }
    }

    /// SDL: the target may lose its driver, and a combinational process
    /// must still assign it in full.
    fn deletion(&self, stmt: &Stmt, place: Place) -> bool {
        let Stmt::Assign { id, kind, target, .. } = stmt else {
            return false; // only assignments can be deleted
        };
        let facts = &self.entities[place.entity];
        let info = facts.info;
        let Some(&sym) = info.resolved.get(&target.id) else {
            return false;
        };
        if *kind == AssignKind::Var {
            return true; // variables have no driver and no coverage rule
        }
        let still_driven = facts.assigns.get(&(place.process, sym)).is_some_and(|&n| n > 1);
        let driven = |s: SymbolId| info.drivers.contains_key(&s) && (s != sym || still_driven);
        if info.undriven_output(driven).is_some() {
            return false;
        }
        let process = &facts.entity.processes[place.process];
        // Only the target's coverage moves, and only while it is driven.
        !(still_driven && process.kind == ProcessKind::Comb)
            || info.partially_assigned(process, [sym], BodyEdit::Delete(*id)).is_none()
    }

    /// CR on a case choice: the new value fits the subject and repeats
    /// no other choice of the statement.
    fn choice(&self, case: &Stmt, arm: &CaseArm, place: Place, index: usize, value: u64) -> bool {
        let (Stmt::Case { id, subject, .. }, Some(&old)) = (case, arm.choices.get(index)) else {
            return false;
        };
        let Some(&width) = self.entities[place.entity].info.widths.get(&subject.id()) else {
            return false;
        };
        value == old || check_case_choice(value, width, &self.choices[id], Span::dummy()).is_ok()
    }

    /// A rewrite inside one statement-level root expression.
    fn expression(
        &self,
        site: NodeId,
        rewrite: &Rewrite,
        stmt: &Stmt,
        root: Root<'_>,
        place: Place,
    ) -> bool {
        let facts = &self.entities[place.entity];
        let info = facts.info;
        let process = &facts.entity.processes[place.process];
        let original = root.expr();
        let mut rewritten = original.clone();
        let mut outcome = None;
        if let Root::Cond(_) = root {
            rewrite_cond(&mut rewritten, site, rewrite, u32::MAX, &mut 0, &mut outcome);
        } else {
            rewrite_expr(&mut rewritten, site, rewrite, u32::MAX, &mut 0, &mut outcome);
        }
        if !matches!(outcome, Some(Ok(()))) {
            return false;
        }
        let Some(&width) = info.widths.get(&original.id()) else {
            return false;
        };
        let (mut widths, mut resolved) = (HashMap::new(), HashMap::new());
        let mut exprs = info.expr_scope(&self.scopes[place.scope], &mut widths, &mut resolved);
        let edit = match (root, stmt) {
            (Root::Value(_) | Root::Cond(_), _) => {
                if exprs.check_expr(&rewritten, Some(width)).is_err() {
                    return false;
                }
                BodyEdit::None
            }
            (Root::Index(_), Stmt::Assign { id, target, .. }) => {
                let sym = info.resolved[&target.id];
                if exprs.check_target_index(&rewritten, info.symbol(sym)).is_err() {
                    return false;
                }
                BodyEdit::TargetIndex(*id, &rewritten)
            }
            (Root::Subject(_), Stmt::Case { id, arms, .. }) => {
                let Ok(new_width) = exprs.check_det(&rewritten) else {
                    return false;
                };
                if new_width == width {
                    BodyEdit::None
                } else {
                    let mut seen = HashSet::new();
                    for &choice in arms.iter().flat_map(|arm| &arm.choices) {
                        if check_case_choice(choice, new_width, &seen, Span::dummy()).is_err() {
                            return false;
                        }
                        seen.insert(choice);
                    }
                    BodyEdit::SubjectWidth(*id, new_width)
                }
            }
            _ => return false,
        };
        if process.kind != ProcessKind::Comb {
            return true;
        }
        if !self.reads_schedule(facts, place.process, resolved.values().copied()) {
            return false;
        }
        let drives: Vec<SymbolId> = match (edit, stmt) {
            (BodyEdit::None, _) => return true,
            // A new target index moves only its target's coverage.
            (BodyEdit::TargetIndex(..), Stmt::Assign { target, .. }) => {
                let sym = info.resolved[&target.id];
                if info.drivers.get(&sym) != Some(&place.process) {
                    return true; // a variable: no coverage rule
                }
                vec![sym]
            }
            _ => info.process_drives(place.process).into_iter().collect(),
        };
        info.partially_assigned(process, drives, edit).is_none()
    }

    /// The self-read rule and a loop-free schedule for combinational
    /// process `process` after it reads `syms` (the symbols of one
    /// re-checked root; those it read already change nothing).
    fn reads_schedule(
        &self,
        facts: &Facts<'_>,
        process: usize,
        syms: impl Iterator<Item = SymbolId>,
    ) -> bool {
        let info = facts.info;
        let base = &facts.reads[&process];
        let new: BTreeSet<SymbolId> =
            syms.filter(|&sym| info.is_comb_read(sym) && !base.contains(&sym)).collect();
        if new.iter().any(|&sym| info.reads_own_drive(process, sym)) {
            return false;
        }
        // Only a symbol another combinational process drives adds an edge.
        let adds_edge = |sym: &SymbolId| {
            info.drivers.get(sym).is_some_and(|writer| facts.reads.contains_key(writer))
        };
        if !new.iter().any(adds_edge) {
            return true;
        }
        let mut reads = facts.reads.clone();
        reads.entry(process).or_default().extend(new);
        info.comb_schedule(&reads).is_ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::{candidate_mutants, GenerateOptions};
    use musa_hdl::parse;

    /// Every candidate of every bundled design: the site check and the
    /// whole-design re-check give the same verdict.
    #[test]
    fn every_bundled_candidate_gets_the_verdict_of_apply() {
        for (entity, source) in crate::BUNDLED {
            let checked = CheckedDesign::new(parse(source).unwrap()).unwrap();
            let validator = Validator::new(&checked);
            let candidates = candidate_mutants(&checked, entity, &GenerateOptions::default());
            let mut rejected = 0;
            for mutant in &candidates {
                let oracle = mutant.apply(&checked);
                assert_eq!(
                    validator.check(mutant),
                    oracle.is_ok(),
                    "{entity} {}: {} ({oracle:?})",
                    mutant.id,
                    mutant.description
                );
                rejected += usize::from(oracle.is_err());
            }
            eprintln!("{entity}: {} candidates, {rejected} rejected", candidates.len());
        }
    }

    /// No bundled candidate closes a loop between combinational
    /// processes, so a three-process chain covers that rule: `VR` on `a`
    /// in the first process can read `x` (its own drive) or `y` (driven
    /// downstream of it).
    #[test]
    fn candidates_that_close_a_loop_get_the_verdict_of_apply() {
        let checked = CheckedDesign::new(
            parse(
                "entity l is port(a : in bits(2); q : out bits(2));
                   signal x : bits(2);
                   signal y : bits(2);
                   comb begin x <= a; end;
                   comb begin y <= x; end;
                   comb begin q <= y; end;
                 end;",
            )
            .unwrap(),
        )
        .unwrap();
        let validator = Validator::new(&checked);
        let mut loops = 0;
        for mutant in candidate_mutants(&checked, "l", &GenerateOptions::default()) {
            let oracle = mutant.apply(&checked);
            assert_eq!(validator.check(&mutant), oracle.is_ok(), "{}", mutant.description);
            loops += usize::from(oracle.is_err_and(|e| e.to_string().contains("loop")));
        }
        assert_eq!(loops, 1, "`a` -> `y` closes the one loop");
    }
}
