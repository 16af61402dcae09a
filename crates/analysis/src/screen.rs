//! Static equivalent-mutant pre-screening.
//!
//! [`screen_population`] classifies each mutant *before* any
//! simulation: [`ScreenClass::ProvenEquivalentStatic`] when the
//! analysis can prove the rewrite cannot change observable behaviour,
//! [`ScreenClass::Viable`] otherwise. Proven mutants skip execution
//! entirely and fold into the `E` term of `MS = K/(M−E)` — which is
//! sound precisely because a proven-equivalent mutant can never be
//! killed, so skipping its simulation is bit-identical to running it.
//!
//! Two proof techniques, both conservative:
//!
//! * **Dead sites** — the mutation site lies in a statically dead
//!   region ([`crate::dataflow::analyze_dead`]). The guarding constant
//!   condition is outside the region, so no rewrite inside it can wake
//!   it. (Case-arm ids of live `case` statements are deliberately not
//!   dead: a choice rewrite can re-arm the arm.)
//! * **Local folding** — the rewritten site expression is proven equal
//!   to the original on *every* valuation of its free leaves (bounded
//!   exhaustive, ≤ [`MAX_FREE_BITS`] free bits). Free leaves range over
//!   their full declared width — a superset of reachable values, so
//!   equality on it implies equality in context.
//!
//! Everything unprovable stays `Viable` and is simulated normally;
//! the screen can produce false negatives, never false positives.

use crate::dataflow::{analyze_dead, mask, ConstEnv, FoldValue};
use crate::dataflow::{const_by_id, fold_expr};
use musa_hdl::ast::{walk_exprs, walk_stmts, CaseArm, Entity, Expr, NodeId, Stmt};
use musa_hdl::{CheckedDesign, EntityInfo, SymbolKind};
use musa_mutation::{Mutant, Rewrite};
use std::collections::{HashMap, HashSet};

/// Upper bound on the total free bits enumerated by the local-folding
/// prover (2^12 = 4096 valuations per mutant, worst case).
pub const MAX_FREE_BITS: u32 = 12;

/// Verdict of the static pre-screen for one mutant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScreenClass {
    /// Statically proven equivalent: skip simulation, count into `E`.
    ProvenEquivalentStatic,
    /// Not provable statically: simulate as usual.
    Viable,
}

impl ScreenClass {
    /// `true` for [`ScreenClass::ProvenEquivalentStatic`].
    pub fn is_proven(self) -> bool {
        matches!(self, ScreenClass::ProvenEquivalentStatic)
    }
}

/// Classifies every mutant of a population against one entity.
///
/// Mutants whose site cannot be located (or that address a different
/// entity) are conservatively `Viable`.
pub fn screen_population(
    checked: &CheckedDesign,
    entity: &str,
    mutants: &[Mutant],
) -> Vec<ScreenClass> {
    let _trace = musa_trace::span("screen");
    let Some((ent, info)) = checked.entity(entity) else {
        return vec![ScreenClass::Viable; mutants.len()];
    };
    let screener = Screener::new(ent, info);
    mutants.iter().map(|m| screener.screen(m)).collect()
}

/// Per-entity screening state, built once per population.
struct Screener<'a> {
    entity: &'a Entity,
    info: &'a EntityInfo,
    env: ConstEnv,
    /// Node ids inside statically dead regions, across all processes.
    dead: HashSet<NodeId>,
    /// Expression node id → the expression.
    exprs: HashMap<NodeId, &'a Expr>,
    /// Assignment statement id → the statement.
    assigns: HashMap<NodeId, &'a Stmt>,
    /// Case-arm id → (case statement, arm index).
    arms: HashMap<NodeId, (&'a Stmt, usize)>,
    /// Symbol → number of `Ref` reads anywhere in the entity.
    reads: HashMap<musa_hdl::SymbolId, usize>,
}

impl<'a> Screener<'a> {
    fn new(entity: &'a Entity, info: &'a EntityInfo) -> Self {
        let env = ConstEnv::from_entity(entity);
        let widths = Some(&info.widths);
        let mut dead = HashSet::new();
        let mut exprs = HashMap::new();
        let mut assigns = HashMap::new();
        let mut arms: HashMap<NodeId, (&Stmt, usize)> = HashMap::new();
        let mut reads = HashMap::new();
        for process in &entity.processes {
            dead.extend(analyze_dead(&process.body, &env, widths).nodes);
            walk_stmts(&process.body, &mut |stmt| match stmt {
                Stmt::Assign { .. } => {
                    assigns.insert(stmt.id(), stmt);
                }
                Stmt::Case { arms: list, .. } => {
                    for (i, arm) in list.iter().enumerate() {
                        arms.insert(arm.id, (stmt, i));
                    }
                }
                _ => {}
            });
            walk_exprs(&process.body, &mut |e| {
                exprs.insert(e.id(), e);
                if let Expr::Ref { id, .. } = e {
                    if let Some(&sym) = info.resolved.get(id) {
                        *reads.entry(sym).or_insert(0) += 1;
                    }
                }
            });
        }
        Self {
            entity,
            info,
            env,
            dead,
            exprs,
            assigns,
            arms,
            reads,
        }
    }

    fn screen(&self, mutant: &Mutant) -> ScreenClass {
        let proven = match &mutant.rewrite {
            // Constant-declaration rewrites invalidate the constant
            // environment the dead sets were computed under, so they get
            // their own rule and never consult `dead`.
            Rewrite::ConstDecl { value } => self.const_decl_equivalent(mutant.site, *value),
            _ if self.dead.contains(&mutant.site) => true,
            Rewrite::DeleteStmt => self.delete_stmt_equivalent(mutant.site),
            Rewrite::CaseChoice { index, value } => {
                self.case_choice_equivalent(mutant.site, *index, *value)
            }
            Rewrite::StuckCondition { value } => self.stuck_condition_equivalent(mutant.site, *value),
            Rewrite::BinOp { .. }
            | Rewrite::Ref { .. }
            | Rewrite::RefToConst { .. }
            | Rewrite::Literal { .. }
            | Rewrite::InsertNot
            | Rewrite::DeleteNot => self.expr_rewrite_equivalent(mutant.site, &mutant.rewrite),
        };
        if proven {
            ScreenClass::ProvenEquivalentStatic
        } else {
            ScreenClass::Viable
        }
    }

    /// A constant rewrite is equivalent when the new value masks to the
    /// old one, or when the constant is never read.
    fn const_decl_equivalent(&self, site: NodeId, value: u64) -> bool {
        let Some(cst) = const_by_id(self.entity, site) else {
            return false;
        };
        let m = mask(cst.width);
        if value & m == cst.value & m {
            return true;
        }
        self.info
            .symbol_by_name(&cst.name.name)
            .is_some_and(|sym| self.read_count(sym) == 0)
    }

    /// Deleting an assignment is equivalent when the target is never
    /// read and is not an output port (outputs are observable even
    /// unread).
    fn delete_stmt_equivalent(&self, site: NodeId) -> bool {
        let Some(Stmt::Assign { target, .. }) = self.assigns.get(&site) else {
            return false;
        };
        let Some(&sym) = self.info.resolved.get(&target.id) else {
            return false;
        };
        if matches!(self.info.symbol(sym).kind, SymbolKind::PortOut) {
            return false;
        }
        self.read_count(sym) == 0
    }

    /// A case-choice rewrite is equivalent when neither the removed nor
    /// the added choice can change which arm matches: a choice only
    /// matters when the subject can take its value, no earlier arm
    /// already claims it, and it is not duplicated within the arm.
    fn case_choice_equivalent(&self, site: NodeId, index: usize, value: u64) -> bool {
        let Some(&(case_stmt, arm_idx)) = self.arms.get(&site) else {
            return false;
        };
        let Stmt::Case { subject, arms, .. } = case_stmt else {
            return false;
        };
        let arm: &CaseArm = &arms[arm_idx];
        if index >= arm.choices.len() {
            return false;
        }
        let old = arm.choices[index];
        if old == value {
            return true;
        }
        let possible = self.subject_values(subject);
        let subject_width = self.info.widths.get(&subject.id()).copied();
        let in_possible = |v: u64| match (&possible, subject_width) {
            (Some(set), _) => set.contains(&v),
            (None, Some(w)) => v <= mask(w),
            (None, None) => true,
        };
        let claimed_earlier = |v: u64| {
            arms[..arm_idx]
                .iter()
                .any(|a| a.choices.contains(&v))
        };
        let elsewhere_in_arm =
            |v: u64| arm.choices.iter().enumerate().any(|(j, &c)| j != index && c == v);
        let matters =
            |v: u64| in_possible(v) && !claimed_earlier(v) && !elsewhere_in_arm(v);
        !matters(old) && !matters(value)
    }

    /// The set of values the case subject can take, by bounded
    /// exhaustive folding; `None` when the enumeration is infeasible
    /// (then every in-width value is assumed possible).
    fn subject_values(&self, subject: &Expr) -> Option<HashSet<u64>> {
        let free = self.free_vars(&[subject])?;
        let mut values = HashSet::new();
        let complete = free.for_each(&self.env, |env| {
            match fold_expr(subject, env, Some(&self.info.widths)) {
                Some(v) => {
                    values.insert(v.value);
                    true
                }
                None => false,
            }
        });
        complete.then_some(values)
    }

    /// A stuck condition is equivalent when the condition already folds
    /// to the forced value on every valuation.
    fn stuck_condition_equivalent(&self, site: NodeId, value: bool) -> bool {
        let Some(cond) = self.exprs.get(&site) else {
            return false;
        };
        let Some(free) = self.free_vars(&[cond]) else {
            return false;
        };
        free.for_each(&self.env, |env| {
            fold_expr(cond, env, Some(&self.info.widths))
                .is_some_and(|v| v.as_bool() == value)
        })
    }

    /// An expression rewrite is equivalent when original and rewritten
    /// subtrees fold to the same value on every valuation of their free
    /// leaves.
    fn expr_rewrite_equivalent(&self, site: NodeId, rewrite: &Rewrite) -> bool {
        let Some(orig) = self.exprs.get(&site) else {
            return false;
        };
        let Some(mutated) = rewrite.apply_to_expr(orig) else {
            return false;
        };
        let Some(free) = self.free_vars(&[orig, &mutated]) else {
            return false;
        };
        let widths = Some(&self.info.widths);
        free.for_each(&self.env, |env| {
            match (fold_expr(orig, env, widths), fold_expr(&mutated, env, widths)) {
                (Some(a), Some(b)) => {
                    let w = match (a.width, b.width) {
                        (Some(x), Some(y)) if x != y => return false,
                        (Some(x), _) | (_, Some(x)) => Some(x),
                        (None, None) => None,
                    };
                    match w {
                        Some(w) => a.value & mask(w) == b.value & mask(w),
                        None => a.value == b.value,
                    }
                }
                _ => false,
            }
        })
    }

    fn read_count(&self, sym: musa_hdl::SymbolId) -> usize {
        self.reads.get(&sym).copied().unwrap_or(0)
    }

    /// Collects the free leaves of a set of expression trees: every
    /// distinct referenced name becomes an independent free variable of
    /// its declared width (constants are fixed to their value). Returns
    /// `None` when a name cannot be resolved or the total free width
    /// exceeds [`MAX_FREE_BITS`].
    fn free_vars(&self, trees: &[&Expr]) -> Option<FreeVars> {
        let mut free = FreeVars::default();
        let mut seen: HashSet<String> = HashSet::new();
        for tree in trees {
            let mut names = Vec::new();
            tree.walk(&mut |e| {
                if let Expr::Ref { name, .. } = e {
                    names.push(name.name.clone());
                }
            });
            for name in names {
                if !seen.insert(name.clone()) {
                    continue;
                }
                match self.resolve_leaf(&name)? {
                    Leaf::Fixed(v) => free.fixed.push((name, v)),
                    Leaf::Free(width) => {
                        free.total_bits += width;
                        free.vars.push((name, width));
                    }
                }
            }
        }
        (free.total_bits <= MAX_FREE_BITS).then_some(free)
    }

    /// Resolves one referenced name to a fixed constant or a free
    /// variable of known width.
    fn resolve_leaf(&self, name: &str) -> Option<Leaf> {
        if let Some(sym) = self.info.symbol_by_name(name) {
            let s = self.info.symbol(sym);
            return Some(match s.kind {
                SymbolKind::Const(v) => Leaf::Fixed(FoldValue::new(v, Some(s.width))),
                _ => Leaf::Free(s.width),
            });
        }
        // Process variables: free over their declared width (a superset
        // of reachable values, hence sound). Ambiguous widths bail.
        let mut var_width: Option<u32> = None;
        for process in &self.entity.processes {
            for var in &process.vars {
                if var.name.name == name {
                    match var_width {
                        Some(w) if w != var.width => return None,
                        _ => var_width = Some(var.width),
                    }
                }
            }
        }
        if let Some(w) = var_width {
            return Some(Leaf::Free(w));
        }
        // Loop indices: free over the smallest width covering the upper
        // bound (again a superset of `lo..=hi`).
        let mut loop_width: Option<u32> = None;
        for process in &self.entity.processes {
            walk_stmts(&process.body, &mut |s| {
                if let Stmt::For { var, hi, .. } = s {
                    if var.name == name {
                        let w = (64 - hi.leading_zeros()).max(1);
                        match loop_width {
                            Some(prev) => loop_width = Some(prev.max(w)),
                            None => loop_width = Some(w),
                        }
                    }
                }
            });
        }
        loop_width.map(Leaf::Free)
    }
}

enum Leaf {
    Fixed(FoldValue),
    Free(u32),
}

/// The free leaves of one or more expression trees.
#[derive(Default)]
struct FreeVars {
    vars: Vec<(String, u32)>,
    fixed: Vec<(String, FoldValue)>,
    total_bits: u32,
}

impl FreeVars {
    /// Runs `check` for every valuation of the free variables; returns
    /// `true` only when it holds for all of them.
    fn for_each(&self, base: &ConstEnv, mut check: impl FnMut(&ConstEnv) -> bool) -> bool {
        let mut env = base.clone();
        for (name, v) in &self.fixed {
            env.bind(name, *v);
        }
        let total = 1u64 << self.total_bits;
        for assignment in 0..total {
            let mut cursor = assignment;
            for (name, width) in &self.vars {
                env.bind(name, FoldValue::new(cursor & mask(*width), Some(*width)));
                cursor >>= width;
            }
            if !check(&env) {
                return false;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use musa_hdl::ast::BinOp;
    use musa_hdl::parse;
    use musa_mutation::{MutantId, MutationOperator};

    fn checked(src: &str) -> CheckedDesign {
        CheckedDesign::new(parse(src).unwrap()).unwrap()
    }

    fn mutant(site: NodeId, rewrite: Rewrite) -> Mutant {
        Mutant {
            id: MutantId(0),
            operator: MutationOperator::Ror,
            site,
            rewrite,
            description: String::new(),
        }
    }

    fn find_binary(design: &CheckedDesign, op: BinOp) -> NodeId {
        let mut found = None;
        for entity in &design.design().entities {
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
        found.expect("site")
    }

    const B01_LIKE: &str = "
        entity e is
          port(clk : in bit; rst : in bit; d : in bit; q : out bit);
        signal r : bit := 0;
        seq(clk) begin
          if rst = 1 then
            r <= 0;
          else
            r <= d;
          end if;
        end;
        comb begin q <= r; end;
        end;
    ";

    #[test]
    fn width1_relational_swap_is_proven_equivalent() {
        // On a 1-bit operand, `rst = 1` ≡ `rst >= 1`.
        let design = checked(B01_LIKE);
        let site = find_binary(&design, BinOp::Eq);
        let classes = screen_population(
            &design,
            "e",
            &[
                mutant(site, Rewrite::BinOp { new: BinOp::Ge }),
                mutant(site, Rewrite::BinOp { new: BinOp::Ne }),
            ],
        );
        assert!(classes[0].is_proven(), "rst >= 1 is rst = 1 on one bit");
        assert!(!classes[1].is_proven(), "rst /= 1 differs");
    }

    #[test]
    fn dead_site_is_proven_equivalent() {
        let src = "
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
        let design = checked(src);
        // Site: the `not a` value expression inside the dead arm.
        let mut site = None;
        for entity in &design.design().entities {
            for process in &entity.processes {
                walk_exprs(&process.body, &mut |e| {
                    if matches!(e, Expr::Unary { .. }) {
                        site = Some(e.id());
                    }
                });
            }
        }
        let classes = screen_population(&design, "e", &[mutant(site.unwrap(), Rewrite::DeleteNot)]);
        assert!(classes[0].is_proven());
        // The live arm's site is not provable.
        let live = find_binary(&design, BinOp::Eq);
        let classes =
            screen_population(&design, "e", &[mutant(live, Rewrite::BinOp { new: BinOp::Ne })]);
        assert!(!classes[0].is_proven());
    }

    #[test]
    fn unread_const_rewrite_is_equivalent_and_read_const_is_not() {
        let src = "
            entity e is
              port(a : in bits(4); y : out bits(4));
            constant DEADK : bits(4) := 7;
            constant LIVEK : bits(4) := 1;
            comb begin y <= a + LIVEK; end;
            end;
        ";
        let design = checked(src);
        let dead_id = design.design().entities[0].consts[0].id;
        let live_id = design.design().entities[0].consts[1].id;
        let classes = screen_population(
            &design,
            "e",
            &[
                mutant(dead_id, Rewrite::ConstDecl { value: 3 }),
                mutant(live_id, Rewrite::ConstDecl { value: 3 }),
                // Masked identity: 17 & 0xf == 1.
                mutant(live_id, Rewrite::ConstDecl { value: 17 }),
            ],
        );
        assert!(classes[0].is_proven());
        assert!(!classes[1].is_proven());
        assert!(classes[2].is_proven());
    }

    #[test]
    fn delete_of_unread_signal_assignment_is_equivalent() {
        let src = "
            entity e is
              port(clk : in bit; d : in bit; q : out bit);
            signal ghost : bit := 0;
            seq(clk) begin
              ghost <= d;
              q <= d;
            end;
            end;
        ";
        let design = checked(src);
        let body = &design.design().entities[0].processes[0].body;
        let ghost_assign = body[0].id();
        let q_assign = body[1].id();
        let classes = screen_population(
            &design,
            "e",
            &[
                mutant(ghost_assign, Rewrite::DeleteStmt),
                mutant(q_assign, Rewrite::DeleteStmt),
            ],
        );
        assert!(classes[0].is_proven(), "ghost is never read");
        assert!(!classes[1].is_proven(), "q is an output");
    }

    #[test]
    fn case_choice_outside_subject_range_is_equivalent() {
        let src = "
            entity e is
              port(s : in bits(2); y : out bits(2));
            comb begin
              case s is
                when 0 => y <= 1;
                when 1 => y <= 2;
                when others => y <= 0;
              end case;
            end;
            end;
        ";
        let design = checked(src);
        let mut arm0 = None;
        for process in &design.design().entities[0].processes {
            walk_stmts(&process.body, &mut |s| {
                if let Stmt::Case { arms, .. } = s {
                    arm0 = Some(arms[0].id);
                }
            });
        }
        let classes = screen_population(
            &design,
            "e",
            &[
                // 0 -> 0 identity.
                mutant(arm0.unwrap(), Rewrite::CaseChoice { index: 0, value: 0 }),
                // 0 -> 2: removing 0 (falls to others) and capturing 2 both matter.
                mutant(arm0.unwrap(), Rewrite::CaseChoice { index: 0, value: 2 }),
            ],
        );
        assert!(classes[0].is_proven());
        assert!(!classes[1].is_proven());
    }

    #[test]
    fn stuck_condition_matching_constant_cond_is_equivalent() {
        let src = "
            entity e is
              port(a : in bit; y : out bit);
            constant K : bit := 1;
            comb begin
              if K = 1 then
                y <= a;
              else
                y <= not a;
              end if;
            end;
            end;
        ";
        let design = checked(src);
        let cond = find_binary(&design, BinOp::Eq);
        let classes = screen_population(
            &design,
            "e",
            &[
                mutant(cond, Rewrite::StuckCondition { value: true }),
                mutant(cond, Rewrite::StuckCondition { value: false }),
            ],
        );
        assert!(classes[0].is_proven(), "condition already always true");
        assert!(!classes[1].is_proven());
    }

    #[test]
    fn insert_not_is_never_locally_equivalent() {
        let design = checked(B01_LIKE);
        let site = find_binary(&design, BinOp::Eq);
        let classes = screen_population(&design, "e", &[mutant(site, Rewrite::InsertNot)]);
        assert!(!classes[0].is_proven());
    }

    #[test]
    fn unknown_entity_and_unknown_site_are_viable() {
        let design = checked(B01_LIKE);
        let m = mutant(NodeId(999_999), Rewrite::DeleteStmt);
        assert!(!screen_population(&design, "nosuch", std::slice::from_ref(&m))[0].is_proven());
        assert!(!screen_population(&design, "e", &[m])[0].is_proven());
    }

    #[test]
    fn wide_free_space_bails_to_viable() {
        // 2 × 32-bit operands exceed MAX_FREE_BITS: even a genuinely
        // equivalent-looking rewrite must stay Viable.
        let src = "
            entity e is
              port(a : in bits(32); b : in bits(32); y : out bit);
            comb begin y <= a = b; end;
            end;
        ";
        let design = checked(src);
        let site = find_binary(&design, BinOp::Eq);
        let classes = screen_population(
            &design,
            "e",
            &[mutant(site, Rewrite::BinOp { new: BinOp::Eq })],
        );
        // Identity rewrite, but unprovable within budget.
        assert!(!classes[0].is_proven());
    }
}
