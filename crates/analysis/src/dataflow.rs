//! Dataflow facts over the MiniHDL AST.
//!
//! Folding works from names and literal widths alone, and takes the
//! checker's per-node width table as an optional oracle that makes it
//! exact (the mutant pre-screen passes it). Scheduling, cycle detection
//! and width inference are the checker's: see
//! [`musa_hdl::EntityInfo`].
//!
//! The facts provided:
//!
//! * [`fold_expr`] — constant propagation and folding mirroring the
//!   simulator's evaluation semantics;
//! * [`analyze_dead`] — statement reachability under constant
//!   conditions, constant case subjects and empty loop ranges;
//! * [`EntityFacts`] — assigned-vs-read signal accounting per process,
//!   with the transitive output read-cone built on top.

use musa_hdl::ast::{
    BinOp, ConstDecl, Entity, Expr, NodeId, PortDir, Process, ReduceOp, Select, ShiftOp, Stmt,
    walk_exprs, walk_stmts,
};
use musa_hdl::Span;
use std::collections::{HashMap, HashSet};

/// All-ones mask for a width (widths above 64 saturate).
pub(crate) fn mask(width: u32) -> u64 {
    if width >= 64 {
        u64::MAX
    } else {
        (1u64 << width) - 1
    }
}

/// A folded compile-time value: the value plus its width when known.
///
/// Decimal literals have no intrinsic width (they adopt the width of
/// their context, like the checker), so `width` is `None` until a
/// widthful operand fixes it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FoldValue {
    /// The folded value, masked to `width` when one is known.
    pub value: u64,
    /// Bit width, when the expression fixes one.
    pub width: Option<u32>,
}

impl FoldValue {
    /// Creates a fold value, masking to the width when one is known.
    pub fn new(value: u64, width: Option<u32>) -> Self {
        let value = match width {
            Some(w) => value & mask(w),
            None => value,
        };
        Self { value, width }
    }

    /// Truth interpretation: any set bit.
    pub fn as_bool(self) -> bool {
        self.value != 0
    }
}

/// Compile-time constant bindings visible to the folder, by name.
#[derive(Debug, Clone, Default)]
pub struct ConstEnv {
    bindings: HashMap<String, FoldValue>,
}

impl ConstEnv {
    /// An environment holding an entity's named constants.
    pub fn from_entity(entity: &Entity) -> Self {
        let mut env = Self::default();
        for cst in &entity.consts {
            env.bind(&cst.name.name, FoldValue::new(cst.value, Some(cst.width)));
        }
        env
    }

    /// Adds or replaces a binding.
    pub fn bind(&mut self, name: &str, value: FoldValue) {
        self.bindings.insert(name.to_owned(), value);
    }

    /// Looks up a binding.
    pub fn get(&self, name: &str) -> Option<FoldValue> {
        self.bindings.get(name).copied()
    }
}

/// Folds an expression to a constant when every leaf is known.
///
/// `widths` is an optional per-node width oracle (the checker's side
/// table); with it, decimal literals fold exactly as the simulator
/// evaluates them. Returns `None` when the expression depends on a
/// non-constant leaf or when widths cannot be reconciled.
///
/// Semantics mirror the simulator: dynamic index reads out of range
/// yield 0, arithmetic wraps modulo the operand width, comparisons
/// produce one bit.
pub fn fold_expr(
    expr: &Expr,
    env: &ConstEnv,
    widths: Option<&HashMap<NodeId, u32>>,
) -> Option<FoldValue> {
    let oracle = |id: &NodeId| widths.and_then(|m| m.get(id).copied());
    match expr {
        Expr::Literal {
            id, value, width, ..
        } => Some(FoldValue::new(*value, width.or_else(|| oracle(id)))),
        Expr::Ref { id, name } => {
            let bound = env.get(&name.name)?;
            Some(FoldValue::new(
                bound.value,
                bound.width.or_else(|| oracle(id)),
            ))
        }
        Expr::Index { base, index, .. } => {
            let base = fold_expr(base, env, widths)?;
            let index = fold_expr(index, env, widths)?;
            let width = base.width?;
            let bit = if index.value >= u64::from(width) {
                0 // out-of-range dynamic reads yield 0 in the simulator
            } else {
                (base.value >> index.value) & 1
            };
            Some(FoldValue::new(bit, Some(1)))
        }
        Expr::Slice { base, hi, lo, .. } => {
            let base = fold_expr(base, env, widths)?;
            if hi < lo || *hi >= 64 {
                return None;
            }
            let w = hi - lo + 1;
            Some(FoldValue::new((base.value >> lo) & mask(w), Some(w)))
        }
        Expr::Unary { arg, .. } => {
            let arg = fold_expr(arg, env, widths)?;
            let w = arg.width?;
            Some(FoldValue::new(!arg.value, Some(w)))
        }
        Expr::Binary { op, lhs, rhs, .. } => {
            let lhs = fold_expr(lhs, env, widths)?;
            let rhs = fold_expr(rhs, env, widths)?;
            fold_binary(*op, lhs, rhs)
        }
        Expr::Reduce { op, arg, .. } => {
            let arg = fold_expr(arg, env, widths)?;
            let bit = match op {
                ReduceOp::Or => u64::from(arg.value != 0),
                ReduceOp::And => {
                    let w = arg.width?;
                    u64::from(arg.value == mask(w))
                }
                ReduceOp::Xor => u64::from(arg.value.count_ones() % 2),
            };
            Some(FoldValue::new(bit, Some(1)))
        }
        Expr::Concat { lhs, rhs, .. } => {
            let lhs = fold_expr(lhs, env, widths)?;
            let rhs = fold_expr(rhs, env, widths)?;
            let (lw, rw) = (lhs.width?, rhs.width?);
            if lw + rw > 64 {
                return None;
            }
            Some(FoldValue::new((lhs.value << rw) | rhs.value, Some(lw + rw)))
        }
        Expr::Shift { op, arg, amount, .. } => {
            let arg = fold_expr(arg, env, widths)?;
            match op {
                ShiftOp::Left => {
                    let w = arg.width?;
                    let v = if *amount >= 64 { 0 } else { arg.value << amount };
                    Some(FoldValue::new(v, Some(w)))
                }
                ShiftOp::Right => {
                    let v = if *amount >= 64 { 0 } else { arg.value >> amount };
                    Some(FoldValue::new(v, arg.width))
                }
            }
        }
    }
}

/// Folds one binary operation, unifying operand widths the way the
/// checker does: a width-less (decimal-literal) operand adopts the
/// other side's width; two known-but-different widths do not fold.
fn fold_binary(op: BinOp, lhs: FoldValue, rhs: FoldValue) -> Option<FoldValue> {
    let width = match (lhs.width, rhs.width) {
        (Some(a), Some(b)) if a != b => return None,
        (Some(a), _) | (_, Some(a)) => Some(a),
        (None, None) => None,
    };
    let (a, b) = match width {
        Some(w) => (lhs.value & mask(w), rhs.value & mask(w)),
        None => (lhs.value, rhs.value),
    };
    if op.is_relational() {
        let bit = match op {
            BinOp::Eq => a == b,
            BinOp::Ne => a != b,
            BinOp::Lt => a < b,
            BinOp::Le => a <= b,
            BinOp::Gt => a > b,
            BinOp::Ge => a >= b,
            _ => unreachable!(),
        };
        return Some(FoldValue::new(u64::from(bit), Some(1)));
    }
    // Logical and arithmetic results keep the operand width, which must
    // therefore be known.
    let w = width?;
    let value = match op {
        BinOp::And => a & b,
        BinOp::Or => a | b,
        BinOp::Xor => a ^ b,
        BinOp::Nand => !(a & b),
        BinOp::Nor => !(a | b),
        BinOp::Xnor => !(a ^ b),
        BinOp::Add => a.wrapping_add(b),
        BinOp::Sub => a.wrapping_sub(b),
        BinOp::Mul => a.wrapping_mul(b),
        _ => unreachable!(),
    };
    Some(FoldValue::new(value, Some(w)))
}

/// Reachability analysis of one statement list.
#[derive(Debug, Default)]
pub struct Deadness {
    /// Every node id — statements, their expressions, assignment
    /// targets and case arms — lying inside a dead region. A mutation
    /// whose site is in this set cannot change observable behaviour.
    ///
    /// Case arms of a *live* `case` with a constant subject are **not**
    /// included even when their body is dead: rewriting a choice can
    /// make such an arm match again. Their bodies are included.
    pub nodes: HashSet<NodeId>,
    /// Maximal dead regions as `(first statement id, covering span)`.
    pub roots: Vec<(NodeId, Span)>,
}

/// Computes statement reachability under constant folding.
///
/// A region is dead when it is guarded by a condition that folds to a
/// constant making it unreachable: a false `if` arm, arms after a true
/// condition, non-matching arms of a constant `case` subject, the
/// default of a matched constant `case`, or a `for` with an empty
/// range.
pub fn analyze_dead(
    stmts: &[Stmt],
    env: &ConstEnv,
    widths: Option<&HashMap<NodeId, u32>>,
) -> Deadness {
    let mut dead = Deadness::default();
    scan_live(stmts, env, widths, &mut dead);
    dead
}

fn scan_live(
    stmts: &[Stmt],
    env: &ConstEnv,
    widths: Option<&HashMap<NodeId, u32>>,
    dead: &mut Deadness,
) {
    for stmt in stmts {
        match stmt {
            Stmt::Assign { .. } | Stmt::Null { .. } => {}
            Stmt::If {
                arms, else_body, ..
            } => {
                let mut taken = false;
                for (cond, body) in arms {
                    if taken {
                        // Never evaluated: the condition itself is dead.
                        mark_expr(cond, &mut dead.nodes);
                        kill_body(body, dead);
                        continue;
                    }
                    match fold_expr(cond, env, widths) {
                        Some(v) if !v.as_bool() => kill_body(body, dead),
                        Some(_) => {
                            taken = true;
                            scan_live(body, env, widths, dead);
                        }
                        None => scan_live(body, env, widths, dead),
                    }
                }
                if let Some(body) = else_body {
                    if taken {
                        kill_body(body, dead);
                    } else {
                        scan_live(body, env, widths, dead);
                    }
                }
            }
            Stmt::Case {
                subject,
                arms,
                default,
                ..
            } => match fold_expr(subject, env, widths) {
                Some(v) => {
                    let mut matched = false;
                    for arm in arms {
                        if !matched && arm.choices.contains(&v.value) {
                            matched = true;
                            scan_live(&arm.body, env, widths, dead);
                        } else {
                            kill_body(&arm.body, dead);
                        }
                    }
                    if let Some(body) = default {
                        if matched {
                            kill_body(body, dead);
                        } else {
                            scan_live(body, env, widths, dead);
                        }
                    }
                }
                None => {
                    for arm in arms {
                        scan_live(&arm.body, env, widths, dead);
                    }
                    if let Some(body) = default {
                        scan_live(body, env, widths, dead);
                    }
                }
            },
            Stmt::For { lo, hi, body, .. } => {
                if lo > hi {
                    kill_body(body, dead);
                } else {
                    scan_live(body, env, widths, dead);
                }
            }
        }
    }
}

/// Records a dead body: one maximal root plus every node id inside.
fn kill_body(stmts: &[Stmt], dead: &mut Deadness) {
    let Some(first) = stmts.first() else { return };
    let span = stmts
        .iter()
        .map(Stmt::span)
        .fold(Span::dummy(), |acc, s| {
            if acc == Span::dummy() {
                s
            } else if s == Span::dummy() {
                acc
            } else {
                acc.merge(s)
            }
        });
    dead.roots.push((first.id(), span));
    mark_all(stmts, &mut dead.nodes);
}

/// Marks every node id in a statement list (statements, expressions,
/// targets, case arms) as dead.
fn mark_all(stmts: &[Stmt], nodes: &mut HashSet<NodeId>) {
    walk_stmts(stmts, &mut |stmt| {
        nodes.insert(stmt.id());
        match stmt {
            Stmt::Assign { target, value, .. } => {
                nodes.insert(target.id);
                if let Some(Select::Index(ix)) = &target.sel {
                    mark_expr(ix, nodes);
                }
                mark_expr(value, nodes);
            }
            Stmt::If { arms, .. } => {
                for (cond, _) in arms {
                    mark_expr(cond, nodes);
                }
            }
            Stmt::Case { subject, arms, .. } => {
                mark_expr(subject, nodes);
                for arm in arms {
                    nodes.insert(arm.id);
                }
            }
            Stmt::For { .. } | Stmt::Null { .. } => {}
        }
    });
}

fn mark_expr(expr: &Expr, nodes: &mut HashSet<NodeId>) {
    expr.walk(&mut |e| {
        nodes.insert(e.id());
    });
}

/// Assigned-vs-read accounting for one entity, by top-level name.
///
/// Process-local variables and loop indices are excluded: reads and
/// writes record only ports, constants and signals, which is what the
/// unread-signal and write-only-cone lint rules reason about.
#[derive(Debug)]
pub struct EntityFacts {
    /// Per process: top-level names read (in conditions, subjects,
    /// assignment values and target indices).
    pub reads: Vec<HashSet<String>>,
    /// Per process: top-level names driven with `<=`.
    pub writes: Vec<HashSet<String>>,
}

impl EntityFacts {
    /// Collects read/write facts for every process of an entity.
    pub fn new(entity: &Entity) -> Self {
        let mut reads = Vec::with_capacity(entity.processes.len());
        let mut writes = Vec::with_capacity(entity.processes.len());
        for process in &entity.processes {
            let locals = process_locals(process);
            let mut read = HashSet::new();
            walk_exprs(&process.body, &mut |e| {
                if let Expr::Ref { name, .. } = e {
                    if !locals.contains(&name.name) {
                        read.insert(name.name.clone());
                    }
                }
            });
            let mut written = HashSet::new();
            walk_stmts(&process.body, &mut |s| {
                if let Stmt::Assign { kind, target, .. } = s {
                    if matches!(kind, musa_hdl::ast::AssignKind::Signal)
                        && !locals.contains(&target.base.name)
                    {
                        written.insert(target.base.name.clone());
                    }
                }
            });
            reads.push(read);
            writes.push(written);
        }
        Self { reads, writes }
    }

    /// Every top-level name read by any process.
    pub fn read_anywhere(&self) -> HashSet<&str> {
        self.reads
            .iter()
            .flat_map(|r| r.iter().map(String::as_str))
            .collect()
    }

    /// The transitive output read-cone: names whose value can reach an
    /// output port, at process granularity.
    ///
    /// Starts from the output ports and repeatedly adds everything read
    /// by a process that writes a name already in the cone. A written,
    /// read signal *outside* this set can never influence an output.
    pub fn output_cone(&self, entity: &Entity) -> HashSet<String> {
        let mut cone: HashSet<String> = entity
            .ports
            .iter()
            .filter(|p| p.dir == PortDir::Out)
            .map(|p| p.name.name.clone())
            .collect();
        loop {
            let mut changed = false;
            for (written, read) in self.writes.iter().zip(&self.reads) {
                if written.iter().any(|w| cone.contains(w)) {
                    for r in read {
                        changed |= cone.insert(r.clone());
                    }
                }
            }
            if !changed {
                return cone;
            }
        }
    }
}

/// Names local to a process: its variables plus every `for` index used
/// anywhere in its body.
fn process_locals(process: &Process) -> HashSet<String> {
    let mut locals: HashSet<String> = process.vars.iter().map(|v| v.name.name.clone()).collect();
    walk_stmts(&process.body, &mut |s| {
        if let Stmt::For { var, .. } = s {
            locals.insert(var.name.clone());
        }
    });
    locals
}

/// Width of a named constant declaration, used by the pre-screen.
pub(crate) fn const_by_id(entity: &Entity, id: NodeId) -> Option<&ConstDecl> {
    entity.consts.iter().find(|c| c.id == id)
}

#[cfg(test)]
mod tests {
    use super::*;
    use musa_hdl::parse;

    fn entity(src: &str) -> Entity {
        parse(src).unwrap().entities.remove(0)
    }

    const GUARDED: &str = "
        entity e is
          port(a : in bits(4); y : out bits(4));
        constant K : bits(4) := 3;
        comb begin
          if K = 3 then
            y <= a;
          else
            y <= a + 1;
          end if;
        end;
        end;
    ";

    #[test]
    fn folds_constants_through_operators() {
        let ent = entity(GUARDED);
        let env = ConstEnv::from_entity(&ent);
        assert_eq!(env.get("K"), Some(FoldValue::new(3, Some(4))));
        // Fold the if condition `K = 3`.
        let Stmt::If { arms, .. } = &ent.processes[0].body[0] else {
            panic!("expected if");
        };
        let folded = fold_expr(&arms[0].0, &env, None).unwrap();
        assert_eq!(folded, FoldValue::new(1, Some(1)));
        assert!(folded.as_bool());
    }

    #[test]
    fn fold_bails_on_free_signals() {
        let ent = entity(GUARDED);
        let env = ConstEnv::from_entity(&ent);
        // `a` is an input port, not foldable.
        let Stmt::If { arms, .. } = &ent.processes[0].body[0] else {
            panic!("expected if");
        };
        let Stmt::Assign { value, .. } = &arms[0].1[0] else {
            panic!("expected assign");
        };
        assert_eq!(fold_expr(value, &env, None), None);
    }

    #[test]
    fn fold_wraps_arithmetic_and_masks() {
        let mut env = ConstEnv::default();
        env.bind("x", FoldValue::new(15, Some(4)));
        let src = "
            entity e is
              port(y : out bits(4));
            constant x : bits(4) := 15;
            comb begin y <= x + 1; end;
            end;
        ";
        let ent = entity(src);
        let Stmt::Assign { value, .. } = &ent.processes[0].body[0] else {
            panic!("expected assign");
        };
        // 15 + 1 wraps to 0 in 4 bits.
        assert_eq!(
            fold_expr(value, &env, None),
            Some(FoldValue::new(0, Some(4)))
        );
    }

    #[test]
    fn dead_else_of_constant_true_condition() {
        let ent = entity(GUARDED);
        let env = ConstEnv::from_entity(&ent);
        let dead = analyze_dead(&ent.processes[0].body, &env, None);
        assert_eq!(dead.roots.len(), 1);
        // The dead else-branch's assign is in the node set; the live
        // arm's assign is not.
        let Stmt::If { arms, else_body, .. } = &ent.processes[0].body[0] else {
            panic!("expected if");
        };
        assert!(!dead.nodes.contains(&arms[0].1[0].id()));
        assert!(dead.nodes.contains(&else_body.as_ref().unwrap()[0].id()));
    }

    #[test]
    fn constant_case_subject_kills_other_arms_but_not_their_arm_ids() {
        let src = "
            entity e is
              port(y : out bits(2));
            constant S : bits(2) := 1;
            comb begin
              case S is
                when 0 => y <= 2;
                when 1 => y <= 3;
                when others => y <= 0;
              end case;
            end;
            end;
        ";
        let ent = entity(src);
        let env = ConstEnv::from_entity(&ent);
        let dead = analyze_dead(&ent.processes[0].body, &env, None);
        let Stmt::Case { arms, default, .. } = &ent.processes[0].body[0] else {
            panic!("expected case");
        };
        // Arm 0 body dead, arm 1 body alive, default dead.
        assert!(dead.nodes.contains(&arms[0].body[0].id()));
        assert!(!dead.nodes.contains(&arms[1].body[0].id()));
        assert!(dead.nodes.contains(&default.as_ref().unwrap()[0].id()));
        // Arm ids stay live: a choice rewrite can re-arm them.
        assert!(!dead.nodes.contains(&arms[0].id));
    }

    #[test]
    fn entity_facts_account_reads_and_writes() {
        let src = "
            entity e is
              port(a : in bits(2); y : out bits(2));
            signal t : bits(2);
            signal orphan : bits(2);
            comb begin t <= a; orphan <= a; end;
            comb begin y <= t; end;
            end;
        ";
        let ent = entity(src);
        let facts = EntityFacts::new(&ent);
        assert!(facts.writes[0].contains("t"));
        assert!(facts.writes[0].contains("orphan"));
        assert!(facts.reads[1].contains("t"));
        let cone = facts.output_cone(&ent);
        assert!(cone.contains("t") && cone.contains("a"));
        // `orphan` is written from a cone process but never read into it.
        assert!(!cone.contains("orphan"));
    }
}
