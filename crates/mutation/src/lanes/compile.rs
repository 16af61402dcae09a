//! Entity → lane-tape compiler.
//!
//! First stage of the compile → lower/execute pipeline; its tapes go
//! straight to [`super::exec`]'s lowering.
//!
//! Compiles one checked entity **once per lane group** into two flat
//! tapes — the combinational settle and the clock edge — with every
//! mutation site of the group folded in as a mask-driven lane select
//! ([`Instr::MaskSel`]). Control flow is predicated away: `if`/`case`
//! arms become per-lane guards combined with [`Instr::Sel`], `for`
//! loops are unrolled (bounds are constant), and blocking/non-blocking
//! assignment semantics are reproduced by the same env/overlay
//! discipline the scalar [`musa_hdl::Simulator`] uses, so every lane is
//! bit-identical to a scalar run of the corresponding mutant.
//!
//! Mutants whose rewrite cannot be expressed in the tape (a site the
//! entity does not contain, a rewrite that does not fit its node, or a
//! replacement that the scalar engine would reject as stillborn) are
//! reported in [`Compiled::fallback`]; the group runner executes those
//! through the scalar engine so observable behaviour — including
//! errors — matches the scalar path exactly. Cheap structural refusals
//! cover the expression rewrites (a literal index past its width, a
//! swap into or out of the relational class, a literal index under
//! `not`); a deletion (SDL) and any rewrite inside an assignment's
//! target index, which can break whole-process rules, ask the
//! population's [`Validator`] instead (built on first need, so a plan
//! without such a rewrite never builds one).

use super::exec::{lower_unit, Lowered};
use super::tape::{Instr, LaneWord, Reg, Tape, LANES};
use crate::mutant::{Mutant, Rewrite};
use crate::validate::Validator;
use musa_hdl::ast::*;
use musa_hdl::check::{check_case_choice, check_const_value};
use musa_hdl::{Bits, CheckedDesign, EntityInfo, Span, SymbolId, SymbolKind};
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::sync::OnceLock;

/// A group compiled for lane execution: the output of the
/// compile → lower pipeline.
#[derive(Debug)]
pub(crate) struct Compiled {
    /// The lowered comb and edge tapes, their constant pool and the
    /// scratch sizes they need.
    pub lowered: Lowered,
    /// Where this group's power-on lanes differ from the plan's shared
    /// ones ([`BaseCompile::init`]): `(symbol, lane, value)` for each CR
    /// mutant of a constant declaration.
    pub power_on: Vec<(u32, u32, u64)>,
    /// Data-input symbols in declaration order, with their widths (the
    /// step protocol asserts them exactly like `Simulator::set_input`).
    pub data_inputs: Vec<(SymbolId, u32)>,
    /// Output symbols in declaration order.
    pub outputs: Vec<SymbolId>,
    /// `true` when the entity has no clocked process.
    pub combinational: bool,
    /// Group-local indices of mutants the tape cannot represent; the
    /// runner executes these through the scalar engine. Ascending.
    pub fallback: Vec<usize>,
}

/// Why a group could not be compiled: the union of its mutated read
/// dependencies has a combinational cycle, so it must be split.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Cycle;

/// The group-independent part of a lane compile — the *reference tape
/// prefix* shared by every ≤63-mutant group of one population.
///
/// Computed once per population (or once per [`crate::LanePlan`]) and
/// handed to every [`compile_group`] call, so per-group compiles no
/// longer re-walk the whole entity: the resolved entity and the base
/// read-dependency sets are reused, and a group only pays for what its
/// own mutants change (`VR` read edges, `CR` constant lanes, the
/// mutated statement tapes). Its power-on lane words outlive it: the
/// plan keeps them, once, for every group it runs.
#[derive(Debug)]
pub(crate) struct BaseCompile<'a> {
    checked: &'a CheckedDesign,
    /// The entity every group compiles, resolved once.
    entity: &'a Entity,
    /// The checker's facts about `entity`.
    info: &'a EntityInfo,
    /// Per-comb-process read sets over ports and signals (the inputs to
    /// the scheduling that `VR` rewrites extend per group).
    reads: BTreeMap<usize, BTreeSet<SymbolId>>,
    /// The checker's comb-process order — valid as-is for any group
    /// that adds no read edge.
    order: Vec<usize>,
    /// Power-on lane words before any `CR` constant lane diverges: each
    /// symbol's declared init value in every lane. The plan keeps them
    /// for all its groups.
    pub(crate) init: Vec<LaneWord>,
    /// The stillborn test for deletions and target-index rewrites,
    /// built by the first group that holds one.
    validator: OnceLock<Validator<'a>>,
}

impl<'a> BaseCompile<'a> {
    /// Builds the shared prefix for one entity; `None` when the design
    /// has no entity of that name.
    pub(crate) fn new(checked: &'a CheckedDesign, entity_name: &str) -> Option<Self> {
        let (entity, info) = checked.entity(entity_name)?;
        let init = info
            .symbols
            .iter()
            .map(|s| [s.init & Bits::mask_of(s.width); LANES])
            .collect();
        Some(Self {
            checked,
            entity,
            info,
            reads: info.comb_reads(entity),
            order: info.comb_order.clone(),
            init,
            validator: OnceLock::new(),
        })
    }

    /// Whether re-checking would accept `mutant` (see [`Validator`]).
    fn accepts(&self, mutant: &Mutant) -> bool {
        self.validator.get_or_init(|| Validator::new(self.checked)).check(mutant)
    }
}

/// Mutation sites of one group, keyed the way the compiler meets them.
#[derive(Default)]
struct Sites {
    /// Expression rewrites (LOR/ROR/AOR/VR/CVR/CR-literal/UOI/UOD).
    expr: HashMap<NodeId, Vec<(u32, Rewrite)>>,
    /// SDL lanes per assignment statement.
    stmt_delete: HashMap<NodeId, u64>,
    /// CSR lanes per `if`-arm condition.
    cond_stuck: HashMap<NodeId, Vec<(u32, bool)>>,
    /// CR lanes per case arm: `(lane, choice index, new value)`.
    case_choice: HashMap<NodeId, Vec<(u32, usize, u64)>>,
    /// CR lanes per constant declaration.
    const_decl: HashMap<NodeId, Vec<(u32, u64)>>,
}

impl Sites {
    fn build(base: &BaseCompile, group: &[&Mutant]) -> Self {
        let mut sites = Sites::default();
        for (slot, mutant) in group.iter().enumerate() {
            let lane = slot as u32 + 1;
            match &mutant.rewrite {
                // An SDL can leave an output port undriven, or violate
                // full assignment in a combinational process: the scalar
                // engine rejects such a mutant as stillborn at apply
                // time. Compile it in only when re-checking would accept
                // it; otherwise the lane stays unapplied and the group
                // runner's scalar fallback reproduces the exact error.
                Rewrite::DeleteStmt if base.accepts(mutant) => {
                    *sites.stmt_delete.entry(mutant.site).or_insert(0) |= 1 << lane;
                }
                Rewrite::DeleteStmt => {}
                Rewrite::StuckCondition { value } => {
                    sites.cond_stuck.entry(mutant.site).or_default().push((lane, *value));
                }
                Rewrite::CaseChoice { index, value } => sites
                    .case_choice
                    .entry(mutant.site)
                    .or_default()
                    .push((lane, *index, *value)),
                Rewrite::ConstDecl { value } => sites
                    .const_decl
                    .entry(mutant.site)
                    .or_default()
                    .push((lane, *value)),
                other => sites
                    .expr
                    .entry(mutant.site)
                    .or_default()
                    .push((lane, other.clone())),
            }
        }
        sites
    }
}

/// Child-register context handed to the mutation-site folder so `LOR`
/// reuses the already-compiled operands and `UOD` the inner argument;
/// a literal index carries the width the checker bounds it by.
enum Ctx {
    Plain,
    Index { width: u32 },
    Not { arg: Reg },
    Binary { a: Reg, b: Reg },
}

pub(crate) fn compile_group(group: &[&Mutant], base: &BaseCompile) -> Result<Compiled, Cycle> {
    let info = base.info;
    debug_assert!(group.len() < LANES, "at most {} mutants per group", LANES - 1);
    let order = comb_order_union(group, base)?;
    let mut compiler = Compiler::new(base, group, Sites::build(base, group));
    let power_on = compiler.build_power_on();
    let comb = compiler.compile_comb(&order);
    let edge = compiler.compile_edge();
    let fallback: Vec<usize> = (0..group.len())
        .filter(|slot| compiler.applied & (1u64 << (slot + 1)) == 0)
        .collect();
    let symbols = base.init.len();
    #[cfg(debug_assertions)]
    {
        super::verify::verify_tape(&comb, symbols);
        super::verify::verify_tape(&edge, symbols);
    }
    // A symbol whose power-on lanes differ taints its loads. The shared
    // lanes are uniform, so a CR entry diverges when it differs from them.
    let mut diverges = vec![false; symbols];
    for &(sym, _, value) in &power_on {
        diverges[sym as usize] |= value != base.init[sym as usize][0];
    }
    let lowered = lower_unit(&comb, &edge, diverges);
    #[cfg(debug_assertions)]
    {
        for (unit, tape) in [(&lowered.comb, &comb), (&lowered.edge, &edge)] {
            super::verify::verify_unit(
                unit,
                tape,
                symbols,
                lowered.consts.len(),
                lowered.scratch_scalar,
            );
        }
    }
    Ok(Compiled {
        lowered,
        power_on,
        data_inputs: info
            .data_inputs
            .iter()
            .map(|&sym| (sym, info.symbol(sym).width))
            .collect(),
        outputs: info.outputs.clone(),
        combinational: info.is_combinational(),
        fallback,
    })
}

/// Evaluation order for the combinational processes under the **union**
/// of the original read dependencies and every `VR` rewrite in the
/// group. A topological order of the union graph is simultaneously
/// valid for every lane (each lane's graph is a subgraph), so one order
/// serves the reference and all mutants; the settled values are the
/// unique fixpoint and cannot depend on tie-breaking.
fn comb_order_union(group: &[&Mutant], base: &BaseCompile) -> Result<Vec<usize>, Cycle> {
    let (entity, info) = (base.entity, base.info);
    // VR rewrites add one read edge each (inside the process that holds
    // the site); replacements by process variables never cross processes.
    let mut added: Vec<(usize, SymbolId)> = Vec::new();
    for mutant in group {
        let Rewrite::Ref { new } = &mutant.rewrite else { continue };
        let Some(sym) = info.symbol_by_name(new) else { continue };
        if !matches!(
            info.symbol(sym).kind,
            SymbolKind::PortIn { .. } | SymbolKind::PortOut | SymbolKind::Signal
        ) {
            continue;
        }
        for (&i, syms) in &base.reads {
            if syms.contains(&sym) {
                continue; // edge already in the base graph
            }
            let mut found = false;
            walk_exprs(&entity.processes[i].body, &mut |e| found |= e.id() == mutant.site);
            if found {
                added.push((i, sym));
            }
        }
    }
    // No group edge beyond the base graph: the cached base order is the
    // union order.
    if added.is_empty() {
        return Ok(base.order.clone());
    }
    let mut reads = base.reads.clone();
    for (i, sym) in added {
        reads.entry(i).or_default().insert(sym);
    }
    info.comb_schedule(&reads).map_err(|_| Cycle)
}

struct Compiler<'a, 'b> {
    entity: &'a Entity,
    info: &'a EntityInfo,
    base: &'b BaseCompile<'a>,
    group: &'b [&'b Mutant],
    sites: Sites,
    /// Compiling an assignment's target index, where every rewrite must
    /// pass the validator.
    in_target_index: bool,
    /// Lanes whose rewrite landed somewhere in the compiled entity.
    applied: u64,
    // ---- per-tape build state -------------------------------------------
    instrs: Vec<Instr>,
    stores: Vec<(u32, Reg)>,
    /// Committed values (wires in the comb tape; vars and loop indices).
    env: BTreeMap<SymbolId, Reg>,
    /// Staged writes of the clocked process being compiled.
    overlay: Option<BTreeMap<SymbolId, Reg>>,
    loads: BTreeMap<SymbolId, Reg>,
    consts: BTreeMap<u64, Reg>,
    current_process: usize,
    var_syms: HashMap<(usize, String), SymbolId>,
}

impl<'a, 'b> Compiler<'a, 'b> {
    fn new(base: &'b BaseCompile<'a>, group: &'b [&'b Mutant], sites: Sites) -> Self {
        let (entity, info) = (base.entity, base.info);
        let mut var_syms = HashMap::new();
        for (i, sym) in info.symbols.iter().enumerate() {
            if let SymbolKind::Var { process } = sym.kind {
                var_syms.insert((process, sym.name.clone()), SymbolId(i as u32));
            }
        }
        Self {
            entity,
            info,
            base,
            group,
            sites,
            in_target_index: false,
            applied: 0,
            instrs: Vec::new(),
            stores: Vec::new(),
            env: BTreeMap::new(),
            overlay: None,
            loads: BTreeMap::new(),
            consts: BTreeMap::new(),
            current_process: 0,
            var_syms,
        }
    }

    /// The group's power-on lanes over the shared ones (every symbol
    /// broadcasts its declared init value, [`BaseCompile`]): CR mutants
    /// of constant declarations diverge their lane, one
    /// `(symbol, lane, value)` entry each.
    fn build_power_on(&mut self) -> Vec<(u32, u32, u64)> {
        let mut power_on = Vec::new();
        for cst in &self.entity.consts {
            let Some(list) = self.sites.const_decl.get(&cst.id) else { continue };
            let Some(sym) = self.info.symbol_by_name(&cst.name.name) else { continue };
            for &(lane, value) in list {
                if check_const_value(cst, value).is_ok() {
                    power_on.push((sym.0, lane, value));
                    self.applied |= 1 << lane;
                }
            }
        }
        power_on
    }

    fn begin_tape(&mut self) {
        self.instrs.clear();
        self.stores.clear();
        self.env.clear();
        self.overlay = None;
        self.loads.clear();
        self.consts.clear();
    }

    fn take_tape(&mut self) -> Tape {
        Tape {
            instrs: std::mem::take(&mut self.instrs),
            stores: std::mem::take(&mut self.stores),
        }
    }

    fn compile_comb(&mut self, order: &[usize]) -> Tape {
        self.begin_tape();
        for &pidx in order {
            self.compile_process(pidx);
        }
        let env = std::mem::take(&mut self.env);
        for (sym, reg) in env {
            if matches!(
                self.info.symbol(sym).kind,
                SymbolKind::Signal | SymbolKind::PortOut
            ) {
                self.stores.push((sym.0, reg));
            }
        }
        self.take_tape()
    }

    fn compile_edge(&mut self) -> Tape {
        self.begin_tape();
        for pidx in self.info.seq_processes.clone() {
            self.overlay = Some(BTreeMap::new());
            self.compile_process(pidx);
            let overlay = self.overlay.take().expect("overlay set above");
            for (sym, reg) in overlay {
                self.stores.push((sym.0, reg));
            }
        }
        self.take_tape()
    }

    fn compile_process(&mut self, pidx: usize) {
        self.current_process = pidx;
        let process = &self.entity.processes[pidx];
        // Variables restart from their declared init each activation.
        for var in &process.vars {
            let sym = self.var_syms[&(pidx, var.name.name.clone())];
            let width = self.info.symbol(sym).width;
            let reg = self.konst(var.init & Bits::mask_of(width));
            self.env.insert(sym, reg);
        }
        self.stmts(&process.body, None);
    }

    // ---- emission helpers ----------------------------------------------

    fn emit(&mut self, instr: Instr) -> Reg {
        self.instrs.push(instr);
        (self.instrs.len() - 1) as Reg
    }

    fn konst(&mut self, value: u64) -> Reg {
        if let Some(&r) = self.consts.get(&value) {
            return r;
        }
        let r = self.emit(Instr::Const { value });
        self.consts.insert(value, r);
        r
    }

    fn and1(&mut self, a: Reg, b: Reg) -> Reg {
        self.emit(Instr::Bin { op: BinOp::And, a, b, width: 1 })
    }

    fn or1(&mut self, a: Reg, b: Reg) -> Reg {
        self.emit(Instr::Bin { op: BinOp::Or, a, b, width: 1 })
    }

    fn not1(&mut self, a: Reg) -> Reg {
        self.emit(Instr::Not { a, width: 1 })
    }

    fn width_of(&self, id: NodeId) -> u32 {
        self.info.widths[&id]
    }

    /// Reads a symbol with the scalar simulator's visibility rules:
    /// the clocked process's own staged writes first, then values
    /// committed earlier in this tape, then persistent state.
    fn read(&mut self, sym: SymbolId) -> Reg {
        if let Some(overlay) = &self.overlay {
            if matches!(
                self.info.symbol(sym).kind,
                SymbolKind::Signal | SymbolKind::PortOut
            ) {
                if let Some(&r) = overlay.get(&sym) {
                    return r;
                }
            }
        }
        if let Some(&r) = self.env.get(&sym) {
            return r;
        }
        if let Some(&r) = self.loads.get(&sym) {
            return r;
        }
        let r = self.emit(Instr::Load { sym: sym.0 });
        self.loads.insert(sym, r);
        r
    }

    fn write(&mut self, sym: SymbolId, reg: Reg) {
        let staged = matches!(
            self.info.symbol(sym).kind,
            SymbolKind::Signal | SymbolKind::PortOut
        );
        if staged {
            if let Some(overlay) = &mut self.overlay {
                overlay.insert(sym, reg);
                return;
            }
        }
        self.env.insert(sym, reg);
    }

    // ---- statements -----------------------------------------------------

    fn stmts(&mut self, stmts: &[Stmt], guard: Option<Reg>) {
        for stmt in stmts {
            self.stmt(stmt, guard);
        }
    }

    fn stmt(&mut self, stmt: &Stmt, guard: Option<Reg>) {
        match stmt {
            Stmt::Assign { id, target, value, .. } => {
                let sym = self.info.resolved[&target.id];
                let width = self.info.symbol(sym).width;
                let new = match &target.sel {
                    None => self.expr(value),
                    Some(Select::Index(index)) => {
                        self.in_target_index = true;
                        let ix = self.index(index, width);
                        self.in_target_index = false;
                        let bit = self.expr(value);
                        let cur = self.read(sym);
                        self.emit(Instr::DynSet { cur, index: ix, bit, width })
                    }
                    Some(Select::Slice { hi, lo }) => {
                        let v = self.expr(value);
                        let cur = self.read(sym);
                        self.emit(Instr::WithSlice { cur, v, hi: *hi, lo: *lo })
                    }
                };
                let committed = match guard {
                    None => new,
                    Some(g) => {
                        let cur = self.read(sym);
                        self.emit(Instr::Sel { cond: g, a: new, b: cur })
                    }
                };
                let stored = if let Some(&mask) = self.sites.stmt_delete.get(id) {
                    // SDL: deleted lanes keep the pre-statement value.
                    self.applied |= mask;
                    let cur = self.read(sym);
                    self.emit(Instr::MaskSel { mask, a: cur, b: committed })
                } else {
                    committed
                };
                self.write(sym, stored);
            }
            Stmt::If { arms, else_body, .. } => {
                let mut taken: Option<Reg> = None;
                for (cond, body) in arms {
                    let mut c = self.expr(cond);
                    // CSR can never be stillborn: the full-assignment
                    // analysis intersects the arms regardless of what the
                    // condition computes, and the replacement literal is
                    // width-1 like every condition — so compiling the
                    // stuck value in always preserves re-check parity.
                    if let Some(list) = self.sites.cond_stuck.get(&cond.id()).cloned() {
                        for (lane, value) in list {
                            let k = self.konst(u64::from(value));
                            c = self.emit(Instr::MaskSel { mask: 1 << lane, a: k, b: c });
                            self.applied |= 1 << lane;
                        }
                    }
                    let mut g = c;
                    if let Some(t) = taken {
                        let nt = self.not1(t);
                        g = self.and1(g, nt);
                    }
                    if let Some(outer) = guard {
                        g = self.and1(g, outer);
                    }
                    self.stmts(body, Some(g));
                    taken = Some(match taken {
                        None => c,
                        Some(t) => self.or1(t, c),
                    });
                }
                if let Some(body) = else_body {
                    let t = taken.expect("if has at least one arm");
                    let mut g = self.not1(t);
                    if let Some(outer) = guard {
                        g = self.and1(g, outer);
                    }
                    self.stmts(body, Some(g));
                }
            }
            Stmt::Case { subject, arms, default, .. } => {
                let subj = self.expr(subject);
                let sw = self.width_of(subject.id());
                // Re-check parity for CR on case choices: a replacement
                // the checker's case-choice rule rejects (it does not fit
                // the subject width, or it collides with any *other*
                // choice of this statement) is stillborn under the scalar
                // engine — leave those lanes unapplied so the scalar
                // fallback reproduces the exact error.
                let choices: HashSet<u64> =
                    arms.iter().flat_map(|arm| arm.choices.iter().copied()).collect();
                let choice_ok = |old: u64, value: u64| {
                    value == old || check_case_choice(value, sw, &choices, Span::dummy()).is_ok()
                };
                let mut taken: Option<Reg> = None;
                for arm in arms {
                    let choice_sites = self.sites.case_choice.get(&arm.id).cloned();
                    let mut matched: Option<Reg> = None;
                    for (index, &choice) in arm.choices.iter().enumerate() {
                        let mut k = self.konst(choice & Bits::mask_of(sw));
                        if let Some(list) = &choice_sites {
                            for &(lane, idx, value) in list {
                                if idx == index && choice_ok(choice, value) {
                                    let kv = self.konst(value);
                                    k = self.emit(Instr::MaskSel {
                                        mask: 1 << lane,
                                        a: kv,
                                        b: k,
                                    });
                                    self.applied |= 1 << lane;
                                }
                            }
                        }
                        let eq = self.emit(Instr::Bin { op: BinOp::Eq, a: subj, b: k, width: 1 });
                        matched = Some(match matched {
                            None => eq,
                            Some(m) => self.or1(m, eq),
                        });
                    }
                    let c = matched.expect("case arm has at least one choice");
                    let mut g = c;
                    if let Some(t) = taken {
                        let nt = self.not1(t);
                        g = self.and1(g, nt);
                    }
                    if let Some(outer) = guard {
                        g = self.and1(g, outer);
                    }
                    self.stmts(&arm.body, Some(g));
                    taken = Some(match taken {
                        None => c,
                        Some(t) => self.or1(t, c),
                    });
                }
                if let Some(body) = default {
                    let g = match (taken, guard) {
                        (Some(t), Some(outer)) => {
                            let nt = self.not1(t);
                            Some(self.and1(nt, outer))
                        }
                        (Some(t), None) => Some(self.not1(t)),
                        (None, outer) => outer,
                    };
                    self.stmts(body, g);
                }
            }
            Stmt::For { var, lo, hi, body, .. } => {
                let loop_sym = self.info.loop_symbol(body, &var.name);
                for i in *lo..=*hi {
                    if let Some(sym) = loop_sym {
                        let width = self.info.symbol(sym).width;
                        let reg = self.konst(i & Bits::mask_of(width));
                        self.env.insert(sym, reg);
                    }
                    self.stmts(body, guard);
                }
            }
            Stmt::Null { .. } => {}
        }
    }

    // ---- expressions ----------------------------------------------------

    fn expr(&mut self, e: &Expr) -> Reg {
        match e {
            Expr::Literal { id, value, .. } => {
                let w = self.width_of(*id);
                let orig = self.konst(value & Bits::mask_of(w));
                self.expr_sites(e, orig, Ctx::Plain)
            }
            Expr::Ref { id, .. } => {
                let sym = self.info.resolved[id];
                let orig = self.read(sym);
                self.expr_sites(e, orig, Ctx::Plain)
            }
            Expr::Index { base, index, .. } => {
                let b = self.expr(base);
                let width = self.width_of(base.id());
                let ix = self.index(index, width);
                let orig = self.emit(Instr::DynGet { base: b, index: ix, width });
                self.expr_sites(e, orig, Ctx::Plain)
            }
            Expr::Slice { base, hi, lo, .. } => {
                let a = self.expr(base);
                let orig = self.emit(Instr::Slice { a, hi: *hi, lo: *lo });
                self.expr_sites(e, orig, Ctx::Plain)
            }
            Expr::Unary { id, op: UnaryOp::Not, arg } => {
                let a = self.expr(arg);
                let width = self.width_of(*id);
                let orig = self.emit(Instr::Not { a, width });
                self.expr_sites(e, orig, Ctx::Not { arg: a })
            }
            Expr::Binary { id, op, lhs, rhs } => {
                let a = self.expr(lhs);
                let b = self.expr(rhs);
                let width = self.width_of(*id);
                let orig = self.emit(Instr::Bin { op: *op, a, b, width });
                self.expr_sites(e, orig, Ctx::Binary { a, b })
            }
            Expr::Reduce { op, arg, .. } => {
                let a = self.expr(arg);
                let width = self.width_of(arg.id());
                let orig = self.emit(Instr::Reduce { op: *op, a, width });
                self.expr_sites(e, orig, Ctx::Plain)
            }
            Expr::Concat { lhs, rhs, .. } => {
                let a = self.expr(lhs);
                let b = self.expr(rhs);
                let rhs_width = self.width_of(rhs.id());
                let orig = self.emit(Instr::Concat { a, b, rhs_width });
                self.expr_sites(e, orig, Ctx::Plain)
            }
            Expr::Shift { id, op, arg, amount } => {
                let a = self.expr(arg);
                let width = self.width_of(*id);
                let orig = self.emit(Instr::Shift { op: *op, a, amount: *amount, width });
                self.expr_sites(e, orig, Ctx::Plain)
            }
        }
    }

    /// Compiles the index of a `width`-bit base. A literal index, and a
    /// reference a `CVR` turns into one, is bounded by that width, as
    /// the checker bounds it.
    fn index(&mut self, index: &Expr, width: u32) -> Reg {
        let orig = match index {
            Expr::Literal { id, value, .. } => {
                self.konst(value & Bits::mask_of(self.width_of(*id)))
            }
            Expr::Ref { id, .. } => self.read(self.info.resolved[id]),
            _ => return self.expr(index),
        };
        self.expr_sites(index, orig, Ctx::Index { width })
    }

    /// Folds every rewrite addressing this node into a chain of
    /// mask-driven lane selects over the original value. Rewrites that
    /// do not fit the node (or would be stillborn) stay unapplied; the
    /// group runner routes those lanes through the scalar engine.
    fn expr_sites(&mut self, e: &Expr, orig: Reg, ctx: Ctx) -> Reg {
        let Some(list) = self.sites.expr.get(&e.id()).cloned() else {
            return orig;
        };
        let w = self.width_of(e.id());
        let mut acc = orig;
        for (lane, rewrite) in list {
            // A new target index can leave its target partially assigned
            // while the index stays in range.
            if self.in_target_index && !self.base.accepts(self.group[lane as usize - 1]) {
                continue;
            }
            let mutated = match (&rewrite, &ctx) {
                // A relational operator has a 1-bit result and operands
                // of their own width, any other the context's width, so
                // a swap across the two classes changes the node's width.
                (Rewrite::BinOp { new }, Ctx::Binary { a, b })
                    if matches!(e, Expr::Binary { op, .. }
                        if op.is_relational() == new.is_relational()) =>
                {
                    Some(self.emit(Instr::Bin { op: *new, a: *a, b: *b, width: w }))
                }
                // The checker reads a bare literal index as 32 bits wide,
                // but `not` gives it its own width, or none at all.
                (Rewrite::InsertNot, Ctx::Index { .. }) if matches!(e, Expr::Literal { .. }) => {
                    None
                }
                (Rewrite::InsertNot, _) => Some(self.emit(Instr::Not { a: orig, width: w })),
                (Rewrite::DeleteNot, Ctx::Not { arg }) => Some(*arg),
                (Rewrite::Ref { new }, _) if matches!(e, Expr::Ref { .. }) => {
                    self.resolve_replacement(new, w).map(|sym| self.read(sym))
                }
                (Rewrite::RefToConst { value, width }, _) if matches!(e, Expr::Ref { .. }) => {
                    let fits = *width == w && (w == 64 || *value < (1u64 << w));
                    let in_range =
                        !matches!(ctx, Ctx::Index { width } if *value >= u64::from(width));
                    (fits && in_range).then(|| self.konst(*value))
                }
                (Rewrite::Literal { value }, _) if matches!(e, Expr::Literal { .. }) => {
                    let fits = w == 64 || *value < (1u64 << w);
                    let in_range =
                        !matches!(ctx, Ctx::Index { width } if *value >= u64::from(width));
                    (fits && in_range).then(|| self.konst(*value))
                }
                _ => None,
            };
            if let Some(m) = mutated {
                acc = self.emit(Instr::MaskSel { mask: 1 << lane, a: m, b: acc });
                self.applied |= 1 << lane;
            }
        }
        acc
    }

    /// Resolves a `VR` replacement name the way re-checking would:
    /// variables of the current process shadow top-level names. Returns
    /// `None` — leaving the lane to the scalar engine — when the name
    /// is unknown, the width differs, or the replacement would make a
    /// combinational process read a signal it drives (stillborn).
    fn resolve_replacement(&mut self, name: &str, width: u32) -> Option<SymbolId> {
        let sym = self
            .var_syms
            .get(&(self.current_process, name.to_string()))
            .copied()
            .or_else(|| self.info.symbol_by_name(name))?;
        let symbol = self.info.symbol(sym);
        if symbol.width != width {
            return None;
        }
        if matches!(symbol.kind, SymbolKind::PortIn { clock: true }) {
            return None; // clocks cannot be read as data
        }
        let comb_self_read = self.overlay.is_none()
            && self.info.reads_own_drive(self.current_process, sym)
            && matches!(
                self.entity.processes[self.current_process].kind,
                ProcessKind::Comb
            );
        if comb_self_read {
            return None;
        }
        Some(sym)
    }
}
